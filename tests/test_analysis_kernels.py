"""The array analysis kernels match their per-row references bit for bit.

``tests/analysis_reference.py`` holds the straightforward loops; these
properties drive both over equal timestamps, gaps of exactly the window
(which rounding may put either side of it), empty and one-event logs,
the study's 0.1/5/300 s windows and epoch-scale times.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filtering import dedup_by_card, sequential_dedup
from repro.core.heatmap import follow_probability_matrix
from repro.core.stats import rankdata_average
from repro.errors.event import EventLog
from repro.errors.xid import ErrorType
from tests import analysis_reference as ref

WINDOWS = (0.1, 5.0, 300.0)
#: Study-relative seconds, a pinned late-study instant, Unix epoch.
BASES = (0.0, 14650279.517961718, 1.38e9)
TYPES = (
    ErrorType.GRAPHICS_ENGINE_EXCEPTION,
    ErrorType.MEM_PAGE_FAULT,
    ErrorType.DBE,
    ErrorType.OFF_THE_BUS,
)


@st.composite
def sorted_times(draw, window=None):
    """Sorted times built from gaps of 0, exactly ``window`` (added in
    floating point, so the stored gap may round either way), fractions
    of it and arbitrary lengths."""
    window = draw(st.sampled_from(WINDOWS)) if window is None else window
    gap = st.one_of(
        st.just(0.0),
        st.just(window),
        st.sampled_from((0.5, 0.999999, 1.000001, 2.0)).map(lambda f: f * window),
        st.floats(0.0, 3 * window, allow_nan=False),
    )
    gaps = draw(st.lists(gap, max_size=60))
    t = draw(st.sampled_from(BASES))
    times = [t]
    for g in gaps:
        t = t + g
        times.append(t)
    return np.asarray(times[: draw(st.integers(0, len(times)))])


@st.composite
def logs(draw, window=None):
    times = draw(sorted_times(window))
    n = times.size
    row = st.integers(-1, max(n - 1, -1))
    return EventLog.from_arrays(
        time=times,
        gpu=draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
        etype=draw(
            st.lists(st.sampled_from([t.code for t in TYPES]), min_size=n, max_size=n)
        ),
        job=draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)),
        parent=draw(st.lists(row, min_size=n, max_size=n)),
        aux=np.arange(n),
    )


def assert_rows(actual: EventLog, log: EventLog, mask: np.ndarray) -> None:
    for name in ("time", "gpu", "etype", "structure", "job", "aux"):
        assert getattr(actual, name).tobytes() == getattr(log, name)[mask].tobytes()
    assert actual.parent.tobytes() == ref.remap_parents(log.parent, mask).tobytes()


class TestSequentialDedup:
    @given(data=st.data(), window=st.sampled_from(WINDOWS))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, data, window):
        log = data.draw(logs(window))
        result = sequential_dedup(log, window)
        mask = ref.dedup_mask(log.time, window)
        assert result.kept_mask.tobytes() == mask.tobytes()
        assert (result.n_kept, result.n_dropped) == (mask.sum(), (~mask).sum())
        assert_rows(result.kept, log, mask)
        assert_rows(result.dropped, log, ~mask)

    @given(times=sorted_times(), window=st.floats(1e-6, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_any_window_matches_reference(self, times, window):
        log = EventLog.from_arrays(time=times, gpu=np.zeros(times.size))
        mask = ref.dedup_mask(times, window)
        assert sequential_dedup(log, window).kept_mask.tobytes() == mask.tobytes()

    def test_rounding_boundary_is_exact(self):
        """``t - last`` falls short of 0.1 s although ``t >= last + 0.1``:
        the filter drops ``t``, as the per-row loop does."""
        last, t = 14650279.517961718, 14650279.617961718
        assert t - last < 0.1 and t >= last + 0.1
        log = EventLog.from_arrays(time=[last, t, t, t + 0.1], gpu=[0, 1, 2, 3])
        result = sequential_dedup(log, 0.1)
        assert result.kept_mask.tolist() == ref.dedup_mask(log.time, 0.1).tolist()
        assert result.kept_mask.tolist() == [True, False, False, True]

    def test_empty_and_single(self):
        for n in (0, 1):
            log = EventLog.from_arrays(time=np.zeros(n), gpu=np.zeros(n))
            result = sequential_dedup(log, 5.0)
            assert (result.n_kept, result.n_dropped) == (n, 0)
            assert len(result.kept) == n and len(result.dropped) == 0


class TestDedupByCard:
    @given(log=logs())
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, log):
        mask = ref.first_per_card_mask(log.gpu)
        result = dedup_by_card(log)
        assert result.kept_mask.tobytes() == mask.tobytes()
        assert_rows(result.kept, log, mask)


class TestFollowMatrix:
    @given(log=logs(), window=st.sampled_from(WINDOWS))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, log, window):
        fm = follow_probability_matrix(log, types=TYPES, window_s=window)
        matrix, counts = ref.follow_matrix(log, types=TYPES, window_s=window)
        assert fm.matrix.tobytes() == matrix.tobytes()
        assert fm.counts.tobytes() == counts.tobytes()

    @given(log=logs(), window=st.floats(1e-6, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_any_window_matches_reference(self, log, window):
        fm = follow_probability_matrix(log, types=TYPES, window_s=window)
        matrix, _ = ref.follow_matrix(log, types=TYPES, window_s=window)
        assert fm.matrix.tobytes() == matrix.tobytes()

    def test_default_types_on_empty_log(self):
        fm = follow_probability_matrix(EventLog.empty())
        matrix, counts = ref.follow_matrix(EventLog.empty())
        assert fm.matrix.tobytes() == matrix.tobytes()
        assert fm.counts.tobytes() == counts.tobytes()


class TestRankdata:
    @given(
        x=st.lists(
            st.one_of(
                st.sampled_from((0.0, -0.0, 1.0, 2.0, np.nan, np.inf)),
                st.floats(allow_nan=True),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, x):
        assert rankdata_average(x).tobytes() == ref.rankdata_average(x).tobytes()
