"""XID→XID temporal re-occurrence heatmaps (Fig. 13, Observation 9).

For an ordered pair of error types (i, j), the heatmap cell is the
fraction of type-i events that see at least one type-j event anywhere
on the machine within the following ``window_s`` seconds (the paper
uses 300 s "to allow more time for child events to show up").  The
figure's two variants — all pairs, and same-type pairs excluded — are
both supported; the diagonal of the first variant is what exposes
job-wide echoes ("many XID errors often occur multiple times (or at
multiple nodes in the same job)").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors.event import EventLog
from repro.errors.xid import ErrorType

__all__ = ["FollowMatrix", "follow_probability_matrix", "DEFAULT_HEATMAP_TYPES"]

#: The types the paper's Fig. 13 axes carry (streams with enough events).
DEFAULT_HEATMAP_TYPES: tuple[ErrorType, ...] = (
    ErrorType.GRAPHICS_ENGINE_EXCEPTION,  # 13
    ErrorType.MEM_PAGE_FAULT,  # 31
    ErrorType.PUSH_BUFFER,  # 32
    ErrorType.DRIVER_FIRMWARE,  # 38
    ErrorType.GPU_STOPPED,  # 43
    ErrorType.CTXSW_FAULT,  # 44
    ErrorType.PREEMPTIVE_CLEANUP,  # 45
    ErrorType.DBE,  # 48
    ErrorType.MCU_HALT_OLD,  # 59
    ErrorType.MCU_HALT_NEW,  # 62
    ErrorType.ECC_PAGE_RETIREMENT,  # 63
    ErrorType.OFF_THE_BUS,
)


@dataclass(frozen=True)
class FollowMatrix:
    """P(type j within window after a type-i event), row i → column j."""

    types: tuple[ErrorType, ...]
    window_s: float
    matrix: np.ndarray  # shape (k, k)
    counts: np.ndarray  # per-type event counts (denominator per row)

    def value(self, previous: ErrorType, following: ErrorType) -> float:
        i = self.types.index(previous)
        j = self.types.index(following)
        return float(self.matrix[i, j])

    def without_same_type(self) -> "FollowMatrix":
        """Fig. 13's bottom variant: diagonal removed."""
        m = self.matrix.copy()
        np.fill_diagonal(m, 0.0)
        return FollowMatrix(self.types, self.window_s, m, self.counts)

    def labels(self) -> list[str]:
        return [
            str(t.xid) if t.xid is not None else t.name for t in self.types
        ]


def _n_followed(ti: np.ndarray, horizon: np.ndarray, tj: np.ndarray) -> int:
    """How many of the sorted times ``ti`` see a ``tj`` in (t, horizon].

    The needles come from the smaller stream.  Searching
    ``ti`` in ``tj`` finds the first type-j time after each type-i
    event, which must lie within its horizon; NaN past the last type-j
    time compares false, so an event with nothing after it is not
    followed.  Searching ``tj`` instead, each type-j time ``s`` follows
    the type-i events with ``t < s <= horizon``: a run of positions
    ``[first horizon >= s, first t >= s)`` whose ends move right as
    ``s`` grows, so their union is counted without visiting ``ti``.
    """
    if ti.size <= tj.size:
        after = np.append(tj, np.nan)[np.searchsorted(tj, ti, side="right")]
        return int(np.count_nonzero(after <= horizon))
    start = np.searchsorted(horizon, tj)
    stop = np.searchsorted(ti, tj)
    covered_before = np.concatenate(([0], stop[:-1]))
    return int(np.maximum(stop - np.maximum(start, covered_before), 0).sum())


def follow_probability_matrix(
    log: EventLog,
    *,
    types: tuple[ErrorType, ...] = DEFAULT_HEATMAP_TYPES,
    window_s: float = 300.0,
) -> FollowMatrix:
    """Compute the Fig. 13 heatmap from a time-sorted event log.

    For every type-i event at time t, scan (t, t+window] for each type
    j (machine-wide, like the paper); cell (i, j) is the fraction of
    type-i events followed by ≥1 type-j event.  Implementation: per-type
    sorted time arrays and, per cell, ``searchsorted`` with the smaller
    of the two streams as needles, so cost is
    O(Σ_{i,j} min(n_i, n_j) · log n) — the 976k-event XID 13 stream is
    the needles only of its own diagonal cell, not of every column.
    """
    if window_s <= 0:
        raise ValueError("window must be positive")
    if not log.is_sorted():
        log = log.sorted_by_time()
    k = len(types)
    times_by_type = [log.time[log.etype == t.code] for t in types]
    counts = np.asarray([t.size for t in times_by_type], dtype=np.int64)
    matrix = np.zeros((k, k), dtype=np.float64)
    for i, ti in enumerate(times_by_type):
        if ti.size == 0:
            continue
        horizon = ti + window_s
        for j, tj in enumerate(times_by_type):
            matrix[i, j] = _n_followed(ti, horizon, tj) / ti.size
    return FollowMatrix(tuple(types), float(window_s), matrix, counts)
