"""Event filtering: separating parent events from their children.

Section 2.2: "there may be one real 'parent' event and multiple 'child'
events. One can exclude these 'child' error events by applying a
filtering to avoid bias in failure characterization."  The toolkit
offers the filters the paper applies:

* :func:`sequential_dedup` — the Fig. 12 time-threshold filter: walk a
  (same-type) event stream in time order; any event closer than the
  threshold to the **last kept** event is dropped as a child.  With a
  5-second window this "effectively counts only one XID 13 event per
  job because the job would crash after the error".
* :func:`dedup_by_card` — count at most one event per GPU card
  ("counting only one DBE error per card", Fig. 3(b)).
* :func:`split_parents_children` — both halves at once, for analyses
  that also need the children (Fig. 12 bottom panel).

Filters operate on the *parsed* console log, which carries no parent
annotations — exactly the authors' situation.

A filter decides a boolean ``kept_mask`` over its input; the
:class:`FilterResult` builds the ``kept`` and ``dropped`` logs from it
only when they are first read.  The dropped half of an XID 13 stream is
the ~976k job-wide echoes, which only Fig. 12 needs, so counting
callers (``n_kept``/``n_dropped``) never copy it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors.event import EventLog

__all__ = [
    "FilterResult",
    "sequential_dedup",
    "split_parents_children",
    "dedup_by_card",
    "first_of_each_card",
]


@dataclass(frozen=True)
class FilterResult:
    """Outcome of a parent/child split of ``log``.

    ``kept`` (estimated parents) and ``dropped`` (estimated children)
    are built on first access, each with parents remapped to its own
    row numbering; the counts come from ``kept_mask`` alone.
    """

    log: EventLog  # the filtered input
    kept_mask: np.ndarray  # over the input log

    @cached_property
    def kept(self) -> EventLog:
        return self.log.select_with_parent_remap(self.kept_mask)

    @cached_property
    def dropped(self) -> EventLog:
        return self.log.select_with_parent_remap(~self.kept_mask)

    @property
    def n_kept(self) -> int:
        return int(np.count_nonzero(self.kept_mask))

    @property
    def n_dropped(self) -> int:
        return len(self.log) - self.n_kept


def _require_sorted(log: EventLog) -> None:
    if not log.is_sorted():
        raise ValueError("filtering requires a time-sorted log; "
                         "call log.sorted_by_time() first")


def _next_kept(times: np.ndarray, i: int, window_s: float) -> int:
    """Index of the first event after kept event ``i`` that is kept.

    That is the first ``j`` with ``not times[j] - times[i] < window_s``,
    the global filter's exact predicate; ``times.size`` if there is
    none.  The search for ``times[i] + window_s`` only finds a
    candidate, because rounding can put the first index satisfying the
    predicate on either side of it: ``14650279.617961718`` is at least
    ``14650279.517961718 + 0.1`` but less than 0.1 s after it.
    ``fl(t - last)`` never decreases as ``t`` grows, so the predicate
    holds on a suffix of the sorted times, and stepping over whole runs
    of equal timestamps reaches its start in a few steps.
    """
    last = times[i]
    j = max(int(np.searchsorted(times, last + window_s)), i + 1)
    while j < times.size and times[j] - last < window_s:
        j = int(np.searchsorted(times, times[j], side="right"))
    while j - 1 > i and not (times[j - 1] - last < window_s):
        j = max(int(np.searchsorted(times, times[j - 1])), i + 1)
    return j


def sequential_dedup(
    log: EventLog,
    window_s: float,
    *,
    per_job: bool = False,
) -> FilterResult:
    """Time-threshold child filter over a (typically single-type) log.

    Keeps an event iff it is at least ``window_s`` seconds after the
    previously *kept* event; with ``per_job=True`` the threshold applies
    per job id instead of globally (events without a job tag are then
    always kept).

    A zero window keeps everything.  The global filter costs
    O(kept · log n): an event at least ``window_s`` after its
    predecessor is kept whatever came before, so all of those are found
    in one array pass, and the walk only jumps from kept event to kept
    event inside runs of closer-spaced events (job-wide echoes).
    """
    _require_sorted(log)
    if window_s < 0:
        raise ValueError("window must be non-negative")
    n = len(log)
    if not (window_s > 0 and n):
        return FilterResult(log, np.ones(n, dtype=bool))
    if per_job:
        keep = np.ones(n, dtype=bool)
        last_kept: dict[int, float] = {}
        for i in range(n):
            job = int(log.job[i])
            if job < 0:
                continue
            t = float(log.time[i])
            prev = last_kept.get(job)
            if prev is not None and t - prev < window_s:
                keep[i] = False
            else:
                last_kept[job] = t
        return FilterResult(log, keep)
    times = log.time
    # fl(t - last) >= fl(t - prev) for last <= prev, so an event that
    # passes against its predecessor passes against any kept event.
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.logical_not(np.diff(times) < window_s, out=keep[1:])
    # Walk only from kept events whose successor is too close.
    for start in np.flatnonzero(keep[:-1] & ~keep[1:]):
        i = int(start)
        while True:
            i = _next_kept(times, i, window_s)
            if i >= n or keep[i]:
                break
            keep[i] = True
    return FilterResult(log, keep)


def split_parents_children(
    log: EventLog, window_s: float, **kwargs
) -> tuple[EventLog, EventLog]:
    """Convenience: (parents, children) halves of a sequential dedup."""
    result = sequential_dedup(log, window_s, **kwargs)
    return result.kept, result.dropped


def dedup_by_card(log: EventLog) -> FilterResult:
    """Keep only the first event per GPU (card) — Fig. 3(b)'s
    "distinct GPU cards" counting."""
    _require_sorted(log)
    keep = np.zeros(len(log), dtype=bool)
    keep[np.unique(log.gpu, return_index=True)[1]] = True
    return FilterResult(log, keep)


def first_of_each_card(log: EventLog) -> EventLog:
    """Shorthand for ``dedup_by_card(log).kept``."""
    return dedup_by_card(log).kept
