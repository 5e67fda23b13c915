"""Per-row reference analysis kernels (test oracle).

:func:`repro.core.filtering.sequential_dedup`,
:func:`repro.core.heatmap.follow_probability_matrix` and
:func:`repro.core.stats.rankdata_average` are array code; this module is
the straightforward per-event loop, pairwise two-search heatmap and
tie-group loop they must match bit for bit.
"""

import numpy as np

from repro.core.heatmap import DEFAULT_HEATMAP_TYPES
from repro.errors.event import EventLog
from repro.errors.xid import ErrorType


def dedup_mask(times: np.ndarray, window_s: float) -> np.ndarray:
    """Global time-threshold filter over sorted ``times``: keep an event
    iff ``t - last >= window_s`` for the last kept time ``last``."""
    keep = np.ones(times.size, dtype=bool)
    if window_s > 0:
        last = -np.inf
        for i in range(times.size):
            if times[i] - last < window_s:
                keep[i] = False
            else:
                last = times[i]
    return keep


def follow_matrix(
    log: EventLog,
    *,
    types: tuple[ErrorType, ...] = DEFAULT_HEATMAP_TYPES,
    window_s: float = 300.0,
) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, counts) of the Fig. 13 heatmap: for every cell, a type-i
    event is followed iff some type-j time lies in (t, t + window]."""
    if not log.is_sorted():
        log = log.sorted_by_time()
    k = len(types)
    times_by_type = [log.of_type(t).time for t in types]
    counts = np.asarray([t.size for t in times_by_type], dtype=np.int64)
    matrix = np.zeros((k, k), dtype=np.float64)
    for i in range(k):
        ti = times_by_type[i]
        if ti.size == 0:
            continue
        for j in range(k):
            tj = times_by_type[j]
            if tj.size == 0:
                continue
            lo = np.searchsorted(tj, ti, side="right")
            hi = np.searchsorted(tj, ti + window_s, side="right")
            matrix[i, j] = float(np.count_nonzero(hi > lo) / ti.size)
    return matrix, counts


def rankdata_average(x) -> np.ndarray:
    """1-based ranks, ties sharing the average of their positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    sx = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def remap_parents(parent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``parent`` of the rows ``mask`` keeps, renumbered one row at a
    time; a parent the mask drops becomes -1."""
    new_index = {}
    for row in range(mask.size):
        if mask[row]:
            new_index[row] = len(new_index)
    return np.asarray(
        [new_index.get(int(p), -1) for p in parent[mask]], dtype=np.int64
    )


def first_per_card_mask(gpus: np.ndarray) -> np.ndarray:
    """Keep the first event of each GPU."""
    keep = np.zeros(gpus.size, dtype=bool)
    seen = set()
    for i in range(gpus.size):
        if int(gpus[i]) not in seen:
            seen.add(int(gpus[i]))
            keep[i] = True
    return keep
