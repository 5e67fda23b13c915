"""The per-batch-job nvidia-smi snapshot framework.

Section 2.2: "we have very recently developed a framework where we can
take nvidia-smi snapshots before and after each batch job. This helps
in identifying the single bit error counts, location and its
correlation with different types of jobs."  Two properties the paper
stresses are reproduced faithfully:

* the granularity is the **batch job**, not the aprun — "the SBE counts
  can not be collected on a per aprun basis … since the nvidia-smi
  output is run before and after the job script, irrespective of number
  of apruns within the job script";
* collection exists only for a recent window ("the period of over a
  month"), so the framework is parameterized by its deployment time and
  only reports jobs that *end* after it.

The emulator diffs the (simulated) InfoROM state around each job, which
is exactly the injected per-job SBE count; the correlation analyses of
Figs. 16–20 consume the resulting records.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.workload.jobs import JobTrace

__all__ = [
    "JobSnapshotRecord",
    "JobSnapshotFramework",
    "JobsnapParseStats",
    "render_jobsnap_records",
    "iter_jobsnap_lines",
    "parse_jobsnap_records",
    "JOBSNAP_HEADER",
]


@dataclass(frozen=True)
class JobSnapshotRecord:
    """One job's before/after snapshot diff plus its accounting data."""

    job: int
    user: int
    n_nodes: int
    gpu_core_hours: float
    max_memory_gb: float
    total_memory: float
    walltime_h: float
    sbe_delta: int


class JobSnapshotFramework:
    """Emulates the before/after-job nvidia-smi collection.

    Parameters
    ----------
    deployed_at:
        Timestamp the framework went live; jobs ending earlier have no
        records (the paper only had "over a month" of such data).
    """

    def __init__(self, deployed_at: float) -> None:
        self.deployed_at = float(deployed_at)

    def covered_jobs(self, trace: JobTrace) -> np.ndarray:
        """Indices of jobs with snapshot coverage (started at/after
        deployment, so the 'before' snapshot exists)."""
        return np.flatnonzero(trace.start >= self.deployed_at)

    def collect(
        self, trace: JobTrace, sbe_by_job: np.ndarray
    ) -> list[JobSnapshotRecord]:
        """Produce snapshot records for every covered job."""
        sbe_by_job = np.asarray(sbe_by_job)
        if sbe_by_job.shape != (len(trace),):
            raise ValueError("sbe_by_job must have one entry per job")
        records = []
        core_hours = trace.gpu_core_hours
        walltime = trace.walltime_h
        for j in self.covered_jobs(trace):
            j = int(j)
            records.append(
                JobSnapshotRecord(
                    job=j,
                    user=int(trace.user[j]),
                    n_nodes=int(trace.n_nodes[j]),
                    gpu_core_hours=float(core_hours[j]),
                    max_memory_gb=float(trace.max_memory_gb[j]),
                    total_memory=float(trace.total_memory[j]),
                    walltime_h=float(walltime[j]),
                    sbe_delta=int(sbe_by_job[j]),
                )
            )
        return records

    @staticmethod
    def to_arrays(records: list[JobSnapshotRecord]) -> dict[str, np.ndarray]:
        """Columnar view of snapshot records for vectorized analysis."""
        return {
            "job": np.asarray([r.job for r in records], dtype=np.int64),
            "user": np.asarray([r.user for r in records], dtype=np.int64),
            "n_nodes": np.asarray([r.n_nodes for r in records], dtype=np.int64),
            "gpu_core_hours": np.asarray(
                [r.gpu_core_hours for r in records], dtype=np.float64
            ),
            "max_memory_gb": np.asarray(
                [r.max_memory_gb for r in records], dtype=np.float64
            ),
            "total_memory": np.asarray(
                [r.total_memory for r in records], dtype=np.float64
            ),
            "walltime_h": np.asarray(
                [r.walltime_h for r in records], dtype=np.float64
            ),
            "sbe": np.asarray([r.sbe_delta for r in records], dtype=np.int64),
        }


# --------------------------------------------------------------------------
# On-disk text format (the collection pipeline's record stream)
# --------------------------------------------------------------------------

#: Column order of the tab-separated record stream.
JOBSNAP_HEADER = (
    "job\tuser\tn_nodes\tgpu_core_hours\tmax_memory_gb"
    "\ttotal_memory\twalltime_h\tsbe_delta"
)

#: Field values past this are torn digits, not accounting data.
_MAX_INT_FIELD = 2**62


def render_jobsnap_records(records: list[JobSnapshotRecord]) -> str:
    """Render snapshot records as the tab-separated collection stream."""
    return "\n".join(iter_jobsnap_lines(records)) + "\n"


def iter_jobsnap_lines(records: list[JobSnapshotRecord]) -> Iterator[str]:
    """Header + one row per record — the lines of the record stream.

    Newline-terminated concatenation is byte-identical to
    :func:`render_jobsnap_records`.
    """
    yield JOBSNAP_HEADER
    for r in records:
        yield (
            f"{r.job}\t{r.user}\t{r.n_nodes}\t{r.gpu_core_hours:.6f}"
            f"\t{r.max_memory_gb:.6f}\t{r.total_memory:.6f}"
            f"\t{r.walltime_h:.6f}\t{r.sbe_delta}"
        )


@dataclass
class JobsnapParseStats:
    """Damage accounting for a snapshot record stream."""

    total_rows: int = 0
    parsed_rows: int = 0
    malformed_rows: int = 0

    @property
    def corrupt_fraction(self) -> float:
        if self.total_rows == 0:
            return 0.0
        return self.malformed_rows / self.total_rows


def parse_jobsnap_records(
    text: str, *, strict: bool = False
) -> tuple[list[JobSnapshotRecord], JobsnapParseStats]:
    """Parse a record stream back; damaged rows are counted, not fatal.

    Header lines (including duplicates from spliced streams) are
    skipped.  ``strict=True`` raises ``ValueError`` on the first
    malformed row instead of counting it.
    """
    records: list[JobSnapshotRecord] = []
    stats = JobsnapParseStats()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line == JOBSNAP_HEADER:
            continue
        stats.total_rows += 1
        fields = line.split("\t")
        record = _decode_row(fields)
        if record is None:
            stats.malformed_rows += 1
            if strict:
                raise ValueError(
                    f"malformed jobsnap row at line {line_no}: {line!r}"
                )
            continue
        records.append(record)
        stats.parsed_rows += 1
    return records, stats


def _decode_row(fields: list[str]) -> JobSnapshotRecord | None:
    """Decode one tab-split row; None if the row is damaged."""
    if len(fields) != 8:
        return None
    try:
        job, user, n_nodes = int(fields[0]), int(fields[1]), int(fields[2])
        gpu_core_hours = float(fields[3])
        max_memory_gb = float(fields[4])
        total_memory = float(fields[5])
        walltime_h = float(fields[6])
        sbe_delta = int(fields[7])
    except ValueError:
        return None
    ints = (job, user, n_nodes, sbe_delta)
    if any(abs(v) >= _MAX_INT_FIELD for v in ints):
        return None
    floats = (gpu_core_hours, max_memory_gb, total_memory, walltime_h)
    if any(not np.isfinite(v) for v in floats):
        return None
    return JobSnapshotRecord(
        job=job,
        user=user,
        n_nodes=n_nodes,
        gpu_core_hours=gpu_core_hours,
        max_memory_gb=max_memory_gb,
        total_memory=total_memory,
        walltime_h=walltime_h,
        sbe_delta=sbe_delta,
    )
