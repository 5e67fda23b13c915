"""Host-speed sampling, so that times can be read at one reference speed.

On a shared host a vCPU's speed changes in phases of about a second: a
fixed kernel runs up to 1.6 times slower while another tenant loads the
physical core, and the two vCPUs of one guest change independently.  A
kernel timed before or after a workload therefore says little about the
speed the workload saw.  :func:`start` samples that speed *during* it:
a ``SIGALRM`` interval timer runs a short fixed kernel in the sampled
process's main thread every :data:`PERIOD_S` seconds and appends
``(end time, kernel seconds)`` to a file of that process in the sample
directory.  Every interpreter of a repetition samples, the sweep's pool
workers included.

:func:`ref_seconds` turns a wall interval into **reference seconds**:
the interval's length times the mean speed the sampled processes saw
in it, where the speed of a sample is :data:`REF_KERNEL_S` divided by
its kernel time.  A reference second is therefore a second of a host on
which the kernel takes :data:`REF_KERNEL_S`; a slow phase lengthens the
wall time and the kernel time alike, and cancels.  The kernel costs
about 1.5 % of the sampled processes' time.

Timestamps are ``time.monotonic()``, which is system-wide on Linux, so
intervals and samples of different processes share one clock.
"""

from __future__ import annotations

import hashlib
import os
import signal
import statistics
import struct
import time
from pathlib import Path
from typing import Any, Optional

#: Environment variable naming the sample directory; pool workers
#: inherit it.
DIR_ENV = "PAPERBENCH_SPEED_DIR"
#: Seconds between samples of one process.
PERIOD_S = 0.02
#: SHA-256 rounds of the kernel: about 0.25 ms.
KERNEL_ROUNDS = 300
#: Kernel seconds at the reference speed, which defines the unit.
REF_KERNEL_S = 250e-6

_RECORD = struct.Struct("<dd")
_fd: Optional[int] = None


def _kernel_s() -> float:
    t0 = time.perf_counter()
    digest = b""
    for _ in range(KERNEL_ROUNDS):
        digest = hashlib.sha256(digest).digest()
    return time.perf_counter() - t0


def _tick(_signum: int, _frame: Any) -> None:
    if _fd is not None:
        seconds = _kernel_s()
        os.write(_fd, _RECORD.pack(time.monotonic(), seconds))


def start() -> None:
    """Sample this process into ``$PAPERBENCH_SPEED_DIR``, if it is set."""
    global _fd
    directory = os.environ.get(DIR_ENV)
    if not directory or _fd is not None:
        return
    path = Path(directory) / f"speed-{os.getpid()}.bin"
    _fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop() -> None:
    """Stop sampling this process."""
    global _fd
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    if _fd is not None:
        os.close(_fd)
        _fd = None


def read_samples(directory: Path) -> list[list[tuple[float, float]]]:
    """Every sampled process's ``(end time, kernel seconds)``, in order."""
    traces = []
    for path in sorted(Path(directory).glob("speed-*.bin")):
        raw = path.read_bytes()
        usable = len(raw) - len(raw) % _RECORD.size  # a torn last record
        traces.append(sorted(_RECORD.iter_unpack(raw[:usable])))
    return traces


def median_kernel_s(traces: list[list[tuple[float, float]]]) -> float:
    """Median kernel seconds over every sample: the host's usual speed."""
    return statistics.median(seconds for trace in traces for _, seconds in trace)


def ref_seconds(
    traces: list[list[tuple[float, float]]], t0: float, t1: float
) -> float:
    """Reference seconds of the wall interval ``[t0, t1]``.

    Each sample stands for the time since its process's previous sample
    (its first, for one period); the mean speed is the average of the
    samples' speeds weighted by the part of that time inside the
    interval, over every process.
    """
    weight = weighted = 0.0
    for trace in traces:
        previous = trace[0][0] - PERIOD_S if trace else 0.0
        for end, seconds in trace:
            overlap = min(end, t1) - max(previous, t0)
            if overlap > 0:
                weight += overlap
                weighted += overlap * REF_KERNEL_S / seconds
            previous = end
    if weight <= 0:
        raise ValueError(f"no speed sample covers [{t0}, {t1}]")
    return (t1 - t0) * weighted / weight
