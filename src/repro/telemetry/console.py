"""Titan-style console log rendering.

Every loggable error event becomes one text line of the form::

    2014-03-02T14:55:01.123456 c3-17c2s5n1 GPU XID 13: Graphics Engine \
Exception [job=12345]
    2013-08-11T02:10:44.000128 c5-20c2s3n2 GPU XID 48: DBE (Double Bit \
Error) detected in device_memory page 0x01a2f3 [job=877]
    2013-07-02T09:15:00.500000 c1-03c2s7n0 GPU has fallen off the bus

Single-bit errors never appear (the driver does not log corrected
errors to the console — they exist only in nvidia-smi counters), and
parent/child relationships are *not* encoded: recovering them is the
analysis layer's job, as it was for the paper's authors.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from operator import add

import numpy as np

from repro.errors.event import STRUCTURE_CODES, EventLog
from repro.errors.xid import ErrorType
from repro.telemetry.timecodec import _stamp_matrix
from repro.topology.machine import TitanMachine

__all__ = ["ConsoleLogWriter", "RENDER_CHUNK_ROWS", "text_windows"]

#: Row granularity of the render: timestamps vectorize one window at a
#: time, so the writer never holds the whole stream's stamp strings at
#: once, and each window is one parse block and one cached console
#: shard.  Purely a memory knob — the rendered bytes are identical at
#: any value.
RENDER_CHUNK_ROWS: int = 131_072

#: Rows the writer renders, and the parser decodes, as one set of
#: columns: bounds the transient numpy working set inside a window.
#: Output is identical at any value.
_SLICE_ROWS: int = 16_384

#: Short console phrasing per type (the SEC rules in sec.py must match).
_PHRASES: dict[ErrorType, str] = {
    ErrorType.DBE: "DBE (Double Bit Error) detected",
    ErrorType.OFF_THE_BUS: "GPU has fallen off the bus",
    ErrorType.DISPLAY_ENGINE: "Display Engine error",
    ErrorType.VMEM_PROGRAMMING: "Error programming video memory interface",
    ErrorType.VMEM_UNSTABLE: "Unstable video memory interface detected",
    ErrorType.ECC_PAGE_RETIREMENT: "ECC page retirement event",
    ErrorType.ECC_PAGE_RETIREMENT_FAILURE: "ECC page retirement recording failure",
    ErrorType.VIDEO_PROCESSOR: "Video processor exception",
    ErrorType.GRAPHICS_ENGINE_EXCEPTION: "Graphics Engine Exception",
    ErrorType.MEM_PAGE_FAULT: "GPU memory page fault",
    ErrorType.PUSH_BUFFER: "Invalid or corrupted push buffer stream",
    ErrorType.DRIVER_FIRMWARE: "Driver firmware error",
    ErrorType.VIDEO_PROCESSOR_DRIVER: "Video processor exception",
    ErrorType.GPU_STOPPED: "GPU has stopped processing",
    ErrorType.CTXSW_FAULT: "Graphics Engine fault during context switch",
    ErrorType.PREEMPTIVE_CLEANUP: "Preemptive cleanup, due to previous errors",
    ErrorType.MCU_HALT_OLD: "Internal micro-controller halt",
    ErrorType.MCU_HALT_NEW: "Internal micro-controller halt",
}


_SBE_CODE: int = ErrorType.SBE.code

#: etype code → constant line-body head ("GPU XID n: phrase", or the
#: bare off-the-bus phrase).  Covers every loggable type; SBE is absent
#: on purpose (it is skipped, never rendered).
_BODY_HEAD_BY_CODE: dict[int, str] = {
    t.code: (
        _PHRASES[t]
        if t is ErrorType.OFF_THE_BUS
        else f"GPU XID {t.xid}: {_PHRASES[t]}"
    )
    for t in _PHRASES
}

#: structure code → console structure name (``MemoryStructure.value``).
_STRUCT_NAME_BY_CODE: list[str] = [
    s.value for s, _ in sorted(STRUCTURE_CODES.items(), key=lambda kv: kv[1])
]


def _bodies(
    etype: np.ndarray, structure: np.ndarray, aux: np.ndarray, job: np.ndarray
) -> tuple[list[str], np.ndarray]:
    """Each distinct line body formatted once, and each row's index
    into that list.

    The body's fields factorize into one int64 key (a page renders only
    under a structure, a job only when non-negative); ``np.unique`` on
    that key avoids the void-dtype sort a row-wise unique would take.
    """
    structure = structure.astype(np.int64)
    aux = np.where((structure >= 0) & (aux >= 0), aux, -1)
    job = np.maximum(job, -1)
    key = etype.astype(np.int64) * (len(_STRUCT_NAME_BY_CODE) + 1) + structure + 1
    for column in (aux, job):
        _, code = np.unique(column, return_inverse=True)
        key = key * (code.max(initial=0) + 1) + code
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    bodies = []
    for ecode, scode, page, jobid in zip(
        etype[first].tolist(), structure[first].tolist(),
        aux[first].tolist(), job[first].tolist(),
    ):
        body = _BODY_HEAD_BY_CODE[ecode]
        if scode >= 0:
            body = f"{body} in {_STRUCT_NAME_BY_CODE[scode]}"
            if page >= 0:
                body = f"{body} page 0x{page:06x}"
        bodies.append(f"{body} [job={jobid}]" if jobid >= 0 else body)
    return bodies, which


def text_windows(text: str) -> Iterator[list[str]]:
    """The lines of ``text`` in blocks of :data:`RENDER_CHUNK_ROWS` lines.

    The block source for a console stream that is already one string
    (a chaos-replaced or materialized log); no block is empty.
    """
    lines = text.splitlines()
    step = RENDER_CHUNK_ROWS
    for start in range(0, len(lines), step):
        yield lines[start : start + step]


class ConsoleLogWriter:
    """Streams an :class:`EventLog` out as Titan console-log text.

    The render is columnar (body heads per etype code, structure names
    per code, the machine-wide cname table as a byte matrix, and the
    timestamp codec's digit matrix); the tests pin it byte for byte
    against a per-row ``strftime`` reference rendering.
    """

    def __init__(self, machine: TitanMachine) -> None:
        self.machine = machine
        table = [f" {name} " for name in machine.cname_table()]
        width = max(map(len, table))
        self._names = np.frombuffer(
            "".join(name.ljust(width, "\0") for name in table).encode("ascii"),
            dtype=np.uint8,
        ).reshape(len(table), width)

    def render(self, events: EventLog) -> list[str]:
        """One console line per loggable event (SBE rows are skipped),
        in log order.

        Renders in :data:`_SLICE_ROWS`-row slices.  Each line's head —
        stamp and cname with its separators — is one row of a byte
        matrix (the digit matrix of the timestamp codec beside the
        NUL-padded cname table, whose trailing NULs the ``S`` view
        drops); each distinct ``(etype, structure, page, job)`` body is
        formatted once; the two are joined by one C-level string add.
        No per-row Python containers.
        """
        events = events.select(events.etype != _SBE_CODE)
        out: list[str] = []
        for start in range(0, len(events), _SLICE_ROWS):
            rows = slice(start, start + _SLICE_ROWS)
            stamps = _stamp_matrix(events.time[rows])
            heads = np.concatenate([stamps, self._names[events.gpu[rows]]], axis=1)
            bodies, which = _bodies(
                events.etype[rows], events.structure[rows],
                events.aux[rows], events.job[rows],
            )
            out += map(
                add,
                map(bytes.decode, heads.view(f"S{heads.shape[1]}").ravel().tolist()),
                map(bodies.__getitem__, which.tolist()),
            )
        return out

    def windows(self, events: EventLog) -> Iterator[list[str]]:
        """The :meth:`render` lines as one list per
        :data:`RENDER_CHUNK_ROWS` rows.

        Only one window's timestamps and lines are resident at a time,
        so a consumer that drains the windows in turn (the parser, a
        shard sink) never holds the whole log.  Windows with no
        loggable row (all SBE) are skipped, so no window is empty.
        """
        step = RENDER_CHUNK_ROWS
        for start in range(0, len(events), step):
            window = EventLog(
                **{
                    f.name: getattr(events, f.name)[start : start + step]
                    for f in dataclasses.fields(events)
                }
            )
            lines = self.render(window)
            if lines:
                yield lines

    def to_text(self, events: EventLog) -> str:
        """The whole log as one newline-terminated string."""
        return "".join("\n".join(lines) + "\n" for lines in self.windows(events))
