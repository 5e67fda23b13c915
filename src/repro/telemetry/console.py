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

from repro.errors.event import STRUCTURE_CODES, EventLog
from repro.errors.xid import ErrorType
from repro.telemetry.timecodec import format_timestamps
from repro.topology.machine import TitanMachine

__all__ = ["ConsoleLogWriter", "RENDER_CHUNK_ROWS", "text_windows"]

#: Row granularity of the render: timestamps vectorize one window at a
#: time, so the writer never holds the whole stream's stamp strings at
#: once, and each window is one parse block and one cached console
#: shard.  Purely a memory knob — the rendered bytes are identical at
#: any value.
RENDER_CHUNK_ROWS: int = 131_072

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

    The hot path renders from precomputed tables (body heads per etype
    code, structure names per code, the machine-wide cname table, and
    the fixed-format timestamp codec); the tests pin it byte for byte
    against a per-row ``strftime`` reference rendering.
    """

    def __init__(self, machine: TitanMachine) -> None:
        self.machine = machine

    def lines(self, events: EventLog) -> Iterator[str]:
        """Yield one log line per loggable event, in log order."""
        heads = _BODY_HEAD_BY_CODE
        struct_names = _STRUCT_NAME_BY_CODE
        cnames = self.machine.cname_table()
        # All stamps render in one vectorized pass (SBE rows included —
        # skipping them afterwards is cheaper than masking first).
        stamps = format_timestamps(events.time)
        for stamp, gpu, ecode, scode, job, aux in zip(
            stamps,
            events.gpu.tolist(),
            events.etype.tolist(),
            events.structure.tolist(),
            events.job.tolist(),
            events.aux.tolist(),
        ):
            if ecode == _SBE_CODE:
                continue
            body = heads[ecode]
            if scode >= 0:
                if aux >= 0:
                    body = f"{body} in {struct_names[scode]} page 0x{aux:06x}"
                else:
                    body = f"{body} in {struct_names[scode]}"
            if job >= 0:
                yield f"{stamp} {cnames[gpu]} {body} [job={job}]"
            else:
                yield f"{stamp} {cnames[gpu]} {body}"

    def windows(self, events: EventLog) -> Iterator[list[str]]:
        """The :meth:`lines` sequence as one list per
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
            lines = list(self.lines(window))
            if lines:
                yield lines

    def to_text(self, events: EventLog) -> str:
        """The whole log as one newline-terminated string."""
        return "".join("\n".join(lines) + "\n" for lines in self.windows(events))
