"""Per-row reference rendering of console lines (test oracle).

:meth:`repro.telemetry.console.ConsoleLogWriter.render` renders as
columns (the timestamp codec's digit matrix, a cname byte table, each
distinct body once); this module is the straightforward per-row
``strftime`` rendering it must match byte for byte.
"""

from collections.abc import Iterator

from repro.errors.event import EventLog, structure_from_code
from repro.errors.xid import ErrorType, from_code
from repro.telemetry.console import _PHRASES
from repro.topology.machine import TitanMachine
from repro.units import timestamp_to_datetime


def render_event_line(
    time: float,
    cname: str,
    etype: ErrorType,
    *,
    structure_name: str | None = None,
    page: int | None = None,
    job: int = -1,
) -> str:
    """Render one console log line; raises for unloggable types (SBE)."""
    if etype is ErrorType.SBE:
        raise ValueError("single-bit errors are never written to the console log")
    stamp = timestamp_to_datetime(time).strftime("%Y-%m-%dT%H:%M:%S.%f")
    phrase = _PHRASES[etype]
    if etype is ErrorType.OFF_THE_BUS:
        body = phrase  # host-side message, no XID
    else:
        body = f"GPU XID {etype.xid}: {phrase}"
    if structure_name is not None:
        body += f" in {structure_name}"
        if page is not None and page >= 0:
            body += f" page 0x{page:06x}"
    line = f"{stamp} {cname} {body}"
    if job >= 0:
        line += f" [job={job}]"
    return line


def reference_lines(machine: TitanMachine, events: EventLog) -> Iterator[str]:
    """The console lines of ``events``, one :func:`render_event_line` per row."""
    for i in range(len(events)):
        etype = from_code(int(events.etype[i]))
        if etype is ErrorType.SBE:
            continue
        structure = structure_from_code(int(events.structure[i]))
        page = int(events.aux[i])
        yield render_event_line(
            float(events.time[i]),
            machine.cname(int(events.gpu[i])),
            etype,
            structure_name=None if structure is None else structure.value,
            page=page if page >= 0 else None,
            job=int(events.job[i]),
        )
