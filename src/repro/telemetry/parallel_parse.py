"""Block-wise console parsing: the one parse core of the pipeline.

Every console stream reaches the parser as a sequence of whole-line
*blocks*: the writer's render windows on a cold run, the store's
console shards when a cached layer is re-read, or a chaos-replaced
text.  :func:`parse_blocks` parses the blocks in order with one
:class:`~repro.telemetry.parser.ConsoleLogParser` and reproduces a
single ``parse_lines`` call over the concatenated lines exactly:

* the log equals the serial log row for row (the parser keeps no
  cross-line state — resync operates *within* a line — and every
  counter is additive, so the partition invariant
  ``parsed + non_gpu + malformed + unknown_xid == total`` survives);
* strict mode raises the first :class:`~repro.telemetry.ingestion.IngestionError`
  with its global line number (blocks are numbered from where the
  previous one ended);
* the caller's quarantine sink fills in stream order, as a serial run's
  would;
* the error budget is a whole-stream property, evaluated once after
  the last block on the merged statistics, raising
  :class:`~repro.telemetry.ingestion.IngestionDegraded` with the merged
  log.

Only one block's raw lines need be resident at a time; the caller
decides the block size.  Each block's parse is timed as the
``telemetry.parse`` :mod:`repro.perf` stage, so a producer that renders
blocks lazily keeps its own time out of the parse stage.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro import perf
from repro.errors.event import EventLog
from repro.telemetry.ingestion import IngestionDegraded, QuarantineSink
from repro.telemetry.parser import ConsoleLogParser, ParseStats
from repro.topology.machine import TitanMachine

__all__ = ["parse_blocks"]


def _merge_stats(target: ParseStats, block: ParseStats) -> None:
    target.total_lines += block.total_lines
    target.parsed_events += block.parsed_events
    target.non_gpu_lines += block.non_gpu_lines
    target.malformed_lines += block.malformed_lines
    target.unknown_xid_lines += block.unknown_xid_lines
    target.resynced_lines += block.resynced_lines
    target.quarantined_lines += block.quarantined_lines
    target.unknown_xids_seen |= block.unknown_xids_seen


def parse_blocks(
    blocks: Iterable[Sequence[str]],
    machine: TitanMachine,
    *,
    strict: bool = False,
    resync: bool = True,
    error_budget: float | None = None,
    quarantine: QuarantineSink | None = None,
    fast: bool = True,
) -> tuple[EventLog, ParseStats]:
    """Parse a console stream given as whole-line blocks, in order.

    Semantics match ``ConsoleLogParser(...).parse_lines`` over the
    concatenation of ``blocks`` — same log, statistics, strict errors,
    quarantine contents and budget verdict — for any block split.
    """
    if error_budget is not None and not 0.0 <= error_budget <= 1.0:
        raise ValueError("error_budget must be in [0, 1] or None")
    parser = ConsoleLogParser(
        machine,
        strict=strict,
        resync=resync,
        error_budget=None,  # whole-stream property; applied after the merge
        quarantine=quarantine,
        fast=fast,
    )
    logs: list[EventLog] = []
    stats = ParseStats()
    first_line_no = 1
    for block in blocks:
        with perf.stage("telemetry.parse"):
            log, block_stats = parser.parse_lines(
                block, first_line_no=first_line_no
            )
        logs.append(log)
        _merge_stats(stats, block_stats)
        first_line_no += len(block)

    log = EventLog.concatenate(logs)
    if error_budget is not None and stats.corrupt_fraction > error_budget:
        raise IngestionDegraded(
            stats=stats,
            budget=error_budget,
            fraction=stats.corrupt_fraction,
            log=log,
        )
    return log, stats
