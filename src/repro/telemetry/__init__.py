"""Telemetry: how errors become *data* — console logs, SEC, nvidia-smi.

The paper's analyses never see the machine directly; they see

* **console logs** parsed by simple event correlators (SEC) on the
  system management workstation — :mod:`console` renders events to
  Titan-style log text, :mod:`sec` holds the classification rules, and
  :mod:`parser` turns log text back into an
  :class:`~repro.errors.event.EventLog` (this is the path every
  console-log figure goes through);
* **nvidia-smi snapshots** of the per-card InfoROM counters —
  :mod:`nvsmi`, with the documented DBE-undercount and DBE>SBE quirks;
* the **per-batch-job snapshot framework** (nvidia-smi before/after
  each job script) — :mod:`jobsnap`, the data source of Figs. 16–20.
"""

from repro.telemetry.console import ConsoleLogWriter
from repro.telemetry.sec import SEC_RULES, SecRule, classify_line
from repro.telemetry.parser import ConsoleLogParser, ParseStats
from repro.telemetry.ingestion import (
    IngestionDegraded,
    IngestionError,
    QuarantineRecord,
    QuarantineSink,
)
from repro.telemetry.coverage import (
    LOW_COVERAGE_THRESHOLD,
    ObservedWindows,
    infer_outage_windows,
)
from repro.telemetry.nvsmi import NvidiaSmi, NvsmiRecord
from repro.telemetry.nvsmi_text import (
    NvsmiFleetStats,
    ParsedNvsmiQuery,
    parse_nvsmi_fleet,
    parse_nvsmi_query,
    render_nvsmi_query,
)
from repro.telemetry.raslog import (
    NodeStateLog,
    RepairModel,
    parse_ras_lines,
    render_ras_lines,
)
from repro.telemetry.jobsnap import (
    JobSnapshotFramework,
    JobSnapshotRecord,
    JobsnapParseStats,
    parse_jobsnap_records,
    render_jobsnap_records,
)

__all__ = [
    "ConsoleLogWriter",
    "SEC_RULES",
    "SecRule",
    "classify_line",
    "ConsoleLogParser",
    "ParseStats",
    "IngestionError",
    "IngestionDegraded",
    "QuarantineRecord",
    "QuarantineSink",
    "ObservedWindows",
    "LOW_COVERAGE_THRESHOLD",
    "infer_outage_windows",
    "NvidiaSmi",
    "NvsmiRecord",
    "ParsedNvsmiQuery",
    "NvsmiFleetStats",
    "parse_nvsmi_query",
    "parse_nvsmi_fleet",
    "render_nvsmi_query",
    "JobSnapshotFramework",
    "JobSnapshotRecord",
    "JobsnapParseStats",
    "render_jobsnap_records",
    "parse_jobsnap_records",
    "NodeStateLog",
    "RepairModel",
    "parse_ras_lines",
    "render_ras_lines",
]
