"""TitanSimulation: one call from scenario to analyzable dataset.

The simulation is staged exactly as DESIGN.md's dataflow describes:

1. build the machine (folded or unfolded cabling), thermal model and
   card fleet;
2. generate and schedule the 21-month workload;
3. run all fault injectors (hardware → software → cascades → SBE);
4. render the console log and parse it back through the SEC rules —
   the analyses consume the round-tripped log, never the injector's
   in-memory events.  Rendering and parsing are one pass: the writer's
   fixed-size row windows feed one ``parse_lines`` call lazily, so the
   full log text is never resident unless a caller asks for
   ``console_text``;
5. expose nvidia-smi fleet tables and per-job snapshot records.

Heavy artifacts (parsed log, nvsmi table, snapshot records, and the
log text if requested) are materialized lazily and cached on the
dataset.  :class:`SimulationDataset` is also what
:func:`repro.cache.load_dataset` returns: a warm load prefills those
caches from the artifact store, reads the console text from the
store's shards and carries no ground truth (``provenance="cache"``).
``default_dataset`` memoizes whole datasets per scenario so a test
session or benchmark run simulates each configuration once.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import Callable, Optional, TypeVar

import numpy as np

from repro import perf
from repro.cache.pipeline import GroundTruthUnavailable
from repro.errors.event import EventLog
from repro.faults.injector import FaultInjector, InjectionResult
from repro.gpu.fleet import GPUFleet
from repro.rng import RngTree
from repro.sim.scenario import Scenario
from repro.telemetry.console import ConsoleLogWriter, text_windows
from repro.telemetry.jobsnap import JobSnapshotFramework, JobSnapshotRecord
from repro.telemetry.nvsmi import NvidiaSmi
from repro.telemetry.parser import ConsoleLogParser, ParseStats
from repro.telemetry.raslog import NodeStateLog, RepairModel
from repro.topology.machine import TitanMachine
from repro.topology.thermal import ThermalModel
from repro.workload.generator import WorkloadGenerator
from repro.workload.jobs import JobTrace
from repro.workload.lookup import JobLocator
from repro.workload.users import UserPopulation

__all__ = ["TitanSimulation", "SimulationDataset", "default_dataset"]

_T = TypeVar("_T")


def _ground_truth(name: str, value: Optional[_T]) -> _T:
    if value is None:
        raise GroundTruthUnavailable(
            f"SimulationDataset.{name} is simulator ground truth and is "
            "never cached; rerun with require_ground_truth=True (or call "
            "TitanSimulation directly) to get a fully simulated dataset"
        )
    return value


@dataclass
class SimulationDataset:
    """Everything one Titan study analyzes.

    Observable artifacts (what the paper's authors had):
    ``console_text`` / ``parsed_events``, ``nvsmi_table``,
    ``jobsnap_records``, and the job accounting in ``trace``.
    Ground truth (for validation only): ``injection``, ``fleet``,
    ``thermal``, ``users`` and ``nvsmi``.  A dataset loaded from the
    artifact store has none; reading it raises
    :class:`~repro.cache.pipeline.GroundTruthUnavailable`.
    """

    scenario: Scenario
    machine: TitanMachine
    trace: JobTrace
    _fleet: Optional[GPUFleet] = field(default=None, repr=False)
    _thermal: Optional[ThermalModel] = field(default=None, repr=False)
    _users: Optional[UserPopulation] = field(default=None, repr=False)
    _injection: Optional[InjectionResult] = field(default=None, repr=False)
    _nvsmi: Optional[NvidiaSmi] = field(default=None, repr=False)
    #: ``"simulated"`` for a pristine run, ``"cache"`` for one loaded
    #: from the artifact store, ``"modified"`` once the observable
    #: console stream was replaced (chaos experiments).  The figure
    #: cache never persists results for a modified dataset — its stream
    #: must never be written back under the clean scenario's content
    #: address.
    provenance: str = "simulated"
    #: The stored console shards' texts, in order (warm loads only).
    _console_shards: Optional[Callable[[], Iterable[str]]] = field(
        default=None, repr=False
    )
    _console_text: Optional[str] = field(default=None, repr=False)
    _parsed: Optional[tuple[EventLog, ParseStats]] = field(default=None, repr=False)
    _nvsmi_table: Optional[dict[str, np.ndarray]] = field(default=None, repr=False)
    _jobsnap: Optional[list[JobSnapshotRecord]] = field(default=None, repr=False)
    _locator: Optional[JobLocator] = field(default=None, repr=False)
    _node_state: Optional[NodeStateLog] = field(default=None, repr=False)

    # -- observable artifacts ------------------------------------------------

    @property
    def console_text(self) -> str:
        """The console log as one string (materialized only when asked
        for): the stored shards joined, or the events rendered."""
        if self._console_text is None:
            if self._console_shards is not None:
                self._console_text = "".join(self._console_shards())
            else:
                with perf.stage("telemetry.render"):
                    writer = ConsoleLogWriter(self.machine)
                    self._console_text = writer.to_text(self.injection.events)
        return self._console_text

    def console_blocks(self) -> Iterator[list[str]]:
        """The console stream as whole-line blocks, never held whole.

        Stored shards are read back one at a time, and a replaced (or
        already materialized) text is split into window-sized blocks;
        otherwise the injector's events render one window at a time,
        each timed as the ``telemetry.render`` stage.
        """
        if self._console_shards is not None:
            for text in self._console_shards():
                yield text.splitlines()
            return
        if self._console_text is not None:
            yield from text_windows(self._console_text)
            return
        windows = ConsoleLogWriter(self.machine).windows(self.injection.events)
        while True:
            with perf.stage("telemetry.render"):
                lines = next(windows, None)
            if lines is None:
                return
            yield lines

    def parse_console(
        self, sink: Optional[Callable[[list[str]], None]] = None
    ) -> tuple[EventLog, ParseStats]:
        """The parsed console ``(time-sorted log, statistics)``.

        The first call runs the round trip: the blocks of
        :meth:`console_blocks` are chained into one ``parse_lines``
        call, which pulls them lazily.  ``sink``, if given, also
        receives every block in order — the cache's shard layer uses it
        to share the single render pass.  Once the parse is done, a
        ``sink`` is fed by re-reading :meth:`console_blocks`.
        """
        if self._parsed is None:
            blocks = self.console_blocks()
            if sink is not None:
                blocks = _tee(blocks, sink)
            log, stats = ConsoleLogParser(self.machine).parse_lines(
                itertools.chain.from_iterable(blocks)
            )
            with perf.stage("telemetry.sort"):
                self._parsed = (log.sorted_by_time(), stats)
            perf.count("telemetry.lines", stats.total_lines)
            perf.count("telemetry.events", stats.parsed_events)
        elif sink is not None:
            for block in self.console_blocks():
                sink(block)
        return self._parsed

    @property
    def parsed_events(self) -> EventLog:
        """Console events as the analysis sees them: text → SEC → log,
        time-sorted, with no parent annotations."""
        return self.parse_console()[0]

    @property
    def parse_stats(self) -> ParseStats:
        return self.parse_console()[1]

    def with_console_text(
        self,
        text: str,
        parsed: Optional[tuple[EventLog, ParseStats]] = None,
    ) -> "SimulationDataset":
        """Dataset variant whose *observable* console stream is replaced.

        This is the chaos-experiment hook: everything else (ground
        truth, nvsmi and snapshot layers) is shared, but the analyses
        will see ``text`` — e.g. a corrupted rendering — as the console
        log.  ``parsed`` pre-seeds the parse cache when the caller
        already parsed the text (it must be the time-sorted log for
        ``text``); otherwise the default lenient parser runs lazily.
        """
        return dataclasses.replace(
            self,
            _console_shards=None,
            _console_text=text,
            _parsed=parsed,
            provenance="modified",
        )

    @property
    def nvsmi_table(self) -> dict[str, np.ndarray]:
        """Fleet-wide nvidia-smi snapshot at end of study."""
        if self._nvsmi_table is None:
            with perf.stage("telemetry.nvsmi"):
                self._nvsmi_table = self.nvsmi.query_fleet()
        return self._nvsmi_table

    @property
    def jobsnap_records(self) -> list[JobSnapshotRecord]:
        """Per-job before/after snapshot records (the Figs. 16–20 data)."""
        if self._jobsnap is None:
            with perf.stage("telemetry.jobsnap"):
                framework = JobSnapshotFramework(self.scenario.jobsnap_deployed_at)
                self._jobsnap = framework.collect(
                    self.trace, self.injection.sbe_by_job
                )
        return self._jobsnap

    @property
    def node_state_log(self) -> NodeStateLog:
        """Downtime intervals around crashing hardware errors (the RAS
        stream; lazily derived, deterministic per scenario seed)."""
        if self._node_state is None:
            rng = RngTree(self.scenario.seed).fresh_generator("repair")
            self._node_state = RepairModel(rng).apply(self.injection.events)
        return self._node_state

    @property
    def locator(self) -> JobLocator:
        if self._locator is None:
            self._locator = JobLocator(self.trace, self.machine.allocation_rank)
        return self._locator

    # -- ground truth (never cached) -------------------------------------------

    @property
    def injection(self) -> InjectionResult:
        return _ground_truth("injection", self._injection)

    @property
    def fleet(self) -> GPUFleet:
        return _ground_truth("fleet", self._fleet)

    @property
    def thermal(self) -> ThermalModel:
        return _ground_truth("thermal", self._thermal)

    @property
    def users(self) -> UserPopulation:
        return _ground_truth("users", self._users)

    @property
    def nvsmi(self) -> NvidiaSmi:
        return _ground_truth("nvsmi", self._nvsmi)

    @property
    def events(self) -> EventLog:
        """Ground-truth event log (with parent links)."""
        return self.injection.events

    @property
    def sbe_by_slot(self) -> np.ndarray:
        return self.injection.sbe_by_slot

    @property
    def sbe_by_job(self) -> np.ndarray:
        return self.injection.sbe_by_job


class TitanSimulation:
    """Runs one scenario end to end."""

    def __init__(self, scenario: Scenario) -> None:
        scenario.validate()
        self.scenario = scenario

    def run(self) -> SimulationDataset:
        sc = self.scenario
        tree = RngTree(sc.seed)
        with perf.stage("sim.machine"):
            machine = TitanMachine(folded_torus=sc.folded_torus)
            thermal = ThermalModel(
                machine.cage,
                tree.fresh_generator("thermal"),
                enabled=sc.rates.thermal_enabled,
            )
            fleet = GPUFleet(
                machine.n_gpus,
                tree.generator("fleet"),
                retirement_active_from=sc.rates.retirement_active_from,
            )
        with perf.stage("sim.workload"):
            generator = WorkloadGenerator(
                sc.workload, tree.fresh_generator("workload")
            )
            trace = generator.generate()
        with perf.stage("sim.inject"):
            injector = FaultInjector(
                machine,
                fleet,
                thermal,
                generator.users,
                sc.rates,
                tree.fresh_generator("faults.hardware"),
                tree.fresh_generator("faults.software"),
                tree.fresh_generator("faults.sbe"),
                tree.fresh_generator("faults.cascade"),
            )
            injection = injector.run(trace, sc.start, sc.end)
        nvsmi = NvidiaSmi(fleet, thermal)
        return SimulationDataset(
            scenario=sc,
            machine=machine,
            trace=trace,
            _fleet=fleet,
            _thermal=thermal,
            _users=generator.users,
            _injection=injection,
            _nvsmi=nvsmi,
        )


def _tee(
    blocks: Iterable[list[str]], sink: Callable[[list[str]], None]
) -> Iterator[list[str]]:
    for block in blocks:
        sink(block)
        yield block


_DATASET_CACHE: dict[str, SimulationDataset] = {}


def default_dataset(scenario: Scenario | None = None) -> SimulationDataset:
    """Process-wide memoized dataset for a scenario (default: paper).

    Scenarios contain dict fields, so the cache keys on ``repr``, which
    dataclasses derive from every field deterministically.
    """
    sc = scenario if scenario is not None else Scenario.paper()
    key = repr(sc)
    cached = _DATASET_CACHE.get(key)
    if cached is None:
        cached = TitanSimulation(sc).run()
        _DATASET_CACHE[key] = cached
    return cached
