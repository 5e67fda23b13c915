"""The incremental study engine: dataset layers in, warm analyses out.

The paper's workflow was *collect once, analyze many times*: two years
of console/nvidia-smi/job-snapshot telemetry were gathered from Titan
and then mined repeatedly.  The simulator previously inverted that —
every figure bench, scorecard run and degradation sweep re-simulated
and re-parsed the full 18,688-GPU scenario from scratch even though the
dataset is a pure function of ``(scenario, seed, pipeline epoch)``.

This module closes the loop.  :func:`persist_dataset` writes a
:class:`~repro.sim.simulation.SimulationDataset`'s *observable* layers
into an :class:`~repro.cache.store.ArtifactStore`:

====================  ======  ============================================
layer                 kind    contents
====================  ======  ============================================
``console.NNNNNN``    text    one whole-line console shard per render window
``parsed``            pickle  ``(EventLog, ParseStats)`` — the SEC output
``nvsmi``             npz     the fleet nvidia-smi table
``jobsnap``           pickle  per-job snapshot records (Figs. 16–20 data)
``trace``             pickle  the columnar job accounting trace
``console.manifest``  json    the shard list with per-shard SHA-256
====================  ======  ============================================

and :func:`load_or_simulate` reconstructs a :class:`CachedDataset` from
them — skipping simulation, console rendering *and* parsing — or
transparently falls back to a cold :class:`TitanSimulation` run (and
persists the result) when any layer is missing or fails its checksum.
A damaged or stale cache can cost time, never correctness.

On a cold run the console log is rendered once: each render window is
parsed and, in the same pass, written to the store as one shard, so
the full log text is never resident.  The manifest is written last —
a crash mid-persist leaves no manifest and the dataset reads as a
miss.  Loads verify every shard against the manifest eagerly, one at a
time, and reassemble ``console_text`` lazily, only if something asks
for the whole string.

Ground truth (the injector's event log, the fleet ledgers) is *not*
cached: analyses must run from observables exactly like the paper's
did, and validation paths that need ground truth request it explicitly
via ``require_ground_truth=True``, which always simulates.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from repro import perf
from repro.cache.keys import PIPELINE_EPOCH, dataset_key
from repro.cache.store import ArtifactStore
from repro.stream.shards import ShardCorruption, ShardInfo, ShardManifest

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.errors.event import EventLog
    from repro.sim.scenario import Scenario
    from repro.sim.simulation import SimulationDataset
    from repro.telemetry.jobsnap import JobSnapshotRecord
    from repro.telemetry.parser import ParseStats
    from repro.workload.jobs import JobTrace
    from repro.workload.lookup import JobLocator

__all__ = [
    "DATASET_LAYERS",
    "GroundTruthUnavailable",
    "CachedDataset",
    "persist_dataset",
    "load_dataset",
    "has_dataset",
    "load_or_simulate",
]

#: Layer name of the sharded-console manifest artifact.
_CONSOLE_MANIFEST_LAYER = "console.manifest"

#: ``(layer name, serde kind)`` of every persisted dataset layer besides
#: the console shards, in write order: the manifest comes last.
DATASET_LAYERS: tuple[tuple[str, str], ...] = (
    ("parsed", "pickle"),
    ("nvsmi", "npz"),
    ("jobsnap", "pickle"),
    ("trace", "pickle"),
    (_CONSOLE_MANIFEST_LAYER, "json"),
)


class GroundTruthUnavailable(RuntimeError):
    """A cache-reconstructed dataset was asked for simulator ground truth.

    Cached datasets carry only what the paper's authors had — telemetry.
    Validation code that needs the injector's event log or the fleet
    ledgers must run a real simulation
    (``load_or_simulate(..., require_ground_truth=True)``).
    """


def _layer_key(dkey: str, layer: str) -> str:
    return f"{dkey}/layer/{layer}"


def _console_shard_layer(index: int) -> str:
    return f"console.{index:06d}"


class CachedDataset:
    """A dataset reconstructed from cached telemetry layers.

    Mirrors the *observable* surface of
    :class:`~repro.sim.simulation.SimulationDataset` — ``scenario``,
    ``machine``, ``trace``, ``console_text``, ``parsed_events``,
    ``parse_stats``, ``nvsmi_table``, ``jobsnap_records``, ``locator``
    — which is everything :class:`~repro.core.study.TitanStudy` and the
    chaos toolkit consume.  Ground-truth accessors raise
    :class:`GroundTruthUnavailable`.
    """

    provenance = "cache"

    def __init__(
        self,
        scenario: "Scenario",
        *,
        console_shards: "Callable[[], Iterable[str]]",
        parsed: "tuple[EventLog, ParseStats]",
        nvsmi_table: "dict[str, np.ndarray]",
        jobsnap_records: "list[JobSnapshotRecord]",
        trace: "JobTrace",
    ) -> None:
        from repro.topology.machine import TitanMachine

        self.scenario = scenario
        self.machine = TitanMachine(folded_torus=scenario.folded_torus)
        self.trace = trace
        # ``console_shards`` yields the stream's whole-line text pieces
        # in order; the whole string is joined only if someone asks.
        self._console_shards = console_shards
        self._console_text: Optional[str] = None
        self._parsed = parsed
        self._nvsmi_table = nvsmi_table
        self._jobsnap = jobsnap_records
        self._locator: Optional["JobLocator"] = None

    # -- observable artifacts ------------------------------------------------

    @property
    def console_text(self) -> str:
        if self._console_text is None:
            self._console_text = "".join(self._console_shards())
        return self._console_text

    def console_blocks(self) -> "Iterator[list[str]]":
        """The console stream as whole-line blocks, one shard at a time."""
        for text in self._console_shards():
            yield text.splitlines()

    def parse_console(
        self, sink: "Optional[Callable[[list[str]], None]]" = None
    ) -> "tuple[EventLog, ParseStats]":
        """The cached parse; ``sink`` also receives every console block."""
        if sink is not None:
            for block in self.console_blocks():
                sink(block)
        return self._parsed

    @property
    def parsed_events(self) -> "EventLog":
        return self._parsed[0]

    @property
    def parse_stats(self) -> "ParseStats":
        return self._parsed[1]

    @property
    def nvsmi_table(self) -> "dict[str, np.ndarray]":
        return self._nvsmi_table

    @property
    def jobsnap_records(self) -> "list[JobSnapshotRecord]":
        return self._jobsnap

    @property
    def locator(self) -> "JobLocator":
        if self._locator is None:
            from repro.workload.lookup import JobLocator

            self._locator = JobLocator(self.trace, self.machine.allocation_rank)
        return self._locator

    def with_console_text(
        self,
        text: str,
        parsed: "Optional[tuple[EventLog, ParseStats]]" = None,
    ) -> "CachedDataset":
        """Observable-stream replacement hook (chaos experiments).

        The returned dataset is marked ``provenance="modified"`` so
        figure memoization never writes its results back to the store
        under the clean dataset's key.
        """
        if parsed is None:
            from repro.telemetry.console import text_windows
            from repro.telemetry.parallel_parse import parse_blocks

            log, stats = parse_blocks(text_windows(text), self.machine)
            parsed = (log.sorted_by_time(), stats)
        clone = CachedDataset(
            self.scenario,
            console_shards=lambda: (text,),
            parsed=parsed,
            nvsmi_table=self._nvsmi_table,
            jobsnap_records=self._jobsnap,
            trace=self.trace,
        )
        clone.provenance = "modified"  # type: ignore[misc]
        return clone

    # -- ground truth is *not* cached ---------------------------------------

    def _no_ground_truth(self, attr: str) -> Any:
        raise GroundTruthUnavailable(
            f"SimulationDataset.{attr} is simulator ground truth and is "
            "never cached; rerun with require_ground_truth=True (or call "
            "TitanSimulation directly) to get a fully simulated dataset"
        )

    @property
    def events(self) -> Any:
        return self._no_ground_truth("events")

    @property
    def injection(self) -> Any:
        return self._no_ground_truth("injection")

    @property
    def fleet(self) -> Any:
        return self._no_ground_truth("fleet")

    @property
    def thermal(self) -> Any:
        return self._no_ground_truth("thermal")

    @property
    def users(self) -> Any:
        return self._no_ground_truth("users")

    @property
    def nvsmi(self) -> Any:
        return self._no_ground_truth("nvsmi")

    @property
    def node_state_log(self) -> Any:
        return self._no_ground_truth("node_state_log")

    @property
    def sbe_by_slot(self) -> Any:
        return self._no_ground_truth("sbe_by_slot")

    @property
    def sbe_by_job(self) -> Any:
        return self._no_ground_truth("sbe_by_job")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CachedDataset(scenario={self.scenario.name!r}, "
            f"seed={self.scenario.seed})"
        )


def persist_dataset(
    store: ArtifactStore,
    dataset: "Union[SimulationDataset, CachedDataset]",
    *,
    epoch: int = PIPELINE_EPOCH,
) -> str:
    """Write every observable layer of ``dataset``; returns the dataset key.

    The console stream goes to the store block by block, one shard per
    block.  On a dataset not parsed yet the blocks are the parse's own
    render windows, so a cold persist renders the log once, parses it
    and shards it in the same pass.  The manifest is written last.
    """
    if getattr(dataset, "provenance", "simulated") == "modified":
        raise ValueError(
            "refusing to persist a dataset with a modified console "
            "stream under its scenario's content address"
        )
    dkey = dataset_key(dataset.scenario, epoch=epoch)
    shards: list[ShardInfo] = []

    def put_shard(lines: list[str]) -> None:
        text = "\n".join(lines) + "\n"
        payload = text.encode("utf-8")
        name = _console_shard_layer(len(shards))
        with perf.stage("cache.persist"):
            store.put(_layer_key(dkey, name), text, "text")
        shards.append(
            ShardInfo(
                name=name,
                lines=len(lines),
                nbytes=len(payload),
                sha256=hashlib.sha256(payload).hexdigest(),
            )
        )

    parsed = dataset.parse_console(put_shard)
    manifest = ShardManifest(
        total_lines=sum(shard.lines for shard in shards),
        total_bytes=sum(shard.nbytes for shard in shards),
        shards=tuple(shards),
    )
    layers: dict[str, Any] = {
        "parsed": parsed,
        "nvsmi": dataset.nvsmi_table,
        "jobsnap": dataset.jobsnap_records,
        "trace": dataset.trace,
        _CONSOLE_MANIFEST_LAYER: manifest.to_doc(),
    }
    with perf.stage("cache.persist"):
        for layer, kind in DATASET_LAYERS:
            store.put(_layer_key(dkey, layer), layers[layer], kind)
    return dkey


def load_dataset(
    store: ArtifactStore,
    scenario: "Scenario",
    *,
    epoch: int = PIPELINE_EPOCH,
) -> Optional[CachedDataset]:
    """Reconstruct a dataset from the store, or ``None`` on any miss.

    Every layer is fully decoded (checksum-verified) up front, and every
    console shard is re-digested against the manifest, one shard
    resident at a time: a truncated, garbled or missing artifact
    degrades to a miss — the caller then recomputes — never to a
    partially-wrong dataset.
    """
    dkey = dataset_key(scenario, epoch=epoch)
    decoded: dict[str, Any] = {}
    with perf.stage("cache.load"):
        for layer, _kind in DATASET_LAYERS:
            obj = store.get(_layer_key(dkey, layer))
            if obj is None:
                return None
            decoded[layer] = obj
        manifest = _verified_manifest(
            store, dkey, decoded[_CONSOLE_MANIFEST_LAYER]
        )
        if manifest is None:
            return None

    def console_shards() -> "Iterator[str]":
        for shard in manifest.shards:
            text = store.get(_layer_key(dkey, shard.name))
            if text is None:
                raise ShardCorruption(
                    f"console shard {shard.name} vanished after load "
                    f"verification (dataset {dkey})"
                )
            yield text

    return CachedDataset(
        scenario,
        console_shards=console_shards,
        parsed=tuple(decoded["parsed"]),
        nvsmi_table=decoded["nvsmi"],
        jobsnap_records=decoded["jobsnap"],
        trace=decoded["trace"],
    )


def _verified_manifest(
    store: ArtifactStore, dkey: str, doc: Any
) -> Optional[ShardManifest]:
    """The console manifest, if every shard it lists matches its digest."""
    try:
        manifest = ShardManifest.from_doc(doc)
    except (ShardCorruption, KeyError, TypeError, ValueError):
        return None
    for shard in manifest.shards:
        text = store.get(_layer_key(dkey, shard.name))
        if not isinstance(text, str):
            return None
        payload = text.encode("utf-8")
        if (
            len(payload) != shard.nbytes
            or hashlib.sha256(payload).hexdigest() != shard.sha256
        ):
            return None
    return manifest


def has_dataset(
    store: ArtifactStore,
    scenario: "Scenario",
    *,
    epoch: int = PIPELINE_EPOCH,
) -> bool:
    """Cheap probe: are all layers present (not yet checksum-verified)?

    Full validation happens on :func:`load_dataset`; a probe that lies
    (an artifact exists but is corrupt) only costs a recompute later.
    """
    dkey = dataset_key(scenario, epoch=epoch)
    return all(
        store.has(_layer_key(dkey, layer)) for layer, _kind in DATASET_LAYERS
    )


def load_or_simulate(
    scenario: "Scenario",
    store: Optional[ArtifactStore] = None,
    *,
    require_ground_truth: bool = False,
    epoch: int = PIPELINE_EPOCH,
) -> "tuple[Union[SimulationDataset, CachedDataset], bool]":
    """The incremental front door: ``(dataset, warm)``.

    * ``store is None`` — plain cold simulation, nothing persisted.
    * warm hit — all layers validate: no simulation, no render, no
      parse; ``warm`` is ``True``.
    * miss/corruption — simulate cold, then render, parse and persist
      every layer in one pass; return the fully simulated dataset
      (``warm`` is ``False``).
    * ``require_ground_truth=True`` — always simulate (validation needs
      the injector's ledgers), but still persist the layers so future
      observable-only runs are warm.
    """
    from repro.sim.simulation import TitanSimulation

    if store is not None and not require_ground_truth:
        cached = load_dataset(store, scenario, epoch=epoch)
        if cached is not None:
            return cached, True
    dataset = TitanSimulation(scenario).run()
    if store is not None:
        persist_dataset(store, dataset, epoch=epoch)
    return dataset, False
