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

and :func:`load_or_simulate` reconstructs a
:class:`~repro.sim.simulation.SimulationDataset` with
``provenance="cache"`` from them — its parse, nvsmi and snapshot
caches prefilled, so simulation, console rendering *and* parsing are
skipped — or transparently falls back to a cold :class:`TitanSimulation`
run (and persists the result) when any layer is missing or fails its
checksum.  A damaged or stale cache can cost time, never correctness.

On a cold run the console log is rendered once: each render window is
parsed and, in the same pass, written to the store as one shard, so
the full log text is never resident.  The manifest is written last —
a crash mid-persist leaves no manifest and the dataset reads as a
miss.  Loads verify every shard against the manifest eagerly, one at a
time; the warm dataset re-reads the shards only if something asks for
its console blocks or the whole ``console_text``.

Ground truth (the injector's event log, the fleet ledgers) is *not*
cached: a warm dataset raises :class:`GroundTruthUnavailable` when it
is asked for it.  Analyses must run from observables exactly like the
paper's did, and validation paths that need ground truth request it
explicitly via ``require_ground_truth=True``, which always simulates.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING, Any, Optional

from repro import perf
from repro.cache.keys import PIPELINE_EPOCH, dataset_key
from repro.cache.store import ArtifactStore
from repro.stream.shards import ShardCorruption, ShardInfo, ShardManifest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.scenario import Scenario
    from repro.sim.simulation import SimulationDataset

__all__ = [
    "DATASET_LAYERS",
    "GroundTruthUnavailable",
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
    (``load_or_simulate(..., require_ground_truth=True)``).  Defined
    here, not beside the dataset, so ``import repro.cache`` stays free
    of the simulator.
    """


def _layer_key(dkey: str, layer: str) -> str:
    return f"{dkey}/layer/{layer}"


def _console_shard_layer(index: int) -> str:
    return f"console.{index:06d}"


def persist_dataset(
    store: ArtifactStore,
    dataset: "SimulationDataset",
    *,
    epoch: int = PIPELINE_EPOCH,
) -> str:
    """Write every observable layer of ``dataset``; returns the dataset key.

    The console stream goes to the store block by block, one shard per
    block.  On a dataset not parsed yet the blocks are the parse's own
    render windows, so a cold persist renders the log once, parses it
    and shards it in the same pass.  The manifest is written last.
    """
    if dataset.provenance == "modified":
        raise ValueError(
            "refusing to persist a dataset with a modified console "
            "stream under its scenario's content address"
        )
    dkey = dataset_key(dataset.scenario, epoch=epoch)
    shards: list[ShardInfo] = []

    def put_shard(lines: list[str]) -> None:
        text = "\n".join(lines) + "\n"
        shard = ShardInfo.of(
            _console_shard_layer(len(shards)), len(lines), text.encode("utf-8")
        )
        with perf.stage("cache.persist"):
            store.put(_layer_key(dkey, shard.name), text, "text")
        shards.append(shard)

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
) -> "Optional[SimulationDataset]":
    """Reconstruct a dataset from the store, or ``None`` on any miss.

    The dataset is a :class:`~repro.sim.simulation.SimulationDataset`
    with ``provenance="cache"`` and no ground truth.

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

    from repro.sim.simulation import SimulationDataset
    from repro.topology.machine import TitanMachine

    return SimulationDataset(
        scenario=scenario,
        machine=TitanMachine(folded_torus=scenario.folded_torus),
        trace=decoded["trace"],
        provenance="cache",
        _console_shards=console_shards,
        _parsed=tuple(decoded["parsed"]),
        _nvsmi_table=decoded["nvsmi"],
        _jobsnap=decoded["jobsnap"],
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
        if not isinstance(text, str) or not shard.matches(text.encode("utf-8")):
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
) -> "tuple[SimulationDataset, bool]":
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
