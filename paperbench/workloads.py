"""The benchmark's three workloads, run through repro's public API.

Each workload is a closed-loop batch job driven by one client process.
:meth:`setup` does the untimed preparation; :meth:`run` executes the
timed body and returns one record per repetition (or pass)::

    {"wall_s": float | None, "intervals": [[start, end]],
     "peak_rss_mib": float | None,
     "attempted": int, "failed": int, "problems": [str],
     "identity": str, "layers": {metric: value}}

``wall_s`` is ``None`` when the body raised.  ``intervals`` are the
timed bodies' ``time.monotonic()`` spans (one per pass), which the
child reads at the host's reference speed (``speed.py``).
One operation is one figure (plus one for the scorecard and headline),
one sweep point, or one cache load that must hit; it fails when it
raises, when its digest differs from its reference, or when a required
cache hit misses.  ``identity`` is a digest that every repetition with
the same ``input_seed`` must repeat.

The two paper workloads always run the paper scenario at the golden
seed, the one dataset the repository reproduces and pins in
``tests/golden/paper.json``.  Its console volume, and the cost of every
layer with it, swings from 0.4M to 1.25M lines across seeds (XID 13
storms), which no seed-independent bound can cover; the workload seed
varies the sweep's inputs only.

Modules named in ``modules`` are imported by the child process before
setup, and that import time is ``startup.import_s``.  A workload whose
``prefills`` is true also has a static :meth:`prefill`, run in an
interpreter of its own before the timed one starts, so that the timed
interpreter's peak RSS is that of the timed body alone.  The pipeline's
result-neutral options (``streaming``, ``parse_workers``,
``shard_lines``) are left at their defaults everywhere.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import statistics
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Optional

#: The seed of the committed golden document.
GOLDEN_SEED = 20131001
GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden" / "paper.json"

#: Fewest timed passes ``paper-reanalyze`` makes, whatever the deadline.
#: It makes passes until the run's deadline, so that one repetition's
#: passes fill the run's timed part.
MIN_PASSES = 3

#: Pool size of ``sweep-sensitivity``: enough to exercise the pool.
SWEEP_WORKERS = 2
#: Study window of each sweep point, short so that per-point fixed
#: costs dominate and the sweep's cost does not follow XID 13 storms.
SWEEP_DAYS = 5.0

Record = dict[str, Any]
Failures = dict[str, list[str]]


def peak_rss_mib() -> float:
    """Peak RSS of this process tree so far: self or any reaped child."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def _record(
    wall_s: Optional[float],
    attempted: int,
    failures: Failures,
    *,
    intervals: Optional[list[tuple[float, float]]] = None,
    peak: Optional[float] = None,
    identity: str = "",
    layers: Optional[dict[str, float]] = None,
) -> Record:
    """One repetition; ``failures`` maps each failed operation to why."""
    return {
        "wall_s": wall_s,
        "intervals": intervals or [],
        "peak_rss_mib": peak,
        "attempted": attempted,
        "failed": len(failures),
        "problems": [f"{op}: {why}" for op, whys in failures.items() for why in whys],
        "identity": identity,
        "layers": layers or {},
    }


def _crashed(attempted: int, what: str) -> Record:
    record = _record(None, attempted, {what: [traceback.format_exc()]})
    record["failed"] = attempted
    return record


def _merge(into: Failures, more: Failures) -> None:
    for op, whys in more.items():
        into.setdefault(op, []).extend(whys)


def document_failures(
    document: dict[str, Any], reference: dict[str, Any], what: str
) -> Failures:
    """Failed operations of ``document`` against ``reference``.

    One operation per figure digest, plus ``scorecard`` for the
    scorecard and the headline statistics together.
    """
    from repro.core.study import FIGURES

    failures: Failures = {}
    for name in FIGURES:
        got = document.get("figures", {}).get(name, {}).get("sha256")
        want = reference.get("figures", {}).get(name, {}).get("sha256")
        if got is None or got != want:
            failures[name] = [f"{what} digest {got} != {want}"]
    for part in ("scorecard", "headline"):
        if document.get(part) != reference.get(part):
            failures.setdefault("scorecard", []).append(f"{what} {part} differs")
    return failures


class PaperCold:
    """``run_study(Scenario.paper(), <fresh empty store>)``."""

    name = "paper-cold"
    modules = ("repro.cache", "repro.sim.scenario", "repro.supervise.runner")
    prefills = False
    input_seed = GOLDEN_SEED

    def setup(self, seed: int, tmp: Path) -> None:
        del seed  # the paper scenario is one fixed input
        from repro.cache import ArtifactStore
        from repro.sim.scenario import Scenario

        self.scenario = Scenario.paper(GOLDEN_SEED)
        self.store = ArtifactStore(tmp / "store")
        self.golden = json.loads(GOLDEN_PATH.read_text())

    def run(self, tracer: Any, deadline: float) -> list[Record]:
        del deadline  # one repetition per fresh interpreter
        from repro.core.study import FIGURES
        from repro.supervise import runner
        from repro.supervise.journal import read_journal

        attempted = len(FIGURES) + 1
        tracer.reset()
        t0 = time.monotonic()
        try:
            report = runner.run_study(self.scenario, self.store)
        except Exception:
            return [_crashed(attempted, "run_study")]
        wall = time.monotonic() - t0
        peak = peak_rss_mib()

        records, _valid, torn = read_journal(report.journal_path)
        journaled = {
            r.get("name"): r.get("digest") for r in records if r.type == "stage"
        }
        ends = [r.get("document_sha256") for r in records if r.type == "run_end"]
        failures: Failures = {}
        if torn or ends != [report.document_sha256]:
            failures["scorecard"] = [f"journal run_end {ends} != "
                                     f"{report.document_sha256}; {torn}"]
        # A fresh store computes every stage, and each figure's journaled
        # digest is the one that ended up in the document.
        for stage in report.stages:
            if stage.name in FIGURES:
                doc_digest = report.document["figures"][stage.name]["sha256"]
                if journaled.get(stage.name) != doc_digest:
                    _merge(failures, {stage.name: [
                        f"journaled {journaled.get(stage.name)} != {doc_digest}"]})
            if stage.action != "computed":
                op = stage.name if stage.name in FIGURES else "scorecard"
                _merge(failures, {op: [f"stage {stage.name} was {stage.action}"]})
        _merge(failures, document_failures(report.document, self.golden, "golden"))
        layers = tracer.layer_metrics(
            wall, {"supervise.journal_records": len(records)}
        )
        return [_record(wall, attempted, failures, intervals=[(t0, t0 + wall)],
                        peak=peak, identity=report.document_sha256,
                        layers=layers)]


class PaperReanalyze:
    """Warm ``load_or_simulate`` + ``golden_document`` of a store-less study."""

    name = "paper-reanalyze"
    modules = ("repro.cache", "repro.core.golden", "repro.core.study",
               "repro.sim.scenario")
    prefills = True
    input_seed = GOLDEN_SEED

    @staticmethod
    def prefill(tmp: Path) -> None:
        """Fill ``tmp/store`` with the scenario's dataset layers only."""
        from repro import cache
        from repro.sim.scenario import Scenario

        store = cache.ArtifactStore(tmp / "store")
        _dataset, warm = cache.load_or_simulate(Scenario.paper(GOLDEN_SEED), store)
        if warm:
            raise RuntimeError("fresh store was warm before the prefill")

    def setup(self, seed: int, tmp: Path) -> None:
        del seed  # the paper scenario is one fixed input
        from repro import cache
        from repro.sim.scenario import Scenario

        self.scenario = Scenario.paper(GOLDEN_SEED)
        self.store = cache.ArtifactStore(tmp / "store")
        self.golden = json.loads(GOLDEN_PATH.read_text())

    def run(self, tracer: Any, deadline: float) -> list[Record]:
        """One record: the passes' mean wall, their intervals and their
        mean layer metrics."""
        from repro import cache
        from repro.core import golden
        from repro.core.study import FIGURES, TitanStudy

        attempted = len(FIGURES) + 2
        walls: list[float] = []
        intervals: list[tuple[float, float]] = []
        layers: list[dict[str, float]] = []
        failures: Failures = {}
        while True:
            tracer.reset()
            t0 = time.monotonic()
            try:
                dataset, warm = cache.load_or_simulate(self.scenario, self.store)
                document = golden.golden_document(TitanStudy(dataset))
            except Exception:
                return [_crashed(attempted, "reanalysis pass")]
            wall = time.monotonic() - t0
            del dataset
            walls.append(wall)
            intervals.append((t0, t0 + wall))
            layers.append(tracer.layer_metrics(wall, {}))
            found = document_failures(document, self.golden, "golden")
            if not warm:
                found["load"] = ["load_or_simulate missed the prefilled store"]
            for op, whys in found.items():
                failures[f"pass {len(walls)} {op}"] = whys
            if len(walls) >= MIN_PASSES and time.time() + wall > deadline:
                break
        mean_layers = {
            name: statistics.fmean(pass_layers[name] for pass_layers in layers)
            for name in layers[0]
        }
        # The prefill ran in another interpreter: this peak is the passes'.
        return [_record(statistics.fmean(walls), attempted * len(walls), failures,
                        intervals=intervals, peak=peak_rss_mib(),
                        layers=mean_layers)]


class SweepSensitivity:
    """The ``sensitivity`` preset's grid swept cold, then rerun warm."""

    name = "sweep-sensitivity"
    modules = ("repro.cache", "repro.sweep.engine", "repro.sweep.spec")
    prefills = False

    def setup(self, seed: int, tmp: Path) -> None:
        from repro.cache import ArtifactStore
        from repro.sweep.spec import preset

        self.input_seed = seed
        self.spec = dataclasses.replace(
            preset("sensitivity"), seed=seed, days=SWEEP_DAYS
        )
        self.store = ArtifactStore(tmp / "store")

    def run(self, tracer: Any, deadline: float) -> list[Record]:
        del deadline  # one repetition per fresh interpreter
        from repro.sweep import engine
        from repro.sweep.grid import expand

        n_points = len(expand(self.spec))
        attempted = 2 * n_points + 1
        stamps: list[float] = []

        def progress(message: str) -> None:
            if message.startswith(("point ", "sweep ")):
                stamps.append(time.monotonic())

        tracer.reset()
        t0 = time.monotonic()
        try:
            cold = engine.run_sweep(
                self.spec, self.store, n_workers=SWEEP_WORKERS, progress=progress
            )
            t_cold = time.monotonic()
            cold_stamps = list(stamps)
            Path(cold.journal_path).unlink()
            warm = engine.run_sweep(
                self.spec, self.store, n_workers=SWEEP_WORKERS, progress=progress
            )
        except Exception:
            return [_crashed(attempted, "run_sweep")]
        wall = time.monotonic() - t0
        peak = peak_rss_mib()

        failures: Failures = {
            f"cold point {p.index}": [f"{p.action}, warm={p.warm}"]
            for p in cold.points if p.action != "computed" or p.warm
        }
        cold_digest = {p.index: p.digest for p in cold.points}
        for p in warm.points:
            if not (p.warm and p.digest == cold_digest.get(p.index)):
                failures[f"warm point {p.index}"] = [
                    f"warm={p.warm}, digest {p.digest} != "
                    f"{cold_digest.get(p.index)}"]
        verified = n_points - sum(1 for op in failures if op.startswith("warm"))
        if warm.table_sha256 != cold.table_sha256:
            failures["table"] = [f"warm {warm.table_sha256} != cold "
                                 f"{cold.table_sha256}"]
        intervals = [b - a for a, b in zip(cold_stamps, cold_stamps[1:])]
        computed = n_points - sum(1 for op in failures if op.startswith("cold"))
        layers = tracer.layer_metrics(wall, {
            "sweep.cold_s": t_cold - t0,
            "sweep.warm_s": wall - (t_cold - t0),
            "sweep.points_computed": computed,
            "sweep.points_verified": verified,
            "sweep.point_interval_median_s": (
                statistics.median(intervals) if intervals else 0.0
            ),
            "sweep.point_interval_max_s": max(intervals, default=0.0),
        })
        if layers:
            # Point summaries are looked up in the pool workers, out of
            # the tracer's sight: a cold point missed, a warm one hit.
            layers["cache.hits"] += sum(1 for p in warm.points if p.warm)
            layers["cache.misses"] += computed
            lookups = layers["cache.hits"] + layers["cache.misses"]
            layers["cache.hit_ratio"] = layers["cache.hits"] / lookups
        return [_record(wall, attempted, failures, intervals=[(t0, t0 + wall)],
                        peak=peak, identity=cold.table_sha256, layers=layers)]


WORKLOADS: dict[str, Callable[[], Any]] = {
    cls.name: cls for cls in (PaperCold, PaperReanalyze, SweepSensitivity)
}
