"""Per-layer tracing from outside the package.

:class:`Tracer` replaces each layer's public entry point with a wrapper
that records a span — name, start, end and the span open when it was
called — and, at a few boundaries, a counter.  Nothing under ``src/``
changes: the hooks are undone by :meth:`Tracer.uninstall`.  Where one
call covers several stages, the existing ``repro.perf`` registry splits
it (sim machine/workload/inject, telemetry render/parse/sort).

A layer's time is the **self time** of its spans: a span's duration
minus the time its child spans cover.  The layer times in
:data:`ATTRIBUTED` are disjoint, and with ``unattributed_s`` they add up
to the traced wall time.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable

__all__ = ["Tracer", "NullTracer", "ATTRIBUTED"]

#: The disjoint layer times; ``unattributed_s`` is traced wall minus
#: their sum, so time inside a span that no layer reports shows too.
ATTRIBUTED = (
    "sim.machine_s", "sim.workload_s", "sim.inject_s",
    "telemetry.render_s", "telemetry.parse_s", "telemetry.sort_s",
    "telemetry.nvsmi_s", "telemetry.jobsnap_s",
    "cache.persist_s", "cache.load_s",
    "core.figures_s", "core.scorecard_s", "core.document_s",
    "supervise.overhead_s", "sweep.cold_s", "sweep.warm_s",
)


class NullTracer:
    """The untraced run: no hooks, no metrics."""

    def reset(self) -> None:
        pass

    def layer_metrics(
        self, wall_s: float, extra: dict[str, float]
    ) -> dict[str, float]:
        del wall_s, extra
        return {}

    def uninstall(self) -> None:
        pass


class Tracer:
    """Spans and counters over repro's public entry points."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` per call.
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._parsed_seen: set[int] = set()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Forget spans and counters (between repetitions only)."""
        from repro import perf

        perf.reset()
        self.spans.clear()
        self.counters.clear()
        self._parsed_seen.clear()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so every call records one span ``name``."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Bind ``owner.attr`` to ``replacement`` until :meth:`uninstall`."""
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        from repro import perf

        perf.disable()
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- hooks -------------------------------------------------------------

    def install(self) -> None:
        """Hook every layer's public entry points, in pipeline order."""
        from repro import cache, perf
        from repro.cache import pipeline
        from repro.cache.store import ArtifactStore
        from repro.core import golden
        from repro.core.study import FIGURES, TitanStudy
        from repro.sim.simulation import SimulationDataset, TitanSimulation
        from repro.supervise import runner
        from repro.sweep import engine

        sim_run = vars(TitanSimulation)["run"]

        def run(simulation: Any) -> Any:
            dataset = sim_run(simulation)
            self.count("sim.events", len(dataset.injection.events))
            return dataset

        self.patch(TitanSimulation, "run", self.timed("sim.run", run))

        for attr in ("parsed_events", "nvsmi_table", "jobsnap_records"):
            getter = vars(SimulationDataset)[attr].fget
            if attr == "parsed_events":
                getter = self._counting_parse(getter)
            self.patch(
                SimulationDataset,
                attr,
                property(self.timed(f"telemetry.{attr}", getter)),
            )

        # Re-exported names: patch every binding a caller may resolve.
        for name in ("load_or_simulate", "load_dataset", "persist_dataset"):
            wrapped = self.timed(f"cache.{name}", vars(pipeline)[name])
            self.patch(pipeline, name, wrapped)
            self.patch(cache, name, wrapped)
        self._count_store_io(ArtifactStore)

        for name in FIGURES:
            self.patch(
                TitanStudy, name, self.timed(f"core.{name}", vars(TitanStudy)[name])
            )
        self.patch(
            golden, "observation_scorecard",
            self.timed("core.scorecard", vars(golden)["observation_scorecard"]),
        )
        self.patch(
            golden, "golden_document",
            self.timed("core.document", vars(golden)["golden_document"]),
        )
        self.patch(
            runner, "run_study",
            self.timed("supervise.run_study", vars(runner)["run_study"]),
        )
        self.patch(
            engine, "run_sweep",
            self.timed("sweep.run_sweep", vars(engine)["run_sweep"]),
        )
        perf.enable()

    def _counting_parse(self, getter: Callable[[Any], Any]) -> Callable[[Any], Any]:
        """``parsed_events`` getter that counts resync/quarantine once."""

        def parsed_events(dataset: Any) -> Any:
            log = getter(dataset)
            if id(dataset) not in self._parsed_seen:
                self._parsed_seen.add(id(dataset))
                stats = dataset.parse_stats
                self.count("telemetry.resynced", stats.resynced_lines)
                self.count("telemetry.quarantined", stats.quarantined_lines)
            return log

        return parsed_events

    def _count_store_io(self, store_cls: Any) -> None:
        """Artifact hits, misses and bytes at the store's byte boundary."""
        get_bytes = vars(store_cls)["get_bytes"]
        put_bytes = vars(store_cls)["put_bytes"]

        def counted_get(store: Any, key: str) -> Any:
            raw = get_bytes(store, key)
            if raw is None:
                self.count("cache.misses")
            else:
                self.count("cache.hits")
                self.count("cache.bytes_read", len(raw[0]))
            return raw

        def counted_put(store: Any, key: str, payload: bytes, kind: str) -> Any:
            self.count("cache.bytes_written", len(payload))
            return put_bytes(store, key, payload, kind)

        self.patch(store_cls, "get_bytes", functools.wraps(get_bytes)(counted_get))
        self.patch(store_cls, "put_bytes", functools.wraps(put_bytes)(counted_put))

    # -- reduction ---------------------------------------------------------

    def _times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive seconds, self seconds) by span name."""
        durations = [end - start for _name, start, end, _parent in self.spans]
        covered = [0.0] * len(self.spans)
        for (_name, _start, _end, parent), duration in zip(self.spans, durations):
            if parent >= 0:
                covered[parent] += duration
        inclusive: dict[str, float] = {}
        own: dict[str, float] = {}
        for (name, *_rest), duration, child in zip(self.spans, durations, covered):
            inclusive[name] = inclusive.get(name, 0.0) + duration
            own[name] = own.get(name, 0.0) + duration - child
        return inclusive, own

    def layer_metrics(
        self, wall_s: float, extra: dict[str, float]
    ) -> dict[str, float]:
        """Every per-layer metric of one traced repetition.

        ``extra`` carries what only the workload knows (sweep legs,
        journal records); layers a workload never calls report 0.
        """
        from repro import perf
        from repro.core.study import FIGURES

        inclusive, own = self._times()
        snap = perf.snapshot()
        stage = {k: v["seconds"] for k, v in snap["stages"].items()}
        ctr = {**snap["counters"], **self.counters}
        lines = ctr.get("telemetry.lines", 0)
        parse_s = stage.get("telemetry.parse", 0.0)
        hits, misses = ctr.get("cache.hits", 0), ctr.get("cache.misses", 0)
        figures = {f"core.{name}_s": own.get(f"core.{name}", 0.0) for name in FIGURES}
        metrics: dict[str, float] = {
            "sim.machine_s": stage.get("sim.machine", 0.0),
            "sim.workload_s": stage.get("sim.workload", 0.0),
            "sim.inject_s": stage.get("sim.inject", 0.0),
            "sim.events": ctr.get("sim.events", 0),
            "telemetry.render_s": stage.get("telemetry.render", 0.0),
            "telemetry.parse_s": parse_s,
            "telemetry.sort_s": stage.get("telemetry.sort", 0.0),
            "telemetry.nvsmi_s": own.get("telemetry.nvsmi_table", 0.0),
            "telemetry.jobsnap_s": own.get("telemetry.jobsnap_records", 0.0),
            "telemetry.lines": lines,
            "telemetry.parse_us_per_line": parse_s * 1e6 / lines if lines else 0.0,
            "telemetry.parsed_ratio": (
                ctr.get("telemetry.events", 0) / lines if lines else 0.0
            ),
            "telemetry.resynced": ctr.get("telemetry.resynced", 0),
            "telemetry.quarantined": ctr.get("telemetry.quarantined", 0),
            "cache.persist_s": own.get("cache.persist_dataset", 0.0),
            "cache.bytes_written": ctr.get("cache.bytes_written", 0),
            "cache.load_s": own.get("cache.load_dataset", 0.0),
            "cache.bytes_read": ctr.get("cache.bytes_read", 0),
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            **figures,
            "core.figures_s": sum(figures.values()),
            "core.scorecard_s": own.get("core.scorecard", 0.0),
            "core.document_s": own.get("core.document", 0.0),
            "supervise.run_study_s": inclusive.get("supervise.run_study", 0.0),
            "supervise.journal_records": 0,
            "supervise.overhead_s": own.get("supervise.run_study", 0.0),
            "sweep.cold_s": 0.0,
            "sweep.warm_s": 0.0,
            "sweep.points_computed": 0,
            "sweep.points_verified": 0,
            "sweep.point_interval_median_s": 0.0,
            "sweep.point_interval_max_s": 0.0,
            "trace.wall_s": wall_s,
        }
        metrics.update(extra)
        metrics["unattributed_s"] = wall_s - sum(metrics[n] for n in ATTRIBUTED)
        return metrics
