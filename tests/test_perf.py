"""Tests for the repro.perf stage-timer registry and the profile CLI.

The registry lives outside the deterministic simulator subtree (it is
the one place allowed to touch the wall clock), so the key properties
are: disabled instrumentation is free and side-effect free, enabled
instrumentation accumulates, and ``python -m repro profile`` surfaces
the per-stage breakdown.
"""

import json

import pytest

from repro import perf
from repro.perf.timers import _NULL_SPAN, PerfRegistry


class TestRegistry:
    def test_disabled_stage_is_shared_noop(self):
        reg = PerfRegistry()
        assert reg.stage("x") is _NULL_SPAN
        assert reg.stage("y") is reg.stage("z")
        with reg.stage("x"):
            pass
        reg.count("lines", 100)
        assert reg.snapshot() == {"stages": {}, "counters": {}}

    def test_enabled_accumulates_seconds_and_calls(self):
        reg = PerfRegistry()
        reg.enable()
        for _ in range(3):
            with reg.stage("parse"):
                pass
        with reg.stage("render"):
            pass
        reg.count("lines", 10)
        reg.count("lines", 5)
        reg.count("events")
        snap = reg.snapshot()
        assert snap["stages"]["parse"]["calls"] == 3
        assert snap["stages"]["parse"]["seconds"] >= 0.0
        assert snap["stages"]["render"]["calls"] == 1
        assert snap["counters"] == {"events": 1, "lines": 15}

    def test_spans_nest(self):
        reg = PerfRegistry()
        reg.enable()
        with reg.stage("outer"):
            with reg.stage("inner"):
                pass
        snap = reg.snapshot()
        assert snap["stages"]["outer"]["calls"] == 1
        assert snap["stages"]["inner"]["calls"] == 1
        assert snap["stages"]["outer"]["seconds"] >= (
            snap["stages"]["inner"]["seconds"]
        )

    def test_exception_still_records(self):
        reg = PerfRegistry()
        reg.enable()
        with pytest.raises(RuntimeError):
            with reg.stage("boom"):
                raise RuntimeError("surfaces")
        assert reg.snapshot()["stages"]["boom"]["calls"] == 1

    def test_reset_clears(self):
        reg = PerfRegistry()
        reg.enable()
        with reg.stage("x"):
            pass
        reg.count("n", 2)
        reg.reset()
        assert reg.snapshot() == {"stages": {}, "counters": {}}
        assert reg.enabled  # reset clears data, not the switch

    def test_snapshot_is_sorted_and_detached(self):
        reg = PerfRegistry()
        reg.enable()
        for name in ("b", "a", "c"):
            with reg.stage(name):
                pass
        snap = reg.snapshot()
        assert list(snap["stages"]) == ["a", "b", "c"]
        snap["stages"]["a"]["calls"] = 99  # mutating the view is safe
        assert reg.snapshot()["stages"]["a"]["calls"] == 1


class TestModuleLevelRegistry:
    @pytest.fixture(autouse=True)
    def _clean_global(self):
        perf.disable()
        perf.reset()
        yield
        perf.disable()
        perf.reset()

    def test_disabled_by_default(self):
        assert not perf.is_enabled()
        with perf.stage("idle"):
            pass
        perf.count("idle", 7)
        assert perf.snapshot() == {"stages": {}, "counters": {}}

    def test_enable_disable_cycle(self):
        perf.enable()
        assert perf.is_enabled()
        with perf.stage("work"):
            pass
        perf.disable()
        with perf.stage("after"):
            pass
        snap = perf.snapshot()
        assert snap["stages"]["work"]["calls"] == 1
        assert "after" not in snap["stages"]


class TestParseFallbackCounter:
    """``telemetry.parse_fallback`` counts the rows the columnar decode
    hands to the per-line path: none on pristine writer output, some
    on chaos-corrupted text."""

    @pytest.fixture(autouse=True)
    def _clean_global(self):
        perf.disable()
        perf.reset()
        yield
        perf.disable()
        perf.reset()

    def _fallback(self, text, machine):
        from repro.telemetry.console import text_windows
        from repro.telemetry.parallel_parse import parse_blocks

        perf.reset()
        perf.enable()
        try:
            parse_blocks(text_windows(text), machine)
        finally:
            perf.disable()
        return perf.snapshot()["counters"]["telemetry.parse_fallback"]

    def test_zero_on_pristine_smoke_run(self, smoke_dataset):
        assert self._fallback(smoke_dataset.console_text, smoke_dataset.machine) == 0

    def test_positive_on_chaos_text(self, smoke_dataset):
        from repro.chaos.injector import ChaosConfig, CorruptionInjector

        corrupted = CorruptionInjector(ChaosConfig.uniform(0.3), seed=5).corrupt_text(
            smoke_dataset.console_text
        ).text
        assert self._fallback(corrupted, smoke_dataset.machine) > 0

    def test_profile_prints_it(self, capsys):
        from repro.cli import main

        rc = main(["profile", "--days", "3", "--seed", "7", "--no-cache"])
        assert rc == 0
        row = [
            line for line in capsys.readouterr().out.splitlines()
            if "telemetry.parse_fallback" in line
        ]
        assert len(row) == 1 and row[0].split()[-1] == "0"


class TestProfileCli:
    def test_profile_smoke_json(self, capsys):
        from repro.cli import main

        rc = main(
            ["profile", "--days", "3", "--seed", "7", "--no-cache", "--json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["wall_s"] > 0
        stages = doc["stages"]
        # The pipeline's load-bearing stages must all be present.
        for name in (
            "sim.workload",
            "sim.inject",
            "telemetry.render",
            "telemetry.parse",
        ):
            assert name in stages, name
            assert stages[name]["calls"] >= 1
        assert doc["counters"]["telemetry.lines"] > 0

    def test_profile_smoke_table(self, capsys):
        from repro.cli import main

        rc = main(["profile", "--days", "3", "--seed", "7", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry.parse" in out
        assert "total wall" in out

    def test_profile_with_store_times_the_fused_pass(self, tmp_path, capsys):
        """With a store, the persist's render → parse → shard pass is
        what gets timed: render and parse stay separate stages, timed
        per window, and the whole log is never materialized."""
        from repro.cli import main
        from repro.telemetry import console

        before = console.ConsoleLogWriter.to_text
        calls = []

        def spy(writer, events):
            calls.append(len(events))
            return before(writer, events)

        console.ConsoleLogWriter.to_text = spy
        try:
            rc = main([
                "profile", "--days", "3", "--seed", "7",
                "--cache-dir", str(tmp_path), "--json",
            ])
        finally:
            console.ConsoleLogWriter.to_text = before
        assert rc == 0
        stages = json.loads(capsys.readouterr().out)["stages"]
        for name in ("telemetry.render", "telemetry.parse", "cache.persist"):
            assert stages[name]["calls"] >= 1, name
        assert calls == []
