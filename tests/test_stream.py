"""The streamed telemetry pipeline: shards, block parse, cache layers.

Everything here guards one contract: rendering and parsing in blocks
is a *memory* bound, never a semantic change.  Sharded renderings
reassemble byte-identical to the whole text, one ``parse_lines`` call
over chained blocks reproduces one serial parse's log, statistics, strict errors,
quarantine and budget verdict for any block split, a cold run renders
each event once straight into the parser and the sharded console cache
layer, and a paper run through that pass reproduces the committed
golden digests bit for bit.  The bugfix satellites ride along: LRU
eviction, the coverage edge clamp, fused-record seam recovery and the
half-up fleet rounding.
"""

import dataclasses
import itertools
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import ArtifactStore, load_dataset, persist_dataset
from repro.cache.pipeline import (
    _CONSOLE_MANIFEST_LAYER,
    _console_shard_layer,
    _layer_key,
    dataset_key,
    has_dataset,
    load_or_simulate,
)
from repro.chaos.injector import ChaosConfig, CorruptionInjector
from repro.stream import (
    MANIFEST_NAME,
    ShardCorruption,
    iter_shard_payloads,
    iter_shard_texts,
    read_manifest,
    reassemble_text,
    verify_shards,
    write_shards,
)
from repro.telemetry import console
from repro.telemetry.console import ConsoleLogWriter
from repro.telemetry.coverage import infer_outage_windows
from repro.telemetry.ingestion import (
    IngestionDegraded,
    IngestionError,
    QuarantineSink,
)
from repro.telemetry.parser import ConsoleLogParser

_COLUMNS = ("time", "gpu", "etype", "structure", "job", "parent", "aux")


def assert_logs_equal(a, b):
    for name in _COLUMNS:
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=f"column {name}"
        )


@pytest.fixture(scope="module")
def console_lines(smoke_dataset):
    """The smoke scenario's rendered console lines (no trailing '')."""
    return smoke_dataset.console_text.splitlines()


@pytest.fixture(scope="module")
def gpu_record_lines(smoke_dataset, console_lines):
    """Two console lines that each parse to exactly one GPU event."""
    parser = ConsoleLogParser(smoke_dataset.machine)
    picked = []
    for line in console_lines:
        _log, stats = parser.parse_lines([line])
        if stats.parsed_events == 1:
            picked.append(line)
        if len(picked) == 2:
            return picked
    raise AssertionError("smoke console has fewer than two GPU records")


# ---------------------------------------------------------------------------
# Shard round-trip mechanics
# ---------------------------------------------------------------------------


class TestShards:
    def test_empty_stream(self, tmp_path):
        manifest = write_shards([], tmp_path)
        assert manifest.total_lines == 0
        assert manifest.shards == ()
        assert (tmp_path / MANIFEST_NAME).exists()
        assert reassemble_text(tmp_path) == ""
        assert list(iter_shard_texts(tmp_path)) == []

    def test_single_line_shards(self, tmp_path):
        manifest = write_shards(
            ["a", "bb", "ccc"], tmp_path, max_lines_per_shard=1
        )
        assert [s.lines for s in manifest.shards] == [1, 1, 1]
        assert reassemble_text(tmp_path) == "a\nbb\nccc\n"
        assert list(iter_shard_texts(tmp_path)) == ["a\n", "bb\n", "ccc\n"]

    def test_manifest_round_trip(self, tmp_path):
        written = write_shards(
            [f"line {i}" for i in range(10)], tmp_path, max_lines_per_shard=4
        )
        assert read_manifest(tmp_path) == written
        assert written.total_lines == 10
        assert [s.lines for s in written.shards] == [4, 4, 2]
        assert verify_shards(tmp_path) == []

    def test_payload_chunking_preserves_lines(self):
        chunks = list(
            iter_shard_payloads(iter(["x", "y", "z"]), max_lines_per_shard=2)
        )
        assert chunks == [(2, "x\ny\n"), (1, "z\n")]

    def test_invalid_shard_size(self, tmp_path):
        with pytest.raises(ValueError):
            write_shards(["a"], tmp_path, max_lines_per_shard=0)

    def test_garbled_shard_detected(self, tmp_path):
        manifest = write_shards(
            [f"line {i}" for i in range(8)], tmp_path, max_lines_per_shard=4
        )
        victim = tmp_path / manifest.shards[1].name
        payload = bytearray(victim.read_bytes())
        payload[0] ^= 0xFF
        victim.write_bytes(bytes(payload))
        assert verify_shards(tmp_path) == [manifest.shards[1].name]
        with pytest.raises(ShardCorruption):
            list(iter_shard_texts(tmp_path))

    def test_torn_final_shard_detected(self, tmp_path):
        manifest = write_shards(
            [f"line {i}" for i in range(8)], tmp_path, max_lines_per_shard=4
        )
        victim = tmp_path / manifest.shards[-1].name
        victim.write_bytes(victim.read_bytes()[:-3])
        with pytest.raises(ShardCorruption):
            reassemble_text(tmp_path)
        assert verify_shards(tmp_path) == [manifest.shards[-1].name]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_manifest(tmp_path)

    def test_unreadable_manifest(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("not json {")
        with pytest.raises(ShardCorruption):
            read_manifest(tmp_path)


# ---------------------------------------------------------------------------
# Parse equivalence: chained blocks vs one serial parse
# ---------------------------------------------------------------------------


def _chained(lines, size):
    """``lines`` as ``size``-line blocks, chained into one lazy stream."""
    return itertools.chain.from_iterable(
        lines[i : i + size] for i in range(0, len(lines), size)
    )


def _outcome(parse):
    """``parse()``'s result, or the observable content of its error."""
    try:
        log, stats = parse()
    except IngestionError as exc:
        return ("strict", exc.line_no, exc.category, exc.line)
    except IngestionDegraded as exc:
        return ("degraded", exc.stats, exc.fraction, _columns(exc.log))
    return ("ok", stats, _columns(log))


def _columns(log):
    return tuple(getattr(log, name).tobytes() for name in _COLUMNS)


def _sink_state(sink):
    if sink is None:
        return None
    return (
        sink.total,
        sink.counts,
        sink.n_overflowed,
        [(r.line_no, r.category, r.line) for r in sink.records],
    )


@pytest.fixture(scope="module")
def corrupted_lines(console_lines):
    """Chaos-corrupted real console lines (every line-level mode)."""
    injector = CorruptionInjector(ChaosConfig.uniform(0.3), seed=5)
    text = "\n".join(console_lines[:300]) + "\n"
    return injector.corrupt_text(text).text.splitlines()


class TestParseEquivalence:
    def test_chunked_matches_serial_smoke(self, smoke_dataset, console_lines):
        serial = ConsoleLogParser(smoke_dataset.machine).parse_lines(
            console_lines
        )
        blocked = ConsoleLogParser(smoke_dataset.machine).parse_lines(
            _chained(console_lines, 1000)
        )
        assert_logs_equal(serial[0], blocked[0])
        assert serial[1] == blocked[1]

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(data=st.data())
    def test_property_shard_round_trip(
        self,
        data,
        tmp_path_factory,
        smoke_dataset,
        console_lines,
        gpu_record_lines,
        corrupted_lines,
    ):
        """Any line mix, any block split: bytes and parse both identical.

        Lines are drawn from real console records, chaos-corrupted
        records, records fused or torn by a lost newline, and printable
        garbage.  The stream is split into blocks at arbitrary seams
        (empty and single-line blocks included), chained into one
        ``parse_lines`` call that decodes in drawn 1–7-row slices, under
        drawn strict/quarantine/budget settings; log rows, statistics,
        the global line number of a strict error, the quarantine records
        and the budget verdict must all equal one serial per-line
        (``fast=False``) ``parse_lines`` over the whole input list, so
        the chained parse's columnar decode is held to the reference
        path, not to itself.  Shards of the same lines must
        reassemble to the whole rendering.
        """
        a, b = gpu_record_lines
        line = st.one_of(
            st.sampled_from(console_lines[:200]),
            st.sampled_from(corrupted_lines),
            st.sampled_from([a + b, a[:25] + b, b[:40]]),
            st.text(
                alphabet=st.characters(
                    blacklist_categories=("Cs", "Cc"), max_codepoint=0x2FF
                ),
                max_size=80,
            ),
        )
        lines = data.draw(st.lists(line, max_size=60))
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, len(lines)), max_size=6)
            )
        )
        seams = [0, *cuts, len(lines)]
        blocks = [lines[i:j] for i, j in zip(seams, seams[1:])]
        strict = data.draw(st.booleans())
        capacity = data.draw(st.none() | st.integers(0, 5))
        budget = data.draw(st.none() | st.floats(0.0, 1.0))
        slice_rows = data.draw(st.integers(1, 7))

        def sink():
            return None if capacity is None else QuarantineSink(capacity)

        serial_sink, block_sink = sink(), sink()
        machine = smoke_dataset.machine
        serial = _outcome(
            lambda: ConsoleLogParser(
                machine,
                strict=strict,
                error_budget=budget,
                quarantine=serial_sink,
                fast=False,
            ).parse_lines(lines)
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(console, "_SLICE_ROWS", slice_rows)
            blocked = _outcome(
                lambda: ConsoleLogParser(
                    machine,
                    strict=strict,
                    error_budget=budget,
                    quarantine=block_sink,
                ).parse_lines(itertools.chain.from_iterable(blocks))
            )
        assert blocked == serial
        assert _sink_state(block_sink) == _sink_state(serial_sink)

        shard_size = data.draw(st.integers(min_value=1, max_value=50))
        directory = tmp_path_factory.mktemp("prop-shards")
        manifest = write_shards(
            lines, directory, max_lines_per_shard=shard_size
        )
        assert manifest.total_lines == len(lines)
        expected_text = "".join(line + "\n" for line in lines)
        assert reassemble_text(directory) == expected_text

    def test_chunked_strict_error_has_global_line_number(
        self, smoke_dataset, gpu_record_lines
    ):
        lines = [gpu_record_lines[0]] * 5 + ["garbage GPU XID zzz"]
        with pytest.raises(IngestionError) as excinfo:
            ConsoleLogParser(smoke_dataset.machine, strict=True).parse_lines(
                _chained(lines, 2)
            )
        assert excinfo.value.line_no == 6


# ---------------------------------------------------------------------------
# Seam recovery: a newline lost at a shard boundary (satellite bugfix)
# ---------------------------------------------------------------------------


class TestSeamRecovery:
    def test_fused_records_both_recovered(
        self, smoke_dataset, gpu_record_lines
    ):
        a, b = gpu_record_lines
        log, stats = ConsoleLogParser(smoke_dataset.machine).parse_lines(
            [a + b]
        )
        assert stats.total_lines == 2  # the seam splits into two logical lines
        assert stats.parsed_events == 2
        assert stats.resynced_lines == 1
        reference, _ = ConsoleLogParser(smoke_dataset.machine).parse_lines(
            [a, b]
        )
        assert_logs_equal(log, reference)

    def test_lost_newline_at_shard_boundary(
        self, tmp_path, smoke_dataset, console_lines
    ):
        """Reassembling shards whose boundary newline was dropped must
        not lose the two records it fuses."""
        lines = console_lines[:400]
        manifest = write_shards(lines, tmp_path, max_lines_per_shard=200)
        payloads = [
            (tmp_path / shard.name).read_text() for shard in manifest.shards
        ]
        assert len(payloads) == 2
        fused_text = payloads[0][:-1] + payloads[1]  # newline torn at the seam
        fused_lines = fused_text.splitlines()
        assert len(fused_lines) == len(lines) - 1

        reference = ConsoleLogParser(smoke_dataset.machine).parse_lines(lines)
        log, stats = ConsoleLogParser(smoke_dataset.machine).parse_lines(
            fused_lines
        )
        assert stats.total_lines == reference[1].total_lines
        assert stats.parsed_events == reference[1].parsed_events
        assert stats.resynced_lines == reference[1].resynced_lines + 1
        assert_logs_equal(log, reference[0])

    def test_fused_line_at_parse_chunk_boundary(
        self, smoke_dataset, gpu_record_lines
    ):
        a, b = gpu_record_lines
        lines = [a, b, a + b, b, a]
        serial = ConsoleLogParser(smoke_dataset.machine).parse_lines(lines)
        for size in (1, 2, 3):
            blocked = ConsoleLogParser(smoke_dataset.machine).parse_lines(
                _chained(lines, size)
            )
            assert_logs_equal(serial[0], blocked[0])
            assert serial[1] == blocked[1]


# ---------------------------------------------------------------------------
# The fused render → parse → shard pass and the sharded console layer
# ---------------------------------------------------------------------------


def _streamed_replica(dataset):
    """The same simulation with its console round trip not yet run."""
    return dataclasses.replace(dataset, _console_text=None, _parsed=None)


@pytest.fixture()
def small_windows(monkeypatch):
    """Render in 2,000-row windows, so smoke-sized logs span several."""
    monkeypatch.setattr(console, "RENDER_CHUNK_ROWS", 2_000)


class TestStreamedSimulation:
    def test_streamed_parse_bit_identical(self, smoke_dataset, small_windows):
        streamed = _streamed_replica(smoke_dataset)
        log, stats = ConsoleLogParser(smoke_dataset.machine).parse_text(
            ConsoleLogWriter(smoke_dataset.machine).to_text(
                smoke_dataset.events
            )
        )
        assert_logs_equal(log.sorted_by_time(), streamed.parsed_events)
        assert stats == streamed.parse_stats
        # The whole point: the monolithic text never materialized.
        assert streamed._console_text is None

    def test_chaos_replacement_overrides_streaming(self, smoke_dataset):
        streamed = _streamed_replica(smoke_dataset)
        modified = streamed.with_console_text("one garbled line")
        assert modified.provenance == "modified"
        assert modified.parse_stats.total_lines == 1
        assert modified.parse_stats.parsed_events == 0


class TestShardedCacheLayer:
    @pytest.fixture()
    def store(self, tmp_path):
        return ArtifactStore(tmp_path / "store")

    def test_streaming_persist_round_trip(
        self, store, smoke_dataset, small_windows
    ):
        persist_dataset(store, _streamed_replica(smoke_dataset))
        dkey = dataset_key(smoke_dataset.scenario)
        assert store.has(_layer_key(dkey, _CONSOLE_MANIFEST_LAYER))
        assert store.has(_layer_key(dkey, _console_shard_layer(0)))
        assert store.has(_layer_key(dkey, _console_shard_layer(1)))
        assert not store.has(_layer_key(dkey, "console"))
        assert has_dataset(store, smoke_dataset.scenario)

        cached = load_dataset(store, smoke_dataset.scenario)
        assert cached is not None
        assert cached.console_text == smoke_dataset.console_text
        assert_logs_equal(
            cached.parsed_events, smoke_dataset.parsed_events
        )

    def test_corrupt_shard_degrades_to_recompute(self, store, smoke_dataset):
        persist_dataset(store, smoke_dataset)
        dkey = dataset_key(smoke_dataset.scenario)
        shard_key = _layer_key(dkey, _console_shard_layer(0))
        store.put(shard_key, "tampered\n", "text")  # valid artifact, wrong sha
        assert load_dataset(store, smoke_dataset.scenario) is None

        dataset, warm = load_or_simulate(smoke_dataset.scenario, store)
        assert not warm
        assert dataset.console_text == smoke_dataset.console_text

        # Same byte length, one character changed: only the digest
        # tells it from the manifest's record.
        original = store.get(shard_key)
        store.put(shard_key, original.replace("GPU", "GPV", 1), "text")
        assert load_dataset(store, smoke_dataset.scenario) is None

    def test_cold_run_renders_each_row_once(
        self, store, smoke_dataset, small_windows, monkeypatch
    ):
        """A cold ``load_or_simulate`` renders every event row exactly
        once, parses and shards it in the same pass, and never holds
        the whole log text."""
        rendered = []
        render = ConsoleLogWriter.render

        def counting_render(writer, events):
            rendered.append(events.time)
            return render(writer, events)

        monkeypatch.setattr(ConsoleLogWriter, "render", counting_render)
        dataset, warm = load_or_simulate(smoke_dataset.scenario, store)
        assert not warm
        assert dataset._console_text is None
        assert len(rendered) > 1
        np.testing.assert_array_equal(
            np.concatenate(rendered), dataset.events.time
        )

        dkey = dataset_key(smoke_dataset.scenario)
        assert store.has(_layer_key(dkey, _CONSOLE_MANIFEST_LAYER))
        assert store.has(_layer_key(dkey, _console_shard_layer(len(rendered) - 1)))
        assert not store.has(_layer_key(dkey, "console"))
        assert_logs_equal(dataset.parsed_events, smoke_dataset.parsed_events)
        assert dataset.parse_stats == smoke_dataset.parse_stats

    def test_parent_monolithic_layer_is_a_miss(self, store, smoke_dataset):
        """A store persisted before the sharded layer was the only one
        (one monolithic ``console`` text layer) loads as a miss and is
        recomputed — so the layout change needs no epoch bump."""
        dkey = dataset_key(smoke_dataset.scenario)
        for layer, obj, kind in (
            ("console", smoke_dataset.console_text, "text"),
            ("parsed", (smoke_dataset.parsed_events, smoke_dataset.parse_stats), "pickle"),
            ("nvsmi", smoke_dataset.nvsmi_table, "npz"),
            ("jobsnap", smoke_dataset.jobsnap_records, "pickle"),
            ("trace", smoke_dataset.trace, "pickle"),
        ):
            store.put(_layer_key(dkey, layer), obj, kind)
        assert not has_dataset(store, smoke_dataset.scenario)
        assert load_dataset(store, smoke_dataset.scenario) is None

        _dataset, warm = load_or_simulate(smoke_dataset.scenario, store)
        assert not warm
        cached = load_dataset(store, smoke_dataset.scenario)
        assert cached is not None
        assert cached.console_text == smoke_dataset.console_text


class TestWriterShards:
    def test_console_shards_match_to_text(
        self, tmp_path, smoke_dataset, small_windows
    ):
        writer = ConsoleLogWriter(smoke_dataset.machine)
        events = smoke_dataset.injection.events
        manifest = write_shards(
            itertools.chain.from_iterable(writer.windows(events)),
            tmp_path,
            max_lines_per_shard=7_000,
        )
        assert len(manifest.shards) >= 2
        assert reassemble_text(tmp_path) == writer.to_text(events)


# ---------------------------------------------------------------------------
# Satellite bugfixes: LRU eviction, coverage clamp, grid rounding
# ---------------------------------------------------------------------------


class TestEvictionLRU:
    def _put(self, store, key, mtime):
        store.put(key, f"payload {key}", "text")
        os.utime(store._path(key), (mtime, mtime))

    def test_read_refreshes_recency(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        self._put(store, "d1/fig/old", 1_000.0)
        self._put(store, "d1/fig/mid", 2_000.0)
        self._put(store, "d1/fig/new", 3_000.0)
        # Reading the oldest artifact must make it the *hottest*.
        assert store.get("d1/fig/old") is not None
        evicted = store.evict(max_bytes=0)
        assert evicted[-1] == "d1/fig/old"
        assert evicted[:2] == ["d1/fig/mid", "d1/fig/new"]

    def test_unread_artifacts_evict_in_write_order(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        self._put(store, "d1/fig/a", 1_000.0)
        self._put(store, "d1/fig/b", 2_000.0)
        entry = next(e for e in store.entries() if e.key == "d1/fig/a")
        evicted = store.evict(max_bytes=entry.nbytes)
        assert evicted == ["d1/fig/a"]
        assert store.has("d1/fig/b")

    def test_touch_tolerates_racing_delete(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "s")
        store.put("d1/fig/x", "payload", "text")

        def exploding_utime(*args, **kwargs):
            raise OSError("unlinked under us")

        monkeypatch.setattr(os, "utime", exploding_utime)
        assert store.get("d1/fig/x") == "payload"  # read still succeeds


class TestCoverageEdgeClamp:
    def test_trailing_outage_clamped_not_dropped(self):
        # Events stop at t=20 in a [0, 1000) window with a 100 s gap
        # threshold: the tail silence is one outage clamped to the
        # window end.  (The old end anchor sat 1e-9 inside the window,
        # leaving a phantom observed sliver that erased this outage.)
        windows = infer_outage_windows(
            [0.0, 10.0, 20.0], 0.0, 1000.0, min_gap_s=100.0
        )
        assert windows.windows == ((0.0, 70.0),)
        assert windows.n_outages == 1
        assert windows.coverage_fraction == pytest.approx(0.07)

    def test_leading_outage_clamped_symmetrically(self):
        windows = infer_outage_windows(
            [980.0, 990.0], 0.0, 1000.0, min_gap_s=100.0
        )
        assert windows.windows == ((930.0, 1000.0),)

    def test_healthy_stream_full_coverage(self):
        times = np.arange(0.0, 1000.0, 50.0)
        windows = infer_outage_windows(times, 0.0, 1000.0, min_gap_s=100.0)
        assert windows.coverage_fraction == 1.0


class TestGridRounding:
    def test_known_fleet_sizes(self):
        from repro.sweep.grid import _scaled_nodes
        from repro.topology.machine import N_COMPUTE_NODES

        assert _scaled_nodes(1.0) == N_COMPUTE_NODES == 18_688
        assert _scaled_nodes(2.0) == 37_376
        assert _scaled_nodes(4.0) == 74_752

    def test_monotone_over_dense_grid(self):
        from repro.sweep.grid import _scaled_nodes

        sizes = [_scaled_nodes(s) for s in np.linspace(0.25, 4.0, 1501)]
        assert sizes == sorted(sizes)

    def test_half_ties_round_up_not_to_even(self):
        from repro.sweep.grid import _scaled_nodes
        from repro.topology.machine import N_COMPUTE_NODES

        checked = 0
        for k in range(0, 400, 2):  # even targets: banker's would round DOWN
            scale = (k + 0.5) / N_COMPUTE_NODES
            if N_COMPUTE_NODES * scale != k + 0.5:
                continue  # float round-trip inexact for this k; skip
            assert round(N_COMPUTE_NODES * scale) == k  # the old bug
            assert _scaled_nodes(scale) == k + 1
            checked += 1
        assert checked > 0

    def test_near_duplicate_scales_get_unique_labels(self):
        from repro.sweep import SweepSpec
        from repro.sweep.grid import expand

        points = expand(
            SweepSpec(
                name="labels",
                base="smoke",
                days=1.0,
                scales=(1.0, 1.0 + 1e-12, 1.0 + 2e-12),
            )
        )
        labels = [p.label for p in points]
        assert len(set(labels)) == len(points)
        # Distinct %g renderings stay human-friendly (no escalation).
        assert points[0].label == "anchor"


# ---------------------------------------------------------------------------
# End to end: the golden paper run
# ---------------------------------------------------------------------------


class TestStreamedGolden:
    def test_streamed_paper_run_matches_golden_digests(self, paper_dataset):
        """The full paper scenario through the streamed pipeline must
        reproduce the committed golden figure digests bit for bit."""
        from repro.core.golden import golden_diff, golden_document
        from repro.core.study import TitanStudy

        golden_file = Path(__file__).parent / "golden" / "paper.json"
        committed = json.loads(golden_file.read_text())
        streamed = _streamed_replica(paper_dataset)
        doc = golden_document(TitanStudy(streamed))
        assert golden_diff(committed, doc) == []
        assert streamed._console_text is None
