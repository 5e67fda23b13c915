"""Tests for hardened telemetry ingestion.

Strict/lenient/budgeted parser regimes, resync-on-garbage recovery,
quarantine, the nvsmi fleet-stream parser, the jobsnap record-stream
round trip, and hypothesis fuzz over the console parser: it must never
raise on arbitrary input, and the ParseStats primary counters must
always partition the input lines.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.injector import ChaosConfig, CorruptionInjector
from repro.rng import RngTree
from repro.telemetry import console
from repro.telemetry.ingestion import (
    IngestionDegraded,
    IngestionError,
    QuarantineSink,
)
from repro.telemetry.jobsnap import (
    JOBSNAP_HEADER,
    parse_jobsnap_records,
    render_jobsnap_records,
)
from repro.telemetry.nvsmi_text import (
    parse_nvsmi_fleet,
    parse_nvsmi_query,
    render_nvsmi_query,
)
from repro.telemetry.parser import ConsoleLogParser


@pytest.fixture(scope="module")
def gpu_lines(smoke_dataset):
    """Real rendered GPU-event lines from the smoke scenario."""
    lines = [
        line
        for line in smoke_dataset.console_text.splitlines()[:5000]
        if "GPU XID" in line
    ]
    assert len(lines) >= 20
    return lines


@pytest.fixture(scope="module")
def chaos_lines(smoke_dataset):
    """Chaos-corrupted real console lines (every line-level mode)."""
    base = smoke_dataset.console_text.splitlines()[:400]
    corrupted, _counts, _ = CorruptionInjector(
        ChaosConfig.uniform(0.3), seed=7
    ).corrupt_lines(base)
    return corrupted


@pytest.fixture(scope="module")
def parser(smoke_dataset):
    return ConsoleLogParser(smoke_dataset.machine)


class TestParserRegimes:
    def test_clean_round_trip_accounts_all_lines(self, parser, smoke_dataset):
        text = "\n".join(smoke_dataset.console_text.splitlines()[:2000])
        log, stats = parser.parse_text(text)
        assert stats.accounted == stats.total_lines
        assert stats.malformed_lines == 0
        assert stats.unknown_xid_lines == 0
        assert stats.corrupt_fraction == 0.0
        assert len(log) == stats.parsed_events

    def test_lenient_counts_garbage(self, parser, gpu_lines):
        lines = [gpu_lines[0], "### total garbage ###", gpu_lines[1]]
        log, stats = parser.parse_lines(lines)
        assert stats.total_lines == 3
        assert stats.parsed_events == 2
        assert stats.malformed_lines == 1
        assert stats.accounted == stats.total_lines

    def test_strict_raises_with_context(self, smoke_dataset):
        strict = ConsoleLogParser(smoke_dataset.machine, strict=True)
        with pytest.raises(IngestionError) as excinfo:
            strict.parse_lines(["### total garbage ###"])
        assert excinfo.value.category == "malformed"
        assert excinfo.value.line_no == 1
        assert "garbage" in excinfo.value.line

    def test_resync_recovers_spliced_line(self, parser, gpu_lines):
        spliced = "GARBAGE####" + gpu_lines[0]
        log, stats = parser.parse_lines([spliced])
        assert stats.parsed_events == 1
        assert stats.resynced_lines == 1
        assert stats.malformed_lines == 0
        assert len(log) == 1

    def test_resync_recovers_torn_plus_full(self, parser, gpu_lines):
        spliced = gpu_lines[0][:30] + gpu_lines[1]
        log, stats = parser.parse_lines([spliced])
        assert stats.parsed_events == 1
        assert stats.resynced_lines == 1

    def test_resync_disabled_rejects(self, smoke_dataset, gpu_lines):
        no_resync = ConsoleLogParser(smoke_dataset.machine, resync=False)
        _, stats = no_resync.parse_lines(["GARBAGE####" + gpu_lines[0]])
        assert stats.parsed_events == 0
        assert stats.malformed_lines == 1

    def test_error_budget_degrades_with_partial_log(
        self, smoke_dataset, gpu_lines
    ):
        budgeted = ConsoleLogParser(smoke_dataset.machine, error_budget=0.2)
        lines = gpu_lines[:5] + ["@@corrupt@@"] * 5
        with pytest.raises(IngestionDegraded) as excinfo:
            budgeted.parse_lines(lines)
        exc = excinfo.value
        assert exc.fraction == pytest.approx(0.5)
        assert exc.budget == pytest.approx(0.2)
        assert len(exc.log) == 5  # the partial log is still usable
        assert exc.stats.accounted == exc.stats.total_lines == 10

    def test_error_budget_not_exceeded_returns(self, smoke_dataset, gpu_lines):
        budgeted = ConsoleLogParser(smoke_dataset.machine, error_budget=0.6)
        log, stats = budgeted.parse_lines(gpu_lines[:5] + ["@@corrupt@@"] * 2)
        assert len(log) == 5
        assert stats.corrupt_fraction < 0.6

    def test_invalid_budget_rejected(self, smoke_dataset):
        with pytest.raises(ValueError):
            ConsoleLogParser(smoke_dataset.machine, error_budget=1.5)

    def test_quarantine_sink(self, smoke_dataset, gpu_lines):
        sink = QuarantineSink(capacity=3)
        quarantining = ConsoleLogParser(
            smoke_dataset.machine, quarantine=sink
        )
        _, stats = quarantining.parse_lines(
            [gpu_lines[0]] + [f"@@bad {i}@@" for i in range(5)]
        )
        assert sink.total == 5
        assert len(sink.records) == 3  # capacity-bounded raw retention
        assert sink.n_overflowed == 2
        assert sink.summary() == {"malformed": 5}
        assert sink.records[0].category == "malformed"
        assert stats.quarantined_lines == 5

    def test_overflowing_int_fields_rejected(self, parser, gpu_lines):
        big = "9" * 25
        line = gpu_lines[0] + f" [job={big}]"
        _, stats = parser.parse_lines([line])
        # Either resync re-reads a clean prefix or the line is rejected;
        # it must never crash the columnar store.
        assert stats.accounted == stats.total_lines == 1


_LINE_TEXT = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\n\r"
    ),
    max_size=120,
)
_SEMI_VALID = st.builds(
    lambda body: "2013-06-03T12:00:00.000000 c1-2c0s3n1 " + body,
    st.text(
        alphabet=st.characters(
            blacklist_categories=("Cs",), blacklist_characters="\n\r"
        ),
        max_size=80,
    ),
)


class TestParserFuzz:
    """Property: the lenient parser is total over arbitrary text."""

    @given(lines=st.lists(st.one_of(_LINE_TEXT, _SEMI_VALID), max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_never_raises_and_counters_partition(self, bare_machine, lines):
        parser = ConsoleLogParser(bare_machine)
        log, stats = parser.parse_lines(lines)
        assert stats.accounted == stats.total_lines
        assert len(log) == stats.parsed_events
        assert stats.total_lines <= len(lines)  # blanks are skipped

    @given(
        prefix=_LINE_TEXT,
        job=st.integers(min_value=0, max_value=10**30),
        page=st.integers(min_value=0, max_value=10**30),
    )
    @settings(max_examples=60, deadline=None)
    def test_huge_numerals_never_crash(self, bare_machine, prefix, job, page):
        parser = ConsoleLogParser(bare_machine)
        line = (
            "2013-06-03T12:00:00.000000 c1-2c0s3n1 GPU XID 48 double-bit "
            f"ECC error in device_memory page 0x{page:x} [job={job}] {prefix}"
        )
        log, stats = parser.parse_lines([line])
        assert stats.accounted == stats.total_lines == 1


class TestNvsmiFleetStream:
    @pytest.fixture(scope="class")
    def reports(self, smoke_dataset):
        records = [smoke_dataset.nvsmi.query(slot) for slot in range(4)]
        return [
            render_nvsmi_query(record, gpu_index=i)
            for i, record in enumerate(records)
        ]

    def test_fleet_round_trip(self, reports):
        parsed, stats = parse_nvsmi_fleet("".join(reports))
        assert stats.total_reports == 4
        assert stats.parsed_reports == 4
        assert stats.rejected_reports == 0
        assert stats.corrupt_fraction == 0.0

    def test_damaged_report_counted_not_fatal(self, reports):
        damaged = reports[1].replace("Serial Number", "Ser### Num###")
        parsed, stats = parse_nvsmi_fleet(
            reports[0] + damaged + reports[2]
        )
        assert stats.total_reports == 3
        assert stats.parsed_reports == 2
        assert stats.rejected_reports == 1

    def test_lenient_garbled_temperature(self, reports):
        garbled = reports[0].replace(
            reports[0].split("GPU Current Temp")[1].split("\n")[0],
            "                : 7..5 C",
        )
        assert parse_nvsmi_query(garbled, strict=False) is None
        with pytest.raises(ValueError):
            parse_nvsmi_query(garbled, strict=True)

    def test_leading_torn_text_ignored(self, reports):
        parsed, stats = parse_nvsmi_fleet("torn tail of a report\n" + reports[0])
        assert stats.total_reports == 1
        assert stats.parsed_reports == 1


class TestJobsnapStream:
    @pytest.fixture(scope="class")
    def records(self, smoke_dataset):
        records = smoke_dataset.jobsnap_records[:40]
        assert records
        return records

    def test_round_trip(self, records):
        text = render_jobsnap_records(records)
        assert text.startswith(JOBSNAP_HEADER)
        parsed, stats = parse_jobsnap_records(text)
        assert stats.parsed_rows == len(records)
        assert stats.malformed_rows == 0
        assert [r.job for r in parsed] == [r.job for r in records]
        assert parsed[0].gpu_core_hours == pytest.approx(
            records[0].gpu_core_hours, abs=1e-6
        )
        assert [r.sbe_delta for r in parsed] == [
            r.sbe_delta for r in records
        ]

    def test_damage_counted_not_fatal(self, records):
        lines = render_jobsnap_records(records).splitlines()
        lines[2] = "xx\tyy"  # wrong arity + non-numeric
        lines[3] = lines[3].replace("\t", "\t" + "9" * 25, 1)  # torn digits
        lines.append("1\t2\t3\tinf\t0\t0\t0\t0")  # non-finite float
        parsed, stats = parse_jobsnap_records("\n".join(lines))
        assert stats.malformed_rows == 3
        assert stats.parsed_rows == len(records) - 2
        assert stats.corrupt_fraction == pytest.approx(
            3 / (len(records) + 1)
        )

    def test_strict_raises(self, records):
        text = render_jobsnap_records(records) + "garbage row\n"
        with pytest.raises(ValueError, match="malformed jobsnap row"):
            parse_jobsnap_records(text, strict=True)

    def test_duplicate_headers_skipped(self, records):
        text = render_jobsnap_records(records)
        spliced = text + JOBSNAP_HEADER + "\n" + text
        parsed, stats = parse_jobsnap_records(spliced)
        assert stats.parsed_rows == 2 * len(records)
        assert stats.malformed_rows == 0


#: Non-ASCII decimal digits (Arabic-Indic, fullwidth): ``\d`` and
#: ``str.isdecimal`` accept them, the columnar stamp decode does not.
_WIDE_DIGITS = ("\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
                "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")


def _widen_digit(draw, text, positions):
    """``text`` with the digit at one of ``positions`` replaced by the
    same digit from a non-ASCII decimal script."""
    i = draw(st.sampled_from(list(positions)))
    return text[:i] + draw(st.sampled_from(_WIDE_DIGITS))[int(text[i])] + text[i + 1 :]


#: One departure from canonical writer output per drawn line, or none.
_FLAWS = [None] * 8 + [
    "year", "stamp_digit", "cname_zero", "separator", "page_16",
    "job_19", "job_digit", "unknown_xid", "bogus_structure",
]


@st.composite
def _canonical_line(draw, cnames):
    """A writer-format line: canonical (stamps in the study window,
    10- and 11-char cnames, pages of up to 15 hex digits, jobs of up to
    18 digits) or with one flaw — a stamp in year 0001, 2400 or 9999,
    a non-ASCII digit in the stamp or the job, a leading-zero cname, a
    missing, doubled or tab separator, a 16-hex-digit page, a 19-digit
    job, an unknown XID or an unknown structure."""
    from repro.telemetry.console import _BODY_HEAD_BY_CODE, _STRUCT_NAME_BY_CODE

    flaw = draw(st.sampled_from(_FLAWS))
    # Uniform draws: float rounding at large µs totals and int64 bounds
    # only show on values away from the small ones hypothesis favours.
    rng = RngTree(draw(st.integers(0, 2**32 - 1))).fresh_generator("line")

    def uniform(low, high):
        return int(rng.integers(low, high, endpoint=True, dtype=np.uint64))

    year = draw(st.sampled_from([1, 2400, 9999] if flaw == "year" else [2013, 2014]))
    stamp = (
        f"{year:04d}-{uniform(1, 12):02d}-{uniform(1, 28):02d}"
        f"T{uniform(0, 23):02d}:{uniform(0, 59):02d}:"
        f"{uniform(0, 59):02d}.{uniform(0, 999_999):06d}"
    )
    if flaw == "stamp_digit":
        stamp = _widen_digit(draw, stamp, [0, 3, 6, 9, 12, 18, 25])
    width = draw(st.sampled_from([10, 11]))
    cname = draw(st.sampled_from([c for c in cnames if len(c) == width]))
    if flaw == "cname_zero":
        cname = "c0" + cname[1:]
    heads = sorted(_BODY_HEAD_BY_CODE.values())
    body = draw(st.sampled_from(["GPU XID 99: new thing"] if flaw == "unknown_xid" else heads))
    if flaw in ("bogus_structure", "page_16") or draw(st.booleans()):
        names = ["bogus"] if flaw == "bogus_structure" else _STRUCT_NAME_BY_CODE
        body += " in " + draw(st.sampled_from(names))
        if flaw == "page_16" or draw(st.booleans()):
            digits = 16 if flaw == "page_16" else draw(st.sampled_from([1, 6, 7, 15]))
            page = uniform(16 ** (digits - 1), 16**digits - 1)
            body += f" page 0x{page:x}"
    if flaw in ("job_19", "job_digit") or draw(st.booleans()):
        digits = 19 if flaw == "job_19" else draw(st.sampled_from([1, 5, 18]))
        job = str(uniform(10 ** (digits - 1), 10**digits - 1))
        if flaw == "job_digit":
            job = _widen_digit(draw, job, range(len(job)))
        body += f" [job={job}]"
    sep = draw(st.sampled_from(["", "  ", "\t"])) if flaw == "separator" else " "
    return f"{stamp} {cname}{sep}{body}"


def _columns(log):
    return tuple(
        getattr(log, name).tobytes()
        for name in ("time", "gpu", "etype", "structure", "job", "parent", "aux")
    )


def _assert_logs_equal(got, want):
    """Row-for-row equality over every EventLog column."""
    assert len(got) == len(want)
    for column in ("time", "gpu", "etype", "structure", "job", "parent", "aux"):
        assert np.array_equal(getattr(got, column), getattr(want, column)), column


def _assert_same_parse(machine, lines):
    """The slicing fast path and the regex slow path must be observably
    identical: same log rows, same statistics."""
    fast_log, fast_stats = ConsoleLogParser(machine, fast=True).parse_lines(lines)
    slow_log, slow_stats = ConsoleLogParser(machine, fast=False).parse_lines(lines)
    _assert_logs_equal(fast_log, slow_log)
    assert fast_stats == slow_stats
    assert fast_stats.accounted == fast_stats.total_lines


class TestFastSlowEquivalence:
    """The sliced fast path defers every doubtful line to the regex
    slow path, so fast and slow parsing are the same function."""

    def test_clean_console_text(self, smoke_dataset):
        _assert_same_parse(
            smoke_dataset.machine,
            smoke_dataset.console_text.splitlines()[:4000],
        )

    @pytest.mark.parametrize("level", [0.02, 0.25])
    def test_corrupted_console_text(self, smoke_dataset, level):
        base = smoke_dataset.console_text.splitlines()[:2500]
        injector = CorruptionInjector(ChaosConfig.uniform(level), seed=13)
        corrupted, counts, _ = injector.corrupt_lines(base)
        assert sum(counts.values()) > 0
        _assert_same_parse(smoke_dataset.machine, corrupted)

    @given(lines=st.lists(st.one_of(_LINE_TEXT, _SEMI_VALID), max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_lines(self, bare_machine, lines):
        _assert_same_parse(bare_machine, lines)

    @given(data=st.data())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_property_across_slice_seams(self, smoke_dataset, chaos_lines, data):
        """Columnar decode ≡ per-line path, with slices of 1–7 rows so
        their seams fall inside the drawn stream: same log rows,
        statistics, strict error, quarantine records and budget
        verdict."""
        machine = smoke_dataset.machine
        canonical = _canonical_line(machine.cname_table())
        fused = st.builds(lambda a, b: a + b, canonical, canonical)
        line = st.one_of(
            canonical,
            canonical,
            canonical,
            canonical.map(lambda text: text + "\n"),
            st.sampled_from(chaos_lines),
            fused,
            _LINE_TEXT,
            st.sampled_from(["", "   ", "\t", " \n"]),
        )
        lines = data.draw(st.lists(line, max_size=40))
        slice_rows = data.draw(st.integers(1, 7))
        first_line_no = data.draw(st.integers(1, 10_000))
        capacity = data.draw(st.none() | st.integers(0, 5))
        budget = data.draw(st.none() | st.floats(0.0, 1.0))

        def outcome(fast, strict):
            sink = None if capacity is None else QuarantineSink(capacity)
            parser = ConsoleLogParser(
                machine, strict=strict, error_budget=budget,
                quarantine=sink, fast=fast,
            )
            try:
                log, stats = parser.parse_lines(lines, first_line_no=first_line_no)
                result = ("ok", stats, _columns(log))
            except IngestionError as exc:
                result = ("strict", exc.line_no, exc.category, exc.line)
            except IngestionDegraded as exc:
                result = ("degraded", exc.stats, exc.fraction, _columns(exc.log))
            records = None if sink is None else (
                sink.total, sink.counts, sink.n_overflowed,
                [(r.line_no, r.category, r.line) for r in sink.records],
            )
            return result, records

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(console, "_SLICE_ROWS", slice_rows)
            for strict in (False, True):
                assert outcome(True, strict) == outcome(False, strict)

    def test_near_canonical_edge_lines(self, smoke_dataset, gpu_lines):
        # Lines one mutation away from canonical: each must land in the
        # same counter on both paths (most fall through to slow).
        base = gpu_lines[0]
        variants = [
            base + " ",  # trailing space (rstripped)
            base + " trailing garbage",
            base.replace(" [job=", " [job=00", 1),  # zero-padded job
            base[:26] + "  " + base[27:],  # double separator
            base.replace("T", " ", 1),  # broken stamp separator
            "c0-0c0s0n0 missing stamp",
            base[:10],  # truncated mid-stamp
        ]
        _assert_same_parse(smoke_dataset.machine, variants)

    def test_separator_and_numeral_edges(self, smoke_dataset):
        # The columnar decode reads a 10-char cname through an 11-char
        # field that ends in its separator: a missing or doubled
        # separator on either cname width, and page/job numerals at and
        # past the int64 guard, must all land exactly as on the per-line
        # path.
        stamp = "2013-06-03T12:00:00.123456"
        head = "GPU XID 48: DBE (Double Bit Error) detected in device_memory"
        lines = [
            f"{stamp} {cname}{sep}{head} page 0x{page:x} [job={job}]"
            for cname in ("c1-2c0s3n1", "c1-12c0s3n1")
            for sep in (" ", "", "  ")
            for page in (0x1000000, 2**60 - 1, 2**62, 2**64 - 1)
            for job in (0, 10**18 - 1, 2**62, 10**19 - 1)
        ]
        _assert_same_parse(smoke_dataset.machine, lines)

    def test_extreme_years(self, smoke_dataset):
        # Beyond 2**53 µs from the epoch numpy's int64 → float64 division
        # and Python's exact int / int disagree on about a quarter of
        # stamps, so those rows must take the per-line path.
        micros = RngTree(3).fresh_generator("us").integers(0, 1_000_000, 900).tolist()
        lines = [
            f"{year}-03-26T20:18:27.{micros.pop():06d} "
            "c0-5c1s4n0 GPU XID 56: Display Engine error"
            for year in ("0001", "2400", "9999")
            for _ in range(300)
        ]
        _assert_same_parse(smoke_dataset.machine, lines)


def _parse_chained_halves(parser, lines):
    """``parser.parse_lines`` over two whole-line blocks (the seam after
    line ``ceil(n / 2)``) chained into one lazy stream, decoded in
    10-row slices."""
    mid = -(-len(lines) // 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(console, "_SLICE_ROWS", 10)
        return parser.parse_lines(
            itertools.chain.from_iterable([lines[:mid], lines[mid:]])
        )


class TestParallelParse:
    """Parsing a stream split into blocks, chained into one lazy
    ``parse_lines`` call, must be observably identical to one serial
    parse of a list: same rows, stats, errors and quarantine contents.
    The chained parse decodes in 10-row slices, so the parser's own
    seams fall inside each stream too, while the serial reference is one
    slice.  (Pinned examples; the property in ``test_stream`` draws
    arbitrary splits.)"""

    def test_parallel_matches_serial(self, smoke_dataset, gpu_lines):
        lines = gpu_lines[:50] + ["@@garbage@@"] + gpu_lines[50:60]
        serial_log, serial_stats = ConsoleLogParser(
            smoke_dataset.machine
        ).parse_lines(lines)
        par_log, par_stats = _parse_chained_halves(
            ConsoleLogParser(smoke_dataset.machine), lines
        )
        _assert_logs_equal(par_log, serial_log)
        assert par_stats == serial_stats

    def test_torn_line_at_chunk_boundary(self, smoke_dataset, gpu_lines):
        # 40 lines in two blocks -> the seam falls after index 19.
        # Tear the last line of the first block (a splice of two
        # records, the classic torn-write shape): the split must not
        # change how the parser heals it, and the merged ParseStats
        # must still partition the input.
        base = gpu_lines[:40]
        lines = list(base)
        lines[19] = base[19][:25] + base[20]
        serial_log, serial_stats = ConsoleLogParser(
            smoke_dataset.machine
        ).parse_lines(lines)
        par_log, par_stats = _parse_chained_halves(
            ConsoleLogParser(smoke_dataset.machine), lines
        )
        assert par_stats.resynced_lines == serial_stats.resynced_lines >= 1
        assert par_stats.accounted == par_stats.total_lines == 40
        _assert_logs_equal(par_log, serial_log)
        assert par_stats == serial_stats

    def test_quarantine_merge_parity(self, smoke_dataset, gpu_lines):
        lines = []
        for i, line in enumerate(gpu_lines[:40]):
            lines.append(line)
            if i % 7 == 0:
                lines.append(f"@@bad {i}@@")
        serial_sink = QuarantineSink(capacity=3)
        ConsoleLogParser(
            smoke_dataset.machine, quarantine=serial_sink
        ).parse_lines(lines)
        par_sink = QuarantineSink(capacity=3)
        _parse_chained_halves(
            ConsoleLogParser(smoke_dataset.machine, quarantine=par_sink), lines
        )
        assert par_sink.total == serial_sink.total
        assert par_sink.counts == serial_sink.counts
        assert par_sink.n_overflowed == serial_sink.n_overflowed
        assert [r.line for r in par_sink.records] == [
            r.line for r in serial_sink.records
        ]

    def test_strict_raises_earliest_global_error(self, smoke_dataset, gpu_lines):
        # Garbage in both blocks; the strict error must carry the
        # global line number of the *first* one, as a serial run would
        # have raised.
        lines = list(gpu_lines[:40])
        lines[25] = "@@late garbage@@"
        lines[4] = "@@early garbage@@"
        with pytest.raises(IngestionError) as serial_exc:
            ConsoleLogParser(smoke_dataset.machine, strict=True).parse_lines(lines)
        with pytest.raises(IngestionError) as par_exc:
            _parse_chained_halves(
                ConsoleLogParser(smoke_dataset.machine, strict=True), lines
            )
        assert par_exc.value.line_no == serial_exc.value.line_no == 5
        assert par_exc.value.category == serial_exc.value.category

    def test_budget_evaluated_on_merged_stats(self, smoke_dataset, gpu_lines):
        lines = gpu_lines[:20] + ["@@corrupt@@"] * 20
        with pytest.raises(IngestionDegraded) as serial_exc:
            ConsoleLogParser(
                smoke_dataset.machine, error_budget=0.2
            ).parse_lines(lines)
        with pytest.raises(IngestionDegraded) as par_exc:
            _parse_chained_halves(
                ConsoleLogParser(smoke_dataset.machine, error_budget=0.2), lines
            )
        assert par_exc.value.stats == serial_exc.value.stats
        assert par_exc.value.fraction == serial_exc.value.fraction
        _assert_logs_equal(par_exc.value.log, serial_exc.value.log)
