"""Console-log text → :class:`EventLog`.

This is the analysis side of the telemetry loop: it consumes exactly
what :class:`~repro.telemetry.console.ConsoleLogWriter` (or a real SMW)
produces, classifies lines through the SEC rules, decodes timestamps,
cnames, structures, pages and job tags, and emits a columnar event log
with **no parent information** — reconstructing parent/child structure
by time-filtering is the analysis toolkit's job, just as it was for the
paper's authors.

Malformed or unclassifiable lines are counted, not fatal: a two-year
console stream always contains noise, and the parse statistics are how
operators notice new XIDs (Observation 5).  The parser is additionally
hardened against *hostile* input (see :mod:`repro.chaos`):

* **resync-on-garbage** — torn writes that splice two lines together
  (garbage prefix + a valid record) are recovered by re-synchronizing
  on the next embedded ``timestamp cname`` anchor;
* **strict mode** — raise :class:`~repro.telemetry.ingestion.IngestionError`
  on the first rejected line instead of counting;
* **error budget** — when the corrupt-line fraction exceeds the budget,
  raise :class:`~repro.telemetry.ingestion.IngestionDegraded` carrying
  the partial log and statistics;
* **quarantine** — rejected lines can be diverted to a
  :class:`~repro.telemetry.ingestion.QuarantineSink` for forensics.

Every input line lands in exactly one primary counter
(``parsed_events``, ``non_gpu_lines``, ``malformed_lines`` or
``unknown_xid_lines``); :attr:`ParseStats.accounted` makes the
invariant checkable and the property tests enforce it under fuzz.

Input is decoded in slices of at most ``console._SLICE_ROWS`` lines,
as columns: stamps as one digit matrix, cnames through the topology's
canonical table, each distinct body once.  A row the decode does not
*claim* (any field short of canonical writer output) goes, in line
order, to the per-line regex path, which is the semantics reference —
so the log, statistics, strict errors, quarantine order and budget
verdict are those of a per-line parse.  The
``telemetry.parse_fallback`` :mod:`repro.perf` counter reports how many
rows took the per-line path.
"""

from __future__ import annotations

import datetime as _dt
import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import count, islice, repeat
from operator import itemgetter

import numpy as np

from repro import perf
from repro.errors.event import EventLog, EventLogBuilder, STRUCTURE_CODES
from repro.errors.xid import ErrorType
from repro.gpu.k20x import MemoryStructure
from repro.telemetry import console
from repro.telemetry.ingestion import (
    IngestionDegraded,
    IngestionError,
    QuarantineSink,
)
from repro.telemetry.sec import SEC_RULES, SecRule, UnmatchedLine, classify_line
from repro.telemetry.timecodec import _day_us
from repro.topology.machine import TitanMachine
from repro.units import datetime_to_timestamp

__all__ = ["ConsoleLogParser", "ParseStats"]

_STAMP_PATTERN = r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{6}"
_CNAME_PATTERN = r"c\d+-\d+c\d+s\d+n\d+"

_LINE_RE = re.compile(
    rf"^(?P<stamp>{_STAMP_PATTERN})\s+"
    rf"(?P<cname>{_CNAME_PATTERN})\s+"
    r"(?P<body>.*)$"
)
#: Anchor for resync-on-garbage: a stamp+cname pair embedded mid-line,
#: the signature of a torn write that spliced two records together.
_RESYNC_RE = re.compile(rf"{_STAMP_PATTERN}\s+{_CNAME_PATTERN}\s+")
_STRUCT_RE = re.compile(r" in (?P<structure>[a-z0-9_]+)(?: page 0x(?P<page>[0-9a-f]+))?")
_JOB_RE = re.compile(r"\[job=(?P<job>\d+)\]")

_STRUCT_BY_NAME = {s.value: s for s in MemoryStructure}
_STRUCT_CODE_BY_NAME = {s.value: STRUCTURE_CODES[s] for s in MemoryStructure}

#: Largest integer the columnar int64 store accepts; anything bigger in
#: a page/job field is corruption, not data.
_MAX_INT_FIELD = 2**62

#: Characters legal in a rendered page number (the writer emits
#: ``%06x`` — lowercase hex, exactly what ``_STRUCT_RE`` accepts).
_HEX_LOWER = "0123456789abcdef"

#: Fixed-width head of a canonical line: the 26-char stamp, a space
#: and an 11-char cname field.
_HEAD_WIDTH = 38
_HEAD = itemgetter(slice(0, _HEAD_WIDTH))
#: A line's cname field (a 10-char cname and its separator, or an
#: 11-char cname) and its body field (which then starts on the separator
#: after an 11-char cname).
_CNAME = itemgetter(slice(27, 38))
_BODY = itemgetter(slice(38, None))
#: Head columns that hold stamp digits, and those that hold the fixed
#: separators ``--T::.`` plus the space after the stamp.
_DIGIT_COLS = np.array(
    [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 22, 23, 24, 25]
)
_SEP_COLS = np.array([4, 7, 10, 13, 16, 19, 26])
_SEPS = np.frombuffer(b"--T::. ", dtype=np.uint8)
#: Largest |µs| total whose int64 → float64 division is exact.
_MAX_EXACT_US = 2**53
#: Day offset of an invalid date: far beyond _MAX_EXACT_US, so its row
#: is never claimed.
_NOT_A_DAY = 2**62

#: Body head string → etype code, for every constant head the writer
#: can emit.  The map is derived by running :func:`classify_line` on
#: each head, so the columnar decode classifies exactly as the
#: catalog-ordered per-line path does.
_ETYPE_BY_HEAD: dict[str, int] = {
    head: classify_line(head, SEC_RULES).code
    for head in console._BODY_HEAD_BY_CODE.values()
}


def _day_us_of(date: int) -> int:
    """µs offset of a ``YYYYMMDD`` date, or :data:`_NOT_A_DAY`."""
    try:
        return _day_us(f"{date // 10000:04d}-{date // 100 % 100:02d}-{date % 100:02d}")
    except ValueError:
        return _NOT_A_DAY


@dataclass
class ParseStats:
    """Counters the parser accumulates over a log stream.

    The four primary counters (``parsed_events``, ``non_gpu_lines``,
    ``malformed_lines``, ``unknown_xid_lines``) partition the input:
    their sum always equals ``total_lines``.  ``resynced_lines`` and
    ``quarantined_lines`` are diagnostic sub-counters (a resynced line
    is *also* counted in ``parsed_events``).
    """

    total_lines: int = 0
    parsed_events: int = 0
    non_gpu_lines: int = 0
    malformed_lines: int = 0
    unknown_xid_lines: int = 0
    resynced_lines: int = 0
    quarantined_lines: int = 0
    unknown_xids_seen: set[str] = field(default_factory=set)

    @property
    def accounted(self) -> int:
        """Sum of the primary counters; always equals ``total_lines``."""
        return (
            self.parsed_events
            + self.non_gpu_lines
            + self.malformed_lines
            + self.unknown_xid_lines
        )

    @property
    def corrupt_fraction(self) -> float:
        """Fraction of lines rejected as damage (malformed + unknown)."""
        if self.total_lines == 0:
            return 0.0
        return (self.malformed_lines + self.unknown_xid_lines) / self.total_lines


class ConsoleLogParser:
    """Parses console-log text back into an :class:`EventLog`.

    Parameters
    ----------
    machine:
        Topology used to decode cnames into GPU slots.
    rules:
        SEC classification rules (defaults to the paper's catalog).
    strict:
        Raise :class:`IngestionError` on the first rejected line
        instead of counting it.  Non-GPU noise is still tolerated —
        real consoles are full of Lustre chatter.
    resync:
        Recover spliced lines by re-synchronizing on an embedded
        ``timestamp cname`` anchor (default on; torn writes are the
        most common SMW artifact).
    error_budget:
        Maximum tolerated corrupt-line fraction; ``None`` disables the
        budget.  Exceeding it raises :class:`IngestionDegraded` *after*
        the full stream is parsed, carrying the partial log.
    quarantine:
        Optional sink receiving every rejected line.
    fast:
        Decode each slice of lines as columns first (see the module
        docstring).  Any line that is not byte-for-byte canonical
        writer output takes the per-line regex path, so output is
        identical either way; ``fast=False`` sends every line down the
        per-line path and exists for the equivalence tests.  The
        columnar decode only engages for the default rule catalog —
        custom ``rules`` always classify line by line.
    """

    def __init__(
        self,
        machine: TitanMachine,
        rules: tuple[SecRule, ...] = SEC_RULES,
        *,
        strict: bool = False,
        resync: bool = True,
        error_budget: float | None = None,
        quarantine: QuarantineSink | None = None,
        fast: bool = True,
    ) -> None:
        self.machine = machine
        self.rules = rules
        self.strict = bool(strict)
        self.resync = bool(resync)
        if error_budget is not None and not 0.0 <= error_budget <= 1.0:
            raise ValueError("error_budget must be in [0, 1] or None")
        self.error_budget = error_budget
        self.quarantine = quarantine
        self.fast = bool(fast)
        self._etype_by_head = (
            _ETYPE_BY_HEAD if self.fast and rules is SEC_RULES else {}
        )

    # -- bookkeeping -------------------------------------------------------

    def _reject(
        self, stats: ParseStats, category: str, line_no: int, line: str
    ) -> None:
        if category == "malformed":
            stats.malformed_lines += 1
        else:
            stats.unknown_xid_lines += 1
        if self.quarantine is not None:
            self.quarantine.add(line_no, category, line)
            stats.quarantined_lines += 1
        if self.strict:
            raise IngestionError(category, line_no, line)

    # -- parsing -----------------------------------------------------------

    def parse_lines(
        self, lines: Iterable[str], *, first_line_no: int = 1
    ) -> tuple[EventLog, ParseStats]:
        """Parse an iterable of log lines.

        Returns the (unsorted — log-order) event log and statistics.
        Raises :class:`IngestionError` (strict mode) or
        :class:`IngestionDegraded` (error budget exceeded, checked once
        after the last line).  ``first_line_no`` offsets the reported
        line numbers (strict errors, quarantine records).

        ``lines`` is consumed lazily, one slice at a time, so a stream
        of render windows or stored shards chained together is parsed
        without ever being held whole.  Only the decode of each slice
        is timed as the ``telemetry.parse`` :mod:`repro.perf` stage: a
        producer that renders or reads lines lazily keeps its own time
        out of it.
        """
        stats = ParseStats()
        logs: list[EventLog] = []
        rows = iter(lines)
        while chunk := list(islice(rows, console._SLICE_ROWS)):
            with perf.stage("telemetry.parse"):
                logs.append(self._parse_slice(chunk, first_line_no, stats))
            first_line_no += len(chunk)
        log = EventLog.concatenate(logs)
        if (
            self.error_budget is not None
            and stats.corrupt_fraction > self.error_budget
        ):
            raise IngestionDegraded(
                stats=stats,
                budget=self.error_budget,
                fraction=stats.corrupt_fraction,
                log=log,
            )
        return log, stats

    def _parse_slice(
        self, lines: list[str], first_line_no: int, stats: ParseStats
    ) -> EventLog:
        """Parse one slice: columnar decode first, then the per-line path.

        Rows :meth:`_decode` claims become events directly; every other
        row goes, in line order, to :meth:`_parse_one` (the semantics
        reference), and the two row sets merge back into line order.
        """
        if self._etype_by_head:
            ok, log = self._decode(lines)
            claimed = np.flatnonzero(ok)
            stats.total_lines += len(claimed)
            stats.parsed_events += len(claimed)
            rest = np.flatnonzero(~ok).tolist()
            perf.count("telemetry.parse_fallback", len(rest))
        else:
            claimed, log = np.empty(0, np.int64), EventLog.empty()
            rest = range(len(lines))
        builder = EventLogBuilder()
        owner: list[int] = []  # source row of each per-line event
        for i in rest:
            line = lines[i].rstrip("\n")
            if line.strip():
                stats.total_lines += 1
                self._parse_one(builder, stats, first_line_no + i, line)
                owner.extend(repeat(i, len(builder) - len(owner)))
        if not owner:
            return log
        order = np.argsort(np.concatenate([claimed, owner]), kind="stable")
        return EventLog.concatenate([log, builder.freeze()]).select(order)

    def _decode(self, lines: list[str]) -> tuple[np.ndarray, EventLog]:
        """Columnar decode: a mask of the rows that are canonical writer
        output, and their events.

        The fixed-width heads (stamp, separator, cname field) form one
        uint8 matrix whose digits and separators are checked and
        decoded in numpy; each distinct date goes through the codec's
        per-day memo once.  cnames are looked up in the topology's
        canonical table and each distinct body is decoded once by
        :meth:`_decode_body`.  A row is claimed only when every field
        is canonical and its µs total is at most 2**53 in magnitude,
        where numpy's int64 → float64 division equals Python's exact
        ``int / int``.  Per-row work is C-level ``map``s over the line
        strings — no per-row tuples or lists for the cyclic GC to trace.
        """
        n = len(lines)
        heads = "".join(map(_HEAD, lines))
        if len(heads) != n * _HEAD_WIDTH:
            # Short lines: pad with NUL, which no field accepts.
            heads = "".join(
                map(str.ljust, map(_HEAD, lines), repeat(_HEAD_WIDTH), repeat("\0"))
            )
        # One byte per char: non-Latin-1 chars become "?", never a digit.
        m = np.frombuffer(heads.encode("latin-1", "replace"), np.uint8)
        m = m.reshape(n, _HEAD_WIDTH)
        digits = m[:, _DIGIT_COLS] - ord("0")  # non-digits wrap to >= 10
        ok = (digits < 10).all(axis=1) & (m[:, _SEP_COLS] == _SEPS).all(axis=1)

        # A 10-char cname's 11-char field ends in its separator, which
        # rstrip drops; the body field then starts one column early, on
        # the separator of an 11-char cname, so a row is canonical only
        # when the two agree.
        names = map(str.rstrip, map(_CNAME, lines), repeat(" "))
        gpu_of = self.machine.gpu_index_map()
        gpu = np.fromiter(map(gpu_of.get, names, repeat(-1)), np.int64, n)
        index: dict[str, int] = {}
        code = np.fromiter(
            map(index.setdefault, map(_BODY, lines), count()), np.int64, n
        )
        fields = np.full((n, 5), -1, dtype=np.int64)  # etype, structure, job, aux, wide
        for body, k in index.items():
            wide = body[:1] == " "
            decoded = self._decode_body(body[1:] if wide else body)
            if decoded is not None:
                fields[k] = (*decoded, wide)
        row_fields = fields[code]
        ok &= (row_fields[:, 0] >= 0) & (gpu >= 0)
        ok &= row_fields[:, 4] == (m[:, 37] != ord(" "))

        pair = digits[:, 0::2].astype(np.int64) * 10 + digits[:, 1::2]
        date = ((pair[:, 0] * 100 + pair[:, 1]) * 100 + pair[:, 2]) * 100 + pair[:, 3]
        hour, minute, second = pair[:, 4], pair[:, 5], pair[:, 6]
        ok &= (hour < 24) & (minute < 60) & (second < 60)
        days, inverse = np.unique(date[ok], return_inverse=True)
        day_us = np.full(n, _NOT_A_DAY, dtype=np.int64)
        day_us[ok] = np.array([_day_us_of(d) for d in days.tolist()])[inverse]
        us = (pair[:, 7] * 100 + pair[:, 8]) * 100 + pair[:, 9]
        total_us = day_us + ((hour * 60 + minute) * 60 + second) * 1_000_000 + us
        ok &= np.abs(total_us) <= _MAX_EXACT_US

        rows = np.flatnonzero(ok)
        etype, structure, job, aux, _ = row_fields[rows].T
        log = EventLog.from_arrays(
            time=total_us[rows] / 1_000_000,
            gpu=gpu[rows],
            etype=etype,
            structure=structure,
            job=job,
            aux=aux,
        )
        return ok, log

    def _decode_body(self, body: str) -> tuple[int, int, int, int] | None:
        """``(etype, structure, job, aux)`` codes of a line body, or None
        unless it is byte-for-byte canonical writer output: a known
        constant head, then optionally ``in <structure>`` with an
        optional ``page 0x<lowercase hex>``, then an optional trailing
        ``[job=<decimal>]``."""
        job = -1
        if body.endswith("]"):
            j = body.rfind(" [job=", 0, -1)
            digits = body[j + 6 : -1] if j >= 0 else ""
            # isdecimal == \d (Nd), so int() always accepts; 18 digits
            # can't overflow int64.
            if not (digits and len(digits) <= 18 and digits.isdecimal()):
                return None
            job = int(digits)
            body = body[:j]
        structure = aux = -1
        head, found, rest = body.partition(" in ")
        if found:
            rest, found, page = rest.partition(" page 0x")
            if found:
                # strip() leaves "" iff every char is lowercase hex; 15
                # digits keep the value below the int64 guard.
                if not page or len(page) > 15 or page.strip(_HEX_LOWER):
                    return None
                aux = int(page, 16)
            code = _STRUCT_CODE_BY_NAME.get(rest)
            if code is None:
                return None
            structure = code
        etype = self._etype_by_head.get(head)
        if etype is None:
            return None
        return etype, structure, job, aux

    def _parse_one(
        self,
        builder: EventLogBuilder,
        stats: ParseStats,
        line_no: int,
        line: str,
    ) -> None:
        """Classify one line into exactly one primary counter."""
        match = _LINE_RE.match(line)
        if match is None:
            if self._try_resync(builder, stats, line, skip=1):
                return
            self._reject(stats, "malformed", line_no, line)
            return
        if self.resync and self._try_split_seam(builder, stats, line_no, line):
            return
        try:
            etype = classify_line(match["body"], self.rules)
        except UnmatchedLine:
            # A spliced body can hide a valid record further in; prefer
            # recovery over rejection.
            if self._try_resync(builder, stats, line, skip=1):
                return
            xid_match = re.search(r"GPU XID (\d+)", match["body"])
            if xid_match:
                stats.unknown_xids_seen.add(xid_match.group(1))
            self._reject(stats, "unknown_xid", line_no, line)
            return
        if etype is None:
            stats.non_gpu_lines += 1
            return
        if self._emit(builder, stats, match, etype):
            stats.parsed_events += 1
        else:
            self._reject(stats, "malformed", line_no, line)

    def _emit(
        self,
        builder: EventLogBuilder,
        stats: ParseStats,
        match: re.Match[str],
        etype: ErrorType,
    ) -> bool:
        """Decode one matched line into the builder; False on damage."""
        try:
            when = _dt.datetime.strptime(match["stamp"], "%Y-%m-%dT%H:%M:%S.%f")
            gpu = self.machine.gpu_from_cname(match["cname"])
        except ValueError:
            return False
        structure = None
        page = -1
        struct_match = _STRUCT_RE.search(match["body"])
        if struct_match:
            structure = _STRUCT_BY_NAME.get(struct_match["structure"])
            if struct_match["page"] is not None:
                page = int(struct_match["page"], 16)
        job_match = _JOB_RE.search(match["body"])
        job = int(job_match["job"]) if job_match else -1
        if page >= _MAX_INT_FIELD or job >= _MAX_INT_FIELD:
            # Numerals that overflow the columnar int64 store are
            # corruption, not telemetry.
            return False
        builder.add(
            datetime_to_timestamp(when),
            gpu,
            etype,
            structure=structure,
            job=job,
            aux=page,
        )
        return True

    def _try_split_seam(
        self,
        builder: EventLogBuilder,
        stats: ParseStats,
        line_no: int,
        line: str,
    ) -> bool:
        """Recover two records fused by a missing newline (shard seam).

        A rendered log that lost its final newline and was concatenated
        with the next shard produces one physical line holding *two*
        complete records back to back.  When the text before the first
        embedded ``timestamp cname`` anchor is itself a fully valid GPU
        record, emit it and parse the tail as its own logical line
        (counted in ``total_lines`` and marked resynced).  Anything
        short of that — garbage prefixes, torn heads, pristine lines
        (whose bodies never contain a stamp) — falls back to the
        ordinary single-record path, so existing splice semantics are
        untouched.
        """
        anchor = _RESYNC_RE.search(line, 1)
        if anchor is None:
            return False
        head = line[: anchor.start()]
        head_match = _LINE_RE.match(head)
        if head_match is None:
            return False
        try:
            etype = classify_line(head_match["body"], self.rules)
        except UnmatchedLine:
            return False
        if etype is None or not self._emit(builder, stats, head_match, etype):
            return False
        stats.parsed_events += 1
        # The tail is an extra logical line recovered from the seam.
        stats.total_lines += 1
        stats.resynced_lines += 1
        self._parse_one(builder, stats, line_no, line[anchor.start():])
        return True

    def _try_resync(
        self,
        builder: EventLogBuilder,
        stats: ParseStats,
        line: str,
        *,
        skip: int,
    ) -> bool:
        """Attempt to recover a record embedded after garbage.

        Searches for the next ``timestamp cname`` anchor at or after
        position ``skip``; if the tail from there parses cleanly as a
        GPU event it is counted as parsed + resynced.  Returns True on
        success; on failure the caller rejects the whole line normally.
        """
        if not self.resync:
            return False
        pos = skip
        while True:
            anchor = _RESYNC_RE.search(line, pos)
            if anchor is None:
                return False
            tail = line[anchor.start():]
            match = _LINE_RE.match(tail)
            if match is not None:
                try:
                    etype = classify_line(match["body"], self.rules)
                except UnmatchedLine:
                    etype = None
                if etype is not None and self._emit(builder, stats, match, etype):
                    stats.parsed_events += 1
                    stats.resynced_lines += 1
                    return True
            pos = anchor.start() + 1

    def parse_text(self, text: str) -> tuple[EventLog, ParseStats]:
        return self.parse_lines(text.splitlines())


def structure_code(structure: MemoryStructure | None) -> int:
    """Columnar code for a structure (−1 for None)."""
    return -1 if structure is None else STRUCTURE_CODES[structure]
