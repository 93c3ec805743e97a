"""Interval annotations: TextGrid / CSV parsing and duration extraction.

Supports Praat TextGrid files in both long and short text form and a flat CSV
interchange format with header ``tier,label,start_s,end_s``; load_annotation
decides which of the two a file holds, by the TextGrid reader's own header
rule (_ootextfile).  Point tiers carry no durations and are skipped with a
warning.

Every text table the toolkit reads, annotations and F0 CSVs alike, is read
here as a stream through one io.TextIOWrapper (_read): UTF-16 after its
byte-order mark, else UTF-8 with or without one, a bad byte anywhere being a
ParseError that names the file and its byte offset.  TextGrid lines end at
CR, LF or CRLF; CSV lines at LF or CRLF, with a CR elsewhere outside quotes a
malformed line; no other character ends a line.  CSV fields may be quoted.
Other parse errors carry a line (TextGrid) or row (CSV) position.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from array import array
from collections import deque
from itertools import chain, islice
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

from ._record import Record
from .errors import ParameterError, ParseError

__all__ = [
    "Interval",
    "Tier",
    "AnnotationDoc",
    "DurationSequence",
    "AnnotationWarning",
    "DEFAULT_EXCLUDE_LABELS",
    "parse_textgrid",
    "parse_csv_annotation",
    "load_annotation",
    "annotation_to_csv",
    "durations",
]

#: Labels conventionally used for pauses / non-speech; excluded from
#: duration sequences unless the caller overrides the set.
DEFAULT_EXCLUDE_LABELS = frozenset({"", "sil", "#", "<p>"})

#: Overlap slack between consecutive intervals, in seconds.  Absorbs the
#: floating-point jitter found in real annotation files.
OVERLAP_TOLERANCE_S = 1e-3

T = TypeVar("T")


class AnnotationWarning(UserWarning):
    """Non-fatal annotation issues (e.g. point tiers being skipped)."""


class Interval(Record):
    """A labeled span of time."""

    label: str
    start_s: float
    end_s: float

    def __init__(self, label: str, start_s: float, end_s: float) -> None:
        if not 0 <= start_s < end_s < math.inf:
            raise ParameterError(_refusal(start_s, end_s))
        vars(self).update(label=label, start_s=start_s, end_s=end_s)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def _refusal(start_s: float, end_s: float) -> str:
    """Why [start_s, end_s], which fails 0 <= start_s < end_s < inf, is no Interval: its message."""
    for name, t in (("start_s", start_s), ("end_s", end_s)):
        if not math.isfinite(t) or t < 0:
            return f"{name} must be finite and >= 0, got {t!r}"
    return f"interval must have end_s > start_s, got [{start_s}, {end_s}]"


def _bad_pair(starts: array, ends: array) -> int:
    """The index of the first interval that starts before the one before it, or before that one ends; else 0.

    "Before it ends" allows OVERLAP_TOLERANCE_S of slack.
    """
    return next((k for k, (start, end, next_start) in enumerate(zip(starts, ends, islice(starts, 1, None)), 1)
                 if next_start < start or end > next_start + OVERLAP_TOLERANCE_S), 0)


def _by_start(*columns):
    """The columns in the order of their first, the starts; equal starts keep their order.

    Columns that are sorted already come back as they are.
    """
    starts = columns[0]
    if all(a <= b for a, b in zip(starts, islice(starts, 1, None))):
        return columns
    order = sorted(range(len(starts)), key=starts.__getitem__)
    return tuple(array(c.typecode, map(c.__getitem__, order)) if isinstance(c, array)
                 else [*map(c.__getitem__, order)] for c in columns)


def _tier_fault(name: str, starts: array, ends: array) -> str | None:
    """Why the columns are no tier: the first pair out of order or overlapping, else None."""
    k = _bad_pair(starts, ends)
    if not k:
        return None
    if starts[k] < starts[k - 1]:
        return f"tier {name!r}: intervals not sorted by start time"
    return f"tier {name!r}: intervals [{starts[k - 1]}, {ends[k - 1]}] and [{starts[k]}, {ends[k]}] overlap"


def _readonly(column: array) -> memoryview:
    """A read-only view of column."""
    return memoryview(column).toreadonly()


class Tier(Record):
    """A named, ordered, non-overlapping sequence of intervals.

    The intervals are held as three columns: the `labels` tuple, and the
    `starts` and `ends` times as read-only views of array("d"), so that a tier
    costs a few bytes per interval beyond its label strings.  A reader that
    has checked its columns builds the tier with Tier._of(name, labels,
    starts, ends).  Interval objects are built only when the tier is
    iterated, compared, hashed, printed, pickled or its `intervals` are asked for.
    """

    name: str
    intervals: tuple[Interval, ...]

    def __init__(self, name: str, intervals: Iterable[Interval]) -> None:
        ivs = tuple(intervals)
        starts, ends = array("d", [iv.start_s for iv in ivs]), array("d", [iv.end_s for iv in ivs])
        if fault := _tier_fault(name, starts, ends):
            raise ParameterError(fault)
        self._fill(name, [iv.label for iv in ivs], starts, ends)

    def _fill(self, name: str, labels: list[str], starts: array, ends: array) -> None:
        """Hold the columns; the intervals are sorted by start and do not overlap."""
        vars(self).update(name=name, labels=tuple(labels), starts=_readonly(starts), ends=_readonly(ends))

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[Interval]:
        return map(Interval, self.labels, self.starts, self.ends)

    def __reduce__(self) -> tuple:
        return type(self), (self.name, self.intervals)


class AnnotationDoc(Record):
    """A set of tiers parsed from one annotation document."""

    tiers: tuple[Tier, ...]
    source: str

    def __init__(self, tiers: Iterable[Tier], source: str = "<unknown>") -> None:
        vars(self).update(tiers=tuple(tiers), source=source)
        seen: set[str] = set()
        for tier in self.tiers:
            if tier.name in seen:
                raise ParameterError(f"duplicate tier name {tier.name!r}")
            seen.add(tier.name)

    def tier(self, name: str) -> Tier:
        """Look a tier up by name."""
        for t in self.tiers:
            if t.name == name:
                return t
        raise KeyError(name)

    @property
    def tier_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tiers)


class DurationSequence(Record):
    """Ordered (label, duration) pairs extracted from a tier.

    The pairs are held as two columns, the labels and the durations in
    array("d"); `items`, `labels` and `values` build their tuples when asked.
    """

    _labels: list[str]
    _values: array

    def __init__(self, items: Iterable[tuple[str, float]]) -> None:
        items = tuple((str(lab), float(dur)) for lab, dur in items)
        for lab, dur in items:
            if not (math.isfinite(dur) and dur > 0):
                raise ParameterError(f"duration for {lab!r} must be > 0, got {dur}")
        self._fill([lab for lab, _ in items], array("d", [dur for _, dur in items]))

    def _fill(self, labels: list[str], values: array) -> None:
        """Hold the columns; the durations are finite and positive."""
        vars(self).update(_labels=labels, _values=values)

    @property
    def items(self) -> tuple[tuple[str, float], ...]:
        return tuple(self)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._labels)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._values)

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return zip(self._labels, self._values)

    def __hash__(self) -> int:
        return hash(self.items)


# ---------------------------------------------------------------------------
# text streams
# ---------------------------------------------------------------------------


def _read(data: str | bytes | BinaryIO, source: str, newline: str | None, read: Callable[[TextIO], T]) -> T:
    """read(text), text being data as a stream whose lines end as newline says (see io.TextIOWrapper).

    Bytes, or a binary file from its start, are UTF-16 after a byte-order mark
    and UTF-8 otherwise; one mark is dropped.  The bytes must decode to their
    end, past what read takes: a byte that does not is the ParseError, naming
    source and its offset, even after another.  A str is read as its UTF-8
    bytes, lone surrogates and all, which hold a byte or so per character where
    an io.StringIO holds four: so one leading U+FEFF of a str is dropped too.
    """
    errors = "strict"
    if isinstance(data, str):
        data, errors = data.encode("utf-8", "surrogatepass"), "surrogatepass"
    raw = io.BytesIO(data) if isinstance(data, bytes) else data
    head = raw.read(3)
    codec = "utf-16" if head.startswith((b"\xff\xfe", b"\xfe\xff")) else "utf-8"
    raw.seek(3 if head == b"\xef\xbb\xbf" else 0)  # the utf-16 codec drops its mark itself
    with io.TextIOWrapper(raw, codec, errors, newline=newline) as text:
        try:
            try:
                return read(text)
            finally:
                deque(text, 0)
        except UnicodeDecodeError:
            raw.seek(0)  # the error counts from its chunk: decode the file whole for the byte's offset
            try:
                raw.read().decode(codec)
            except UnicodeDecodeError as exc:
                raise ParseError(f"{source}: not valid {codec.upper()} text", offset=exc.start) from None
            raise


def _ootextfile(lines: Iterable[str]) -> bool:
    """Whether the first non-blank line of lines, read up to it, names the ooTextFile type: what makes a TextGrid."""
    return "ooTextFile" in next((line for line in lines if line.strip()), "")


# ---------------------------------------------------------------------------
# TextGrid parsing
# ---------------------------------------------------------------------------

# Structural lines of the long form, e.g. "item []:", "item [2]:",
# "intervals [1]:", "points [3]:" -- they carry no value.
_STRUCT_RE = re.compile(r"^[A-Za-z_][A-Za-z_ ]*\[\d*\]:$")

# A quoted string: "" is the escape for a quote, and a lone " closes it.
_QUOTED_RE = re.compile(r'"((?:[^"]|"")*)"(?!")')


def _unquote(raw: str, line_no: int) -> str:
    """Parse a double-quoted TextGrid string, with "" as the escape for a quote."""
    if not raw.startswith('"'):
        raise ParseError(f"expected a quoted string, got {raw!r}", line=line_no)
    match = _QUOTED_RE.match(raw)
    if match is None:
        raise ParseError(f"unterminated quoted string: {raw!r}", line=line_no)
    if raw[match.end() :].strip():  # only whitespace may follow the closing quote
        raise ParseError(f"unexpected text after closing quote: {raw!r}", line=line_no)
    return match[1].replace('""', '"')


def _values(lines: Iterator[tuple[int, str]]) -> Iterator[tuple[str, int]]:
    """The values of the (1-based document line number, line) pairs of lines, each with its number.

    Long-form lines look like ``xmin = 0.5`` or ``text = "ba"``; short-form
    lines carry the bare value.  Both reduce to the same value sequence, so
    one reader serves both forms.
    """
    for line_no, raw in lines:
        line = raw.strip()
        if line.startswith('"'):
            yield line, line_no
        elif "=" in line:
            yield line.split("=", 1)[1].strip(), line_no
        elif line and not _STRUCT_RE.match(line):
            yield line, line_no


def parse_textgrid(text: str | bytes, source: str = "<textgrid>") -> AnnotationDoc:
    """Parse a TextGrid document (long or short text form) into an AnnotationDoc.

    All interval tiers are kept; point tiers have no durations and are
    skipped with an AnnotationWarning.  Raises ParseError (with a line
    number) on malformed input.
    """
    return _read(text, source, None, lambda lines: _textgrid(lines, source))


def _textgrid(text: Iterable[str], source: str) -> AnnotationDoc:
    """parse_textgrid of the lines of text, which end at CR, LF or CRLF, each read as LF."""
    lines = enumerate(text, start=1)
    second = _ootextfile(line for _, line in lines) and next(((ln, i) for i, ln in lines if ln.strip()), None)
    if not second:
        raise ParseError('not a TextGrid: first line must contain File type = "ooTextFile"', line=1)
    if "TextGrid" not in second[0]:
        raise ParseError('not a TextGrid: second line must contain Object class = "TextGrid"', line=second[1])

    values = _values(lines)  # the body follows the second header line
    line = 1  # of the last value read, for error messages

    def raw(what: str) -> str:
        nonlocal line
        try:
            value, line = next(values)
        except StopIteration:
            raise ParseError(f"unexpected end of document while reading {what}", line=line) from None
        return value

    def number(what: str) -> float:
        value = raw(what)
        try:
            return float(value)
        except ValueError:
            raise ParseError(f"expected a number for {what}, got {value!r}", line=line) from None

    def count(what: str) -> int:
        value = number(what)
        if not (value >= 0 and value.is_integer()):  # NaN and inf fail too
            raise ParseError(f"expected a count for {what}, got {value!r}", line=line)
        return int(value)

    def string(what: str) -> str:
        return _unquote(raw(what), line)

    number("global xmin")
    number("global xmax")
    if "<exists>" not in raw("tier existence flag"):
        return AnnotationDoc(tiers=(), source=source)
    n_tiers = count("tier count")

    tiers: list[Tier] = []
    seen_names: set[str] = set()
    for _ in range(n_tiers):
        tier_class, class_line = string("tier class"), line
        name, name_line = string("tier name"), line
        number("tier xmin")
        number("tier xmax")

        if tier_class == "IntervalTier":
            n_iv = count(f"interval count of tier {name!r}")
            labels, starts, ends = [], array("d"), array("d")
            for k in range(n_iv):
                x0 = number(f"interval {k + 1} xmin")
                x1, x1_line = number(f"interval {k + 1} xmax"), line
                labels.append(string(f"interval {k + 1} text"))
                if not 0.0 <= x0 < x1 < math.inf:
                    raise ParseError(_refusal(x0, x1), line=x1_line)
                starts.append(x0)
                ends.append(x1)
            starts, labels, ends = _by_start(starts, labels, ends)
            if fault := _tier_fault(name, starts, ends):  # an overlap, as the intervals are sorted
                raise ParseError(fault, line=name_line)
            tier = Tier._of(name, labels, starts, ends)
        elif tier_class in ("TextTier", "PointTier"):
            n_pt = count(f"point count of tier {name!r}")
            for k in range(n_pt):
                number(f"point {k + 1} time")
                string(f"point {k + 1} mark")
            warnings.warn(
                f"skipped point tier {name!r} ({n_pt} points): durations need intervals",
                AnnotationWarning,
                stacklevel=5,  # the caller of parse_textgrid or load_annotation, past _read and its read function
            )
            continue
        else:
            raise ParseError(f"unknown tier class {tier_class!r}", line=class_line)

        if name in seen_names:
            raise ParseError(f"duplicate tier name {name!r}", line=name_line)
        seen_names.add(name)
        tiers.append(tier)

    return AnnotationDoc(tiers=tuple(tiers), source=source)


# ---------------------------------------------------------------------------
# CSV tables: the annotation format here, F0 tracks in pitch
# ---------------------------------------------------------------------------

_CSV_HEADER = ("tier", "label", "start_s", "end_s")

# a CR followed by something other than CR or LF: outside quotes, the csv module refuses it
_BARE_CR_RE = re.compile("\r[^\r\n]")
_BLOCK_CHARS = 1 << 13  # characters of whole lines a CSV table takes from its text at a time


def _csv_table(text: TextIO, header: tuple[str, ...]) -> Iterator[tuple[Sequence[int], list[list[str]]]]:
    """The non-blank records of the CSV lines of text (split at LF) after its header, in blocks.

    A block is (rows, records), records[k] being row rows[k].  The header is
    row 1 and must read header once its fields are stripped; every later
    record must hold one field per header name.  A record the csv module
    rejects is a ParseError at its line, and so is a line holding a NUL, on
    every Python, when the reader reaches it: after the block of the records
    before it, so that the caller checks those first.

    Lines are taken from text a block at a time (readlines).  A block with no
    NUL and no quote, all of whose lines the csv module reads as records of
    one field per header name, passes whole.  The header, and any block that
    fails a check, is read again record by record, past the block's end while
    a quoted record runs on; those records pass in one block, up to a fault.
    """
    width = len(header)
    row_no = line_no = 0  # the rows and lines read so far
    line = ""  # the line the record-by-record reader took last

    def checked(lines: Iterable[str]) -> Iterator[str]:
        nonlocal line_no, line
        for line in lines:
            line_no += 1
            if "\0" in line:  # Python 3.11's csv module reads a NUL as text; 3.10's refuses it
                raise ParseError("malformed CSV: line contains NUL", line=line_no)
            yield line

    lines: list[str] = []
    while lines or (lines := text.readlines(_BLOCK_CHARS)):
        if row_no and "\0" not in (block := "".join(lines)) and '"' not in block:
            try:
                records = list(csv.reader(lines))  # a line a record, as no quote is open
            except csv.Error:
                records = []
            if {*map(len, records)} == {width}:
                yield range(row_no + 1, row_no + 1 + len(records)), records
                row_no += len(records)
                line_no += len(lines)
                lines = []
                continue
        end, rows, records, fault = line_no + len(lines), [], [], None
        reader = csv.reader(checked(chain(lines, text)))
        try:
            for record in reader:
                row_no += 1
                if row_no == 1:
                    if tuple(h.strip() for h in record) != header:
                        raise ParseError(f"bad CSV header {record!r}, expected {','.join(header)}", row=1)
                    break  # the rest of the block may pass whole
                if record and (len(record) > 1 or record[0].strip()):  # else a blank line
                    if len(record) != width:
                        raise ParseError(f"expected {width} fields, got {len(record)}", row=row_no)
                    rows.append(row_no)
                    records.append(record)
                if line_no >= end:
                    break
        except csv.Error as exc:
            if _BARE_CR_RE.search(line):
                fault = ParseError("malformed CSV: a bare CR (carriage return) inside a row; rows end at LF or CRLF",
                                   line=line_no)
            else:
                fault = ParseError(f"malformed CSV: {exc}", line=line_no)
        except ParseError as exc:
            fault = exc
        if records:
            yield rows, records
        if fault:
            raise fault
        lines = lines[len(lines) - (end - line_no):] if end > line_no else []
    if not row_no:
        raise ParseError("empty document: missing CSV header", row=1)


def parse_csv_annotation(text: str | bytes, source: str = "<csv>") -> AnnotationDoc:
    """Parse the flat CSV annotation format (header tier,label,start_s,end_s).

    Rows are grouped by tier (first-appearance order), sorted by start time
    and validated against overlap.  Raises ParseError with a 1-based row
    number (the header is row 1) on malformed rows.
    """
    return _read(text, source, "\n", lambda lines: _csv_annotation(lines, source))


def _csv_annotation(text: TextIO, source: str) -> AnnotationDoc:
    """parse_csv_annotation of text, whose lines end at LF."""
    # tier name -> its starts, labels, ends and source rows, as columns
    grouped: dict[str, tuple[array, list[str], array, array]] = {}
    for row_nos, records in _csv_table(text, _CSV_HEADER):
        for row_no, (tier_name, label, start_raw, end_raw) in zip(row_nos, records):
            try:
                start_s = float(start_raw)
                end_s = float(end_raw)
            except ValueError:
                raise ParseError(
                    f"non-numeric time ({start_raw!r}, {end_raw!r})", row=row_no
                ) from None
            if not 0.0 <= start_s < end_s < math.inf:
                raise ParseError(_refusal(start_s, end_s), row=row_no)
            columns = grouped.get(tier_name)
            if columns is None:
                columns = grouped[tier_name] = (array("d"), [], array("d"), array("q"))
            columns[0].append(start_s)
            columns[1].append(label)
            columns[2].append(end_s)
            columns[3].append(row_no)

    tiers: list[Tier] = []
    for tier_name, columns in grouped.items():
        starts, labels, ends, rows = _by_start(*columns)
        if k := _bad_pair(starts, ends):  # an overlap, as the rows are sorted
            raise ParseError(
                f"tier {tier_name!r}: rows {rows[k - 1]} and {rows[k]} overlap "
                f"([{starts[k - 1]}, {ends[k - 1]}] vs [{starts[k]}, {ends[k]}])",
                row=rows[k],
            )
        tiers.append(Tier._of(tier_name, labels, starts, ends))

    return AnnotationDoc(tiers=tuple(tiers), source=source)


def load_annotation(path: str) -> AnnotationDoc:
    """Read the annotation file at path, as a stream, in whichever of the two formats it holds.

    It is a TextGrid if its name ends in .TextGrid or .grid (any case) or if
    _ootextfile, the TextGrid reader's own header rule, says so; else CSV.
    """
    def parse(text: io.TextIOWrapper) -> AnnotationDoc:
        start = text.tell()  # past a UTF-8 mark
        if path.lower().endswith((".textgrid", ".grid")) or _ootextfile(text):
            text.seek(start)
            return _textgrid(text, path)
        text.seek(start)  # drops what the sniff decoded, so that the line ends may change
        text.reconfigure(newline="\n")
        return _csv_annotation(text, path)

    with open(path, "rb") as raw:
        return _read(raw, path, None, parse)


def annotation_to_csv(doc: AnnotationDoc) -> str:
    """Serialize an AnnotationDoc to the flat CSV format (lossless round-trip)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for tier in doc.tiers:
        for label, start_s, end_s in zip(tier.labels, tier.starts, tier.ends):
            writer.writerow([tier.name, label, repr(start_s), repr(end_s)])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# duration extraction
# ---------------------------------------------------------------------------


def durations(
    tier: Tier, exclude_labels: frozenset[str] | set[str] = DEFAULT_EXCLUDE_LABELS
) -> DurationSequence:
    """Extract (label, duration) pairs from a tier, skipping excluded labels.

    Order is preserved; the default exclusion set covers common pause
    conventions and is fully overridable.
    """
    labels, values = [], array("d")
    for label, start_s, end_s in zip(tier.labels, tier.starts, tier.ends):
        if label not in exclude_labels:
            labels.append(label)
            values.append(end_s - start_s)  # > 0 and finite, as 0 <= start_s < end_s < inf
    return DurationSequence._of(labels, values)
