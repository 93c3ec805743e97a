"""Interval annotations: TextGrid / CSV parsing and duration extraction.

Supports Praat TextGrid files in both long and short text form and a flat CSV
interchange format with header ``tier,label,start_s,end_s``; load_annotation
decides which of the two a file holds.  Point tiers carry no durations and are
skipped with a warning.

Every text table the toolkit reads, annotations and F0 CSVs alike, is decoded
and split here: UTF-16 after its byte-order mark, else UTF-8 with or without
one, a bad byte being a ParseError that names the file and its byte offset.
TextGrid lines end at CR, LF or CRLF; CSV lines at LF or CRLF, with a CR
elsewhere outside quotes a malformed line; no other character ends a line.  CSV
fields may be quoted.  Other parse errors carry a line (TextGrid) or row (CSV)
position.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from array import array
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator

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


class AnnotationWarning(UserWarning):
    """Non-fatal annotation issues (e.g. point tiers being skipped)."""


@dataclass(frozen=True)
class Interval:
    """A labeled span of time."""

    label: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        for name, t in (("start_s", self.start_s), ("end_s", self.end_s)):
            if not math.isfinite(t) or t < 0:
                raise ParameterError(f"{name} must be finite and >= 0, got {t!r}")
        if not self.end_s > self.start_s:
            raise ParameterError(
                f"interval must have end_s > start_s, got [{self.start_s}, {self.end_s}]"
            )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def _refusal(start_s: float, end_s: float) -> str:
    """Why [start_s, end_s], which fails 0 <= start_s < end_s < inf, is no Interval: its message."""
    try:
        Interval("", start_s, end_s)
    except ParameterError as exc:
        return str(exc)


def _overlap(starts: array, ends: array) -> int:
    """The index of the first interval that starts before the one before it ends, or 0 if none does.

    "Before" allows OVERLAP_TOLERANCE_S of slack.
    """
    return next((k for k, (end, start) in enumerate(zip(ends, islice(starts, 1, None)), 1)
                 if end > start + OVERLAP_TOLERANCE_S), 0)


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
    for start, end, next_start, next_end in zip(starts, ends, islice(starts, 1, None), islice(ends, 1, None)):
        if next_start < start:
            return f"tier {name!r}: intervals not sorted by start time"
        if end > next_start + OVERLAP_TOLERANCE_S:
            return f"tier {name!r}: intervals [{start}, {end}] and [{next_start}, {next_end}] overlap"
    return None


def _readonly(column: array) -> memoryview:
    """A read-only view of column."""
    return memoryview(column).toreadonly()


@dataclass(frozen=True, init=False)
class Tier:
    """A named, ordered, non-overlapping sequence of intervals.

    The intervals are held as three columns: the `labels` tuple, and the
    `starts` and `ends` times as read-only views of array("d"), so that a tier
    costs a few bytes per interval beyond its label strings.  Interval objects
    are built only when the tier is iterated, its `intervals` are asked for or
    it is pickled.
    """

    name: str
    labels: tuple[str, ...]
    starts: memoryview
    ends: memoryview

    def __init__(self, name: str, intervals: Iterable[Interval]) -> None:
        ivs = tuple(intervals)
        starts, ends = array("d", [iv.start_s for iv in ivs]), array("d", [iv.end_s for iv in ivs])
        fault = _tier_fault(name, starts, ends)
        if fault:
            raise ParameterError(fault)
        vars(self).update(name=name, labels=tuple(iv.label for iv in ivs),
                          starts=_readonly(starts), ends=_readonly(ends))

    @classmethod
    def _of(cls, name: str, labels: list[str], starts: array, ends: array) -> Tier:
        """The tier over columns its reader has checked."""
        tier = cls.__new__(cls)
        vars(tier).update(name=name, labels=tuple(labels), starts=_readonly(starts), ends=_readonly(ends))
        return tier

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[Interval]:
        return map(Interval, self.labels, self.starts, self.ends)

    def __hash__(self) -> int:
        return hash((self.name, self.intervals))

    def __repr__(self) -> str:
        return f"Tier(name={self.name!r}, intervals={self.intervals!r})"

    def __reduce__(self) -> tuple:
        return type(self), (self.name, self.intervals)


@dataclass(frozen=True)
class AnnotationDoc:
    """A set of tiers parsed from one annotation document."""

    tiers: tuple[Tier, ...]
    source: str = "<unknown>"

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiers", tuple(self.tiers))
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


@dataclass(frozen=True, init=False)
class DurationSequence:
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
        vars(self).update(_labels=[lab for lab, _ in items], _values=array("d", [dur for _, dur in items]))

    @classmethod
    def _of(cls, labels: list[str], values: array) -> DurationSequence:
        """The sequence over columns of finite, positive durations."""
        seq = cls.__new__(cls)
        vars(seq).update(_labels=labels, _values=values)
        return seq

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
# text decoding
# ---------------------------------------------------------------------------


def _decode_document(data: str | bytes, source: str) -> str:
    """Decode a document to text: UTF-16 after its byte-order mark, else UTF-8.

    A byte that does not decode is a ParseError naming source and the byte's
    offset in the file.
    """
    if isinstance(data, str):
        return data.lstrip("\ufeff")
    codec = "utf-16" if data.startswith((b"\xff\xfe", b"\xfe\xff")) else "utf-8"
    try:
        text = data.decode(codec)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source}: not valid {codec.upper()} text", offset=exc.start) from None
    # the utf-16 codec drops its mark itself; utf-8-sig would report offsets 3 bytes low
    return text.removeprefix("\ufeff") if codec == "utf-8" else text


# ---------------------------------------------------------------------------
# TextGrid parsing
# ---------------------------------------------------------------------------

# Structural lines of the long form, e.g. "item []:", "item [2]:",
# "intervals [1]:", "points [3]:" -- they carry no value.
_STRUCT_RE = re.compile(r"^[A-Za-z_][A-Za-z_ ]*\[\d*\]:$")

# A quoted string: "" is the escape for a quote, and a lone " closes it.
_QUOTED_RE = re.compile(r'"((?:[^"]|"")*)"(?!")')

_BLOCK = 1 << 16  # characters of text that _lines and _csv_table split at a time


def _blocks(text: str) -> Iterator[str]:
    """text in pieces of about _BLOCK characters, each but the last ending at an LF, so that no CRLF is cut."""
    start = 0
    while stop := text.find("\n", start + _BLOCK) + 1:
        yield text[start:stop]
        start = stop
    yield text[start:]


class _lines:
    """The lines of text, ended by CR, LF or CRLF only: U+2028, form feeds and the like end none.

    Each iteration splits the text afresh, _BLOCK characters at a time, so no
    list of every line is held.
    """

    def __init__(self, text: str) -> None:
        self.text = text

    def __iter__(self) -> Iterator[str]:
        for block in _blocks(self.text):
            *lines, rest = block.replace("\r\n", "\n").replace("\r", "\n").split("\n")
            yield from lines
        yield rest  # what follows the last line end: "" after every block but the last


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
    lines = enumerate(_lines(_decode_document(text, source)), start=1)
    header = list(islice(((ln.strip(), i) for i, ln in lines if ln.strip()), 2))
    if len(header) < 2 or "ooTextFile" not in header[0][0]:
        raise ParseError(
            'not a TextGrid: first line must contain File type = "ooTextFile"', line=1
        )
    if "TextGrid" not in header[1][0]:
        raise ParseError(
            'not a TextGrid: second line must contain Object class = "TextGrid"',
            line=header[1][1],
        )

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
            fault = _tier_fault(name, starts, ends)
            if fault:
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
                stacklevel=2,
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


def _csv_table(text: str | bytes, header: tuple[str, ...], source: str) -> Iterator[tuple[int, list[str]]]:
    """The non-blank records of a CSV document after its header, with their row numbers.

    The header is row 1 and must read header once its fields are stripped;
    every later record must hold one field per header name.  A record the
    csv module rejects is a ParseError at its line, and so is a line holding
    a NUL, on every Python, when the reader reaches it.
    """
    document = _decode_document(text, source)
    line = ""  # the line the reader took last

    def lines() -> Iterator[str]:
        """The lines of document, each with its LF; a StringIO holds 4 bytes per character, so it takes a block."""
        nonlocal line
        for line_no, line in enumerate(chain.from_iterable(map(io.StringIO, _blocks(document))), start=1):
            if "\0" in line:  # Python 3.11's csv module reads a NUL as text; 3.10's refuses it
                raise ParseError("malformed CSV: line contains NUL", line=line_no)
            yield line

    reader = csv.reader(lines())
    try:
        first = next(reader, None)
        if first is None:
            raise ParseError("empty document: missing CSV header", row=1)
        if tuple(h.strip() for h in first) != header:
            raise ParseError(f"bad CSV header {first!r}, expected {','.join(header)}", row=1)
        for row_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", row=row_no)
            yield row_no, row
    except csv.Error as exc:
        if _BARE_CR_RE.search(line):
            raise ParseError("malformed CSV: a bare CR (carriage return) inside a row; rows end at LF or CRLF",
                             line=reader.line_num) from None
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None


def parse_csv_annotation(text: str | bytes, source: str = "<csv>") -> AnnotationDoc:
    """Parse the flat CSV annotation format (header tier,label,start_s,end_s).

    Rows are grouped by tier (first-appearance order), sorted by start time
    and validated against overlap.  Raises ParseError with a 1-based row
    number (the header is row 1) on malformed rows.
    """
    # tier name -> its starts, labels, ends and source rows, as columns
    grouped: dict[str, tuple[array, list[str], array, array]] = {}
    for row_no, (tier_name, label, start_raw, end_raw) in _csv_table(text, _CSV_HEADER, source):
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
        k = _overlap(starts, ends)
        if k:
            raise ParseError(
                f"tier {tier_name!r}: rows {rows[k - 1]} and {rows[k]} overlap "
                f"([{starts[k - 1]}, {ends[k - 1]}] vs [{starts[k]}, {ends[k]}])",
                row=rows[k],
            )
        tiers.append(Tier._of(tier_name, labels, starts, ends))

    return AnnotationDoc(tiers=tuple(tiers), source=source)


def load_annotation(path: str) -> AnnotationDoc:
    """Read the annotation file at path in whichever of the two formats it holds.

    It is a TextGrid if its name ends in .TextGrid or .grid (any case), or if
    its first text after any whitespace is ``File type``; otherwise it is CSV.
    """
    text = _decode_document(Path(path).read_bytes(), path)
    if path.lower().endswith((".textgrid", ".grid")) or text.lstrip().startswith("File type"):
        return parse_textgrid(text, source=path)
    return parse_csv_annotation(text, source=path)


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
