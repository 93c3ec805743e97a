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
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterator

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


@dataclass(frozen=True)
class Tier:
    """A named, ordered, non-overlapping sequence of intervals."""

    name: str
    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        ivs = tuple(self.intervals)
        object.__setattr__(self, "intervals", ivs)
        for prev, cur in zip(ivs, ivs[1:]):
            if cur.start_s < prev.start_s:
                raise ParameterError(
                    f"tier {self.name!r}: intervals not sorted by start time"
                )
            if prev.end_s > cur.start_s + OVERLAP_TOLERANCE_S:
                raise ParameterError(
                    f"tier {self.name!r}: intervals [{prev.start_s}, {prev.end_s}] "
                    f"and [{cur.start_s}, {cur.end_s}] overlap"
                )

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)


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


@dataclass(frozen=True)
class DurationSequence:
    """Ordered (label, duration) pairs extracted from a tier."""

    items: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        items = tuple((str(lab), float(dur)) for lab, dur in self.items)
        object.__setattr__(self, "items", items)
        for lab, dur in items:
            if not (math.isfinite(dur) and dur > 0):
                raise ParameterError(f"duration for {lab!r} must be > 0, got {dur}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.items)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(dur for _, dur in self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(self.items)


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


def _lines(text: str) -> list[str]:
    """The lines of text, ended by CR, LF or CRLF only: U+2028, form feeds and the like end none."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


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


def _values(lines: list[str], start: int) -> Iterator[tuple[str, int]]:
    """The values of lines[start:], each with its 1-based document line number.

    Long-form lines look like ``xmin = 0.5`` or ``text = "ba"``; short-form
    lines carry the bare value.  Both reduce to the same value sequence, so
    one reader serves both forms.
    """
    for line_no, raw in enumerate(islice(lines, start, None), start=start + 1):
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
    lines = _lines(_decode_document(text, source))
    header = list(islice(((ln.strip(), i) for i, ln in enumerate(lines, start=1) if ln.strip()), 2))
    if len(header) < 2 or "ooTextFile" not in header[0][0]:
        raise ParseError(
            'not a TextGrid: first line must contain File type = "ooTextFile"', line=1
        )
    if "TextGrid" not in header[1][0]:
        raise ParseError(
            'not a TextGrid: second line must contain Object class = "TextGrid"',
            line=header[1][1],
        )

    values = _values(lines, header[1][1])  # the body follows the second header line
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
            intervals: list[Interval] = []
            for k in range(n_iv):
                x0 = number(f"interval {k + 1} xmin")
                x1, x1_line = number(f"interval {k + 1} xmax"), line
                label = string(f"interval {k + 1} text")
                try:
                    intervals.append(Interval(label=label, start_s=x0, end_s=x1))
                except ParameterError as exc:
                    raise ParseError(str(exc), line=x1_line) from None
            intervals.sort(key=lambda iv: iv.start_s)
            try:
                tier = Tier(name=name, intervals=tuple(intervals))
            except ParameterError as exc:
                raise ParseError(str(exc), line=name_line) from None
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


def _csv_table(text: str | bytes, header: tuple[str, ...], source: str) -> Iterator[tuple[int, list[str]]]:
    """The non-blank records of a CSV document after its header, with their row numbers.

    The header is row 1 and must read header once its fields are stripped;
    every later record must hold one field per header name.  A record the
    csv module rejects is a ParseError at its line.
    """
    reader = csv.reader(io.StringIO(_decode_document(text, source)))
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
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None


def parse_csv_annotation(text: str | bytes, source: str = "<csv>") -> AnnotationDoc:
    """Parse the flat CSV annotation format (header tier,label,start_s,end_s).

    Rows are grouped by tier (first-appearance order), sorted by start time
    and validated against overlap.  Raises ParseError with a 1-based row
    number (the header is row 1) on malformed rows.
    """
    # tier name -> list of (Interval, source row)
    grouped: dict[str, list[tuple[Interval, int]]] = {}
    for row_no, (tier_name, label, start_raw, end_raw) in _csv_table(text, _CSV_HEADER, source):
        try:
            start_s = float(start_raw)
            end_s = float(end_raw)
        except ValueError:
            raise ParseError(
                f"non-numeric time ({start_raw!r}, {end_raw!r})", row=row_no
            ) from None
        try:
            interval = Interval(label=label, start_s=start_s, end_s=end_s)
        except ParameterError as exc:
            raise ParseError(str(exc), row=row_no) from None
        grouped.setdefault(tier_name, []).append((interval, row_no))

    tiers: list[Tier] = []
    for tier_name, pairs in grouped.items():
        pairs.sort(key=lambda p: p[0].start_s)
        for (prev, prev_row), (cur, cur_row) in zip(pairs, pairs[1:]):
            if prev.end_s > cur.start_s + OVERLAP_TOLERANCE_S:
                raise ParseError(
                    f"tier {tier_name!r}: rows {prev_row} and {cur_row} overlap "
                    f"([{prev.start_s}, {prev.end_s}] vs [{cur.start_s}, {cur.end_s}])",
                    row=cur_row,
                )
        tiers.append(Tier(name=tier_name, intervals=tuple(iv for iv, _ in pairs)))

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
        for iv in tier.intervals:
            writer.writerow([tier.name, iv.label, repr(iv.start_s), repr(iv.end_s)])
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
    items = tuple(
        (iv.label, iv.duration_s)
        for iv in tier.intervals
        if iv.label not in exclude_labels
    )
    return DurationSequence(items=items)
