"""Parser and argv fuzzing.

Random and mutated bytes end in a value or an AnalysisError, mutated
TextGrids and F0 CSVs parse as the former readers (kept below as oracles,
which decode whole and split lines with their own calls) parse them, and random command lines
end in exit 0, 1 or 2 without a traceback.  Derandomized and bounded, so that every run feeds the same cases
and the suite stays a few seconds long.
"""

import contextlib
import io
import math
import os
import warnings
from itertools import accumulate, islice
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosotime import (
    AnalysisError,
    AnnotationWarning,
    ParseError,
    parse_csv_annotation,
    parse_f0_csv,
    parse_textgrid,
    realize_pitch,
    synthesize_am,
    synthesize_contour,
    transduce_tones,
    write_wav_pcm16,
)
from prosotime.annot import _BLOCK_CHARS, _STRUCT_RE, AnnotationDoc, Interval, Tier, _read, _unquote
from prosotime.cli import OUT_DIR_ENV, _fast_args, build_parser, run
from prosotime.errors import ParameterError
from prosotime.pitch import F0Track, f0_track_to_csv

TEXTGRID_LONG = """File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0
xmax = 1.0
tiers? <exists>
size = 2
item []:
    item [1]:
        class = "IntervalTier"
        name = "words"
        xmin = 0
        xmax = 1.0
        intervals: size = 2
        intervals [1]:
            xmin = 0
            xmax = 0.4
            text = "say ""hi"" now"
        intervals [2]:
            xmin = 0.4
            xmax = 1.0
            text = "sil"
    item [2]:
        class = "TextTier"
        name = "tones"
        xmin = 0
        xmax = 1.0
        points: size = 1
        points [1]:
            number = 0.2
            mark = "H*"
"""

TEXTGRID_SHORT = """File type = "ooTextFile"
Object class = "TextGrid"

0
1.0
<exists>
1
"IntervalTier"
"words"
0
1.0
2
0
0.4
"a"
0.4
1.0
"b"
"""

CSV_DOC = 'tier,label,start_s,end_s\nwords,a,0.0,0.3\nwords,"b, c",0.3,0.5\nphones,x,0.0,0.1\n'
F0_DOC = "time_s,f0_hz\n0.0,\n0.01,120.5\n0.02,121.0\n0.03,\n"

BOMS = (b"", b"\xef\xbb\xbf", b"\xff\xfe", b"\xfe\xff")
# fragments that have broken a parser before, or sit on a format's edge
TOKENS = (b"\r", b"\n", b'"', b",", b"\x00", b"\xff", b"1e400", b"-1e400", b"nan", b"inf",
          b"-0", b"<exists>", b"size = ", b"[]:", b"9" * 30, b"\xef\xbb\xbf", b"\xed\xa0\x80")


@st.composite
def mutated(draw, seeds, tokens=TOKENS):
    """A seed document after up to four splices of random bytes or tokens, behind a BOM."""
    doc = bytearray(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(doc)))
        j = draw(st.integers(i, min(len(doc), i + 12)))
        doc[i:j] = draw(st.binary(max_size=6) | st.sampled_from(tokens))
    return draw(st.sampled_from(BOMS)) + bytes(doc)


def _seeds(*texts):
    return [t.encode() for t in texts] + [t.encode("utf-16") for t in texts]


TEXTGRIDS = mutated(_seeds(TEXTGRID_LONG, TEXTGRID_SHORT))
CSVS = mutated(_seeds(CSV_DOC))
F0_CSVS = mutated([F0_DOC.encode()])
RANDOM = st.sampled_from(BOMS).flatmap(lambda bom: st.binary(max_size=64).map(lambda b: bom + b))


def _value_or_analysis_error(parse, data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # dropped intervals warn; that is a value
        try:
            parse(data)
        except AnalysisError:
            pass


FUZZ = settings(max_examples=250, derandomize=True, deadline=None)


class TestParserFuzz:
    @FUZZ
    @given(data=st.one_of(TEXTGRIDS, RANDOM))
    def test_textgrid(self, data):
        _value_or_analysis_error(parse_textgrid, data)

    @FUZZ
    @given(data=st.one_of(CSVS, RANDOM))
    def test_csv_annotation(self, data):
        _value_or_analysis_error(parse_csv_annotation, data)

    @FUZZ
    @given(data=st.one_of(F0_CSVS, RANDOM))
    def test_f0_csv(self, data):
        _value_or_analysis_error(parse_f0_csv, data)

    def test_seeds_are_valid_documents(self):
        with pytest.warns(AnnotationWarning, match="point tier"):
            assert len(parse_textgrid(TEXTGRID_LONG.encode("utf-16")).tiers) == 1
        assert len(parse_textgrid(TEXTGRID_SHORT).tiers) == 1
        assert len(parse_csv_annotation(b"\xef\xbb\xbf" + CSV_DOC.encode()).tiers) == 2
        assert parse_f0_csv(F0_DOC).voiced_count == 2

    @pytest.mark.parametrize("parse", [parse_textgrid, parse_csv_annotation, parse_f0_csv])
    @pytest.mark.parametrize("data", [b"\xff\xfeA", b"\xef\xbb\xbftier\xff", b"\xfe\xff\xd8\x00"])
    def test_undecodable_text_after_a_bom_is_a_parse_error(self, parse, data):
        with pytest.raises(ParseError, match="not valid UTF"):
            parse(data)


# annot._read gives a file's lines through one io.TextIOWrapper, which decodes 8192
# bytes at a time; a run of "a" puts the text's line ends across that boundary.
LINE_TEXTS = st.text(alphabet="a\u00e9\r\n\u2028\x0c\x85", max_size=60)
LINE_PADS = st.sampled_from((0, 4080, 8170))
LINE_CODECS = ("utf-8", "utf-8-sig", "utf-16", None)  # None: the text as a str
LINE_ORACLE = settings(max_examples=500, derandomize=True, deadline=None)


def _lf_pieces(text):
    """The LF-terminated pieces of text, then what follows its last LF, if anything does."""
    *ended, rest = text.split("\n")
    return [piece + "\n" for piece in ended] + ([rest] if rest else [])


def _line_source(text, codec, newline):
    """The lines annot._read gives of text, encoded with codec."""
    return _read(text if codec is None else text.encode(codec), "<lines>", newline, list)


class TestLineReader:
    @pytest.mark.parametrize("codec", LINE_CODECS)
    @LINE_ORACLE
    @given(text=LINE_TEXTS, pad=LINE_PADS)
    def test_cr_lf_and_crlf_end_lines_read_as_lf(self, codec, text, pad):
        text = "a" * pad + text
        assert _line_source(text, codec, None) == _lf_pieces(text.replace("\r\n", "\n").replace("\r", "\n"))

    @pytest.mark.parametrize("codec", LINE_CODECS)
    @LINE_ORACLE
    @given(text=LINE_TEXTS, pad=LINE_PADS)
    def test_lf_alone_ends_lines_and_every_cr_is_kept(self, codec, text, pad):
        text = "a" * pad + text
        assert _line_source(text, codec, "\n") == _lf_pieces(text)


def _former_text(data, source):
    """data decoded whole, as the former readers did: UTF-16 after its mark, else UTF-8; one mark is dropped."""
    if isinstance(data, str):
        return data.removeprefix("\ufeff")
    codec = "utf-16" if data.startswith((b"\xff\xfe", b"\xfe\xff")) else "utf-8"
    try:
        text = data.decode(codec)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source}: not valid {codec.upper()} text", offset=exc.start) from None
    return text.removeprefix("\ufeff") if codec == "utf-8" else text


# ---------------------------------------------------------------------------
# the former TextGrid reader, kept as an oracle for parse_textgrid
# ---------------------------------------------------------------------------


def _former_unquote(raw: str, line_no: int) -> str:
    """Parse a double-quoted TextGrid string, with "" as the escape for a quote."""
    if not raw.startswith('"'):
        raise ParseError(f"expected a quoted string, got {raw!r}", line=line_no)
    out: list[str] = []
    i = 1
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch == '"':
            if i + 1 < n and raw[i + 1] == '"':
                out.append('"')
                i += 2
                continue
            # closing quote: only whitespace may follow
            if raw[i + 1 :].strip():
                raise ParseError(
                    f"unexpected text after closing quote: {raw!r}", line=line_no
                )
            return "".join(out)
        out.append(ch)
        i += 1
    raise ParseError(f"unterminated quoted string: {raw!r}", line=line_no)


class _FormerValueStream:
    """Sequence of semantic values shared by the long and short TextGrid forms."""

    def __init__(self, lines: list[str], start: int):
        """The values of lines[start:]; items carry 1-based document line numbers."""
        self._items: list[tuple[str, int]] = []
        for idx, raw in enumerate(islice(lines, start, None), start=start + 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith('"'):
                self._items.append((line, idx))
            elif "=" in line:
                self._items.append((line.split("=", 1)[1].strip(), idx))
            elif _STRUCT_RE.match(line):
                continue
            else:
                self._items.append((line, idx))
        self._pos = 0

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._items)

    @property
    def last_line(self) -> int:
        return self._items[-1][1] if self._items else 1

    def next_raw(self, what: str) -> tuple[str, int]:
        if self.exhausted:
            raise ParseError(
                f"unexpected end of document while reading {what}", line=self.last_line
            )
        item = self._items[self._pos]
        self._pos += 1
        return item

    def next_number(self, what: str) -> tuple[float, int]:
        raw, line_no = self.next_raw(what)
        try:
            return float(raw), line_no
        except ValueError:
            raise ParseError(f"expected a number for {what}, got {raw!r}", line=line_no) from None

    def next_count(self, what: str) -> tuple[int, int]:
        value, line_no = self.next_number(what)
        if not (value >= 0 and value.is_integer()):  # NaN and inf fail too
            raise ParseError(f"expected a count for {what}, got {value!r}", line=line_no)
        return int(value), line_no

    def next_string(self, what: str) -> tuple[str, int]:
        raw, line_no = self.next_raw(what)
        return _former_unquote(raw, line_no), line_no


def _former_parse_textgrid(text, source="<textgrid>"):
    """The former parse_textgrid, on text decoded whole and split at CR, LF or CRLF by io.StringIO."""
    lines = list(io.StringIO(_former_text(text, source), newline=None))
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

    stream = _FormerValueStream(lines, header[1][1])  # the body follows the second header line

    stream.next_number("global xmin")
    stream.next_number("global xmax")
    flag, _ = stream.next_raw("tier existence flag")
    if "<exists>" not in flag:
        return AnnotationDoc(tiers=(), source=source)
    n_tiers, _ = stream.next_count("tier count")

    tiers: list[Tier] = []
    seen_names: dict[str, int] = {}
    for _ in range(n_tiers):
        tier_class, class_line = stream.next_string("tier class")
        name, name_line = stream.next_string("tier name")
        stream.next_number("tier xmin")
        stream.next_number("tier xmax")

        if tier_class == "IntervalTier":
            n_iv, _ = stream.next_count(f"interval count of tier {name!r}")
            intervals: list[Interval] = []
            for k in range(n_iv):
                x0, _ = stream.next_number(f"interval {k + 1} xmin")
                x1, x1_line = stream.next_number(f"interval {k + 1} xmax")
                label, _ = stream.next_string(f"interval {k + 1} text")
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
            n_pt, _ = stream.next_count(f"point count of tier {name!r}")
            for k in range(n_pt):
                stream.next_number(f"point {k + 1} time")
                stream.next_string(f"point {k + 1} mark")
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
        seen_names[name] = name_line
        tiers.append(tier)

    return AnnotationDoc(tiers=tuple(tiers), source=source)


def _outcome(call, *args):
    """What call(*args) returns or raises, and the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("value", call(*args))
        except AnalysisError as exc:
            result = (type(exc).__name__, str(exc), getattr(exc, "line", None))
    return result, [(w.category, str(w.message)) for w in caught]


# line ends that only str.splitlines() honours
SPLITLINES_BREAKS = "\u2028\u2029\x85\x0b\x0c\x1c\x1d\x1e"
TEXT_TOKENS = tuple(tok.decode("utf-8", "replace") for tok in TOKENS) + tuple(SPLITLINES_BREAKS)


@st.composite
def mutated_text(draw, seeds, splices=st.text(max_size=6) | st.sampled_from(TEXT_TOKENS)):
    """A seed text after up to four splices of random text or tokens, then encoded."""
    doc = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(doc)))
        j = draw(st.integers(i, min(len(doc), i + 12)))
        doc = doc[:i] + draw(splices) + doc[j:]
    return doc.encode(draw(st.sampled_from(("utf-8", "utf-8-sig", "utf-16"))))


# the long and short seeds with LF and CRLF line ends; UTF-16 seeds come from _seeds and the encoder
ORACLE_SEEDS = [form.replace("\n", end) for form in (TEXTGRID_LONG, TEXTGRID_SHORT) for end in ("\n", "\r\n")]
ORACLE_TEXTGRIDS = st.one_of(
    mutated(_seeds(*ORACLE_SEEDS), TOKENS + tuple(ch.encode("utf-8") for ch in SPLITLINES_BREAKS)),
    mutated_text(ORACLE_SEEDS),
)


class TestTextGridOracle:
    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(data=ORACLE_TEXTGRIDS)
    def test_matches_former_reader(self, data):
        assert _outcome(parse_textgrid, data) == _outcome(_former_parse_textgrid, data)

    @settings(max_examples=1000, derandomize=True, deadline=None)
    @given(raw=st.text(st.sampled_from('"ab= \t'), max_size=10).flatmap(
        lambda s: st.sampled_from((s, '"' + s))))
    def test_unquote_matches_former_loop(self, raw):
        assert _outcome(_unquote, raw, 7) == _outcome(_former_unquote, raw, 7)


# ---------------------------------------------------------------------------
# the former F0 CSV reader, kept as an oracle for parse_f0_csv
# ---------------------------------------------------------------------------


def _former_parse_f0_csv(data):
    """The former parse_f0_csv, on text decoded whole and split into lines at LF.

    The former split rows with str.splitlines(); now a row ends at LF, any CRs
    before it dropped, and a CR left inside a line, or a NUL on any Python, is
    a malformed line.
    """
    lines = _former_text(data, "<f0 csv>").split("\n")

    def line(k):
        text = lines[k].rstrip("\r")
        if "\r" in text or "\x00" in text:
            raise ParseError("malformed CSV", line=k + 1)
        return text

    if [p.strip() for p in line(0).split(",")] != ["time_s", "f0_hz"]:
        raise ParseError("expected header time_s,f0_hz", row=1)
    times: list[float] = []
    f0: list[float] = []
    for row_no in range(2, len(lines) + 1):
        text = line(row_no - 1)
        if not text.strip():
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", row=row_no)
        f_raw = parts[1].strip()
        try:
            t, v = float(parts[0]), float(f_raw) if f_raw else math.nan
        except ValueError:
            t = v = math.nan
        if not (math.isfinite(t) and (math.isfinite(v) or not f_raw)):
            raise ParseError(f"expected a finite time and f0, got {text!r}", row=row_no)
        times.append(t)
        f0.append(v)
    hop = times[1] - times[0] if len(times) >= 2 else 0.01
    try:
        return F0Track(times_s=times, f0_hz=f0, hop_s=hop)
    except ParameterError as exc:
        raise ParseError(str(exc)) from None


def _f0_outcome(parse, data):
    """The track parse(data) gives, bit for bit, or its error.

    Header errors compare by their row alone, since the header message took
    the annotation reader's wording, and malformed lines by their line alone.
    """
    try:
        track = parse(data)
    except ParseError as exc:
        if exc.row == 1:
            return ("header", 1)
        if str(exc).startswith("malformed CSV"):
            return ("malformed CSV", exc.line)
        return ("ParseError", str(exc))
    except AnalysisError as exc:
        return (type(exc).__name__, str(exc))
    return ("value", track.times_s.tobytes(), track.f0_hz.tobytes(), track.hop_s)


# a longer track, so that most splices fall in rows rather than in the header
F0_LONG = "time_s,f0_hz\n" + "".join(f"{k / 100!r},{'' if k % 4 == 3 else 100.0 + k}\n" for k in range(16))
# quoted fields are new, so no quote enters these documents
F0_ORACLE = mutated_text(
    [doc.replace("\n", end) for doc in (F0_DOC, F0_LONG) for end in ("\n", "\r\n")],
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters='"'), max_size=6)
    | st.sampled_from(tuple(tok for tok in TEXT_TOKENS if '"' not in tok)),
)


def _block_ends(doc):
    """The line count after each block of lines the CSV table reader takes from doc."""
    text = io.StringIO(doc, newline="\n")
    return [*accumulate(map(len, iter(lambda: text.readlines(_BLOCK_CHARS), [])))]


# where a fault goes: the first row, or a side of the edge after the given block
EDGES = ("first-row", "last-of-block-1", "first-of-block-2", "last-of-block-2", "first-of-block-3")


def placed(lines, fault, where):
    """The document of lines (each ending in LF, the header first) with the line at some k replaced by
    fault(that line), k chosen so that the fault's first line falls where says in the reader's blocks."""
    def doc(k):
        return "".join([*lines[:k], fault(lines[k]), *lines[k + 1:]])

    if where == "first-row":
        return doc(1)
    side, block = where.split("-of-block-")
    n = int(block)

    def at(ends):  # the index of the line that falls where, given the line count after each block
        return ends[n - 1] - 1 if side == "last" else ends[n - 2]

    edge = at(_block_ends("".join(lines)))
    for k in range(edge - 4, edge + 5):  # a fault of another length may move the edge by a line or two
        if at(_block_ends(doc(k))) == k:
            return doc(k)
    raise AssertionError(f"no line falls {where}")


def _f0_line(k):
    f0 = "" if k % 9 == 4 else repr(120.0 + k % 50 / 4)
    return f"{k / 100!r:>{14 - len(f0)}},{f0}\n"


# lines of 16 characters, which divides the block size, so that even a blank line can end a block
F0_BLOCKS = ["time_s,f0_hz   \n", *map(_f0_line, range(_BLOCK_CHARS // 4))]  # four blocks
F0_FAULTS = {
    "non-numeric-time": lambda line: "x" + line,
    "nan-f0": lambda line: line.split(",")[0] + ",nan\n",
    "inf-f0": lambda line: line.split(",")[0] + ",inf\n",
    "blank-f0": lambda line: line.split(",")[0] + ", \t \n",
    "three-fields": lambda line: line[:-1] + ",1\n",
    "blank-line": lambda line: "\n" + line,
    "nul": lambda line: line[:-1] + "\0\n",
    "bare-cr": lambda line: line[:-3] + "\r" + line[-3:],
    # a bad value, then a line the csv module refuses, or a NUL, later in the same block
    "bad-value-then-csv-error": lambda line: "x" + line + line + "1\r2,3\n",
    "bad-value-then-nul": lambda line: "x" + line + line + "1,2\0\n",
}


class TestF0CsvOracle:
    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(data=F0_ORACLE)
    def test_matches_former_reader(self, data):
        assert _f0_outcome(parse_f0_csv, data) == _f0_outcome(_former_parse_f0_csv, data)

    @pytest.mark.parametrize("where", EDGES)
    @pytest.mark.parametrize("fault", sorted(F0_FAULTS))
    def test_faults_at_block_edges_match_former_reader(self, fault, where):
        assert {*map(len, F0_BLOCKS)} == {16} and len(_block_ends("".join(F0_BLOCKS))) > 3
        doc = placed(F0_BLOCKS, F0_FAULTS[fault], where)
        assert _f0_outcome(parse_f0_csv, doc) == _f0_outcome(_former_parse_f0_csv, doc)


# ---------------------------------------------------------------------------
# random argv through cli.run, in process
# ---------------------------------------------------------------------------

# flag values from the edges of each argparse type, plus a few ordinary ones
FLOATS = ("0", "-0.0", "-1", "-1e308", "1e-300", "5e-324", "1e308", "nan", "inf", "-inf",
          "0.5", "1", "150", "1" + "0" * 30, "x", "")
INTS = ("0", "-1", "1", "3", "1" + "0" * 30, "-" + "9" * 30, "1.5", "1e3", "")
STRINGS = ("", "ü", "音声", "\udcff", "-", "x y", "words", "sil")
MISSING = ("", "no-such-file", "ü", "\udcff")

# per subcommand: a tuple of tokens for each positional (None leaves it out),
# then {flag: values}; "{wav}", "{csv}", "{grid}", "{f0}" and "{dir}" name the
# fixture files below
_INPUTS = ("{wav}", "{csv}", "{grid}", "{f0}", "{dir}") + MISSING
_TREE_FLAGS = {"--relation": ("iambic", "trochaic", "spondaic", ""), "--polarity": ("higher", "lower", "ü"),
               "--arity": ("binary", "nary", "")}
_ANNOT_FLAGS = {"--tier": STRINGS + ("phones",), "--exclude": STRINGS}
ARGV_GRAMMAR = {
    "calibrate": ((), {}),
    "aems": ((_INPUTS,), {"--cutoff-hz": FLOATS, "--window-ms": FLOATS, "--env-rate": INTS,
                          "--smooth-ms": FLOATS, "--min-prominence": FLOATS, "--min-separation-hz": FLOATS}),
    "metrics": ((_INPUTS,), _ANNOT_FLAGS),
    "timetree": ((_INPUTS,), {**_ANNOT_FLAGS, **_TREE_FLAGS}),
    "spectree": ((_INPUTS,), {"--cutoff-hz": FLOATS, **_TREE_FLAGS}),
    "tone-gen": ((("H L H", "H", "L L H H L", "", "H X", "h l", "ü", "H L " * 40),),
                 {flag: FLOATS for flag in ("--p-h0", "--p-l0", "--k-usw", "--k-dd", "--k-dst", "--k-ter",
                                            "--floor-hz", "--ceiling-hz", "--tone-dur-ms")}),
    "intonation": ((("check", "enum", "x"), ("", "%H H* L- L%", "%H H* L%", "H*", "%H ü L%", None)),
                   {"--max-len": INTS}),
    "f0": ((_INPUTS,), {"--fmin": FLOATS, "--fmax": FLOATS, "--frame-ms": FLOATS, "--hop-ms": FLOATS,
                        "--voicing-ratio": FLOATS}),
    "contour-fit": ((_INPUTS,), {"--degree": INTS, "--start-s": FLOATS, "--end-s": FLOATS}),
}
COMMON_FLAGS = {"--formats": ("json", "csv", "svg", "json,csv,svg", "", ",", "pdf", "ü"), "--out-dir": STRINGS}
TAILS = ((), ("--json",), ("--help",), ("--no-such-flag",), ("--formats",), ("extra",))
# how a drawn argv departs from the plain form: one flag as --flag=value or abbreviated, the positionals
# after the first flag, or a "--" anywhere
SHAPES = ("plain", "plain", "=", "abbreviated", "positional-after-flag", "--")


@pytest.fixture(scope="module")
def argv_inputs(tmp_path_factory):
    """The fixture files that "{name}" tokens stand for, and an output root."""
    root = tmp_path_factory.mktemp("argv")
    write_wav_pcm16(root / "am.wav", synthesize_am(200.0, 5.0, 1.0, 1.0, 16000))
    (root / "words.csv").write_text(CSV_DOC)
    (root / "words.TextGrid").write_text(TEXTGRID_SHORT)
    track = synthesize_contour(realize_pitch(transduce_tones("H L H L H")))
    (root / "t.f0.csv").write_text(f0_track_to_csv(track))
    names = {"wav": "am.wav", "csv": "words.csv", "grid": "words.TextGrid", "f0": "t.f0.csv", "dir": "."}
    return {"{%s}" % key: str(root / name) for key, name in names.items()}, root / "out"


def _draw_argv(data, sub, inputs, out):
    positionals, flags = ARGV_GRAMMAR[sub]
    flags = {**flags, **COMMON_FLAGS}
    heads = []
    for choices in positionals:
        token = data.draw(st.sampled_from(choices))
        if token is not None:
            heads.append(inputs.get(token, token))
    pairs = [["--out-dir", str(out)]]
    for flag in data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=3)):  # a flag may repeat
        value = data.draw(st.sampled_from(flags[flag]))
        pairs.append([flag, str(out / value) if flag == "--out-dir" and value else value])
    shape, k = data.draw(st.sampled_from(SHAPES)), data.draw(st.integers(0, len(pairs) - 1))
    if shape == "=":
        pairs[k] = ["=".join(pairs[k])]
    elif shape == "abbreviated":
        pairs[k][0] = pairs[k][0][:data.draw(st.integers(3, len(pairs[k][0]) - 1))]
    rest = [token for pair in pairs for token in pair]
    argv = [sub, *rest[:2], *heads, *rest[2:]] if shape == "positional-after-flag" else [sub, *heads, *rest]
    if shape == "--":
        argv.insert(data.draw(st.integers(1, len(argv))), "--")
    return argv + list(data.draw(st.just(()) | st.sampled_from(TAILS)))  # half end cleanly


class TestRandomArgv:
    @pytest.mark.parametrize("sub", sorted(ARGV_GRAMMAR))
    @settings(max_examples=30, derandomize=True, deadline=timedelta(seconds=5))
    @given(data=st.data())
    def test_exit_code_without_traceback(self, sub, data, argv_inputs):
        inputs, out = argv_inputs
        argv = _draw_argv(data, sub, inputs, out)
        stdout, stderr = io.StringIO(), io.StringIO()
        # an empty --out-dir falls back to the environment, which points into out
        with mock.patch.dict(os.environ, {OUT_DIR_ENV: str(out)}), warnings.catch_warnings(), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("ignore")  # dropped intervals warn; that is a result
            code = run(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in stderr.getvalue(), argv


# the argv shapes of the benchmark's ops (benchmark/workloads.py), each run with --out-dir appended
BENCHMARK_ARGVS = [
    ["f0", "speech_00.wav"],
    ["contour-fit", "f0-speech_00/speech_00.f0.csv"],
    ["contour-fit", "f0-speech_00/speech_00.f0.csv", "--start-s", "1.234", "--end-s", "5.678"],
    ["aems", "long_pcm16.wav", "--cutoff-hz", "20"],
    ["aems", "long_pcm16.wav"],
    ["spectree", "long_pcm16.wav", "--cutoff-hz", "20"],
    ["metrics", "tier100_csv.csv"],
    *(["timetree", "tier1000_long.TextGrid", "--relation", relation, "--polarity", polarity, "--arity", arity]
      for relation in ("iambic", "trochaic") for polarity in ("higher", "lower") for arity in ("binary", "nary")),
    ["timetree", "chain1000.csv", "--polarity", "lower"],
    ["intonation", "enum", "--max-len", "7"],
    ["intonation", "check", "%H H* L- L% %L L+H* H- H%"],
    ["tone-gen", "H L L H " * 250],
]


def _argparse_args(argv) -> dict | None:
    """vars() of argparse's namespace for argv, or None where argparse exits (a usage error, or --help)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


class TestFastPath:
    """run() parses a plain argv without argparse: wherever it does, it gives argparse's namespace."""

    @pytest.mark.parametrize("sub", sorted(ARGV_GRAMMAR))
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_taken_argv_parses_as_argparse_parses_it(self, sub, data, argv_inputs):
        argv = _draw_argv(data, sub, *argv_inputs)
        fast = _fast_args(argv)
        assert fast is None or vars(fast) == _argparse_args(argv), argv  # never an argv argparse refuses

    @pytest.mark.parametrize("argv", BENCHMARK_ARGVS + [
        ["metrics", "words.csv", "--exclude", "sil", "--tier", "a", "--exclude", "", "--tier", "b", "--json"],
        ["tone-gen", "H L", "--k-dd", "0.5", "--json", "--k-dd", "1e3", "--formats", "", "--json"],
        ["intonation", "check", "", "--max-len", "0"],
    ], ids=lambda argv: " ".join(argv)[:40])
    def test_takes_plain_argv(self, argv, tmp_path):
        argv = [*argv, "--out-dir", str(tmp_path)]
        fast = _fast_args(argv)
        assert fast is not None and vars(fast) == _argparse_args(argv)

    @pytest.mark.parametrize("argv", [
        ["metrics", "words.csv", "--out", "x"],  # an abbreviation
        ["metrics", "words.csv", "--out-dir=x"],
        ["metrics", "--", "words.csv"],
        ["metrics", "words.csv", "--", "--json"],
        ["metrics", "--json", "words.csv"],  # a positional after a flag
        ["contour-fit", "t.f0.csv", "--degree", "-1"],  # a negative number as a value
        ["intonation", "check", "-1"],
        ["intonation", "check", "--max-len", "3", "H*"],
        ["metrics"],
        ["metrics", "a.csv", "b.csv"],
        ["metrics", "words.csv", "--tier"],
        ["metrics", "words.csv", "--cutoff-hz", "5"],
        ["aems", "am.wav", "--cutoff-hz", "nan"],
        ["timetree", "words.csv", "--relation", "x"],
        ["intonation", "check", "--help"],
        ["--help"],
        [],
    ], ids=lambda argv: " ".join(argv) or "(empty)")
    def test_leaves_the_rest_to_argparse(self, argv):
        assert _fast_args(argv) is None
