"""The columnar annotation path: tiers, durations and quadrant points held as flat columns.

The former object-per-row code is kept below as oracles: the CSV reader with an
Interval per row, Tier's pairwise check, the tuple-of-points QuadrantStats,
TimeTree's sorted-list parent check and the time-tree SVG renderer with a
coordinate list per node.  A TimeTree built from tuples, and test_timetree's
former serializers, are the oracles of the columnar tree.  The memory tests
bound what metrics and timetree cost per interval.
"""

import copy
import io
import math
import os
import pickle
import tracemalloc
from array import array
from collections import Counter
from dataclasses import FrozenInstanceError
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prosotime import (
    DurationSequence,
    Interval,
    ParameterError,
    ParseError,
    QuadrantStats,
    Tier,
    TimeTree,
    TreeParams,
    durations,
    induce_time_tree,
    parse_csv_annotation,
    parse_textgrid,
    quadrant_analysis,
)
from prosotime.annot import _BLOCK_CHARS, _CSV_HEADER, OVERLAP_TOLERANCE_S, _csv_table, load_annotation
from prosotime.cli import _Blocks, _report_chunks, _Text
from prosotime.errors import AnalysisError
from prosotime.rhythm import quadrant_to_csv
from prosotime import svgplot, timetree
from prosotime.svgplot import _FG, _GRID, _H, _W, _circle, _escape, _fmt, _head, _line, _text, svg_timetree
from prosotime.timetree import tree_texts
from test_fuzz import EDGES, _block_ends, placed
from test_timetree import REPORT, _encoded, _former_to_sexpr, _former_tree_to_dict

ORACLE = settings(max_examples=400, derandomize=True, deadline=None)


def _outcome(call, *args):
    try:
        return ("value", call(*args))
    except AnalysisError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "row", None))


# ---------------------------------------------------------------------------
# Tier and the CSV reader
# ---------------------------------------------------------------------------


def _former_tier_check(name, ivs):
    """The former Tier.__post_init__ over Interval pairs."""
    for prev, cur in zip(ivs, ivs[1:]):
        if cur.start_s < prev.start_s:
            raise ParameterError(f"tier {name!r}: intervals not sorted by start time")
        if prev.end_s > cur.start_s + OVERLAP_TOLERANCE_S:
            raise ParameterError(
                f"tier {name!r}: intervals [{prev.start_s}, {prev.end_s}] "
                f"and [{cur.start_s}, {cur.end_s}] overlap"
            )
    return ivs


def _former_parse_csv(text):
    """The former parse_csv_annotation, an (Interval, row) pair per row, as (name, intervals) pairs."""
    grouped = {}
    blocks = _csv_table(io.StringIO(text, newline="\n"), _CSV_HEADER)
    for row_no, (tier_name, label, start_raw, end_raw) in ((r, row) for rows, rs in blocks for r, row in zip(rows, rs)):
        try:
            start_s = float(start_raw)
            end_s = float(end_raw)
        except ValueError:
            raise ParseError(f"non-numeric time ({start_raw!r}, {end_raw!r})", row=row_no) from None
        try:
            interval = Interval(label=label, start_s=start_s, end_s=end_s)
        except ParameterError as exc:
            raise ParseError(str(exc), row=row_no) from None
        grouped.setdefault(tier_name, []).append((interval, row_no))
    tiers = []
    for tier_name, pairs in grouped.items():
        pairs.sort(key=lambda p: p[0].start_s)
        for (prev, prev_row), (cur, cur_row) in zip(pairs, pairs[1:]):
            if prev.end_s > cur.start_s + OVERLAP_TOLERANCE_S:
                raise ParseError(
                    f"tier {tier_name!r}: rows {prev_row} and {cur_row} overlap "
                    f"([{prev.start_s}, {prev.end_s}] vs [{cur.start_s}, {cur.end_s}])",
                    row=cur_row,
                )
        tiers.append((tier_name, tuple(iv for iv, _ in pairs)))
    return tiers


def _new_parse_csv(text):
    return [(tier.name, tier.intervals) for tier in parse_csv_annotation(text).tiers]


TIMES = st.sampled_from(("0", "0.25", "0.5", "0.5005", "0.75", "1", "1.0", "-0.5", "nan", "inf", "x", "1e308"))
ROWS = st.lists(st.tuples(st.sampled_from(("a", "b")), st.sampled_from(("p", "q", "sil", "")), TIMES, TIMES),
                max_size=8)
INTERVALS = st.lists(st.tuples(st.sampled_from(("p", "q")), st.sampled_from((0.0, 0.25, 0.5, 0.5005, 0.75)),
                               st.sampled_from((0.25, 0.5, 0.75, 1.0))).filter(lambda t: t[2] > t[1]), max_size=6)


def _csv_line(k):
    start, end = repr(k / 100), repr((k + 1) / 100)
    return f"syl,{f'i{k}':<{25 - len(start) - len(end)}},{start},{end}\n"


def _fields(line, **change):
    tier, label, start, end = line[:-1].split(",")
    return ",".join({"tier": tier, "label": label, "start": start, "end": end, **change}.values()) + "\n"


# lines of 32 characters, which divides the block size; each interval ends where the next starts
CSV_BLOCKS = ["tier,label,start_s,end_s       \n", *map(_csv_line, range(_BLOCK_CHARS // 8))]  # four blocks
CSV_FAULTS = {
    "non-numeric-time": lambda line: _fields(line, start="x"),
    "refused-interval": lambda line: _fields(line, start=line.split(",")[3][:-1], end=line.split(",")[2]),
    "overlap": lambda line: _fields(line, start=repr(float(line.split(",")[2]) - 0.005)),
    "blank-line-then-overlap": lambda line: "\n" + _fields(line, start=repr(float(line.split(",")[2]) - 0.005)),
}


class TestCsvOracle:
    @ORACLE
    @given(rows=ROWS)
    def test_matches_former_reader(self, rows):
        text = "tier,label,start_s,end_s\n" + "".join(f"{t},{lab},{a},{b}\n" for t, lab, a, b in rows)
        assert _outcome(_new_parse_csv, text) == _outcome(_former_parse_csv, text)

    @pytest.mark.parametrize("where", EDGES)
    @pytest.mark.parametrize("fault", sorted(CSV_FAULTS))
    def test_faults_at_block_edges_match_former_reader(self, fault, where):
        assert {*map(len, CSV_BLOCKS)} == {32} and len(_block_ends("".join(CSV_BLOCKS))) > 3
        text = placed(CSV_BLOCKS, CSV_FAULTS[fault], where)
        outcome = _outcome(_new_parse_csv, text)
        assert outcome[0] == "ParseError" and outcome == _outcome(_former_parse_csv, text)

    def test_unsorted_rows_report_their_own_rows(self):
        text = "tier,label,start_s,end_s\nw,c,0.9,1.0\nv,x,0,1\nw,a,0.0,0.6\nw,b,0.5,0.9\n"
        with pytest.raises(ParseError) as exc:
            parse_csv_annotation(text)
        assert str(exc.value) == "tier 'w': rows 4 and 5 overlap ([0.0, 0.6] vs [0.5, 0.9]) (row 5)"


class TestTierColumns:
    @ORACLE
    @given(ivs=INTERVALS)
    @example(ivs=[("p", 0.0, 0.5), ("q", 0.25, 0.75), ("p", 0.0, 0.25)])  # an overlap, then a pair out of order
    @example(ivs=[("p", 0.5, 0.75), ("q", 0.0, 0.5), ("p", 0.25, 1.0)])  # a pair out of order, then an overlap
    def test_check_matches_former_pairwise_check(self, ivs):
        intervals = tuple(Interval(*iv) for iv in ivs)
        assert (_outcome(lambda: Tier("t", intervals).intervals)
                == _outcome(lambda: _former_tier_check("t", intervals)))

    def test_columns_and_views(self):
        tier = Tier("w", (Interval("a", 0.0, 0.5), Interval("b", 0.5, 1.25)))
        assert tier.labels == ("a", "b")
        assert tier.starts == array("d", [0.0, 0.5]) and tier.ends == array("d", [0.5, 1.25])
        assert tier.starts.readonly and tier.ends.readonly
        assert list(tier) == list(tier.intervals) == [Interval("a", 0.0, 0.5), Interval("b", 0.5, 1.25)]
        assert len(tier) == 2
        assert tier == Tier("w", iter(tier)) and hash(tier) == hash(Tier("w", tier.intervals))
        assert tier != Tier("v", tier.intervals)
        assert repr(tier) == f"Tier(name='w', intervals={tier.intervals!r})"

    def test_columns_are_immutable(self):
        tier = parse_csv_annotation("tier,label,start_s,end_s\nw,a,0.0,0.5\nw,b,0.5,1.0\n").tier("w")
        with pytest.raises(TypeError):
            tier.ends[0] = tier.starts[0]
        with pytest.raises(TypeError):
            tier.labels[0] = "b"
        with pytest.raises(AttributeError):
            tier.ends = array("d", [0.0, 0.0])
        assert durations(tier).values == (0.5, 0.5)

    def test_pickles_and_copies(self):
        tier = parse_csv_annotation("tier,label,start_s,end_s\nw,a,0.0,0.5\nw,b,0.5,1.0\n").tier("w")
        for clone in (pickle.loads(pickle.dumps(tier)), copy.deepcopy(tier), copy.copy(tier)):
            assert clone == tier and hash(clone) == hash(tier) and clone.intervals == tier.intervals

    @pytest.mark.parametrize("text", [
        "tier,label,start_s,end_s\nw,b,0.5,1.0\nw,a,0.0,0.5\n",
        'File type = "ooTextFile"\nObject class = "TextGrid"\n0\n1\n<exists>\n1\n"IntervalTier"\n"w"\n0\n1\n2\n'
        '0.5\n1.0\n"b"\n0.0\n0.5\n"a"\n',
    ], ids=["csv", "textgrid"])
    def test_readers_fill_sorted_columns(self, text):
        parse = parse_textgrid if text.startswith("File") else parse_csv_annotation
        tier = parse(text).tier("w")
        assert (tier.labels, tier.starts, tier.ends) == (("a", "b"), array("d", [0.0, 0.5]), array("d", [0.5, 1.0]))
        assert tier == Tier("w", (Interval("a", 0.0, 0.5), Interval("b", 0.5, 1.0)))

    def test_durations_are_columns(self):
        tier = Tier("w", (Interval("a", 0.0, 0.5), Interval("sil", 0.5, 0.75), Interval("b", 0.75, 1.0)))
        seq = durations(tier)
        assert seq == DurationSequence((("a", 0.5), ("b", 0.25)))
        assert seq.items == (("a", 0.5), ("b", 0.25)) and list(seq) == list(seq.items)
        assert seq.labels == ("a", "b") and seq.values == (0.5, 0.25) and len(seq) == 2
        assert hash(seq) == hash(DurationSequence(seq))


# ---------------------------------------------------------------------------
# quadrant points
# ---------------------------------------------------------------------------


def _former_quadrants(xs):
    """The former quadrant_analysis, as (points, quadrants, counts, CSV text)."""
    mean = math.fsum(xs) / len(xs)
    sd = math.sqrt(math.fsum((x - mean) * (x - mean) for x in xs) / (len(xs) - 1))
    z = [(x - mean) / sd for x in xs]
    points = tuple(zip(z, z[1:]))

    def classify(a, b):
        if a == 0.0 or b == 0.0:
            return "origin"
        if a > 0 and b > 0:
            return "LL"
        if a < 0 and b < 0:
            return "SS"
        return "LS" if a > 0 else "SL"

    quadrants = tuple(classify(a, b) for a, b in points)
    tally = Counter(quadrants)
    csv = "z_i,z_next,quadrant\n" + "".join(f"{a!r},{b!r},{q}\n" for (a, b), q in zip(points, quadrants))
    return points, quadrants, {name: tally[name] for name in ("LL", "SS", "LS", "SL", "origin")}, csv


# stats from quadrant_analysis (views of one z column) and from the public constructor
BOTH_PATHS = pytest.mark.parametrize("stats", [quadrant_analysis([0.1, 0.3, 0.2, 0.4]),
                                               QuadrantStats(((1.0, -1.0), (0.0, 2.0)))], ids=["analysis", "points"])


class TestQuadrantColumns:
    @ORACLE
    @given(xs=st.lists(st.sampled_from((0.1, 0.2, 0.3, 0.25, 0.4)), min_size=3, max_size=12))
    def test_matches_former_tuples(self, xs):
        if max(xs) == min(xs):
            return  # no z-scores
        stats = quadrant_analysis(xs)
        assert (stats.points, stats.quadrants, stats.counts, quadrant_to_csv(stats)) == _former_quadrants(xs)
        assert stats == QuadrantStats(stats.points) and hash(stats) == hash(QuadrantStats(stats.points))
        assert list(stats.rows()) == [(a, b, q) for (a, b), q in zip(stats.points, stats.quadrants)]

    def test_analysis_points_view_one_z_column(self):
        stats = quadrant_analysis([0.1, 0.3, 0.2, 0.4])
        assert isinstance(stats.z_i, memoryview) and stats.z_i.obj is stats.z_next.obj
        assert len(stats.z_i) == len(stats.z_next) == 3

    @BOTH_PATHS
    def test_immutable(self, stats):
        counts = stats.counts
        assert stats.z_i.readonly and stats.z_next.readonly
        with pytest.raises(TypeError):
            stats.z_i[0] = 5.0
        for name in ("z_i", "points", "_quadrants"):
            with pytest.raises(FrozenInstanceError):
                setattr(stats, name, ())
        with pytest.raises(FrozenInstanceError):
            del stats.z_next
        assert stats.counts == counts

    @BOTH_PATHS
    def test_pickles_and_copies(self, stats):
        for clone in (pickle.loads(pickle.dumps(stats)), copy.deepcopy(stats), copy.copy(stats)):
            assert clone == stats and hash(clone) == hash(stats)
            assert (clone.quadrants, clone.counts, clone.index) == (stats.quadrants, stats.counts, stats.index)


# ---------------------------------------------------------------------------
# TimeTree's parent check and the time-tree SVG
# ---------------------------------------------------------------------------


def _former_table_check(marks, labels, kids):
    """The former TimeTree.__post_init__ checks of a table of finite values: the parent check sorts every child id."""
    for node, (label, children) in enumerate(zip(labels, kids)):
        if (label is not None) if children else not isinstance(label, str):
            raise ParameterError("internal nodes carry no label" if children else "leaf nodes need a label string")
        if not children:
            continue
        if len(children) < 2:
            raise ParameterError("internal nodes need >= 2 children")
        if not all(0 <= k < node for k in children):
            raise ParameterError(f"node {node} has a child whose id is not below its own")
        child_marks = [marks[k] for k in children]
        if child_marks.count("s") != 1 or "r" in child_marks:
            raise ParameterError(f"children must contain exactly one 's' and otherwise 'w', got {child_marks}")
    if sorted(k for children in kids for k in children) != list(range(len(marks) - 1)):
        raise ParameterError("every node but the root, the last, needs exactly one parent")


@st.composite
def _tables(draw):
    """Small node tables, mostly well formed but for their child lists."""
    n = draw(st.integers(1, 6))
    kids = [tuple(draw(st.lists(st.integers(0, node - 1), max_size=3))) if node else () for node in range(n)]
    marks = [draw(st.sampled_from(("s", "w", "w"))) for _ in range(n - 1)] + ["r"]
    labels = [None if children else "x" for children in kids]
    return marks, [1.0] * n, labels, kids


class TestParentCheck:
    @ORACLE
    @given(table=_tables())
    def test_matches_former_sorted_list(self, table):
        marks, values, labels, kids = table
        assert (_outcome(lambda: TimeTree(marks, values, labels, kids) and None)
                == _outcome(_former_table_check, marks, labels, kids))

    @pytest.mark.parametrize("kids", [
        ((), (), (0, 1), ()),  # node 2 has no parent
        ((), (), (0, 1), (0, 1, 2)),  # nodes 0 and 1 have two
    ], ids=["none", "two"])
    def test_message(self, kids):
        labels = [None if k else "x" for k in kids]
        with pytest.raises(ParameterError, match="^every node but the root, the last, needs exactly one parent$"):
            TimeTree(["s", "w", "w", "r"], [1.0] * 4, labels, kids)

    def test_an_earlier_node_check_comes_first(self):
        # node 0 is a child of nodes 2 and 3, but node 3's children, (0, 0), hold two 's' marks: named first
        with pytest.raises(ParameterError, match="exactly one 's'"):
            TimeTree(["s", "w", "s", "r"], [1.0] * 4, ["a", "b", None, None], [(), (), (0, 1), (0, 0)])


def _former_svg_timetree(tree):
    """The former renderer: a leaf-level list and three coordinate lists of one entry per node."""
    leaf_levels = [level for node, level, entering in tree.walk() if entering and not tree.kids[node]]
    depth = max(1, max(leaf_levels))
    px, py, pw, ph = 30.0, 30.0, _W - 60.0, _H - 90.0
    slot = pw / len(leaf_levels)
    label_y, tick_y = _fmt(py + ph + 20), _fmt(py + ph + 6)
    ring = f' stroke="{_FG}" stroke-width="1"'
    n = len(tree.kids)
    xs, fxs, fys = [0.0] * n, [""] * n, [""] * n
    next_leaf = 0
    out = [_head(_W, _H, "metrical time tree")]
    for node, level, entering in tree.walk():
        if entering:
            continue
        kids = tree.kids[node]
        y = py + ph * (level / depth)
        if not kids:
            x = px + (next_leaf + 0.5) * slot
            next_leaf += 1
            fx, fy = _fmt(x), _fmt(y)
            out += [_text(fx, label_y, _escape(tree.labels[node])), _line(fx, fy, fx, tick_y, _GRID, "1")]
        else:
            x = sum(xs[kid] for kid in kids) / len(kids)
            fx, fy = _fmt(x), _fmt(y)
            out += [_line(fx, fy, fxs[kid], fys[kid], _FG, "1.2") for kid in kids]
        weight = "bold" if tree.marks[node] in ("s", "r") else "normal"
        out += [_circle(fx, fy, "8", "#ffffff", ring), _text(fx, _fmt(y + 4), _escape(tree.marks[node]), 11,
                                                             weight=weight)]
        xs[node], fxs[node], fys[node] = x, fx, fy
    return "".join(out) + "</svg>\n"


class TestTimeTreeSvg:
    @ORACLE
    @given(values=st.lists(st.sampled_from((0.1, 0.2, 0.3, 0.2 + 1e-9)), min_size=1, max_size=24),
           params=st.builds(TreeParams, st.sampled_from(("iambic", "trochaic")), st.sampled_from(("higher", "lower")),
                            st.sampled_from(("binary", "nary"))))
    def test_matches_former_renderer(self, values, params):
        tree = induce_time_tree([(f"u{k}", v) for k, v in enumerate(values)], params)
        assert svg_timetree(tree) == _former_svg_timetree(tree)


# ---------------------------------------------------------------------------
# the columnar tree against a table of tuples and the former renderers
# ---------------------------------------------------------------------------

ALL_PARAMS = [TreeParams(r, p, a) for r in ("iambic", "trochaic") for p in ("higher", "lower")
              for a in ("binary", "nary")]
# labels that SVG and JSON escape, non-ASCII text, % (the templates' own sign) and the empty string
TREE_LABELS = st.one_of(st.sampled_from(("", "&", "<", ">", '"', "a&b<c>\"d", "é", "音声", "\U0001f600", "%s", "%")),
                        st.text(max_size=3))


class TestColumnarTree:
    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: f"{p.relation}-{p.polarity}-{p.arity}")
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(pairs=st.lists(st.tuples(TREE_LABELS, st.sampled_from((0.1, 0.2, 0.3, 0.2 + 1e-9, 2.5))),
                          min_size=1, max_size=30))
    def test_matches_tuple_table_and_former_renderers(self, params, pairs):
        tree = induce_time_tree(pairs, params)
        columns = tuple(tree.marks), tuple(tree.values), tree.labels, tuple(tree.kids)
        assert repr(tree) == "TimeTree(marks=%r, values=%r, labels=%r, kids=%r)" % columns
        for twin in (TimeTree(*columns), pickle.loads(pickle.dumps(tree)), copy.copy(tree), copy.deepcopy(tree)):
            assert repr(twin) == repr(tree) and twin == tree and tree == twin and hash(twin) == hash(tree)
        svg = _former_svg_timetree(tree)
        report = _encoded({**REPORT, "sexpr": _former_to_sexpr(tree), **_former_tree_to_dict(tree)})
        # the default blocks, and blocks of 3 nodes, which split all but the smallest trees
        for nodes, block in ((svgplot._NODES, timetree._BLOCK), (3, 3)):
            with patch.object(svgplot, "_NODES", nodes), patch.object(timetree, "_BLOCK", block):
                assert svg_timetree(tree) == svg
                # the report as the CLI writes it: the rows, then the s-expression escaped piece by piece
                parts = []
                rows = {**REPORT, "nodes": _Blocks(tree_texts, tree, parts), "sexpr": lambda: _Text(parts)}
                assert "".join(_report_chunks(rows)) == report

    def test_views_read_as_tuples(self):
        tree = TimeTree(["w", "s", "r"], [1, 2, 2], ["a", "b", None], [[], [], [0, 1]])
        assert (tree.marks[-1], tree.values[1], tree.kids[2], tree.kids[-3]) == ("r", 2.0, (0, 1), ())
        assert tree.marks[:2] == ("w", "s") and list(tree.kids) == [(), (), (0, 1)] and len(tree.values) == 3
        assert tree.values == (1.0, 2.0, 2.0) and tree.values != [1.0, 2.0, 2.0] and "s" in tree.marks
        with pytest.raises(IndexError):
            tree.kids[3]
        with pytest.raises(TypeError):
            tree.values[0] = 5.0


# ---------------------------------------------------------------------------
# memory per interval
# ---------------------------------------------------------------------------

# Traced bytes per interval that cli.run may peak at, the same at 10**4 and 10**5
# intervals.  Measured on CPython 3.11: metrics 126-129 and timetree 140 (10**5) to
# 247 (10**4), with the tree in flat columns; 318-332 with a tuple per column and a
# tuple of child ids per node.  The former code peaked at 480 and 700; a Tier of
# Interval objects, at 280 and (kept alive through induction, as the former CLI kept
# it) 458.
BYTES_PER_INTERVAL = {"metrics": 200, "timetree": 300}


@pytest.fixture(scope="module")
def tiers(tmp_path_factory, annotation_memory):
    """CSV tiers of 10**4 and 10**5 intervals by size, and the long-form TextGrid of 10**5 as "long"."""
    root = tmp_path_factory.mktemp("tiers")
    paths = {}
    for key, n, form in ((10_000, 10_000, "csv"), (100_000, 100_000, "csv"), ("long", 100_000, "long")):
        paths[key] = root / (f"tier{n}.csv" if form == "csv" else f"tier{n}.TextGrid")
        annotation_memory.write_tier(paths[key], n, form)
    return paths


class TestAnnotationMemory:
    @pytest.mark.parametrize("n", [10_000, 100_000])
    @pytest.mark.parametrize("subcommand", ["metrics", "timetree"])
    def test_traced_peak_per_interval(self, tiers, tmp_path, capsys, subcommand, n):
        from prosotime import cli

        tracemalloc.start()
        try:
            assert cli.run([subcommand, str(tiers[n]), "--out-dir", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= BYTES_PER_INTERVAL[subcommand] * n, f"{peak / n:.0f} bytes per interval"

    @pytest.mark.parametrize("form", [100_000, "long"], ids=["csv", "long"])
    def test_tier_and_durations_peak_per_interval(self, tiers, form):
        """Reading the tier and its durations peaks at about 95 bytes per interval, from a CSV or a long-form TextGrid.

        An Interval per row took 280; the file decoded whole, 133 (CSV) and 238 (TextGrid).
        """
        tracemalloc.start()
        try:
            tier = load_annotation(str(tiers[form])).tiers[0]
            seq = durations(tier)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(seq) < len(tier) == 100_000
        assert peak <= 180 * 100_000, f"{peak / 100_000:.0f} bytes per interval"

    @pytest.mark.parametrize("form, parse", [("csv", parse_csv_annotation), ("long", parse_textgrid)],
                             ids=["csv", "long"])
    def test_a_str_costs_at_most_its_utf8_bytes_more_than_bytes(self, tmp_path, annotation_memory, form, parse):
        """A document as a str peaks at no more than the same bytes read plus the text's UTF-8 size.

        Read through one io.StringIO, at 4 bytes a character, the str took 245 (CSV)
        and 564 (long-form TextGrid) bytes per interval at 10**5 intervals, the bytes 96 and 88.
        """
        n = 20_000
        annotation_memory.write_tier(tmp_path / "tier", n, form)
        data = (tmp_path / "tier").read_bytes()
        peaks = []
        for doc in (data, data.decode("utf-8")):
            tracemalloc.start()
            try:
                assert len(parse(doc).tiers[0]) == n
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + len(data) + 4096, f"{peaks[1] / n:.0f} bytes per interval"

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_timetree_child_rss_per_interval(self, tiers, tmp_path, annotation_memory):
        """The peak RSS of `prosotime timetree` on 10**5 intervals, less that of importing the CLI.

        About 38.6 MB on CPython 3.11; the former code took about 80 MB, and a Tier of
        Interval objects kept alive through induction, as the former CLI kept it, 56.9 MB.
        """
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        base = annotation_memory.child_maxrss(env, ["-c", "import prosotime.cli"])
        used = annotation_memory.child_maxrss(env, ["-m", "prosotime.cli", "timetree", str(tiers[100_000]),
                                                    "--out-dir", str(tmp_path)])
        assert (used - base) * (1 << 20) <= 450 * 100_000, f"{used - base:.1f} MiB over the import"
