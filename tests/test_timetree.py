"""Metrical tree induction from labeled durations and from spectra."""

import json
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosotime import (
    DegenerateInputError,
    DurationSequence,
    ParameterError,
    Spectrum,
    TimeTree,
    TreeParams,
    induce_spectral_hierarchy,
    induce_time_tree,
    to_sexpr,
    tree_to_dict,
)
from prosotime.cli import _Blocks, _report_chunks
from prosotime.timetree import _fault, tree_texts

IAMBIC_LOWER = TreeParams(relation="iambic", polarity="lower")
_ALL_PARAMS = [TreeParams(r, p, a) for r in ("iambic", "trochaic") for p in ("higher", "lower") for a in ("binary", "nary")]
TROCHAIC_LOWER = TreeParams(relation="trochaic", polarity="lower")


class TestReferenceTrees:
    def test_iambic_reference_sentence(self):
        seq = [("miss", 3.0), ("jones", 2.0), ("came", 3.0), ("home", 1.0)]
        tree = induce_time_tree(seq, IAMBIC_LOWER)
        assert to_sexpr(tree) == "(r (w (w miss) (s jones)) (s (w came) (s home)))"

    def test_trochaic_reference_compound(self):
        seq = [("light", 1.0), ("house", 3.0), ("keep", 2.0), ("er", 3.0)]
        tree = induce_time_tree(seq, TROCHAIC_LOWER)
        assert to_sexpr(tree) == "(r (s (s light) (w house)) (w (s keep) (w er)))"

    def test_single_leaf_prints_bare(self):
        assert to_sexpr(induce_time_tree([("x", 1.0)])) == "x"

    def test_all_ties_adjoin_flat(self):
        tree = induce_time_tree([("a", 2.0), ("b", 2.0), ("c", 2.0)])
        assert to_sexpr(tree) == "(r (s a) (w b) (w c))"


class TestJoinRules:
    def test_iambic_joins_rising_pairs(self):
        # higher polarity: strength = value; iambic joins when s(i) < s(i+1)
        tree = induce_time_tree([("a", 1.0), ("b", 2.0)], TreeParams("iambic", "higher"))
        assert to_sexpr(tree) == "(r (w a) (s b))"

    def test_trochaic_joins_falling_pairs(self):
        tree = induce_time_tree([("a", 2.0), ("b", 1.0)], TreeParams("trochaic", "higher"))
        assert to_sexpr(tree) == "(r (s a) (w b))"

    def test_polarity_flips_strength(self):
        seq = [("a", 1.0), ("b", 2.0)]
        hi = induce_time_tree(seq, TreeParams("iambic", "higher"))
        lo = induce_time_tree(seq, TreeParams("trochaic", "lower"))
        assert to_sexpr(hi) == "(r (w a) (s b))"
        assert to_sexpr(lo) == "(r (s a) (w b))"

    def test_equal_values_never_join_pairwise(self):
        tree = induce_time_tree([("a", 1.0), ("b", 1.0)])
        # no iambic join possible: both become children of the adjoined root
        assert to_sexpr(tree) == "(r (s a) (w b))"

    def test_node_value_is_strong_childs(self):
        tree = induce_time_tree([("a", 1.0), ("b", 2.0)], TreeParams("iambic", "higher"))
        assert tree.values[-1] == 2.0

    def test_worst_case_chain_needs_linear_passes(self):
        # strictly rising tail after a falling head: each pass joins only the
        # rightmost available pair, so n-1 passes are required
        seq = [("i0", 1.0), ("i1", 2.0), ("i2", 3.0), ("i3", 4.0), ("i4", 5.0), ("i5", 0.0)]
        tree = induce_time_tree(seq, IAMBIC_LOWER)
        assert to_sexpr(tree) == (
            "(r (w i0) (s (w i1) (s (w i2) (s (w i3) (s (w i4) (s i5))))))"
        )


class TestNaryMode:
    def test_monotone_run_joins_at_once(self):
        params = TreeParams("iambic", "higher", arity="nary")
        tree = induce_time_tree([("a", 1.0), ("b", 2.0), ("c", 3.0)], params)
        assert to_sexpr(tree) == "(r (w a) (w b) (s c))"

    def test_trochaic_nary_strong_first(self):
        params = TreeParams("trochaic", "higher", arity="nary")
        tree = induce_time_tree([("a", 3.0), ("b", 2.0), ("c", 1.0)], params)
        assert to_sexpr(tree) == "(r (s a) (w b) (w c))"


def _fringe(tree):
    """Leaf labels, left to right."""
    return [tree.labels[node] for node, _, entering in tree.walk() if entering and not tree.kids[node]]


class TestStructuralInvariants:
    @staticmethod
    def _check(tree):
        for node, children in enumerate(tree.kids):
            if not children:
                assert tree.labels[node] is not None
                continue
            s_children = [k for k in children if tree.marks[k] == "s"]
            assert len(s_children) == 1
            assert tree.values[node] == tree.values[s_children[0]]
            for k in children:
                assert tree.marks[k] in ("s", "w")

    def test_random_trees_keep_fringe_and_marks(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            labels = [f"u{i}" for i in range(n)]
            values = rng.uniform(0.1, 3.0, n).round(3)
            relation = str(rng.choice(["iambic", "trochaic"]))
            polarity = str(rng.choice(["higher", "lower"]))
            arity = str(rng.choice(["binary", "nary"]))
            seq = list(zip(labels, values))
            tree = induce_time_tree(seq, TreeParams(relation, polarity, arity))
            assert tree.marks[-1] == "r"
            assert _fringe(tree) == labels
            self._check(tree)

    def test_empty_sequence_rejected(self):
        with pytest.raises(DegenerateInputError):
            induce_time_tree([])

    @pytest.mark.parametrize("values, bad", [([1.0, math.nan, 2.0], "nan"), ([math.inf, 1.0], "inf"),
                                             ([1.0, 2.0, -math.inf, math.nan], "-inf")])
    def test_a_value_that_is_not_finite_is_refused(self, values, bad):
        with pytest.raises(ParameterError, match=f"^node value must be finite, got {bad}$"):
            induce_time_tree([(f"u{k}", v) for k, v in enumerate(values)])

    def test_bad_relation_rejected(self):
        with pytest.raises(ParameterError):
            TreeParams(relation="spondaic")

    def test_hand_built_table_equals_induced(self):
        table = TimeTree(["w", "s", "r"], [1, 2, 2], ["a", "b", None], [[], [], [0, 1]])
        assert table == induce_time_tree([("a", 1.0), ("b", 2.0)], TreeParams("iambic", "higher"))
        assert table.values == (1.0, 2.0, 2.0) and table.kids == ((), (), (0, 1))

    def test_tree_node_validation(self):
        # malformed tables, at least one per rule, each with the words its error must carry
        for name, table, message in _MALFORMED_TABLES:
            with pytest.raises(ParameterError, match=message):
                TimeTree(*table)
                pytest.fail(f"{name} table accepted")

    @pytest.mark.parametrize("mark", ["s", "w"])
    def test_root_not_marked_r_is_refused(self, mark):
        with pytest.raises(ParameterError, match=f"^the root, the last node, must be marked 'r', got '{mark}'$"):
            TimeTree((mark,), (1.0,), ("x",), ((),))
        # a well-formed table but for its root's mark
        with pytest.raises(ParameterError, match=f"got '{mark}'$"):
            TimeTree(("w", "s", mark), (1.0, 2.0, 2.0), ("a", "b", None), ((), (), (0, 1)))


# (case, (marks, values, labels, kids), error text); a valid table is
# (("w", "s", "r"), (1.0, 2.0, 2.0), ("a", "b", None), ((), (), (0, 1)))
_MALFORMED_TABLES = [
    ("empty", ((), (), (), ()), "one non-zero length"),
    ("short values", (("w", "s", "r"), (1.0, 2.0), ("a", "b", None), ((), (), (0, 1))), "one non-zero length"),
    ("short kids", (("w", "s", "r"), (1.0, 2.0, 2.0), ("a", "b", None), ((), ())), "one non-zero length"),
    ("bad mark", (("q",), (1.0,), ("x",), ((),)), "mark must be one of"),
    ("nan value", (("r",), (math.nan,), ("x",), ((),)), "must be finite"),
    ("inf value", (("w", "s", "r"), (1.0, math.inf, math.inf), ("a", "b", None), ((), (), (0, 1))), "must be finite"),
    ("labelled internal", (("w", "s", "r"), (1.0, 2.0, 2.0), ("a", "b", "ab"), ((), (), (0, 1))), "carry no label"),
    ("unlabelled leaf", (("w", "s", "r"), (1.0, 2.0, 2.0), ("a", None, None), ((), (), (0, 1))), "need a label"),
    ("non-string label", (("w", "s", "r"), (1.0, 2.0, 2.0), ("a", 7, None), ((), (), (0, 1))), "need a label"),
    ("one child", (("s", "r"), (1.0, 1.0), ("a", None), ((), (0,))), ">= 2 children"),
    ("own child", (("w", "s", "r"), (1.0, 2.0, 2.0), ("a", "b", None), ((), (), (0, 2))), "not below its own"),
    ("negative child", (("w", "s", "r"), (1.0, 2.0, 2.0), ("a", "b", None), ((), (), (-1, 1))), "not below its own"),
    ("child above", (("r", "s", "w"), (2.0, 2.0, 1.0), (None, "b", "a"), ((1, 2), (), ())), "not below its own"),
    ("two strong", (("s", "s", "r"), (1.0, 2.0, 2.0), ("a", "b", None), ((), (), (0, 1))), "exactly one 's'"),
    ("no strong", (("w", "w", "r"), (1.0, 2.0, 2.0), ("a", "b", None), ((), (), (0, 1))), "exactly one 's'"),
    ("root child", (("r", "s", "r"), (1.0, 2.0, 2.0), ("a", "b", None), ((), (), (0, 1))), "exactly one 's'"),
    ("two parents", (("s", "w", "w", "r"), (1.0, 1.0, 1.0, 1.0), ("a", "b", None, None), ((), (), (0, 1), (2, 0))),
     "exactly one parent"),
    ("orphan", (("w", "s", "w", "r"), (1.0, 2.0, 1.0, 2.0), ("a", "b", "c", None), ((), (), (), (0, 1))),
     "exactly one parent"),
]


class TestSpectralHierarchy:
    def test_descending_bins_trochaic(self):
        spec = Spectrum(1.0, np.array([9.0, 7.0, 5.0, 3.0]), 3.0, {})
        tree = induce_spectral_hierarchy(spec, TreeParams("trochaic", "higher"))
        assert to_sexpr(tree) == "(r (s (s 0Hz) (w 1Hz)) (w (s 2Hz) (w 3Hz)))"

    def test_two_peak_spectrum_marks_peaks_strong(self):
        mags = np.array([1.0, 2.0, 9.0, 4.0, 3.0, 2.5, 3.5, 8.0, 2.2, 1.2])
        spec = Spectrum(1.0, mags, 9.0, {})
        tree = induce_spectral_hierarchy(spec, TreeParams("trochaic", "higher"))
        strong_leaves = _strong_path_leaves(tree)
        assert "2Hz" in strong_leaves and "7Hz" in strong_leaves

    def test_polarity_forced_higher(self):
        spec = Spectrum(1.0, np.array([1.0, 2.0, 3.0]), 2.0, {})
        a = induce_spectral_hierarchy(spec, TreeParams("iambic", "lower"))
        b = induce_spectral_hierarchy(spec, TreeParams("iambic", "higher"))
        assert to_sexpr(a) == to_sexpr(b)

    def test_constant_spectrum_rejected(self):
        spec = Spectrum(1.0, np.full(5, 2.0), 4.0, {})
        with pytest.raises(DegenerateInputError):
            induce_spectral_hierarchy(spec)


def _strong_path_leaves(tree):
    """Labels of leaves reachable from some node by a strong-marked child."""
    return {tree.labels[k] for children in tree.kids for k in children if tree.marks[k] == "s" and not tree.kids[k]}


class TestSerialization:
    def test_dict_shape(self):
        tree = induce_time_tree([("a", 1.0), ("b", 2.0)], TreeParams("iambic", "higher"))
        assert tree_to_dict(tree) == {
            "nodes": [
                {"mark": "r", "value": 2.0, "parent": None},
                {"mark": "w", "value": 1.0, "parent": 0, "label": "a"},
                {"mark": "s", "value": 2.0, "parent": 0, "label": "b"},
            ]
        }

    def test_nodes_follow_sexpr_order(self):
        seq = [("miss", 3.0), ("jones", 2.0), ("came", 3.0), ("home", 1.0)]
        nodes = tree_to_dict(induce_time_tree(seq, IAMBIC_LOWER))["nodes"]
        assert [(n["mark"], n["parent"], n.get("label")) for n in nodes] == [
            ("r", None, None),
            ("w", 0, None), ("w", 1, "miss"), ("s", 1, "jones"),
            ("s", 0, None), ("w", 4, "came"), ("s", 4, "home"),
        ]

    def test_single_leaf_is_one_row(self):
        assert tree_to_dict(induce_time_tree([("x", 1.5)])) == {
            "nodes": [{"mark": "r", "value": 1.5, "parent": None, "label": "x"}]
        }

    def test_sexpr_deterministic(self):
        seq = [("a", 1.0), ("b", 2.0), ("c", 1.5)]
        assert to_sexpr(induce_time_tree(seq)) == to_sexpr(induce_time_tree(seq))


# ---------------------------------------------------------------------------
# oracle: the former pass-based induction and recursive serializers, over a
# node-object tree of their own
# ---------------------------------------------------------------------------


class _Node(NamedTuple):
    mark: str
    value: float
    label: str | None = None
    children: tuple = ()

    @property
    def is_leaf(self):
        return not self.children


def _as_nodes(tree):
    """The node objects of a table, built in id order; the root is the last."""
    nodes = []
    for mark, value, label, children in zip(tree.marks, tree.values, tree.labels, tree.kids):
        nodes.append(_Node(mark, value, label, tuple(nodes[k] for k in children)))
    return nodes[-1]


def _as_table(root):
    """The table of a node-object tree, children numbered first; no recursion."""
    columns, finished, stack = ([], [], [], []), [], [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children))
            continue
        first = len(finished) - len(node.children)
        children = tuple(finished[first:])
        del finished[first:]
        for column, item in zip(columns, (node.mark, node.value, node.label, children)):
            column.append(item)
        finished.append(len(columns[0]) - 1)
    return TimeTree(*columns)


def _oracle_strength(node, polarity):
    return node.value if polarity == "higher" else -node.value


def _oracle_join(group, relation):
    s_index = len(group) - 1 if relation == "iambic" else 0
    children = tuple(
        _Node("s" if k == s_index else "w", node.value, node.label, node.children)
        for k, node in enumerate(group)
    )
    return _Node(mark="w", value=group[s_index].value, children=children)


def _oracle_pass(items, relation, polarity, arity):
    """One greedy left-to-right pass: pairs (binary) or maximal monotone runs (nary)."""
    out, joined, i, n = [], False, 0, len(items)
    while i < n:
        j = i
        while j + 1 < n and (arity == "nary" or j == i):
            a, b = _oracle_strength(items[j], polarity), _oracle_strength(items[j + 1], polarity)
            if not (a < b if relation == "iambic" else a > b):
                break
            j += 1
        if j > i:
            out.append(_oracle_join(items[i : j + 1], relation))
            joined = True
        else:
            out.append(items[i])
        i = j + 1
    return out, joined


def _oracle_induce(pairs, params):
    items = [_Node("w", float(value), str(label)) for label, value in pairs]
    while len(items) > 1:
        items, joined = _oracle_pass(items, params.relation, params.polarity, params.arity)
        if not joined:
            break
    if len(items) == 1:
        only = items[0]
        return _Node("r", only.value, only.label, only.children)
    strengths = [_oracle_strength(node, params.polarity) for node in items]
    s_index = strengths.index(max(strengths))
    children = tuple(
        _Node("s" if k == s_index else "w", node.value, node.label, node.children)
        for k, node in enumerate(items)
    )
    return _Node("r", items[s_index].value, children=children)


def _oracle_sexpr(tree):
    if tree.is_leaf:
        return tree.label if tree.mark == "r" else f"({tree.mark} {tree.label})"
    return f"({tree.mark} {' '.join(_oracle_sexpr(c) for c in tree.children)})"


def _oracle_preorder(tree):
    rows = [(tree.mark, tree.value, tree.label)]
    for child in tree.children:
        rows.extend(_oracle_preorder(child))
    return rows


def _oracle_flat_induce(pairs, params):
    """The former flat induction: every pass rescans the whole current sequence."""
    labels = [str(label) for label, _ in pairs]
    values = [float(value) for _, value in pairs]
    marks = ["w"] * len(pairs)
    kids = [()] * len(pairs)
    sign = 1.0 if params.polarity == "higher" else -1.0
    iambic = params.relation == "iambic"
    cap = 2 if params.arity == "binary" else len(pairs)

    def join(group, s_index, mark):
        for k, node in enumerate(group):
            marks[node] = "s" if k == s_index else "w"
        labels.append(None)
        values.append(values[group[s_index]])
        marks.append(mark)
        kids.append(tuple(group))
        return len(values) - 1

    items, joined = list(range(len(pairs))), True
    while len(items) > 1 and joined:
        out = []
        joined, i, n = False, 0, len(items)
        while i < n:
            j = i
            while j + 1 < n and j + 1 - i < cap:
                a, b = sign * values[items[j]], sign * values[items[j + 1]]
                if not (a < b if iambic else a > b):
                    break
                j += 1
            if j > i:
                out.append(join(items[i : j + 1], j - i if iambic else 0, "w"))
                joined = True
            else:
                out.append(items[i])
            i = j + 1
        items = out

    if len(items) == 1:
        marks[items[0]] = "r"
    else:
        join(items, max(range(len(items)), key=lambda k: sign * values[items[k]]), "r")

    return TimeTree(marks, values, labels, kids)


def _assert_matches_oracles(values, params):
    pairs = [(f"u{i}", v) for i, v in enumerate(values)]
    got = induce_time_tree(pairs, params)
    want, flat = _oracle_induce(pairs, params), _oracle_flat_induce(pairs, params)
    assert to_sexpr(got) == _oracle_sexpr(want) == _oracle_sexpr(_as_nodes(got)) == to_sexpr(flat)
    assert to_sexpr(_as_table(want)) == to_sexpr(got)
    rows = [(r["mark"], r["value"], r.get("label")) for r in tree_to_dict(got)["nodes"]]
    assert rows == _oracle_preorder(want) == _oracle_preorder(_as_nodes(flat))
    # induction builds its trees unchecked: each one, under every parameter set and over a spectrum, is a valid table
    trees = [induce_time_tree(pairs, p) for p in _ALL_PARAMS]
    if len(set(values)) > 1:  # a spectrum of constant magnitudes has no z-scores
        trees.append(induce_spectral_hierarchy(Spectrum(1.0, np.array(values) - min(values), 1.0), params))
    assert [_fault(t._marks, t._values, t.labels, t._offsets, t._children) for t in trees] == [None] * len(trees)


def _runs(spec):
    """Values rising or falling by a step over each (rising, length, step) run."""
    values, v = [], 0.0
    for rising, length, step in spec:
        for _ in range(length):
            v += step if rising else -step
            values.append(v)
    return values


_TIE_HEAVY = st.lists(st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.0]), min_size=1, max_size=24)
_SPREAD = st.lists(st.floats(0.01, 5.0, allow_nan=False), min_size=1, max_size=24)
_SHORT = st.one_of(
    st.lists(st.sampled_from([1.0, 2.0]), min_size=1, max_size=2),
    st.builds(lambda v, n: [v] * n, st.sampled_from([0.5, 2.0]), st.integers(1, 24)),
)
# up to 300 items in rising and falling runs: long chains take many passes
_RUNS = st.lists(
    st.tuples(st.booleans(), st.integers(1, 30), st.sampled_from([0.25, 1.0, 2.5])),
    min_size=1, max_size=10,
).map(_runs)
_PARAMS = st.builds(
    TreeParams,
    relation=st.sampled_from(["iambic", "trochaic"]),
    polarity=st.sampled_from(["higher", "lower"]),
    arity=st.sampled_from(["binary", "nary"]),
)


class TestInductionOracle:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(values=st.one_of(_TIE_HEAVY, _SPREAD), params=_PARAMS)
    def test_matches_pass_based_induction(self, values, params):
        _assert_matches_oracles(values, params)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(values=_SHORT, params=_PARAMS)
    def test_short_and_all_equal_sequences(self, values, params):
        _assert_matches_oracles(values, params)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(values=_RUNS, params=_PARAMS)
    def test_rising_and_falling_runs(self, values, params):
        _assert_matches_oracles(values, params)

    def test_rising_chain_matches_both_oracles(self):
        # rising durations closed by the shortest: 1 999 passes of one join each
        n = 2000
        pairs = [(f"c{k}", 0.001 * (k + 2)) for k in range(n - 1)] + [(f"c{n - 1}", 0.001)]
        got = to_sexpr(induce_time_tree(pairs, IAMBIC_LOWER))
        assert got == to_sexpr(_oracle_flat_induce(pairs, IAMBIC_LOWER))
        assert got == to_sexpr(_as_table(_oracle_induce(pairs, IAMBIC_LOWER)))
        assert got.endswith(f"(s c{n - 1})" + ")" * (n - 1))


class TestStackSafety:
    DEPTH = 50_000

    def test_deep_right_branching_tree(self):
        # leaf x{DEPTH}, then for k = DEPTH-1 .. 0 the weak leaf x{k} and its
        # parent, which joins it to the node before; the last parent is the root
        marks, values, labels, kids = ["s"], [1.0], [f"x{self.DEPTH}"], [()]
        for k in range(self.DEPTH - 1, -1, -1):
            node = len(marks)
            marks += ["w", "s" if k else "r"]
            values += [2.0, 1.0]
            labels += [f"x{k}", None]
            kids += [(), (node, node - 1)]
        tree = TimeTree(marks, values, labels, kids)
        assert to_sexpr(tree).endswith(f"(s x{self.DEPTH})" + ")" * self.DEPTH)
        assert _fringe(tree) == [f"x{k}" for k in range(self.DEPTH + 1)]
        text = json.dumps(tree_to_dict(tree), indent=2)
        assert len(json.loads(text)["nodes"]) == 2 * self.DEPTH + 1
        from prosotime.svgplot import svg_timetree

        assert svg_timetree(tree).count("<circle") == 2 * self.DEPTH + 1


# ---------------------------------------------------------------------------
# oracle: the former serializers, two walks and then json's encoder
# ---------------------------------------------------------------------------


def _former_to_sexpr(tree):
    marks, labels, kids = tree.marks, tree.labels, tree.kids
    if not kids[-1] and marks[-1] == "r":
        return labels[-1]
    parts = []
    for node, level, entering in tree.walk():
        if entering:
            gap = " " if level else ""
            parts.append(f"{gap}({marks[node]}" if kids[node] else f"{gap}({marks[node]} {labels[node]})")
        elif kids[node]:
            parts.append(")")
    return "".join(parts)


def _former_tree_to_dict(tree):
    marks, values, labels, kids = tree.marks, tree.values, tree.labels, tree.kids
    rows = []
    path = []  # row index of the current node's ancestors, by level
    for node, level, entering in tree.walk():
        if not entering:
            continue
        del path[level:]
        row = {"mark": marks[node], "value": values[node], "parent": path[-1] if path else None}
        if not kids[node]:
            row["label"] = labels[node]
        path.append(len(rows))
        rows.append(row)
    return {"nodes": rows}


def _encoded(report):
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _lazy_tree_report(report, tree):
    """The report with the tree's rows and s-expression as the CLI gives them: lazy, from one walk."""
    parts = []
    return "".join(_report_chunks({**report, "nodes": _Blocks(tree_texts, tree, parts),
                                   "sexpr": lambda: "".join(parts)}))


# labels a JSON string must escape, and the characters an s-expression uses
HOSTILE = ("é", "音声", "\U0001f600", '"', "\\", "\\u0041", "\x00", "\t\n\r", "\x1f\x7f\x80", "\u2028",
           "\ud800", "\udfff", "\udbff\udc00x", "(s a)", " ", "", "null", "0")
_LABELS = st.one_of(st.sampled_from(HOSTILE),
                    st.text(st.characters(blacklist_categories=()), max_size=4))
_VALUES = st.one_of(st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300),
                    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308, 0.1, 1.0]))
_ONE_NODE = st.builds(lambda value, label: TimeTree(("r",), (value,), (label,), ((),)), _VALUES, _LABELS)
REPORT = {"input": "in.csv", "n": 3, "params": {"arity": "nary"}, "subcommand": "timetree", "tier": "t"}


class TestOnePassReport:
    """tree_texts through the report writer against the former serializers and the json encoder, byte for byte."""

    @pytest.mark.parametrize("params", [TreeParams(r, p, a) for r in ("iambic", "trochaic")
                                        for p in ("higher", "lower") for a in ("binary", "nary")],
                             ids=lambda p: f"{p.relation}-{p.polarity}-{p.arity}")
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(pairs=st.lists(st.tuples(_LABELS, _VALUES), min_size=1, max_size=30), one=_ONE_NODE,
           bare=st.booleans())
    def test_matches_encoder_over_former_serializers(self, params, pairs, one, bare):
        # a one-node table covers the bare-root-leaf rule: a root leaf prints bare
        tree = one if bare else induce_time_tree(pairs, params)
        want = {"sexpr": _former_to_sexpr(tree), **_former_tree_to_dict(tree)}
        assert _lazy_tree_report(REPORT, tree) == _encoded({**REPORT, **want})
        assert to_sexpr(tree) == want["sexpr"]
        assert tree_to_dict(tree) == {"nodes": want["nodes"]}

    @pytest.mark.parametrize("mark, sexpr", [("r", "x y")])  # a root marked s or w is refused
    def test_only_a_root_leaf_marked_r_prints_bare(self, mark, sexpr):
        assert to_sexpr(TimeTree((mark,), (1.0,), ("x y",), ((),))) == sexpr

    @pytest.mark.parametrize("n", [1, 2, 3, 1000])
    def test_chain_report(self, n):
        pairs = [(f"c{k}", 0.05 + 1e-4 * k) for k in range(n)] + [("end", 0.01)]
        tree = induce_time_tree(pairs, IAMBIC_LOWER)
        assert _lazy_tree_report({}, tree) == _encoded({"sexpr": _former_to_sexpr(tree), **_former_tree_to_dict(tree)})

    def test_second_render_walks_again(self):
        tree = induce_time_tree([("a", 1.0), ("b", 2.0), ("c", 0.5)])
        parts = []
        report = {"nodes": _Blocks(tree_texts, tree, parts), "sexpr": lambda: "".join(parts)}
        first = "".join(_report_chunks(report))
        assert "".join(_report_chunks(report)) == first == _encoded(
            {"sexpr": to_sexpr(tree), **tree_to_dict(tree)})
