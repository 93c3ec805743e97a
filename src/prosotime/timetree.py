"""Metrical time trees: hierarchies of strong/weak relations over durations.

A time tree groups a valued sequence bottom-up: adjacent items are joined
into strong/weak pairs wherever the chosen relation (iambic = weak before
strong, trochaic = strong before weak) holds, the joined node inherits its
strong child's value, and greedy left-to-right passes repeat on the shrunken
sequence until nothing more joins.  Values never change, so a pair that
fails once fails for good: each pass after the first looks only at the pairs
beside the nodes the pass before it made, and induction is linear in the
number of items however many passes a sequence needs.

The same machinery applied to z-scored spectrum magnitudes yields a
hierarchical segmentation of a spectrum into dominance regions.  One walk
yields a tree's report rows and writes its s-expression.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator

from ._record import Record
from .errors import DegenerateInputError, ParameterError

if TYPE_CHECKING:
    from .aems import Spectrum
    from .annot import DurationSequence

__all__ = [
    "TimeTree",
    "TreeParams",
    "induce_time_tree",
    "induce_spectral_hierarchy",
    "to_sexpr",
    "tree_to_dict",
    "tree_texts",
]

_MARKS = ("r", "s", "w")
_RELATIONS = ("iambic", "trochaic")
_POLARITIES = ("higher", "lower")
_ARITIES = ("binary", "nary")
_PARTS = 1024  # s-expression pieces that tree_texts holds before joining them


def _tuple_of(kind: type, column) -> tuple:
    """column as a tuple of kind items: itself if it is one, so that a large table is not copied."""
    if type(column) is tuple and set(map(type, column)) <= {kind}:
        return column
    return tuple(map(kind, column))


class TimeTree(Record):
    """A time tree as a node table: four parallel tuples indexed by node id.

    A node lists its children's ids left to right, each below its own id,
    and the root is the last node.  Leaves carry a label and the item's
    value; internal nodes carry no label, >= 2 marked children, exactly one
    of them strong, and the strong child's value as their own.  The root is
    marked "r", every other node "s" or "w".
    """

    marks: tuple[str, ...]
    values: tuple[float, ...]
    labels: tuple[str | None, ...]
    kids: tuple[tuple[int, ...], ...]

    def __init__(self, marks: Iterable[str], values: Iterable[float], labels: Iterable[str | None],
                 kids: Iterable[Iterable[int]]) -> None:
        columns = {"marks": tuple(marks), "values": _tuple_of(float, values),
                   "labels": tuple(labels), "kids": _tuple_of(tuple, kids)}
        vars(self).update(columns)
        marks = self.marks
        if not marks or any(len(column) != len(marks) for column in columns.values()):
            raise ParameterError(f"tree columns need one non-zero length, got {[*map(len, columns.values())]}")
        for node, (mark, value, label, children) in enumerate(zip(*columns.values())):
            if mark not in _MARKS:
                raise ParameterError(f"mark must be one of {_MARKS}, got {mark!r}")
            if not math.isfinite(value):
                raise ParameterError(f"node value must be finite, got {value!r}")
            if (label is not None) if children else not isinstance(label, str):  # a str on every leaf, None elsewhere
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
        parents = bytearray(len(marks))  # 1 for each node seen as a child so far
        for k in chain.from_iterable(self.kids):
            if parents[k]:
                raise ParameterError("every node but the root, the last, needs exactly one parent")
            parents[k] = 1
        if parents.count(0) != 1:  # the root is no child (ids run below their parents'), so every other node is
            raise ParameterError("every node but the root, the last, needs exactly one parent")
        if marks[-1] != "r":
            raise ParameterError(f"the root, the last node, must be marked 'r', got {marks[-1]!r}")

    def walk(self) -> Iterator[tuple[int, int, bool]]:
        """Depth-first (node id, level, entering) events from the root, left to right.

        Every node is visited twice, entering before its children and leaving
        after them, so preorder and postorder consumers share one walk.  The
        walk keeps an explicit stack: tree depth is not bounded by Python's
        recursion limit.
        """
        kids = self.kids
        stack = [(len(kids) - 1, 0, True)]
        while stack:
            node, level, entering = event = stack.pop()
            yield event
            if entering:
                stack.append((node, level, False))
                for k in reversed(kids[node]):
                    stack.append((k, level + 1, True))


class TreeParams(Record):
    """Induction parameters: relation direction, value polarity and arity."""

    relation: str
    polarity: str
    arity: str

    def __init__(self, relation: str = "iambic", polarity: str = "higher", arity: str = "binary") -> None:
        vars(self).update(relation=relation, polarity=polarity, arity=arity)
        if self.relation not in _RELATIONS:
            raise ParameterError(f"relation must be one of {_RELATIONS}, got {self.relation!r}")
        if self.polarity not in _POLARITIES:
            raise ParameterError(f"polarity must be one of {_POLARITIES}, got {self.polarity!r}")
        if self.arity not in _ARITIES:
            raise ParameterError(f"arity must be one of {_ARITIES}, got {self.arity!r}")


def induce_time_tree(
    seq: DurationSequence | Iterable[tuple[str, float]],
    params: TreeParams = TreeParams(),
) -> TimeTree:
    """Induce a time tree over a labeled value sequence.

    Bottom-up greedy passes join adjacent items wherever the relation holds
    under the polarity-derived strength; ties never join.  Each pass scans
    left to right and joins a maximal run of items over which the relation
    holds pairwise, capped at two items for binary arity.  Roots left over
    when no more joins are possible are adjoined under a single "r" node
    with the strongest of them strong.

    A joined node keeps its strong child's value, so after the first pass
    only the pairs beside the nodes the previous pass made can hold; each
    pass walks just those, over a doubly linked list of the current items.
    Each join appends its node to the tree's table, so the last is the root.
    """
    labels: list[str | None] = []
    values: list[float] = []
    for label, value in seq:  # a pair at a time: a DurationSequence builds each as it is read
        labels.append(str(label))
        values.append(float(value))
    if not values:
        raise DegenerateInputError("cannot induce a tree over an empty sequence")

    n = len(values)
    marks = ["w"] * n
    kids: list[tuple[int, ...]] = [()] * n
    prev, nxt = array("q", range(-1, n - 1)), array("q", range(1, n + 1))  # -1: no neighbour
    nxt[-1] = -1
    sign = 1.0 if params.polarity == "higher" else -1.0
    iambic = params.relation == "iambic"
    cap = 2 if params.arity == "binary" else n

    def holds(left: int, right: int) -> bool:
        a, b = sign * values[left], sign * values[right]
        return a < b if iambic else a > b

    def join(group: list[int], s_index: int, mark: str) -> int:
        """Add a node in place of group (marking its children) and return its id."""
        for k, node in enumerate(group):
            marks[node] = "s" if k == s_index else "w"
        labels.append(None)
        values.append(values[group[s_index]])
        marks.append(mark)
        kids.append(tuple(group))
        node, before, after = len(values) - 1, prev[group[0]], nxt[group[-1]]
        prev.append(before)
        nxt.append(after)
        if before >= 0:
            nxt[before] = node
        if after >= 0:
            prev[after] = node
        return node

    # left items of the holding adjacent pairs, in sequence order
    lefts = [k for k in range(n - 1) if holds(k, k + 1)]
    while lefts:
        first, i, m = len(values), 0, len(lefts)
        while i < m:
            group = [lefts[i], nxt[lefts[i]]]
            i += 1
            while i < m and lefts[i] == group[-1]:
                i += 1  # at the cap this pair's left item is taken: skip it
                if len(group) == cap:
                    break
                group.append(nxt[group[-1]])
            join(group, len(group) - 1 if iambic else 0, "w")
        # new nodes lie left to right, so their pairs come out in order; a
        # pair between two new nodes is taken once, as the left one's
        lefts = []
        for node in range(first, len(values)):
            before, after = prev[node], nxt[node]
            if 0 <= before < first and holds(before, node):
                lefts.append(before)
            if after >= 0 and holds(node, after):
                lefts.append(node)

    node = len(values) - 1  # the newest node is never joined, so it is current
    while prev[node] >= 0:
        node = prev[node]
    items = []
    while node >= 0:
        items.append(node)
        node = nxt[node]
    if len(items) == 1:
        marks[items[0]] = "r"
    else:  # several unjoinable roots: adjoin them, strongest (leftmost on ties) strong
        join(items, max(range(len(items)), key=lambda k: sign * values[items[k]]), "r")
    del prev, nxt, items  # freed before the table becomes the tree's tuples, a list at a time,
    marks = tuple(marks)  # which TimeTree keeps uncopied
    values = tuple(values)
    labels = tuple(labels)
    kids = tuple(kids)
    return TimeTree(marks, values, labels, kids)


def induce_spectral_hierarchy(spec: Spectrum, params: TreeParams = TreeParams()) -> TimeTree:
    """Hierarchically segment a spectrum by inducing a tree over z-scored bins.

    Bins become leaves labeled with their center frequency; magnitudes are
    z-scored first, and the polarity is forced to higher-is-stronger (a
    larger magnitude dominates).  Raises on constant spectra (zero
    variance).
    """
    from .aems import zscore  # numpy; duration trees never load it

    if len(spec) == 0:
        raise DegenerateInputError("empty spectrum")
    z = zscore(spec.magnitudes)
    labeled = [(f"{f:g}Hz", float(v)) for f, v in zip(spec.freqs, z)]
    return induce_time_tree(labeled, TreeParams(**{**params._asdict(), "polarity": "higher"}))


def tree_texts(tree: TimeTree, sexpr: list[str]) -> Iterator[dict]:
    """The node rows of a tree's report, one walk that also writes its s-expression.

    Each row is {mark, value, parent} plus a leaf's label, its keys in sorted
    order, parent being the parent's row index (None at the root), in the
    order of the s-expression.  sexpr is emptied, then takes the s-expression
    piece by piece as the rows are read; once the last row is, it holds the
    whole s-expression as its one item.  The s-expression marks nodes r/s/w
    and names leaves, without values; a bare root leaf is its label alone.
    """
    marks, values, labels, kids = tree.marks, tree.values, tree.labels, tree.kids
    sexpr.clear()
    parts: list[str] = []  # joined into sexpr every _PARTS pieces: a str per piece would outweigh the text
    path: list[int | None] = [None]  # the rows of the current node's ancestors, by level, under the root's None parent
    n = 0
    for node, level, entering in tree.walk():
        if not entering:
            if kids[node]:
                parts.append(")")
            continue
        del path[level + 1 :]
        mark, gap = marks[node], " " if level else ""
        if kids[node]:
            parts.append(f"{gap}({mark}")
            yield {"mark": mark, "parent": path[-1], "value": values[node]}
        else:
            parts.append(f"{gap}({mark} {labels[node]})")
            yield {"label": labels[node], "mark": mark, "parent": path[-1], "value": values[node]}
        path.append(n)
        n += 1
        if len(parts) >= _PARTS:
            sexpr.append("".join(parts))
            parts.clear()
    sexpr[:] = ["".join([*sexpr, *parts]) if kids[-1] else labels[-1]]


def to_sexpr(tree: TimeTree) -> str:
    """The s-expression of tree_texts: r/s/w marks and leaf labels, no values."""
    parts: list[str] = []
    for _ in tree_texts(tree, parts):
        pass
    return "".join(parts)


def tree_to_dict(tree: TimeTree) -> dict:
    """{"nodes": [...]}, the rows of tree_texts: {mark, value, parent} plus leaf labels."""
    return {"nodes": list(tree_texts(tree, []))}
