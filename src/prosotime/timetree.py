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
hierarchical segmentation of a spectrum into dominance regions.  A tree is
held as flat columns; one depth-first pass (_order) lists its nodes in
preorder or postorder with each node's level, and the report rows, the
s-expression and the SVG read that list a block of nodes at a time.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import index, not_
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

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
_R, _S, _W = b"rsw"
_RELATIONS = ("iambic", "trochaic")
_POLARITIES = ("higher", "lower")
_ARITIES = ("binary", "nary")
_BLOCK = 256  # nodes whose report rows and s-expression are formatted together
_NODE, _LEAF = ("mark", "parent", "value"), ("label", "mark", "parent", "value")  # the sorted keys of a report row
_SEXPR = {_NODE: "%s (%s", _LEAF: "%s (%s %s)"}  # a row's s-expression: the subtrees closed before it, then its own


class _View(Sequence):
    """A read-only view of a tree column: item i is get(i); it equals, hashes and prints as the tuple of its items."""

    __slots__ = ("_get", "_n")

    def __init__(self, get: Callable[[int], object], n: int) -> None:
        self._get, self._n = get, n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._get, range(self._n)[i]))
        return self._get(range(self._n)[i])

    def __iter__(self) -> Iterator:
        return map(self._get, range(self._n))

    def __eq__(self, other: object) -> bool:
        return tuple(self) == (tuple(other) if isinstance(other, _View) else other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class TimeTree(Record):
    """A time tree as a node table, indexed by node id, in flat columns.

    A node lists its children's ids left to right, each below its own id,
    and the root is the last node.  Leaves carry a label and the item's
    value; internal nodes carry no label, >= 2 marked children, exactly one
    of them strong, and the strong child's value as their own.  The root is
    marked "r", every other node "s" or "w".

    The columns are a str of one mark per node, the values in array("d"),
    the `labels` tuple (None on internal nodes), and the children of node i
    as `_children[_offsets[i]:_offsets[i + 1]]`, two arrays of ids.
    `marks`, `values` and `kids` are read-only views that index, iterate,
    compare, hash and print as the tuples the table was built from.
    """

    marks: tuple[str, ...]
    values: tuple[float, ...]
    labels: tuple[str | None, ...]
    kids: tuple[tuple[int, ...], ...]

    def __init__(self, marks: Iterable[str], values: Iterable[float], labels: Iterable[str | None],
                 kids: Iterable[Iterable[int]]) -> None:
        marks, values, labels, kids = tuple(marks), array("d", map(float, values)), tuple(labels), [*map(tuple, kids)]
        lengths = [*map(len, (marks, values, labels, kids))]
        if not marks or lengths.count(len(marks)) != 4:
            raise ParameterError(f"tree columns need one non-zero length, got {lengths}")
        for mark in marks:
            if mark not in _MARKS:
                raise ParameterError(f"mark must be one of {_MARKS}, got {mark!r}")
        children = [*map(index, chain.from_iterable(kids))]  # in an array("i") once _fault has bounded every id
        columns = ("".join(marks), values, labels, array("i", accumulate(map(len, kids), initial=0)))
        if fault := _fault(*columns, children):
            raise ParameterError(fault)
        self._fill(*columns, array("i", children))

    def _fill(self, marks: str, values: array, labels: tuple, offsets: array, children: array) -> None:
        vars(self).update(_marks=marks, _values=values, labels=labels, _offsets=offsets, _children=children)

    @property
    def marks(self) -> _View:
        return _View(self._marks.__getitem__, len(self._marks))

    @property
    def values(self) -> _View:
        return _View(self._values.__getitem__, len(self._values))

    @property
    def kids(self) -> _View:
        offsets, children = self._offsets, self._children
        return _View(lambda i: tuple(children[offsets[i]:offsets[i + 1]]), len(offsets) - 1)

    def walk(self) -> Iterator[tuple[int, int, bool]]:
        """Depth-first (node id, level, entering) events from the root, left to right.

        Every node is visited twice, entering before its children and leaving
        after them, so preorder and postorder consumers share one walk.  The
        walk keeps an explicit stack: tree depth is not bounded by Python's
        recursion limit.
        """
        offsets, children = self._offsets, self._children
        stack = [(len(offsets) - 2, 0, True)]
        while stack:
            node, level, entering = event = stack.pop()
            yield event
            if entering:
                stack.append((node, level, False))
                stack.extend((k, level + 1, True) for k in reversed(children[offsets[node]:offsets[node + 1]]))


def _nonfinite(values: array) -> str | None:
    """Why values are no node values: the first that is not finite, else None."""
    bad = next(compress(values, map(not_, map(math.isfinite, values))), None)
    return None if bad is None else f"node value must be finite, got {bad!r}"


def _fault(marks: str, values: array, labels: tuple, offsets: array, children: Sequence[int]) -> str | None:
    """Why the columns are no tree, or None; marks are r, s or w, and there are as many of them as values and labels.

    The values are checked first, then each node in id order (its label, then
    its children: at least two, ids below its own, exactly one marked 's' and
    the rest 'w'), then the parents and the root's mark.
    """
    if fault := _nonfinite(values):
        return fault
    for node, (label, a, b) in enumerate(zip(labels, offsets, islice(offsets, 1, None))):
        if a == b:
            if not isinstance(label, str):
                return "leaf nodes need a label string"
            continue
        if label is not None:
            return "internal nodes carry no label"
        if b - a < 2:
            return "internal nodes need >= 2 children"
        kids = children[a:b]
        if not (0 <= min(kids) and max(kids) < node):
            return f"node {node} has a child whose id is not below its own"
        got = "".join(map(marks.__getitem__, kids))
        if got.count("s") != 1 or "r" in got:
            return f"children must contain exactly one 's' and otherwise 'w', got {[*got]}"
    n = len(marks)
    parents = bytearray(n)  # 1 for each node seen as a child so far
    for k in children:
        if parents[k]:
            return "every node but the root, the last, needs exactly one parent"
        parents[k] = 1
    if parents.count(0) != 1:  # the root is no child (ids run below their parents'), so every other node is
        return "every node but the root, the last, needs exactly one parent"
    if marks[-1] != "r":
        return f"the root, the last node, must be marked 'r', got {marks[-1]!r}"
    return None


def _order(tree: TimeTree, preorder: bool) -> tuple[array, array]:
    """The tree's node ids in preorder (else postorder), and each node's level by id.

    One depth-first pass from the root.  For the postorder it visits each
    node's children right to left and reverses what it listed: a node then
    follows its subtree, the subtrees left to right.
    """
    offsets, children = tree._offsets, tree._children
    n = len(offsets) - 1
    order, levels = array("i"), array("i", bytes(4 * n))
    stack = [n - 1]
    while stack:
        node = stack.pop()
        order.append(node)
        a, b = offsets[node], offsets[node + 1]
        if a != b:
            kids = children[a:b]
            level = levels[node] + 1
            for k in kids:
                levels[k] = level
            if preorder:
                kids.reverse()  # the leftmost child is popped first
            stack.extend(kids)
    if not preorder:
        order.reverse()
    return order, levels


class TreeParams(Record):
    """Induction parameters: relation direction, value polarity and arity."""

    relation: str
    polarity: str
    arity: str

    def __init__(self, relation: str = "iambic", polarity: str = "higher", arity: str = "binary") -> None:
        vars(self).update(relation=relation, polarity=polarity, arity=arity)
        for name, value, allowed in zip(self._fields, self._astuple(), (_RELATIONS, _POLARITIES, _ARITIES)):
            if value not in allowed:
                raise ParameterError(f"{name} must be one of {allowed}, got {value!r}")


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
    Each join appends its node to the tree's columns, so the last is the root,
    and the tree is valid by construction once its values are finite.
    """
    labels: list[str] = []
    values = array("d")
    for label, value in seq:  # a pair at a time: a DurationSequence builds each as it is read
        labels.append(str(label))
        values.append(float(value))
    if not values:
        raise DegenerateInputError("cannot induce a tree over an empty sequence")
    if fault := _nonfinite(values):  # the one rule of a tree that induction does not guarantee
        raise ParameterError(fault)

    n = len(values)
    marks = bytearray(b"w") * n  # a node is 'w' until it is joined as the strong child or is the root
    offsets, children = array("i", bytes(4 * (n + 1))), array("i")
    prev, nxt = array("i", range(-1, n - 1)), array("i", range(1, n + 1))  # -1: no neighbour
    nxt[-1] = -1
    sign = 1.0 if params.polarity == "higher" else -1.0
    iambic = params.relation == "iambic"
    cap = 2 if params.arity == "binary" else n

    def holds(left: int, right: int) -> bool:
        a, b = sign * values[left], sign * values[right]
        return a < b if iambic else a > b

    def join(group: list[int], s_index: int, mark: int) -> int:
        """Add a node in place of group (marking its strong child) and return its id."""
        marks[group[s_index]] = _S
        values.append(values[group[s_index]])
        marks.append(mark)
        children.extend(group)
        offsets.append(len(children))
        node, before, after = len(values) - 1, prev[group[0]], nxt[group[-1]]
        prev.append(before)
        nxt.append(after)
        if before >= 0:
            nxt[before] = node
        if after >= 0:
            prev[after] = node
        return node

    # left items of the holding adjacent pairs, in sequence order
    lefts = array("i", [k for k in range(n - 1) if holds(k, k + 1)])
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
            join(group, len(group) - 1 if iambic else 0, _W)
        # new nodes lie left to right, so their pairs come out in order; a
        # pair between two new nodes is taken once, as the left one's
        lefts = array("i")
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
        marks[items[0]] = _R
    else:  # several unjoinable roots: adjoin them, strongest (leftmost on ties) strong
        join(items, max(range(len(items)), key=lambda k: sign * values[items[k]]), _R)
    del prev, nxt, items
    labels = tuple(chain(labels, repeat(None, len(values) - n)))  # the leaves come first
    return TimeTree._of(marks.decode(), values, labels, offsets, children)


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


def tree_texts(tree: TimeTree, sexpr: list[str]) -> Iterator[tuple[list[tuple[str, ...]], dict[str, list]]]:
    """The node rows of a tree's report as column blocks, read in preorder, that also write its s-expression.

    Each block of up to _BLOCK rows is (shapes, columns): each row's sorted
    keys, {mark, parent, value} plus a leaf's label, and each key's values, of
    the rows that have it, in row order.  Rows follow the s-expression; parent
    is the parent's row index, None at the root.  sexpr is emptied, then takes a
    piece of the s-expression per block before the block is read; all pieces
    joined are the s-expression: r/s/w marks and leaf labels, no values; a bare
    root leaf is its label.
    """
    order, levels = _order(tree, preorder=True)
    marks, values, labels = tree._marks, tree._values, tree.labels
    sexpr.clear()
    path = array("i", bytes(4 * (max(levels) + 1)))  # the row of the current node's ancestor at each level
    level = 0  # the level of the node before
    for start in range(0, len(order), _BLOCK):
        block = order[start:start + _BLOCK]
        shapes, leaves, parents, fields = [], [], [], []
        for row, node, node_level in zip(count(start), block, map(levels.__getitem__, block)):
            closes, level = ")" * (level - node_level), node_level  # the subtrees that end before node
            path[level] = row
            parents.append(path[level - 1] if level else None)
            if (label := labels[node]) is None:
                shapes.append(_NODE)
                fields += (closes, marks[node])
            else:
                shapes.append(_LEAF)
                leaves.append(label)
                fields += (closes, marks[node], label)
        piece = "".join(map(_SEXPR.__getitem__, shapes)) % tuple(fields)
        # the root's opening takes no space before it, and a root leaf is its label alone
        sexpr.append(piece if start else piece[1:] if len(order) > 1 else labels[0])
        yield shapes, {"label": leaves, "mark": [*map(marks.__getitem__, block)], "parent": parents,
                       "value": [*map(values.__getitem__, block)]}
    sexpr.append(")" * level)


def to_sexpr(tree: TimeTree) -> str:
    """The s-expression of tree_texts: r/s/w marks and leaf labels, no values."""
    parts: list[str] = []
    for _ in tree_texts(tree, parts):
        pass
    return "".join(parts)


def tree_to_dict(tree: TimeTree) -> dict:
    """{"nodes": [...]}, the rows of tree_texts as dicts: {mark, value, parent} plus leaf labels."""
    nodes = []
    for shapes, columns in tree_texts(tree, []):
        labels, rows = iter(columns["label"]), zip(shapes, columns["mark"], columns["parent"], columns["value"])
        nodes += [{"label": next(labels), "mark": m, "parent": p, "value": v} if shape is _LEAF else
                  {"mark": m, "parent": p, "value": v} for shape, m, p, v in rows]
    return {"nodes": nodes}
