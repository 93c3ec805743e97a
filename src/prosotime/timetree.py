"""Metrical time trees: hierarchies of strong/weak relations over durations.

A time tree groups a valued sequence bottom-up: adjacent items are joined
into strong/weak pairs wherever the chosen relation (iambic = weak before
strong, trochaic = strong before weak) holds, the joined node inherits its
strong child's value, and the passes repeat on the shrunken sequence until
nothing more joins.  Every pass that runs performs at least one join, so at
most n - 1 passes occur for n items (a strictly descending chain of
strengths needs exactly that many).

The same machinery applied to z-scored spectrum magnitudes yields a
hierarchical segmentation of a spectrum into dominance regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Iterator

from .annot import DurationSequence
from .errors import DegenerateInputError, ParameterError

if TYPE_CHECKING:
    from .aems import Spectrum

__all__ = [
    "TimeTree",
    "TreeParams",
    "induce_time_tree",
    "induce_spectral_hierarchy",
    "to_sexpr",
    "tree_to_dict",
]

_MARKS = ("r", "s", "w")
_RELATIONS = ("iambic", "trochaic")
_POLARITIES = ("higher", "lower")
_ARITIES = ("binary", "nary")


@dataclass(frozen=True)
class TimeTree:
    """One node of a time tree.

    Leaves carry a label and the item's value; internal nodes carry >= 2
    marked children, exactly one of them strong, and the strong child's
    value as their own.  The root is marked "r", every other node "s" or
    "w".
    """

    mark: str
    value: float
    label: str | None = None
    children: tuple[TimeTree, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        object.__setattr__(self, "value", float(self.value))
        if self.mark not in _MARKS:
            raise ParameterError(f"mark must be one of {_MARKS}, got {self.mark!r}")
        if not math.isfinite(self.value):
            raise ParameterError(f"node value must be finite, got {self.value!r}")
        if self.children:
            if self.label is not None:
                raise ParameterError("internal nodes carry no label")
            if len(self.children) < 2:
                raise ParameterError("internal nodes need >= 2 children")
            marks = [c.mark for c in self.children]
            if marks.count("s") != 1 or any(m == "r" for m in marks):
                raise ParameterError(
                    f"children must contain exactly one 's' and otherwise 'w', got {marks}"
                )
        elif self.label is None:
            raise ParameterError("leaf nodes need a label")

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator[tuple[TimeTree, int, bool]]:
        """Depth-first (node, level, entering) events, left to right.

        Every node is visited twice, entering before its children and leaving
        after them, so preorder and postorder consumers share one walk.  The
        walk keeps an explicit stack: tree depth is not bounded by Python's
        recursion limit.
        """
        stack: list[tuple[TimeTree, int, bool]] = [(self, 0, True)]
        while stack:
            node, level, entering = stack.pop()
            yield node, level, entering
            if entering:
                stack.append((node, level, False))
                stack.extend((c, level + 1, True) for c in reversed(node.children))

    def leaves(self) -> tuple[TimeTree, ...]:
        """The fringe of the tree, left to right."""
        return tuple(node for node, _, entering in self.walk() if entering and node.is_leaf)


@dataclass(frozen=True)
class TreeParams:
    """Induction parameters: relation direction, value polarity and arity."""

    relation: str = "iambic"
    polarity: str = "higher"
    arity: str = "binary"

    def __post_init__(self) -> None:
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

    Induction runs on flat per-node lists indexed by node id; children always
    get smaller ids than their parent, so the TimeTree objects are built once
    at the end, in id order.
    """
    pairs = list(seq.items if isinstance(seq, DurationSequence) else seq)
    if not pairs:
        raise DegenerateInputError("cannot induce a tree over an empty sequence")

    labels: list[str | None] = [str(label) for label, _ in pairs]
    values = [float(value) for _, value in pairs]
    marks = ["w"] * len(pairs)
    kids: list[tuple[int, ...]] = [()] * len(pairs)
    sign = 1.0 if params.polarity == "higher" else -1.0
    iambic = params.relation == "iambic"
    cap = 2 if params.arity == "binary" else len(pairs)

    def join(group: list[int], s_index: int, mark: str) -> int:
        """Add a node over group (marking its children) and return its id."""
        for k, node in enumerate(group):
            marks[node] = "s" if k == s_index else "w"
        labels.append(None)
        values.append(values[group[s_index]])
        marks.append(mark)
        kids.append(tuple(group))
        return len(values) - 1

    items, joined = list(range(len(pairs))), True
    while len(items) > 1 and joined:
        out: list[int] = []
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
    else:  # several unjoinable roots: adjoin them, strongest (leftmost on ties) strong
        join(items, max(range(len(items)), key=lambda k: sign * values[items[k]]), "r")

    nodes: list[TimeTree] = []
    for mark, value, label, children in zip(marks, values, labels, kids):
        nodes.append(TimeTree(mark, value, label, tuple(nodes[k] for k in children)))
    return nodes[-1]  # the last join, or the lone leaf


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
    return induce_time_tree(labeled, replace(params, polarity="higher"))


def to_sexpr(tree: TimeTree) -> str:
    """Parenthesized rendering with r/s/w marks and leaf labels, no values.

    A bare root leaf prints as its label alone.
    """
    if tree.is_leaf and tree.mark == "r":
        return tree.label
    parts: list[str] = []
    for node, level, entering in tree.walk():
        if entering:
            gap = " " if level else ""
            parts.append(f"{gap}({node.mark} {node.label})" if node.is_leaf else f"{gap}({node.mark}")
        elif not node.is_leaf:
            parts.append(")")
    return "".join(parts)


def tree_to_dict(tree: TimeTree) -> dict:
    """JSON-ready flat form: {"nodes": [...]}, one row per node in s-expression order.

    Each row is {mark, value, parent} plus the label on leaves; parent is the
    row index of the parent node, None at the root.
    """
    rows: list[dict] = []
    path: list[int] = []  # row index of the current node's ancestors, by level
    for node, level, entering in tree.walk():
        if not entering:
            continue
        del path[level:]
        row: dict = {"mark": node.mark, "value": node.value, "parent": path[-1] if path else None}
        if node.is_leaf:
            row["label"] = node.label
        path.append(len(rows))
        rows.append(row)
    return {"nodes": rows}
