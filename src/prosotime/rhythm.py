"""Duration-dispersion metrics and quadrant analysis of interval sequences.

The five classic dispersion metrics (variance, PIM, PFD, raw and normalised
PVI) measure how unevenly durations are spread without regard to order
beyond adjacency; the quadrant analysis maps successive z-scored duration
pairs into long/short quadrants to expose alternation patterns that the
dispersion metrics factor out.

Everything here is plain Python over one array("d") column of durations (a
DurationSequence's own, uncopied), so a tier of 10**6 intervals costs 8 bytes
per duration and needs no numpy: `math.fsum` gives correctly rounded sums,
which makes each metric independent of the order of its terms.  The quadrant
analysis keeps its z-scores as one column too, tallies their quadrants once,
and yields its points and their quadrants as they are read.
"""

from __future__ import annotations

import math
from array import array
from functools import wraps
from itertools import chain
from typing import Callable, Iterable, Iterator

from ._record import Record
from .annot import DurationSequence, T, _readonly
from .errors import DegenerateInputError, ParameterError

__all__ = [
    "QuadrantStats",
    "variance",
    "pim",
    "pfd",
    "rpvi",
    "npvi",
    "quadrant_analysis",
    "metrics_report",
    "quadrant_to_csv",
    "quadrant_csv_chunks",
]


def _on_durations(body: Callable[[array], T]) -> Callable[[DurationSequence | Iterable[float]], T]:
    """body, a function of finite durations in an array("d"), as one of a DurationSequence or of numbers.

    A DurationSequence gives its own column unscanned, its durations being finite and > 0; other input is
    coerced (an array("d") is not copied) and scanned once.  body stays callable as `__wrapped__`.
    """
    @wraps(body)
    def public(xs: DurationSequence | Iterable[float]) -> T:
        if isinstance(xs, DurationSequence):
            return body(xs._values)
        try:
            values = xs if isinstance(xs, array) and xs.typecode == "d" else array("d", map(float, xs))
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"expected a 1-D sequence of numbers: {exc}") from None
        if not all(map(math.isfinite, values)):
            raise ParameterError("durations must be finite")
        return body(values)
    return public


def _total(values: Iterable[float], what: str = "durations") -> float:
    try:
        total = math.fsum(values)
    except OverflowError:
        total = math.inf
    if math.isinf(total):  # an infinite term (a square that overflowed) gives inf
        raise ParameterError(f"{what} sum beyond the float range")
    return total


def _moments(values: array) -> tuple[float, float]:
    """(mean, sample variance) of the durations; constant durations give (values[0], 0.0)."""
    if len(values) < 2:
        raise DegenerateInputError(f"variance needs >= 2 items, got {len(values)}")
    if max(values) == min(values):  # constant input is exactly zero; a rounded mean could leak an ulp
        return values[0], 0.0
    mean = _total(values) / len(values)
    squares = _total(((x - mean) * (x - mean) for x in values), "squared deviations of the durations")
    return mean, squares / (len(values) - 1)


@_on_durations
def variance(values: array) -> float:
    """Sample variance (n-1 denominator) of the durations."""
    return _moments(values)[1]


@_on_durations
def pim(values: array) -> float:
    """Pairwise Irregularity Measure: sum of |ln(x_i/x_j)| over ordered pairs i != j.

    Natural logarithm; a different base would only rescale the measure.
    Computed in O(n log n) from the sorted logs: the gap between the k-th and
    (k+1)-th smallest (k = 1..n-1) lies between k * (n - k) unordered pairs.
    Summing non-negative gaps keeps constant input at exactly zero.
    """
    n = len(values)
    if n < 2:
        raise DegenerateInputError(f"pim needs >= 2 items, got {n}")
    if min(values) <= 0:
        raise ParameterError("pim needs strictly positive durations")
    logs = sorted(map(math.log, values))
    gaps = ((hi - lo) * (k * (n - k)) for k, (lo, hi) in enumerate(zip(logs, logs[1:]), 1))
    return 2.0 * math.fsum(gaps)  # both orders counted


@_on_durations
def pfd(values: array) -> float:
    """Percentage Foot Deviation: 100 * sum |x_i - mean| / sum x_j."""
    if len(values) == 0:
        raise DegenerateInputError("pfd needs a non-empty sequence")
    total = _total(values)
    if total <= 0:
        raise ParameterError(f"pfd needs a positive total duration, got {total}")
    if max(values) == min(values):
        return 0.0
    mean = total / len(values)
    return 100.0 * math.fsum(abs(x - mean) for x in values) / total


@_on_durations
def rpvi(values: array) -> float:
    """Raw Pairwise Variability Index: mean absolute successive difference."""
    if len(values) < 2:
        raise DegenerateInputError(f"rpvi needs >= 2 items, got {len(values)}")
    return math.fsum(abs(a - b) for a, b in zip(values, values[1:])) / (len(values) - 1)


@_on_durations
def npvi(values: array) -> float:
    """Normalised Pairwise Variability Index, as a percentage.

    Each successive difference is normalised by the pair mean, which cancels
    any common scale factor (and with it, tempo).
    """
    if len(values) < 2:
        raise DegenerateInputError(f"npvi needs >= 2 items, got {len(values)}")
    if min(values) <= 0:
        raise ParameterError("npvi needs strictly positive durations")
    terms = (abs(a - b) / ((a + b) / 2.0) for a, b in zip(values, values[1:]))
    return 100.0 * math.fsum(terms) / (len(values) - 1)


# ---------------------------------------------------------------------------
# quadrant analysis
# ---------------------------------------------------------------------------

_QUADRANT_NAMES = ("LL", "SS", "LS", "SL", "origin")


def _classify(z_i: float, z_next: float) -> int:
    """Quadrant of one successive z-score pair as an index into _QUADRANT_NAMES; exact zeros are "origin"."""
    if z_i == 0.0 or z_next == 0.0:
        return 4
    if z_i > 0 and z_next > 0:
        return 0
    if z_i < 0 and z_next < 0:
        return 1
    if z_i > 0 and z_next < 0:
        return 2
    return 3


def _count(name: str) -> property:
    return property(lambda self: self.counts[name], doc=f"Number of {name} pairs.")


class QuadrantStats(Record):
    """Successive z-scored duration pairs and the quadrant of each.

    LL = both long (z > 0), SS = both short, LS = long then short,
    SL = short then long; pairs with a coordinate exactly at zero are
    counted separately as `origin`.  The alternation index LL/SS is
    present only when SS > 0.

    The points are held as two read-only columns, `z_i` and `z_next`, and
    their quadrants are classified once, into a byte each; `points` and
    `quadrants` build their tuples when asked, and `rows()` yields each point
    with its quadrant as read.  quadrant_analysis builds the stats with
    QuadrantStats._of over two views of one z-score column.  The stats are
    immutable, and compare, hash, print, pickle and copy as their points: a
    memoryview of floats does not pickle.
    """

    points: tuple[tuple[float, float], ...]

    def __init__(self, points: Iterable[tuple[float, float]]) -> None:
        points = tuple((float(a), float(b)) for a, b in points)
        if not all(map(math.isfinite, chain.from_iterable(points))):
            raise ParameterError("quadrant points must be finite")
        self._fill(_readonly(array("d", [a for a, _ in points])), _readonly(array("d", [b for _, b in points])))

    def _fill(self, z_i: memoryview, z_next: memoryview) -> None:
        quadrants = bytes(map(_classify, z_i, z_next))  # indices into _QUADRANT_NAMES
        vars(self).update(z_i=z_i, z_next=z_next, _quadrants=quadrants)

    def __reduce__(self) -> tuple:
        return type(self), (self.points,)

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.z_i, self.z_next))

    @property
    def quadrants(self) -> tuple[str, ...]:
        return tuple(map(_QUADRANT_NAMES.__getitem__, self._quadrants))

    def rows(self) -> Iterator[tuple[float, float, str]]:
        """(z_i, z_next, quadrant) of each point, in order."""
        return zip(self.z_i, self.z_next, map(_QUADRANT_NAMES.__getitem__, self._quadrants))

    @property
    def counts(self) -> dict[str, int]:
        return {name: self._quadrants.count(k) for k, name in enumerate(_QUADRANT_NAMES)}

    @property
    def index(self) -> float | None:
        counts = self.counts
        return counts["LL"] / counts["SS"] if counts["SS"] else None

    ll, ss, ls, sl, origin = map(_count, _QUADRANT_NAMES)


@_on_durations
def quadrant_analysis(values: array) -> QuadrantStats:
    """Classify successive z-scored duration pairs into quadrants.

    Needs at least 3 items and nonzero variance (the z-scores are undefined
    otherwise).  The counts always partition the n-1 successive pairs.
    """
    if len(values) < 3:
        raise DegenerateInputError(f"quadrant analysis needs >= 3 items, got {len(values)}")
    mean, var = _moments(values)
    sd = math.sqrt(var)
    if sd == 0.0:
        raise DegenerateInputError("z-scoring needs nonzero variance")
    # finite: _moments refused any deviation whose square overflows, and as sd > 0 no |z| exceeds 1e8 * sqrt(n)
    z = _readonly(array("d", ((x - mean) / sd for x in values)))
    return QuadrantStats._of(z[:-1], z[1:])  # the successive pairs: both point columns are views of z


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@_on_durations
def metrics_report(values: array) -> dict:
    """All five dispersion metrics plus the parameters they were computed under."""
    return {
        **{metric.__name__: metric.__wrapped__(values) for metric in (variance, pim, pfd, rpvi, npvi)},
        "n": len(values),
        "params": {
            "variance_ddof": 1,
            "pim_log": "natural",
            "pim_pairs": "ordered",
            "pvi_mean_factor": True,
        },
    }


def quadrant_to_csv(stats: QuadrantStats) -> str:
    """Scatter-plot CSV of the z-score pairs: z_i,z_next,quadrant."""
    return "".join(quadrant_csv_chunks(stats))


def quadrant_csv_chunks(stats: QuadrantStats) -> Iterator[str]:
    """`quadrant_to_csv` as text chunks, one line each."""
    yield "z_i,z_next,quadrant\n"
    for a, b, quadrant in stats.rows():
        yield f"{a!r},{b!r},{quadrant}\n"
