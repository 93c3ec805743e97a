"""Duration-dispersion metrics and quadrant analysis of interval sequences.

The five classic dispersion metrics (variance, PIM, PFD, raw and normalised
PVI) measure how unevenly durations are spread without regard to order
beyond adjacency; the quadrant analysis maps successive z-scored duration
pairs into long/short quadrants to expose alternation patterns that the
dispersion metrics factor out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .aems import zscore
from .annot import DurationSequence
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
]


def _as_values(xs: DurationSequence | Iterable[float]) -> np.ndarray:
    """Coerce a DurationSequence or plain iterable to a 1-D float array."""
    if isinstance(xs, DurationSequence):
        values = np.asarray(xs.values, dtype=float)
    else:
        values = np.asarray(list(xs), dtype=float)
    if values.ndim != 1:
        raise ParameterError(f"expected a 1-D sequence, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ParameterError("durations must be finite")
    return values


def variance(xs: DurationSequence | Iterable[float]) -> float:
    """Sample variance (n-1 denominator) of the durations."""
    values = _as_values(xs)
    if len(values) < 2:
        raise DegenerateInputError(f"variance needs >= 2 items, got {len(values)}")
    if np.ptp(values) == 0.0:
        # constant input is exactly zero; np.var can leak an ulp of the mean
        return 0.0
    return float(np.var(values, ddof=1))


def pim(xs: DurationSequence | Iterable[float]) -> float:
    """Pairwise Irregularity Measure: sum of |ln(x_i/x_j)| over ordered pairs i != j.

    Natural logarithm; a different base would only rescale the measure.
    Computed in O(n log n) from the sorted logs: the gap between the k-th and
    (k+1)-th smallest (k = 1..n-1) lies between k * (n - k) unordered pairs.
    Summing non-negative gaps keeps constant input at exactly zero.
    """
    values = _as_values(xs)
    if len(values) < 2:
        raise DegenerateInputError(f"pim needs >= 2 items, got {len(values)}")
    if np.any(values <= 0):
        raise ParameterError("pim needs strictly positive durations")
    k = np.arange(1, len(values))
    gaps = np.diff(np.sort(np.log(values)))
    return float(2.0 * np.sum(gaps * (k * (len(values) - k))))  # both orders counted


def pfd(xs: DurationSequence | Iterable[float]) -> float:
    """Percentage Foot Deviation: 100 * sum |x_i - mean| / sum x_j."""
    values = _as_values(xs)
    if len(values) == 0:
        raise DegenerateInputError("pfd needs a non-empty sequence")
    total = float(np.sum(values))
    if total <= 0:
        raise ParameterError(f"pfd needs a positive total duration, got {total}")
    if np.ptp(values) == 0.0:
        return 0.0
    return float(100.0 * np.sum(np.abs(values - values.mean())) / total)


def rpvi(xs: DurationSequence | Iterable[float]) -> float:
    """Raw Pairwise Variability Index: mean absolute successive difference."""
    values = _as_values(xs)
    if len(values) < 2:
        raise DegenerateInputError(f"rpvi needs >= 2 items, got {len(values)}")
    return float(np.mean(np.abs(np.diff(values))))


def npvi(xs: DurationSequence | Iterable[float]) -> float:
    """Normalised Pairwise Variability Index, as a percentage.

    Each successive difference is normalised by the pair mean, which cancels
    any common scale factor (and with it, tempo).
    """
    values = _as_values(xs)
    if len(values) < 2:
        raise DegenerateInputError(f"npvi needs >= 2 items, got {len(values)}")
    if np.any(values <= 0):
        raise ParameterError("npvi needs strictly positive durations")
    a, b = values[:-1], values[1:]
    return float(100.0 * np.mean(np.abs(a - b) / ((a + b) / 2.0)))


# ---------------------------------------------------------------------------
# quadrant analysis
# ---------------------------------------------------------------------------

_QUADRANT_NAMES = ("LL", "SS", "LS", "SL", "origin")


def _classify(z_i: float, z_next: float) -> str:
    """Quadrant of one successive z-score pair; exact zeros land on the origin axes."""
    if z_i == 0.0 or z_next == 0.0:
        return "origin"
    if z_i > 0 and z_next > 0:
        return "LL"
    if z_i < 0 and z_next < 0:
        return "SS"
    if z_i > 0 and z_next < 0:
        return "LS"
    return "SL"


@dataclass(frozen=True)
class QuadrantStats:
    """Counts of successive z-scored duration pairs per quadrant.

    LL = both long (z > 0), SS = both short, LS = long then short,
    SL = short then long; pairs with a coordinate exactly at zero are
    counted separately as `origin`.  The alternation index LL/SS is
    present only when SS > 0.
    """

    ll: int
    ss: int
    ls: int
    sl: int
    origin: int
    index: float | None
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "points", tuple((float(a), float(b)) for a, b in self.points)
        )
        for name in ("ll", "ss", "ls", "sl", "origin"):
            if getattr(self, name) < 0:
                raise ParameterError(f"count {name} must be non-negative")
        total = self.ll + self.ss + self.ls + self.sl + self.origin
        if total != len(self.points):
            raise ParameterError(
                f"counts sum to {total} but there are {len(self.points)} pairs"
            )
        if (self.index is not None) != (self.ss > 0):
            raise ParameterError("index must be present exactly when SS > 0")

    @property
    def counts(self) -> dict[str, int]:
        return {
            "LL": self.ll,
            "SS": self.ss,
            "LS": self.ls,
            "SL": self.sl,
            "origin": self.origin,
        }


def quadrant_analysis(xs: DurationSequence | Iterable[float]) -> QuadrantStats:
    """Classify successive z-scored duration pairs into quadrants.

    Needs at least 3 items and nonzero variance (the z-scores are undefined
    otherwise).  The counts always partition the n-1 successive pairs.
    """
    values = _as_values(xs)
    if len(values) < 3:
        raise DegenerateInputError(
            f"quadrant analysis needs >= 3 items, got {len(values)}"
        )
    z = zscore(values)
    points = tuple((float(a), float(b)) for a, b in zip(z[:-1], z[1:]))
    tally = {name: 0 for name in _QUADRANT_NAMES}
    for a, b in points:
        tally[_classify(a, b)] += 1
    index = tally["LL"] / tally["SS"] if tally["SS"] > 0 else None
    return QuadrantStats(
        ll=tally["LL"],
        ss=tally["SS"],
        ls=tally["LS"],
        sl=tally["SL"],
        origin=tally["origin"],
        index=index,
        points=points,
    )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def metrics_report(xs: DurationSequence | Iterable[float]) -> dict:
    """All five dispersion metrics plus the parameters they were computed under."""
    values = _as_values(xs)
    return {
        "variance": variance(values),
        "pim": pim(values),
        "pfd": pfd(values),
        "rpvi": rpvi(values),
        "npvi": npvi(values),
        "n": int(len(values)),
        "params": {
            "variance_ddof": 1,
            "pim_log": "natural",
            "pim_pairs": "ordered",
            "pvi_mean_factor": True,
        },
    }


def quadrant_to_csv(stats: QuadrantStats) -> str:
    """Scatter-plot CSV of the z-score pairs: z_i,z_next,quadrant."""
    lines = ["z_i,z_next,quadrant"]
    for a, b in stats.points:
        lines.append(f"{a!r},{b!r},{_classify(a, b)}")
    return "\n".join(lines) + "\n"
