"""Least-squares polynomials: the PolyFit record and its two fits.

fit_polynomial, numpy's lstsq over the scaled Vandermonde, is the reference
fit and serves the spectra.  fit_legendre is the same fit in Python, for the
F0 contours of pitch.fit_contour: it returns None for any system whose
agreement with the reference it cannot certify, and the caller then hands
that system to fit_polynomial.  numpy is imported inside the functions that
use it, so that a contour-fit process need not load it.
"""

from __future__ import annotations

import math
import sys
from itertools import islice
from math import fsum
from operator import lt, mul, sub
from typing import TYPE_CHECKING

from ._record import Record
from .errors import DegenerateInputError, ParameterError, SingularityError

if TYPE_CHECKING:
    import numpy as np


class PolyFit(Record):
    """Least-squares polynomial with coefficients in ascending powers of x.

    scaled_coeffs, the coefficients over the domain mapped onto [-1, 1] that
    evaluate() uses, is no field: repr and == leave it out.
    """

    degree: int
    coeffs: tuple
    domain: tuple
    rmse: float

    def __init__(self, degree: int, coeffs: tuple, domain: tuple, rmse: float,
                 scaled_coeffs: tuple = ()) -> None:
        vars(self).update(degree=degree, coeffs=coeffs, domain=domain, rmse=rmse, scaled_coeffs=scaled_coeffs)

    def evaluate(self, xs) -> np.ndarray:
        """Evaluate via the internally scaled basis for stability."""
        import numpy as np

        xs = np.asarray(xs, dtype=np.float64)
        lo, hi = self.domain
        return self._at(xs) if hi > lo else np.full_like(xs, self.coeffs[0], dtype=np.float64)

    def _at(self, x):
        """The value at x, a float, or a float64 array where the domain has hi > lo.

        These are the operations of numpy.polynomial's Polynomial over the
        domain, so a float gets the bits of an array element: x is mapped onto
        [-1, 1] as mapdomain maps it, then summed by Horner's rule as polyval sums.
        """
        lo, hi = self.domain
        if not hi > lo:
            return self.coeffs[0]
        off, scl = _mapparms(lo, hi)
        u = off + scl * x
        *rest, value = self.scaled_coeffs
        value = value + u * 0
        for c in reversed(rest):
            value = c + value * u
        return value


def _mapparms(lo: float, hi: float) -> tuple[float, float]:
    """off and scl of the map u = off + scl * x of [lo, hi] onto [-1, 1], as numpy's mapparms computes them."""
    return (-hi - lo) / (hi - lo), 2.0 / (hi - lo)


def _powers_of_x(scaled: list[float], off: float, scl: float) -> list[float]:
    """scaled(off + scl * x) in powers of x by Horner's rule, in the operations of numpy's Polynomial.convert."""
    coeffs = scaled[-1:]
    for c in reversed(scaled[:-1]):
        coeffs = [c + off * coeffs[0], *(off * q + scl * r for q, r in zip(coeffs[1:], coeffs)), scl * coeffs[-1]]
    return coeffs


def _has_duplicates(xs) -> bool:
    """len(np.unique(xs)) != len(xs), without the numpy.ma import that np.unique
    makes (about 4 ms a process): two sorted neighbours are equal, or both NaN."""
    import numpy as np

    s = np.sort(xs)
    a, b = s[:-1], s[1:]
    return bool(np.any((a == b) | (np.isnan(a) & np.isnan(b))))


def fit_polynomial(xs, ys, degree) -> PolyFit:
    """Least-squares polynomial fit.

    xs are internally shifted/scaled to [-1, 1] before solving the
    Vandermonde system; the reported coefficients are converted back to
    ascending powers of the original x.
    """
    import numpy as np

    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if degree < 0:
        raise ParameterError("degree must be non-negative")
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ParameterError("xs and ys must be 1-D arrays of equal length")
    if len(xs) < degree + 1:
        raise ParameterError(
            f"{len(xs)} points cannot determine a degree-{degree} polynomial"
        )
    for name, values in (("xs", xs), ("ys", ys)):
        if (nan := np.isnan(values)).any():
            raise ParameterError(f"{name} must not be NaN, got NaN at index {int(nan.argmax())}")
    if _has_duplicates(xs):
        raise ParameterError("xs must be distinct")

    lo, hi = float(np.min(xs)), float(np.max(xs))
    with np.errstate(over="ignore", invalid="ignore"):  # hi == lo: a single point, degree 0 only
        u = (2.0 * xs - (lo + hi)) / (hi - lo) if hi > lo else np.zeros_like(xs)
    if not np.isfinite(u).all():
        raise DegenerateInputError(f"the x span [{lo!r}, {hi!r}] cannot be mapped onto [-1, 1] in the float range")
    basis = np.vander(u, degree + 1, increasing=True)
    sol, _res, rank, _sv = np.linalg.lstsq(basis, ys, rcond=None)
    if rank < degree + 1:
        raise SingularityError(
            f"rank-deficient system (rank {rank} < {degree + 1}) for degree {degree}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        rmse = float(np.sqrt(np.mean((basis @ sol - ys) ** 2)))
    if not np.isfinite(rmse):
        raise DegenerateInputError(
            f"degree-{degree} fit residuals overflow the float range "
            f"over the y span [{float(np.min(ys))!r}, {float(np.max(ys))!r}]"
        )
    scaled = sol.tolist()
    # + 0.0: Polynomial.convert, whose bits these are, never gives a -0.0
    coeffs = [c + 0.0 for c in _powers_of_x(scaled, *_mapparms(lo, hi))] if hi > lo else scaled
    if not all(map(math.isfinite, coeffs)):
        raise DegenerateInputError(
            f"degree-{degree} coefficients in powers of x overflow the float range "
            f"over the x span [{lo!r}, {hi!r}]"
        )
    return PolyFit(degree=int(degree), coeffs=tuple(coeffs), domain=(lo, hi), rmse=rmse, scaled_coeffs=tuple(scaled))


_EPS = sys.float_info.epsilon
# numpy's lstsq counts the singular values above eps * max(n, p) times the largest as V's
# rank: a condition bound below _RANK_MARGIN / (eps * max(n, p)) leaves V of full rank there
_RANK_MARGIN = 1e-4
# the normal equations lose about eps * cond(W)**2 of the fitted values
_GRAM_ERROR = 1e-12


def fit_legendre(xs: list[float], ys: list[float], degree: int) -> PolyFit | None:
    """fit_polynomial(xs, ys, degree) on the standard library, or None where it cannot certify the result.

    xs is mapped onto u in [-1, 1] as fit_polynomial maps it.  The least
    squares is solved in the Legendre basis over u, W: its normal equations,
    summed with math.fsum, by Cholesky.  The coefficients are then changed to
    powers of u (scaled_coeffs) and of x, the latter by _powers_of_x.

    fit_polynomial ranks V, the monomial Vandermonde over u.  V = W A^-1, with
    A the change from Legendre to monomial coefficients, so cond(V) is at most
    cond(W) cond(A), each bounded by ||M||_F ||M^-1||_F.  The result stands only
    where that bound stays below _RANK_MARGIN / (eps * max(n, p)), so that V has
    full rank beyond doubt, and eps * cond(W)**2 below _GRAM_ERROR, so that the
    normal equations keep their accuracy.  None is also returned for a negative
    degree, for xs that do not rise strictly, and for a scale of x or y at
    which a square, a sum or a coefficient could leave the float range.
    """
    n, p = len(xs), degree + 1
    if not 0 < p <= n or not all(map(lt, xs, islice(xs, 1, None))):
        return None
    to_mono, from_mono = _legendre_monomial(p)
    try:
        cond_a = math.sqrt(fsum(c * c for row in to_mono for c in row) * fsum(c * c for row in from_mono for c in row))
    except OverflowError:  # a bound past the float range is past the limit too
        return None
    limit = _RANK_MARGIN / (_EPS * max(n, p))
    if not p * cond_a < limit:  # ||W||_F ||W^+||_F is at least p
        return None
    lo, hi = xs[0], xs[-1]
    if not (max(abs(lo), abs(hi)) < 2.0 ** 1000 and 2.0 ** -400 <= max(map(abs, ys)) <= 2.0 ** 400):
        return None
    u = [(2.0 * x - (lo + hi)) / (hi - lo) for x in xs] if hi > lo else [0.0] * n
    # P_0 ... P_{p-1} over u, the columns of W, and the sums of P_0 ... P_{2p-2}, by their recurrence
    cols, sums = [[1.0] * n, u], [n, fsum(u)]
    prev, cur = cols
    for k in range(1, 2 * p - 2):
        a, b = (2 * k + 1) / (k + 1), k / (k + 1)
        prev, cur = cur, [a * t * q - b * r for t, q, r in zip(u, cur, prev)]
        sums.append(fsum(cur))
        if k < p - 1:
            cols.append(cur)
    del cols[p:]  # P_1 where p is 1
    # G = W'W from those sums: P_j P_k is a positive combination of P_{j+k-2r}, r <= min(j, k)
    gram = [[fsum(_linearized(j, k, r) * sums[j + k - 2 * r] for r in range(k + 1)) for k in range(j + 1)]
            for j in range(p)]
    chol = _cholesky(gram)
    if chol is None:
        return None
    # ||W||_F^2 is trace(G), ||W^+||_F^2 trace(G^-1), the sum of the squares of chol^-1
    inverse = (_forward(chol, [float(i == j) for i in range(p)]) for j in range(p))
    cond_w = math.sqrt(fsum(row[-1] for row in gram) * fsum(fsum(map(mul, z, z)) for z in inverse))
    if not (cond_w * cond_a < limit and _EPS * cond_w ** 2 < _GRAM_ERROR):
        return None
    z = _forward(chol, [fsum(map(mul, c, ys)) for c in cols])
    legendre = [0.0] * p  # solves chol' b = z
    for j in reversed(range(p)):
        legendre[j] = (z[j] - fsum(chol[k][j] * legendre[k] for k in range(j + 1, p))) / chol[j][j]
    scaled = [fsum(b * poly[m] for b, poly in zip(legendre, to_mono) if m < len(poly)) for m in range(p)]
    coeffs = scaled
    if hi > lo:
        off, scl = _mapparms(lo, hi)
        top = max(map(abs, scaled))
        if top and math.log2(top * p) + degree * math.log2(1.0 + abs(off) + abs(scl)) >= 1000.0:
            return None  # a partial sum could overflow
        coeffs = _powers_of_x(scaled, off, scl)
    fitted = [legendre[0]] * n  # then the residuals, in the pass that adds the last column
    for b, col in zip(legendre[1:-1], cols[1:-1]):
        fitted = [f + b * v for f, v in zip(fitted, col)]
    b = legendre[-1]
    residuals = [f + b * v - y for f, v, y in zip(fitted, cols[-1], ys)] if p > 1 else [*map(sub, fitted, ys)]
    return PolyFit(degree=int(degree), coeffs=tuple(coeffs), domain=(lo, hi),
                   rmse=math.sqrt(fsum(map(mul, residuals, residuals)) / n), scaled_coeffs=tuple(scaled))


def _linearized(j: int, k: int, r: int) -> float:
    """The coefficient of P_{j+k-2r} in P_j P_k (Adams), from a(n) = (2n - 1)!! / n! = C(2n, n) / 2^n."""

    def a(n: int) -> float:
        return math.comb(2 * n, n) / 2 ** n

    m = j + k - 2 * r
    return a(r) * a(j - r) * a(k - r) / a(j + k - r) * (2 * m + 1) / (2 * (m + r) + 1)


def _cholesky(gram: list[list[float]]) -> list[list[float]] | None:
    """The rows of the lower Cholesky factor of a matrix given by the rows of its lower triangle.

    None where a pivot is not positive.
    """
    chol = []
    for j, row in enumerate(gram):
        lj = []
        for k, lk in enumerate(chol):
            lj.append((row[k] - fsum(map(mul, lj, lk))) / lk[k])
        pivot = row[j] - fsum(map(mul, lj, lj))
        if not pivot > 0.0:
            return None
        lj.append(math.sqrt(pivot))
        chol.append(lj)
    return chol


def _forward(chol: list[list[float]], v: list[float]) -> list[float]:
    """z with chol z = v, chol lower triangular by rows."""
    z = []
    for lj, vj in zip(chol, v):
        z.append((vj - fsum(map(mul, lj, z))) / lj[len(z)])
    return z


def _legendre_monomial(p: int) -> tuple[list[list[float]], list[list[float]]]:
    """The monomial coefficients of P_0 ... P_{p-1}, and the Legendre coefficients of 1, u ... u^{p-1}.

    Neither recurrence subtracts numbers of one sign: in P_{k+1} = ((2k+1) u P_k - k P_{k-1}) / (k+1)
    the two terms of a coefficient have opposite signs, and u P_l = ((l+1) P_{l+1} + l P_{l-1}) / (2l+1)
    has positive weights.
    """
    to_mono = [[1.0], [0.0, 1.0]][:p]
    for k in range(1, p - 1):
        a, b = (2 * k + 1) / (k + 1), k / (k + 1)
        to_mono.append([a * q - b * r for q, r in zip([0.0, *to_mono[k]], [*to_mono[k - 1], 0.0, 0.0])])
    from_mono = [[1.0]]
    for _ in range(p - 1):
        nxt = [0.0] * (len(from_mono[-1]) + 1)
        for l, c in enumerate(from_mono[-1]):
            nxt[l + 1] += c * (l + 1) / (2 * l + 1)
            if l:
                nxt[l - 1] += c * l / (2 * l + 1)
        from_mono.append(nxt)
    return to_mono, from_mono
