"""Amplitude envelope demodulation and its low-frequency spectrum.

The pipeline: full-wave rectification and peak-picking envelope extraction in
one blockwise pass, moving-average smoothing, then an unwindowed DFT magnitude
spectrum kept below a cutoff. Zone detection reads rhythm bands off the
spectrum after polynomial shape-smoothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from numpy.polynomial import Polynomial

from .audio import Waveform, _frozen_array, _ms_to_samples, _positive
from .errors import DegenerateInputError, ParameterError, SingularityError

__all__ = [
    "Envelope",
    "Spectrum",
    "FrequencyZone",
    "PolyFit",
    "rectify_full_wave",
    "extract_envelope_peaks",
    "smooth_envelope",
    "dft_magnitude",
    "aems",
    "fit_polynomial",
    "detect_zones",
    "shape_zones",
    "zscore",
    "spectrum_to_csv",
    "spectrum_csv_chunks",
]


@dataclass(frozen=True, eq=False)
class Envelope:
    """Non-negative amplitude envelope on a uniform time grid."""

    values: np.ndarray
    rate: float

    def __post_init__(self):
        values = _frozen_array(self.values, "envelope values", "finite and non-negative",
                               0.0, np.inf, 1e-12)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "rate", _positive(self.rate, "envelope rate"))

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Magnitude spectrum truncated at cutoff_hz; bin k sits at k*resolution_hz."""

    resolution_hz: float
    magnitudes: np.ndarray
    cutoff_hz: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        magnitudes = _frozen_array(self.magnitudes, "spectrum magnitudes",
                                   "finite and non-negative", 0.0)
        object.__setattr__(self, "magnitudes", magnitudes)
        object.__setattr__(self, "resolution_hz", _positive(self.resolution_hz, "resolution_hz"))

    @property
    def freqs(self) -> np.ndarray:
        return np.arange(len(self.magnitudes)) * self.resolution_hz

    def __len__(self):
        return len(self.magnitudes)


@dataclass(frozen=True)
class FrequencyZone:
    """One fuzzy rhythm band of the spectrum."""

    center_hz: float
    lo_hz: float
    hi_hz: float
    prominence: float


@dataclass(frozen=True)
class PolyFit:
    """Least-squares polynomial with coefficients in ascending powers of x."""

    degree: int
    coeffs: tuple
    domain: tuple
    rmse: float
    scaled_coeffs: tuple = field(repr=False, compare=False, default=())

    def evaluate(self, xs) -> np.ndarray:
        """Evaluate via the internally scaled basis for stability."""
        xs = np.asarray(xs, dtype=np.float64)
        lo, hi = self.domain
        if hi > lo:
            p = Polynomial(np.asarray(self.scaled_coeffs), domain=[lo, hi])
            return p(xs)
        return np.full_like(xs, self.coeffs[0], dtype=np.float64)


def rectify_full_wave(wave: Waveform) -> Waveform:
    """Replace every sample by its absolute value."""
    rect = np.abs(wave.samples)
    rect.setflags(write=False)  # fresh, so Waveform need not copy it
    return Waveform(rect, wave.rate)


_PEAK_SAMPLES = 1 << 15  # samples rectified per pass of the peak picker: bounds its working set


def _window_peaks(x, win):
    """Distinct indices of the first maximum of each window |x[k*hop : k*hop + win]|.

    hop = win // 2, so a window is blocks k and k+1 of width hop, plus the
    sample after them when win is odd. The first maximum among those parts,
    taken in that order, is the window's argmax, and every sample is read
    once instead of twice. |x| is taken one range of blocks at a time.
    """
    hop = win // 2
    n_blocks = (len(x) - win) // hop + 2
    rows = max(1, _PEAK_SAMPLES // hop)
    block_idx = np.empty(n_blocks, dtype=np.intp)
    for lo in range(0, n_blocks, rows):
        blocks = np.abs(x[lo * hop : min(lo + rows, n_blocks) * hop]).reshape(-1, hop)
        block_idx[lo : lo + len(blocks)] = blocks.argmax(axis=1)
    block_idx += np.arange(0, n_blocks * hop, hop)
    block_max = np.abs(x[block_idx])
    peak_idx = np.where(block_max[1:] > block_max[:-1], block_idx[1:], block_idx[:-1])
    if win % 2:
        after = np.arange(2, n_blocks + 1) * hop
        beats = np.abs(x[after]) > np.maximum(block_max[:-1], block_max[1:])
        peak_idx = np.where(beats, after, peak_idx)
    # elected indices never decrease, and neighbouring windows may share one
    return peak_idx[np.diff(peak_idx, prepend=-1) > 0]


def extract_envelope_peaks(wave: Waveform, window_ms=20.0, env_rate=100) -> Envelope:
    """Demodulate any waveform by peak-picking its full-wave rectification.

    Local maxima of |x|, taken block by block, are collected over half-overlapping
    windows of window_ms and linearly interpolated onto a uniform env_rate grid;
    leading and trailing gaps take the nearest peak value.
    """
    _positive(window_ms, "window_ms")
    _positive(env_rate, "env_rate")
    if env_rate > wave.rate:
        raise ParameterError(f"env_rate {env_rate} exceeds the audio rate {wave.rate}")
    x = wave.samples
    win = max(2, _ms_to_samples(window_ms, wave.rate, "window_ms"))
    if len(x) < win:
        raise DegenerateInputError(
            f"signal of {len(x)} samples is shorter than one {window_ms} ms window"
        )
    peak_idx = _window_peaks(x, win)
    peak_t = peak_idx / wave.rate
    peak_v = np.abs(x[peak_idx])

    n_env = max(1, int(round(len(x) * env_rate / wave.rate)))
    grid = np.arange(n_env) / env_rate
    values = np.interp(grid, peak_t, peak_v)  # np.interp holds edge values
    return Envelope(values, float(env_rate))


def smooth_envelope(env: Envelope, window_ms=50.0) -> Envelope:
    """Centered moving average.

    The box width is rounded to an odd sample count and edges are handled by
    half-sample mirroring, which keeps the kernel doubly stochastic: the mean
    of the envelope is preserved to rounding error.
    """
    win = _ms_to_samples(_positive(window_ms, "window_ms"), env.rate, "window_ms")
    if win < 1:
        raise ParameterError("smoothing window shorter than one envelope sample")
    win = min(win, len(env))
    if win % 2 == 0:
        win -= 1
    if win <= 1:
        return env
    half = win // 2
    padded = np.pad(env.values, half, mode="symmetric")
    kernel = np.full(win, 1.0 / win)
    return Envelope(np.convolve(padded, kernel, mode="valid"), env.rate)


def dft_magnitude(env: Envelope, cutoff_hz, zero_mean=True) -> Spectrum:
    """Unwindowed DFT magnitudes of the envelope up to cutoff_hz.

    No taper, no zero padding: resolution is rate/N and bin k holds
    |X_k| of the (optionally mean-subtracted) envelope.
    """
    n = len(env)
    if n < 2:
        raise DegenerateInputError("need at least 2 envelope samples for a DFT")
    _positive(cutoff_hz, "cutoff_hz")
    if cutoff_hz > env.rate / 2 + 1e-9:
        raise ParameterError(
            f"cutoff {cutoff_hz} Hz exceeds the envelope Nyquist {env.rate / 2} Hz"
        )
    x = env.values - env.values.mean() if zero_mean else env.values
    spec = np.abs(np.fft.rfft(x))
    resolution = env.rate / n
    k_max = int(np.floor(cutoff_hz / resolution + 1e-9))
    k_max = min(k_max, len(spec) - 1)
    return Spectrum(
        resolution_hz=resolution,
        magnitudes=spec[: k_max + 1],
        cutoff_hz=float(cutoff_hz),
        params={"zero_mean": bool(zero_mean), "n_samples": n, "env_rate": env.rate},
    )


def aems(wave: Waveform, cutoff_hz=5.0, window_ms=20.0, env_rate=100,
         smooth_ms=50.0) -> Spectrum:
    """Full pipeline: peak-pick |x|, smooth, DFT-magnitude below cutoff."""
    env = extract_envelope_peaks(wave, window_ms=window_ms, env_rate=env_rate)
    env = smooth_envelope(env, window_ms=smooth_ms)
    spec = dft_magnitude(env, cutoff_hz)
    params = dict(spec.params)
    params.update(
        {
            "window_ms": float(window_ms),
            "env_rate": float(env_rate),
            "smooth_ms": float(smooth_ms),
            "cutoff_hz": float(cutoff_hz),
            "source_rate": wave.rate,
        }
    )
    return Spectrum(spec.resolution_hz, spec.magnitudes, spec.cutoff_hz, params)


def fit_polynomial(xs, ys, degree) -> PolyFit:
    """Least-squares polynomial fit.

    xs are internally shifted/scaled to [-1, 1] before solving the
    Vandermonde system; the reported coefficients are converted back to
    ascending powers of the original x.
    """
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
    if len(np.unique(xs)) != len(xs):
        raise ParameterError("xs must be distinct")

    lo, hi = float(np.min(xs)), float(np.max(xs))
    if hi > lo:
        u = (2.0 * xs - (lo + hi)) / (hi - lo)
    else:
        u = np.zeros_like(xs)  # single point, degree 0 only
    basis = np.vander(u, degree + 1, increasing=True)
    sol, _res, rank, _sv = np.linalg.lstsq(basis, ys, rcond=None)
    if rank < degree + 1:
        raise SingularityError(
            f"rank-deficient system (rank {rank} < {degree + 1}) for degree {degree}"
        )
    fitted = basis @ sol
    rmse = float(np.sqrt(np.mean((fitted - ys) ** 2)))
    if hi > lo:
        coeffs = Polynomial(sol, domain=[lo, hi]).convert().coef
        coeffs = np.pad(coeffs, (0, degree + 1 - len(coeffs)))
    else:
        coeffs = sol
    if not np.isfinite(coeffs).all():
        raise DegenerateInputError(
            f"degree-{degree} coefficients in powers of x overflow the float range "
            f"over the x span [{lo!r}, {hi!r}]"
        )
    return PolyFit(
        degree=int(degree),
        coeffs=tuple(float(c) for c in coeffs),
        domain=(lo, hi),
        rmse=rmse,
        scaled_coeffs=tuple(float(c) for c in sol),
    )


def _local_extrema(y):
    """Indices of strict local maxima and minima of a 1-D array."""
    maxima, minima = [], []
    for i in range(1, len(y) - 1):
        if y[i] > y[i - 1] and y[i] >= y[i + 1]:
            maxima.append(i)
        elif y[i] < y[i - 1] and y[i] <= y[i + 1]:
            minima.append(i)
    return maxima, minima


def shape_zones(spec: Spectrum, min_prominence=0.1, min_separation_hz=0.0):
    """The spectrum's shape fit and the frequency zones read off it.

    The shape is a least-squares polynomial of degree min(9, bins - 1); strict
    local maxima of that shape whose prominence reaches min_prominence times
    the raw magnitude maximum become zones. Zone bounds sit at the flanking
    local minima (or spectrum edges) and the zone center is the raw-magnitude
    argmax inside the bounds. Zones come back ordered by descending
    prominence. Returns (fit, zones).
    """
    freqs = spec.freqs
    mags = spec.magnitudes
    fit = fit_polynomial(freqs, mags, min(9, len(spec) - 1))
    shape = fit.evaluate(freqs)
    maxima, minima = _local_extrema(shape)
    top = float(np.max(mags))
    if top <= 0:
        return fit, []

    zones = []
    for m in maxima:
        left_candidates = [i for i in minima if i < m]
        right_candidates = [i for i in minima if i > m]
        lo_i = max(left_candidates) if left_candidates else 0
        hi_i = min(right_candidates) if right_candidates else len(shape) - 1
        prominence = float(shape[m] - max(shape[lo_i], shape[hi_i]))
        if prominence <= 0 or prominence < min_prominence * top:
            continue
        center_i = lo_i + int(np.argmax(mags[lo_i : hi_i + 1]))
        zones.append(
            FrequencyZone(
                center_hz=float(freqs[center_i]),
                lo_hz=float(freqs[lo_i]),
                hi_hz=float(freqs[hi_i]),
                prominence=prominence,
            )
        )

    zones.sort(key=lambda z: -z.prominence)
    if min_separation_hz > 0:
        kept = []
        for z in zones:
            if all(abs(z.center_hz - k.center_hz) >= min_separation_hz for k in kept):
                kept.append(z)
        zones = kept
    return fit, zones


def detect_zones(spec: Spectrum, min_prominence=0.1, min_separation_hz=0.0):
    """Frequency zones of the spectrum; see shape_zones."""
    return shape_zones(spec, min_prominence, min_separation_hz)[1]


def zscore(values) -> np.ndarray:
    """Standardize to mean 0, sample (n-1 denominator) standard deviation 1."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or len(arr) < 2:
        raise DegenerateInputError("z-scoring needs at least 2 values")
    sd = float(np.std(arr, ddof=1))
    if sd == 0.0:
        raise DegenerateInputError("z-scoring needs nonzero variance")
    return (arr - arr.mean()) / sd


def spectrum_to_csv(spec: Spectrum) -> str:
    return "".join(spectrum_csv_chunks(spec))


def spectrum_csv_chunks(spec: Spectrum) -> Iterator[str]:
    """`spectrum_to_csv` as text chunks, one line each."""
    yield "freq_hz,magnitude\n"
    for f, m in zip(spec.freqs.tolist(), spec.magnitudes.tolist()):
        yield f"{f!r},{m!r}\n"
