"""Amplitude envelope demodulation and its low-frequency spectrum.

The pipeline: full-wave rectification and peak-picking envelope extraction in
one blockwise pass, moving-average smoothing, then an unwindowed DFT magnitude
spectrum kept below a cutoff. Zone detection reads rhythm bands off the
spectrum after shape-smoothing by _polyfit.fit_polynomial, re-exported here.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import audio
from ._polyfit import PolyFit, fit_polynomial
from ._record import Record
from .audio import Waveform, WavSource, _frozen_array, _ms_to_samples, _positive, _ranges
from .errors import DegenerateInputError, ParameterError

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


class Envelope(Record, eq=False):
    """Non-negative amplitude envelope on a uniform time grid."""

    values: np.ndarray
    rate: float

    def __init__(self, values: np.ndarray, rate: float) -> None:
        values = _frozen_array(values, "envelope values", "finite and non-negative",
                               0.0, np.inf, 1e-12)
        vars(self).update(values=values, rate=_positive(rate, "envelope rate"))

    def __len__(self):
        return len(self.values)


class Spectrum(Record, eq=False):
    """Magnitude spectrum truncated at cutoff_hz; bin k sits at k*resolution_hz.

    params, the analysis parameters that made it, is a new empty dict when not given.
    """

    resolution_hz: float
    magnitudes: np.ndarray
    cutoff_hz: float
    params: dict

    def __init__(self, resolution_hz: float, magnitudes: np.ndarray, cutoff_hz: float,
                 params: dict | None = None) -> None:
        magnitudes = _frozen_array(magnitudes, "spectrum magnitudes",
                                   "finite and non-negative", 0.0)
        resolution_hz = _positive(resolution_hz, "resolution_hz")
        vars(self).update(resolution_hz=resolution_hz, magnitudes=magnitudes, cutoff_hz=cutoff_hz,
                          params={} if params is None else params)

    @property
    def freqs(self) -> np.ndarray:
        return np.arange(len(self.magnitudes)) * self.resolution_hz

    def __len__(self):
        return len(self.magnitudes)


class FrequencyZone(Record):
    """One fuzzy rhythm band of the spectrum."""

    center_hz: float
    lo_hz: float
    hi_hz: float
    prominence: float

    def __init__(self, center_hz: float, lo_hz: float, hi_hz: float, prominence: float) -> None:
        vars(self).update(center_hz=center_hz, lo_hz=lo_hz, hi_hz=hi_hz, prominence=prominence)


def rectify_full_wave(wave: Waveform) -> Waveform:
    """Replace every sample by its absolute value."""
    rect = np.abs(wave.samples)
    rect.setflags(write=False)  # fresh, so Waveform need not copy it
    return Waveform(rect, wave.rate)


def _block_peaks(blocks, n, win):
    """Distinct indices of the first maximum of each window |x[k*hop : k*hop + win]|, and |x| there.

    x comes as consecutive arrays from blocks, n samples in all. hop = win // 2,
    so a window is hop blocks k and k+1, plus the sample after them when win is
    odd: the first sample of hop block k+2. The first maximum among those parts,
    taken in that order, is the window's argmax. Each hop block keeps only its
    argmax, its |max| and |x| at its first sample, and every sample is read once.
    |x| is taken one range of hop blocks at a time, an audio block's worth.
    """
    hop = win // 2
    n_blocks = (n - win) // hop + 2
    rows = max(1, audio._BLOCK_FRAMES // hop)
    starts = range(0, n_blocks, rows)
    bounds = [(lo * hop, min(lo + rows, n_blocks) * hop) for lo in starts]
    bounds.append((n_blocks * hop, min(n_blocks * hop + 1, n)))  # the sample after the last hop block
    block_idx = np.empty(n_blocks, dtype=np.intp)
    block_max = np.empty(n_blocks)
    first = np.zeros(n_blocks + 1)  # the last is the sample after the last hop block
    ranges = _ranges(blocks, bounds)
    for lo, x in zip(starts, ranges):
        a = np.abs(x).reshape(-1, hop)
        at = slice(lo, lo + len(a))
        block_idx[at] = i = a.argmax(axis=1)
        block_max[at] = a[np.arange(len(a)), i]
        first[at] = a[:, 0]
    for x in ranges:  # that sample, if there is one; then the blocks past it are read
        first[n_blocks : n_blocks + len(x)] = np.abs(x)
    block_idx += np.arange(0, n_blocks * hop, hop)
    later = block_max[1:] > block_max[:-1]
    peak_idx = np.where(later, block_idx[1:], block_idx[:-1])
    peak_v = np.where(later, block_max[1:], block_max[:-1])
    if win % 2:
        beats = first[2:] > peak_v
        peak_idx = np.where(beats, np.arange(2, n_blocks + 1) * hop, peak_idx)
        peak_v = np.where(beats, first[2:], peak_v)
    # elected indices never decrease, and neighbouring windows may share one
    keep = np.diff(peak_idx, prepend=-1) > 0
    return peak_idx[keep], peak_v[keep]


def extract_envelope_peaks(wave: Waveform | WavSource, window_ms=20.0, env_rate=100) -> Envelope:
    """Demodulate any waveform by peak-picking its full-wave rectification.

    Local maxima of |x|, taken block by block, are collected over half-overlapping
    windows of window_ms and linearly interpolated onto a uniform env_rate grid;
    leading and trailing gaps take the nearest peak value. wave is a Waveform or
    an open WavSource, whose samples are decoded once, a block at a time, after
    the parameters and the length are checked.
    """
    ms, rate = _positive(window_ms, "window_ms"), _positive(env_rate, "env_rate")
    if rate > wave.rate:
        raise ParameterError(f"env_rate {env_rate} exceeds the audio rate {wave.rate}")
    n = len(wave)
    win = max(2, _ms_to_samples(ms, wave.rate, "window_ms"))
    if n < win:
        raise DegenerateInputError(
            f"signal of {n} samples is shorter than one {window_ms} ms window"
        )
    peak_idx, peak_v = _block_peaks(wave.blocks(), n, win)
    n_env = max(1, int(round(n * rate / wave.rate)))
    grid = np.arange(n_env) / rate
    values = np.interp(grid, peak_idx / wave.rate, peak_v)  # np.interp holds edge values
    return Envelope(values, rate)


def _smooth_len(ms, rate, what) -> int:
    """round(ms * rate / 1000) samples; ParameterError unless ms, then rate, is > 0 and that is >= 1."""
    if (win := _ms_to_samples(_positive(ms, what), _positive(rate, "env_rate"), what)) < 1:
        raise ParameterError("smoothing window shorter than one envelope sample")
    return win


def _below_nyquist(cutoff_hz, rate) -> float:
    """float(cutoff_hz); ParameterError unless 0 < cutoff_hz <= rate / 2, to 1e-9 Hz."""
    if (cutoff := _positive(cutoff_hz, "cutoff_hz")) > rate / 2 + 1e-9:
        raise ParameterError(f"cutoff {cutoff_hz} Hz exceeds the envelope Nyquist {rate / 2} Hz")
    return cutoff


def smooth_envelope(env: Envelope, window_ms=50.0) -> Envelope:
    """Centered moving average.

    The box width is rounded to an odd sample count and edges are handled by
    half-sample mirroring, which keeps the kernel doubly stochastic: the mean
    of the envelope is preserved to rounding error.
    """
    win = min(_smooth_len(window_ms, env.rate, "window_ms"), len(env))
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
    cutoff = _below_nyquist(cutoff_hz, env.rate)
    x = env.values - env.values.mean() if zero_mean else env.values
    spec = np.abs(np.fft.rfft(x))
    resolution = env.rate / n
    k_max = int(np.floor(cutoff / resolution + 1e-9))
    k_max = min(k_max, len(spec) - 1)
    return Spectrum(
        resolution_hz=resolution,
        magnitudes=spec[: k_max + 1],
        cutoff_hz=cutoff,
        params={"zero_mean": bool(zero_mean), "n_samples": n, "env_rate": env.rate},
    )


def aems(wave: Waveform | WavSource, cutoff_hz=5.0, window_ms=20.0, env_rate=100,
         smooth_ms=50.0) -> Spectrum:
    """Full pipeline: peak-pick |x|, smooth, DFT-magnitude below cutoff; the DFT's Spectrum, params added.

    wave is a Waveform, or an open WavSource streamed through the peak picker.
    smooth_ms, env_rate and the smoothing width, then cutoff_hz against the
    Nyquist of env_rate, are checked by the stages' rules before the first
    sample is read; the peak picker's window_ms, env_rate and length follow.
    """
    _smooth_len(smooth_ms, env_rate, "smooth_ms")
    _below_nyquist(cutoff_hz, float(env_rate))  # env_rate is a number float() takes: _smooth_len checked it
    env = extract_envelope_peaks(wave, window_ms=window_ms, env_rate=env_rate)
    env = smooth_envelope(env, window_ms=smooth_ms)
    spec = dft_magnitude(env, cutoff_hz)
    spec.params.update(window_ms=float(window_ms), env_rate=float(env_rate), smooth_ms=float(smooth_ms),
                       cutoff_hz=float(cutoff_hz), source_rate=wave.rate)
    return spec


def _peaks(y):
    """Strict local maxima of a 1-D array, each with its flanking local minima
    (or the array's ends): (maxima, lo, hi) index arrays."""
    # neighbours are compared slice to slice, not through np.diff, so inf compares as itself
    left, mid, right = y[:-2], y[1:-1], y[2:]
    maxima = np.flatnonzero((mid > left) & (mid >= right)) + 1
    minima = np.flatnonzero((mid < left) & (mid <= right)) + 1
    bounds = np.concatenate(([0], minima, [len(y) - 1]))
    k = np.searchsorted(minima, maxima)
    return maxima, bounds[k], bounds[k + 1]


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
    top = float(np.max(mags))
    if top <= 0:
        return fit, []

    zones = []
    maxima, lo, hi = _peaks(shape)
    for m, lo_i, hi_i in zip(maxima.tolist(), lo.tolist(), hi.tolist()):
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
    """`spectrum_to_csv` as text chunks: the header, then blocks of up to svgplot._ROWS lines."""
    from .svgplot import _rows

    res, mags = spec.resolution_hz, spec.magnitudes
    yield "freq_hz,magnitude\n"
    yield from _rows("%r,%r\n", len(mags), lambda a, b: (np.arange(a, b) * res, mags[a:b]))  # spec.freqs[a:b]
