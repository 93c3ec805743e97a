"""F0 tracks, inter-pausal-unit segmentation and polynomial contour models.

The estimator is a plain normalized-autocorrelation tracker: it serves
contour-shape analyses, not tracker-grade accuracy.  Octave errors are kept
out only by the [fmin, fmax] search band.  Contours are modeled by least
squares polynomials over voiced frames, optionally restricted to one
inter-pausal unit (IPU).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .aems import PolyFit, fit_polynomial
from .annot import _csv_table
from .audio import Waveform, _frozen_array, _ms_to_samples, _positive
from .errors import DegenerateInputError, ParameterError, ParseError

__all__ = [
    "F0Track",
    "IPU",
    "PolyContourModel",
    "estimate_f0_autocorr",
    "segment_ipus",
    "fit_contour",
    "f0_track_to_csv",
    "f0_track_csv_chunks",
    "parse_f0_csv",
    "contour_model_to_dict",
]


@dataclass(frozen=True, eq=False)
class F0Track:
    """Uniformly hopped F0 frames as read-only float64 arrays; NaN (or None
    on input) marks an unvoiced frame."""

    times_s: np.ndarray
    f0_hz: np.ndarray
    hop_s: float

    def __post_init__(self) -> None:
        times = _frozen_array(self.times_s, "frame times", "finite", empty_ok=True)
        # f0 >= the least positive float is f0 > 0
        f0 = _frozen_array(self.f0_hz, "voiced f0", "finite and > 0",
                           np.finfo(float).smallest_subnormal, empty_ok=True, nan_ok=True)
        if len(times) != len(f0):
            raise ParameterError(f"{len(times)} times vs {len(f0)} f0 values")
        h = _positive(self.hop_s, "hop_s")
        # math.isclose(step, h, rel_tol=1e-6, abs_tol=1e-9) for every step at
        # once; like isclose, no infinite step is close to a finite h
        with np.errstate(over="ignore"):
            step = np.diff(times)
        close = np.abs(step - h) <= np.maximum(1e-6 * np.maximum(np.abs(step), h), 1e-9)
        close &= np.isfinite(step)
        if not close.all():
            i = int(np.argmin(close))
            raise ParameterError(
                f"frame times must advance uniformly by hop_s={h}, "
                f"got step {float(step[i])} at t={float(times[i])}"
            )
        object.__setattr__(self, "times_s", times)
        object.__setattr__(self, "f0_hz", f0)
        object.__setattr__(self, "hop_s", h)

    def __len__(self) -> int:
        return len(self.times_s)

    @property
    def voiced_count(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.f0_hz)))

    def voiced_frames(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, f0) arrays of the voiced frames only."""
        voiced = ~np.isnan(self.f0_hz)
        return self.times_s[voiced], self.f0_hz[voiced]


@dataclass(frozen=True)
class IPU:
    """One inter-pausal unit: a stretch of speech between pauses."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start_s) and math.isfinite(self.end_s)):
            raise ParameterError("IPU bounds must be finite")
        if not self.end_s > self.start_s:
            raise ParameterError(
                f"IPU must have end_s > start_s, got [{self.start_s}, {self.end_s}]"
            )


@dataclass(frozen=True)
class PolyContourModel:
    """A polynomial fit over the voiced frames of a track (or one IPU of it)."""

    fit: PolyFit
    domain: IPU | None
    voiced_frame_count: int

    def __post_init__(self) -> None:
        if self.voiced_frame_count < self.fit.degree + 1:
            raise ParameterError(
                f"{self.voiced_frame_count} voiced frames cannot constrain "
                f"a degree-{self.fit.degree} fit"
            )


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------


_BLOCK_FRAMES = 128  # frames per batched FFT: bounds the working set to a few MB


def estimate_f0_autocorr(
    wave: Waveform,
    fmin: float = 60.0,
    fmax: float = 500.0,
    frame_ms: float = 40.0,
    hop_ms: float = 10.0,
    voicing_ratio: float = 0.3,
) -> F0Track:
    """Frame-wise F0 by normalized autocorrelation over the [fmin, fmax] band.

    A frame is voiced when its peak normalized autocorrelation reaches
    voicing_ratio and its RMS is at least 1% of the whole track's RMS; the
    best lag is refined by parabolic interpolation and the result clamped
    into [fmin, fmax].  Frames are processed in fixed blocks, so memory stays
    bounded on long recordings.
    """
    if not 0 < fmin < fmax:
        raise ParameterError(f"need 0 < fmin < fmax, got {fmin}, {fmax}")
    if not 0.0 <= voicing_ratio <= 1.0:
        raise ParameterError(f"voicing_ratio must lie in [0, 1], got {voicing_ratio}")
    if wave.rate < 4 * fmax:
        raise ParameterError(
            f"sample rate {wave.rate} too low for fmax={fmax} (need >= {4 * fmax})"
        )
    rate = wave.rate
    frame_len = max(2, _ms_to_samples(frame_ms, rate, "frame_ms"))
    hop_len = max(1, _ms_to_samples(hop_ms, rate, "hop_ms"))
    lag_min = max(1, math.ceil(rate / fmax))
    # cap before the floor: rate / fmin is inf for a subnormal fmin
    lag_max = math.floor(min(frame_len - 2, rate / fmin))
    if lag_max <= lag_min:
        raise ParameterError(
            f"frame of {frame_len} samples cannot hold lags up to {lag_max}"
        )

    x = wave.samples
    track_rms = float(np.sqrt(np.mean(x**2)))
    # no frames when the signal is shorter than one (x[:0] allocates nothing)
    frames = sliding_window_view(x, frame_len)[::hop_len] if len(x) >= frame_len else x[:0]
    # smallest power of two >= frame_len + lag_max + 2: no circular wrap
    nfft = 1 << (frame_len + lag_max + 1).bit_length()
    lags = np.arange(lag_min, lag_max + 1)
    width = len(lags)
    f0 = np.empty(len(frames))
    for lo in range(0, len(frames), _BLOCK_FRAMES):
        blk = slice(lo, lo + _BLOCK_FRAMES)
        block = frames[blk]
        rows = np.arange(len(block))
        sq = block**2
        rms = np.sqrt(np.mean(sq, axis=1))

        # autocorrelation numerators via FFT, energy-normalized per lag
        spec = np.fft.rfft(block, nfft, axis=1)
        ac = np.fft.irfft(spec * np.conj(spec), nfft, axis=1)[:, lag_min : lag_max + 1]
        csq = np.cumsum(sq, axis=1)
        e_head = csq[:, frame_len - lags - 1]
        e_tail = csq[:, -1:] - csq[:, lags - 1]
        denom = np.sqrt(e_head * e_tail)
        with np.errstate(invalid="ignore", divide="ignore"):
            ncc = np.where(denom > 0, ac / denom, 0.0)

        best = np.argmax(ncc, axis=1)
        peak = ncc[rows, best]
        unvoiced = (track_rms == 0.0) | (rms < 0.01 * track_rms) | (peak < voicing_ratio)

        # octave guard: a lag of 2T correlates nearly as well as the true
        # period T, so among near-tied local maxima the shortest lag wins
        ties = np.zeros(ncc.shape, dtype=bool)
        mid = ncc[:, 1:-1]
        ties[:, 1:-1] = (mid > ncc[:, :-2]) & (mid >= ncc[:, 2:]) & (mid >= 0.95 * peak[:, None])
        best = np.where(ties.any(axis=1), np.argmax(ties, axis=1), best)

        # parabolic refinement where the best lag is a proper interior maximum
        y0, y1, y2 = ncc[rows, best - 1], ncc[rows, best], ncc[rows, (best + 1) % width]
        curv = y0 - 2 * y1 + y2
        refine = (best > 0) & (best < width - 1) & (curv < 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            lag = lags[best] + np.where(refine, 0.5 * (y0 - y2) / curv, 0.0)
        f0[blk] = np.where(unvoiced, np.nan, np.clip(rate / lag, fmin, fmax))

    times = (np.arange(len(frames)) * hop_len + frame_len / 2) / rate
    return F0Track(times_s=times, f0_hz=f0, hop_s=hop_len / rate)


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------


def segment_ipus(
    wave: Waveform,
    silence_db: float = -40.0,
    min_pause_ms: float = 200.0,
    min_ipu_ms: float = 100.0,
) -> list[IPU]:
    """Split a waveform into inter-pausal units on frame energy.

    10 ms frames below silence_db (relative to the loudest frame) count as
    silent; silent gaps shorter than min_pause_ms do not split, and units
    shorter than min_ipu_ms are dropped.
    """
    frame_len = max(1, round(0.010 * wave.rate))
    x = wave.samples
    n_frames = len(x) // frame_len
    if n_frames == 0:
        return []
    frames = x[: n_frames * frame_len].reshape(n_frames, frame_len)
    rms = np.sqrt(np.mean(frames**2, axis=1))
    peak = float(np.max(rms))
    if peak <= 0:
        return []
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(rms / peak)
    speech = db >= silence_db

    # speech runs [starts[k], ends[k]); interior gaps shorter than the pause
    # threshold are bridged by merging the runs on either side
    edges = np.flatnonzero(np.diff(speech, prepend=False, append=False))
    starts, ends = edges[::2], edges[1::2]
    split = starts[1:] - ends[:-1] >= max(1, round(min_pause_ms / 10.0))
    starts = np.concatenate((starts[:1], starts[1:][split]))
    ends = np.concatenate((ends[:-1][split], ends[-1:]))

    frame_s = frame_len / wave.rate
    ipus = [IPU(i * frame_s, j * frame_s) for i, j in zip(starts.tolist(), ends.tolist())]
    return [u for u in ipus if (u.end_s - u.start_s) * 1000.0 >= min_ipu_ms]


# ---------------------------------------------------------------------------
# contour fitting
# ---------------------------------------------------------------------------


def fit_contour(track: F0Track, degree: int, domain: IPU | None = None) -> PolyContourModel:
    """Least-squares polynomial over the voiced frames of a track.

    Unvoiced frames never enter the fit.  With a domain, only frames inside
    [start_s, end_s] are used and the time axis is measured from the domain
    start; otherwise from the first frame.
    """
    ts, vs = track.voiced_frames()
    if domain is not None:
        keep = (ts >= domain.start_s) & (ts <= domain.end_s)
        ts, vs = ts[keep], vs[keep]
        origin = domain.start_s
    else:
        origin = track.times_s[0] if len(track) else 0.0
    if len(ts) < degree + 1:
        raise DegenerateInputError(
            f"{len(ts)} voiced frames cannot constrain a degree-{degree} fit"
        )
    fit = fit_polynomial(ts - origin, vs, degree)
    return PolyContourModel(fit=fit, domain=domain, voiced_frame_count=int(len(ts)))


# ---------------------------------------------------------------------------
# interchange
# ---------------------------------------------------------------------------


def f0_track_to_csv(track: F0Track) -> str:
    """CSV rendering `time_s,f0_hz`, empty f0 for unvoiced frames."""
    return "".join(f0_track_csv_chunks(track))


def f0_track_csv_chunks(track: F0Track) -> Iterator[str]:
    """`f0_track_to_csv` as text chunks, one line each."""
    yield "time_s,f0_hz\n"
    for t, v in zip(track.times_s.tolist(), track.f0_hz.tolist()):
        yield f"{t!r},\n" if math.isnan(v) else f"{t!r},{v!r}\n"


def parse_f0_csv(text: str | bytes, source: str = "<f0 csv>") -> F0Track:
    """Parse the `time_s,f0_hz` CSV form (as produced by f0_track_to_csv).

    The text is read as an annotation CSV is (see annot): bytes are UTF-16
    after a byte-order mark and UTF-8 otherwise, rows end at LF or CRLF only,
    and fields may be quoted.  Accepts externally produced tracks as long as
    the frame times advance uniformly.  Raises ParseError with a row number
    on malformed rows.
    """
    times: list[float] = []
    f0: list[float] = []
    for row_no, row in _csv_table(text, ("time_s", "f0_hz"), source):
        # an empty f0 marks an unvoiced frame, as NaN; no text may give NaN itself
        f_raw = row[1].strip()
        try:
            t, v = float(row[0]), float(f_raw) if f_raw else math.nan
        except ValueError:
            t = v = math.nan
        if not (math.isfinite(t) and (math.isfinite(v) or not f_raw)):
            raise ParseError(f"expected a finite time and f0, got {','.join(row)!r}", row=row_no)
        times.append(t)
        f0.append(v)
    hop = times[1] - times[0] if len(times) >= 2 else 0.01
    try:
        return F0Track(times_s=times, f0_hz=f0, hop_s=hop)
    except ParameterError as exc:
        raise ParseError(str(exc)) from None


def contour_model_to_dict(model: PolyContourModel) -> dict:
    """JSON-ready model form: degree, coefficients, domain, rmse, frame count."""
    return {
        "degree": model.fit.degree,
        "coeffs": list(model.fit.coeffs),
        "domain": (
            None
            if model.domain is None
            else {"start_s": model.domain.start_s, "end_s": model.domain.end_s}
        ),
        "rmse": model.fit.rmse,
        "voiced_frame_count": model.voiced_frame_count,
    }
