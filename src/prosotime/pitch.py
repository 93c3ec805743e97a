"""F0 tracks, inter-pausal-unit segmentation and polynomial contour models.

The estimator is a plain normalized-autocorrelation tracker: it serves
contour-shape analyses, not tracker-grade accuracy.  Octave errors are kept
out only by the [fmin, fmax] search band.  Contours are modeled by least
squares polynomials over voiced frames, optionally restricted to one
inter-pausal unit (IPU).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, islice
from operator import sub
from typing import TYPE_CHECKING, BinaryIO, Iterator, TextIO

from ._record import Record
from .errors import DegenerateInputError, ParameterError, ParseError, _positive

if TYPE_CHECKING:  # numpy and audio are imported where arrays are computed
    import numpy as np

    from ._polyfit import PolyFit
    from .audio import Waveform, WavSource

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


class F0Track(Record, eq=False):
    """Uniformly hopped F0 frames; NaN (or None on input) marks an unvoiced frame.

    The frame times and F0 are held as two array("d") columns (_times and
    _f0), so that a track is built, checked and written without numpy; a
    synthesized contour's columns compute its frames from its targets as they
    are read (fsm._Frames).  `times_s` and `f0_hz` give them as
    read-only float64 arrays, made on each access: zero-copy views of an array.
    """

    times_s: np.ndarray
    f0_hz: np.ndarray
    hop_s: float

    def __init__(self, times_s: np.ndarray, f0_hz: np.ndarray, hop_s: float) -> None:
        self._fill(*_checked(_column(times_s, "frame times"), _column(f0_hz, "voiced f0"), hop_s))

    def _fill(self, times: array, f0: array, hop_s: float) -> None:
        """Hold the columns: the times advance uniformly by hop_s, and every voiced F0 is finite and > 0."""
        vars(self).update(_times=times, _f0=f0, hop_s=hop_s)

    @property
    def times_s(self) -> np.ndarray:
        return _ndarray(self._times)

    @property
    def f0_hz(self) -> np.ndarray:
        return _ndarray(self._f0)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def voiced_count(self) -> int:
        return len(self._f0) - sum(map(math.isnan, self._f0))

    def voiced_frames(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, f0) arrays of the voiced frames only."""
        import numpy as np

        times, f0 = self.times_s, self.f0_hz
        voiced = ~np.isnan(f0)
        return times[voiced], f0[voiced]


def _checked(times: array, f0: array, hop_s: float) -> tuple[array, array, float]:
    """(times, f0, float(hop_s)), once they pass F0Track's checks; else a ParameterError naming the first fault.

    Builtins over the columns decide; the exact rule of each check runs only to name the first bad value."""
    if not math.isfinite(sum(times)):  # a NaN or an infinity, or a sum that overflows
        bad = next((t for t in times if not math.isfinite(t)), None)
        if bad is not None:
            raise ParameterError(f"frame times must be finite, got {bad}")
    _voiced_range(f0)  # refuses a voiced F0 outside 0 < hz < inf
    if len(times) != len(f0):
        raise ParameterError(f"{len(times)} times vs {len(f0)} f0 values")
    h = _positive(hop_s, "hop_s")

    def close(step: float) -> bool:  # a positive step, and like isclose; no infinite step is close to a finite h
        return step > 0 and math.isclose(step, h, rel_tol=1e-6, abs_tol=1e-9)

    # the steps close to h form one interval, so the least and the greatest step decide;
    # the times are finite, so a step is finite or, where it overflows, infinite
    if len(times) > 1:
        view = memoryview(times)
        if not (close(min(map(sub, view[1:], view))) and close(max(map(sub, view[1:], view)))):
            k, step = next((k, step) for k, step in enumerate(map(sub, view[1:], view)) if not close(step))
            raise ParameterError(f"frame times must advance uniformly by hop_s={h}, "
                                 f"got step {step} at t={times[k]}")
    return times, f0, h


def _column(values, what: str) -> array:
    """values as a new array("d"), None read as NaN; an ndarray is converted as numpy converts it."""
    if hasattr(values, "__array__"):  # numpy is loaded already
        import numpy as np

        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            return array("d", values.tobytes())
    else:
        try:
            return array("d", [math.nan if v is None else v for v in values])
        except TypeError:  # no sequence of numbers
            pass
    raise DegenerateInputError(f"{what} must form a non-empty 1-D array")


def _ndarray(column) -> np.ndarray:
    """A read-only float64 array over column, sharing the memory of an array("d")."""
    import numpy as np

    return np.frombuffer(memoryview(column if isinstance(column, array) else column[:]).toreadonly(), dtype=np.float64)


def _voiced_range(f0: array) -> tuple[float, float] | None:
    """The least and the greatest voiced F0, or None when no frame is voiced; they must lie in 0 < hz < inf.

    min and max pass over a NaN after their first value, so they start at the first voiced frame.  Only when
    they leave the range does the exact rule run, to name the first voiced F0 outside it in a ParameterError.
    """
    first = next((k for k, v in enumerate(f0) if v == v), len(f0))
    if first == len(f0):
        return None
    lo, hi = min(islice(f0, first, None)), max(islice(f0, first, None))
    if not (0.0 < lo and hi < math.inf):
        bad = next(v for v in f0 if not (0.0 < v < math.inf or v != v))
        raise ParameterError(f"voiced f0 must be finite and > 0, got {bad}")
    return lo, hi


class IPU(Record):
    """One inter-pausal unit: a stretch of speech between pauses."""

    start_s: float
    end_s: float

    def __init__(self, start_s: float, end_s: float) -> None:
        if not -math.inf < start_s < end_s < math.inf:
            if not (math.isfinite(start_s) and math.isfinite(end_s)):
                raise ParameterError("IPU bounds must be finite")
            raise ParameterError(f"IPU must have end_s > start_s, got [{start_s}, {end_s}]")
        vars(self).update(start_s=start_s, end_s=end_s)


class PolyContourModel(Record):
    """A polynomial fit over the voiced frames of a track (or one IPU of it)."""

    fit: PolyFit
    domain: IPU | None
    voiced_frame_count: int

    def __init__(self, fit: PolyFit, domain: IPU | None, voiced_frame_count: int) -> None:
        if voiced_frame_count < fit.degree + 1:
            raise ParameterError(f"{voiced_frame_count} voiced frames cannot constrain a degree-{fit.degree} fit")
        vars(self).update(fit=fit, domain=domain, voiced_frame_count=voiced_frame_count)


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------


_BLOCK_FRAMES = 64  # frames per batched FFT: bounds the work arrays to about 2 MB at the defaults
_LEAF = 1 << 13  # samples squared at once by the track and IPU frame RMS


def estimate_f0_autocorr(
    wave: Waveform | WavSource,
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
    into [fmin, fmax].  Frames are processed in fixed batches, so memory stays
    bounded on long recordings.  wave is a Waveform, or an open WavSource
    whose samples are decoded once, a block at a time, after the parameters
    are checked; the voicing decision waits for the whole track's RMS.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    from .audio import _fold, _leaves, _ms_to_samples, _ranges

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

    n = len(wave)
    # no frames when the signal is shorter than one
    n_frames = (n - frame_len) // hop_len + 1 if n >= frame_len else 0
    # smallest power of two >= frame_len + lag_max + 2: no circular wrap
    nfft = 1 << (frame_len + lag_max + 1).bit_length()
    lags = np.arange(lag_min, lag_max + 1)
    width = len(lags)

    def candidates(block, rms, peak, f0):
        """Each frame's RMS, NCC peak and F0 candidate clamped into [fmin, fmax], written into rms, peak and f0.

        Every batch-sized array is a view of the work arrays, cut to the
        batch's rows, and each stage writes into one with out=.
        """
        m = len(block)
        pad, spec, power, csq, denom, ncc, ties, mask = (w[:m] for w in work)
        rows = np.arange(m)

        # autocorrelation numerators via FFT of the zero-padded frames (a
        # contiguous copy transforms faster than the strided frames); conj *
        # spec, in this order, is the power spectrum; the irfft writes over pad
        pad[:, :frame_len] = block
        pad[:, frame_len:] = 0.0
        np.fft.rfft(pad, axis=1, out=spec)
        np.multiply(np.conjugate(spec, out=power), spec, out=power)
        ac = np.fft.irfft(power, nfft, axis=1, out=pad)[:, lag_min : lag_max + 1]

        # energy-normalized per lag: the squares' running sum gives the energy
        # of the frame's head and tail at each lag
        np.square(block, out=csq)
        np.sqrt(np.mean(csq, axis=1), out=rms)
        np.cumsum(csq, axis=1, out=csq)
        e_head = csq[:, frame_len - lag_max - 1 : frame_len - lag_min][:, ::-1]
        np.subtract(csq[:, -1:], csq[:, lag_min - 1 : lag_max], out=denom)  # e_tail
        np.sqrt(np.multiply(e_head, denom, out=denom), out=denom)
        ncc.fill(0.0)
        np.divide(ac, denom, out=ncc, where=np.greater(denom, 0.0, out=mask))

        best = np.argmax(ncc, axis=1)
        peak[:] = ncc[rows, best]

        # octave guard: a lag of 2T correlates nearly as well as the true
        # period T, so among near-tied local maxima the shortest lag wins;
        # the end columns of ties stay False
        mid, inner = ncc[:, 1:-1], ties[:, 1:-1]
        np.greater(mid, ncc[:, :-2], out=inner)
        inner &= np.greater_equal(mid, ncc[:, 2:], out=mask[:, 1:-1])
        inner &= np.greater_equal(mid, 0.95 * peak[:, None], out=mask[:, 1:-1])
        best = np.where(ties.any(axis=1), np.argmax(ties, axis=1), best)

        # parabolic refinement where the best lag is a proper interior maximum
        y0, y1, y2 = ncc[rows, best - 1], ncc[rows, best], ncc[rows, (best + 1) % width]
        curv = y0 - 2 * y1 + y2
        refine = (best > 0) & (best < width - 1) & (curv < 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            lag = lags[best] + np.where(refine, 0.5 * (y0 - y2) / curv, 0.0)
        np.clip(rate / lag, fmin, fmax, out=f0)

    rms_all, peak_all, f0 = np.empty(n_frames), np.empty(n_frames), np.empty(n_frames)
    # the batch work arrays, made once per track (none without frames) and reused by every batch
    batch = min(_BLOCK_FRAMES, n_frames)
    work = [
        np.empty((batch, nfft)),  # the zero-padded frames, then their autocorrelations
        np.empty((batch, nfft // 2 + 1), complex),  # the spectrum
        np.empty((batch, nfft // 2 + 1), complex),  # the power spectrum
        np.empty((batch, frame_len)),  # the squares, then their running sum
        np.empty((batch, width)),  # the NCC denominators
        np.empty((batch, width)),  # the NCC
        np.zeros((batch, width), dtype=bool),  # the tie mask
        np.empty((batch, width), dtype=bool),  # scratch mask
    ] if batch else []
    # one pass over the samples: the track RMS's leaves (None) and the batches of frames
    spans = [(a, b, None) for a, b in _leaves(n, _LEAF)]
    for lo in range(0, n_frames, _BLOCK_FRAMES):
        hi = min(lo + _BLOCK_FRAMES, n_frames)
        spans.append((lo * hop_len, (hi - 1) * hop_len + frame_len, slice(lo, hi)))
    spans.sort(key=lambda span: span[1])
    sums = []
    for x, (_, _, blk) in zip(_ranges(wave.blocks(), [span[:2] for span in spans]), spans):
        if blk is None:
            sums.append(np.add.reduce(x**2))
        else:
            candidates(sliding_window_view(x, frame_len)[::hop_len], rms_all[blk], peak_all[blk], f0[blk])
    work.clear()  # freed before the track is built

    track_rms = float(np.sqrt(_fold(iter(sums), n, _LEAF) / n))  # np.mean(x**2), bit for bit
    f0[(track_rms == 0.0) | (rms_all < 0.01 * track_rms) | (peak_all < voicing_ratio)] = np.nan  # unvoiced
    times = (np.arange(n_frames) * hop_len + frame_len / 2) / rate
    # valid by construction: the times step by hop_len / rate, and each F0 is NaN or clipped into [fmin, fmax]
    return F0Track._of(array("d", times.tobytes()), array("d", f0.tobytes()), hop_len / rate)


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------


def _block_frame_rms(blocks, n, frame_len):
    """The RMS of each whole frame_len-sample frame of x, squared a batch of rows at a time.

    x comes as consecutive arrays from blocks, n samples in all. Each row
    reduces on its own, so the batches change no bit of
    np.sqrt(np.mean(frames**2, axis=1)).
    """
    import numpy as np

    from .audio import _ranges

    n_frames = n // frame_len
    rows = max(1, _LEAF // frame_len)
    starts = range(0, n_frames, rows)
    bounds = [(lo * frame_len, min(lo + rows, n_frames) * frame_len) for lo in starts]
    rms = np.empty(n_frames)
    for x, lo in zip(_ranges(blocks, bounds), starts):
        rms[lo : lo + rows] = np.sqrt(np.mean(x.reshape(-1, frame_len) ** 2, axis=1))
    return rms


def segment_ipus(
    wave: Waveform | WavSource,
    silence_db: float = -40.0,
    min_pause_ms: float = 200.0,
    min_ipu_ms: float = 100.0,
) -> list[IPU]:
    """Split a waveform into inter-pausal units on frame energy.

    10 ms frames below silence_db (relative to the loudest frame) count as
    silent; silent gaps shorter than min_pause_ms do not split, and units
    shorter than min_ipu_ms are dropped.  wave is a Waveform, or an open
    WavSource whose samples are decoded once, a block at a time, after the
    parameters are checked.
    """
    if not (math.isfinite(silence_db) and 0 <= min_pause_ms < math.inf and 0 <= min_ipu_ms < math.inf):
        raise ParameterError(
            "need a finite silence_db and finite min_pause_ms, min_ipu_ms >= 0, "
            f"got {silence_db}, {min_pause_ms}, {min_ipu_ms}"
        )
    import numpy as np

    frame_len = max(1, round(0.010 * wave.rate))
    rms = _block_frame_rms(wave.blocks(), len(wave), frame_len)
    peak = float(np.max(rms, initial=0.0))
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

    The columns are read and the system solved with the standard library
    (_polyfit.fit_legendre).  A system whose full rank, or whose agreement with
    _polyfit.fit_polynomial, that solver cannot certify is handed to
    fit_polynomial, whose result or exception is then the fit's.
    """
    times, f0 = track._times, track._f0
    if domain is None:
        origin, lo, hi = times[0] if len(times) else 0.0, -math.inf, math.inf
    else:
        origin, lo, hi = domain.start_s, domain.start_s, domain.end_s
    i, j = bisect_left(times, lo), bisect_right(times, hi)  # the frames in the domain, as the times rise
    xs, ys = [], []
    for t, v in zip(times[i:j], f0[i:j]):
        if v == v:  # voiced
            xs.append(t - origin)
            ys.append(v)
    if len(xs) < degree + 1:
        raise DegenerateInputError(
            f"{len(xs)} voiced frames cannot constrain a degree-{degree} fit"
        )
    from ._polyfit import fit_legendre, fit_polynomial

    fit = fit_legendre(xs, ys, degree)
    if fit is None:
        import numpy as np

        xs, ys = np.array(xs), np.array(ys)  # no list of the voiced frames is held while numpy fits
        fit = fit_polynomial(xs, ys, degree)
    return PolyContourModel(fit=fit, domain=domain, voiced_frame_count=len(xs))


# ---------------------------------------------------------------------------
# interchange
# ---------------------------------------------------------------------------


def f0_track_to_csv(track: F0Track) -> str:
    """CSV rendering `time_s,f0_hz`, empty f0 for unvoiced frames."""
    return "".join(f0_track_csv_chunks(track))


def f0_track_csv_chunks(track: F0Track) -> Iterator[str]:
    """`f0_track_to_csv` as text chunks of up to svgplot._ROWS lines; a run of equal F0 values is formatted once.

    Equal voiced F0 values, which are positive, have equal bits and so equal reprs.
    """
    from .svgplot import _ROWS

    yield "time_s,f0_hz\n"
    frames, last, tail = zip(track._times, track._f0), None, ""
    for _ in range(0, len(track), _ROWS):
        lines = []
        for t, v in islice(frames, _ROWS):
            if v != last:  # and at every NaN
                last, tail = v, ",\n" if v != v else f",{v!r}\n"
            lines.append(f"{t!r}{tail}")
        yield "".join(lines)


_UNVOICED = {"": math.nan}  # .get(f, f): an empty f0 field as NaN, any other as itself


def parse_f0_csv(text: str | bytes | BinaryIO, source: str = "<f0 csv>") -> F0Track:
    """Parse the `time_s,f0_hz` CSV form (as produced by f0_track_to_csv).

    The text, or an open binary file from its start, is read as an annotation
    CSV is, as a stream (see annot._read): bytes are UTF-16 after a byte-order
    mark and UTF-8 otherwise, rows end at LF or CRLF only, and fields may be
    quoted.  Accepts externally produced tracks as long as the frame times
    advance uniformly.  Raises ParseError with a row number on malformed rows.

    The rows come in blocks (annot._csv_table), and each block's columns are
    converted by float() and tested for finiteness whole.  A block that fails
    is read again row by row, so that the error names its first bad row, and
    does so before any fault of the table that follows that row.
    """
    from .annot import _read

    return _read(text, source, "\n", _f0_track)


def _f0_track(text: TextIO) -> F0Track:
    """parse_f0_csv of text, whose lines end at LF."""
    from .annot import _csv_table

    times, f0 = array("d"), array("d")
    for row_nos, records in _csv_table(text, ("time_s", "f0_hz")):
        t_col, f_col = zip(*records)
        try:  # the block whole: float() strips what strip() strips, and an empty f0 is NaN
            ts = array("d", map(float, t_col))
            fs = array("d", map(float, map(_UNVOICED.get, f_col, f_col)))
        except ValueError:
            ts = fs = None
        if ts is not None and math.isfinite(sum(ts)) and math.isfinite(sum(compress(fs, f_col))):
            times += ts  # a sum is finite only where its terms are; one that overflows reads the block again
            f0 += fs
            continue
        for row_no, row in zip(row_nos, records):  # row by row, for the first fault
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
    if not 0 < hop < math.inf:  # the first step sets hop_s: name it, as F0Track names a later one
        raise ParseError(f"frame times must advance by a finite step, got step {hop} at t={times[0]}")
    try:  # the constructor's checks, under the reader's error type
        return F0Track._of(*_checked(times, f0, hop))
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
