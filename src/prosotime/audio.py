"""Waveform container, RIFF/WAVE reading, block regrouping and test-signal synthesis.

All downstream analysis consumes the Waveform type defined here. The WAV
reader is deliberately small: it honours the `fmt ` and `data` chunks of a
little-endian RIFF file, ignores everything else, and rejects compressed
formats outright. The readers of a block source (a Waveform or a WavSource)
regroup its blocks into the ranges they need through one generator, _ranges.
"""

from __future__ import annotations

import math
import struct
import sys
from collections import deque
from contextlib import contextmanager
from itertools import accumulate
from typing import Callable, Iterator

import numpy as np

from ._record import Record
from .errors import DegenerateInputError, FormatError, ParameterError, ParseError, _positive

__all__ = [
    "Waveform",
    "WavSource",
    "open_wav",
    "read_wav",
    "write_wav_pcm16",
    "synthesize_am",
]


def _ms_to_samples(ms, rate, what) -> int:
    """round(ms * rate / 1000) samples; ParameterError beyond any array's length."""
    n = ms * rate / 1000.0
    if not abs(n) <= sys.maxsize:  # also nan and inf, which round() cannot take
        raise ParameterError(f"{what}={ms} ms at rate {rate} exceeds the largest array")
    return round(n)


def _frozen_array(values, what, rule, lo=-np.inf, hi=np.inf, slack=0.0) -> np.ndarray:
    """values as a read-only non-empty 1-D float64 array, finite and within [lo, hi].

    One min() and one max() test the range; NaN fails it.
    Values within slack outside [lo, hi] are clipped into a new array;
    otherwise a writeable array is copied, so that no caller can change the
    result, and a read-only one is kept. A failure names the first bad value.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or not arr.size:
        raise DegenerateInputError(f"{what} must form a non-empty 1-D array")
    a, b = arr.min(), arr.max()
    if not (lo - slack <= a and b <= hi + slack and -np.inf < a and b < np.inf):
        ok = (lo - slack <= arr) & (arr <= hi + slack) & np.isfinite(arr)
        raise ParameterError(f"{what} must be {rule}, got {arr[np.argmin(ok)]}")
    if a < lo or b > hi:
        arr = np.clip(arr, lo, hi)
    elif arr.flags.writeable:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


class Waveform(Record, eq=False):
    """Mono sampled signal with finite amplitudes in [-1, 1], held read-only.

    Samples up to 1e-12 outside [-1, 1] are taken as rounding error and clipped.
    """

    samples: np.ndarray
    rate: int

    def __init__(self, samples: np.ndarray, rate: int) -> None:
        samples = _frozen_array(samples, "waveform samples",
                                "finite and lie within [-1, 1]", -1.0, 1.0, 1e-12)
        vars(self).update(samples=samples, rate=_positive(rate, "sample rate", int))

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.rate

    def __len__(self):
        return len(self.samples)

    def blocks(self) -> Iterator[np.ndarray]:
        """The samples as a block source (see WavSource): one block."""
        yield self.samples


# WAVE format tags we accept: 1 = integer PCM, 3 = IEEE float. Tag 0xFFFE
# (WAVE_FORMAT_EXTENSIBLE) carries the real tag in the first two bytes of its
# sub-format GUID; the other 14 bytes are the fixed KSDATAFORMAT tail.
_WAVE_PCM = 1
_WAVE_IEEE_FLOAT = 3
_WAVE_EXTENSIBLE = 0xFFFE
_KSDATAFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")
_BLOCK_FRAMES = 1 << 14  # frames decoded per read: bounds the raw bytes and temporaries


class WavSource(Record, eq=False):
    """A WAV file's mono samples as a block source: rate and length known, blocks() decodes them.

    blocks() yields float64 arrays of up to _BLOCK_FRAMES samples each, in order, and
    reads the file again on every call; it works while open_wav's with block is open.
    """

    rate: int
    n: int
    blocks: Callable[[], Iterator[np.ndarray]]

    def __init__(self, rate: int, n: int, blocks: Callable[[], Iterator[np.ndarray]]) -> None:
        vars(self).update(rate=rate, n=n, blocks=blocks)

    def __len__(self):
        return self.n


def _ranges(blocks, bounds):
    """x[a:b] for each (a, b) of bounds, x coming as consecutive arrays from blocks.

    bounds run in order of b. A range inside one block is a view of it, and one
    that spans blocks is joined from them. Only the blocks that a range still to
    come reaches are held. The blocks past the last range are read too, so every
    sample is decoded, and range-checked, whatever the ranges cover.
    """
    held = deque()  # (offset, block) pairs, in order
    end = 0
    blocks = iter(blocks)
    # keep[i]: the least start of bounds[i:]; blocks that end at or before it are done with
    keep = list(accumulate(reversed([a for a, _ in bounds]), min, initial=math.inf))[::-1]
    for i, (a, b) in enumerate(bounds):
        while end < b:
            block = next(blocks)
            held.append((end, block))
            end += len(block)
        parts = [blk[max(a - at, 0) : b - at] for at, blk in held if at < b and a < at + len(blk)]
        yield parts[0] if len(parts) == 1 else np.concatenate(parts or [np.empty(0)])
        while held and held[0][0] + len(held[0][1]) <= keep[i + 1]:
            held.popleft()
    for _ in blocks:  # a caller that zips this generator puts it first, so that zip gets here
        pass


def _half(n):
    """Where numpy's pairwise sum splits n > 128 elements: n // 2 rounded down to a multiple of 8."""
    return n // 2 - n // 2 % 8


def _leaves(n, leaf, lo=0):
    """The parts [a, b) of [lo, lo + n) that numpy's pairwise split reaches at <= leaf elements, in order."""
    if n <= leaf:
        return [(lo, lo + n)]
    half = _half(n)
    return _leaves(half, leaf, lo) + _leaves(n - half, leaf, lo + half)


def _fold(sums, n, leaf):
    """The leaves' sums, taken in order from the iterator sums, added up as numpy pairs them.

    numpy sums a contiguous float64 array pairwise: n > 128 elements split at
    _half(n), and each part is summed the same way. So for leaf >= 128, folding
    np.add.reduce of each part that _leaves(n, leaf) names gives the same
    additions in the same order as np.add.reduce of the whole.
    """
    if n <= leaf:
        return next(sums)
    half = _half(n)
    return _fold(sums, half, leaf) + _fold(sums, n - half, leaf)


@contextmanager
def open_wav(path) -> Iterator[WavSource]:
    """Parse a RIFF/WAVE file's header and yield its data chunk as a WavSource.

    Accepts PCM 8/16/24/32-bit and IEEE float-32 data with 1 or 2 channels,
    plain or in WAVE_FORMAT_EXTENSIBLE form. Stereo is downmixed by the
    per-sample arithmetic mean; integer samples are scaled by 1/2^(bits-1)
    and float samples are clipped to [-1, 1]. Each block is range-checked as a
    Waveform is: a NaN or infinite float sample is a ParameterError naming the
    first one. A pipe is refused with a FormatError.
    """
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe has no size to check the chunk sizes against
            raise FormatError(f"{path}: input is not a regular file")
        end = fh.seek(0, 2)

        def read(pos, n):
            """n bytes at pos; ParseError if the file ends before them."""
            fh.seek(pos)
            got = fh.read(n)
            if len(got) < n:
                raise ParseError("file ends before its chunk sizes say", offset=pos + len(got))
            return got

        if end < 12:
            raise ParseError("file too short for a RIFF header", offset=end)
        head = read(0, 12)
        if head[0:4] != b"RIFF":
            raise FormatError("missing RIFF magic in header chunk")
        if head[8:12] != b"WAVE":
            raise FormatError("RIFF form type is not WAVE")

        fmt = data = None
        pos = 12
        while pos + 8 <= end:
            cid, size = struct.unpack("<4sI", read(pos, 8))
            body_start = pos + 8
            if body_start + size > end:
                raise ParseError(f"chunk {cid!r} claims {size} bytes beyond end of file", offset=pos)
            if cid == b"fmt ":
                if size < 16:
                    raise ParseError("fmt chunk shorter than 16 bytes", offset=pos)
                body = read(body_start, min(size, 40))
                fmt = struct.unpack_from("<HHIIHH", body)
                if fmt[0] == _WAVE_EXTENSIBLE:
                    if size < 40:
                        raise ParseError("extensible fmt chunk shorter than 40 bytes", offset=pos)
                    if body[26:40] != _KSDATAFORMAT_TAIL:
                        raise FormatError("`fmt ` chunk: unknown extensible sub-format GUID")
                    fmt = struct.unpack_from("<H", body, 24) + fmt[1:]
            elif cid == b"data":
                data = (body_start, size)
            pos = body_start + size + (size & 1)  # chunks are word-aligned

        if fmt is None:
            raise FormatError("no `fmt ` chunk found")
        if data is None:
            raise FormatError("no `data` chunk found")

        audio_format, channels, rate, _byte_rate, _block_align, bits = fmt
        if channels not in (1, 2):
            raise FormatError(f"`fmt ` chunk: unsupported channel count {channels}")
        if not (audio_format == _WAVE_PCM and bits in (8, 16, 24, 32)
                or audio_format == _WAVE_IEEE_FLOAT and bits == 32):
            raise FormatError(
                f"`fmt ` chunk: unsupported codec (format tag {audio_format}, "
                f"{bits}-bit); only PCM 8/16/24/32-bit and IEEE float-32 are read"
            )
        start, size = data
        frame = bits // 8 * channels
        n = size // frame  # whole frames only
        if n == 0:
            raise ParseError("data chunk contains no samples", offset=end)

        def channel(col, count):
            """One channel's samples, decoded into a new float64 array."""
            out = np.empty(count)
            if audio_format == _WAVE_IEEE_FLOAT:
                return np.clip(col, -1.0, 1.0, out=out)
            np.multiply(col, 2.0 ** (1 - 8 * col.itemsize), out=out)  # a power of two: exact
            if bits == 8:
                out -= 1.0  # unsigned: 128 is silence
            return out

        def blocks():
            for lo in range(0, n, _BLOCK_FRAMES):
                count = min(_BLOCK_FRAMES, n - lo)
                payload = read(start + lo * frame, count * frame)
                if bits == 24:
                    # widen each 3-byte sample into the top three bytes of an int32
                    wide = np.zeros((count * channels, 4), dtype=np.uint8)
                    wide[:, 1:] = np.frombuffer(payload, np.uint8).reshape(-1, 3)
                    raw = wide.view("<i4")[:, 0]
                elif audio_format == _WAVE_IEEE_FLOAT:
                    raw = np.frombuffer(payload, "<f4")
                    finite = np.isfinite(raw)  # integer samples always lie in [-1, 1)
                    if not finite.all():
                        bad = raw[np.argmin(finite)]
                        raise ParameterError(f"waveform samples must be finite and lie within [-1, 1], got {bad}")
                else:
                    raw = np.frombuffer(payload, {8: "u1", 16: "<i2", 32: "<i4"}[bits])
                out = channel(raw[0::channels], count)
                if channels == 2:
                    out += 0.0  # the mean sums from +0.0, so -0.0 and -0.0 give +0.0
                    out += channel(raw[1::channels], count)
                    out *= 0.5
                yield out

        yield WavSource(_positive(rate, "sample rate", int), n, blocks)


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE file into a mono Waveform: open_wav's blocks in one array."""
    with open_wav(path) as source:
        samples = np.empty(len(source))
        lo = 0
        for block in source.blocks():
            samples[lo : lo + len(block)] = block
            lo += len(block)
    samples.setflags(write=False)
    return Waveform(samples, source.rate)


def write_wav_pcm16(path, wave: Waveform) -> None:
    """Write 16-bit PCM mono. Exists for test fixtures only."""
    ints = np.clip(np.rint(wave.samples * 32768.0), -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        _WAVE_PCM,
        1,
        wave.rate,
        wave.rate * 2,
        2,
        16,
        b"data",
        len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def synthesize_am(carrier_hz, mod_hz, depth, dur_s, rate) -> Waveform:
    """Amplitude-modulated sinusoid, normalized so peak |x| <= 1.

    x(t) = [(1 + depth*cos(2*pi*mod_hz*t)) / (1 + depth)] * sin(2*pi*carrier_hz*t)
    """
    rate = _positive(rate, "rate", int)
    if not carrier_hz < rate / 2:
        raise ParameterError(
            f"carrier {carrier_hz} Hz violates Nyquist for rate {rate}"
        )
    if not mod_hz < carrier_hz:
        raise ParameterError("modulation frequency must be below the carrier")
    if not 0.0 <= depth <= 1.0:
        raise ParameterError("depth must lie in [0, 1]")
    n = int(round(dur_s * rate))
    if n <= 0:
        raise ParameterError("duration too short for one sample")
    t = np.arange(n) / rate
    modulator = (1.0 + depth * np.cos(2.0 * np.pi * mod_hz * t)) / (1.0 + depth)
    return Waveform(modulator * np.sin(2.0 * np.pi * carrier_hz * t), rate)
