"""Waveform container, RIFF reader/writer round-trips, and signal synthesis."""

import importlib
import math
import os
import re
import struct
import threading
import tracemalloc
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prosotime import (
    AnalysisError,
    DegenerateInputError,
    Envelope,
    F0Track,
    FormatError,
    ParameterError,
    ParseError,
    Spectrum,
    Waveform,
    read_wav,
    aems,
    estimate_f0_autocorr,
    extract_envelope_peaks,
    segment_ipus,
    synthesize_am,
    write_wav_pcm16,
)
from prosotime.audio import _ranges, open_wav


def _wav_header(size, audio_format=1, channels=1, rate=8000, bits=16):
    """The 44-byte header of a plain WAV file whose data chunk holds size bytes."""
    block = channels * bits // 8
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + size, b"WAVE",
        b"fmt ", 16, audio_format, channels, rate, rate * block, block, bits,
        b"data", size,
    )


def _wav_bytes(payload, audio_format=1, channels=1, rate=8000, bits=16):
    return _wav_header(len(payload), audio_format, channels, rate, bits) + payload


_KSDATAFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def _extensible_wav_bytes(payload, sub_format=1, channels=1, rate=8000, bits=16,
                          guid_tail=_KSDATAFORMAT_TAIL):
    """WAVE_FORMAT_EXTENSIBLE file: 40-byte fmt chunk, sub-format GUID at byte 24."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, channels, rate, rate * block, block, bits,
                      22, bits, 0) + struct.pack("<H", sub_format) + guid_tail
    body = struct.pack("<4sI", b"fmt ", len(fmt)) + fmt
    body += struct.pack("<4sI", b"data", len(payload)) + payload
    return struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body


def _pcm24_bytes(ints):
    """Little-endian 3-byte two's-complement samples."""
    return np.asarray(ints, "<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()


def _interleave(left, right):
    out = np.empty(2 * len(left), dtype=left.dtype)
    out[0::2], out[1::2] = left, right
    return out


def former_decode(payload, audio_format, channels, bits):
    """The former read_wav sample decoding (PCM 8/16, float-32), kept as an oracle."""
    if audio_format == 1 and bits == 16:
        raw = np.frombuffer(payload[: len(payload) // 2 * 2], dtype="<i2")
        samples = raw.astype(np.float64) / 32768.0
    elif audio_format == 1 and bits == 8:
        raw = np.frombuffer(payload, dtype=np.uint8)
        samples = (raw.astype(np.float64) - 128.0) / 128.0
    else:
        raw = np.frombuffer(payload[: len(payload) // 4 * 4], dtype="<f4")
        samples = np.clip(raw.astype(np.float64), -1.0, 1.0)
    if channels == 2:
        samples = samples[: len(samples) // 2 * 2].reshape(-1, 2).mean(axis=1)
    return samples


def _encode(x, audio_format, bits):
    """Samples in [-1, 1] as the payload of a 16- or 24-bit PCM or a float-32 data chunk."""
    if audio_format == 3:
        return np.asarray(x, "<f4").tobytes()
    if bits == 24:
        return _pcm24_bytes(np.round(np.asarray(x) * (2**23 - 1)))
    return np.round(np.asarray(x) * (2**15 - 1)).astype("<i2").tobytes()


def _long_wav(path, seconds, audio_format, channels, bits):
    """seconds of one seeded second of noise at 16 kHz, written a second at a time."""
    second = _encode(np.random.default_rng(7).uniform(-0.5, 0.5, 16000 * channels), audio_format, bits)
    with open(path, "wb") as fh:
        fh.write(_wav_header(len(second) * seconds, audio_format, channels, 16000, bits))
        for _ in range(seconds):
            fh.write(second)


# the formats the memory and streaming tests cover: (audio_format, channels, bits)
_STREAM_FORMATS = pytest.mark.parametrize("audio_format, channels, bits",
                                          [(1, 1, 16), (1, 2, 16), (3, 1, 32), (1, 1, 24)],
                                          ids=["pcm16", "pcm16-stereo", "float32", "pcm24"])


def wide_decode(payload, audio_format, channels, bits):
    """former_decode, extended to 24- and 32-bit PCM read as little-endian integers."""
    if audio_format == 3 or bits < 24:
        return former_decode(payload, audio_format, channels, bits)
    width = bits // 8
    whole = len(payload) // (width * channels) * width * channels
    octets = np.frombuffer(payload[:whole], np.uint8).reshape(-1, width).astype(np.int64)
    ints = octets @ 256 ** np.arange(width)
    ints -= (ints >= 2 ** (bits - 1)) * 2**bits
    samples = ints / 2.0 ** (bits - 1)
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    return samples


class TestWaveform:
    def test_basic_properties(self):
        w = Waveform(np.zeros(400), 8000)
        assert len(w) == 400
        assert w.duration_s == pytest.approx(0.05)

    def test_samples_are_read_only(self):
        w = Waveform(np.zeros(4), 8000)
        with pytest.raises(ValueError):
            w.samples[0] = 1.0

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            Waveform(np.array([]), 8000)

    def test_2d_rejected(self):
        with pytest.raises(DegenerateInputError):
            Waveform(np.zeros((4, 2)), 8000)

    def test_bad_rate_rejected(self):
        with pytest.raises(ParameterError):
            Waveform(np.zeros(4), 0)

    def test_out_of_range_samples_rejected(self):
        with pytest.raises(ParameterError):
            Waveform(np.array([0.0, 1.5]), 8000)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(ParameterError, match="finite and lie within"):
            Waveform(np.array([0.1, bad, 0.2]), 8000)

    def test_rounding_slack_is_clipped(self):
        arr = np.array([1.0 + 5e-13, -1.0 - 5e-13, 0.5])
        w = Waveform(arr, 8000)
        assert w.samples.tolist() == [1.0, -1.0, 0.5]
        assert arr[0] > 1.0  # the caller's array is left alone

    def test_writeable_input_is_copied(self):
        arr = np.linspace(-0.5, 0.5, 100)
        w = Waveform(arr, 8000)
        arr[:] = 0.9
        assert w.samples[0] == -0.5 and w.samples[-1] == 0.5
        assert not np.shares_memory(w.samples, arr)

    def test_read_only_input_is_kept(self):
        arr = np.linspace(-0.5, 0.5, 100)
        arr.setflags(write=False)
        assert Waveform(arr, 8000).samples is arr


@pytest.mark.parametrize("make", [
    lambda: Waveform(np.zeros(3), 8000),
    lambda: Envelope(np.zeros(3), 100.0),
    lambda: Spectrum(0.5, np.zeros(3), 1.0),
    lambda: F0Track([0.0, 0.01, 0.02], [100.0, None, 120.0], 0.01),
], ids=["Waveform", "Envelope", "Spectrum", "F0Track"])
def test_array_containers_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b  # equal contents, distinct objects
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


class TestWavRoundTrip:
    def test_pcm16_round_trip(self, tmp_path):
        rng = np.random.default_rng(707)
        original = Waveform(rng.uniform(-0.9, 0.9, 2000), 16000)
        path = tmp_path / "rt.wav"
        write_wav_pcm16(path, original)
        back = read_wav(path)
        assert back.rate == 16000
        assert len(back) == 2000
        # 16-bit quantization: half an LSB of 1/32768
        assert np.max(np.abs(back.samples - original.samples)) <= 0.5 / 32768 + 1e-12

    def test_pcm8_read(self, tmp_path):
        raw = np.array([128, 255, 0, 128], dtype=np.uint8)
        path = tmp_path / "u8.wav"
        path.write_bytes(_wav_bytes(raw.tobytes(), bits=8))
        w = read_wav(path)
        assert w.samples[0] == 0.0
        assert w.samples[1] == pytest.approx(127 / 128)
        assert w.samples[2] == pytest.approx(-1.0)

    def test_float32_read(self, tmp_path):
        vals = np.array([0.25, -0.5, 1.0, 0.0], dtype="<f4")
        path = tmp_path / "f32.wav"
        path.write_bytes(_wav_bytes(vals.tobytes(), audio_format=3, bits=32))
        w = read_wav(path)
        assert np.allclose(w.samples, [0.25, -0.5, 1.0, 0.0])

    def test_stereo_downmix_is_mean(self, tmp_path):
        left = np.array([10000, -10000], dtype="<i2")
        right = np.array([20000, 10000], dtype="<i2")
        interleaved = np.empty(4, dtype="<i2")
        interleaved[0::2] = left
        interleaved[1::2] = right
        path = tmp_path / "st.wav"
        path.write_bytes(_wav_bytes(interleaved.tobytes(), channels=2))
        w = read_wav(path)
        assert len(w) == 2
        assert w.samples[0] == pytest.approx(15000 / 32768)
        assert w.samples[1] == pytest.approx(0.0)

    def test_unknown_chunks_skipped(self, tmp_path):
        # a LIST chunk between fmt and data must be ignored
        vals = np.array([1000, 2000], dtype="<i2")
        body = (
            struct.pack("<4sI", b"fmt ", 16)
            + struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
            + struct.pack("<4sI", b"LIST", 4) + b"INFO"
            + struct.pack("<4sI", b"data", len(vals.tobytes())) + vals.tobytes()
        )
        path = tmp_path / "ch.wav"
        path.write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body)
        w = read_wav(path)
        assert len(w) == 2


class TestDecodeOracle:
    """Samples are bit-identical to the former decode (astype, divide, mean)."""

    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_bit_identical_to_former_decode(self, tmp_path, data):
        audio_format, bits, dtype, elements = data.draw(st.sampled_from([
            (1, 8, np.uint8, None),
            (1, 16, np.dtype("<i2"), None),
            (3, 32, np.dtype("<f4"), st.floats(-1.5, 1.5, width=32)),
        ]))
        channels = data.draw(st.sampled_from([1, 2]))
        raw = data.draw(arrays(dtype, st.integers(channels, 400), elements=elements))
        payload = raw.tobytes() + data.draw(st.binary(max_size=3))  # stray tail bytes
        path = tmp_path / "oracle.wav"
        path.unlink(missing_ok=True)  # a fresh file: rewriting one in place is slow on ext4
        path.write_bytes(_wav_bytes(payload, audio_format, channels, bits=bits))
        w = read_wav(path)
        assert w.samples.tobytes() == former_decode(payload, audio_format, channels, bits).tobytes()

    def test_negative_zero_and_clipping_kept(self, tmp_path):
        vals = np.array([-0.0, 0.0, 1.5, -3.0, -0.0, -0.0], dtype="<f4")
        for channels in (1, 2):
            path = tmp_path / f"f{channels}.wav"
            path.write_bytes(_wav_bytes(vals.tobytes(), audio_format=3, channels=channels, bits=32))
            expect = former_decode(vals.tobytes(), 3, channels, 32)
            assert read_wav(path).samples.tobytes() == expect.tobytes()


class TestBlockBoundaries:
    """With a few frames per read, every format decodes as it does in one piece."""

    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_decode_matches_oracle(self, small_blocks, tmp_path, data):
        audio_format, bits = data.draw(st.sampled_from([(1, 8), (1, 16), (1, 24), (1, 32), (3, 32)]))
        channels = data.draw(st.sampled_from([1, 2]))
        count = channels * data.draw(st.integers(1, 3 * small_blocks + 1))
        if audio_format == 3:
            payload = data.draw(arrays("<f4", count, elements=st.floats(-1.5, 1.5, width=32))).tobytes()
        else:
            payload = data.draw(st.binary(min_size=count * bits // 8, max_size=count * bits // 8))
        payload += data.draw(st.binary(max_size=channels * bits // 8 - 1))  # stray tail bytes
        path = tmp_path / "blocks.wav"
        path.unlink(missing_ok=True)
        path.write_bytes(_wav_bytes(payload, audio_format, channels, bits=bits))
        expect = wide_decode(payload, audio_format, channels, bits)
        assert read_wav(path).samples.tobytes() == expect.tobytes()


@st.composite
def _block_cases(draw):
    """Block lengths, and bounds sorted by end over their samples, often on a block edge."""
    lengths = draw(st.lists(st.integers(1, 6), max_size=8))
    edges = list(accumulate(lengths, initial=0))
    point = st.integers(0, edges[-1]) | st.sampled_from(edges)
    pairs = draw(st.lists(st.tuples(point, point), max_size=8))
    return lengths, sorted(((min(p), max(p)) for p in pairs), key=lambda ab: ab[1])


class TestRanges:
    """_ranges cuts a block stream into any ranges sorted by end."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_block_cases())
    # empty ranges, one that starts before the range before it, one across four
    # blocks, ends on block edges; then no bounds at all
    @example(([3, 2, 4, 1], [(0, 0), (1, 3), (4, 4), (0, 5), (2, 10), (9, 10)]))
    @example(([5, 5], []))
    def test_each_range_is_its_slice(self, case):
        lengths, bounds = case
        edges = list(accumulate(lengths, initial=0))
        x = np.arange(float(edges[-1]))
        blocks = [x[a:b].copy() for a, b in zip(edges, edges[1:])]
        drawn = []

        def counting():
            for block in blocks:
                drawn.append(block)
                yield block

        out = list(_ranges(counting(), bounds))
        assert len(drawn) == len(blocks)
        assert len(out) == len(bounds)
        for (a, b), got in zip(bounds, out):
            assert got.tobytes() == x[a:b].tobytes(), (a, b)
            home = [blk for at, blk in zip(edges, blocks) if at <= a and b <= at + len(blk)]
            if a < b and home:
                assert np.shares_memory(got, home[0]), (a, b)


_RANGE_ERROR = "waveform samples must be finite and lie within [-1, 1], got "


class TestSampleRangeCheck:
    """Each decoded block is range-checked as a Waveform is: NaN and +-inf float samples are refused."""

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_non_finite_float_sample_refused(self, tmp_path, bad, channels):
        vals = np.full(400, 0.25, "<f4")
        vals[[3, 9]] = bad, -2.0  # the right channel of frame 1 in stereo; a finite value beyond 1 is clipped
        path = tmp_path / "bad.wav"
        path.write_bytes(_wav_bytes(vals.tobytes(), audio_format=3, channels=channels, bits=32))
        with pytest.raises(ParameterError) as whole:
            read_wav(path)
        with pytest.raises(ParameterError) as streamed, open_wav(path) as source:
            aems(source, window_ms=5.0)
        with pytest.raises(ParameterError) as wave:
            Waveform(np.array([0.5, bad]), 8000)
        assert str(whole.value) == str(streamed.value) == str(wave.value) == _RANGE_ERROR + str(bad)

    @pytest.mark.parametrize("channels", [1, 2])
    def test_first_bad_sample_of_a_later_block_is_named(self, small_blocks, tmp_path, channels):
        vals = np.linspace(-1.0, 1.0, channels * (3 * small_blocks + 2)).astype("<f4")
        vals[-3:] = -math.inf, math.nan, math.inf  # the last three samples, past the first two blocks
        path = tmp_path / "late.wav"
        path.write_bytes(_wav_bytes(vals.tobytes(), audio_format=3, channels=channels, bits=32))
        with pytest.raises(ParameterError, match=f"^{re.escape(_RANGE_ERROR)}-inf$"):
            read_wav(path)

    def test_infinite_sample_exits_one(self, tmp_path, capsys):
        from prosotime.cli import run

        vals = np.full(800, 0.1, "<f4")
        vals[500] = math.inf
        path = tmp_path / "inf.wav"
        path.write_bytes(_wav_bytes(vals.tobytes(), audio_format=3, bits=32))
        for sub in ("aems", "spectree", "f0"):
            assert run([sub, str(path), "--out-dir", str(tmp_path / "out")]) == 1
            assert capsys.readouterr().err == f"error: {_RANGE_ERROR}inf\n"
        assert not (tmp_path / "out").exists()

    def test_parameters_and_length_come_before_the_samples(self, tmp_path):
        # a stream is read only after aems, the F0 tracker and segment_ipus have checked their
        # parameters and the signal's length; read_wav decodes every sample first, so there a
        # bad sample is the first error
        vals = np.full(400, 0.1, "<f4")
        vals[5] = math.nan
        path = tmp_path / "nan.wav"
        path.write_bytes(_wav_bytes(vals.tobytes(), audio_format=3, bits=32))
        with open_wav(path) as source:
            with pytest.raises(ParameterError, match="^env_rate must be finite and > 0, got 0$"):
                aems(source, env_rate=0)
            with pytest.raises(ParameterError, match="^window_ms must be finite and > 0, got -1$"):
                aems(source, window_ms=-1)
            with pytest.raises(DegenerateInputError, match="shorter than one 100 ms window"):
                aems(source, window_ms=100)
            with pytest.raises(ParameterError, match="got nan$"):
                aems(source, window_ms=5.0)
            with pytest.raises(ParameterError, match="^need 0 < fmin < fmax, got 600.0, 500.0$"):
                estimate_f0_autocorr(source, fmin=600.0)
            with pytest.raises(ParameterError, match="^voicing_ratio must lie in"):
                estimate_f0_autocorr(source, voicing_ratio=2.0)
            with pytest.raises(ParameterError, match="^sample rate 8000 too low for fmax=3000"):
                estimate_f0_autocorr(source, fmax=3000.0)
            with pytest.raises(ParameterError, match=r"^frame_ms=1e\+300 ms at rate 8000 exceeds"):
                estimate_f0_autocorr(source, frame_ms=1e300)
            with pytest.raises(ParameterError, match="^frame of 8 samples cannot hold lags up to 6$"):
                estimate_f0_autocorr(source, frame_ms=1.0)
            with pytest.raises(ParameterError, match="^need a finite silence_db"):
                segment_ipus(source, min_pause_ms=math.nan)
            for stage in (estimate_f0_autocorr, segment_ipus):
                with pytest.raises(ParameterError, match="got nan$"):
                    stage(source)
        with pytest.raises(ParameterError, match="got nan$"):
            read_wav(path)

    def test_a_bad_sample_past_the_last_frame_is_found(self, small_blocks, tmp_path):
        vals = np.full(4 * 80 + 30, 0.1, "<f4")  # four whole 10 ms frames at 8 kHz, then 30 samples
        vals[-1] = math.nan
        path = tmp_path / "tail.wav"
        path.write_bytes(_wav_bytes(vals.tobytes(), audio_format=3, bits=32))
        with open_wav(path) as source:
            for stage in (estimate_f0_autocorr, segment_ipus, aems):
                with pytest.raises(ParameterError, match="got nan$"):
                    stage(source)

    def test_header_rate_comes_before_the_samples(self, tmp_path):
        path = tmp_path / "rate0.wav"
        path.write_bytes(_wav_bytes(np.array([0.5, math.nan], "<f4").tobytes(), audio_format=3, rate=0, bits=32))
        with pytest.raises(ParameterError, match="^sample rate must be finite and > 0, got 0$"):
            read_wav(path)


class TestStreamedEnvelope:
    """The envelope of a file streamed a few frames per block equals that of read_wav's Waveform."""

    @pytest.mark.parametrize("window_ms", [20.0, 20.0625])  # win 320 and 321 at 16 kHz
    @_STREAM_FORMATS
    def test_bytes_match_read_wav(self, small_blocks, tmp_path, window_ms, audio_format, channels, bits):
        rng = np.random.default_rng(small_blocks)
        for n in (321, 322, 479, 480, 481, 639, 640, 641, 1599, 1600, 1601):  # around multiples of hop 160
            for x in (rng.uniform(-1, 1, n * channels), rng.integers(-2, 3, n * channels) / 2):  # the second ties
                path = tmp_path / "stream.wav"
                path.unlink(missing_ok=True)
                path.write_bytes(_wav_bytes(_encode(x, audio_format, bits), audio_format, channels, 16000, bits))
                with open_wav(path) as source:
                    streamed = extract_envelope_peaks(source, window_ms=window_ms)
                whole = extract_envelope_peaks(read_wav(path), window_ms=window_ms)
                assert streamed.values.tobytes() == whole.values.tobytes(), n


class TestStreamedF0:
    """The F0 track and the IPUs of a file streamed a few frames per block equal those of read_wav's Waveform."""

    @_STREAM_FORMATS
    def test_bytes_match_read_wav(self, small_blocks, tmp_path, monkeypatch, audio_format, channels, bits):
        pitch = importlib.import_module("prosotime.pitch")
        monkeypatch.setattr(pitch, "_LEAF", 1000)  # several leaves a track
        rate = 4000  # frame 160, hop 40
        batch = (pitch._BLOCK_FRAMES - 1) * 40 + 160  # the samples that one batch of frames spans
        for n in (100, 159, 160, 161, 199, 200, 201, batch, batch + 40):  # around the frame, a hop, one and two batches
            t = np.arange(n) / rate
            x = 0.6 * np.sin(2 * np.pi * (120 * t + 40 * t**2))
            x[n // 3 : n // 3 + 1400] = 0.0  # a 350 ms pause
            if channels == 2:
                x = _interleave(x, x[::-1])
            path = tmp_path / "f0.wav"
            path.unlink(missing_ok=True)
            path.write_bytes(_wav_bytes(_encode(x, audio_format, bits), audio_format, channels, rate, bits))
            with open_wav(path) as source:
                track, ipus = estimate_f0_autocorr(source), segment_ipus(source)
            wave = read_wav(path)
            whole = estimate_f0_autocorr(wave)
            assert track.f0_hz.tobytes() == whole.f0_hz.tobytes(), n
            assert track.times_s.tobytes() == whole.times_s.tobytes(), n
            assert ipus == segment_ipus(wave), n


class TestWideAndExtensibleFormats:
    _INT24 = np.array([0, 1, -1, 2**23 - 1, -(2**23), 123456, -654321, 4096])
    _INT32 = np.array([0, 1, -1, 2**31 - 1, -(2**31), 1234567890, -987654321, 65536])

    def test_pcm24_mono_round_trip(self, tmp_path):
        path = tmp_path / "p24.wav"
        path.write_bytes(_wav_bytes(_pcm24_bytes(self._INT24), bits=24))
        assert read_wav(path).samples.tolist() == (self._INT24 / 2.0**23).tolist()

    def test_pcm32_mono_round_trip(self, tmp_path):
        path = tmp_path / "p32.wav"
        path.write_bytes(_wav_bytes(self._INT32.astype("<i4").tobytes(), bits=32))
        assert read_wav(path).samples.tolist() == (self._INT32 / 2.0**31).tolist()

    def test_pcm24_stereo_round_trip(self, tmp_path):
        left, right = self._INT24, self._INT24[::-1].copy()
        path = tmp_path / "p24s.wav"
        path.write_bytes(_wav_bytes(_pcm24_bytes(_interleave(left, right)), channels=2, bits=24))
        expect = (left / 2.0**23 + right / 2.0**23) / 2
        assert read_wav(path).samples.tolist() == expect.tolist()

    def test_pcm32_stereo_round_trip(self, tmp_path):
        left, right = self._INT32, self._INT32[::-1].copy()
        payload = _interleave(left, right).astype("<i4").tobytes()
        path = tmp_path / "p32s.wav"
        path.write_bytes(_wav_bytes(payload, channels=2, bits=32))
        expect = (left / 2.0**31 + right / 2.0**31) / 2
        assert read_wav(path).samples.tolist() == expect.tolist()

    def test_pcm24_trailing_partial_sample_ignored(self, tmp_path):
        path = tmp_path / "p24t.wav"
        path.write_bytes(_wav_bytes(_pcm24_bytes([4096, -4096]) + b"\x01\x02", bits=24))
        assert read_wav(path).samples.tolist() == [2.0**-11, -(2.0**-11)]

    @pytest.mark.parametrize("sub_format,bits,payload", [
        (1, 16, np.array([1000, -2000, 32767, -32768], "<i2").tobytes()),
        (1, 24, _pcm24_bytes([1000, -2000, 2**23 - 1, -(2**23)])),
        (1, 32, np.array([7, -2**31, 2**31 - 1, 0], "<i4").tobytes()),
        (3, 32, np.array([0.25, -0.5, 1.0, -0.0], "<f4").tobytes()),
    ])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_extensible_reads_like_plain(self, tmp_path, sub_format, bits, payload, channels):
        plain = tmp_path / "plain.wav"
        plain.write_bytes(_wav_bytes(payload, sub_format, channels, bits=bits))
        ext = tmp_path / "ext.wav"
        ext.write_bytes(_extensible_wav_bytes(payload, sub_format, channels, bits=bits))
        assert read_wav(ext).samples.tobytes() == read_wav(plain).samples.tobytes()

    def test_unknown_extensible_sub_format_rejected(self, tmp_path):
        path = tmp_path / "mp3.wav"
        path.write_bytes(_extensible_wav_bytes(b"\x00" * 8, sub_format=0x55))
        with pytest.raises(FormatError, match="format tag 85"):
            read_wav(path)

    def test_foreign_sub_format_guid_rejected(self, tmp_path):
        path = tmp_path / "guid.wav"
        path.write_bytes(_extensible_wav_bytes(b"\x00" * 8, guid_tail=b"\x00" * 14))
        with pytest.raises(FormatError, match="sub-format"):
            read_wav(path)

    def test_short_extensible_fmt_chunk_rejected(self, tmp_path):
        path = tmp_path / "short.wav"
        path.write_bytes(_wav_bytes(b"\x00" * 8, audio_format=0xFFFE))
        with pytest.raises(ParseError, match="40 bytes"):
            read_wav(path)


_VALID_WAVS = [
    _wav_bytes(np.arange(-40, 40, dtype="<i2").tobytes() * 3),
    _wav_bytes(np.arange(0, 96, dtype=np.uint8).tobytes(), channels=2, bits=8),
    _wav_bytes(np.linspace(-1, 1, 48, dtype="<f4").tobytes(), audio_format=3, bits=32),
    _extensible_wav_bytes(_pcm24_bytes(np.arange(-30, 30) * 1000), channels=2, bits=24),
]


class TestReadWavFuzz:
    """Any byte string gives a Waveform or an AnalysisError, nothing else."""

    @staticmethod
    def _read(tmp_path, blob):
        path = tmp_path / "fuzz.wav"
        path.unlink(missing_ok=True)  # a fresh file: rewriting one in place is slow on ext4
        path.write_bytes(blob)
        try:
            assert isinstance(read_wav(path), Waveform)
        except AnalysisError:
            pass

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(st.binary(max_size=200),
                     st.binary(max_size=120).map(lambda b: b"RIFF\x00\x00\x00\x00WAVE" + b)))
    def test_random_bytes(self, tmp_path, blob):
        self._read(tmp_path, blob)

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(_VALID_WAVS),
           st.lists(st.tuples(st.integers(0, 79), st.integers(0, 255)), max_size=6),
           st.integers(0, 400))
    def test_mutated_headers(self, tmp_path, blob, edits, keep):
        mutated = bytearray(blob)
        for pos, value in edits:
            mutated[pos] = value
        self._read(tmp_path, bytes(mutated[:keep]))


class TestMemory:
    def test_read_wav_and_aems_peak_bounded(self, tmp_path):
        rng = np.random.default_rng(120)
        path = tmp_path / "long.wav"
        write_wav_pcm16(path, Waveform(rng.uniform(-0.5, 0.5, 120 * 16000), 16000))
        tracemalloc.start()
        try:
            wave = read_wav(path)
            aems(wave)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * wave.samples.nbytes


def _traced_peak(stage):
    """stage()'s result and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return stage(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStageMemory:
    """read_wav holds one float64 per sample, and aems adds a few percent of that."""

    @pytest.mark.parametrize("audio_format, channels, bits", [(1, 1, 16), (1, 2, 16), (3, 1, 32), (1, 1, 24)],
                             ids=["pcm16", "pcm16-stereo", "float32", "pcm24"])
    def test_peak_per_stage(self, tmp_path, audio_format, channels, bits):
        x = np.random.default_rng(120).uniform(-0.5, 0.5, 120 * 16000 * channels)
        if audio_format == 3:
            payload = x.astype("<f4").tobytes()
        elif bits == 24:
            payload = _pcm24_bytes(np.round(x * 2**23))
        else:
            payload = np.round(x * 2**15).astype("<i2").tobytes()
        path = tmp_path / "long.wav"
        path.write_bytes(_wav_bytes(payload, audio_format, channels, rate=16000, bits=bits))
        del x, payload
        wave, read_peak = _traced_peak(lambda: read_wav(path))
        _, aems_peak = _traced_peak(lambda: aems(wave))
        assert len(wave) == 120 * 16000
        assert read_peak <= 1.1 * wave.samples.nbytes
        assert aems_peak <= 0.15 * wave.samples.nbytes


class TestStreamMemory:
    """aems and f0 on an open WAV file build no n-sample array: their peaks stay below one constant."""

    PEAK = 6 * 2**20  # 60 s of float64 samples is 7.7 MB, 600 s 76.8 MB

    @_STREAM_FORMATS
    @pytest.mark.parametrize("seconds", [60, 600])
    def test_aems_on_a_file_peaks_below_a_constant(self, tmp_path, audio_format, channels, bits, seconds):
        path = tmp_path / "long.wav"
        _long_wav(path, seconds, audio_format, channels, bits)

        def stage():
            with open_wav(path) as source:
                return aems(source)

        spec, peak = _traced_peak(stage)
        assert spec.params["n_samples"] == 100 * seconds
        assert peak < self.PEAK

    @pytest.mark.parametrize("audio_format, channels, bits", [(1, 2, 16), (3, 1, 32)],
                             ids=["pcm16-stereo", "float32"])
    @pytest.mark.parametrize("seconds", [60, 600])
    def test_f0_on_a_file_peaks_below_a_constant(self, tmp_path, audio_format, channels, bits, seconds):
        path = tmp_path / "long.wav"
        _long_wav(path, seconds, audio_format, channels, bits)

        def stage():  # the f0 handler's analysis: the tracker and segment_ipus each read the open file
            with open_wav(path) as source:
                return estimate_f0_autocorr(source), segment_ipus(source)

        (track, ipus), peak = _traced_peak(stage)
        assert len(track) == 100 * seconds - 3 and len(ipus) == 1
        assert peak < self.PEAK

    @staticmethod
    def _child_rss_over_numpy(tmp_path, annotation_memory, subcommand):
        """The peak RSS of `prosotime <subcommand>` on 300 s of 16 kHz PCM16, less that of importing numpy, in bytes."""
        path = tmp_path / "long.wav"
        _long_wav(path, 300, 1, 1, 16)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        numpy_only = annotation_memory.child_maxrss(env, ["-c", "import numpy"])
        used = annotation_memory.child_maxrss(env, ["-m", "prosotime.cli", subcommand, str(path),
                                                    "--out-dir", str(tmp_path / "out")])
        return (used - numpy_only) * 2**20

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_aems_child_rss_grows_less_than_a_quarter_of_the_signal(self, tmp_path, annotation_memory):
        assert self._child_rss_over_numpy(tmp_path, annotation_memory, "aems") < 0.25 * 300 * 16000 * 8

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_f0_child_rss_grows_less_than_a_quarter_of_the_signal(self, tmp_path, annotation_memory):
        assert self._child_rss_over_numpy(tmp_path, annotation_memory, "f0") < 0.25 * 300 * 16000 * 8


class TestWavErrors:
    def test_not_riff(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(FormatError):
            read_wav(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"RIFF\x00\x00")
        with pytest.raises(ParseError):
            read_wav(path)

    def test_not_wave_form(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"RIFF\x04\x00\x00\x00AVI ")
        with pytest.raises(FormatError):
            read_wav(path)

    def test_chunk_overruns_file(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"RIFF\x10\x00\x00\x00WAVE" + struct.pack("<4sI", b"fmt ", 999))
        with pytest.raises(ParseError) as exc:
            read_wav(path)
        assert "byte" in str(exc.value)

    def test_missing_data_chunk(self, tmp_path):
        body = struct.pack("<4sI", b"fmt ", 16) + struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        path = tmp_path / "x.wav"
        path.write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body)
        with pytest.raises(FormatError):
            read_wav(path)

    def test_compressed_format_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(b"\x00\x00", audio_format=85, bits=16))
        with pytest.raises(FormatError):
            read_wav(path)

    def test_three_channels_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(b"\x00" * 12, channels=3))
        with pytest.raises(FormatError):
            read_wav(path)

    def test_data_chunk_short_when_read(self, tmp_path, monkeypatch):
        """A file that shrinks after its size was taken is a ParseError, not numpy's ValueError."""
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(np.arange(64, dtype="<i2").tobytes()))

        class ShrinksAfterSize:
            """A file object that cuts its file to 50 bytes once its size has been asked for."""

            def __init__(self, name, mode):
                self._fh = open(name, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def seek(self, pos, whence=os.SEEK_SET):
                offset = self._fh.seek(pos, whence)
                if whence == os.SEEK_END:
                    os.truncate(path, 50)  # inside the data chunk, which starts at byte 44
                return offset

        monkeypatch.setattr(importlib.import_module("prosotime.audio"), "open", ShrinksAfterSize, raising=False)
        with pytest.raises(ParseError, match="byte 50") as exc:
            read_wav(path)
        assert exc.value.offset == 50

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_fifo_is_not_a_regular_file(self, tmp_path):
        fifo = tmp_path / "pipe.wav"
        os.mkfifo(fifo)

        def write():
            try:
                with open(fifo, "wb") as fh:
                    fh.write(_wav_bytes(np.arange(64, dtype="<i2").tobytes()))
            except BrokenPipeError:
                pass  # the reader gave up first

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        with pytest.raises(FormatError, match="not a regular file"):
            read_wav(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()


class TestSynthesizeAm:
    def test_peak_normalized(self):
        w = synthesize_am(200.0, 5.0, 1.0, 1.0, 8000)
        assert np.max(np.abs(w.samples)) <= 1.0

    def test_sample_count(self):
        assert len(synthesize_am(200.0, 5.0, 0.5, 2.0, 16000)) == 32000

    def test_closed_form_values(self):
        w = synthesize_am(100.0, 2.0, 0.5, 0.5, 8000)
        t = np.arange(len(w)) / 8000
        expect = (1 + 0.5 * np.cos(2 * np.pi * 2 * t)) / 1.5 * np.sin(2 * np.pi * 100 * t)
        assert np.allclose(w.samples, expect, atol=1e-12)

    def test_nyquist_guard(self):
        with pytest.raises(ParameterError):
            synthesize_am(5000.0, 5.0, 1.0, 1.0, 8000)

    def test_modulator_below_carrier(self):
        with pytest.raises(ParameterError):
            synthesize_am(100.0, 200.0, 1.0, 1.0, 8000)

    def test_depth_range(self):
        with pytest.raises(ParameterError):
            synthesize_am(200.0, 5.0, 1.5, 1.0, 8000)
