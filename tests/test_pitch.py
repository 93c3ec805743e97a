"""F0 estimation, pause segmentation, and polynomial contour models."""

import importlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosotime import (
    DegenerateInputError,
    F0Track,
    IPU,
    ParameterError,
    ParseError,
    Waveform,
    estimate_f0_autocorr,
    fit_contour,
    parse_f0_csv,
    realize_pitch,
    segment_ipus,
    synthesize_contour,
    transduce_tones,
)
from prosotime.audio import _fold, _leaves, _ranges
from prosotime.pitch import _BLOCK_FRAMES, _LEAF, _block_frame_rms, contour_model_to_dict, f0_track_to_csv


def _sine(freq, dur_s, rate=16000, amp=0.8):
    t = np.arange(int(dur_s * rate)) / rate
    return Waveform(amp * np.sin(2 * np.pi * freq * t), rate)


def _silence(dur_s, rate=16000):
    return Waveform(np.zeros(int(dur_s * rate)), rate)


def _concat(*waves):
    rate = waves[0].rate
    return Waveform(np.concatenate([w.samples for w in waves]), rate)


class TestF0Estimation:
    def test_steady_sine_recovered(self, sine_200):
        track = estimate_f0_autocorr(sine_200)
        assert not np.isnan(track.f0_hz).any()  # fully voiced
        assert abs(float(np.median(track.f0_hz)) - 200.0) <= 2.0

    def test_silence_fully_unvoiced(self):
        track = estimate_f0_autocorr(_silence(1.0))
        assert track.voiced_count == 0

    def test_low_frequency_sine(self):
        track = estimate_f0_autocorr(_sine(80.0, 1.0))
        voiced = track.f0_hz[~np.isnan(track.f0_hz)]
        assert len(voiced)
        assert abs(float(np.median(voiced)) - 80.0) <= 2.0

    def test_chirp_tracks_rising_pitch(self):
        rate = 16000
        dur = 2.0
        t = np.arange(int(dur * rate)) / rate
        # linear sweep 100 -> 200 Hz: instantaneous phase integral
        phase = 2 * np.pi * (100 * t + 25 * t**2)
        track = estimate_f0_autocorr(Waveform(0.8 * np.sin(phase), rate))
        times, values = track.voiced_frames()
        assert len(values) > 150
        assert np.all(values > 90) and np.all(values < 210)
        # pitch rises: allow tiny local jitter but demand global rise
        assert values[-10:].mean() - values[:10].mean() > 80

    def test_sine_with_silent_tail(self):
        track = estimate_f0_autocorr(_concat(_sine(150.0, 0.5), _silence(0.5)))
        times, values = track.voiced_frames()
        assert np.all(times < 0.6)
        head = track.f0_hz[track.times_s < 0.4]
        assert len(head) and not np.isnan(head).any()

    def test_band_limits_respected(self):
        track = estimate_f0_autocorr(_sine(200.0, 0.5), fmin=60.0, fmax=500.0)
        _, values = track.voiced_frames()
        assert np.all(values >= 60.0) and np.all(values <= 500.0)

    def test_bad_band_rejected(self, sine_200):
        with pytest.raises(ParameterError):
            estimate_f0_autocorr(sine_200, fmin=500.0, fmax=60.0)

    def test_too_short_for_one_frame_gives_empty_track(self):
        track = estimate_f0_autocorr(Waveform(np.zeros(64), 16000))
        assert len(track.times_s) == 0
        assert track.voiced_count == 0


class TestTrackContainer:
    def test_uniform_hop_enforced(self):
        with pytest.raises(ParameterError):
            F0Track((0.0, 0.01, 0.05), (100.0, 100.0, 100.0), 0.01)
        # within isclose's abs_tol of a tiny hop, a step that stands still or goes back is still refused
        with pytest.raises(ParameterError, match=r"got step -5e-10 at t=0.0$"):
            F0Track([0.0, -5e-10, 1e-12], [100.0, 110.0, 120.0], 1e-12)
        with pytest.raises(ParameterError, match=r"got step 0.0 at t=1e-12$"):
            F0Track([0.0, 1e-12, 1e-12], [100.0, 110.0, 120.0], 1e-12)
        with pytest.raises(ParseError, match=r"got step -5e-13 at t=1e-12$"):
            parse_f0_csv("time_s,f0_hz\n0,100\n1e-12,110\n5e-13,120\n")
        # the first step sets the hop: one that goes back, stands still or overflows is named as a later one is
        for text, step in (("0.0,100\n-5e-10,110\n", "-5e-10 at t=0.0"), ("0.0,100\n0.0,110\n0.01,120\n", "0.0 at t=0.0"),
                           ("-1e308,100\n1e308,110\n", "inf at t=-1e+308")):
            with pytest.raises(ParseError, match=rf"^frame times must advance by a finite step, got step {re.escape(step)}$"):
                parse_f0_csv("time_s,f0_hz\n" + text)

    def test_nonpositive_f0_rejected(self):
        with pytest.raises(ParameterError):
            F0Track((0.0, 0.01), (100.0, -5.0), 0.01)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        hop=st.floats(1e-4, 1.0),
        jitter=st.lists(
            st.tuples(st.floats(-3e-6, 3e-6), st.floats(-3e-9, 3e-9)), min_size=1, max_size=8
        ),
    )
    def test_hop_check_is_math_isclose(self, hop, jitter):
        times = [0.0]
        for rel, ab in jitter:
            times.append(times[-1] + hop * (1 + rel) + ab)
        want = None
        for a, b in zip(times, times[1:]):
            if not math.isclose(b - a, hop, rel_tol=1e-6, abs_tol=1e-9):
                want = f"got step {b - a} at t={a}"
                break
        if want is None:
            F0Track(times, [100.0] * len(times), hop)
        else:
            with pytest.raises(ParameterError) as exc:
                F0Track(times, [100.0] * len(times), hop)
            assert str(exc.value).endswith(want)

    def test_zero_f0_rejected(self):
        with pytest.raises(ParameterError, match="got 0.0"):
            F0Track((0.0, 0.01), (100.0, 0.0), 0.01)
        assert F0Track((0.0,), (5e-324,), 0.01).voiced_count == 1  # the least positive float

    def test_overflowing_step_rejected(self):
        with pytest.raises(ParameterError, match="got step inf"):
            F0Track((-1e308, 1e308), (100.0, 100.0), 1.0)

    @pytest.mark.parametrize("hop", [float("nan"), float("inf"), 0.0])
    def test_non_finite_or_zero_hop_rejected(self, hop):
        with pytest.raises(ParameterError, match="hop_s"):
            F0Track((0.0,), (100.0,), hop)

    def test_first_bad_f0_reported(self):
        with pytest.raises(ParameterError, match="got inf"):
            F0Track((0.0, 0.01, 0.02), (None, float("inf"), -1.0), 0.01)

    def test_nan_and_none_both_mark_unvoiced(self):
        track = F0Track([0.0, 0.01, 0.02, 0.03], [100.0, None, float("nan"), 120.0], 0.01)
        np.testing.assert_array_equal(np.isnan(track.f0_hz), [False, True, True, False])
        assert track.voiced_count == 2
        assert f0_track_to_csv(track).splitlines()[2:4] == ["0.01,", "0.02,"]

    def test_arrays_are_read_only_float64_copies(self):
        times, f0 = np.array([0.0, 0.01]), np.array([100.0, np.nan])
        track = F0Track(times, f0, 0.01)
        for arr in (track.times_s, track.f0_hz):
            assert arr.dtype == np.float64 and not arr.flags.writeable
        times[0] = f0[0] = 1.0  # the caller's arrays stay theirs
        assert track.times_s[0] == 0.0 and track.f0_hz[0] == 100.0

    @pytest.mark.parametrize("at", [_LEAF - 1, _LEAF, _LEAF + 5, 2 * _LEAF + 1])
    def test_first_bad_step_named_in_a_later_block(self, at):
        # steps are checked _LEAF at a time: the bad step at `at` lies at the end of the
        # first block, at the start of the second, inside it, or in the third
        times = np.arange(3 * _LEAF) * 0.01
        times[at + 1 :] += 0.005  # step `at` is 0.015; a later bad step is never reached
        times[at + 3 :] += 1.0
        with pytest.raises(ParameterError) as exc:
            F0Track(times, np.full(len(times), 100.0), 0.01)
        assert str(exc.value).endswith(f"got step {times[at + 1] - times[at]} at t={times[at]}")
        F0Track(times[: at + 1], np.full(at + 1, 100.0), 0.01)  # every step before it holds

    def test_synthesized_contour_arrays_are_kept(self, monkeypatch):
        from prosotime import pitch

        given, of = [], pitch.F0Track._of.__func__

        def kept(cls, times, f0, hop_s):
            given.append((times, f0))
            return of(cls, times, f0, hop_s)

        monkeypatch.setattr(pitch.F0Track, "_of", classmethod(kept))
        track = synthesize_contour(realize_pitch(transduce_tones("H L H")), tone_dur_ms=20.0)
        (times, f0), = given
        assert track._times is times and track._f0 is f0  # the fresh columns, neither copied
        assert track.times_s.tobytes() == (np.arange(6) * 0.01).tobytes()

    def test_given_columns_are_copied(self):
        from array import array

        times, f0 = array("d", [0.0, 0.01]), array("d", [100.0, 120.0])
        track = F0Track(times, f0, 0.01)
        times[0] = f0[0] = 1.0  # the caller's columns stay theirs
        assert track.times_s.tolist() == [0.0, 0.01] and track.f0_hz.tolist() == [100.0, 120.0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), None])
    def test_non_finite_frame_time_rejected(self, bad):
        with pytest.raises(ParameterError, match="frame times must be finite"):
            F0Track((bad,), (100.0,), 0.01)

    def test_voiced_frames_filters_nones(self):
        track = F0Track((0.0, 0.01, 0.02), (100.0, None, 120.0), 0.01)
        times, values = track.voiced_frames()
        assert list(times) == [0.0, 0.02]
        assert list(values) == [100.0, 120.0]
        assert track.voiced_count == 2


class TestSegmentation:
    def test_two_ipus_split_by_long_pause(self):
        w = _concat(_sine(150, 0.5), _silence(0.3), _sine(150, 0.4))
        ipus = segment_ipus(w)
        assert len(ipus) == 2
        assert ipus[0].start_s == pytest.approx(0.0, abs=0.02)
        assert ipus[0].end_s == pytest.approx(0.5, abs=0.02)
        assert ipus[1].start_s == pytest.approx(0.8, abs=0.02)

    def test_short_pause_bridged(self):
        w = _concat(_sine(150, 0.5), _silence(0.1), _sine(150, 0.4))
        ipus = segment_ipus(w)
        assert len(ipus) == 1
        assert ipus[0].end_s == pytest.approx(1.0, abs=0.02)

    def test_continuous_speech_single_ipu(self):
        ipus = segment_ipus(_sine(150, 1.0))
        assert len(ipus) == 1

    def test_pure_silence_no_ipus(self):
        assert segment_ipus(_silence(1.0)) == []

    def test_tiny_blips_dropped(self):
        w = _concat(_silence(0.5), _sine(150, 0.05), _silence(0.5))
        assert segment_ipus(w) == []

    def test_ipu_validation(self):
        with pytest.raises(ParameterError):
            IPU(1.0, 0.5)


class TestContourFit:
    def test_parabola_recovered(self):
        times = tuple(0.01 * i for i in range(75))
        f0 = tuple(120.0 + 30.0 * t - 40.0 * t * t for t in times)
        track = F0Track(times, f0, 0.01)
        model = fit_contour(track, 2)
        assert model.fit.coeffs == pytest.approx((120.0, 30.0, -40.0), abs=1e-6)
        assert model.voiced_frame_count == 75

    def test_terrace_contour_slopes_down(self):
        track = synthesize_contour(realize_pitch(transduce_tones("H L H L H")))
        model = fit_contour(track, 1)
        assert model.fit.coeffs[1] < 0  # declination

    def test_rise_fall_has_negative_curvature(self):
        track = synthesize_contour(realize_pitch(("lc", "^h", "l")))
        model = fit_contour(track, 2)
        assert model.fit.coeffs[2] < 0

    def test_rmse_monotone_in_degree(self):
        track = synthesize_contour(realize_pitch(transduce_tones("H L H L H")))
        rmses = [fit_contour(track, d).fit.rmse for d in range(6)]
        for lo, hi in zip(rmses[1:], rmses[:-1]):
            assert lo <= hi + 1e-12

    def test_domain_restricts_frames(self):
        times = tuple(0.01 * i for i in range(100))
        f0 = tuple(100.0 + (50.0 if i >= 50 else 0.0) for i in range(100))
        track = F0Track(times, f0, 0.01)
        model = fit_contour(track, 0, domain=IPU(0.0, 0.495))
        assert model.fit.coeffs[0] == pytest.approx(100.0)
        assert model.voiced_frame_count == 50

    def test_unvoiced_frames_ignored(self):
        track = F0Track((0.0, 0.01, 0.02, 0.03), (100.0, None, None, 100.0), 0.01)
        model = fit_contour(track, 0)
        assert model.fit.coeffs[0] == pytest.approx(100.0)
        assert model.voiced_frame_count == 2

    def test_too_few_voiced_frames(self):
        track = F0Track((0.0, 0.01), (100.0, None), 0.01)
        with pytest.raises(DegenerateInputError):
            fit_contour(track, 1)


class TestCsvRoundTrip:
    def test_round_trip_with_unvoiced_holes(self):
        track = F0Track((0.0, 0.01, 0.02, 0.03), (100.0, None, 120.5, None), 0.01)
        text = f0_track_to_csv(track)
        back = parse_f0_csv(text)
        np.testing.assert_array_equal(back.times_s, track.times_s)
        np.testing.assert_array_equal(back.f0_hz, track.f0_hz)  # NaN matches NaN
        assert back.hop_s == pytest.approx(0.01)

    def test_header_shape(self):
        track = F0Track((0.0, 0.01), (100.0, None), 0.01)
        lines = f0_track_to_csv(track).strip().split("\n")
        assert lines[0] == "time_s,f0_hz"
        assert lines[1] == "0.0,100.0"
        assert lines[2] == "0.01,"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_f0_text_rejected(self, bad):
        with pytest.raises(ParseError, match="finite"):
            parse_f0_csv(f"time_s,f0_hz\n0.0,100\n0.01,{bad}\n")

    @pytest.mark.parametrize("text", ["0.0,100\n0.01,nan\n", "0.0,100\nnan,100\n"])
    def test_non_finite_text_reported_with_row(self, text):
        with pytest.raises(ParseError, match=r"expected a finite time and f0, got '.*nan.*' \(row 3\)"):
            parse_f0_csv("time_s,f0_hz\n" + text)

    def test_bad_row_reported(self):
        with pytest.raises(ParseError) as exc:
            parse_f0_csv("time_s,f0_hz\n0.0,abc\n")
        assert "row" in str(exc.value)

    # characters str.splitlines() takes for line ends; in an F0 CSV they are row text
    @pytest.mark.parametrize("ch", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_only_lf_and_crlf_end_a_row(self, ch):
        # float() strips the character as whitespace, so row 2 parses and row 3 fails
        for end in ("\n", "\r\n"):
            text = end.join(["time_s,f0_hz", f"0.0,1{ch}", "0.01,x", ""])
            with pytest.raises(ParseError, match=r"got '0\.01,x' \(row 3\)$"):
                parse_f0_csv(text)
        assert parse_f0_csv(f"time_s,f0_hz\n0.0,1{ch}\n0.01,2\n").voiced_count == 2

    def test_bare_cr_is_a_malformed_line(self):
        with pytest.raises(ParseError, match=r"^malformed CSV: .* \(line 2\)$"):
            parse_f0_csv("time_s,f0_hz\n0.0,1\r0.01,2\n")

    def test_bare_cr_and_nul_messages(self):
        with pytest.raises(ParseError) as exc:
            parse_f0_csv("time_s,f0_hz\n0.0,1\r0.01,2\n")
        assert str(exc.value) == (
            "malformed CSV: a bare CR (carriage return) inside a row; rows end at LF or CRLF (line 2)"
        )
        with pytest.raises(ParseError) as exc:
            parse_f0_csv(b"time_s,f0_hz\n0.0,100\n0.01,1\x0000\n")
        assert str(exc.value) == "malformed CSV: line contains NUL (line 3)"

    def test_bytes_and_quoted_fields(self):
        text = 'time_s,f0_hz\n"0.0","100"\n0.01,""\n'
        for data in (text, text.encode("utf-8-sig"), text.encode("utf-16"),
                     ("\ufeff" + text).encode("utf-16-be")):
            track = parse_f0_csv(data)
            np.testing.assert_array_equal(track.f0_hz, [100.0, np.nan])

    def test_header_error_takes_the_annotation_wording(self):
        with pytest.raises(ParseError, match=r"^empty document: missing CSV header \(row 1\)$"):
            parse_f0_csv(b"")
        with pytest.raises(ParseError, match=r"^bad CSV header \['time_s', 'f0'\], expected time_s,f0_hz \(row 1\)$"):
            parse_f0_csv("time_s,f0\n0.0,100\n")

    def test_model_dict_shape(self):
        track = synthesize_contour(realize_pitch(transduce_tones("H L")))
        model = fit_contour(track, 1)
        d = contour_model_to_dict(model)
        assert d["degree"] == 1
        assert len(d["coeffs"]) == 2
        assert d["voiced_frame_count"] == model.voiced_frame_count


# ---------------------------------------------------------------------------
# reference implementations: the former per-frame tracker and loop segmenter
# ---------------------------------------------------------------------------


def _loop_f0(wave, fmin=60.0, fmax=500.0, frame_ms=40.0, hop_ms=10.0, voicing_ratio=0.3):
    """One frame at a time: 2n-point FFT, cumsum and octave guard per frame."""
    rate = wave.rate
    frame_len = max(2, round(frame_ms * rate / 1000.0))
    hop_len = max(1, round(hop_ms * rate / 1000.0))
    lag_min = max(1, math.ceil(rate / fmax))
    lag_max = min(frame_len - 2, math.floor(rate / fmin))
    x = wave.samples
    track_rms = float(np.sqrt(np.mean(x**2))) if len(x) else 0.0
    starts = range(0, len(x) - frame_len + 1, hop_len) if len(x) >= frame_len else range(0)
    times, f0 = [], []
    for start in starts:
        frame = x[start : start + frame_len]
        times.append((start + frame_len / 2) / rate)
        rms = float(np.sqrt(np.mean(frame**2)))
        if track_rms == 0.0 or rms < 0.01 * track_rms:
            f0.append(None)
            continue
        n = len(frame)
        spec = np.fft.rfft(frame, 2 * n)
        ac = np.fft.irfft(spec * np.conj(spec))[: lag_max + 2].real
        csq = np.cumsum(frame**2)
        lags = np.arange(lag_min, lag_max + 1)
        denom = np.sqrt(csq[n - lags - 1] * (csq[-1] - csq[lags - 1]))
        with np.errstate(invalid="ignore", divide="ignore"):
            ncc = np.where(denom > 0, ac[lag_min : lag_max + 1] / denom, 0.0)
        best = int(np.argmax(ncc))
        peak_val = float(ncc[best])
        if peak_val < voicing_ratio:
            f0.append(None)
            continue
        interior = (
            (ncc[1:-1] > ncc[:-2]) & (ncc[1:-1] >= ncc[2:]) & (ncc[1:-1] >= 0.95 * peak_val)
        )
        near_ties = np.nonzero(interior)[0] + 1
        if len(near_ties):
            best = int(near_ties[0])
        lag = float(lags[best])
        if 0 < best < len(ncc) - 1:
            y0, y1, y2 = ncc[best - 1], ncc[best], ncc[best + 1]
            denom2 = y0 - 2 * y1 + y2
            if denom2 < 0:
                lag += 0.5 * (y0 - y2) / denom2
        f0.append(min(max(rate / lag, fmin), fmax))
    return times, f0


def _loop_ipus(wave, silence_db=-40.0, min_pause_ms=200.0, min_ipu_ms=100.0):
    """Run finding with while loops: bridge short interior gaps, then collect."""
    frame_len = max(1, round(0.010 * wave.rate))
    x = wave.samples
    n_frames = len(x) // frame_len
    if n_frames == 0:
        return []
    rms = np.sqrt(np.mean(x[: n_frames * frame_len].reshape(n_frames, frame_len) ** 2, axis=1))
    peak = float(np.max(rms))
    if peak <= 0:
        return []
    with np.errstate(divide="ignore"):
        speech = 20.0 * np.log10(rms / peak) >= silence_db
    min_pause_frames = max(1, round(min_pause_ms / 10.0))
    bridged = speech.copy()
    i = 0
    while i < n_frames:
        if not speech[i]:
            j = i
            while j < n_frames and not speech[j]:
                j += 1
            if i > 0 and j < n_frames and (j - i) < min_pause_frames:
                bridged[i:j] = True
            i = j
        else:
            i += 1
    frame_s = frame_len / wave.rate
    ipus = []
    i = 0
    while i < n_frames:
        if bridged[i]:
            j = i
            while j < n_frames and bridged[j]:
                j += 1
            if (j * frame_s - i * frame_s) * 1000.0 >= min_ipu_ms:
                ipus.append(IPU(start_s=i * frame_s, end_s=j * frame_s))
            i = j
        else:
            i += 1
    return ipus


def _assert_matches_loop(wave, **params):
    track = estimate_f0_autocorr(wave, **params)
    times, f0 = _loop_f0(wave, **params)
    want = np.array(f0, dtype=float)  # None -> NaN
    np.testing.assert_array_equal(track.times_s, times)
    np.testing.assert_array_equal(np.isnan(track.f0_hz), np.isnan(want))
    diffs = np.abs(track.f0_hz - want)[~np.isnan(want)]
    assert diffs.max(initial=0.0) <= 1e-9
    assert len(F0Track(track.times_s, track.f0_hz, track.hop_s)) == len(track)  # built unchecked, it passes the checks
    return track


def _test_signal(seed, kind, dur_s, rate, gaps):
    """Noise, a sine or a chirp of dur_s, with silent or quiet stretches cut in."""
    rng = np.random.default_rng(seed)
    t = np.arange(max(1, int(dur_s * rate))) / rate
    f = rng.uniform(70.0, 400.0)
    if kind == "noise":
        x = rng.uniform(-1.0, 1.0, len(t))
    elif kind == "sine":
        x = np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    else:
        x = np.sin(2 * np.pi * (f * t + rng.uniform(-60.0, 60.0) * t**2))
    x = rng.uniform(0.05, 0.9) * x
    for _ in range(gaps):
        a = int(rng.integers(0, len(t)))
        x[a : a + int(rng.integers(1, rate // 5))] *= rng.choice([0.0, 10 ** rng.uniform(-3, -1)])
    return Waveform(x, rate)


class TestBatchedTrackerOracle:
    @pytest.mark.parametrize("fixture", ["sine_200", "am_wave"])
    def test_fixtures_match_loop(self, fixture, request):
        _assert_matches_loop(request.getfixturevalue(fixture))

    def test_shipped_signals_match_loop(self):
        rate = 16000
        t = np.arange(2 * rate) / rate
        chirp = Waveform(0.8 * np.sin(2 * np.pi * (100 * t + 25 * t**2)), rate)
        for wave in (chirp, _sine(80.0, 1.0), _concat(_sine(150.0, 0.5), _silence(0.5))):
            assert _assert_matches_loop(wave).voiced_count > 0
        _assert_matches_loop(_silence(1.0))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["noise", "sine", "chirp"]),
        dur_s=st.floats(0.0, 0.6),
        rate=st.sampled_from([8000, 11025, 16000]),
        gaps=st.integers(0, 3),
        frame_ms=st.floats(5.0, 60.0),
        hop_ms=st.floats(0.5, 25.0),
        fmin=st.floats(40.0, 200.0),
        fmax=st.floats(250.0, 1000.0),
        voicing_ratio=st.floats(0.1, 0.9),
    )
    def test_random_signals_match_loop(
        self, seed, kind, dur_s, rate, gaps, frame_ms, hop_ms, fmin, fmax, voicing_ratio
    ):
        wave = _test_signal(seed, kind, dur_s, rate, gaps)
        _assert_matches_loop(wave, fmin=fmin, fmax=fmax, frame_ms=frame_ms, hop_ms=hop_ms,
                             voicing_ratio=voicing_ratio)

    @pytest.mark.parametrize("n_frames", [0, 1, _BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1])
    def test_block_edges(self, n_frames):
        frame_len, hop_len = 640, 160  # defaults at 16 kHz
        n = frame_len - 1 if n_frames == 0 else frame_len + (n_frames - 1) * hop_len
        wave = _test_signal(n_frames, "chirp", n / 16000, 16000, gaps=2)
        track = _assert_matches_loop(wave)
        assert len(track) == n_frames

    def test_batch_size_changes_no_bit(self, monkeypatch):
        # the power spectrum is conj * spec in every batch, whatever its size
        rate = 16000
        t = np.arange(5 * rate) / rate
        chirp = Waveform(0.8 * np.sin(2 * np.pi * (100 * t + 25 * t**2)), rate)
        pitch = importlib.import_module("prosotime.pitch")
        bits = {}
        for frames in (1, 7, 31, 32, 64, 128):
            monkeypatch.setattr(pitch, "_BLOCK_FRAMES", frames)
            bits[frames] = estimate_f0_autocorr(chirp).f0_hz.tobytes()
        assert [frames for frames, b in bits.items() if b != bits[128]] == []

    def test_every_batch_writes_into_the_same_work_arrays(self, monkeypatch):
        outs = {"rfft": [], "irfft": []}
        for name, seen in outs.items():
            def recording(*args, out=None, _transform=getattr(np.fft, name), _seen=seen, **kwargs):
                _seen.append(out)
                return _transform(*args, out=out, **kwargs)

            monkeypatch.setattr(np.fft, name, recording)
        track = estimate_f0_autocorr(_sine(200.0, 3.0))
        batches = -(-len(track) // _BLOCK_FRAMES)
        assert batches >= 3 and len(track) % _BLOCK_FRAMES  # the last batch is a short one
        for name, seen in outs.items():
            assert len(seen) == batches and all(out is not None for out in seen), name
            bases = [out if out.base is None else out.base for out in seen]
            assert all(base is bases[0] for base in bases), name

    def test_peak_memory_is_bounded(self):
        rate = 16000
        t = np.arange(120 * rate) / rate
        wave = Waveform(0.5 * np.sin(2 * np.pi * (120 * t + 0.2 * t**2)), rate)
        tracemalloc.start()
        try:
            track = estimate_f0_autocorr(wave)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(track) == 11997
        assert peak < wave.samples.nbytes + 16 * 2**20


class TestSignalSums:
    """track_rms and the IPU frame RMS keep numpy's bits without a signal-sized square."""

    @pytest.mark.parametrize("leaf", [128, 129, 1000, 1 << 16])
    def test_sum_of_squares_is_the_pairwise_sum(self, leaf):
        rng = np.random.default_rng(leaf)
        lengths, m = {1, 7, 8, 9, 127, 128, 129, 255, 256, 257}, leaf
        while m <= 1 << 20:  # the parts of at most leaf samples split once more past each doubling
            lengths |= {m - 9, m - 8, m - 7, m - 1, m, m + 1, m + 7, m + 8, m + 9}
            m *= 2
        for n in sorted(lengths):
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
            for signal in (x, x[::-2]):
                sums = (np.add.reduce(part**2) for part in _ranges((signal,), _leaves(len(signal), leaf)))
                total = _fold(sums, len(signal), leaf)
                assert total.tobytes() == np.add.reduce(signal**2).tobytes(), (leaf, n)
                assert np.sqrt(total / len(signal)) == np.sqrt(np.mean(signal**2))

    @pytest.mark.parametrize("leaf", [1, 500, 1 << 16])
    @pytest.mark.parametrize("frame_len", [1, 7, 160, 441])
    def test_frame_rms_in_row_batches(self, monkeypatch, leaf, frame_len):
        monkeypatch.setattr(importlib.import_module("prosotime.pitch"), "_LEAF", leaf)
        rng = np.random.default_rng(frame_len)
        for n_frames in (0, 1, 2, 99, 1000):
            x = rng.uniform(-1, 1, n_frames * frame_len + frame_len // 2)
            frames = x[: n_frames * frame_len].reshape(n_frames, frame_len)
            expect = np.sqrt(np.mean(frames**2, axis=1))
            assert _block_frame_rms((x,), len(x), frame_len).tobytes() == expect.tobytes()

    def test_f0_stages_square_no_whole_signal(self):
        rate = 16000
        t = np.arange(120 * rate) / rate
        wave = Waveform(0.5 * np.sin(2 * np.pi * (120 * t + 0.2 * t**2)), rate)
        del t
        for stage in (estimate_f0_autocorr, segment_ipus):
            tracemalloc.start()
            try:
                stage(wave)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 0.6 * wave.samples.nbytes, stage.__name__


class TestParameterRanges:
    @pytest.mark.parametrize("ratio", [5.0, -1.0, float("nan")])
    def test_voicing_ratio_outside_unit_interval_rejected(self, sine_200, ratio):
        with pytest.raises(ParameterError, match="voicing_ratio"):
            estimate_f0_autocorr(sine_200, voicing_ratio=ratio)

    @pytest.mark.parametrize("ratio", [0.0, 1.0])
    def test_voicing_ratio_bounds_accepted(self, sine_200, ratio):
        assert len(estimate_f0_autocorr(sine_200, voicing_ratio=ratio)) > 0

    @pytest.mark.parametrize("params", [{"silence_db": float("nan")}, {"min_pause_ms": float("nan")},
                                        {"min_pause_ms": float("inf")}, {"min_ipu_ms": -1.0}])
    def test_segmentation_parameters_checked(self, sine_200, params):
        with pytest.raises(ParameterError, match="^need a finite silence_db"):
            segment_ipus(sine_200, **params)

    def test_subnormal_fmin_caps_lags_at_the_frame(self, sine_200):
        # rate / 5e-324 overflows to inf; the frame length caps the lag range first
        tiny = estimate_f0_autocorr(sine_200, fmin=5e-324)
        small = estimate_f0_autocorr(sine_200, fmin=1e-300)
        assert len(tiny) == len(small) > 0
        assert np.array_equal(tiny.f0_hz, small.f0_hz, equal_nan=True)


# speech-frame patterns: runs of speech/silence, as (is_speech, frames) pairs
_RUNS = st.lists(st.tuples(st.booleans(), st.integers(1, 40)), min_size=1, max_size=12)


class TestSegmentationOracle:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        runs=st.one_of(_RUNS, st.just([(False, 30)]), st.just([(True, 30)])),
        min_pause_ms=st.sampled_from([10.0, 50.0, 200.0, 400.0]),
        min_ipu_ms=st.sampled_from([0.0, 30.0, 100.0]),
    )
    def test_matches_loop_segmentation(self, runs, min_pause_ms, min_ipu_ms):
        rate, frame_len = 8000, 80
        levels = np.concatenate([np.full(n, 0.5 if on else 0.0) for on, n in runs])
        x = np.repeat(levels, frame_len) * np.sign(np.sin(np.arange(len(levels) * frame_len)))
        wave = Waveform(x, rate)
        params = dict(min_pause_ms=min_pause_ms, min_ipu_ms=min_ipu_ms)
        assert segment_ipus(wave, **params) == _loop_ipus(wave, **params)
