"""Envelope modulation spectrum pipeline: rectify, peak-pick, smooth, DFT, zones."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from prosotime import (
    DegenerateInputError,
    Envelope,
    F0Track,
    ParameterError,
    Spectrum,
    Waveform,
    aems,
    detect_zones,
    dft_magnitude,
    extract_envelope_peaks,
    fit_polynomial,
    rectify_full_wave,
    smooth_envelope,
    synthesize_am,
    write_wav_pcm16,
    zscore,
)
from prosotime._polyfit import _has_duplicates
from prosotime.aems import _block_peaks, _peaks, spectrum_to_csv
from prosotime.audio import open_wav


def naive_dft_magnitudes(values, rate, cutoff_hz, zero_mean=True):
    """Textbook O(N^2) DFT of a real sequence, magnitudes up to cutoff_hz."""
    x = np.asarray(values, dtype=np.float64)
    if zero_mean:
        x = x - x.mean()
    n = len(x)
    res = rate / n
    n_bins = int(np.floor(cutoff_hz / res)) + 1
    mags = np.empty(n_bins)
    for k in range(n_bins):
        acc = 0.0 + 0.0j
        for m in range(n):
            acc += x[m] * np.exp(-2j * np.pi * k * m / n)
        mags[k] = abs(acc)
    return res, mags


def sliding_window_peaks(x, win):
    """The former peak picker: argmax over each half-overlapping window view."""
    hop = max(1, win // 2)
    frames = sliding_window_view(x, win)[::hop]
    starts = np.arange(frames.shape[0]) * hop
    return np.unique(starts + np.argmax(frames, axis=1))


def sliding_window_envelope(rectified, window_ms=20.0, env_rate=100):
    """The former extract_envelope_peaks, past its parameter checks."""
    x = rectified.samples
    win = max(2, int(round(window_ms * rectified.rate / 1000.0)))
    peak_idx = sliding_window_peaks(x, win)
    n_env = max(1, int(round(len(x) * env_rate / rectified.rate)))
    grid = np.arange(n_env) / env_rate
    return np.interp(grid, peak_idx / rectified.rate, x[peak_idx])


def _peak_signal(kind, n, win, rng):
    """Non-negative test signal; "coarse" and "runs" are full of exact ties."""
    if kind == "uniform":
        return rng.uniform(0.0, 1.0, n)
    if kind == "coarse":
        return rng.integers(0, 3, n) / 2.0
    if kind == "runs":
        return np.repeat(rng.integers(0, 4, n) / 3.0, rng.integers(1, 2 * win + 2, n))[:n]
    return np.full(n, 0.25)  # constant


@st.composite
def _peak_cases(draw):
    win = draw(st.integers(2, 41))
    hop = win // 2
    if draw(st.booleans()):
        n = draw(st.sampled_from([win, win + hop - 1, win + hop, win + hop + 1]))
    else:
        n = draw(st.integers(win, 700))
    kind = draw(st.sampled_from(["uniform", "coarse", "runs", "constant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _peak_signal(kind, n, win, rng), win


class TestBlockPeakOracle:
    """Block-max peak picking elects exactly the former sliding-window argmax."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_peak_cases(), st.data())
    def test_same_indices_as_sliding_windows(self, case, data):
        x, win = case
        whole = _block_peaks((x,), len(x), win)
        assert np.array_equal(whole[0], sliding_window_peaks(x, win))
        # the same x cut anywhere, often on a hop-block edge, so that the sample
        # after the last hop block can open a block of its own
        hop = win // 2
        cut = st.integers(1, len(x) - 1) | st.sampled_from(range(hop, len(x), hop))
        cuts = sorted(set(data.draw(st.lists(cut, max_size=6), label="cuts")))
        in_blocks = _block_peaks(np.split(x, cuts), len(x), win)
        assert [a.tobytes() for a in in_blocks] == [a.tobytes() for a in whole]

    @pytest.mark.parametrize("kind", ["uniform", "coarse", "runs", "constant"])
    @pytest.mark.parametrize("win", [2, 3, 4, 5, 320, 321])
    def test_edge_lengths(self, kind, win):
        hop = win // 2
        rng = np.random.default_rng(win)
        for n in (win, win + hop - 1, win + hop, win + hop + 1, 7 * win + 3):
            x = _peak_signal(kind, n, win, rng)
            assert np.array_equal(_block_peaks((x,), len(x), win)[0], sliding_window_peaks(x, win))

    @pytest.mark.parametrize("window_ms", [20.0, 20.07])  # win 320 and 321 at 16 kHz
    def test_envelope_bytes_match(self, am_wave, window_ms):
        rng = np.random.default_rng(31)
        noisy = Waveform(0.5 * am_wave.samples + 0.4 * rng.uniform(-1, 1, len(am_wave)), 16000)
        quantized = Waveform(np.round(am_wave.samples * 8) / 8, 16000)
        for wave in (am_wave, noisy, quantized):
            rect = rectify_full_wave(wave)
            env = extract_envelope_peaks(rect, window_ms=window_ms)
            assert env.values.tobytes() == sliding_window_envelope(rect, window_ms).tobytes()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_peak_cases(), st.integers(0, 2**32 - 1))
    def test_signed_wave_gives_the_rectified_envelope(self, case, seed):
        x, win = case
        rng = np.random.default_rng(seed)
        signed = np.where(rng.integers(0, 2, len(x)) == 1, -x, x)  # -0.0 wherever x is 0
        signed[rng.integers(0, len(x), 3)] = -0.0
        wave = Waveform(signed, 8000)
        window_ms = win / 8  # win samples at 8 kHz
        env = extract_envelope_peaks(wave, window_ms=window_ms)
        rectified = extract_envelope_peaks(rectify_full_wave(wave), window_ms=window_ms)
        assert env.values.tobytes() == rectified.values.tobytes()


@pytest.mark.usefixtures("small_blocks")
class TestBlockPeakOracleInSmallPasses(TestBlockPeakOracle):
    """The same oracles with |x| taken a few samples or blocks per pass."""


class TestRectify:
    def test_absolute_value(self):
        w = Waveform(np.array([-0.5, 0.25, -1.0, 0.0]), 8000)
        r = rectify_full_wave(w)
        assert np.array_equal(r.samples, [0.5, 0.25, 1.0, 0.0])
        assert r.rate == 8000


class TestEnvelopeExtraction:
    def test_env_rate_and_length(self, am_wave):
        env = extract_envelope_peaks(rectify_full_wave(am_wave))
        assert env.rate == 100
        assert len(env.values) == 200  # 2 s at 100 Hz

    def test_envelope_tracks_modulator(self, am_wave):
        env = extract_envelope_peaks(rectify_full_wave(am_wave))
        t = np.arange(len(env.values)) / env.rate
        modulator = (1 + np.cos(2 * np.pi * 5.0 * t)) / 2
        r = np.corrcoef(env.values, modulator)[0, 1]
        assert r > 0.99

    def test_constant_signal_gives_flat_envelope(self):
        w = Waveform(np.full(8000, 0.5), 8000)
        env = extract_envelope_peaks(rectify_full_wave(w))
        assert np.allclose(env.values, 0.5)

    def test_bad_window_rejected(self, am_wave):
        with pytest.raises(ParameterError):
            extract_envelope_peaks(rectify_full_wave(am_wave), window_ms=0.0)

    def test_env_rate_above_audio_rate_rejected(self, am_wave):
        rect = rectify_full_wave(am_wave)
        with pytest.raises(ParameterError, match="env_rate"):
            extract_envelope_peaks(rect, env_rate=100_000)
        assert len(extract_envelope_peaks(rect, env_rate=rect.rate).values) == len(rect)


class TestFiniteChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_envelope_rejects_non_finite(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            Envelope(np.array([0.1, bad, 0.2]), 100)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_spectrum_rejects_non_finite(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            Spectrum(0.5, np.array([0.1, bad, 0.2]), 1.0)

    @pytest.mark.parametrize("make", [
        lambda: Waveform(np.zeros(4), float("nan")),
        lambda: Waveform(np.zeros(4), float("inf")),
        lambda: Envelope(np.ones(10), float("nan")),
        lambda: Envelope(np.ones(10), float("inf")),
        lambda: Spectrum(float("nan"), np.ones(3), 1.0),
        lambda: Spectrum(0.0, np.ones(3), 1.0),
        lambda: smooth_envelope(Envelope(np.ones(10), 100), float("nan")),
        lambda: dft_magnitude(Envelope(np.ones(10), 100), float("nan")),
        lambda: extract_envelope_peaks(Waveform(np.ones(400), 8000), float("nan")),
        lambda: synthesize_am(200.0, 4.0, 0.5, 1.0, float("inf")),
    ], ids=["wave-nan", "wave-inf", "env-nan", "env-inf", "spec-nan", "spec-zero",
            "smooth-nan", "cutoff-nan", "window-nan", "synth-inf"])
    def test_non_finite_or_zero_rate_rejected(self, make):
        with pytest.raises(ParameterError, match="must be finite and > 0"):
            make()

    @pytest.mark.parametrize("make", [
        lambda m: Waveform(m, 8000),
        lambda m: Envelope(m, 100),
        lambda m: Spectrum(0.5, m, 1.0),
        lambda m: F0Track([0.0, 0.01, 0.02], m, 0.01),
    ], ids=["waveform", "envelope", "spectrum", "f0track"])
    def test_callers_array_stays_writeable(self, make):
        m = np.full(3, 0.5)
        make(m)
        m[0] = 0.25  # raised "assignment destination is read-only" for Spectrum
        assert m.flags.writeable


class TestSmoothing:
    def test_mean_preserved(self):
        rng = np.random.default_rng(11)
        env = Envelope(rng.uniform(0, 1, 300), 100)
        sm = smooth_envelope(env)
        assert sm.values.mean() == pytest.approx(env.values.mean(), rel=1e-9)

    def test_constant_unchanged(self):
        env = Envelope(np.full(100, 0.7), 100)
        assert np.allclose(smooth_envelope(env).values, 0.7, atol=1e-12)

    def test_reduces_total_variation(self):
        rng = np.random.default_rng(12)
        env = Envelope(rng.uniform(0, 1, 500), 100)
        tv = lambda v: np.sum(np.abs(np.diff(v)))
        assert tv(smooth_envelope(env).values) < tv(env.values)


class TestDftOracle:
    def test_matches_naive_dft_on_random_envelopes(self):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            n = int(rng.integers(2, 1025))
            rate = float(rng.choice([50.0, 100.0, 200.0]))
            values = rng.uniform(0.0, 1.0, n)
            cutoff = float(rng.uniform(rate / n, rate / 2))
            env = Envelope(values, rate)
            spec = dft_magnitude(env, cutoff)
            res, expect = naive_dft_magnitudes(values, rate, cutoff)
            assert spec.resolution_hz == pytest.approx(res, rel=1e-12)
            assert len(spec.magnitudes) == len(expect)
            scale = max(np.max(expect), 1e-30)
            assert np.max(np.abs(spec.magnitudes - expect)) <= 1e-9 * scale

    def test_zero_mean_kills_dc_bin(self):
        env = Envelope(np.full(100, 0.5) + 0.1 * np.sin(2 * np.pi * np.arange(100) / 10), 100)
        spec = dft_magnitude(env, 20.0)
        assert spec.magnitudes[0] == pytest.approx(0.0, abs=1e-9)

    def test_without_zero_mean_dc_dominates(self):
        env = Envelope(np.full(100, 0.5), 100)
        spec = dft_magnitude(env, 20.0, zero_mean=False)
        assert spec.magnitudes[0] == pytest.approx(50.0)
        assert np.allclose(spec.magnitudes[1:], 0.0, atol=1e-9)

    def test_cutoff_beyond_nyquist_rejected(self):
        env = Envelope(np.ones(100), 100)
        with pytest.raises(ParameterError):
            dft_magnitude(env, 60.0)

    def test_frequency_axis(self):
        env = Envelope(np.ones(200), 100)
        spec = dft_magnitude(env, 5.0)
        assert spec.resolution_hz == pytest.approx(0.5)
        assert np.allclose(spec.freqs, np.arange(11) * 0.5)


class TestFullPipeline:
    def test_calibration_peak_at_modulation_rate(self, am_wave):
        spec = aems(am_wave, cutoff_hz=20.0)
        peak_hz = spec.freqs[np.argmax(spec.magnitudes)]
        assert abs(peak_hz - 5.0) <= spec.resolution_hz

    def test_harmonic_smaller_than_fundamental(self, am_wave):
        spec = aems(am_wave, cutoff_hz=20.0)
        k5 = int(round(5.0 / spec.resolution_hz))
        k10 = int(round(10.0 / spec.resolution_hz))
        assert spec.magnitudes[k10] < spec.magnitudes[k5]

    @pytest.mark.parametrize("source", ["waveform", "open_wav"])
    def test_params_recorded(self, am_wave, tmp_path, source):
        # int arguments are recorded as floats; the DFT's keys come first, env_rate among them
        want = [("zero_mean", True, bool), ("n_samples", 200, int), ("env_rate", 100.0, float),
                ("window_ms", 20.0, float), ("smooth_ms", 50.0, float), ("cutoff_hz", 20.0, float),
                ("source_rate", 16000, int)]
        kwargs = dict(cutoff_hz=20, window_ms=20, env_rate=100, smooth_ms=50)
        if source == "waveform":
            spec, again = aems(am_wave, **kwargs), aems(am_wave, **kwargs)
        else:
            write_wav_pcm16(tmp_path / "am.wav", am_wave)
            with open_wav(tmp_path / "am.wav") as wav:
                spec, again = aems(wav, **kwargs), aems(wav, **kwargs)
        assert [(k, v, type(v)) for k, v in spec.params.items()] == want
        assert again.params == spec.params and again.params is not spec.params

    def test_default_cutoff_is_5hz(self, am_wave):
        spec = aems(am_wave)
        assert spec.cutoff_hz == 5.0
        assert spec.freqs[-1] <= 5.0


class TestPolynomialFit:
    def test_recovers_exact_degrees_0_to_9(self):
        rng = np.random.default_rng(99)
        xs = np.linspace(0.0, 4.0, 60)
        for degree in range(10):
            coeffs = rng.uniform(-2.0, 2.0, degree + 1)
            ys = np.polynomial.polynomial.polyval(xs, coeffs)
            fit = fit_polynomial(xs, ys, degree)
            assert fit.degree == degree
            assert np.max(np.abs(fit.coeffs - coeffs)) < 1e-6
            assert fit.rmse < 1e-6

    def test_rmse_monotone_in_degree(self):
        rng = np.random.default_rng(100)
        xs = np.linspace(0.0, 2.0, 50)
        ys = np.sin(3.0 * xs) + 0.05 * rng.standard_normal(50)
        rmses = [fit_polynomial(xs, ys, d).rmse for d in range(10)]
        for lo, hi in zip(rmses[1:], rmses[:-1]):
            assert lo <= hi + 1e-12

    def test_evaluate_round_trip(self):
        xs = np.linspace(-1.0, 3.0, 40)
        ys = 2.0 - xs + 0.5 * xs**2
        fit = fit_polynomial(xs, ys, 2)
        assert np.allclose(fit.evaluate(xs), ys, atol=1e-9)

    def test_underdetermined_rejected(self):
        with pytest.raises(ParameterError):
            fit_polynomial([0.0, 1.0], [1.0, 2.0], 5)

    def test_negative_degree_rejected(self):
        with pytest.raises(ParameterError):
            fit_polynomial([0.0, 1.0], [1.0, 2.0], -1)

    def test_coefficients_beyond_float_range_rejected(self):
        # fine in the scaled basis, but x**3 over a 1e-299 span needs a 1e+900 coefficient
        xs = np.arange(10) * 1e-300
        with pytest.raises(DegenerateInputError, match="overflow the float range"):
            fit_polynomial(xs, 100.0 + np.arange(10), 3)

    @pytest.mark.parametrize("xs", [[0.0, math.inf, 2.0], [0.0, 1e308, 1.5e308]])
    def test_x_span_beyond_float_range_rejected(self, xs):
        # x cannot be mapped onto [-1, 1]: refused before lstsq sees a NaN
        with pytest.raises(DegenerateInputError, match=r"the x span \[0\.0, "):
            fit_polynomial(xs, [1.0, 2.0, 3.0], 1)

    @pytest.mark.parametrize("xs, ys, degree, message", [
        ([0.0, math.nan], [1.0, 2.0], 0, "xs must not be NaN, got NaN at index 1"),
        ([0.0, math.nan, 2.0], [1.0, 2.0, 3.0], 1, "xs must not be NaN, got NaN at index 1"),
        ([0.0, 1.0, 2.0], [1.0, math.nan, 3.0], 1, "ys must not be NaN, got NaN at index 1"),
        ([math.nan, 1.0, math.nan], [1.0, 2.0, 3.0], 1, "xs must not be NaN, got NaN at index 0"),
    ], ids=["xs-degree-0", "xs-degree-1", "ys", "two-nan-xs"])
    def test_nan_rejected_naming_its_array_and_index(self, xs, ys, degree, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            fit_polynomial(xs, ys, degree)

    def test_repeated_xs_rejected(self):
        with pytest.raises(ParameterError, match="distinct"):
            fit_polynomial([0.0, 1.0, -0.0], [1.0, 2.0, 3.0], 1)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
                              st.floats()), max_size=12))
    def test_distinctness_matches_np_unique(self, values):
        # np.unique counts -0.0 as 0.0 and every NaN as one value (equal_nan)
        xs = np.array(values, dtype=float)
        assert _has_duplicates(xs) == (len(np.unique(xs)) != len(xs))

    @pytest.mark.parametrize("degree", [1, 3, 5, 9])
    def test_residuals_beyond_float_range_rejected(self, degree):
        # squared residuals overflow; from degree 5 the fitted values themselves reach inf - inf
        ys = np.array([1.7e308, -1.7e308] * 5)
        with pytest.raises(DegenerateInputError, match="residuals overflow the float range"):
            fit_polynomial(np.arange(10.0), ys, degree)


def _spectrum_with_peaks(n_bins, res, peaks):
    """Low-magnitude noise floor plus spikes at the given (bin, magnitude) pairs."""
    rng = np.random.default_rng(5)
    mags = rng.uniform(0.0, 0.3, n_bins)
    for k, m in peaks:
        mags[k] = m
    return Spectrum(res, mags, (n_bins - 1) * res, {})


class TestZoneDetection:
    def test_single_peak_found(self):
        spec = _spectrum_with_peaks(41, 0.5, [(10, 12.0)])
        zones = detect_zones(spec)
        assert len(zones) == 1
        assert zones[0].center_hz == pytest.approx(5.0)
        assert zones[0].lo_hz <= 5.0 <= zones[0].hi_hz

    def test_flat_spectrum_yields_no_zones(self):
        spec = Spectrum(0.5, np.full(41, 1.0), 20.0, {})
        assert detect_zones(spec) == []

    def test_two_modulators_yield_two_zones(self):
        w = _dual_modulator_wave()
        spec = aems(w, cutoff_hz=8.0)
        zones = detect_zones(spec)
        centers = sorted(z.center_hz for z in zones)
        assert len(centers) == 2
        assert abs(centers[0] - 0.8) <= 0.5
        assert abs(centers[1] - 5.0) <= 0.5

    def test_min_prominence_filters(self, am_wave):
        spec = aems(am_wave, cutoff_hz=20.0)
        strict = detect_zones(spec, min_prominence=0.99)
        loose = detect_zones(spec, min_prominence=0.01)
        assert len(strict) <= len(loose)

    def test_zones_sorted_by_prominence(self):
        w = _dual_modulator_wave()
        zones = detect_zones(aems(w, cutoff_hz=8.0))
        proms = [z.prominence for z in zones]
        assert proms == sorted(proms, reverse=True)

    def test_recovery_across_modulation_rates(self):
        for mod_hz in (0.5, 0.8, 1.7, 3.3, 5.0, 7.9, 10.0):
            dur = max(10.0 / mod_hz, 2.0)
            w = synthesize_am(200.0, mod_hz, 1.0, dur, 8000)
            spec = aems(w, cutoff_hz=min(4 * mod_hz, 50.0))
            zones = detect_zones(spec)
            assert zones, f"no zone at {mod_hz} Hz"
            best = min(zones, key=lambda z: abs(z.center_hz - mod_hz))
            assert abs(best.center_hz - mod_hz) <= spec.resolution_hz + 1e-9


def _former_peaks(y):
    """The former extrema loop and flanking-minimum scans, kept as an oracle for _peaks."""
    maxima, minima = [], []
    for i in range(1, len(y) - 1):
        if y[i] > y[i - 1] and y[i] >= y[i + 1]:
            maxima.append(i)
        elif y[i] < y[i - 1] and y[i] <= y[i + 1]:
            minima.append(i)
    out = []
    for m in maxima:
        left_candidates = [i for i in minima if i < m]
        right_candidates = [i for i in minima if i > m]
        lo_i = max(left_candidates) if left_candidates else 0
        hi_i = min(right_candidates) if right_candidates else len(y) - 1
        out.append((m, lo_i, hi_i))
    return out


class TestPeaksOracle:
    def test_matches_former_loop(self):
        # few distinct values, so plateaus are common; inf, -inf and nan among them
        rng = np.random.default_rng(19)
        values = np.array([-1.0, 0.0, 1.0, 2.0, np.inf, -np.inf, np.nan])
        for _ in range(20_000):
            n = int(rng.integers(0, 14))
            pool = values if rng.random() < 0.5 else values[:3]
            y = pool[rng.integers(0, len(pool), n)]
            got = list(zip(*(a.tolist() for a in _peaks(y))))
            assert got == _former_peaks(y), y


def _dual_modulator_wave():
    """5 s carrier modulated at both 0.8 Hz and 5 Hz, equal depths."""
    rate = 8000
    t = np.arange(int(5.0 * rate)) / rate
    m = (1.0 + 0.5 * np.cos(2 * np.pi * 0.8 * t) + 0.5 * np.cos(2 * np.pi * 5.0 * t)) / 2.0
    return Waveform(m * np.sin(2 * np.pi * 200.0 * t), rate)


class TestZscore:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(3)
        z = zscore(rng.uniform(0, 10, 50))
        assert z.mean() == pytest.approx(0.0, abs=1e-12)
        assert z.std(ddof=1) == pytest.approx(1.0, rel=1e-12)

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInputError):
            zscore([2.0, 2.0, 2.0])


class TestSerialization:
    def test_csv_shape(self, am_wave):
        spec = aems(am_wave, cutoff_hz=5.0)
        lines = spectrum_to_csv(spec).strip().split("\n")
        assert lines[0] == "freq_hz,magnitude"
        assert len(lines) == len(spec.magnitudes) + 1

    def test_csv_rows_are_plain_decimals(self, am_wave):
        spec = aems(am_wave, cutoff_hz=5.0)
        rows = [line.split(",") for line in spectrum_to_csv(spec).splitlines()[1:]]
        assert all(len(row) == 2 for row in rows)
        assert [float(f) for f, _ in rows] == spec.freqs.tolist()
        assert [float(m) for _, m in rows] == spec.magnitudes.tolist()

    def test_csv_is_deterministic(self, am_wave):
        spec = aems(am_wave, cutoff_hz=5.0)
        assert spectrum_to_csv(spec) == spectrum_to_csv(spec)
