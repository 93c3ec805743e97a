"""The F0 contour fit on the standard library, against _polyfit.fit_polynomial.

pitch.fit_contour solves its least squares in Python (_polyfit.fit_legendre)
and hands a system it cannot certify to _polyfit.fit_polynomial.  The former
fit_contour, which always called fit_polynomial, is kept below as the oracle:
the two must raise the same error, or agree in every fitted value within
1e-9 of the largest F0 and in the rmse within 1e-9 relative.  The contour
polyline is drawn with Python floats by the operations of np.linspace and
numpy.polynomial, which the oracles below check bit for bit.
"""

import json
import math
import random
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from prosotime import IPU, F0Track, PolyContourModel, PolyFit, fit_contour
from prosotime.aems import fit_polynomial
from prosotime.cli import run
from prosotime.errors import AnalysisError, DegenerateInputError
from prosotime._polyfit import fit_legendre
from prosotime.pitch import f0_track_to_csv
from prosotime.svgplot import _linspace

ORACLE = settings(max_examples=1500, derandomize=True, deadline=None)


def _former_frames(track, domain):
    """The voiced frames that fit_contour fitted, as arrays, and the origin of its time axis."""
    ts, vs = track.voiced_frames()
    if domain is None:
        return ts, vs, track._times[0] if len(track) else 0.0
    keep = (ts >= domain.start_s) & (ts <= domain.end_s)
    return ts[keep], vs[keep], domain.start_s


def _former_fit_contour(track, degree, domain=None):
    """fit_contour as it was: numpy's voiced frames, then fit_polynomial."""
    ts, vs, origin = _former_frames(track, domain)
    if len(ts) < degree + 1:
        raise DegenerateInputError(f"{len(ts)} voiced frames cannot constrain a degree-{degree} fit")
    fit = fit_polynomial(ts - origin, vs, degree)
    return PolyContourModel(fit=fit, domain=domain, voiced_frame_count=int(len(ts)))


def _outcome(fit, *args):
    try:
        return fit(*args)
    except AnalysisError as exc:
        return exc


def _voiced_mask(rng, n, kind):
    if kind == "random":
        share = rng.random()
        return [rng.random() < share for _ in range(n)]
    if kind == "runs":  # speech-like: voiced stretches between pauses
        mask, voiced = [], rng.random() < 0.5
        while len(mask) < n:
            mask += [voiced] * rng.randint(1, max(1, n // 4))
            voiced = not voiced
        return mask[:n]
    mask = [False] * n  # clustered: a few tight groups of voiced frames, at the ends or anywhere
    for at in ([0, n - 12] if kind == "ends" else [rng.randrange(n) for _ in range(rng.randint(1, 4))]):
        for k in range(max(at, 0), min(n, at + rng.randint(1, 12))):
            mask[k] = True
    return mask


@st.composite
def contour_cases(draw):
    """A uniform frame grid with a random voiced mask, its F0 and an optional domain."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "runs", "clustered", "ends"]))
    n = draw(st.integers(1, 4000 if kind == "ends" else 400))  # two clusters far apart: rank-deficient
    hop = draw(st.sampled_from([0.01, 0.005, 0.016, 0.0125]))
    t0 = draw(st.sampled_from([0.0, 0.02, 1.5, 987.65]))
    mask = _voiced_mask(rng, n, kind)
    base, swing = rng.uniform(80.0, 250.0), rng.uniform(0.0, 60.0)
    shape = draw(st.sampled_from(["glide", "steps", "noise"]))
    f0 = []
    for k, voiced in enumerate(mask):
        if shape == "glide":
            v = base + swing * math.sin(0.05 * k + rng.gauss(0.0, 0.01))
        elif shape == "steps":  # tone-like runs of equal values
            v = base + swing * (k // 15 % 3)
        else:
            v = rng.uniform(50.0, 500.0)
        f0.append(v if voiced else None)
    track = F0Track([t0 + k * hop for k in range(n)], f0, hop)
    domain = None
    if draw(st.booleans()):
        a, b = sorted((rng.uniform(-0.1, 1.1), rng.uniform(-0.1, 1.1)))
        span = max(n - 1, 1) * hop
        domain = IPU(t0 + a * span, t0 + b * span + hop / 3)
    return track, domain


@ORACLE
@given(contour_cases(), st.integers(0, 12))
def test_fit_agrees_with_fit_polynomial(case, degree):
    track, domain = case
    ref = _outcome(_former_fit_contour, track, degree, domain)
    got = _outcome(fit_contour, track, degree, domain)
    if isinstance(ref, AnalysisError):
        event(f"both raise {type(ref).__name__}")
        assert type(got) is type(ref) and str(got) == str(ref)
        return
    assert not isinstance(got, AnalysisError), got
    ts, ys, origin = _former_frames(track, domain)
    xs = ts - origin
    event("certified" if fit_legendre(xs.tolist(), ys.tolist(), degree) else "deferred")
    assert (got.domain, got.voiced_frame_count, got.fit.degree) == (ref.domain, ref.voiced_frame_count, degree)
    assert got.fit.domain == ref.fit.domain and len(got.fit.coeffs) == degree + 1
    scale = float(np.max(ys))
    assert np.max(np.abs(got.fit.evaluate(xs) - ref.fit.evaluate(xs))) <= 1e-9 * scale
    # an rmse that is rounding noise (an exact fit) is compared at the scale of the values
    assert math.isclose(got.fit.rmse, ref.fit.rmse, rel_tol=1e-9, abs_tol=1e-9 * scale)


def _speech_like_track(seconds, seed):
    """A 10 ms track with a falling, wavering F0, unvoiced pauses and dropped frames."""
    rng = random.Random(seed)
    n = round(seconds * 100)
    pauses = [(rng.uniform(0.0, seconds), rng.uniform(0.15, 0.4)) for _ in range(round(seconds / 3))]
    f0 = []
    for k in range(n):
        t = 0.02 + k * 0.01
        voiced = rng.random() > 0.05 and not any(a <= t < a + d for a, d in pauses)
        f0.append(170.0 - 0.8 * t + 25.0 * math.sin(1.7 * t) + rng.gauss(0.0, 4.0) if voiced else None)
    return F0Track([0.02 + k * 0.01 for k in range(n)], f0, 0.01)


@pytest.mark.parametrize("seconds, seed", [(5, 1), (30, 2), (120, 3)])
def test_speech_like_tracks_are_fitted_without_fit_polynomial(seconds, seed, monkeypatch):
    track = _speech_like_track(seconds, seed)
    cases = [(d, domain) for d in range(13) for domain in (None, IPU(0.5, min(4.0, seconds - 0.5)))]
    refs = [_former_fit_contour(track, *case) for case in cases]

    def refuse(*args):
        raise AssertionError("handed to fit_polynomial")

    monkeypatch.setattr(sys.modules["prosotime._polyfit"], "fit_polynomial", refuse)  # where fit_contour looks
    for (degree, domain), ref in zip(cases, refs):
        got = fit_contour(track, degree, domain)
        assert got.fit.domain == ref.fit.domain
        assert math.isclose(got.fit.rmse, ref.fit.rmse, rel_tol=1e-9)
        if degree <= 3:  # the figures a contour-fit report holds
            assert all(math.isclose(a, b, rel_tol=1e-9) for a, b in zip(got.fit.coeffs, ref.fit.coeffs))


# the exit codes of contour-fit --degree 0 ... 45 on the 30 s track below, recorded with the
# numpy fit: fit_polynomial finds V of rank 34 at degree 34
DEGREE_SWEEP_CODES = [0] * 34 + [1] * 12


def test_degree_sweep_keeps_exit_codes_across_the_rank_boundary(tmp_path, capsys):
    track = _speech_like_track(30, 1)
    path = tmp_path / "speech.f0.csv"
    path.write_text(f0_track_to_csv(track))
    codes = [run(["contour-fit", str(path), "--degree", str(d), "--formats", "json", "--out-dir", str(tmp_path)])
             for d in range(46)]
    expected = [int(isinstance(_outcome(_former_fit_contour, track, d), AnalysisError)) for d in range(46)]
    assert codes == expected == DEGREE_SWEEP_CODES
    err = capsys.readouterr().err
    assert err.count("error: rank-deficient system") == 12 and "Traceback" not in err


def test_rank_deficient_system_is_not_certified():
    # two tight clusters: numpy ranks the degree-5 Vandermonde below 6
    xs = [0.0, 1e-9, 2e-9, 1.0, 1.0 + 1e-9, 1.0 + 2e-9]
    ys = [100.0, 101.0, 99.0, 150.0, 151.0, 149.0]
    assert fit_legendre(xs, ys, 5) is None
    with pytest.raises(AnalysisError, match="rank-deficient"):
        fit_polynomial(np.array(xs), np.array(ys), 5)


@pytest.mark.parametrize("degree", [409, 1500])
def test_a_condition_bound_past_the_float_range_is_not_certified(degree):
    # from degree 409 the squares of the Legendre-to-monomial coefficients overflow the bound's sums
    xs = [k / 100 for k in range(2000)]
    ys = [150.0 + 20.0 * math.sin(x) for x in xs]
    assert fit_legendre(xs, ys, degree) is None


def test_degree_409_exits_1_without_a_traceback(tmp_path):
    path = tmp_path / "track.f0.csv"
    path.write_text("time_s,f0_hz\n" + "".join(f"{k / 100!r},{100 + k % 7}\n" for k in range(500)))
    proc = subprocess.run([sys.executable, "-m", "prosotime.cli", "contour-fit", str(path), "--degree", "409",
                           "--out-dir", str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: rank-deficient system")


@pytest.mark.parametrize("rows, span", [
    ("0,100\n1e308,110\n", "[0.0, 1e+308]"),  # 2x past the float range
    ("-8e307,100\n0,110\n8e307,120\n", "[0.0, 1.6e+308]"),  # the same, times measured from the first frame
    ("0,100\n1e-320,110\n2e-320,120\n", "[0.0, 2e-320]"),  # 2 / (hi - lo) past the float range
])
def test_x_spans_past_the_float_range_exit_1_with_one_error_line(rows, span, tmp_path, capfd):
    # numpy's LAPACK printed to stdout before the traceback, so the file descriptors are read
    path = tmp_path / "far.f0.csv"
    path.write_text("time_s,f0_hz\n" + rows)
    assert run(["contour-fit", str(path), "--degree", "1", "--out-dir", str(tmp_path)]) == 1
    out, err = capfd.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and f"x span {span}" in err


def test_fit_legendre_keeps_a_negative_zero(tmp_path):
    # only fit_polynomial adds 0.0 to its coefficients, as numpy's convert gives no -0.0
    path = tmp_path / "far.f0.csv"
    path.write_text("time_s,f0_hz\n1e300,100\n1.0000000000000002e300,110\n1.0000000000000004e300,120\n")
    assert run(["contour-fit", str(path), "--degree", "2", "--formats", "json", "--out-dir", str(tmp_path)]) == 0
    coeffs = json.loads((tmp_path / "far.f0.contour.json").read_text())["model"]["coeffs"]
    assert coeffs == [100.00000000000001, 6.724873095247297e-284, 0.0] and math.copysign(1.0, coeffs[2]) == -1.0


@pytest.mark.parametrize("xs, ys, degree", [
    ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], 1),  # not distinct
    ([1.0, 0.0, 2.0], [1.0, 2.0, 3.0], 1),  # not rising
    ([0.0, 1e-300, 2e-300], [1.0, 2.0, 3.0], 2),  # powers of x beyond the float range
    ([0.0, 1.0, 2.0], [1e300, 1.0, 1e300], 1),  # squares beyond the float range
    ([0.0, 1e308, 1.5e308], [1.0, 2.0, 3.0], 1),  # 2x beyond the float range
    ([k / 100 for k in range(8)], [1e-320 * (1 + k % 3) for k in range(8)], 3),  # subnormal products
    ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], -1),
])
def test_systems_beyond_the_checks_are_left_to_fit_polynomial(xs, ys, degree):
    assert fit_legendre(xs, ys, degree) is None


def test_poly_fit_is_one_class_and_loads_no_numpy():
    assert sys.modules["prosotime.aems"].PolyFit is PolyFit is sys.modules["prosotime._polyfit"].PolyFit
    assert fit_polynomial is sys.modules["prosotime._polyfit"].fit_polynomial
    code = "import sys, prosotime; prosotime.PolyFit; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
       st.floats(-1e3, 1e3), st.floats(1e-12, 1e4),
       st.lists(st.floats(-2e4, 2e4, allow_subnormal=True), min_size=1, max_size=20))
def test_polyfit_at_a_float_is_numpy_polynomial_bit_for_bit(scaled, lo, span, xs):
    fit = PolyFit(len(scaled) - 1, tuple(scaled), (lo, lo + span), 0.0, tuple(scaled))
    want = Polynomial(np.asarray(scaled), domain=[lo, lo + span])(np.asarray(xs)).tolist()
    assert [fit._at(x) for x in xs] == want == fit.evaluate(xs).tolist()


# from 1e-300 to 1e300 in magnitude
_MAGNITUDES = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-300, 300))


@st.composite
def _domains(draw):
    """lo < hi: two ends drawn alone, or a drawn span of 64 ulps at least above lo."""
    a, b, span = draw(_MAGNITUDES), draw(_MAGNITUDES), draw(_MAGNITUDES)
    lo, hi = draw(st.sampled_from([(min(a, b), max(a, b)), (a, a + max(abs(span), 64 * math.ulp(a)))]))
    assume(hi > lo)
    return lo, hi


@settings(max_examples=1500, derandomize=True, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), _MAGNITUDES), min_size=1, max_size=12), _domains())
def test_fit_polynomial_converts_as_numpy_polynomial_bit_for_bit(scaled, domain):
    # lstsq returns the drawn coefficients over [-1, 1], and a zero basis leaves zero residuals
    lo, hi = domain
    p = len(scaled)
    xs = np.linspace(lo, hi, p) if p > 1 else np.array([lo, hi])
    assume(len(set(xs.tolist())) == len(xs))
    with np.errstate(all="ignore"):
        want = Polynomial(np.array(scaled), domain=[lo, hi]).convert().coef
    if len(want) > p:  # 2 / (hi - lo) past the float range gives numpy's series a NaN term, which np.pad refused
        want = np.array(scaled) + 0.0 if p == 1 else np.full(p, np.nan)  # a constant needs no change of basis
    want = np.pad(want, (0, p - len(want)))
    with mock.patch("numpy.linalg.lstsq", return_value=(np.array(scaled), None, p, None)), \
            mock.patch("numpy.vander", return_value=np.zeros((len(xs), p))):
        got = _outcome(fit_polynomial, xs, np.zeros(len(xs)), p - 1)
    event(type(got).__name__)
    if np.isfinite(want).all():
        assert np.array(got.coeffs).tobytes() == want.tobytes() and got.scaled_coeffs == tuple(scaled)
    else:
        assert isinstance(got, DegenerateInputError) and "powers of x overflow" in str(got)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.floats(-1e6, 1e6), st.one_of(st.floats(0.0, 1e6), st.floats(0.0, 1e-300, allow_subnormal=True)),
       st.integers(2, 300))
def test_linspace_is_numpy_bit_for_bit(lo, span, num):
    assert _linspace(lo, lo + span, num) == np.linspace(lo, lo + span, num).tolist()
