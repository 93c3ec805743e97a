"""Duration-dispersion metrics and quadrant analysis of z-scored pairs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosotime import (
    DegenerateInputError,
    DurationSequence,
    ParameterError,
    QuadrantStats,
    metrics_report,
    npvi,
    pfd,
    pim,
    quadrant_analysis,
    rpvi,
    variance,
)
from prosotime.rhythm import quadrant_to_csv


# ---------------------------------------------------------------------------
# numpy reference: the array formulas the stdlib implementation replaced
# ---------------------------------------------------------------------------


def ref_metrics(xs) -> dict:
    v = np.asarray(xs, dtype=float)
    n = len(v)
    constant = np.ptp(v) == 0.0
    k = np.arange(1, n)
    a, b = v[:-1], v[1:]
    return {
        "variance": 0.0 if constant else float(np.var(v, ddof=1)),
        "pim": float(2.0 * np.sum(np.diff(np.sort(np.log(v))) * (k * (n - k)))),
        "pfd": 0.0 if constant else float(100.0 * np.sum(np.abs(v - v.mean())) / np.sum(v)),
        "rpvi": float(np.mean(np.abs(np.diff(v)))),
        "npvi": float(100.0 * np.mean(np.abs(a - b) / ((a + b) / 2.0))),
    }


def ref_zscores(xs) -> np.ndarray:
    v = np.asarray(xs, dtype=float)
    return (v - v.mean()) / np.std(v, ddof=1)


def ref_quadrants(z: np.ndarray) -> list[str]:
    labels = []
    for zi, zn in zip(z[:-1], z[1:]):
        if zi == 0.0 or zn == 0.0:
            labels.append("origin")
        elif zi > 0 and zn > 0:
            labels.append("LL")
        elif zi < 0 and zn < 0:
            labels.append("SS")
        else:
            labels.append("LS" if zi > 0 else "SL")
    return labels


_durations = st.floats(1e-3, 1e3, allow_nan=False)
_sequences = st.one_of(
    st.lists(_durations, min_size=2, max_size=80),
    st.builds(lambda x, n: [x] * n, _durations, st.integers(2, 30)),  # constant runs
    st.lists(st.integers(1, 5000).map(lambda ms: ms / 1000), min_size=2, max_size=80),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_sequences, st.sampled_from(["list", "array", "DurationSequence"]))
def test_matches_numpy_reference(xs, form):
    arg = {
        "list": xs,
        "array": np.asarray(xs),
        "DurationSequence": DurationSequence(tuple((f"u{i}", x) for i, x in enumerate(xs))),
    }[form]
    want = ref_metrics(xs)
    got = metrics_report(arg)
    for fn in (variance, pim, pfd, rpvi, npvi):
        assert got[fn.__name__] == pytest.approx(want[fn.__name__], rel=1e-12), fn.__name__
        assert fn(arg) == got[fn.__name__], fn.__name__
    assert got["n"] == len(xs)

    mean = math.fsum(xs) / len(xs)
    if len(xs) < 3 or any(math.isclose(x, mean, rel_tol=1e-9) for x in xs):
        return  # a pair on or within rounding of the mean may fall either side
    stats = quadrant_analysis(arg)
    z = ref_zscores(xs)
    ulps = 1e-14 * max(xs) / np.std(xs, ddof=1)  # a few ulps of the data, in z units
    assert np.max(np.abs(np.array(stats.points) - np.column_stack([z[:-1], z[1:]]))) <= ulps
    labels = ref_quadrants(z)
    assert list(stats.quadrants) == labels
    assert stats.counts == {q: labels.count(q) for q in ("LL", "SS", "LS", "SL", "origin")}
    assert stats.index == (labels.count("LL") / labels.count("SS") if "SS" in labels else None)
    assert QuadrantStats(stats.points) == stats  # built unchecked, its z-scores pass the finiteness test


class TestVariance:
    def test_known_value(self):
        assert variance([2, 4, 2, 4]) == pytest.approx(4 / 3)

    def test_constant_is_zero(self):
        assert variance([5, 5, 5, 5]) == 0.0

    def test_translation_invariant(self):
        xs = [1.0, 3.0, 2.5, 4.0]
        assert variance([x + 17.5 for x in xs]) == pytest.approx(variance(xs))

    def test_scales_quadratically(self):
        xs = [1.0, 3.0, 2.5, 4.0]
        assert variance([3 * x for x in xs]) == pytest.approx(9 * variance(xs))

    def test_too_short(self):
        with pytest.raises(DegenerateInputError):
            variance([1.0])


class TestPim:
    def test_all_equal_is_zero(self):
        assert pim([1, 1, 1]) == 0.0

    def test_two_values(self):
        assert pim([1, 2]) == pytest.approx(2 * math.log(2))

    def test_scale_invariant(self):
        xs = [0.4, 0.9, 1.3, 0.2]
        assert pim([7 * x for x in xs]) == pytest.approx(pim(xs))

    def test_nonpositive_rejected(self):
        with pytest.raises(ParameterError):
            pim([1.0, 0.0])

    def test_constant_is_exactly_zero(self):
        for n in range(2, 40):
            assert pim([0.4] * n) == 0.0

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.floats(1e-3, 1e3, allow_nan=False), min_size=2, max_size=60))
    def test_matches_brute_force(self, xs):
        logs = np.log(np.asarray(xs))
        brute = float(np.sum(np.abs(logs[:, None] - logs[None, :])))
        got = pim(xs)
        assert got >= 0.0
        assert got == pytest.approx(brute, rel=1e-12, abs=1e-12)


class TestPfd:
    def test_known_value(self):
        assert pfd([2, 4, 2, 4]) == pytest.approx(100 * 4 / 12)

    def test_constant_is_zero(self):
        assert pfd([3, 3, 3]) == 0.0

    def test_scale_invariant(self):
        xs = [0.4, 0.9, 1.3, 0.2]
        assert pfd([7 * x for x in xs]) == pytest.approx(pfd(xs))


class TestPvi:
    def test_rpvi_known_value(self):
        assert rpvi([2, 4, 2, 4]) == pytest.approx(2.0)

    def test_rpvi_scales_linearly(self):
        xs = [0.4, 0.9, 1.3, 0.2]
        assert rpvi([5 * x for x in xs]) == pytest.approx(5 * rpvi(xs))

    def test_npvi_alternation(self):
        assert npvi([2, 4, 2, 4, 2, 4]) == pytest.approx(200.0 / 3, abs=0.01)

    def test_npvi_identity_across_patterns(self):
        a = npvi([2, 4, 2, 4, 2, 4])
        b = npvi([2, 4, 8, 16, 32, 64])
        c = npvi([4, 2, 1, 2, 4, 8])
        assert a == pytest.approx(b, abs=1e-9)
        assert b == pytest.approx(c, abs=1e-9)

    def test_npvi_scale_invariant(self):
        xs = [0.4, 0.9, 1.3, 0.2]
        assert npvi([7 * x for x in xs]) == pytest.approx(npvi(xs))

    def test_constant_is_zero(self):
        assert rpvi([2, 2, 2]) == 0.0
        assert npvi([2, 2, 2]) == 0.0


class TestReversalInvariance:
    def test_all_metrics_direction_blind(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            xs = list(rng.uniform(0.05, 2.0, int(rng.integers(2, 30))))
            rev = xs[::-1]
            for fn in (variance, pim, pfd, rpvi, npvi):
                assert fn(rev) == pytest.approx(fn(xs), rel=1e-12), fn.__name__


class TestQuadrants:
    def test_alternation_has_no_like_pairs(self):
        stats = quadrant_analysis([2, 4, 2, 4, 2, 4])
        assert stats.ll == 0 and stats.ss == 0
        assert stats.ls + stats.sl == 5
        assert stats.index is None

    def test_block_pattern(self):
        stats = quadrant_analysis([1, 1, 5, 5, 1, 1, 5, 5])
        assert (stats.ll, stats.ss, stats.ls, stats.sl) == (2, 2, 1, 2)
        assert stats.origin == 0
        assert stats.index == pytest.approx(1.0)

    def test_partition_on_random_sequences(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            n = int(rng.integers(3, 40))
            xs = rng.uniform(0.01, 3.0, n)
            if np.ptp(xs) == 0:
                continue
            stats = quadrant_analysis(xs)
            total = stats.ll + stats.ss + stats.ls + stats.sl + stats.origin
            assert total == n - 1
            assert len(stats.points) == n - 1
            assert (stats.index is not None) == (stats.ss > 0)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateInputError):
            quadrant_analysis([2, 2, 2, 2])

    @pytest.mark.parametrize("n", [3, 7])
    def test_constant_run_with_inexact_mean_rejected(self, n):
        # the rounded mean of n copies of 0.1 is not 0.1; its z-scores would be rounding noise
        with pytest.raises(DegenerateInputError):
            quadrant_analysis([0.1] * n)

    def test_too_short(self):
        with pytest.raises(DegenerateInputError):
            quadrant_analysis([1, 2])

    def test_stats_derive_counts_from_points(self):
        stats = QuadrantStats(((1.0, 2.0), (-1.0, -0.5), (0.5, -2.0), (-3.0, 1.0), (0.0, 1.0)))
        assert stats.quadrants == ("LL", "SS", "LS", "SL", "origin")
        assert (stats.ll, stats.ss, stats.ls, stats.sl, stats.origin) == (1, 1, 1, 1, 1)
        assert stats.index == 1.0
        assert QuadrantStats(((1.0, -1.0),)).index is None
        assert stats == QuadrantStats(tuple(stats.points))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_stats_reject_non_finite_points(self, bad):
        with pytest.raises(ParameterError):
            QuadrantStats(((1.0, 2.0), (bad, 1.0)))

    def test_csv_output(self):
        stats = quadrant_analysis([1, 1, 5, 5, 1, 1, 5, 5])
        lines = quadrant_to_csv(stats).strip().split("\n")
        assert lines[0] == "z_i,z_next,quadrant"
        assert len(lines) == 8  # header + 7 pairs
        assert quadrant_to_csv(stats) == quadrant_to_csv(stats)


class TestInput:
    @pytest.mark.parametrize("xs", [[[1.0, 2.0], [3.0, 4.0]], np.ones((3, 2)), ["a", "b"]])
    def test_not_a_sequence_of_numbers(self, xs):
        for fn in (variance, pim, pfd, rpvi, npvi, quadrant_analysis, metrics_report):
            with pytest.raises(ParameterError):
                fn(xs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        for fn in (variance, pim, pfd, rpvi, npvi, quadrant_analysis, metrics_report):
            with pytest.raises(ParameterError):
                fn([1.0, bad, 2.0])

    def test_sum_beyond_float_range_rejected(self):
        with pytest.raises(ParameterError):
            variance([1e308, 1.5e308])

    @pytest.mark.parametrize("fn", [variance, quadrant_analysis])
    def test_squares_beyond_float_range_rejected(self, fn):
        # the sum is finite, but the squared deviations (about 1e399) are not
        with pytest.raises(ParameterError, match="squared deviations"):
            fn([1e200, 1e193, 1e200])


class TestReport:
    def test_all_metrics_present(self):
        rep = metrics_report([0.3, 0.2, 0.3, 0.1])
        for key in ("variance", "pim", "pfd", "rpvi", "npvi", "n", "params"):
            assert key in rep
        assert rep["n"] == 4

    def test_accepts_duration_sequence(self):
        seq = DurationSequence((("a", 0.3), ("b", 0.2), ("c", 0.3)))
        rep = metrics_report(seq)
        assert rep["n"] == 3
        assert rep["rpvi"] == pytest.approx(rpvi([0.3, 0.2, 0.3]))

    def test_constant_sequence_all_zero(self):
        rep = metrics_report([0.5, 0.5, 0.5])
        for key in ("variance", "pim", "pfd", "rpvi", "npvi"):
            assert rep[key] == 0.0
