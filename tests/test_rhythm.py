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
    metrics_report,
    npvi,
    pfd,
    pim,
    quadrant_analysis,
    rpvi,
    variance,
)
from prosotime.rhythm import quadrant_to_csv


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

    def test_too_short(self):
        with pytest.raises(DegenerateInputError):
            quadrant_analysis([1, 2])

    def test_csv_output(self):
        stats = quadrant_analysis([1, 1, 5, 5, 1, 1, 5, 5])
        lines = quadrant_to_csv(stats).strip().split("\n")
        assert lines[0] == "z_i,z_next,quadrant"
        assert len(lines) == 8  # header + 7 pairs
        assert quadrant_to_csv(stats) == quadrant_to_csv(stats)


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
