"""Probability mass vector construction, convolution, and covariance."""

import itertools
import warnings

import numpy as np
import pytest

from convstat import (
    DomainError,
    EmptyProduct,
    EmptySample,
    InputError,
    InvalidPMV,
    PMV,
    SupportViolation,
    conv_matrix,
    convolve,
    convolve_all,
    empirical_pmv,
    gof_test,
    multinomial_cov,
    subind_test,
)
from convstat.pmv import MAX_SUPPORT, _products


def brute_force_sum_pmv(samples_per_var, s):
    """Enumerate all index tuples and tally the sums (the MLE identity)."""
    counts = np.zeros(s + 1)
    for combo in itertools.product(*samples_per_var):
        counts[sum(combo)] += 1
    return counts / counts.sum()


class TestPMV:
    def test_basic_properties(self):
        p = PMV([0.2, 0.3, 0.5])
        assert p.r == 2
        assert p.support_len == 3
        assert p.interior
        assert not p.degenerate
        assert p.zero_indices == ()

    def test_zero_entries_tracked(self):
        p = PMV([0.5, 0.0, 0.5])
        assert not p.interior
        assert p.zero_indices == (1,)

    def test_point_mass_is_degenerate(self):
        assert PMV([1.0, 0.0]).degenerate
        assert PMV([1.0]).degenerate
        assert not PMV([1.0 - 1e-6, 1e-6]).degenerate

    def test_probs_read_only(self):
        p = PMV([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidPMV):
            PMV([1.1, -0.1])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidPMV):
            PMV([np.nan, 1.0])

    @pytest.mark.parametrize("bad, message", [
        ([np.nan, 1.0], "must be finite"),
        ([np.inf, 1.0], "must be finite"),
        ([-np.inf, 1.0], "must be finite"),
        ([-1.0, np.nan], "must be finite"),
        ([1.1, -0.1], "must be nonnegative"),
        ([0.0, 0.0], "must have positive sum"),
    ])
    def test_error_class_and_message(self, bad, message):
        with pytest.raises(InvalidPMV, match=f"^PMV entries {message}$"):
            PMV(bad)

    def test_small_drift_kept_exactly(self):
        vals = np.array([0.1, 0.2, 0.7])  # sums to 1 - 1ulp in binary
        p = PMV(vals)
        assert np.array_equal(p.probs, vals)

    def test_large_drift_renormalized(self):
        p = PMV([0.2, 0.2])
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)


class TestEmpiricalPMV:
    def test_direct_counting(self):
        e = empirical_pmv([0, 1, 1, 2], 2)
        assert np.allclose(e.pmv.probs, [0.25, 0.5, 0.25])
        assert e.n == 4

    def test_all_mass_at_zero(self):
        e = empirical_pmv([0, 0, 0], 1)
        assert np.allclose(e.pmv.probs, [1.0, 0.0])
        assert e.n == 3

    def test_hand_count_oracle(self):
        samples = [1, 2, 1]
        tally = np.zeros(3)
        for v in samples:
            tally[v] += 1
        e = empirical_pmv(samples, 2)
        assert np.allclose(e.pmv.probs, tally / 3, atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            empirical_pmv([], 2)

    def test_out_of_support_rejected(self):
        with pytest.raises(SupportViolation):
            empirical_pmv([0, 3], 2)
        with pytest.raises(SupportViolation):
            empirical_pmv([-1, 0], 2)
        with pytest.raises(SupportViolation):
            empirical_pmv([0.5, 1.0], 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_before_cast(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite value"):
                empirical_pmv(np.array([0.0, 1.0, bad]), 1)

    def test_entries_multiples_of_one_over_n(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            samples = rng.integers(0, 4, size=n)
            e = empirical_pmv(samples, 3)
            assert np.all(np.abs(e.pmv.probs * n - np.rint(e.pmv.probs * n)) < 1e-12)

    @pytest.mark.parametrize("bad", [1.5, 0.5, np.nan, True])
    def test_fractional_support_degree_rejected(self, bad):
        with pytest.raises(InputError, match="support degree r"):
            empirical_pmv([0, 1], bad)

    def test_integral_float_support_degree_accepted(self):
        e = empirical_pmv([0, 1], 2.0)
        assert np.allclose(e.pmv.probs, [0.5, 0.5, 0.0])

    def test_two_dimensional_observations_rejected(self):
        with pytest.raises(InputError, match="1-D"):
            empirical_pmv([[0, 1], [1, 0]], 1)

    @pytest.mark.parametrize("r", [MAX_SUPPORT + 1, 10**12])
    def test_support_degree_above_cap_rejected(self, r):
        # refused before the counts (8 * (r + 1) bytes) are allocated
        with pytest.raises(SupportViolation, match="support degree r"):
            empirical_pmv([0, 1], r)

    def test_sample_maximum_above_cap_rejected(self):
        with pytest.raises(SupportViolation, match="support degree r"):
            gof_test([[0, 10**12], [0, 1]], [0.5, 0.5])
        with pytest.raises(SupportViolation, match="support degree r"):
            subind_test([[0, 1], [1, 0]], support_lens=[10**12, 1])


class TestConvolve:
    def test_fair_coin_sum(self):
        out = convolve(PMV([0.5, 0.5]), PMV([0.5, 0.5]))
        assert np.allclose(out.probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_brute_force_pair(self):
        # oracle: enumerate the four outcome pairs of (0.7,0.3) and (0.2,0.8)
        a, b = np.array([0.7, 0.3]), np.array([0.2, 0.8])
        expected = np.zeros(3)
        for i in range(2):
            for j in range(2):
                expected[i + j] += a[i] * b[j]
        out = convolve(PMV(a), PMV(b))
        assert np.allclose(out.probs, expected, atol=1e-15)
        assert np.allclose(out.probs, [0.14, 0.62, 0.24], atol=1e-12)

    def test_point_mass_identity(self):
        out = convolve(PMV([0.3, 0.7]), PMV([1.0, 0.0]))
        assert np.allclose(out.probs, [0.3, 0.7, 0.0], atol=1e-15)

    def test_large_support(self):
        rng = np.random.default_rng(2)
        a = PMV(rng.uniform(0.0, 1.0, 2001))
        b = PMV(rng.uniform(0.0, 1.0, 1501))
        out = convolve(a, b)
        assert out.support_len == 3501
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_commutative_associative(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            pmvs = [
                PMV(rng.uniform(0.01, 1.0, int(rng.integers(2, 5))))
                for _ in range(3)
            ]
            a, b, c = pmvs
            ab = convolve(a, b)
            ba = convolve(b, a)
            assert np.allclose(ab.probs, ba.probs, atol=1e-12)
            left = convolve(ab, c)
            right = convolve(a, convolve(b, c))
            assert np.allclose(left.probs, right.probs, atol=1e-12)


class TestConvolveAll:
    def test_single_identity(self):
        out = convolve_all([PMV([0.5, 0.5])])
        assert np.allclose(out.probs, [0.5, 0.5], atol=1e-15)

    def test_binomial_three(self):
        # oracle: enumerate the 8 coin outcomes
        expected = np.zeros(4)
        for combo in itertools.product([0, 1], repeat=3):
            expected[sum(combo)] += 0.5 ** 3
        out = convolve_all([PMV([0.5, 0.5])] * 3)
        assert np.allclose(out.probs, expected, atol=1e-15)
        assert np.allclose(out.probs, [0.125, 0.375, 0.375, 0.125], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyProduct):
            convolve_all([])

    def test_pass_convolution_is_the_fold_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            probs = [rng.dirichlet(np.ones(int(rng.integers(1, 6))))
                     for _ in range(int(rng.integers(1, 6)))]
            loo, full = _products(probs)
            assert np.array_equal(full, convolve_all(map(PMV, probs)).probs)
            assert len(loo) == len(probs)

    def test_mle_identity_brute_force(self):
        # convolution of empirical PMVs equals the all-tuples enumeration
        rng = np.random.default_rng(7)
        for _ in range(25):
            k = int(rng.integers(2, 4))
            rs = [int(rng.integers(1, 4)) for _ in range(k)]
            samples = [
                rng.integers(0, r + 1, size=int(rng.integers(1, 9)))
                for r in rs
            ]
            epmvs = [empirical_pmv(smp, r) for smp, r in zip(samples, rs)]
            conv = convolve_all([e.pmv for e in epmvs]).probs
            oracle = brute_force_sum_pmv(samples, sum(rs))
            assert np.max(np.abs(conv - oracle)) < 1e-12


class TestConvMatrix:
    def test_banded_structure(self):
        m = conv_matrix(PMV([0.5, 0.5]), 2)
        assert np.allclose(m, [[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]], atol=1e-15)

    def test_transpose_maps_ones_to_ones(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = PMV(rng.uniform(0.01, 1.0, int(rng.integers(2, 6))))
            cols = int(rng.integers(1, 5))
            m = conv_matrix(v, cols)
            assert np.allclose(m.T @ np.ones(m.shape[0]), np.ones(cols), atol=1e-12)

    def test_point_mass_gives_identity_band(self):
        m = conv_matrix(PMV([1.0, 0.0]), 3)
        assert m.shape == (4, 3)
        assert np.allclose(m[:3, :], np.eye(3), atol=1e-15)
        assert np.allclose(m[3, :], 0.0)

    def test_matrix_action_equals_convolution(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            v = PMV(rng.uniform(0.01, 1.0, int(rng.integers(2, 6))))
            w = PMV(rng.uniform(0.01, 1.0, int(rng.integers(2, 6))))
            out = conv_matrix(v, w.support_len) @ w.probs
            assert np.max(np.abs(out - convolve(v, w).probs)) < 1e-12


class TestMultinomialCov:
    def test_fair_coin(self):
        cov = multinomial_cov(PMV([0.5, 0.5]))
        assert np.allclose(cov, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_point_mass_is_zero(self):
        assert np.allclose(multinomial_cov(PMV([1.0, 0.0])), 0.0)

    def test_formula_entries(self):
        cov = multinomial_cov(PMV([0.14, 0.62, 0.24]))
        assert cov[0, 0] == pytest.approx(0.1204, abs=1e-12)
        assert cov[0, 1] == pytest.approx(-0.0868, abs=1e-12)
        assert cov[1, 1] == pytest.approx(0.2356, abs=1e-12)
        assert cov[2, 2] == pytest.approx(0.1824, abs=1e-12)
        assert cov[0, 2] == pytest.approx(-0.0336, abs=1e-12)
        assert cov[1, 2] == pytest.approx(-0.1488, abs=1e-12)

    def test_one_hot_draws_oracle(self):
        # sample covariance of one-hot indicator draws converges to the formula
        rng = np.random.default_rng(99)
        p = np.array([0.14, 0.62, 0.24])
        draws = rng.choice(3, size=1_000_000, p=p)
        onehot = np.eye(3)[draws]
        mc = np.cov(onehot.T, ddof=0)
        assert np.max(np.abs(mc - multinomial_cov(PMV(p)))) < 2.5e-3

    def test_rows_sum_to_zero_and_kernel(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = PMV(rng.uniform(0.01, 1.0, int(rng.integers(2, 7))))
            cov = multinomial_cov(v)
            assert np.max(np.abs(cov.sum(axis=1))) < 1e-12
            # interior PMV: kernel is exactly the all-ones direction
            eigenvalues = np.linalg.eigvalsh(cov)
            assert eigenvalues[0] > -1e-12
            assert np.sum(np.abs(eigenvalues) < 1e-12 * eigenvalues[-1]) == 1
