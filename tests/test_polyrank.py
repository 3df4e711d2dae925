"""Numerical gcd degrees and the covariance rank formulas."""

import numpy as np
import pytest

from convstat import (
    DimensionMismatch,
    DomainError,
    NeedTwoVariables,
    PMV,
    ZeroInput,
    covariance_rank,
    gcd_degree,
    gcd_many,
    leave_one_out,
)
from convstat.pmv import _conv_matrix


def poly_remainder(num, den):
    """Oracle: ascending-order long division remainder."""
    rem = np.array(num, dtype=float)
    dn = len(den) - 1
    for k in range(len(num) - 1, dn - 1, -1):
        coef = rem[k] / den[-1]
        rem[k - dn: k + 1] -= coef * np.asarray(den)
        rem[k] = 0.0
    return rem[:dn] if dn else rem[:0]


def nullspace(matrix, tol=1e-10):
    _, sv, vt = np.linalg.svd(matrix)
    rank = int(np.sum(sv > tol * sv[0])) if sv.size and sv[0] > 0 else 0
    return vt[rank:].T


class TestGcdDegree:
    def test_equal_inputs(self):
        out = gcd_degree([0.5, 0.5], [0.5, 0.5])
        assert out.degree == 1
        assert np.allclose(out.gcd_coeffs, [0.5, 0.5], atol=1e-9)

    def test_coprime_bernoulli(self):
        # roots -7/3 and -1/4 differ, so the gcd is constant
        out = gcd_degree([0.7, 0.3], [0.2, 0.8])
        assert out.degree == 0
        assert np.allclose(out.gcd_coeffs, [1.0])

    def test_shared_factor_recovered(self):
        out = gcd_degree([0.25, 0.5, 0.25], [0.5, 0.5])
        assert out.degree == 1
        assert np.allclose(out.gcd_coeffs, [0.5, 0.5], atol=1e-9)
        # oracle: the recovered gcd divides both inputs
        for poly in ([0.25, 0.5, 0.25], [0.5, 0.5]):
            rem = poly_remainder(poly, out.gcd_coeffs)
            assert np.max(np.abs(rem)) < 1e-9 if rem.size else True

    def test_zero_input_rejected(self):
        with pytest.raises(ZeroInput):
            gcd_degree([0.0, 0.0], [0.5, 0.5])

    def test_residual_reported(self):
        out = gcd_degree([0.7, 0.3], [0.2, 0.8])
        assert 0.0 < out.residual <= 1.0

    def test_unstable_normalization_flagged(self):
        # shared factor (1, -1) sums to ~0, so the sum-to-1 normalization
        # is flagged rather than trusted
        v = np.convolve([1.0, -1.0], [0.5, 0.5])
        w = np.convolve([1.0, -1.0], [0.25, 0.75])
        out = gcd_degree(v, w, tol=1e-9)
        assert out.degree == 1
        assert out.unstable_normalization

    def test_multiplicativity(self):
        # deg gcd(v*g, w*g) = deg gcd(v, w) + deg g for coprime v, w
        rng = np.random.default_rng(17)
        for _ in range(40):
            v = rng.uniform(0.05, 1.0, int(rng.integers(2, 5)))
            w = rng.uniform(0.05, 1.0, int(rng.integers(2, 5)))
            g = rng.uniform(0.05, 1.0, int(rng.integers(2, 4)))
            base = gcd_degree(v, w).degree
            lifted = gcd_degree(np.convolve(v, g), np.convolve(w, g)).degree
            assert lifted == base + (g.size - 1)

    def test_high_degree_shared_factor(self):
        # degree detection and coefficient recovery at gcd degrees 3 and 4
        rng = np.random.default_rng(53)
        for gdeg in (3, 4):
            g = rng.uniform(0.1, 1.0, gdeg + 1)
            g = g / g.sum()
            v = np.convolve(rng.uniform(0.1, 1.0, 4), g)
            w = np.convolve(rng.uniform(0.1, 1.0, 3), g)
            out = gcd_degree(v / v.sum(), w / w.sum())
            assert out.degree == gdeg
            assert np.allclose(out.gcd_coeffs, g, atol=1e-7)


class TestGcdMany:
    def test_distinct_bernoulli_pair(self):
        out = gcd_many([[0.2, 0.8], [0.7, 0.3]])
        assert out.degree == 0

    def test_equal_pair(self):
        out = gcd_many([[0.2, 0.8], [0.2, 0.8]])
        assert out.degree == 1
        assert np.allclose(out.gcd_coeffs, [0.2, 0.8], atol=1e-9)

    def test_three_identical(self):
        out = gcd_many([[0.5, 0.5]] * 3)
        assert out.degree == 1
        assert np.allclose(out.gcd_coeffs, [0.5, 0.5], atol=1e-9)

    def test_divides_every_input(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            g = rng.uniform(0.05, 1.0, 3)
            inputs = [
                np.convolve(rng.uniform(0.05, 1.0, int(rng.integers(2, 4))), g)
                for _ in range(3)
            ]
            out = gcd_many(inputs)
            assert out.degree >= 2
            for poly in inputs:
                rem = poly_remainder(poly / poly.sum(), out.gcd_coeffs)
                assert np.max(np.abs(rem)) < 1e-8

    def test_empty_rejected(self):
        with pytest.raises(ZeroInput):
            gcd_many([])

    @pytest.mark.parametrize("tol", [1.0, 2.0, -1e-9, float("nan")])
    def test_tolerance_outside_unit_interval_rejected(self, tol):
        # a cut at or above sigma_max would report a gcd of higher degree
        # than either input
        with pytest.raises(DomainError, match="tolerance"):
            gcd_degree([1.0, 2.0], [1.0, 3.0], tol=tol)
        with pytest.raises(DomainError, match="tolerance"):
            gcd_many([[1.0, 2.0]], tol=tol)


class TestLeaveOneOut:
    def test_pair_swap(self):
        out = leave_one_out([PMV([0.7, 0.3]), PMV([0.2, 0.8])])
        assert np.allclose(out[0].probs, [0.2, 0.8])
        assert np.allclose(out[1].probs, [0.7, 0.3])

    def test_three_fair_coins(self):
        out = leave_one_out([PMV([0.5, 0.5])] * 3)
        for p in out:
            assert np.allclose(p.probs, [0.25, 0.5, 0.25], atol=1e-12)

    def test_requires_two(self):
        with pytest.raises(NeedTwoVariables):
            leave_one_out([PMV([0.5, 0.5])])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            pmvs = [PMV(rng.uniform(0.02, 1.0, int(rng.integers(2, 4))))
                    for _ in range(k)]
            out = leave_one_out(pmvs)
            for i in range(k):
                expected = np.array([1.0])
                for j, p in enumerate(pmvs):
                    if j != i:
                        expected = np.convolve(expected, p.probs)
                expected = expected / expected.sum()
                assert np.allclose(out[i].probs, expected, atol=1e-12)


class TestCovarianceRank:
    def test_coprime_full_rank(self):
        rep = covariance_rank([PMV([0.7, 0.3]), PMV([0.2, 0.8])])
        assert rep.s == 2
        assert rep.analytic_rank == 2
        assert rep.numeric_rank == 2
        assert rep.lower_bound == 2

    def test_equal_parameters_rank_drop(self):
        rep = covariance_rank([PMV([0.2, 0.8]), PMV([0.2, 0.8])])
        assert rep.analytic_rank == 1
        assert rep.numeric_rank == 1

    def test_two_sample_keeps_full_rank(self):
        # equal x-side PMVs drop psi's rank, but the pooled matrix stays full
        from convstat import z_rho

        rep = covariance_rank(
            [PMV([0.2, 0.8]), PMV([0.2, 0.8])], [z_rho(0.2, 0.8, 0.3)]
        )
        assert rep.analytic_rank == 2
        assert rep.numeric_rank == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            covariance_rank([PMV([0.5, 0.5])], [PMV([0.25, 0.5, 0.25])])

    def test_zero_entries_use_lower_bound(self):
        rep = covariance_rank([PMV([0.5, 0.0, 0.5]), PMV([0.4, 0.6])])
        assert rep.analytic_rank is None
        assert rep.zero_index_sets == ((1,), ())
        assert rep.lower_bound <= rep.numeric_rank

    def test_lower_bound_never_exceeds_numeric(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            k = int(rng.integers(2, 4))
            pmvs = []
            for _ in range(k):
                v = rng.uniform(0.0, 1.0, int(rng.integers(2, 5)))
                if v.size > 2 and rng.random() < 0.4:
                    v[rng.integers(1, v.size - 1)] = 0.0
                v[0] = max(v[0], 0.05)
                v[-1] = max(v[-1], 0.05)
                pmvs.append(PMV(v))
            rep = covariance_rank(pmvs)
            assert rep.lower_bound <= rep.numeric_rank

    def test_plain_probability_vectors(self):
        probs = [[0.5, 0.0, 0.5], [0.3, 0.7]]
        pmvs = [PMV(p) for p in probs]
        for got, want in [
            (covariance_rank(probs), covariance_rank(pmvs)),
            (covariance_rank([np.array(p) for p in probs], [[0.2, 0.3, 0.1, 0.4]]),
             covariance_rank(pmvs, [PMV([0.2, 0.3, 0.1, 0.4])])),
        ]:
            assert got.s == want.s
            assert got.analytic_rank == want.analytic_rank
            assert got.lower_bound == want.lower_bound
            assert got.numeric_rank == want.numeric_rank
            assert got.zero_index_sets == want.zero_index_sets
            np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)

    def test_analytic_equals_numeric_on_interior(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            k = int(rng.integers(2, 4))
            pmvs = [PMV(rng.uniform(0.05, 1.0, int(rng.integers(2, 5))))
                    for _ in range(k)]
            rep = covariance_rank(pmvs)
            assert rep.analytic_rank == rep.numeric_rank


class TestKernelIdentity:
    def test_stacked_nullspace_matches_gcd_nullspace(self):
        # nullspace of all stacked T(x_(i))' equals the nullspace of T(g)'
        rng = np.random.default_rng(41)
        for _ in range(20):
            k = int(rng.integers(2, 4))
            g = rng.uniform(0.05, 1.0, int(rng.integers(2, 4)))
            pmvs = [
                PMV(np.convolve(rng.uniform(0.05, 1.0, int(rng.integers(2, 4))), g))
                for _ in range(k)
            ]
            s = sum(p.r for p in pmvs)
            loo = leave_one_out(pmvs)
            stacked = np.vstack(
                [_conv_matrix(p.probs, pm.r + 1).T for p, pm in zip(loo, pmvs)]
            )
            gcd = gcd_many([p.probs for p in loo])
            t_g = _conv_matrix(gcd.gcd_coeffs, s - gcd.degree + 1)
            basis_a = nullspace(stacked)
            basis_b = nullspace(t_g.T)
            assert basis_a.shape[1] == basis_b.shape[1] == gcd.degree
            if gcd.degree:
                proj_a = basis_a @ basis_a.T
                proj_b = basis_b @ basis_b.T
                assert np.max(np.abs(proj_a - proj_b)) < 1e-8


class TestTrimShape:
    """A coefficient vector that is not 1-D is a shape error."""

    @pytest.mark.parametrize("bad", [[[1.0, 2.0]], 3.0])
    def test_not_one_dimensional(self, bad):
        with pytest.raises(DimensionMismatch, match="1-D"):
            gcd_degree(bad, [1.0, 2.0])
        with pytest.raises(DimensionMismatch, match="1-D"):
            gcd_many([[1.0, 2.0], bad])

    def test_empty_vector_is_the_zero_polynomial(self):
        with pytest.raises(ZeroInput, match="zero polynomial"):
            gcd_degree([], [1.0, 2.0])
