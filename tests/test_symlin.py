"""Symmetric eigensolver, low-rank approximation, pseudo-inverse, chi2 tail."""

import math

import numpy as np
import pytest
from scipy import integrate

from convstat import (
    DimensionMismatch,
    DomainError,
    NotSymmetric,
    RankOutOfRange,
    chi2_sf,
    eigh,
    pinv,
    quad_form,
    rank_r_approx,
)
from convstat.symlin import _above_cut


def random_psd(rng, d):
    m = rng.normal(size=(d, d))
    return m @ m.T / d


class TestEigh:
    def test_diagonal(self):
        dec = eigh(np.diag([3.0, 1.0]))
        assert np.allclose(dec.values, [3.0, 1.0])
        assert np.allclose(dec.vectors, np.eye(2))

    def test_two_by_two_closed_form(self):
        a = np.array([[0.25, -0.25], [-0.25, 0.25]])
        dec = eigh(a)
        assert np.allclose(dec.values, [0.5, 0.0], atol=1e-14)
        root = 1.0 / math.sqrt(2.0)
        assert np.allclose(np.abs(dec.vectors), root, atol=1e-12)
        # sign convention: first non-negligible component positive
        assert dec.vectors[0, 0] > 0 and dec.vectors[0, 1] > 0

    def test_zero_matrix(self):
        dec = eigh(np.zeros((3, 3)))
        assert np.allclose(dec.values, 0.0)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            d = int(rng.integers(1, 12))
            a = rng.normal(size=(d, d))
            a = a + a.T
            dec = eigh(a)
            assert np.all(np.diff(dec.values) <= 1e-12)
            scale = max(1.0, np.max(np.abs(a)))
            rec = (dec.vectors * dec.values) @ dec.vectors.T
            assert np.max(np.abs(a - rec)) <= 1e-10 * scale
            gram = dec.vectors.T @ dec.vectors
            assert np.max(np.abs(gram - np.eye(d))) <= 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            eigh(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("func", [eigh, pinv])
    def test_rejects_non_finite(self, func, bad):
        # NaN fails every comparison, so it must be caught before the
        # symmetry check and before LAPACK, which returns NaN silently
        with pytest.raises(DomainError):
            func(np.array([[1.0, bad], [bad, 1.0]]))
        with pytest.raises(DomainError):
            func(np.array([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("func", [eigh, pinv])
    def test_rejects_empty_matrix(self, func):
        with pytest.raises(DimensionMismatch):
            func(np.zeros((0, 0)))

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(9)
        stack = rng.normal(size=(6, 4, 4))
        stack = stack + np.swapaxes(stack, -1, -2)
        stack[2] = 0.0
        stack[3] = np.outer([1.0, -2.0, 0.0, 1.0], [1.0, -2.0, 0.0, 1.0])
        dec = eigh(stack)
        assert dec.values.shape == (6, 4) and dec.vectors.shape == (6, 4, 4)
        inverses = pinv(stack)
        truncated = rank_r_approx(stack, 2)
        for i, a in enumerate(stack):
            single = eigh(a)
            assert np.array_equal(dec.values[i], single.values)
            assert np.array_equal(dec.vectors[i], single.vectors)
            assert np.allclose(inverses[i], pinv(a), rtol=1e-12, atol=1e-14)
            assert np.allclose(truncated[i], rank_r_approx(a, 2),
                               rtol=1e-12, atol=1e-14)

    def test_stack_with_one_non_finite_matrix(self):
        bad = np.array([[1.0, math.nan], [math.nan, 1.0]])
        with pytest.raises(DomainError):
            eigh(np.stack([np.eye(2), bad, np.eye(2)]))


class TestRankApprox:
    def test_truncates_smaller_eigenvalue(self):
        out = rank_r_approx(np.diag([3.0, 1.0]), 1)
        assert np.allclose(out, np.diag([3.0, 0.0]), atol=1e-14)

    def test_full_rank_noop(self):
        out = rank_r_approx(np.diag([3.0, 1.0]), 2)
        assert np.allclose(out, np.diag([3.0, 1.0]), atol=1e-14)

    def test_rank_one_matrix_unchanged(self):
        a = np.array([[0.25, -0.25], [-0.25, 0.25]])
        assert np.allclose(rank_r_approx(a, 1), a, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(RankOutOfRange):
            rank_r_approx(np.eye(2), 3)
        with pytest.raises(RankOutOfRange):
            rank_r_approx(np.eye(2), 0)

    def test_tied_eigenvalues_break_deterministically(self):
        # equal eigenvalues make the truncation non-unique; the stable
        # ordering pins one reproducible representative
        out = rank_r_approx(np.eye(2), 1)
        assert np.array_equal(out, rank_r_approx(np.eye(2), 1))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    def test_frobenius_optimality_on_grid(self, d):
        # Eckart-Young: no rank-1 competitor sigma * u u' beats the truncation
        rng = np.random.default_rng(21)
        a = random_psd(rng, d)
        best = rank_r_approx(a, 1)
        best_err = np.linalg.norm(a - best)
        grid = np.linspace(-1.0, 1.0, 9)
        for combo in np.ndindex(*([len(grid)] * d)):
            u = np.array([grid[i] for i in combo])
            norm = np.linalg.norm(u)
            if norm < 1e-9:
                continue
            u = u / norm
            sigma = float(u @ a @ u)  # optimal scale for this direction
            err = np.linalg.norm(a - sigma * np.outer(u, u))
            assert err >= best_err - 1e-9


class TestPinv:
    def test_diagonal(self):
        assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_two_by_two_closed_form(self):
        a = np.array([[0.25, -0.25], [-0.25, 0.25]])
        assert np.allclose(pinv(a), [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)

    def test_identity(self):
        assert np.allclose(pinv(np.eye(4)), np.eye(4), atol=1e-14)

    def test_zero_matrix(self):
        assert np.allclose(pinv(np.zeros((3, 3))), 0.0)

    def test_moore_penrose_conditions(self):
        # controlled spectrum keeps the conditions well-posed in floats
        rng = np.random.default_rng(13)
        for _ in range(100):
            d = int(rng.integers(1, 10))
            basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
            vals = 10.0 ** rng.uniform(-2.0, 0.0, d)
            vals[int(rng.integers(1, d + 1)):] = 0.0
            a = (basis * vals) @ basis.T
            a = 0.5 * (a + a.T)
            ap = pinv(a)
            scale = max(1.0, np.max(np.abs(a)))
            assert np.max(np.abs(a @ ap @ a - a)) < 1e-10 * scale
            assert np.max(np.abs(ap @ a @ ap - ap)) < 1e-10 * max(1.0, np.max(np.abs(ap)))
            assert np.max(np.abs((a @ ap) - (a @ ap).T)) < 1e-10
            assert np.max(np.abs((ap @ a) - (ap @ a).T)) < 1e-10


class TestQuadForm:
    def test_identity(self):
        assert quad_form([1.0, 1.0], np.eye(2)) == pytest.approx(2.0)

    def test_expansion(self):
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert quad_form([1.0, -1.0], a) == pytest.approx(4.0)

    def test_zero_vector(self):
        assert quad_form([0.0, 0.0], np.eye(2)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quad_form([1.0, 2.0, 3.0], np.eye(2))


def chi2_sf_quadrature(t, r):
    """Oracle: numerical integration of the chi-squared density."""
    def density(x):
        return x ** (r / 2.0 - 1.0) * math.exp(-x / 2.0) / (
            2.0 ** (r / 2.0) * math.gamma(r / 2.0)
        )

    value, _ = integrate.quad(density, t, np.inf, limit=200)
    return value


class TestChi2Sf:
    def test_at_zero(self):
        for r in (1, 2, 5, 10):
            assert chi2_sf(0.0, r) == 1.0

    def test_alpha_quantiles(self):
        assert abs(chi2_sf(3.841459, 1) - 0.05) < 1e-4
        assert abs(chi2_sf(5.991465, 2) - 0.05) < 1e-4

    def test_against_quadrature_oracle(self):
        for r in (1, 2, 3, 4, 7, 11):
            for t in (0.1, 0.5, 1.0, 2.5, 6.0, 15.0, 40.0):
                assert abs(chi2_sf(t, r) - chi2_sf_quadrature(t, r)) < 1e-12

    def test_two_dof_closed_form(self):
        for t in np.linspace(0.0, 50.0, 101):
            assert abs(chi2_sf(t, 2) - math.exp(-t / 2.0)) < 1e-12

    def test_extremes(self):
        assert chi2_sf(math.inf, 3) == 0.0
        assert chi2_sf(1e6, 4) == 0.0
        assert 0.0 <= chi2_sf(1e-12, 1) <= 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chi2_sf(-0.5, 2)
        with pytest.raises(DomainError):
            chi2_sf(1.0, 0)
        with pytest.raises(DomainError):
            chi2_sf(1.0, 1.5)


class TestAboveCut:
    """The one relative cut: ``|x| > tol * max|x|`` along the last axis."""

    def test_zero_spectrum_keeps_nothing(self):
        assert not _above_cut(np.zeros(4), 1e-10).any()
        assert not _above_cut(np.zeros(4), 0.0).any()

    def test_value_at_the_cut_is_dropped(self):
        values = np.array([1.0, 1e-10, np.nextafter(1e-10, 1.0)])
        assert _above_cut(values, 1e-10).tolist() == [True, False, True]

    def test_negative_values_compare_by_magnitude(self):
        values = np.array([2.0, -1.0, -1e-12, 1e-12])
        assert _above_cut(values, 1e-10).tolist() == [True, True, False, False]
        # a negative largest magnitude sets the scale
        assert _above_cut(np.array([0.5, -4.0]), 0.2).tolist() == [False, True]

    def test_stack_rows_use_their_own_scale(self):
        values = np.array([[1.0, 1e-3, 1e-12],
                           [1e-6, 1e-9, 1e-18],
                           [0.0, 0.0, 0.0]])
        assert _above_cut(values, 1e-10).tolist() == [
            [True, True, False], [True, True, False], [False, False, False],
        ]
