"""Covariance assembly and its plug-in estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convstat import (
    DegenerateVariable,
    EmptySizes,
    NeedTwoVariables,
    NotPaired,
    PMV,
    convolve,
    eigh,
    multinomial_cov,
    psi,
    psi_hat,
    upsilon_hat,
    weights_from_sizes,
    xi,
    xi_hat,
)
from convstat.covest import _estimate, _factor, _weighted_cov
from convstat.pmv import conv_matrix
from convstat.polyrank import leave_one_out

FAIR = PMV([0.5, 0.5])
# limiting covariance for two fair coins with unit weights, confirmed by
# the Monte Carlo oracle below (test_matches_monte_carlo_covariance)
PSI_FAIR = np.array([
    [0.125, 0.0, -0.125],
    [0.0, 0.0, 0.0],
    [-0.125, 0.0, 0.125],
])


class TestWeights:
    def test_equal_sizes(self):
        assert np.allclose(weights_from_sizes([10, 10, 10]), [1.0, 1.0, 1.0])

    def test_ratio(self):
        assert np.allclose(weights_from_sizes([10, 20]), [1.0, 0.5])

    def test_min_division(self):
        assert np.allclose(weights_from_sizes([15, 10, 40]), [2 / 3, 1.0, 0.25])

    def test_empty_rejected(self):
        with pytest.raises(EmptySizes):
            weights_from_sizes([])
        with pytest.raises(EmptySizes):
            weights_from_sizes([10, 0])


class TestPsi:
    def test_two_fair_coins(self):
        out = psi([FAIR, FAIR], [1.0, 1.0])
        assert np.allclose(out, PSI_FAIR, atol=1e-14)

    def test_fair_coin_rank_one(self):
        dec = eigh(psi([FAIR, FAIR], [1.0, 1.0]))
        assert np.sum(dec.values > 1e-10 * dec.values[0]) == 1

    def test_coprime_rank_two(self):
        out = psi([PMV([0.7, 0.3]), PMV([0.2, 0.8])], [1.0, 1.0])
        dec = eigh(out)
        assert np.sum(dec.values > 1e-10 * dec.values[0]) == 2

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateVariable):
            psi([FAIR, PMV([1.0, 0.0])])

    def test_requires_two(self):
        with pytest.raises(NeedTwoVariables):
            psi([FAIR])

    def test_row_sums_and_psd(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            k = int(rng.integers(2, 4))
            pmvs = [PMV(rng.uniform(0.02, 1.0, int(rng.integers(2, 5))))
                    for _ in range(k)]
            weights = rng.uniform(0.2, 1.0, k)
            out = psi(pmvs, weights)
            assert np.max(np.abs(out.sum(axis=1))) < 1e-12
            dec = eigh(out)
            assert dec.values[-1] >= -1e-10

    def test_matches_monte_carlo_covariance(self):
        # oracle: empirical covariance of sqrt(m)(conv of EPMVs - z)
        p, q, m, L = 0.3, 0.8, 10_000, 10_000
        rng = np.random.default_rng(53)
        p1 = rng.binomial(m, p, size=L) / m
        p2 = rng.binomial(m, q, size=L) / m
        conv = np.stack(
            [(1 - p1) * (1 - p2), p1 * (1 - p2) + p2 * (1 - p1), p1 * p2],
            axis=1,
        )
        z = convolve(PMV([1 - p, p]), PMV([1 - q, q])).probs
        v = np.sqrt(m) * (conv - z)
        target = psi([PMV([1 - p, p]), PMV([1 - q, q])], [1.0, 1.0])
        centered = v - v.mean(axis=0)
        for i in range(3):
            for j in range(i, 3):
                products = centered[:, i] * centered[:, j]
                se = products.std(ddof=1) / np.sqrt(L)
                assert abs(products.mean() - target[i, j]) < 3.0 * se + 1e-4

    def test_estimator_consistency(self):
        # at m = 1e5 the estimate is within 0.01 of the target in >= 99/100 runs
        p, q, m = 0.3, 0.8, 100_000
        target = psi([PMV([1 - p, p]), PMV([1 - q, q])], [1.0, 1.0])
        rng = np.random.default_rng(61)
        good = 0
        for _ in range(100):
            x1 = (rng.random(m) < p).astype(np.int64)
            x2 = (rng.random(m) < q).astype(np.int64)
            estimate = psi_hat([x1, x2], support_lens=[1, 1])
            good += np.max(np.abs(estimate - target)) < 0.01
        assert good >= 99


class TestPsiHat:
    def test_all_point_masses_give_zero(self):
        out = psi_hat([[0, 0], [1, 1]], support_lens=[1, 1])
        assert np.all(out == 0.0)

    def test_composition_with_psi(self):
        out = psi_hat([[0, 1], [0, 1]])
        assert np.allclose(out, PSI_FAIR, atol=1e-14)

    def test_unequal_sizes_weighting(self):
        out = psi_hat([[0, 1, 0, 1], [0, 1]])
        epmvs = [PMV([0.5, 0.5]), PMV([0.5, 0.5])]
        expected = 0.5 * _term(epmvs[1], epmvs[0]) + 1.0 * _term(epmvs[0], epmvs[1])
        assert np.allclose(out, expected, atol=1e-14)

    def test_requires_two(self):
        with pytest.raises(NeedTwoVariables):
            psi_hat([[0, 1]])


def _term(other, var):
    from convstat import conv_matrix

    t = conv_matrix(other, var.support_len)
    return t @ multinomial_cov(var) @ t.T


class TestXi:
    def test_single_variable_collapse(self):
        y = PMV([0.14, 0.62, 0.24])
        assert np.allclose(xi([y], [1.0]), multinomial_cov(y), atol=1e-14)

    def test_weight_scales_linearly(self):
        y = PMV([0.14, 0.62, 0.24])
        assert np.allclose(xi([y], [0.5]), 0.5 * multinomial_cov(y), atol=1e-14)

    def test_two_variables_mirror_psi(self):
        pmvs = [PMV([0.7, 0.3]), PMV([0.2, 0.8])]
        assert np.allclose(xi(pmvs, [1.0, 1.0]), psi(pmvs, [1.0, 1.0]), atol=1e-15)

    def test_xi_hat_single(self):
        out = xi_hat([[0, 1, 2, 1]])
        e = PMV([0.25, 0.5, 0.25])
        assert np.allclose(out, multinomial_cov(e), atol=1e-14)


class TestUpsilonHat:
    def test_independent_columns_near_formula(self):
        rng = np.random.default_rng(43)
        m = 200_000
        x1 = (rng.random(m) < 0.3).astype(np.int64)
        x2 = (rng.random(m) < 0.8).astype(np.int64)
        estimate = upsilon_hat(np.stack([x1, x2], axis=1))
        z = convolve(PMV([0.7, 0.3]), PMV([0.2, 0.8]))
        target = multinomial_cov(z) - psi(
            [PMV([0.7, 0.3]), PMV([0.2, 0.8])], [1.0, 1.0]
        )
        assert np.max(np.abs(estimate - target)) < 0.01
        dec = eigh(estimate)
        assert dec.values[-1] > -0.01

    def test_fair_coins_formula_rank(self):
        # the true difference matrix keeps the all-ones AND the linear
        # vector in its kernel, so its rank is s - 1
        z = convolve(FAIR, FAIR)
        target = multinomial_cov(z) - psi([FAIR, FAIR], [1.0, 1.0])
        dec = eigh(target)
        assert np.sum(dec.values > 1e-10 * dec.values[0]) == 1
        assert np.max(np.abs(target @ np.arange(3.0))) < 1e-14

    def test_difference_psd_rank_s_minus_one(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            k = int(rng.integers(2, 4))
            pmvs = [PMV(rng.uniform(0.05, 1.0, int(rng.integers(2, 4))))
                    for _ in range(k)]
            s = sum(p.r for p in pmvs)
            z = pmvs[0]
            for p in pmvs[1:]:
                z = convolve(z, p)
            target = multinomial_cov(z) - psi(pmvs, np.ones(k))
            dec = eigh(target)
            assert dec.values[-1] >= -1e-10
            assert np.sum(dec.values > 1e-10 * dec.values[0]) == s - 1
            linear = np.arange(s + 1, dtype=float)
            assert np.max(np.abs(target @ linear)) < 1e-12

    def test_repeated_row_gives_zero(self):
        out = upsilon_hat(np.array([[1, 1], [1, 1], [1, 1]]))
        assert np.all(out == 0.0)

    def test_ragged_rejected(self):
        with pytest.raises(NotPaired):
            upsilon_hat([[1, 2], [1]])
        with pytest.raises(NotPaired):
            upsilon_hat([[1, 2]])


@st.composite
def weighted_pmvs(draw):
    """k = 1..4 probability vectors of unequal degree 0..4, some cells zero,
    with weights in (0, 1]."""
    probs = []
    for _ in range(draw(st.integers(1, 4))):
        cells = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
        p = np.array(cells) ** 2
        if p.sum() == 0.0:
            p[0] = 1.0
        probs.append(p / p.sum())
    weights = [draw(st.floats(0.01, 1.0)) for _ in probs]
    return probs, weights


def per_variable(probs, weights):
    """``(sum_i c_i T S(p_i) T', sum_i c_i T diag(p_i) T')`` term by term,
    ``T = T(x_(i))``; the second is the scale before ``S`` cancels."""
    loo = [np.ones(1)] if len(probs) == 1 else [
        p.probs for p in leave_one_out([PMV(p) for p in probs])]
    cov = scale = 0.0
    for c, p, x in zip(weights, probs, loo):
        t = conv_matrix(PMV(x), p.size)
        cov = cov + c * (t @ (np.diag(p) - np.outer(p, p)) @ t.T)
        scale = scale + c * (t @ np.diag(p) @ t.T)
    return cov, scale


class TestFactor:
    """``F F'`` against the per-variable assembly it replaces."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(weighted_pmvs())
    def test_matches_per_variable_form(self, case):
        probs, weights = case
        want, scale = per_variable(probs, weights)
        got = _weighted_cov(probs, weights)
        # diag(p) - p p' itself cancels, so roundoff is relative to the
        # uncancelled terms c_i T diag(p_i) T'
        tol = want.shape[0] * np.finfo(float).eps * np.abs(scale).max()
        assert np.abs(got - want).max() <= tol

    def test_stack_matches_per_variable_form(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            sizes = rng.integers(1, 6, size=int(rng.integers(1, 5)))
            stack = []
            for n in sizes:
                p = rng.random((3, n)) * (rng.random((3, n)) > 0.2)
                p[p.sum(axis=1) == 0.0, 0] = 1.0
                stack.append(p / p.sum(axis=1, keepdims=True))
            weights = rng.uniform(0.01, 1.0, sizes.size)
            got = _weighted_cov(stack, weights)
            for row in range(3):
                want, scale = per_variable([p[row] for p in stack], weights)
                tol = want.shape[0] * np.finfo(float).eps * scale.max()
                assert np.abs(got[row] - want).max() <= tol

    @pytest.mark.parametrize("cells", [[1], [2, 0, 1], [0, 3], [4]])
    def test_point_masses_give_exact_zero(self, cells):
        probs = [np.eye(c + 1)[c] for c in cells]
        assert not _factor(probs).any()
        assert not _weighted_cov(probs).any()
        stack = [np.stack([p, p]) for p in probs]
        assert not _weighted_cov(stack, [0.5] * len(probs)).any()


class TestEstimate:
    """``_estimate``: one pass per side, stacks and zero padding."""

    @staticmethod
    def stack(rng, rows, cells):
        p = rng.random((rows, cells))
        return p / p.sum(axis=1, keepdims=True)

    @staticmethod
    def row(a, i):
        # a one-variable side's leave-one-out entry is the unstacked (1,)
        return a[i] if a.ndim > 1 else a

    def assert_rows_equal(self, sides, weights, size):
        convs, cov, loos = _estimate(sides, weights, size)
        for i in range(cov.shape[0]):
            one = _estimate([[p[i] for p in side] for side in sides],
                            weights, size)
            assert all(np.array_equal(c[i], d) for c, d in zip(convs, one[0]))
            assert np.array_equal(cov[i], one[1])
            assert all(np.array_equal(self.row(a, i), b)
                       for loo, want in zip(loos, one[2])
                       for a, b in zip(loo, want))

    # Bit for bit where every convolution cell sums at most two products
    # (one operand of two cells, as in the simulation): with three or more
    # np.convolve on vectors and the stacked loop add them in other orders.
    @pytest.mark.parametrize("x_cells,y_cells", [
        ((2, 2), None), ((2, 3), None), ((2, 2), 3), ((2, 2), 5),
    ])
    def test_stack_rows_equal_unstacked_calls(self, x_cells, y_cells):
        rng = np.random.default_rng(sum(x_cells) + (y_cells or 0))
        sides = [[self.stack(rng, 16, c) for c in x_cells]]
        if y_cells:
            sides.append([self.stack(rng, 16, y_cells)])
        weights = rng.uniform(0.1, 1.0, sum(map(len, sides)))
        size = max(sum(p.shape[-1] - 1 for p in side) for side in sides) + 1
        self.assert_rows_equal(sides, weights, size)

    def test_padded_call_is_the_padded_sides(self):
        # s_x = 2 < s_y = 4: the x side's convolution and covariance are
        # zero-padded to five cells before the sides' covariances add
        x = [np.array([0.3, 0.7]), np.array([0.6, 0.4])]
        y = [np.array([0.1, 0.2, 0.3, 0.15, 0.25])]
        weights = [0.5, 1.0, 0.8]
        convs, cov, loos = _estimate([x, y], weights, 5)
        (conv_x,), cov_x, loo_x = _estimate([x], weights[:2], 3)
        (conv_y,), cov_y, loo_y = _estimate([y], weights[2:], 5)
        assert np.array_equal(convs[0], np.pad(conv_x, (0, 2)))
        assert np.array_equal(convs[1], conv_y)
        assert np.array_equal(cov, np.pad(cov_x, (0, 2)) + cov_y)
        assert cov.shape == (5, 5) and convs[0].shape == (5,)
        for got, want in zip(loos, loo_x + loo_y):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
