"""Canonicalization, the convolution tests, and the Pearson baselines."""

import math

import numpy as np
import pytest

from convstat import (
    DimensionMismatch,
    DomainError,
    EigenDecomp,
    InputError,
    LatticeViolation,
    NeedTwoVariables,
    NotPaired,
    NumericalError,
    PMV,
    RankOutOfRange,
    SampleSet,
    SupportMismatch,
    SupportViolation,
    TestReport,
    ZeroExpected,
    canonicalize,
    convolve,
    convolve_all,
    covariance_rank,
    ed_test,
    empirical_pmv,
    gof_test,
    oracle_statistics,
    paired_sums,
    pearson_ed,
    pearson_gof,
    psi,
    subind_test,
)
from convstat.hyptest import _psd_wald


def ks_distance(sample, cdf):
    x = np.sort(np.asarray(sample))
    n = x.size
    f = cdf(x)
    grid = np.arange(1, n + 1) / n
    return max(np.max(grid - f), np.max(f - (grid - 1.0 / n)))


class TestCanonicalize:
    def test_shift_by_minimum(self):
        out = canonicalize(SampleSet(variables=([3, 5, 3],)))
        assert out.variables[0].tolist() == [0, 2, 0]
        assert out.total_offset == 3
        assert out.support_lens == (2,)

    def test_negative_coefficient(self):
        out = canonicalize(SampleSet(variables=([1, 2],), coeffs=(-1,)))
        assert out.variables[0].tolist() == [1, 0]
        assert out.total_offset == -2

    def test_lattice_rescaling(self):
        out = canonicalize(
            SampleSet(variables=([0.5, 1.5],), offset=1.0, zeta=0.5)
        )
        assert out.variables[0].tolist() == [0, 2]
        assert out.total_offset == 3

    def test_off_lattice_rejected(self):
        with pytest.raises(LatticeViolation):
            canonicalize(SampleSet(variables=([0.5, 0.75],), zeta=0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            canonicalize(SampleSet(variables=([0, 1, bad], [0, 1, 2])))
        with pytest.raises(DomainError):
            canonicalize(SampleSet(variables=([0, 1],), offset=bad))

    def test_zero_coefficient_rejected(self):
        with pytest.raises(InputError):
            SampleSet(variables=([1, 2],), coeffs=(0,))


class TestPairedSums:
    def test_truncates_to_shortest(self):
        sums, discarded = paired_sums([[1, 2, 3, 4], [10, 20]])
        assert sums.tolist() == [11, 22]
        assert discarded == 2

    def test_no_discard_with_equal_sizes(self):
        sums, discarded = paired_sums([[1, 0], [0, 1], [1, 1]])
        assert sums.tolist() == [2, 2]
        assert discarded == 0


class TestPearsonGof:
    def test_hand_computed_statistic(self):
        sums = [0] * 1 + [1] * 6 + [2] * 3
        z = PMV([0.14, 0.62, 0.24])
        # oracle: the three cell terms by hand
        expected = 10 * z.probs
        counts = np.array([1, 6, 3])
        oracle = float(np.sum((counts - expected) ** 2 / expected))
        report = pearson_gof(sums, z)
        assert report.statistic == pytest.approx(oracle, abs=1e-12)
        assert report.statistic == pytest.approx(0.27074, abs=5e-6)
        assert report.dof == 2

    def test_exact_fit_gives_zero(self):
        sums = [0] * 14 + [1] * 62 + [2] * 24
        report = pearson_gof(sums, PMV([0.14, 0.62, 0.24]))
        assert report.statistic == pytest.approx(0.0, abs=1e-12)
        assert report.p_value == 1.0

    def test_rule_of_thumb_expected_counts(self):
        # at m=10 with (p,q)=(0.1,0.9) only the middle expected count is >= 1
        z = convolve(PMV([0.9, 0.1]), PMV([0.1, 0.9]))
        expected = 10 * z.probs
        assert np.allclose(expected, [0.9, 8.2, 0.9], atol=1e-12)
        assert np.sum(expected >= 1.0) == 1

    def test_zero_expected_cell_raises(self):
        with pytest.raises(ZeroExpected):
            pearson_gof([0, 2], PMV([0.5, 0.0, 0.5]))

    def test_drop_mode_keeps_dof(self):
        report = pearson_gof([0, 0, 2], PMV([0.5, 0.0, 0.5]),
                             on_zero_expected="drop")
        assert report.dof == 2
        assert math.isfinite(report.statistic)

    def test_observation_outside_support_rejects(self):
        report = pearson_gof([0, 1, 5], PMV([0.14, 0.62, 0.24]))
        assert report.p_value == 0.0
        assert report.statistic == math.inf


class TestPearsonEd:
    def test_identical_counts_give_zero(self):
        report = pearson_ed([0, 1, 1, 2], [0, 1, 1, 2])
        assert report.statistic == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_two_sample(self):
        # oracle: classical per-cell two-sample formula
        x = [0] * 5 + [1] * 5
        y = [1] * 10
        cx, cy = np.array([5, 5]), np.array([0, 10])
        pooled = cx + cy
        e_x = 10 * pooled / 20.0
        e_y = 10 * pooled / 20.0
        oracle = float(np.sum((cx - e_x) ** 2 / e_x) + np.sum((cy - e_y) ** 2 / e_y))
        report = pearson_ed(x, y)
        assert report.statistic == pytest.approx(oracle, abs=1e-12)
        assert report.statistic == pytest.approx(6.6667, abs=5e-5)

    def test_disjoint_support_merges_cells(self):
        report = pearson_ed([0, 0, 1], [5, 5])
        assert any("merged" in w for w in report.diagnostics["warnings"])
        assert report.dof == 2  # cells {0, 1, 5} retained out of {0..5}


class TestGofTest:
    def test_exact_match_gives_zero(self):
        x = [[0, 1, 0, 1], [0, 0, 0, 1]]
        z = convolve(empirical_pmv(x[0], 1).pmv, empirical_pmv(x[1], 1).pmv)
        report = gof_test(x, z, rank_policy="fixed:2")
        assert report.statistic == pytest.approx(0.0, abs=1e-12)
        assert report.p_value == 1.0

    def test_fallback_on_point_mass_data(self):
        z = PMV([0.14, 0.62, 0.24])
        report = gof_test([[0, 0], [1, 1]], z, rank_policy="fixed:2",
                          support_lens=[1, 1])
        assert report.fallback_used
        # oracle: Pearson on counts (0, 2, 0) at m = 2
        counts = np.array([0, 2, 0])
        expected = 2 * z.probs
        oracle = float(np.sum((counts - expected) ** 2 / expected))
        assert report.statistic == pytest.approx(oracle, abs=1e-12)
        assert report.dof == 2

    def test_fallback_triggers_iff_all_point_masses(self):
        z = PMV([0.14, 0.62, 0.24])
        mixed = gof_test([[0, 0], [0, 1]], z, support_lens=[1, 1])
        assert not mixed.fallback_used
        plain = gof_test([[0, 1], [0, 1]], z, support_lens=[1, 1])
        assert not plain.fallback_used
        both = gof_test([[1, 1], [0, 0]], z, support_lens=[1, 1])
        assert both.fallback_used

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatch):
            gof_test([[0, 1], [0, 1]], PMV([0.5, 0.5]))

    def test_fixed_rank_beyond_numeric_rank(self):
        with pytest.raises(RankOutOfRange):
            gof_test([[0, 1, 0, 1], [0, 0, 0, 1]], PMV([0.25, 0.5, 0.25]),
                     rank_policy="fixed:3")

    def test_needs_two_variables(self):
        with pytest.raises(NeedTwoVariables):
            gof_test([[0, 1]], PMV([0.5, 0.5]))

    @pytest.mark.parametrize("lens", [None, [1, 1]])
    def test_non_finite_observation_rejected(self, lens):
        x = [np.array([0.0, 1.0, math.nan]), np.array([0.0, 1.0])]
        with pytest.raises(DomainError):
            gof_test(x, PMV([0.25, 0.5, 0.25]), support_lens=lens)

    def test_fixed_rank_bounded_by_s_on_fallback(self):
        with pytest.raises(RankOutOfRange):
            gof_test([[0, 0], [1, 1]], PMV([0.25, 0.5, 0.25]),
                     rank_policy="fixed:9", support_lens=[1, 1])

    def test_fixed_rank_above_estimate_rank_zeroes_direction(self):
        # x2 is constant, so the estimate has rank 1 < 2: the missing
        # direction contributes 0 and the warning names the rank
        x = [[0, 1, 0, 1], [1, 1, 1]]
        z = PMV([0.2, 0.5, 0.3])
        two = gof_test(x, z, rank_policy="fixed:2")
        one = gof_test(x, z, rank_policy="fixed:1")
        assert two.dof == 2 and not two.fallback_used
        assert two.statistic == pytest.approx(one.statistic, rel=1e-12)
        assert any("estimate's rank 1" in w
                   for w in two.diagnostics["warnings"])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x1 = rng.integers(0, 2, 60)
        x2 = rng.integers(0, 3, 45)
        z = PMV([0.2, 0.3, 0.3, 0.2])
        a = gof_test([x1, x2], z, rank_policy="fixed:2")
        b = gof_test([x2, x1], z, rank_policy="fixed:2")
        assert a.statistic == pytest.approx(b.statistic, rel=1e-9)

    def test_zero_cell_coherence(self):
        with pytest.raises(ZeroExpected):
            gof_test([[0, 1], [0, 1]], PMV([0.5, 0.0, 0.5]))

    def test_pvalues_uniform_under_null(self):
        # analytic rank policy on the coprime benchmark model at m = 2000
        rng = np.random.default_rng(71)
        m, L = 2000, 800
        z = convolve(PMV([0.7, 0.3]), PMV([0.2, 0.8]))
        pvals = np.empty(L)
        for i in range(L):
            x1 = (rng.random(m) < 0.3).astype(np.int64)
            x2 = (rng.random(m) < 0.8).astype(np.int64)
            report = gof_test([x1, x2], z, rank_policy="analytic",
                              support_lens=[1, 1])
            assert report.dof == 2
            pvals[i] = report.p_value
        assert ks_distance(pvals, lambda t: t) < 0.05


class TestEdTest:
    def test_identical_sides_give_zero(self):
        x = [[0, 1, 1, 0], [0, 1, 0, 0]]
        report = ed_test(x, x)
        assert report.statistic == pytest.approx(0.0, abs=1e-12)
        assert report.p_value == 1.0

    def test_offset_mismatch_rejects_deterministically(self):
        a = canonicalize(SampleSet(variables=([1, 2, 1],), offset=5.0))
        b = canonicalize(SampleSet(variables=([1, 2, 1],), offset=0.0))
        report = ed_test(a, b)
        assert report.p_value == 0.0
        assert report.statistic == math.inf
        assert any("offsets differ" in w for w in report.diagnostics["warnings"])

    def test_side_relabeling_invariance(self):
        rng = np.random.default_rng(9)
        x = [rng.integers(0, 2, 50), rng.integers(0, 2, 40)]
        y = [rng.integers(0, 3, 70)]
        a = ed_test(x, y, rank_policy="fixed:2")
        b = ed_test(y, x, rank_policy="fixed:2")
        assert a.statistic == pytest.approx(b.statistic, rel=1e-12)

    def test_unequal_sizes_run_without_truncation(self):
        rng = np.random.default_rng(15)
        x = [rng.integers(0, 2, 37), rng.integers(0, 2, 21)]
        y = [rng.integers(0, 3, 90)]
        report = ed_test(x, y)
        assert math.isfinite(report.statistic)
        assert report.diagnostics["m"] == 21

    def test_padding_flagged_and_policy_degrades(self):
        x = [[0, 1, 1, 0], [0, 1, 0, 1]]
        y = [[0, 1, 2, 3, 1, 0]]
        report = ed_test(x, y, rank_policy="analytic")
        assert report.diagnostics["padded"]
        assert report.rank_policy == "numeric"

    def test_fixed_rank_bounded_by_s_on_every_path(self):
        with pytest.raises(RankOutOfRange):  # Pearson fallback
            ed_test([[0, 0], [1, 1]], [[1, 1]], rank_policy="fixed:9",
                    x_support_lens=[1, 1], y_support_lens=[2])
        x = canonicalize(SampleSet(variables=([1, 2, 1], [0, 1])))
        y = canonicalize(SampleSet(variables=([0, 1, 2],)))
        with pytest.raises(RankOutOfRange):  # offset mismatch
            ed_test(x, y, rank_policy="fixed:9")

    def test_fallback_to_pearson(self):
        report = ed_test([[0, 0], [1, 1]], [[1, 1, 1]],
                         x_support_lens=[1, 1], y_support_lens=[2])
        assert report.fallback_used

    def test_scaled_coefficients_end_to_end(self):
        # a_i = 2 stretches the support and leaves structural zero cells,
        # pushing the analytic policy onto the lower-bound path
        rng = np.random.default_rng(19)
        doubled = canonicalize(SampleSet(
            variables=(rng.integers(0, 2, 60), rng.integers(0, 3, 45)),
            coeffs=(2, 1),
        ))
        plain = canonicalize(SampleSet(
            variables=(rng.integers(0, 5, 80),),
        ))
        report = ed_test(doubled, plain)
        assert math.isfinite(report.statistic)
        assert report.rank_policy == "lower_bound"
        assert any("zero cells" in w for w in report.diagnostics["warnings"])

    def test_single_variable_per_side_calibrates(self):
        # the classical one-variable two-sample comparison is the k = h = 1
        # case; under the null its p-values should be roughly uniform
        rng = np.random.default_rng(17)
        z = np.array([0.2, 0.5, 0.3])
        pvals = np.array([
            ed_test([rng.choice(3, size=80, p=z)],
                    [rng.choice(3, size=150, p=z)]).p_value
            for _ in range(300)
        ])
        assert ks_distance(pvals, lambda t: t) < 0.08


class TestSubindTest:
    def test_comonotone_rejects(self):
        rng = np.random.default_rng(5)
        col = (rng.random(400) < 0.3).astype(np.int64)
        report = subind_test(np.stack([col, col], axis=1))
        assert report.statistic > 20.0
        assert report.p_value < 1e-4

    def test_dof_is_always_total_support(self):
        rng = np.random.default_rng(6)
        for cols in (2, 3):
            table = rng.integers(0, 3, size=(50, cols))
            report = subind_test(table)
            s = sum(int(table[:, j].max()) for j in range(cols))
            assert report.dof == s

    def test_statistic_distribution_under_null(self):
        # oracle simulation: the statistic follows chi2 with s - 1 degrees
        # of freedom (one below the reported dof; see the covariance rank
        # tests for the extra kernel direction)
        rng = np.random.default_rng(77)
        m, L = 2000, 2000
        values = np.empty(L)
        for i in range(L):
            x1 = (rng.random(m) < 0.5).astype(np.int64)
            x2 = (rng.random(m) < 0.5).astype(np.int64)
            report = subind_test(np.stack([x1, x2], axis=1),
                                 support_lens=[1, 1])
            assert report.dof == 2
            values[i] = report.statistic
        def chi2_1_cdf(t):
            return np.array([math.erf(math.sqrt(v / 2.0)) for v in t])
        assert ks_distance(values, chi2_1_cdf) < 0.05

    def test_identical_rows_fall_back(self):
        report = subind_test(np.array([[1, 1]] * 5))
        assert report.fallback_used
        assert report.statistic == 0.0
        assert report.p_value == 1.0

    @pytest.mark.parametrize("constant", [0, 2])
    def test_one_varying_column_falls_back(self, constant):
        # the row sums are the varying column shifted, so upsilon is zero
        varying = np.random.default_rng(11).integers(0, 4, 40)
        table = np.column_stack([np.full(40, constant), varying,
                                 np.ones(40, dtype=int)])
        report = subind_test(table)
        assert report.fallback_used
        assert report.statistic == 0.0

    def test_ragged_rejected(self):
        with pytest.raises(NotPaired):
            subind_test([[1, 2], [1]])

    def test_row_sums_widen_small_integer_types(self):
        # 3 x 100 overflows int8 and uint8; the row sums must not wrap
        table = np.random.default_rng(9).integers(0, 101, size=(300, 3))
        want = subind_test(table).to_dict()
        for dtype in (np.int8, np.uint8, np.int32, np.float64):
            assert subind_test(table.astype(dtype)).to_dict() == want

    def test_column_major_table_is_left_alone(self):
        table = np.random.default_rng(10).integers(0, 3, size=(200, 3))
        fortran = np.asfortranarray(table)
        assert subind_test(fortran).to_dict() == subind_test(table).to_dict()
        assert np.array_equal(fortran, table)

    def test_support_lens_must_cover_every_column(self):
        table = np.array([[0, 1], [1, 0], [1, 1]])
        with pytest.raises(DimensionMismatch):
            subind_test(table, support_lens=[1])
        with pytest.raises(DimensionMismatch):
            subind_test(table, support_lens=[1, 1, 1])


class TestOracleStatistics:
    def test_zero_deviation_gives_zero(self):
        gf, ed = oracle_statistics(
            [[0, 1], [0, 1]], [PMV([0.5, 0.5]), PMV([0.5, 0.5])],
            z=PMV([0.25, 0.5, 0.25]),
        )
        assert gf.statistic == pytest.approx(0.0, abs=1e-12)
        assert ed is None

    def test_matches_gof_when_estimates_equal_truth(self):
        x = [[0, 1], [0, 0, 0, 1]]
        pmvs = [PMV([0.5, 0.5]), PMV([0.75, 0.25])]
        z = convolve_all(pmvs)
        gf, _ = oracle_statistics(x, pmvs, z=z)
        plugin = gof_test(x, z, rank_policy="fixed:2", support_lens=[1, 1])
        assert gf.statistic == pytest.approx(plugin.statistic, rel=1e-10)
        assert gf.dof == 2

    def test_ed_uses_true_total_covariance(self):
        x = [[0, 1, 1, 0, 1], [1, 0, 0, 1, 0]]
        y = [[0, 1, 2, 1, 0, 2]]
        gf, ed = oracle_statistics(
            x, [PMV([0.5, 0.5]), PMV([0.5, 0.5])],
            y=y, y_pmvs=[PMV([0.25, 0.5, 0.25])],
        )
        assert ed is not None
        assert ed.dof == 2
        assert ed.statistic >= 0.0

    @pytest.mark.parametrize("key,dof", [
        ("dof_gf", 50), ("dof_gf", 0), ("dof_gf", -1), ("dof_ed", 3),
    ])
    def test_dof_outside_one_to_s_refused_before_any_work(self, key, dof):
        # s = 2; the samples lie outside the PMVs' support, so reading them
        # first would raise SupportViolation instead
        with pytest.raises(RankOutOfRange, match=r"outside 1\.\.2"):
            oracle_statistics([[0, 5], [0, 1]],
                              [PMV([0.5, 0.5]), PMV([0.5, 0.5])],
                              y=[[0, 1, 2]], y_pmvs=[PMV([0.25, 0.5, 0.25])],
                              **{key: dof})

    def test_dof_at_the_ends_of_the_range_accepted(self):
        pmvs = [PMV([0.5, 0.5]), PMV([0.25, 0.75])]
        for dof in (1, 2):
            gf, _ = oracle_statistics([[0, 1], [1, 1]], pmvs, dof_gf=dof)
            assert gf.dof == dof

    def test_y_pmvs_without_y_refused(self):
        with pytest.raises(InputError, match="y and y_pmvs together"):
            oracle_statistics([[0, 1], [0, 1]],
                              [PMV([0.5, 0.5]), PMV([0.5, 0.5])],
                              y_pmvs=[PMV([0.25, 0.5, 0.25])])


class TestPsdWald:
    """Roundoff-negative Wald forms clamp to 0; larger negatives raise."""

    def test_roundoff_cancellation_clamps_to_zero(self):
        # terms 1 and -(1 + 2 eps) cancel to -2 eps: roundoff of a zero form
        dec = EigenDecomp(values=np.array([1.0, -1.0]), vectors=np.eye(2))
        assert _psd_wald([1.0, np.nextafter(1.0, 2.0)], dec, 2) == 0.0

    def test_negative_beyond_roundoff_raises(self):
        dec = EigenDecomp(values=np.array([1.0, -0.5]), vectors=np.eye(2))
        with pytest.raises(NumericalError):
            _psd_wald([1.0, 1.0], dec, 2)


class TestReportRoundTrip:
    def test_to_from_dict(self):
        rng = np.random.default_rng(2)
        x = [rng.integers(0, 2, 30), rng.integers(0, 2, 20)]
        z = PMV([0.14, 0.62, 0.24])
        report = gof_test(x, z, support_lens=[1, 1])
        clone = TestReport.from_dict(report.to_dict())
        assert clone == report

    def test_json_round_trip(self):
        import json

        report = pearson_gof([0, 1, 1, 2], PMV([0.14, 0.62, 0.24]))
        clone = TestReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert clone == report


class TestSampleSetValidation:
    @pytest.mark.parametrize("zeta", [math.inf, -math.inf, math.nan])
    def test_non_finite_zeta_rejected(self, zeta):
        with pytest.raises(InputError, match="zeta must be finite"):
            SampleSet(variables=([0, 1], [1, 2]), zeta=zeta)

    @pytest.mark.parametrize("bad", [1.5, -0.5, math.inf, math.nan, True])
    def test_non_integral_coefficient_rejected(self, bad):
        with pytest.raises(InputError, match="coefficient a_1"):
            SampleSet(variables=([0, 1], [1, 2]), coeffs=(bad, 1))

    def test_integral_coefficients_accepted(self):
        raw = SampleSet(variables=([0, 1], [1, 2]),
                        coeffs=(2.0, np.int64(-1)))
        assert raw.coeffs == (2, -1)
        assert all(type(c) is int for c in raw.coeffs)


class TestPearsonInputs:
    """Sums must be integers: no truncation of fractions, no numpy leaks."""

    Z = PMV([0.25, 0.5, 0.25])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sums_rejected(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            pearson_gof([bad, 1.0], self.Z)
        with pytest.raises(DomainError, match="non-finite"):
            pearson_ed([bad, 1.0], [0, 1])
        with pytest.raises(DomainError, match="non-finite"):
            pearson_ed([0, 1], [1.0, bad])

    @pytest.mark.parametrize("bad", [0.5, 1.25, -0.5])
    def test_fractional_sums_rejected(self, bad):
        with pytest.raises(SupportViolation, match="integers"):
            pearson_gof([bad, 1.0], self.Z)
        with pytest.raises(SupportViolation, match="integers"):
            pearson_ed([bad, 1.0], [0, 1])
        with pytest.raises(SupportViolation, match="integers"):
            pearson_ed([0, 1], [1.0, bad])

    def test_integral_floats_match_integers(self):
        sums = [0, 1, 1, 2, 2, 2]
        floats = np.asarray(sums, dtype=float)
        assert pearson_gof(floats, self.Z) == pearson_gof(sums, self.Z)
        assert pearson_ed(floats, floats[::-1]) == pearson_ed(sums, sums[::-1])


def _exact_sample(weights, mult):
    """Observations whose empirical PMV is exactly ``weights / sum``."""
    return np.repeat(np.arange(len(weights)), np.asarray(weights) * mult)


class TestRankReportsAgree:
    """The tests' gcd rank policies report ``covariance_rank``'s rank.

    Under ``analytic`` the dof is ``analytic_rank`` (clamped to 1) and
    under ``lower``, or ``analytic`` on PMVs with zero cells, it is
    ``max(1, lower_bound)``, on the same empirical PMVs.
    """

    WEIGHTS = {
        "interior": [[1, 2, 1], [2, 3], [1, 1, 4]],
        # every PGF carries the factor 1 + 2t, so deg gcd >= 2
        "shared_root": [np.convolve([1, 2], [1, 3]), np.convolve([1, 2], [2, 1]),
                        np.convolve([1, 2], [1, 1, 1])],
        "zero_cell": [[2, 0, 1], [1, 3], [1, 1, 2]],
        "equal": [[1, 1], [1, 1]],
    }

    @staticmethod
    def expected(rank, policy):
        if policy == "analytic" and rank.analytic_rank is not None:
            return max(1, rank.analytic_rank)
        return max(1, rank.lower_bound)

    @staticmethod
    def side(weights, mults):
        xs = [_exact_sample(w, m) for w, m in zip(weights, mults)]
        lens = [len(w) - 1 for w in weights]
        pmvs = [empirical_pmv(v, r).pmv for v, r in zip(xs, lens)]
        return xs, lens, pmvs

    @pytest.mark.parametrize("policy", ["analytic", "lower"])
    @pytest.mark.parametrize("kind", sorted(WEIGHTS))
    def test_gof(self, kind, policy):
        weights = self.WEIGHTS[kind]
        xs, lens, pmvs = self.side(weights, range(3, 3 + len(weights)))
        rank = covariance_rank(pmvs)
        report = gof_test(xs, convolve_all(pmvs), rank_policy=policy,
                          support_lens=lens)
        assert report.dof == self.expected(rank, policy)
        assert report.diagnostics["gcd_degree"] == rank.gcd.degree

    @pytest.mark.parametrize("policy", ["analytic", "lower"])
    @pytest.mark.parametrize("y_side", ["reversed", "regrouped"])
    @pytest.mark.parametrize("kind", sorted(WEIGHTS))
    def test_two_sided_ed(self, kind, y_side, policy):
        x_weights = self.WEIGHTS[kind]
        s = sum(len(w) - 1 for w in x_weights)
        if y_side == "reversed":
            y_weights = x_weights[::-1]
        else:  # two variables that share the root of 1 + 2t
            y_weights = [[1, 2], np.convolve([1, 2], [1] * (s - 1))]
        xs, x_lens, x_pmvs = self.side(x_weights, range(2, 2 + len(x_weights)))
        ys, y_lens, y_pmvs = self.side(y_weights, range(5, 5 + len(y_weights)))
        assert sum(y_lens) == s
        rank = covariance_rank(x_pmvs, y_pmvs)
        report = ed_test(xs, ys, rank_policy=policy, x_support_lens=x_lens,
                         y_support_lens=y_lens)
        assert not report.diagnostics["padded"]
        assert report.dof == self.expected(rank, policy)
        assert report.diagnostics["gcd_degree"] == rank.gcd.degree

    @pytest.mark.parametrize("policy", ["analytic", "lower"])
    def test_random_grid(self, policy):
        rng = np.random.default_rng(53)
        for _ in range(40):
            k, r = int(rng.choice([2, 3, 5])), int(rng.choice([1, 3]))
            shared = rng.integers(1, 4, size=2)
            weights = [rng.integers(0 if rng.random() < 0.3 else 1, 5, r + 1)
                       for _ in range(k)]
            if rng.random() < 0.5:
                weights = [np.convolve(shared, w) for w in weights]
            weights = [np.where(w.sum() == 0, 1, w) for w in weights]
            xs, lens, pmvs = self.side(weights, rng.integers(1, 6, size=k))
            ys, _, y_pmvs = self.side(weights[::-1], rng.integers(1, 6, size=k))
            if all(np.count_nonzero(p.probs) == 1 for p in pmvs + y_pmvs):
                continue  # zero covariance: the Pearson fallback
            rank = covariance_rank(pmvs, y_pmvs)
            report = ed_test(xs, ys, rank_policy=policy, x_support_lens=lens,
                             y_support_lens=lens[::-1])
            assert report.dof == self.expected(rank, policy)
            if all(np.count_nonzero(p.probs) == 1 for p in pmvs):
                continue
            rank = covariance_rank(pmvs)
            report = gof_test(xs, convolve_all(pmvs), rank_policy=policy,
                              support_lens=lens)
            assert report.dof == self.expected(rank, policy)


class TestSupportLensLength:
    """An explicit support-length list needs one entry per variable."""

    XS = [[0, 1, 1], [0, 1, 0]]

    @pytest.mark.parametrize("lens", [[1], [1, 1, 1]])
    def test_plain_samples(self, lens):
        with pytest.raises(DimensionMismatch, match="support lengths"):
            ed_test(self.XS, self.XS, x_support_lens=lens)
        with pytest.raises(DimensionMismatch, match="support lengths"):
            ed_test(self.XS, self.XS, y_support_lens=lens)
        with pytest.raises(DimensionMismatch, match="support lengths"):
            gof_test(self.XS, [0.25, 0.5, 0.25], support_lens=lens)

    def test_canonical_samples(self):
        canon = canonicalize(SampleSet(variables=(np.array([0, 1]),
                                                  np.array([1, 2]))))
        with pytest.raises(DimensionMismatch, match="support lengths"):
            gof_test(canon, [0.25, 0.5, 0.25], support_lens=[1])

    def test_matching_length_accepted(self):
        report = ed_test(self.XS, self.XS, x_support_lens=[1, 1],
                         y_support_lens=[1, 1])
        assert report.dof >= 1


class TestPearsonShapes:
    """Sums must be one 1-D array: other shapes raise InputError."""

    Z = PMV([0.25, 0.5, 0.25])

    @pytest.mark.parametrize("bad", [[[0, 1], [1, 2]], 1])
    def test_not_one_dimensional(self, bad):
        with pytest.raises(InputError, match="1-D"):
            pearson_gof(bad, self.Z)
        with pytest.raises(InputError, match="1-D"):
            pearson_ed(bad, [0, 1])
        with pytest.raises(InputError, match="1-D"):
            pearson_ed([0, 1], bad)


class TestRankPolicyLabel:
    """``lower`` and ``lower_bound`` report ``lower_bound`` on every path."""

    Z = PMV([0.25, 0.5, 0.25])

    @pytest.mark.parametrize("policy", ["lower", "lower_bound", " LOWER "])
    def test_pearson_fallback(self, policy):
        report = gof_test([[0, 0], [1, 1]], self.Z, rank_policy=policy,
                          support_lens=[1, 1])
        assert report.fallback_used
        assert report.rank_policy == "lower_bound"

    @pytest.mark.parametrize("policy", ["lower", "lower_bound"])
    def test_offset_mismatch(self, policy):
        x = canonicalize(SampleSet(variables=([0, 1, 1], [0, 1, 0])))
        y = canonicalize(SampleSet(variables=([1, 2, 2], [0, 1, 0])))
        report = ed_test(x, y, rank_policy=policy)
        assert report.p_value == 0.0
        assert report.rank_policy == "lower_bound"

    def test_wald_path(self):
        report = gof_test([[0, 1, 1, 0], [1, 0, 1, 1]], self.Z,
                          rank_policy="lower")
        assert not report.fallback_used
        assert report.rank_policy == "lower_bound"

    @pytest.mark.parametrize("policy, label", [
        ("analytic", "analytic"), ("numeric", "numeric"),
        ("fixed:2", "fixed(2)"), (1, "fixed(1)"),
    ])
    def test_other_labels_on_every_path(self, policy, label):
        fallback = gof_test([[0, 0], [1, 1]], self.Z, rank_policy=policy,
                            support_lens=[1, 1])
        x = canonicalize(SampleSet(variables=([0, 1, 1], [0, 1, 0])))
        y = canonicalize(SampleSet(variables=([1, 2, 2], [0, 1, 0])))
        mismatch = ed_test(x, y, rank_policy=policy)
        assert fallback.rank_policy == mismatch.rank_policy == label


class TestSampleSetFields:
    """``names`` must match the variables; ``zeta`` and ``offset`` are
    real numbers stored as floats."""

    @pytest.mark.parametrize("names", [("a",), ("a", "b", "c"), ()])
    def test_wrong_length_names_rejected(self, names):
        with pytest.raises(DimensionMismatch, match="names"):
            SampleSet(variables=([0, 1], [0, 2]), names=names)

    def test_matching_names_kept(self):
        raw = SampleSet(variables=([0, 1], [0, 2]), names=["a", 2])
        assert raw.names == ("a", "2")
        assert canonicalize(raw).names == ("a", "2")

    @pytest.mark.parametrize("field", ["zeta", "offset"])
    @pytest.mark.parametrize("bad", ["0.5", None, True, [1.0]])
    def test_non_number_rejected(self, field, bad):
        with pytest.raises(InputError, match="must be a number"):
            SampleSet(variables=([0, 1], [0, 2]), **{field: bad})

    def test_numbers_stored_as_floats(self):
        raw = SampleSet(variables=([0, 1], [0, 2]), offset=np.int64(3),
                        zeta=np.float32(0.5))
        assert type(raw.offset) is float and raw.offset == 3.0
        assert type(raw.zeta) is float and raw.zeta == 0.5
        assert canonicalize(raw).total_offset == 6


class TestIntegralArguments:
    """Integral arguments accept any integer type and refuse fractions."""

    X = [[0, 1, 1, 0], [1, 0, 1, 1]]
    PMVS = [PMV([0.5, 0.5]), PMV([0.25, 0.75])]

    @pytest.mark.parametrize("key", ["dof_gf", "dof_ed"])
    @pytest.mark.parametrize("bad", [1.5, True, "1"])
    def test_oracle_dof_must_be_integral(self, key, bad):
        with pytest.raises(InputError, match=key):
            oracle_statistics(self.X, self.PMVS, y=[[0, 1, 2]],
                              y_pmvs=[PMV([0.25, 0.5, 0.25])], **{key: bad})

    @pytest.mark.parametrize("dof", [2.0, np.int64(2)])
    def test_oracle_integral_dof_accepted(self, dof):
        gf, ed = oracle_statistics(self.X, self.PMVS, y=[[0, 1, 2]],
                                   y_pmvs=[PMV([0.25, 0.5, 0.25])],
                                   dof_gf=dof, dof_ed=dof)
        assert gf.dof == ed.dof == 2
        assert type(gf.dof) is int

    @pytest.mark.parametrize("policy", [np.int64(2), np.int32(2), 2])
    def test_numpy_integer_rank_policy(self, policy):
        report = gof_test(self.X, [0.125, 0.5, 0.375], rank_policy=policy)
        assert report.rank_policy == "fixed(2)"
        assert report.dof == 2

    @pytest.mark.parametrize("policy", [True, np.bool_(True)])
    def test_bool_rank_policy_rejected(self, policy):
        with pytest.raises(InputError, match="rank policy"):
            gof_test(self.X, [0.125, 0.5, 0.375], rank_policy=policy)

    @pytest.mark.parametrize("mode", ["bogus", "", None, "DROP"])
    def test_unknown_zero_expected_mode(self, mode):
        with pytest.raises(InputError, match="'error' or 'drop'"):
            pearson_gof([0, 1, 2], PMV([0.5, 0.0, 0.5]),
                        on_zero_expected=mode)
        # refused even when z has no zero cell to apply it to
        with pytest.raises(InputError, match="'error' or 'drop'"):
            pearson_gof([0, 1, 2], PMV([0.25, 0.5, 0.25]),
                        on_zero_expected=mode)


class TestOracleDefaultDof:
    """The oracle's default dof is ``covariance_rank``'s analytic rank of
    the true PMVs, or its numeric rank when a true PMV has zero cells."""

    @staticmethod
    def expected(rank):
        return (rank.numeric_rank if rank.analytic_rank is None
                else rank.analytic_rank)

    @pytest.mark.parametrize("kind", ["interior", "shared_root", "zero_cells"])
    def test_matches_covariance_rank(self, kind):
        rng = np.random.default_rng(71)
        for _ in range(30):
            k, r = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            weights = [rng.uniform(0.2, 1.0, r + 1) for _ in range(k)]
            if kind == "shared_root":
                weights = [np.convolve([1.0, 2.0], w) for w in weights]
            elif kind == "zero_cells":
                for w in weights[: int(rng.integers(1, k + 1))]:
                    w[int(rng.integers(1, r))] = 0.0
            x_pmvs = [PMV(w / w.sum()) for w in weights]
            y_pmvs = x_pmvs[::-1]
            x = [rng.choice(p.support_len, int(rng.integers(20, 200)), p=p.probs)
                 for p in x_pmvs]
            y = [rng.choice(p.support_len, int(rng.integers(20, 200)), p=p.probs)
                 for p in y_pmvs]
            gf, ed = oracle_statistics(x, x_pmvs, y=y, y_pmvs=y_pmvs)
            if kind == "zero_cells":
                assert covariance_rank(x_pmvs).analytic_rank is None
            assert gf.dof == self.expected(covariance_rank(x_pmvs))
            assert ed.dof == self.expected(covariance_rank(x_pmvs, y_pmvs))
