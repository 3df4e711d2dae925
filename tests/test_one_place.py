"""Each job is done in one place.

``pmv._counts`` counts the observations of ``empirical_pmv`` and of both
Pearson baselines; the Pearson diagnostics list only the observed cells;
``dataclasses.asdict`` serialises reports and simulation artifacts; and
``symlin._spectrum`` trusts the package's own matrices to be exactly
symmetric, which the symmetry tests below pin.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from convstat import PMV, TestReport, gof_test, pearson_ed, pearson_gof
from convstat.covest import _estimate, upsilon_hat
from convstat.errors import InvalidPMV, SupportViolation
from convstat.pmv import _BLOCK, empirical_pmv
from convstat.simlab import SimScenario, sweep, write_json

Z = PMV([0.25, 0.5, 0.25])


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneCounter:
    @pytest.mark.parametrize("fn", [
        lambda x, y: pearson_gof(x, PMV(np.full(7, 1 / 7))),
        lambda x, y: pearson_ed(x, y),
    ], ids=["gof", "ed"])
    def test_int64_sums_are_not_copied(self, fn):
        rng = np.random.default_rng(1)
        x, y = rng.integers(0, 7, 10**6), rng.integers(0, 7, 10**6)
        report, peak = traced_peak(fn, x, y)
        assert report.statistic >= 0.0
        assert peak <= 2**16

    @pytest.mark.parametrize("call", [
        lambda: pearson_gof([-1, 0], PMV([0.5, 0.5])),
        lambda: pearson_ed([-1, 0], [0, 1]),
        lambda: pearson_ed([0, 1], [-1, 0]),
    ], ids=["gof", "ed_x", "ed_y"])
    def test_negative_sum_gets_the_range_message(self, call):
        with pytest.raises(SupportViolation) as info:
            call()
        assert str(info.value) == (
            "summed observations must lie in {0, ..., 1}; got range [-1, 0]"
        )

    def test_all_negative_sums(self):
        with pytest.raises(SupportViolation, match=r"got range \[-3, -2\]"):
            pearson_ed([-3, -2], [-2, -3])

    def test_invalid_z_is_reported_before_a_negative_sum(self):
        with pytest.raises(InvalidPMV):
            pearson_gof([-1, 0], [0.5, -0.5])


class TestObservedCells:
    @pytest.mark.parametrize("report, names", [
        (pearson_gof([0, 0, 2], Z, on_zero_expected="drop"), ["counts"]),
        (pearson_gof([0, 1, 6], Z), ["counts"]),
        (pearson_ed([0, 0, 3, 5], [5, 1]), ["x_counts", "y_counts"]),
    ], ids=["gof", "gof_outside", "ed"])
    def test_cells_rebuild_the_dense_counts(self, report, names):
        diag = report.diagnostics
        cells = diag["cells"]
        assert cells == sorted(set(cells))
        assert all(any(diag[name][i] for name in names)
                   for i in range(len(cells)))
        assert all(len(diag[name]) == len(cells) for name in names)

    def test_pearson_ed_cells_and_counts(self):
        diag = pearson_ed([0, 0, 3, 5], [5, 1]).diagnostics
        assert diag["cells"] == [0, 1, 3, 5]
        assert diag["x_counts"] == [2, 0, 1, 1]
        assert diag["y_counts"] == [0, 1, 0, 1]
        assert diag["warnings"] == [
            "2 empty pooled cells merged from the support ends inward"
        ]

    @pytest.mark.parametrize("call", [
        lambda: pearson_gof([0, 2**18], PMV([0.5, 0.5])),
        lambda: pearson_ed([0, 2**18], [0, 1]),
    ], ids=["gof", "ed"])
    def test_a_far_sum_keeps_only_its_cells(self, call):
        diag = call().diagnostics
        assert diag["cells"][-1] == 2**18
        assert len(diag["cells"]) <= 4
        assert len(json.dumps(diag)) < 400


class TestNoWarningEscapes:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [1e20, -1e20, 2.0**63])
    def test_float_beyond_int64(self, value):
        with pytest.raises(SupportViolation) as info:
            empirical_pmv(np.array([0.0, value]), 1)
        assert str(info.value) == (
            f"observations: value {value!r} lies outside the int64 range"
        )

    @pytest.mark.filterwarnings("error")
    def test_largest_float_below_int64_is_cast(self):
        with pytest.raises(SupportViolation, match="must lie in"):
            empirical_pmv(np.array([0.0, 2.0**63 - 1024]), 1)

    @pytest.mark.filterwarnings("error")
    def test_float16_is_compared_without_overflow(self):
        with pytest.raises(SupportViolation, match=r"got range \[0, 60000\]"):
            empirical_pmv(np.array([0, 60000], dtype=np.float16), 1)

    @pytest.mark.filterwarnings("error")
    def test_python_int_beyond_int64(self):
        with pytest.raises(SupportViolation, match=f"value {2**70} lies"):
            empirical_pmv([2**70, 1], 1)

    @pytest.mark.filterwarnings("error")
    def test_range_is_decided_on_the_whole_input(self):
        x = np.zeros(3 * _BLOCK)
        x[0] = 0.5
        x[2 * _BLOCK] = 1e20
        with pytest.raises(SupportViolation, match="int64 range"):
            empirical_pmv(x, 1)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_pmv_sum(self):
        with pytest.raises(InvalidPMV, match="must have a finite sum"):
            PMV([1e308, 1e308])


class TestSerialisers:
    def test_to_dict_is_a_copy(self):
        report = gof_test([[0, 1, 1, 0], [1, 0, 1, 1]], Z)
        payload = report.to_dict()
        assert list(payload) == [f.name for f in dataclasses.fields(report)]
        payload["diagnostics"]["warnings"].append("edited")
        assert "edited" not in report.diagnostics["warnings"]
        assert TestReport.from_dict(report.to_dict()) == report

    def test_scenario_block(self, tmp_path):
        scn = SimScenario(p=0.3, q=0.8, rho=0.25, n1=5, n2=6, n3=7, L=10,
                          seed=3, statistics=("P_GF", "C1_ED"))
        path = tmp_path / "out.json"
        write_json(sweep(scn, "rho", [0.0]), path, scn, "rho")
        payload = json.loads(path.read_text())
        assert payload["scenario"] == {
            "p": 0.3, "q": 0.8, "rho": 0.25, "n1": 5, "n2": 6, "n3": 7,
            "L": 10, "alpha": 0.05, "seed": 3,
            "statistics": ["P_GF", "C1_ED"],
        }
        assert set(payload["results"][0]["statistics"]["P_GF"]) == {
            "proportion", "stderr", "rejections", "fallback_count",
        }


def _probs(rng, shape):
    """Random PMVs, about a quarter of their cells zero."""
    p = rng.random(shape) * (rng.random(shape) > 0.25)
    p[..., 0] += 0.01
    return p / p.sum(axis=-1, keepdims=True)


def exactly_symmetric(a):
    return (np.isfinite(a).all()
            and np.array_equal(a, np.swapaxes(a, -1, -2)))


class TestExactSymmetry:
    """The package's matrices reach ``symlin._spectrum`` unsymmetrised."""

    RNG = np.random.default_rng(23)

    @pytest.mark.parametrize("lead", [(), (17,)], ids=["single", "stack"])
    @pytest.mark.parametrize("x_lens, y_lens", [
        ([2, 2], None),
        ([3, 5, 2], None),
        ([7], None),
        ([2, 4, 3, 6], [3, 3]),
        ([2, 2], [4, 3]),
        ([5], [2, 2, 2]),
    ])
    def test_estimate(self, lead, x_lens, y_lens):
        for _ in range(20):
            sides = [[_probs(self.RNG, lead + (n,)) for n in x_lens]]
            if y_lens:
                sides.append([_probs(self.RNG, lead + (n,)) for n in y_lens])
            size = max(sum(side_lens) - len(side_lens) + 1
                       for side_lens in (x_lens, y_lens or [1]))
            weights = self.RNG.random(sum(map(len, sides))) + 0.1
            _, cov, _ = _estimate(sides, weights, size)
            assert cov.shape == lead + (size, size)
            assert exactly_symmetric(cov)

    @pytest.mark.parametrize("m, k, r", [(40, 2, 1), (200, 3, 4), (500, 5, 2)])
    def test_upsilon_hat(self, m, k, r):
        for _ in range(20):
            assert exactly_symmetric(
                upsilon_hat(self.RNG.integers(0, r + 1, (m, k))))
