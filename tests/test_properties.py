"""Property tests over the public test entry points.

Random small supports, sample sizes and every rank policy: every
report has a finite statistic >= 0, a p-value in [0, 1] and
1 <= dof <= s, and nothing but ``ConvStatError`` subclasses escapes.
Every report path, deterministic rejections included, gives the p-value
``chi2_sf(statistic, dof)``.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convstat import (
    ConvStatError,
    PMV,
    SampleSet,
    canonicalize,
    chi2_sf,
    ed_test,
    gof_test,
    oracle_statistics,
    pearson_ed,
    pearson_gof,
    subind_test,
)
from convstat.polyrank import RANK_TOL, covariance_rank

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def check_report(report, s):
    assert math.isfinite(report.statistic)
    assert report.statistic >= 0.0
    assert 0.0 <= report.p_value <= 1.0
    assert 1 <= report.dof <= s


@st.composite
def samples(draw, k_min=1, k_max=3):
    """Per-variable observations with their declared support degrees."""
    k = draw(st.integers(k_min, k_max))
    lens = [draw(st.integers(1, 3)) for _ in range(k)]
    arrays = [
        np.array(draw(st.lists(st.integers(0, r), min_size=1, max_size=25)))
        for r in lens
    ]
    return arrays, lens


@st.composite
def pmvs(draw, r):
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=r + 1,
                            max_size=r + 1))
    return PMV(np.array(weights) / sum(weights))


@st.composite
def policies(draw, s):
    return draw(st.sampled_from(
        ["analytic", "numeric", "lower", f"fixed:{draw(st.integers(1, s))}"]
    ))


@SETTINGS
@given(st.data())
def test_gof_test_properties(data):
    arrays, lens = data.draw(samples(k_min=2))
    s = sum(lens)
    z = data.draw(pmvs(s))
    policy = data.draw(policies(s))
    try:
        report = gof_test(arrays, z, rank_policy=policy, support_lens=lens)
    except ConvStatError:
        return
    check_report(report, s)


@SETTINGS
@given(st.data())
def test_ed_test_properties(data):
    x, x_lens = data.draw(samples())
    y, y_lens = data.draw(samples())
    s = max(sum(x_lens), sum(y_lens))
    policy = data.draw(policies(s))
    try:
        report = ed_test(x, y, rank_policy=policy, x_support_lens=x_lens,
                         y_support_lens=y_lens)
    except ConvStatError:
        return
    check_report(report, s)


@SETTINGS
@given(st.data())
def test_subind_test_properties(data):
    k = data.draw(st.integers(2, 3))
    lens = [data.draw(st.integers(1, 3)) for _ in range(k)]
    rows = data.draw(st.integers(2, 25))
    table = np.array([
        data.draw(st.lists(st.integers(0, r), min_size=rows, max_size=rows))
        for r in lens
    ]).T
    s = sum(lens)
    policy = data.draw(st.sampled_from(
        [None, f"fixed:{data.draw(st.integers(1, s))}"]))
    try:
        report = subind_test(table, rank_policy=policy, support_lens=lens)
    except ConvStatError:
        return
    check_report(report, s)
    if policy is not None:
        assert report.dof == int(policy.split(":")[1])


@SETTINGS
@given(st.data())
def test_oracle_statistics_properties(data):
    x, lens = data.draw(samples(k_min=2))
    s = sum(lens)
    x_pmvs = [data.draw(pmvs(r)) for r in lens]
    y = [np.array(data.draw(st.lists(st.integers(0, s), min_size=1,
                                     max_size=25)))]
    y_pmvs = [data.draw(pmvs(s))]
    try:
        gf, ed = oracle_statistics(x, x_pmvs, y=y, y_pmvs=y_pmvs)
    except ConvStatError:
        return
    check_report(gf, s)
    check_report(ed, s)


@st.composite
def planted_side(draw, k, r, kind):
    """k PMVs of degree r: interior, sharing one linear factor, or with a
    zero cell in the first (a point mass when r = 1)."""
    if kind == "shared_root":
        root = np.array(draw(st.lists(st.integers(1, 3), min_size=2,
                                      max_size=2)))
        weights = [np.convolve(root, draw(st.lists(
            st.integers(1, 4), min_size=r, max_size=r))).astype(float)
            for _ in range(k)]
    else:
        weights = [np.array(draw(st.lists(st.floats(1.0, 3.0), min_size=r + 1,
                                          max_size=r + 1)))
                   for _ in range(k)]
        if kind == "zero_cells":
            weights[0][1] = 0.0
            if r == 1:
                weights[0][0] = 1.0
    return [PMV(w / w.sum()) for w in weights]


@SETTINGS
@given(st.data())
def test_numeric_rank_is_the_signed_eigenvalue_count(data):
    """On PSD assemblies the magnitude cut |lam| > RANK_TOL * max|lam|
    counts exactly the eigenvalues lam > RANK_TOL * lam_max: roundoff-
    negative eigenvalues stay far below the cut."""
    k = data.draw(st.sampled_from([2, 3, 5]))
    r = data.draw(st.sampled_from([1, 3, 6]))
    kind = data.draw(st.sampled_from(["interior", "shared_root",
                                      "zero_cells"]))
    sides = [data.draw(planted_side(k, r, kind))]
    if data.draw(st.booleans()):
        sides.append(data.draw(planted_side(k, r, kind)))
    report = covariance_rank(*sides)
    lam = report.eigenvalues
    signed = int(np.sum(lam > RANK_TOL * lam[0])) if lam[0] > 0.0 else 0
    assert report.numeric_rank == signed


@st.composite
def spread_samples(draw, k_min=1, k_max=3):
    """Like ``samples``, but every variable takes both 0 and its maximum,
    so no empirical PMV is a point mass."""
    arrays, lens = draw(samples(k_min, k_max))
    return [np.concatenate([v, [0, r]]) for v, r in zip(arrays, lens)], lens


@st.composite
def constant_samples(draw, k_min=1, k_max=3):
    """Per-variable constant observations: every empirical PMV a point mass."""
    k = draw(st.integers(k_min, k_max))
    lens = [draw(st.integers(1, 3)) for _ in range(k)]
    arrays = [np.full(draw(st.integers(1, 25)), draw(st.integers(0, r)))
              for r in lens]
    return arrays, lens


def _wald_gof(data):
    x, lens = data.draw(spread_samples(k_min=2))
    s = sum(lens)
    report = gof_test(x, data.draw(pmvs(s)), rank_policy=data.draw(policies(s)),
                      support_lens=lens)
    assert not report.fallback_used
    return report


def _wald_ed(data):
    x, x_lens = data.draw(spread_samples())
    y, y_lens = data.draw(spread_samples())
    s = max(sum(x_lens), sum(y_lens))
    report = ed_test(x, y, rank_policy=data.draw(policies(s)),
                     x_support_lens=x_lens, y_support_lens=y_lens)
    assert not report.fallback_used
    return report


def _fallback_gof(data):
    x, lens = data.draw(constant_samples(k_min=2))
    s = sum(lens)
    report = gof_test(x, data.draw(pmvs(s)), rank_policy=data.draw(policies(s)),
                      support_lens=lens)
    assert report.fallback_used
    return report


def _fallback_ed(data):
    x, x_lens = data.draw(constant_samples())
    y, y_lens = data.draw(constant_samples())
    s = max(sum(x_lens), sum(y_lens), 1)
    report = ed_test(x, y, rank_policy=data.draw(policies(s)),
                     x_support_lens=x_lens, y_support_lens=y_lens)
    assert report.fallback_used
    return report


def _offset_mismatch(data):
    x, _ = data.draw(samples())
    shift = data.draw(st.integers(1, 3))
    cx = canonicalize(SampleSet(variables=tuple(x)))
    cy = canonicalize(SampleSet(variables=tuple(x), offset=shift))
    s = max(sum(cx.support_lens), 1)
    report = ed_test(cx, cy, rank_policy=data.draw(policies(s)))
    assert report.statistic == math.inf
    return report


def _pearson_outside(data):
    r = data.draw(st.integers(1, 4))
    sums = data.draw(st.lists(st.integers(0, r + 3), min_size=1, max_size=20))
    sums.append(r + data.draw(st.integers(1, 3)))
    report = pearson_gof(sums, data.draw(pmvs(r)))
    assert report.statistic == math.inf
    return report


def _pearson_ed(data):
    x = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=20))
    y = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=20))
    return pearson_ed(x, y)


def _zero_subind(data):
    k = data.draw(st.integers(2, 3))
    row = [data.draw(st.integers(0, 2)) for _ in range(k)]
    table = np.tile(row, (data.draw(st.integers(2, 20)), 1))
    s = max(sum(row), 1)
    policy = data.draw(st.sampled_from([None, f"fixed:{data.draw(st.integers(1, s))}"]))
    report = subind_test(table, rank_policy=policy)
    assert report.statistic == 0.0 and report.fallback_used
    return report


def _oracle(data):
    x, lens = data.draw(samples(k_min=2))
    x_pmvs = [data.draw(pmvs(r)) for r in lens]
    y = [np.array(data.draw(st.lists(st.integers(0, sum(lens)), min_size=1,
                                     max_size=25)))]
    gf, ed = oracle_statistics(x, x_pmvs, y=y,
                               y_pmvs=[data.draw(pmvs(sum(lens)))])
    return data.draw(st.sampled_from([gf, ed]))


REPORT_PATHS = {
    "wald_gof": _wald_gof,
    "wald_ed": _wald_ed,
    "pearson_fallback_gof": _fallback_gof,
    "pearson_fallback_ed": _fallback_ed,
    "offset_mismatch": _offset_mismatch,
    "pearson_outside_support": _pearson_outside,
    "pearson_ed": _pearson_ed,
    "zero_subind_estimate": _zero_subind,
    "oracle": _oracle,
}


@pytest.mark.parametrize("path", sorted(REPORT_PATHS))
@settings(SETTINGS, max_examples=60)
@given(st.data())
def test_p_value_is_chi2_sf_on_every_path(path, data):
    report = REPORT_PATHS[path](data)
    assert report.p_value == chi2_sf(report.statistic, report.dof)
