"""Property tests over the public test entry points.

Random small supports, sample sizes and every rank policy: every
report has a finite statistic >= 0, a p-value in [0, 1] and
1 <= dof <= s, and nothing but ``ConvStatError`` subclasses escapes.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convstat import (
    ConvStatError,
    PMV,
    ed_test,
    gof_test,
    oracle_statistics,
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
