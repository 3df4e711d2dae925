"""Each public call makes one leave-one-out pass per side.

``pmv._products`` gives a side's leave-one-out PGFs and its convolution,
and the Wald vector, the covariance factor and the Sylvester gcd all read
that one pass.  These tests count the passes, and the ``convolve_all``
folds, inside every public test and ``covariance_rank``, so a second pass
cannot come back unnoticed.  A rank decision takes one singular-value pass,
and only ``covariance_rank`` goes on to the gcd's coefficients; an oracle
report's one SVD, its whitener's, gives both its value and its dof.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from convstat import PMV, covariance_rank, ed_test, gof_test, pmv, subind_test
from convstat.hyptest import oracle_statistics

POLICIES = ["analytic", "numeric", "lower", "fixed:2"]
RNG = np.random.default_rng(8)
X = [RNG.integers(0, 3, 40), RNG.integers(0, 3, 55), RNG.integers(0, 2, 30)]
Y = [RNG.integers(0, 3, 45), RNG.integers(0, 4, 60)]
ZERO_CELL = [np.array([0, 2, 2, 0]), RNG.integers(0, 3, 30)]
POINT_MASSES = [np.full(10, 2), np.full(12, 1)]
Z = pmv.convolve_all([PMV([0.3, 0.4, 0.3]), PMV([0.2, 0.5, 0.3]),
                      PMV([0.6, 0.4])])
# Three equal Bernoulli samples: each leave-one-out PGF is the square of
# the same factor, so deg g = 2.
SHARED = [np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 1])] * 3


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``_products`` and ``convolve_all`` calls, through every
    binding of either name in the package."""
    counts = Counter()
    modules = [m for key, m in sys.modules.items()
               if key == "convstat" or key.startswith("convstat.")]
    for name in ("_products", "convolve_all"):
        original = getattr(pmv, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("x, z", [
    (X, Z),
    (ZERO_CELL, PMV(np.full(5, 0.2))),
    (POINT_MASSES, PMV([0.25, 0.25, 0.25, 0.25])),
])
def test_gof_one_pass(calls, policy, x, z):
    gof_test(x, z, rank_policy=policy)
    assert calls == Counter({"_products": 1})


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("x, y", [
    (X, Y),                  # equal s = 5
    (X, Y[:1]),              # padded: s = 5 and 2
    (POINT_MASSES, [np.full(7, 3)]),
])
def test_ed_one_pass_per_side(calls, policy, x, y):
    ed_test(x, y, rank_policy=policy)
    assert calls == Counter({"_products": 2})


@pytest.mark.parametrize("policy", [None, "fixed:1"])
@pytest.mark.parametrize("table", [
    np.column_stack([RNG.integers(0, 3, 50), RNG.integers(0, 2, 50)]),
    np.column_stack([np.zeros(9, dtype=int), RNG.integers(0, 3, 9)]),
])
def test_subind_one_pass(calls, policy, table):
    subind_test(table, rank_policy=policy)
    assert calls == Counter({"_products": 1})


@pytest.mark.parametrize("sides", [1, 2])
def test_covariance_rank_one_pass_per_side(calls, sides):
    x = [PMV([0.3, 0.7]), PMV([0.5, 0.0, 0.5])]
    y = [PMV([0.1, 0.6, 0.3]), PMV([0.4, 0.6])] if sides == 2 else None
    covariance_rank(x, y)
    assert calls == Counter({"_products": sides})


@pytest.fixture
def svds(monkeypatch):
    """The ``compute_uv`` flag of every ``np.linalg.svd`` call."""
    flags = []
    original = np.linalg.svd

    def counted(*args, **kwargs):
        flags.append(kwargs.get("compute_uv", True))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return flags


@pytest.mark.parametrize("policy", ["analytic", "lower"])
@pytest.mark.parametrize("call", [
    lambda policy: gof_test(SHARED, pmv.convolve_all([PMV([0.5, 0.5])] * 3),
                            rank_policy=policy),
    lambda policy: ed_test(SHARED, SHARED, rank_policy=policy),
], ids=["gof", "ed"])
def test_rank_decision_takes_singular_values_only(svds, call, policy):
    assert call(policy).diagnostics["gcd_degree"] == 2
    assert svds == [False]


def test_oracle_decision_takes_singular_values_only(svds):
    gof, _ = oracle_statistics(SHARED, [PMV([0.4, 0.6])] * 3)
    assert gof.dof == 1
    assert svds == [True]  # the whitener decides the value and the dof


def test_covariance_rank_recovers_the_gcd(svds):
    report = covariance_rank([PMV([0.4, 0.6])] * 3)
    assert report.gcd.degree == 2
    np.testing.assert_allclose(report.gcd.gcd_coeffs, [0.16, 0.48, 0.36])
    assert svds == [False, True, True]
