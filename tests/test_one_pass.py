"""Each public call makes one leave-one-out pass per side.

``pmv._products`` gives a side's leave-one-out PGFs and its convolution,
and the Wald vector, the covariance factor and the Sylvester gcd all read
that one pass.  These tests count the passes, and the ``convolve_all``
folds, inside every public test and ``covariance_rank``, so a second pass
cannot come back unnoticed.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from convstat import PMV, covariance_rank, ed_test, gof_test, pmv, subind_test

POLICIES = ["analytic", "numeric", "lower", "fixed:2"]
RNG = np.random.default_rng(8)
X = [RNG.integers(0, 3, 40), RNG.integers(0, 3, 55), RNG.integers(0, 2, 30)]
Y = [RNG.integers(0, 3, 45), RNG.integers(0, 4, 60)]
ZERO_CELL = [np.array([0, 2, 2, 0]), RNG.integers(0, 3, 30)]
POINT_MASSES = [np.full(10, 2), np.full(12, 1)]
Z = pmv.convolve_all([PMV([0.3, 0.4, 0.3]), PMV([0.2, 0.5, 0.3]),
                      PMV([0.6, 0.4])])


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
