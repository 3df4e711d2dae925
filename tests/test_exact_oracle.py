"""Rank and gcd decisions against exact rational arithmetic.

Integer weights ``w_i`` give PMVs ``p_i = w_i / sum(w_i)`` whose
leave-one-out PGFs and covariance are rational, so the gcd degree, the gcd
coefficients and the covariance rank are computed here exactly with
``fractions.Fraction``, independently of the SVDs and the eigensolver
under test.  The oracle statistic is checked the same way, against the
exact pseudo-inverse form of the normalized float PMVs.
"""

from fractions import Fraction

import numpy as np
import pytest

from convstat import (
    PMV, covariance_rank, ed_test, gcd_degree, gcd_many, oracle_statistics,
)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_gcd(polys):
    """Exact gcd of ascending integer coefficient lists (Euclid on Fractions)."""
    g = poly_trim(Fraction(x) for x in polys[0])
    for p in polys[1:]:
        a, b = g, poly_trim(Fraction(x) for x in p)
        while b:
            rem = a[:]
            while len(rem) >= len(b):
                coef = rem[-1] / b[-1]
                shift = len(rem) - len(b)
                for i, y in enumerate(b):
                    rem[shift + i] -= coef * y
                rem = poly_trim(rem)
            a, b = b, rem
        g = a
    return g


def leave_one_out(weights):
    out = []
    for i in range(len(weights)):
        prod = [1]
        for j, w in enumerate(weights):
            if j != i:
                prod = poly_mul(prod, w)
        out.append(prod)
    return out


def exact_rank(rows):
    """Rank of an integer matrix by Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def pivot_columns(rows):
    """Pivot columns of a rational matrix by Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
    return pivots


def solve(a, b):
    """Solution of a nonsingular rational system by Gauss-Jordan."""
    rows = [list(row) + [v] for row, v in zip(a, b)]
    n = len(rows)
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(n):
            if i != col and rows[i][col]:
                f = rows[i][col] / rows[col][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def exact_psi(probs, weights):
    """``sum_i c_i T(x_(i)) (diag p_i - p_i p_i') T(x_(i))'`` on Fractions."""
    dim = sum(len(p) - 1 for p in probs) + 1
    out = [[Fraction(0)] * dim for _ in range(dim)]
    for c, p, loo in zip(weights, probs, leave_one_out(probs)):
        cols = [[0] * j + loo + [0] * (len(p) - 1 - j) for j in range(len(p))]
        z = [sum(col[a] * pj for col, pj in zip(cols, p)) for a in range(dim)]
        for a in range(dim):
            for b in range(dim):
                out[a][b] += c * (sum(col[a] * col[b] * pj
                                      for col, pj in zip(cols, p))
                                  - z[a] * z[b])
    return out


def exact_pinv_form(cov, v):
    """``v' cov^+ v`` of a symmetric rational matrix.

    With ``B`` the pivot columns of ``cov`` (a basis of its range) and
    ``a`` solving ``B'B a = B'v``, ``B a`` is the projection of ``v`` on the
    range and ``y = a`` at the pivots solves ``cov y = B a``, so the form is
    ``(B a)' y``.
    """
    pivots = pivot_columns(cov)
    basis = [[row[j] for j in pivots] for row in cov]
    gram = [[sum(row[i] * row[j] for row in basis) for j in range(len(pivots))]
            for i in range(len(pivots))]
    a = solve(gram, [sum(row[i] * x for row, x in zip(basis, v))
                     for i in range(len(pivots))])
    projected = [sum(b * ai for b, ai in zip(row, a)) for row in basis]
    return sum(projected[j] * ai for j, ai in zip(pivots, a))


def exact_cov_rank(sides):
    """Exact rank of the summed covariance of integer-weight sides.

    Each term ``c_i T(x_(i)) (diag p_i - p_i p_i') T(x_(i))'`` is PSD, so
    the rank of the sum is the rank of the stacked factors ``T(x_(i)) D_i``.
    Column j of one factor is, up to a positive scale, the polynomial
    ``x_(i) * (W_i w_ij t^j - w_ij w_i(t))`` with ``W_i = sum w_i``.
    """
    rows = []
    for weights in sides:
        for w, loo in zip(weights, leave_one_out(weights)):
            total = sum(w)
            for j, wj in enumerate(w):
                col = [-wj * x for x in w]
                col[j] += total * wj
                rows.append(poly_mul(loo, col))
    return exact_rank(rows)


def exact_gcd_degree(sides):
    loos = [p for weights in sides for p in leave_one_out(weights)]
    return len(poly_gcd(loos)) - 1


def shared_root(rng, k, degrees):
    f = [int(x) for x in rng.integers(1, 4, size=2)]
    return [poly_mul(f, [int(x) for x in rng.integers(1, 5, size=d)])
            for d in degrees[:k]]


def independent(rng, degrees):
    return [[int(x) for x in rng.integers(1, 4, size=d + 1)] for d in degrees]


def pmvs(weights):
    return [PMV(np.array(w, dtype=float) / sum(w)) for w in weights]


def samples(weights):
    """Observations whose empirical PMVs are exactly ``w / sum(w)``."""
    return [np.repeat(np.arange(len(w)), 3 * np.array(w)) for w in weights]


def _interior_cases():
    rng = np.random.default_rng(20261018)
    cases = []
    for _ in range(10):  # lib_grid's k = 5, r = 6 shared-root cell
        cases.append([shared_root(rng, 5, [6] * 5)])
    for _ in range(4):
        cases.append([shared_root(rng, 5, [3] * 5)])
    for _ in range(4):  # unequal r_i
        k = int(rng.integers(2, 6))
        cases.append([shared_root(rng, k, list(rng.integers(1, 6, size=k)))])
    for _ in range(4):
        cases.append([independent(rng, list(rng.integers(1, 5, size=3)))])
    for _ in range(4):  # two-sided, equal s, one shared root on both sides
        f = shared_root(rng, 4, [2, 3, 1, 4])
        cases.append([f[:2], f[2:]])
    for _ in range(2):  # a one-variable side against a shared-root side
        y = shared_root(rng, 2, [2, 3])
        cases.append([independent(rng, [5]), y])
    return cases


@pytest.mark.parametrize("sides", _interior_cases())
def test_interior_rank_matches_exact(sides):
    deg = exact_gcd_degree(sides)
    s = sum(len(w) - 1 for w in sides[0])
    rep = covariance_rank(*[pmvs(w) for w in sides])
    assert rep.gcd.degree == deg
    assert rep.analytic_rank == s - deg == exact_cov_rank(sides)


def test_two_sided_unequal_s_gcd_matches_exact():
    # ed_test zero-pads the smaller side; the lower policy still reads the
    # gcd of both sides' leave-one-out PGFs
    rng = np.random.default_rng(7)
    for _ in range(8):
        f = shared_root(rng, 5, list(rng.integers(1, 4, size=5)))
        x, y = f[:2], f[2:]
        sizes = [sum(len(w) - 1 for w in side) for side in (x, y)]
        if sizes[0] == sizes[1]:
            y = y + [[1, 2]]
        rep = ed_test(samples(x), samples(y), rank_policy="lower")
        assert rep.diagnostics["gcd_degree"] == exact_gcd_degree([x, y])


@pytest.mark.parametrize("where", ["bottom", "top", "inner"])
def test_zero_cell_lower_bound_below_exact_rank(where):
    rng = np.random.default_rng({"bottom": 1, "top": 2, "inner": 3}[where])
    for _ in range(6):
        k = int(rng.integers(2, 5))
        weights = shared_root(rng, k, list(rng.integers(2, 5, size=k)))
        for i in range(int(rng.integers(1, k + 1))):
            w = weights[i]
            w[{"bottom": 0, "top": -1, "inner": 1}[where]] = 0
        rep = covariance_rank(pmvs(weights))
        assert rep.analytic_rank is None
        assert rep.lower_bound <= exact_cov_rank([weights])


def _planted_gcds():
    rng = np.random.default_rng(24)
    cases = []
    for count in (2, 2, 3) * 12:
        gdeg = int(rng.integers(1, 9))
        g = [int(x) for x in rng.integers(1, 5, size=gdeg + 1)]
        cases.append([
            poly_mul(g, [int(x) for x in
                         rng.integers(1, 5, size=int(rng.integers(2, 26 - gdeg)))])
            for _ in range(count)
        ])
    return cases


@pytest.mark.parametrize("polys", _planted_gcds())
def test_gcd_coefficients_match_exact(polys):
    # planted integer gcds up to degree 24 in total; the exact gcd may be
    # larger than the planted one when the cofactors share a root
    exact = poly_gcd(polys)
    exact = np.array([float(c / sum(exact)) for c in exact])
    out = (gcd_degree(*polys) if len(polys) == 2
           else gcd_many([np.array(p, dtype=float) for p in polys]))
    assert out.degree == exact.size - 1
    assert np.max(np.abs(out.gcd_coeffs - exact)) < 1e-10



@pytest.mark.parametrize("seed", [74, 95])
def test_oracle_on_identical_pmvs_matches_exact(seed):
    # Four identical degree-4 true PMVs: psi has rank 4 of 17 (the
    # leave-one-out gcd is p^3).  A pseudo-inverse of the assembled matrix
    # inverts its roundoff eigenvalues here: a value off by 10^8 at seed 74,
    # a NumericalError at seed 95.
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.2, 1.0, 5)
    p /= p.sum()
    x = [rng.choice(5, int(n), p=p) for n in rng.integers(200, 301, size=4)]
    gf, _ = oracle_statistics(x, [PMV(p)] * 4)

    # the exact statistic of the normalized float PMV
    exact_p = [Fraction(v) for v in p]
    exact_p = [v / sum(exact_p) for v in exact_p]
    sizes = [v.size for v in x]
    m = min(sizes)
    hats = [[Fraction(int(c), v.size) for c in np.bincount(v, minlength=5)]
            for v in x]
    conv_hat, conv_true = [1], [1]
    for h in hats:
        conv_hat = poly_mul(conv_hat, h)
        conv_true = poly_mul(conv_true, exact_p)
    cov = exact_psi([exact_p] * 4, [Fraction(m, n) for n in sizes])
    want = m * exact_pinv_form(
        cov, [a - b for a, b in zip(conv_hat, conv_true)])
    assert gf.dof == 4
    assert gf.statistic == pytest.approx(float(want), rel=1e-9)
