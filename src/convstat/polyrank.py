"""Polynomial view of PMVs and the covariance rank formulas.

A PMV ``(p_0, ..., p_r)`` is identified with its probability generating
function ``sum p_j t^j``.  The degree of the greatest common divisor of a
family of such polynomials determines the rank of the limiting covariance
matrix of the convolution statistic: for interior PMVs the rank is
``s - deg gcd`` where ``s`` is the total support degree, and in general
that value minus the number of zero PMV entries is a lower bound.

Floating-point gcds are ill-posed, so the DEGREE is computed robustly as
the nullity of a stacked convolution-transpose (Sylvester-like) matrix by
singular-value thresholding, and coefficient recovery is best effort:
a Euclidean remainder sequence steered by the known degree, polished by
alternating least squares against both inputs.  The rank formulas consume
only the degree.

This module is the one owner of every rank decision: the gcd fold over
the leave-one-out PGFs (``_sides_gcd``), the numeric eigenvalue count
(``_numeric_rank``), the rank formulas and their tolerances ``GCD_TOL``
and ``RANK_TOL``.  The tests' rank policies and the oracle statistics in
:mod:`convstat.hyptest` decide through these, not through copies.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import covest, symlin
from .errors import DimensionMismatch, NeedTwoVariables, ZeroInput
from .pmv import PMV, _conv_matrix, _leave_one_out

__all__ = [
    "GcdResult",
    "RankReport",
    "gcd_degree",
    "gcd_many",
    "leave_one_out",
    "covariance_rank",
    "GCD_TOL",
    "RANK_TOL",
]

# Default relative singular-value threshold separating true zeros from
# roundoff at the matrix sizes this package works with (<= ~100x100).
GCD_TOL = 1e-9
# Relative eigenvalue threshold for numeric rank decisions.
RANK_TOL = 1e-10

_TRIM_TOL = 1e-14


@dataclass(frozen=True)
class GcdResult:
    """Numerically computed gcd of coefficient vectors.

    ``degree`` is the SVD-certified gcd degree.  ``gcd_coeffs`` is the
    recovered coefficient vector normalized to sum 1 (the polynomial
    normalization ``u(1) = 1``); when that sum is negligible relative to
    the coefficient scale the normalization is unstable and
    ``unstable_normalization`` is set instead of silently failing.
    ``residual`` is the smallest retained singular value divided by the
    largest one: small values flag a borderline degree decision.
    """

    degree: int
    gcd_coeffs: np.ndarray
    residual: float
    unstable_normalization: bool = False


@dataclass(frozen=True)
class RankReport:
    """Rank analysis of an assembled covariance matrix.

    ``analytic_rank`` is ``s - deg gcd`` and is only present when every
    input PMV is interior; otherwise ``lower_bound`` (the same value minus
    the zero-entry counts, floored at 0) is the best available statement.
    ``numeric_rank`` counts eigenvalues above ``RANK_TOL * lambda_max``.
    """

    s: int
    analytic_rank: Optional[int]
    lower_bound: int
    numeric_rank: int
    zero_index_sets: tuple
    gcd: GcdResult
    eigenvalues: np.ndarray


def _trim(vec) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1:
        raise ZeroInput("coefficient vectors must be 1-D")
    scale = np.max(np.abs(vec)) if vec.size else 0.0
    if scale == 0.0:
        raise ZeroInput("zero polynomial")
    keep = np.abs(vec) > _TRIM_TOL * scale
    last = int(np.max(np.nonzero(keep)[0]))
    return vec[: last + 1]


def _polydiv(num: np.ndarray, den: np.ndarray):
    """Ascending-order polynomial long division; returns the remainder."""
    rem = num.copy()
    dn = den.size - 1
    lead = den[-1]
    for k in range(num.size - 1, dn - 1, -1):
        coef = rem[k] / lead
        if coef != 0.0:
            rem[k - dn : k + 1] -= coef * den
        rem[k] = 0.0
    return rem[:dn] if dn > 0 else rem[:1] * 0.0


def _euclid_candidate(v: np.ndarray, w: np.ndarray, degree: int) -> np.ndarray:
    """Remainder sequence stopped at the SVD-certified gcd degree."""
    f0, f1 = (v, w) if v.size >= w.size else (w, v)
    f0 = f0 / np.max(np.abs(f0))
    f1 = f1 / np.max(np.abs(f1))
    while f1.size - 1 > degree:
        rem = _polydiv(f0, f1)
        scale = np.max(np.abs(rem))
        if scale <= 1e-12:
            break
        rem = rem / scale
        keep = np.abs(rem) > 1e-10
        if not np.any(keep):
            break
        rem = rem[: int(np.max(np.nonzero(keep)[0])) + 1]
        f0, f1 = f1, rem
    if f1.size - 1 == degree:
        return f1
    # Degree overshot by roundoff; hand a flat start to the refinement.
    return np.ones(degree + 1)


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(a, b, rcond=None)[0]


def _refine_gcd(g: np.ndarray, v: np.ndarray, w: np.ndarray, degree: int) -> np.ndarray:
    """Alternating least squares on the cofactor relations v = g*p, w = g*q."""
    for _ in range(4):
        p = _lstsq(_conv_matrix(g, v.size - degree), v)
        q = _lstsq(_conv_matrix(g, w.size - degree), w)
        stacked = np.vstack(
            [_conv_matrix(p, degree + 1), _conv_matrix(q, degree + 1)]
        )
        g = _lstsq(stacked, np.concatenate([v, w]))
    return g


def _normalize(g: np.ndarray):
    total = float(g.sum())
    scale = float(np.max(np.abs(g)))
    unstable = abs(total) < 1e-8 * scale
    if total != 0.0:
        g = g / total
    else:
        g = g / scale
    return g, unstable


def gcd_degree(v, w, tol: float = GCD_TOL) -> GcdResult:
    """Numerical gcd of two coefficient vectors.

    The degree is the nullity of the stacked matrix
    ``[T(w)'; T(v)']`` obtained from singular values below
    ``tol * sigma_max``; coefficients are then recovered by Euclidean
    division refined against both inputs and normalized to sum 1.
    """
    v = _trim(v)
    w = _trim(w)
    a, b = v.size - 1, w.size - 1
    if a == 0 or b == 0:
        return GcdResult(degree=0, gcd_coeffs=np.array([1.0]), residual=1.0)
    stacked = np.vstack([_conv_matrix(w, a + 1).T, _conv_matrix(v, b + 1).T])
    sv = np.linalg.svd(stacked, compute_uv=False)
    smax = float(sv[0])
    cut = tol * smax
    degree = int(np.sum(sv <= cut))
    retained = sv[sv > cut]
    residual = float(retained[-1] / smax)
    if degree == 0:
        return GcdResult(degree=0, gcd_coeffs=np.array([1.0]), residual=residual)
    g = _euclid_candidate(v, w, degree)
    g = _refine_gcd(g, v, w, degree)
    g, unstable = _normalize(g)
    return GcdResult(
        degree=degree, gcd_coeffs=g, residual=residual,
        unstable_normalization=unstable,
    )


def gcd_many(vs, tol: float = GCD_TOL) -> GcdResult:
    """Left fold of :func:`gcd_degree` over a sequence of vectors.

    A single vector is its own gcd (normalized); this is the degenerate
    one-variable case of the leave-one-out construction.  The reported
    residual is the smallest across fold steps, i.e. the most borderline
    decision taken.
    """
    vs = [np.asarray(v, dtype=float) for v in vs]
    if not vs:
        raise ZeroInput("gcd_many requires at least one vector")
    first = _trim(vs[0])
    g, unstable = _normalize(first)
    result = GcdResult(
        degree=g.size - 1, gcd_coeffs=g, residual=1.0,
        unstable_normalization=unstable,
    )
    for v in vs[1:]:
        step = gcd_degree(result.gcd_coeffs, v, tol)
        result = GcdResult(
            degree=step.degree,
            gcd_coeffs=step.gcd_coeffs,
            residual=min(result.residual, step.residual),
            unstable_normalization=result.unstable_normalization
            or step.unstable_normalization,
        )
    return result


def leave_one_out(pmvs) -> list:
    """For each i, the convolution of all PMVs except the i-th.

    For k = 2 this swaps the pair.  Computed with prefix/suffix products
    so the total work is linear in k.
    """
    pmvs = list(pmvs)
    if len(pmvs) < 2:
        raise NeedTwoVariables(
            f"leave_one_out requires k >= 2, got {len(pmvs)}"
        )
    return [PMV(p) for p in _leave_one_out([p.probs for p in pmvs])]


def _sides_gcd(sides) -> GcdResult:
    """gcd of the leave-one-out PGFs, folded across the sides.

    ``sides`` holds one list of probability vectors per side.  Each side's
    gcd folds over its leave-one-out PGFs (one vector's leave-one-out is
    the identity ``(1,)``); for the two-sample covariance the gcd is the
    gcd of the per-side gcds.
    """
    side_gcds = [gcd_many(_leave_one_out(probs), GCD_TOL) for probs in sides]
    g = side_gcds[0]
    for other in side_gcds[1:]:
        g = gcd_degree(g.gcd_coeffs, other.gcd_coeffs, GCD_TOL)
    return g


def _numeric_rank(values) -> int:
    """Count of descending eigenvalues above ``RANK_TOL * lambda_max``.

    0 when ``lambda_max <= 0`` (a zero or empty spectrum).
    """
    lam_max = float(values[0]) if values.size else 0.0
    if lam_max <= 0.0:
        return 0
    return int(np.sum(values > RANK_TOL * lam_max))


def covariance_rank(x_pmvs, y_pmvs=None) -> RankReport:
    """Rank analysis of the limiting covariance of the convolution statistic.

    With only ``x_pmvs`` the matrix analyzed is the goodness-of-fit
    covariance; with ``y_pmvs`` it is the two-sample sum, whose gcd is the
    gcd of the two per-side gcds.  Both sides must then have equal total
    support degree (pad caller-side otherwise).
    """
    sides = [list(x_pmvs)]
    if not sides[0]:
        raise NeedTwoVariables("covariance_rank requires at least one PMV")
    s = sum(p.r for p in sides[0])
    if y_pmvs is not None:
        sides.append(list(y_pmvs))
        if not sides[1]:
            raise NeedTwoVariables("y side must contain at least one PMV")
        s_y = sum(p.r for p in sides[1])
        if s_y != s:
            raise DimensionMismatch(
                f"total support degree differs between sides: {s} vs {s_y}"
            )
    probs = [[p.probs for p in side] for side in sides]
    gcd = _sides_gcd(probs)
    pmvs = [p for side in sides for p in side]
    zero_sets = tuple(p.zero_indices for p in pmvs)
    analytic = s - gcd.degree if all(p.interior for p in pmvs) else None
    lower = max(0, s - gcd.degree - sum(len(z) for z in zero_sets))
    matrix = covest._weighted_cov(probs[0])
    for side in probs[1:]:
        matrix = matrix + covest._weighted_cov(side)
    dec = symlin.eigh(matrix)
    return RankReport(
        s=s,
        analytic_rank=analytic,
        lower_bound=lower,
        numeric_rank=_numeric_rank(dec.values),
        zero_index_sets=zero_sets,
        gcd=gcd,
        eigenvalues=dec.values,
    )
