"""Polynomial view of PMVs and the covariance rank formulas.

A PMV ``(p_0, ..., p_r)`` is identified with its probability generating
function ``sum p_j t^j``.  The degree of the greatest common divisor of a
family of such polynomials determines the rank of the limiting covariance
matrix of the convolution statistic: for interior PMVs the rank is
``s - deg gcd`` where ``s`` is the total support degree, and in general
that value minus the number of zero PMV entries is a lower bound.

Floating-point gcds are ill-posed, so the gcd of several polynomials is
read from one SVD of their generalized Sylvester matrix (the stacked
convolution-transpose blocks of every input): the degree is the matrix's
nullity at a singular-value cut, and the coefficients are the common null
vector of the Hankel windows of its null space (``_sylvester_gcd``).

This module is the one owner of every rank decision: the gcd of the
leave-one-out PGFs (``_sides_gcd``, one SVD of the covariance's own
stacked factor with the size-derived cut ``max(shape) * eps``, read from
the same ``pmv._products`` pass as the covariance), the
numeric eigenvalue count (``_numeric_rank``) and the rank formulas
``s - deg g`` and ``s - deg g - zeros`` (``_rank_formula``).  The public
``gcd_degree`` / ``gcd_many`` take a relative cut, ``GCD_TOL`` by
default; ``RANK_TOL`` is the eigenvalue cut.  Every one of these cuts,
and the trim of trailing coefficients, is ``symlin._above_cut`` at its
own tolerance.  ``covariance_rank``, the tests' rank policies and the
oracle statistics in :mod:`convstat.hyptest` all read ``_rank_formula``
and ``_numeric_rank``; none keeps a copy.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import covest, symlin
from .errors import DimensionMismatch, DomainError, NeedTwoVariables, ZeroInput
from .pmv import PMV, _as_pmv, _conv_matrix, _products

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

# Default relative singular-value cut of the public gcd_degree / gcd_many;
# the rank path cuts at max(shape) * eps instead.
GCD_TOL = 1e-9
# Relative eigenvalue threshold for numeric rank decisions.
RANK_TOL = 1e-10

# Trailing coefficients at or below 1e-14 of the largest (some tens of
# eps) are roundoff, not a real top coefficient, and are dropped.
_TRIM_TOL = 1e-14


@dataclass(frozen=True)
class GcdResult:
    """Numerically computed gcd of coefficient vectors.

    ``degree`` is the SVD-certified gcd degree.  ``gcd_coeffs`` is the
    recovered coefficient vector normalized to sum 1 (the polynomial
    normalization ``u(1) = 1``); when that sum is negligible relative to
    the coefficient scale the normalization is unstable:
    ``unstable_normalization`` is set and the largest-magnitude entry is
    scaled to 1 instead.
    ``residual`` is ``sigma_rank / sigma_max`` of the Sylvester matrix,
    the smallest singular value kept above the cut over the largest: small
    values flag a borderline degree decision.  It is 1 when an input is
    constant and no decomposition is taken.
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
    ``numeric_rank`` counts eigenvalues with ``|lambda|`` above
    ``RANK_TOL * max|lambda|`` (``symlin._above_cut``).
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
        raise DimensionMismatch("coefficient vectors must be 1-D")
    keep = np.nonzero(symlin._above_cut(vec, _TRIM_TOL))[0]
    if not keep.size:
        raise ZeroInput("zero polynomial")
    return vec[: keep[-1] + 1]


def _normalize(g: np.ndarray):
    # A sum below 1e-8 of the peak has lost half the digits to
    # cancellation, so the sum-1 scaling would amplify roundoff.
    peak = float(g[np.argmax(np.abs(g))])
    total = float(g.sum())
    unstable = abs(total) < 1e-8 * abs(peak)
    return g / (peak if unstable else total), unstable


def _sylvester_gcd(polys, n: int, tol) -> GcdResult:
    """gcd of trimmed coefficient vectors from one generalized Sylvester SVD.

    Each ``f`` contributes the ``n - f.size + 1`` shifts ``t^j f`` as rows
    of ``n`` columns; when ``n`` is large enough their span is ``g`` times
    every polynomial of degree ``< n - deg g``, so ``deg g = n - rank``.
    Singular values at or below ``tol * sigma_max`` count as zero (``tol``
    is None for the size-derived cut ``max(shape) * eps``).  The shifts of
    ``g`` are orthogonal to the null space, so ``g`` is the null vector of
    the stacked length-``deg g + 1`` Hankel windows of the null vectors;
    singular vectors are computed only when the degree is positive.  A
    constant input makes the gcd 1 without a decomposition.
    """
    if min(f.size for f in polys) == 1:
        return GcdResult(degree=0, gcd_coeffs=np.array([1.0]), residual=1.0)
    stacked = np.vstack([_conv_matrix(f, n - f.size + 1).T for f in polys])
    sv = np.linalg.svd(stacked, compute_uv=False)
    if tol is None:
        tol = max(stacked.shape) * np.finfo(float).eps
    rank = int(np.sum(symlin._above_cut(sv, tol)))
    degree = n - rank
    residual = float(sv[rank - 1] / sv[0])
    if degree == 0:
        return GcdResult(degree=0, gcd_coeffs=np.array([1.0]), residual=residual)
    null = np.linalg.svd(stacked)[2][rank:]
    windows = null[:, np.arange(rank)[:, None] + np.arange(degree + 1)]
    g = np.linalg.svd(windows.reshape(-1, degree + 1))[2][-1]
    g, unstable = _normalize(g)
    return GcdResult(
        degree=degree, gcd_coeffs=g, residual=residual,
        unstable_normalization=unstable,
    )


def gcd_degree(v, w, tol: float = GCD_TOL) -> GcdResult:
    """Numerical gcd of two coefficient vectors: ``gcd_many([v, w], tol)``.

    The degree is the nullity of the Sylvester matrix ``[T(w)'; T(v)']``
    from singular values at or below ``tol * sigma_max``.
    """
    return gcd_many([v, w], tol)


def gcd_many(vs, tol: float = GCD_TOL) -> GcdResult:
    """Numerical gcd of a sequence of coefficient vectors in one SVD.

    The generalized Sylvester matrix has ``n`` columns, the two largest
    input sizes less one, which for two vectors is their Sylvester matrix.
    A single vector (``n`` its size, one row) is its own gcd, normalized.
    ``tol`` must lie in [0, 1).
    """
    if not 0.0 <= tol < 1.0:
        raise DomainError(f"gcd tolerance must lie in [0, 1), got {tol!r}")
    vs = [_trim(v) for v in vs]
    if not vs:
        raise ZeroInput("gcd_many requires at least one vector")
    n = sum(sorted(v.size - 1 for v in vs)[-2:]) + 1
    return _sylvester_gcd(vs, n, tol)


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
    return [PMV(p) for p in _products([p.probs for p in pmvs])[0]]


def _sides_gcd(loos, n: int) -> GcdResult:
    """gcd of every side's leave-one-out PGFs in one Sylvester SVD.

    ``loos`` holds each side's leave-one-out list from its
    ``pmv._products`` pass, the same one the covariance reads.  The matrix
    has ``n = max s + 1`` columns: for one side its rows are the columns of
    the covariance's factors ``T(x_(i)) = C(x_(i), r_i + 1)``, so
    ``n - rank`` is the ``deg g`` of the rank formula ``s - deg g``.  A
    smaller side (a zero-padded ED test) or a trimmed trailing zero gives
    a block more shifts, and a one-variable side contributes the identity
    ``(1,)``, so its gcd is 1.  The cut is ``max(shape) * eps * sigma_max``.
    """
    return _sylvester_gcd([_trim(f) for loo in loos for f in loo], n, None)


def _numeric_rank(values) -> int:
    """Count of eigenvalues above ``RANK_TOL * max|lambda|`` in magnitude."""
    return int(np.sum(symlin._above_cut(values, RANK_TOL)))


class _RankFormula(NamedTuple):
    """The rank formulas of one family of PMV sides (``_rank_formula``)."""

    s: int
    gcd: GcdResult
    analytic: Optional[int]
    lower: int
    zeros: int
    zero_sets: tuple


def _rank_formula(sides, loos) -> _RankFormula:
    """``s - deg g`` and ``s - deg g - zeros`` of sides of PMVs.

    ``s`` is the largest side's total support degree and ``g`` the gcd of
    every side's leave-one-out PGFs (``_sides_gcd``); ``loos`` holds each
    side's leave-one-out list from its ``pmv._products`` pass.  ``analytic`` is
    ``s - deg g`` when every PMV is interior and None otherwise;
    ``lower`` also subtracts ``zeros``, the count of zero PMV entries, and
    is not floored.  ``zero_sets`` holds each PMV's zero indices; they are
    looked up only when some PMV is not interior.
    """
    pmvs = [p for side in sides for p in side]
    s = max(sum(p.r for p in side) for side in sides)
    gcd = _sides_gcd(loos, s + 1)
    rank = s - gcd.degree
    if all(p.interior for p in pmvs):
        return _RankFormula(s, gcd, rank, rank, 0, ((),) * len(pmvs))
    zero_sets = tuple(p.zero_indices for p in pmvs)
    zeros = sum(len(z) for z in zero_sets)
    return _RankFormula(s, gcd, None, rank - zeros, zeros, zero_sets)


def covariance_rank(x_pmvs, y_pmvs=None) -> RankReport:
    """Rank analysis of the limiting covariance of the convolution statistic.

    With only ``x_pmvs`` the matrix analyzed is the goodness-of-fit
    covariance; with ``y_pmvs`` it is the two-sample sum, whose gcd is the
    gcd of the two per-side gcds.  Both sides must then have equal total
    support degree (pad caller-side otherwise).  PMVs may be given as
    ``PMV``, ``EmpiricalPMV`` or plain probability vectors.
    """
    sides = [[_as_pmv(p) for p in x_pmvs]]
    if not sides[0]:
        raise NeedTwoVariables("covariance_rank requires at least one PMV")
    s = sum(p.r for p in sides[0])
    if y_pmvs is not None:
        sides.append([_as_pmv(p) for p in y_pmvs])
        if not sides[1]:
            raise NeedTwoVariables("y side must contain at least one PMV")
        s_y = sum(p.r for p in sides[1])
        if s_y != s:
            raise DimensionMismatch(
                f"total support degree differs between sides: {s} vs {s_y}"
            )
    _, cov, loos = covest._estimate([[p.probs for p in side] for side in sides],
                                    np.ones(sum(map(len, sides))), s + 1)
    formula = _rank_formula(sides, loos)
    dec = symlin._spectrum(cov)
    return RankReport(
        s=formula.s,
        analytic_rank=formula.analytic,
        lower_bound=max(0, formula.lower),
        numeric_rank=_numeric_rank(dec.values),
        zero_index_sets=formula.zero_sets,
        gcd=formula.gcd,
        eigenvalues=dec.values,
    )
