"""Dense symmetric linear algebra used by the test statistics.

Symmetric matrices are plain ``numpy.ndarray`` objects.  The eigensolver
is LAPACK's ``syevd`` through ``numpy.linalg.eigh``, which reads one
triangle.  So the public entry points (:func:`eigh`, :func:`pinv`,
:func:`rank_r_approx`) pass a caller's matrix through
:func:`ensure_symmetric` first.  The package's own matrices go to
:func:`_spectrum` unchecked: each is a Gram matrix ``F F'``, or such a
matrix taken from ``diag(p) - p p'``, so it is finite and symmetric bit
for bit, and the check and ``(A + A') / 2`` would change nothing (a test
pins this).  The eigenvalues carry absolute errors of order
``eps * ||A||``; the covariance matrices here are singular by
construction, so their zero eigenvalues come out as roundoff of either
sign at that scale, and every rank or pseudo-inverse cut is taken
relative to the largest magnitude.  That cut, ``|x| > tol * max|x|``, is
made in one place, :func:`_above_cut`; the pseudo-inverse here, the Wald
forms, fixed-rank check and oracle whitener in :mod:`convstat.hyptest`,
and the eigenvalue, singular-value and trailing-coefficient cuts in
:mod:`convstat.polyrank` all read it.

Every consumer inside the package reads :func:`_spectrum`: each squares
projections or forms ``V diag V'``, where a column's sign cancels exactly,
so only the public :func:`eigh` pays for the sign rule.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    NoConvergence,
    NotSymmetric,
    RankOutOfRange,
)

__all__ = [
    "EigenDecomp",
    "ensure_symmetric",
    "eigh",
    "rank_r_approx",
    "pinv",
    "quad_form",
    "chi2_sf",
    "PINV_TOL",
]

# Relative eigenvalue cutoff for pseudo-inversion; matches double-precision
# machine epsilon scale (1e-15).
PINV_TOL = 1e-15

# Asymmetry allowed relative to max(max|A|, 1): well above the eps-level
# roundoff of a covariance assembled in floating point, far below any
# real asymmetry of an input.
_SYM_TOL = 1e-12


@dataclass(frozen=True)
class EigenDecomp:
    """Spectral decomposition ``A == vectors @ diag(values) @ vectors.T``.

    For a stack the arrays carry the same leading axes and the identity
    holds per matrix.  ``values`` is sorted descending; ``vectors`` holds
    orthonormal columns, which :func:`eigh` signs so that each column's
    first non-negligible component is positive (reproducible for ties).
    """

    values: np.ndarray
    vectors: np.ndarray


def ensure_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Validate finiteness and symmetry within 1e-12 * max|A|.

    Accepts one matrix or a stack of shape ``(..., d, d)``, each checked
    against its own scale.  Returns (A + A') / 2.  NaN or infinite entries
    raise ``DomainError``; an empty matrix or stack ``DimensionMismatch``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotSymmetric(f"{name} must be square, got shape {a.shape}")
    if a.size == 0:
        raise DimensionMismatch(f"{name} is empty, got shape {a.shape}")
    scale = np.abs(a).max(axis=(-2, -1))
    if not np.isfinite(scale).all():  # max propagates NaN
        raise DomainError(f"{name} has non-finite entries")
    at = np.swapaxes(a, -1, -2)
    asym = np.abs(a - at).max(axis=(-2, -1))
    if (asym > _SYM_TOL * np.maximum(scale, 1.0)).any():
        raise NotSymmetric(f"{name} is not symmetric within tolerance")
    return 0.5 * (a + at)


def _above_cut(values, tol) -> np.ndarray:
    """Mask of ``|values| > tol * max|values|`` along the last axis.

    Each row of a stack is cut against its own maximum; a zero (or empty)
    spectrum keeps nothing.
    """
    mag = np.abs(values)
    return mag > tol * mag.max(axis=-1, keepdims=True, initial=0.0)


def _spectrum(a) -> EigenDecomp:
    """:func:`eigh` of an exactly symmetric ``a`` without the check or the
    sign rule.  LAPACK's ascending order is reversed as a copy (a reversed
    view would change the summation order of a later ``@``), or stably
    sorted when a stack holds a tie."""
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from None
    if np.all(values[..., 1:] > values[..., :-1]):
        return EigenDecomp(values[..., ::-1].copy(), vectors[..., ::-1].copy())
    order = np.argsort(-values, axis=-1, kind="stable")
    return EigenDecomp(
        values=np.take_along_axis(values, order, axis=-1),
        vectors=np.take_along_axis(vectors, order[..., None, :], axis=-1),
    )


def eigh(a) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix by LAPACK (``syevd``).

    A stack ``(..., d, d)`` gives ``values`` of shape ``(..., d)`` and
    ``vectors`` of shape ``(..., d, d)``, each matrix ordered and
    sign-fixed on its own.  Raises ``NoConvergence`` when LAPACK reports
    a failure.
    """
    dec = _spectrum(ensure_symmetric(a))
    # A column's first component is its first entry above 1e-12 of its
    # largest: far above the roundoff of an entry that is zero exactly.
    big = _above_cut(np.swapaxes(dec.vectors, -1, -2), 1e-12)
    first = big.argmax(axis=-1)[..., None, :]
    lead = np.take_along_axis(dec.vectors, first, axis=-2)
    return EigenDecomp(dec.values, dec.vectors * np.where(lead < 0.0, -1.0, 1.0))


def _from_spectrum(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Symmetric ``V diag(values) V'``, per matrix of a stack."""
    out = (vectors * values[..., None, :]) @ np.swapaxes(vectors, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def rank_r_approx(a, r: int) -> np.ndarray:
    """Best symmetric rank-r approximation (truncated eigendecomposition).

    Keeps the r algebraically largest eigenvalues and zeroes the rest; ties
    are broken by the deterministic ordering of :func:`eigh`.  A stack of
    matrices gives a stack of approximations.
    """
    dec = _spectrum(ensure_symmetric(a))
    d = dec.values.shape[-1]
    if not 0 < r <= d:
        raise RankOutOfRange(f"rank must be in 1..{d}, got {r}")
    kept = dec.values.copy()
    kept[..., r:] = 0.0
    return _from_spectrum(dec.vectors, kept)


def pinv(a, tol: float = PINV_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via the eigendecomposition.

    Eigenvalues with ``|lam| > tol * max|lam|`` are inverted, others
    zeroed.  The zero matrix maps to the zero matrix.  A stack of matrices
    gives a stack of pseudo-inverses.
    """
    dec = _spectrum(ensure_symmetric(a))
    keep = _above_cut(dec.values, tol)
    inv = np.where(keep, 1.0 / np.where(keep, dec.values, 1.0), 0.0)
    return _from_spectrum(dec.vectors, inv)


def quad_form(vec, a) -> float:
    """Quadratic form ``v' A v``."""
    vec = np.asarray(vec, dtype=float)
    a = np.asarray(a, dtype=float)
    if vec.ndim != 1 or a.shape != (vec.size, vec.size):
        raise DimensionMismatch(
            f"quad_form got vector of size {vec.size} and matrix {a.shape}"
        )
    return float(vec @ a @ vec)


def chi2_sf(t: float, r: int) -> float:
    """Survival function ``P(chi2(r) >= t)`` for integer dof ``r >= 1``.

    Evaluates the regularized upper incomplete gamma function Q(r/2, t/2)
    by the exact finite series (even r) or the erfc-based recurrence
    (odd r); both are accurate well below 1e-12 absolute error.
    """
    if isinstance(r, bool) or int(r) != r or int(r) < 1:
        raise DomainError(f"degrees of freedom must be an integer >= 1, got {r!r}")
    r = int(r)
    t = float(t)
    if math.isnan(t):
        raise DomainError("chi2_sf received NaN")
    if t < 0.0:
        raise DomainError(f"chi2_sf requires t >= 0, got {t}")
    if math.isinf(t):
        return 0.0
    x = 0.5 * t
    if r % 2 == 0:
        # Q(k, x) = exp(-x) * sum_{i<k} x^i / i!  with k = r/2.
        term = math.exp(-x)
        total = term
        for i in range(1, r // 2):
            term *= x / i
            total += term
    else:
        # Q(1/2, x) = erfc(sqrt(x)); Q(a+1, x) = Q(a, x) + x^a e^-x / Gamma(a+1).
        total = math.erfc(math.sqrt(x))
        term = 2.0 * math.sqrt(x) * math.exp(-x) / math.sqrt(math.pi)
        a = 0.5
        for _ in range((r - 1) // 2):
            total += term
            a += 1.0
            term *= x / a
    return min(max(total, 0.0), 1.0)
