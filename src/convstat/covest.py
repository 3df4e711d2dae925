"""Limiting covariance matrices of the convolution statistic.

The scaled estimation error of a convolution of empirical PMVs is
asymptotically normal with covariance

    sum_i c_i T(x_(i)) S(x_i) T(x_(i))'

where ``x_(i)`` is the convolution of all PMVs except the i-th, ``S`` is
the multinomial covariance and ``c_i = m / n_i`` weights unequal sample
sizes by the smallest one.  This module assembles that matrix from true
PMVs (``psi``/``xi``) and from data (``psi_hat``/``xi_hat``), plus the
sub-independence covariance ``upsilon_hat``.
"""

import numpy as np

from .errors import (
    DegenerateVariable,
    EmptySizes,
    NeedTwoVariables,
    NotPaired,
)
from .pmv import (
    EmpiricalPMV, PMV, _conv_matrix, _leave_one_out, _multinomial_cov,
    _require_finite, empirical_pmv, multinomial_cov,
)

__all__ = [
    "weights_from_sizes",
    "psi",
    "psi_hat",
    "xi",
    "xi_hat",
    "upsilon_hat",
]


def weights_from_sizes(sizes) -> np.ndarray:
    """Finite-sample weights ``c_i = min(sizes) / n_i``."""
    sizes = np.asarray(sizes, dtype=float)
    if sizes.size == 0:
        raise EmptySizes("at least one sample size is required")
    if np.any(sizes < 1):
        raise EmptySizes(f"sample sizes must be >= 1, got {sizes.tolist()}")
    return sizes.min() / sizes


def _as_pmvs(pmvs) -> list:
    out = []
    for p in pmvs:
        if isinstance(p, EmpiricalPMV):
            out.append(p.pmv)
        elif isinstance(p, PMV):
            out.append(p)
        else:
            out.append(PMV(p))
    return out


def _weighted_cov(probs, weights=None) -> np.ndarray:
    """``sum_i c_i T(x_(i)) S(x_i) T(x_(i))'`` for any count k >= 1.

    ``probs`` holds one probability array per variable; leading axes
    ``(..., r_i + 1)`` give a stack of matrices.  A single variable has
    identity T; ``weights`` default to all ones.
    """
    probs = [np.asarray(p, dtype=float) for p in probs]
    if weights is None:
        weights = np.ones(len(probs))
    weights = np.asarray(weights, dtype=float)
    if weights.size != len(probs):
        raise EmptySizes(
            f"{len(probs)} PMVs but {weights.size} weights supplied"
        )
    out = 0.0
    for c, p, other in zip(weights, probs, _leave_one_out(probs)):
        t = _conv_matrix(other, p.shape[-1])
        out = out + c * (t @ _multinomial_cov(p) @ np.swapaxes(t, -1, -2))
    return out


def _check_not_degenerate(pmvs):
    for i, p in enumerate(pmvs):
        if p.degenerate:
            raise DegenerateVariable(
                f"variable {i} has a point-mass PMV; the limiting covariance "
                "is undefined for constant variables"
            )


def psi(pmvs, weights=None) -> np.ndarray:
    """Covariance of the goodness-of-fit statistic from true PMVs (k >= 2)."""
    pmvs = _as_pmvs(pmvs)
    if len(pmvs) < 2:
        raise NeedTwoVariables(f"psi requires k >= 2 PMVs, got {len(pmvs)}")
    _check_not_degenerate(pmvs)
    return _weighted_cov([p.probs for p in pmvs], weights)


def xi(pmvs, weights=None) -> np.ndarray:
    """Same assembly for the second sample's side (h >= 1).

    For h = 1 the leave-one-out convolution is the identity, so the result
    collapses to ``c * S(y_1)``.
    """
    pmvs = _as_pmvs(pmvs)
    if len(pmvs) < 1:
        raise NeedTwoVariables("xi requires at least one PMV")
    _check_not_degenerate(pmvs)
    return _weighted_cov([p.probs for p in pmvs], weights)


def _epmvs_from_samples(samples, support_lens=None) -> list:
    samples = [np.asarray(s) for s in samples]
    if support_lens is None:
        support_lens = [int(np.max(s)) if s.size else 0 for s in samples]
    return [empirical_pmv(s, r) for s, r in zip(samples, support_lens)]


def _plug_in(samples, support_lens, k_min, name) -> np.ndarray:
    samples = list(samples)
    if len(samples) < k_min:
        raise NeedTwoVariables(
            f"{name} requires k >= {k_min} variables, got {len(samples)}"
        )
    epmvs = _epmvs_from_samples(samples, support_lens)
    weights = weights_from_sizes([e.n for e in epmvs])
    return _weighted_cov([e.pmv.probs for e in epmvs], weights)


def psi_hat(samples, support_lens=None) -> np.ndarray:
    """Plug-in estimate of :func:`psi` from per-variable observations.

    Point-mass empirical PMVs are allowed here; when every variable's
    sample is constant the result is the zero matrix, which callers detect
    to switch to the Pearson fallback.
    """
    return _plug_in(samples, support_lens, 2, "psi_hat")


def xi_hat(samples, support_lens=None) -> np.ndarray:
    """Plug-in estimate of :func:`xi` (h >= 1)."""
    return _plug_in(samples, support_lens, 1, "xi_hat")


def _paired_matrix(paired) -> np.ndarray:
    try:
        arr = np.asarray(paired)
    except ValueError:
        raise NotPaired("paired data must be a rectangular m x k table") from None
    if arr.dtype == object or arr.ndim != 2:
        raise NotPaired("paired data must be a rectangular m x k table")
    _require_finite(arr, "paired data")
    if arr.shape[0] < 2:
        raise NotPaired(f"paired data needs m >= 2 rows, got {arr.shape[0]}")
    return arr


def upsilon_hat(paired, support_lens=None) -> np.ndarray:
    """Sub-independence covariance estimate ``S(z_hat) - psi_hat``.

    ``paired`` is an m x k table of joint observations; ``z_hat`` is the
    empirical PMV of the row sums on the combined support.
    """
    arr = _paired_matrix(paired)
    columns = [arr[:, j] for j in range(arr.shape[1])]
    epmvs = _epmvs_from_samples(columns, support_lens)
    s = sum(e.pmv.r for e in epmvs)
    z_hat = empirical_pmv(arr.sum(axis=1), s)
    psi_m = _weighted_cov([e.pmv.probs for e in epmvs])
    return multinomial_cov(z_hat.pmv) - psi_m
