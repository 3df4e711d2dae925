"""Limiting covariance matrices of the convolution statistic.

The scaled estimation error of a convolution of empirical PMVs is
asymptotically normal with covariance

    sum_i c_i T(x_(i)) S(x_i) T(x_(i))'

where ``x_(i)`` is the convolution of all PMVs except the i-th, ``S`` is
the multinomial covariance and ``c_i = m / n_i`` weights unequal sample
sizes by the smallest one.  This module assembles that matrix from true
PMVs (``psi``/``xi``) and from data (``psi_hat``/``xi_hat``), plus the
sub-independence covariance ``upsilon_hat``; the tests, ``covariance_rank``
and the simulation read every side sum from one estimate, ``_estimate``.

Every assembly is ``F F'`` (``_weighted_cov``) of one stacked factor
(``_factor``)

    F = (S' - z 1') diag(sqrt(w)),   S' = [T(x_(1)) ... T(x_(k))],

with ``w`` the concatenated ``c_i p_i`` and ``z`` the full convolution,
all read from one ``pmv._products`` pass.  Since ``T(x_(i)) p_i = z`` and
``sum p_i = 1``, ``S' diag(w) S = sum_i c_i T(x_(i)) diag(p_i) T(x_(i))'``
and ``S' w = (sum_i c_i) z``, so ``F F'`` is the sum above in exact
arithmetic; as a Gram matrix it is positive semi-definite to roundoff.
When every PMV is a point mass each weighted column of ``S'`` is exactly
``z``, so ``F`` is exactly zero, which the tests read as their Pearson
fallback.
"""

import numpy as np

from .errors import (
    DegenerateVariable,
    DimensionMismatch,
    DomainError,
    EmptySizes,
    InputError,
    NeedTwoVariables,
    NotPaired,
)
from .pmv import (
    MAX_SUPPORT, EmpiricalPMV, PMV, _BLOCK, _as_pmv, _conv_matrix, _products,
    _real_array, _require_finite, _side_pmvs, _support_degree,
    empirical_pmv, multinomial_cov,
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
    sizes = _real_array(sizes, EmptySizes, "sample sizes").astype(float)
    if not (sizes.size and sizes.min() >= 1 and sizes.max() < np.inf):
        raise EmptySizes(f"need finite sample sizes >= 1, got {sizes.tolist()}")
    return sizes.min() / sizes


def _factor(probs, weights=None, products=None) -> np.ndarray:
    """The stacked factor ``F`` whose ``F F'`` is :func:`_weighted_cov`.

    ``F = (S' - z 1') diag(sqrt(w))`` with ``S' = [T(x_(1)) ... T(x_(k))]``,
    ``w`` the concatenated ``c_i p_i`` and ``z`` the full convolution.
    ``products`` is the ``(leave-one-out list, convolution)`` pair of
    ``pmv._products``, computed here when not given.  A stack of arrays
    gives a stack of factors.
    """
    probs = [np.asarray(p, dtype=float) for p in probs]
    if weights is None:
        weights = np.ones(len(probs))
    weights = np.asarray(weights, dtype=float)
    if weights.size != len(probs):
        raise EmptySizes(
            f"{len(probs)} PMVs but {weights.size} weights supplied"
        )
    loo, z = _products(probs) if products is None else products
    s_t = np.concatenate(
        [_conv_matrix(x, p.shape[-1]) for x, p in zip(loo, probs)], axis=-1
    )
    w = np.concatenate([c * p for c, p in zip(weights, probs)], axis=-1)
    return (s_t - z[..., :, None]) * np.sqrt(w)[..., None, :]


def _weighted_cov(probs, weights=None, products=None) -> np.ndarray:
    """``sum_i c_i T(x_(i)) S(x_i) T(x_(i))'`` as ``F F'`` (``_factor``).

    ``probs`` holds one probability array per variable; leading axes
    ``(..., r_i + 1)`` give a stack of matrices.  A single variable has
    identity T; ``weights`` default to all ones.
    """
    f = _factor(probs, weights, products)
    return f @ np.swapaxes(f, -1, -2)


def _pad(a, size: int, axes: int) -> np.ndarray:
    """Zero-pad the last ``axes`` axes of ``a`` to ``size``."""
    width = size - a.shape[-1]
    if not width:
        return a
    return np.pad(a, [(0, 0)] * (a.ndim - axes) + [(0, width)] * axes)


def _estimate(sides, weights, size):
    """``(convolutions, covariance, leave-one-out lists)`` of sides of
    probability arrays ``(..., r_i + 1)``, from one ``pmv._products`` pass
    per side; ``weights`` holds the ``c_i`` in side order.  Each side's
    convolution and the sum of the sides' covariances are zero-padded to
    ``size`` cells."""
    weights = iter(weights)
    convs, cov, loos = [], 0.0, []
    for side in sides:
        loo, conv = products = _products(side)
        loos.append(loo)
        convs.append(_pad(conv, size, 1))
        side_weights = [next(weights) for _ in side]
        cov = cov + _pad(_weighted_cov(side, side_weights, products), size, 2)
    return convs, cov, loos


def _true_probs(pmvs, k_min: int, name: str) -> list:
    """Probability arrays of at least ``k_min`` true PMVs, none of them a
    point mass: the limiting covariance is undefined for a constant."""
    pmvs = [_as_pmv(p) for p in pmvs]
    if len(pmvs) < k_min:
        raise NeedTwoVariables(
            f"{name} requires k >= {k_min} PMVs, got {len(pmvs)}"
        )
    for i, p in enumerate(pmvs):
        if p.degenerate:
            raise DegenerateVariable(
                f"variable {i} has a point-mass PMV; the limiting covariance "
                "is undefined for constant variables"
            )
    return [p.probs for p in pmvs]


def _true_cov(pmvs, weights, k_min: int, name: str) -> np.ndarray:
    """:func:`_weighted_cov` of true PMVs (:func:`_true_probs`) with
    weights that are finite and > 0, where ``sqrt(c_i p_i)`` is real."""
    probs = _true_probs(pmvs, k_min, name)
    if weights is not None:
        w = _real_array(weights, DomainError, f"{name} weights")
        if not np.all((w > 0) & (w < np.inf)):  # NaN fails too
            raise DomainError(
                f"{name} weights must be finite and > 0, got {w.tolist()}")
    return _weighted_cov(probs, weights)


def psi(pmvs, weights=None) -> np.ndarray:
    """Covariance of the goodness-of-fit statistic from true PMVs (k >= 2)."""
    return _true_cov(pmvs, weights, 2, "psi")


def xi(pmvs, weights=None) -> np.ndarray:
    """Same assembly for the second sample's side (h >= 1).

    For h = 1 the leave-one-out convolution is the identity, so the result
    collapses to ``c * S(y_1)``.
    """
    return _true_cov(pmvs, weights, 1, "xi")


def _plug_in(samples, support_lens, k_min, name) -> np.ndarray:
    epmvs = _side_pmvs(samples, support_lens)[1]
    if len(epmvs) < k_min:
        raise NeedTwoVariables(
            f"{name} requires k >= {k_min} variables, got {len(epmvs)}")
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
    _real_array(arr, NotPaired, "paired data")
    _require_finite(arr, "paired data")
    if arr.shape[0] < 2:
        raise NotPaired(f"paired data needs m >= 2 rows, got {arr.shape[0]}")
    return arr


def _column_failure(arr, support_lens):
    """Raise the error of a table that failed a check of
    :func:`_paired_estimates`, found on the whole table as ``empirical_pmv``
    finds it, column by column, so neither the class nor the offender
    depends on the block; with every column valid, the row sums' support
    degree is out of range."""
    lens = []
    for j, r in enumerate(support_lens):
        column = np.ascontiguousarray(arr[:, j])
        r = int(column.max()) if r is None else r
        lens.append(empirical_pmv(column, r).pmv.r)
    _support_degree(sum(lens))


def _from_counts(counts, r, n) -> EmpiricalPMV:
    """Empirical PMV on ``{0, ..., r}`` of ``n`` observations with these
    counts (no longer than ``r + 1``)."""
    counts = _add_counts(np.zeros(r + 1, np.int64), counts)
    return EmpiricalPMV(pmv=PMV(counts / n), n=n)


def _add_counts(total, counts):
    """Sum of two count vectors of any lengths; ``counts`` may be reused."""
    if counts.size > total.size:
        total, counts = counts, total
    total[:counts.size] += counts
    return total


def _paired_estimates(arr, support_lens=None):
    """Column PMVs, row-sum PMV, ``upsilon_hat`` and the convolution of the
    column PMVs of an m x k table, the estimate from :func:`_estimate`.

    The table is read once, in blocks of ``_BLOCK`` rows: each column of a
    block is copied into one int64 scratch vector, checked against its
    support, counted and added into a row-sum scratch vector, which is
    counted in turn.  So memory is two 256 KB scratch vectors and the
    counts, however many rows the table has.
    A block that fails a check sends the table to
    :func:`_column_failure`, which raises what ``empirical_pmv`` raises on
    the first bad column.
    """
    m, k = arr.shape
    if support_lens is None:
        support_lens = [None] * k
    elif len(support_lens) != k:
        raise DimensionMismatch(
            f"{len(support_lens)} support lengths for {k} columns"
        )
    try:
        caps = [MAX_SUPPORT if r is None else _support_degree(r)
                for r in support_lens]
    except InputError:
        _column_failure(arr, support_lens)
    rows = min(m, _BLOCK)
    column, row_sums = np.empty(rows, np.int64), np.empty(rows, np.int64)
    floats = arr.dtype.kind == "f"
    counts = [np.zeros(0, np.int64) for _ in range(k)]
    sum_counts = np.zeros(0, np.int64)
    # support degrees: a given one, else the largest value seen so far
    lens = [0 if r is None else cap for r, cap in zip(support_lens, caps)]
    for start in range(0, m, rows):
        block = arr[start:start + rows]
        col, sums = column[:len(block)], row_sums[:len(block)]
        for j in range(k):
            np.copyto(col, block[:, j], casting="unsafe")
            lo, hi = int(col.min()), int(col.max())
            # a float table must hold integers: the cast changes nothing
            if (lo < 0 or hi > caps[j]
                    or floats and not np.array_equal(col, block[:, j])):
                _column_failure(arr, support_lens)
            counts[j] = _add_counts(counts[j], np.bincount(col))
            lens[j] = max(lens[j], hi)
            if j:
                sums += col
            else:
                np.copyto(sums, col)
        if sum(lens) > MAX_SUPPORT:  # before the row sums are counted
            _column_failure(arr, support_lens)
        sum_counts = _add_counts(sum_counts, np.bincount(sums))
    epmvs = [_from_counts(c, r, m) for c, r in zip(counts, lens)]
    z_hat = _from_counts(sum_counts, sum(lens), m)
    (conv,), psi_m, _ = _estimate([[e.pmv.probs for e in epmvs]], np.ones(k),
                                  z_hat.pmv.support_len)
    return epmvs, z_hat, multinomial_cov(z_hat.pmv) - psi_m, conv


def upsilon_hat(paired, support_lens=None) -> np.ndarray:
    """Sub-independence covariance estimate ``S(z_hat) - psi_hat``.

    ``paired`` is an m x k table of joint observations; ``z_hat`` is the
    empirical PMV of the row sums on the combined support.
    """
    return _paired_estimates(_paired_matrix(paired), support_lens)[2]
