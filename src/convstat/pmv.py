"""Probability mass vectors on integer supports.

A PMV represents the distribution of a random variable taking values in
``{0, ..., r}``.  The module provides empirical estimation from samples,
discrete convolution (the distribution of a sum of independent variables),
the one prefix/suffix pass that gives a family's leave-one-out
convolutions and its full convolution together (``_products``), the banded
convolution matrix, and the multinomial covariance matrix.
It owns the two input readers: ``_side_pmvs`` (samples to empirical PMVs)
and ``_as_pmv`` (a PMV argument), and one dtype rule, ``_real_array``.
"""

import math
import numbers
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyProduct,
    EmptySample,
    InputError,
    InvalidPMV,
    SupportViolation,
)

__all__ = [
    "PMV",
    "EmpiricalPMV",
    "empirical_pmv",
    "convolve",
    "convolve_all",
    "conv_matrix",
    "multinomial_cov",
]

# Largest support degree an empirical PMV accepts: its counts take
# 8 * (r + 1) bytes, so an absurd r is refused before anything is allocated.
MAX_SUPPORT = 2**24

# Elements per block of the passes over bulk data (canonicalization, the
# paired-table counts, the simulation's uniform draws): one float64 block
# is 256 KB, so a block and its scratch stay in cache.
_BLOCK = 2**15

# Drift beyond this triggers renormalization; within it, entries are kept
# bit-for-bit so exact-equality tests on convolutions stay exact.
_SUM_TOL = 1e-12


class PMV:
    """Probability mass vector ``(p_0, ..., p_r)`` on ``{0, ..., r}``.

    Entries must be nonnegative and finite.  If the sum drifts from 1 by
    more than 1e-12 (accumulated convolution roundoff) the vector is
    renormalized; otherwise it is stored untouched.

    Attributes
    ----------
    probs : read-only ndarray of the probabilities.
    r : support degree (``len(probs) - 1``).
    interior : True iff every entry is strictly positive.
    degenerate : True iff the PMV is a point mass (some entry equals 1,
        which includes the single-entry identity ``(1.0,)``).
    """

    __slots__ = ("_probs",)

    def __init__(self, probs):
        p = np.array(_real_array(probs, InvalidPMV, "PMV entries"), float)
        if p.ndim != 1 or p.size == 0:
            raise InvalidPMV("PMV must be a nonempty 1-D vector")
        # Two reductions on the valid path: NaN fails the minimum test and
        # an infinite entry the sum test; the message is found on failure.
        if not p.min() >= 0.0:
            raise _invalid(p)
        with np.errstate(over="ignore"):  # an overflowing sum is refused below
            total = float(p.sum())
        if not total < math.inf:
            raise _invalid(p)
        if total <= 0.0:
            raise InvalidPMV("PMV entries must have positive sum")
        if abs(total - 1.0) > _SUM_TOL:
            p /= total
        p.flags.writeable = False
        self._probs = p

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    @property
    def r(self) -> int:
        return self._probs.size - 1

    @property
    def support_len(self) -> int:
        return self._probs.size

    @property
    def interior(self) -> bool:
        return bool(np.all(self._probs > 0.0))

    @property
    def degenerate(self) -> bool:
        return bool(np.max(self._probs) == 1.0)

    @property
    def zero_indices(self) -> tuple:
        """Indices of zero entries (the sets ``L_i`` of the rank bound)."""
        return tuple(int(i) for i in np.nonzero(self._probs == 0.0)[0])

    def __len__(self) -> int:
        return self._probs.size

    def __getitem__(self, i):
        return self._probs[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PMV):
            return NotImplemented
        return np.array_equal(self._probs, other._probs)

    def __hash__(self):
        return hash(self._probs.tobytes())

    def __repr__(self) -> str:
        body = ", ".join(f"{v:g}" for v in self._probs)
        return f"PMV(({body}))"


def _invalid(p) -> InvalidPMV:
    """The error for entries that fail ``min >= 0`` or have no finite sum."""
    if not np.all(np.isfinite(p)):
        return InvalidPMV("PMV entries must be finite")
    if p.min() < 0.0:
        return InvalidPMV("PMV entries must be nonnegative")
    return InvalidPMV("PMV entries must have a finite sum")


@dataclass(frozen=True)
class EmpiricalPMV:
    """Maximum-likelihood PMV estimate together with its sample count."""

    pmv: PMV
    n: int


def _as_pmv(p) -> PMV:
    """A ``PMV`` as is, an ``EmpiricalPMV``'s ``.pmv``, else ``PMV(p)``."""
    p = p.pmv if isinstance(p, EmpiricalPMV) else p
    return p if isinstance(p, PMV) else PMV(p)


def empirical_pmv(samples, r: int) -> EmpiricalPMV:
    """Estimate a PMV on ``{0, ..., r}`` by relative frequencies.

    Raises ``EmptySample`` for empty input, ``DimensionMismatch`` for
    input that is not 1-D, ``DomainError`` for NaN, infinity or non-real
    values, ``InputError`` for a non-integral ``r``, and
    ``SupportViolation`` for an ``r`` outside ``0..MAX_SUPPORT`` or when
    any observation is non-integral or outside ``{0, ..., r}``.
    """
    values = _real_array(samples, DomainError, "observations")
    if values.size == 0:
        raise EmptySample("no observations supplied")
    values = _integer_values(values, "observations")
    counts = _counts(values, _support_degree(r), "observations")
    return EmpiricalPMV(pmv=PMV(counts / values.size), n=values.size)


def _side_pmvs(samples, support_lens=None):
    """``(arrays, empirical PMVs)`` of one side's nonempty, finite, real
    samples on ``support_lens`` or their maxima, one int64 copy at a time."""
    arrays = [_real_array(v, DomainError, f"variable {i} values")
              for i, v in enumerate(samples)]
    for i, v in enumerate(arrays):
        if v.size == 0:
            raise EmptySample(f"variable {i} has no observations")
        _require_finite(v, f"variable {i}")
    lens = ([int(np.max(v)) for v in arrays] if support_lens is None
            else _lengths(support_lens, len(arrays), "variables"))
    return arrays, [empirical_pmv(v, r) for v, r in zip(arrays, lens)]


def _lengths(support_lens, k: int, what: str) -> list:
    """``support_lens`` as a list of one entry for each of the ``k``
    ``what``; a scalar or another count raises ``DimensionMismatch``."""
    lens = list(support_lens) if np.iterable(support_lens) else None
    if lens is None or len(lens) != k:
        count = "scalar" if lens is None else len(lens)
        raise DimensionMismatch(f"{count} support lengths for {k} {what}")
    return lens


def _counts(values, r: int, what: str, high=None) -> np.ndarray:
    """Cell counts on ``{0, ..., r}`` of the integer 1-D ``values``: one
    bound check on the maximum (``high``, when given) keeps them small,
    ``bincount`` refuses a negative value itself, and either failure
    raises ``SupportViolation`` with the observed range."""
    try:
        if (values.max() if high is None else high) <= r:
            return np.bincount(values, minlength=r + 1)
    except ValueError:
        pass
    raise SupportViolation(
        f"{what} must lie in {{0, ..., {r}}}; "
        f"got range [{values.min()}, {values.max()}]"
    )


def _support_degree(r) -> int:
    """``r`` as an int in ``0..MAX_SUPPORT``: a fraction raises
    ``InputError`` and a value outside the range ``SupportViolation``."""
    r = _integer("support degree r", r)
    if not 0 <= r <= MAX_SUPPORT:
        raise SupportViolation(
            f"support degree r must lie in 0..{MAX_SUPPORT}, got {r}"
        )
    return r


def _real_array(values, error, what: str) -> np.ndarray:
    """``values`` as an array of dtype kind b, i, u or f, or of objects that
    are all ``numbers.Real`` (Python ints beyond int64); else ``error``."""
    try:
        values = np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise error(f"{what} must be real numbers, got a ragged "
                    "nesting") from None
    if not (values.dtype.kind in "biuf" or values.dtype == object and all(
            isinstance(v, numbers.Real) for v in values.flat)):
        raise error(f"{what} must be real numbers, got {values.dtype}")
    return values


def _require_finite(values, what: str) -> None:
    """Raise ``DomainError`` when a float array holds NaN or infinity.

    The test is two reductions, since NaN or an infinity shows in the
    minimum or the maximum; the offender is looked up only on failure.
    """
    if values.dtype.kind == "f" and values.size and not (
            np.isfinite(values.min()) and np.isfinite(values.max())):
        offender = values.ravel()[np.argmin(np.isfinite(values.ravel()))]
        raise DomainError(f"{what}: non-finite value {offender}")


def _integer_values(values: np.ndarray, what: str) -> np.ndarray:
    """An integer 1-D array of the real ``values`` (``_real_array``):
    another shape raises ``DimensionMismatch``, NaN or infinity
    ``DomainError``, and a value outside int64 (decided on the whole array)
    or a fraction ``SupportViolation``; other dtypes are cast in blocks, so
    the int64 result is the one allocation that grows with the input."""
    if values.ndim != 1:
        raise DimensionMismatch(
            f"{what} must be a 1-D array, got shape {values.shape}"
        )
    if values.dtype.kind in "iu":
        return values
    # As Python scalars, so a float16 bound does not overflow on compare.
    lo, hi = np.array((values.min(), values.max())).tolist()
    if not -2.0**63 <= lo <= hi < 2.0**63:  # NaN fails too; a cast would wrap
        _require_finite(values, what)
        offender = lo if lo < -2.0**63 else hi
        raise SupportViolation(f"{what}: value {offender!r} lies outside "
                               "the int64 range")
    out = np.empty(values.shape, dtype=np.int64)
    scratch = np.empty(min(values.size, _BLOCK))
    for start in range(0, values.size, _BLOCK):
        block, ints = values[start:start + _BLOCK], out[start:start + _BLOCK]
        ints[...] = np.rint(block, out=scratch[:block.size])
        if np.subtract(block, ints, out=scratch[:block.size]).any():
            raise SupportViolation(f"{what} must be integers")
    return out


def _integer(what: str, value) -> int:
    """A scalar that must be integral: a fraction is a typo, not something
    to truncate, so it raises ``InputError`` (as do NaN and infinity)."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and float(value).is_integer())
    ):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(what: str, value) -> float:
    """A scalar that must be a real number (not a bool); ``InputError``
    otherwise, so a string such as ``"0.5"`` does not leak a ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{what} must be a number, got {value!r}")
    return float(value)


def _convolve(a, b) -> np.ndarray:
    """Full discrete convolution along the last axis; leading axes broadcast.

    Two vectors go to ``np.convolve``; stacks loop over the shorter operand.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1 and b.ndim == 1:
        return np.convolve(a, b)
    if a.shape[-1] < b.shape[-1]:
        a, b = b, a
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.zeros(lead + (a.shape[-1] + b.shape[-1] - 1,))
    for j in range(b.shape[-1]):
        out[..., j : j + a.shape[-1]] += b[..., j : j + 1] * a
    return out


def _products(probs):
    """``(leave-one-out list, full convolution)`` of probability arrays.

    One prefix/suffix pass, with no product with the identity, keeps the
    work linear in k: the i-th entry of the list convolves every array but
    the i-th (the identity ``(1,)`` for a single array), and the full
    convolution is the last prefix times the last array, the same fold,
    bit for bit, as :func:`convolve_all`.  Leading axes broadcast.
    """
    if len(probs) == 1:
        return [np.ones(1)], _convolve(np.ones(1), probs[0])
    prefix = [probs[0]]
    for p in probs[1:-1]:
        prefix.append(_convolve(prefix[-1], p))
    suffix = [probs[-1]]
    for p in reversed(probs[1:-1]):
        suffix.append(_convolve(p, suffix[-1]))
    suffix.reverse()
    loo = [_convolve(a, b) for a, b in zip(prefix[:-1], suffix[1:])]
    return [suffix[0], *loo, prefix[-1]], _convolve(prefix[-1], probs[-1])


def convolve(a: PMV, b: PMV) -> PMV:
    """Discrete convolution: the PMV of ``X + Y`` for independent X, Y.

    Either argument may be anything ``_as_pmv`` reads.
    """
    return PMV(_convolve(_as_pmv(a).probs, _as_pmv(b).probs))


def convolve_all(pmvs) -> PMV:
    """Left fold of :func:`convolve`; the PMV of a sum of k variables."""
    pmvs = [_as_pmv(p) for p in pmvs]
    if not pmvs:
        raise EmptyProduct("convolve_all requires at least one PMV")
    return reduce(convolve, pmvs)


def _conv_matrix(vec: np.ndarray, cols: int) -> np.ndarray:
    """Banded matrix M with ``M @ w == convolve(vec, w)`` for len-cols w.

    A stack of vectors ``(..., n)`` gives a stack of matrices.
    """
    vec = np.asarray(vec, dtype=float)
    n = vec.shape[-1]
    m = np.zeros(vec.shape[:-1] + (n + cols - 1, cols))
    for j in range(cols):
        m[..., j : j + n, j] = vec
    return m


def conv_matrix(v: PMV, cols: int) -> np.ndarray:
    """Convolution matrix of shape ``(v.r + cols, cols)``.

    Column j holds ``v.probs`` shifted down by j rows, so that
    ``conv_matrix(v, w.size) @ w.probs == convolve(v, w).probs``.  ``cols``
    must be an integer (``InputError``) of at least 1 (``DimensionMismatch``).
    """
    cols = _integer("conv_matrix cols", cols)
    if cols < 1:
        raise DimensionMismatch(f"conv_matrix needs at least one column, got {cols}")
    return _conv_matrix(_as_pmv(v).probs, cols)


def multinomial_cov(v: PMV) -> np.ndarray:
    """Multinomial covariance ``diag(v) - v v'`` of a one-hot indicator."""
    v = _as_pmv(v)
    return np.diag(v.probs) - np.outer(v.probs, v.probs)
