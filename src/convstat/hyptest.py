"""Hypothesis tests built on the convolution of empirical PMVs.

Tests provided: goodness-of-fit of a sum of independent variables against
a hypothesized PMV, equality in distribution between two sums with
unequal per-variable sample sizes, sub-independence from paired data, and
the Pearson chi-squared baselines used for comparison.

The sampled values first pass through :func:`canonicalize`, which applies
the affine reduction ``a_0 + sum a_i A_i -> sum X_i`` with each ``X_i``
shifted to minimum 0 on an integer support; the shifts accumulate into a
total offset whose equality across sides is a hard requirement for
equality in distribution (mismatch rejects deterministically).
"""

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from . import covest, symlin
from .errors import (
    DimensionMismatch,
    EmptySample,
    InputError,
    LatticeViolation,
    NeedTwoVariables,
    NumericalError,
    RankOutOfRange,
    SupportMismatch,
    ZeroExpected,
)
from .pmv import (
    PMV, _BLOCK, _as_pmv, _counts, _integer, _integer_values, _products,
    _real, _require_finite, _side_pmvs, _support_degree,
)
from .polyrank import _numeric_rank, _rank_formula

__all__ = [
    "SampleSet",
    "CanonicalSamples",
    "TestReport",
    "canonicalize",
    "paired_sums",
    "gof_test",
    "ed_test",
    "subind_test",
    "pearson_gof",
    "pearson_ed",
    "oracle_statistics",
]

# Distance from the lattice tolerated in units of zeta: room for the
# decimal roundoff of values written as text (1e-9 of a unit), while a
# real off-lattice value such as 0.5 is far outside it.
_LATTICE_TOL = 1e-9
# Largest |value / zeta| accepted: above 2**53 neighbouring lattice points
# are the same float, so the residual test cannot tell them apart.
_MAX_LATTICE = 2**53
_INT64_MAX = 2**63 - 1
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SampleSet:
    """Raw observations with the affine-model coefficients.

    ``variables`` holds one 1-D array of lattice values per variable,
    ``coeffs`` the integer multipliers ``a_i`` (default all 1; fractions
    are refused, not truncated), ``offset`` the constant ``a_0`` (a
    lattice point), ``zeta`` the lattice unit (finite and nonzero) and
    ``names`` one label per variable (default ``X1, X2, ...``).  ``offset``
    and ``zeta`` are stored as floats; a value that is not a real number
    raises ``InputError`` and a ``names`` of the wrong length
    ``DimensionMismatch``.
    """

    variables: tuple
    coeffs: tuple = None
    offset: float = 0.0
    zeta: float = 1.0
    names: tuple = None

    def __post_init__(self):
        arrays = tuple(np.asarray(v, dtype=float) for v in self.variables)
        if not arrays:
            raise EmptySample("a SampleSet needs at least one variable")
        for i, v in enumerate(arrays):
            if v.ndim != 1 or v.size == 0:
                raise EmptySample(f"variable {i} has no observations")
        coeffs = self.coeffs
        if coeffs is None:
            coeffs = tuple(1 for _ in arrays)
        coeffs = tuple(
            _integer(f"coefficient a_{i + 1}", c) for i, c in enumerate(coeffs)
        )
        if len(coeffs) != len(arrays):
            raise InputError(
                f"{len(arrays)} variables but {len(coeffs)} coefficients"
            )
        if any(c == 0 for c in coeffs):
            raise InputError("coefficients a_i must be nonzero integers")
        zeta = _real("lattice unit zeta", self.zeta)
        if zeta == 0 or not math.isfinite(zeta):
            raise InputError(
                f"lattice unit zeta must be finite and nonzero, got {self.zeta}"
            )
        offset = _real("offset a_0", self.offset)
        names = self.names
        if names is None:
            names = tuple(f"X{i + 1}" for i in range(len(arrays)))
        names = tuple(str(n) for n in names)
        if len(names) != len(arrays):
            raise DimensionMismatch(
                f"{len(arrays)} variables but {len(names)} names"
            )
        object.__setattr__(self, "variables", arrays)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "names", names)


@dataclass(frozen=True)
class CanonicalSamples:
    """Shifted nonnegative-integer observations with their total offset.

    Every variable's observed minimum is 0 and ``support_lens[i]`` is the
    maximum observed value, so variable i lives on ``{0, ..., r_i}``.
    """

    variables: tuple
    total_offset: int
    support_lens: tuple
    names: tuple


@dataclass
class TestReport:
    """Outcome of one test: statistic, dof, p-value and diagnostics.

    ``p_value == chi2_sf(statistic, dof)`` on every path, since ``_report``
    builds every report: a deterministic rejection (offset mismatch,
    observations outside the hypothesized support) has an infinite
    statistic and so p-value 0.  ``diagnostics`` is a JSON-serializable
    dict (eigenvalue spectrum, offsets, warnings, fallback details).
    """

    __test__ = False  # not a pytest class despite the name

    statistic: float
    dof: int
    p_value: float
    rank_policy: str
    fallback_used: bool
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "TestReport":
        return TestReport(
            statistic=float(d["statistic"]),
            dof=int(d["dof"]),
            p_value=float(d["p_value"]),
            rank_policy=str(d["rank_policy"]),
            fallback_used=bool(d["fallback_used"]),
            diagnostics=dict(d["diagnostics"]),
        )


def _report(statistic, dof, label, diagnostics, fallback_used=False):
    """The one place a report is built: its p-value is ``chi2_sf``."""
    return TestReport(
        statistic=statistic,
        dof=dof,
        p_value=symlin.chi2_sf(statistic, dof),
        rank_policy=label,
        fallback_used=fallback_used,
        diagnostics=diagnostics,
    )


def _lattice_failure(values, zeta, what, coeff):
    """Raise the error of ``values`` that failed a block check of
    :func:`_to_lattice_ints`, found on the whole array so that neither the
    class nor the offender depends on the block: a non-finite value first
    (``DomainError``), then a value off the lattice, then one more than
    ``_MAX_LATTICE`` units from 0, and last a product with ``coeff`` or a
    range of products that leaves int64 (each ``LatticeViolation``)."""
    values = np.asarray(values, dtype=float)
    scaled = values / zeta
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, off the lattice
        on_lattice = np.abs(scaled - np.rint(scaled)) <= _LATTICE_TOL
    if not np.all(on_lattice):
        _require_finite(scaled, what)
        offender = values.ravel()[np.argmin(on_lattice)].item()
        raise LatticeViolation(
            f"{what}: value {offender!r} is not a multiple of zeta={zeta}"
        )
    far = np.abs(scaled) > _MAX_LATTICE
    if np.any(far):
        offender = values.ravel()[np.argmax(far)].item()
        raise LatticeViolation(
            f"{what}: value {offender!r} lies more than 2**53 lattice units "
            "from 0, where neighbouring lattice points are the same float"
        )
    raise LatticeViolation(
        f"{what}: with coefficient {coeff} the lattice values leave the "
        "int64 range"
    )


def _to_lattice_ints(values, zeta, what, coeff=1):
    """``(coeff * values / zeta as int64, its min, its max)``.

    The values go through in blocks of ``_BLOCK``: a block is divided by
    ``zeta`` into one scratch buffer and rounded into a second, checked by
    its largest residual (NaN fails it) and its range, then cast into its
    slice of the result and multiplied by ``coeff`` in place.  So the
    result is the only allocation that grows with the input.  A value off
    the lattice (beyond ``_LATTICE_TOL``), more than ``_MAX_LATTICE`` units
    from 0, or whose product or range leaves int64 raises (see
    :func:`_lattice_failure`).
    """
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape, dtype=np.int64)
    flat, ints = values.reshape(-1), out.reshape(-1)
    scratch = np.empty((2, min(flat.size, _BLOCK)))
    # |x| * |coeff| must fit in int64, and a coefficient beyond it fails
    limit = min(_MAX_LATTICE, _INT64_MAX // abs(coeff))
    lows, highs = [], []
    for start in range(0, flat.size, _BLOCK):
        block = ints[start:start + _BLOCK]
        scaled, rounded = scratch[:, :block.size]
        np.divide(flat[start:start + _BLOCK], zeta, out=scaled)
        np.rint(scaled, out=rounded)
        with np.errstate(invalid="ignore"):  # inf - inf: NaN, off the lattice
            scaled -= rounded
        np.abs(scaled, out=scaled)
        lo, hi = rounded.min(), rounded.max()
        if not (scaled.max() <= _LATTICE_TOL and max(-lo, hi, 1) <= limit):
            _lattice_failure(values, zeta, what, coeff)
        block[...] = rounded
        if coeff != 1:
            block *= coeff
        lows.append(int(lo))
        highs.append(int(hi))
    lo, hi = sorted((coeff * min(lows, default=0),
                     coeff * max(highs, default=0)))
    if hi - lo > _INT64_MAX:
        _lattice_failure(values, zeta, what, coeff)
    return out, lo, hi


def canonicalize(raw: SampleSet) -> CanonicalSamples:
    """Reduce raw lattice observations to shifted integer samples.

    Each variable is mapped by ``a_i * (value / zeta)`` and shifted by its
    observed minimum; the shifts and the mapped global offset add up to
    ``total_offset``.  Values off the lattice, more than 2**53 lattice
    units from 0, or whose mapped values leave int64 raise
    ``LatticeViolation``.  The work is blocked (:func:`_to_lattice_ints`),
    so memory is the int64 outputs, 8 bytes a value, plus two 256 KB
    scratch blocks, and each input is read from RAM once.
    """
    shifted = []
    lens = []
    total = int(_to_lattice_ints([raw.offset], raw.zeta, "offset a_0")[1])
    for name, values, a_i in zip(raw.names, raw.variables, raw.coeffs):
        mapped, tau, top = _to_lattice_ints(values, raw.zeta,
                                            f"variable {name}", a_i)
        if tau:
            mapped -= tau
        total += tau
        shifted.append(mapped)
        lens.append(top - tau)
    return CanonicalSamples(
        variables=tuple(shifted),
        total_offset=total,
        support_lens=tuple(lens),
        names=raw.names,
    )


def _coerce_samples(x, support_lens=None):
    """``(arrays, empirical PMVs, total offset, canonical)`` of one side,
    read by ``pmv._side_pmvs``; a :class:`CanonicalSamples` brings its
    offset and, unless others are given, its ``support_lens``."""
    canonical = isinstance(x, CanonicalSamples)
    offset = x.total_offset if canonical else 0
    if canonical and support_lens is None:
        support_lens = x.support_lens
    arrays, epmvs = _side_pmvs(x.variables if canonical else x, support_lens)
    if not (arrays or canonical):
        raise EmptySample("no variables supplied")
    return arrays, epmvs, offset, canonical


def paired_sums(variables):
    """Row sums of the first ``m = min(n_i)`` observations per variable.

    Pairing follows input order deterministically; the number of
    observations this discards is returned for the caller's warning.
    """
    arrays = [np.asarray(v) for v in variables]
    m = min(v.size for v in arrays)
    sums = arrays[0][:m].copy()
    for v in arrays[1:]:
        sums = sums + v[:m]
    discarded = sum(v.size for v in arrays) - len(arrays) * m
    return sums, int(discarded)


def _parse_policy(policy, s):
    """``(label, fixed rank)`` of a rank policy at total support degree s.

    The label is the report's ``rank_policy``: ``analytic``, ``numeric``,
    ``lower_bound`` or ``fixed(N)``; the fixed rank is None unless fixed.
    ``fixed:N`` (or a plain int N) needs ``1 <= N <= max(1, s)`` on every
    path; a fixed rank above the estimate's own rank is not an error.
    """
    if isinstance(policy, numbers.Integral) and not isinstance(policy, bool):
        policy = f"fixed:{policy}"
    text = str(policy).strip().lower()
    if text in ("analytic", "numeric"):
        return text, None
    if text in ("lower", "lower_bound"):
        return "lower_bound", None
    if not text.startswith("fixed:"):
        raise InputError(
            f"unknown rank policy {policy!r}; expected analytic, numeric, "
            "lower, or fixed:N"
        )
    try:
        r = int(text.split(":", 1)[1])
    except ValueError:
        raise InputError(f"bad fixed rank in policy {policy!r}") from None
    if not 1 <= r <= max(1, s):
        raise RankOutOfRange(f"fixed rank {r} outside 1..{max(1, s)}")
    return f"fixed({r})", r


def _wald_terms(vec, dec: symlin.EigenDecomp, r: int) -> np.ndarray:
    """Per-eigenpair terms of ``v' ((A^r)^+) v``, shape ``(..., min(r, d))``.

    ``vec`` and ``dec`` may carry the same leading stack axes.  Among the
    r algebraically largest eigenvalues, those below the machine-precision
    cutoff (all of them for a zero matrix) give a zero term without
    touching the degrees of freedom, mirroring the fixed-rank protocol.
    """
    lam = dec.values[..., :r]
    keep = symlin._above_cut(lam, symlin.PINV_TOL)
    vec = np.asarray(vec, dtype=float)
    proj = (vec[..., None, :] @ dec.vectors[..., :r])[..., 0, :]
    return np.where(keep, proj * proj / np.where(keep, lam, 1.0), 0.0)


def _psd_wald(vec, dec: symlin.EigenDecomp, r: int):
    """Wald form ``v' ((A^r)^+) v`` of a positive semi-definite ``A``.

    Only a roundoff-negative eigenvalue among the kept ones can make the
    sum negative.  When the positive and negative terms cancel to within
    the summation's roundoff (d * eps of their absolute sum) the form is
    zero to working precision and 0.0 is returned; a larger negative
    means ``A`` is not PSD to working precision, an internal failure.
    A stack of forms gives an array, and any failure in it raises.
    """
    terms = _wald_terms(vec, dec, r)
    stat = terms.sum(axis=-1)
    negative = stat < 0.0
    if negative.any():
        bound = dec.values.shape[-1] * _EPS * np.abs(terms).sum(axis=-1)
        if np.any(stat < -bound):
            raise NumericalError(
                f"Wald form of a PSD covariance is negative "
                f"({np.min(stat):.3g}) beyond its roundoff bound "
                f"{np.max(bound):.3g}"
            )
        stat = np.where(negative, 0.0, stat)
    return stat if stat.ndim else float(stat)


def _resolve_dof(label, fixed_r, epmvs_sides, loos, dec, warnings,
                 diagnostics):
    """Degrees of freedom under the requested rank policy.

    Returns ``(dof, label)``.  The analytic policy reads ``s - deg g`` and
    the lower-bound policy ``s - deg g - zeros`` from
    ``polyrank._rank_formula`` on the sides' leave-one-out lists ``loos``;
    either is clamped to 1 with a warning.
    The analytic policy silently degrades to the lower-bound path (with a
    warning) when an empirical PMV has zero cells.
    """
    if fixed_r is not None:
        strict = int(np.sum(symlin._above_cut(dec.values, symlin.PINV_TOL)))
        if fixed_r > strict:
            warnings.append(
                f"fixed rank {fixed_r} exceeds the covariance estimate's "
                f"rank {strict}; the missing directions contribute 0"
            )
        return fixed_r, label
    if label == "numeric":
        return max(1, _numeric_rank(dec.values)), label
    formula = _rank_formula([[e.pmv for e in side] for side in epmvs_sides],
                            loos)
    diagnostics["gcd_degree"] = formula.gcd.degree
    if label == "analytic" and formula.analytic is None:
        warnings.append(
            "empirical PMVs have zero cells; analytic rank unavailable, "
            "using the lower-bound policy"
        )
        label = "lower_bound"
    if label == "analytic":
        diagnostics["gcd_residual"] = formula.gcd.residual
        dof = formula.analytic
    else:
        diagnostics["zero_entry_count"] = formula.zeros
        dof = formula.lower
    if dof < 1:
        warnings.append(
            "analytic rank fell below 1; clamped to 1" if label == "analytic"
            else f"rank lower bound {dof} is below 1; clamped to 1 "
            "(test is conservative)"
        )
    return max(1, dof), label


def _pearson_gof_stat(counts, probs):
    """Pearson sum of cell counts ``(..., c)`` against the PMV ``probs``.

    Cells where ``probs`` is zero drop out of the sum; the expected counts
    scale with each row's total count.
    """
    positive = probs > 0.0
    expected = counts.sum(axis=-1, keepdims=True) * probs[positive]
    observed = counts[..., positive]
    return np.sum((observed - expected) ** 2 / expected, axis=-1)


def _pearson_ed_stat(cx, cy):
    """Two-sample Pearson sum and dof of cell counts ``(..., c)``.

    Cells empty on both sides drop out; dof is the retained cell count
    minus 1, at least 1.
    """
    pooled = cx + cy
    keep = pooled > 0
    m = cx.sum(axis=-1, keepdims=True)
    n = cy.sum(axis=-1, keepdims=True)
    num = (cx * n - cy * m).astype(float) ** 2
    den = np.where(keep, m * n * pooled, 1)
    stat = np.sum(np.where(keep, num / den, 0.0), axis=-1)
    return stat, np.maximum(1, keep.sum(axis=-1) - 1)


def pearson_gof(sums, z, on_zero_expected: str = "error") -> TestReport:
    """Pearson chi-squared of observed sum counts against PMV ``z``.

    ``on_zero_expected`` chooses the handling of cells where ``z`` puts
    zero probability: ``"error"`` raises ``ZeroExpected`` (merge cells
    before calling), ``"drop"`` excludes those cells from the statistic.
    The dof stays at the declared support size minus 1 either way.
    Observed values beyond the support of ``z`` reject deterministically.
    Any other mode raises ``InputError``.  The diagnostics hold the observed
    ``cells`` and their ``counts``.
    """
    if on_zero_expected not in ("error", "drop"):
        raise InputError(
            f"on_zero_expected must be 'error' or 'drop', got "
            f"{on_zero_expected!r}"
        )
    if not np.size(sums):
        raise EmptySample("pearson_gof needs at least one observation")
    values = _integer_values(np.asarray(sums), "summed observations")
    z = _as_pmv(z)
    top = _support_degree(max(values.max(), 0))
    counts = _counts(values, max(top, z.r), "summed observations")
    positive = z.probs > 0.0
    dof = max(1, z.support_len - 1)
    warnings = []
    if counts.size > z.support_len:
        return _report(math.inf, dof, "pearson", {
            "warnings": ["observations outside the hypothesized support; "
                         "deterministic rejection"],
            **_observed_cells(counts=counts),
        })
    if not np.all(positive):
        if on_zero_expected == "error":
            raise ZeroExpected(
                "hypothesized PMV has zero cells; merge cells or use the "
                "drop mode"
            )
        skipped = int(counts[~positive].sum())
        if skipped:
            warnings.append(
                f"{skipped} observations fell in zero-probability cells and "
                "were excluded from the statistic"
            )
    statistic = float(_pearson_gof_stat(counts, z.probs))
    return _report(statistic, dof, "pearson",
                   {"warnings": warnings, **_observed_cells(counts=counts),
                    "m": values.size})


def pearson_ed(x_sums, y_sums) -> TestReport:
    """Two-sample Pearson chi-squared on the pooled common support.

    Cells with zero pooled counts are merged away from the support ends
    inward (a warning records how many); dof is the retained cell count
    minus 1.  The diagnostics hold the observed ``cells`` and the
    ``x_counts`` and ``y_counts`` on them.
    """
    if not (np.size(x_sums) and np.size(y_sums)):
        raise EmptySample("pearson_ed needs observations on both sides")
    xv, yv = (_integer_values(np.asarray(v), "summed observations")
              for v in (x_sums, y_sums))
    top = _support_degree(max(xv.max(), yv.max(), 0))
    cx = _counts(xv, top, "summed observations")
    cy = _counts(yv, top, "summed observations")
    observed = _observed_cells(x_counts=cx, y_counts=cy)
    empty = cx.size - len(observed["cells"])
    warnings = [f"{empty} empty pooled cells merged from the support ends "
                "inward"] if empty else []
    statistic, dof = _pearson_ed_stat(cx, cy)
    return _report(float(statistic), int(dof), "pearson",
                   {"warnings": warnings, **observed})


def _observed_cells(**counts) -> dict:
    """The ``cells`` where some count is nonzero, and each count on them."""
    first, *rest = counts.values()
    cells = np.flatnonzero(sum(rest, first))  # one vector is not copied
    return {"cells": cells.tolist(),
            **{name: c[cells].tolist() for name, c in counts.items()}}


def _base_diagnostics(dec=None, m=None, warnings=None, **extra) -> dict:
    d = {"warnings": warnings if warnings is not None else []}
    if dec is not None:
        d["eigenvalues"] = dec.values.tolist()
    if m is not None:
        d["m"] = int(m)
    d.update(extra)
    return d


def _pearson_fallback(base, why, n_discarded, label, fixed_r, warnings,
                      **extra):
    """Report for a zero covariance estimate: the Pearson value ``base``.

    The dof stays at the fixed rank when one was requested.
    """
    warnings.append(
        f"all empirical PMVs are point masses{why}; statistic fell back to "
        "Pearson"
    )
    if n_discarded:
        warnings.append(
            f"Pearson pairing discarded {n_discarded} observations"
        )
    warnings.extend(base.diagnostics.get("warnings", []))
    return _report(base.statistic, base.dof if fixed_r is None else fixed_r,
                   label, _base_diagnostics(warnings=warnings, **extra),
                   fallback_used=True)


def _wald_report(vec, cov, label, fixed_r, epmvs_sides, loos, warnings, m,
                 **extra):
    """Report of the Wald form of ``vec`` in the PSD estimate ``cov``."""
    dec = symlin._spectrum(cov)
    diagnostics = _base_diagnostics(dec=dec, m=m, warnings=warnings, **extra)
    dof, label = _resolve_dof(
        label, fixed_r, epmvs_sides, loos, dec, warnings, diagnostics
    )
    return _report(_psd_wald(vec, dec, dof), dof, label, diagnostics)


def gof_test(x, z, rank_policy="analytic", support_lens=None) -> TestReport:
    """Goodness-of-fit test of ``sum_i X_i`` against the PMV ``z``.

    ``x`` is a :class:`CanonicalSamples` or a per-variable sequence of
    nonnegative-integer arrays (k >= 2).  ``z`` must live on the combined
    support ``{0, ..., sum r_i}``.  When every empirical PMV is a point
    mass the covariance estimate is the zero matrix and the statistic
    falls back to the Pearson value (``fallback_used`` is set); the dof
    then stays at the fixed rank if one was requested.
    """
    arrays, epmvs, offset, _ = _coerce_samples(x, support_lens)
    if len(arrays) < 2:
        raise NeedTwoVariables(f"gof_test requires k >= 2 variables, got {len(arrays)}")
    s = sum(e.pmv.r for e in epmvs)
    label, fixed_r = _parse_policy(rank_policy, s)
    z = _as_pmv(z)
    if z.support_len != s + 1:
        raise SupportMismatch(
            f"z has {z.support_len} cells but the combined support has "
            f"{s + 1}"
        )
    sizes = [e.n for e in epmvs]
    (conv,), psi_m, loos = covest._estimate(
        [[e.pmv.probs for e in epmvs]], covest.weights_from_sizes(sizes), s + 1)
    m = min(sizes)
    if np.any((z.probs == 0.0) & (conv > 0.0)):
        raise ZeroExpected(
            "z has zero cells where the observed convolution has mass"
        )
    warnings = []

    if not psi_m.any():
        sums, discarded = paired_sums(arrays)
        return _pearson_fallback(
            pearson_gof(sums, z, on_zero_expected="drop"),
            " (zero covariance estimate)", discarded, label, fixed_r,
            warnings, m=m, total_offset=offset, discarded=discarded,
        )

    v_m = math.sqrt(m) * (conv - z.probs)
    return _wald_report(v_m, psi_m, label, fixed_r, [epmvs], loos, warnings,
                        m=m, total_offset=offset)


def ed_test(
    x,
    y,
    rank_policy="analytic",
    x_support_lens=None,
    y_support_lens=None,
) -> TestReport:
    """Equality-in-distribution test between two sums of independent vars.

    Offsets recorded by canonicalization must agree between the sides: a
    mismatch makes the null impossible and the report carries p-value 0
    with a warning.  Unequal total support degrees are handled by zero
    padding the shorter side (flagged in diagnostics; the analytic rank
    policy then degrades to numeric).
    """
    x_arrays, x_epmvs, x_offset, x_canon = _coerce_samples(x, x_support_lens)
    y_arrays, y_epmvs, y_offset, y_canon = _coerce_samples(y, y_support_lens)
    if len(x_arrays) + len(y_arrays) < 2:
        raise NeedTwoVariables("ed_test needs at least two variables in total")
    s_x = sum(e.pmv.r for e in x_epmvs)
    s_y = sum(e.pmv.r for e in y_epmvs)
    s = max(s_x, s_y)
    label, fixed_r = _parse_policy(rank_policy, s)
    warnings = []
    notes = []
    if x_canon or y_canon:
        notes.append(
            "offset check uses observed minima; with small samples the "
            "observed minimum can exceed the true one"
        )
    if x_offset != y_offset:
        warning = (f"total offsets differ ({x_offset} vs {y_offset}); the "
                   "null hypothesis is impossible")
        return _report(math.inf, max(1, s) if fixed_r is None else fixed_r,
                       label, {"warnings": [warning], "notes": notes,
                               "x_offset": x_offset, "y_offset": y_offset})

    padded = s_x != s_y
    if padded:
        warnings.append(
            f"support degrees differ ({s_x} vs {s_y}); shorter side zero-"
            "padded"
        )
    sizes = [e.n for e in x_epmvs + y_epmvs]
    (conv_x, conv_y), total, loos = covest._estimate(
        [[e.pmv.probs for e in side] for side in (x_epmvs, y_epmvs)],
        covest.weights_from_sizes(sizes), s + 1)
    m = min(sizes)

    if not total.any():
        x_sums, x_disc = paired_sums(x_arrays)
        y_sums, y_disc = paired_sums(y_arrays)
        return _pearson_fallback(
            pearson_ed(x_sums, y_sums), " on both sides", x_disc + y_disc,
            label, fixed_r, warnings, m=m, notes=notes,
            total_offset=x_offset, padded=padded,
        )

    w_m = math.sqrt(m) * (conv_x - conv_y)
    if label == "analytic" and padded:
        warnings.append(
            "analytic rank is unavailable for padded supports; using the "
            "numeric policy"
        )
        label = "numeric"
    return _wald_report(w_m, total, label, fixed_r, [x_epmvs, y_epmvs], loos,
                        warnings, m=m, notes=notes, total_offset=x_offset,
                        padded=padded)


def subind_test(paired, rank_policy=None, support_lens=None) -> TestReport:
    """Sub-independence test from an m x k table of paired observations.

    Compares the convolution of the marginal empirical PMVs with the
    empirical PMV of the row sums; the reported degrees of freedom default
    to the full support degree ``s`` regardless of the data.  Note that
    under the null the statistic tends to concentrate one degree of
    freedom lower (the difference covariance also annihilates the linear
    vector), making the default reference conservative.
    """
    arr = covest._paired_matrix(paired)
    if arr.shape[1] < 2:
        raise NeedTwoVariables(
            f"subind_test requires k >= 2 columns, got {arr.shape[1]}"
        )
    epmvs, z_hat, ups, conv = covest._paired_estimates(arr, support_lens)
    s = sum(e.pmv.r for e in epmvs)
    m = arr.shape[0]
    warnings = []
    if rank_policy is None:
        dof = max(1, s)
        label = "full"
    else:
        label, dof = _parse_policy(rank_policy, s)
        if dof is None:
            raise InputError(
                "subind_test accepts only the default full-rank policy or "
                "fixed:N"
            )

    # With at most one non-constant column the row sums are that column
    # shifted, so upsilon is zero in exact arithmetic; its factor form
    # leaves roundoff there, so the data decide.
    if sum(not e.pmv.degenerate for e in epmvs) < 2:
        warnings.append(
            "covariance estimate is identically zero (degenerate paired "
            "data); no evidence against the null"
        )
        return _report(0.0, dof, label,
                       _base_diagnostics(m=m, warnings=warnings),
                       fallback_used=True)

    s_m = math.sqrt(m) * (conv - z_hat.pmv.probs)
    dec = symlin._spectrum(ups)
    statistic = float(_wald_terms(s_m, dec, dof).sum())
    if statistic < 0.0:
        warnings.append(
            "indefinite covariance estimate produced a negative quadratic "
            "form; clamped to 0"
        )
        statistic = 0.0
    return _report(statistic, dof, label,
                   _base_diagnostics(dec=dec, m=m, warnings=warnings))


def _whitener(sides, weights):
    """``(W, sigma, products)``: one SVD ``U diag(sigma) V'`` of ``F``, the
    sides' ``covest._factor`` blocks side by side, and ``W = U_r
    diag(1 / sigma_r)`` over ``sigma > max(shape) * eps * sigma_max``.

    ``W W'`` is the pseudo-inverse of the true covariance ``F F'``, so the
    oracle statistic of a deviation ``v`` is ``||v W||^2``.  ``sides`` hold
    probability arrays, ``weights`` the ``c_i`` in side order, and
    ``products`` is each side's ``pmv._products`` pair.
    """
    weights = iter(weights)
    products = [_products(side) for side in sides]
    factor = np.hstack([covest._factor(side, [next(weights) for _ in side], pair)
                        for side, pair in zip(sides, products)])
    u, sv, _ = np.linalg.svd(factor, full_matrices=False)
    keep = symlin._above_cut(sv, max(factor.shape) * _EPS)
    return u[:, keep] / sv[keep], sv, products


def oracle_statistics(
    x,
    x_pmvs,
    z=None,
    y=None,
    y_pmvs=None,
    dof_gf=None,
    dof_ed=None,
):
    """Statistics computed with the true covariance matrices.

    For simulation use: ``x_pmvs`` (and ``y_pmvs``) are the known data
    distributions, so no covariance estimation takes place: a deviation
    ``v`` gives ``||v W||^2`` with the whitener ``W`` of the true
    covariance (:func:`_whitener`), its Moore-Penrose pseudo-inverse form.
    Returns a ``(gof_report, ed_report)`` pair; the second is None without
    a y side, and ``y`` and ``y_pmvs`` come together.  Default dof is the
    analytic rank of the true covariance, or its numeric rank when a true
    PMV has zero cells; ``dof_gf`` / ``dof_ed`` must be integers in
    ``1..max(1, s)``.
    """
    x_pmvs = [_as_pmv(p) for p in x_pmvs]
    s = sum(p.r for p in x_pmvs)
    dof_gf, dof_ed = (None if d is None else _parse_policy(_integer(k, d), s)[1]
                      for k, d in (("dof_gf", dof_gf), ("dof_ed", dof_ed)))
    if (y is None) != (y_pmvs is None):
        raise InputError("oracle_statistics needs y and y_pmvs together")
    sides = [x_pmvs] if y is None else [x_pmvs, [_as_pmv(p) for p in y_pmvs]]
    if sum(p.r for p in sides[-1]) != s:
        raise SupportMismatch("x and y sides have different support degrees")
    hats = [_coerce_samples(data, [p.r for p in side])[1]
            for data, side in zip((x, y), sides)]
    sizes = [e.n for side in hats for e in side]
    m = min(sizes)
    weights = covest.weights_from_sizes(sizes)
    true = [covest._true_probs(side, k_min, name) for side, k_min, name
            in zip(sides, (2, 1), ("psi", "xi"))]
    conv_x, *conv_y = [_products([e.pmv.probs for e in side])[1]
                       for side in hats]
    z = PMV(_products(true[0])[1]) if z is None else _as_pmv(z)
    if z.support_len != conv_x.size:
        raise SupportMismatch(
            f"z has {z.support_len} cells, expected {conv_x.size}"
        )

    def report(vec, k, dof):
        """Report of the first ``k`` sides; dof: analytic, else numeric."""
        w, sv, products = _whitener(true[:k], weights)
        if dof is None:
            dof = _rank_formula(sides[:k], [loo for loo, _ in products]).analytic
        if dof is None:
            dof = _numeric_rank(sv * sv)
        return _report(float(np.square(vec @ w).sum()), dof, "oracle",
                       {"warnings": [], "m": int(m)})

    gf = report(math.sqrt(m) * (conv_x - z.probs), 1, dof_gf)
    if y is None:
        return gf, None
    return gf, report(math.sqrt(m) * (conv_x - conv_y[0]), 2, dof_ed)
