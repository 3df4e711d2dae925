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
from dataclasses import dataclass, field

import numpy as np

from . import covest, symlin
from .errors import (
    EmptySample,
    InputError,
    LatticeViolation,
    NeedTwoVariables,
    NotPaired,
    NumericalError,
    RankOutOfRange,
    SupportMismatch,
    SupportViolation,
    ZeroExpected,
)
from .pmv import (
    PMV, _require_finite, convolve_all, empirical_pmv,
)
from .polyrank import (
    GCD_TOL, RANK_TOL, _loo_or_identity, covariance_rank, gcd_degree, gcd_many,
)

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

_LATTICE_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SampleSet:
    """Raw observations with the affine-model coefficients.

    ``variables`` holds one 1-D array of lattice values per variable,
    ``coeffs`` the integer multipliers ``a_i`` (default all 1), ``offset``
    the constant ``a_0`` (a lattice point), and ``zeta`` the lattice unit.
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
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != len(arrays):
            raise InputError(
                f"{len(arrays)} variables but {len(coeffs)} coefficients"
            )
        if any(c == 0 for c in coeffs):
            raise InputError("coefficients a_i must be nonzero integers")
        if self.zeta == 0:
            raise InputError("lattice unit zeta must be nonzero")
        names = self.names
        if names is None:
            names = tuple(f"X{i + 1}" for i in range(len(arrays)))
        object.__setattr__(self, "variables", arrays)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "names", tuple(str(n) for n in names))


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

    ``p_value == chi2_sf(statistic, dof)`` except under deterministic
    rejection (offset mismatch), where the p-value is 0 with a warning.
    ``diagnostics`` is a JSON-serializable dict (eigenvalue spectrum,
    offsets, warnings, fallback details).
    """

    __test__ = False  # not a pytest class despite the name

    statistic: float
    dof: int
    p_value: float
    rank_policy: str
    fallback_used: bool
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "dof": self.dof,
            "p_value": self.p_value,
            "rank_policy": self.rank_policy,
            "fallback_used": self.fallback_used,
            "diagnostics": self.diagnostics,
        }

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


def _to_lattice_ints(values, zeta, what):
    scaled = np.asarray(values, dtype=float) / zeta
    rounded = np.rint(scaled)
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, off the lattice
        on_lattice = np.abs(scaled - rounded) <= _LATTICE_TOL
    if not np.all(on_lattice):
        _require_finite(scaled, what)
        offender = np.asarray(values).ravel()[np.argmin(on_lattice)].item()
        raise LatticeViolation(
            f"{what}: value {offender!r} is not a multiple of zeta={zeta}"
        )
    return rounded.astype(np.int64)


def canonicalize(raw: SampleSet) -> CanonicalSamples:
    """Reduce raw lattice observations to shifted integer samples.

    Each variable is mapped by ``a_i * (value / zeta)`` and shifted by its
    observed minimum; the shifts and the mapped global offset add up to
    ``total_offset``.  Values off the lattice raise ``LatticeViolation``.
    """
    shifted = []
    lens = []
    total = int(_to_lattice_ints([raw.offset], raw.zeta, "offset a_0")[0])
    for name, values, a_i in zip(raw.names, raw.variables, raw.coeffs):
        mapped = a_i * _to_lattice_ints(values, raw.zeta, f"variable {name}")
        tau = int(mapped.min())
        mapped = mapped - tau
        total += tau
        shifted.append(mapped)
        lens.append(int(mapped.max()))
    return CanonicalSamples(
        variables=tuple(shifted),
        total_offset=total,
        support_lens=tuple(lens),
        names=raw.names,
    )


def _coerce_samples(x, support_lens=None):
    """Accept CanonicalSamples or a plain per-variable sequence."""
    if isinstance(x, CanonicalSamples):
        lens = tuple(support_lens) if support_lens is not None else x.support_lens
        return list(x.variables), list(lens), x.total_offset, True
    arrays = [np.asarray(v) for v in x]
    if not arrays:
        raise EmptySample("no variables supplied")
    for i, v in enumerate(arrays):
        if v.size == 0:
            raise EmptySample(f"variable {i} has no observations")
        _require_finite(v, f"variable {i}")
    if support_lens is not None:
        lens = list(support_lens)
    else:
        lens = [int(np.max(v)) for v in arrays]
    return arrays, lens, 0, False


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
    """``(kind, fixed rank)`` of a rank policy at total support degree s.

    ``fixed:N`` (or a plain int N) needs ``1 <= N <= max(1, s)`` on every
    path; a fixed rank above the estimate's own rank is not an error.
    """
    if isinstance(policy, int) and not isinstance(policy, bool):
        policy = f"fixed:{policy}"
    text = str(policy).strip().lower()
    if text in ("analytic", "numeric"):
        return text, None
    if text in ("lower", "lower_bound"):
        return "lower", None
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
    return "fixed", r


def _wald_terms(vec, dec: symlin.EigenDecomp, r: int) -> np.ndarray:
    """Per-eigenpair terms of ``v' ((A^r)^+) v``, shape ``(..., min(r, d))``.

    ``vec`` and ``dec`` may carry the same leading stack axes.  Among the
    r algebraically largest eigenvalues, those below the machine-precision
    cutoff (all of them for a zero matrix) give a zero term without
    touching the degrees of freedom, mirroring the fixed-rank protocol.
    """
    lam = dec.values[..., :r]
    scale = np.max(np.abs(lam), axis=-1, keepdims=True)
    keep = np.abs(lam) > symlin.PINV_TOL * scale
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


def _strict_rank(dec: symlin.EigenDecomp) -> int:
    scale = float(np.max(np.abs(dec.values)))
    if scale <= 0.0:
        return 0
    return int(np.sum(np.abs(dec.values) > symlin.PINV_TOL * scale))


def _numeric_rank(dec: symlin.EigenDecomp) -> int:
    lam_max = float(dec.values[0])
    if lam_max <= 0.0:
        return 0
    return int(np.sum(dec.values > RANK_TOL * lam_max))


def _gcd_fold(epmvs_sides, diagnostics):
    """gcd of the leave-one-out convolutions, folded across the sides.

    ``epmvs_sides`` is one list of empirical PMVs per side; for the ED
    test the relevant gcd is the gcd of the per-side gcds.
    """
    side_gcds = []
    for epmvs in epmvs_sides:
        loo = _loo_or_identity([e.pmv for e in epmvs])
        side_gcds.append(gcd_many([p.probs for p in loo], GCD_TOL))
    g = side_gcds[0]
    for other in side_gcds[1:]:
        g = gcd_degree(g.gcd_coeffs, other.gcd_coeffs, GCD_TOL)
    diagnostics["gcd_degree"] = g.degree
    return g


def _analytic_dof(epmvs_sides, s, warnings, diagnostics):
    """dof = s - deg gcd of the leave-one-out convolutions."""
    g = _gcd_fold(epmvs_sides, diagnostics)
    diagnostics["gcd_residual"] = g.residual
    dof = s - g.degree
    if dof < 1:
        warnings.append("analytic rank fell below 1; clamped to 1")
        dof = 1
    return dof


def _lower_dof(epmvs_sides, s, warnings, diagnostics):
    g = _gcd_fold(epmvs_sides, diagnostics)
    zeros = sum(len(e.pmv.zero_indices) for side in epmvs_sides for e in side)
    diagnostics["zero_entry_count"] = zeros
    dof = s - g.degree - zeros
    if dof < 1:
        warnings.append(
            f"rank lower bound {dof} is below 1; clamped to 1 "
            "(test is conservative)"
        )
        dof = 1
    return dof


def _resolve_dof(kind, fixed_r, epmvs_sides, s, dec, warnings, diagnostics):
    """Degrees of freedom under the requested rank policy.

    Returns ``(dof, label)``; the analytic policy silently degrades to the
    lower-bound path (with a warning) when an empirical PMV has zero cells.
    """
    if kind == "fixed":
        strict = _strict_rank(dec)
        if fixed_r > strict:
            warnings.append(
                f"fixed rank {fixed_r} exceeds the covariance estimate's "
                f"rank {strict}; the missing directions contribute 0"
            )
        return fixed_r, f"fixed({fixed_r})"
    if kind == "numeric":
        return max(1, _numeric_rank(dec)), "numeric"
    if kind == "analytic":
        interior = all(e.pmv.interior for side in epmvs_sides for e in side)
        if interior:
            return _analytic_dof(epmvs_sides, s, warnings, diagnostics), "analytic"
        warnings.append(
            "empirical PMVs have zero cells; analytic rank unavailable, "
            "using the lower-bound policy"
        )
        return _lower_dof(epmvs_sides, s, warnings, diagnostics), "lower_bound"
    return _lower_dof(epmvs_sides, s, warnings, diagnostics), "lower_bound"


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
    """
    values = np.asarray(sums)
    if values.size == 0:
        raise EmptySample("pearson_gof needs at least one observation")
    if values.min() < 0:
        raise SupportViolation("summed observations must be nonnegative")
    z = z if isinstance(z, PMV) else PMV(z)
    m = values.size
    counts = np.bincount(values.astype(np.int64), minlength=z.support_len)
    positive = z.probs > 0.0
    dof = max(1, z.support_len - 1)
    warnings = []
    if counts.size > z.support_len:
        return TestReport(
            statistic=math.inf,
            dof=dof,
            p_value=0.0,
            rank_policy="pearson",
            fallback_used=False,
            diagnostics={
                "warnings": ["observations outside the hypothesized support; "
                             "deterministic rejection"],
                "counts": counts.tolist(),
            },
        )
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
    return TestReport(
        statistic=statistic,
        dof=dof,
        p_value=symlin.chi2_sf(statistic, dof),
        rank_policy="pearson",
        fallback_used=False,
        diagnostics={"warnings": warnings, "counts": counts.tolist(),
                     "m": int(m)},
    )


def pearson_ed(x_sums, y_sums) -> TestReport:
    """Two-sample Pearson chi-squared on the pooled common support.

    Cells with zero pooled counts are merged away from the support ends
    inward (a warning records how many); dof is the retained cell count
    minus 1.
    """
    xv = np.asarray(x_sums)
    yv = np.asarray(y_sums)
    if xv.size == 0 or yv.size == 0:
        raise EmptySample("pearson_ed needs observations on both sides")
    if xv.min() < 0 or yv.min() < 0:
        raise SupportViolation("summed observations must be nonnegative")
    top = int(max(xv.max(), yv.max()))
    cx = np.bincount(xv.astype(np.int64), minlength=top + 1)
    cy = np.bincount(yv.astype(np.int64), minlength=top + 1)
    empty = int(np.sum(cx + cy == 0))
    warnings = []
    if empty:
        warnings.append(
            f"{empty} empty pooled cells merged from the support ends inward"
        )
    statistic, dof = _pearson_ed_stat(cx, cy)
    statistic, dof = float(statistic), int(dof)
    return TestReport(
        statistic=statistic,
        dof=dof,
        p_value=symlin.chi2_sf(statistic, dof),
        rank_policy="pearson",
        fallback_used=False,
        diagnostics={
            "warnings": warnings,
            "x_counts": cx.tolist(),
            "y_counts": cy.tolist(),
        },
    )


def _base_diagnostics(dec=None, m=None, warnings=None, **extra) -> dict:
    d = {"warnings": warnings if warnings is not None else []}
    if dec is not None:
        d["eigenvalues"] = [float(v) for v in dec.values]
    if m is not None:
        d["m"] = int(m)
    d.update(extra)
    return d


def _pearson_fallback(base, why, n_discarded, kind, fixed_r, warnings,
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
    dof = fixed_r if kind == "fixed" else base.dof
    return TestReport(
        statistic=base.statistic,
        dof=dof,
        p_value=symlin.chi2_sf(base.statistic, dof),
        rank_policy=f"fixed({fixed_r})" if kind == "fixed" else kind,
        fallback_used=True,
        diagnostics=_base_diagnostics(warnings=warnings, **extra),
    )


def _wald_report(vec, cov, kind, fixed_r, epmvs_sides, s, warnings, m,
                 **extra):
    """Report of the Wald form of ``vec`` in the PSD estimate ``cov``."""
    dec = symlin.eigh(cov)
    diagnostics = _base_diagnostics(dec=dec, m=m, warnings=warnings, **extra)
    dof, label = _resolve_dof(
        kind, fixed_r, epmvs_sides, s, dec, warnings, diagnostics
    )
    statistic = _psd_wald(vec, dec, dof)
    return TestReport(
        statistic=statistic,
        dof=dof,
        p_value=symlin.chi2_sf(statistic, dof),
        rank_policy=label,
        fallback_used=False,
        diagnostics=diagnostics,
    )


def gof_test(x, z, rank_policy="analytic", support_lens=None) -> TestReport:
    """Goodness-of-fit test of ``sum_i X_i`` against the PMV ``z``.

    ``x`` is a :class:`CanonicalSamples` or a per-variable sequence of
    nonnegative-integer arrays (k >= 2).  ``z`` must live on the combined
    support ``{0, ..., sum r_i}``.  When every empirical PMV is a point
    mass the covariance estimate is the zero matrix and the statistic
    falls back to the Pearson value (``fallback_used`` is set); the dof
    then stays at the fixed rank if one was requested.
    """
    arrays, lens, offset, was_canonical = _coerce_samples(x, support_lens)
    if len(arrays) < 2:
        raise NeedTwoVariables(f"gof_test requires k >= 2 variables, got {len(arrays)}")
    epmvs = [empirical_pmv(v, r) for v, r in zip(arrays, lens)]
    s = sum(e.pmv.r for e in epmvs)
    kind, fixed_r = _parse_policy(rank_policy, s)
    z = z if isinstance(z, PMV) else PMV(z)
    if z.support_len != s + 1:
        raise SupportMismatch(
            f"z has {z.support_len} cells but the combined support has "
            f"{s + 1}"
        )
    conv = convolve_all([e.pmv for e in epmvs]).probs
    if np.any((z.probs == 0.0) & (conv > 0.0)):
        raise ZeroExpected(
            "z has zero cells where the observed convolution has mass"
        )
    sizes = [e.n for e in epmvs]
    m = min(sizes)
    weights = covest.weights_from_sizes(sizes)
    psi_m = covest._weighted_cov([e.pmv.probs for e in epmvs], weights)
    warnings = []

    if not psi_m.any():
        sums, discarded = paired_sums(arrays)
        return _pearson_fallback(
            pearson_gof(sums, z, on_zero_expected="drop"),
            " (zero covariance estimate)", discarded, kind, fixed_r,
            warnings, m=m, total_offset=offset, discarded=discarded,
        )

    v_m = math.sqrt(m) * (conv - z.probs)
    return _wald_report(v_m, psi_m, kind, fixed_r, [epmvs], s, warnings,
                        m=m, total_offset=offset)


def _pad(a: np.ndarray, size: int) -> np.ndarray:
    """Zero-pad a vector or a square matrix to ``size`` along every axis."""
    if a.shape[0] == size:
        return a
    out = np.zeros((size,) * a.ndim)
    out[tuple(slice(0, n) for n in a.shape)] = a
    return out


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
    x_arrays, x_lens, x_offset, x_canon = _coerce_samples(x, x_support_lens)
    y_arrays, y_lens, y_offset, y_canon = _coerce_samples(y, y_support_lens)
    if len(x_arrays) + len(y_arrays) < 2:
        raise NeedTwoVariables("ed_test needs at least two variables in total")
    x_epmvs = [empirical_pmv(v, r) for v, r in zip(x_arrays, x_lens)]
    y_epmvs = [empirical_pmv(v, r) for v, r in zip(y_arrays, y_lens)]
    s_x = sum(e.pmv.r for e in x_epmvs)
    s_y = sum(e.pmv.r for e in y_epmvs)
    s = max(s_x, s_y)
    kind, fixed_r = _parse_policy(rank_policy, s)
    warnings = []
    notes = []
    if x_canon or y_canon:
        notes.append(
            "offset check uses observed minima; with small samples the "
            "observed minimum can exceed the true one"
        )
    if x_offset != y_offset:
        dof = fixed_r if kind == "fixed" else max(1, s)
        label = f"fixed({fixed_r})" if kind == "fixed" else kind
        return TestReport(
            statistic=math.inf,
            dof=dof,
            p_value=0.0,
            rank_policy=label,
            fallback_used=False,
            diagnostics={
                "warnings": [
                    f"total offsets differ ({x_offset} vs {y_offset}); the "
                    "null hypothesis is impossible"
                ],
                "notes": notes,
                "x_offset": x_offset,
                "y_offset": y_offset,
            },
        )

    padded = s_x != s_y
    if padded:
        warnings.append(
            f"support degrees differ ({s_x} vs {s_y}); shorter side zero-"
            "padded"
        )
    sizes = [e.n for e in x_epmvs] + [e.n for e in y_epmvs]
    m = min(sizes)
    weights = covest.weights_from_sizes(sizes)
    w_x, w_y = weights[: len(x_epmvs)], weights[len(x_epmvs):]
    conv_x = _pad(convolve_all([e.pmv for e in x_epmvs]).probs, s + 1)
    conv_y = _pad(convolve_all([e.pmv for e in y_epmvs]).probs, s + 1)
    psi_m = covest._weighted_cov([e.pmv.probs for e in x_epmvs], w_x)
    xi_m = covest._weighted_cov([e.pmv.probs for e in y_epmvs], w_y)
    total = _pad(psi_m, s + 1) + _pad(xi_m, s + 1)

    if not total.any():
        x_sums, x_disc = paired_sums(x_arrays)
        y_sums, y_disc = paired_sums(y_arrays)
        return _pearson_fallback(
            pearson_ed(x_sums, y_sums), " on both sides", x_disc + y_disc,
            kind, fixed_r, warnings, m=m, notes=notes,
            total_offset=x_offset, padded=padded,
        )

    w_m = math.sqrt(m) * (conv_x - conv_y)
    if kind == "analytic" and padded:
        warnings.append(
            "analytic rank is unavailable for padded supports; using the "
            "numeric policy"
        )
        kind = "numeric"
    return _wald_report(w_m, total, kind, fixed_r, [x_epmvs, y_epmvs], s,
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
    epmvs, z_hat, ups = covest._paired_estimates(arr, support_lens)
    s = sum(e.pmv.r for e in epmvs)
    m = arr.shape[0]
    conv = convolve_all([e.pmv for e in epmvs]).probs
    warnings = []
    if rank_policy is None:
        dof = max(1, s)
        label = "full"
    else:
        kind, fixed_r = _parse_policy(rank_policy, s)
        if kind != "fixed":
            raise InputError(
                "subind_test accepts only the default full-rank policy or "
                "fixed:N"
            )
        dof = fixed_r
        label = f"fixed({fixed_r})"

    if not ups.any():
        warnings.append(
            "covariance estimate is identically zero (degenerate paired "
            "data); no evidence against the null"
        )
        return TestReport(
            statistic=0.0,
            dof=dof,
            p_value=1.0,
            rank_policy=label,
            fallback_used=True,
            diagnostics=_base_diagnostics(m=m, warnings=warnings),
        )

    s_m = math.sqrt(m) * (conv - z_hat.pmv.probs)
    dec = symlin.eigh(ups)
    statistic = float(_wald_terms(s_m, dec, dof).sum())
    if statistic < 0.0:
        warnings.append(
            "indefinite covariance estimate produced a negative quadratic "
            "form; clamped to 0"
        )
        statistic = 0.0
    return TestReport(
        statistic=statistic,
        dof=dof,
        p_value=symlin.chi2_sf(statistic, dof),
        rank_policy=label,
        fallback_used=False,
        diagnostics=_base_diagnostics(dec=dec, m=m, warnings=warnings),
    )


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
    distributions, so no covariance estimation takes place and the full
    Moore-Penrose pseudo-inverse of the true matrix is applied.  Returns a
    ``(gof_report, ed_report)`` pair; the second is None without a y side.
    Default dof is the analytic rank of the true covariance.
    """
    x_pmvs = [p if isinstance(p, PMV) else PMV(p) for p in x_pmvs]
    x_arrays, _, _, _ = _coerce_samples(x, [p.r for p in x_pmvs])
    x_epmvs = [empirical_pmv(v, p.r) for v, p in zip(x_arrays, x_pmvs)]
    sizes = [e.n for e in x_epmvs]

    y_epmvs = None
    if y is not None:
        if y_pmvs is None:
            raise InputError("oracle_statistics needs y_pmvs when y is given")
        y_pmvs = [p if isinstance(p, PMV) else PMV(p) for p in y_pmvs]
        y_arrays, _, _, _ = _coerce_samples(y, [p.r for p in y_pmvs])
        y_epmvs = [empirical_pmv(v, p.r) for v, p in zip(y_arrays, y_pmvs)]
        sizes += [e.n for e in y_epmvs]

    m = min(sizes)
    weights = covest.weights_from_sizes(sizes)
    w_x = weights[: len(x_epmvs)]
    psi_true = covest.psi(x_pmvs, w_x)

    z = convolve_all(x_pmvs) if z is None else (z if isinstance(z, PMV) else PMV(z))
    conv_x = convolve_all([e.pmv for e in x_epmvs]).probs
    if z.support_len != conv_x.size:
        raise SupportMismatch(
            f"z has {z.support_len} cells, expected {conv_x.size}"
        )
    v_m = math.sqrt(m) * (conv_x - z.probs)
    if dof_gf is None:
        report = covariance_rank(x_pmvs)
        dof_gf = report.analytic_rank
        if dof_gf is None:
            dof_gf = report.numeric_rank
    gf_stat = _psd_wald(v_m, symlin.eigh(psi_true), psi_true.shape[0])
    gf = TestReport(
        statistic=gf_stat,
        dof=int(dof_gf),
        p_value=symlin.chi2_sf(gf_stat, int(dof_gf)),
        rank_policy="oracle",
        fallback_used=False,
        diagnostics={"warnings": [], "m": int(m)},
    )
    if y_epmvs is None:
        return gf, None

    w_y = weights[len(x_epmvs):]
    xi_true = covest.xi(y_pmvs, w_y)
    if xi_true.shape != psi_true.shape:
        raise SupportMismatch(
            "x and y sides have different total support degrees"
        )
    conv_y = convolve_all([e.pmv for e in y_epmvs]).probs
    w_m = math.sqrt(m) * (conv_x - conv_y)
    if dof_ed is None:
        report = covariance_rank(x_pmvs, y_pmvs)
        dof_ed = report.analytic_rank
        if dof_ed is None:
            dof_ed = report.numeric_rank
    total_true = psi_true + xi_true
    ed_stat = _psd_wald(w_m, symlin.eigh(total_true), total_true.shape[0])
    ed = TestReport(
        statistic=ed_stat,
        dof=int(dof_ed),
        p_value=symlin.chi2_sf(ed_stat, int(dof_ed)),
        rank_policy="oracle",
        fallback_used=False,
        diagnostics={"warnings": [], "m": int(m)},
    )
    return gf, ed
