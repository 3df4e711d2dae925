"""Output checks that recompute every statistic with plain numpy.

Nothing here imports convstat: the reference covariance, convolution and
Wald form are rebuilt from the raw integer samples with numpy.linalg, so a
defect in the package cannot hide in the check that is meant to catch it.
"""

import math
from functools import reduce

import numpy as np

# Relative agreement required between a reported statistic and the numpy
# Wald form at the reported dof: WALD_RTOL + WALD_KAPPA * eps * kappa, with
# kappa = max |lambda| / min |lambda| over the retained eigenvalues.  The
# package uses its own eigensolver, so the two forms agree to roundoff
# amplified by the smallest retained eigenvalue; on the grid the observed
# gap stays below 12 * eps * kappa.
WALD_RTOL = 1e-6
WALD_KAPPA = 1e3
# Cut applied to the retained eigenvalues, matching the package's
# documented pseudo-inverse threshold.
EIG_CUT = 1e-15
# Relative eigenvalue threshold of the package's numeric rank.
RANK_TOL = 1e-10


class CheckFailed(Exception):
    """A reported value is outside its valid range or disagrees with numpy."""


def pmf(values, r):
    counts = np.bincount(np.asarray(values, dtype=np.int64), minlength=r + 1)
    return counts / counts.sum()


def conv(vectors):
    return reduce(np.convolve, vectors, np.array([1.0]))


def _toeplitz(vec, cols):
    """Matrix T with T @ w == np.convolve(vec, w) for w of length cols."""
    return np.stack([np.convolve(vec, e) for e in np.eye(cols)], axis=1)


def assembly(pmfs, weights):
    """sum_i c_i T(x_(i)) (diag x_i - x_i x_i') T(x_(i))'."""
    dim = sum(p.size - 1 for p in pmfs) + 1
    out = np.zeros((dim, dim))
    for i, (p, c) in enumerate(zip(pmfs, weights)):
        others = conv([q for j, q in enumerate(pmfs) if j != i])
        t = _toeplitz(others, p.size)
        out += c * (t @ (np.diag(p) - np.outer(p, p)) @ t.T)
    return out


def wald(vec, cov, dof):
    """v' ((A^dof)^+) v from numpy.linalg.eigh, top dof eigenpairs.

    Returns the form and the condition number of the retained eigenvalues.
    """
    lam, vecs = np.linalg.eigh(cov)
    top = np.argsort(lam)[::-1][:dof]
    lam, vecs = lam[top], vecs[:, top]
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    if scale <= 0.0:
        return 0.0, 1.0
    keep = np.abs(lam) > EIG_CUT * scale
    proj = vecs[:, keep].T @ vec
    kappa = scale / float(np.min(np.abs(lam[keep])))
    return float(np.sum(proj * proj / lam[keep])), kappa


def gof_reference(arrays, lens, z, dof):
    pmfs = [pmf(a, r) for a, r in zip(arrays, lens)]
    sizes = np.array([a.size for a in arrays], dtype=float)
    m = sizes.min()
    vec = math.sqrt(m) * (conv(pmfs) - np.asarray(z, dtype=float))
    return wald(vec, assembly(pmfs, m / sizes), dof)


def ed_reference(x_arrays, x_lens, y_arrays, y_lens, dof):
    x_pmfs = [pmf(a, r) for a, r in zip(x_arrays, x_lens)]
    y_pmfs = [pmf(a, r) for a, r in zip(y_arrays, y_lens)]
    sizes = np.array([a.size for a in list(x_arrays) + list(y_arrays)], float)
    m = sizes.min()
    weights = m / sizes
    cov = (assembly(x_pmfs, weights[: len(x_pmfs)])
           + assembly(y_pmfs, weights[len(x_pmfs):]))
    vec = math.sqrt(m) * (conv(x_pmfs) - conv(y_pmfs))
    return wald(vec, cov, dof)


def subind_reference(table, lens, dof):
    table = np.asarray(table, dtype=np.int64)
    pmfs = [pmf(table[:, j], r) for j, r in enumerate(lens)]
    z_hat = pmf(table.sum(axis=1), sum(lens))
    cov = (np.diag(z_hat) - np.outer(z_hat, z_hat)
           - assembly(pmfs, np.ones(len(pmfs))))
    vec = math.sqrt(table.shape[0]) * (conv(pmfs) - z_hat)
    stat, kappa = wald(vec, cov, dof)
    return max(stat, 0.0), kappa


def check_report(statistic, dof, p_value, s, reference=None):
    """Range checks on one report, then agreement with the numpy form."""
    if not (math.isfinite(statistic) and statistic >= 0.0):
        raise CheckFailed(f"statistic {statistic!r} is not finite and >= 0")
    if not 0.0 <= p_value <= 1.0:
        raise CheckFailed(f"p-value {p_value!r} outside [0, 1]")
    if not 1 <= dof <= s:
        raise CheckFailed(f"dof {dof} outside 1..{s}")
    if reference is not None:
        ref, kappa = reference(dof)
        rtol = WALD_RTOL + WALD_KAPPA * np.finfo(float).eps * kappa
        if abs(statistic - ref) > rtol * max(abs(ref), 1.0):
            raise CheckFailed(
                f"statistic {statistic!r} differs from numpy Wald form "
                f"{ref!r} at dof {dof} (relative tolerance {rtol:.3g})"
            )


def numeric_rank(pmfs):
    """Eigenvalue count above RANK_TOL * lambda_max of the unit assembly."""
    lam = np.linalg.eigvalsh(assembly(pmfs, np.ones(len(pmfs))))
    top = float(lam.max())
    return int(np.sum(lam > RANK_TOL * top)) if top > 0.0 else 0


def check_rank(report, pmfs, s):
    if report.s != s:
        raise CheckFailed(f"rank report s={report.s}, expected {s}")
    if not (0 <= report.lower_bound <= s and 0 <= report.numeric_rank <= s):
        raise CheckFailed(
            f"ranks outside 0..{s}: lower {report.lower_bound}, "
            f"numeric {report.numeric_rank}"
        )
    expected = numeric_rank(pmfs)
    if report.numeric_rank != expected:
        raise CheckFailed(
            f"numeric rank {report.numeric_rank}, numpy gives {expected}"
        )
