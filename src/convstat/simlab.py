"""Monte Carlo harness for the two-Bernoulli benchmark model.

One scenario draws ``n1`` Bernoulli(p) values, ``n2`` Bernoulli(q) values
and ``n3`` values of a correlated-pair sum ``z(rho)``, then evaluates the
requested test statistics on each of ``L`` independent replicates and
reports rejection proportions at level ``alpha``.

Statistic identifiers follow the benchmark naming: ``C1_GF``/``C2_GF``
are the convolution statistics with fixed rank 1/2 (falling back to
Pearson when the covariance estimate is the zero matrix), ``Z1``/``Z2``
use the true covariance pseudo-inverse, and ``P`` is Pearson's
chi-squared; the ``_GF``/``_ED`` suffix selects goodness-of-fit against
``z(rho)`` or equality in distribution against the third sample.

Replicates are driven by a counter-based (Philox) generator keyed by
(seed, replicate, variable), so parallel and serial runs produce
bit-identical results.
"""

import csv
import dataclasses
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import covest, symlin
from .errors import InputError, ModelDegenerate
from .pmv import PMV

__all__ = [
    "ALL_STATISTICS",
    "SimScenario",
    "StatResult",
    "SimResult",
    "z_rho",
    "sample_scenario",
    "run_scenario",
    "rejection_proportion",
    "sweep",
    "write_csv",
    "write_json",
    "load_config",
]

ALL_STATISTICS = (
    "P_GF", "C1_GF", "C2_GF", "Z1_GF", "Z2_GF",
    "P_ED", "C1_ED", "C2_ED", "Z1_ED", "Z2_ED",
)


@dataclass(frozen=True)
class SimScenario:
    """One benchmark experiment: model parameters and replication plan."""

    p: float
    q: float
    rho: float
    n1: int
    n2: int
    n3: int
    L: int
    alpha: float = 0.05
    statistics: tuple = ALL_STATISTICS
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.p < 1.0 and 0.0 < self.q < 1.0):
            raise InputError(f"p and q must lie in (0,1), got {self.p}, {self.q}")
        if not 0.0 <= self.rho <= 1.0:
            raise InputError(f"rho must lie in [0,1], got {self.rho}")
        for name in ("n1", "n2", "n3", "L"):
            if int(getattr(self, name)) < 1:
                raise InputError(f"{name} must be >= 1")
        if self.n1 > self.n3 or self.n2 > self.n3:
            raise InputError(
                "the benchmark convention requires n1, n2 <= n3"
            )
        if not 0.0 < self.alpha < 1.0:
            raise InputError(f"alpha must lie in (0,1), got {self.alpha}")
        unknown = set(self.statistics) - set(ALL_STATISTICS)
        if unknown:
            raise InputError(f"unknown statistics: {sorted(unknown)}")
        if int(self.seed) < 0:
            raise InputError("seed must be a nonnegative integer")
        object.__setattr__(self, "statistics", tuple(self.statistics))


@dataclass(frozen=True)
class StatResult:
    rejections: int
    proportion: float
    stderr: float
    fallback_count: int


@dataclass(frozen=True)
class SimResult:
    """Per-statistic rejection proportions for one scenario."""

    L: int
    entries: dict

    def __getitem__(self, stat_id: str) -> StatResult:
        return self.entries[stat_id]


def z_rho(p: float, q: float, rho: float) -> PMV:
    """PMV of a sum of two correlated Bernoulli(p), Bernoulli(q) variables.

    ``(1 - rho) * x1 * x2 + rho * (1 - a, 0, a)`` with
    ``a = pq + sqrt(pq(1-p)(1-q))``; the middle entry is exactly
    ``(1 - rho)(p(1-q) + q(1-p))`` and vanishes at rho = 1, which is fine
    for sampling but flagged non-interior for use as a hypothesis.
    """
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0) or not 0.0 <= rho <= 1.0:
        raise ModelDegenerate(
            f"need p, q in (0,1) and rho in [0,1]; got p={p}, q={q}, rho={rho}"
        )
    a = p * q + math.sqrt(p * q * (1.0 - p) * (1.0 - q))
    z0 = (1.0 - rho) * (1.0 - p) * (1.0 - q) + rho * (1.0 - a)
    z1 = (1.0 - rho) * (p * (1.0 - q) + q * (1.0 - p))
    z2 = (1.0 - rho) * p * q + rho * a
    return PMV([z0, z1, z2])


def _rng(seed: int, replicate: int, variable: int) -> np.random.Generator:
    key = (int(seed) << 64) | (int(replicate) << 2) | int(variable)
    return np.random.Generator(np.random.Philox(key=key))


@functools.lru_cache(maxsize=128)
def _z_cuts(p: float, q: float, rho: float):
    """Inverse-CDF cut points ``(z_0, z_0 + z_1)`` of ``z_rho(p, q, rho)``."""
    z = z_rho(p, q, rho).probs
    return z[0], z[0] + z[1]


def sample_scenario(scn: SimScenario, replicate: int):
    """Draw one replicate's raw data, deterministic in (seed, replicate)."""
    x1 = (_rng(scn.seed, replicate, 0).random(scn.n1) < scn.p).astype(np.int64)
    x2 = (_rng(scn.seed, replicate, 1).random(scn.n2) < scn.q).astype(np.int64)
    cut0, cut1 = _z_cuts(scn.p, scn.q, scn.rho)
    u = _rng(scn.seed, replicate, 2).random(scn.n3)
    y = (u >= cut0).astype(np.int64) + (u >= cut1).astype(np.int64)
    return x1, x2, y


@functools.lru_cache(maxsize=128)
def _chi2_critical(alpha: float, dof: int) -> float:
    """Smallest t with chi2_sf(t, dof) <= alpha, by bisection."""
    hi = 1.0
    while symlin.chi2_sf(hi, dof) > alpha:
        hi *= 2.0
        if hi > 1e9:
            break
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if symlin.chi2_sf(mid, dof) > alpha:
            lo = mid
        else:
            hi = mid
    return hi


class _Context:
    """Per-scenario precomputation shared by every replicate."""

    def __init__(self, scn: SimScenario):
        self.scn = scn
        self.m = min(scn.n1, scn.n2, scn.n3)
        self.c1 = self.m / scn.n1
        self.c2 = self.m / scn.n2
        self.c3 = self.m / scn.n3
        self.sqrt_m = math.sqrt(self.m)
        self.z_hyp = z_rho(scn.p, scn.q, scn.rho).probs
        self.crit = {1: _chi2_critical(scn.alpha, 1),
                     2: _chi2_critical(scn.alpha, 2)}
        self.need_ed = any(s.endswith("_ED") for s in scn.statistics)
        self.need_z_gf = any(s in ("Z1_GF", "Z2_GF") for s in scn.statistics)
        self.need_z_ed = any(s in ("Z1_ED", "Z2_ED") for s in scn.statistics)
        x1_pmv = PMV([1.0 - scn.p, scn.p])
        x2_pmv = PMV([1.0 - scn.q, scn.q])
        if self.need_z_gf or self.need_z_ed:
            psi_true = covest.psi([x1_pmv, x2_pmv], [self.c1, self.c2])
            self.psi_pinv = symlin.pinv(psi_true)
            if self.need_z_ed:
                xi_true = covest.xi([z_rho(scn.p, scn.q, scn.rho)], [self.c3])
                self.total_pinv = symlin.pinv(psi_true + xi_true)
        # Pearson GF: zero-probability cells drop out of the sum (the
        # middle cell at rho = 1) but the dof stays at the support size - 1.
        self.p_gf_mask = self.z_hyp > 0.0
        self.p_gf_dof = 2
        self.p_gf_expected = self.m * self.z_hyp[self.p_gf_mask]


def _u_vec(v0: float, v1: float) -> np.ndarray:
    # T(v) @ (1, -1) for a length-2 PMV v: the single direction of S(v).
    return np.array([v0, v1 - v0, -v1])


def _top2_quads(mat: np.ndarray, vec: np.ndarray):
    """(rank-1 statistic, rank-2 statistic) of ``vec' (mat^r)^+ vec``."""
    dec = symlin.eigh(mat)
    scale1 = abs(dec.values[0])
    q1 = 0.0
    if scale1 > 0.0:
        proj = float(dec.vectors[:, 0] @ vec)
        q1 = proj * proj / dec.values[0]
    q2 = q1
    scale2 = max(abs(dec.values[0]), abs(dec.values[1]))
    if scale2 > 0.0 and abs(dec.values[1]) > symlin.PINV_TOL * scale2:
        proj = float(dec.vectors[:, 1] @ vec)
        q2 = q1 + proj * proj / dec.values[1]
    return q1, q2


def _pearson_gf(ctx: _Context, sums: np.ndarray) -> float:
    counts = np.bincount(sums, minlength=3)
    observed = counts[ctx.p_gf_mask]
    return float(np.sum((observed - ctx.p_gf_expected) ** 2 / ctx.p_gf_expected))


def _pearson_ed(x_sums: np.ndarray, y: np.ndarray):
    cx = np.bincount(x_sums, minlength=3)
    cy = np.bincount(y, minlength=3)
    pooled = cx + cy
    keep = pooled > 0
    m, n3 = x_sums.size, y.size
    num = (cx[keep] * n3 - cy[keep] * m).astype(float) ** 2
    stat = float(np.sum(num / (m * n3 * pooled[keep])))
    return stat, max(1, int(keep.sum()) - 1)


def _replicate_flags(ctx: _Context, replicate: int):
    """Rejection and fallback indicators for one replicate."""
    scn = ctx.scn
    m = ctx.m
    x1, x2, y = sample_scenario(scn, replicate)
    p_hat = float(np.count_nonzero(x1)) / scn.n1
    q_hat = float(np.count_nonzero(x2)) / scn.n2
    conv = np.array([
        (1.0 - p_hat) * (1.0 - q_hat),
        p_hat * (1.0 - q_hat) + q_hat * (1.0 - p_hat),
        p_hat * q_hat,
    ])
    var1 = p_hat * (1.0 - p_hat)
    var2 = q_hat * (1.0 - q_hat)
    psi_m = (
        ctx.c1 * var1 * np.outer(_u_vec(1.0 - q_hat, q_hat),
                                 _u_vec(1.0 - q_hat, q_hat))
        + ctx.c2 * var2 * np.outer(_u_vec(1.0 - p_hat, p_hat),
                                   _u_vec(1.0 - p_hat, p_hat))
    )
    x_sums = x1[:m] + x2[:m]

    stats = {}
    fallbacks = {}
    wanted = set(scn.statistics)

    p_gf = None
    if wanted & {"P_GF", "C1_GF", "C2_GF"}:
        p_gf = _pearson_gf(ctx, x_sums)
        if "P_GF" in wanted:
            stats["P_GF"] = (p_gf, ctx.p_gf_dof)
    v_m = ctx.sqrt_m * (conv - ctx.z_hyp)
    if wanted & {"C1_GF", "C2_GF"}:
        if var1 == 0.0 and var2 == 0.0:
            for sid, dof in (("C1_GF", 1), ("C2_GF", 2)):
                if sid in wanted:
                    stats[sid] = (p_gf, dof)
                    fallbacks[sid] = 1
        else:
            q1, q2 = _top2_quads(psi_m, v_m)
            if "C1_GF" in wanted:
                stats["C1_GF"] = (q1, 1)
            if "C2_GF" in wanted:
                stats["C2_GF"] = (q2, 2)
    if ctx.need_z_gf:
        z_stat = float(v_m @ ctx.psi_pinv @ v_m)
        if "Z1_GF" in wanted:
            stats["Z1_GF"] = (z_stat, 1)
        if "Z2_GF" in wanted:
            stats["Z2_GF"] = (z_stat, 2)

    if ctx.need_ed:
        y_hat = np.bincount(y, minlength=3) / scn.n3
        w_m = ctx.sqrt_m * (conv - y_hat)
        p_ed = None
        if wanted & {"P_ED", "C1_ED", "C2_ED"}:
            p_ed, p_ed_dof = _pearson_ed(x_sums, y)
            if "P_ED" in wanted:
                stats["P_ED"] = (p_ed, p_ed_dof)
        if wanted & {"C1_ED", "C2_ED"}:
            xi_m = ctx.c3 * (np.diag(y_hat) - np.outer(y_hat, y_hat))
            total = psi_m + xi_m
            if not total.any():
                for sid, dof in (("C1_ED", 1), ("C2_ED", 2)):
                    if sid in wanted:
                        stats[sid] = (p_ed, dof)
                        fallbacks[sid] = 1
            else:
                q1, q2 = _top2_quads(total, w_m)
                if "C1_ED" in wanted:
                    stats["C1_ED"] = (q1, 1)
                if "C2_ED" in wanted:
                    stats["C2_ED"] = (q2, 2)
        if ctx.need_z_ed:
            z_stat = float(w_m @ ctx.total_pinv @ w_m)
            if "Z1_ED" in wanted:
                stats["Z1_ED"] = (z_stat, 1)
            if "Z2_ED" in wanted:
                stats["Z2_ED"] = (z_stat, 2)

    rejects = np.zeros(len(scn.statistics), dtype=np.int64)
    falls = np.zeros(len(scn.statistics), dtype=np.int64)
    for i, sid in enumerate(scn.statistics):
        value, dof = stats[sid]
        if value > ctx.crit[dof]:
            rejects[i] = 1
        falls[i] = fallbacks.get(sid, 0)
    return rejects, falls


def _count_block(args):
    scn, start, stop = args
    ctx = _Context(scn)
    rejects = np.zeros(len(scn.statistics), dtype=np.int64)
    falls = np.zeros(len(scn.statistics), dtype=np.int64)
    for rep in range(start, stop):
        r, f = _replicate_flags(ctx, rep)
        rejects += r
        falls += f
    return rejects, falls


def run_scenario(scn: SimScenario, workers: int = 1) -> SimResult:
    """Evaluate all requested statistics over ``scn.L`` replicates.

    With ``workers > 1`` the replicates are split into contiguous blocks
    handled by a process pool; the counter-based RNG keying makes the
    result identical to a serial run.
    """
    if workers <= 1:
        rejects, falls = _count_block((scn, 0, scn.L))
    else:
        # Imported here: serial runs, the common case, do not pay its
        # import time and memory.
        import multiprocessing

        chunk = -(-scn.L // int(workers))
        blocks = [
            (scn, start, min(start + chunk, scn.L))
            for start in range(0, scn.L, chunk)
        ]
        with multiprocessing.Pool(int(workers)) as pool:
            parts = pool.map(_count_block, blocks)
        rejects = sum(p[0] for p in parts)
        falls = sum(p[1] for p in parts)
    entries = {}
    for i, sid in enumerate(scn.statistics):
        prop = rejects[i] / scn.L
        entries[sid] = StatResult(
            rejections=int(rejects[i]),
            proportion=float(prop),
            stderr=math.sqrt(prop * (1.0 - prop) / scn.L),
            fallback_count=int(falls[i]),
        )
    return SimResult(L=scn.L, entries=entries)


def rejection_proportion(scn: SimScenario, statistic_id: str,
                         workers: int = 1) -> StatResult:
    """Rejection proportion of a single statistic under the scenario."""
    if statistic_id not in ALL_STATISTICS:
        raise InputError(f"unknown statistic {statistic_id!r}")
    restricted = dataclasses.replace(scn, statistics=(statistic_id,))
    return run_scenario(restricted, workers=workers)[statistic_id]


_AXES = ("rho", "m", "p")


def _with_axis_value(scn: SimScenario, axis: str, value) -> SimScenario:
    if axis == "rho":
        return dataclasses.replace(scn, rho=float(value))
    if axis == "m":
        n = int(value)
        return dataclasses.replace(scn, n1=n, n2=n, n3=n)
    if axis == "p":
        return dataclasses.replace(scn, p=float(value))
    raise InputError(f"unknown sweep axis {axis!r}; expected one of {_AXES}")


def sweep(scn: SimScenario, axis: str, values, workers: int = 1):
    """Run the scenario across a grid on one axis.

    ``rho`` replaces the correlation, ``m`` sets ``n1 = n2 = n3``, ``p``
    moves the first Bernoulli parameter.  Returns ``[(value, SimResult)]``
    in grid order, reproducible under a fixed seed.
    """
    values = list(values)
    if not values:
        raise InputError("sweep grid must be nonempty")
    return [
        (v, run_scenario(_with_axis_value(scn, axis, v), workers=workers))
        for v in values
    ]


def _format(x) -> str:
    return f"{x:.10g}"


def write_csv(results, path) -> None:
    """Write sweep results as plot-ready CSV rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sweep_value", "statistic_id", "proportion", "stderr",
             "fallback_count"]
        )
        for value, result in results:
            for sid in sorted(result.entries):
                entry = result.entries[sid]
                writer.writerow([
                    _format(value), sid, _format(entry.proportion),
                    _format(entry.stderr), entry.fallback_count,
                ])


def write_json(results, path, scenario: SimScenario, axis: str) -> None:
    """JSON mirror of :func:`write_csv` with the scenario attached."""
    payload = {
        "scenario": {
            "p": scenario.p, "q": scenario.q, "rho": scenario.rho,
            "n1": scenario.n1, "n2": scenario.n2, "n3": scenario.n3,
            "L": scenario.L, "alpha": scenario.alpha,
            "seed": scenario.seed,
            "statistics": list(scenario.statistics),
        },
        "axis": axis,
        "results": [
            {
                "sweep_value": value,
                "statistics": {
                    sid: {
                        "proportion": entry.proportion,
                        "stderr": entry.stderr,
                        "rejections": entry.rejections,
                        "fallback_count": entry.fallback_count,
                    }
                    for sid, entry in sorted(result.entries.items())
                },
            }
            for value, result in results
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path):
    """Read a scenario (and optional sweep) from a JSON config file.

    Required keys: p, q, rho, n1, n2, n3, L, seed.  Optional: alpha,
    statistics, sweep = {"axis": ..., "values": [...]}.  Without a sweep
    the run is a single point on the rho axis.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"config {path}: {exc}") from None
    required = ["p", "q", "rho", "n1", "n2", "n3", "L", "seed"]
    missing = [k for k in required if k not in raw]
    if missing:
        raise InputError(f"config {path}: missing keys {missing}")
    scn = SimScenario(
        p=float(raw["p"]), q=float(raw["q"]), rho=float(raw["rho"]),
        n1=int(raw["n1"]), n2=int(raw["n2"]), n3=int(raw["n3"]),
        L=int(raw["L"]), alpha=float(raw.get("alpha", 0.05)),
        statistics=tuple(raw.get("statistics", ALL_STATISTICS)),
        seed=int(raw["seed"]),
    )
    sweep_spec = raw.get("sweep")
    if sweep_spec is None:
        return scn, "rho", [scn.rho]
    if "axis" not in sweep_spec or "values" not in sweep_spec:
        raise InputError(f"config {path}: sweep needs 'axis' and 'values'")
    axis = str(sweep_spec["axis"])
    if axis not in _AXES:
        raise InputError(f"config {path}: sweep axis must be one of {_AXES}")
    values = list(sweep_spec["values"])
    if not values:
        raise InputError(f"config {path}: sweep values must be nonempty")
    return scn, axis, values
