"""Monte Carlo harness for the two-Bernoulli benchmark model.

One scenario draws ``n1`` Bernoulli(p) values, ``n2`` Bernoulli(q) values
and ``n3`` values of a correlated-pair sum ``z(rho)``, then evaluates the
requested test statistics on each of ``L`` independent replicates and
reports rejection proportions at level ``alpha``.

Statistic identifiers follow the benchmark naming: ``C1_GF``/``C2_GF``
are the convolution statistics with fixed rank 1/2 (falling back to
Pearson when the covariance estimate is the zero matrix), ``Z1``/``Z2``
are the oracle statistics of the true covariance, and ``P`` is Pearson's
chi-squared; the ``_GF``/``_ED`` suffix selects goodness-of-fit against
``z(rho)`` or equality in distribution against the third sample.

Every statistic comes from the library core: C from ``covest._estimate``
and ``hyptest``'s Wald form, Z from the factor SVD that
``oracle_statistics`` reads (``hyptest._whitener``), P from ``hyptest``'s
Pearson sums.  Each replicate is reduced to its counts, and a block of
replicates is evaluated as one stack, in chunks of constant size.  The
simulation differs from ``gof_test`` in one input check only: a
hypothesis z with a zero cell (rho = 1) is used as is instead of raising
``ZeroExpected``.

Each variable of each replicate draws from its own counter-based (Philox)
stream, keyed by (seed, replicate, variable), so parallel and serial runs
produce bit-identical results.  One generator is re-keyed from stream to
stream; the keys, and so the draws, are those of a fresh
``Philox(key=(seed << 64) | (replicate << 2) | variable)``.  The key holds
64 bits of seed and 62 bits of replicate, so a seed must lie in
``[0, 2**64)`` and a replicate in ``[0, 2**62)``.

Replicates are drawn a block at a time: each variable's uniforms go row by
row into one preallocated ``(rows, n_i)`` buffer, and the block is counted
with one comparison and one row-wise count per count column.  The three
buffers together hold at most ``_DRAW_DOUBLES`` values (the package's bulk
block size ``pmv._BLOCK``), or one replicate when that is more, so memory
does not grow with ``L``.
``sample_scenario`` draws through the same path, one row.
"""

import csv
import dataclasses
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import covest, hyptest, symlin
from .errors import InputError, ModelDegenerate
from .pmv import PMV, _BLOCK as _DRAW_DOUBLES, _integer, _real

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

# A stream key holds ``(replicate << 2) | variable`` in 64 bits.
_MAX_REPLICATES = 2 ** 62


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
        for name in ("n1", "n2", "n3", "L", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("p", "q", "rho", "alpha"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not (0.0 < self.p < 1.0 and 0.0 < self.q < 1.0):
            raise InputError(f"p and q must lie in (0,1), got {self.p}, {self.q}")
        if not 0.0 <= self.rho <= 1.0:
            raise InputError(f"rho must lie in [0,1], got {self.rho}")
        for name in ("n1", "n2", "n3", "L"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1")
        if self.L > _MAX_REPLICATES:
            raise InputError(
                f"L must be at most 2**62, the replicates a key holds; "
                f"got {self.L}"
            )
        if self.n1 > self.n3 or self.n2 > self.n3:
            raise InputError(
                "the benchmark convention requires n1, n2 <= n3"
            )
        if not 0.0 < self.alpha < 1.0:
            raise InputError(f"alpha must lie in (0,1), got {self.alpha}")
        unknown = set(self.statistics) - set(ALL_STATISTICS)
        if unknown:
            raise InputError(f"unknown statistics: {sorted(unknown)}")
        if not 0 <= self.seed < 2 ** 64:
            raise InputError(
                f"seed must be an integer in [0, 2**64), got {self.seed}"
            )
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


class _KeyedStreams:
    """Uniform draws of the Philox stream keyed by (seed, replicate, variable).

    The 128-bit key is ``[(replicate << 2) | variable, seed]``.  Philox is
    counter-based, so a stream depends only on its key and counter: one
    generator is re-keyed for each stream, with a zero counter and an empty
    buffer, and draws exactly what a fresh ``Philox(key=...)`` would.  The
    one state dict is reused; a re-key changes only its key.
    """

    def __init__(self, seed: int):
        self._seed = int(seed)
        self._bits = np.random.Philox(0)
        self._gen = np.random.Generator(self._bits)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (0, self._seed)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0,
        }

    def uniform(self, replicate: int, variable: int, n=None, out=None):
        """``n`` uniforms of the stream, or as many as fill ``out``."""
        self._state["state"]["key"] = ((replicate << 2) | variable, self._seed)
        self._bits.state = self._state
        return self._gen.random(n, out=out)


@functools.lru_cache(maxsize=128)
def _z_cuts(p: float, q: float, rho: float):
    """Inverse-CDF cut points ``(z_0, z_0 + z_1)`` of ``z_rho(p, q, rho)``."""
    z = z_rho(p, q, rho).probs
    return z[0], z[0] + z[1]


def _uniform_blocks(scn: SimScenario, start: int, stop: int):
    """Yield the uniforms of replicates ``start..stop-1`` a block at a time:
    ``(u1, u2, u3)``, one row per replicate, of widths ``n1``, ``n2``, ``n3``.

    Every block is a view of the same three buffers, so a block is only
    valid until the next one is drawn.
    """
    sizes = (scn.n1, scn.n2, scn.n3)
    rows = max(1, min(stop - start, _DRAW_DOUBLES // sum(sizes)))
    buffers = [np.empty((rows, n)) for n in sizes]
    streams = _KeyedStreams(scn.seed)
    for lo in range(start, stop, rows):
        block = [buf[:stop - lo] for buf in buffers]
        for replicate, row in enumerate(zip(*block), lo):
            for variable, out in enumerate(row):
                streams.uniform(replicate, variable, out=out)
        yield block


def sample_scenario(scn: SimScenario, replicate: int):
    """Draw one replicate's raw data, deterministic in (seed, replicate).

    ``replicate`` is an integer in ``[0, 2**62)``, the key's replicate field.
    """
    replicate = _integer("replicate", replicate)
    if not 0 <= replicate < _MAX_REPLICATES:
        raise InputError(
            f"replicate must be an integer in [0, 2**62), got {replicate}"
        )
    (u1,), (u2,), (u3,) = next(_uniform_blocks(scn, replicate, replicate + 1))
    cut0, cut1 = _z_cuts(scn.p, scn.q, scn.rho)
    x1 = (u1 < scn.p).astype(np.int64)
    x2 = (u2 < scn.q).astype(np.int64)
    y = (u3 >= cut0).astype(np.int64) + (u3 >= cut1).astype(np.int64)
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


# Replicates evaluated per library call: the stacked arrays stay a few
# hundred kilobytes whatever L is.
_CHUNK = 1024


class _Context:
    """Per-scenario precomputation shared by every replicate.

    With a Z statistic requested, ``whiteners`` holds the GF and ED
    whiteners ``W`` of the true covariances (``hyptest._whitener``), and
    ``psi_pinv`` / ``total_pinv`` their ``W W'``, the pseudo-inverses that
    the limiting-distribution checks read.
    """

    def __init__(self, scn: SimScenario):
        self.scn = scn
        self.m = min(scn.n1, scn.n2, scn.n3)
        self.weights = covest.weights_from_sizes([scn.n1, scn.n2, scn.n3])
        self.sqrt_m = math.sqrt(self.m)
        self.z_hyp = z_rho(scn.p, scn.q, scn.rho).probs
        # Indexed by dof; Pearson ED's dof varies per replicate.
        self.crit = np.array([math.inf, _chi2_critical(scn.alpha, 1),
                              _chi2_critical(scn.alpha, 2)])
        if any(sid.startswith("Z") for sid in scn.statistics):
            x_true = [np.array([1.0 - b, b]) for b in (scn.p, scn.q)]
            gf, ed = (hyptest._whitener(sides, self.weights)[0]
                      for sides in ([x_true], [x_true, [self.z_hyp]]))
            self.whiteners = {"GF": gf, "ED": ed}
            self.psi_pinv, self.total_pinv = gf @ gf.T, ed @ ed.T


def _sample_counts(scn: SimScenario, m: int, start: int, stop: int):
    """Each replicate reduced to counts: ones in x1 and x2, and the cell
    counts of the paired sums ``x1[:m] + x2[:m]`` and of y.

    The counts come straight from the uniforms ``sample_scenario`` draws,
    so they equal the counts of its output.
    """
    cut0, cut1 = _z_cuts(scn.p, scn.q, scn.rho)
    # One row per count: ones in x1[m:] and x2[m:] (the heads are added
    # below), ones in x1[:m] and x2[:m], both ones, y >= 1 and y >= 2.
    counts = np.empty((7, stop - start), dtype=np.int64)
    lo = 0
    for u1, u2, u3 in _uniform_blocks(scn, start, stop):
        b1, b2 = u1 < scn.p, u2 < scn.q
        h1, h2 = b1[:, :m], b2[:, :m]
        hi = lo + len(u1)
        for col, flags in enumerate((b1[:, m:], b2[:, m:], h1, h2, h1 & h2,
                                     u3 >= cut0, u3 >= cut1)):
            flags.sum(axis=1, out=counts[col, lo:hi])  # trues per row
        lo = hi
    head1, head2, both, y_ge1, y_ge2 = counts[2:]
    ones = (counts[:2] + counts[2:4]).T
    sum_counts = np.stack([m - head1 - head2 + both, head1 + head2 - 2 * both,
                           both], axis=-1)
    y_counts = np.stack([scn.n3 - y_ge1, y_ge1 - y_ge2, y_ge2], axis=-1)
    return ones, sum_counts, y_counts


def _block_statistics(ctx: _Context, start: int, stop: int) -> dict:
    """``{statistic id: (values, dof, fallback mask)}`` for the replicates
    ``start..stop-1``, computed on their stacked empirical PMVs."""
    scn = ctx.scn
    wanted = set(scn.statistics)
    ones, sum_counts, y_counts = _sample_counts(scn, ctx.m, start, stop)
    x_probs = [np.stack([n - k, k], axis=-1) / n
               for n, k in zip((scn.n1, scn.n2), ones.T)]
    none = np.zeros(stop - start, dtype=bool)
    stats = {
        "P_GF": (hyptest._pearson_gof_stat(sum_counts, ctx.z_hyp), 2, none),
        "P_ED": (*hyptest._pearson_ed_stat(sum_counts, y_counts), none),
    }
    y_hat = y_counts / scn.n3
    for fam, sides, hyp in (("GF", [x_probs], ctx.z_hyp),
                            ("ED", [x_probs, [y_hat]], y_hat)):
        c_ids, z_ids = {f"C1_{fam}", f"C2_{fam}"}, {f"Z1_{fam}", f"Z2_{fam}"}
        if not wanted & (c_ids | z_ids):
            continue
        convs, cov, _ = covest._estimate(sides, ctx.weights, 3)
        vec = ctx.sqrt_m * (convs[0] - hyp)
        if wanted & c_ids:
            # Fixed rank 1 and 2; Pearson where the estimate is zero.
            dec = symlin._spectrum(cov)
            fallback = ~cov.any(axis=(-2, -1))
            for r in (1, 2):
                value = np.where(fallback, stats[f"P_{fam}"][0],
                                 hyptest._psd_wald(vec, dec, r))
                stats[f"C{r}_{fam}"] = (value, r, fallback)
        if wanted & z_ids:
            z = np.square(vec @ ctx.whiteners[fam]).sum(axis=-1)
            stats.update({f"Z{r}_{fam}": (z, r, none) for r in (1, 2)})
    return stats


def _count_block(args):
    scn, start, stop = args
    ctx = _Context(scn)
    rejects = np.zeros(len(scn.statistics), dtype=np.int64)
    falls = np.zeros(len(scn.statistics), dtype=np.int64)
    for lo in range(start, stop, _CHUNK):
        stats = _block_statistics(ctx, lo, min(lo + _CHUNK, stop))
        for i, sid in enumerate(scn.statistics):
            value, dof, fallback = stats[sid]
            rejects[i] += np.count_nonzero(value > ctx.crit[dof])
            falls[i] += np.count_nonzero(fallback)
    return rejects, falls


def run_scenario(scn: SimScenario, workers: int = 1) -> SimResult:
    """Evaluate all requested statistics over ``scn.L`` replicates.

    With ``workers > 1`` the replicates are split into contiguous blocks
    handled by a pool of at most one process per block; the counter-based
    RNG keying makes the result identical to a serial run.
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
        with multiprocessing.Pool(min(int(workers), len(blocks))) as pool:
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
    what = f"sweep value on axis {axis}"
    if axis == "rho":
        return dataclasses.replace(scn, rho=_real(what, value))
    if axis == "m":
        n = _integer(what, value)
        return dataclasses.replace(scn, n1=n, n2=n, n3=n)
    if axis == "p":
        return dataclasses.replace(scn, p=_real(what, value))
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
    points = [_with_axis_value(scn, axis, v) for v in values]
    return [
        (v, run_scenario(point, workers=workers))
        for v, point in zip(values, points)
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
    the run is a single point on the rho axis.  :class:`SimScenario`
    checks every field; its ``InputError`` comes back with the config path
    in front.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError(f"config {path}: expected a JSON object")
    required = ["p", "q", "rho", "n1", "n2", "n3", "L", "seed"]
    missing = [k for k in required if k not in raw]
    if missing:
        raise InputError(f"config {path}: missing keys {missing}")
    statistics = raw.get("statistics", list(ALL_STATISTICS))
    if not (isinstance(statistics, list)
            and all(isinstance(sid, str) for sid in statistics)):
        raise InputError(
            f"config {path}: statistics must be a list of names, got "
            f"{statistics!r}"
        )
    try:
        scn = SimScenario(
            alpha=raw.get("alpha", 0.05),
            statistics=tuple(statistics),
            **{key: raw[key] for key in required},
        )
    except InputError as exc:
        raise InputError(f"config {path}: {exc}") from None
    sweep_spec = raw.get("sweep")
    if sweep_spec is None:
        return scn, "rho", [scn.rho]
    if not (isinstance(sweep_spec, dict)
            and "axis" in sweep_spec and "values" in sweep_spec):
        raise InputError(f"config {path}: sweep needs 'axis' and 'values'")
    axis = str(sweep_spec["axis"])
    if axis not in _AXES:
        raise InputError(f"config {path}: sweep axis must be one of {_AXES}")
    values = sweep_spec["values"]
    if not isinstance(values, list) or not values:
        raise InputError(
            f"config {path}: sweep values must be a nonempty list, got "
            f"{values!r}"
        )
    for value in values:  # every grid point is checked before any run
        _with_axis_value(scn, axis, value)
    return scn, axis, values
