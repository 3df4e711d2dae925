"""The three benchmark workloads: inputs, operations and output checks.

Every input comes from the workload seed.  Sizes, grid cells and the
operation mix are fixed, so two seeds differ only in the sampled values
and a run's cost does not depend on which seed it was given.

Operations call the package through module attributes (``hyptest.gof_test``
rather than a name imported here), so the wrappers that ``tracing``
installs see every call.
"""

import contextlib
import io
import json
import math
import os
import shutil
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from convstat import PMV, cli, hyptest, polyrank, simlab

import checks


@dataclass
class Op:
    """One timed unit of work; ``units`` is its size in the op unit."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    units: int = 1


class Workload:
    """Defaults for the hooks a workload may leave alone."""

    def enough(self):
        """Whether the run may stop once its time is up."""
        return True

    def final_failures(self):
        """(error class, op units) for checks made on the whole run."""
        return []

    def cleanup(self):
        pass


def _log_uniform_int(rng, lo, hi):
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _draw(rng, probs, n):
    return rng.choice(len(probs), size=n, p=probs).astype(np.int64)


# ---------------------------------------------------------------------------
# sim_calibration


# Acceptance criteria 4-7: (name, scenario parameters, statistics).
SCENARIOS = (
    ("c4_C2_ED_m1000", dict(p=0.3, q=0.8, rho=0.0, m=1000), ("C2_ED",)),
    ("c5_C2_GF_m10", dict(p=0.3, q=0.8, rho=0.0, m=10), ("C2_GF",)),
    ("c6_C1_P_GF_rho1_m10", dict(p=0.1, q=0.9, rho=1.0, m=10),
     ("C1_GF", "P_GF")),
    ("c7_C1_C2_GF_pq_m1000", dict(p=0.8, q=0.8, rho=0.0, m=1000),
     ("C1_GF", "C2_GF")),
)


def _band(name, prop, se):
    """The criterion's acceptance band on pooled rejection proportions."""
    if name.startswith("c4"):
        return 0.035 <= prop["C2_ED"] <= 0.065
    if name.startswith("c5"):
        return 0.05 < prop["C2_GF"] < 0.15
    if name.startswith("c6"):
        margin = prop["C1_GF"] - prop["P_GF"]
        return margin >= 2.0 * math.hypot(se["C1_GF"], se["P_GF"])
    return prop["C2_GF"] > 0.10 and 0.03 <= prop["C1_GF"] <= 0.08


class SimCalibration(Workload):
    """Rounds of ``run_scenario`` over the four criterion 4-7 scenarios.

    One op is one ``run_scenario`` call of ``ROUND_L`` replicates; a round
    is one call per scenario, each with a fresh scenario seed.
    """

    name = "sim_calibration"
    unit = "replicate"
    latency_per_round = True
    ROUND_L = 200
    # The bands are checked on pooled counts; below this many replicates
    # per scenario a correct program could miss one by chance.
    MIN_POOLED = 4000

    def __init__(self, seed, data_dir):
        self.rng = np.random.default_rng([seed, 1])
        self.pooled = {name: Counter() for name, _, _ in SCENARIOS}
        self.fallback_replicates = 0
        self.replicates = 0

    def _scenario(self, params, stats, L):
        p = dict(params)
        m = p.pop("m")
        return simlab.SimScenario(
            n1=m, n2=m, n3=m, L=L, statistics=stats,
            seed=int(self.rng.integers(2**62)), **p)

    def _op(self, name, params, stats, L, pool):
        scn = self._scenario(params, stats, L)

        def check(result):
            if result.L != L or set(result.entries) != set(stats):
                raise checks.CheckFailed(f"{name}: wrong result shape")
            for sid in stats:
                entry = result[sid]
                if not 0 <= entry.rejections <= L:
                    raise checks.CheckFailed(f"{name}: {sid} count out of range")
                if pool:
                    self.pooled[name][sid] += entry.rejections
            if pool:
                self.pooled[name]["L"] += L
                self.replicates += L
                self.fallback_replicates += max(
                    result[sid].fallback_count for sid in stats)

        return Op(name, lambda: simlab.run_scenario(scn, workers=1), check, L)

    def first_ops(self):
        return [self._op(n, p, s, 1, False) for n, p, s in SCENARIOS]

    def rounds(self):
        while True:
            yield (self._op(n, p, s, self.ROUND_L, True)
                   for n, p, s in SCENARIOS)

    def enough(self):
        return all(c["L"] >= self.MIN_POOLED for c in self.pooled.values())

    def final_failures(self):
        """One failure for every scenario outside its band."""
        out = []
        for name, _, stats in SCENARIOS:
            counts = self.pooled[name]
            L = counts["L"]
            prop = {sid: counts[sid] / L for sid in stats}
            se = {sid: math.sqrt(v * (1 - v) / L) for sid, v in prop.items()}
            if not _band(name, prop, se):
                out.append(("CheckFailed", L))
        return out

    def shares(self):
        total = max(self.replicates, 1)
        return {
            "pooled_rejections": {
                name: {sid: self.pooled[name][sid] / max(self.pooled[name]["L"], 1)
                       for sid in stats}
                for name, _, stats in SCENARIOS
            },
            "pooled_replicates": {n: self.pooled[n]["L"] for n, _, _ in SCENARIOS},
            "fallback_replicate_share": self.fallback_replicates / total,
        }


# ---------------------------------------------------------------------------
# lib_grid

GRID_K = (2, 3, 5)
GRID_R = (1, 3, 6)
PMV_KINDS = ("interior", "shared_root", "zero_cells")
POLICIES = ("analytic", "numeric", "lower", "fixed")
FUNCS = ("gof", "ed", "subind", "rank")


def _planted(rng, kind, k, r):
    """Per-variable PMVs; integer weight vectors when counts are exact.

    ``shared_root`` multiplies every variable's PGF by one shared linear
    factor, so the leave-one-out gcd has degree >= 1 (criterion 1's
    rank-deficient case).  Its samples hold exact multiples of the integer
    weights, so the empirical PMVs keep the shared root.  ``zero_cells``
    gives the first variable a zero cell (a point mass when r = 1).
    """
    if kind == "shared_root":
        f = rng.integers(1, 4, size=2)
        return [np.convolve(f, rng.integers(1, 5, size=r)) for _ in range(k)]
    probs = [rng.uniform(1.0, 3.0, r + 1) for _ in range(k)]
    if kind == "zero_cells":
        probs[0][1] = 0.0
        if r == 1:
            probs[0][0] = 1.0
    return [p / p.sum() for p in probs]


def _sample(rng, weights, n_lo=50, n_hi=5000):
    """One variable's sample with n in [n_lo, n_hi]."""
    if weights.dtype.kind == "i":
        total = int(weights.sum())
        mult = _log_uniform_int(rng, max(1, -(-n_lo // total)), n_hi // total)
        values = np.repeat(np.arange(weights.size), weights * mult)
        rng.shuffle(values)
        return values
    return _draw(rng, weights, _log_uniform_int(rng, n_lo, n_hi))


class LibGrid(Workload):
    """Direct calls over the (k, r) grid, three PMV kinds and four calls.

    A round is one pass over the 108 (cell, PMV kind, call) combinations.
    The rank policy rotates every second pass, so eight passes cover every
    policy on every combination, and the untraced and traced rounds of a
    traced run, which alternate, see the same policies.
    """

    name = "lib_grid"
    unit = "call"
    latency_per_round = False

    def __init__(self, seed, data_dir):
        self.rng = np.random.default_rng([seed, 2])
        self.props = Counter()
        self.calls = 0

    def _op(self, func, kind, k, r, policy_idx):
        rng = self.rng
        weights = _planted(rng, kind, k, r)
        probs = [w / w.sum() for w in weights]
        lens = [r] * k
        s = k * r
        fixed = f"fixed:{max(1, s // 3)}"
        policy = POLICIES[policy_idx % 4]
        props = Counter({f"dim_{s + 1}": 1, f"kind_{kind}": 1, f"func_{func}": 1})

        if func == "rank":
            pmvs = [PMV(p) for p in probs]
            zero = any(not p.interior for p in pmvs)
            label = "none"

            def check(report):
                checks.check_rank(report, probs, s)
                props["gcd_positive"] += report.gcd.degree >= 1
                formula = (report.lower_bound if report.analytic_rank is None
                           else report.analytic_rank)
                props["numeric_rank_below_formula"] += report.numeric_rank < formula

            run = lambda: polyrank.covariance_rank(pmvs)
        elif func == "subind":
            m = _log_uniform_int(rng, 50, 5000)
            table = np.column_stack([_draw(rng, p, m) for p in probs])
            policy = None if policy_idx % 2 else fixed
            label = "full" if policy is None else "fixed"
            zero = any(np.any(np.bincount(c, minlength=r + 1) == 0)
                       for c in table.T)

            def check(rep):
                checks.check_report(
                    rep.statistic, rep.dof, rep.p_value, s,
                    lambda dof: checks.subind_reference(table, lens, dof))
                props["fallback"] += rep.fallback_used

            run = lambda: hyptest.subind_test(table, rank_policy=policy,
                                              support_lens=lens)
        else:
            label = policy
            policy = fixed if policy == "fixed" else policy
            xs = [_sample(rng, w) for w in weights]
            ys = [_sample(rng, w) for w in weights] if func == "ed" else []
            zero = any(np.any(np.bincount(v, minlength=r + 1) == 0)
                       for v in xs + ys)
            if func == "gof":
                z = checks.conv(probs)
                run = lambda: hyptest.gof_test(xs, z, rank_policy=policy,
                                               support_lens=lens)
                reference = lambda dof: checks.gof_reference(xs, lens, z, dof)
            else:
                run = lambda: hyptest.ed_test(xs, ys, rank_policy=policy,
                                              x_support_lens=lens,
                                              y_support_lens=lens)
                reference = lambda dof: checks.ed_reference(
                    xs, lens, ys, lens, dof)

            def check(rep):
                ref = None if rep.fallback_used else reference
                checks.check_report(rep.statistic, rep.dof, rep.p_value, s, ref)
                props["fallback"] += rep.fallback_used
                props["gcd_positive"] += rep.diagnostics.get("gcd_degree", 0) >= 1

        props[f"policy_{label}"] += 1
        props["zero_cells"] += zero

        def tally(result):
            check(result)
            self.props.update(props)
            self.calls += 1

        return Op(f"{func}_dim{s + 1}", run, tally)

    def _pass(self, pass_idx):
        for ci, (k, r) in enumerate((k, r) for k in GRID_K for r in GRID_R):
            for ki, kind in enumerate(PMV_KINDS):
                for fi, func in enumerate(FUNCS):
                    yield self._op(func, kind, k, r,
                                   pass_idx // 2 + ci + ki + fi)

    def first_ops(self):
        return [self._op(func, "interior", GRID_K[0], GRID_R[0], fi)
                for fi, func in enumerate(FUNCS)]

    def rounds(self):
        pass_idx = 0
        while True:
            yield self._pass(pass_idx)
            pass_idx += 1

    def shares(self):
        total = max(self.calls, 1)
        return {key: round(v / total, 4) for key, v in sorted(self.props.items())}


# ---------------------------------------------------------------------------
# bulk_data


@dataclass(frozen=True)
class RawSpec:
    """A raw lattice model a_0 + sum a_i A_i with A_i = zeta * (lo_i + X_i)."""

    sizes: tuple
    supports: tuple
    coeffs: tuple
    lows: tuple
    offset_units: int
    zeta: float


# Canonical support lengths |a_i| * r_i sum to 6, so the covariance
# dimension is 7.
CANON_ED = RawSpec(sizes=(400_000, 250_000, 300_000), supports=(1, 2, 2),
                   coeffs=(2, -1, 1), lows=(3, -2, 0), offset_units=3,
                   zeta=0.5)
CANON_ED_Y_SIZES = (350_000, 300_000, 200_000)
CANON_GOF = RawSpec(sizes=(600_000, 450_000), supports=(1, 3),
                    coeffs=(3, -1), lows=(1, 2), offset_units=-3, zeta=0.25)
SUBIND_ROWS, SUBIND_SUPPORTS = 800_000, (2, 2, 2)
# The CSV files are kept small so that the pure-Python readers, whose speed
# on a shared host swings more than numpy's, take about half of a round.
CSV_GOF = RawSpec(sizes=(15_000, 10_000), supports=(2, 2), coeffs=(2, 1),
                  lows=(-1, 4), offset_units=1, zeta=0.5)
CSV_SUBIND_ROWS, CSV_SUBIND_SUPPORTS = 25_000, (3, 3)


def _interior(rng, r):
    p = rng.uniform(1.0, 3.0, r + 1)
    return p / p.sum()


def _canonical_pmf(p, a):
    """PMV of a * X shifted to minimum 0, for X ~ p on {0..r}."""
    out = np.zeros(abs(a) * (p.size - 1) + 1)
    out[:: abs(a)] = p if a > 0 else p[::-1]
    return out


class RawDraw:
    """Planted integer draws of a RawSpec and everything the checks need."""

    def __init__(self, rng, spec, probs=None, sizes=None):
        self.spec = spec
        self.probs = probs or [_interior(rng, r) for r in spec.supports]
        sizes = sizes or spec.sizes
        self.ints = [_draw(rng, p, n) for p, n in zip(self.probs, sizes)]
        self.canon = [a * x if a > 0 else -a * (r - x) for a, r, x in
                      zip(spec.coeffs, spec.supports, self.ints)]
        self.lens = [abs(a) * r for a, r in zip(spec.coeffs, spec.supports)]
        self.total_offset = spec.offset_units + sum(
            a * lo if a > 0 else a * (lo + r)
            for a, lo, r in zip(spec.coeffs, spec.lows, spec.supports))
        self.z = checks.conv([_canonical_pmf(p, a)
                              for p, a in zip(self.probs, spec.coeffs)])

    def lattice_values(self):
        return [self.spec.zeta * (lo + x)
                for lo, x in zip(self.spec.lows, self.ints)]

    def sample_set(self):
        return hyptest.SampleSet(
            variables=tuple(self.lattice_values()), coeffs=self.spec.coeffs,
            offset=self.spec.zeta * self.spec.offset_units, zeta=self.spec.zeta)

    def check_canonical(self, canon):
        if canon.total_offset != self.total_offset:
            raise checks.CheckFailed(
                f"total offset {canon.total_offset}, planted {self.total_offset}")
        if list(canon.support_lens) != self.lens:
            raise checks.CheckFailed(
                f"support lengths {canon.support_lens}, planted {self.lens}")


def _write_long_csv(path, draw):
    spec = draw.spec
    names = [f"A{i + 1}" for i in range(len(draw.ints))]
    with open(path, "w") as fh:
        for name, a in zip(names, spec.coeffs):
            fh.write(f"#coeff {name} {a}\n")
        fh.write(f"#offset {spec.zeta * spec.offset_units!r}\n")
        fh.write(f"#lattice {spec.zeta!r}\n")
        fh.write("variable_id,value\n")
        for name, values in zip(names, draw.lattice_values()):
            fh.write("".join(f"{name},{v!r}\n" for v in values.tolist()))


def _write_wide_csv(path, table):
    with open(path, "w") as fh:
        fh.write(",".join(f"X{j + 1}" for j in range(table.shape[1])) + "\n")
        fh.write("".join(",".join(map(str, row)) + "\n"
                         for row in table.tolist()))


def _cli_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class BulkData(Workload):
    """Large samples on small supports: canonicalize, subind and the CLI.

    A round is one op of each of the five kinds.  In-memory inputs are
    drawn fresh for every op, just before it runs, so one op's data is alive
    at a time; the two CSV files are written once at set-up.
    """

    name = "bulk_data"
    unit = "test"
    latency_per_round = False
    KINDS = ("canon_ed", "canon_gof", "subind_table", "cli_gof", "cli_subind")

    def __init__(self, seed, data_dir):
        self.rng = np.random.default_rng([seed, 3])
        self.data_dir = data_dir
        self.obs = Counter()
        self.rows = Counter()
        self.ops = Counter()
        csv_rng = np.random.default_rng([seed, 4])
        os.makedirs(data_dir, exist_ok=True)
        self.gof_path = os.path.join(data_dir, "gof.csv")
        self.subind_path = os.path.join(data_dir, "subind.csv")
        self.csv_gof = RawDraw(csv_rng, CSV_GOF)
        self.csv_table = np.column_stack(
            [_draw(csv_rng, _interior(csv_rng, r), CSV_SUBIND_ROWS)
             for r in CSV_SUBIND_SUPPORTS])
        if not os.path.exists(self.gof_path):
            _write_long_csv(self.gof_path, self.csv_gof)
            _write_wide_csv(self.subind_path, self.csv_table)

    def _check(self, kind, rep, s, reference, obs, rows):
        checks.check_report(rep.statistic, rep.dof, rep.p_value, s, reference)
        self.obs[kind] += obs
        self.rows[kind] += rows
        self.ops[kind] += 1

    def _op(self, kind):
        rng = self.rng
        if kind == "canon_ed":
            x = RawDraw(rng, CANON_ED)
            y = RawDraw(rng, CANON_ED, probs=x.probs, sizes=CANON_ED_Y_SIZES)
            raw_x, raw_y = x.sample_set(), y.sample_set()
            obs = sum(v.size for v in x.ints + y.ints)

            def run():
                cx = hyptest.canonicalize(raw_x)
                cy = hyptest.canonicalize(raw_y)
                return cx, cy, hyptest.ed_test(cx, cy)

            def check(result):
                cx, cy, rep = result
                x.check_canonical(cx)
                y.check_canonical(cy)
                self._check(kind, rep, sum(x.lens), lambda dof: checks.ed_reference(
                    x.canon, x.lens, y.canon, y.lens, dof), obs, 0)

        elif kind == "canon_gof":
            x = RawDraw(rng, CANON_GOF)
            raw = x.sample_set()
            obs = sum(v.size for v in x.ints)

            def run():
                cx = hyptest.canonicalize(raw)
                return cx, hyptest.gof_test(cx, x.z)

            def check(result):
                cx, rep = result
                x.check_canonical(cx)
                self._check(kind, rep, sum(x.lens), lambda dof: checks.gof_reference(
                    x.canon, x.lens, x.z, dof), obs, 0)

        elif kind == "subind_table":
            table = np.column_stack([_draw(rng, _interior(rng, r), SUBIND_ROWS)
                                     for r in SUBIND_SUPPORTS])
            lens = list(SUBIND_SUPPORTS)

            def run():
                return hyptest.subind_test(table)

            def check(rep):
                self._check(kind, rep, sum(lens), lambda dof: checks.subind_reference(
                    table, lens, dof), table.size, 0)

        else:
            draw, table = self.csv_gof, self.csv_table
            if kind == "cli_gof":
                z_arg = ",".join(repr(v) for v in draw.z.tolist())
                argv = ["gof", self.gof_path, "--z", z_arg, "--json"]
                rows = sum(v.size for v in draw.ints)
                s = sum(draw.lens)
                reference = lambda dof: checks.gof_reference(
                    draw.canon, draw.lens, draw.z, dof)
            else:
                argv = ["subind", self.subind_path, "--json"]
                rows = table.shape[0]
                s = int(table.max(axis=0).sum())
                reference = lambda dof: checks.subind_reference(
                    table, list(table.max(axis=0)), dof)

            def run():
                return _cli_json(argv)

            def check(result):
                code, text = result
                if code != 0:
                    raise checks.CheckFailed(f"convstat {argv[0]} exited {code}")
                rep = hyptest.TestReport.from_dict(json.loads(text))
                if (kind == "cli_gof" and rep.diagnostics.get("total_offset")
                        != draw.total_offset):
                    raise checks.CheckFailed(
                        f"CLI total offset {rep.diagnostics.get('total_offset')},"
                        f" planted {draw.total_offset}")
                self._check(kind, rep, s, reference,
                            rows * (1 if kind == "cli_gof" else table.shape[1]),
                            rows)

        return Op(kind, run, check)

    def first_ops(self):
        return (self._op(kind) for kind in self.KINDS)

    def rounds(self):
        while True:
            yield (self._op(kind) for kind in self.KINDS)

    def shares(self):
        return {
            "observations_per_op": {
                k: self.obs[k] / self.ops[k] for k in self.KINDS if self.ops[k]},
            "csv_rows_per_op": {
                k: self.rows[k] / self.ops[k] for k in self.KINDS if self.rows[k]},
        }

    def cleanup(self):
        shutil.rmtree(self.data_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SimCalibration, LibGrid, BulkData)}


def make(name, seed, data_dir):
    return WORKLOADS[name](seed, data_dir)
