#!/usr/bin/env python3
"""convstat benchmark: one workload per run, closed loop, one caller.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lib_grid --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36

The package is imported from ``src/`` next to this directory and nowhere
else; without it the run stops with an error before printing a result.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory for the workloads and
metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

# One BLAS/OpenMP thread, set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("sim_calibration", "lib_grid", "bulk_data")
# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def import_package():
    """Import convstat from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "convstat", "__init__.py")):
        sys.exit(f"error: {SRC}/convstat not found; run from a checkout")
    sys.path.insert(0, SRC)
    import convstat

    if not os.path.abspath(convstat.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: convstat imported from {convstat.__file__}")
    sys.path.insert(0, HERE)


def probe(args):
    """Cold set-up in this fresh process: import, then the first op of each kind."""
    start = time.perf_counter()
    import_package()
    import_s = time.perf_counter() - start
    import workloads

    wl = workloads.make(args.workload, args.seed, args.data_dir)
    first_ops_s = 0.0
    for op in wl.first_ops():
        t0 = time.perf_counter()
        result = op.run()
        first_ops_s += time.perf_counter() - t0
        op.check(result)
    print(json.dumps({"import_s": import_s, "first_ops_s": first_ops_s}))


def setup_times(args, data_dir):
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--data-dir", data_dir]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


class Tally:
    """Timings and outcomes of the rounds measured under one setting."""

    def __init__(self):
        self.latencies = []
        self.rounds = 0
        self.by_kind = {}
        self.errors = Counter()
        self.attempted = self.failed = self.units = self.ops = 0
        self.busy_s = 0.0

    def throughput(self):
        """Op units per second of op execution, each op timed at the
        median latency of its kind.  The per-kind medians keep slow
        stretches of a shared host from moving it."""
        return self.units / sum(len(lat) * statistics.median(lat)
                                for lat in self.by_kind.values())


def measure(wl, seconds, tracer=None):
    """Run whole rounds until ``seconds`` have passed and the workload is
    satisfied.  Only op execution is timed; input generation and output
    checks run between ops.

    With a tracer, rounds alternate between untraced and traced, so both
    settings see the same machine load; returns ``(untraced, traced)``.
    """
    tallies = (Tally(), Tally())
    deadline = time.perf_counter() + seconds
    for index, ops in enumerate(wl.rounds()):
        traced = tracer is not None and index % 2 == 1
        tally = tallies[traced]
        patched = tracer.install() if traced else []
        busy = 0.0
        try:
            for op in ops:
                if traced:
                    tracer.op_id = tally.ops
                t0 = time.perf_counter()
                try:
                    result = op.run()
                    error = None
                except Exception as exc:  # any failure is counted, not fatal
                    error = type(exc).__name__
                elapsed = time.perf_counter() - t0
                if traced:
                    tracer.op_id = -1
                if error is None:
                    try:
                        op.check(result)
                    except Exception as exc:
                        error = type(exc).__name__
                result = None
                if error is not None:
                    tally.errors[error] += op.units
                    tally.failed += op.units
                tally.attempted += op.units
                tally.ops += 1
                tally.by_kind.setdefault(op.kind, []).append(elapsed)
                busy += elapsed
                tally.units += op.units
                if not wl.latency_per_round:
                    tally.latencies.append(elapsed)
        finally:
            if patched:
                tracer.uninstall(patched)
        if wl.latency_per_round:
            tally.latencies.append(busy)
        tally.rounds += 1
        tally.busy_s += busy
        if (time.perf_counter() >= deadline and wl.enough()
                and (tracer is None or traced)):
            break
    return tallies


def tail(latencies):
    """Latency at the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def run(args):
    import_package()
    import tracing
    import workloads

    data_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    wl = workloads.make(args.workload, args.seed, data_dir)
    try:
        probes = [] if args.trace else setup_times(args, data_dir)
        for op in wl.first_ops():  # warm-up, untimed
            op.check(op.run())
        tracer = tracing.Tracer() if args.trace else None
        plain, traced = measure(wl, args.seconds, tracer)
        final = wl.final_failures()
        shares = wl.shares()
    finally:
        wl.cleanup()

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    errors = plain.errors + traced.errors
    for error, units in final:
        errors[error] += units
        failed += units
    # A whole-run check can fail units that an op check already failed.
    failed = min(failed, attempted)
    median_ms_by_kind = {k: 1e3 * statistics.median(v)
                         for k, v in plain.by_kind.items()}

    if args.trace:
        metrics = tracer.per_op(traced.units, traced.busy_s)
        metrics["trace_overhead_ratio"] = (
            plain.throughput() / traced.throughput(), "ratio")
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans_{args.workload}.jsonl"))
        notes = {"rounds_untraced": plain.rounds,
                 "rounds_traced": traced.rounds,
                 "traced_ops": traced.ops, "spans": len(tracer.spans),
                 "median_op_ms_by_kind_untraced": median_ms_by_kind}
    else:
        lat_ms = [1e3 * x for x in plain.latencies]
        tail_ms, tail_pct, beyond = tail(lat_ms)
        setup = [p["import_s"] + p["first_ops_s"] for p in probes]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (plain.throughput(), "1/s"),
            "latency_p50_ms": (statistics.median(lat_ms), "ms"),
            "latency_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes = {
            "latency_tail": {"percentile": round(tail_pct, 2),
                             "samples": len(lat_ms), "beyond": beyond},
            "latency_unit": "round" if wl.latency_per_round else wl.unit,
            "rounds": plain.rounds,
            "median_op_ms_by_kind": median_ms_by_kind,
            "setup_probes_s": setup,
            "import_s": [p["import_s"] for p in probes],
        }

    fail_ratio = failed / attempted if attempted else 1.0
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}  op unit: one {wl.unit}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':32s} {fail_ratio:14.6g} ratio"
          f"  ({failed}/{attempted}; by class {dict(errors)})")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": environment(), "input_shares": shares,
                      "fail_by_class": dict(errors), "notes": notes}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))


def run_all(args):
    """Each workload in its own process; their outputs in turn."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, text=True, capture_output=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not json.loads(
                proc.stdout.strip().splitlines()[-1])["correct"]:
            status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--data-dir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.probe:
        probe(args)
    elif args.workload == "all":
        return run_all(args)
    else:
        run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
