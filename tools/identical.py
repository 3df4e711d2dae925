#!/usr/bin/env python3
"""Compare the benchmark ops' outputs of two checkouts, bit for bit.

Usage, from the root of a checkout:

    python3 tools/identical.py PARENT_CHECKOUT [--workloads W1,W2]
                               [--seeds 1-10] [--rounds 1]

The trees of PARENT_CHECKOUT and of the checkout holding this file are
compared: both trees' ``src/convstat`` and ``bench/workloads.py`` (with
its ``checks``) are loaded side by side into this one process.  For each seed
and workload, each tree builds its inputs from the seed with its own
``bench/`` code and runs the workload's first op of each kind, then
``--rounds`` rounds.  The two outputs of every op are compared: every field
of the returned dataclasses (a ``TestReport``'s ``to_dict()`` content, a
``RankReport`` with its eigenvalues and ``GcdResult``, a ``SimResult``'s
entries, ``CanonicalSamples``), dicts with their key order, arrays by
dtype, shape and bytes, floats by their bits, CLI exit codes and text, and
the class and message of an error raised instead.  Each differing op is
printed with the path of its first difference.  Exit status 1 when an op
differs, else 0.  Output checks are not run, and ``bulk_data`` writes its
CSV files to a temporary directory, not under ``bench/``.  Uses numpy and
the standard library only.
"""

import argparse
import dataclasses
import importlib
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # one BLAS thread, as in bench/run.py
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np

WORKLOADS = ("lib_grid", "bulk_data", "sim_calibration")
_OWN = ("convstat", "workloads", "checks")


def _owned(name) -> bool:
    return name.partition(".")[0] in _OWN


def _activate(modules) -> None:
    """Make ``modules`` the ones ``sys.modules`` serves for the tree names,
    so that a lazy import inside either tree finds its own package."""
    for name in [n for n in sys.modules if _owned(n)]:
        del sys.modules[name]
    sys.modules.update(modules)


def load(root):
    """``(workloads module, its sys.modules entries)`` of the checkout at
    ``root``, imported from its ``src/`` and ``bench/``."""
    root = Path(root).resolve()
    _activate({})
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    try:
        workloads = importlib.import_module("workloads")
    finally:
        del sys.path[:2]
    source = Path(sys.modules["convstat"].__file__).resolve()
    if root / "src" not in source.parents:
        sys.exit(f"error: convstat of {root} imported from {source}")
    return workloads, {n: m for n, m in sys.modules.items() if _owned(n)}


def canon(x):
    """A form of an op's output that compares equal exactly when the
    outputs agree bit for bit: dataclasses and dicts become dicts (a dict's
    key order kept as a list under ``__keys__``), lists and tuples lists,
    and arrays, floats and numpy scalars tagged leaves."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {"__type__": type(x).__name__,
                **{f.name: canon(getattr(x, f.name))
                   for f in dataclasses.fields(x)}}
    if isinstance(x, dict):
        return {"__keys__": list(x), **{k: canon(v) for k, v in x.items()}}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, float):
        return ("float", x.hex())
    if isinstance(x, np.generic):
        return (x.dtype.str, x.tobytes())
    return x


def diff(a, b, path="output"):
    """Path and values of the first difference of two canonical forms, or
    None when they are equal."""
    if a == b:
        return None
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        parts = (diff(a[k], b[k], f"{path}.{k}") for k in a)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        parts = (diff(x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b)))
    else:
        return f"{path}: {_show(a)} != {_show(b)}"
    return next(p for p in parts if p is not None)


def _show(leaf) -> str:
    if isinstance(leaf, tuple) and leaf and leaf[0] == "ndarray":
        _, dtype, shape, raw = leaf
        return repr(np.frombuffer(raw, dtype=dtype).reshape(shape).tolist())[:200]
    return repr(leaf)[:200]


def _run(op, modules):
    _activate(modules)
    try:
        return canon(op.run())
    except Exception as exc:  # an error is an output to compare too
        return {"raised": type(exc).__name__, "message": str(exc)}


def _ops(workload, rounds):
    yield from workload.first_ops()
    stream = workload.rounds()
    for _ in range(rounds):
        yield from next(stream)


def compare(trees, name, seed, rounds, scratch) -> tuple:
    """``(ops compared, differences)`` of one workload at one seed."""
    made = []
    for i, (workloads, modules) in enumerate(trees):
        _activate(modules)
        made.append(workloads.make(name, seed, os.path.join(scratch, str(i))))
    compared, differences = 0, []
    try:
        streams = [_ops(w, rounds) for w in made]
        for index, (op_a, op_b) in enumerate(zip(*streams)):
            if op_a.kind != op_b.kind:
                sys.exit(f"error: {name} seed {seed} op {index}: the trees "
                         f"build different ops ({op_a.kind}, {op_b.kind})")
            found = diff(_run(op_a, trees[0][1]), _run(op_b, trees[1][1]))
            compared += 1
            if found is not None:
                differences.append(f"{name} seed {seed} op {index} "
                                   f"({op_a.kind}): {found}")
    finally:
        for w, (_, modules) in zip(made, trees):
            _activate(modules)
            w.cleanup()
    return compared, differences


def _seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the checkout to compare with")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    here = Path(__file__).resolve().parent.parent
    trees = [load(args.parent), load(here)]
    total, found = 0, []
    with tempfile.TemporaryDirectory() as scratch:
        for name in args.workloads.split(","):
            for seed in _seeds(args.seeds):
                compared, differences = compare(trees, name, seed,
                                                args.rounds, scratch)
                total += compared
                found += differences
                print(f"{name} seed {seed}: {compared} ops, "
                      f"{len(differences)} differ", flush=True)
    for line in found:
        print(line)
    print(f"total: {total} ops compared, {len(found)} differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
