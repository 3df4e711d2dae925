"""Command-line frontend: gof | ed | subind | rank | simulate.

Data files are long-format CSV with columns ``variable_id,value`` and
optional metadata comment lines::

    #coeff A1 2        per-variable integer multiplier a_i
    #offset 1.5        global constant a_0 (a lattice point)
    #lattice 0.5       lattice unit zeta
    variable_id,value
    A1,0.5
    A1,1.0
    A2,0.5

Exit codes: 0 when a report was computed (whatever the outcome), 2 on
input errors, 3 on internal numerical failures.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import simlab
from .errors import ConvStatError, InputError, NumericalError
from .hyptest import (
    SampleSet,
    canonicalize,
    ed_test,
    gof_test,
    subind_test,
)
from .pmv import PMV, _require_finite, empirical_pmv
from .polyrank import covariance_rank

__all__ = ["main"]


def _fail(message: str) -> "InputError":
    return InputError(message)


def read_data_file(path: str) -> SampleSet:
    """Parse a long-format CSV data file into a SampleSet."""
    if not os.path.exists(path):
        raise _fail(f"{path}: no such file")
    columns = {}
    order = []
    coeffs = {}
    offset = 0.0
    zeta = 1.0
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                parts = text[1:].split()
                try:
                    if parts[0] == "coeff" and len(parts) == 3:
                        coeffs[parts[1]] = int(parts[2])
                    elif parts[0] == "offset" and len(parts) == 2:
                        offset = float(parts[1])
                    elif parts[0] == "lattice" and len(parts) == 2:
                        zeta = float(parts[1])
                    else:
                        raise ValueError
                except (ValueError, IndexError):
                    raise _fail(
                        f"{path}:{lineno}: bad metadata line {text!r}"
                    ) from None
                continue
            row = next(csv.reader([line]))
            if len(row) != 2:
                raise _fail(
                    f"{path}:{lineno}: expected 'variable_id,value', got "
                    f"{text!r}"
                )
            name, raw_value = row[0].strip(), row[1].strip()
            if not columns and name == "variable_id":
                continue
            try:
                value = float(raw_value)
            except ValueError:
                raise _fail(
                    f"{path}:{lineno}: value {raw_value!r} is not a number"
                ) from None
            if name not in columns:
                columns[name] = []
                order.append(name)
            columns[name].append(value)
    if not order:
        raise _fail(f"{path}: no observations found")
    unknown = set(coeffs) - set(order)
    if unknown:
        raise _fail(f"{path}: #coeff lines for unknown variables {sorted(unknown)}")
    return SampleSet(
        variables=tuple(np.array(columns[n]) for n in order),
        coeffs=tuple(coeffs.get(n, 1) for n in order),
        offset=offset,
        zeta=zeta,
        names=tuple(order),
    )


def read_paired_file(path: str):
    """Parse a wide CSV (one column per variable) into an m x k table."""
    if not os.path.exists(path):
        raise _fail(f"{path}: no such file")
    rows = []
    names = None
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if names is None:
                try:
                    rows.append([float(c) for c in row])
                    names = [f"X{i + 1}" for i in range(len(row))]
                except ValueError:
                    names = [c.strip() for c in row]
                continue
            try:
                values = [float(c) for c in row]
            except ValueError:
                raise _fail(f"{path}:{lineno}: non-numeric entry") from None
            if len(values) != len(names):
                raise _fail(
                    f"{path}:{lineno}: expected {len(names)} columns, got "
                    f"{len(values)}"
                )
            rows.append(values)
    if not rows:
        raise _fail(f"{path}: no observations found")
    table = np.array(rows)
    _require_finite(table, path)
    if np.any(np.abs(table - np.rint(table)) > 1e-9):
        raise _fail(f"{path}: paired observations must be integers")
    return np.rint(table).astype(np.int64), names


def _parse_pmv(text: str) -> PMV:
    if os.path.exists(text):
        with open(text) as fh:
            raw = fh.read().replace(",", " ").split()
    else:
        raw = text.replace(",", " ").split()
    try:
        values = [float(v) for v in raw]
    except ValueError:
        raise _fail(f"cannot parse PMV from {text!r}") from None
    if not values:
        raise _fail(f"empty PMV literal {text!r}")
    return PMV(values)


def _print_report(report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_dict(), indent=2))
        return
    print(f"statistic          {report.statistic:.6g}")
    print(f"degrees of freedom {report.dof}")
    print(f"p-value            {report.p_value:.6g}")
    print(f"rank policy        {report.rank_policy}")
    print(f"fallback used      {'yes' if report.fallback_used else 'no'}")
    diag = report.diagnostics
    if "total_offset" in diag:
        print(f"total offset       {diag['total_offset']}")
    eigenvalues = diag.get("eigenvalues")
    if eigenvalues:
        body = ", ".join(f"{v:.4g}" for v in eigenvalues)
        print(f"eigenvalues        [{body}]")
        retained = [v for v in eigenvalues if v > 1e-12 * max(eigenvalues)]
        if len(retained) >= 2 and min(retained) < 1e-6 * max(retained):
            print(
                "hint: eigenvalue spread is extreme; a reduced rank "
                "(--rank fixed:N) trades power for type-I control"
            )
    if diag.get("gcd_residual") is not None and diag["gcd_residual"] < 1e-6:
        print(
            "hint: the gcd decision is borderline (residual "
            f"{diag['gcd_residual']:.2g}); nearby PMV roots make the "
            "analytic rank fragile"
        )
    for w in diag.get("warnings", []):
        print(f"warning: {w}")
    for n in diag.get("notes", []):
        print(f"note: {n}")


def cmd_gof(args) -> int:
    data = canonicalize(read_data_file(args.data))
    z = _parse_pmv(args.z)
    report = gof_test(data, z, rank_policy=args.rank)
    _print_report(report, args.json)
    return 0


def cmd_ed(args) -> int:
    x = canonicalize(read_data_file(args.x_data))
    y = canonicalize(read_data_file(args.y_data))
    report = ed_test(x, y, rank_policy=args.rank)
    _print_report(report, args.json)
    return 0


def cmd_subind(args) -> int:
    table, _ = read_paired_file(args.data)
    if np.any(table < 0):
        raise _fail("paired observations must be nonnegative integers")
    report = subind_test(table, rank_policy=args.rank)
    _print_report(report, args.json)
    return 0


def cmd_rank(args) -> int:
    if args.pmv:
        x_pmvs = [_parse_pmv(t) for t in args.pmv]
    elif args.data:
        canon = canonicalize(read_data_file(args.data))
        x_pmvs = [
            empirical_pmv(v, r).pmv
            for v, r in zip(canon.variables, canon.support_lens)
        ]
    else:
        raise _fail("rank needs either a data file or --pmv literals")
    y_pmvs = [_parse_pmv(t) for t in args.y_pmv] if args.y_pmv else None
    report = covariance_rank(x_pmvs, y_pmvs)
    if args.json:
        print(json.dumps({
            "s": report.s,
            "gcd_degree": report.gcd.degree,
            "gcd_residual": report.gcd.residual,
            "analytic_rank": report.analytic_rank,
            "lower_bound": report.lower_bound,
            "numeric_rank": report.numeric_rank,
            "zero_index_sets": [list(z) for z in report.zero_index_sets],
            "eigenvalues": [float(v) for v in report.eigenvalues],
        }, indent=2))
        return 0
    print(f"total support degree s  {report.s}")
    print(f"gcd degree              {report.gcd.degree}")
    if report.analytic_rank is not None:
        print(f"analytic rank           {report.analytic_rank}")
    else:
        print("analytic rank           unavailable (PMVs not interior)")
        print(f"rank lower bound        {report.lower_bound}")
    print(f"numeric rank            {report.numeric_rank}")
    body = ", ".join(f"{v:.4g}" for v in report.eigenvalues)
    print(f"eigenvalues             [{body}]")
    return 0


def cmd_simulate(args) -> int:
    scn, axis, values = simlab.load_config(args.config)
    results = simlab.sweep(scn, axis, values, workers=args.workers)
    prefix = args.out
    simlab.write_csv(results, prefix + ".csv")
    simlab.write_json(results, prefix + ".json", scn, axis)
    print(f"wrote {prefix}.csv")
    print(f"wrote {prefix}.json")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convstat",
        description=(
            "Convolution-based tests for sums of independent integer-"
            "valued random variables with unequal sample sizes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gof = sub.add_parser("gof", help="goodness-of-fit test of a sum")
    gof.add_argument("data", help="long-format CSV of observations")
    gof.add_argument("--z", required=True,
                     help="hypothesized PMV (comma literal or file)")
    gof.add_argument("--rank", default="analytic",
                     help="analytic | numeric | lower | fixed:N")
    gof.add_argument("--json", action="store_true")
    gof.set_defaults(func=cmd_gof)

    ed = sub.add_parser("ed", help="equality-in-distribution test")
    ed.add_argument("x_data")
    ed.add_argument("y_data")
    ed.add_argument("--rank", default="analytic",
                    help="analytic | numeric | lower | fixed:N")
    ed.add_argument("--json", action="store_true")
    ed.set_defaults(func=cmd_ed)

    subind = sub.add_parser("subind", help="sub-independence test")
    subind.add_argument("data", help="wide CSV, one column per variable")
    subind.add_argument("--rank", default=None, help="default full rank s")
    subind.add_argument("--json", action="store_true")
    subind.set_defaults(func=cmd_subind)

    rank = sub.add_parser("rank", help="covariance rank analysis")
    rank.add_argument("data", nargs="?", default=None)
    rank.add_argument("--pmv", action="append", default=[],
                      help="PMV literal, repeatable")
    rank.add_argument("--y-pmv", action="append", default=[],
                      help="second-side PMV literal, repeatable")
    rank.add_argument("--json", action="store_true")
    rank.set_defaults(func=cmd_rank)

    sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    sim.add_argument("config", help="JSON scenario config")
    sim.add_argument("--out", required=True, help="output path prefix")
    sim.add_argument("--workers", type=int, default=1)
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ConvStatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
