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
import json
import os
import re
import sys

import numpy as np

from . import simlab
from .errors import ConvStatError, InputError, LatticeViolation, NumericalError
from .hyptest import (
    SampleSet,
    _to_lattice_ints,
    canonicalize,
    ed_test,
    gof_test,
    subind_test,
)
from .pmv import PMV, empirical_pmv
from .polyrank import covariance_rank

__all__ = ["main"]


def _fail(message: str) -> "InputError":
    return InputError(message)


# A blank line, or one whose first non-blank character is "#".
_LONG_SKIP = re.compile(r"^[^\S\n]*(?:#.*)?$", re.M)
# A line of nothing but blanks and commas: a row of empty cells.
_WIDE_SKIP = re.compile(r"^(?:[^\S\n]|,)*$", re.M)
_parser = None  # built by the first main() call, reused by later ones


def _read_lines(path: str, skip):
    """Read ``path`` once and split off the lines that ``skip`` matches.

    Returns the other lines, their 1-based line numbers, and the
    ``(lineno, stripped text)`` of the skipped lines that are not blank.
    """
    if not os.path.exists(path):
        raise _fail(f"{path}: no such file")
    with open(path) as fh:
        text = fh.read()
    lines = text.split("\n")
    skipped, lineno, pos = [], 0, 0
    for match in skip.finditer(text):
        lineno += text.count("\n", pos, match.start())
        pos = match.start()
        skipped.append(lineno)
    data, prev = [], 0
    for i in skipped:
        data += lines[prev:i]
        prev = i + 1
    data += lines[prev:]
    numbers = np.delete(np.arange(1, len(lines) + 1), skipped)
    notes = [(i + 1, lines[i].strip()) for i in skipped if lines[i].strip()]
    return data, numbers, notes


def _loadtxt(lines, dtype, ndmin=2, usecols=None):
    """numpy's C parser on CSV lines; ``#`` is data, not a comment."""
    return np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"',
                      comments=None, ndmin=ndmin, usecols=usecols)


_OPEN_QUOTE = "quoted field is not closed on its line"


def _quote_runs_on(lines, i) -> bool:
    """Whether line ``i`` leaves a quoted field open, so that numpy's
    parser joins line ``i + 1`` to its row."""
    return len(_loadtxt(lines[i:i + 2], object, ndmin=1, usecols=0)) == 1


def _bad_line(lines, numbers, parse, describe):
    """``(lineno, message)`` for the first line that makes ``parse`` fail.

    ``parse`` raises ValueError on a prefix of ``lines`` exactly when the
    prefix holds a bad line, so the shortest failing prefix ends at the
    first one.  numpy's parser carries a quoted field that is still open
    at the end of a line on into the next line; ``parse`` refuses the
    joined row, and the line that left the quote open is reported.
    """
    good, bad = 0, len(lines)
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            parse(lines[:mid])
        except ValueError:
            bad = mid
        else:
            good = mid
    bad -= 1
    if bad and _quote_runs_on(lines, bad - 1):
        return int(numbers[bad - 1]), _OPEN_QUOTE
    return int(numbers[bad]), describe(lines[bad])


def _name_width(lines) -> int:
    """The longest first field of ``lines``, a bound on the parsed names.

    A first field ends at the first comma of its line, unless the line
    opens with a quote; then it may hold commas and run to the line's end.
    """
    codes = np.frombuffer("\n".join(lines).encode("utf-32-le"), np.uint32)
    ends = np.flatnonzero(codes == ord("\n"))
    starts = np.concatenate(([0], ends + 1))
    ends = np.append(ends, codes.size)
    commas = np.append(np.flatnonzero(codes == ord(",")), codes.size)
    stops = np.minimum(commas[np.searchsorted(commas, starts)], ends)
    quoted = codes[starts] == ord('"')
    stops[quoted] = ends[quoted]
    return max(1, int((stops - starts).max()))


def _long_rows(lines):
    """Names and values of long-format rows, without the leading headers."""
    start = 0
    while start < len(lines):
        # with the next line, to see that a quote does not join the two
        head = _loadtxt(lines[start:start + 2], object)
        if head.shape != (len(lines[start:start + 2]), 2):
            raise ValueError("expected one name and one value per line")
        if head[0, 0].strip() != "variable_id":
            break
        start += 1
    lines = lines[start:]
    if not lines:
        return np.empty(0, dtype=str), np.empty(0)
    # Names as fixed-width strings: no Python object per row.
    rows = _loadtxt(lines, [("name", f"U{_name_width(lines)}"),
                            ("value", float)], ndmin=1)
    if len(rows) != len(lines):
        raise ValueError("a quoted field runs over lines")
    return rows["name"], rows["value"]


def _describe_long(line):
    fields = _loadtxt([line], object)[0]
    if len(fields) != 2:
        return f"expected 'variable_id,value', got {line.strip()!r}"
    return f"value {fields[1].strip()!r} is not a number"


def _group(names, values):
    """Split ``values`` by stripped name, in order of first appearance."""
    raw, first, inverse = np.unique(names, return_index=True,
                                    return_inverse=True)
    ids = {}
    raw_ids = np.empty(len(raw), dtype=np.intp)
    for j in np.argsort(first):
        raw_ids[j] = ids.setdefault(str(raw[j]).strip(), len(ids))
    codes = raw_ids[inverse]
    ends = np.cumsum(np.bincount(codes, minlength=len(ids)))
    grouped = values[np.argsort(codes, kind="stable")]
    return list(ids), np.split(grouped, ends[:-1])


def read_data_file(path: str) -> SampleSet:
    """Parse a long-format CSV data file into a SampleSet."""
    lines, numbers, notes = _read_lines(path, _LONG_SKIP)
    errors = []  # (lineno, message); the first one in the file is raised
    coeffs = {}
    offset = 0.0
    zeta = 1.0
    for lineno, text in notes:
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
            errors.append((lineno, f"bad metadata line {text!r}"))
            break
    names = []
    if lines:
        try:
            names, values = _long_rows(lines)
        except ValueError:
            errors.append(_bad_line(lines, numbers, _long_rows, _describe_long))
    if errors:
        lineno, message = min(errors)
        raise _fail(f"{path}:{lineno}: {message}")
    if not len(names):
        raise _fail(f"{path}: no observations found")
    order, variables = _group(names, values)
    unknown = set(coeffs) - set(order)
    if unknown:
        raise _fail(f"{path}: #coeff lines for unknown variables {sorted(unknown)}")
    return SampleSet(
        variables=tuple(variables),
        coeffs=tuple(coeffs.get(n, 1) for n in order),
        offset=offset,
        zeta=zeta,
        names=tuple(order),
    )


def read_paired_file(path: str):
    """Parse a wide CSV (one column per variable) into an m x k table."""
    lines, numbers, _ = _read_lines(path, _WIDE_SKIP)
    if lines:
        try:
            width = _loadtxt(lines[:1], float).shape[1]
            names = [f"X{i + 1}" for i in range(width)]
        except ValueError:
            if len(lines) > 1 and _quote_runs_on(lines, 0):
                raise _fail(f"{path}:{numbers[0]}: {_OPEN_QUOTE}") from None
            names = [c.strip() for c in _loadtxt(lines[:1], object)[0]]
            lines, numbers = lines[1:], numbers[1:]
    if not lines:
        raise _fail(f"{path}: no observations found")

    def rows(lines):
        table = _loadtxt(lines, float)
        if table.shape != (len(lines), len(names)):
            raise ValueError(f"expected {len(names)} columns per line")
        return table

    def describe(line):
        try:
            width = _loadtxt([line], float).shape[1]
        except ValueError:
            return "non-numeric entry"
        return f"expected {len(names)} columns, got {width}"

    try:
        table = rows(lines)
    except ValueError:
        lineno, message = _bad_line(lines, numbers, rows, describe)
        raise _fail(f"{path}:{lineno}: {message}") from None
    # The lattice of unit 1: its tolerance forgives the decimal roundoff of
    # an integer written as text (such as 3.0000000001), while a fraction
    # such as 0.5 is refused, and so is a value beyond 2**53; NaN and
    # infinity raise DomainError.
    try:
        return _to_lattice_ints(table, 1.0, path)[0], names
    except LatticeViolation:
        raise _fail(f"{path}: paired observations must be integers") from None


def _parse_pmv(text: str) -> PMV:
    """A PMV from a literal or a file of numbers split by commas or blanks,
    read by the same parser as the data files."""
    if os.path.exists(text):
        with open(text) as fh:
            raw = fh.read().replace(",", " ").split()
    else:
        raw = text.replace(",", " ").split()
    if not raw:
        raise _fail(f"empty PMV literal {text!r}")
    try:
        values = _loadtxt([",".join(raw)], float, ndmin=1)
    except ValueError:
        raise _fail(f"cannot parse PMV from {text!r}") from None
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
    if table.min() < 0:
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
    global _parser
    _parser = _parser or _build_parser()
    args = _parser.parse_args(argv)
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
