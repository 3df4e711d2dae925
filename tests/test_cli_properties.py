"""Property tests over the command line.

Small generated CSV files and PMV literals, some of them malformed, go
through ``cli.main`` for ``gof``, ``ed``, ``subind`` and ``rank``.  Every
run ends with exit code 0, 2 (input error) or 3 (numerical failure), never
an escaped exception, and a ``--json`` report has the same top-level keys
every time.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convstat.cli import main

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

REPORT_KEYS = {"statistic", "dof", "p_value", "rank_policy", "fallback_used",
               "diagnostics"}
RANK_KEYS = {"s", "gcd_degree", "gcd_residual", "analytic_rank",
             "lower_bound", "numeric_rank", "zero_index_sets", "eigenvalues"}

# Malformed inputs: observations, PMV entries and rank policies.
BAD_TOKENS = ["nan", "inf", "-1", "0.5", "abc", "9"]
BAD_WEIGHTS = ["0", "-0.5", "nan", "x"]
BAD_POLICIES = ["fixed:0", "fixed:40", "bogus"]
# None: no --rank option.  subind accepts only its full-rank default or
# fixed:N.
GOF_ED_POLICIES = ["analytic", "numeric", "lower", "fixed:1", "fixed:2", None]
SUBIND_POLICIES = [None, "fixed:1", "fixed:2"]


def _rarely(draw):
    """True for about one draw in four: the malformed case."""
    return draw(st.sampled_from([False, False, False, True]))


def _rank_args(draw, good):
    policy = draw(st.sampled_from(BAD_POLICIES if _rarely(draw) else good))
    # "--opt=value": a value may start with "-"
    return [] if policy is None else [f"--rank={policy}"]


def _spoil(draw, tokens, bad):
    """Maybe replace one token by a malformed one."""
    tokens = [str(t) for t in tokens]
    if _rarely(draw):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
            st.sampled_from(bad))
    return tokens


@st.composite
def long_csv(draw, k_min=1):
    """Text of a long-format data file and its total support degree."""
    k = draw(st.integers(k_min, 3))
    lines = ["variable_id,value"]
    s = 0
    for i in range(k):
        r = draw(st.integers(1, 3))
        s += r
        # 0 and r observed: the canonical support is {0, ..., r}
        values = [0, r] + draw(st.lists(st.integers(0, r), max_size=10))
        lines += [f"A{i + 1},{v}" for v in _spoil(draw, values, BAD_TOKENS)]
    return "\n".join(lines) + "\n", s


@st.composite
def paired_csv(draw):
    k = draw(st.integers(2, 3))
    m = draw(st.integers(2, 15))
    cells = draw(st.lists(st.integers(0, 2), min_size=k * m, max_size=k * m))
    cells = _spoil(draw, cells, BAD_TOKENS)
    rows = [",".join(cells[j * k:(j + 1) * k]) for j in range(m)]
    header = ",".join(f"X{i + 1}" for i in range(k))
    return header + "\n" + "\n".join(rows) + "\n"


@st.composite
def pmv_literal(draw, length=None):
    """Comma literal of a PMV, sometimes of the wrong length or invalid."""
    if length is None or _rarely(draw):
        length = draw(st.integers(1, 4))
    weights = draw(st.lists(st.sampled_from(["0.1", "0.25", "0.5", "1", "2"]),
                            min_size=length, max_size=length))
    return ",".join(_spoil(draw, weights, BAD_WEIGHTS))


def run(argv, files):
    """``main(argv)`` with each ``{name}`` in argv replaced by the path of
    a file holding ``files[name]``.

    Returns the exit code and the captured stdout.
    """
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files.items():
            paths[name] = os.path.join(tmp, name + ".csv")
            with open(paths[name], "w") as fh:
                fh.write(text)
        argv = [a.format(**paths) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue()


def check(code, stdout, as_json, keys):
    assert code in (0, 2, 3)
    if as_json and code == 0:
        assert set(json.loads(stdout)) == keys


@SETTINGS
@given(data=long_csv(k_min=2), as_json=st.booleans(), extra=st.data())
def test_gof(data, as_json, extra):
    text, s = data
    literal = extra.draw(pmv_literal(s + 1))
    argv = (["gof", "{x}", f"--z={literal}"]
            + _rank_args(extra.draw, GOF_ED_POLICIES))
    code, stdout = run(argv + ["--json"] * as_json, {"x": text})
    check(code, stdout, as_json, REPORT_KEYS)


@SETTINGS
@given(x=long_csv(), y=long_csv(), as_json=st.booleans(), extra=st.data())
def test_ed(x, y, as_json, extra):
    argv = ["ed", "{x}", "{y}"] + _rank_args(extra.draw, GOF_ED_POLICIES)
    code, stdout = run(argv + ["--json"] * as_json, {"x": x[0], "y": y[0]})
    check(code, stdout, as_json, REPORT_KEYS)


@SETTINGS
@given(data=paired_csv(), as_json=st.booleans(), extra=st.data())
def test_subind(data, as_json, extra):
    argv = ["subind", "{p}"] + _rank_args(extra.draw, SUBIND_POLICIES)
    code, stdout = run(argv + ["--json"] * as_json, {"p": data})
    check(code, stdout, as_json, REPORT_KEYS)


@SETTINGS
@given(x=st.lists(pmv_literal(), min_size=1, max_size=3),
       y=st.lists(pmv_literal(), max_size=2), as_json=st.booleans())
def test_rank(x, y, as_json):
    argv = (["rank"] + [f"--pmv={v}" for v in x]
            + [f"--y-pmv={v}" for v in y])
    code, stdout = run(argv + ["--json"] * as_json, {})
    check(code, stdout, as_json, RANK_KEYS)
