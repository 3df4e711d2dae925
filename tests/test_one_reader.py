"""Each kind of input is read in one place.

``pmv._side_pmvs`` turns one side's per-variable samples into empirical
PMVs for ``gof_test``, ``ed_test``, ``oracle_statistics``, ``psi_hat``,
``xi_hat`` and the ``rank`` command, and ``pmv._as_pmv`` reads every PMV
argument.  These tests count the sample reads, sweep the public entry
points with bad input (only a ``ConvStatError`` may escape, with numpy
warnings turned into errors), and cover the ``PMV`` dunders, the CLI hints
and the CLI's numerical-failure exit.
"""

import ast
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from convstat import (
    PMV,
    CanonicalSamples,
    SampleSet,
    SimScenario,
    TestReport,
    canonicalize,
    chi2_sf,
    cli,
    conv_matrix,
    convolve,
    convolve_all,
    covariance_rank,
    ed_test,
    empirical_pmv,
    ensure_symmetric,
    gcd_degree,
    gcd_many,
    gof_test,
    leave_one_out,
    multinomial_cov,
    oracle_statistics,
    pearson_ed,
    pearson_gof,
    pinv,
    pmv,
    psi,
    psi_hat,
    quad_form,
    rank_r_approx,
    subind_test,
    symlin,
    upsilon_hat,
    weights_from_sizes,
    xi,
    xi_hat,
)
from convstat.errors import (
    DimensionMismatch,
    DomainError,
    EmptySample,
    EmptySizes,
    InputError,
    InvalidPMV,
    NeedTwoVariables,
    NumericalError,
    SupportViolation,
)
from convstat.simlab import _chi2_critical

PACKAGE = Path(pmv.__file__).resolve().parent
RNG = np.random.default_rng(24)
X = [RNG.integers(0, 3, 40), RNG.integers(0, 2, 30)]
Y = [RNG.integers(0, 2, 25), RNG.integers(0, 3, 35)]
HALF = PMV([0.5, 0.5])
THIRDS = PMV([0.2, 0.5, 0.3])
Z = pmv.convolve(THIRDS, HALF)
GOOD = np.array([0, 1, 1, 0])
PAIRED = np.stack([X[1][:25], Y[0]], axis=1)


@pytest.fixture
def reads(monkeypatch):
    """Counts of ``_side_pmvs`` calls, through every binding of the name in
    the package."""
    counts = Counter()
    original = pmv._side_pmvs

    def counted(*args, **kwargs):
        counts["_side_pmvs"] += 1
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key == "convstat" or key.startswith("convstat."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.mark.parametrize("call, sides", [
    (lambda: gof_test(X, Z), 1),
    (lambda: psi_hat(X), 1),
    (lambda: xi_hat(X[:1]), 1),
    (lambda: ed_test(X, Y), 2),
    (lambda: oracle_statistics(X, [THIRDS, HALF]), 1),
    (lambda: oracle_statistics(X, [THIRDS, HALF], y=Y, y_pmvs=[HALF, THIRDS]),
     2),
], ids=["gof", "psi_hat", "xi_hat", "ed", "oracle_x", "oracle_xy"])
def test_one_read_per_side(reads, call, sides):
    call()
    assert reads == Counter({"_side_pmvs": sides})


def test_rank_command_reads_its_data_once(reads, tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("A,0\nA,1\nA,2\nB,0\nB,1\n")
    assert cli.main(["rank", str(path), "--json"]) == 0
    assert reads == Counter({"_side_pmvs": 1})
    assert '"s": 3' in capsys.readouterr().out


def _callers(name):
    """``(module, function)`` of every call of ``name`` in the package."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Name)
                            and node.func.id == name):
                        found.add((path.stem, fn.name))
    return found


def test_empirical_pmvs_are_built_in_one_place():
    assert _callers("empirical_pmv") == {("pmv", "_side_pmvs"),
                                         ("covest", "_column_failure")}


# -- the boundary sweep ----------------------------------------------------

BAD_SAMPLES = {
    "nan": np.array([0.0, math.nan]),
    "inf": np.array([0.0, math.inf]),
    "strings": np.array(["a", "b"]),
    "numeric_strings": ["0", "1"],
    "complex": np.array([0, 1j]),
    "objects": np.array([0, None], dtype=object),
    "ragged": [[0], [0, 1]],
}
SAMPLE_CALLS = {
    "empirical_pmv": lambda bad: empirical_pmv(bad, 1),
    "gof_test": lambda bad: gof_test([GOOD, bad], Z),
    "ed_test_x": lambda bad: ed_test([GOOD, bad], [GOOD]),
    "ed_test_y": lambda bad: ed_test([GOOD], [GOOD, bad]),
    "psi_hat": lambda bad: psi_hat([GOOD, bad]),
    "xi_hat": lambda bad: xi_hat([bad]),
    "oracle_statistics": lambda bad: oracle_statistics([GOOD, bad],
                                                       [HALF, HALF]),
    "pearson_gof": lambda bad: pearson_gof(bad, Z),
    "pearson_ed": lambda bad: pearson_ed(GOOD, bad),
    "SampleSet": lambda bad: canonicalize(SampleSet(variables=(GOOD, bad))),
}
BAD_PMVS = {
    "nan": [math.nan, 1.0],
    "inf": [math.inf, 1.0],
    "strings": ["a", "b"],
    "numeric_strings": ["0.5", "0.5"],
    "complex": [0.5 + 1j, 0.5],
    "complex_array": np.array([0.5, 0.5], dtype=complex),
    "ragged": [[0.5], [0.5, 0.2]],
}
PMV_CALLS = {
    "PMV": PMV,
    "gof_test": lambda bad: gof_test([GOOD, GOOD], bad),
    "pearson_gof": lambda bad: pearson_gof(GOOD, bad),
    "covariance_rank": lambda bad: covariance_rank([HALF, bad]),
    "covariance_rank_y": lambda bad: covariance_rank([HALF], [bad]),
    "psi": lambda bad: psi([HALF, bad]),
    "xi": lambda bad: xi([bad]),
    "oracle_x_pmvs": lambda bad: oracle_statistics([GOOD, GOOD], [HALF, bad]),
    "oracle_z": lambda bad: oracle_statistics([GOOD, GOOD], [HALF, HALF],
                                              z=bad),
    "convolve": lambda bad: convolve(HALF, bad),
    "convolve_all": lambda bad: convolve_all([HALF, bad]),
    "conv_matrix": lambda bad: conv_matrix(bad, 2),
    "multinomial_cov": multinomial_cov,
    "leave_one_out": lambda bad: leave_one_out([HALF, bad]),
}
BAD_WEIGHTS = {
    "nan": [math.nan, 1.0],
    "inf": [math.inf, 1.0],
    "negative": [-1.0, 1.0],
    "zero": [0.0, 1.0],
    "strings": ["a", "1"],
    "complex": [1j, 1.0],
    "ragged": [[1, 2], [3]],
    "two_dimensional": [[1.0, 2.0]],
    "scalar": 2.0,
}
WEIGHT_CALLS = {
    "psi": lambda w: psi([HALF, THIRDS], w),
    "xi": lambda w: xi([HALF, THIRDS], w),
    "weights_from_sizes": weights_from_sizes,
}
SHORT_LENS = {
    "gof_test": lambda: gof_test(X, Z, support_lens=[2]),
    "ed_test_x": lambda: ed_test(X, Y, x_support_lens=[2]),
    "ed_test_y": lambda: ed_test(X, Y, y_support_lens=[1, 2, 3]),
    "psi_hat": lambda: psi_hat(X, [2]),
    "xi_hat": lambda: xi_hat(X, [2, 1, 1]),
    "canonical": lambda: gof_test(
        CanonicalSamples(tuple(X), 0, (2,), ("A", "B")), Z),
    "gof_test_scalar": lambda: gof_test(X, Z, support_lens=3),
    "ed_test_x_scalar": lambda: ed_test(X, Y, x_support_lens=1),
    "ed_test_y_scalar": lambda: ed_test(X, Y, y_support_lens=np.int64(2)),
    "psi_hat_scalar": lambda: psi_hat(X, 1),
    "xi_hat_scalar": lambda: xi_hat(X[:1], 2),
    "subind_test_scalar": lambda: subind_test(PAIRED, support_lens=2),
    "upsilon_hat_scalar": lambda: upsilon_hat(PAIRED, 2),
}


def _cases(calls, bads):
    return [pytest.param(call, bad, id=f"{name}-{kind}")
            for name, call in calls.items() for kind, bad in bads.items()]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, bad", _cases(SAMPLE_CALLS, BAD_SAMPLES)
                         + _cases(PMV_CALLS, BAD_PMVS)
                         + _cases(WEIGHT_CALLS, BAD_WEIGHTS))
def test_bad_input_raises_an_input_error(call, bad):
    with pytest.raises(InputError):
        call(bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", SHORT_LENS.values(), ids=SHORT_LENS.keys())
def test_wrong_number_of_support_lengths(call):
    with pytest.raises(DimensionMismatch, match="support lengths for"):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, error, message", [
    (lambda: psi_hat([[0, 1], [0, 1]], [1]),
     DimensionMismatch, "1 support lengths for 2 variables"),
    (lambda: psi_hat([[0, math.nan], [0, 1]]),
     DomainError, "variable 0: non-finite value nan"),
    (lambda: psi_hat([[0, 1], [0, math.inf]]),
     DomainError, "variable 1: non-finite value inf"),
    (lambda: xi_hat([[0, 1], []]),
     EmptySample, "variable 1 has no observations"),
    (lambda: SampleSet(variables=([[0, 1], [1, 2]],)), DimensionMismatch,
     r"variable 0 values must be a 1-D array, got shape \(2, 2\)"),
    (lambda: gof_test([[0, 0.5]], HALF),
     SupportViolation, "observations must be integers"),
    (lambda: gof_test([[0, 1]], HALF),
     NeedTwoVariables, "gof_test requires k >= 2 variables, got 1"),
    (lambda: PMV(["a", "b"]), InvalidPMV, "PMV entries must be real numbers"),
    (lambda: PMV([0.5 + 1j, 0.5]),
     InvalidPMV, "PMV entries must be real numbers"),
    (lambda: gof_test([["a", "b"], GOOD], Z),
     DomainError, "variable 0 values must be real numbers"),
    (lambda: pearson_ed(["a"], GOOD),
     DomainError, "summed observations must be real numbers"),
    (lambda: weights_from_sizes([math.nan, 3]),
     EmptySizes, "need finite sample sizes >= 1"),
    (lambda: weights_from_sizes([math.inf, 3]),
     EmptySizes, "need finite sample sizes >= 1"),
    (lambda: weights_from_sizes([]),
     EmptySizes, r"need finite sample sizes >= 1, got \[\]"),
    (lambda: psi([HALF, HALF], [-1.0, 1.0]),
     DomainError, "psi weights must be finite and > 0"),
    (lambda: xi([HALF], [math.nan]),
     DomainError, "xi weights must be finite and > 0"),
    (lambda: psi([HALF, HALF], [[1, 2]]), DimensionMismatch,
     r"psi weights must be a 1-D sequence, got shape \(1, 2\)"),
    (lambda: xi([HALF], 2.0),
     DimensionMismatch, r"xi weights must be a 1-D sequence, got shape \(\)"),
    (lambda: weights_from_sizes([[1, 2]]),
     DimensionMismatch, "sample sizes must be a 1-D sequence"),
    (lambda: weights_from_sizes(3), DimensionMismatch,
     r"sample sizes must be a 1-D sequence, got shape \(\)"),
    (lambda: conv_matrix(HALF, 2.5),
     InputError, "conv_matrix cols must be an integer, got 2.5"),
    (lambda: conv_matrix(HALF, "2"),
     InputError, "conv_matrix cols must be an integer, got '2'"),
    (lambda: chi2_sf("3", 1), InputError, "must be a number, got '3'"),
    (lambda: chi2_sf(True, 1), InputError, "must be a number, got True"),
    (lambda: chi2_sf(None, 1), InputError, "must be a number, got None"),
    (lambda: chi2_sf(1.0, 1.5),
     DomainError, "degrees of freedom must be an integer >= 1, got 1.5"),
    (lambda: chi2_sf(1.0, None),
     DomainError, "degrees of freedom must be an integer >= 1, got None"),
    (lambda: rank_r_approx(np.eye(2), 1.5),
     InputError, "rank r must be an integer, got 1.5"),
    (lambda: pinv(np.eye(2), tol="1e-3"),
     InputError, "pinv tolerance must be a number"),
    (lambda: pinv(np.diag([1.0, 0.0]), tol=-1),
     DomainError, r"pinv tolerance must lie in \[0, 1\)"),
    (lambda: pinv(np.eye(2), tol=math.nan),
     DomainError, r"pinv tolerance must lie in \[0, 1\)"),
    (lambda: gcd_many([[1, 2]], tol="0.1"),
     InputError, "gcd tolerance must be a number"),
    (lambda: gcd_degree([1, 2], [1, 3], tol=None),
     InputError, "gcd tolerance must be a number, got None"),
    (lambda: ensure_symmetric([["a"]]),
     DomainError, "matrix must be real numbers"),
    (lambda: quad_form(["a"], [[1]]),
     DomainError, "quad_form vector must be real numbers"),
    (lambda: quad_form([1], [["a"]]),
     DomainError, "quad_form matrix must be real numbers"),
    (lambda: SimScenario(p=0.3, q=0.8, rho=0.2, n1=5, n2=5, n3=5, L=4,
                         statistics=None),
     InputError, "statistics must be a nonempty list of names, got None"),
    (lambda: SimScenario(p=0.3, q=0.8, rho=0.2, n1=5, n2=5, n3=5, L=4,
                         statistics="P_GF"),
     InputError, "statistics must be a nonempty list of names, got 'P_GF'"),
    (lambda: SimScenario(p=0.3, q=0.8, rho=0.2, n1=5, n2=5, n3=5, L=4,
                         statistics=()),
     InputError, r"statistics must be a nonempty list of names, got \(\)"),
], ids=[
    "psi_hat_short_lens", "psi_hat_nan", "psi_hat_inf", "xi_hat_empty",
    "sampleset_two_dimensional",
    "gof_single_invalid", "gof_single_valid", "pmv_strings", "pmv_complex",
    "gof_strings", "pearson_ed_strings", "sizes_nan", "sizes_inf",
    "sizes_empty", "psi_negative_weight", "xi_nan_weight",
    "psi_two_dimensional_weights", "xi_scalar_weight",
    "sizes_two_dimensional", "sizes_scalar", "conv_matrix_fraction",
    "conv_matrix_string", "chi2_sf_string", "chi2_sf_bool", "chi2_sf_none",
    "chi2_sf_fraction_dof", "chi2_sf_none_dof", "rank_r_fraction",
    "pinv_string_tol", "pinv_negative_tol", "pinv_nan_tol",
    "gcd_many_string_tol", "gcd_degree_none_tol", "ensure_symmetric_strings",
    "quad_form_string_vector", "quad_form_string_matrix",
    "statistics_none", "statistics_string", "statistics_empty",
])
def test_named_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.filterwarnings("error")
def test_python_ints_and_fractions_are_real():
    assert PMV([2**70, 2**70]) == HALF
    assert PMV([Fraction(1, 2), Fraction(1, 2)]) == HALF
    with pytest.raises(SupportViolation, match="int64 range"):
        gof_test([[0, 2**70], GOOD], Z)


@pytest.mark.filterwarnings("error")
def test_an_empirical_pmv_is_accepted_as_a_pmv():
    e = empirical_pmv([0, 1, 1, 2], 2)
    assert (gof_test(X, pmv.convolve(e.pmv, HALF)).statistic
            == gof_test(X, pmv.EmpiricalPMV(pmv.convolve(e.pmv, HALF), 4))
            .statistic)
    assert pearson_gof([0, 1, 2], e) == pearson_gof([0, 1, 2], e.pmv)
    assert np.array_equal(psi([e, HALF]), psi([e.pmv, HALF]))
    assert np.array_equal(xi([e]), xi([e.pmv]))
    assert covariance_rank([e, HALF]).s == 3
    gf, _ = oracle_statistics(X, [e, HALF], z=pmv.EmpiricalPMV(Z, 1))
    assert gf == oracle_statistics(X, [e.pmv, HALF], z=Z)[0]
    probs = e.pmv.probs.tolist()
    for p in (e, probs):
        assert convolve(p, HALF) == convolve(e.pmv, HALF)
        assert convolve_all([HALF, p]) == convolve_all([HALF, e.pmv])
        assert np.array_equal(conv_matrix(p, 2), conv_matrix(e.pmv, 2))
        assert np.array_equal(multinomial_cov(p), multinomial_cov(e.pmv))
        assert leave_one_out([p, HALF]) == leave_one_out([e.pmv, HALF])
    assert convolve_all([probs]) == e.pmv


# -- PMV dunders -------------------------------------------------------------

def test_pmv_dunders():
    p = PMV([0.25, 0.75])
    assert len(p) == 2
    assert p[1] == 0.75
    assert list(p[::-1]) == [0.75, 0.25]
    assert p.__eq__((0.25, 0.75)) is NotImplemented
    assert p != (0.25, 0.75)
    assert p == PMV(np.array([0.25, 0.75]))
    assert hash(p) == hash(PMV([0.25, 0.75]))
    assert len({p, PMV([0.25, 0.75]), HALF}) == 2
    assert repr(p) == "PMV((0.25, 0.75))"


# -- CLI ---------------------------------------------------------------------

@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("A,0\nA,1\nB,0\nB,1\n")
    return str(path)


def _report(eigenvalues, dof, **diagnostics):
    return TestReport(statistic=1.0, dof=dof, p_value=0.5,
                      rank_policy="analytic", fallback_used=False,
                      diagnostics={"warnings": [], "eigenvalues": eigenvalues,
                                   **diagnostics})


def _gof_output(monkeypatch, data_file, capsys, report):
    monkeypatch.setattr(cli, "gof_test", lambda *args, **kwargs: report)
    assert cli.main(["gof", data_file, "--z", "0.25,0.5,0.25"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("eigenvalues, dof, hint", [
    ([1.0, 1e-9], 2, True),
    ([1.0, 1e-9], 1, False),          # the small eigenvalue is not kept
    ([1.0, 0.5, 1e-9, 0.0], 2, False),
    ([1.0, 0.5, 1e-9, 0.0], 3, True),
])
def test_spread_hint_reads_the_kept_eigenvalues(monkeypatch, data_file,
                                                capsys, eigenvalues, dof,
                                                hint):
    out = _gof_output(monkeypatch, data_file, capsys,
                      _report(eigenvalues, dof))
    assert ("hint: eigenvalue spread is extreme" in out) is hint


@pytest.mark.parametrize("residual, hint", [(1e-8, True), (1e-3, False)])
def test_borderline_gcd_hint(monkeypatch, data_file, capsys, residual, hint):
    out = _gof_output(monkeypatch, data_file, capsys,
                      _report([1.0, 0.5], 2, gcd_residual=residual))
    assert ("hint: the gcd decision is borderline" in out) is hint


def test_numerical_failure_exits_3(monkeypatch, data_file, capsys):
    def fail(*args, **kwargs):
        raise NumericalError("eigensolver did not converge")

    monkeypatch.setattr(cli, "gof_test", fail)
    assert cli.main(["gof", data_file, "--z", "0.25,0.5,0.25"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: eigensolver did not converge\n")


def test_paired_reader_refuses_a_negative_minimum(tmp_path):
    path = tmp_path / "paired.csv"
    path.write_text("0,1\n-1,2\n1,1\n")
    with pytest.raises(InputError, match="must be nonnegative integers"):
        cli.read_paired_file(str(path))


# -- simulation critical value ------------------------------------------------

@pytest.mark.parametrize("alpha", [0.05, 1e-12, 5e-324])
@pytest.mark.parametrize("dof", [1, 2])
def test_critical_value_bracket_is_bounded(alpha, dof):
    crit = _chi2_critical(alpha, dof)
    assert 0.0 < crit <= 2048.0
    assert symlin.chi2_sf(crit, dof) <= alpha
