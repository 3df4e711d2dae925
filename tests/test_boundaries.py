"""Boundary checks that no other test runs.

Each case feeds one public entry point an input it must refuse (or, for
the Pearson drop mode, warn about) and pins the error class and wording.
``tools/untested.py`` lists the package lines no test runs; these cases
cover the input checks it found.
"""

import json
import math

import numpy as np
import pytest

from convstat import (
    PMV,
    CanonicalSamples,
    SampleSet,
    chi2_sf,
    conv_matrix,
    covariance_rank,
    ed_test,
    ensure_symmetric,
    gof_test,
    oracle_statistics,
    pearson_ed,
    pearson_gof,
    psi,
    subind_test,
    upsilon_hat,
)
from convstat.cli import main
from convstat.errors import (
    DimensionMismatch,
    DomainError,
    EmptySample,
    EmptySizes,
    InputError,
    InvalidPMV,
    NeedTwoVariables,
    NotPaired,
    NotSymmetric,
    SupportMismatch,
)
from convstat.simlab import (
    SimScenario,
    load_config,
    rejection_proportion,
    sweep,
)

HALF = PMV([0.5, 0.5])
X = [np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])]
Z = PMV([0.25, 0.5, 0.25])
TABLE = np.array([[0, 1], [1, 0], [1, 1]])
SCENARIO = SimScenario(p=0.3, q=0.8, rho=0.2, n1=5, n2=5, n3=5, L=4, seed=1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: oracle_statistics(X, [HALF, HALF], y=[np.array([0, 1])],
                               y_pmvs=[HALF]),
     SupportMismatch, "x and y sides have different support degrees"),
    (lambda: oracle_statistics(X, [HALF, HALF], z=HALF),
     SupportMismatch, "z has 2 cells, expected 3"),
    (lambda: psi([HALF, HALF], [1.0]),
     EmptySizes, "2 PMVs but 1 weights supplied"),
    (lambda: gof_test(X, Z, rank_policy="fixed:x"),
     InputError, "bad fixed rank in policy 'fixed:x'"),
    (lambda: subind_test(TABLE[:, :1]),
     NeedTwoVariables, "subind_test requires k >= 2 columns, got 1"),
    (lambda: subind_test(TABLE, rank_policy="numeric"),
     InputError, "subind_test accepts only the default full-rank policy"),
    (lambda: covariance_rank([]),
     NeedTwoVariables, "covariance_rank requires at least one PMV"),
    (lambda: covariance_rank([HALF], []),
     NeedTwoVariables, "y side must contain at least one PMV"),
    (lambda: ed_test(CanonicalSamples((), 0, (), ()), [[0, 1]]),
     NeedTwoVariables, "ed_test needs at least two variables in total"),
    (lambda: gof_test([], Z), EmptySample, "no variables supplied"),
    (lambda: gof_test([[0, 1], []], Z),
     EmptySample, "variable 1 has no observations"),
    (lambda: SampleSet(variables=()),
     EmptySample, "a SampleSet needs at least one variable"),
    (lambda: SampleSet(variables=([0, 1], [1, 2]), coeffs=(1,)),
     InputError, "2 variables but 1 coefficients"),
    (lambda: rejection_proportion(SCENARIO, "XX"),
     InputError, "unknown statistic 'XX'"),
    (lambda: sweep(SCENARIO, "zz", [1]),
     InputError, "unknown sweep axis 'zz'"),
    (lambda: SampleSet(variables=([0, 1], [])),
     EmptySample, "variable 1 has no observations"),
    (lambda: pearson_gof([], Z),
     EmptySample, "pearson_gof needs at least one observation"),
    (lambda: pearson_ed([0, 1], []),
     EmptySample, "pearson_ed needs observations on both sides"),
    (lambda: PMV([[0.5, 0.5]]), InvalidPMV, "nonempty 1-D vector"),
    (lambda: conv_matrix(HALF, 0),
     DimensionMismatch, "needs at least one column, got 0"),
    (lambda: ensure_symmetric(np.zeros((2, 3))),
     NotSymmetric, "must be square, got shape (2, 3)"),
    (lambda: chi2_sf(math.nan, 1), DomainError, "chi2_sf received NaN"),
    (lambda: upsilon_hat(np.zeros(3)),
     NotPaired, "paired data must be a rectangular m x k table"),
], ids=[
    "oracle_y_degree", "oracle_z_size", "psi_weights", "fixed_not_a_number",
    "subind_one_column", "subind_numeric", "rank_no_pmv", "rank_empty_y",
    "ed_one_variable", "gof_no_variables", "gof_empty_variable", "sampleset_no_variables",
    "sampleset_coefficients", "unknown_statistic", "unknown_axis",
    "sampleset_empty_variable", "pearson_gof_empty", "pearson_ed_empty",
    "pmv_two_dimensional", "conv_matrix_no_column", "not_square",
    "chi2_sf_nan", "not_a_table",
])
def test_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert message in str(info.value)


def test_pearson_drop_mode_warns():
    report = pearson_gof([0, 1, 2], PMV([0.5, 0.0, 0.5]),
                         on_zero_expected="drop")
    assert report.diagnostics["warnings"] == [
        "1 observations fell in zero-probability cells and were excluded "
        "from the statistic"
    ]


@pytest.mark.parametrize("text, message", [
    ("{not json", "Expecting property name"),
    (json.dumps({"p": 0.3, "q": 0.8, "rho": 0.2, "n1": 5, "n2": 5, "n3": 5,
                 "L": 4, "seed": 1, "sweep": {"axis": "zz", "values": [1]}}),
     "sweep axis must be one of"),
], ids=["bad_json", "bad_axis"])
def test_load_config_refuses(tmp_path, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(InputError, match=message):
        load_config(str(path))


class TestCli:
    def test_subind_negative_value(self, tmp_path, capsys):
        path = tmp_path / "paired.csv"
        path.write_text("0,1\n-1,2\n1,1\n")
        assert main(["subind", str(path)]) == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_empty_pmv_literal(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("variable_id,value\nA,0\nA,1\nB,0\nB,1\n")
        assert main(["gof", str(path), "--z", ","]) == 2
        assert "empty PMV literal" in capsys.readouterr().err
