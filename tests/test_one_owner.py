"""Each test's rank decision has one owner.

``hyptest._wald_report`` turns a covariance estimate into a test's dof,
statistic and diagnostics under every rank policy, and it alone
downgrades ``analytic`` (for padded supports and for zero cells).  These
tests pin the diagnostics keys, in order, on every report path, since the
CLI's ``--json`` prints them in that order; check in the source that no
other function reads the rank formula for a dof or downgrades a policy;
and cover the downgrade, the fixed-rank and the clamp warnings.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from convstat import (
    PMV,
    CanonicalSamples,
    cli,
    ed_test,
    gof_test,
    hyptest,
    oracle_statistics,
    subind_test,
)

RNG = np.random.default_rng(26)
X = [RNG.integers(0, 3, 40), RNG.integers(0, 2, 30)]
Y = [RNG.integers(0, 2, 25), RNG.integers(0, 3, 35)]
Z = PMV([0.1, 0.3, 0.4, 0.2])
ZERO_CELL = [np.array([0, 2, 2, 0, 2]), np.array([0, 1, 1, 0])]
POINT_MASSES = [[0, 0], [1, 1]]
TABLE = np.stack([RNG.integers(0, 2, 50), RNG.integers(0, 3, 50)], axis=1)
THIRDS, HALF = PMV([0.3, 0.4, 0.3]), PMV([0.5, 0.5])

WALD = ["warnings", "eigenvalues", "m"]
GOF = WALD + ["total_offset"]
ED = WALD + ["notes", "total_offset", "padded"]
ANALYTIC = ["gcd_degree", "gcd_residual"]
LOWER = ["gcd_degree", "zero_entry_count"]


def _constant_column():
    table = TABLE.copy()
    table[:, 1] = 1
    return table


PATHS = {
    "gof_analytic": (lambda: gof_test(X, Z), "analytic", GOF + ANALYTIC),
    "gof_lower": (lambda: gof_test(X, Z, rank_policy="lower"),
                  "lower_bound", GOF + LOWER),
    "gof_zero_cells": (lambda: gof_test(ZERO_CELL, Z, support_lens=[2, 1]),
                       "lower_bound", GOF + LOWER),
    "gof_numeric": (lambda: gof_test(X, Z, rank_policy="numeric"),
                    "numeric", GOF),
    "gof_fixed_above_rank": (
        lambda: gof_test(ZERO_CELL, Z, rank_policy="fixed:3",
                         support_lens=[2, 1]), "fixed(3)", GOF),
    "gof_fallback": (
        lambda: gof_test(POINT_MASSES, PMV([0.25, 0.5, 0.25]),
                         support_lens=[1, 1]),
        "analytic", ["warnings", "m", "total_offset", "discarded"]),
    "ed_analytic": (lambda: ed_test(X, Y), "analytic", ED + ANALYTIC),
    "ed_lower": (lambda: ed_test(X, Y, rank_policy="lower"),
                 "lower_bound", ED + LOWER),
    "ed_numeric": (lambda: ed_test(X, Y, rank_policy="numeric"),
                   "numeric", ED),
    "ed_padded": (lambda: ed_test(X, Y[:1]), "numeric", ED),
    "ed_fallback": (
        lambda: ed_test(POINT_MASSES, POINT_MASSES[::-1],
                        x_support_lens=[1, 1], y_support_lens=[1, 1]),
        "analytic", ["warnings", "m", "notes", "total_offset", "padded"]),
    "ed_offset_mismatch": (
        lambda: ed_test(CanonicalSamples(tuple(X), 1, (2, 1), ("A", "B")),
                        CanonicalSamples(tuple(X), 0, (2, 1), ("A", "B"))),
        "analytic", ["warnings", "notes", "x_offset", "y_offset"]),
    "subind": (lambda: subind_test(TABLE), "full", WALD),
    "subind_degenerate": (lambda: subind_test(_constant_column()), "full",
                          ["warnings", "m"]),
    "oracle_gf": (lambda: oracle_statistics(X, [THIRDS, HALF])[0],
                  "oracle", ["warnings", "m"]),
    "oracle_ed": (lambda: oracle_statistics(X, [THIRDS, HALF], y=Y,
                                            y_pmvs=[HALF, THIRDS])[1],
                  "oracle", ["warnings", "m"]),
}


@pytest.mark.parametrize("call, label, keys", PATHS.values(), ids=PATHS.keys())
def test_diagnostics_keys_in_order(call, label, keys):
    report = call()
    assert report.rank_policy == label
    assert list(report.diagnostics) == keys


def test_json_prints_the_keys_in_order(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("A,0\nA,1\nA,2\nA,1\nB,0\nB,1\nB,1\n")
    assert cli.main(["gof", str(path), "--z", "0.1,0.3,0.4,0.2",
                     "--json"]) == 0
    diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
    assert list(diagnostics) == GOF + ANALYTIC


# -- the warnings of the policy table -----------------------------------------

def test_padded_downgrade_follows_the_padding_warning():
    report = ed_test(X, Y[:1])
    assert report.diagnostics["warnings"] == [
        "support degrees differ (3 vs 1); shorter side zero-padded",
        "analytic rank is unavailable for padded supports; using the "
        "numeric policy",
    ]
    assert report.dof == ed_test(X, Y[:1], rank_policy="numeric").dof


@pytest.mark.parametrize("policy", ["lower", "numeric", "fixed:2"])
def test_padded_keeps_every_other_policy(policy):
    report = ed_test(X, Y[:1], rank_policy=policy)
    assert report.diagnostics["warnings"] == [
        "support degrees differ (3 vs 1); shorter side zero-padded"]


def test_padded_fallback_keeps_the_analytic_label():
    report = ed_test(POINT_MASSES, POINT_MASSES[:1], x_support_lens=[1, 1],
                     y_support_lens=[1])
    assert report.fallback_used
    assert report.rank_policy == "analytic"
    assert not any("padded supports" in w
                   for w in report.diagnostics["warnings"])


def test_zero_cell_downgrade():
    report = gof_test(ZERO_CELL, Z, support_lens=[2, 1])
    assert report.diagnostics["warnings"] == [
        "empirical PMVs have zero cells; analytic rank unavailable, using "
        "the lower-bound policy"]
    lower = gof_test(ZERO_CELL, Z, rank_policy="lower", support_lens=[2, 1])
    assert (report.dof, report.statistic) == (lower.dof, lower.statistic)


def test_fixed_rank_above_the_estimate_warns():
    report = gof_test(ZERO_CELL, Z, rank_policy="fixed:3", support_lens=[2, 1])
    assert report.dof == 3
    assert report.diagnostics["warnings"] == [
        "fixed rank 3 exceeds the covariance estimate's rank 2; the missing "
        "directions contribute 0"]


def test_lower_bound_is_clamped_to_one():
    # both PMVs are (1 + t^2) / 2: deg g = 2 and two zero cells, so
    # s - deg g - zeros = 4 - 2 - 2 = 0
    x = [np.array([0, 2, 2, 0]), np.array([2, 0, 0, 2, 2, 0])]
    report = gof_test(x, PMV(np.full(5, 0.2)), rank_policy="lower")
    assert report.dof == 1
    assert report.diagnostics["zero_entry_count"] == 2
    assert report.diagnostics["warnings"] == [
        "rank lower bound 0 is below 1; clamped to 1 (test is conservative)"]


# -- one owner, in the source -----------------------------------------------

HYPTEST = ast.parse(Path(hyptest.__file__).read_text())
FUNCTIONS = {node.name: node for node in HYPTEST.body
             if isinstance(node, ast.FunctionDef)}


def _functions_with(match):
    return {name for name, fn in FUNCTIONS.items()
            if any(match(node) for node in ast.walk(fn))}


def test_the_folded_helpers_are_gone():
    assert not {"_resolve_dof", "_base_diagnostics"} & set(FUNCTIONS)


def test_only_the_wald_report_reads_the_rank_formula():
    # the oracle's dof is its whitener's rank, not a second decision
    for name in ("_rank_formula", "_numeric_rank"):
        def calls(node):
            return (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == name)

        assert _functions_with(calls) == {"_wald_report"}


def test_only_the_wald_report_downgrades_a_policy():
    def downgrades(node):
        return (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "label"
                        for t in node.targets)
                and isinstance(node.value, ast.Constant)
                and node.value.value in ("numeric", "lower_bound"))

    assert _functions_with(downgrades) == {"_wald_report"}
