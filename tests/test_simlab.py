"""Benchmark model, sampling determinism, and rejection proportions."""

import dataclasses
import math

import numpy as np
import pytest

from convstat import (
    InputError,
    ModelDegenerate,
    PMV,
    convolve,
    ed_test,
    gof_test,
    pearson_ed,
    pearson_gof,
    rejection_proportion,
    run_scenario,
    sample_scenario,
    sweep,
    z_rho,
)
from convstat.simlab import (
    SimScenario,
    _block_statistics,
    _Context,
    _KeyedStreams,
    _sample_counts,
    load_config,
    write_csv,
    write_json,
)


def scenario(**overrides):
    base = dict(p=0.3, q=0.8, rho=0.0, n1=25, n2=25, n3=25, L=200, seed=7)
    base.update(overrides)
    return SimScenario(**base)


class TestZRho:
    def test_rho_zero_is_plain_convolution(self):
        out = z_rho(0.3, 0.8, 0.0)
        direct = convolve(PMV([0.7, 0.3]), PMV([0.2, 0.8]))
        assert np.allclose(out.probs, direct.probs, atol=1e-15)

    def test_rho_one_frozen_values(self):
        out = z_rho(0.3, 0.8, 1.0)
        a = 0.24 + math.sqrt(0.0336)
        assert out.probs[1] == 0.0
        assert out.probs[0] == pytest.approx(1.0 - a, abs=1e-12)
        assert out.probs[2] == pytest.approx(a, abs=1e-12)
        assert out.probs[2] == pytest.approx(0.423303, abs=5e-7)
        assert not out.interior

    def test_rho_half_midpoint(self):
        out = z_rho(0.3, 0.8, 0.5)
        assert np.allclose(out.probs, [0.3583485, 0.31, 0.3316515], atol=5e-7)
        assert out.interior

    def test_middle_entry_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p, q = rng.uniform(0.05, 0.95, 2)
            rho = rng.uniform(0.0, 1.0)
            out = z_rho(p, q, rho)
            assert out.probs[1] == (1.0 - rho) * (p * (1 - q) + q * (1 - p))
            assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ModelDegenerate):
            z_rho(0.0, 0.5, 0.2)
        with pytest.raises(ModelDegenerate):
            z_rho(0.3, 0.8, 1.5)


class TestSampling:
    def test_deterministic_replicates(self):
        scn = scenario()
        first = sample_scenario(scn, 3)
        second = sample_scenario(scn, 3)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_distinct_replicates_differ(self):
        scn = scenario()
        a = sample_scenario(scn, 0)[0]
        b = sample_scenario(scn, 1)[0]
        assert not np.array_equal(a, b)

    def test_law_of_large_numbers_at_rho_zero(self):
        scn = scenario(n1=10, n2=10, n3=1_000_000)
        _, _, y = sample_scenario(scn, 0)
        target = z_rho(scn.p, scn.q, 0.0).probs
        empirical = np.bincount(y, minlength=3) / y.size
        assert np.max(np.abs(empirical - target)) < 0.005

    def test_rho_one_never_hits_middle_cell(self):
        scn = scenario(rho=1.0, n3=5000)
        _, _, y = sample_scenario(scn, 0)
        assert not np.any(y == 1)

    def test_large_seed_supported(self):
        scn = scenario(seed=2 ** 63 + 11)
        a = sample_scenario(scn, 0)
        b = sample_scenario(scn, 0)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert run_scenario(dataclasses.replace(scn, L=30)) is not None


def fresh_stream(seed, rep, var, n):
    """The reference: a new generator keyed for this stream alone."""
    key = (seed << 64) | (rep << 2) | var
    return np.random.Generator(np.random.Philox(key=key)).random(n)


class TestKeyedStreams:
    @pytest.mark.parametrize("seed", [0, 2 ** 63 + 11, 2 ** 64 - 1])
    def test_matches_fresh_generator(self, seed):
        streams = _KeyedStreams(seed)
        for rep, var, n in [(0, 0, 10), (1, 2, 7), (2 ** 20 + 3, 1, 64),
                            (0, 0, 10)]:
            assert np.array_equal(streams.uniform(rep, var, n),
                                  fresh_stream(seed, rep, var, n))

    def test_interleaved_partial_buffers(self):
        # Lengths that leave part of Philox's 4-word output buffer unread:
        # a re-key must not hand the rest of it to the next stream.
        seed = 2 ** 63 + 11
        streams = _KeyedStreams(seed)
        rng = np.random.default_rng(5)
        lengths = [1, 2, 3, 5, 1000]
        for i in range(60):
            rep, var = int(rng.integers(0, 50)), int(rng.integers(0, 3))
            n = lengths[i % len(lengths)]
            assert np.array_equal(streams.uniform(rep, var, n),
                                  fresh_stream(seed, rep, var, n))

    @pytest.mark.parametrize("rho", [0.3, 1.0])
    def test_counts_equal_counts_of_samples(self, rho):
        # m < n1 and m < n3; at rho = 1 the two cut points coincide
        scn = scenario(p=0.4, q=0.6, rho=rho, n1=7, n2=4, n3=9, L=50)
        m = 4
        ones, sum_counts, y_counts = _sample_counts(scn, m, 5, scn.L)
        for i, rep in enumerate(range(5, scn.L)):
            x1, x2, y = sample_scenario(scn, rep)
            assert list(ones[i]) == [x1.sum(), x2.sum()]
            assert np.array_equal(sum_counts[i],
                                  np.bincount(x1[:m] + x2[:m], minlength=3))
            assert np.array_equal(y_counts[i], np.bincount(y, minlength=3))
        if rho == 1.0:
            assert not y_counts[:, 1].any()


class TestScenarioValidation:
    def test_size_convention(self):
        with pytest.raises(InputError):
            scenario(n1=50, n3=25)

    def test_unknown_statistic(self):
        with pytest.raises(InputError):
            scenario(statistics=("C9_GF",))

    def test_alpha_range(self):
        with pytest.raises(InputError):
            scenario(alpha=1.0)

    def test_seed_must_fit_key(self):
        # the Philox key holds 64 bits of seed
        assert scenario(seed=2 ** 64 - 1).seed == 2 ** 64 - 1
        for seed in (-1, 2 ** 64, 2 ** 70):
            with pytest.raises(InputError, match="seed"):
                scenario(seed=seed)


class TestRejectionProportion:
    def test_alpha_near_one_rejects_almost_always(self):
        result = rejection_proportion(scenario(alpha=0.999, L=300), "C2_GF")
        assert result.proportion >= 0.99

    def test_stderr_bound(self):
        result = rejection_proportion(scenario(L=300), "P_GF")
        assert result.stderr <= math.sqrt(0.25 / 300) + 1e-12

    def test_oracle_statistics_calibrated_under_null(self):
        # the rank-matched references hit alpha; the rank-1 label judges the
        # same chi2(2) value against the chi2(1) critical, so it lands at
        # P(chi2(2) > 3.8415) = exp(-1.9207) instead
        scn = scenario(n1=2000, n2=2000, n3=2000, L=4000,
                       statistics=("Z1_GF", "Z2_GF", "Z2_ED"), seed=13)
        result = run_scenario(scn)
        margin = 3.0 * math.sqrt(0.05 * 0.95 / scn.L)
        assert abs(result["Z2_GF"].proportion - 0.05) < margin
        assert abs(result["Z2_ED"].proportion - 0.05) < margin
        mismatched = math.exp(-3.841459 / 2.0)
        margin1 = 3.0 * math.sqrt(mismatched * (1 - mismatched) / scn.L)
        assert abs(result["Z1_GF"].proportion - mismatched) < margin1


class TestDeterminism:
    def test_identical_runs(self):
        scn = scenario(L=150)
        a = run_scenario(scn)
        b = run_scenario(scn)
        assert a == b

    def test_serial_matches_parallel(self):
        scn = scenario(L=120)
        serial = run_scenario(scn, workers=1)
        parallel = run_scenario(scn, workers=4)
        assert serial == parallel


class TestLibraryAgreement:
    def test_statistics_equal_public_calls(self):
        # tiny samples near p = 0 and q = 1: many replicates have a constant
        # variable (a rank-1 estimate under fixed:2) or fall back to Pearson
        scn = scenario(p=0.05, q=0.95, rho=0.0, n1=5, n2=3, n3=8, L=400,
                       seed=17)
        stats = _block_statistics(_Context(scn), 0, scn.L)
        z = z_rho(scn.p, scn.q, scn.rho)
        seen = set()
        for rep in range(scn.L):
            x1, x2, y = sample_scenario(scn, rep)
            sums = x1[:3] + x2[:3]
            reports = {"P_GF": pearson_gof(sums, z), "P_ED": pearson_ed(sums, y)}
            for r in (1, 2):
                reports[f"C{r}_GF"] = gof_test(
                    [x1, x2], z, rank_policy=f"fixed:{r}", support_lens=[1, 1])
                reports[f"C{r}_ED"] = ed_test(
                    [x1, x2], [y], rank_policy=f"fixed:{r}",
                    x_support_lens=[1, 1], y_support_lens=[2])
            for sid, report in reports.items():
                value, dof, fallback = stats[sid]
                assert value[rep] == pytest.approx(report.statistic,
                                                   rel=1e-12, abs=1e-12)
                assert fallback[rep] == report.fallback_used
            assert stats["P_ED"][1][rep] == reports["P_ED"].dof
            seen.add((reports["C2_GF"].fallback_used,
                      len(reports["C2_GF"].diagnostics["warnings"]) > 0))
        # fallback, rank-deficient and full-rank replicates all occurred
        assert seen == {(True, True), (False, True), (False, False)}


class TestRegressionCounts:
    # Rejection and fallback counts of all ten statistics, recorded with
    # the per-replicate implementation the stacked core replaced.
    CASES = [
        (dict(p=0.3, q=0.8, rho=0.2, n1=40, n2=30, n3=60, seed=12345),
         {"P_GF": (231, 0), "C1_GF": (154, 0), "C2_GF": (729, 0),
          "Z1_GF": (809, 0), "Z2_GF": (625, 0), "P_ED": (150, 0),
          "C1_ED": (158, 0), "C2_ED": (296, 0), "Z1_ED": (460, 0),
          "Z2_ED": (281, 0)}),
        (dict(p=0.05, q=0.95, rho=1.0, n1=5, n2=3, n3=8, seed=7),
         {"P_GF": (6, 0), "C1_GF": (142, 680), "C2_GF": (35, 680),
          "Z1_GF": (1000, 0), "Z2_GF": (998, 0), "P_ED": (989, 0),
          "C1_ED": (663, 296), "C2_ED": (783, 296), "Z1_ED": (1000, 0),
          "Z2_ED": (999, 0)}),
    ]

    @pytest.mark.parametrize("params,counts", CASES)
    def test_counts_pinned(self, params, counts):
        result = run_scenario(SimScenario(L=1000, **params))
        got = {sid: (e.rejections, e.fallback_count)
               for sid, e in result.entries.items()}
        assert got == counts


class TestSweep:
    def test_power_increases_with_rho(self):
        scn = scenario(n1=100, n2=100, n3=100, L=800,
                       statistics=("C2_GF", "C2_ED", "P_GF"), seed=21)
        rows = sweep(scn, "rho", [0.0, 0.5, 1.0])
        for sid in scn.statistics:
            props = [r[sid].proportion for _, r in rows]
            assert props[0] < 0.2
            assert props[1] > props[0]
            assert props[2] >= props[1] - 0.02

    def test_ed_type_one_error_decreases_with_m(self):
        scn = scenario(L=2000, statistics=("C2_ED",), seed=22)
        rows = sweep(scn, "m", [10, 100, 1000])
        props = [r["C2_ED"].proportion for _, r in rows]
        assert props[2] < props[0]
        assert abs(props[2] - 0.05) < 0.02

    def test_gof_type_one_error_moderate_and_large_m(self):
        # anti-conservative at moderate m, approaching alpha by m = 1000;
        # bounds widened by 3 binomial SE for the reduced replicate count
        scn = scenario(n1=100, n2=100, n3=100, L=10_000,
                       statistics=("C2_GF",), seed=31)
        moderate = run_scenario(scn)["C2_GF"].proportion
        assert 0.055 < moderate < 0.10
        scn = dataclasses.replace(scn, n1=1000, n2=1000, n3=1000)
        large = run_scenario(scn)["C2_GF"].proportion
        assert 0.043 < large < 0.105
        assert large < moderate

    def test_rank_collapse_near_equal_parameters(self):
        scn = scenario(n1=1000, n2=1000, n3=1000, L=1500,
                       statistics=("C2_GF",), seed=23)
        rows = sweep(scn, "p", [0.5, 0.79])
        calibrated = rows[0][1]["C2_GF"].proportion
        collapsed = rows[1][1]["C2_GF"].proportion
        assert calibrated < 0.10
        assert collapsed > calibrated + 0.05

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            sweep(scenario(), "rho", [])


class TestArtifacts:
    def test_csv_and_json_outputs(self, tmp_path):
        scn = scenario(L=80, statistics=("C1_GF", "P_ED"))
        rows = sweep(scn, "rho", [0.0, 0.5])
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        write_csv(rows, csv_path)
        write_json(rows, json_path, scn, "rho")
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "sweep_value,statistic_id,proportion,stderr,fallback_count"
        assert len(lines) == 1 + 2 * 2
        import json

        payload = json.loads(json_path.read_text())
        assert payload["axis"] == "rho"
        assert len(payload["results"]) == 2

    def test_config_round_trip(self, tmp_path):
        import json

        config = {
            "p": 0.3, "q": 0.8, "rho": 0.25, "n1": 10, "n2": 20, "n3": 30,
            "L": 50, "alpha": 0.1, "seed": 4,
            "statistics": ["C1_GF", "C2_ED"],
            "sweep": {"axis": "m", "values": [10, 20]},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        scn, axis, values = load_config(path)
        assert scn == SimScenario(
            p=0.3, q=0.8, rho=0.25, n1=10, n2=20, n3=30, L=50, alpha=0.1,
            statistics=("C1_GF", "C2_ED"), seed=4,
        )
        assert axis == "m"
        assert values == [10, 20]

    @pytest.mark.parametrize("field", ["n1", "n2", "n3", "L", "seed"])
    def test_config_rejects_fractional_integers(self, tmp_path, field):
        import json

        config = {"p": 0.3, "q": 0.8, "rho": 0.4, "n1": 5, "n2": 5,
                  "n3": 5, "L": 10, "seed": 1}
        path = tmp_path / "cfg.json"
        for value in (5.5, True, "5"):
            path.write_text(json.dumps({**config, field: value}))
            with pytest.raises(InputError, match=field):
                load_config(path)
        # an integral JSON float such as 5.0 or 5e0 is the integer 5
        path.write_text(json.dumps({**config, field: 5.0}))
        assert getattr(load_config(path)[0], field) == 5

    @pytest.mark.parametrize("field", ["p", "q", "rho", "alpha"])
    def test_config_rejects_non_numbers(self, tmp_path, field):
        import json

        config = {"p": 0.3, "q": 0.8, "rho": 0.4, "n1": 5, "n2": 5,
                  "n3": 5, "L": 10, "seed": 1}
        path = tmp_path / "cfg.json"
        for value in (None, "0.5", True, [0.5]):
            path.write_text(json.dumps({**config, field: value}))
            with pytest.raises(InputError, match=f"{field} must be a number"):
                load_config(path)
        # an integer is a number: rho = 1 is the fully correlated model
        path.write_text(json.dumps({**config, "rho": 1}))
        assert load_config(path)[0].rho == 1.0

    @pytest.mark.parametrize("axis, values", [
        ("m", [5, 2.5]), ("m", [0]), ("m", [True]), ("m", ["4"]),
        ("rho", [0.5, None]), ("rho", ["0.5"]), ("rho", [1.5]),
        ("p", [False]), ("p", [0.2, "x"]),
    ])
    def test_config_rejects_bad_sweep_values(self, tmp_path, axis, values):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "p": 0.3, "q": 0.8, "rho": 0.4, "n1": 5, "n2": 5, "n3": 5,
            "L": 10, "seed": 1, "sweep": {"axis": axis, "values": values},
        }))
        with pytest.raises(InputError):
            load_config(path)

    @pytest.mark.parametrize("change", [
        {"statistics": None}, {"statistics": "P_GF"}, {"statistics": [["P_GF"]]},
        {"sweep": 5}, {"sweep": {"axis": "m", "values": 5}},
        {"sweep": {"axis": "m", "values": []}},
    ])
    def test_config_rejects_malformed_lists(self, tmp_path, change):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "p": 0.3, "q": 0.8, "rho": 0.4, "n1": 5, "n2": 5, "n3": 5,
            "L": 10, "seed": 1, **change,
        }))
        with pytest.raises(InputError):
            load_config(path)

    @pytest.mark.parametrize("text", ["5", "null", '"p"'])
    def test_config_must_be_an_object(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(InputError):
            load_config(path)

    def test_sweep_checks_every_point_before_running(self):
        scn = SimScenario(p=0.3, q=0.8, rho=0.0, n1=5, n2=5, n3=5, L=10,
                          statistics=("P_GF",))
        with pytest.raises(InputError, match="axis m must be an integer"):
            sweep(scn, "m", [4, 2.5])
        rows = sweep(scn, "m", [3, 4.0])
        assert [v for v, _ in rows] == [3, 4.0]
        # numpy scalars are numbers too
        assert len(sweep(scn, "m", np.arange(3, 5))) == 2
        assert len(sweep(scn, "rho", np.linspace(0.0, 1.0, 2))) == 2
        assert rows[1][1].entries["P_GF"] == run_scenario(
            SimScenario(p=0.3, q=0.8, rho=0.0, n1=4, n2=4, n3=4, L=10,
                        statistics=("P_GF",))).entries["P_GF"]

    def test_config_missing_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"p": 0.3}')
        with pytest.raises(InputError):
            load_config(path)

    def test_no_sweep_defaults_to_single_point(self, tmp_path):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "p": 0.3, "q": 0.8, "rho": 0.4, "n1": 5, "n2": 5, "n3": 5,
            "L": 10, "seed": 1,
        }))
        scn, axis, values = load_config(path)
        assert axis == "rho"
        assert values == [0.4]
