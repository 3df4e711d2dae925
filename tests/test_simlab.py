"""Benchmark model, sampling determinism, and rejection proportions."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from convstat import (
    InputError,
    ModelDegenerate,
    PMV,
    convolve,
    ed_test,
    gof_test,
    oracle_statistics,
    pearson_ed,
    pearson_gof,
    rejection_proportion,
    run_scenario,
    sample_scenario,
    sweep,
    z_rho,
)
from convstat import simlab
from convstat.simlab import (
    SimScenario,
    _block_statistics,
    _Context,
    _KeyedStreams,
    _sample_counts,
    _uniform_blocks,
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

    @pytest.mark.parametrize("replicate", [-1, 2 ** 62, 2 ** 70, 3.7,
                                           "3", None, True])
    def test_replicate_must_fit_key(self, replicate):
        with pytest.raises(InputError, match="replicate"):
            sample_scenario(scenario(), replicate)

    def test_replicate_range_ends(self):
        scn = scenario(n1=4, n2=4, n3=6, seed=5)
        last = 2 ** 62 - 1
        x1, _, _ = sample_scenario(scn, last)
        assert np.array_equal(x1, fresh_stream(5, last, 0, 4) < scn.p)
        for a, b in zip(sample_scenario(scn, 3.0), sample_scenario(scn, 3)):
            assert np.array_equal(a, b)

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


def reference_counts(scn, m, start, stop):
    """``_sample_counts``' three arrays, from ``sample_scenario`` output."""
    ones, sums, ys = [], [], []
    for rep in range(start, stop):
        x1, x2, y = sample_scenario(scn, rep)
        ones.append([x1.sum(), x2.sum()])
        sums.append(np.bincount(x1[:m] + x2[:m], minlength=3))
        ys.append(np.bincount(y, minlength=3))
    return np.array(ones), np.array(sums), np.array(ys)


class TestDrawBlocks:
    def assert_counts_match(self, scn, start, stop):
        m = min(scn.n1, scn.n2, scn.n3)
        got = _sample_counts(scn, m, start, stop)
        for a, b in zip(got, reference_counts(scn, m, start, stop)):
            assert a.dtype == np.int64
            assert np.array_equal(a, b)

    def test_row_wider_than_the_buffer_bound(self):
        # each variable alone exceeds the bound: every block is one row
        n = simlab._DRAW_DOUBLES + 5
        scn = scenario(n1=n - 7, n2=n, n3=n, L=3)
        assert [len(u1) for u1, _, _ in _uniform_blocks(scn, 0, 3)] == [1] * 3
        self.assert_counts_match(scn, 0, 3)

    @pytest.mark.parametrize("rho", [0.3, 1.0])
    @pytest.mark.parametrize("start, stop", [(0, 10), (5, 17), (4, 5)])
    def test_small_blocks(self, monkeypatch, rho, start, stop):
        # 20 doubles a replicate and a bound of 60: blocks of 3 rows, a
        # partial last block, and starts that fall inside a block of the
        # run that starts at replicate 0
        monkeypatch.setattr(simlab, "_DRAW_DOUBLES", 60)
        scn = scenario(p=0.4, q=0.6, rho=rho, n1=7, n2=4, n3=9, L=20)
        sizes = [len(u1) for u1, _, _ in _uniform_blocks(scn, start, stop)]
        assert sum(sizes) == stop - start and set(sizes[:-1]) <= {3}
        self.assert_counts_match(scn, start, stop)
        m = 4
        whole = _sample_counts(scn, m, 0, scn.L)
        for a, b in zip(_sample_counts(scn, m, start, stop), whole):
            assert np.array_equal(a, b[start:stop])

    def test_block_size_does_not_change_counts(self, monkeypatch):
        scn = scenario(p=0.2, q=0.7, rho=0.5, n1=3, n2=6, n3=11, L=40)
        default = _sample_counts(scn, 3, 0, scn.L)
        for bound in (1, 20, 21, 100):
            monkeypatch.setattr(simlab, "_DRAW_DOUBLES", bound)
            for a, b in zip(_sample_counts(scn, 3, 0, scn.L), default):
                assert np.array_equal(a, b)

    def test_blocks_are_the_fresh_streams(self, monkeypatch):
        monkeypatch.setattr(simlab, "_DRAW_DOUBLES", 50)
        seed = 2 ** 64 - 1
        scn = scenario(n1=5, n2=3, n3=8, L=9, seed=seed)
        rep = 2
        for block in _uniform_blocks(scn, 2, 9):
            for rows in zip(*block):
                for var, row in enumerate(rows):
                    assert np.array_equal(
                        row, fresh_stream(seed, rep, var, len(row)))
                rep += 1
        assert rep == 9

    def test_out_draw_fills_a_buffer_row(self):
        seed = 2 ** 63 + 11
        streams = _KeyedStreams(seed)
        buf = np.full((3, 7), -1.0)
        for rep in (2, 0, 1):
            out = streams.uniform(rep, 2, out=buf[rep])
            assert np.shares_memory(out, buf)
        for rep in range(3):
            assert np.array_equal(buf[rep], fresh_stream(seed, rep, 2, 7))


class TestDrawMemory:
    @staticmethod
    def peak_bytes(L):
        n = 100_000
        scn = scenario(n1=n, n2=n, n3=n, L=L)
        tracemalloc.start()
        try:
            _sample_counts(scn, n, 0, L)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_L(self):
        self.peak_bytes(1)  # first-call caches are not the draw's memory
        short, long = self.peak_bytes(4), self.peak_bytes(40)
        assert abs(long - short) <= 0.1 * short
        # one row of 800 KB a variable and its flags, never an L x n array
        assert long < 4e6


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

    @pytest.mark.parametrize("field, value", [
        ("n1", 5.5), ("n3", "25"), ("L", True), ("L", 10.5),
        ("seed", 1.5), ("seed", "3"), ("seed", None),
    ])
    def test_integer_fields_are_checked(self, field, value):
        with pytest.raises(InputError, match=field):
            scenario(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("p", "0.3"), ("q", None), ("rho", True), ("alpha", [0.05]),
    ])
    def test_real_fields_are_checked(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be a number"):
            scenario(**{field: value})

    def test_fields_are_stored_as_plain_numbers(self):
        scn = scenario(n1=np.int64(5), n3=25.0, L=10.0, seed=np.uint64(3),
                       p=np.float32(0.5), rho=1)
        assert (scn.n1, scn.n3, scn.L, scn.seed) == (5, 25, 10, 3)
        assert all(type(getattr(scn, f)) is int
                   for f in ("n1", "n2", "n3", "L", "seed"))
        assert all(type(getattr(scn, f)) is float
                   for f in ("p", "q", "rho", "alpha"))
        assert run_scenario(scn).L == 10

    def test_L_fits_the_replicate_key(self):
        # constructing is enough: a scenario this large is never run
        assert scenario(L=2 ** 62).L == 2 ** 62
        with pytest.raises(InputError, match="L"):
            scenario(L=2 ** 62 + 1)

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


class TestOracleAgreement:
    # small samples near p = 0 and q = 1, a hypothesis with a zero cell
    # (rho = 1), and p = q = 1/2, where the true GF covariance has rank 1
    @pytest.mark.parametrize("params", [
        dict(p=0.05, q=0.95, rho=0.0, n1=5, n2=3, n3=8, seed=17),
        dict(p=0.3, q=0.8, rho=1.0, n1=40, n2=30, n3=60, seed=5),
        dict(p=0.5, q=0.5, rho=0.0, n1=30, n2=30, n3=30, seed=9),
    ])
    def test_z_equals_oracle_statistics(self, params):
        scn = scenario(L=150, **params)
        stats = _block_statistics(_Context(scn), 0, scn.L)
        z = z_rho(scn.p, scn.q, scn.rho)
        truth = [PMV([1 - scn.p, scn.p]), PMV([1 - scn.q, scn.q])]
        m = min(scn.n1, scn.n2, scn.n3)
        for rep in range(scn.L):
            x1, x2, y = sample_scenario(scn, rep)
            gf, ed = oracle_statistics([x1, x2], truth, z=z, y=[y],
                                       y_pmvs=[z])
            conv = convolve(PMV(np.bincount(x1, minlength=2) / scn.n1),
                            PMV(np.bincount(x2, minlength=2) / scn.n2)).probs
            y_hat = np.bincount(y, minlength=3) / scn.n3
            for fam, report, hyp in (("GF", gf, z.probs), ("ED", ed, y_hat)):
                # a deviation in the kernel comes out at roundoff of |v|^2
                v = math.sqrt(m) * (conv - hyp)
                for sid in (f"Z1_{fam}", f"Z2_{fam}"):
                    assert stats[sid][0][rep] == pytest.approx(
                        report.statistic, rel=1e-12, abs=1e-12 * (v @ v))


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

    def test_json_of_a_scenario_built_from_numpy_scalars(self, tmp_path):
        # the fields are stored as plain numbers, so json can write them
        scn = scenario(L=10, seed=np.int64(3), n1=np.int32(5),
                       p=np.float64(0.3), statistics=("P_GF",))
        path = tmp_path / "out.json"
        write_json(sweep(scn, "rho", [0.0]), path, scn, "rho")
        assert '"seed": 3' in path.read_text()

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

    @pytest.mark.parametrize("change, message", [
        ({"p": 1.5}, "p and q must lie in (0,1)"),
        ({"rho": -0.1}, "rho must lie in [0,1]"),
        ({"n1": 9}, "n1, n2 <= n3"),
        ({"statistics": ["C9_GF"]}, "unknown statistics"),
    ])
    def test_config_range_error_names_the_file(self, tmp_path, change,
                                                message):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "p": 0.3, "q": 0.8, "rho": 0.4, "n1": 5, "n2": 5, "n3": 5,
            "L": 10, "seed": 1, **change,
        }))
        with pytest.raises(InputError) as info:
            load_config(path)
        assert str(info.value).startswith(f"config {path}: ")
        assert message in str(info.value)

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


class TestPoolSize:
    class SerialPool:
        """Stands in for ``multiprocessing.Pool``; maps in this process."""

        sizes = []

        def __init__(self, processes):
            self.sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    @pytest.mark.parametrize("workers,L,size", [(64, 10, 10), (4, 10, 4),
                                                (3, 2, 2)])
    def test_pool_never_exceeds_blocks(self, monkeypatch, workers, L, size):
        import multiprocessing

        self.SerialPool.sizes.clear()
        monkeypatch.setattr(multiprocessing, "Pool", self.SerialPool)
        scn = scenario(L=L)
        assert run_scenario(scn, workers=workers) == run_scenario(scn)
        assert self.SerialPool.sizes == [size]
