"""End-to-end command-line runs against generated data files."""

import json
import warnings

import numpy as np
import pytest

from convstat import TestReport
from convstat.cli import main


@pytest.fixture
def datafiles(tmp_path):
    rng = np.random.default_rng(100)
    x_path = tmp_path / "x.csv"
    lines = ["variable_id,value"]
    for v in (rng.random(40) < 0.3).astype(int):
        lines.append(f"A1,{v}")
    for v in (rng.random(25) < 0.8).astype(int):
        lines.append(f"A2,{v}")
    x_path.write_text("\n".join(lines) + "\n")

    y_path = tmp_path / "y.csv"
    z = np.array([0.14, 0.62, 0.24])
    u = rng.random(60)
    values = (u >= z[0]).astype(int) + (u >= z[0] + z[1]).astype(int)
    y_path.write_text(
        "variable_id,value\n" + "\n".join(f"B1,{v}" for v in values) + "\n"
    )

    paired_path = tmp_path / "paired.csv"
    a = (rng.random(120) < 0.4).astype(int)
    b = (rng.random(120) < 0.6).astype(int)
    paired_path.write_text(
        "X1,X2\n" + "\n".join(f"{i},{j}" for i, j in zip(a, b)) + "\n"
    )
    return {"x": str(x_path), "y": str(y_path), "paired": str(paired_path)}


class TestGofCommand:
    def test_reports_and_exits_zero(self, datafiles, capsys):
        code = main(["gof", datafiles["x"], "--z", "0.14,0.62,0.24"])
        out = capsys.readouterr().out
        assert code == 0
        assert "statistic" in out and "p-value" in out

    def test_json_round_trip(self, datafiles, capsys):
        code = main(["gof", datafiles["x"], "--z", "0.14,0.62,0.24", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        report = TestReport.from_dict(payload)
        assert report.to_dict() == payload

    def test_fixed_rank_too_large_is_input_error(self, datafiles, capsys):
        code = main(["gof", datafiles["x"], "--z", "0.14,0.62,0.24",
                     "--rank", "fixed:3"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_input_error(self, tmp_path, capsys, bad):
        data = tmp_path / "bad.csv"
        data.write_text(f"variable_id,value\nA1,0\nA1,{bad}\nA2,1\nA2,0\n")
        assert main(["gof", str(data), "--z", "0.25,0.5,0.25"]) == 2
        assert "non-finite value" in capsys.readouterr().err

    def test_dimension_mismatch_is_input_error(self, datafiles, capsys):
        code = main(["gof", datafiles["x"], "--z", "0.5,0.5"])
        assert code == 2

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("variable_id,value\nA1,0\nA1,not_a_number\n")
        code = main(["gof", str(bad), "--z", "0.5,0.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert ":3:" in err

    def test_off_lattice_value_is_reported_plainly(self, tmp_path, capsys):
        data = tmp_path / "half.csv"
        data.write_text("variable_id,value\nA1,0\nA1,0.5\nA2,1\n")
        assert main(["gof", str(data), "--z", "0.25,0.5,0.25"]) == 2
        err = capsys.readouterr().err
        assert "value 0.5 is not a multiple of zeta=1.0" in err
        assert "np." not in err

    def test_missing_file(self, capsys):
        assert main(["gof", "/nonexistent.csv", "--z", "0.5,0.5"]) == 2


class TestEdCommand:
    def test_same_file_twice_gives_zero(self, datafiles, capsys):
        code = main(["ed", datafiles["x"], datafiles["x"], "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistic"] == pytest.approx(0.0, abs=1e-12)
        assert payload["p_value"] == 1.0

    def test_unequal_sizes_run(self, datafiles, capsys):
        code = main(["ed", datafiles["x"], datafiles["y"], "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p_value"] >= 0.0

    def test_offset_mismatch_warns(self, datafiles, tmp_path, capsys):
        shifted = tmp_path / "shifted.csv"
        with open(datafiles["y"]) as fh:
            content = fh.read()
        shifted.write_text("#offset 2\n" + content)
        code = main(["ed", datafiles["x"], str(shifted)])
        out = capsys.readouterr().out
        assert code == 0
        assert "p-value            0" in out
        assert "offsets differ" in out


class TestSubindCommand:
    def test_runs_and_reports(self, datafiles, capsys):
        code = main(["subind", datafiles["paired"], "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dof"] == 2

    def test_ragged_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "ragged.csv"
        bad.write_text("X1,X2\n1,2\n3\n")
        assert main(["subind", str(bad)]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_value_is_input_error(self, tmp_path, capsys, bad):
        data = tmp_path / "bad.csv"
        data.write_text(f"X1,X2\n0,1\n{bad},0\n1,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["subind", str(data)]) == 2
        assert f"non-finite value {bad}" in capsys.readouterr().err

    def test_fixed_rank_flag(self, datafiles, capsys):
        code = main(["subind", datafiles["paired"], "--rank", "fixed:1",
                     "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["dof"] == 1


class TestRankCommand:
    def test_coprime_literals(self, capsys):
        code = main(["rank", "--pmv", "0.7,0.3", "--pmv", "0.2,0.8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "analytic rank           2" in out

    def test_equal_literals_drop_rank(self, capsys):
        code = main(["rank", "--pmv", "0.2,0.8", "--pmv", "0.2,0.8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "analytic rank           1" in out

    def test_zero_cell_uses_lower_bound(self, capsys):
        code = main(["rank", "--pmv", "0.5,0,0.5", "--pmv", "0.4,0.6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lower bound" in out

    def test_from_data_file(self, datafiles, capsys):
        code = main(["rank", datafiles["x"], "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["s"] == 2

    def test_no_input_is_error(self, capsys):
        assert main(["rank"]) == 2

    def test_two_sided_rank(self, capsys):
        code = main(["rank", "--pmv", "0.2,0.8", "--pmv", "0.2,0.8",
                     "--y-pmv", "0.36,0.48,0.16", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # the second side restores full rank even though the first drops it
        assert payload["analytic_rank"] == 2


class TestSimulateCommand:
    def test_deterministic_artifacts(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "p": 0.3, "q": 0.8, "rho": 0.0, "n1": 15, "n2": 10, "n3": 30,
            "L": 60, "seed": 9, "statistics": ["C2_GF", "P_ED"],
            "sweep": {"axis": "rho", "values": [0.0, 0.5]},
        }))
        assert main(["simulate", str(config), "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", str(config), "--out", str(tmp_path / "b"),
                     "--workers", "3"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        header = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert header == "sweep_value,statistic_id,proportion,stderr,fallback_count"

    @pytest.mark.parametrize("field,value", [
        ("seed", 2 ** 64), ("seed", 3.7), ("L", 10.5), ("n1", 2.5)])
    def test_unusable_integer_is_input_error(self, tmp_path, capsys, field,
                                             value):
        config = tmp_path / "cfg.json"
        params = {"p": 0.3, "q": 0.8, "rho": 0.0, "n1": 5, "n2": 5, "n3": 5,
                  "L": 10, "seed": 1}
        params[field] = value
        config.write_text(json.dumps(params))
        assert main(["simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("field,value", [
        ("p", None), ("q", "0.8"), ("rho", False), ("alpha", None)])
    def test_non_number_is_input_error(self, tmp_path, capsys, field, value):
        config = tmp_path / "cfg.json"
        params = {"p": 0.3, "q": 0.8, "rho": 0.0, "n1": 5, "n2": 5, "n3": 5,
                  "L": 10, "seed": 1}
        params[field] = value
        config.write_text(json.dumps(params))
        assert main(["simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        assert f"{field} must be a number" in capsys.readouterr().err

    def test_fractional_sweep_value_is_input_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "p": 0.3, "q": 0.8, "rho": 0.0, "n1": 5, "n2": 5, "n3": 5,
            "L": 10, "seed": 1, "sweep": {"axis": "m", "values": [3, 2.5]},
        }))
        assert main(["simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        assert "must be an integer, got 2.5" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_bad_config_is_input_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"p": 0.3}')
        assert main(["simulate", str(config), "--out", str(tmp_path / "x")]) == 2
