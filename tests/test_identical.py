"""``tools/identical.py``: a checkout compared with itself, and what counts
as a difference."""

import importlib.util
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "identical.py"


def load():
    spec = importlib.util.spec_from_file_location("identical", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Report:
    statistic: float
    diagnostics: dict


def test_last_bit_and_signed_zero_differences_are_found():
    tool = load()
    base = Report(1.0, {"eigenvalues": [0.5, 0.25], "v": np.arange(3.0)})
    same = Report(1.0, {"eigenvalues": [0.5, 0.25], "v": np.arange(3.0)})
    assert tool.diff(tool.canon(base), tool.canon(same)) is None
    bumped = Report(1.0, {"eigenvalues": [0.5, np.nextafter(0.25, 1.0)],
                          "v": np.arange(3.0)})
    found = tool.diff(tool.canon(base), tool.canon(bumped))
    assert found.startswith("output.diagnostics.eigenvalues[1]:")
    signed = Report(1.0, {"eigenvalues": [0.5, 0.25],
                          "v": np.array([-0.0, 1.0, 2.0])})
    found = tool.diff(tool.canon(base), tool.canon(signed))
    assert found.startswith("output.diagnostics.v:")
    assert tool.diff(tool.canon(np.arange(3)), tool.canon(np.arange(3.0)))


def test_a_checkout_against_itself_smoke():
    run = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), "--workloads",
         "lib_grid,bulk_data", "--seeds", "1", "--rounds", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "lib_grid seed 1: 4 ops, 0 differ" in run.stdout
    assert "bulk_data seed 1: 5 ops, 0 differ" in run.stdout
