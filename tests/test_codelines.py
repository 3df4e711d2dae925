"""``tools/codelines.py``: what counts as a code line."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"


def load():
    spec = importlib.util.spec_from_file_location("codelines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment keeps the line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a multi-line
string that is code"""
        return text


def g():
    x = 1
    "a bare string after the first statement is code"
    return x
'''


def test_counts_of_a_sample_module(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # code: import, class, def f, the two lines of the text assignment,
    # return text, def g, x = 1, the bare string, return x
    assert load().count(path) == (22, 10)


def test_totals_over_a_package(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = 2\n')
    assert load().main(["codelines", str(tmp_path)]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split()
    assert last == ["total", "5", "2"]
