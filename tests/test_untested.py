"""``tools/untested.py``: which package lines count as run."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "untested.py"


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring."""


def f(x):
    """Function docstring."""
    if x > 0:
        return "positive"
    return (
        "not positive"
    )


def g():
    return 1
'''


def test_lists_the_lines_no_call_reached(tmp_path):
    tool = load(TOOL, "untested")
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)

    def run():
        return load(path, "sample").f(1)

    result, missed = tool.untested([path], run)
    assert result == "positive"
    assert [(line, text) for _, line, text in missed] == [
        (8, "return ("), (9, '"not positive"'), (14, "return 1"),
    ]
    assert tool.executable_lines(path) >= {1, 4, 6, 7, 8, 9, 13, 14}
