"""Every name a package module imports is used there or re-exported.

No linter runs on the package, so this stdlib ``ast`` check stands in for
an unused-import rule: a name bound by ``import`` or ``from ... import``
must be read somewhere in the module (string annotations included) or be
listed in the module's ``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "convstat"


def _annotation_names(tree):
    """Names inside string annotations such as ``-> "TestReport"``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            notes = [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                for sub in ast.walk(ast.parse(note.value, mode="eval")):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def unused_imports(source: str) -> list:
    """Imported names that the module neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names if alias.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_annotation_names(tree))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_detector_finds_unused_names():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from a.b import c, d as e, f, g\n"
        "__all__ = ['f']\n"
        "def h(x) -> 'g':\n"
        "    return c(x)\n"
    )
    assert unused_imports(source) == ["e", "np", "os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
