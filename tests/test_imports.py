"""Every name a package module imports is used there or re-exported, and
every private module-level name is read somewhere in the package.

No linter runs on the package, so these stdlib ``ast`` checks stand in for
an unused-import rule and a dead-code rule:

- a name bound by ``import`` or ``from ... import`` must be read somewhere
  in the module (string annotations included) or be listed in the
  module's ``__all__``;
- a module-level function, class or constant whose name starts with one
  underscore must be read in some package module, as a name or as an
  attribute (``covest._weighted_cov``), so a deleted caller cannot leave
  its helper behind.
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


def _private_definitions(tree):
    """Module-level functions, classes and constants named ``_x``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names
                    if n.startswith("_") and not n.startswith("__"))


def _names_read(tree):
    """Loaded names, attribute names and names in string annotations."""
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    read.update(_annotation_names(tree))
    return read


def unread_private_names(sources: dict) -> list:
    """``module.name`` of every private module-level name no module reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*(_names_read(tree) for tree in trees.values()))
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in _private_definitions(tree) if name not in read)


def test_detector_finds_unread_private_names():
    sources = {
        "a": (
            "_USED = 1\n"
            "_DEAD, _PAIR = 2, 3\n"
            "_ANNOTATED: int = 4\n"
            "__dunder__ = 5\n"
            "def _helper():\n"
            "    return _USED\n"
            "def _orphan():\n"
            "    return _helper()\n"
            "class _Record:\n"
            "    _field = 6\n"
            "def public() -> '_Note':\n"
            "    _local = 7\n"
            "    return _local\n"
        ),
        "b": (
            "from . import a\n"
            "from .a import _PAIR\n"
            "class _Note:\n"
            "    pass\n"
            "def f():\n"
            "    return a._Record, _PAIR\n"
        ),
    }
    assert unread_private_names(sources) == [
        "a._ANNOTATED", "a._DEAD", "a._orphan",
    ]


def test_no_unread_private_names():
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []
