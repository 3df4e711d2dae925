#!/usr/bin/env python3
"""Raw and code line counts of the ``convstat`` package modules.

Usage, from the root of a checkout:

    python3 tools/codelines.py [package directory]

The directory defaults to ``src/convstat``.  Raw lines are every line of a
module; code lines leave out blank lines, comment lines and the lines of
module, class and function docstrings.  A line counts as code when some
token other than a comment starts, ends or runs through it, so the lines
inside a multi-line string that is not a docstring count.  Uses the
standard library only.
"""

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path):
    """``(raw lines, code lines)`` of one source file."""
    text = path.read_text()
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(text))
    return len(text.splitlines()), len(code)


def main(argv) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/convstat")
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"error: no modules in {package}", file=sys.stderr)
        return 2
    width = max(len(p.name) for p in modules)
    print(f"{'module':<{width}} {'raw':>6} {'code':>6}")
    totals = [0, 0]
    for path in modules:
        raw, code = count(path)
        totals[0] += raw
        totals[1] += code
        print(f"{path.name:<{width}} {raw:>6} {code:>6}")
    print(f"{'total':<{width}} {totals[0]:>6} {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
