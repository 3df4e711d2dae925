#!/usr/bin/env python3
"""List the lines of the package that no test runs.

Usage, from the root of a checkout:

    python3 tools/untested.py [pytest args]

Runs pytest in this process with ``sys.settrace`` set, tracing only the
frames whose code lives under ``src/convstat``, and prints
``module:line: source`` for every package line that has bytecode and that
no test ran, then the count.  The pytest arguments default to the whole
suite.  Exit status is pytest's.  Uses the standard library and pytest
only, and writes no file.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "convstat"


def executable_lines(path) -> set:
    """Line numbers of ``path`` that hold bytecode, in every code object."""
    code = compile(Path(path).read_text(), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def untested(paths, run):
    """``(result of run(), [(path, line, source)])`` for every line with
    bytecode in ``paths`` that ``run`` did not reach; only the frames whose
    code comes from ``paths`` are traced."""
    seen = {str(Path(p).resolve()): set() for p in paths}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename not in seen:
            return None
        seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(previous)
        threading.settrace(previous)
    missed = []
    for path in sorted(seen):
        source = Path(path).read_text().splitlines()
        missed.extend((path, line, source[line - 1].strip())
                      for line in sorted(executable_lines(path) - seen[path]))
    return result, missed


def main(argv) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    paths = sorted(PACKAGE.glob("*.py"))
    status, missed = untested(paths, lambda: pytest.main(argv[1:]))
    for path, line, text in missed:
        print(f"{Path(path).stem}:{line}: {text}")
    print(f"{len(missed)} package lines with bytecode ran in no test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
