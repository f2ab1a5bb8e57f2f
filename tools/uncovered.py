"""Print every statement of src/relu_lab that the Tier-1 suite never runs.

    python3 tools/uncovered.py [PYTEST_ARGS ...]

A line tracer in place of coverage.py: it runs pytest in this process,
from the repository root with src/ first on sys.path, under a
``sys.settrace`` tracer (also set for threads) that is installed before
``relu_lab`` is first imported, so module-level statements count too.
PYTEST_ARGS default to the Tier-1 command's, ``-q
--continue-on-collection-errors``.

A statement is the first line of an ``ast`` statement that has bytecode
(a function's docstring has none); it ran when a line event of a
``relu_lab`` frame reached it.  Tests that start a fresh interpreter run
outside the tracer, so a statement only they reach is listed too.  The
output is one ``path:line: source`` per statement that never ran, then a
count; the exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "relu_lab"


def statements(path: Path) -> set[int]:
    """The first lines of the statements of path that have bytecode."""
    source = path.read_text()
    starts = {node.lineno for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.stmt)}
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return starts & lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """(pytest's exit status, file name -> lines run) of pytest.main(args)."""
    hits: dict[str, set[int]] = defaultdict(set)
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    if any(name.split(".")[0] == "relu_lab" for name in sys.modules):
        raise RuntimeError("relu_lab was imported before tracing started")
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    status, hits = traced_run(argv or ["-q", "--continue-on-collection-errors"])
    missed = total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = statements(path)
        source = path.read_text().splitlines()
        total += len(lines)
        for line in sorted(lines - hits.get(str(path), set())):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: "
                  f"{source[line - 1].strip()}")
    print(f"{missed} of {total} statements in src/relu_lab not run")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
