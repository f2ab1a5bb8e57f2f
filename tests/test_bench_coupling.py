"""The benchmark under bench/ wraps relu_lab functions by name.

bench/spans.py lists them in TRACED, and its StatusWatch wraps
relu_lab.solver.solve even in an untraced run.  These tests read that file
as text (it is not imported or edited), so a refactor that drops or renames
a traced function fails here rather than in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def traced_names() -> dict[str, tuple[str, ...]]:
    """The TRACED literal of bench/spans.py: {module: function names}."""
    for node in ast.parse(SPANS.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == ["TRACED"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {SPANS}")


def test_every_traced_name_resolves():
    traced = traced_names()
    assert traced, "TRACED is empty"
    missing = []
    for module_name, names in traced.items():
        module = importlib.import_module(f"relu_lab.{module_name}")
        missing += [f"relu_lab.{module_name}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert not missing, f"traced by bench/spans.py but gone: {missing}"


def test_status_watch_target_exists():
    solver = importlib.import_module("relu_lab.solver")
    assert callable(getattr(solver, "solve", None))
