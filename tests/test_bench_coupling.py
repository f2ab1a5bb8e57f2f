"""The benchmark under bench/ wraps relu_lab functions by name.

bench/spans.py lists them in TRACED, and its StatusWatch wraps
relu_lab.solver.solve even in an untraced run.  These tests read that file
as text (it is not imported or edited), so a refactor that drops or renames
a traced function fails here rather than in a benchmark run.  The last tests
import bench/workloads.py (without writing its bytecode) and run its
warm-up, every reproduce case (three of them through the CLI, with the
options the benchmark passes) and one coverage-sweep case, so a change to
the program's layout or options that the benchmark's calls miss, or a flow
change that breaks the coverage case's gate, fails here too.  One
certify-d3 case and one coverage-sweep case also run under the benchmark's
span tracer, which must record a span from every layer the benchmark
expects on that workload: a call that bypasses a traced binding fails here,
not first in a traced benchmark run.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


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


def load_bench(monkeypatch, name):
    """bench/<name>.py, imported without writing its bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    return load_bench(monkeypatch, "workloads")


def test_workloads_warm_up_and_notebook_face_pass(workloads, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        workloads.warm_up()
    case, = [c for c in workloads.reproduce_cases(0, tmp_path)
             if c.name == "notebook-face"]
    assert case.gate(case.run()) == []


@pytest.mark.parametrize("name", ["appendix-ortho", "appendix-nonspikefree",
                                  "notebook-solve"])
def test_reproduce_cli_case_passes(workloads, tmp_path, name):
    # `reproduce T --seed 1` and `solve --dataset notebook --which both`,
    # each with --out-dir and --deterministic, through the benchmark's gate
    case, = [c for c in workloads.reproduce_cases(1, tmp_path)
             if c.name == name]
    assert case.gate(case.run()) == []


def test_coverage_sweep_case_passes(workloads, tmp_path):
    # the benchmark's flow, dual recovery and KKT extraction on its first
    # seed-1 data set, through the gate the benchmark applies
    case = workloads.coverage_cases(1, tmp_path)[0]
    assert case.gate is workloads._gate_coverage
    summary = case.run()
    assert workloads._gate_coverage(summary) == []
    # the gate checks gauge_all only on a covered set, and this one is
    assert summary["covered"]


@pytest.mark.parametrize("workload", ["certify-d3", "coverage-sweep"])
def test_traced_case_records_every_expected_layer(workloads, monkeypatch,
                                                  tmp_path, workload):
    spans = load_bench(monkeypatch, "spans")
    case = workloads.WORKLOADS[workload](1, tmp_path)[0]
    tracer = spans.Tracer()
    patched = tracer.install()
    try:
        summary = case.run()
    finally:
        spans.unpatch(patched)
    assert case.gate(summary) == []
    seen = {spans.LAYER_OF[sp.name] for sp in tracer.spans}
    missing = set(workloads.EXPECTED_LAYERS[workload]) - seen
    assert not missing, f"layers without a span on {workload}: {missing}"
