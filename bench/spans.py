"""Span tracer that wraps relu_lab's public functions from the outside.

A span records a name, start, end, parent span and case id; spans stay in
memory until the run ends.  Wrapping replaces every module binding of each
traced function (relu_lab uses ``from .solver import solve`` style imports,
so ``geometry.solve`` and ``solver.solve`` are separate bindings of one
function) and restores them afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

#: public functions wrapped by the traced run, by defining module
TRACED = {
    "solver": ("solve", "lp_feasible", "optimal_face_bounds"),
    "arrangements": ("enumerate_masks",),
    "geometry": ("polar_gauge", "extreme_point"),
    "convex": ("build_primal", "solve_primal", "solve_dual"),
    "flow": ("run_flow", "recover_dual"),
    "certify": ("extract_kkt", "ortho_coverage", "dual_feasible"),
    "cli": ("main",),
}


@dataclass
class Span:
    name: str
    start: float
    parent: int           # index of the enclosing span, -1 at top level
    case: str
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _report_info(span, args, kwargs, result):
    report = result[2]          # a SolveReport
    span.info["status"] = report.status
    span.info["iterations"] = report.iterations


def _lp_info(span, args, kwargs, result):
    span.info["witness"] = result is not None


def _masks_info(span, args, kwargs, result):
    span.info["masks"] = len(result)


def _flow_info(span, args, kwargs, result):
    traces = result if isinstance(result, list) else [result]
    span.info["steps"] = sum(tr.config.iters for tr in traces)


RESULT_INFO = {
    "solve": _report_info,
    "lp_feasible": _lp_info,
    "enumerate_masks": _masks_info,
    "solve_primal": _report_info,
    "solve_dual": _report_info,
    "run_flow": _flow_info,
}


class Tracer:
    """Collects spans from wrapped functions; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.case = ""

    def wrap(self, name: str, fn):
        on_result = RESULT_INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, self.clock(), parent, self.case)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        return traced

    def install(self) -> list:
        """Wrap every relu_lab module binding of the traced functions;
        returns what :func:`unpatch` needs to restore them."""
        wrappers = {}
        for mod_name, names in TRACED.items():
            module = sys.modules[f"relu_lab.{mod_name}"]
            for name in names:
                fn = getattr(module, name)
                wrappers[fn] = self.wrap(name, fn)
        return patch(wrappers)


class StatusWatch:
    """Counts cone solves that end in a status other than "optimal"; the
    untraced run's only instrumentation (one call per solve, no clock)."""

    def __init__(self):
        self.not_optimal = 0

    def install(self) -> list:
        solve = sys.modules["relu_lab.solver"].solve

        @functools.wraps(solve)
        def watched(*args, **kwargs):
            result = solve(*args, **kwargs)
            if result[2].status != "optimal":
                self.not_optimal += 1
            return result

        return patch({solve: watched})


def patch(wrappers: dict) -> list:
    """Replace each function in ``wrappers`` at every relu_lab module
    binding; returns the (module, attribute, original) list."""
    by_id = {id(fn): (fn, wrapper) for fn, wrapper in wrappers.items()}
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "relu_lab" and not mod_name.startswith("relu_lab."):
            continue
        for attr, value in list(vars(module).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                patched.append((module, attr, value))
                setattr(module, attr, hit[1])
    return patched


def unpatch(patched: list) -> None:
    for module, attr, value in reversed(patched):
        setattr(module, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    child spans cover (overlapping children are merged, and children are
    clipped to the parent's interval)."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append(sp)
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for ch in sorted(children.get(i, ()), key=lambda s: s.start):
            lo, hi = max(ch.start, sp.start), min(ch.end, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(sp.duration - covered)
    return out


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    p = spans[index].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def check_self_time_arithmetic() -> None:
    """Self time on hand-built nested spans: overlapping children merge,
    a child running past its parent is clipped, grandchildren do not count
    against the grandparent twice."""
    spans = [Span("a", 0.0, -1, "c", end=10.0),
             Span("b", 1.0, 0, "c", end=3.0),
             Span("c", 2.0, 0, "c", end=4.0),
             Span("d", 2.5, 2, "c", end=3.5),
             Span("e", 9.0, 0, "c", end=12.0),
             Span("f", 20.0, -1, "c", end=21.0)]
    got = self_times(spans)
    want = [10.0 - 3.0 - 1.0, 2.0, 1.0, 1.0, 3.0, 1.0]
    if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
        raise AssertionError(f"self-time arithmetic: got {got}, want {want}")
    if not has_ancestor(spans, 3, "a") or has_ancestor(spans, 5, "a"):
        raise AssertionError("ancestor lookup")


#: layer (defining relu_lab module) of each traced function
LAYER_OF = {name: layer for layer, names in TRACED.items() for name in names}

STATUSES = ("optimal", "max_iters", "infeasible-suspected")


def layer_totals(spans: list[Span]) -> tuple[dict, dict]:
    """(counts, seconds) summed over the spans of a traced run."""
    selfs = self_times(spans)
    counts = {"lp_calls": 0, "lp_witnesses": 0, "lp_inconclusive": 0,
              "masks": 0, "pdhg_solves": 0, "pdhg_iters": 0,
              "face_probes": 0, "face_max_iters_probes": 0,
              "gauge_calls": 0, "subproblems": 0, "primal_iters": 0,
              "dual_iters": 0, "flow_steps": 0}
    counts.update({f"status_{s}": 0 for s in STATUSES})
    secs = {k: 0.0 for k in ("enumerate", "lp", "pdhg", "face", "gauge",
                             "subproblem", "primal", "dual", "flow",
                             "flow_self", "recover_dual", "dual_feasible",
                             "extract_kkt", "coverage", "cli_self",
                             "top_level")}
    for i, sp in enumerate(spans):
        dur, info = sp.duration, sp.info
        if sp.parent < 0:
            secs["top_level"] += dur
        if sp.name == "lp_feasible":
            counts["lp_calls"] += 1
            counts["lp_witnesses"] += int(info.get("witness", False))
            counts["lp_inconclusive"] += int(
                info.get("error") == "InconclusiveError")
            secs["lp"] += dur
        elif sp.name == "enumerate_masks":
            counts["masks"] += info.get("masks", 0)
            secs["enumerate"] += dur
        elif sp.name == "solve":
            counts["pdhg_solves"] += 1
            counts["pdhg_iters"] += info.get("iterations", 0)
            status = info.get("status", "raised")
            if status in STATUSES:
                counts[f"status_{status}"] += 1
            if has_ancestor(spans, i, "optimal_face_bounds"):
                counts["face_probes"] += 1
                counts["face_max_iters_probes"] += int(status == "max_iters")
            secs["pdhg"] += dur
        elif sp.name == "optimal_face_bounds":
            secs["face"] += dur
        elif sp.name == "polar_gauge":
            counts["gauge_calls"] += 1
            secs["gauge"] += dur
        elif sp.name == "extreme_point":
            counts["subproblems"] += 1
            secs["subproblem"] += dur
        elif sp.name in ("build_primal", "solve_primal"):
            counts["primal_iters"] += info.get("iterations", 0)
            secs["primal"] += dur
        elif sp.name == "solve_dual":
            counts["dual_iters"] += info.get("iterations", 0)
            secs["dual"] += dur
        elif sp.name == "run_flow":
            counts["flow_steps"] += info.get("steps", 0)
            secs["flow"] += dur
            secs["flow_self"] += selfs[i]
        elif sp.name == "recover_dual":
            secs["recover_dual"] += dur
        elif sp.name == "dual_feasible":
            secs["dual_feasible"] += dur
        elif sp.name == "extract_kkt":
            secs["extract_kkt"] += dur
        elif sp.name == "ortho_coverage":
            secs["coverage"] += dur
        elif sp.name == "main":
            secs["cli_self"] += selfs[i]
    return counts, secs
