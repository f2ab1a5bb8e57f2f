import dataclasses
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import relu_lab.certify
import relu_lab.cli
import relu_lab.convex
import relu_lab.flow
import relu_lab.geometry
import relu_lab.solver
from relu_lab.cli import main
from relu_lab.datasets import builtin_dataset

from answers import ANSWERS, digests, environment
from conftest import generic_gaussian_draws
from oracles import sweep_masks


#: flow options whose run overflows and aborts at iteration 26 on the notebook
OVERFLOW_FLOW = ("--m", "4", "--init-scale", "1", "--step", "1e12",
                 "--iters", "100", "--checkpoints", "1,20", "--seed", "1")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text: str):
    """json.loads that refuses the non-JSON tokens Infinity and NaN."""
    def reject(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=reject)


class TestArrangementsCommand:
    def test_notebook_layout(self, capsys):
        code, out, _ = run_cli(capsys, "arrangements", "--dataset", "notebook")
        assert code == 0
        assert "[[0 0 0 1 1 1]" in out
        assert "[0 0 1 0 1 1]" in out
        assert "[0 1 1 0 0 1]]" in out
        assert "6 arrangements" in out

    def test_bound_line_for_appendix(self, capsys):
        code, out, _ = run_cli(capsys, "arrangements", "--dataset",
                               "appendix-ortho")
        assert code == 0
        assert "4 arrangements" in out

    def test_scaled_rows_keep_the_notebook_bound(self, capsys, tmp_path):
        # the rank is taken on the unit rows, so row scale cannot lower it
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps({"X": [[1e6, 0.0], [0.0, 1e-6],
                                          [-1e-6, 1e-6]],
                                    "y": [1, -1, -1]}))
        code, out, _ = run_cli(capsys, "arrangements", "--dataset",
                               str(path))
        assert code == 0
        assert "6 arrangements; counting bound 2r(e(N-1)/r)^r = 29.5562 " \
               "at rank 2" in out

    def test_unknown_dataset_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "arrangements", "--dataset", "nope")
        assert code == 2
        assert "unknown dataset" in err

    def test_json_masks_match_sweep_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "arrangements", "--dataset",
                               "notebook", "--json")
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        X = builtin_dataset("notebook").X
        assert payload["masks"] == [m.as_string() for m in sweep_masks(X)]
        # one enumerator is left, so there is no --method to choose
        with pytest.raises(SystemExit) as exc:
            main(["arrangements", "--method", "sweep2d"])
        assert exc.value.code == 2

    def test_dataset_from_file(self, capsys, tmp_path):
        path = tmp_path / "ds.json"
        path.write_text(json.dumps({"name": "tiny", "X": [[1.0, 0.0]],
                                    "y": [1]}))
        code, out, _ = run_cli(capsys, "arrangements", "--dataset", str(path))
        assert code == 0
        assert "2 arrangements" in out

    @pytest.mark.parametrize("text", ["null", "5"])
    def test_dataset_not_an_object_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "ds.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "arrangements", "--dataset",
                                 str(path))
        assert code == 2 and out == ""
        assert err == ("error: dataset spec must be a JSON object with 'X' "
                       "and 'y'\n")

    def test_zero_rows_have_no_bound(self, capsys, tmp_path):
        # rank 0: the counting bound needs r >= 1, as it needs N >= 2
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps({"name": "zeros", "X": [[0.0, 0.0]] * 3,
                                    "y": [1, -1, 1]}))
        code, out, _ = run_cli(capsys, "arrangements", "--dataset",
                               str(path))
        assert code == 0
        assert "[[1]\n [1]\n [1]]" in out
        assert "1 arrangements; counting bound 2r(e(N-1)/r)^r = inf at " \
               "rank 0" in out

    @pytest.mark.parametrize("X", [[[1.0, 0.0]], [[0.0, 0.0]] * 3],
                             ids=["one-row", "rank-0"])
    def test_json_without_bound_is_strict_json(self, capsys, tmp_path, X):
        # N < 2 and rank 0 have no counting bound; it prints as null
        path = tmp_path / "ds.json"
        path.write_text(json.dumps({"X": X, "y": [1] * len(X)}))
        code, out, _ = run_cli(capsys, "arrangements", "--dataset",
                               str(path), "--json")
        assert code == 0
        payload = strict_json(out.strip().splitlines()[-1])
        assert payload["bound"] is None
        assert payload["count"] == len(payload["masks"])

    def test_tol_rejected(self, capsys, tmp_path):
        # only solve and reproduce run a solver that reads --tol
        with pytest.raises(SystemExit) as exc:
            main(["arrangements", "--tol", "1e-6"])
        assert exc.value.code == 2
        # and there it must be a finite number > 0, checked before any work
        for command in (["solve"], ["reproduce", "appendix-ortho"]):
            for value in ("0", "-1e-8", "nan", "inf", "-inf", "tight"):
                with pytest.raises(SystemExit) as exc:
                    main(command + ["--out-dir", str(tmp_path),
                                    f"--tol={value}"])
                assert exc.value.code == 2
                assert "--tol" in capsys.readouterr().err
                assert not list(tmp_path.iterdir())


class TestSolveCommand:
    @pytest.mark.parametrize("spec, bad", [
        ({"y": [1.7, -1, -1]}, "label 1.7 of sample 0"),
        ({"y": [1, 2, 1], "K": 2.5}, "K = 2.5"),
        ({"y": [1, 1, 1], "K": True}, "K = True")],
        ids=["label", "K", "bool-K"])
    def test_fractional_label_or_k_exits_2(self, capsys, tmp_path, spec,
                                           bad):
        # refused, not truncated to a whole number and solved
        path = tmp_path / "ds.json"
        path.write_text(json.dumps({"X": [[1, 0], [0, 1], [-1, 1]], **spec}))
        code, out, err = run_cli(capsys, "solve", "--dataset", str(path))
        assert code == 2
        assert bad in err and "not a whole number" in err
        assert "objective" not in out

    def test_both_objectives_and_json(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--dataset", "notebook",
                               "--which", "both", "--json")
        assert code == 0
        assert re.search(r"primal objective 2\.000000 \(\d+ rounds\)", out)
        assert "dual objective 2.000000" in out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["primal"]["objective"] == pytest.approx(2.0, abs=1e-3)
        for group in payload["primal"]["groups"]:
            assert set(group) == {"mask", "sign", "u"}
        assert len(payload["primal"]["lambda"]) == 3

    def test_solution_file(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(capsys, "solve", "--dataset", "appendix-ortho",
                             "--out-dir", str(out_dir), "--deterministic")
        assert code == 0
        payload = json.loads((out_dir / "solution.json").read_text())
        assert payload["primal"]["objective"] == pytest.approx(1.2824, abs=1e-3)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["dataset_name"] == "appendix-ortho"
        assert "solution.json" in manifest["outputs"]


    @pytest.mark.parametrize("draw", [2, 4, 5])
    def test_generic_draw_solves(self, capsys, tmp_path, draw):
        X, y = generic_gaussian_draws()[draw]
        path = tmp_path / "draw.json"
        path.write_text(json.dumps({"X": X.tolist(),
                                    "y": y.astype(int).tolist()}))
        code, out, err = run_cli(capsys, "solve", "--dataset", str(path),
                                 "--which", "both")
        assert code == 0, err
        assert "primal objective" in out and "dual objective" in out

    def test_integer_rows_nnls_failed_on_solve(self, capsys, tmp_path):
        # feasible integer-entry rows on which an NNLS cone projection
        # missed its KKT conditions and solve exited 1; the exact
        # projection certifies p* = 2.658312 with a dual of gauge <= 1
        X = [[-2, 1, 1], [0, 0, 2], [1, 1, -2], [0, 1, 1], [-1, 1, 2],
             [-2, 2, 1], [1, 2, -2], [1, 1, 1]]
        y = [-1, 1, 1, 1, -1, -1, 1, 1]
        path = tmp_path / "integer.json"
        path.write_text(json.dumps({"X": X, "y": y}))
        code, out, err = run_cli(capsys, "solve", "--dataset", str(path),
                                 "--which", "both", "--json")
        assert code == 0, err
        payload = json.loads(out.splitlines()[-1])
        primal = payload["primal"]["objective"]
        dual = payload["dual"]["objective"]
        assert primal == pytest.approx(2.658312, abs=5e-7)
        assert 0.0 <= primal - dual <= relu_lab.solver.DEFAULT_TOL * (
            1.0 + primal)
        X = np.array(X, dtype=float)
        gauge = relu_lab.geometry.polar_gauge(
            X, relu_lab.cli.enumerate_masks(X), payload["dual"]["lambda"])
        assert gauge.gauge <= 1.0

    @pytest.mark.parametrize("which", ["primal", "dual", "both"])
    def test_one_cone_solve(self, capsys, monkeypatch, which):
        # the dual is the certified multiplier of the primal's one solve
        calls = []
        solve = relu_lab.solver.solve

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        for module in (relu_lab.solver, relu_lab.convex):
            monkeypatch.setattr(module, "solve", counted)
        code, out, _ = run_cli(capsys, "solve", "--dataset", "notebook",
                               "--which", which)
        assert code == 0
        assert len(calls) == 1
        assert ("dual objective" in out) == (which != "primal")
        assert ("primal objective" in out) == (which != "dual")


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under root (relative path) with its bytes."""
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


#: a short run of every command that writes files, --out-dir still to add
WRITING_RUNS = {
    "solve": ["solve", "--dataset", "notebook"],
    "flow": ["flow", "--dataset", "notebook", "--iters", "300",
             "--checkpoints", "100", "--seed", "2"],
    "certify": ["certify", "--dataset", "appendix-ortho", "--iters", "200",
                "--checkpoints", "100", "--step", "0.1"],
    "geometry-export": ["geometry-export", "--dataset", "appendix-ortho",
                        "--samples", "64"],
    **{f"reproduce-{target}": ["reproduce", target]
       for target in ("notebook", "appendix-ortho", "appendix-nonspikefree")},
}

#: (command, option) pairs the commands used to parse and then ignore
REMOVED_OPTIONS = [("arrangements", ("--out-dir", "x")),
                   ("arrangements", ("--seed", "2")),
                   ("arrangements", ("--deterministic",)),
                   ("solve", ("--seed", "2")), ("flow", ("--json",)),
                   ("geometry-export", ("--json",)),
                   ("geometry-export", ("--seed", "2")),
                   ("reproduce", ("--json",))]


#: a 3-class dataset and a d = 3 one, as dataset files
MULTICLASS = {"X": [[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]], "y": [1, 2, 3],
              "K": 3}
THREE_D = {"X": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "y": [1, -1]}


@pytest.mark.parametrize("spec, argv, message", [
    (MULTICLASS, ["solve"], "solve currently drives binary datasets"),
    (MULTICLASS, ["certify"], "certify drives binary datasets"),
    (THREE_D, ["geometry-export"], "geometry export requires d = 2"),
    (THREE_D, ["certify", "--network", "{tmp}/missing.json"],
     "cannot load network file"),
], ids=["solve-multiclass", "certify-multiclass", "geometry-export-3d",
        "certify-missing-network"])
def test_usage_error_exits_2(capsys, tmp_path, spec, argv, message):
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(spec))
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, *argv, "--dataset", str(path),
                             "--out-dir", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


class TestOptionsAndManifest:
    @pytest.mark.parametrize("command, option", REMOVED_OPTIONS,
                             ids=[f"{c}{o[0]}" for c, o in REMOVED_OPTIONS])
    def test_removed_option_exits_2(self, capsys, tmp_path, monkeypatch,
                                    command, option):
        monkeypatch.chdir(tmp_path)
        argv = ["reproduce", "notebook"] if command == "reproduce" else [
            command, "--dataset", "notebook"]
        with pytest.raises(SystemExit) as exc:
            main(argv + list(option))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option[0]}" in \
            capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("run", WRITING_RUNS)
    def test_deterministic_reruns_are_byte_identical(self, capsys, tmp_path,
                                                     run):
        out = tmp_path / "run"
        argv = WRITING_RUNS[run] + ["--out-dir", str(out)]
        assert run_cli(capsys, *argv)[0] == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["wall_time"] >= 0.0
        assert all((out / name).is_file() for name in manifest["outputs"])
        code, stdout, _ = run_cli(capsys, *argv, "--deterministic")
        assert code == 0
        first = tree_bytes(out)
        assert "wall_time" not in json.loads(first["manifest.json"])
        pinned = json.loads(ANSWERS.read_text())
        want = pinned["runs"][run]
        got = digests(stdout, out)
        moved = sorted(name for name in want.keys() | got.keys()
                       if want.get(name) != got.get(name))
        assert not moved, (f"{run}: {', '.join(moved)} moved from the pinned "
                           f"answers, recorded under "
                           f"{pinned['environment']}; this run has "
                           f"{environment()}")
        assert run_cli(capsys, *argv, "--deterministic")[0] == 0
        assert tree_bytes(out) == first


def readme_commands() -> list[list[str]]:
    """argv of every `relu-lab ...` line in the README's bash blocks, with
    backslash continuations joined and # comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "relu-lab":
                commands.append(argv[1:])
    return commands


def test_readme_commands_parse():
    # parsed only, never run: a flag that leaves the CLI fails here
    commands = readme_commands()
    assert len(commands) >= 7
    parser = relu_lab.cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


@pytest.fixture
def primal_stops_at_max_iters(monkeypatch):
    """Make every CLI primal solve end in a max_iters report."""
    solve_primal = relu_lab.cli.solve_primal

    def capped(*args, **kwargs):
        sol, lam, report = solve_primal(*args, **kwargs)
        return sol, lam, dataclasses.replace(report, status="max_iters")

    monkeypatch.setattr(relu_lab.cli, "solve_primal", capped)


class TestNonOptimalSolve:
    def test_solve_exits_1(self, capsys, primal_stops_at_max_iters):
        code, out, err = run_cli(capsys, "solve", "--dataset",
                                 "appendix-ortho", "--which", "primal")
        assert code == 1
        assert "primal solve: max_iters" in err
        assert "primal objective" not in out

    def test_round_cap_exits_1(self, capsys, monkeypatch):
        # appendix-nonspikefree's primal takes 3 rounds; the cap stops it
        monkeypatch.setattr(relu_lab.solver, "MAX_ROUNDS", 2)
        code, out, err = run_cli(capsys, "solve", "--dataset",
                                 "appendix-nonspikefree")
        assert code == 1 and out == ""
        assert err == "numerical failure: primal solve: max_iters\n"

    @pytest.mark.parametrize("target", ["notebook", "appendix-ortho",
                                        "appendix-nonspikefree"])
    def test_reproduce_exits_1_without_primal(self, capsys, tmp_path, target,
                                              primal_stops_at_max_iters):
        code, _, err = run_cli(capsys, "reproduce", target,
                               "--out-dir", str(tmp_path))
        assert code == 1
        assert "primal solve: max_iters" in err
        assert not (tmp_path / "primal.json").exists()
        assert not (tmp_path / "manifest.json").exists()


class TestFlowCommand:
    def test_summary_and_trace(self, capsys, tmp_path):
        out_dir = tmp_path / "flow"
        code, out, _ = run_cli(capsys, "flow", "--dataset", "notebook",
                               "--m", "8", "--iters", "500",
                               "--checkpoints", "10,100,500", "--seed", "1",
                               "--out-dir", str(out_dir), "--deterministic")
        assert code == 0
        assert "iteration 500" in out
        lines = (out_dir / "flow_trace.csv").read_text().splitlines()
        assert lines[0].split(",")[:5] == ["iter", "loss", "margin",
                                           "neuron_id", "r"]
        # initialization row + 3 checkpoints, 8 neurons each
        assert len(lines) == 1 + 4 * 8

    def test_without_out_dir_writes_nothing(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "flow", "--iters", "50")
        assert code == 0 and "iteration 50" in out
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_reruns_byte_identical(self, capsys, tmp_path):
        args = ("flow", "--dataset", "notebook", "--iters", "200",
                "--checkpoints", "200", "--seed", "3", "--deterministic")
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, *args, "--out-dir", str(d1))[0] == 0
        assert run_cli(capsys, *args, "--out-dir", str(d2))[0] == 0
        assert (d1 / "flow_trace.csv").read_bytes() == \
               (d2 / "flow_trace.csv").read_bytes()

    @pytest.mark.parametrize("X, bad", [
        ({"a": 1}, "{'a': 1}"), ([["1", 0], [0, "2"]], "'1'")],
        ids=["object", "string"])
    def test_non_number_dataset_entry_exits_2(self, capsys, tmp_path, X,
                                              bad):
        path = tmp_path / "ds.json"
        path.write_text(json.dumps({"X": X, "y": [1, -1][:len(X)]}))
        code, out, err = run_cli(capsys, "flow", "--dataset", str(path))
        assert code == 2 and out == ""
        assert err == f"error: X entry {bad} is not a JSON number\n"

    def test_non_string_dataset_name_exits_2(self, capsys, tmp_path):
        path = tmp_path / "ds.json"
        path.write_text(json.dumps({"X": [[1, 0], [0, 1]], "y": [1, -1],
                                    "name": {"a": 1}}))
        out_dir = tmp_path / "o"
        code, out, err = run_cli(capsys, "flow", "--dataset", str(path),
                                 "--out-dir", str(out_dir))
        assert code == 2 and out == "" and not out_dir.exists()
        assert err == "error: dataset name {'a': 1} is not a JSON string\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_step_exits_2(self, capsys, value):
        code, _, err = run_cli(capsys, "flow", "--dataset", "notebook",
                               "--iters", "10", "--checkpoints", "10",
                               "--step", value)
        assert code == 2
        assert "bad flow configuration" in err

    @pytest.mark.parametrize("option, value, field", [
        ("--m", "0", "m"), ("--iters", "-1", "iters"),
        ("--step", "nan", "step")])
    def test_bad_flow_option_is_named(self, capsys, option, value, field):
        code, _, err = run_cli(capsys, "flow", "--dataset", "notebook",
                               option, value)
        assert code == 2
        assert f"bad flow configuration: {field} = " in err

    def test_checkpoint_above_iters_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "flow", "--dataset", "notebook",
                                 "--iters", "100", "--checkpoints", "500")
        assert code == 2
        assert "checkpoint 500" in err
        assert out == ""

    def test_last_step_always_recorded(self, capsys, tmp_path):
        # --checkpoints 50 of a 100-step run still reports iteration 100
        out_dir = tmp_path / "flow"
        code, out, _ = run_cli(capsys, "flow", "--dataset", "notebook",
                               "--iters", "100", "--checkpoints", "50",
                               "--out-dir", str(out_dir), "--deterministic")
        assert code == 0
        assert out.startswith("iteration 100: ")
        rows = (out_dir / "flow_trace.csv").read_text().splitlines()[1:]
        assert sorted({int(row.split(",")[0]) for row in rows}) == [0, 50, 100]

    def test_iters_zero_initialization_row(self, capsys, tmp_path):
        out_dir = tmp_path / "zero"
        code, _, _ = run_cli(capsys, "flow", "--dataset", "notebook",
                             "--iters", "0", "--checkpoints", "",
                             "--out-dir", str(out_dir), "--deterministic")
        assert code == 0
        lines = (out_dir / "flow_trace.csv").read_text().splitlines()
        assert len(lines) == 1 + 8  # header + m rows at iteration 0


    def test_multiclass_abort_reports_every_class(self, capsys, tmp_path):
        # one-vs-all flows of the notebook rows labelled 1, 2, 3: classes 1
        # and 3 overflow, class 2 runs out; every class is reported
        path = tmp_path / "three.json"
        path.write_text(json.dumps({
            "X": builtin_dataset("notebook").X.tolist(), "y": [1, 2, 3],
            "K": 3}))
        out_dir = tmp_path / "flow"
        code, out, err = run_cli(capsys, "flow", "--dataset", str(path),
                                 *OVERFLOW_FLOW, "--out-dir", str(out_dir))
        assert code == 1
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "class 1", "class 2", "class 3"]
        assert err.splitlines() == [
            "class 1: aborted at iteration 26 (non-finite parameters)",
            "class 3: aborted at iteration 25 (non-finite parameters)"]
        assert not out_dir.exists()

    def test_overflowing_initial_network_exits_1(self, capsys):
        # the iteration-0 record's rescaled network overflows: a numerical
        # failure, not a usage error
        code, _, err = run_cli(capsys, "flow", "--dataset", "notebook",
                               "--init-scale", "1e160", "--iters", "10")
        assert code == 1
        assert "numerical failure: rescaled network is not finite" in err


class TestCertifyCommand:
    def test_feasible_verdicts(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--dataset", "notebook",
                               "--iters", "1000", "--checkpoints", "1000",
                               "--seed", "1")
        assert code == 0
        assert "dual-feasible: true" in out

    def test_lambda_scale_negative_control(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--dataset", "notebook",
                               "--iters", "500", "--checkpoints", "500",
                               "--seed", "1", "--lambda-scale", "10")
        assert code == 0
        assert "dual-feasible: false" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_lambda_scale_must_be_finite_positive(self, capsys, value):
        # a negative scale flips diag(y) lam <= 0, which the gauge alone
        # would certify; a non-finite one has no dual to certify
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--dataset", "notebook", "--iters", "200",
                  "--checkpoints", "200", f"--lambda-scale={value}"])
        assert exc.value.code == 2
        assert "--lambda-scale" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_tol_cert_must_be_finite_positive(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--dataset", "appendix-ortho",
                  f"--tol-cert={value}"])
        assert exc.value.code == 2
        assert "--tol-cert" in capsys.readouterr().err

    def test_network_file_input(self, capsys, tmp_path):
        net = tmp_path / "net.json"
        net.write_text(json.dumps({"W1": [[1.0, 0.0], [0.0, 1.0]],
                                   "w2": [1.0, -1.0]}))
        code, out, _ = run_cli(capsys, "certify", "--dataset", "notebook",
                               "--network", str(net), "--json")
        assert code == 0
        assert "dual-feasible: true" in out
        payload = json.loads(out.strip().splitlines()[-1])
        kinds = {c["kind"] for c in payload}
        assert {"dual-feasible", "ortho-coverage", "spike-free"} <= kinds

    @pytest.mark.parametrize("option", [("--step", "nan"), ("--m", "0"),
                                        ("--iters", "-5"),
                                        ("--checkpoints", "7,x")],
                             ids=["step", "m", "iters", "checkpoints"])
    def test_network_mode_checks_flow_options(self, capsys, tmp_path,
                                              option):
        # the same options are refused with and without --network
        net = tmp_path / "net.json"
        net.write_text(json.dumps({"W1": [[1.0, 0.0], [0.0, 1.0]],
                                   "w2": [1.0, -1.0]}))
        for extra in ([], ["--network", str(net)]):
            code, out, err = run_cli(capsys, "certify", "--dataset",
                                     "notebook", *extra, *option)
            assert code == 2
            assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("text", ["[1, 2]", '"abc"'])
    def test_network_not_an_object_exits_2(self, capsys, tmp_path, text):
        net = tmp_path / "net.json"
        net.write_text(text)
        code, out, err = run_cli(capsys, "certify", "--dataset", "notebook",
                                 "--network", str(net))
        assert code == 2 and out == ""
        assert err == (f"error: cannot load network file {str(net)!r}: it "
                       f"must be a JSON object with W1 and w2\n")

    @pytest.mark.parametrize("spec, bad", [
        ({"W1": {"a": 1}, "w2": [1]}, "W1 entry {'a': 1}"),
        ({"W1": [[1.0, 0.0], [0.0, 1.0]], "w2": ["1", -1.0]}, "w2 entry '1'"),
        ({"W1": [[1.0, None], [0.0, 1.0]], "w2": [1.0, -1.0]},
         "W1 entry None")],
        ids=["object", "string", "null"])
    def test_network_non_number_entry_exits_2(self, capsys, tmp_path, spec,
                                              bad):
        net = tmp_path / "net.json"
        net.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "certify", "--dataset", "notebook",
                                 "--network", str(net))
        assert code == 2 and out == ""
        assert err == (f"error: cannot load network file {str(net)!r}: "
                       f"{bad} is not a JSON number\n")

    def test_flow_options_checked_before_enumeration(self, capsys,
                                                     tmp_path):
        # 23 rows are past the mask enumeration cap; the bad --m is named
        angles = np.linspace(0.0, 1.0, 23)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "X": np.column_stack((np.cos(angles), np.sin(angles))).tolist(),
            "y": [1] * 23}))
        code, out, err = run_cli(capsys, "certify", "--dataset", str(path),
                                 "--m", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: bad flow configuration: m = 0")

    def test_one_polar_gauge_per_checkpoint(self, capsys, monkeypatch):
        calls = []
        gauge = relu_lab.geometry.polar_gauge

        def counted(*args, **kwargs):
            calls.append(1)
            return gauge(*args, **kwargs)

        for module in (relu_lab.geometry, relu_lab.flow, relu_lab.certify,
                       relu_lab.convex):
            monkeypatch.setattr(module, "polar_gauge", counted)
        code, out, _ = run_cli(capsys, "certify", "--dataset",
                               "appendix-ortho", "--iters", "2000",
                               "--checkpoints", "100,2000", "--step", "0.1")
        assert code == 0
        assert out.count("dual-feasible: ") == 2 and len(calls) == 2

    def test_network_shape_mismatch_is_named(self, capsys, tmp_path):
        net = tmp_path / "net.json"
        net.write_text(json.dumps({"W1": [[1.0, 0.0], [0.0, 1.0],
                                          [0.0, 0.0]],
                                   "w2": [1.0, -1.0]}))
        code, out, err = run_cli(capsys, "certify", "--dataset", "notebook",
                                 "--network", str(net))
        assert code == 2
        assert out == ""
        assert err == ("error: network W1 has 3 rows but the dataset has "
                       "d = 2\n")

    def test_notebook_is_not_spike_free(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--dataset", "notebook",
                               "--iters", "100", "--checkpoints", "100")
        assert code == 0
        assert "spike-free: false (max_z_norm=1.032662147 " \
               "range_residual=7.071e-01 faces=13)" in out

    def test_spike_free_skipped_above_sign_pattern_cap(self, capsys,
                                                       tmp_path):
        # full rank 8 x 8 (3^8 faces): every other certificate is still
        # written
        path = tmp_path / "eye.json"
        path.write_text(json.dumps({"X": np.eye(8).tolist(),
                                    "y": [1, -1] * 4}))
        net = tmp_path / "net.json"
        net.write_text(json.dumps({"W1": np.eye(8)[:, :2].tolist(),
                                   "w2": [1.0, -1.0]}))
        out_dir = tmp_path / "cert"
        code, out, err = run_cli(capsys, "certify", "--dataset", str(path),
                                 "--network", str(net),
                                 "--out-dir", str(out_dir))
        assert code == 0
        assert err == ("spike-free: not checked (sign-pattern enumeration "
                       "limited to 2187 faces; N = 8 at rank 8 has up to "
                       "6561)\n")
        assert "dual-feasible: " in out
        kinds = [c["kind"] for c in json.loads(
            (out_dir / "certificates.json").read_text())]
        assert "dual-feasible" in kinds and "spike-free" not in kinds

    def test_spike_free_checked_on_fourteen_rank_two_rows(self, capsys,
                                                          tmp_path):
        # 14 rows on an arc span only the plane: 57 faces
        angles = np.linspace(0.0, 1.0, 14)
        path = tmp_path / "arc.json"
        path.write_text(json.dumps({
            "X": np.column_stack((np.cos(angles), np.sin(angles))).tolist(),
            "y": [1] * 7 + [-1] * 7}))
        net = tmp_path / "net.json"
        net.write_text(json.dumps({"W1": [[1.0, 0.0], [0.0, 1.0]],
                                   "w2": [-1.0, 1.0]}))
        code, out, err = run_cli(capsys, "certify", "--dataset", str(path),
                                 "--network", str(net), "--json")
        assert code == 0
        assert err == ""
        assert "faces=57)" in out
        kinds = [c["kind"] for c in json.loads(out.splitlines()[-1])]
        assert "spike-free" in kinds


    def test_aborted_flow_exits_1(self, capsys, tmp_path):
        # the flow overflows at iteration 26; no checkpoint is certified
        out_dir = tmp_path / "cert"
        code, out, err = run_cli(capsys, "certify", "--dataset", "notebook",
                                 *OVERFLOW_FLOW, "--out-dir", str(out_dir))
        assert code == 1
        assert out == ""
        assert err == "aborted at iteration 26 (non-finite parameters)\n"
        assert not (out_dir / "certificates.json").exists()

    def test_vanished_dual_exits_1(self, capsys, tmp_path):
        # margins of 1e6 underflow every lambda_tilde entry to zero: a
        # numerical degeneracy, not a usage error
        net = tmp_path / "net.json"
        net.write_text(json.dumps({"W1": [[1e3, 0.0], [0.0, 1e3]],
                                   "w2": [1e3, -1e3]}))
        code, _, err = run_cli(capsys, "certify", "--dataset", "notebook",
                               "--network", str(net))
        assert code == 1
        assert "lambda_tilde vanished" in err


class TestGeometryExport:
    def test_files_written(self, capsys, tmp_path):
        out_dir = tmp_path / "geo"
        code, _, _ = run_cli(capsys, "geometry-export", "--dataset",
                             "appendix-ortho", "--samples", "64",
                             "--out-dir", str(out_dir), "--deterministic")
        assert code == 0
        ell = (out_dir / "ellipsoid.csv").read_text().splitlines()
        assert ell[0] == "theta,q1,q2"
        assert len(ell) == 1 + 64
        ext = (out_dir / "extreme_points.csv").read_text().splitlines()
        assert ext[0] == "mask,sense,u1,u2,value"
        assert len(ext) == 1 + 4 * 2


class TestReproduce:
    def test_unknown_target_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "unknown-target"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("target", ["notebook", "appendix-ortho"])
    def test_bad_init_scale_exits_2_before_any_output(self, capsys, tmp_path,
                                                       target):
        out_dir = tmp_path / "repro"
        code, out, err = run_cli(capsys, "reproduce", target,
                                 "--init-scale", "nan",
                                 "--out-dir", str(out_dir))
        assert code == 2
        assert out == ""
        assert "bad flow configuration: init_scale = nan" in err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_overflowing_initial_network_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "reproduce", "appendix-ortho",
                               "--init-scale", "1e160",
                               "--out-dir", str(tmp_path / "repro"))
        assert code == 1
        assert "numerical failure: rescaled network is not finite" in err

    def test_notebook_flow_without_margin(self, capsys, tmp_path):
        # seed 0's flow never separates the notebook data, so no checkpoint
        # has a margin
        out_dir = tmp_path / "repro"
        code, out, _ = run_cli(capsys, "reproduce", "notebook", "--seed", "0",
                               "--out-dir", str(out_dir), "--deterministic")
        assert code == 0
        assert "final margin none," in out
        assert (out_dir / "manifest.json").exists()
        rows = (out_dir / "margins.csv").read_text().splitlines()
        assert rows[-4:] == ["10,", "100,", "1000,", "10000,"]

    def test_appendix_nonspikefree_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "repro"
        code, out, _ = run_cli(capsys, "reproduce", "appendix-nonspikefree",
                               "--out-dir", str(out_dir), "--deterministic",
                               "--seed", "1")
        assert code == 0
        for name in ("ellipsoid.csv", "primal.json", "extreme_points.csv",
                     "flow_trace.csv", "manifest.json"):
            assert (out_dir / name).exists()
        payload = json.loads((out_dir / "primal.json").read_text())
        assert payload["objective"] == pytest.approx(0.7336, abs=1e-3)
        assert len(payload["groups"]) == 1

    def test_wide_face_interval_is_not_verified(self, capsys, tmp_path,
                                                monkeypatch):
        # the exact face has width 0.0; 1e-4 is past FACE_TOL
        bounds = relu_lab.cli.optimal_face_bounds

        def widened(*args, **kwargs):
            (lo, hi), *rest = bounds(*args, **kwargs)
            return [(lo, hi + 1e-4), *rest]

        monkeypatch.setattr(relu_lab.cli, "optimal_face_bounds", widened)
        code, out, _ = run_cli(capsys, "reproduce", "notebook",
                               "--out-dir", str(tmp_path), "--deterministic")
        assert code == 0
        assert out.rstrip().endswith("optimal set verified: False")
        face = json.loads((tmp_path / "optimal_face.json").read_text())
        assert face["verified"] is False
