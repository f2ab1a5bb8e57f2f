"""relu_lab loads scipy's compiled routines without scipy's packages, its
numpy stand-ins for scipy.linalg match them to the bit, and the NNLS oracle
of the cone projections matches scipy.optimize.nnls to the bit."""

import importlib.machinery
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.linalg import block_diag, null_space
from scipy.optimize import nnls as scipy_nnls

import oracles
from relu_lab import _compiled, certify, solver
from relu_lab.arrangements import (RANK_RTOL, enumerate_masks,
                                   enumerate_sign_patterns)
from relu_lab.convex import build_primal
from relu_lab.datasets import BUILTIN_DATASETS

SRC = Path(__file__).resolve().parents[1] / "src"

#: the extension modules relu_lab loads, and the packages above them
COMPILED = ("scipy.optimize._highspy._core", "scipy.special._special_ufuncs")
PACKAGES = ("scipy.optimize", "scipy.linalg", "scipy.special", "scipy.sparse")


def fresh(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_loads_no_scipy_package():
    out = fresh("import sys, relu_lab.cli\n"
                "print(*sorted(sys.modules), sep='\\n')")
    loaded = out.split()
    leaked = [name for name in loaded if name.startswith(PACKAGES)
              and not name.startswith(COMPILED)]
    assert leaked == []
    assert all(name in loaded for name in COMPILED)


#: every command once, small, in one interpreter (OUT: an output directory)
EVERY_COMMAND = """
import contextlib, io, sys
from relu_lab.cli import main
runs = [["arrangements", "--dataset", "notebook"],
        ["solve", "--dataset", "notebook", "--which", "both"],
        ["flow", "--dataset", "notebook", "--iters", "50",
         "--checkpoints", "50"],
        ["certify", "--dataset", "appendix-ortho", "--iters", "50",
         "--checkpoints", "50", "--step", "0.1"],
        ["geometry-export", "--dataset", "appendix-ortho", "--samples", "16",
         "--out-dir", OUT + "/geometry"],
        ["reproduce", "appendix-ortho", "--out-dir", OUT + "/reproduce"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(codes, "scipy.optimize._slsqplib" in sys.modules)
"""


def test_no_command_loads_the_nnls_kernel(tmp_path):
    # the cone projections are exact per flat: no command loads
    # scipy.optimize._slsqplib, which links a second OpenBLAS
    out = fresh(f"OUT = {str(tmp_path)!r}\n{EVERY_COMMAND}")
    assert out == "[0, 0, 0, 0, 0, 0] False\n"


SAME_OBJECTS = """
import importlib
from relu_lab import flow, solver
core = importlib.import_module("scipy.optimize._highspy._core")
res = scipy.optimize.linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1],
                             method="highs")
assert res.status == 0 and res.fun == 1.0, res
assert flow.expit is scipy.special.expit
assert solver._Highs is core._Highs
assert solver.HighsOptions is core.HighsOptions
print("ok")
"""


@pytest.mark.parametrize("first, then", [
    ("import relu_lab.cli", "import scipy.optimize, scipy.special"),
    ("import scipy.optimize, scipy.special", "import relu_lab.cli")],
    ids=["relu_lab-first", "scipy-first"])
def test_either_import_order_shares_one_module(first, then):
    assert fresh(f"{first}\n{then}\n{SAME_OBJECTS}") == "ok\n"


def test_missing_extension_names_module_and_scipy_version():
    name = "scipy.optimize._no_such_extension"
    with pytest.raises(ImportError, match=f"{name} in scipy "
                                          f"{scipy.__version__}"):
        _compiled._extension(name)
    assert name not in sys.modules


def test_missing_routine_names_module_and_scipy_version():
    name = "scipy.optimize._highspy._core"
    with pytest.raises(ImportError, match=f"{name} of scipy "
                                          f"{scipy.__version__} has no "
                                          "no_such_routine"):
        _compiled._extension(name, "_Highs", "no_such_routine")


def test_failed_initialisation_leaves_no_module_behind(tmp_path, monkeypatch):
    """A module whose initialisation raises is not left in sys.modules,
    where a later import of its package would pick it up half made."""
    (tmp_path / "optimize").mkdir()
    (tmp_path / "optimize" / "_broken.py").write_text(
        "raise RuntimeError('initialisation failed')\n")
    monkeypatch.setattr(_compiled, "scipy", types.SimpleNamespace(
        __file__=str(tmp_path / "__init__.py"), __version__="0.0"))
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".py"])
    name = "scipy.optimize._broken"
    with pytest.raises(RuntimeError, match="initialisation failed"):
        _compiled._extension(name)
    assert name not in sys.modules


def face_row_sets(X: np.ndarray):
    """The rows of the unit rows of X that each realizable sign pattern
    pins to zero, as spike_free passes them to its null space."""
    norms = np.linalg.norm(X, axis=1)
    U = X / np.where(norms > 0.0, norms, 1.0)[:, None]
    for face in enumerate_sign_patterns(X):
        yield U[np.array(face.signs) == 0].reshape(-1, X.shape[1])


def integer_grids(count: int, seed: int = 0):
    """Small integer-entry datasets, some with a row repeated, negated or
    zeroed."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        X = rng.integers(-2, 3, size=(rng.integers(2, 5),
                                      rng.integers(1, 4))).astype(float)
        if k % 3 == 1:
            X = np.vstack((X, X[:1], -X[-1:]))
        elif k % 3 == 2:
            X[0] = 0.0
        yield X


DATASETS = [ds.X for ds in BUILTIN_DATASETS.values()] + list(
    integer_grids(24))


class TestNullSpace:
    @pytest.mark.parametrize("X", DATASETS)
    def test_face_rows_match_scipy_bitwise(self, X):
        for rows in face_row_sets(X):
            want = null_space(rows, rcond=RANK_RTOL)
            got = certify._null_space(rows)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [
        np.zeros((0, 3)), np.zeros((2, 3)), np.array([[1.0, 1.0]]),
        np.array([[1.0, 2.0, 2.0], [-1.0, -2.0, -2.0], [0.0, 0.0, 0.0]])],
        ids=["empty", "zero-rows", "one-row", "antipodal"])
    def test_degenerate_rows_match_scipy_bitwise(self, rows):
        want = null_space(rows, rcond=RANK_RTOL)
        got = certify._null_space(rows)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestConeRows:
    @pytest.mark.parametrize("X", DATASETS[:12])
    def test_build_primal_cones_match_block_diag(self, X):
        y = np.where(np.arange(len(X)) % 2, -1.0, 1.0)
        prog = build_primal(X, y, enumerate_masks(X)).prog
        want = block_diag(*oracles.group_cones(prog))
        got = solver._cone_rows(prog)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestNNLS:
    def test_random_cones_match_scipy_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k, d = rng.integers(1, 9), rng.integers(1, 5)
            M = rng.standard_normal((k, d)) * 10.0 ** rng.integers(-3, 4)
            v = rng.standard_normal(d)
            x, rnorm = oracles.nnls(M.T, -v)
            x_ref, rnorm_ref = scipy_nnls(M.T, -v)
            assert x.tobytes() == x_ref.tobytes()
            assert rnorm == rnorm_ref

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_v_raises_value_error(self, bad):
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            oracles.cone_projection(np.eye(2), np.array([bad, 1.0]))

    def test_kernel_at_its_iteration_cap_did_not_converge(self, monkeypatch):
        calls = []

        def capped(A, b, maxiter):
            calls.append(maxiter)
            return np.zeros(A.shape[1]), 0.0, 3

        monkeypatch.setattr(oracles, "nnls_kernel", capped)
        with pytest.raises(RuntimeError,
                           match="cone projection did not converge"):
            oracles.cone_projection(np.ones((5, 2)), np.array([1.0, -1.0]))
        assert calls == [3 * 5]
