import numpy as np
import pytest

from relu_lab.arrangements import enumerate_masks
from relu_lab.convex import build_primal, solve_primal
from relu_lab.datasets import builtin_dataset
from relu_lab.flow import FlowConfig, run_flow

#: seed of the acceptance flows (the reference RNG is not portable; with this
#: seed the notebook property band separates at every checkpoint)
GD_SEED = 1


@pytest.fixture(scope="session")
def notebook_ds():
    return builtin_dataset("notebook")


@pytest.fixture(scope="session")
def notebook_masks(notebook_ds):
    return enumerate_masks(notebook_ds.X)


@pytest.fixture(scope="session")
def notebook_solved(notebook_ds, notebook_masks):
    """(problem, solution, lam, report) of the notebook primal at
    solver.DEFAULT_TOL."""
    problem = build_primal(notebook_ds.X, notebook_ds.y, notebook_masks)
    sol, lam, report = solve_primal(problem)
    assert report.status == "optimal"
    return problem, sol, lam, report


@pytest.fixture(scope="session")
def notebook_flow(notebook_ds):
    """The reference notebook flow: m=8, eps=1e-4, step 1, 10k steps."""
    cfg = FlowConfig(m=8, init_scale=1e-4, step=1.0, iters=10_000,
                     checkpoints=(10, 100, 1000, 10_000), seed=GD_SEED)
    return run_flow(notebook_ds, cfg)


@pytest.fixture(scope="session")
def ortho_ds():
    return builtin_dataset("appendix-ortho")


@pytest.fixture(scope="session")
def nonspikefree_ds():
    return builtin_dataset("appendix-nonspikefree")


def random_orthogonal_separable(rng: np.random.Generator, n_pos: int,
                                n_neg: int):
    """Binary dataset with same-label dots > 0 and cross-label dots <= 0:
    positives in a narrow cone around +v, negatives around -v."""
    theta = rng.uniform(0, 2 * np.pi)
    v = np.array([np.cos(theta), np.sin(theta)])
    perp = np.array([-v[1], v[0]])
    X, y = [], []
    for sign, count in ((1, n_pos), (-1, n_neg)):
        for _ in range(count):
            a = rng.uniform(0.5, 2.0)
            b = rng.uniform(-0.3, 0.3) * a
            X.append(sign * (a * v + b * perp))
            y.append(sign)
    X = np.array(X)
    y = np.array(y)
    G = X @ X.T
    same = y[:, None] == y[None, :]
    assert np.all(G[same] > 0) and np.all(G[~same] <= 0)
    return X, y.astype(float)


def generic_gaussian_draws() -> list[tuple[np.ndarray, np.ndarray]]:
    """Ten small generic datasets from one default_rng(5): per draw
    N = integers(3, 7), d = integers(2, 4), X standard normal and y the
    signs of N more normals, y[0] negated when all labels agree.  Draws 2,
    4 and 5 (5x2, 3x3, 5x2) have optimal directions inside faces of
    dimension >= 2 of their cones."""
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(10):
        N, d = rng.integers(3, 7), rng.integers(2, 4)
        X = rng.normal(size=(N, d))
        y = np.where(rng.normal(size=N) > 0, 1.0, -1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        draws.append((X, y))
    return draws
