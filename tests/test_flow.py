import math

import numpy as np
import pytest

import relu_lab.flow
from conftest import random_orthogonal_separable
from relu_lab.arrangements import enumerate_sign_patterns
from relu_lab.convex import NetworkParams
from relu_lab.datasets import Dataset, builtin_dataset
from relu_lab.flow import (FlowConfig, alignment, init_balanced,
                           lambda_tilde, logistic_loss, network_dual,
                           network_masks, recover_dual, run_flow)
from relu_lab.geometry import GAUGE_SOLVE_TOL
from relu_lab.solver import DegenerateError

from oracles import g_min_max, g_pattern, positive_support, step

# outputs printed by the reference run at its first checkpoint
ITER10_Q = np.array([3.54896592, 4.36184346, 6.38061314])
ITER10_LAMBDA = np.array([0.84944458, -0.3827491, -0.0513976])


def reference_flow(X, y, cfg):
    """The flow loop in its first formulation: a NetworkParams and a
    lambda_tilde forward pass every step, and X @ W1 recomputed for the
    update and the forward pass, with the bookkeeping after every step.
    Returns the (iteration, W1, w2) checkpoints, max balance drift, w2 sign
    flips and abort iteration."""
    params = init_balanced(cfg, X.shape[1])
    records = [(0, params.W1, params.w2)]
    init_signs = np.sign(params.w2)
    max_drift, flips, aborted = 0.0, 0, None
    for it in range(1, cfg.iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            Z = X @ params.W1
            lt = lambda_tilde(X, y, params)
            G = X.T @ (lt[:, None] * (Z > 0.0))
            W1 = params.W1 + cfg.step * G * params.w2[None, :]
            w2 = params.w2 + cfg.step * (np.maximum(Z, 0.0).T @ lt)
        try:
            params = NetworkParams(W1=W1, w2=w2)
        except ValueError:
            aborted = it
            break
        with np.errstate(over="ignore", invalid="ignore"):
            drift = np.abs(np.sum(params.W1 ** 2, axis=0) - params.w2 ** 2)
        if np.isfinite(drift).all():
            max_drift = max(max_drift, float(drift.max()))
        flips += int(np.sum(np.sign(params.w2) * init_signs < 0))
        init_signs = np.where(params.w2 == 0.0, init_signs,
                              np.sign(params.w2))
        if it in cfg.checkpoints:
            records.append((it, params.W1, params.w2))
    return records, max_drift, flips, aborted


def assert_matches_reference(ds, trace, y=None):
    """trace equals the reference loop's run on ds, or on ds.X with the
    labels y."""
    records, max_drift, flips, aborted = reference_flow(
        ds.X, ds.y if y is None else y, trace.config)
    assert [r.iteration for r in trace.records] == [r[0] for r in records]
    for rec, (_, W1, w2) in zip(trace.records, records):
        assert np.array_equal(rec.W1, W1) and np.array_equal(rec.w2, w2)
    assert trace.max_balance_drift == max_drift
    assert trace.w2_sign_flips == flips
    assert trace.aborted_at == aborted


def flow_dataset(name):
    """A built-in dataset; "ortho-separable-5" or "-6": an orthogonally
    separable N = 5 or 6, d = 2 set shaped like the coverage-sweep
    benchmark's; "one-sample" (N = 1), "one-feature" (d = 1), or
    "three-classes": K = 3 with N = 6, d = 2."""
    if name.startswith("ortho-separable-"):
        n_neg = int(name[-1]) - 3
        X, y = random_orthogonal_separable(np.random.default_rng(1), 3,
                                           n_neg)
        return Dataset(X=X, labels=y.astype(int))
    if name == "one-sample":
        return Dataset(X=np.array([[1.0, -0.5]]), labels=np.array([-1]))
    if name == "one-feature":
        return Dataset(X=np.array([[1.0], [-2.0], [0.5]]),
                       labels=np.array([1, -1, -1]))
    if name == "three-classes":
        X = np.random.default_rng(2).normal(size=(6, 2))
        return Dataset(X=X, labels=np.array([1, 2, 3, 1, 2, 3]), K=3)
    return builtin_dataset(name)


#: iteration at which each reference-loop case aborts (None: it runs out)
REFERENCE_ABORTS = {"notebook": 26}


class TestInitBalanced:
    def test_exact_balance(self):
        params = init_balanced(FlowConfig(m=10, seed=3), d=2)
        np.testing.assert_allclose(np.linalg.norm(params.W1, axis=0),
                                   np.abs(params.w2), atol=0.0)

    def test_initial_loss_near_n_log2(self, notebook_ds):
        cfg = FlowConfig(m=10, init_scale=1e-4, seed=5)
        params = init_balanced(cfg, notebook_ds.d)
        loss = logistic_loss(notebook_ds.X, notebook_ds.y, params)
        assert loss == pytest.approx(3 * np.log(2.0), abs=1e-6)

    def test_seed_determinism(self):
        a = init_balanced(FlowConfig(seed=11), d=2)
        b = init_balanced(FlowConfig(seed=11), d=2)
        assert np.array_equal(a.W1, b.W1) and np.array_equal(a.w2, b.w2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(m=0)
        with pytest.raises(ValueError):
            FlowConfig(init_scale=0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                FlowConfig(step=bad)
            with pytest.raises(ValueError):
                FlowConfig(init_scale=bad)
        with pytest.raises(ValueError, match="checkpoint 200 "):
            FlowConfig(iters=100, checkpoints=(200,))
        # [1, iters] is empty for iters = 0, so any checkpoint is refused
        with pytest.raises(ValueError, match="checkpoint 1 "):
            FlowConfig(iters=0, checkpoints=(1,))
        # counts are integers (numpy's too), never floats or bools
        for kwargs, message in (
                (dict(m=2.5), "m = 2.5 is not an integer"),
                (dict(m=2.0), "m = 2.0 is not an integer"),
                (dict(m=True), "m = True is not an integer"),
                (dict(iters=20.5, checkpoints=()), "iters = 20.5 is not an"),
                (dict(iters=True, checkpoints=()), "iters = True is not an"),
                (dict(iters=20, checkpoints=(10.5,)), "checkpoint 10.5 is"),
                (dict(iters=20, checkpoints=(10.0,)), "checkpoint 10.0 is"),
                (dict(iters=20, checkpoints=(True,)), "checkpoint True is")):
            with pytest.raises(ValueError, match=message):
                FlowConfig(**kwargs)
        FlowConfig(m=np.int64(3), iters=np.int32(20),
                   checkpoints=(np.int64(5), 20))


class TestLambdaTilde:
    def test_zero_output_gives_half_labels(self, notebook_ds):
        params = NetworkParams(W1=np.zeros((2, 3)), w2=np.zeros(3))
        lt = lambda_tilde(notebook_ds.X, notebook_ds.y, params)
        np.testing.assert_allclose(lt, notebook_ds.y / 2.0, atol=1e-15)

    def test_saturated_sample_vanishes(self, notebook_ds):
        params = NetworkParams(W1=100 * np.array([[1.0, 0.0], [0.0, 1.0]]),
                               w2=np.array([1.0, -1.0]))
        lt = lambda_tilde(notebook_ds.X, notebook_ds.y, params)
        assert np.abs(lt).max() <= 1e-20

    def test_sign_matches_labels(self, notebook_ds):
        rng = np.random.default_rng(6)
        params = NetworkParams(W1=rng.normal(size=(2, 4)),
                               w2=rng.normal(size=4))
        lt = lambda_tilde(notebook_ds.X, notebook_ds.y, params)
        assert np.all(np.sign(lt) == notebook_ds.y)
        assert np.abs(lt).max() <= 0.5

    def test_reference_direction(self, notebook_ds):
        # lambda-tilde computed from the reference q values is proportional
        # to the printed dual variable before the gauge division
        lt = notebook_ds.y / (1.0 + np.exp(ITER10_Q))
        unit = lt / np.linalg.norm(lt)
        ref = ITER10_LAMBDA / np.linalg.norm(ITER10_LAMBDA)
        np.testing.assert_allclose(unit, ref, atol=1e-5)


class TestGVector:
    def test_zero_pattern(self, notebook_ds):
        assert np.all(g_pattern(notebook_ds.X, np.zeros(3),
                                notebook_ds.y / 4) == 0.0)

    def test_notebook_single_support(self, notebook_ds):
        g = g_pattern(notebook_ds.X, np.array([1, -1, -1]),
                      notebook_ds.y / 4.0)
        np.testing.assert_allclose(g, [0.25, 0.0], atol=1e-15)

    def test_linearity_in_dual(self, notebook_ds):
        sigma = np.array([1, 1, -1])
        lam = np.array([0.3, -0.2, 0.4])
        np.testing.assert_allclose(g_pattern(notebook_ds.X, sigma, 2 * lam),
                                   2 * g_pattern(notebook_ds.X, sigma, lam),
                                   atol=1e-15)


class TestGMinMax:
    def test_notebook_values(self, notebook_ds):
        pats = enumerate_sign_patterns(notebook_ds.X)
        gmin, gmax, minimizers, maximizers = g_min_max(
            notebook_ds.X, notebook_ds.y, pats)
        assert gmin == pytest.approx(0.25, abs=1e-12)
        assert gmax == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
        assert (0,) in {positive_support(p.signs) for p in minimizers}
        assert {positive_support(p.signs) for p in maximizers} == {(0, 1, 2)}

    def test_gmin_positive(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            X = rng.normal(size=(4, 2))
            y = rng.choice([-1.0, 1.0], size=4)
            pats = enumerate_sign_patterns(X)
            gmin, gmax, _, _ = g_min_max(X, y, pats)
            assert 0.0 < gmin <= gmax


def step_from(ds, W1, w2, eta):
    return step(ds.X, ds.y, W1, w2, ds.X @ W1, eta)


class TestStep:
    def test_zero_params_fixed_point(self, notebook_ds):
        W1, w2 = np.zeros((2, 3)), np.zeros(3)
        W1_new, w2_new = step_from(notebook_ds, W1, w2, 1.0)
        assert np.array_equal(W1_new, W1)
        assert np.array_equal(w2_new, w2)

    def test_one_step_balance_drift_is_quadratic_in_eta(self, notebook_ds):
        params = init_balanced(FlowConfig(m=6, init_scale=0.5, seed=4), 2)

        def drift(eta):
            W1, w2 = step_from(notebook_ds, params.W1, params.w2, eta)
            return np.abs(np.sum(W1 ** 2, axis=0) - w2 ** 2).max()

        ratio = drift(0.2) / drift(0.1)
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_w2_update_matches_finite_difference(self, notebook_ds):
        # d loss / d w2_i = -lambda_tilde . (X w1_i)_+ on the smooth region
        rng = np.random.default_rng(10)
        W1 = rng.normal(size=(2, 3))
        w2 = rng.normal(size=3)
        update = step_from(notebook_ds, W1, w2, 1.0)[1] - w2
        h = 1e-6
        for i in range(3):
            wp, wm = w2.copy(), w2.copy()
            wp[i] += h
            wm[i] -= h
            fd = (logistic_loss(notebook_ds.X, notebook_ds.y,
                                NetworkParams(W1=W1, w2=wp))
                  - logistic_loss(notebook_ds.X, notebook_ds.y,
                                  NetworkParams(W1=W1, w2=wm))) / (2 * h)
            assert update[i] == pytest.approx(-fd, rel=1e-6, abs=1e-9)


class TestRunFlow:
    def test_iters_zero_records_initialization_only(self, notebook_ds):
        trace = run_flow(notebook_ds, FlowConfig(m=4, iters=0,
                                                 checkpoints=(), seed=1))
        assert len(trace.records) == 1
        assert trace.records[0].iteration == 0

    def test_loss_non_increasing_across_checkpoints(self, notebook_ds):
        cfg = FlowConfig(m=8, init_scale=1e-2, step=0.5, iters=2000,
                         checkpoints=(10, 100, 500, 2000), seed=1)
        trace = run_flow(notebook_ds, cfg)
        losses = [r.loss for r in trace.records]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_lambda_sign_pattern_at_checkpoints(self, notebook_ds):
        cfg = FlowConfig(m=8, iters=500, checkpoints=(500,), seed=1)
        trace = run_flow(notebook_ds, cfg)
        for rec in trace.records:
            lt = lambda_tilde(notebook_ds.X, notebook_ds.y,
                              NetworkParams(W1=rec.W1, w2=rec.w2))
            assert np.all(np.sign(lt) == notebook_ds.y)

    def test_multiclass_runs_k_flows(self, notebook_ds):
        labels = np.where(notebook_ds.labels == 1, 1, 2)
        ds2 = Dataset(X=notebook_ds.X, labels=labels, K=2)
        cfg = FlowConfig(m=4, iters=50, checkpoints=(10, 50), seed=1)
        traces = run_flow(ds2, cfg)
        assert isinstance(traces, list) and len(traces) == 2
        # class k is the binary run on y_k = +1 where label == k + 1
        for k, trace in enumerate(traces):
            y_k = np.where(labels == k + 1, 1, -1)
            binary = run_flow(Dataset(X=notebook_ds.X, labels=y_k), cfg)
            assert len(trace.records) == len(binary.records) == 3
            for rec, ref in zip(trace.records, binary.records):
                assert np.array_equal(rec.W1, ref.W1)
                assert np.array_equal(rec.w2, ref.w2)

    def test_overflow_aborts_with_last_good_record(self, notebook_ds):
        cfg = FlowConfig(m=4, init_scale=1.0, step=1e12, iters=2000,
                         checkpoints=(1,), seed=1)
        trace = run_flow(notebook_ds, cfg)
        assert trace.aborted_at == 26
        assert all(np.isfinite(r.loss) for r in trace.records)

    def test_notebook_matches_reference_loop(self, notebook_ds,
                                             notebook_flow):
        assert_matches_reference(notebook_ds, notebook_flow)

    @pytest.mark.parametrize("name, cfg", [
        ("appendix-ortho", FlowConfig(m=8, init_scale=1e-4, step=0.1,
                                      iters=4000, checkpoints=(10, 4000),
                                      seed=1)),
        # overflows: sign flips and the abort at iteration 26;
        # the squares in the balance drift overflow from iteration 13 on
        # while the parameters stay finite
        ("notebook", FlowConfig(m=4, init_scale=1.0, step=1e12, iters=2000,
                                checkpoints=(1, 20), seed=1)),
        ("ortho-separable-5", FlowConfig(m=8, init_scale=1e-4, step=0.5,
                                         iters=4000, checkpoints=(4000,),
                                         seed=1)),
        # the coverage-sweep benchmark's flow
        ("ortho-separable-6", FlowConfig(m=8, init_scale=1e-4, step=0.5,
                                         iters=4000, checkpoints=(4000,),
                                         seed=1)),
        # edge shapes: N = 1, d = 1 and m = 1; a step that is no power of
        # two, so the order of the eta and w2 roundings shows
        ("one-sample", FlowConfig(m=3, init_scale=1e-2, step=0.3, iters=600,
                                  checkpoints=(10, 600), seed=2)),
        ("one-feature", FlowConfig(m=3, init_scale=1e-2, step=0.3, iters=600,
                                   checkpoints=(10, 600), seed=2)),
        ("appendix-ortho", FlowConfig(m=1, init_scale=1e-2, step=0.3,
                                      iters=600, checkpoints=(10, 600),
                                      seed=2)),
    ])
    def test_matches_reference_loop(self, name, cfg):
        ds = flow_dataset(name)
        trace = run_flow(ds, cfg)
        assert_matches_reference(ds, trace)
        assert trace.aborted_at == REFERENCE_ABORTS.get(name)
        assert math.isfinite(trace.max_balance_drift)

    def test_multiclass_matches_reference_loop(self):
        # class k runs the binary flow on y_k = +1 where label == k + 1
        ds = flow_dataset("three-classes")
        cfg = FlowConfig(m=4, init_scale=1e-2, step=0.3, iters=600,
                         checkpoints=(10, 600), seed=3)
        traces = run_flow(ds, cfg)
        assert len(traces) == 3
        for k, trace in enumerate(traces):
            assert_matches_reference(
                ds, trace, np.where(ds.labels == k + 1, 1.0, -1.0))

    def test_wide_input_keeps_history_small(self, monkeypatch):
        # (d + 1) m = 38 464 floats per step: 3 steps fit in 2**20 bytes,
        # 4 do not
        sizes, real = [], relu_lab.flow._history

        def history(*shape):
            buffers = real(*shape)
            sizes.append(sum(b.nbytes for b in buffers))
            return buffers

        monkeypatch.setattr(relu_lab.flow, "_history", history)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 600)) / np.sqrt(600)
        ds = Dataset(X=X, labels=np.where(X[:, 0] > 0, 1, -1))
        trace = run_flow(ds, FlowConfig(m=64, init_scale=1e-2, iters=8,
                                        checkpoints=(2, 8), seed=1))
        assert sizes == [3 * 601 * 64 * 8]
        assert_matches_reference(ds, trace)

    def test_balance_conserved_in_continuous_limit(self, notebook_ds):
        drift = {}
        for eta, iters in ((0.5, 400), (0.25, 800)):
            cfg = FlowConfig(m=6, init_scale=1e-2, step=eta, iters=iters,
                             checkpoints=(iters,), seed=3)
            drift[eta] = run_flow(notebook_ds, cfg).max_balance_drift
        assert drift[0.5] / drift[0.25] == pytest.approx(2.0, abs=0.4)


#: the overflowing notebook run: it aborts at iteration 26, and the squares
#: in its balance drift overflow from iteration 13 on
OVERFLOW = dict(m=4, init_scale=1.0, step=1e12, iters=2000, seed=1)


class TestBlockBoundaries:
    """The loop with 7-step blocks against the reference loop.  A block
    starts after each checkpoint, so with checkpoints 10 and 17 the blocks
    are 1-7, 8-10, 11-17, 18-24, ..., 53-59 and 60.  crosses_edge says
    whether the run records a checkpoint past its first block."""

    @pytest.fixture(autouse=True)
    def seven_step_blocks(self, monkeypatch):
        monkeypatch.setattr(relu_lab.flow, "BLOCK_STEPS", 7)

    @pytest.mark.parametrize("name, cfg, crosses_edge", [
        # 60 is not a multiple of 7, checkpoint 10 ends a block early and
        # 17 lies on an edge
        ("appendix-ortho", FlowConfig(m=8, init_scale=1e-4, step=0.1,
                                      iters=60, checkpoints=(10, 17),
                                      seed=1), True),
        # no step: the loop runs no block
        ("ortho-separable-5", FlowConfig(m=8, init_scale=1e-4, step=0.5,
                                         iters=0, checkpoints=(), seed=1),
         False),
        # one step: a single block shorter than BLOCK_STEPS
        ("ortho-separable-5", FlowConfig(m=8, init_scale=1e-4, step=0.5,
                                         iters=1, checkpoints=(1,), seed=1),
         False),
        ("notebook", FlowConfig(iters=1, checkpoints=(1,), seed=1), False),
        # the abort at 26 falls inside the block 21-27
        ("notebook", FlowConfig(checkpoints=(1, 20), **OVERFLOW), True),
        # the abort step is itself a checkpoint, which is not recorded
        ("notebook", FlowConfig(checkpoints=(1, 20, 26), **OVERFLOW), True),
    ])
    def test_matches_reference_loop(self, name, cfg, crosses_edge):
        ds = flow_dataset(name)
        trace = run_flow(ds, cfg)
        assert_matches_reference(ds, trace)
        assert (trace.final().iteration > 7) == crosses_edge


class TestAlignment:
    def test_fixed_point_alignment_is_one(self, notebook_ds):
        u = np.array([1.0, 0.0])
        assert alignment(notebook_ds.X, u, notebook_ds.y) == pytest.approx(
            1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        a = alignment(X, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert a is None  # strict activations vanish at the boundary
        a2 = alignment(np.array([[1.0, 0.0], [0.0, 1.0]]),
                       np.array([1e-9, 1.0]), np.array([1.0, 0.0]))
        assert a2 == pytest.approx(0.0, abs=1e-8)

    def test_zero_reference_flag(self, notebook_ds):
        assert alignment(notebook_ds.X, np.array([-1.0, -1.0]),
                         np.array([0.0, 0.0, 0.0])) is None


class TestRecoverDual:
    def test_zero_network_proportional_to_labels(self, notebook_ds,
                                                 notebook_masks):
        params = NetworkParams(W1=np.zeros((2, 2)), w2=np.zeros(2))
        lam, gauge_net, gauge_all = recover_dual(
            notebook_ds.X, notebook_ds.y, params, notebook_masks)
        unit = lam / np.linalg.norm(lam)
        np.testing.assert_allclose(unit, notebook_ds.y / np.linalg.norm(
            notebook_ds.y), atol=1e-9)

    def test_optimal_network_hand_computed(self, notebook_ds, notebook_masks):
        # margins are exactly one, so lambda-tilde is y/(1+e) and the
        # normalizing gauge is ||X^T y|| / sqrt(3) = 2 sqrt(2/3)
        params = NetworkParams(W1=np.array([[1.0, 0.0], [0.0, 1.0]]),
                               w2=np.array([1.0, -1.0]))
        lam, gauge_net, gauge_all = recover_dual(
            notebook_ds.X, notebook_ds.y, params, notebook_masks)
        assert gauge_net == pytest.approx(2 * np.sqrt(2.0 / 3.0), abs=1e-6)
        np.testing.assert_allclose(lam, notebook_ds.y / (2 * np.sqrt(2.0)),
                                   atol=1e-6)
        # minimizing mask 011: -||(1/2, -1)|| / (2 sqrt 2) = -sqrt(5/8)
        assert gauge_all == pytest.approx(np.sqrt(5.0 / 8.0), abs=1e-4)
        assert gauge_all <= 1.0 + 1e-6

    def test_vanishing_network_gauge_raises(self):
        # rows x, x with labels +1, -1 and a zero network: lambda-tilde is
        # (1/2, -1/2), so v = X^T lam = 0 and every extreme point is 0
        params = NetworkParams(W1=np.zeros((2, 1)), w2=np.zeros(1))
        with pytest.raises(DegenerateError, match="normalizing gauge"):
            network_dual(np.array([[1.0, 0.0], [1.0, 0.0]]),
                         np.array([1.0, -1.0]), params)

    def test_network_masks_deduplicated(self, notebook_ds):
        params = NetworkParams(W1=np.array([[1.0, 1.0], [0.0, 0.0]]),
                               w2=np.array([1.0, -1.0]))
        masks = network_masks(notebook_ds.X, params)
        assert [m.as_string() for m in masks] == ["100"]

    def test_weak_duality_and_progress(self, notebook_ds, notebook_masks,
                                       notebook_solved, notebook_flow):
        _, _, _, report = notebook_solved
        objectives = []
        for rec in notebook_flow.records:
            if rec.iteration == 0:
                continue
            params = NetworkParams(W1=rec.W1, w2=rec.w2)
            lam, _, gauge_all = recover_dual(notebook_ds.X, notebook_ds.y,
                                             params, notebook_masks)
            assert gauge_all <= 1.0 + GAUGE_SOLVE_TOL
            objectives.append(float(notebook_ds.y @ lam))
        assert all(o <= report.objective + 1e-6 for o in objectives)
        assert all(a <= b + 1e-9 for a, b in zip(objectives, objectives[1:]))
