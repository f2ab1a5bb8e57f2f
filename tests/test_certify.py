import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relu_lab.arrangements import RANK_RTOL, enumerate_masks
from relu_lab.certify import (SPIKE_FREE_TOL, KKTExtraction, dual_feasible,
                              extract_kkt, ortho_coverage, spike_free)
from relu_lab.convex import NetworkParams, build_primal, solve_primal
from relu_lab.datasets import is_orthogonal_separable
from relu_lab.flow import FlowConfig, lambda_tilde, run_flow
from relu_lab.geometry import GAUGE_SOLVE_TOL

from oracles import (convex_from_network, convex_kkt_residuals,
                     network_from_convex)


@pytest.fixture(scope="module")
def notebook_network(notebook_solved):
    _, sol, lam, _ = notebook_solved
    return network_from_convex(sol), lam


class TestExtractKKT:
    def test_optimal_network_residuals(self, notebook_ds, notebook_network):
        net, lam = notebook_network
        ex = extract_kkt(notebook_ds.X, notebook_ds.y, net.W1, net.w2, lam)
        assert max(n.direction_residual for n in ex.neurons) <= 1e-6
        assert max(n.norm_residual for n in ex.neurons) <= 1e-6
        assert float(ex.comp_slack.max()) <= 1e-6

    def test_boundary_completion_enumerates_kink_bits(self, notebook_ds,
                                                      notebook_solved):
        # exactly-boundary neurons: the completion search must pick the bit
        # choice matching the dual variable
        _, _, lam, _ = notebook_solved
        W1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        w2 = np.array([1.0, -1.0])
        ex = extract_kkt(notebook_ds.X, notebook_ds.y, W1, w2, lam)
        by_index = {n.index: n for n in ex.neurons}
        assert by_index[0].boundary == (1,)   # x2 on the kink of (1, 0)
        assert by_index[1].boundary == (0,)   # x1 on the kink of (0, 1)
        assert by_index[0].mask.as_string() == "100"
        assert by_index[1].mask.as_string() == "011"
        assert max(n.direction_residual for n in ex.neurons) <= 1e-6

    def test_completion_masks_on_solved_network(self, notebook_ds,
                                                notebook_network):
        net, lam = notebook_network
        ex = extract_kkt(notebook_ds.X, notebook_ds.y, net.W1, net.w2, lam)
        for neuron in ex.neurons:
            assert neuron.mask.as_string() in ("100", "011")

    def test_off_boundary_neuron_uses_strict_mask(self, notebook_ds):
        w1 = np.array([2.0, -1.0])  # strictly off every hyperplane
        lam = np.array([1.0, -1.0, 0.0])
        ex = extract_kkt(notebook_ds.X, notebook_ds.y,
                         w1.reshape(2, 1), np.array([1.0]), lam)
        neuron = ex.neurons[0]
        assert neuron.boundary == ()
        assert neuron.mask.bits == neuron.strict_bits

    def test_random_network_reports_positive_residuals(self, notebook_ds):
        rng = np.random.default_rng(17)
        W1 = rng.normal(size=(2, 4))
        w2 = rng.normal(size=4)
        lam = np.array([1.0, -1.0, 0.0])
        ex = extract_kkt(notebook_ds.X, notebook_ds.y, W1, w2, lam)
        assert max(n.direction_residual for n in ex.neurons) > 1e-3

    def test_all_zero_w2_rejected(self, notebook_ds):
        with pytest.raises(ValueError):
            extract_kkt(notebook_ds.X, notebook_ds.y, np.ones((2, 2)),
                        np.zeros(2), np.ones(3))

    @pytest.mark.parametrize("name", ["lam", "W1", "w2"])
    def test_non_finite_input_is_named(self, notebook_ds, name):
        args = {"W1": np.eye(2), "w2": np.array([1.0, -1.0]),
                "lam": np.array([1.0, -1.0, 0.0])}
        args[name] = np.full_like(args[name], np.nan)
        with pytest.raises(ValueError, match=f"{name} is not finite"):
            extract_kkt(notebook_ds.X, notebook_ds.y, **args)

    def test_large_boundary_set_keeps_the_empty_completion(self):
        # 14 identical boundary samples share one bit, and all off has the
        # least residual
        N = 14
        X = np.tile([1.0, 0.0], (N, 1))
        y = np.ones(N)
        lam = np.full(N, 1.0 / N)
        w1 = np.array([0.0, 1.0])  # every sample exactly on the kink
        ex = extract_kkt(X, y, w1.reshape(2, 1), np.array([1.0]), lam)
        neuron = ex.neurons[0]
        assert len(neuron.boundary) == N
        # target w1/w2 = (0, 1) is orthogonal to every x_n, so flipping any
        # bit only adds mass along (1, 0): the empty completion wins
        assert neuron.direction_residual == pytest.approx(1.0, abs=1e-12)
        assert neuron.mask.as_string() == "0" * N

    def test_identical_boundary_rows_take_one_bit(self):
        # one strict sample (1, 1) and 13 identical boundary samples
        # (0, -1), each with lam 1/8: every direction gives them one bit,
        # so the completion is all off (residual ||(0, 1)|| = 1) or all on
        # (||(0, 1 - 13/8)|| = 0.625); mixed bits are no mask of X
        N = 13
        X = np.vstack(([1.0, 1.0], np.tile([0.0, -1.0], (N, 1))))
        lam = np.append(1.0, np.full(N, 0.125))
        ex = extract_kkt(X, np.ones(N + 1), np.array([[1.0], [0.0]]),
                         np.array([1.0]), lam)
        neuron = ex.neurons[0]
        assert neuron.boundary == tuple(range(1, N + 1))
        assert neuron.mask.as_string() == "1" * (N + 1)
        assert neuron.direction_residual == pytest.approx(0.625, abs=1e-15)

    def test_antipodal_boundary_rows_complete_to_a_mask(self):
        # rows 0 and 1 are antipodal and both on the kink of w1 = (0, 1):
        # bits (0, 0) would need x_0^T u < 0 and -x_0^T u < 0.  Of the
        # realizable completions 011, 101 and 111, 011 has the least residual
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.3, 1.0]])
        lam = np.array([0.5, -0.2, 0.3])
        ex = extract_kkt(X, np.array([1.0, -1.0, 1.0]),
                         np.array([[0.0], [1.0]]), np.array([1.0]), lam)
        neuron = ex.neurons[0]
        assert neuron.boundary == (0, 1)
        assert neuron.mask.as_string() == "011"
        assert neuron.mask.bits in {m.bits for m in enumerate_masks(X)}
        # X^T D lam = (0.2 + 0.09, 0.3) against the target (0, 1)
        assert neuron.direction_residual == pytest.approx(
            np.hypot(0.29, 0.7), abs=1e-12)


class TestDualFeasible:
    def test_zero_is_feasible(self, notebook_ds, notebook_masks):
        assert dual_feasible(notebook_ds.X, notebook_masks,
                             np.zeros(3)).verdict

    def test_optimal_dual_feasible(self, notebook_ds, notebook_masks,
                                   notebook_solved):
        _, _, lam, _ = notebook_solved
        cert = dual_feasible(notebook_ds.X, notebook_masks, lam)
        assert cert.verdict

    def test_scaled_dual_infeasible_with_matching_gauge(self, notebook_ds,
                                                        notebook_masks,
                                                        notebook_solved):
        _, _, lam, _ = notebook_solved
        cert = dual_feasible(notebook_ds.X, notebook_masks, 10 * lam)
        assert not cert.verdict
        assert max(cert.slacks.values()) == pytest.approx(10.0, abs=1e-3)


class TestOrthoCoverage:
    def test_converged_flow_covers(self, ortho_ds):
        masks = enumerate_masks(ortho_ds.X)
        cfg = FlowConfig(m=8, init_scale=1e-4, step=0.1, iters=20_000,
                         checkpoints=(20_000,), seed=1)
        trace = run_flow(ortho_ds, cfg)
        rec = trace.final()
        lt = lambda_tilde(ortho_ds.X, ortho_ds.y,
                          NetworkParams(W1=rec.W1, w2=rec.w2))
        lam = lt / np.linalg.norm(lt)
        ex = extract_kkt(ortho_ds.X, ortho_ds.y, rec.W1, rec.w2, lam)
        assert ortho_coverage(ex, ortho_ds.y).verdict

    def test_positive_only_network_not_covered(self, notebook_ds):
        W1 = np.array([[1.0], [0.0]])
        w2 = np.array([1.0])
        ex = extract_kkt(notebook_ds.X, notebook_ds.y, W1, w2,
                         np.array([1.0, -1.0, 0.0]))
        assert not ortho_coverage(ex, notebook_ds.y).verdict

    def test_empty_extraction_rejected(self):
        with pytest.raises(ValueError, match="empty extraction"):
            ortho_coverage(KKTExtraction(neurons=[], comp_slack=np.zeros(2)),
                           np.array([1.0, -1.0]))

    def test_single_sample_vacuous_negative_side(self):
        X = np.array([[1.0, 0.5]])
        y = np.array([1.0])
        W1 = np.array([[1.0], [0.0]])
        ex = extract_kkt(X, y, W1, np.array([1.0]), np.array([1.0]))
        assert ortho_coverage(ex, y).verdict


@st.composite
def degenerate_rows(draw):
    """1 <= N <= 5 rows in d = 3 or 4 with coordinates in -2..2: fresh,
    zero, or a duplicate or antipode of an earlier row."""
    d = draw(st.sampled_from((3, 4)))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("fresh", "zero", "duplicate",
                                     "antipodal"))
                    if rows else st.just("fresh"))
        if kind == "fresh":
            rows.append(np.array(draw(st.lists(st.integers(-2, 2),
                                               min_size=d, max_size=d)),
                                 dtype=float))
        elif kind == "zero":
            rows.append(np.zeros(d))
        else:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            rows.append(row if kind == "duplicate" else -row)
    return np.array(rows)


def sampled_max_z_norm(X, count=40_000):
    """max ||X^+ (Xu)_+|| over seeded random unit directions u, on the unit
    rows of X (zero rows stay zero), as spike_free evaluates it."""
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    X = X / np.where(norms > 0.0, norms, 1.0)
    U = np.random.default_rng(0).standard_normal((count, X.shape[1]))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    P = np.linalg.pinv(X, rcond=RANK_RTOL)
    return float(np.linalg.norm(np.maximum(U @ X.T, 0.0) @ P.T, axis=1).max())


@st.composite
def boundary_neurons(draw):
    """(X, w1, w2, lam): degenerate_rows X and an integer w1 orthogonal to
    d - 1 integer rows, each a row of X or a fresh one, so that x_n^T w1 = 0
    holds exactly on the boundary rows."""
    X = draw(degenerate_rows())
    N, d = X.shape
    fresh = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    M = np.array([X[draw(st.integers(0, N - 1))] if draw(st.booleans())
                  else np.array(draw(fresh), dtype=float)
                  for _ in range(d - 1)])
    # the cofactors of a first row above M: r^T w1 = det([r; M]), 0 on M
    w1 = np.array([(-1) ** j * round(np.linalg.det(np.delete(M, j, axis=1)))
                   for j in range(d)], dtype=float)
    w2 = draw(st.sampled_from((-2.0, -1.0, 0.5, 1.0)))
    lam = 0.25 * np.array(draw(st.lists(st.integers(-4, 4), min_size=N,
                                        max_size=N)), dtype=float)
    return X, w1, w2, lam


class TestCompletionOracle:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(boundary_neurons())
    def test_completion_is_the_least_residual_mask(self, case):
        X, w1, w2, lam = case
        neuron = extract_kkt(X, np.ones(len(X)), w1.reshape(-1, 1),
                             np.array([w2]), lam).neurons[0]
        assert neuron.boundary == tuple(np.flatnonzero(X @ w1 == 0.0))
        masks = np.array([m.bits for m in enumerate_masks(X)])
        assert neuron.mask.bits in set(map(tuple, masks))
        # brute force: every mask of X that meets the strict bits off B
        off = np.ones(len(X), dtype=bool)
        off[list(neuron.boundary)] = False
        meet = masks[(masks[:, off] == np.array(neuron.strict_bits)[off])
                     .all(axis=1)]
        best = min(np.linalg.norm(w1 / w2 - X.T @ (bits * lam))
                   for bits in meet)
        assert neuron.direction_residual == pytest.approx(best, abs=1e-15)


class TestSpikeFree:
    def test_identity_is_spike_free(self):
        cert = spike_free(np.eye(2))
        assert cert.verdict
        assert cert.slacks == {"max_z_norm": 1.0, "range_residual": 0.0}
        assert cert.tolerance == SPIKE_FREE_TOL
        assert "approximate" not in cert.to_json()

    def test_ortho_matrix_is_not_spike_free(self, ortho_ds):
        cert = spike_free(ortho_ds.X)
        assert not cert.verdict
        x1, x2 = ortho_ds.X
        sin_theta = abs(np.linalg.det(ortho_ds.X)) / (
            np.linalg.norm(x1) * np.linalg.norm(x2))
        assert cert.slacks["max_z_norm"] == pytest.approx(1.222195075,
                                                          abs=1e-9)
        assert cert.slacks["max_z_norm"] == pytest.approx(1.0 / sin_theta,
                                                          abs=1e-12)

    def test_acute_rows_matrix_is_boundary_spike_free(self, nonspikefree_ds):
        # rows with positive inner product: the clipped branch peaks on the
        # other row's normal, where z = u, so max ||z|| is 1.0 and the
        # definition holds with equality (the reference experiment's prose
        # labels this matrix the other way)
        cert = spike_free(nonspikefree_ds.X)
        assert cert.verdict
        assert cert.slacks["max_z_norm"] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_invariance(self, ortho_ds):
        theta = 0.7
        Q = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        a = spike_free(ortho_ds.X)
        b = spike_free(ortho_ds.X @ Q)
        assert a.verdict == b.verdict
        assert a.slacks["max_z_norm"] == pytest.approx(
            b.slacks["max_z_norm"], abs=1e-12)

    def test_identity_in_three_dimensions(self):
        cert = spike_free(np.eye(3))
        assert cert.verdict
        assert cert.slacks["max_z_norm"] == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self, ortho_ds):
        a = spike_free(ortho_ds.X)
        b = spike_free(ortho_ds.X)
        assert a.slacks == b.slacks

    def test_notebook_images_leave_the_range(self, notebook_ds):
        # u = (1, 0) gives (Xu)_+ = (1, 0, 0), outside range(X); on the unit
        # rows its distance to the range is 1/sqrt(2)
        cert = spike_free(notebook_ds.X)
        assert not cert.verdict
        assert cert.slacks["range_residual"] == pytest.approx(
            1.0 / np.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("scales", [
        *[tuple(s if i == k else 1.0 for i in range(3))
          for s in (1e-6, 1e-3, 1e3, 1e6) for k in range(3)],
        (1e-6, 1e6, 1.0)])
    def test_row_scaling_keeps_notebook_verdict(self, notebook_ds, scales):
        # (S X u)_+ = S (X u)_+ and range(S X) = S range(X) for S > 0: a
        # large row must not hide a small row's range residual
        cert = spike_free(np.array(scales)[:, None] * notebook_ds.X)
        assert not cert.verdict
        assert cert.slacks["range_residual"] == pytest.approx(
            1.0 / np.sqrt(2.0), abs=1e-9)

    def test_gaussian_five_by_two_is_not_spike_free(self):
        X = np.random.default_rng(0).standard_normal((5, 2))
        cert = spike_free(X)
        assert not cert.verdict
        assert cert.slacks["range_residual"] == pytest.approx(0.8645, abs=1e-4)

    def test_gaussian_three_by_three_exact_maximum(self):
        # direction sampling read 2.3401 here
        X = np.random.default_rng(1).standard_normal((3, 3))
        cert = spike_free(X)
        assert not cert.verdict
        assert cert.slacks["max_z_norm"] == pytest.approx(2.352617674,
                                                          abs=1e-9)

    def test_whitened_rows_are_spike_free(self):
        # X X^T = I with N <= d: ||z|| = ||(Xu)_+|| <= ||Xu|| <= 1
        Q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((4, 4)))
        X = Q[:3]
        np.testing.assert_allclose(X @ X.T, np.eye(3), atol=1e-12)
        cert = spike_free(X)
        assert cert.verdict
        assert cert.slacks["range_residual"] <= 1e-12

    def test_above_sign_pattern_cap_raises(self):
        # full rank 13 x 13: 3^13 faces, refused before any LP
        X = np.random.default_rng(3).standard_normal((13, 13))
        with pytest.raises(ValueError, match="has up to 1594323"):
            spike_free(X)

    @settings(max_examples=30, deadline=None)
    @given(degenerate_rows())
    def test_sampling_never_exceeds_exact_maximum(self, X):
        exact = spike_free(X).slacks["max_z_norm"]
        sampled = sampled_max_z_norm(X)
        assert sampled <= exact + 1e-9
        # the maximum is attained on a face, so dense sampling comes close
        assert sampled >= 0.95 * exact


class TestConvexKKTResiduals:
    def test_joint_optimum_families_small(self, notebook_solved):
        problem, sol, lam, _ = notebook_solved
        rep = convex_kkt_residuals(problem, sol, lam)
        assert rep.pop("dual_sign_violation") <= 1e-9
        assert max(rep.values()) <= 1e-5
        assert sol.margin_slack >= -1e-6 and sol.cone_slack >= -1e-6

    def test_origin_stationary_but_infeasible(self, notebook_solved):
        problem, _, _, _ = notebook_solved
        zero_sol = problem.solution(np.zeros((6, 2, 2)), 0.0)
        rep = convex_kkt_residuals(problem, zero_sol, np.zeros(3))
        assert max(rep.values()) == 0.0
        assert zero_sol.margin_slack == pytest.approx(-1.0)
        assert zero_sol.cone_slack == 0.0

    def test_perturbed_dual_breaks_complementarity(self):
        # needs an instance with a strictly slack margin (every notebook
        # margin is tight, which silences family iii): duplicate sample 1
        # at double length so its margin is 2
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0], [2.0, 0.0]])
        y = np.array([1.0, -1.0, -1.0, 1.0])
        masks = enumerate_masks(X)
        problem = build_primal(X, y, masks)
        sol, lam, report = solve_primal(problem)
        base = convex_kkt_residuals(problem, sol, lam)
        assert base["margin_comp_slack"] <= 1e-5
        rep = convex_kkt_residuals(problem, sol, lam + 0.1)
        assert rep["margin_comp_slack"] > 0.05
        # doubling lam doubles each projection, and an active group's unit
        # direction was one of them: stationarity reads its norm, 1
        doubled = convex_kkt_residuals(problem, sol, 2.0 * lam)
        assert max(doubled["stationarity_neg"], doubled["stationarity_pos"]) \
            == pytest.approx(1.0, abs=1e-6)

    def test_certified_roundtrip(self, notebook_ds, notebook_masks,
                                notebook_solved, notebook_network):
        problem, _, lam, _ = notebook_solved
        net, _ = notebook_network
        ex = extract_kkt(notebook_ds.X, notebook_ds.y, net.W1, net.w2, lam)
        assert max(n.direction_residual for n in ex.neurons) <= 1e-6
        assert dual_feasible(notebook_ds.X, notebook_masks, lam).verdict
        back = convex_from_network(problem, net.W1, net.w2)
        rep = convex_kkt_residuals(problem, back, lam)
        assert max(rep.values()) <= 1e-4


class TestCoverageImpliesFeasibility:
    def test_on_paper_datasets(self, ortho_ds, notebook_ds):
        from relu_lab.flow import recover_dual
        for ds in (ortho_ds, notebook_ds):
            assert is_orthogonal_separable(ds)
            masks = enumerate_masks(ds.X)
            cfg = FlowConfig(m=8, init_scale=1e-4, step=0.5, iters=5000,
                             checkpoints=(5000,), seed=1)
            rec = run_flow(ds, cfg).final()
            params = NetworkParams(W1=rec.W1, w2=rec.w2)
            lam, _, gauge_all = recover_dual(ds.X, ds.y, params, masks)
            ex = extract_kkt(ds.X, ds.y, rec.W1, rec.w2, lam)
            if ortho_coverage(ex, ds.y).verdict:
                assert gauge_all <= 1.0 + GAUGE_SOLVE_TOL
