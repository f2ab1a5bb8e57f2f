import tracemalloc

import numpy as np
import pytest

from relu_lab.arrangements import ActivationMask, enumerate_masks, mask_of
from relu_lab.certify import dual_feasible
from relu_lab.datasets import builtin_dataset
from relu_lab.geometry import (extreme_point, polar_gauge,
                               rectified_ellipsoid_samples)
from relu_lab import solver
from relu_lab.solver import RANK_RTOL, Cones

from oracles import (active_set_projection, cone_projection,
                     stationary_directions, sweep_masks)

# dual variable printed by the reference run at its first checkpoint
ITER10_LAMBDA = np.array([0.84944458, -0.3827491, -0.0513976])


def planar_extreme(v: np.ndarray, M: np.ndarray, sense: str) -> np.ndarray:
    """Exact d=2 optimizer of v^T u over the unit disk cut by {M u >= 0}.

    A linear function on a planar cone-disk intersection peaks at the
    unconstrained direction when feasible, on an extreme ray of the cone
    otherwise, or at the origin when the cone is trivial; enumerating those
    candidates is exact.  Rows are normalized first (the cone is unchanged),
    so the feasibility test does not depend on their scale."""
    target = v if sense == "max" else -v
    row_norms = np.linalg.norm(M, axis=1)
    M = M[row_norms > 0] / row_norms[row_norms > 0, None]

    def feasible(u: np.ndarray) -> bool:
        return bool(np.all(M @ u >= -1e-11))

    candidates = [np.zeros(2)]
    nt = np.linalg.norm(target)
    if nt > 0 and feasible(target / nt):
        candidates.append(target / nt)
    for row in M:
        ray = np.array([-row[1], row[0]])
        candidates += [s * ray for s in (1.0, -1.0) if feasible(s * ray)]
    values = [float(target @ u) for u in candidates]
    return candidates[int(np.argmax(values))]


def cone_rows(X: np.ndarray, mask) -> np.ndarray:
    """M = (2 D - I) X: the mask's cone is {u : M u >= 0}."""
    return (2.0 * mask.diag_vector() - 1.0)[:, None] * X


def sphere_gauge(X: np.ndarray, lam: np.ndarray, samples: int,
                 seed: int = 0) -> float:
    """max |lam^T (X u)_+| over random unit u: a lower bound on the gauge
    (every unit u lies in its own mask's cone)."""
    U = np.random.default_rng(seed).standard_normal((X.shape[1], samples))
    U /= np.linalg.norm(U, axis=0, keepdims=True)
    return float(np.abs(lam @ np.maximum(X @ U, 0.0)).max())


def masked(X: np.ndarray, mask, lam: np.ndarray) -> np.ndarray:
    """v = X^T D lam, the gauge's vector on the mask's cone."""
    return X.T @ (mask.diag_vector() * lam)


def assert_matches_planar(X, mask, v):
    """Both extreme points along v (the maximizer of v^T u and of -v^T u)
    against the planar candidate enumeration."""
    # a projection below RANK_RTOL ||v|| counts as zero
    scale = 2.0 * RANK_RTOL * float(np.linalg.norm(v))
    for sense, target in (("max", v), ("min", -v)):
        u = extreme_point(X, mask, target)
        want = planar_extreme(v, cone_rows(X, mask), sense)
        assert float(v @ u) == pytest.approx(float(v @ want), abs=scale)
        if abs(float(v @ u)) > 1e-9 * np.linalg.norm(v):
            # a nonzero optimum over the disk has a unique maximizer
            np.testing.assert_allclose(u, want, atol=1e-9)


class TestExtremePoint:
    def test_slack_cone_matches_closed_form(self, notebook_ds):
        # interior optimum: u = X^T D lam / ||X^T D lam||
        lam = np.array([0.6, 0.2, -0.1])
        mask = ActivationMask(bits=(1, 1, 0))
        v = masked(notebook_ds.X, mask, lam)
        u = extreme_point(notebook_ds.X, mask, v)
        assert v @ u == pytest.approx(np.linalg.norm(v), abs=1e-7)
        np.testing.assert_allclose(u, v / np.linalg.norm(v), atol=1e-6)

    def test_zero_dual_gives_zero_value(self, notebook_ds):
        mask = ActivationMask(bits=(1, 1, 0))
        v = masked(notebook_ds.X, mask, np.zeros(3))
        u = extreme_point(notebook_ds.X, mask, v)
        assert v @ u == 0.0 and u.shape == (2,) and not u.any()

    def test_sense_min_flips_sign_on_symmetric_cone(self, notebook_ds):
        lam = np.array([0.2, -0.5, 0.1])
        mask = ActivationMask(bits=(1, 1, 1))
        v = masked(notebook_ds.X, mask, lam)
        hi = v @ extreme_point(notebook_ds.X, mask, v)
        lo = v @ extreme_point(notebook_ds.X, mask, -v)
        assert lo <= hi

    def test_dominates_sampled_feasible_points(self, notebook_ds,
                                               notebook_masks):
        rng = np.random.default_rng(9)
        lam = np.array([0.7, -0.4, -0.1])
        X = notebook_ds.X
        for mask in notebook_masks:
            v = masked(X, mask, lam)
            best = v @ extreme_point(X, mask, v)
            M = (2 * np.diag(mask.diag_vector()) - np.eye(3)) @ X
            found = 0
            while found < 100:
                u = rng.normal(size=2)
                u /= np.linalg.norm(u)
                if np.all(M @ u >= 0):
                    found += 1
                    value = lam @ (mask.diag_vector() * (X @ u))
                    assert value <= best + 1e-6

    def test_masked_identity_on_cone(self, notebook_ds):
        # lam^T (Xu)_+ equals lam^T D(u) X u for u in its own cone
        rng = np.random.default_rng(4)
        lam = rng.normal(size=3)
        for _ in range(100):
            u = rng.normal(size=2)
            lhs = lam @ np.maximum(notebook_ds.X @ u, 0.0)
            mask = mask_of(notebook_ds.X, u)
            rhs = lam @ (mask.diag_vector() * (notebook_ds.X @ u))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestPolarGauge:
    def test_zero_dual(self, notebook_ds, notebook_masks):
        rep = polar_gauge(notebook_ds.X, notebook_masks, np.zeros(3))
        assert rep.gauge == 0.0

    def test_positive_homogeneity(self, notebook_ds, notebook_masks):
        lam = np.array([0.3, -0.2, -0.1])
        g1 = polar_gauge(notebook_ds.X, notebook_masks, lam).gauge
        g2 = polar_gauge(notebook_ds.X, notebook_masks, 2 * lam).gauge
        assert g2 == pytest.approx(2 * g1, rel=1e-4)

    def test_reference_lambda_linear_gauge_is_one(self, notebook_ds,
                                                  notebook_masks):
        # the recovered dual is normalized so the notebook-convention gauge
        # (v = X^T lam on every cone) over the realized masks is exactly 1;
        # over all six masks the maximizing direction lies in the realized
        # set, so it stays 1
        X = notebook_ds.X
        v = X.T @ ITER10_LAMBDA
        gauge = max(abs(v @ extreme_point(X, mask, s))
                    for mask in notebook_masks for s in (v, -v))
        assert gauge == pytest.approx(1.0, abs=1e-4)
        assert np.linalg.norm(notebook_ds.X.T @ ITER10_LAMBDA) == pytest.approx(
            1.0, abs=1e-4)

    def test_reference_lambda_masked_gauge(self, notebook_ds, notebook_masks):
        # the Eq-style masked objective gives a strictly smaller gauge on
        # this dual variable; frozen as a regression value
        rep = polar_gauge(notebook_ds.X, notebook_masks, ITER10_LAMBDA)
        assert rep.gauge == pytest.approx(0.84944458, abs=1e-4)
        assert rep.gauge <= 1.0 + 1e-6

    def test_per_mask_values_are_both_extreme_points(self, notebook_ds,
                                                     notebook_masks):
        # values[k] = max(|v^T u(v)|, |v^T u(-v)|) of mask k, to the bit
        X = notebook_ds.X
        for lam in (ITER10_LAMBDA, np.array([0.0, 0.0, 1.0]), np.zeros(3)):
            rep = polar_gauge(X, notebook_masks, lam)
            assert rep.values.shape == (len(notebook_masks),)
            assert rep.gauge == rep.values.max()
            for mask, value in zip(notebook_masks, rep.values):
                v = masked(X, mask, lam)
                hi = float(v @ extreme_point(X, mask, v))
                lo = float(v @ extreme_point(X, mask, -v))
                assert repr(float(value)) == repr(max(abs(hi), abs(lo)))

    def test_monotone_in_mask_set(self, notebook_ds, notebook_masks):
        lam = np.array([0.5, -0.6, 0.2])
        full = polar_gauge(notebook_ds.X, notebook_masks, lam).gauge
        part = polar_gauge(notebook_ds.X, notebook_masks[:3], lam).gauge
        assert part <= full + 1e-9

    def test_empty_masks_rejected(self, notebook_ds):
        with pytest.raises(ValueError):
            polar_gauge(notebook_ds.X, [], np.zeros(3))


class TestPlanarOracle:
    @pytest.mark.parametrize("name", ["notebook", "appendix-ortho"])
    def test_every_mask_of_paper_datasets(self, name):
        ds = builtin_dataset(name)
        rng = np.random.default_rng(21)
        duals = [ds.y / np.linalg.norm(ds.y)] + [
            rng.standard_normal(ds.N) for _ in range(5)]
        for lam in duals:
            for mask in enumerate_masks(ds.X):
                # the gauge's vector and the network gauge's v = X^T lam
                for v in (masked(ds.X, mask, lam), ds.X.T @ lam):
                    assert_matches_planar(ds.X, mask, v)

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9])
    def test_near_antipodal_sliver_cones(self, gap):
        # rows at angle pi - gap: the mask "11" cone is a sliver of width gap
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = rng.uniform(0.0, 2.0 * np.pi)
            X = np.array([[np.cos(t), np.sin(t)],
                          [np.cos(t + np.pi - gap), np.sin(t + np.pi - gap)]])
            lam = rng.standard_normal(2)
            for mask in enumerate_masks(X):
                assert_matches_planar(X, mask, masked(X, mask, lam))

    def test_rows_scaled_by_1e6(self):
        # positive row scaling keeps every cone, so the masks of the
        # unscaled rows serve
        rng = np.random.default_rng(8)
        for _ in range(20):
            X = rng.standard_normal((5, 2))
            masks = sweep_masks(X)
            X *= 10.0 ** rng.choice((-6.0, 0.0, 6.0), size=5)[:, None]
            lam = rng.standard_normal(5)
            for mask in masks:
                assert_matches_planar(X, mask, masked(X, mask, lam))


class TestHigherDimensionBounds:
    @pytest.mark.parametrize("d", [3, 4])
    def test_primal_and_dual_bounds(self, d):
        # u feasible gives value <= max; p - target = M^T z with z >= 0 and
        # p in the cone give target^T u' <= ||p|| for every feasible u'.
        # Masks: those of random directions, and random bits (cones that
        # may collapse to a face or to the apex)
        rng = np.random.default_rng(30 + d)
        for _ in range(25):
            N = int(rng.integers(d, 8))
            X = rng.standard_normal((N, d))
            lam = rng.standard_normal(N)
            masks = [mask_of(X, rng.standard_normal(d)) for _ in range(4)]
            masks += [ActivationMask(bits=tuple(int(b) for b in
                                                rng.integers(0, 2, size=N)))
                      for _ in range(2)]
            for mask in masks:
                M = cone_rows(X, mask)
                nM = np.linalg.norm(M)
                v = masked(X, mask, lam)
                for target in (v, -v):
                    u = extreme_point(X, mask, target)
                    assert np.linalg.norm(u) <= 1.0 + 1e-12
                    assert (M @ u).min() >= -1e-12 * nM
                    p, z = cone_projection(M, target)
                    assert z.min() >= 0.0
                    np.testing.assert_allclose(p - target, M.T @ z,
                                               atol=1e-12 * np.linalg.norm(v))
                    assert (M @ p).min() >= -1e-12 * nM * np.linalg.norm(v)
                    upper = np.linalg.norm(p)
                    lower = float(target @ u)
                    assert lower <= upper + 1e-12 * np.linalg.norm(v)
                    assert upper - lower <= 1e-10 * np.linalg.norm(v)

    @pytest.mark.parametrize("d", [3, 4])
    def test_gauge_against_sphere_sampling(self, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(4):
            X = rng.standard_normal((6, d))
            lam = rng.standard_normal(6)
            gauge = polar_gauge(X, enumerate_masks(X), lam).gauge
            sampled = sphere_gauge(X, lam, 200_000, seed=d)
            scale = np.linalg.norm(X, 2) * np.linalg.norm(lam)
            assert sampled <= gauge + 1e-12 * scale
            assert gauge - sampled <= 0.02 * scale

    def test_gaussian_draw_that_stalled_pdhg(self):
        # a 6x3 Gaussian draw (built like the benchmark's certify family)
        # on which the former first-order extreme-point solve stopped at its
        # iteration cap; the projection route certifies it
        rng = np.random.default_rng([0, 247])
        X = rng.standard_normal((6, 3))
        y = rng.choice((-1.0, 1.0), size=6)
        lam = y * np.abs(rng.standard_normal(6))
        lam /= np.linalg.norm(lam)
        cert = dual_feasible(X, enumerate_masks(X), lam)
        gauge = max(cert.slacks.values())
        assert sphere_gauge(X, lam, 200_000) <= gauge + 1e-12
        assert gauge == pytest.approx(1.0247378754, abs=1e-9)
        assert not cert.verdict


class TestConeProjection:
    def test_polar_direction_projects_to_zero(self):
        M = np.eye(3)
        p, z = cone_projection(M, -np.ones(3))
        np.testing.assert_allclose(p, 0.0, atol=1e-15)
        np.testing.assert_allclose(z, 1.0, atol=1e-15)
        u = extreme_point(np.eye(3), ActivationMask(bits=(1, 1, 1)),
                          -np.ones(3))
        assert not u.any()

    def test_exact_projection_matches_nnls_on_degenerate_rows(self):
        assert_cones_match_oracle(np.random.default_rng(28))

    def test_active_sets_match_nnls_on_degenerate_rows(self, monkeypatch):
        # the same draws with every cone taking its active set's flat
        # first, as above ACTIVE_SET_MIN_FLATS flats
        monkeypatch.setattr(solver, "ACTIVE_SET_MIN_FLATS", 0)
        assert_cones_match_oracle(np.random.default_rng(28))
        self.test_exact_projection_where_nnls_misses_kkt()

    def test_active_sets_keep_generic_cones(self):
        # on the chambers of Gaussian rows the active set's flat passes
        # the KKT check for nearly every cone, and it is the flat that
        # trying every flat finds
        rng = np.random.default_rng(7)
        X = rng.standard_normal((10, 4))
        masks = enumerate_masks(X)
        cones = Cones(X, [2.0 * np.array(m.bits) - 1.0 for m in masks])
        V = rng.standard_normal((len(masks), 4))
        assert len(cones.flats) > solver.ACTIVE_SET_MIN_FLATS
        W = np.concatenate((V, -V))
        flat, kept = cones._active_sets(W, np.tile(np.arange(len(V)), 2))
        assert kept.mean() > 0.95
        every = np.concatenate(cones._every_flat(V, np.arange(len(V))))
        np.testing.assert_array_equal(flat[kept], every[kept])
        np.testing.assert_array_equal(np.concatenate(cones.choose(V)), every)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, bad):
        cones = Cones(np.eye(2), np.ones((1, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            cones.choose(np.array([[bad, 0.0]]))

    @pytest.mark.parametrize("min_flats", [0, 10 ** 9])
    def test_choose_memory_grows_with_cones_not_flats(self, monkeypatch,
                                                      min_flats):
        # 1024 more cones over 470 flats: one float per flat and cone
        # would take 3.9 MB more; the cones add a few hundred bytes each
        monkeypatch.setattr(solver, "ACTIVE_SET_MIN_FLATS", min_flats)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((14, 4))
        peaks = []
        for count in (1024, 2048):
            S = rng.choice((-1.0, 1.0), size=(count, 14))
            V = rng.standard_normal((count, 4))
            cones = Cones(X, S)
            assert len(cones.flats) == 470
            tracemalloc.start()
            cones.choose(V)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1024 * 256

    def test_exact_projection_where_nnls_misses_kkt(self):
        # an integer-entry cone of a feasible solve: NNLS puts z > 0 on
        # rows where M p > 0; the exact projection is the enumeration's
        M = np.array([[-2.0, 1, 1], [0, 0, -2], [1, 1, -2], [0, -1, -1],
                      [1, -1, -2], [-2, 2, 1], [1, 2, -2], [-1, -1, -1]])
        v = np.array([0.1320969189327528, 0.1320969189327528,
                      -0.2641938378655056])
        with pytest.raises(RuntimeError, match="misses its KKT"):
            cone_projection(M, v)
        cones = Cones(M, np.ones((1, 8)))
        p = cones.project(v[None], cones.choose(v[None])[0])[0]
        want = active_set_projection(M, v)
        assert np.linalg.norm(p - want) <= 1e-12 * np.linalg.norm(v)
        assert np.linalg.norm(p) == pytest.approx(0.2802198815, abs=1e-10)

    def test_exhaustive_projection_on_a_sliver_cone(self):
        # the first draw of test_near_antipodal_sliver_cones[1e-06], mask
        # 11, sense max: a candidate 1.3e-6 long lies 1.3e-12 outside the
        # sliver, inside a margin on v's scale but not on its own
        rng = np.random.default_rng(5)
        t, gap = rng.uniform(0.0, 2.0 * np.pi), 1e-6
        X = np.array([[np.cos(t), np.sin(t)],
                      [np.cos(t + np.pi - gap), np.sin(t + np.pi - gap)]])
        mask = ActivationMask(bits=(1, 1))
        v = masked(X, mask, rng.standard_normal(2))
        M = cone_rows(X, mask)
        u = planar_extreme(v, M, "max")
        want = max(float(v @ u), 0.0) * u
        got = active_set_projection(M, v)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(v)
        assert np.linalg.norm(got - cone_projection(M, v)[0]) <= (
            1e-12 * np.linalg.norm(v))

    def test_no_rows_is_the_whole_space(self):
        # scipy's nnls aborts the process on a matrix with no columns
        v = np.array([0.3, -1.2, 2.0])
        p, z = cone_projection(np.zeros((0, 3)), v)
        np.testing.assert_array_equal(p, v)
        assert z.shape == (0,)


def assert_cones_match_oracle(rng: np.random.Generator) -> None:
    """Cones against the NNLS oracle (on the unit rows: positive row scale
    does not change a cone), or, where NNLS misses its own KKT conditions,
    against the exhaustive active-set projection, on 300 draws of
    :func:`degenerate_rows`."""
    for k in range(300):
        X = degenerate_rows(rng, k)
        N, d = X.shape
        signs = rng.choice((-1.0, 1.0), size=(4, N))
        V = rng.standard_normal((4, d)) * 10.0 ** rng.integers(-3, 4)
        cones = Cones(X, signs)
        for sign, flat in zip((1.0, -1.0), cones.choose(V)):
            P = cones.project(sign * V, flat)
            for s_k, v, p in zip(signs, sign * V, P):
                M = s_k[:, None] * X
                M = M[np.linalg.norm(M, axis=1) > 0.0]
                M = M / np.linalg.norm(M, axis=1, keepdims=True)
                try:
                    want, _ = cone_projection(M, v)
                except RuntimeError:
                    want = active_set_projection(M, v)
                assert np.linalg.norm(p - want) <= 1e-12 * np.linalg.norm(v)


def degenerate_rows(rng: np.random.Generator, k: int) -> np.ndarray:
    """Rows for draw k of the projection property: Gaussian or small integer
    entries; then by k % 5 a zero row, a duplicate and an antipodal copy,
    rank < d, d == N, or rows scaled by 1e-6 and 1e6."""
    d = int(rng.integers(2, 5))
    N = int(rng.integers(1, 6))
    X = (rng.standard_normal((N, d)) if k % 2 else
         rng.integers(-2, 3, size=(N, d)).astype(float))
    if k % 5 == 0:
        X = np.vstack((X, np.zeros(d), X[:1], -X[-1:]))
    elif k % 5 == 1:
        X = rng.standard_normal((N + 2, d - 1)) @ rng.standard_normal(
            (d - 1, d))
    elif k % 5 == 2:
        X = rng.standard_normal((d, d))
    elif k % 5 == 3:
        X = X * 10.0 ** rng.choice((-6.0, 0.0, 6.0), size=(N, 1))
    return X


def sampled_fixed_points(X: np.ndarray, lam: np.ndarray,
                         count: int = 20_000) -> np.ndarray:
    """Fixed points of T(u) = X^T D(u) lam / ||X^T D(u) lam||, D(u) =
    I(Xu > 0), among the images T(u) of seeded random unit directions:
    t = T(u) is kept iff T(t) = t to 1e-12; one row per point."""
    U = np.random.default_rng(0).standard_normal((count, X.shape[1]))

    def T(V):
        G = ((V @ X.T > 0) * lam) @ X
        norms = np.linalg.norm(G, axis=1)
        keep = norms > 0.0
        return G[keep] / norms[keep, None], keep

    images, _ = T(U)
    again, keep = T(images)
    fixed = images[keep][np.linalg.norm(again - images[keep], axis=1)
                         <= 1e-12]
    return np.unique(fixed.round(12), axis=0)


def assert_same_points(A: np.ndarray, B: np.ndarray, atol: float = 1e-9):
    """Every row of A lies within atol of a row of B, and vice versa."""
    for P, Q in ((A, B), (B, A)):
        for p in P:
            assert len(Q) and np.linalg.norm(Q - p, axis=1).min() <= atol


class TestStationaryDirection:
    def test_notebook_positive_neuron(self, notebook_ds, notebook_masks):
        found = stationary_directions(notebook_ds.X, notebook_masks,
                                      notebook_ds.y / 4.0)
        assert [(list(u), m.as_string()) for u, m in found] == [
            ([1.0, 0.0], "100")]

    def test_appendix_alignment_identity(self, ortho_ds):
        lam = ortho_ds.y / np.linalg.norm(ortho_ds.y)
        found = stationary_directions(ortho_ds.X, enumerate_masks(ortho_ds.X),
                                      lam)
        np.testing.assert_allclose([u for u, _ in found],
                                   [[0.96174359, -0.27395121]], atol=1e-8)
        for u, _ in found:
            g = ortho_ds.X.T @ (lam * (ortho_ds.X @ u > 0))
            assert u @ g / np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)

    def test_limit_satisfies_fixed_point_identity(self, notebook_ds,
                                                  notebook_masks):
        # each direction is its own update, which never vanishes, and its
        # pattern is the strict one
        rng = np.random.default_rng(12)
        for lam in [np.array([0.4, -0.3, -0.2]), *rng.normal(size=(5, 3))]:
            for u, mask in stationary_directions(notebook_ds.X,
                                                 notebook_masks, lam):
                assert mask == mask_of(notebook_ds.X, u)
                g = notebook_ds.X.T @ (mask.diag_vector() * lam)
                assert np.linalg.norm(g) > 0.0
                np.testing.assert_array_equal(u, g / np.linalg.norm(g))

    def test_zero_update_has_no_fixed_point(self, notebook_ds,
                                            notebook_masks):
        assert stationary_directions(notebook_ds.X, notebook_masks,
                                     np.zeros(3)) == []

    def test_fixed_point_between_antipodal_rows(self):
        # (0, 1) lies on the antipodal pair's hyperplane: its strict pattern
        # 001 is no mask, but the complement of the mask 110 of (0, -1)
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        found = stationary_directions(X, enumerate_masks(X),
                                      np.array([0.3, 0.5, 1.0]))
        assert ([0.0, 1.0], "001") in [(list(u), m.as_string())
                                        for u, m in found]

    @pytest.mark.parametrize("d", [2, 3])
    def test_equals_sampled_fixed_points(self, d):
        rng = np.random.default_rng([5, d])
        for _ in range(40):
            X = rng.standard_normal((int(rng.integers(2, 7)), d))
            lam = rng.standard_normal(X.shape[0])
            found = stationary_directions(X, enumerate_masks(X), lam)
            for u, mask in found:
                g = X.T @ (mask.diag_vector() * lam)
                np.testing.assert_array_equal(u, g / np.linalg.norm(g))
            assert_same_points(np.array([u for u, _ in found]).reshape(-1, d),
                               sampled_fixed_points(X, lam))


class TestRectifiedEllipsoid:
    def test_identity_axes(self):
        thetas, pts = rectified_ellipsoid_samples(np.eye(2), 4)
        np.testing.assert_allclose(
            pts, [[1, 0], [0, 1], [0, 0], [0, 0]], atol=1e-12)

    def test_nonnegative_everywhere(self, ortho_ds):
        _, pts = rectified_ellipsoid_samples(ortho_ds.X, 1024)
        assert pts.shape == (1024, 2)
        assert np.all(pts >= 0.0)

    def test_boundary_trace_contains_spike_tips(self, ortho_ds):
        # the trace passes through the single-active-sample extremes
        _, pts = rectified_ellipsoid_samples(ortho_ds.X, 4096)
        row_norms = np.linalg.norm(ortho_ds.X, axis=1)
        assert pts[:, 0].max() == pytest.approx(row_norms[0], abs=1e-3)
        assert pts[:, 1].max() == pytest.approx(row_norms[1], abs=1e-3)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            rectified_ellipsoid_samples(np.eye(3), 10)
        with pytest.raises(ValueError):
            rectified_ellipsoid_samples(np.eye(2), 2)
