import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relu_lab.arrangements import (ActivationMask, SignPattern, cover_bound,
                                   enumerate_masks, enumerate_sign_patterns,
                                   face_count_bound, mask_of, matrix_rank,
                                   verify_mask_witness)
from relu_lab.datasets import builtin_dataset
from relu_lab.solver import lp_feasible

from oracles import (face_masks, face_sign_patterns, sweep_masks,
                     sweep_sign_patterns)


SCALES = (1e-6, 1.0, 1e6)


def assert_witnesses(X, masks):
    """Unit margin on bit-0 rows; on bit-1 rows x^T w >= 0 relative to scale
    (a witness may need a norm of 1e8 when row norms span 1e-6..1e6)."""
    for m in masks:
        w = np.array(m.witness)
        for x, b in zip(X, m.bits):
            if b:
                assert x @ w >= -1e-9 * np.linalg.norm(x) * np.linalg.norm(w)
            else:
                assert x @ w <= -1.0 + 1e-9


def assert_masks_match_sweep(X):
    masks = enumerate_masks(X)
    assert [m.bits for m in masks] == [m.bits for m in sweep_masks(X)]
    assert_witnesses(X, masks)


def assert_sign_witnesses(X, patterns):
    """Each witness reproduces its pattern, zero relative to scale."""
    for p in patterns:
        w = np.array(p.witness)
        t = X @ w
        band = 1e-9 * np.linalg.norm(X, axis=1) * np.linalg.norm(w)
        assert tuple(np.where(np.abs(t) <= band, 0, np.sign(t))) == p.signs


def assert_match_face_oracle(X):
    """Masks and sign patterns equal the face recursion's in content and
    order, and every witness verifies."""
    masks, patterns = enumerate_masks(X), enumerate_sign_patterns(X)
    assert [m.bits for m in masks] == [m.bits for m in face_masks(X)]
    assert [p.signs for p in patterns] == [
        p.signs for p in face_sign_patterns(X)]
    assert all(verify_mask_witness(X, m) for m in masks)
    assert_sign_witnesses(X, patterns)


@st.composite
def degenerate_planar(draw):
    """N <= 5 rows in the plane with small integer coordinates (zero and
    parallel rows arise on their own), exact duplicates and antipodes of
    earlier rows, each row scaled by 10^{-6, 0, 6}."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("fresh", "duplicate", "antipodal"))
                    if rows else st.just("fresh"))
        if kind == "fresh":
            rows.append(np.array([draw(st.integers(-3, 3)),
                                  draw(st.integers(-3, 3))], dtype=float))
        else:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            rows.append(row if kind == "duplicate" else -row)
    scales = [draw(st.sampled_from(SCALES)) for _ in rows]
    return np.array(rows) * np.array(scales)[:, None]


@st.composite
def degenerate_spatial(draw):
    """1 <= N <= 6 rows in d = 3 or 4 with coordinates in -2..2: fresh,
    zero, duplicate, antipodal or a sum of two earlier rows (so rank(X) < d
    and d == N both arise), each scaled by 10^{-6, 0, 6}."""
    d = draw(st.sampled_from((3, 4)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("fresh", "zero", "duplicate",
                                     "antipodal", "sum"))
                    if rows else st.just("fresh"))
        pick = (lambda: rows[draw(st.integers(0, len(rows) - 1))])
        if kind == "fresh":
            rows.append(np.array(draw(st.lists(st.integers(-2, 2),
                                               min_size=d, max_size=d)),
                                 dtype=float))
        elif kind == "zero":
            rows.append(np.zeros(d))
        elif kind == "sum":
            rows.append(pick() + pick())
        else:
            row = pick()
            rows.append(row if kind == "duplicate" else -row)
    scales = [draw(st.sampled_from(SCALES)) for _ in rows]
    return np.array(rows) * np.array(scales)[:, None]


class TestEnumerateMasks:
    def test_notebook_six_masks(self, notebook_ds):
        masks = enumerate_masks(notebook_ds.X)
        assert [m.as_string() for m in masks] == [
            "000", "001", "011", "100", "110", "111"]

    def test_single_sample(self):
        masks = enumerate_masks(np.array([[1.0, 0.0]]))
        assert [m.as_string() for m in masks] == ["0", "1"]

    def test_sweep_matches_exhaustive_on_random_data(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            N = rng.integers(2, 9)
            X = rng.normal(size=(N, 2))
            a = [m.bits for m in enumerate_masks(X)]
            assert a == [m.bits for m in sweep_masks(X)]
            assert a == [m.bits for m in face_masks(X)]

    def test_witnesses_stored_and_valid(self, notebook_ds):
        for mask in enumerate_masks(notebook_ds.X):
            assert verify_mask_witness(notebook_ds.X, mask)

    def test_row_scaling_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 2))
        scales = rng.uniform(0.1, 10.0, size=5)
        a = [m.bits for m in enumerate_masks(X)]
        b = [m.bits for m in enumerate_masks(scales[:, None] * X)]
        assert a == b

    def test_scaled_gaussian_rows_match_sweep(self):
        # 25 of these 40 draws raised InconclusiveError and 7 returned a
        # wrong mask set while the LP saw the rows unnormalized
        for k in range(40):
            rng = np.random.default_rng(k)
            X = rng.standard_normal((5, 2))
            X *= 10.0 ** rng.choice((-6, 0, 6), size=5)[:, None]
            assert_masks_match_sweep(X)

    def test_scaled_gaussian_witnesses_verify(self):
        # the bit-1 check is relative to scale: 15 of these 429 witnesses
        # (norms 8e1 to 1.5e8) failed an absolute x^T w >= -1e-9
        for k in range(40):
            rng = np.random.default_rng(k)
            X = rng.standard_normal((5, 2))
            X *= 10.0 ** rng.choice((-6, 0, 6), size=5)[:, None]
            for mask in enumerate_masks(X):
                assert verify_mask_witness(X, mask)

    def test_witness_check_rejects(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert verify_mask_witness(X, ActivationMask((1, 0), (1.0, -1.0)))
        # bit-1 row negative beyond the relative band
        assert not verify_mask_witness(
            X, ActivationMask((1, 0), (-1e-6, -1.0)))
        # bit-0 row short of the unit margin
        assert not verify_mask_witness(
            X, ActivationMask((1, 0), (1.0, -0.5)))
        assert not verify_mask_witness(X, ActivationMask((1, 0)))

    def test_scaled_near_antipodal_pairs_match_sweep(self):
        # 13 of these pairs raised and 12 gave a wrong mask set while the
        # LP saw the rows unnormalized
        rng = np.random.default_rng(12)
        for _ in range(300):
            a = rng.uniform(0.0, 2.0 * np.pi)
            X = np.array([[np.cos(a), np.sin(a)],
                          [np.cos(a + np.pi - 1e-12),
                           np.sin(a + np.pi - 1e-12)]])
            X *= rng.choice(SCALES, size=2)[:, None]
            assert_masks_match_sweep(X)
            # the sweep's zero band reads the unnormalized rows, so its sign
            # patterns here mix the antipodal and the generic reading
            patterns = enumerate_sign_patterns(X)
            assert [p.signs for p in patterns] == [
                p.signs for p in face_sign_patterns(X)]
            assert_sign_witnesses(X, patterns)

    @settings(max_examples=60, deadline=None)
    @given(degenerate_planar())
    # an inherited witness scaled up to the unit margin read 1-ulp
    # differences between the normalized parallel rows 0, 1 and 3 as a
    # margin and returned the unrealizable sign pattern (0, 0, -1, 1, 0)
    @example(np.array([[3e-6, 2e-6], [3e-6, 2e-6], [1e-6, 0.0], [3e6, 2e6],
                       [0.0, 0.0]]))
    def test_degenerate_rows_match_sweep(self, X):
        assert_masks_match_sweep(X)
        assert [p.signs for p in enumerate_sign_patterns(X)] == [
            p.signs for p in sweep_sign_patterns(X)]

    @settings(max_examples=60, deadline=None)
    @given(degenerate_spatial())
    def test_degenerate_spatial_rows_match_face_oracle(self, X):
        assert_match_face_oracle(X)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            enumerate_masks(np.zeros((23, 2)))

    def test_sweep_requires_d2(self):
        with pytest.raises(ValueError):
            sweep_masks(np.zeros((3, 3)))

    def test_boundary_only_mask_found(self):
        # all-ones realizable only with an exact boundary direction
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        masks = {m.bits for m in enumerate_masks(X)}
        assert (1, 1, 1) in masks
        assert masks == {m.bits for m in sweep_masks(X)}


class TestLPCount:
    """LPs per enumeration, pinned: a child keeps its parent's witness when
    that meets the child's rows, so mostly only the other side runs an LP."""

    @pytest.mark.parametrize("name, mask_lps, pattern_lps", [
        # 103 and 523 LPs when every node ran one
        ("gaussian-6x3", 59, 392),
        ("notebook", 8, 30),            # 15 and 40
        ("appendix-ortho", 3, 10),      # 7 and 13
    ])
    def test_lp_counts(self, monkeypatch, name, mask_lps, pattern_lps):
        X = (np.random.default_rng([20211012, 0]).standard_normal((6, 3))
             if name == "gaussian-6x3" else builtin_dataset(name).X)
        calls = []

        def counted(A, b):
            calls.append(1)
            return lp_feasible(A, b)

        monkeypatch.setattr("relu_lab.arrangements.lp_feasible", counted)
        enumerate_masks(X)
        assert len(calls) == mask_lps
        calls.clear()
        enumerate_sign_patterns(X)
        assert len(calls) == pattern_lps
        assert_match_face_oracle(X)


class TestSignPatterns:
    def test_contains_all_zero(self, notebook_ds):
        pats = enumerate_sign_patterns(notebook_ds.X)
        assert (0, 0, 0) in {p.signs for p in pats}

    def test_single_sample(self):
        pats = enumerate_sign_patterns(np.array([[1.0, 0.0]]))
        assert [p.signs for p in pats] == [(-1,), (0,), (1,)]

    def test_sweep_oracle_agreement(self, notebook_ds):
        a = [p.signs for p in enumerate_sign_patterns(notebook_ds.X)]
        assert a == [p.signs for p in sweep_sign_patterns(notebook_ds.X)]
        assert a == [p.signs for p in face_sign_patterns(notebook_ds.X)]

    def test_sweep_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            X = rng.normal(size=(int(rng.integers(2, 7)), 2))
            a = [p.signs for p in enumerate_sign_patterns(X)]
            assert a == [p.signs for p in sweep_sign_patterns(X)]

    def test_open_pattern_supports_are_masks(self, notebook_ds):
        # a random 5x3 case checks the shared search off the plane
        for X in (notebook_ds.X, np.random.default_rng(8).normal(size=(5, 3))):
            mask_bits = {m.bits for m in enumerate_masks(X)}
            for pat in enumerate_sign_patterns(X):
                if 0 in pat.signs:
                    continue
                bits = tuple(1 if s > 0 else 0 for s in pat.signs)
                assert bits in mask_bits

    def test_face_count_bound_is_the_general_position_count(self):
        rng = np.random.default_rng(21)
        for N, d in ((3, 2), (4, 3), (5, 4), (6, 3)):
            X = rng.standard_normal((N, d))
            assert len(enumerate_sign_patterns(X)) == face_count_bound(N, d)
        # duplicate and antipodal rows only lose faces
        X = rng.standard_normal((3, 3))
        X = np.vstack((X, X[0], -X[1]))
        assert len(enumerate_sign_patterns(X)) < face_count_bound(5, 3)
        assert face_count_bound(13, 13) == 3 ** 13
        assert face_count_bound(14, 0) == 1

    def test_size_limit(self):
        # the row cap holds at rank 0 too, where the face count is 1
        with pytest.raises(ValueError, match="N <= 22"):
            enumerate_sign_patterns(np.zeros((23, 2)))


class TestMaskOf:
    def test_zero_vector_all_zeros(self, notebook_ds):
        assert mask_of(notebook_ds.X, np.zeros(2)).as_string() == "000"

    def test_notebook_directions(self, notebook_ds):
        assert mask_of(notebook_ds.X, [1.0, -1.0]).as_string() == "100"
        # boundary entry falls to 0 under the strict inequality
        assert mask_of(notebook_ds.X, [1.0, 1.0]).as_string() == "110"

    def test_non_finite_rejected(self, notebook_ds):
        with pytest.raises(ValueError):
            mask_of(notebook_ds.X, [np.nan, 0.0])


class TestCoverBound:
    def test_notebook_bound(self, notebook_ds, notebook_masks):
        bound = cover_bound(3, 2)
        assert bound == pytest.approx(4 * np.e ** 2)
        assert len(notebook_masks) <= bound

    def test_small_case(self):
        assert cover_bound(2, 1) == pytest.approx(2 * np.e)

    def test_bound_holds_on_random_data(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            N = int(rng.integers(2, 8))
            d = int(rng.integers(1, 4))
            X = rng.normal(size=(N, d))
            p = len(enumerate_masks(X))
            assert p <= cover_bound(N, matrix_rank(X))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cover_bound(1, 1)
        with pytest.raises(ValueError):
            cover_bound(3, 0)


class TestMaskHelpers:
    def test_mask_validation(self):
        with pytest.raises(ValueError):
            ActivationMask(bits=(0, 2))
        with pytest.raises(ValueError, match="-1/0/"):
            SignPattern(signs=(2,))

    def test_rank(self):
        assert matrix_rank(np.array([[1.0, 0.0], [2.0, 0.0]])) == 1
        assert matrix_rank(np.eye(3)) == 3
        assert matrix_rank(np.zeros((2, 2))) == 0

    def test_rank_ignores_row_scale(self):
        assert matrix_rank(np.array([[1e6, 0.0], [0.0, 1e-6]])) == 2
