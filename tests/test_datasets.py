import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relu_lab.datasets import (Dataset, builtin_dataset, dataset_to_json,
                               is_orthogonal_separable, load_dataset)


class TestLoadDataset:
    def test_notebook_spec(self):
        ds = load_dataset({"X": [[1, 0], [0, 1], [-1, 1]], "y": [1, -1, -1]})
        assert ds.N == 3 and ds.d == 2 and ds.is_binary

    def test_appendix_spec(self):
        ds = load_dataset({"X": [[1.65, -0.47], [-0.47, 1.35]], "y": [1, -1]})
        assert ds.N == 2 and ds.d == 2

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            load_dataset({"X": [[1, 0]], "y": [0]})

    def test_multiclass_label_exceeds_k(self):
        with pytest.raises(ValueError):
            load_dataset({"X": [[1, 0], [0, 1]], "y": [1, 3], "K": 2})

    def test_fractional_label_or_k_rejected(self):
        # a label or K that is not a whole number is refused, not truncated
        X = [[1, 0], [0, 1]]
        with pytest.raises(ValueError, match=r"label 1\.7 of sample 0 is "
                                             r"not a whole number"):
            load_dataset({"X": X, "y": [1.7, -1]})
        with pytest.raises(ValueError, match=r"label -0\.5 of sample 1"):
            Dataset(X=np.array(X, dtype=float), labels=np.array([1, -0.5]))
        with pytest.raises(ValueError, match=r"label nan of sample 1"):
            load_dataset({"X": X, "y": [1, float("nan")]})
        with pytest.raises(ValueError, match=r"K = 2\.5 is not a whole"):
            load_dataset({"X": X, "y": [1, 2], "K": 2.5})
        with pytest.raises(ValueError, match=r"K = None is not a whole"):
            load_dataset({"X": X, "y": [1, 2], "K": None})
        with pytest.raises(ValueError, match=r"K = '2' is not a whole"):
            load_dataset({"X": X, "y": [1, 2], "K": "2"})
        # a bool is no class count, though Python counts it as a number
        with pytest.raises(ValueError, match=r"K = True is not a whole"):
            load_dataset({"X": X, "y": [1, 1], "K": True})

    @pytest.mark.parametrize("text", ["null", "5", "true"])
    def test_top_level_not_object_rejected(self, tmp_path, text):
        p = tmp_path / "ds.json"
        p.write_text(text)
        with pytest.raises(ValueError, match="must be a JSON object"):
            load_dataset(p)

    @pytest.mark.parametrize("spec, bad", [
        ({"X": {"a": 1}, "y": [1]}, "X entry {'a': 1}"),
        ({"X": [["1", 0], [0, "2"]], "y": [1, -1]}, "X entry '1'"),
        ({"X": [[True, 0], [0, 1]], "y": [1, -1]}, "X entry True"),
        ({"X": [[None, 0], [0, 1]], "y": [1, -1]}, "X entry None"),
        ({"X": [[1, 0], [0, 1]], "y": ["1", -1]}, "y entry '1'"),
        ({"X": [[1, 0], [0, 1]], "y": [True, -1]}, "y entry True"),
    ], ids=["X-object", "X-string", "X-bool", "X-null", "y-string",
            "y-bool"])
    def test_non_number_entry_rejected(self, spec, bad):
        # refused, neither a TypeError nor silently converted to a number
        with pytest.raises(ValueError,
                           match=re.escape(bad) + " is not a JSON number"):
            load_dataset(spec)

    @pytest.mark.parametrize("name, shown", [
        ({"a": 1}, "{'a': 1}"), (7, "7"), (True, "True"), (None, "None")],
        ids=["object", "number", "bool", "null"])
    def test_non_string_name_rejected(self, name, shown):
        # refused, not stringified into the manifest's dataset_name
        with pytest.raises(ValueError, match=re.escape(
                f"dataset name {shown} is not a JSON string")):
            load_dataset({"X": [[1, 0], [0, 1]], "y": [1, -1], "name": name})

    def test_integral_float_labels_load(self):
        ds = load_dataset({"X": [[1, 0], [0, 1]], "y": [1.0, -1.0]})
        assert ds.labels.dtype.kind == "i"
        np.testing.assert_array_equal(ds.labels, [1, -1])
        ds = load_dataset({"X": [[1, 0], [0, 1]], "y": [1.0, 2.0], "K": 2.0})
        assert ds.K == 2 and type(ds.K) is int
        np.testing.assert_array_equal(ds.labels, [1, 2])

    @pytest.mark.parametrize("spec, match", [
        ({"X": [], "y": []}, "nonempty N x d"),
        ({"X": [1.0, 2.0], "y": [1, -1]}, "nonempty N x d"),
        ({"X": [[1, 0]], "y": [1], "K": -2}, "K must be >= 1")])
    def test_shape_and_k_checked(self, spec, match):
        with pytest.raises(ValueError, match=match):
            load_dataset(spec)

    @pytest.mark.parametrize("source", [42, [[1.0]], None])
    def test_unsupported_source_type(self, source):
        with pytest.raises(ValueError, match="unsupported dataset source"):
            load_dataset(source)

    def test_multiclass_has_no_binary_labels(self):
        ds = load_dataset({"X": [[1, 0], [0, 1]], "y": [1, 2], "K": 2})
        with pytest.raises(ValueError, match="no binary y"):
            ds.y

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            load_dataset({"X": [[1, 0], [0, 1]], "y": [1]})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            load_dataset({"X": [[np.inf, 0]], "y": [1]})

    def test_parse_failure(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValueError):
            load_dataset(p)

    def test_file_roundtrip(self, tmp_path):
        ds = builtin_dataset("notebook")
        p = tmp_path / "ds.json"
        p.write_text(json.dumps(dataset_to_json(ds)))
        ds2 = load_dataset(p)
        np.testing.assert_array_equal(ds.X, ds2.X)
        np.testing.assert_array_equal(ds.labels, ds2.labels)


class TestOrthogonalSeparable:
    def test_appendix_dataset_separable(self, ortho_ds):
        assert is_orthogonal_separable(ortho_ds)

    def test_notebook_separable(self, notebook_ds):
        assert is_orthogonal_separable(notebook_ds)

    def test_duplicate_point_opposite_labels(self):
        ds = Dataset(X=np.array([[1.0, 0.0], [1.0, 0.0]]),
                     labels=np.array([1, -1]))
        assert not is_orthogonal_separable(ds)

    def test_zero_row_fails(self):
        ds = Dataset(X=np.array([[0.0, 0.0]]), labels=np.array([1]))
        assert not is_orthogonal_separable(ds)

    def test_multiclass_matches_binary_for_k2(self, ortho_ds):
        ds2 = Dataset(X=ortho_ds.X, labels=np.array([1, 2]), K=2)
        assert is_orthogonal_separable(ds2)

    def test_multiclass_single_sample(self):
        ds = Dataset(X=np.array([[3.0, 1.0]]), labels=np.array([2]), K=4)
        assert is_orthogonal_separable(ds)

    def test_multiclass_positive_cross_inner(self):
        ds = Dataset(X=np.array([[1.0, 0.0], [0.5, 0.0]]),
                     labels=np.array([1, 2]), K=2)
        assert not is_orthogonal_separable(ds)

    @pytest.mark.parametrize("X, labels, K, separable", [
        ([[1.65, -0.47], [-0.47, 1.35]], [1, -1], 0, True),
        # cross-label products of mixed signs
        ([[2.0, 1.0], [-1.0, 1.0]], [1, -1], 0, True),
        ([[1.0, 0.0], [0.0, 1.0]], [1, 2], 2, True),
        ([[1.0, 0.0], [1.0, 1.0]], [1, -1], 0, False),
    ], ids=["appendix-ortho", "mixed-signs", "multiclass", "non-separable"])
    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e170])
    def test_extreme_row_scales(self, X, labels, K, separable, scale):
        # squares of rows near 1e-170 underflow and those near 1e170
        # overflow, yet no row scale changes an inner product's sign
        ds = Dataset(X=scale * np.array(X), labels=np.array(labels), K=K)
        assert is_orthogonal_separable(ds) is separable

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.01, 100.0))
    def test_scaling_and_permutation_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(5, 2))
        y = rng.choice([-1, 1], size=5)
        base = is_orthogonal_separable(Dataset(X=X, labels=y))
        scaled = is_orthogonal_separable(
            Dataset(X=scale * X, labels=y))
        perm = rng.permutation(5)
        permuted = is_orthogonal_separable(
            Dataset(X=X[perm], labels=y[perm]))
        assert base == scaled == permuted

    def test_k2_recoding_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            X = rng.normal(size=(4, 2))
            labels = rng.choice([1, 2], size=4)
            multi = is_orthogonal_separable(
                Dataset(X=X, labels=labels, K=2))
            y = np.where(labels == 1, 1, -1)
            binary = is_orthogonal_separable(Dataset(X=X, labels=y))
            assert multi == binary


class TestBuiltins:
    def test_names(self):
        for name in ("notebook", "appendix-ortho", "appendix-nonspikefree"):
            assert builtin_dataset(name).name == name

    def test_unknown(self):
        with pytest.raises(KeyError):
            builtin_dataset("unknown")

    def test_appendix_values(self, ortho_ds, nonspikefree_ds):
        np.testing.assert_array_equal(ortho_ds.X,
                                      [[1.65, -0.47], [-0.47, 1.35]])
        np.testing.assert_array_equal(ortho_ds.labels, [1, -1])
        np.testing.assert_array_equal(nonspikefree_ds.X,
                                      [[1.65, 0.47], [0.47, 1.35]])
        np.testing.assert_array_equal(nonspikefree_ds.labels, [1, 1])
