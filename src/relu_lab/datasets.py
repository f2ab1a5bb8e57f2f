"""Datasets and the orthogonal-separability predicate.

A dataset is a data matrix X (rows are samples) with either binary labels
y in {+1,-1}^N (K == 0) or multiclass labels in {1..K}^N (K >= 1); class k
of a multiclass dataset is the one-vs-all problem y_k = +1 iff label == k.
The three built-in reference datasets used throughout the test suite and CLI
are registered in BUILTIN_DATASETS.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray           # (N, d)
    labels: np.ndarray      # (N,) ints: {+1,-1} binary or {1..K} multiclass
    name: str = ""
    K: int = 0              # 0 means binary +/-1 labels

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        # a label or K that is not a whole number is refused, not truncated;
        # a bool K is refused too, as FlowConfig refuses bools
        whole = np.asarray(self.labels, dtype=float)
        bad = np.flatnonzero(~(np.isfinite(whole) & (whole == np.round(whole))))
        if bad.size:
            raise ValueError(f"label {whole.flat[bad[0]]} of sample {bad[0]} "
                             f"is not a whole number")
        if not (isinstance(self.K, numbers.Real)
                and not isinstance(self.K, bool)
                and float(self.K).is_integer()):
            raise ValueError(f"K = {self.K!r} is not a whole number")
        labels = whole.astype(int)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "K", int(self.K))
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("X must be a nonempty N x d matrix")
        if not np.isfinite(X).all():
            raise ValueError("X contains non-finite entries")
        if labels.shape != (X.shape[0],):
            raise ValueError("label count does not match sample count")
        if self.K == 0:
            if not np.all(np.isin(labels, (-1, 1))):
                raise ValueError("binary labels must be +1 or -1")
        else:
            if self.K < 1:
                raise ValueError("K must be >= 1 for multiclass labels")
            if labels.min() < 1 or labels.max() > self.K:
                raise ValueError("label out of range 1..K")

    @property
    def N(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def is_binary(self) -> bool:
        return self.K == 0

    @property
    def y(self) -> np.ndarray:
        """Binary +/-1 label vector (binary datasets only)."""
        if not self.is_binary:
            raise ValueError("dataset has multiclass labels; no binary y")
        return self.labels.astype(float)


BUILTIN_DATASETS: dict[str, Dataset] = {
    "notebook": Dataset(
        X=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]]),
        labels=np.array([1, -1, -1]), name="notebook"),
    "appendix-ortho": Dataset(
        X=np.array([[1.65, -0.47], [-0.47, 1.35]]),
        labels=np.array([1, -1]), name="appendix-ortho"),
    # the reference experiment's name; the matrix is spike-free with equality
    "appendix-nonspikefree": Dataset(
        X=np.array([[1.65, 0.47], [0.47, 1.35]]),
        labels=np.array([1, 1]), name="appendix-nonspikefree"),
}


def builtin_dataset(name: str) -> Dataset:
    try:
        return BUILTIN_DATASETS[name]
    except KeyError:
        raise KeyError(f"unknown built-in dataset {name!r}; "
                       f"available: {sorted(BUILTIN_DATASETS)}") from None


def load_dataset(source: str | Path | dict) -> Dataset:
    """Build a Dataset from a JSON file path or an already-parsed dict.

    Schema: {"name": str, "X": [[float;d];N], "y": [int;N],
             "K": int (optional, 0 = binary +/-1)}; 1.0 loads as 1, and an
    X or y entry that is not a JSON number, or a name that is not a JSON
    string, is refused.
    """
    if isinstance(source, (str, Path)):
        try:
            spec = json.loads(Path(source).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot parse dataset source: {exc}") from exc
    elif isinstance(source, dict):
        spec = source
    else:
        raise ValueError(f"unsupported dataset source type {type(source)}")
    if not (isinstance(spec, dict) and "X" in spec and "y" in spec):
        raise ValueError("dataset spec must be a JSON object with 'X' and 'y'")
    name = spec.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"dataset name {name!r} is not a JSON string")
    return Dataset(X=json_numbers(spec["X"], "X"),
                   labels=json_numbers(spec["y"], "y"),
                   name=name,
                   K=spec.get("K", 0))


def json_numbers(value, field: str) -> np.ndarray:
    """A float array of value, nested lists of JSON numbers; an entry that
    is anything else (an object, a string, a bool or null) raises a
    ValueError that names the field."""
    def check(v):
        if isinstance(v, list):
            for entry in v:
                check(entry)
        elif isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ValueError(f"{field} entry {v!r} is not a JSON number")
    check(value)
    return np.asarray(value, dtype=float)


def dataset_to_json(ds: Dataset) -> dict:
    return {"name": ds.name, "X": ds.X.tolist(),
            "y": ds.labels.tolist(), "K": ds.K}


def is_orthogonal_separable(ds: Dataset) -> bool:
    """Same-label pairs must have positive inner products, cross-label pairs
    nonpositive; binary and multiclass labels alike.  Zero rows fail (the
    same-label strict inequality cannot hold against themselves)."""
    X, labels = ds.X, ds.labels
    top = np.abs(X).max(axis=1)
    if not (top > 0.0).all():
        return False
    # a positive row scale changes the sign of no inner product: rows scaled
    # to a largest entry in [1/2, 1) neither underflow nor overflow in G, and
    # scaling by a power of two is exact
    Xs = np.ldexp(X, -np.frexp(top)[1][:, None])
    G = Xs @ Xs.T
    same = labels[:, None] == labels[None, :]
    cross = ~same
    # the diagonal holds the squared row norms, positive for nonzero rows
    np.fill_diagonal(same, False)
    return bool((G[same] > 0.0).all() and (G[cross] <= 0.0).all())
