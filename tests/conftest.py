import numpy as np
import pytest

from droidtriage.catalog import FeatureCatalog, FeatureDef
from droidtriage.dataset import Dataset
from droidtriage.ensemble import log_likelihood, logit_scores


def toy_catalog(n: int, prefix: str = "f") -> FeatureCatalog:
    """n synthetic API features named f00, f01, ... with disjoint patterns."""
    return FeatureCatalog(
        FeatureDef(f"{prefix}{i:02d}", "API", f"tok_{prefix}{i:02d}") for i in range(n)
    )


def make_dataset(X, y, catalog: FeatureCatalog | None = None) -> Dataset:
    X = np.asarray(X, dtype=np.uint8)
    if catalog is None:
        catalog = toy_catalog(X.shape[1])
    return Dataset(catalog, X, np.asarray(y, dtype=np.uint8))


def random_dataset(rng, n: int, n_features: int, catalog=None) -> Dataset:
    """Random dataset guaranteed to contain both classes (n >= 2)."""
    X = (rng.random((n, n_features)) < rng.random(n_features)).astype(np.uint8)
    y = (rng.random(n) < 0.5).astype(np.uint8)
    y[0], y[1] = 0, 1
    return make_dataset(X, y, catalog)


def subset(ds: Dataset, rows) -> Dataset:
    """A copy of the rows `rows` (indices or a bool mask) of `ds`, in order."""
    return Dataset(ds.catalog, ds.X[rows], ds.y[rows])


def same_dataset(a: Dataset, b: Dataset) -> bool:
    return a.catalog.names == b.catalog.names and np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def training_log_likelihood(model, ds: Dataset) -> float:
    """Log-likelihood of the labels of `ds` under an sl model's probabilities."""
    return log_likelihood(logit_scores(model, ds.X), ds.y)


def _nested(model):
    """A tree's preorder view as nested tuples: ``("L", n_benign, n_malware)``
    for a leaf, ``("S", feature, low, high)`` for a split."""

    def node(i):
        if model.feature[i] < 0:
            return ("L", int(model.n_benign[i]), int(model.n_malware[i]))
        return ("S", int(model.feature[i]), node(model.low[i]), node(model.high[i]))

    return node(0)


def _walk(root, bits) -> float:
    """One row's score by a walk down the nested view: the descent's oracle."""
    node = root
    while node[0] == "S":
        node = node[3] if bits[node[1]] else node[2]
    _, n_benign, n_malware = node
    return n_malware / (n_benign + n_malware) if n_benign + n_malware else 0.0


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
