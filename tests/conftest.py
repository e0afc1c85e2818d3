import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from droidtriage.catalog import FeatureCatalog, FeatureDef
from droidtriage.dataset import _ROW_ENDS, Dataset, DatasetError, SyntheticSpec
from droidtriage.ensemble import _stack, log_likelihood, logit_scores


def toy_catalog(n: int, prefix: str = "f") -> FeatureCatalog:
    """n synthetic API features named f00, f01, ... with disjoint patterns."""
    return FeatureCatalog(
        FeatureDef(f"{prefix}{i:02d}", "API", f"tok_{prefix}{i:02d}") for i in range(n)
    )


def write_catalog(catalog: FeatureCatalog, path) -> None:
    """Write `catalog` in the CSV format `load_catalog` reads; no field may hold a comma."""
    rows = ["name,category,pattern", *(f"{f.name},{f.category},{f.pattern}" for f in catalog)]
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")


def write_spec(spec: SyntheticSpec, path) -> None:
    """Write `spec` in the format `load_spec` reads, every feature listed."""
    lines = [f"#n_benign={spec.n_benign}", f"#n_malware={spec.n_malware}"]
    if spec.xor_interaction is not None:
        a, b, q = spec.xor_interaction
        lines.append(f"#xor={spec.catalog.names[a]},{spec.catalog.names[b]},{float(q)!r}")
    lines.append("name,p_benign,p_malware")
    for name, pb, pm in zip(spec.catalog.names, spec.p_benign.tolist(), spec.p_malware.tolist()):
        lines.append(f"{name},{pb!r},{pm!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


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


def _render(bits: np.ndarray, ends: np.ndarray, labels) -> np.ndarray:
    """One byte row per row of `bits`: ``48 + bit`` cells joined by commas,
    then ``ends[label]``: the rows a good file holds, byte for byte."""
    W = max(2 * bits.shape[1] - 1, 0)
    block = np.full((len(bits), W + ends.shape[1]), ord(","), dtype=np.uint8)
    block[:, 0:W:2] = bits
    block[:, 0:W:2] += ord("0")
    block[:, W:] = ends[labels]
    return block


def whole_file_reader(path, catalog: FeatureCatalog, columns: FeatureCatalog | None = None):
    """The whole-file byte-level reader the streaming `read_vectors`
    replaced, kept as its oracle: the same (X, y) or the same DatasetError.
    It holds the whole file, its newline mask and the matrix at once, and
    checks each row by rendering it from its bits and comparing every byte."""
    data = Path(path).read_bytes()
    if b"\r" in data:  # universal newlines, as text mode reads them
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data:
        raise DatasetError(f"{path}: empty file")
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == 10)
    starts = np.concatenate(([0], ends[:-1] + 1))

    def line(k: int) -> str:
        try:
            return data[starts[k] : ends[k]].decode("utf-8")
        except UnicodeDecodeError:
            raise DatasetError(f"{path}: {f'row {k}' if k else 'header'}: not valid UTF-8") from None

    header = line(0).split(",")
    if columns is not None and header in (list(columns.names) or [""], [*columns.names, "class"]):
        catalog, columns = columns, None
    names = list(catalog.names)
    labeled = header == names + ["class"]
    if not labeled and header != (names or [""]):
        have = len(header)
        want = len(names) + 1
        if header and header[-1] != "class" and have in (want, want - 1):
            raise DatasetError(f"{path}: label column absent or misplaced")
        raise DatasetError(
            f"{path}: header does not match catalog "
            f"({have} columns, expected {want} including 'class')"
        )
    F = len(names)
    n = len(ends) - 1
    W = max(2 * F - 1, 0)
    tails = _ROW_ENDS[labeled][:, int(labeled and F == 0) : len(",malware")]
    L = W + tails.shape[1]
    lengths = ends[1:] - starts[1:]
    y = (lengths == L).astype(np.uint8)
    good = (lengths == L - 1) | (lengths == L) & labeled
    bad_row = n if good.all() else int(np.argmin(good))
    X = np.empty((n, F), dtype=np.uint8)
    if bad_row:
        rows = sliding_window_view(buf, L)[starts[1 : bad_row + 1]]
        bits = rows[:, 0:W:2] & 1
        bad = (rows != _render(bits, tails, y[:bad_row])).any(axis=1)
        if bad.any():
            bad_row = int(np.argmax(bad))
        X[:bad_row] = bits[:bad_row]
    if bad_row < n:
        row = bad_row + 1
        cells = line(row).split(",")
        if len(cells) != F + labeled:
            raise DatasetError(f"{path}: row {row}: expected {F + labeled} cells, got {len(cells)}")
        if labeled and cells[-1] not in ("benign", "malware"):
            raise DatasetError(f"{path}: row {row}: unknown label {cells[-1]!r}")
        col = next(i for i, c in enumerate(cells[:F]) if c not in ("0", "1"))
        raise DatasetError(
            f"{path}: row {row}, column {names[col]!r}: cell must be 0 or 1, got {cells[col]!r}"
        )
    if columns is not None:
        X = X[:, [catalog.index_of(name) for name in columns.names]]
    return X, y if labeled else None


def traced_peak(fn):
    """`fn()` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def nb_scores_oracle(model, X) -> np.ndarray:
    """nb's posterior with the whole of `X` converted to float64 at once: the
    formula `nb_scores` evaluates a row block at a time."""
    X = np.asarray(X, dtype=np.float64)
    log_mal = np.log(model.prior_malware) + X @ np.log(model.theta_malware) + (
        1.0 - X
    ) @ np.log1p(-model.theta_malware)
    log_ben = np.log1p(-model.prior_malware) + X @ np.log(model.theta_benign) + (
        1.0 - X
    ) @ np.log1p(-model.theta_benign)
    peak = np.maximum(log_mal, log_ben)
    mal = np.exp(log_mal - peak)
    ben = np.exp(log_ben - peak)
    return mal / (mal + ben)


def logit_scores_oracle(model, X) -> np.ndarray:
    """sl's probabilities with the whole of `X` converted to float64 at once:
    the formula `logit_scores` evaluates on X's own columns."""
    X = np.asarray(X, dtype=np.float64)
    F = np.full(X.shape[0], model.intercept)
    for reg in model.regressors:
        F += 0.5 * (reg.value_if_0 + (reg.value_if_1 - reg.value_if_0) * X[:, reg.feature])
    return 0.5 * (1.0 + np.tanh(F))


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


def _forest(trees, params):
    """A forest of the hand-built `trees`, stacked as the loader stacks its members."""
    parts = [(t.feature, t.low, t.high, t.n_benign, t.n_malware, [0]) for t in trees]
    return _stack(parts, params, trees[0].n_features)


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


@pytest.fixture
def cpus(monkeypatch):
    """A function that sets how many CPUs this process may run on, the input
    of `pool.workers`; forked workers inherit it, and still run one process each."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
