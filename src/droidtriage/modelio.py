"""Model persistence: a line-oriented text format shared by all five kinds.

Every file starts with ``droidtriage-model v1 <kind>`` and the fingerprint of
the catalog the model was trained under; loading verifies the fingerprint
against the caller's catalog so vectors can never be silently misaligned.
Floats are written with ``repr``, which round-trips exactly, and tree leaves
store integer counts, so a reloaded model predicts bit-identically. The body
after those two lines depends on the kind; `_BODIES` maps each kind to the
functions that write and parse it. The writer yields the body a part at a
time, and a forest's part is one tree, so saving holds one tree's text,
not the whole file's.

A tree's nodes are written in preorder from node 0, ``S feature`` for a
split (then its low and its high subtree) and ``L n_benign n_malware`` for a
leaf; the parser numbers them in preorder and gives each split the sum of
its children's counts. Both use an explicit stack, so a deep chain loads.
The loader rejects a non-finite float, a feature index outside the catalog,
a negative count, a width other than the catalog's, a truncated tree and a
split testing a feature its path already tests, so a tree is never deeper
than the catalog is wide.
Header hyperparameters pass through `AlgoDescriptor`, flags read 0 or 1,
and ``k`` may not exceed the catalog's width. The header's kind is the only
source of a model's kind: a dt tree must have ``k 0``, an rt tree ``k`` of at
least 1. A forest member's criterion, pruned flag, ``k`` and seed are
derived from the forest as `train_forest` writes them (entropy, unpruned,
the forest's ``k``, seed ``derive_seed(forest_seed, i)``); a member that
disagrees is rejected, and the members' nodes are stacked as in training.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np

from .algo import AlgoDescriptor, Model
from .bayes import NbModel
from .catalog import FeatureCatalog, read_lines
from .ensemble import ForestModel, LogitModel, LogitRegressor, _member, _stack
from .trees import TreeModel

_MAGIC = "droidtriage-model"
_VERSION = "v1"


class ModelFormatError(ValueError):
    """A model file is malformed or belongs to a different catalog."""


class _Lines:
    """The lines of a model file, consumed in order; errors name the file."""

    def __init__(self, path):
        self._lines = read_lines(path, ModelFormatError)
        self._path = path

    def error(self, message: str) -> ModelFormatError:
        return ModelFormatError(f"{self._path}: {message}")

    def next(self) -> str:
        line = next(self._lines, None)
        if line is None:
            raise self.error("unexpected end of file")
        return line

    def fields(self, *keys: str) -> list[str]:
        """The values of the next lines, which must read ``key value`` for each key."""
        values = []
        for key in keys:
            line = self.next()
            tag, _, value = line.partition(" ")
            if tag != key:
                raise self.error(f"expected {key!r}, got {line!r}")
            values.append(value)
        return values

    def check_width(self, count, n_features: int) -> None:
        if int(count) != n_features:
            raise self.error(f"model has {int(count)} features, catalog has {n_features}")

    def number(self, text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise self.error(f"non-finite number {text!r}")
        return value

    def flag(self, text: str) -> bool:
        if text not in ("0", "1"):
            raise self.error(f"flag must be 0 or 1, got {text!r}")
        return text == "1"

    def algo(self, kind: str, n_features: int, **fields) -> AlgoDescriptor:
        """A header's hyperparameters, checked by `AlgoDescriptor` and with
        no more split candidates than the catalog has features."""
        algo = AlgoDescriptor(kind, **fields)
        if algo.k is not None and algo.k > n_features:
            raise self.error(f"k {algo.k} exceeds the catalog's {n_features} features")
        return algo

    def feature(self, text: str, n_features: int) -> int:
        f = int(text)
        if not 0 <= f < n_features:
            raise self.error(f"feature index {f} outside [0, {n_features})")
        return f

    def done(self) -> bool:
        return next(self._lines, None) is None


def _nb_body(model: NbModel) -> Iterator[list[str]]:
    yield [
        f"alpha {float(model.alpha)!r}",
        f"prior {float(model.prior_malware)!r}",
        "theta_benign " + " ".join(repr(float(v)) for v in model.theta_benign),
        "theta_malware " + " ".join(repr(float(v)) for v in model.theta_malware),
    ]


def _parse_nb_body(lines: _Lines, n_features: int) -> NbModel:
    alpha, prior, *thetas = lines.fields("alpha", "prior", "theta_benign", "theta_malware")
    theta_b, theta_m = ([lines.number(v) for v in theta.split(" ")] for theta in thetas)
    lines.check_width(len(theta_b), n_features)
    algo = lines.algo("nb", n_features, alpha=lines.number(alpha))
    return NbModel(lines.number(prior), theta_b, theta_m, algo.alpha)


def _tree_head(model: TreeModel) -> list[str]:
    return [
        f"criterion {model.criterion}",
        f"pruned {int(model.pruned)}",
        f"k {model.k}",
        f"seed {model.seed}",
        f"n_features {model.n_features}",
    ]


def _tree_body(model: TreeModel) -> Iterator[list[str]]:
    out = _tree_head(model)
    feature, low, high, n_benign, n_malware = (
        a.tolist() for a in (model.feature, model.low, model.high, model.n_benign, model.n_malware)
    )
    stack = [0]  # preorder: a split, its low subtree, its high subtree
    while stack:
        i = stack.pop()
        if feature[i] < 0:
            out.append(f"L {n_benign[i]} {n_malware[i]}")
        else:
            out.append(f"S {feature[i]}")
            stack += (high[i], low[i])
    yield out


def _parse_nodes(lines: _Lines, n_features: int, tree: int) -> tuple[np.ndarray, ...]:
    """Tree number `tree`, in preorder, as `TreeModel` arrays, numbered in preorder.

    A split's low child is the node after it. The node after a leaf is the
    high child of the innermost split still waiting for one; with none
    waiting, the tree is complete. A split may not test a feature already
    tested on its path, as no trained tree does, so a tree is at most
    `n_features` deep and scoring a row takes work bounded by the catalog.
    """
    feature: list[int] = []
    high: list[int] = []
    n_benign: list[int] = []
    n_malware: list[int] = []
    waiting: list[int] = []  # splits whose high child is still to come
    path: list[int] = []  # the features tested on the path to the next node
    on_path = [False] * n_features
    while True:
        line = lines.next()
        parts = line.split(" ")
        i = len(feature)
        if parts[0] == "S" and len(parts) == 2:
            f, b, m = lines.feature(parts[1], n_features), 0, 0  # a split's counts are summed below
            if on_path[f]:
                raise lines.error(f"tree {tree} node {i}: feature {f} is already tested on its path")
            on_path[f] = True
            path.append(f)
            waiting.append(i)
        elif parts[0] == "L" and len(parts) == 3:
            f, b, m = -1, int(parts[1]), int(parts[2])
            if b < 0 or m < 0:
                raise lines.error(f"negative leaf count in {line!r}")
        else:
            raise lines.error(f"bad tree node line {line!r}")
        feature.append(f)
        high.append(i)  # a leaf's own id; a split's is set when its low subtree ends
        n_benign.append(b)
        n_malware.append(m)
        if f < 0:
            if not waiting:
                break
            split = waiting.pop()
            high[split] = i + 1
            while path[-1] != feature[split]:  # the high child's path ends at its parent's test
                on_path[path.pop()] = False
    for i in range(len(feature) - 1, -1, -1):  # a split counts its children's rows
        if feature[i] >= 0:
            n_benign[i] = n_benign[i + 1] + n_benign[high[i]]
            n_malware[i] = n_malware[i + 1] + n_malware[high[i]]
    feature = np.array(feature, dtype=np.intp)
    return (
        feature,
        np.arange(feature.size) + (feature >= 0),  # low: the next node, or the leaf itself
        np.array(high, dtype=np.intp),
        np.array(n_benign, dtype=np.int64),
        np.array(n_malware, dtype=np.int64),
    )


def _parse_tree_body(lines: _Lines, n_features: int, kind: str, tree: int = 0) -> TreeModel:
    """A `kind` tree, number `tree` of its file: dt requires k 0, rt k >= 1."""
    criterion, pruned, k, seed, width = lines.fields(
        "criterion", "pruned", "k", "seed", "n_features"
    )
    lines.check_width(width, n_features)
    k = int(k)
    algo = lines.algo(
        kind, n_features, seed=int(seed), criterion=criterion, prune=lines.flag(pruned), k=k or None
    )
    if (kind == "rt") != (k > 0):
        raise lines.error(f"{kind} tree has k {k}; dt requires k 0, rt k >= 1")
    arrays = _parse_nodes(lines, n_features, tree)
    return TreeModel(*arrays, algo.criterion, algo.prune, k, algo.seed, n_features)


def _forest_body(model: ForestModel) -> Iterator[list[str]]:
    p = model.params
    yield [
        f"trees {p.trees}",
        f"k {p.k}",
        f"bootstrap_fraction {p.bootstrap_fraction!r}",
        f"bootstrap {int(p.bootstrap)}",
        f"seed {p.seed}",
    ]
    for tree in model.trees:
        yield ["tree"]
        yield from _tree_body(tree)


def _parse_forest_body(lines: _Lines, n_features: int) -> ForestModel:
    trees, k, fraction, bootstrap, seed = lines.fields(
        "trees", "k", "bootstrap_fraction", "bootstrap", "seed"
    )
    params = lines.algo(
        "rf", n_features, seed=int(seed), k=int(k), trees=int(trees),
        bootstrap_fraction=lines.number(fraction), bootstrap=lines.flag(bootstrap),
    )
    members = []
    for i in range(params.trees):
        if lines.next() != "tree":
            raise lines.error("expected 'tree' marker")
        tree = _parse_tree_body(lines, n_features, "rt", i)
        nodes = (tree.feature, tree.low, tree.high, tree.n_benign, tree.n_malware)
        for got, want in zip(_tree_head(tree), _tree_head(_member(nodes, params, i, n_features))):
            if got != want:
                raise lines.error(f"forest member has {got}, forest has {want}")
        members.append((*nodes, [0]))
    return _stack(members, params, n_features)


def _logit_body(model: LogitModel) -> Iterator[list[str]]:
    out = [
        f"intercept {model.intercept!r}",
        f"iterations_used {model.iterations_used}",
        f"max_iterations {model.max_iterations}",
        f"cv_folds {model.cv_folds}",
        f"n_features {model.n_features}",
    ]
    out.extend(f"R {r.feature} {r.value_if_0!r} {r.value_if_1!r}" for r in model.regressors)
    yield out


def _parse_logit_body(lines: _Lines, n_features: int) -> LogitModel:
    intercept, iterations, max_iterations, cv_folds, width = lines.fields(
        "intercept", "iterations_used", "max_iterations", "cv_folds", "n_features"
    )
    lines.check_width(width, n_features)
    algo = lines.algo("sl", n_features, max_iter=int(max_iterations), cv_folds=int(cv_folds))
    iterations = int(iterations)
    if not 0 <= iterations <= algo.max_iter:
        raise lines.error(f"iterations_used {iterations} outside [0, {algo.max_iter}]")
    regs = []
    for _ in range(iterations):
        parts = lines.next().split(" ")
        if len(parts) != 4 or parts[0] != "R":
            raise lines.error("bad regressor line")
        feature = lines.feature(parts[1], n_features)
        regs.append(LogitRegressor(feature, lines.number(parts[2]), lines.number(parts[3])))
    return LogitModel(lines.number(intercept), tuple(regs), iterations, algo.max_iter, algo.cv_folds, n_features)


# kind -> (body writer, yielding the body's lines a part at a time, and body parser)
_BODIES = {
    "nb": (_nb_body, _parse_nb_body),
    "dt": (_tree_body, functools.partial(_parse_tree_body, kind="dt")),
    "rt": (_tree_body, functools.partial(_parse_tree_body, kind="rt")),
    "rf": (_forest_body, _parse_forest_body),
    "sl": (_logit_body, _parse_logit_body),
}


def save_model(model: Model, path, catalog: FeatureCatalog) -> None:
    """Write `model` to `path`, stamped with `catalog`'s fingerprint, a
    part of its body (a forest's tree) at a time."""
    write_body, _ = _BODIES[model.kind]
    head = f"{_MAGIC} {_VERSION} {model.kind}\ncatalog {catalog.fingerprint()}\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(head)
        for part in write_body(model):
            f.write("\n".join(part) + "\n")


def load_model(path, catalog: FeatureCatalog) -> Model:
    """Load a model file, verifying version, kind and catalog fingerprint, and
    that the model's width and feature indices fit the catalog."""
    lines = _Lines(path)
    header = lines.next().split(" ")
    if len(header) != 3 or header[0] != _MAGIC:
        raise lines.error("not a model file")
    if header[1] != _VERSION:
        raise lines.error(f"unsupported version {header[1]!r}")
    kind = header[2]
    (stored,) = lines.fields("catalog")
    actual = catalog.fingerprint()
    if stored != actual:
        raise lines.error(
            f"catalog fingerprint mismatch: model built for {stored!r}, "
            f"current catalog is {actual!r}"
        )
    if kind not in _BODIES:
        raise lines.error(f"unknown model kind {kind!r}")
    _, parse_body = _BODIES[kind]
    try:
        model = parse_body(lines, len(catalog))
    except ModelFormatError:
        raise
    except (ValueError, OverflowError) as exc:
        raise lines.error(f"malformed model file: {exc}") from None
    if not lines.done():
        raise lines.error("trailing content after model body")
    return model
