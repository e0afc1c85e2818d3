"""Model persistence: a line-oriented text format shared by all five kinds.

Every file starts with ``droidtriage-model v1 <kind>`` and the fingerprint of
the catalog the model was trained under; loading verifies the fingerprint
against the caller's catalog so vectors can never be silently misaligned.
Floats are written with ``repr``, which round-trips exactly, and tree leaves
store integer counts, so a reloaded model predicts bit-identically. The body
after those two lines depends on the kind; `_BODIES` maps each kind to the
functions that write and parse it.
"""

from __future__ import annotations

from pathlib import Path

from .algo import Model
from .bayes import NbModel
from .catalog import FeatureCatalog, read_lines
from .ensemble import ForestModel, ForestParams, LogitModel, LogitRegressor
from .trees import Leaf, Split, TreeModel, TreeNode

_MAGIC = "droidtriage-model"
_VERSION = "v1"


class ModelFormatError(ValueError):
    """A model file is malformed or belongs to a different catalog."""


class _Lines:
    """The lines of a model file, consumed in order; errors name the file."""

    def __init__(self, path):
        self._lines = read_lines(path, ModelFormatError)
        self._pos = 0
        self._path = path

    def error(self, message: str) -> ModelFormatError:
        return ModelFormatError(f"{self._path}: {message}")

    def next(self) -> str:
        if self._pos >= len(self._lines):
            raise self.error("unexpected end of file")
        self._pos += 1
        return self._lines[self._pos - 1]

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
            raise self.error(f"model has {count} features, catalog has {n_features}")

    def feature(self, text: str, n_features: int) -> int:
        f = int(text)
        if not 0 <= f < n_features:
            raise self.error(f"feature index {f} outside [0, {n_features})")
        return f

    def done(self) -> bool:
        return self._pos >= len(self._lines)


def _nb_body(model: NbModel) -> list[str]:
    return [
        f"alpha {float(model.alpha)!r}",
        f"prior {float(model.prior_malware)!r}",
        "theta_benign " + " ".join(repr(float(v)) for v in model.theta_benign),
        "theta_malware " + " ".join(repr(float(v)) for v in model.theta_malware),
    ]


def _parse_nb_body(lines: _Lines, n_features: int) -> NbModel:
    alpha, prior, *thetas = lines.fields("alpha", "prior", "theta_benign", "theta_malware")
    theta_b, theta_m = ([float(v) for v in theta.split(" ")] for theta in thetas)
    lines.check_width(len(theta_b), n_features)
    return NbModel(float(prior), theta_b, theta_m, float(alpha))


def _tree_body(model: TreeModel) -> list[str]:
    out = [
        f"criterion {model.criterion}",
        f"pruned {int(model.pruned)}",
        f"k {model.k}",
        f"seed {model.seed}",
        f"n_features {model.n_features}",
    ]
    stack = [model.root]  # preorder: a split, its low subtree, its high subtree
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(f"L {node.n_benign} {node.n_malware}")
        else:
            out.append(f"S {node.feature}")
            stack += (node.high, node.low)
    return out


def _parse_nodes(lines: _Lines, n_features: int) -> TreeNode:
    """One preorder tree, parsed with an explicit stack of open splits."""
    open_splits: list[list] = []  # [feature, low child or None]
    while True:
        line = lines.next()
        parts = line.split(" ")
        if parts[0] == "S" and len(parts) == 2:
            open_splits.append([lines.feature(parts[1], n_features), None])
            continue
        if parts[0] != "L" or len(parts) != 3:
            raise lines.error(f"bad tree node line {line!r}")
        node: TreeNode = Leaf(int(parts[1]), int(parts[2]))
        if node.n_benign < 0 or node.n_malware < 0:
            raise lines.error(f"negative leaf count in {line!r}")
        while open_splits and open_splits[-1][1] is not None:
            feature, low = open_splits.pop()
            node = Split(feature, low, node)
        if not open_splits:
            return node
        open_splits[-1][1] = node


def _parse_tree_body(lines: _Lines, n_features: int) -> TreeModel:
    criterion, pruned, k, seed, width = lines.fields(
        "criterion", "pruned", "k", "seed", "n_features"
    )
    lines.check_width(width, n_features)
    root = _parse_nodes(lines, n_features)
    return TreeModel(root, criterion, bool(int(pruned)), int(k), int(seed), n_features)


def _forest_body(model: ForestModel) -> list[str]:
    p = model.params
    out = [
        f"trees {p.trees}",
        f"k {p.k}",
        f"bootstrap_fraction {p.bootstrap_fraction!r}",
        f"bootstrap {int(p.bootstrap)}",
        f"seed {p.seed}",
    ]
    for tree in model.trees:
        out.append("tree")
        out.extend(_tree_body(tree))
    return out


def _parse_forest_body(lines: _Lines, n_features: int) -> ForestModel:
    trees, k, fraction, bootstrap, seed = lines.fields(
        "trees", "k", "bootstrap_fraction", "bootstrap", "seed"
    )
    params = ForestParams(int(trees), int(k), float(fraction), bool(int(bootstrap)), int(seed))
    members = []
    for _ in range(params.trees):
        if lines.next() != "tree":
            raise lines.error("expected 'tree' marker")
        members.append(_parse_tree_body(lines, n_features))
    return ForestModel(tuple(members), params)


def _logit_body(model: LogitModel) -> list[str]:
    out = [
        f"intercept {model.intercept!r}",
        f"iterations_used {model.iterations_used}",
        f"max_iterations {model.max_iterations}",
        f"cv_folds {model.cv_folds}",
        f"n_features {model.n_features}",
    ]
    out.extend(f"R {r.feature} {r.value_if_0!r} {r.value_if_1!r}" for r in model.regressors)
    return out


def _parse_logit_body(lines: _Lines, n_features: int) -> LogitModel:
    intercept, iterations, max_iterations, cv_folds, width = lines.fields(
        "intercept", "iterations_used", "max_iterations", "cv_folds", "n_features"
    )
    lines.check_width(width, n_features)
    regs = []
    for _ in range(int(iterations)):
        parts = lines.next().split(" ")
        if len(parts) != 4 or parts[0] != "R":
            raise lines.error("bad regressor line")
        feature = lines.feature(parts[1], n_features)
        regs.append(LogitRegressor(feature, float(parts[2]), float(parts[3])))
    return LogitModel(
        float(intercept), tuple(regs), int(iterations), int(max_iterations), int(cv_folds), n_features
    )


# kind -> (body writer, body parser)
_BODIES = {
    "nb": (_nb_body, _parse_nb_body),
    "dt": (_tree_body, _parse_tree_body),
    "rt": (_tree_body, _parse_tree_body),
    "rf": (_forest_body, _parse_forest_body),
    "sl": (_logit_body, _parse_logit_body),
}


def save_model(model: Model, path, catalog: FeatureCatalog) -> None:
    """Write `model` to `path`, stamped with `catalog`'s fingerprint."""
    write_body, _ = _BODIES[model.kind]
    out = [f"{_MAGIC} {_VERSION} {model.kind}", f"catalog {catalog.fingerprint()}"]
    out.extend(write_body(model))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8", newline="\n")


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
            f"catalog fingerprint mismatch: model built for {stored}, "
            f"current catalog is {actual}"
        )
    if kind not in _BODIES:
        raise lines.error(f"unknown model kind {kind!r}")
    _, parse_body = _BODIES[kind]
    try:
        model = parse_body(lines, len(catalog))
    except ModelFormatError:
        raise
    except ValueError as exc:
        raise lines.error(f"malformed model file: {exc}") from None
    if not lines.done():
        raise lines.error("trailing content after model body")
    return model
