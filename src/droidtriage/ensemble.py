"""Ensemble learners: bagged random forests and boosted simple logistic.

The forest trains T random trees, each on its own bootstrap resample, and
aggregates hard majority votes. A resample is kept as a count per row, in
the smallest unsigned dtype that holds it, not a copy of the data, and the
trees grow together, one depth level at a time.
Every tree derives its own seed from the master seed with a fixed 64-bit
mixing function, so the model is a pure function of (dataset, descriptor) no
matter how its trees are cut into batches or how many worker processes grow them.

Simple logistic is stagewise additive logistic regression: each boosting
iteration computes Newton-step working responses z with weights w = p(1-p),
fits the single-feature weighted least-squares regressor that reduces the
weighted squared error most, and takes a half step. On a binary feature the
exact least-squares fit is just the weighted mean of z in each bit cell, so
no numeric solver is involved; its sums are taken over fixed blocks of the
uint8 rows, so no bit depends on the BLAS thread count. The iteration count
is chosen by k-fold cross-validated log-likelihood. The fold models and the
all-data model boost together in one loop, each with its own 0/1 row weights,
and the model keeps the all-data model's regressors up to the chosen count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .dataset import (
    Dataset,
    DatasetError,
    _blocks,
    _checked_matrix,
    _packed,
    bootstrap_sample_size,
    stratified_fold_indices,
)
from .trees import ENTROPY, TreeModel, Trees, _descend, _grown, _narrow, _row_weights, derive_seed

if TYPE_CHECKING:
    from .algo import AlgoDescriptor

# Fixed constants of the boosting procedure.
Z_MAX = 3.0
WEIGHT_FLOOR = 1e-10
_P_CLIP = 1e-15
# Rows per block of sl's weighted column sums: fixed blocks round alike on any number of
# BLAS threads, and 11 members x 128 rows x 179 features stays on one OpenBLAS thread.
_SUM_ROWS = 128


@dataclass(frozen=True, eq=False)
class ForestModel:
    """Member trees' nodes, stacked: tree i starts at node ``offsets[i]``, its child ids count from there."""

    kind = "rf"

    feature: np.ndarray
    low: np.ndarray
    high: np.ndarray
    n_benign: np.ndarray
    n_malware: np.ndarray
    offsets: np.ndarray
    params: AlgoDescriptor  # the rf descriptor it was trained with, k resolved
    n_features: int

    def __post_init__(self):
        if len(self.offsets) != self.params.trees:
            raise ValueError(f"forest holds {len(self.offsets)} trees, its params {self.params.trees}")
        if self.params.k is None or not 1 <= self.params.k <= self.n_features:
            raise ValueError(f"forest k {self.params.k} must be resolved to [1, {self.n_features}]")

    @property
    def trees(self) -> tuple[TreeModel, ...]:
        columns = (self.feature, self.low, self.high, self.n_benign, self.n_malware)
        members = zip(*(np.split(a, self.offsets[1:]) for a in columns))
        return tuple(_member(arrays, self.params, i, self.n_features) for i, arrays in enumerate(members))

    def scores(self, X) -> np.ndarray:
        return forest_scores(self, X)


def _member(arrays, params: AlgoDescriptor, i: int, n_features: int) -> TreeModel:
    """Tree i of a forest with `params`: entropy, unpruned, the forest's k, seed derive_seed(seed, i)."""
    return TreeModel(*arrays, ENTROPY, False, params.k, derive_seed(params.seed, i), n_features)


def _stack(parts, params: AlgoDescriptor, n_features: int) -> ForestModel:
    """The forest of `parts` in order, each a run of trees laid out as `trees._grow` returns them."""
    starts = np.cumsum([0] + [part[0].size for part in parts])
    *nodes, _ = (np.concatenate(column) for column in zip(*parts))
    offsets = np.concatenate([np.add(part[5], start) for part, start in zip(parts, starts)])
    return ForestModel(*nodes, offsets, params, n_features)


def _forest(dataset: Dataset, algo: AlgoDescriptor, rows=None) -> Trees:
    """The forest's trees: tree i's key is its seed ``derive_seed(algo.seed, i)``,
    and its weights are its resample of the selected rows, as a count per row,
    drawn when its batch grows."""
    params = replace(algo, k=algo.split_count(dataset.feature_count))
    seeds = [derive_seed(params.seed, i) for i in range(params.trees)]
    mask = _row_weights(dataset, rows)
    n = np.count_nonzero(mask)
    size = bootstrap_sample_size(n, params.bootstrap_fraction)

    def resample(i: int) -> np.ndarray:
        selected = np.flatnonzero(mask)
        draw = np.random.default_rng(derive_seed(seeds[i], 1)).integers(0, n, size)
        return _narrow(np.bincount(selected[draw], minlength=len(dataset)))

    def model(grown):
        return _stack(grown, params, dataset.feature_count)

    if not params.bootstrap:
        return Trees(lambda i: mask, [n] * params.trees, seeds, params.k, ENTROPY, model)
    distinct = round(-n * math.expm1(size * math.log1p(-1 / n))) if n > 1 else 1  # a draw's rows, on average
    return Trees(resample, [distinct] * params.trees, seeds, params.k, ENTROPY, model)


def train_forest(dataset: Dataset, algo: AlgoDescriptor, rows=None) -> ForestModel:
    """Train a bagged forest of ``algo.trees`` random trees, each examining
    ``k = algo.split_count(F)`` candidates per split, on the rows the bool
    mask `rows` selects (every row when None), in this process.

    Tree i has seed ``derive_seed(algo.seed, i)``: it is the root key of
    the tree's per-node candidate keys (see `trees.train_random_tree`), and
    ``derive_seed(tree_seed, 1)`` seeds its bootstrap draw of
    ``algo.bootstrap_fraction`` of the selected rows; with ``algo.bootstrap``
    off, every tree sees all of them. The draw becomes a count per row, so
    tree i equals ``train_random_tree`` on the resampled copy without the
    copy being made. The trees grow together, one depth level at a time, in
    batches of at most `trees.BATCH_ENTRIES` entries; `algo.train_model`
    grows the same batches on `pool.run`, and the forest is the same either
    way. With one tree and bootstrap off, it is exactly `train_random_tree`
    with seed ``derive_seed(seed, 0)``.
    """
    return _grown(dataset, _forest(dataset, algo, rows))


def forest_scores(model: ForestModel, X) -> np.ndarray:
    """Malware vote fraction for every row of `X`, a matrix or `PackedRows`;
    a tree with a tied leaf votes benign. A matrix is packed once, and each
    tree's descent marks the rows it votes malware."""
    rows = _packed(X, model.n_features)
    votes = [_descend(t, rows, t.n_malware > t.n_benign) for t in model.trees]
    return np.concatenate(votes).sum(axis=0) / model.params.trees


class WorkingResponse(NamedTuple):
    """Newton-step regression targets and weights, one per instance (or a
    scalar pair for one instance)."""

    z: float | np.ndarray
    w: float | np.ndarray


def logitboost_response(y, p) -> WorkingResponse:
    """Working responses for labels `y` under probabilities `p` (scalars or arrays).

    z = (y - p) / (p (1 - p)) clamped to [-Z_MAX, Z_MAX]; w = p (1 - p)
    floored at a small positive constant so weighted fits stay defined.
    """
    if not np.all(np.greater(p, 0.0) & np.less(p, 1.0)):
        raise ValueError(f"p must lie strictly in (0, 1), got {p}")
    w = p * (1.0 - p)
    return WorkingResponse(np.clip((y - p) / w, -Z_MAX, Z_MAX), np.maximum(w, WEIGHT_FLOOR))


@dataclass(frozen=True)
class LogitRegressor:
    """Single-feature regressor: one fitted value per bit state."""

    feature: int
    value_if_0: float
    value_if_1: float


@dataclass(frozen=True)
class LogitModel:
    kind = "sl"

    intercept: float
    regressors: tuple[LogitRegressor, ...]
    iterations_used: int
    max_iterations: int
    cv_folds: int
    n_features: int

    def scores(self, X) -> np.ndarray:
        return logit_scores(self, X)


def _best_regressors(X, z, w, fitted) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact weighted least squares over all single-feature two-cell fits, one per
    row of `z`, `w` and 0/1 row weights `fitted`: its feature and its two cell values."""
    w = w * fitted
    wz = w * z
    sw = w.sum(axis=1, keepdims=True)
    swz = wz.sum(axis=1, keepdims=True)
    sw1, swz1 = np.zeros((2, w.shape[0], X.shape[1]))
    for lo in range(0, X.shape[0], _SUM_ROWS):
        x = X[lo : lo + _SUM_ROWS].astype(np.float64)
        sw1 += w[:, lo : lo + _SUM_ROWS] @ x
        swz1 += wz[:, lo : lo + _SUM_ROWS] @ x
    sw0 = sw - sw1
    swz0 = swz - swz1
    with np.errstate(divide="ignore", invalid="ignore"):
        explained = np.where(sw1 > 0.0, swz1 * swz1 / np.where(sw1 > 0.0, sw1, 1.0), 0.0)
        explained += np.where(sw0 > 0.0, swz0 * swz0 / np.where(sw0 > 0.0, sw0, 1.0), 0.0)
    residual = (wz * z).sum(axis=1, keepdims=True) - explained
    f = np.argmin(residual, axis=1)  # first minimum, i.e. lowest feature index
    s1, sz1, s0, sz0 = (np.take_along_axis(a, f[:, None], 1)[:, 0] for a in (sw1, swz1, sw0, swz0))
    v0 = np.divide(sz0, s0, out=np.zeros_like(sz0), where=s0 > 0.0)
    return f, v0, np.divide(sz1, s1, out=np.zeros_like(sz1), where=s1 > 0.0)


def _sigmoid2(F):
    """p = 1 / (1 + exp(-2 F)), computed stably for large |F|."""
    return 0.5 * (1.0 + np.tanh(F))


def log_likelihood(p, y) -> float:
    """Binomial log-likelihood of labels `y` under probabilities `p`."""
    p = np.clip(np.asarray(p, dtype=np.float64), _P_CLIP, 1.0 - _P_CLIP)
    y = np.asarray(y, dtype=np.float64)
    return float(np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def train_simple_logistic(dataset: Dataset, algo: AlgoDescriptor, rows=None) -> LogitModel:
    """Boosted additive logistic regression with CV-chosen iteration count, on
    the rows the bool mask `rows` selects (every row when None).

    The selected rows are split into ``algo.cv_folds`` stratified folds
    (drawn with ``algo.seed``). One member per fold boosts on the fold's
    complement and one more on every selected row, all together for
    ``algo.max_iter`` iterations: a member's weights are its 0/1 row mask
    times w, so held-out rows are scored but never fitted. The iteration
    count with the best summed held-out log-likelihood wins (ties go to the
    smaller count, and zero iterations, the constant p = 0.5 model, is a
    permitted winner), and the model is the all-rows member's first
    regressors up to that count.
    """
    X, y = (dataset.X, dataset.y) if rows is None else (dataset.X[rows], dataset.y[rows])
    n_mal = int(y.sum())
    if n_mal == 0 or n_mal == y.size:
        raise DatasetError("training requires both classes present")
    if dataset.feature_count == 0:
        raise DatasetError("need at least one feature")
    folds = stratified_fold_indices(y, algo.cv_folds, algo.seed)

    fitted = np.ones((len(folds) + 1, y.size))
    for member, test_idx in enumerate(folds):
        fitted[member, test_idx] = 0.0
    F = np.zeros(fitted.shape)
    held_out_ll, steps = [], []
    for _ in range(algo.max_iter + 1):
        held_out_ll.append(sum(log_likelihood(_sigmoid2(F[m, i]), y[i]) for m, i in enumerate(folds)))
        if len(steps) == algo.max_iter:
            break
        f, v0, v1 = _best_regressors(X, *logitboost_response(y, np.clip(_sigmoid2(F), _P_CLIP, 1.0 - _P_CLIP)), fitted)
        F = F + 0.5 * (v0[:, None] + (v1 - v0)[:, None] * X[:, f].T)
        steps.append(LogitRegressor(int(f[-1]), float(v0[-1]), float(v1[-1])))
    iterations_used = int(np.argmax(held_out_ll))  # first maximum: simplest model wins ties

    return LogitModel(
        0.0, tuple(steps[:iterations_used]), iterations_used, algo.max_iter, algo.cv_folds, dataset.feature_count
    )


def logit_scores(model: LogitModel, X) -> np.ndarray:
    """P(malware | x) = 1 / (1 + exp(-2 F(x))) for every row of `X`, a
    matrix or `PackedRows`. Rows are read a block at a time (a byte per
    cell), and each regressor reads its column of the block as it is, so no
    float copy of `X` is made; each row's sum is the same for any block."""
    X = _checked_matrix(X, model.n_features)
    F = np.full(X.shape[0], model.intercept)
    for s in _blocks(X.shape[0], model.n_features):
        x, f = X[s], F[s]
        for reg in model.regressors:
            f += 0.5 * (reg.value_if_0 + (reg.value_if_1 - reg.value_if_0) * x[:, reg.feature])
    return _sigmoid2(F)
