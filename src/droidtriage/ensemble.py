"""Ensemble learners: bagged random forests and boosted simple logistic.

The forest trains T random trees, each on its own bootstrap resample, and
aggregates hard majority votes. A resample is kept as a count per row, not a
copy of the data, and the trees grow together, one depth level at a time.
Every tree derives its own seed from the master seed with a fixed 64-bit
mixing function, so the model is a pure function of (dataset, descriptor) no
matter how many workers train in parallel.

Simple logistic is stagewise additive logistic regression: each boosting
iteration computes Newton-step working responses z with weights w = p(1-p),
fits the single-feature weighted least-squares regressor that reduces the
weighted squared error most, and takes a half step. On a binary feature the
exact least-squares fit is just the weighted mean of z in each bit cell, so
no numeric solver is involved. The iteration count is chosen by k-fold
cross-validated log-likelihood and the model is then refit on all data.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .dataset import Dataset, bootstrap_sample_size, stratified_fold_indices
from .trees import TreeModel, _descend, _pack_rows, derive_seed, grow_random_trees

if TYPE_CHECKING:
    from .algo import AlgoDescriptor

# Fixed constants of the boosting procedure.
Z_MAX = 3.0
WEIGHT_FLOOR = 1e-10
_P_CLIP = 1e-15


@dataclass(frozen=True)
class ForestModel:
    kind = "rf"

    trees: tuple[TreeModel, ...]
    params: AlgoDescriptor  # the rf descriptor it was trained with, k resolved

    @property
    def n_features(self) -> int:
        return self.trees[0].n_features

    def scores(self, X) -> np.ndarray:
        return forest_scores(self, X)


def _bootstrap_weights(n: int, params: AlgoDescriptor, tree_seed: int) -> np.ndarray:
    """How often each of `n` rows enters the tree's bootstrap resample."""
    size = bootstrap_sample_size(n, params.bootstrap_fraction)
    rng = np.random.default_rng(derive_seed(tree_seed, 1))
    return np.bincount(rng.integers(0, n, size=size), minlength=n)


def train_forest(dataset: Dataset, algo: AlgoDescriptor, workers: int = 1) -> ForestModel:
    """Train a bagged forest of ``algo.trees`` random trees, each examining
    ``k = algo.split_count(F)`` candidates per split.

    Tree i has seed ``derive_seed(algo.seed, i)``: it is the root key of
    the tree's per-node candidate keys (see `trees.train_random_tree`), and
    ``derive_seed(tree_seed, 1)`` seeds its bootstrap draw of
    ``algo.bootstrap_fraction`` of the rows; with ``algo.bootstrap`` off,
    every tree sees the full set. The draw becomes a count per row, so tree
    i equals ``train_random_tree`` on the resampled copy without the copy
    being made. All trees of a batch grow in one loop over depth levels;
    `workers` threads each grow a contiguous batch, and results are
    identical for any `workers` count. With one tree and bootstrap off, the
    forest is exactly `train_random_tree` with seed ``derive_seed(seed, 0)``.
    """
    params = replace(algo, k=algo.split_count(dataset.feature_count))
    seeds = [derive_seed(params.seed, i) for i in range(params.trees)]
    if params.bootstrap:
        weights = [_bootstrap_weights(len(dataset), params, s) for s in seeds]
    else:
        weights = [np.ones(len(dataset), dtype=np.int64)] * params.trees

    def grow(batch: slice) -> list[TreeModel]:
        return grow_random_trees(dataset, params.k, seeds[batch], weights[batch])

    n_batches = max(1, min(workers, params.trees))
    bounds = np.linspace(0, params.trees, n_batches + 1).astype(int).tolist()
    batches = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    with ThreadPoolExecutor(max_workers=n_batches) as pool:
        members = [tree for batch in pool.map(grow, batches) for tree in batch]
    return ForestModel(tuple(members), params)


def forest_scores(model: ForestModel, X) -> np.ndarray:
    """Malware vote fraction for every row of `X`; a tree with a tied leaf votes benign.
    `X` is packed once, and each tree's descent marks the rows it votes malware."""
    packed = _pack_rows(X, model.n_features)
    votes = [_descend(t, packed, t.n_malware > t.n_benign, len(X)) for t in model.trees]
    return np.concatenate(votes).sum(axis=0) / len(model.trees)


@dataclass(frozen=True)
class WorkingResponse:
    """Newton-step regression targets and weights, one per instance (or a
    scalar pair for one instance)."""

    z: float | np.ndarray
    w: float | np.ndarray


def logitboost_response(y, p, z_max: float = Z_MAX) -> WorkingResponse:
    """Working responses for labels `y` under probabilities `p` (scalars or arrays).

    z = (y - p) / (p (1 - p)) clamped to [-z_max, z_max]; w = p (1 - p)
    floored at a small positive constant so weighted fits stay defined.
    """
    if not np.all(np.greater(p, 0.0) & np.less(p, 1.0)):
        raise ValueError(f"p must lie strictly in (0, 1), got {p}")
    w = p * (1.0 - p)
    return WorkingResponse(np.clip((y - p) / w, -z_max, z_max), np.maximum(w, WEIGHT_FLOOR))


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


def _best_regressor(X, z, w) -> LogitRegressor:
    """Exact weighted least squares over all single-feature two-cell fits."""
    wz = w * z
    sw = w.sum()
    swz = wz.sum()
    sw1 = w @ X
    swz1 = wz @ X
    sw0 = sw - sw1
    swz0 = swz - swz1
    with np.errstate(divide="ignore", invalid="ignore"):
        explained = np.where(sw1 > 0.0, swz1 * swz1 / np.where(sw1 > 0.0, sw1, 1.0), 0.0)
        explained += np.where(sw0 > 0.0, swz0 * swz0 / np.where(sw0 > 0.0, sw0, 1.0), 0.0)
    residual = (w * z * z).sum() - explained
    f = int(np.argmin(residual))  # first minimum, i.e. lowest feature index
    v1 = swz1[f] / sw1[f] if sw1[f] > 0.0 else 0.0
    v0 = swz0[f] / sw0[f] if sw0[f] > 0.0 else 0.0
    return LogitRegressor(f, float(v0), float(v1))


def _apply_regressor(reg: LogitRegressor, X) -> np.ndarray:
    col = X[:, reg.feature]
    return reg.value_if_0 + (reg.value_if_1 - reg.value_if_0) * col


def _sigmoid2(F):
    """p = 1 / (1 + exp(-2 F)), computed stably for large |F|."""
    return 0.5 * (1.0 + np.tanh(F))


def log_likelihood(p, y) -> float:
    """Binomial log-likelihood of labels `y` under probabilities `p`."""
    p = np.clip(np.asarray(p, dtype=np.float64), _P_CLIP, 1.0 - _P_CLIP)
    y = np.asarray(y, dtype=np.float64)
    return float(np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _boost(X, y, iterations: int, X_eval=None, y_eval=None):
    """Run `iterations` boosting steps on (X, y).

    Returns the regressor list and, when an eval set is supplied, the eval
    log-likelihood after each iteration count 0..iterations.
    """
    F = np.zeros(X.shape[0])
    track = X_eval is not None
    regressors: list[LogitRegressor] = []
    lls = []
    if track:
        F_eval = np.zeros(X_eval.shape[0])
        lls.append(log_likelihood(_sigmoid2(F_eval), y_eval))
    for _ in range(iterations):
        p = np.clip(_sigmoid2(F), _P_CLIP, 1.0 - _P_CLIP)
        response = logitboost_response(y, p)
        reg = _best_regressor(X, response.z, response.w)
        regressors.append(reg)
        F = F + 0.5 * _apply_regressor(reg, X)
        if track:
            F_eval = F_eval + 0.5 * _apply_regressor(reg, X_eval)
            lls.append(log_likelihood(_sigmoid2(F_eval), y_eval))
    return regressors, lls


def train_simple_logistic(dataset: Dataset, algo: AlgoDescriptor) -> LogitModel:
    """Boosted additive logistic regression with CV-chosen iteration count.

    For each of ``algo.cv_folds`` stratified folds (drawn with ``algo.seed``),
    boosting runs on the complement for ``algo.max_iter`` iterations while
    tracking the held-out log-likelihood; the iteration count with the best
    mean held-out log-likelihood wins (ties go to the smaller count, and zero
    iterations, the constant p = 0.5 model, is a permitted winner). The model
    is then refit on all data for that count.
    """
    n_ben, n_mal = dataset.class_counts()
    if n_ben == 0 or n_mal == 0:
        raise ValueError("training requires both classes present")
    max_iter, cv_folds = algo.max_iter, algo.cv_folds

    X = dataset.X.astype(np.float64)
    y = dataset.y.astype(np.float64)
    folds = stratified_fold_indices(dataset.y, cv_folds, algo.seed)
    everything = np.arange(len(dataset))
    ll_sum = np.zeros(max_iter + 1)
    for test_idx in folds:
        train_idx = np.setdiff1d(everything, test_idx)
        _, lls = _boost(
            X[train_idx], y[train_idx], max_iter, X_eval=X[test_idx], y_eval=y[test_idx]
        )
        ll_sum += np.asarray(lls)
    iterations_used = int(np.argmax(ll_sum))  # first maximum: simplest model wins ties

    regressors, _ = _boost(X, y, iterations_used)
    return LogitModel(
        intercept=0.0,
        regressors=tuple(regressors),
        iterations_used=iterations_used,
        max_iterations=max_iter,
        cv_folds=cv_folds,
        n_features=dataset.feature_count,
    )


def logit_scores(model: LogitModel, X) -> np.ndarray:
    """P(malware | x) = 1 / (1 + exp(-2 F(x))) for every row of `X`."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != model.n_features:
        raise ValueError(
            f"matrix width {X.shape[1]} does not match model features {model.n_features}"
        )
    F = np.full(X.shape[0], model.intercept)
    for reg in model.regressors:
        F += 0.5 * _apply_regressor(reg, X)
    return _sigmoid2(F)


def training_log_likelihood(model: LogitModel, dataset: Dataset) -> float:
    """Log-likelihood of `dataset` under the model's probabilities."""
    return log_likelihood(logit_scores(model, dataset.X), dataset.y)
