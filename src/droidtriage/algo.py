"""Uniform handle over the five classifier families.

A descriptor bundles a classifier kind with its hyperparameters and a seed,
so the evaluation harness and the command line can train and score any model
through one interface. Kinds: nb (naive Bayes), dt (decision tree), rt
(random tree), rf (random forest), sl (simple logistic). Every trained model
carries its ``kind`` tag and scores a matrix with ``model.scores(X)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bayes, ensemble, trees
from .dataset import Dataset, Label

KINDS = ("nb", "dt", "rt", "rf", "sl")

Model = bayes.NbModel | trees.TreeModel | ensemble.ForestModel | ensemble.LogitModel


@dataclass(frozen=True)
class AlgoDescriptor:
    """A classifier kind plus the hyperparameters its trainer needs.

    ``k`` of None means "use floor(log2 F) + 1 random features per split",
    resolved against the training data's feature count.
    """

    kind: str
    seed: int = 0
    alpha: float = 1.0           # nb
    criterion: str = trees.ENTROPY  # dt
    prune: bool = False          # dt
    k: int | None = None         # rt, rf
    trees: int = 10              # rf
    bootstrap_fraction: float = 1.0  # rf
    bootstrap: bool = True       # rf
    max_iter: int = 30           # sl
    cv_folds: int = 5            # sl

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown algorithm kind {self.kind!r}")
        if self.kind == "nb" and not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("smoothing alpha must be finite and positive")
        if self.kind == "dt" and self.criterion not in trees.CRITERIA:
            raise ValueError(f"criterion must be one of {trees.CRITERIA}")
        if self.kind in ("rt", "rf") and self.k is not None and self.k < 1:
            raise ValueError("k must be at least 1")
        if self.kind == "rf":
            if self.trees < 1:
                raise ValueError("forest needs at least one tree")
            if not 0.0 < self.bootstrap_fraction <= 1.0:
                raise ValueError("bootstrap fraction must lie in (0, 1]")
        if self.kind == "sl":
            if self.max_iter < 1:
                raise ValueError("max_iter must be at least 1")
            if self.cv_folds < 2:
                raise ValueError("cv_folds must be at least 2")

    def split_count(self, n_features: int) -> int:
        return self.k if self.k is not None else trees.default_split_count(n_features)


def train_model(algo: AlgoDescriptor, dataset: Dataset, workers: int = 1) -> Model:
    """Train the classifier `algo` describes on `dataset`."""
    if algo.kind == "nb":
        return bayes.train_nb(dataset, algo.alpha)
    if algo.kind == "dt":
        return trees.train_decision_tree(dataset, algo.criterion, algo.prune, algo.seed)
    if algo.kind == "rt":
        return trees.train_random_tree(dataset, algo.split_count(dataset.feature_count), algo.seed)
    if algo.kind == "rf":
        params = ensemble.ForestParams(
            trees=algo.trees,
            k=algo.split_count(dataset.feature_count),
            bootstrap_fraction=algo.bootstrap_fraction,
            bootstrap=algo.bootstrap,
            seed=algo.seed,
        )
        return ensemble.train_forest(dataset, params, workers=workers)
    if algo.kind == "sl":
        return ensemble.train_simple_logistic(dataset, algo.max_iter, algo.cv_folds, algo.seed)
    raise ValueError(f"unknown algorithm kind {algo.kind!r}")


def model_scores(model: Model, X) -> np.ndarray:
    """Malware score in [0, 1] for every row of `X`, any model kind."""
    return model.scores(X)


def predict(model: Model, vector) -> tuple[Label, float]:
    """Label and score of one vector: MALWARE only above 0.5, so a tie is BENIGN,
    the conservative choice for a detector judged on its false positive rate."""
    bits = np.asarray(vector)
    if bits.shape != (model.n_features,):
        raise ValueError(
            f"vector length {bits.shape} does not match model features {model.n_features}"
        )
    score = float(model.scores(bits[None, :])[0])
    return (Label.MALWARE if score > 0.5 else Label.BENIGN), score
