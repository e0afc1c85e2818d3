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
from .dataset import Dataset

KINDS = ("nb", "dt", "rt", "rf", "sl")

# sl keeps a log-likelihood per boosting iteration and data-long float arrays per
# fold, rf a seed and row weights per tree; caps keep a mistyped flag from allocating without end.
MAX_ITER = 10_000
MAX_CV_FOLDS = 10
MAX_TREES = 1000

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
        """Every field is checked whatever the kind, so any descriptor is
        safe to hand to any trainer; the trainers check only the data."""
        if self.kind not in KINDS:
            raise ValueError(f"unknown algorithm kind {self.kind!r}; choose from {', '.join(KINDS)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("smoothing alpha must be finite and positive")
        if self.criterion not in trees.CRITERIA:
            raise ValueError(f"criterion must be one of {trees.CRITERIA}")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be at least 1")
        if self.trees < 1:
            raise ValueError("forest needs at least one tree")
        if self.trees > MAX_TREES:
            raise ValueError(f"trees must be at most {MAX_TREES}")
        if not 0.0 < self.bootstrap_fraction <= 1.0:
            raise ValueError("bootstrap fraction must lie in (0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.max_iter > MAX_ITER:
            raise ValueError(f"max_iter must be at most {MAX_ITER}")
        if not 2 <= self.cv_folds <= MAX_CV_FOLDS:
            raise ValueError(f"cv_folds must lie in [2, {MAX_CV_FOLDS}]")

    def split_count(self, n_features: int) -> int:
        return self.k if self.k is not None else trees.default_split_count(n_features)


def train_model(algo: AlgoDescriptor, dataset: Dataset, rows=None) -> Model:
    """Train the classifier `algo` describes on the rows of `dataset` that
    the bool mask `rows` selects (every row when None)."""
    # Looked up on every call, so a trainer replaced on its module is the one called.
    trainers = {
        "nb": bayes.train_nb,
        "dt": trees.train_decision_tree,
        "rt": trees.train_random_tree,
        "rf": ensemble.train_forest,
        "sl": ensemble.train_simple_logistic,
    }
    return trainers[algo.kind](dataset, algo, rows)


def model_scores(model: Model, X) -> np.ndarray:
    """Malware score in [0, 1] for every row of `X`, any model kind."""
    return model.scores(X)


def is_malware(scores) -> np.ndarray:
    """The label rule: MALWARE only above 0.5, so a tie is BENIGN, the
    conservative choice for a detector judged on its false positive rate."""
    return np.asarray(scores) > 0.5
