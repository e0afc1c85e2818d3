"""Bernoulli naive Bayes with Laplace smoothing.

Each feature bit is modeled as class-conditionally independent Bernoulli.
Smoothing keeps every conditional strictly inside (0, 1), and posteriors are
evaluated in log space so 179-feature products cannot underflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dataset import Dataset, DatasetError

if TYPE_CHECKING:
    from .algo import AlgoDescriptor


@dataclass(frozen=True, eq=False)
class NbModel:
    """Smoothed class-conditional bit probabilities plus the malware prior."""

    kind = "nb"

    prior_malware: float
    theta_benign: np.ndarray
    theta_malware: np.ndarray
    alpha: float

    def __post_init__(self):
        for attr in ("theta_benign", "theta_malware"):
            t = np.ascontiguousarray(getattr(self, attr), dtype=np.float64)
            if np.any(t <= 0.0) or np.any(t >= 1.0):
                raise ValueError(f"{attr} must lie strictly inside (0, 1)")
            t.setflags(write=False)
            object.__setattr__(self, attr, t)
        if self.theta_benign.shape != self.theta_malware.shape:
            raise ValueError("conditional probability arrays must have equal shape")
        if not 0.0 < self.prior_malware < 1.0:
            raise ValueError("prior must lie strictly inside (0, 1)")

    @property
    def n_features(self) -> int:
        return self.theta_benign.shape[0]

    def scores(self, X) -> np.ndarray:
        return nb_scores(self, X)


def train_nb(dataset: Dataset, algo: AlgoDescriptor, rows=None) -> NbModel:
    """Fit conditionals theta = (count(bit=1, class) + alpha) / (n_class + 2 alpha)
    on the rows the bool mask `rows` selects (every row when None).

    The prior is the malware fraction of those rows. Requires both classes
    present.
    """
    counts, (pos_ben, pos_mal) = dataset.class_feature_counts(rows)
    n_ben, n_mal = counts.tolist()
    if n_ben == 0 or n_mal == 0:
        raise DatasetError("training requires both classes present")
    alpha = algo.alpha
    return NbModel(
        prior_malware=n_mal / (n_ben + n_mal),
        theta_benign=(pos_ben + alpha) / (n_ben + 2.0 * alpha),
        theta_malware=(pos_mal + alpha) / (n_mal + 2.0 * alpha),
        alpha=alpha,
    )


def nb_scores(model: NbModel, X) -> np.ndarray:
    """Posterior P(malware | x) for every row of `X`, computed in log space."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"matrix width {X.shape[1] if X.ndim == 2 else X.shape} does not match "
            f"model features {model.n_features}"
        )
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
