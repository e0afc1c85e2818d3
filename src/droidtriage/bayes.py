"""Bernoulli naive Bayes with Laplace smoothing.

Each feature bit is modeled as class-conditionally independent Bernoulli.
Smoothing keeps every conditional strictly inside (0, 1), and posteriors are
evaluated in log space so 179-feature products cannot underflow. Scoring
converts rows to float64 one block of cells at a time, so
it never holds a float copy of the whole matrix. A block is a multiple of
64 rows and a one-row tail joins the block before it; on OpenBLAS this
keeps the bits of one whole-matrix product on one thread, for any number
of BLAS threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dataset import Dataset, DatasetError, _block_len, _checked_matrix

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


def _block_rows(n_features: int) -> int:
    """Rows per scoring block: a block of float64 cells, rounded down to a
    multiple of 64 rows and at least 64."""
    return max(64, _block_len(8 * n_features) // 64 * 64)


def nb_scores(model: NbModel, X) -> np.ndarray:
    """Posterior P(malware | x) for every row of `X`, a matrix or
    `PackedRows`, computed in log space.

    Rows are converted to float64 and scored a block of `_block_rows` at a
    time, so memory holds the output and one block's temporaries."""
    X = _checked_matrix(X, model.n_features)
    log_theta_mal, log1m_theta_mal = np.log(model.theta_malware), np.log1p(-model.theta_malware)
    log_theta_ben, log1m_theta_ben = np.log(model.theta_benign), np.log1p(-model.theta_benign)
    log_prior_mal, log_prior_ben = np.log(model.prior_malware), np.log1p(-model.prior_malware)
    n = X.shape[0]
    out = np.empty(n)
    # A last block of one row joins the block before it: numpy takes a one-row
    # product as a dot product, whose last bits can differ from a matrix row's.
    starts = range(0, max(n - 1, 1), _block_rows(model.n_features))
    for lo, hi in zip(starts, [*starts[1:], n]):
        x = X[lo:hi].astype(np.float64)
        log_mal = log_prior_mal + x @ log_theta_mal + (1.0 - x) @ log1m_theta_mal
        log_ben = log_prior_ben + x @ log_theta_ben + (1.0 - x) @ log1m_theta_ben
        peak = np.maximum(log_mal, log_ben)
        mal = np.exp(log_mal - peak)
        ben = np.exp(log_ben - peak)
        out[lo:hi] = mal / (mal + ben)
    return out
