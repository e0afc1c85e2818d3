"""Mutual-information feature ranking against the class label.

For a binary feature and a binary label the mutual information equals the
information gain, so a single base-2 score serves both names. Scores are
computed from the four-cell contingency counts with the 0*log(0) = 0
convention and no smoothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .dataset import Dataset, DatasetError


@dataclass(frozen=True)
class FeatureClassCounts:
    """Contingency counts of one binary feature against the class label."""

    n_pos_ben: int
    n_pos_mal: int
    n_ben: int
    n_mal: int

    def __post_init__(self):
        if not 0 <= self.n_pos_ben <= self.n_ben:
            raise ValueError("n_pos_ben must lie in [0, n_ben]")
        if not 0 <= self.n_pos_mal <= self.n_mal:
            raise ValueError("n_pos_mal must lie in [0, n_mal]")
        if self.n_ben + self.n_mal < 1:
            raise ValueError("counts describe an empty dataset")


@dataclass(frozen=True)
class RankedFeature:
    name: str
    score: float


def mutual_information(counts: FeatureClassCounts) -> float:
    """Mutual information, in bits, between a feature bit and the label.

    Computed as ``sum p(x,y) * log2(p(x,y) / (p(x) p(y)))`` over the four
    cells, with empty cells contributing zero. The result lies in [0, 1]
    and is 0 exactly when the feature rate is identical in both classes.
    """
    n = counts.n_ben + counts.n_mal
    cells = (
        (counts.n_ben - counts.n_pos_ben, 0, counts.n_ben),   # x=0, benign
        (counts.n_mal - counts.n_pos_mal, 0, counts.n_mal),   # x=0, malware
        (counts.n_pos_ben, 1, counts.n_ben),                  # x=1, benign
        (counts.n_pos_mal, 1, counts.n_mal),                  # x=1, malware
    )
    n_pos = counts.n_pos_ben + counts.n_pos_mal
    marginal_x = (n - n_pos, n_pos)
    score = 0.0
    for cell, x, class_total in cells:
        if cell == 0:
            continue
        p_xy = cell / n
        p_x = marginal_x[x] / n
        p_y = class_total / n
        score += p_xy * math.log2(p_xy / (p_x * p_y))
    return max(score, 0.0)


def rank_features(dataset: Dataset) -> list[RankedFeature]:
    """Score every catalog feature and sort descending.

    Ties break by ascending feature name so that rankings are fully
    deterministic. Requires at least one instance of each class.
    """
    return rank_by_counts(dataset.catalog.names, *dataset.class_feature_counts())


def rank_by_counts(names: Sequence[str], counts, ones) -> list[RankedFeature]:
    """`rank_features` of the features `names` from their class counts:
    rows per class, shape (2,), and 1-bits per class and feature, shape
    (2, F), as `Dataset.class_feature_counts` gives them."""
    n_ben, n_mal = counts.tolist()
    if n_ben == 0 or n_mal == 0:
        raise DatasetError("ranking requires at least one instance of each class")
    ranked = [
        RankedFeature(name, mutual_information(FeatureClassCounts(pos_ben, pos_mal, n_ben, n_mal)))
        for name, pos_ben, pos_mal in zip(names, *ones.tolist())
    ]
    ranked.sort(key=lambda r: (-r.score, r.name))
    return ranked


def top_k(ranking: Sequence[RankedFeature], k: int) -> list[str]:
    """Names of the k highest-scoring features, in rank order."""
    if not 1 <= k <= len(ranking):
        raise ValueError(f"k must lie in [1, {len(ranking)}], got {k}")
    return [r.name for r in ranking[:k]]


def format_ranking(ranking: Sequence[RankedFeature]) -> str:
    """A ranking as CSV text ``rank,name,score`` with 6-decimal scores."""
    rows = (f"{i},{r.name},{r.score:.6f}\n" for i, r in enumerate(ranking, start=1))
    return "rank,name,score\n" + "".join(rows)


def write_ranking(ranking: Sequence[RankedFeature], path) -> None:
    """Write `format_ranking` of a ranking to `path`."""
    Path(path).write_text(format_ranking(ranking), encoding="utf-8", newline="\n")
