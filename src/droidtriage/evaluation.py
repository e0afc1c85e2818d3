"""Evaluation harness: confusion metrics, ROC/AUC, and cross-validation.

Counts follow the (true class -> predicted class) convention with malware as
the positive ("sus") class. Cross-validation is stratified and pooled: fold
confusion matrices are summed into a single matrix and held-out scores are
concatenated into a single ROC, so each configuration yields one row of
rates, micro-averaged over the whole dataset.

`compare` trains every (feature set, algorithm, fold) fit on one plan,
`algo.train_models`: the trees of every dt, rt and rf fold grow in batches
shared by the folds of a (feature set, algorithm), and each fold of nb, sl
and a pruned dt trains on its own; the items run on `pool.run`, on as many
processes as `pool.workers` gives, and a fold is scored where its model is
completed. Every fit has its own derived seed, no fit's bits depend on the
BLAS thread count or on how the trees are batched, and each result is
assembled in fold order, so the outcome is the same for any worker count.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Sequence

import numpy as np

from .algo import AlgoDescriptor, Fit, FoldError, is_malware, model_scores, train_models
from .catalog import FeatureSet, select_feature_set
from .dataset import Dataset, stratified_fold_indices
from .ensemble import derive_seed


@dataclass(frozen=True)
class ConfusionMatrix:
    """The four (true -> predicted) counts; sus denotes the malware class."""

    n_ben_ben: int
    n_ben_sus: int
    n_sus_ben: int
    n_sus_sus: int

    def __post_init__(self):
        if min(self.n_ben_ben, self.n_ben_sus, self.n_sus_ben, self.n_sus_sus) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.n_ben_ben + self.n_ben_sus + self.n_sus_ben + self.n_sus_sus

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            self.n_ben_ben + other.n_ben_ben,
            self.n_ben_sus + other.n_ben_sus,
            self.n_sus_ben + other.n_sus_ben,
            self.n_sus_sus + other.n_sus_sus,
        )


def confusion(truth: Sequence[int], predicted: Sequence[int]) -> ConfusionMatrix:
    """Count (true -> predicted) outcomes; labels are 0 benign, 1 malware."""
    t = np.asarray(truth)
    p = np.asarray(predicted)
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: {t.shape} truth vs {p.shape} predictions")
    if t.size == 0:
        raise ValueError("cannot build a confusion matrix from empty lists")
    return ConfusionMatrix(
        int(np.sum((t == 0) & (p == 0))),
        int(np.sum((t == 0) & (p == 1))),
        int(np.sum((t == 1) & (p == 0))),
        int(np.sum((t == 1) & (p == 1))),
    )


@dataclass(frozen=True)
class MetricsReport:
    """Confusion-derived rates.

    ``precision`` is None when nothing was predicted malware (undefined
    denominator); the other rates are NaN when their true class is absent.
    """

    tpr: float
    tnr: float
    fpr: float
    fnr: float
    acc: float
    err: float
    precision: float | None
    matrix: ConfusionMatrix


def _rate(num: int, den: int) -> float:
    return num / den if den else math.nan


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Rates from a confusion matrix; requires a nonempty matrix.

    TPR = sus->sus / all sus, TNR = ben->ben / all ben, FPR and FNR are their
    complements, ACC is the diagonal fraction, ERR the off-diagonal fraction,
    and precision is sus->sus over everything predicted sus.
    """
    if cm.total == 0:
        raise ValueError("confusion matrix is empty")
    n_sus = cm.n_sus_sus + cm.n_sus_ben
    n_ben = cm.n_ben_ben + cm.n_ben_sus
    predicted_sus = cm.n_sus_sus + cm.n_ben_sus
    return MetricsReport(
        tpr=_rate(cm.n_sus_sus, n_sus),
        tnr=_rate(cm.n_ben_ben, n_ben),
        fpr=_rate(cm.n_ben_sus, n_ben),
        fnr=_rate(cm.n_sus_ben, n_sus),
        acc=(cm.n_ben_ben + cm.n_sus_sus) / cm.total,
        err=(cm.n_ben_sus + cm.n_sus_ben) / cm.total,
        precision=(cm.n_sus_sus / predicted_sus) if predicted_sus else None,
        matrix=cm,
    )


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Threshold-sweep staircase from (0,0) to (1,1) plus its area. The
    staircase is one (m, 3) float64 array of (fpr, tpr, threshold) rows;
    two curves are equal when their arrays and areas are."""

    staircase: np.ndarray
    auc: float

    @property
    def points(self) -> tuple[tuple[float, float, float], ...]:
        """The staircase's rows as tuples of floats."""
        return tuple(map(tuple, self.staircase.tolist()))

    def __eq__(self, other):
        if not isinstance(other, RocCurve):
            return NotImplemented
        return self.auc == other.auc and np.array_equal(self.staircase, other.staircase)


def roc_auc(scores: Sequence[float], truth: Sequence[int]) -> RocCurve:
    """ROC staircase and trapezoidal area from malware scores.

    Thresholds sweep the distinct scores in descending order; instances with
    equal scores enter together, which renders ties as diagonal segments.
    The trapezoidal area then equals the Mann-Whitney statistic with tied
    pairs counted one half.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truth)
    if s.shape != t.shape:
        raise ValueError(f"length mismatch: {s.shape} scores vs {t.shape} labels")
    n_pos = int(np.sum(t == 1))
    n_neg = int(t.size) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC requires both classes present")

    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    group_ends = np.append(np.flatnonzero(np.diff(s_sorted) != 0.0), s_sorted.size - 1)
    tp = np.cumsum(t[order] == 1)[group_ends]
    fpr = np.append(0.0, (group_ends + 1 - tp) / n_neg)
    tpr = np.append(0.0, tp / n_pos)
    # Trapezoids summed left to right, as a running total would add them.
    auc = np.add.accumulate((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0)[-1]
    return RocCurve(np.column_stack((fpr, tpr, np.append(math.inf, s_sorted[group_ends]))), float(auc))


def write_roc(curve: RocCurve, path) -> None:
    """Write the staircase as CSV ``fpr,tpr,threshold``."""
    rows = ["fpr,tpr,threshold"]
    rows.extend(f"{fpr!r},{tpr!r},{thr!r}" for fpr, tpr, thr in curve.points)
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")


@dataclass(frozen=True)
class CvResult:
    """Pooled k-fold cross-validation outcome for one configuration, with
    the seconds each fold's training and scoring took, measured where each
    ran; neither takes part in equality. A fold whose trees grew in a batch
    with other folds' trees is given the batch's seconds times its share of
    the batch's entries (weighted rows of a tree)."""

    algo: AlgoDescriptor
    k: int
    seed: int
    fold_matrices: tuple[ConfusionMatrix, ...]
    pooled_matrix: ConfusionMatrix
    pooled_metrics: MetricsReport
    roc: RocCurve
    fold_train_s: tuple[float, ...] = field(compare=False)
    fold_score_s: tuple[float, ...] = field(compare=False)


def _fold_fits(datasets, algos, folds, seed: int) -> list[Fit]:
    """Every (dataset, algorithm, fold) fit, in that order: on a bool mask of
    the fold's complement, with the fold's derived seed."""
    masks = [np.ones(len(datasets[0]), dtype=bool) for _ in folds]
    for mask, idx in zip(masks, folds):
        mask[idx] = False
    return [
        Fit(replace(algo, seed=derive_seed(derive_seed(seed, fi), algo.seed)), dataset, masks[fi], fi)
        for dataset in datasets
        for algo in algos
        for fi in range(len(folds))
    ]


def _score_fold(fits, folds, i: int, model) -> tuple[np.ndarray, float]:
    """Fit i's model's scores of its fold, and the seconds they took."""
    start = perf_counter()
    scores = model_scores(model, fits[i].dataset.X[folds[fits[i].fold]])
    return scores, perf_counter() - start


def _cv_result(algo: AlgoDescriptor, seed: int, y: np.ndarray, folds, fold_fits) -> CvResult:
    """Pool the `train_models` results of `algo`'s folds, scored by `_score_fold`, in fold order."""
    scored, train_s = zip(*fold_fits)
    scores, score_s = zip(*scored)
    truth = [y[idx] for idx in folds]
    fold_matrices = [confusion(t, is_malware(s)) for t, s in zip(truth, scores)]
    pooled = fold_matrices[0]
    for cm in fold_matrices[1:]:
        pooled = pooled + cm
    return CvResult(
        algo=algo,
        k=len(folds),
        seed=seed,
        fold_matrices=tuple(fold_matrices),
        pooled_matrix=pooled,
        pooled_metrics=metrics(pooled),
        roc=roc_auc(np.concatenate(scores), np.concatenate(truth)),
        fold_train_s=train_s,
        fold_score_s=score_s,
    )


def cross_validate(dataset: Dataset, algo: AlgoDescriptor, k: int = 10, seed: int = 0) -> CvResult:
    """Train on each fold's complement, score the fold, pool the results.

    A fold model trains on a bool mask of the complement's rows, not on a
    copy of them. Fold models train with seeds derived from (`seed`, fold
    index), so the whole result is deterministic. Training errors are
    re-raised as :class:`FoldError` naming the fold. The folds are fitted
    as `compare` fits them.
    """
    return compare(dataset, [algo], k, seed)[0].cv


@dataclass(frozen=True)
class ComparisonRow:
    """One line of the comparison table: a feature set, its width, and the
    cross-validation of one algorithm on it."""

    feature_set: str
    features: int
    cv: CvResult

    @property
    def algo(self) -> str:
        return self.cv.algo.kind

    @property
    def report(self) -> MetricsReport:
        return self.cv.pooled_metrics

    @property
    def auc(self) -> float:
        return self.cv.roc.auc


def compare(
    dataset: Dataset,
    algos: Sequence[AlgoDescriptor],
    k: int = 10,
    seed: int = 0,
    feature_sets: Sequence[FeatureSet] = (FeatureSet.CAPF,),
) -> list[ComparisonRow]:
    """Cross-validate every (feature set, algorithm) pair on `dataset`, one
    row per pair, feature set major.

    Every fold of every pair is one fit of `algo.train_models`, whose plan
    grows the trees of a pair's folds in shared batches on `pool.run`; the
    rows are the same for any worker count and any cut of the batches. A
    set with every column of `dataset` is fitted on `dataset` itself, not
    on a copy.
    """
    if not algos:
        raise ValueError("compare needs at least one algorithm")
    subs = [select_feature_set(dataset.catalog, fs) for fs in feature_sets]
    projected = [dataset if len(sub) == dataset.feature_count else dataset.select_features(sub.names)
                 for sub in subs]
    folds = stratified_fold_indices(dataset.y, k, seed)
    fits = _fold_fits(projected, algos, folds, seed)
    results = iter(train_models(fits, functools.partial(_score_fold, fits, folds)))
    return [
        ComparisonRow(fs.value, len(sub), _cv_result(algo, seed, dataset.y, folds, itertools.islice(results, k)))
        for fs, sub in zip(feature_sets, subs)
        for algo in algos
    ]


_REPORT_HEADER = "algo,feature_set,features,TPR,TNR,FPR,FNR,ACC,ERR,precision,AUC"


def _fmt(value: float | None) -> str:
    if value is None:
        return "undefined"
    return f"{value:.3f}"


def write_report(rows: Sequence[ComparisonRow], path) -> None:
    """Write comparison rows as CSV with 3-decimal rates."""
    lines = [_REPORT_HEADER]
    for row in rows:
        m = row.report
        lines.append(
            ",".join(
                [row.algo, row.feature_set, str(row.features)]
                + [_fmt(v) for v in (m.tpr, m.tnr, m.fpr, m.fnr, m.acc, m.err)]
                + [_fmt(m.precision), _fmt(row.auc)]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
