"""Evaluation harness: confusion metrics, ROC/AUC, and cross-validation.

Counts follow the (true class -> predicted class) convention with malware as
the positive ("sus") class. Cross-validation is stratified and pooled: fold
confusion matrices are summed into a single matrix and held-out scores are
concatenated into a single ROC, so each configuration yields one row of
rates, micro-averaged over the whole dataset.

`compare` plans every (feature set, algorithm, fold) fit up front and runs
them in forked worker processes, one per CPU, where a fork is safe (see
`_default_workers`), one fold per job; every fit has its own derived seed,
no fit's bits depend on the BLAS thread count, and each result is assembled
in fold order, so the outcome is the same for any worker count.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import signal
import sys
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Sequence

import numpy as np

from .algo import AlgoDescriptor, is_malware, model_scores, train_model
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


class FoldError(RuntimeError):
    """A training failure inside cross-validation, tagged with its fold."""

    def __init__(self, fold: int, cause: Exception):
        super().__init__(f"fold {fold}: {cause}")
        self.fold = fold
        self.cause = cause

    def __reduce__(self):
        return FoldError, (self.fold, self.cause)


@dataclass(frozen=True)
class CvResult:
    """Pooled k-fold cross-validation outcome for one configuration, with
    the seconds each fold's training and scoring took (measured where the
    fold ran; neither takes part in equality)."""

    algo: AlgoDescriptor
    k: int
    seed: int
    fold_matrices: tuple[ConfusionMatrix, ...]
    pooled_matrix: ConfusionMatrix
    pooled_metrics: MetricsReport
    roc: RocCurve
    fold_train_s: tuple[float, ...] = field(compare=False)
    fold_score_s: tuple[float, ...] = field(compare=False)


def _fold_job(datasets, algos, folds, seed: int, job) -> tuple[np.ndarray, float, float]:
    """Fit the job ``(dataset index, algorithm index, fold index)``: train on
    a bool mask of the fold's complement with the fold's derived seed, score
    the fold, and return its scores and the seconds each step took."""
    dataset, algo, fi = datasets[job[0]], algos[job[1]], job[2]
    train_rows = np.ones(len(dataset), dtype=bool)
    train_rows[folds[fi]] = False
    fold_seed = derive_seed(derive_seed(seed, fi), algo.seed)
    start = perf_counter()
    try:
        model = train_model(replace(algo, seed=fold_seed), dataset, train_rows)
    except ValueError as exc:
        raise FoldError(fi, exc) from exc
    trained = perf_counter()
    scores = model_scores(model, dataset.X[folds[fi]])
    return scores, trained - start, perf_counter() - trained


def _cv_result(algo: AlgoDescriptor, seed: int, y: np.ndarray, folds, fold_jobs) -> CvResult:
    """Pool the `_fold_job` results of `algo`'s folds, in fold order."""
    scores, train_s, score_s = zip(*fold_jobs)
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


def _default_workers() -> int:
    """How many processes fit folds: the CPUs this process may run on, or one
    off Linux, where a fork is not known to be safe. Fits take their BLAS products
    over small fixed row blocks: one thread each, the same bits for any thread count."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


# A worker process's (datasets, algorithms, folds, seed), set once by
# `_start_worker`; the parent never sets it.
_WORK = None


def _start_worker(work) -> None:
    global _WORK
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    _WORK = work


def _worker_job(job):
    return _fold_job(*_WORK, job)


def _run_jobs(work, jobs: list) -> list:
    """`_fold_job` of each of `jobs` on `work`, in order: in a pool of at
    most `_default_workers()` processes made for the call and shut down
    before it returns, or in this process for one worker, for one job, or
    while another Python thread runs, as a fork is not safe then.

    Forked workers inherit the datasets; a fit's bits do not depend on where it ran.
    """
    workers = min(_default_workers(), len(jobs))
    if workers <= 1 or threading.active_count() > 1:
        return list(map(functools.partial(_fold_job, *work), jobs))
    # Imported here: multiprocessing and its pool cost about 18 ms and 1 MiB
    # to import, which the commands that run no pool should not pay.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), initializer=_start_worker, initargs=(work,)
    )
    try:
        return list(pool.map(_worker_job, jobs))
    finally:
        pool.shutdown(cancel_futures=True)


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

    Every fold of every pair is one job, run by `_run_jobs`; the rows are
    the same for any worker count. A set with every column of `dataset`
    is fitted on `dataset` itself, not on a copy.
    """
    if not algos:
        raise ValueError("compare needs at least one algorithm")
    subs = [select_feature_set(dataset.catalog, fs) for fs in feature_sets]
    projected = [dataset if len(sub) == dataset.feature_count else dataset.select_features(sub.names)
                 for sub in subs]
    folds = stratified_fold_indices(dataset.y, k, seed)
    jobs = list(itertools.product(range(len(projected)), range(len(algos)), range(k)))
    results = iter(_run_jobs((projected, algos, folds, seed), jobs))
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
