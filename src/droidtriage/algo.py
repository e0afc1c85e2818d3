"""Uniform handle over the five classifier families.

A descriptor bundles a classifier kind with its hyperparameters and a seed,
so the evaluation harness and the command line can train and score any model
through one interface. Kinds: nb (naive Bayes), dt (decision tree), rt
(random tree), rf (random forest), sl (simple logistic). Every trained model
carries its ``kind`` tag and scores a matrix with ``model.scores(X)``.

Every model trains on one plan, `train_models`: the trees of every dt, rt
and rf fit are units, each its row weights and its seed, which grow in
`_grow` batches shared by consecutive fits of one dataset and descriptor;
the items, batches and fits trained whole, run on `pool.run`. `train_model`
is the plan of one fit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from time import perf_counter
from typing import NamedTuple, Sequence

import numpy as np

from . import bayes, ensemble, pool, trees
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


class FoldError(RuntimeError):
    """A training failure inside cross-validation, tagged with its fold."""

    def __init__(self, fold: int, cause: Exception):
        super().__init__(f"fold {fold}: {cause}")
        self.fold = fold
        self.cause = cause

    def __reduce__(self):
        return FoldError, (self.fold, self.cause)


class Fit(NamedTuple):
    """One model to train: `algo` on the rows of `dataset` the bool mask
    `rows` selects (every row when None). A fit with a `fold` raises a
    training fault as `FoldError` naming it."""

    algo: AlgoDescriptor
    dataset: Dataset
    rows: np.ndarray | None = None
    fold: int | None = None


def _plan_fit(fit: Fit):
    """The `trees.Trees` of a dt, rt or rf fit, or for nb, sl and a pruned dt
    a call that trains the model whole; a fault found here is kept, to be
    raised in its turn."""
    algo, dataset, rows = fit.algo, fit.dataset, fit.rows
    # Looked up on every call, so a trainer replaced on its module is the one called.
    plant = {"dt": None if algo.prune else trees._plain_tree, "rt": trees._random_tree, "rf": ensemble._forest}
    if plant.get(algo.kind) is None:
        trainers = {"nb": bayes.train_nb, "dt": trees.train_decision_tree, "sl": ensemble.train_simple_logistic}
        return functools.partial(trainers[algo.kind], dataset, algo, rows)
    try:
        return plant[algo.kind](dataset, algo, rows)
    except ValueError as exc:
        return exc


def _train_item(fits, plans, finish, item) -> list[tuple]:
    """Train `item`, runs ``(fit, first tree, end tree)`` of one group, and
    give each run its share of the seconds, by entries, and either
    ``finish(fit, model)`` or, where the run holds part of the fit's trees,
    their `_grow` results."""
    start = perf_counter()
    first, plan = item[0][0], plans[item[0][0]]
    try:
        if isinstance(plan, Exception):
            raise plan
        if isinstance(plan, trees.Trees):
            units = [(plans[i], t) for i, lo, hi in item for t in range(lo, hi)]
            grown = trees._grow_trees(fits[first].dataset.X, fits[first].dataset.y, units)
        else:
            model = plan()
    except ValueError as exc:
        if fits[first].fold is None:
            raise
        raise FoldError(fits[first].fold, exc) from exc
    seconds = perf_counter() - start
    if not isinstance(plan, trees.Trees):
        return [(True, finish(first, model), seconds)]
    entries = np.array([p.entries[t] for p, t in units])
    shares = seconds * entries / entries.sum()
    results, at = [], 0
    for i, lo, hi in item:
        part, share, at = grown[at : at + hi - lo], float(shares[at : at + hi - lo].sum()), at + hi - lo
        whole = hi - lo == len(plans[i].keys)
        results.append((whole, finish(i, plans[i].model(part)) if whole else part, share))
    return results


def _items(fits, plans) -> list[list[tuple[int, int, int]]]:
    """The plan's items for `pool.run`, each a list of runs ``(fit, first
    tree, end tree)``, in the order they run.

    A fit trained whole is one item. The fits of a group, consecutive fits
    of one dataset and descriptor (seeds aside) whose trees grow, are cut at
    fit boundaries into items of at most `trees.BATCH_ENTRIES` entries.
    While there are fewer items than `pool.workers()`, the item of more than
    one tree with the most entries is halved, between its fits where it
    holds more than one. Items that grow trees run first, the most entries
    first, and the fits trained whole after them, in fit order: a pool that
    starts its longest batches last leaves its other workers idle.
    """
    entries = [p.entries if isinstance(p, trees.Trees) else [0] for p in plans]

    def group(i):
        return id(fits[i].dataset), replace(fits[i].algo, seed=0), isinstance(plans[i], trees.Trees)

    items = []
    for (*_, grows), members in itertools.groupby(range(len(fits)), group):
        runs = [(i, 0, len(entries[i])) for i in members]
        if grows:
            items += [runs[s] for s in trees._cut([sum(entries[i]) for i, _, _ in runs], trees.BATCH_ENTRIES)]
        else:
            items += [[run] for run in runs]

    def weight(item) -> int:  # the item's entries; 0 for a fit trained whole
        return sum(sum(entries[i][lo:hi]) for i, lo, hi in item)

    def halvable(item) -> int:
        return weight(item) if sum(hi - lo for _, lo, hi in item) > 1 else 0

    workers = pool.workers()
    while len(items) < workers and max(map(halvable, items), default=0) > 0:
        j = max(range(len(items)), key=lambda j: halvable(items[j]))
        item = items[j]
        if len(item) == 1:
            (i, lo, hi), = item
            item = [(i, lo, (lo + hi) // 2), (i, (lo + hi) // 2, hi)]
        items[j : j + 1] = [item[: len(item) // 2], item[len(item) // 2 :]]
    return sorted(items, key=weight, reverse=True)


def train_models(fits: Sequence[Fit], finish=None) -> list[tuple]:
    """Train every fit on one plan (see `_items`), whose items run on
    `pool.run`, and give, per fit, its model, or ``finish(fit index,
    model)`` where given, which runs where the fit's model is completed,
    and the seconds its training took: its share, by entries, of its
    batches' seconds. The models are the same for any cut of the batches
    and any worker count.
    """
    finish = finish or (lambda i, model: model)
    plans = [_plan_fit(fit) for fit in fits]
    items = _items(fits, plans)
    results = pool.run(functools.partial(_train_item, fits, plans, finish), items)
    done, seconds, parts = [None] * len(fits), [0.0] * len(fits), {}
    for item, result in zip(items, results):
        for (i, lo, _), (whole, value, share) in zip(item, result):
            seconds[i] += share
            if whole:
                done[i] = value
            else:
                parts.setdefault(i, []).append((lo, value))
    for i, runs in parts.items():
        done[i] = finish(i, plans[i].model([tree for _, run in sorted(runs, key=lambda r: r[0]) for tree in run]))
    return list(zip(done, seconds))


def train_model(algo: AlgoDescriptor, dataset: Dataset, rows=None) -> Model:
    """Train the classifier `algo` describes on the rows of `dataset` that
    the bool mask `rows` selects (every row when None), on the plan of
    `train_models`: a forest's trees grow on `pool.run`."""
    return train_models([Fit(algo, dataset, rows)])[0][0]


def model_scores(model: Model, X) -> np.ndarray:
    """Malware score in [0, 1] for every row of `X`, any model kind."""
    return model.scores(X)


def is_malware(scores) -> np.ndarray:
    """The label rule: MALWARE only above 0.5, so a tie is BENIGN, the
    conservative choice for a detector judged on its false positive rate."""
    return np.asarray(scores) > 0.5
