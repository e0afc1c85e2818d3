"""`AlgoDescriptor` is the one place flags are checked, `train_model`
dispatches to the trainers through one table read at call time, and
`is_malware` is the one label rule."""

import re

import numpy as np
import pytest

from droidtriage import bayes
from droidtriage.algo import KINDS, AlgoDescriptor, is_malware, model_scores, train_model
from droidtriage.modelio import save_model

from conftest import random_dataset, subset

# (field, bad value, expected message)
BAD_FIELDS = [
    ("alpha", 0.0, "alpha must be finite and positive"),
    ("alpha", float("nan"), "alpha must be finite and positive"),
    ("alpha", float("inf"), "alpha must be finite and positive"),
    ("criterion", "nope", "criterion must be one of"),
    ("k", 0, "k must be at least 1"),
    ("trees", 0, "forest needs at least one tree"),
    ("trees", 1001, "trees must be at most 1000"),
    ("bootstrap_fraction", 0.0, r"bootstrap fraction must lie in \(0, 1\]"),
    ("bootstrap_fraction", 1.5, r"bootstrap fraction must lie in \(0, 1\]"),
    ("max_iter", 0, "max_iter must be at least 1"),
    ("max_iter", 10_001, "max_iter must be at most 10000"),
    ("cv_folds", 1, r"cv_folds must lie in \[2, 10\]"),
    ("cv_folds", 11, r"cv_folds must lie in \[2, 10\]"),
    ("seed", -1, "seed must be non-negative"),
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("field, value, message", BAD_FIELDS, ids=lambda v: str(v)[:12])
def test_bad_field_rejected_for_every_kind(kind, field, value, message):
    with pytest.raises(ValueError, match=message):
        AlgoDescriptor(kind, **{field: value})


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown algorithm kind 'svm'"):
        AlgoDescriptor("svm")


def test_train_model_calls_the_trainer_on_its_module(monkeypatch, rng):
    """A trainer replaced on its module (as a tracer does) is the one called."""
    calls = []

    def fake_train_nb(dataset, algo, rows):
        calls.append((dataset, algo, rows))
        return "trained"

    monkeypatch.setattr(bayes, "train_nb", fake_train_nb)
    ds, algo = random_dataset(rng, 20, 3), AlgoDescriptor("nb", alpha=0.5)
    mask = np.arange(20) % 2 == 0
    assert train_model(algo, ds) == "trained"
    assert train_model(algo, ds, mask) == "trained"
    assert calls == [(ds, algo, None), (ds, algo, mask)]


# Every kind, and each option that changes how a trainer picks its rows.
MASKED_ALGOS = [
    AlgoDescriptor("nb", alpha=0.5),
    AlgoDescriptor("dt"),
    AlgoDescriptor("dt", criterion="gini"),
    AlgoDescriptor("dt", prune=True, seed=3),
    AlgoDescriptor("rt", k=3, seed=8),
    AlgoDescriptor("rf", trees=4, k=3, seed=5),
    AlgoDescriptor("rf", trees=3, k=2, seed=6, bootstrap_fraction=0.6),
    AlgoDescriptor("rf", trees=2, k=2, seed=7, bootstrap=False),
    AlgoDescriptor("sl", max_iter=8, cv_folds=3, seed=2),
]


@pytest.mark.parametrize("algo", MASKED_ALGOS, ids=lambda a: f"{a.kind}-{a.seed}")
@pytest.mark.parametrize("mask_seed", [0, 1])
def test_mask_trains_as_the_copy_of_its_rows(tmp_path, rng, algo, mask_seed):
    """A model trained on a row mask saves the bytes of one trained on a copy
    of the masked rows."""
    ds = random_dataset(rng, 160, 10)
    rows = np.random.default_rng(mask_seed).random(len(ds)) < 0.6
    rows[:2] = True  # random_dataset puts both classes in rows 0 and 1
    masked, copied = tmp_path / "masked.model", tmp_path / "copied.model"
    save_model(train_model(algo, ds, rows), masked, ds.catalog)
    save_model(train_model(algo, subset(ds, rows)), copied, ds.catalog)
    assert masked.read_bytes() == copied.read_bytes()


@pytest.mark.parametrize(
    "kind, message",
    [
        ("nb", "training requires both classes present"),
        ("dt", "cannot train on an empty dataset"),
        ("rt", "cannot train on an empty dataset"),
        ("rf", "cannot train on an empty dataset"),
        ("sl", "training requires both classes present"),
    ],
)
def test_all_false_mask_rejected(rng, kind, message):
    ds = random_dataset(rng, 30, 4)
    with pytest.raises(ValueError, match=message):
        train_model(AlgoDescriptor(kind), ds, np.zeros(len(ds), dtype=bool))


def test_is_malware_only_above_half():
    scores = np.array([0.0, 0.25, 0.5, np.nextafter(0.5, 1.0), 1.0])
    assert is_malware(scores).tolist() == [False, False, False, True, True]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("width", [3, 5])
def test_wrong_width_rejected_for_every_kind(rng, kind, width):
    model = train_model(AlgoDescriptor(kind, k=2, trees=2, max_iter=3, cv_folds=2), random_dataset(rng, 40, 4))
    with pytest.raises(ValueError, match="does not match model features 4"):
        model_scores(model, np.zeros((2, width), dtype=np.uint8))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
def test_non_matrix_rejected_for_every_kind(rng, kind, shape):
    """A vector or a 3-d array is one ValueError naming its shape, whatever the kind."""
    model = train_model(AlgoDescriptor(kind, k=2, trees=2, max_iter=3, cv_folds=2), random_dataset(rng, 40, 4))
    with pytest.raises(ValueError, match=f"expected a 2-d matrix of rows, got shape {re.escape(str(shape))}"):
        model_scores(model, np.zeros(shape, dtype=np.uint8))
