"""`AlgoDescriptor` is the one place flags are checked, and `train_model`
dispatches to the trainers through one table read at call time."""

import pytest

from droidtriage import bayes
from droidtriage.algo import KINDS, AlgoDescriptor, train_model

from conftest import random_dataset

# (field, bad value, expected message)
BAD_FIELDS = [
    ("alpha", 0.0, "alpha must be finite and positive"),
    ("alpha", float("nan"), "alpha must be finite and positive"),
    ("alpha", float("inf"), "alpha must be finite and positive"),
    ("criterion", "nope", "criterion must be one of"),
    ("k", 0, "k must be at least 1"),
    ("trees", 0, "forest needs at least one tree"),
    ("bootstrap_fraction", 0.0, r"bootstrap fraction must lie in \(0, 1\]"),
    ("bootstrap_fraction", 1.5, r"bootstrap fraction must lie in \(0, 1\]"),
    ("max_iter", 0, "max_iter must be at least 1"),
    ("max_iter", 10_001, "max_iter must be at most 10000"),
    ("cv_folds", 1, "cv_folds must be at least 2"),
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

    def fake_train_nb(dataset, algo):
        calls.append((dataset, algo))
        return "trained"

    monkeypatch.setattr(bayes, "train_nb", fake_train_nb)
    ds, algo = random_dataset(rng, 20, 3), AlgoDescriptor("nb", alpha=0.5)
    assert train_model(algo, ds) == "trained"
    assert calls == [(ds, algo)]
