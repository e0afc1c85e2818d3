"""Scoring and growing in bounded memory, with the bits of whole-matrix scoring.

nb scores a block of rows at a time and sl reads X's own uint8 columns; both
must equal the whole-matrix float64 formulas of `conftest` bit for bit,
across block edges. Every kind scores a 10x corpus (68,630 x 179) within a
fixed tracemalloc peak, and a forest grows within one. The streaming
commands, synth, rank, predict and roc, and the train of sl, dt, rt and rf run
through `main` on that corpus within a fixed peak each, and every kind's model file and
predictions are the same on one BLAS thread and on two. A forest's model
file loads within a fixed peak.
"""

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from droidtriage.algo import KINDS, AlgoDescriptor, model_scores, train_model
from droidtriage.bayes import _block_rows, nb_scores, train_nb
from droidtriage.calibration import reference_spec
from droidtriage.catalog import default_catalog
from droidtriage.cli import main
from droidtriage.dataset import synthesize, write_csv
from droidtriage.ensemble import logit_scores, train_forest, train_simple_logistic
from droidtriage.modelio import load_model, save_model

from conftest import (
    logit_scores_oracle,
    make_dataset,
    nb_scores_oracle,
    random_dataset,
    traced_peak,
    write_spec,
)

SRC = Path(__file__).resolve().parents[1] / "src"
MIB = 1 << 20


def _row_counts(n_features: int) -> list[int]:
    block = _block_rows(n_features)
    return [0, 1, 2, 63, 64, 65, block - 1, block, block + 1, block + 2, 3 * block + 37]


@pytest.mark.parametrize("n_features", [1, 7, 33, 179])
def test_block_rows_are_whole_words(n_features):
    block = _block_rows(n_features)
    assert block >= 64 and block % 64 == 0
    assert block == 64 or block * 8 * n_features <= 1 << 18


@pytest.mark.parametrize("n_features", [7, 33, 179])
def test_nb_blocks_equal_the_whole_matrix(rng, n_features):
    model = train_nb(random_dataset(rng, 200, n_features), AlgoDescriptor("nb"))
    for n in _row_counts(n_features):
        X = (rng.random((n, n_features)) < 0.3).astype(np.uint8)
        scores = nb_scores(model, X)
        assert scores.dtype == np.float64 and scores.shape == (n,)
        assert scores.tobytes() == nb_scores_oracle(model, X).tobytes(), n


@pytest.mark.parametrize("n_features", [7, 33, 179])
def test_sl_columns_equal_the_whole_matrix(rng, n_features):
    X = (rng.random((300, n_features)) < 0.4).astype(np.uint8)
    y = X[:, 0] ^ X[:, -1] & (rng.random(300) < 0.8)
    model = train_simple_logistic(make_dataset(X, y), AlgoDescriptor("sl", max_iter=12, cv_folds=3))
    assert model.regressors
    for n in _row_counts(n_features):
        X = (rng.random((n, n_features)) < 0.3).astype(np.uint8)
        scores = logit_scores(model, X)
        assert scores.dtype == np.float64 and scores.shape == (n,)
        assert scores.tobytes() == logit_scores_oracle(model, X).tobytes(), n


@pytest.fixture(scope="module")
def corpus():
    return synthesize(reference_spec(), 1)


@pytest.fixture(scope="module")
def corpus_10x():
    spec = reference_spec()
    return synthesize(replace(spec, n_benign=10 * spec.n_benign, n_malware=10 * spec.n_malware), 2)


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_scores_68630_rows_under_16_mib(corpus, corpus_10x, kind):
    model = train_model(AlgoDescriptor(kind, seed=1), corpus)
    assert corpus_10x.X.shape == (68_630, 179)
    scores, peak = traced_peak(lambda: model_scores(model, corpus_10x.X))
    assert scores.shape == (68_630,)
    assert peak < 16 * MIB, f"{kind} peaked at {peak / MIB:.1f} MiB"


@pytest.fixture(scope="module")
def deploy(tmp_path_factory, corpus, corpus_10x):
    """The calibrated and the 10x corpus as CSVs, the spec that draws the
    10x one, and a 10-tree forest trained on the calibrated corpus."""
    root = tmp_path_factory.mktemp("deploy")
    write_csv(corpus, root / "c1.csv")
    write_csv(corpus_10x, root / "c10.csv")
    spec = reference_spec()
    write_spec(replace(spec, n_benign=10 * spec.n_benign, n_malware=10 * spec.n_malware), root / "s10.spec")
    save_model(train_forest(corpus, AlgoDescriptor("rf", seed=1)), root / "rf.model", default_catalog())
    return root


@pytest.mark.parametrize("command, mib", [
    ("synth", 2), ("rank", 2), ("predict", 10), ("roc", 8), ("train", 40), ("train-dt", 24), ("train-rt", 20),
    ("train-rf", 44),
])
def test_deploy_command_peaks_within_its_bound(deploy, command, mib):
    """Each streaming command held the 11.7 MiB bit matrix of 68,630 x 179
    rows: synth peaked at 12.5 MiB, rank at 13.2, predict at 17.2 and roc at
    16.4; they now hold a block, and predict and roc the rows at 1 bit per
    cell and roc their labels. train --algo sl
    held a float64 copy of the matrix too and peaked at 132 MiB; it now holds
    the bit matrix and a few float arrays per fold. The trees' train copied
    each level's gather of split candidates whole, as int32: dt peaked at
    73.7 MiB, rt at 22.0 and a 10-tree rf at 85.7. They now hold the bit
    matrix and sum a block of the gather at a time; rf still holds every
    tree's level entries."""
    data, out = str(deploy / "c10.csv"), str(deploy / f"{command}.out")
    argv = {
        "synth": ["synth", "--spec", str(deploy / "s10.spec"), "--seed", "2", "--out", out],
        "rank": ["rank", "--data", data, "--out", out],
        "predict": ["predict", "--data", data, "--model", str(deploy / "rf.model"), "--out", out],
        "roc": ["roc", "--data", data, "--model", str(deploy / "rf.model"), "--out", out],
        "train": ["train", "--algo", "sl", "--data", data, "--model", out],
        **{f"train-{kind}": ["train", "--algo", kind, "--data", data, "--model", out] for kind in ("dt", "rt", "rf")},
    }[command]
    with contextlib.redirect_stdout(io.StringIO()):
        rc, peak = traced_peak(lambda: main(argv))
    assert rc == 0
    assert peak < mib * MIB, f"{command} peaked at {peak / MIB:.2f} MiB"
    if command == "synth":  # the corpus the other commands read
        assert (deploy / "synth.out").read_bytes() == (deploy / "c10.csv").read_bytes()


def test_forest_loads_under_2_mib(deploy):
    """A model file is parsed a line at a time: loading the 10-tree forest
    (112 KB) held every line of the file at once and peaked at 2.6 MiB; it
    now reads a line at a time and peaks at 1.5."""
    model, peak = traced_peak(lambda: load_model(deploy / "rf.model", default_catalog()))
    assert len(model.trees) == 10
    assert peak < 2 * MIB, f"peaked at {peak / MIB:.2f} MiB"


def test_forest_grows_under_5_mib(corpus):
    """Ten trees on the 6,863-row corpus; growing every level's temporaries
    on top of the last one's peaked at 10.9 MiB, and copying each level's
    whole gather of split candidates at 7.4."""
    forest, peak = traced_peak(lambda: train_forest(corpus, AlgoDescriptor("rf", seed=1)))
    assert len(forest.trees) == 10
    assert peak < 5 * MIB, f"peaked at {peak / MIB:.1f} MiB"


# Trains every kind on the calibrated corpus in directory argv[1] and
# predicts the 10x corpus with it, writing both files to directory argv[2].
EVERY_KIND = """
import contextlib, io, sys
from droidtriage.algo import KINDS
from droidtriage.cli import main

data, out = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    for kind in KINDS:
        model = f"{out}/{kind}.model"
        assert main(["train", "--algo", kind, "--data", f"{data}/c1.csv", "--model", model]) == 0
        assert main(["predict", "--data", f"{data}/c10.csv", "--model", model, "--out", f"{out}/{kind}.csv"]) == 0
"""


def test_every_kind_does_not_depend_on_blas_threads(deploy, tmp_path):
    """Split across two BLAS threads, a whole-matrix product gave other last
    bits than on one thread: nb's scores of 68,630 rows and sl's regressors
    trained on 6,863. Both now take their products over fixed row blocks."""
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        subprocess.run(
            [sys.executable, "-c", EVERY_KIND, str(deploy), str(out)],
            env=dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads),
            check=True, capture_output=True, timeout=300,
        )
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert len(outputs[0]) == 2 * len(KINDS)
    for name, data in outputs[0].items():
        assert outputs[1][name] == data, name
