"""crossval and compare fit their folds in worker processes: the outcome is
the same for any worker count, a fault crosses the process boundary as it
would surface in one process, and no worker outlives the call. The count is
set by patching `evaluation._default_workers`."""

import contextlib
import io
import itertools
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from droidtriage import bayes, evaluation
from droidtriage.algo import KINDS, AlgoDescriptor
from droidtriage.catalog import FeatureCatalog, FeatureDef, FeatureSet
from droidtriage.cli import main
from droidtriage.dataset import DatasetError, write_csv
from droidtriage.evaluation import FoldError, compare, cross_validate, stratified_fold_indices

from conftest import make_dataset, write_catalog

SRC = Path(__file__).resolve().parents[1] / "src"
CATALOG = FeatureCatalog(
    [FeatureDef(f"P{i}", "PERMISSION", f"android.permission.P{i}") for i in range(4)]
    + [FeatureDef(f"A{i}", "API", f"api{i}") for i in range(4)]
)
ALGOS = [AlgoDescriptor(kind, seed=3, trees=3, max_iter=5, cv_folds=2) for kind in KINDS]
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.fixture(autouse=True)
def no_worker_left():
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def workers(monkeypatch):
    """A function that sets how many processes fit folds."""
    return lambda n: monkeypatch.setattr(evaluation, "_default_workers", lambda: n)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(11)
    y = np.repeat(np.array([0, 1], dtype=np.uint8), 60)
    X = (rng.random((120, len(CATALOG))) < np.where(y[:, None], 0.6, 0.3)).astype(np.uint8)
    return make_dataset(X, y, CATALOG)


@pytest.fixture(scope="module")
def files(tmp_path_factory, corpus):
    root = tmp_path_factory.mktemp("workers")
    write_catalog(CATALOG, root / "cat.csv")
    write_csv(corpus, root / "corpus.csv")
    return root


def _run(files, *argv) -> tuple[int, str, str, bytes]:
    """(exit code, stdout, stderr, report bytes) of one command on the corpus."""
    out, err = io.StringIO(), io.StringIO()
    report = files / "report.csv"
    report.unlink(missing_ok=True)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([*argv, "--catalog", str(files / "cat.csv"), "--data", str(files / "corpus.csv"),
                   "--out", str(report)])
    return rc, out.getvalue(), err.getvalue(), report.read_bytes() if report.exists() else b""


def _fold_scores(dataset, algos, k: int, seed: int) -> list[bytes]:
    """The bytes of every fold's held-out scores, as `compare` computes them
    on `dataset` alone."""
    folds = stratified_fold_indices(dataset.y, k, seed)
    jobs = list(itertools.product([0], range(len(algos)), range(k)))
    return [s.tobytes() for s, _, _ in evaluation._run_jobs(([dataset], algos, folds, seed), jobs)]


def test_fold_error_pickles_with_its_fold_and_cause():
    error = pickle.loads(pickle.dumps(FoldError(3, DatasetError("too few rows"))))
    assert (error.fold, str(error), type(error.cause), str(error.cause)) == (
        3, "fold 3: too few rows", DatasetError, "too few rows")


@pytest.mark.parametrize("n", [2, 11])
def test_compare_is_the_same_for_any_worker_count(corpus, workers, n):
    """All five kinds, two folds: 10 jobs, fitted by 2 workers or by more
    workers than jobs, as in this process. Rows compare their fold
    matrices, rates and ROC."""
    workers(1)
    one, scores = compare(corpus, ALGOS, k=2, seed=5), _fold_scores(corpus, ALGOS, 2, 5)
    workers(n)
    assert compare(corpus, ALGOS, k=2, seed=5) == one
    assert _fold_scores(corpus, ALGOS, 2, 5) == scores


@pytest.mark.parametrize("argv", [
    ["compare", "--algo", "nb,dt,rt,rf,sl", "--trees", "3", "--max-iter", "5", "--cv-folds", "2",
     "--folds", "2", "--seed", "1"],
    ["crossval", "--algo", "sl", "--max-iter", "5", "--cv-folds", "2", "--folds", "10", "--seed", "2"],
], ids=["compare", "crossval-sl"])
def test_reports_are_the_same_for_any_worker_count(files, workers, argv):
    """10 jobs each, fitted in this process, by 2 workers, and by more
    workers than jobs."""
    reports = {}
    for n in (1, 2, 11):
        workers(n)
        reports[n] = _run(files, *argv)
    assert reports[1][0] == 0 and reports[1][3].count(b"\n") > 1
    assert reports[2] == reports[1] and reports[11] == reports[1]


def test_ten_folds_of_sl_are_the_same_for_any_worker_count(corpus, workers):
    workers(1)
    one, scores = cross_validate(corpus, ALGOS[-1], k=10, seed=2), _fold_scores(corpus, ALGOS[-1:], 10, 2)
    for n in (2, 11):
        workers(n)
        assert cross_validate(corpus, ALGOS[-1], k=10, seed=2) == one
        assert _fold_scores(corpus, ALGOS[-1:], 10, 2) == scores


UNPINNED = """
import hashlib, itertools
from droidtriage import evaluation
from droidtriage.algo import AlgoDescriptor
from droidtriage.calibration import reference_spec
from droidtriage.dataset import synthesize

ds = synthesize(reference_spec(), 1)
folds = evaluation.stratified_fold_indices(ds.y, 2, 1)
work = ([ds], [AlgoDescriptor("sl", max_iter=8, cv_folds=2)], folds, 1)
for n in (1, 2):
    evaluation._default_workers = lambda: n
    results = evaluation._run_jobs(work, list(itertools.product([0], [0], range(2))))
    print(hashlib.sha256(b"".join(s.tobytes() for s, _, _ in results)).hexdigest())
"""


def test_workers_train_sl_with_the_parents_blas_threads():
    """With the BLAS thread count left unpinned, sl's folds fitted in this
    process and in two workers give the same bits: sl takes its products
    over fixed blocks of rows, whose bits do not depend on the thread count."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    proc = subprocess.run([sys.executable, "-c", UNPINNED], env=dict(env, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    serial, pooled = proc.stdout.split()
    assert serial == pooled


@pytest.mark.parametrize("threads", [None, "1", "2", "8"])
def test_default_workers_are_the_cpus_whatever_the_blas_threads(monkeypatch, threads):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    for name in BLAS_THREADS:
        if threads is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, threads)
    assert evaluation._default_workers() == 4
    monkeypatch.setattr(sys, "platform", "darwin")  # a fork is not known to be safe there
    assert evaluation._default_workers() == 1


def _fit_pid(corpus, monkeypatch) -> int:
    """The process a fold of nb was fitted in."""
    def refuse(dataset, algo, rows=None):
        raise DatasetError(f"pid {os.getpid()}")

    monkeypatch.setattr(bayes, "train_nb", refuse)
    with pytest.raises(FoldError) as caught:
        compare(corpus, ALGOS[:1], k=2, seed=5)
    return int(str(caught.value.cause).split()[-1])


def test_folds_are_fitted_in_workers(corpus, workers, monkeypatch):
    workers(2)
    assert _fit_pid(corpus, monkeypatch) != os.getpid()


def test_folds_are_fitted_here_while_another_thread_runs(corpus, workers, monkeypatch):
    """A fork is only safe with no other thread: the jobs run in this process."""
    workers(2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        assert _fit_pid(corpus, monkeypatch) == os.getpid()
    finally:
        release.set()
        waiter.join(60)
    assert not waiter.is_alive()


def test_fold_timings_are_measured_per_fold(corpus, workers):
    cv = cross_validate(corpus, ALGOS[0], k=4, seed=1)
    assert len(cv.fold_train_s) == len(cv.fold_score_s) == 4
    workers(2)
    for row in compare(corpus, ALGOS, k=3, seed=1):
        assert len(row.cv.fold_train_s) == len(row.cv.fold_score_s) == 3
        assert all(s > 0 for s in row.cv.fold_train_s + row.cv.fold_score_s)


@pytest.mark.parametrize("n", [1, 2])
def test_data_fault_in_a_worker_exits_2_as_in_one_process(files, workers, monkeypatch, n):
    """Every fold fails; the first in plan order is the one named, whichever
    worker finished first."""
    def refuse(dataset, algo, rows=None):
        raise DatasetError(f"refused {int(rows.sum())} rows")

    monkeypatch.setattr(bayes, "train_nb", refuse)
    workers(n)
    rc, out, err, _ = _run(files, "compare", "--algo", "dt,nb", "--folds", "3")
    assert (rc, out) == (2, "")
    assert err == "droidtriage: error: fold 0: refused 80 rows\n"


DYING = """
import contextlib, io, json, multiprocessing, os, sys
from droidtriage import bayes, evaluation
from droidtriage.cli import main

bayes.train_nb = lambda *args: os._exit(1)
evaluation._default_workers = lambda: 2
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    rc = main(sys.argv[1:])
print(json.dumps([rc, out.getvalue(), err.getvalue(), len(multiprocessing.active_children())]))
"""


def test_worker_that_dies_ends_in_one_line_and_exit_3(files):
    argv = ["compare", "--algo", "dt,nb", "--folds", "2", "--catalog", str(files / "cat.csv"),
            "--data", str(files / "corpus.csv"), "--out", str(files / "dead.csv")]
    proc = subprocess.run([sys.executable, "-c", DYING, *argv], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    rc, out, err, children = json.loads(proc.stdout)
    assert (rc, out, children) == (3, "", 0)
    assert len(err.splitlines()) == 1 and err.startswith("droidtriage: error: ")


def test_feature_sets_share_one_plan(corpus, workers):
    sets = [FeatureSet.PF, FeatureSet.AF]
    workers(2)
    rows = compare(corpus, ALGOS[:1], k=2, seed=0, feature_sets=sets)
    assert [(r.feature_set, r.features) for r in rows] == [("pf", 4), ("af", 4)]
    workers(1)
    assert compare(corpus, ALGOS[:1], k=2, seed=0, feature_sets=sets) == rows
