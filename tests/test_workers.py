"""crossval, compare and train fit their plan's items in worker processes:
the outcome is the same for any worker count and any cut of the trees into
batches, a fault crosses the process boundary as it would surface in one
process, and no worker outlives the call. Importing the command line loads
no pool. The count is set by patching `os.sched_getaffinity`, the input of
`pool.workers`, so that the rule stays whole in forked workers."""

import contextlib
import functools
import io
import itertools
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droidtriage import algo, bayes, evaluation, pool, trees
from droidtriage.algo import KINDS, AlgoDescriptor, Fit, train_model, train_models
from droidtriage.calibration import reference_spec
from droidtriage.catalog import FeatureCatalog, FeatureDef, FeatureSet
from droidtriage.cli import main
from droidtriage.dataset import DatasetError, synthesize, write_csv
from droidtriage.evaluation import FoldError, compare, cross_validate, stratified_fold_indices
from droidtriage.modelio import save_model

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
    fits = evaluation._fold_fits([dataset], algos, folds, seed)
    results = train_models(fits, functools.partial(evaluation._score_fold, fits, folds))
    return [scores.tobytes() for scores in results]


def test_fold_error_pickles_with_its_fold_and_cause():
    error = pickle.loads(pickle.dumps(FoldError(3, DatasetError("too few rows"))))
    assert (error.fold, str(error), type(error.cause), str(error.cause)) == (
        3, "fold 3: too few rows", DatasetError, "too few rows")


@pytest.mark.parametrize("n", [2, 11])
def test_compare_is_the_same_for_any_worker_count(corpus, cpus, n):
    """All five kinds, two folds: 10 jobs, fitted by 2 workers or by more
    workers than jobs, as in this process. Rows compare their fold
    matrices, rates and ROC."""
    cpus(1)
    one, scores = compare(corpus, ALGOS, k=2, seed=5), _fold_scores(corpus, ALGOS, 2, 5)
    cpus(n)
    assert compare(corpus, ALGOS, k=2, seed=5) == one
    assert _fold_scores(corpus, ALGOS, 2, 5) == scores


@pytest.mark.parametrize("argv", [
    ["compare", "--algo", "nb,dt,rt,rf,sl", "--trees", "3", "--max-iter", "5", "--cv-folds", "2",
     "--folds", "2", "--seed", "1"],
    ["crossval", "--algo", "sl", "--max-iter", "5", "--cv-folds", "2", "--folds", "10", "--seed", "2"],
], ids=["compare", "crossval-sl"])
def test_reports_are_the_same_for_any_worker_count(files, cpus, argv):
    """10 jobs each, fitted in this process, by 2 workers, and by more
    workers than jobs."""
    reports = {}
    for n in (1, 2, 11):
        cpus(n)
        reports[n] = _run(files, *argv)
    assert reports[1][0] == 0 and reports[1][3].count(b"\n") > 1
    assert reports[2] == reports[1] and reports[11] == reports[1]


def test_ten_folds_of_sl_are_the_same_for_any_worker_count(corpus, cpus):
    cpus(1)
    one, scores = cross_validate(corpus, ALGOS[-1], k=10, seed=2), _fold_scores(corpus, ALGOS[-1:], 10, 2)
    for n in (2, 11):
        cpus(n)
        assert cross_validate(corpus, ALGOS[-1], k=10, seed=2) == one
        assert _fold_scores(corpus, ALGOS[-1:], 10, 2) == scores


UNPINNED = """
import functools, hashlib, os
from droidtriage import evaluation
from droidtriage.algo import AlgoDescriptor, train_models
from droidtriage.calibration import reference_spec
from droidtriage.dataset import synthesize

ds = synthesize(reference_spec(), 1)
folds = evaluation.stratified_fold_indices(ds.y, 2, 1)
fits = evaluation._fold_fits([ds], [AlgoDescriptor("sl", max_iter=8, cv_folds=2)], folds, 1)
for n in (1, 2):
    os.sched_getaffinity = lambda pid: set(range(n))
    results = train_models(fits, functools.partial(evaluation._score_fold, fits, folds))
    print(hashlib.sha256(b"".join(s.tobytes() for s in results)).hexdigest())
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
def test_default_workers_are_the_cpus_whatever_the_blas_threads(monkeypatch, cpus, threads):
    cpus(4)
    for name in BLAS_THREADS:
        if threads is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, threads)
    assert pool.workers() == 4
    in_workers = pool.run(lambda _: (os.getpid(), pool.workers()), [0, 1])
    assert [n for _, n in in_workers] == [1, 1]  # a job fans out no further
    assert all(pid != os.getpid() for pid, _ in in_workers)
    monkeypatch.setattr(sys, "platform", "darwin")  # a fork is not known to be safe there
    assert pool.workers() == 1


def _fit_pid(corpus, monkeypatch) -> int:
    """The process a fold of nb was fitted in."""
    def refuse(dataset, algo, rows=None):
        raise DatasetError(f"pid {os.getpid()}")

    monkeypatch.setattr(bayes, "train_nb", refuse)
    with pytest.raises(FoldError) as caught:
        compare(corpus, ALGOS[:1], k=2, seed=5)
    return int(str(caught.value.cause).split()[-1])


def _refuse_to_grow(monkeypatch) -> None:
    """Make every batch of trees fail, naming its process and that process's parent."""
    def refuse(*args):
        raise DatasetError(f"pid {os.getpid()} ppid {os.getppid()}")

    monkeypatch.setattr(trees, "_grow", refuse)


def _grow_pid(corpus, monkeypatch) -> int:
    """The process a batch of a forest's trees was grown in."""
    _refuse_to_grow(monkeypatch)
    with pytest.raises(DatasetError) as caught:
        train_model(AlgoDescriptor("rf", trees=4, seed=1), corpus)
    return int(str(caught.value).split()[1])


@contextlib.contextmanager
def _another_thread():
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        yield
    finally:
        release.set()
        waiter.join(60)
    assert not waiter.is_alive()


def test_folds_are_fitted_in_workers(corpus, cpus, monkeypatch):
    cpus(2)
    assert _fit_pid(corpus, monkeypatch) != os.getpid()


def test_folds_are_fitted_here_while_another_thread_runs(corpus, cpus, monkeypatch):
    """A fork is only safe with no other thread: the jobs run in this process."""
    cpus(2)
    with _another_thread():
        assert _fit_pid(corpus, monkeypatch) == os.getpid()


def test_forest_batches_are_grown_in_workers(corpus, cpus, monkeypatch):
    cpus(2)
    assert _grow_pid(corpus, monkeypatch) != os.getpid()


def test_forest_batches_are_grown_here_on_one_cpu(corpus, cpus, monkeypatch):
    cpus(1)
    assert _grow_pid(corpus, monkeypatch) == os.getpid()


def test_forest_batches_are_grown_here_while_another_thread_runs(corpus, cpus, monkeypatch):
    cpus(2)
    with _another_thread():
        assert _grow_pid(corpus, monkeypatch) == os.getpid()


@pytest.mark.parametrize("kind", ["dt", "rf"])
def test_folds_trees_grow_in_a_worker_of_the_command(corpus, cpus, monkeypatch, kind):
    """The folds' trees grow in one item per fold for two workers, each
    forked by the command itself; the fault names fold 0."""
    cpus(2)
    _refuse_to_grow(monkeypatch)
    with pytest.raises(FoldError) as caught:
        compare(corpus, [AlgoDescriptor(kind, trees=4, seed=1)], k=2, seed=5)
    pid, ppid = map(int, str(caught.value.cause).split()[1::2])
    assert caught.value.fold == 0
    assert pid != os.getpid() and ppid == os.getpid()


def test_single_kind_crossval_fits_in_workers(files, cpus, monkeypatch):
    """A crossval of one tree kind is one group of its folds' trees: the
    plan cuts it in two so that two CPUs both work."""
    cpus(2)
    _refuse_to_grow(monkeypatch)
    rc, out, err, _ = _run(files, "crossval", "--algo", "rt", "--folds", "2")
    assert (rc, out) == (2, "")
    pid, ppid = map(int, err.split()[-3::2])
    assert err.startswith("droidtriage: error: fold 0: pid ") and pid != os.getpid() and ppid == os.getpid()


POOL_MODULES = """
import sys
import droidtriage.cli
print(*(m for m in ("multiprocessing", "concurrent.futures", "logging") if m in sys.modules))
"""


def test_command_line_import_loads_no_pool():
    """The pool's modules cost about 18 ms and 1 MiB to import, which every
    command that runs no pool would pay: they load only when a pool runs.
    `concurrent.futures` alone loads `logging`, which costs about 6 ms more."""
    proc = subprocess.run([sys.executable, "-c", POOL_MODULES], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


NO_MASKED_ARRAYS = """
import contextlib, io, sys
from droidtriage.cli import main

root = sys.argv[1]
files = ["--catalog", f"{root}/cat.csv", "--data", f"{root}/corpus.csv"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main([*argv, *files]) for argv in (
        ["compare", "--algo", "nb,dt,rt,rf,sl", "--folds", "2", "--out", f"{root}/ma.csv"],
        ["train", "--algo", "rf", "--model", f"{root}/ma.rf"],
        ["predict", "--model", f"{root}/ma.rf", "--out", f"{root}/ma.pred"],
    )]
print(*codes, "numpy.ma" in sys.modules)
"""


def test_commands_load_no_masked_arrays(files):
    """`numpy.ma`, which `np.unique` imports, raises peak memory by about
    1 MiB: compare, train and predict never load it."""
    proc = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS, str(files)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0 0 False\n"


@pytest.mark.parametrize("n", [1, 2])
def test_data_fault_in_a_worker_exits_2_as_in_one_process(files, cpus, monkeypatch, n):
    """Every fold fails; the first in plan order is the one named, whichever
    worker finished first."""
    def refuse(dataset, algo, rows=None):
        raise DatasetError(f"refused {int(rows.sum())} rows")

    monkeypatch.setattr(bayes, "train_nb", refuse)
    cpus(n)
    rc, out, err, _ = _run(files, "compare", "--algo", "dt,nb", "--folds", "3")
    assert (rc, out) == (2, "")
    assert err == "droidtriage: error: fold 0: refused 80 rows\n"


DYING = """
import contextlib, io, json, multiprocessing, os, sys
from droidtriage import bayes, trees
from droidtriage.cli import main

bayes.train_nb = trees._grow = lambda *args: os._exit(1)
os.sched_getaffinity = lambda pid: {0, 1}
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    rc = main(sys.argv[1:])
print(json.dumps([rc, out.getvalue(), err.getvalue(), len(multiprocessing.active_children())]))
"""


@pytest.mark.parametrize("argv", [
    ["compare", "--algo", "dt,nb", "--folds", "2", "--out"],
    ["train", "--algo", "rf", "--model"],
], ids=["compare", "train-rf"])
def test_worker_that_dies_ends_in_one_line_and_exit_3(files, argv):
    """A fold of nb, or a batch of trees, kills its worker process."""
    output = files / f"dead-{argv[0]}"
    argv = [*argv, str(output), "--catalog", str(files / "cat.csv"), "--data", str(files / "corpus.csv")]
    proc = subprocess.run([sys.executable, "-c", DYING, *argv], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    rc, out, err, children = json.loads(proc.stdout)
    assert (rc, out, children) == (3, "", 0)
    assert len(err.splitlines()) == 1 and err.startswith("droidtriage: error: ")
    assert not output.exists()


def test_feature_sets_share_one_plan(corpus, cpus):
    sets = [FeatureSet.PF, FeatureSet.AF]
    cpus(2)
    rows = compare(corpus, ALGOS[:1], k=2, seed=0, feature_sets=sets)
    assert [(r.feature_set, r.features) for r in rows] == [("pf", 4), ("af", 4)]
    cpus(1)
    assert compare(corpus, ALGOS[:1], k=2, seed=0, feature_sets=sets) == rows


PLAN_KINDS = [
    AlgoDescriptor("nb", seed=3),
    AlgoDescriptor("dt", seed=3),
    AlgoDescriptor("dt", prune=True, seed=3),
    AlgoDescriptor("rt", k=3, seed=3),
    AlgoDescriptor("rf", trees=5, k=3, seed=3, bootstrap_fraction=0.8),
    AlgoDescriptor("sl", max_iter=5, cv_folds=2, seed=3),
]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("k", [2, 10])
@pytest.mark.parametrize("algo_", PLAN_KINDS, ids=lambda a: f"{a.kind}{'-pruned' * a.prune}")
def test_plan_trains_each_fold_as_it_trains_alone(corpus, cpus, tmp_path, algo_, k, n):
    """Each fold's model from one plan of every fold, with its trees grown
    in batches shared by the folds, saves byte-identically to `train_model`
    on that fold's mask alone in this process."""
    folds = stratified_fold_indices(corpus.y, k, 4)
    fits = evaluation._fold_fits([corpus], [algo_], folds, 4)
    cpus(n)
    planned = train_models(fits)
    cpus(1)
    for fit, model in zip(fits, planned):
        save_model(model, tmp_path / "planned", CATALOG)
        save_model(train_model(fit.algo, fit.dataset, fit.rows), tmp_path / "alone", CATALOG)
        assert (tmp_path / "planned").read_bytes() == (tmp_path / "alone").read_bytes()


@pytest.mark.parametrize("n", [1, 2])
def test_report_is_the_same_for_any_cut_of_the_batches(files, cpus, monkeypatch, n):
    """A cap below one tree's entries grows every tree in a batch of its
    own; on one CPU the batches are seen here."""
    argv = ["compare", "--algo", "nb,dt,rt,rf,sl", "--trees", "3", "--max-iter", "5", "--cv-folds", "2",
            "--folds", "3", "--seed", "1"]
    cpus(n)
    whole = _run(files, *argv)
    batches = []
    grow = trees._grow
    monkeypatch.setattr(trees, "_grow", lambda X, y, w, *args: batches.append(len(w)) or grow(X, y, w, *args))
    monkeypatch.setattr(trees, "BATCH_ENTRIES", 10)
    assert _run(files, *argv) == whole and whole[0] == 0
    assert batches == ([1] * 3 * (1 + 1 + 3) if n == 1 else [])  # dt, rt and rf trees of three folds


def _items_of(monkeypatch, call) -> list:
    """The items `call` hands to `pool.run`, which trains none of them."""
    class Planned(Exception):
        pass

    items = []

    def record(job, items_):
        items.extend(items_)
        raise Planned

    monkeypatch.setattr(pool, "run", record)
    with pytest.raises(Planned):
        call()
    return items


def _forest_items(corpus, monkeypatch) -> list[list[int]]:
    """The trees each item of `train --algo rf` (ten trees) holds."""
    items = _items_of(monkeypatch, lambda: train_model(AlgoDescriptor("rf", seed=1), corpus))
    assert all(i == 0 for item in items for i, _, _ in item)
    return [[t for _, lo, hi in item for t in range(lo, hi)] for item in items]


@pytest.mark.parametrize("n, items", [
    (1, [list(range(10))]),
    (2, [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]),
    (3, [[3, 4, 5, 6], [0, 1, 2], [7, 8, 9]]),
])
def test_train_cuts_a_forest_into_one_item_per_cpu(corpus, cpus, monkeypatch, n, items):
    cpus(n)
    assert _forest_items(corpus, monkeypatch) == items


def test_a_forest_above_the_cap_is_cut_into_near_equal_items(corpus, cpus, monkeypatch):
    """Ten trees of 76 entries each, against a cap of 300: three items of
    three, four and three trees, the most entries first, each at most the
    cap plus one tree, on any CPU count up to three."""
    monkeypatch.setattr(trees, "BATCH_ENTRIES", 300)
    for n in (1, 2, 3):
        cpus(n)
        assert _forest_items(corpus, monkeypatch) == [[3, 4, 5, 6], [0, 1, 2], [7, 8, 9]]


def test_benchmark_workloads_keep_their_items_at_two_cpus(cpus, monkeypatch):
    """On the calibrated corpus at 2 CPUs: compare's two folds of nb, dt,
    rt, rf and sl on pf, af and capf give each (set, tree kind) pair one
    item of its two whole folds, forests first, then the twelve nb and sl
    folds in fit order; train's forest of ten trees is two items of five."""
    cpus(2)
    ds = synthesize(reference_spec(), 1)
    sets = [FeatureSet.PF, FeatureSet.AF, FeatureSet.CAPF]
    algos = [AlgoDescriptor(kind) for kind in KINDS]
    items = _items_of(monkeypatch, lambda: compare(ds, algos, 2, 1, feature_sets=sets))

    def fit(s, kind, fold):  # fits are (set, kind, fold) major to minor
        return 10 * s + 2 * KINDS.index(kind) + fold

    forests = [[(fit(s, "rf", f), 0, 10) for f in (0, 1)] for s in range(3)]
    single = [[(fit(s, kind, f), 0, 1) for f in (0, 1)] for s in range(3) for kind in ("dt", "rt")]
    whole = [[(fit(s, kind, f), 0, 0)] for s in range(3) for kind in ("nb", "sl") for f in (0, 1)]
    assert items == forests + single + whole
    assert _forest_items(ds, monkeypatch) == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(20, 400), st.lists(st.tuples(
    st.sampled_from(["a", "b"]), st.sampled_from(["nb", "dt", "rf"]),
    st.lists(st.integers(1, 100), min_size=1, max_size=8)), min_size=1, max_size=12))
def test_items_hold_every_tree_once_in_near_equal_runs(workers, cap, specs):
    """Every tree of a group is in exactly one item, the items of a group
    hold contiguous runs of its trees in order, a group of E_g of the plan's
    E tree entries is cut into at most n = max(E_g / cap, workers * E_g / E)
    items, rounded up, of whole fits where it has at least n fits, else of
    single trees, each at most E_g / n plus one fit or tree; items that grow
    trees come first, by entries, then the whole fits in fit order."""
    datasets = {"a": object(), "b": object()}
    fits = [Fit(AlgoDescriptor(kind, trees=len(sizes)), datasets[name]) for name, kind, sizes in specs]
    plans = [trees.Trees(None, sizes, list(range(len(sizes))), 0, trees.ENTROPY, None) if kind != "nb" else None
             for _, kind, sizes in specs]
    with mock.patch.object(pool, "workers", lambda: workers), mock.patch.object(trees, "BATCH_ENTRIES", cap):
        items = algo._items(fits, plans)
    entries = [p.entries if p else [] for p in plans]
    weights = [sum(sum(entries[i][lo:hi]) for i, lo, hi in item) for item in items]
    assert weights == sorted(weights, reverse=True)
    untreed = [item for item in items if plans[item[0][0]] is None]
    assert untreed == [[(i, 0, 0)] for i in range(len(fits)) if plans[i] is None]
    total = sum(map(sum, entries))

    def group(i):
        return id(fits[i].dataset), replace(fits[i].algo, seed=0), plans[i] is None

    groups = [list(members) for _, members in itertools.groupby(range(len(fits)), group)]
    for members in groups:
        if plans[members[0]] is None:
            continue
        mine = sorted(item for item in items if item[0][0] in members)
        held = [(i, t) for item in mine for i, lo, hi in item for t in range(lo, hi)]
        assert held == [(i, t) for i in members for t in range(len(entries[i]))]
        size = sum(sum(entries[i]) for i in members)
        n = max(-(-size // cap), -(-workers * size // total))
        assert len(mine) <= n
        by_fit = len(members) >= n
        assert all((lo, hi) == ((0, len(entries[i])) if by_fit else (lo, lo + 1)) for item in mine for i, lo, hi in item)
        piece = max(sum(entries[i]) if by_fit else max(entries[i]) for i in members)
        assert all(n * sum(sum(entries[i][lo:hi]) for i, lo, hi in item) <= size + n * piece for item in mine)
