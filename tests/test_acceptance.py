"""Acceptance suite: one test per exit criterion.

Each test prints a `criterion NN PASS/FAIL` line (visible under
``pytest tests/test_acceptance.py -v -s``) and pins the criterion's stated
tolerance and runtime budget.

Criterion 1 checks all twenty published reference scores. Two published
rows, RESTART_PACKAGES and CHANGE_WIFI_STATE, are misprinted: their printed
counts do not yield their printed scores. The criterion scores those two
from the digit-transposed counts in tests/test_ranking.py ``ERRATA_ROWS``,
where the diagnosis lives, and asserts that their printed counts still miss.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from droidtriage.algo import AlgoDescriptor, model_scores, train_model
from droidtriage.calibration import (
    REFERENCE_N_BENIGN,
    REFERENCE_N_MALWARE,
    REFERENCE_TOP20_COUNTS,
    reference_spec,
)
from droidtriage.catalog import FeatureCatalog, FeatureDef, FeatureSet, load_catalog
from droidtriage.dataset import Dataset, SyntheticSpec, read_csv, synthesize, write_csv
from droidtriage.ensemble import (
    LogitModel,
    derive_seed,
    forest_scores,
    logitboost_response,
    train_forest,
    train_simple_logistic,
)
from droidtriage.evaluation import ConfusionMatrix, compare, cross_validate, metrics, roc_auc
from droidtriage.modelio import load_model, save_model
from droidtriage.ranking import FeatureClassCounts, mutual_information, rank_features, top_k
from droidtriage.trees import train_decision_tree, train_random_tree, tree_scores

from conftest import make_dataset, same_dataset, toy_catalog, training_log_likelihood, write_catalog
from test_ranking import ERRATA_ROWS, PUBLISHED_SCORES, _exact_count_dataset


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:2d} FAIL ({elapsed:6.2f}s): {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        print(
            f"criterion {number:2d} FAIL ({elapsed:6.2f}s): {description}"
            f" [runtime budget {budget_s:g}s exceeded]"
        )
        raise AssertionError(f"runtime budget exceeded: {elapsed:.2f}s >= {budget_s}s")
    print(f"criterion {number:2d} PASS ({elapsed:6.2f}s): {description}")


def test_criterion_01_reference_score_reproduction():
    """Every published top-20 row reproduces its score within 1e-3.

    Eighteen rows are scored from their counts exactly as printed. The two
    misprinted rows, RESTART_PACKAGES and CHANGE_WIFI_STATE, are scored from
    their transposed counts in ``ERRATA_ROWS``; for them the printed counts
    must still miss the published score by more than 1e-3, so the misprint
    stays visible here. See the module docstring.
    """

    def score(ben, mal):
        return mutual_information(
            FeatureClassCounts(ben, mal, REFERENCE_N_BENIGN, REFERENCE_N_MALWARE)
        )

    with criterion(1, "reference information-gain scores within 1e-3", 1.0):
        mismatches = []
        for name, ben, mal in REFERENCE_TOP20_COUNTS:
            published = PUBLISHED_SCORES[name]
            if name in ERRATA_ROWS:
                assert abs(score(ben, mal) - published) > 1e-3, (
                    f"{name}: printed counts now reproduce the published score; "
                    "it is no longer a misprint"
                )
                ben, mal = ERRATA_ROWS[name]["transposed"]
            got = score(ben, mal)
            if abs(got - published) > 1e-3:
                mismatches.append((name, got, published))
        assert not mismatches, f"rows off their published scores: {mismatches}"


def test_criterion_02_ranking_order():
    with criterion(2, "top-3 ranking is SEND_SMS, RECEIVE_SMS, READ_SMS", 5.0):
        ds, name_map = _exact_count_dataset()
        ranking = rank_features(ds)
        expected = [name_map[n] for n in ("SEND_SMS", "RECEIVE_SMS", "READ_SMS")]
        assert top_k(ranking, 3) == expected


def test_criterion_03_metric_identities():
    with criterion(3, "metric identities and exact rational agreement", 1.0):
        gen = np.random.default_rng(2024)
        for _ in range(1000):
            bb, bs, sb, ss = (int(v) + 1 for v in gen.integers(0, 500, size=4))
            cm = ConfusionMatrix(bb, bs, sb, ss)
            m = metrics(cm)
            assert abs(m.acc + m.err - 1.0) < 1e-12
            assert abs(m.tpr + m.fnr - 1.0) < 1e-12
            assert abs(m.tnr + m.fpr - 1.0) < 1e-12
            assert m.tpr == float(Fraction(ss, ss + sb))
            assert m.tnr == float(Fraction(bb, bb + bs))
            assert m.fpr == float(Fraction(bs, bb + bs))
            assert m.fnr == float(Fraction(sb, ss + sb))
            assert m.acc == float(Fraction(bb + ss, cm.total))
            assert m.err == float(Fraction(bs + sb, cm.total))
            assert m.precision == float(Fraction(ss, bs + ss))


def _mann_whitney(scores, truth):
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth)
    pos, neg = scores[truth == 1], scores[truth == 0]
    wins = sum(float(np.sum(p > neg) + 0.5 * np.sum(p == neg)) for p in pos)
    return wins / (len(pos) * len(neg))


def test_criterion_04_auc_dual_computation():
    with criterion(4, "trapezoid AUC equals Mann-Whitney within 1e-12", 1.0):
        assert roc_auc([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0]).auc == 0.75
        for seed in range(100):
            gen = np.random.default_rng(seed)
            n = int(gen.integers(4, 150))
            if seed % 3 == 0:
                scores = gen.choice(np.linspace(0.0, 1.0, 5), size=n)  # guaranteed ties
            else:
                scores = gen.random(n)
            truth = (gen.random(n) < 0.5).astype(int)
            truth[:2] = [0, 1]
            assert abs(roc_auc(scores, truth).auc - _mann_whitney(scores, truth)) < 1e-12


@pytest.fixture(scope="module")
def full_size_corpus():
    return synthesize(reference_spec(), 3)


def test_criterion_05_forest_oracles(full_size_corpus, tmp_path):
    with criterion(5, "forest seed-derivation and worker-count determinism", 30.0):
        ds = full_size_corpus
        single = train_forest(ds, AlgoDescriptor("rf", trees=1, k=8, bootstrap=False, seed=17))
        lone = train_random_tree(ds, AlgoDescriptor("rt", k=8, seed=derive_seed(17, 0)))
        assert np.array_equal(
            forest_scores(single, ds.X), (tree_scores(lone, ds.X) > 0.5).astype(float)
        )

        params = AlgoDescriptor("rf", trees=10, k=8, seed=17)
        blobs = []
        scores = []
        for workers in (1, 2, 8):
            model = train_forest(ds, params, workers=workers)
            path = tmp_path / f"forest-w{workers}.rf"
            save_model(model, path, ds.catalog)
            blobs.append(path.read_bytes())
            scores.append(forest_scores(model, ds.X[:512]))
        assert blobs[0] == blobs[1] == blobs[2]
        assert np.array_equal(scores[0], scores[1])
        assert np.array_equal(scores[0], scores[2])


def test_criterion_06_xor_separation():
    with criterion(6, "forest learns the XOR interaction, naive Bayes cannot", 60.0):
        feats = [FeatureDef("xa", "API", "xa"), FeatureDef("xb", "API", "xb")]
        feats += [FeatureDef(f"noise{i:02d}", "API", f"noise{i:02d}") for i in range(20)]
        catalog = FeatureCatalog(feats)
        spec = SyntheticSpec.from_rates(
            catalog,
            {"xa": (0.5, 0.5), "xb": (0.5, 0.5)},
            n_benign=1000,
            n_malware=1000,
            xor_features=("xa", "xb", 1.0),
        )
        ds = synthesize(spec, 42)
        rf = cross_validate(ds, AlgoDescriptor("rf", seed=42), k=10, seed=42)
        nb = cross_validate(ds, AlgoDescriptor("nb", seed=42), k=10, seed=42)
        assert rf.pooled_metrics.acc >= 0.90
        assert nb.pooled_metrics.acc <= 0.60


def test_criterion_07_calibrated_synthetic_sanity(full_size_corpus):
    with criterion(7, "all five classifiers reach AUC 0.90; combined set wins", 300.0):
        ds = full_size_corpus
        algos = [
            AlgoDescriptor("nb", seed=2),
            AlgoDescriptor("dt", seed=2, prune=True),
            AlgoDescriptor("rt", seed=2, k=90),
            AlgoDescriptor("rf", seed=2),
            AlgoDescriptor("sl", seed=2),
        ]
        rows = compare(ds, algos, k=10, seed=3)
        aucs = {row.algo: row.auc for row in rows}
        for kind, auc in aucs.items():
            assert auc >= 0.90, f"{kind} pooled AUC {auc:.4f} below 0.90"
        subset_rows = compare(
            ds,
            [AlgoDescriptor("rf", seed=2)],
            k=10,
            seed=3,
            feature_sets=[FeatureSet.PF, FeatureSet.AF],
        )
        pf_auc, af_auc = subset_rows[0].auc, subset_rows[1].auc
        assert aucs["rf"] >= pf_auc
        assert aucs["rf"] >= af_auc


def test_criterion_08_boosting_contract():
    with criterion(8, "boosting improves log-likelihood; response values exact", 5.0):
        resp = logitboost_response(1, 0.5)
        assert resp.z == 2.0 and resp.w == 0.25
        X = [[1, 0]] * 20 + [[1, 1]] * 5 + [[0, 1]] * 20 + [[0, 0]] * 5
        y = [1] * 25 + [0] * 25
        ds = make_dataset(X, y)
        model = train_simple_logistic(ds, AlgoDescriptor("sl", max_iter=20, cv_folds=5, seed=0))
        assert model.iterations_used <= 20
        empty = LogitModel(0.0, (), 0, 20, 5, ds.feature_count)
        assert training_log_likelihood(model, ds) > training_log_likelihood(empty, ds)


def _training_accuracy(model, X, y) -> float:
    return float(np.mean((tree_scores(model, X) > 0.5) == (y == 1)))


def _best_stump_accuracy(X, y) -> float:
    best = max(np.sum(y == 0), np.sum(y == 1))
    for f in range(X.shape[1]):
        acc = 0
        for v in (0, 1):
            side = y[X[:, f] == v]
            if side.size:
                acc += max(np.sum(side == 0), np.sum(side == 1))
        best = max(best, acc)
    return best / len(y)


def _enumerate_distinct_instance_datasets(n_features):
    """All datasets where each of the 2^F vectors appears at most once."""
    vectors = list(itertools.product((0, 1), repeat=n_features))
    for assignment in itertools.product((None, 0, 1), repeat=len(vectors)):
        rows = [(v, label) for v, label in zip(vectors, assignment) if label is not None]
        if rows:
            X = np.array([r[0] for r in rows], dtype=np.uint8)
            y = np.array([r[1] for r in rows], dtype=np.uint8)
            yield X, y


def _enumerate_multisets(n_features, max_instances):
    """All multisets of labeled vectors up to the given size."""
    kinds = [
        (v, label)
        for v in itertools.product((0, 1), repeat=n_features)
        for label in (0, 1)
    ]
    for n in range(1, max_instances + 1):
        for combo in itertools.combinations_with_replacement(range(len(kinds)), n):
            X = np.array([kinds[i][0] for i in combo], dtype=np.uint8)
            y = np.array([kinds[i][1] for i in combo], dtype=np.uint8)
            yield X, y


def test_criterion_09_small_tree_oracle():
    with criterion(9, "tree beats every stump; XOR needs depth 2 exactly", 60.0):
        catalogs = {f: toy_catalog(f) for f in (1, 2, 3)}

        def check(X, y):
            ds = Dataset(catalogs[X.shape[1]], X, y)
            model = train_decision_tree(ds, AlgoDescriptor("dt"))
            assert _training_accuracy(model, X, y) >= _best_stump_accuracy(X, y) - 1e-12

        checked = 0
        for f in (1, 2, 3):
            for X, y in _enumerate_distinct_instance_datasets(f):
                check(X, y)
                checked += 1
        for f in (1, 2):
            for X, y in _enumerate_multisets(f, 8):
                check(X, y)
                checked += 1
        gen = np.random.default_rng(6)
        for _ in range(500):
            n = int(gen.integers(1, 9))
            X = (gen.random((n, 3)) < 0.5).astype(np.uint8)
            y = (gen.random(n) < 0.5).astype(np.uint8)
            check(X, y)
            checked += 1
        assert checked > 20000

        # XOR boundary: no depth-1 tree beats chance, some depth-2 tree is
        # perfect. Partitions stand in for trees: a tree's accuracy is the
        # majority count of its leaf cells.
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        y = np.array([0, 1, 1, 0], dtype=np.uint8)

        def partition_accuracy(cells):
            return sum(
                int(max(np.sum(y[c] == 0), np.sum(y[c] == 1))) for c in cells if len(c)
            )

        depth1 = max(
            partition_accuracy([np.flatnonzero(X[:, f] == v) for v in (0, 1)])
            for f in range(2)
        )
        assert depth1 == 2  # 50%: XOR is invisible to any single split
        depth2 = 0
        for f_root, f_low, f_high in itertools.product(range(2), repeat=3):
            cells = []
            for v_root, f_child in ((0, f_low), (1, f_high)):
                side = np.flatnonzero(X[:, f_root] == v_root)
                cells += [side[X[side, f_child] == v] for v in (0, 1)]
            depth2 = max(depth2, partition_accuracy(cells))
        assert depth2 == 4  # 100% training accuracy is reachable at depth 2


def test_criterion_10_round_trips(tmp_path):
    with criterion(10, "catalog, dataset, and all five model kinds round-trip", 30.0):
        gen = np.random.default_rng(55)

        cat = FeatureCatalog(
            FeatureDef(f"feat{i:03d}", ("PERMISSION", "API", "COMMAND")[i % 3], f"pat{i:03d}")
            for i in range(40)
        )
        write_catalog(cat, tmp_path / "cat.csv")
        assert load_catalog(tmp_path / "cat.csv").features == cat.features

        X = (gen.random((120, 40)) < gen.random(40)).astype(np.uint8)
        y = (gen.random(120) < 0.5).astype(np.uint8)
        y[:10] = np.arange(10) % 2
        ds = Dataset(cat, X, y)
        write_csv(ds, tmp_path / "d.csv")
        assert same_dataset(read_csv(tmp_path / "d.csv", cat), ds)

        probe = (gen.random((1000, 40)) < 0.5).astype(np.uint8)
        algos = [
            AlgoDescriptor("nb", alpha=0.7),
            AlgoDescriptor("dt", prune=True, seed=4),
            AlgoDescriptor("rt", k=5, seed=4),
            AlgoDescriptor("rf", trees=5, k=4, seed=4),
            AlgoDescriptor("sl", max_iter=8, cv_folds=3, seed=4),
        ]
        for algo in algos:
            model = train_model(algo, ds)
            path = tmp_path / f"m.{algo.kind}"
            save_model(model, path, cat)
            reloaded = load_model(path, cat)
            assert np.array_equal(
                model_scores(model, probe), model_scores(reloaded, probe)
            ), algo.kind
