import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from droidtriage.algo import AlgoDescriptor, model_scores, train_model
from droidtriage.evaluation import (
    ComparisonRow,
    ConfusionMatrix,
    CvResult,
    FoldError,
    RocCurve,
    compare,
    confusion,
    cross_validate,
    metrics,
    roc_auc,
    write_report,
)
from droidtriage.catalog import FeatureSet
from droidtriage.dataset import stratified_fold_indices
from droidtriage.trees import derive_seed

from conftest import make_dataset, random_dataset, subset, toy_catalog


class TestConfusion:
    def test_exact_agreement(self):
        cm = confusion([1, 0, 1, 0], [1, 0, 1, 0])
        assert (cm.n_ben_sus, cm.n_sus_ben) == (0, 0)
        assert (cm.n_ben_ben, cm.n_sus_sus) == (2, 2)

    def test_all_malware_predicted_benign(self):
        cm = confusion([1, 1, 1], [0, 0, 0])
        assert cm.n_sus_ben == 3 and cm.total == 3

    def test_hand_counted_mixed_case(self):
        cm = confusion([1, 1, 0, 0], [1, 0, 0, 1])
        assert (cm.n_ben_ben, cm.n_ben_sus, cm.n_sus_ben, cm.n_sus_sus) == (1, 1, 1, 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            confusion([1, 0], [1])
        with pytest.raises(ValueError, match="empty"):
            confusion([], [])


class TestMetrics:
    def test_worked_example(self):
        cm = ConfusionMatrix(n_ben_ben=380, n_ben_sus=20, n_sus_ben=15, n_sus_sus=285)
        m = metrics(cm)
        assert m.tpr == pytest.approx(0.95)
        assert m.fpr == pytest.approx(0.05)
        assert m.acc == pytest.approx(0.95)
        assert m.err == pytest.approx(0.05)
        assert m.precision == pytest.approx(285 / 305)

    def test_perfect_classifier(self):
        m = metrics(ConfusionMatrix(10, 0, 0, 10))
        assert (m.tpr, m.tnr, m.acc, m.precision) == (1.0, 1.0, 1.0, 1.0)
        assert (m.fpr, m.fnr, m.err) == (0.0, 0.0, 0.0)

    def test_everything_benign_has_undefined_precision(self):
        m = metrics(ConfusionMatrix(10, 0, 5, 0))
        assert m.precision is None
        assert m.tpr == 0.0 and m.tnr == 1.0

    def test_identities_and_rational_oracle(self):
        gen = np.random.default_rng(99)
        for _ in range(1000):
            bb, bs, sb, ss = (int(v) for v in gen.integers(0, 200, size=4))
            sb += 1  # both classes present
            bb += 1
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
            if bs + ss:
                assert m.precision == float(Fraction(ss, bs + ss))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            metrics(ConfusionMatrix(0, 0, 0, 0))


def _mann_whitney(scores, truth):
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth)
    pos = scores[truth == 1]
    neg = scores[truth == 0]
    wins = 0.0
    for p in pos:
        wins += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return wins / (len(pos) * len(neg))


def _roc_by_loop(scores, truth):
    """The staircase and area one threshold group at a time, adding each
    trapezoid to a running total: the oracle of `roc_auc`'s array form."""
    s, t = np.asarray(scores, dtype=np.float64), np.asarray(truth)
    n_pos = int(np.sum(t == 1))
    n_neg = t.size - n_pos
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    cum_pos = np.cumsum(t[order] == 1)
    points, auc, prev_fpr, prev_tpr = [(0.0, 0.0, math.inf)], 0.0, 0.0, 0.0
    for end in [*np.flatnonzero(np.diff(s_sorted) != 0.0).tolist(), s.size - 1]:
        tp = int(cum_pos[end])
        fpr, tpr = (end + 1 - tp) / n_neg, tp / n_pos
        points.append((fpr, tpr, float(s_sorted[end])))
        auc += (fpr - prev_fpr) * (tpr + prev_tpr) / 2.0
        prev_fpr, prev_tpr = fpr, tpr
    return tuple(points), auc


class TestRocAuc:
    def test_equals_the_loop_bit_for_bit(self):
        gen = np.random.default_rng(2016)
        for trial in range(150):
            n = int(gen.integers(2, 2000))
            levels = int(gen.integers(1, n + 5))
            scores = gen.integers(0, levels, n) / levels if trial % 2 else gen.random(n)
            truth = (gen.random(n) < gen.random()).astype(np.uint8)
            truth[:2] = [0, 1]
            curve = roc_auc(scores, truth)
            points, auc = _roc_by_loop(scores, truth)
            assert curve.points == points
            assert type(curve.auc) is float and curve.auc.hex() == auc.hex()

    def test_perfect_separation(self):
        curve = roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert curve.auc == 1.0

    def test_anti_separation(self):
        curve = roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        assert curve.auc == 0.0

    def test_worked_four_point_example(self):
        curve = roc_auc([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0])
        assert curve.auc == 0.75

    def test_endpoints_and_monotonicity(self, rng):
        scores = rng.random(50)
        truth = (rng.random(50) < 0.4).astype(int)
        truth[:2] = [0, 1]
        curve = roc_auc(scores, truth)
        fprs = [p[0] for p in curve.points]
        tprs = [p[1] for p in curve.points]
        assert curve.points[0][:2] == (0.0, 0.0)
        assert curve.points[-1][:2] == (1.0, 1.0)
        assert curve.points[0][2] == math.inf
        assert all(a <= b for a, b in zip(fprs, fprs[1:]))
        assert all(a <= b for a, b in zip(tprs, tprs[1:]))

    def test_trapezoid_equals_mann_whitney(self):
        gen = np.random.default_rng(5150)
        for trial in range(100):
            n = int(gen.integers(4, 120))
            if trial % 2:
                scores = gen.choice(np.linspace(0, 1, 7), size=n)  # heavy ties
            else:
                scores = gen.random(n)
            truth = (gen.random(n) < 0.5).astype(int)
            truth[:2] = [0, 1]
            curve = roc_auc(scores, truth)
            assert abs(curve.auc - _mann_whitney(scores, truth)) < 1e-12

    def test_all_tied_scores_give_half(self):
        curve = roc_auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0])
        assert curve.auc == pytest.approx(0.5, abs=1e-15)
        assert len(curve.points) == 2

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_auc([0.1, 0.2], [1, 1])


class TestStratifiedFolds:
    def test_reference_shape_fold_sizes(self, rng):
        ds = make_dataset(
            np.zeros((6863, 1), dtype=np.uint8),
            np.concatenate([np.zeros(3938, dtype=np.uint8), np.ones(2925, dtype=np.uint8)]),
            toy_catalog(1),
        )
        folds = stratified_fold_indices(ds.y, 10, seed=1)
        assert len(folds) == 10
        for fold in folds:
            labels = ds.y[fold]
            n_mal = int(labels.sum())
            assert len(fold) - n_mal in (393, 394)
            assert n_mal in (292, 293)

    def test_tiny_two_per_class(self):
        ds = make_dataset([[0], [0], [1], [1]], [0, 1, 0, 1])
        folds = stratified_fold_indices(ds.y, 2, seed=0)
        for fold in folds:
            assert sorted(ds.y[fold]) == [0, 1]

    def test_k_one_rejected(self, rng):
        ds = random_dataset(rng, 30, 2)
        with pytest.raises(ValueError):
            stratified_fold_indices(ds.y, 1, seed=0)

    def test_disjoint_cover(self, rng):
        ds = random_dataset(rng, 83, 3)
        folds = stratified_fold_indices(ds.y, 4, seed=9)
        assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(83))


class TestCrossValidate:
    def test_separable_gives_perfect_pooled_accuracy(self):
        X = [[1, 0]] * 30 + [[0, 1]] * 30
        y = [1] * 30 + [0] * 30
        ds = make_dataset(X, y)
        cv = cross_validate(ds, AlgoDescriptor("nb"), k=5, seed=2)
        assert cv.pooled_metrics.acc == 1.0

    def test_deterministic(self, rng):
        ds = random_dataset(rng, 120, 6)
        a = cross_validate(ds, AlgoDescriptor("rf", trees=3, k=2, seed=4), k=4, seed=7)
        b = cross_validate(ds, AlgoDescriptor("rf", trees=3, k=2, seed=4), k=4, seed=7)
        assert a.pooled_matrix == b.pooled_matrix
        assert a.roc.auc == b.roc.auc
        assert a.fold_matrices == b.fold_matrices

    def test_pooled_equals_fold_sum(self, rng):
        ds = random_dataset(rng, 90, 5)
        cv = cross_validate(ds, AlgoDescriptor("nb"), k=3, seed=1)
        total = cv.fold_matrices[0]
        for fm in cv.fold_matrices[1:]:
            total = total + fm
        assert total == cv.pooled_matrix
        assert cv.pooled_matrix.total == len(ds)

    @pytest.mark.parametrize("kind", ["nb", "dt", "rt", "rf", "sl"])
    def test_folds_train_as_copies_of_their_complements(self, rng, kind):
        """Fold models train on row masks; scores match models trained on
        copies of each fold's complement with the fold's seed."""
        ds = random_dataset(rng, 90, 6)
        algo = AlgoDescriptor(kind, trees=3, k=2, max_iter=5, cv_folds=3, seed=4)
        cv = cross_validate(ds, algo, k=3, seed=7)
        scores, truth = [], []
        for fi, test_idx in enumerate(stratified_fold_indices(ds.y, 3, 7)):
            train_idx = np.setdiff1d(np.arange(len(ds)), test_idx)
            fold_algo = replace(algo, seed=derive_seed(derive_seed(7, fi), algo.seed))
            model = train_model(fold_algo, subset(ds, train_idx))
            scores.append(model_scores(model, ds.X[test_idx]))
            truth.append(ds.y[test_idx])
        assert cv.roc == roc_auc(np.concatenate(scores), np.concatenate(truth))

    def test_fold_error_carries_fold_index(self):
        # The training complement has 4 malware instances, so the inner
        # 5-fold iteration selection of sl cannot stratify and must fail.
        ds = make_dataset([[0]] * 9 + [[1]] * 6, [0] * 9 + [1] * 6)
        with pytest.raises(FoldError, match="fold 0"):
            cross_validate(ds, AlgoDescriptor("sl", max_iter=3, cv_folds=5), k=3, seed=0)


class TestCompare:
    def test_row_per_algo_and_feature_set(self, rng):
        gen = np.random.default_rng(3)
        from droidtriage.catalog import FeatureCatalog, FeatureDef

        catalog = FeatureCatalog(
            [FeatureDef(f"P{i}", "PERMISSION", f"android.permission.P{i}") for i in range(3)]
            + [FeatureDef(f"A{i}", "API", f"api{i}") for i in range(2)]
        )
        X = (gen.random((80, 5)) < 0.5).astype(np.uint8)
        y = (gen.random(80) < 0.5).astype(np.uint8)
        y[:2] = [0, 1]
        ds = make_dataset(X, y, catalog)
        algos = [AlgoDescriptor("nb"), AlgoDescriptor("rt", k=2)]
        rows = compare(ds, algos, k=3, seed=0,
                       feature_sets=[FeatureSet.PF, FeatureSet.AF, FeatureSet.CAPF])
        assert len(rows) == 6
        assert [r.features for r in rows] == [3, 3, 2, 2, 5, 5]
        assert rows[0].feature_set == "pf" and rows[-1].feature_set == "capf"

    def test_set_with_every_column_is_not_copied(self, monkeypatch):
        """On a pf-only dataset, pf is every column: compare fits it as it
        is, with the report of capf, and copies only a narrower set."""
        from droidtriage.catalog import FeatureCatalog, FeatureDef
        from droidtriage.dataset import Dataset

        gen = np.random.default_rng(5)
        catalog = FeatureCatalog(
            [FeatureDef(f"P{i}", "PERMISSION", f"android.permission.P{i}") for i in range(3)]
            + [FeatureDef("A0", "API", "api0")]
        )
        X = (gen.random((60, 4)) < 0.5).astype(np.uint8)
        y = (gen.random(60) < 0.5).astype(np.uint8)
        y[:2] = [0, 1]
        ds = make_dataset(X, y, catalog)
        copies = []
        select = Dataset.select_features
        monkeypatch.setattr(Dataset, "select_features", lambda self, names: copies.append(names) or select(self, names))
        algos = [AlgoDescriptor("nb"), AlgoDescriptor("dt")]
        pf_only = select(ds, ["P0", "P1", "P2"])
        rows = compare(pf_only, algos, k=3, seed=1, feature_sets=[FeatureSet.PF])
        assert copies == []
        whole = compare(pf_only, algos, k=3, seed=1, feature_sets=[FeatureSet.CAPF])
        assert [(r.features, r.report, r.auc) for r in rows] == [(r.features, r.report, r.auc) for r in whole]
        compare(ds, algos, k=3, seed=1, feature_sets=[FeatureSet.PF])
        assert len(copies) == 1

    def test_empty_algos_rejected(self, rng):
        ds = random_dataset(rng, 40, 3)
        with pytest.raises(ValueError):
            compare(ds, [], k=2, seed=0)

    def test_report_csv_format(self, tmp_path):
        cm = ConfusionMatrix(10, 0, 5, 0)
        cv = CvResult(AlgoDescriptor("nb"), 1, 0, (cm,), cm, metrics(cm), RocCurve((), 0.5))
        row = ComparisonRow("capf", 5, cv)
        write_report([row], tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == "algo,feature_set,features,TPR,TNR,FPR,FNR,ACC,ERR,precision,AUC"
        assert lines[1] == "nb,capf,5,0.000,1.000,0.000,1.000,0.667,0.333,undefined,0.500"
