import numpy as np
import pytest

from droidtriage.algo import AlgoDescriptor, is_malware, model_scores
from droidtriage.dataset import bootstrap_sample_size, stratified_fold_indices
from droidtriage.ensemble import (
    Z_MAX,
    ForestModel,
    LogitModel,
    LogitRegressor,
    WorkingResponse,
    derive_seed,
    forest_scores,
    log_likelihood,
    logit_scores,
    logitboost_response,
    train_forest,
    train_simple_logistic,
)
from droidtriage.trees import TreeModel, train_random_tree, tree_scores

from conftest import _forest, _nested, _walk, make_dataset, random_dataset, subset, training_log_likelihood


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        seen = {derive_seed(42, i) for i in range(1000)}
        assert len(seen) == 1000
        assert derive_seed(42, 7) == derive_seed(42, 7)
        assert derive_seed(42, 7) != derive_seed(43, 7)

    def test_fits_in_64_bits(self):
        for i in range(100):
            assert 0 <= derive_seed(2**63, i) < 2**64

    def test_vectorized_mix_matches_scalar(self, rng):
        from droidtriage.trees import _derive_seeds

        masters = [0, 1, 2**63 - 1, 2**63, 2**63 + 12345, 2**64 - 1]
        masters += [int(m) for m in rng.integers(0, 2**63, size=20, dtype=np.uint64)]
        masters += [2**63 + int(m) for m in rng.integers(0, 2**63, size=20, dtype=np.uint64)]
        indices = [0, 1, 2, 178, 2**32, 2**63, 2**64 - 2]
        got = _derive_seeds(np.array(masters, np.uint64)[:, None], np.array(indices, np.uint64))
        for i, master in enumerate(masters):
            for j, index in enumerate(indices):
                assert int(got[i, j]) == derive_seed(master, index)


class TestForest:
    def test_t1_no_bootstrap_equals_random_tree(self, rng):
        ds = random_dataset(rng, 250, 9)
        forest = train_forest(ds, AlgoDescriptor("rf", trees=1, k=3, bootstrap=False, seed=11))
        lone = train_random_tree(ds, AlgoDescriptor("rt", k=3, seed=derive_seed(11, 0)))
        assert _nested(forest.trees[0]) == _nested(lone)
        votes = forest_scores(forest, ds.X)
        assert np.array_equal(votes, (tree_scores(lone, ds.X) > 0.5).astype(float))

    def test_deterministic_across_worker_counts(self, rng, cpus):
        ds = random_dataset(rng, 200, 8)
        params = AlgoDescriptor("rf", trees=6, k=3, seed=5)
        models = []
        for n in (1, 2, 8):
            cpus(n)
            models.append(train_forest(ds, params))
        for other in models[1:]:
            assert all(_nested(a) == _nested(b) for a, b in zip(models[0].trees, other.trees))

    def test_bootstrap_weights_equal_resampled_copies(self, rng):
        ds = random_dataset(rng, 300, 12)
        forest = train_forest(ds, AlgoDescriptor("rf", trees=4, k=8, seed=9))
        size = bootstrap_sample_size(len(ds), 1.0)
        for i, member in enumerate(forest.trees):
            tree_seed = derive_seed(9, i)
            draw = np.random.default_rng(derive_seed(tree_seed, 1)).integers(0, len(ds), size=size)
            copy = train_random_tree(subset(ds, draw), AlgoDescriptor("rt", k=8, seed=tree_seed))
            assert _nested(member) == _nested(copy)
            assert member.seed == tree_seed

    def test_trees_do_not_depend_on_their_batch(self, rng, cpus):
        ds = random_dataset(rng, 250, 10)
        cpus(1)
        three = train_forest(ds, AlgoDescriptor("rf", trees=3, k=3, seed=4))
        six = train_forest(ds, AlgoDescriptor("rf", trees=6, k=3, seed=4))
        cpus(4)
        six_in_batches = train_forest(ds, AlgoDescriptor("rf", trees=6, k=3, seed=4))
        assert [_nested(t) for t in six.trees[:3]] == [_nested(t) for t in three.trees]
        assert [_nested(t) for t in six_in_batches.trees] == [_nested(t) for t in six.trees]

    def test_bootstrap_fraction_changes_sample(self, rng):
        ds = random_dataset(rng, 100, 5)
        full = train_forest(ds, AlgoDescriptor("rf", trees=3, k=2, seed=1))
        half = train_forest(ds, AlgoDescriptor("rf", trees=3, k=2, bootstrap_fraction=0.5, seed=1))
        assert any(_nested(a) != _nested(b) for a, b in zip(full.trees, half.trees))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            AlgoDescriptor("rf", trees=0, k=1)
        with pytest.raises(ValueError):
            AlgoDescriptor("rf", trees=1, k=0)
        with pytest.raises(ValueError):
            AlgoDescriptor("rf", trees=1, k=1, bootstrap_fraction=0.0)

    def test_k_exceeding_features_rejected(self, rng):
        ds = random_dataset(rng, 20, 3)
        with pytest.raises(ValueError, match="k="):
            train_forest(ds, AlgoDescriptor("rf", trees=2, k=4))

    def test_vote_scores_and_tie(self):
        def constant_tree(mal: int) -> TreeModel:
            feature, child = np.array([-1]), np.array([0])
            counts = np.array([1 - mal]), np.array([mal])
            return TreeModel(feature, child, child, *counts, "entropy", False, 1, 0, 2)

        two = _forest((constant_tree(1), constant_tree(0)), AlgoDescriptor("rf", trees=2, k=1))
        scores = model_scores(two, np.array([[0, 1]]))
        assert scores.tolist() == [0.5] and not is_malware(scores)[0]

        three = _forest(
            (constant_tree(1), constant_tree(1), constant_tree(0)),
            AlgoDescriptor("rf", trees=3, k=1),
        )
        scores = model_scores(three, np.array([[0, 1]]))
        assert scores[0] == pytest.approx(2 / 3) and is_malware(scores)[0]

        unanimous = _forest((constant_tree(1),) * 3, AlgoDescriptor("rf", trees=3, k=1))
        scores = model_scores(unanimous, np.array([[0, 1]]))
        assert scores.tolist() == [1.0] and is_malware(scores)[0]

    def test_label_matches_score_rule(self, rng):
        ds = random_dataset(rng, 150, 6)
        model = train_forest(ds, AlgoDescriptor("rf", trees=5, k=2, seed=3))
        scores = forest_scores(model, ds.X)
        for i in range(0, len(ds), 17):
            score = model_scores(model, ds.X[i : i + 1])
            assert score[0] == scores[i]
            assert is_malware(score)[0] == (score[0] > 0.5)

    def test_forest_at_least_median_tree_accuracy(self, rng):
        ds = random_dataset(rng, 400, 10)
        model = train_forest(ds, AlgoDescriptor("rf", trees=9, k=3, seed=2))
        truth = ds.y == 1
        tree_accs = sorted(
            float(np.mean((tree_scores(t, ds.X) > 0.5) == truth)) for t in model.trees
        )
        forest_acc = float(np.mean((forest_scores(model, ds.X) > 0.5) == truth))
        assert forest_acc >= tree_accs[len(tree_accs) // 2]


def _walked_votes(model: ForestModel, X) -> np.ndarray:
    """Vote fraction from a walk of every tree's nested view for every row."""
    votes = [sum(_walk(_nested(t), row) > 0.5 for t in model.trees) for row in X]
    return np.array(votes, dtype=np.float64) / len(model.trees)


class TestForestDescent:
    """`forest_scores` packs the rows once and equals the per-row walk."""

    @pytest.fixture(scope="class")
    def forest(self):
        ds = random_dataset(np.random.default_rng(8), 300, 8)
        return train_forest(ds, AlgoDescriptor("rf", trees=7, k=3, seed=5))

    @pytest.mark.parametrize("n", (0, 1, 63, 64, 65, 129))
    def test_row_counts_across_word_boundaries(self, forest, rng, n):
        X = rng.integers(0, 2, size=(n, 8), dtype=np.uint8)
        assert np.array_equal(forest_scores(forest, X), _walked_votes(forest, X))

    def test_nonzero_means_set(self, forest, rng):
        X = rng.integers(0, 3, size=(129, 8))
        expected = _walked_votes(forest, X)
        assert np.array_equal(forest_scores(forest, X), expected)
        assert np.array_equal(forest_scores(forest, X.astype(bool)), expected)

    def test_width_mismatch_raises(self, forest):
        with pytest.raises(ValueError, match="width 9 does not match model features 8"):
            forest_scores(forest, np.zeros((5, 9), dtype=np.uint8))

    def test_leaf_roots_and_benign_votes(self):
        def leaf(n_benign, n_malware):
            ids = [np.zeros(1, dtype=np.intp)] * 2
            counts = [np.array([n], dtype=np.int64) for n in (n_benign, n_malware)]
            return TreeModel(np.array([-1]), *ids, *counts, "entropy", False, 1, 0, 3)

        X = np.ones((65, 3), dtype=np.uint8)
        params = AlgoDescriptor("rf", trees=3, k=1)
        benign = _forest((leaf(2, 2), leaf(3, 1), leaf(0, 0)), params)
        assert np.array_equal(forest_scores(benign, X), np.zeros(65))
        mixed = _forest((leaf(2, 2), leaf(1, 3), leaf(0, 1)), params)
        assert np.array_equal(forest_scores(mixed, X), np.full(65, 2 / 3))


class TestForestLayout:
    """A forest is its members' nodes stacked in five arrays; a member's
    criterion, pruned flag, k and seed come from the forest, never from it."""

    def test_hand_built_members_take_the_forest_fields(self, rng, tmp_path):
        from droidtriage.modelio import load_model, save_model

        def tree(feature, low, high, n_benign, n_malware, criterion, pruned, k, seed) -> TreeModel:
            arrays = [np.array(a, dtype=np.intp) for a in (feature, low, high)]
            counts = [np.array(n, dtype=np.int64) for n in (n_benign, n_malware)]
            return TreeModel(*arrays, *counts, criterion, pruned, k, seed, 6)

        # Nodes in preorder, as a model file numbers them, so a reloaded forest has the same arrays.
        members = [
            tree([1, -1, 4, -1, -1], [1, 1, 3, 3, 4], [2, 1, 4, 3, 4], [4, 3, 1, 0, 1], [8, 1, 7, 2, 5], "gini", True, 5, 0),
            tree([0, -1, -1], [1, 1, 2], [2, 1, 2], [5, 5, 0], [3, 0, 3], "entropy", False, 1, 77),
        ]
        ds = random_dataset(rng, 200, 6)
        forest = _forest(members, AlgoDescriptor("rf", trees=2, k=3, seed=21))
        assert [(t.criterion, t.pruned, t.k, t.seed) for t in forest.trees] == [
            ("entropy", False, 3, derive_seed(21, i)) for i in range(2)
        ]
        path = tmp_path / "forest.rf"
        save_model(forest, path, ds.catalog)
        loaded = load_model(path, ds.catalog)
        for name in ("feature", "low", "high", "n_benign", "n_malware", "offsets"):
            assert np.array_equal(getattr(loaded, name), getattr(forest, name)), name
        assert loaded.params == forest.params and loaded.n_features == forest.n_features
        assert np.array_equal(forest_scores(loaded, ds.X), forest_scores(forest, ds.X))
        assert [_nested(t) for t in loaded.trees] == [_nested(t) for t in members]
        assert 0.0 < forest_scores(forest, ds.X).mean() < 1.0

    @pytest.mark.parametrize("count", [1, 4])
    def test_tree_count_must_match_params(self, rng, count):
        ds = random_dataset(rng, 100, 5)
        trees = [train_random_tree(ds, AlgoDescriptor("rt", k=2, seed=s)) for s in range(count)]
        with pytest.raises(ValueError, match=f"forest holds {count} trees, its params 3"):
            _forest(trees, AlgoDescriptor("rf", trees=3, k=2))

    @pytest.mark.parametrize("k", [None, 6])
    def test_k_must_be_resolved_to_the_features(self, rng, tmp_path, k):
        """A forest's k is resolved against its features before it is built:
        a default-k rf descriptor stacked by hand would save ``k None``."""
        from droidtriage.modelio import load_model, save_model

        ds = random_dataset(rng, 100, 5)
        trees = [train_random_tree(ds, AlgoDescriptor("rt", k=2, seed=s)) for s in range(2)]
        with pytest.raises(ValueError, match=f"forest k {k} must be resolved to \\[1, 5\\]"):
            _forest(trees, AlgoDescriptor("rf", trees=2, k=k))
        assert _forest(trees, AlgoDescriptor("rf", trees=2, k=5)).params.k == 5
        forest = train_forest(ds, AlgoDescriptor("rf", trees=2))
        assert forest.params.k == 3  # floor(log2 5) + 1
        save_model(forest, tmp_path / "forest.rf", ds.catalog)
        assert load_model(tmp_path / "forest.rf", ds.catalog).params == forest.params

    def test_members_are_views_with_derived_fields(self, rng):
        ds = random_dataset(rng, 250, 7)
        forest = train_forest(ds, AlgoDescriptor("rf", trees=4, k=3, seed=13))
        assert forest.offsets.tolist()[0] == 0 and len(forest.offsets) == 4
        ends = [*forest.offsets[1:].tolist(), forest.feature.size]
        for i, (member, start, end) in enumerate(zip(forest.trees, forest.offsets.tolist(), ends)):
            for name in ("feature", "low", "high", "n_benign", "n_malware"):
                array = getattr(member, name)
                assert np.shares_memory(array, getattr(forest, name)) and array.size == end - start
            assert (member.criterion, member.pruned, member.k, member.seed) == ("entropy", False, 3, derive_seed(13, i))
            assert member.n_features == 7 and member.kind == "rt"


class TestLogitboostResponse:
    def test_worked_values(self):
        assert logitboost_response(1, 0.5) == WorkingResponse(2.0, 0.25)
        assert logitboost_response(0, 0.5) == WorkingResponse(-2.0, 0.25)

    def test_clamping(self):
        resp = logitboost_response(1, 0.001)
        assert resp.z == Z_MAX == 3.0
        resp = logitboost_response(0, 0.999)
        assert resp.z == -Z_MAX

    def test_weight_floor(self):
        resp = logitboost_response(1, 1e-14)
        assert resp.w == 1e-10

    def test_p_domain(self):
        with pytest.raises(ValueError):
            logitboost_response(1, 0.0)
        with pytest.raises(ValueError):
            logitboost_response(0, 1.0)


def _separable_dataset():
    X = [[1, 0]] * 20 + [[1, 1]] * 5 + [[0, 1]] * 20 + [[0, 0]] * 5
    y = [1] * 25 + [0] * 25
    return make_dataset(X, y)


class TestSimpleLogistic:
    def test_separating_feature_learned(self):
        ds = _separable_dataset()
        model = train_simple_logistic(ds, AlgoDescriptor("sl", max_iter=20, cv_folds=5, seed=0))
        scores = logit_scores(model, ds.X)
        assert np.mean((scores > 0.5) == (ds.y == 1)) == 1.0
        assert np.all(scores[np.asarray(ds.y) == 1] > 0.9)
        assert model.iterations_used <= 20

    def test_log_likelihood_improves_over_empty_model(self):
        ds = _separable_dataset()
        model = train_simple_logistic(ds, AlgoDescriptor("sl", max_iter=20, cv_folds=5, seed=0))
        ll_final = training_log_likelihood(model, ds)
        empty = LogitModel(0.0, (), 0, 20, 5, ds.feature_count)
        assert ll_final > training_log_likelihood(empty, ds)

    def test_empty_model_scores_half(self):
        empty = LogitModel(0.0, (), 0, 10, 5, 3)
        scores = model_scores(empty, np.array([[1, 0, 1]]))
        assert scores.tolist() == [0.5] and not is_malware(scores)[0]

    def test_saturation(self):
        model = LogitModel(10.0, (), 0, 1, 2, 2)
        assert model_scores(model, np.array([[0, 0]]))[0] > 0.999

    def test_score_complement_under_negation(self, rng):
        ds = random_dataset(rng, 60, 5)
        model = train_simple_logistic(ds, AlgoDescriptor("sl", max_iter=8, cv_folds=3, seed=1))
        negated = LogitModel(
            -model.intercept,
            tuple(
                LogitRegressor(r.feature, -r.value_if_0, -r.value_if_1)
                for r in model.regressors
            ),
            model.iterations_used,
            model.max_iterations,
            model.cv_folds,
            model.n_features,
        )
        p = logit_scores(model, ds.X)
        q = logit_scores(negated, ds.X)
        assert np.all(np.abs(p + q - 1.0) < 1e-12)

    def test_monotone_in_positive_regressors(self, rng):
        regs = (
            LogitRegressor(0, -0.5, 1.0),
            LogitRegressor(2, 0.0, 0.7),
            LogitRegressor(0, -0.1, 0.2),
        )
        model = LogitModel(0.0, regs, 3, 10, 5, 4)
        for _ in range(50):
            bits = (rng.random(4) < 0.5).astype(np.uint8)
            base = logit_scores(model, bits[None, :])[0]
            for f in range(4):
                if bits[f] == 0:
                    up = bits.copy()
                    up[f] = 1
                    assert logit_scores(model, up[None, :])[0] >= base

    def test_determinism(self, rng):
        ds = random_dataset(rng, 80, 6)
        a = train_simple_logistic(ds, AlgoDescriptor("sl", max_iter=10, cv_folds=4, seed=9))
        b = train_simple_logistic(ds, AlgoDescriptor("sl", max_iter=10, cv_folds=4, seed=9))
        assert a == b

    def test_validation(self):
        single = make_dataset([[0], [1]], [1, 1])
        with pytest.raises(ValueError, match="both classes"):
            train_simple_logistic(single, AlgoDescriptor("sl", max_iter=5, cv_folds=2, seed=0))
        with pytest.raises(ValueError, match="max_iter"):
            AlgoDescriptor("sl", max_iter=0, cv_folds=2, seed=0)
        with pytest.raises(ValueError, match="cv_folds"):
            AlgoDescriptor("sl", max_iter=5, cv_folds=1, seed=0)

    def test_log_likelihood_of_perfect_probabilities(self):
        assert log_likelihood([1.0, 1.0], [1, 1]) == pytest.approx(0.0, abs=1e-12)
        assert log_likelihood([0.5, 0.5], [0, 1]) == pytest.approx(2 * np.log(0.5))


def _sequential_simple_logistic(ds, algo):
    """Simple logistic boosted fold by fold: each fold's complement is
    copied and boosted on its own, then all rows are boosted again for the
    chosen count. A slow, independent reference for `train_simple_logistic`,
    which boosts the folds and the all-rows model together."""
    X, y = ds.X.astype(np.float64), ds.y.astype(np.float64)

    def fit(X, z, w):
        wz = w * z
        sw1, swz1 = w @ X, wz @ X
        sw0, swz0 = w.sum() - sw1, wz.sum() - swz1
        with np.errstate(divide="ignore", invalid="ignore"):
            explained = np.where(sw1 > 0.0, swz1 * swz1 / np.where(sw1 > 0.0, sw1, 1.0), 0.0)
            explained += np.where(sw0 > 0.0, swz0 * swz0 / np.where(sw0 > 0.0, sw0, 1.0), 0.0)
        f = int(np.argmin((w * z * z).sum() - explained))
        v1 = swz1[f] / sw1[f] if sw1[f] > 0.0 else 0.0
        v0 = swz0[f] / sw0[f] if sw0[f] > 0.0 else 0.0
        return LogitRegressor(f, float(v0), float(v1))

    def boost(X, y, iterations, X_eval, y_eval):
        F, F_eval, regressors = np.zeros(len(y)), np.zeros(len(y_eval)), []
        lls = [log_likelihood(0.5 * (1.0 + np.tanh(F_eval)), y_eval)]
        for _ in range(iterations):
            p = np.clip(0.5 * (1.0 + np.tanh(F)), 1e-15, 1.0 - 1e-15)
            response = logitboost_response(y, p)
            reg = fit(X, response.z, response.w)
            regressors.append(reg)
            F = F + 0.5 * (reg.value_if_0 + (reg.value_if_1 - reg.value_if_0) * X[:, reg.feature])
            F_eval = F_eval + 0.5 * (reg.value_if_0 + (reg.value_if_1 - reg.value_if_0) * X_eval[:, reg.feature])
            lls.append(log_likelihood(0.5 * (1.0 + np.tanh(F_eval)), y_eval))
        return regressors, np.array(lls)

    ll_sum = np.zeros(algo.max_iter + 1)
    for test_idx in stratified_fold_indices(ds.y, algo.cv_folds, algo.seed):
        train_idx = np.setdiff1d(np.arange(len(ds)), test_idx)
        ll_sum += boost(X[train_idx], y[train_idx], algo.max_iter, X[test_idx], y[test_idx])[1]
    iterations_used = int(np.argmax(ll_sum))
    return boost(X, y, iterations_used, X[:0], y[:0])[0]


def _logistic_dataset(seed: int, n: int, n_features: int):
    """Labels drawn from a logistic model of the bits, so the held-out curve
    peaks somewhere between no iterations and the cap."""
    gen = np.random.default_rng(seed)
    X = (gen.random((n, n_features)) < gen.uniform(0.1, 0.9, n_features)).astype(np.uint8)
    logit = X @ gen.normal(0.0, 1.5, n_features)
    logit -= np.median(logit)
    y = (gen.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.uint8)
    return make_dataset(X, y)


def _calibrated_corpus(seed: int):
    from droidtriage.calibration import reference_spec
    from droidtriage.dataset import synthesize

    return synthesize(reference_spec(), seed)


@pytest.mark.parametrize(
    "data, max_iter, cv_folds",
    [
        (lambda: _logistic_dataset(1, 300, 12), 30, 5),
        (lambda: _logistic_dataset(2, 500, 20), 40, 3),
        (lambda: _logistic_dataset(3, 200, 8), 25, 4),
        (lambda: _logistic_dataset(4, 400, 30), 60, 5),
        (lambda: _calibrated_corpus(1), 60, 3),
    ],
    ids=["logistic-1", "logistic-2", "logistic-3", "logistic-4", "calibrated-1"],
)
def test_simple_logistic_matches_sequential_folds(data, max_iter, cv_folds):
    ds = data()
    algo = AlgoDescriptor("sl", max_iter=max_iter, cv_folds=cv_folds, seed=3)
    model = train_simple_logistic(ds, algo)
    reference = _sequential_simple_logistic(ds, algo)
    assert model.iterations_used == len(reference) == len(model.regressors)
    assert 0 < model.iterations_used  # the comparison covers some regressors
    assert [r.feature for r in model.regressors] == [r.feature for r in reference]
    got = np.array([(r.value_if_0, r.value_if_1) for r in model.regressors])
    want = np.array([(r.value_if_0, r.value_if_1) for r in reference])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_forest_beats_median_tree_on_calibrated_corpus():
    import dataclasses

    from droidtriage.calibration import reference_spec
    from droidtriage.dataset import synthesize

    spec = dataclasses.replace(reference_spec(), n_benign=700, n_malware=500)
    ds = synthesize(spec, 21)
    model = train_forest(ds, AlgoDescriptor("rf", trees=10, k=8, seed=6))
    truth = ds.y == 1
    tree_accs = sorted(
        float(np.mean((tree_scores(t, ds.X) > 0.5) == truth)) for t in model.trees
    )
    forest_acc = float(np.mean((forest_scores(model, ds.X) > 0.5) == truth))
    assert forest_acc >= tree_accs[len(tree_accs) // 2]
