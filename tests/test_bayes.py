import numpy as np
import pytest

from droidtriage.algo import AlgoDescriptor, is_malware, model_scores
from droidtriage.bayes import NbModel, nb_scores, train_nb

from conftest import make_dataset, random_dataset


def _toy_model(theta_mal, theta_ben, prior=0.5, alpha=1.0):
    return NbModel(prior, np.atleast_1d(theta_ben), np.atleast_1d(theta_mal), alpha)


class TestTrain:
    def test_laplace_formula_by_hand(self):
        # feature present in 8/10 malware and 2/10 benign, alpha=1
        X = [[1]] * 8 + [[0]] * 2 + [[1]] * 2 + [[0]] * 8
        y = [1] * 10 + [0] * 10
        model = train_nb(make_dataset(X, y), AlgoDescriptor("nb", alpha=1.0))
        assert model.theta_malware[0] == pytest.approx(9 / 12)
        assert model.theta_benign[0] == pytest.approx(3 / 12)
        assert model.prior_malware == pytest.approx(0.5)

    def test_smoothing_floor_for_absent_feature(self):
        X = [[0, 1]] * 10 + [[0, 0]] * 10
        y = [1] * 10 + [0] * 10
        model = train_nb(make_dataset(X, y), AlgoDescriptor("nb", alpha=1.0))
        assert model.theta_malware[0] == pytest.approx(1 / 12)
        assert model.theta_benign[0] == pytest.approx(1 / 12)
        assert 0.0 < model.theta_malware[0]

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            train_nb(make_dataset([[1], [0]], [1, 1]), AlgoDescriptor("nb"))

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            AlgoDescriptor("nb", alpha=alpha)


class TestPredict:
    def test_single_feature_bit_one(self):
        model = _toy_model(theta_mal=0.8, theta_ben=0.2)
        scores = model_scores(model, np.array([[1]]))
        assert scores[0] == pytest.approx(0.8, abs=1e-12)
        assert is_malware(scores)[0]

    def test_single_feature_bit_zero(self):
        model = _toy_model(theta_mal=0.8, theta_ben=0.2)
        scores = model_scores(model, np.array([[0]]))
        assert scores[0] == pytest.approx(0.2, abs=1e-12)
        assert not is_malware(scores)[0]

    def test_symmetric_model_ties_to_benign(self):
        model = _toy_model(theta_mal=0.3, theta_ben=0.3)
        scores = model_scores(model, np.array([[1]]))
        assert scores[0] == pytest.approx(0.5)
        assert not is_malware(scores)[0]

    def test_length_mismatch(self):
        model = _toy_model(theta_mal=[0.8, 0.2], theta_ben=[0.2, 0.8])
        with pytest.raises(ValueError, match="width"):
            model_scores(model, np.array([[1]]))

    def test_posterior_complement(self, rng):
        ds = random_dataset(rng, 80, 12)
        model = train_nb(ds, AlgoDescriptor("nb"))
        p_mal = nb_scores(model, ds.X)
        flipped = NbModel(
            1.0 - model.prior_malware, model.theta_malware, model.theta_benign, model.alpha
        )
        p_ben = nb_scores(flipped, ds.X)
        assert np.all(np.abs(p_mal + p_ben - 1.0) < 1e-12)

    def test_log_space_equals_direct_product(self, rng):
        ds = random_dataset(rng, 40, 8)
        model = train_nb(ds, AlgoDescriptor("nb"))
        scores = nb_scores(model, ds.X)
        for i, row in enumerate(ds.X):
            mal = model.prior_malware
            ben = 1.0 - model.prior_malware
            for f, bit in enumerate(row):
                mal *= model.theta_malware[f] if bit else 1.0 - model.theta_malware[f]
                ben *= model.theta_benign[f] if bit else 1.0 - model.theta_benign[f]
            assert scores[i] == pytest.approx(mal / (mal + ben), abs=1e-9)

    def test_projection_commutes_with_training(self, rng):
        from droidtriage.ranking import rank_features, top_k

        ds = random_dataset(rng, 120, 10)
        names = top_k(rank_features(ds), 4)
        cols = [ds.catalog.index_of(n) for n in names]
        full = train_nb(ds, AlgoDescriptor("nb"))
        projected = train_nb(ds.select_features(names), AlgoDescriptor("nb"))
        assert np.array_equal(full.theta_benign[cols], projected.theta_benign)
        assert np.array_equal(full.theta_malware[cols], projected.theta_malware)
        assert full.prior_malware == projected.prior_malware
