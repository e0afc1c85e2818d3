import math

import numpy as np
import pytest

from droidtriage.calibration import (
    REFERENCE_N_BENIGN,
    REFERENCE_N_MALWARE,
    REFERENCE_TOP20_COUNTS,
    reference_spec,
)
from droidtriage.catalog import default_catalog
from droidtriage.dataset import (
    Dataset,
    DatasetError,
    SyntheticSpec,
    load_spec,
    read_csv,
    read_vectors,
    stratified_fold_indices,
    synthesize,
    write_csv,
    write_spec,
)

from conftest import make_dataset, toy_catalog


class TestDatasetInvariants:
    def test_vector_length_must_match_catalog(self):
        with pytest.raises(DatasetError, match="catalog size"):
            Dataset(toy_catalog(3), [[0, 1]], [0])

    def test_bits_must_be_binary(self):
        with pytest.raises(DatasetError, match="0 or 1"):
            Dataset(toy_catalog(2), [[0, 2]], [0])

    def test_label_count_must_match(self):
        with pytest.raises(DatasetError, match="label count"):
            Dataset(toy_catalog(2), [[0, 1]], [0, 1])

    def test_class_counts(self):
        ds = make_dataset([[0, 1], [1, 1], [0, 0]], [0, 1, 0])
        assert ds.class_counts() == (2, 1)

    def test_class_counts_degenerate(self):
        assert make_dataset(np.zeros((0, 2)), []).class_counts() == (0, 0)
        assert make_dataset([[1, 0]], [1]).class_counts() == (0, 1)

    def test_select_features_projects_columns(self):
        ds = make_dataset([[0, 1, 1], [1, 0, 1]], [0, 1])
        sub = ds.select_features(["f02", "f00"])
        assert sub.catalog.names == ("f02", "f00")
        assert np.array_equal(sub.X, [[1, 0], [1, 1]])


class TestCsvRoundTrip:
    def test_round_trip_bit_for_bit(self, tmp_path, rng):
        cat = toy_catalog(7)
        X = (rng.random((25, 7)) < 0.4).astype(np.uint8)
        y = (rng.random(25) < 0.5).astype(np.uint8)
        ds = make_dataset(X, y, cat)
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        assert read_csv(path, cat).equals(ds)

    def test_empty_dataset_writes_header_only(self, tmp_path):
        cat = toy_catalog(3)
        path = tmp_path / "empty.csv"
        write_csv(make_dataset(np.zeros((0, 3)), [], cat), path)
        assert path.read_text() == "f00,f01,f02,class\n"

    def test_row_count_matches_file_lines(self, tmp_path, rng):
        cat = toy_catalog(4)
        n = 137
        ds = make_dataset((rng.random((n, 4)) < 0.5).astype(np.uint8), rng.integers(0, 2, n), cat)
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        assert len(path.read_text().splitlines()) == n + 1

    def test_bad_cell_names_row_and_column(self, tmp_path):
        cat = toy_catalog(2)
        rows = ["f00,f01,class"] + ["0,1,benign"] * 4 + ["0,2,benign"]
        (tmp_path / "bad.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(DatasetError, match=r"row 5.*f01.*'2'"):
            read_csv(tmp_path / "bad.csv", cat)

    def test_missing_label_column(self, tmp_path):
        cat = toy_catalog(2)
        (tmp_path / "nolabel.csv").write_text("f00,f01\n0,1\n")
        with pytest.raises(DatasetError, match="label column absent"):
            read_csv(tmp_path / "nolabel.csv", cat)
        X, y = read_vectors(tmp_path / "nolabel.csv", cat)
        assert y is None and np.array_equal(X, [[0, 1]])

    def test_unknown_label(self, tmp_path):
        cat = toy_catalog(1)
        (tmp_path / "l.csv").write_text("f00,class\n0,weird\n")
        with pytest.raises(DatasetError, match="row 1.*'weird'"):
            read_csv(tmp_path / "l.csv", cat)

    def test_ragged_row(self, tmp_path):
        cat = toy_catalog(2)
        (tmp_path / "r.csv").write_text("f00,f01,class\n0,1,0,benign\n")
        with pytest.raises(DatasetError, match="row 1"):
            read_csv(tmp_path / "r.csv", cat)

    def test_header_mismatch(self, tmp_path):
        cat = toy_catalog(2)
        (tmp_path / "h.csv").write_text("f01,f00,class\n0,1,benign\n")
        with pytest.raises(DatasetError, match="header"):
            read_csv(tmp_path / "h.csv", cat)


class TestSynthesize:
    def test_determinism(self):
        spec = reference_spec()
        a = synthesize(spec, 7)
        b = synthesize(spec, 7)
        assert a.equals(b)

    def test_different_seeds_differ(self):
        spec = reference_spec()
        assert not synthesize(spec, 0).equals(synthesize(spec, 1))

    def test_block_order_benign_then_malware(self):
        cat = toy_catalog(2)
        spec = SyntheticSpec(cat, [0.5, 0.5], [0.5, 0.5], 3, 2)
        ds = synthesize(spec, 0)
        assert list(ds.y) == [0, 0, 0, 1, 1]

    def test_all_zero_probabilities(self):
        cat = toy_catalog(3)
        ds = synthesize(SyntheticSpec(cat, np.zeros(3), np.zeros(3), 5, 5), 3)
        assert not ds.X.any()

    def test_reference_shape(self):
        ds = synthesize(reference_spec(), 0)
        assert ds.class_counts() == (REFERENCE_N_BENIGN, REFERENCE_N_MALWARE)

    def test_binomial_concentration_at_fixed_seed(self):
        ds = synthesize(reference_spec(), 42)
        cat = ds.catalog
        mal = ds.X[ds.y == 1]
        name, _, count = REFERENCE_TOP20_COUNTS[0]
        p = count / REFERENCE_N_MALWARE
        sigma = math.sqrt(REFERENCE_N_MALWARE * p * (1 - p))
        observed = int(mal[:, cat.index_of(name)].sum())
        assert abs(observed - count) <= 3 * sigma

    def test_calibration_all_features_within_4_sigma(self):
        spec = reference_spec()
        ds = synthesize(spec, 42)
        for cls, p_target, total in ((0, spec.p_benign, REFERENCE_N_BENIGN),
                                     (1, spec.p_malware, REFERENCE_N_MALWARE)):
            counts = ds.X[ds.y == cls].sum(axis=0)
            sigma = np.sqrt(np.maximum(total * p_target * (1 - p_target), 1e-12))
            assert np.all(np.abs(counts - total * p_target) <= 4 * sigma)

    def test_xor_strength_one_is_exact(self):
        cat = toy_catalog(5)
        spec = SyntheticSpec(cat, np.full(5, 0.5), np.full(5, 0.5), 200, 200,
                             xor_interaction=(0, 3, 1.0))
        ds = synthesize(spec, 9)
        assert np.array_equal(ds.X[:, 0] ^ ds.X[:, 3], ds.y)

    def test_xor_partial_strength(self):
        cat = toy_catalog(4)
        spec = SyntheticSpec(cat, np.full(4, 0.5), np.full(4, 0.5), 3000, 3000,
                             xor_interaction=(0, 1, 0.8))
        ds = synthesize(spec, 11)
        agree = np.mean((ds.X[:, 0] ^ ds.X[:, 1]) == ds.y)
        assert abs(agree - 0.8) < 0.03

    def test_invalid_probability_rejected(self):
        cat = toy_catalog(2)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SyntheticSpec(cat, [0.5, 1.2], [0.5, 0.5], 1, 1)

    def test_invalid_xor_rejected(self):
        cat = toy_catalog(2)
        with pytest.raises(ValueError, match="distinct"):
            SyntheticSpec(cat, [0.5, 0.5], [0.5, 0.5], 1, 1, xor_interaction=(1, 1, 1.0))
        with pytest.raises(ValueError, match="q"):
            SyntheticSpec(cat, [0.5, 0.5], [0.5, 0.5], 1, 1, xor_interaction=(0, 1, 0.3))


class TestSpecFile:
    def test_round_trip(self, tmp_path):
        cat = toy_catalog(4)
        spec = SyntheticSpec.from_rates(
            cat, {"f01": (0.2, 0.9)}, 10, 20, xor_features=("f00", "f02", 0.75)
        )
        path = tmp_path / "s.spec"
        write_spec(spec, path)
        back = load_spec(path, cat)
        assert np.array_equal(back.p_benign, spec.p_benign)
        assert np.array_equal(back.p_malware, spec.p_malware)
        assert back.xor_interaction == spec.xor_interaction
        assert (back.n_benign, back.n_malware) == (10, 20)

    def test_unlisted_features_get_background(self, tmp_path):
        cat = toy_catalog(3)
        (tmp_path / "s.spec").write_text(
            "#n_benign=5\n#n_malware=5\nname,p_benign,p_malware\nf01,0.9,0.1\n"
        )
        spec = load_spec(tmp_path / "s.spec", cat)
        assert list(spec.p_benign) == [0.05, 0.9, 0.05]

    def test_missing_counts_directive(self, tmp_path):
        (tmp_path / "s.spec").write_text("name,p_benign,p_malware\nf00,0.5,0.5\n")
        with pytest.raises(DatasetError, match="n_benign"):
            load_spec(tmp_path / "s.spec", toy_catalog(1))

    def test_unknown_feature_rejected(self, tmp_path):
        (tmp_path / "s.spec").write_text("#n_benign=1\n#n_malware=1\nghost,0.5,0.5\n")
        with pytest.raises(DatasetError, match="ghost"):
            load_spec(tmp_path / "s.spec", toy_catalog(1))

    def test_synth_default_is_reference_spec(self, tmp_path):
        from droidtriage.cli import main

        out = tmp_path / "corpus.csv"
        assert main(["synth", "--seed", "42", "--out", str(out)]) == 0
        assert read_csv(out, default_catalog()).equals(synthesize(reference_spec(), 42))


class TestStratifiedFoldIndices:
    def test_partition_and_balance(self, rng):
        y = np.concatenate([np.zeros(103, dtype=int), np.ones(57, dtype=int)])
        folds = stratified_fold_indices(y, 5, 3)
        merged = np.sort(np.concatenate(folds))
        assert np.array_equal(merged, np.arange(160))
        for fold in folds:
            n_mal = int(y[fold].sum())
            assert abs(n_mal - 57 / 5) < 1
            assert abs((len(fold) - n_mal) - 103 / 5) < 1

    def test_k_bounds(self):
        y = [0, 0, 1, 1]
        with pytest.raises(ValueError):
            stratified_fold_indices(y, 1, 0)
        with pytest.raises(ValueError):
            stratified_fold_indices(y, 3, 0)
        folds = stratified_fold_indices(y, 2, 0)
        assert all(len(f) == 2 for f in folds)


def test_bit_positions_follow_catalog_order():
    cat = toy_catalog(6)
    p_ben = np.zeros(6)
    p_ben[cat.index_of("f03")] = 1.0
    spec = SyntheticSpec(cat, p_ben, np.zeros(6), 10, 0)
    ds = synthesize(spec, 0)
    assert ds.X[:, cat.index_of("f03")].all()
    assert ds.X.sum() == 10
