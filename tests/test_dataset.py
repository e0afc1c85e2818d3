import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from droidtriage.calibration import (
    REFERENCE_N_BENIGN,
    REFERENCE_N_MALWARE,
    REFERENCE_TOP20_COUNTS,
    reference_spec,
)
from droidtriage import dataset
from droidtriage.catalog import default_catalog
from droidtriage.dataset import (
    Dataset,
    DatasetError,
    Label,
    SyntheticSpec,
    load_spec,
    read_csv,
    read_vectors,
    stratified_fold_indices,
    synthesize,
    write_csv,
    write_vector_csv,
)

from conftest import make_dataset, same_dataset, toy_catalog, write_catalog, write_spec


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

    @pytest.mark.parametrize("block", [1, 1 << 18])
    def test_class_feature_counts_equal_an_int64_oracle(self, rng, monkeypatch, block):
        """Over every row, a fold's rows and one class's rows, with blocks of
        one row and of about 1,465 rows of the 179 features."""
        monkeypatch.setattr(dataset, "_CHUNK_BYTES", block)
        ds = make_dataset(rng.random((4000, 179)) < rng.random(179), rng.random(4000) < 0.4)
        fold = np.zeros(len(ds), dtype=bool)
        fold[stratified_fold_indices(ds.y, 3, 1)[0]] = True
        for rows in (None, fold, ds.y == 1):
            selected = np.ones(len(ds), dtype=bool) if rows is None else rows
            counts, ones = ds.class_feature_counts(rows)
            assert counts.dtype == ones.dtype == np.int64
            for label in (0, 1):
                chosen = selected & (ds.y == label)
                assert counts[label] == np.count_nonzero(chosen)
                assert np.array_equal(ones[label], ds.X[chosen].astype(np.int64).sum(axis=0))

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
        assert same_dataset(read_csv(path, cat), ds)

    def test_empty_dataset_writes_header_only(self, tmp_path):
        cat = toy_catalog(3)
        path = tmp_path / "empty.csv"
        write_csv(make_dataset(np.zeros((0, 3)), [], cat), path)
        assert path.read_text() == "f00,f01,f02,class\n"

    def test_zero_feature_round_trip(self, tmp_path):
        from droidtriage.catalog import FeatureCatalog, FeatureDef
        from droidtriage.cli import main

        cat, path = toy_catalog(0), tmp_path / "d.csv"
        ds = make_dataset(np.zeros((3, 0)), [0, 1, 0], cat)
        write_csv(ds, path)
        assert path.read_bytes() == b"class\nbenign\nmalware\nbenign\n"
        assert same_dataset(read_csv(path, cat), ds)
        # extract with a feature set that selects none of the catalog's features
        app, cat_path = tmp_path / "app", tmp_path / "api.csv"
        app.mkdir()
        (app / "AndroidManifest.xml").write_text("")
        write_catalog(FeatureCatalog([FeatureDef("exec", "API", "Runtime.exec")]), cat_path)
        assert main([
            "extract", str(app), "--catalog", str(cat_path), "--feature-set", "pf",
            "--label", "benign", "--out", str(path),
        ]) == 0
        assert path.read_bytes() == b"class\nbenign\n"
        X, y = read_vectors(path, cat)
        assert X.shape == (1, 0) and y.tolist() == [0]

    def test_unlabeled_zero_feature_round_trip(self, tmp_path):
        from droidtriage.catalog import FeatureCatalog, FeatureDef, FeatureSet, select_feature_set
        from droidtriage.cli import main

        path = tmp_path / "v.csv"
        write_vector_csv(toy_catalog(0), np.zeros(0, dtype=np.uint8), path)
        assert path.read_bytes() == b"\n\n"
        X, y = read_vectors(path, toy_catalog(0))
        assert X.shape == (1, 0) and y is None
        # extract without --label, with a feature set that selects nothing
        app, cat_path = tmp_path / "app", tmp_path / "api.csv"
        app.mkdir()
        (app / "AndroidManifest.xml").write_text("")
        catalog = FeatureCatalog([FeatureDef("exec", "API", "Runtime.exec")])
        write_catalog(catalog, cat_path)
        assert main([
            "extract", str(app), "--catalog", str(cat_path), "--feature-set", "pf", "--out", str(path),
        ]) == 0
        assert path.read_bytes() == b"\n\n"
        X, y = read_vectors(path, select_feature_set(catalog, FeatureSet("pf")))
        assert X.shape == (1, 0) and y is None

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


def _line_reader(path, catalog):
    """The line-at-a-time reader the byte-level `read_vectors` replaced, kept
    as its oracle: same arrays, same errors, except that it fails with
    UnicodeDecodeError on a file that is not UTF-8. With no features and no
    labels, an empty line has no cells, as the writer makes it."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DatasetError(f"{path}: empty file")
    header = lines[0].split(",")
    names = list(catalog.names)
    if header == (names or [""]):
        labeled = False
    elif header == names + ["class"]:
        labeled = True
    else:
        have = len(header)
        want = len(names) + 1
        if header and header[-1] != "class" and have in (want, want - 1):
            raise DatasetError(f"{path}: label column absent or misplaced")
        raise DatasetError(
            f"{path}: header does not match catalog "
            f"({have} columns, expected {want} including 'class')"
        )
    F = len(names)
    n = len(lines) - 1
    X = np.zeros((n, F), dtype=np.uint8)
    y = np.zeros(n, dtype=np.uint8) if labeled else None
    text_label = {"benign": 0, "malware": 1}
    ok_cells = {"0", "1"}
    for row, line in enumerate(lines[1:], start=1):
        cells = line.split(",") if line or F or labeled else []
        if len(cells) != F + (1 if labeled else 0):
            raise DatasetError(
                f"{path}: row {row}: expected {F + (1 if labeled else 0)} cells, got {len(cells)}"
            )
        if labeled:
            tag = cells.pop()
            if tag not in text_label:
                raise DatasetError(f"{path}: row {row}: unknown label {tag!r}")
            y[row - 1] = text_label[tag]
        if not ok_cells.issuperset(cells):
            col = next(i for i, c in enumerate(cells) if c not in ok_cells)
            raise DatasetError(
                f"{path}: row {row}, column {names[col]!r}: cell must be 0 or 1, got {cells[col]!r}"
            )
        X[row - 1] = [c == "1" for c in cells]
    return X, y


def _outcome(reader, path, catalog):
    """(X, y) as lists, or the DatasetError text."""
    try:
        X, y = reader(path, catalog)
    except DatasetError as exc:
        return str(exc)
    return X.shape, X.tolist(), None if y is None else y.tolist()


def _assert_parity(path, catalog):
    """`read_vectors` matches the line reader on a UTF-8 file; otherwise it
    raises DatasetError, where the line reader raised UnicodeDecodeError."""
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        with pytest.raises(DatasetError, match="not valid UTF-8"):
            read_vectors(path, catalog)
        return
    assert _outcome(read_vectors, path, catalog) == _outcome(_line_reader, path, catalog)


_VALID = b"f00,f01,f02,class\n0,1,1,benign\n1,0,0,malware\n1,1,1,benign\n0,0,0,malware\n"
_UNLABELED = b"f00,f01,f02\n0,1,1\n1,0,0\n"


class TestReaderParity:
    @pytest.mark.parametrize(
        "data",
        [
            _VALID,
            _VALID.replace(b"\n", b"\r\n"),
            _VALID.replace(b"\n", b"\r"),
            b"f00,f01,f02,class\r\n0,1,1,benign\r1,0,0,malware\n",
            _VALID[:-1],
            _VALID + b"\n",
            _VALID.replace(b"benign\n1,1,1", b"benign\n\n1,1,1"),
            b"f00,f01,f02,class\n",
            b"f00,f01,f02,class",
            b"",
            b"\n",
            b"\r\n",
            _UNLABELED,
            _UNLABELED[:-1],
            _VALID.replace(b"0,0,0,", b"0,2,0,"),
            _VALID.replace(b"0,0,0,", "0,\u00e9,0,".encode()),
            _VALID.replace(b"0,0,0,", b"00,0,"),
            _VALID.replace(b"0,0,0,", b"0,,0,0,"),
            _VALID.replace(b"0,0,0,", b"0,0,0"),
            _VALID.replace(b"1,1,1,benign", b"1,1,1,Benign"),
            _VALID.replace(b"1,1,1,benign", b"1,1,1,benign "),
            _VALID.replace(b"1,1,1,benign", b"1,1,1,0,benign"),
            _VALID.replace(b"1,1,1,benign", b"1,1,benign"),
            _VALID.replace(b"benign", b"malware"),
            _VALID.replace(b"malware", b"malwar"),
            _VALID.replace(b"malware", b"malwaree"),
            _UNLABELED.replace(b"1,0,0", b"1,0,0,benign"),
            _UNLABELED.replace(b"1,0,0", b"1,0,"),
            b"f01,f00,f02,class\n0,1,1,benign\n",
            b"f00,f01,f02,label\n0,1,1,benign\n",
            b"\xef\xbb\xbff00,f01,f02,class\n0,1,1,benign\n",
            b"f00,f01,f02,class\n0,1,1,benign\n0,1,\xff,malware\n",
            b"f00,f01,f\xff2,class\n0,1,1,benign\n",
        ],
    )
    def test_edge_cases_match_line_reader(self, tmp_path, data):
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        _assert_parity(path, toy_catalog(3))

    def test_no_feature_catalog(self, tmp_path):
        path = tmp_path / "d.csv"
        for data in (
            b"class\nbenign\nmalware\n", b"class\n,benign\n", b"\nbenign\n",
            b"\n", b"\n\n", b"\n\n\n", b"\r\n\r\n", b"\n,\n", b"\n0\n",
        ):
            path.write_bytes(data)
            _assert_parity(path, toy_catalog(0))

    def test_non_utf8_names_the_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"f00,class\n0,benign\n1,malware\xff\n")
        with pytest.raises(DatasetError, match=r"row 2: not valid UTF-8"):
            read_vectors(path, toy_catalog(1))
        path.write_bytes(b"f\xff0,class\n0,benign\n")
        with pytest.raises(DatasetError, match=r"header: not valid UTF-8"):
            read_vectors(path, toy_catalog(1))

    @pytest.mark.parametrize("base", [_VALID, _UNLABELED])
    def test_every_one_byte_change_matches_line_reader(self, tmp_path, base):
        """Each position is replaced by bytes chosen to hit every check, then
        deleted; seeded random bytes cover the rest of the range."""
        rng = np.random.default_rng(2024)
        path = tmp_path / "d.csv"
        probes = b"\x00\n\r,012ben\xc3\xa9\x80\xff"
        for pos in range(len(base)):
            edits = [base[:pos] + bytes([b]) + base[pos + 1 :] for b in probes]
            edits += [base[:pos] + bytes([b]) + base[pos + 1 :] for b in rng.integers(0, 256, 4)]
            edits.append(base[:pos] + base[pos + 1 :])
            for data in edits:
                path.write_bytes(data)
                _assert_parity(path, toy_catalog(3))

    def test_large_file_spans_chunks(self, tmp_path):
        """Rows across several read chunks, with the first fault deep in the file."""
        ds = synthesize(reference_spec(), 5)
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        assert same_dataset(read_csv(path, ds.catalog), ds)
        lines = path.read_bytes().split(b"\n")
        lines[6000] = lines[6000][:-7] + b"benign "
        path.write_bytes(b"\n".join(lines))
        _assert_parity(path, ds.catalog)


class TestBytePins:
    def test_synth_seed_42_bytes(self, tmp_path):
        from droidtriage.cli import main

        out = tmp_path / "corpus.csv"
        assert main(["synth", "--seed", "42", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "aaa1cf2078523104fa82d860ea0ce023e50493f02f0ad171123d452e5acd277a"
        )

    def test_vector_csv_bytes(self, tmp_path):
        cat = toy_catalog(3)
        path = tmp_path / "v.csv"
        write_vector_csv(cat, [1, 0, 2], path)
        assert path.read_bytes() == b"f00,f01,f02\n1,0,1\n"
        write_vector_csv(cat, [0, 1, 0], path, label=Label.MALWARE)
        assert path.read_bytes() == b"f00,f01,f02,class\n0,1,0,malware\n"
        write_vector_csv(cat, [0, 0, 0], path, label=Label.BENIGN)
        assert path.read_bytes() == b"f00,f01,f02,class\n0,0,0,benign\n"

    def test_read_then_write_gives_the_same_bytes(self, tmp_path):
        src, out = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(synthesize(reference_spec(), 7), src)
        write_csv(read_csv(src, default_catalog()), out)
        assert out.read_bytes() == src.read_bytes()
        src.write_bytes(_UNLABELED[:18])
        X, y = read_vectors(src, toy_catalog(3))
        write_vector_csv(toy_catalog(3), X[0], out)
        assert y is None and out.read_bytes() == src.read_bytes()


class TestSynthesize:
    def test_determinism(self):
        spec = reference_spec()
        a = synthesize(spec, 7)
        b = synthesize(spec, 7)
        assert same_dataset(a, b)

    def test_different_seeds_differ(self):
        spec = reference_spec()
        assert not same_dataset(synthesize(spec, 0), synthesize(spec, 1))

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

    @pytest.mark.parametrize("rates", [(math.nan, 0.5), (0.5, math.nan)])
    def test_nan_rate_rejected(self, rates):
        """A NaN rate passed both `p < 0` and `p > 1` unflagged and was drawn as rate 0."""
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SyntheticSpec.from_rates(toy_catalog(2), {"f01": rates}, 1, 1)

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

    def test_blank_lines_synthesize_the_same_bytes(self, tmp_path):
        """Empty and whitespace-only lines are skipped wherever they stand."""
        from droidtriage.cli import main

        lines = ["#n_benign=40", "#n_malware=30", "#xor=SEND_SMS,chmod,0.9", "name,p_benign,p_malware",
                 "SEND_SMS,0.1,0.8", "chmod,0.3,0.6"]
        outputs = []
        for name, text in (("plain", "\n".join(lines) + "\n"), ("blank", "\n\n  \n".join(["", *lines, ""]))):
            (tmp_path / f"{name}.spec").write_text(text)
            out = tmp_path / f"{name}.csv"
            assert main(["synth", "--spec", str(tmp_path / f"{name}.spec"), "--seed", "3", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_synth_default_is_reference_spec(self, tmp_path):
        from droidtriage.cli import main

        out = tmp_path / "corpus.csv"
        assert main(["synth", "--seed", "42", "--out", str(out)]) == 0
        assert same_dataset(read_csv(out, default_catalog()), synthesize(reference_spec(), 42))


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
