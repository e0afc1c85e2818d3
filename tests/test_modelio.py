import hashlib
import time

import numpy as np
import pytest

from droidtriage.algo import MAX_CV_FOLDS, MAX_TREES, AlgoDescriptor, model_scores, train_model
from droidtriage.catalog import FeatureCatalog, FeatureDef
from droidtriage.cli import main
from droidtriage.dataset import write_csv
from droidtriage.modelio import ModelFormatError, load_model, save_model
from droidtriage.trees import derive_seed

from conftest import make_dataset, random_dataset, toy_catalog, write_catalog

ALL_KINDS = [
    AlgoDescriptor("nb", alpha=0.5),
    AlgoDescriptor("dt"),
    AlgoDescriptor("dt", prune=True, seed=3),
    AlgoDescriptor("rt", k=4, seed=8),
    AlgoDescriptor("rf", trees=4, k=3, seed=5, bootstrap_fraction=0.8),
    AlgoDescriptor("rf", trees=2, k=2, bootstrap=False),
    AlgoDescriptor("sl", max_iter=6, cv_folds=3, seed=2),
]


@pytest.mark.parametrize("algo", ALL_KINDS, ids=lambda a: f"{a.kind}-{a.seed}")
def test_round_trip_scores_identical(tmp_path, rng, algo):
    cat = toy_catalog(12)
    ds = random_dataset(rng, 80, 12, cat)
    model = train_model(algo, ds)
    path = tmp_path / "m.model"
    save_model(model, path, cat)
    reloaded = load_model(path, cat)
    probe = (np.random.default_rng(0).random((1000, 12)) < 0.5).astype(np.uint8)
    assert np.array_equal(model_scores(model, probe), model_scores(reloaded, probe))


def test_fingerprint_mismatch_names_both(tmp_path, rng):
    cat = toy_catalog(5)
    other = FeatureCatalog(
        [FeatureDef(f"g{i}", "API", f"pat{i}") for i in range(5)]
    )
    ds = random_dataset(rng, 30, 5, cat)
    model = train_model(AlgoDescriptor("nb"), ds)
    path = tmp_path / "m.nb"
    save_model(model, path, cat)
    with pytest.raises(ModelFormatError) as err:
        load_model(path, other)
    assert cat.fingerprint() in str(err.value)
    assert other.fingerprint() in str(err.value)


def test_fingerprint_mismatch_is_one_line(tmp_path):
    """The file's fingerprint is quoted, so a line break in it (a vertical
    tab here) cannot split the error line."""
    cat = toy_catalog(4)
    path = tmp_path / "m.dt"
    path.write_text("\n".join(["droidtriage-model v1 dt", "catalog \v" + cat.fingerprint()[1:], *_tree_body()]) + "\n")
    with pytest.raises(ModelFormatError, match=r"model built for '\\x0b") as err:
        load_model(path, cat)
    assert len(str(err.value).splitlines()) == 1


def test_not_a_model_file(tmp_path):
    path = tmp_path / "junk"
    path.write_text("hello world\n")
    with pytest.raises(ModelFormatError, match="not a model file"):
        load_model(path, toy_catalog(2))


def test_unsupported_version(tmp_path):
    cat = toy_catalog(2)
    path = tmp_path / "m"
    path.write_text(f"droidtriage-model v9 nb\ncatalog {cat.fingerprint()}\n")
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path, cat)


def test_truncated_body(tmp_path, rng):
    cat = toy_catalog(4)
    ds = random_dataset(rng, 20, 4, cat)
    path = tmp_path / "m.rf"
    save_model(train_model(AlgoDescriptor("rf", trees=2, k=2), ds), path, cat)
    clipped = path.read_text().splitlines()[:-3]
    path.write_text("\n".join(clipped) + "\n")
    with pytest.raises(ModelFormatError):
        load_model(path, cat)


def test_header_line_format(tmp_path, rng):
    cat = toy_catalog(3)
    ds = random_dataset(rng, 20, 3, cat)
    for algo, kind in [
        (AlgoDescriptor("nb"), "nb"),
        (AlgoDescriptor("dt"), "dt"),
        (AlgoDescriptor("rt", k=2), "rt"),
        (AlgoDescriptor("rf", trees=2, k=2), "rf"),
        (AlgoDescriptor("sl", max_iter=3, cv_folds=2), "sl"),
    ]:
        path = tmp_path / f"m.{kind}"
        save_model(train_model(algo, ds), path, cat)
        first = path.read_text().splitlines()[0]
        assert first == f"droidtriage-model v1 {kind}"


# sha256 of the file each ALL_KINDS entry saves after training on
# _pinned_corpus(): they pin the v1 text format and every training stream.
PINNED_SHA256 = [
    "132ef5abe8c17b2939ce7fee81db14f06c51918d4416d80c26ded51160aa5ca7",
    "7dfbf487e8cdc560558ce751caa2ef8933879944ee3f2ad24867f03f04343177",
    "638c11cc472ab963d6726750c5034e4c85a255b8214ba7e6ad84525a909d8858",
    "af1f592f9f4421463cd6de4ecf1297ea35d81e62741cdf484fefa952f09d374f",
    "8cd23b966534a125549222d2314f03d3065c961d875e7c896a94f702dc222eed",
    "1021074ede3b1b12c17db48152636dbc3115698a47dd03064c7ec992467d5037",
    "6800bb41a57ab61364173b967dd0c36ad75cf21c5218c4dfad3950cb537915db",
]


def _pinned_corpus():
    rng = np.random.default_rng(2024)
    X = (rng.random((120, 12)) < 0.4).astype(np.uint8)
    y = (X[:, 0] | (X[:, 1] & X[:, 2])) ^ (rng.random(120) < 0.1)
    return make_dataset(X, y, toy_catalog(12))


@pytest.mark.parametrize(
    "algo, digest", zip(ALL_KINDS, PINNED_SHA256), ids=[f"{a.kind}-{a.seed}" for a in ALL_KINDS]
)
def test_saved_bytes_pinned(tmp_path, algo, digest):
    ds = _pinned_corpus()
    path, again = tmp_path / "m.model", tmp_path / "again.model"
    save_model(train_model(algo, ds), path, ds.catalog)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    save_model(load_model(path, ds.catalog), again, ds.catalog)
    assert again.read_bytes() == path.read_bytes()


_TREE_HEAD = ["criterion entropy", "pruned 0", "k 0", "seed 0"]
_SL_HEAD = ["intercept 0.0", "iterations_used 1", "max_iterations 5", "cv_folds 2"]

def _nb_body(alpha="1.0", prior="0.5", theta_benign="0.5 0.5 0.5 0.5", theta_malware="0.5 0.5 0.5 0.5"):
    return [
        f"alpha {alpha}", f"prior {prior}", f"theta_benign {theta_benign}", f"theta_malware {theta_malware}"
    ]


def _tree_body(criterion="entropy", pruned="0", k="0", seed="0"):
    return [f"criterion {criterion}", f"pruned {pruned}", f"k {k}", f"seed {seed}", "n_features 4", "L 1 0"]


# The seed `train_forest` gives member 0 of a forest with seed 0.
_MEMBER_SEED = str(derive_seed(0, 0))


def _rf_body(trees="1", k="1", fraction="1.0", bootstrap="1", member=None):
    """A forest of one leaf; its member is `member` or a tree with the fields
    `train_forest` derives for it: entropy, unpruned, the forest's k and seed."""
    head = [f"trees {trees}", f"k {k}", f"bootstrap_fraction {fraction}", f"bootstrap {bootstrap}", "seed 0"]
    return head + ["tree"] + (member or _tree_body(k=k, seed=_MEMBER_SEED))


def _sl_body(iterations="1", max_iterations="5", cv_folds="2"):
    head = [f"iterations_used {iterations}", f"max_iterations {max_iterations}", f"cv_folds {cv_folds}"]
    return ["intercept 0.0"] + head + ["n_features 4"] + ["R 0 -1.0 1.0"] * int(iterations)


# Hostile model files for a 4-feature catalog: (kind, body, expected error).
CRAFTED = {
    "truncated-deep-chain": ("dt", _TREE_HEAD + ["n_features 4", "S 0", "S 1", "S 2", "S 3"], "end of file"),
    "split-feature-repeated-below": (
        "dt", _TREE_HEAD + ["n_features 4", "S 1", "S 2", "S 1"], "tree 0 node 2: feature 1 is already tested on its path"
    ),
    "split-feature-repeated-high": (
        "rt", _tree_body(k="2")[:-1] + ["S 3", "L 1 0", "S 0", "L 0 1", "S 3"], "tree 0 node 4: feature 3 is already"
    ),
    "rf-member-split-feature-repeated": (
        "rf", _rf_body(member=_tree_body(k="1", seed=_MEMBER_SEED)[:-1] + ["S 2", "S 2"]), "tree 0 node 1: feature 2"
    ),
    "split-feature": ("dt", _TREE_HEAD + ["n_features 4", "S 999", "L 1 0", "L 0 1"], "999"),
    "regressor-feature": ("sl", _SL_HEAD + ["n_features 4", "R 500 -1.0 1.0"], "500"),
    "tree-width": ("dt", _TREE_HEAD + ["n_features 3", "L 1 0"], "has 3 features"),
    "tree-width-vertical-tab": ("dt", _TREE_HEAD + ["n_features \v3", "L 1 0"], "has 3 features"),
    "sl-width": ("sl", _SL_HEAD + ["n_features 5", "R 0 -1.0 1.0"], "has 5 features"),
    "negative-leaf": ("dt", _TREE_HEAD + ["n_features 4", "L -5 2"], "negative"),
    "theta-length": (
        "nb", ["alpha 1.0", "prior 0.5", "theta_benign 0.5 0.5", "theta_malware 0.5 0.5"], "has 2 features"
    ),
    "leaf-count-overflow": ("dt", _TREE_HEAD + ["n_features 4", "L 99999999999999999999 0"], "malformed"),
    "nb-alpha-nan": ("nb", _nb_body(alpha="nan"), "non-finite number 'nan'"),
    "nb-prior-inf": ("nb", _nb_body(prior="inf"), "non-finite number 'inf'"),
    "nb-theta-benign-nan": ("nb", _nb_body(theta_benign="0.5 nan 0.5 0.5"), "non-finite"),
    "nb-theta-malware-inf": ("nb", _nb_body(theta_malware="0.5 0.5 0.5 -inf"), "non-finite"),
    "sl-intercept-nan": ("sl", ["intercept nan"] + _SL_HEAD[1:] + ["n_features 4", "R 0 -1.0 1.0"], "non-finite"),
    "sl-regressor-inf": ("sl", _SL_HEAD + ["n_features 4", "R 0 -1.0 inf"], "non-finite"),
    "sl-regressor-nan": ("sl", _SL_HEAD + ["n_features 4", "R 0 NaN 1.0"], "non-finite"),
    "rf-trees-0": ("rf", _rf_body(trees="0"), "forest needs at least one tree"),
    "rf-trees-above-cap": ("rf", _rf_body(trees=str(MAX_TREES + 1)), f"trees must be at most {MAX_TREES}"),
    "rf-k-0": ("rf", _rf_body(k="0"), "k must be at least 1"),
    "rf-fraction-0": ("rf", _rf_body(fraction="0.0"), r"bootstrap fraction must lie in \(0, 1\]"),
    "rf-fraction-1.5": ("rf", _rf_body(fraction="1.5"), r"bootstrap fraction must lie in \(0, 1\]"),
    "rf-k-wider-than-catalog": ("rf", _rf_body(k="100000"), "k 100000 exceeds the catalog's 4 features"),
    "rf-bootstrap-7": ("rf", _rf_body(bootstrap="7"), "flag must be 0 or 1, got '7'"),
    "tree-criterion": ("dt", _tree_body(criterion="bogus"), "criterion must be one of"),
    "tree-k-negative": ("dt", _tree_body(k="-3"), "k must be at least 1"),
    "tree-k-wider-than-catalog": ("rt", _tree_body(k="5"), "k 5 exceeds the catalog's 4 features"),
    "tree-pruned-5": ("dt", _tree_body(pruned="5"), "flag must be 0 or 1, got '5'"),
    "tree-seed-negative": ("dt", _tree_body(seed="-1"), "seed must be non-negative"),
    "sl-max-iterations-negative": ("sl", _sl_body(iterations="0", max_iterations="-4"), "max_iter must be at least 1"),
    "sl-cv-folds-0": ("sl", _sl_body(cv_folds="0"), rf"cv_folds must lie in \[2, {MAX_CV_FOLDS}\]"),
    "sl-cv-folds-above-cap": ("sl", _sl_body(cv_folds=str(MAX_CV_FOLDS + 1)), rf"cv_folds must lie in \[2, {MAX_CV_FOLDS}\]"),
    "sl-iterations-above-max": ("sl", _sl_body(iterations="6"), r"iterations_used 6 outside \[0, 5\]"),
    "sl-iterations-negative": ("sl", _SL_HEAD[:1] + ["iterations_used -1"] + _SL_HEAD[2:] + ["n_features 4"], "outside"),
    "nb-alpha-negative": ("nb", _nb_body(alpha="-1.0"), "alpha must be finite and positive"),
    "nb-theta-0": (
        "nb", _nb_body(theta_benign="0.5 0.0 0.5 0.5"), r"malformed model file: theta_benign must lie strictly inside \(0, 1\)"
    ),
    "nb-theta-1": (
        "nb", _nb_body(theta_malware="0.5 0.5 1.0 0.5"), r"malformed model file: theta_malware must lie strictly inside \(0, 1\)"
    ),
    "nb-prior-0": ("nb", _nb_body(prior="0.0"), r"malformed model file: prior must lie strictly inside \(0, 1\)"),
    "nb-prior-1": ("nb", _nb_body(prior="1.0"), r"malformed model file: prior must lie strictly inside \(0, 1\)"),
    "nb-theta-malware-short": (
        "nb", _nb_body(theta_malware="0.5 0.5 0.5"), "malformed model file: conditional probability arrays must have equal shape"
    ),
    "dt-with-k": ("dt", _tree_body(k="3"), "dt tree has k 3; dt requires k 0"),
    "rt-with-k-0": ("rt", _tree_body(k="0"), "rt tree has k 0; dt requires k 0, rt k >= 1"),
    "rf-member-k-0": ("rf", _rf_body(member=_tree_body(criterion="gini", pruned="1")), "rt tree has k 0"),
    "rf-member-k-differs": (
        "rf", _rf_body(k="2", member=_tree_body(k="1", seed=_MEMBER_SEED)), "forest member has k 1, forest has k 2"
    ),
    "rf-member-gini": (
        "rf",
        _rf_body(member=_tree_body(criterion="gini", k="1", seed=_MEMBER_SEED)),
        "forest member has criterion gini, forest has criterion entropy",
    ),
    "rf-member-pruned": (
        "rf", _rf_body(member=_tree_body(pruned="1", k="1", seed=_MEMBER_SEED)), "forest member has pruned 1, forest has pruned 0"
    ),
    "rf-member-seed": (
        "rf", _rf_body(member=_tree_body(k="1", seed="77")), f"forest member has seed 77, forest has seed {_MEMBER_SEED}"
    ),
    "wrong-header-key": ("nb", ["beta 1.0"] + _nb_body()[1:], "expected 'alpha', got 'beta 1.0'"),
    "bad-tree-node-line": ("dt", _TREE_HEAD + ["n_features 4", "S 0 1", "L 1 0", "L 0 1"], "bad tree node line 'S 0 1'"),
    "missing-tree-marker": ("rf", _rf_body()[:5] + ["forest"] + _tree_body(k="1"), "expected 'tree' marker"),
    "bad-regressor-line": ("sl", _SL_HEAD + ["n_features 4", "R 0 -1.0"], "bad regressor line"),
    "unknown-kind": ("svm", _nb_body(), "unknown model kind 'svm'"),
    "trailing-content": ("nb", _nb_body() + ["alpha 1.0"], "trailing content after model body"),
}


def _crafted(tmp_path, cat, kind, body):
    path = tmp_path / f"crafted.{kind}"
    header = [f"droidtriage-model v1 {kind}", f"catalog {cat.fingerprint()}"]
    path.write_text("\n".join(header + body) + "\n")
    return path


@pytest.mark.parametrize("name", CRAFTED)
def test_crafted_file_rejected(tmp_path, name):
    kind, body, message = CRAFTED[name]
    cat = toy_catalog(4)
    with pytest.raises(ModelFormatError, match=message):
        load_model(_crafted(tmp_path, cat, kind, body), cat)


def test_crafted_rf_control_loads(tmp_path):
    """The rf cases above differ from this loadable file in one field each."""
    cat = toy_catalog(4)
    model = load_model(_crafted(tmp_path, cat, "rf", _rf_body()), cat)
    assert model.params == AlgoDescriptor("rf", k=1, trees=1)


@pytest.mark.parametrize(
    "kind, body",
    [("nb", _nb_body()), ("dt", _tree_body()), ("rt", _tree_body(k="4")), ("sl", _sl_body(iterations="5")),
     ("dt", _tree_body()[:-1] + ["S 0", "S 1", "L 1 0", "L 0 1", "S 1", "L 1 0", "S 2", "L 0 1", "L 1 0"])],
)
def test_crafted_controls_load(tmp_path, kind, body):
    """The other cases above differ from these loadable files in one field
    each; the last tests feature 1 on both sides of the root, and feature 2
    below the second."""
    cat = toy_catalog(4)
    assert load_model(_crafted(tmp_path, cat, kind, body), cat).kind == kind


def test_deep_chain_loads_without_recursion(tmp_path):
    """A chain testing each of 5,000 features once, deeper than Python's recursion limit."""
    cat = toy_catalog(5000)
    body = _TREE_HEAD + ["n_features 5000"] + [f"S {f}" for f in range(5000)] + ["L 0 1"] + ["L 3 0"] * 5000
    path = _crafted(tmp_path, cat, "dt", body)
    model = load_model(path, cat)
    rows = np.zeros((2, 5000), dtype=np.uint8)
    rows[1, 0] = 1
    assert model_scores(model, rows).tolist() == [1.0, 0.0]
    again = tmp_path / "again.dt"
    save_model(model, again, cat)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("name", CRAFTED)
def test_predict_crafted_file_exits_2(tmp_path, capsys, name):
    kind, body, _ = CRAFTED[name]
    cat = toy_catalog(4)
    cat_path, data = tmp_path / "cat.csv", tmp_path / "data.csv"
    write_catalog(cat, cat_path)
    write_csv(make_dataset([[0, 1, 0, 1], [1, 0, 1, 0]], [0, 1], cat), data)
    rc = main([
        "predict", "--catalog", str(cat_path), "--data", str(data),
        "--model", str(_crafted(tmp_path, cat, kind, body)), "--out", str(tmp_path / "p.csv"),
    ])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("droidtriage: error:")


def test_predict_rejects_a_long_chain_quickly(tmp_path, capsys):
    """A 2.3 MB dt file whose one chain cycles 200,000 splits over the 179
    features took 22.5 s to predict one row, and exited 0; the loader stops
    at the first repeat, node 179."""
    cat = toy_catalog(179)
    cat_path, data, model = tmp_path / "cat.csv", tmp_path / "data.csv", tmp_path / "chain.dt"
    write_catalog(cat, cat_path)
    write_csv(make_dataset(np.zeros((1, 179), dtype=np.uint8), [0], cat), data)
    body = _TREE_HEAD + ["n_features 179"] + [f"S {i % 179}" for i in range(200_000)] + ["L 0 1"] * 200_001
    model.write_text("\n".join([f"droidtriage-model v1 dt", f"catalog {cat.fingerprint()}"] + body) + "\n")
    start = time.perf_counter()
    rc = main(["predict", "--catalog", str(cat_path), "--data", str(data), "--model", str(model),
               "--out", str(tmp_path / "p.csv")])
    seconds = time.perf_counter() - start
    assert (rc, capsys.readouterr().err) == (
        2, f"droidtriage: error: {model}: tree 0 node 179: feature 0 is already tested on its path\n")
    assert seconds < 0.5
