import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from droidtriage import cli
from droidtriage.algo import KINDS, MAX_CV_FOLDS, MAX_ITER, MAX_TREES, AlgoDescriptor
from droidtriage.catalog import FeatureSet, default_catalog, select_feature_set
from droidtriage.cli import main
from droidtriage.dataset import read_csv, write_csv

from conftest import subset

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """A 400-instance synthetic CSV against the shipped catalog."""
    root = tmp_path_factory.mktemp("corpus")
    path = root / "small.csv"
    spec_path = root / "small.spec"
    spec_path.write_text(
        "#n_benign=220\n#n_malware=180\n"
        "name,p_benign,p_malware\n"
        "SEND_SMS,0.03,0.55\n"
        "READ_SMS,0.04,0.3\n"
        "chmod,0.1,0.35\n"
        "busybox,0.02,0.2\n"
        "INTERNET,0.8,0.85\n"
    )
    assert main(["synth", "--spec", str(spec_path), "--seed", "3", "--out", str(path)]) == 0
    return path


def test_synth_default_spec_shape(tmp_path):
    out = tmp_path / "full.csv"
    assert main(["synth", "--seed", "42", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 6864  # header plus one line per app
    ds = read_csv(out, default_catalog())
    assert len(ds) == 6863
    assert ds.class_counts() == (3938, 2925)


def test_synth_deterministic_bytes(tmp_path, small_corpus):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert main(["synth", "--seed", "11", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_bad_spec_path_exits_2(tmp_path, capsys):
    rc = main(["synth", "--spec", str(tmp_path / "ghost.spec"), "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error" in captured.err


def test_synth_catalog_without_reference_feature_exits_2(tmp_path, capsys):
    cat = tmp_path / "cat.csv"
    cat.write_text("name,category,pattern\nfoo,API,tok_foo\n")
    rc = main(["synth", "--catalog", str(cat), "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and "not in catalog" in err[0]


def test_rank_top_and_stdout(small_corpus, capsys):
    assert main(["rank", "--data", str(small_corpus), "--top", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "rank,name,score"
    assert len(out) == 4
    assert out[1].startswith("1,SEND_SMS,")


def test_rank_full_when_top_omitted(small_corpus, tmp_path):
    out = tmp_path / "rank.csv"
    assert main(["rank", "--data", str(small_corpus), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 180


def test_rank_top_zero_is_usage_error(small_corpus, capsys):
    assert main(["rank", "--data", str(small_corpus), "--top", "0"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exits_1(capsys):
    assert main(["rank", "--nonsense"]) == 1


@pytest.mark.parametrize(
    "command",
    [
        ["train", "--algo", "rt"],
        ["train", "--algo", "sl"],
        ["train", "--algo", "dt", "--prune"],
        ["train", "--algo", "nb"],
        ["crossval", "--algo", "nb"],
        ["synth"],
    ],
    ids=" ".join,
)
def test_negative_seed_is_usage_error(tmp_path, small_corpus, capsys, command):
    out = tmp_path / "out"
    flag = {"train": "--model", "crossval": "--out", "synth": "--out"}
    data = [] if command[0] == "synth" else ["--data", str(small_corpus)]
    rc = main(command + data + ["--seed", "-1", flag[command[0]], str(out)])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("droidtriage: error:") and "seed" in err[0]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("alpha", ["-1", "0", "nan", "inf", "-inf"])
def test_bad_alpha_is_usage_error(tmp_path, small_corpus, capsys, alpha):
    out = tmp_path / "m.nb"
    rc = main(["train", "--algo", "nb", "--data", str(small_corpus), "--alpha", alpha, "--model", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("droidtriage: error:") and "alpha" in err[0]
    assert not out.exists()


def test_train_predict_round(tmp_path, small_corpus):
    model = tmp_path / "m.rf"
    assert main([
        "train", "--algo", "rf", "--data", str(small_corpus),
        "--seed", "7", "--trees", "5", "--model", str(model),
    ]) == 0
    preds = []
    for name in ("p1.csv", "p2.csv"):
        out = tmp_path / name
        assert main(["predict", "--model", str(model), "--data", str(small_corpus), "--out", str(out)]) == 0
        preds.append(out.read_bytes())
    assert preds[0] == preds[1]
    lines = preds[0].decode().splitlines()
    assert lines[0] == "row,label,score"
    assert len(lines) == 401


def test_predict_fingerprint_mismatch_exits_2(tmp_path, small_corpus, capsys):
    model = tmp_path / "m.nb"
    assert main(["train", "--algo", "nb", "--data", str(small_corpus), "--model", str(model)]) == 0
    rc = main([
        "predict", "--model", str(model), "--data", str(small_corpus),
        "--feature-set", "pf", "--out", str(tmp_path / "p.csv"),
    ])
    assert rc == 2
    assert "fingerprint" in capsys.readouterr().err


def test_predict_unlabeled_data(tmp_path, small_corpus):
    cat = default_catalog()
    ds = read_csv(small_corpus, cat)
    unlabeled = tmp_path / "unlabeled.csv"
    rows = [",".join(cat.names)]
    rows += [",".join(str(int(b)) for b in row) for row in ds.X[:5]]
    unlabeled.write_text("\n".join(rows) + "\n")
    model = tmp_path / "m.nb"
    assert main(["train", "--algo", "nb", "--data", str(small_corpus), "--model", str(model)]) == 0
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(model), "--data", str(unlabeled), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 6


def test_crossval_report_shape(tmp_path, small_corpus):
    out = tmp_path / "report.csv"
    assert main([
        "crossval", "--algo", "rf", "--data", str(small_corpus),
        "--folds", "5", "--seed", "1", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "algo,feature_set,features,TPR,TNR,FPR,FNR,ACC,ERR,precision,AUC"
    assert len(lines) == 2
    assert lines[1].startswith("rf,capf,179,")
    assert len(lines[1].split(",")) == 11


def test_crossval_bad_folds_is_usage_error(small_corpus, tmp_path, capsys):
    rc = main([
        "crossval", "--algo", "nb", "--data", str(small_corpus),
        "--folds", "1", "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 1


@pytest.mark.parametrize("sets", ["", " ", "pf,", "zz"])
@pytest.mark.parametrize("command", ["compare", "train"])
def test_empty_or_unknown_feature_set_is_usage_error(tmp_path, small_corpus, capsys, command, sets):
    """An empty, blank or unknown set name exits 1 with one line and no
    output: an empty list does not stand for the default set."""
    out = tmp_path / "out"
    rc = main([command, "--algo", "nb", "--feature-set", sets, "--data", str(small_corpus),
               "--model" if command == "train" else "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "--feature-set" in captured.err
    assert not out.exists()


def test_compare_feature_set_rows(tmp_path, small_corpus):
    out = tmp_path / "cmp.csv"
    assert main([
        "compare", "--algo", "nb,dt", "--data", str(small_corpus),
        "--feature-set", "pf,af,capf", "--folds", "4", "--seed", "2", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 7
    features_col = [line.split(",")[2] for line in lines[1:]]
    assert features_col == ["125", "125", "54", "54", "179", "179"]


def test_roc_outputs(tmp_path, small_corpus):
    model = tmp_path / "m.sl"
    assert main([
        "train", "--algo", "sl", "--max-iter", "10", "--cv-folds", "3",
        "--data", str(small_corpus), "--model", str(model),
    ]) == 0
    csv_out = tmp_path / "roc.csv"
    svg_out = tmp_path / "roc.svg"
    assert main([
        "roc", "--model", str(model), "--data", str(small_corpus),
        "--out", str(csv_out), "--svg", str(svg_out),
    ]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "fpr,tpr,threshold"
    assert lines[1].split(",")[:2] == ["0.0", "0.0"]
    assert lines[-1].split(",")[:2] == ["1.0", "1.0"]
    svg = svg_out.read_text()
    assert svg.startswith("<svg") and "AUC = " in svg


def test_extract_command(tmp_path):
    app = tmp_path / "app"
    app.mkdir()
    (app / "AndroidManifest.xml").write_text(
        '<uses-permission android:name="android.permission.SEND_SMS"/>'
    )
    (app / "payload.smali").write_text("invoke createSubprocess")
    out = tmp_path / "vec.csv"
    assert main(["extract", str(app), "--label", "malware", "--out", str(out)]) == 0
    cat = default_catalog()
    ds = read_csv(out, cat)
    assert len(ds) == 1
    assert ds.y[0] == 1
    assert ds.X[0, cat.index_of("SEND_SMS")] == 1
    assert ds.X[0, cat.index_of("createSubprocess")] == 1
    assert ds.X[0].sum() == 2


def test_extract_without_label_omits_class_column(tmp_path):
    app = tmp_path / "app"
    app.mkdir()
    (app / "AndroidManifest.xml").write_text("")
    out = tmp_path / "vec.csv"
    assert main(["extract", str(app), "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert not header.endswith(",class")


def _app(root, name, permission):
    """An unpacked app requesting `permission` and calling one API."""
    app = root / name
    app.mkdir()
    (app / "AndroidManifest.xml").write_text(
        f'<uses-permission android:name="android.permission.{permission}"/>'
    )
    (app / "payload.smali").write_text("invoke createSubprocess")
    return app


def test_predict_reads_feature_set_extract(tmp_path, small_corpus):
    """A pf extract scores as the full extract does under --feature-set pf."""
    app, model = _app(tmp_path, "app", "SEND_SMS"), tmp_path / "m.nb"
    assert main([
        "train", "--algo", "nb", "--feature-set", "pf", "--data", str(small_corpus), "--model", str(model)
    ]) == 0
    preds = []
    for fs in ([], ["--feature-set", "pf"]):
        vec, out = tmp_path / f"vec{len(fs)}.csv", tmp_path / f"pred{len(fs)}.csv"
        assert main(["extract", str(app), *fs, "--out", str(vec)]) == 0
        assert main([
            "predict", "--model", str(model), "--feature-set", "pf", "--data", str(vec), "--out", str(out)
        ]) == 0
        preds.append(out.read_text())
    assert preds[0] == preds[1] and preds[0].startswith("row,label,score\n1,")


def test_rank_reads_labeled_feature_set_extracts(tmp_path):
    """Labeled pf extracts of two apps rank as their full extracts do under --feature-set pf."""
    apps = {"malware": _app(tmp_path, "bad", "SEND_SMS"), "benign": _app(tmp_path, "good", "INTERNET")}
    rankings = []
    for fs in ([], ["--feature-set", "pf"]):
        lines = []
        for label, app in apps.items():
            vec = tmp_path / f"{label}{len(fs)}.csv"
            assert main(["extract", str(app), "--label", label, *fs, "--out", str(vec)]) == 0
            lines += vec.read_text().splitlines()[len(lines) > 0 :]
        data, out = tmp_path / f"two{len(fs)}.csv", tmp_path / f"rank{len(fs)}.csv"
        data.write_text("\n".join(lines) + "\n")
        assert main(["rank", "--feature-set", "pf", "--data", str(data), "--out", str(out)]) == 0
        rankings.append(out.read_text())
    assert rankings[0] == rankings[1]
    pf = select_feature_set(default_catalog(), FeatureSet.PF)
    assert len(rankings[1].splitlines()) == 1 + len(pf)


def test_other_feature_set_header_exits_2(tmp_path, capsys):
    """A header naming neither the chosen set nor the full catalog keeps the full catalog's error."""
    vec = tmp_path / "af.csv"
    assert main(["extract", str(_app(tmp_path, "app", "SEND_SMS")), "--feature-set", "af", "--out", str(vec)]) == 0
    assert main(["rank", "--feature-set", "pf", "--data", str(vec)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "header does not match catalog" in err[0]
    assert f"expected {len(default_catalog()) + 1} including 'class'" in err[0]


@pytest.mark.parametrize(
    "algo, flag, value",
    [("nb", "--trees", "0"), ("dt", "--k", "0"), ("sl", "--bootstrap", "1.5"), ("rf", "--max-iter", "0")],
)
def test_bad_flag_of_another_kind_is_usage_error(tmp_path, small_corpus, capsys, algo, flag, value):
    """Every algorithm flag is checked whichever kind is chosen."""
    model = tmp_path / "m.model"
    rc = main(["train", "--algo", algo, flag, value, "--data", str(small_corpus), "--model", str(model)])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("droidtriage: error:")
    assert captured.out == "" and not model.exists()


@pytest.mark.parametrize("flag", ["--model", "--catalog", "--spec", "--data"])
def test_non_utf8_input_exits_2(tmp_path, small_corpus, capsys, flag):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    out = str(tmp_path / "out.csv")
    argv = {
        "--model": ["predict", "--model", str(bad), "--data", str(small_corpus), "--out", out],
        "--catalog": ["rank", "--catalog", str(bad), "--data", str(small_corpus)],
        "--spec": ["synth", "--spec", str(bad), "--out", out],
        "--data": ["rank", "--data", str(bad)],
    }[flag]
    rc = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and str(bad) in err[0] and "not valid UTF-8" in err[0]


def test_rank_single_class_exits_2(tmp_path, capsys):
    cat = default_catalog()
    one_class = tmp_path / "one.csv"
    one_class.write_text(",".join(cat.names) + ",class\n" + "0," * len(cat) + "malware\n")
    assert main(["rank", "--data", str(one_class)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "each class" in err[0]


def test_roc_single_class_exits_2(tmp_path, small_corpus, capsys):
    cat = default_catalog()
    model, one_class = tmp_path / "m.model", tmp_path / "one.csv"
    assert main(["train", "--algo", "nb", "--data", str(small_corpus), "--model", str(model)]) == 0
    one_class.write_text(",".join(cat.names) + ",class\n" + "0," * len(cat) + "malware\n")
    capsys.readouterr()
    rc = main(["roc", "--model", str(model), "--data", str(one_class), "--out", str(tmp_path / "roc.csv")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"droidtriage: error: {one_class}: ROC requires both classes present\n"


@pytest.mark.parametrize("command", ["crossval", "compare"])
def test_cv_single_class_exits_2(tmp_path, benign_only, capsys, command):
    out = tmp_path / "report.csv"
    rc = main([command, "--algo", "nb", "--data", str(benign_only), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err == "droidtriage: error: stratified folds require both classes present\n"


@pytest.mark.parametrize(
    "algo, message",
    [
        ("nb", "training requires both classes present"),
        ("dt", "cannot train on an empty dataset"),
        ("rt", "cannot train on an empty dataset"),
        ("rf", "cannot train on an empty dataset"),
        ("sl", "training requires both classes present"),
    ],
)
def test_train_header_only_csv_exits_2(tmp_path, capsys, algo, message):
    data, model = tmp_path / "empty.csv", tmp_path / "m.model"
    data.write_text(",".join(default_catalog().names) + ",class\n")
    rc = main(["train", "--algo", algo, "--data", str(data), "--model", str(model)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not model.exists()
    assert captured.err == f"droidtriage: error: {message}\n"


@pytest.fixture(scope="module")
def benign_only(small_corpus, tmp_path_factory):
    """The benign rows of the small corpus."""
    from droidtriage.dataset import write_csv

    ds = read_csv(small_corpus, default_catalog())
    path = tmp_path_factory.mktemp("benign") / "benign.csv"
    write_csv(subset(ds, ds.y == 0), path)
    return path


@pytest.mark.parametrize(
    "algo, extra, data",
    [
        ("rf", ["--k", "100000"], "corpus"),
        ("rt", ["--k", "100000"], "corpus"),
        ("sl", [], "benign"),
        ("nb", [], "benign"),
    ],
)
def test_train_rejected_data_exits_2(tmp_path, small_corpus, benign_only, capsys, algo, extra, data):
    model = tmp_path / "m.model"
    path = small_corpus if data == "corpus" else benign_only
    rc = main(["train", "--algo", algo, *extra, "--data", str(path), "--model", str(model)])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("droidtriage: error:")
    assert captured.out == "" and not model.exists()


def test_missing_manifest_warns_on_one_line(tmp_path, capsys):
    app = tmp_path / "app"
    app.mkdir()
    (app / "payload.smali").write_text("invoke createSubprocess")
    out = tmp_path / "vec.csv"
    assert main(["extract", str(app), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    manifest = app / "AndroidManifest.xml"
    assert captured.err == f"droidtriage: warning: {manifest} missing; permission bits left at 0\n"
    assert captured.out == f"{out}\n"


@pytest.mark.parametrize("algo", ["nb", "rf"])
def test_predict_rows_render_each_score(tmp_path, small_corpus, algo):
    """Each row is its number, the label (malware only above 0.5) and the
    score's repr, in input order; a file with no rows gives the header only."""
    from droidtriage.algo import model_scores
    from droidtriage.modelio import load_model

    cat = default_catalog()
    model, out = tmp_path / "m.model", tmp_path / "p.csv"
    assert main(["train", "--algo", algo, "--data", str(small_corpus), "--model", str(model)]) == 0
    assert main(["predict", "--model", str(model), "--data", str(small_corpus), "--out", str(out)]) == 0
    scores = model_scores(load_model(model, cat), read_csv(small_corpus, cat).X)
    rows = [f"{i},{'malware' if s > 0.5 else 'benign'},{float(s)!r}\n" for i, s in enumerate(scores, 1)]
    assert out.read_text() == "row,label,score\n" + "".join(rows)
    if algo == "rf":  # votes repeat: one rendering serves many rows
        assert len(set(scores.tolist())) < len(scores)
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(cat.names) + "\n")
    assert main(["predict", "--model", str(model), "--data", str(empty), "--out", str(out)]) == 0
    assert out.read_bytes() == b"row,label,score\n"


def test_compare_reads_single_set_file(tmp_path, small_corpus, capsys):
    """compare --feature-set S reads a file holding S's columns and reports
    what it reports on the full file; another header exits 2 with the full
    catalog's error."""
    full = read_csv(small_corpus, default_catalog())
    pf_csv = tmp_path / "pf.csv"
    write_csv(full.select_features(select_feature_set(full.catalog, FeatureSet.PF).names), pf_csv)
    reports = []
    for data in (small_corpus, pf_csv):
        out = tmp_path / f"{data.stem}.report"
        argv = ["compare", "--algo", "nb,dt", "--feature-set", "pf", "--folds", "3", "--data", str(data)]
        assert main([*argv, "--out", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1] and reports[0].count("\n") == 3
    for sets in ("af", "pf,af", "capf"):
        rc = main(["compare", "--algo", "nb", "--feature-set", sets, "--data", str(pf_csv), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and "header does not match catalog" in err[0]
        assert f"expected {len(default_catalog()) + 1} including 'class'" in err[0]


@pytest.mark.parametrize("algo, flag, value, message", [
    ("sl", "--max-iter", "100000000", f"max_iter must be at most {MAX_ITER}"),
    ("sl", "--cv-folds", "29000", f"cv_folds must lie in [2, {MAX_CV_FOLDS}]"),
    ("rf", "--trees", str(10**30), f"trees must be at most {MAX_TREES}"),
])
def test_flag_above_cap_is_usage_error(tmp_path, small_corpus, algo, flag, value, message):
    """--max-iter, --cv-folds or --trees past its cap exits 1 with one line
    instead of boosting or growing trees for ever or allocating a float
    array per fold and row."""
    model = tmp_path / "m.model"
    argv = ["train", "--algo", algo, flag, value, "--data", str(small_corpus), "--model", str(model)]
    proc = subprocess.run(
        [sys.executable, "-m", "droidtriage", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"droidtriage: error: {message}\n"
    assert proc.stdout == "" and not model.exists()


def test_crossval_is_compare(tmp_path, small_corpus):
    """crossval is a second name of compare: it takes the same comma lists
    and writes the same report."""
    reports = []
    for command in ("crossval", "compare"):
        out = tmp_path / f"{command}.csv"
        argv = [command, "--algo", "nb,dt", "--feature-set", "pf,capf", "--folds", "3", "--data", str(small_corpus)]
        assert main([*argv, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] and reports[0].count(b"\n") == 5


@pytest.fixture(scope="module")
def nb_model(small_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "nb.model"
    assert main(["train", "--algo", "nb", "--data", str(small_corpus), "--model", str(path)]) == 0
    return path


# Each command's argv and the outputs whose paths it prints, with {D} the
# small corpus, {M} an nb model of it, {S} a small spec, {A} an app tree and
# {O} an empty directory. The last argument is a path: under a missing
# directory the command fails.
STDOUT_CASES = {
    "synth": (["synth", "--spec", "{S}", "--seed", "2", "--out", "{O}/s.csv"], ["{O}/s.csv"]),
    "extract": (["extract", "{A}", "--out", "{O}/v.csv"], ["{O}/v.csv"]),
    "rank": (["rank", "--top", "3", "--data", "{D}"], []),
    "rank --out": (["rank", "--data", "{D}", "--out", "{O}/r.csv"], ["{O}/r.csv"]),
    "train": (["train", "--algo", "nb", "--data", "{D}", "--model", "{O}/m.model"], ["{O}/m.model"]),
    "predict": (["predict", "--model", "{M}", "--data", "{D}", "--out", "{O}/p.csv"], ["{O}/p.csv"]),
    "crossval": (["crossval", "--algo", "nb", "--folds", "3", "--data", "{D}", "--out", "{O}/cv.csv"], ["{O}/cv.csv"]),
    "compare": (["compare", "--algo", "nb,dt", "--folds", "3", "--data", "{D}", "--out", "{O}/c.csv"], ["{O}/c.csv"]),
    "roc": (["roc", "--model", "{M}", "--data", "{D}", "--out", "{O}/roc.csv"], ["{O}/roc.csv"]),
    "roc --svg": (["roc", "--model", "{M}", "--data", "{D}", "--out", "{O}/roc.csv", "--svg", "{O}/roc.svg"],
                  ["{O}/roc.csv", "{O}/roc.svg"]),
}


# The writer each command calls through `droidtriage.cli`; rank without
# --out writes no file, and its ranking text stands in.
WRITERS = {
    "synth": "write_synthesized", "extract": "write_vector_csv", "rank": "format_ranking",
    "rank --out": "write_ranking", "train": "save_model", "predict": "_write_predictions",
    "crossval": "write_report", "compare": "write_report", "roc": "write_roc", "roc --svg": "write_roc",
}


def _stdout_case(tmp_path, small_corpus, nb_model, case):
    """The argv and printed outputs of `STDOUT_CASES[case]`, and the places
    they name, made under `tmp_path`."""
    places = {"D": small_corpus, "M": nb_model, "S": tmp_path / "spec", "A": tmp_path / "app", "O": tmp_path / "out"}
    places["S"].write_text("#n_benign=6\n#n_malware=4\nname,p_benign,p_malware\nSEND_SMS,0.1,0.8\n")
    places["A"].mkdir()
    (places["A"] / "AndroidManifest.xml").write_text('<uses-permission android:name="android.permission.SEND_SMS"/>')
    places["O"].mkdir()
    argv, outputs = ([a.format(**places) for a in args] for args in STDOUT_CASES[case])
    return argv, outputs, places


@pytest.mark.parametrize("case", STDOUT_CASES)
@pytest.mark.parametrize("outcome", ["success", "failure", "writer fault"])
def test_stdout_is_written_only_on_success(tmp_path, small_corpus, nb_model, capsys, monkeypatch, case, outcome):
    """A command that succeeds prints exactly its output paths, or the
    ranking; one that fails prints nothing to stdout and one line to stderr,
    and leaves no output behind, also when it fails after writing an output
    (roc --svg) or its writer fails after writing part of a new one."""
    argv, outputs, places = _stdout_case(tmp_path, small_corpus, nb_model, case)
    if outcome == "failure":
        argv[-1] = str(places["O"] / "missing" / Path(argv[-1]).name)
    elif outcome == "writer fault":
        def fault(*args, **kwargs):
            for path in outputs[:1]:
                Path(path).write_text("row,label,score\n1,")
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(cli, WRITERS[case], fault)
    rc = main(argv)
    captured = capsys.readouterr()
    if outcome != "success":
        assert rc == 2 and captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("droidtriage: error:")
        assert not any(places["O"].iterdir()), "a failed command left an output behind"
    elif outputs:
        assert rc == 0 and captured.out == "".join(f"{o}\n" for o in outputs)
    else:
        ranking = places["O"] / "ranking.csv"
        assert main(["rank", "--top", "3", "--data", str(small_corpus), "--out", str(ranking)]) == 0
        assert rc == 0 and captured.out == ranking.read_text() and captured.out.count("\n") == 4


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("case", ["synth", "roc"])
def test_output_to_a_fifo(tmp_path, small_corpus, nb_model, case):
    """An output that is a FIFO is opened once, by its writer, and receives
    the bytes a regular file does: roc used to open it before the write, so
    the reader saw an empty stream and the write then blocked for ever. The
    command runs in a child under a timeout, so a hang fails in seconds."""
    argv, outputs, places = _stdout_case(tmp_path, small_corpus, nb_model, case)
    assert main(argv) == 0
    expected = Path(outputs[0]).read_bytes()
    fifo = places["O"] / "pipe"
    os.mkfifo(fifo)
    argv[argv.index(outputs[0])] = str(fifo)
    read = "import shutil, sys; shutil.copyfileobj(open(sys.argv[1], 'rb'), sys.stdout.buffer)"
    with subprocess.Popen([sys.executable, "-c", read, str(fifo)], stdout=subprocess.PIPE) as reader:
        try:
            proc = subprocess.run([sys.executable, "-m", "droidtriage", *argv], env=dict(os.environ, PYTHONPATH=str(SRC)),
                                  capture_output=True, text=True, timeout=30)
            received = reader.communicate(timeout=30)[0]
        finally:
            reader.kill()
    assert proc.returncode == 0 and proc.stderr == "" and proc.stdout == f"{fifo}\n"
    assert received == expected and len(expected) > 0


def test_unwritable_output_fails_before_the_command_runs(tmp_path, small_corpus, monkeypatch, capsys):
    """compare with --out under a missing directory exits 2 without running
    its folds; with a writable --out, the output exists, empty, while the
    command runs."""
    seen = []

    def record(dataset, algos, *args, **kwargs):
        seen.append(out.read_bytes())
        return []

    monkeypatch.setattr(cli, "compare", record)
    argv = ["compare", "--algo", "nb", "--folds", "3", "--data", str(small_corpus), "--out"]
    out = tmp_path / "missing" / "c.csv"
    rc = main([*argv, str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and seen == []
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("droidtriage: error:")
    out = tmp_path / "c.csv"
    assert main([*argv, str(out)]) == 0 and seen == [b""]


@pytest.mark.parametrize("kept, failing", [("--out", "--svg"), ("--svg", "--out")])
def test_failed_roc_leaves_existing_outputs_alone(tmp_path, small_corpus, nb_model, capsys, kept, failing):
    """An output already in place stays byte-identical when the other one
    cannot be opened, and no file is created: the ROC CSV used to be
    rewritten before the SVG path failed."""
    kept_path, before = tmp_path / "kept", b"an earlier output\n"
    kept_path.write_bytes(before)
    paths = {kept: str(kept_path), failing: str(tmp_path / "missing" / "out")}
    rc = main(["roc", "--model", str(nb_model), "--data", str(small_corpus), *(a for item in paths.items() for a in item)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and captured.err.startswith("droidtriage: error:")
    assert kept_path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept"]


@pytest.mark.parametrize("svg", ["roc.csv", "sub/../roc.csv", "link.csv"])
def test_roc_outputs_naming_one_file_are_a_flag_fault(tmp_path, capsys, svg):
    """`--out` and `--svg` naming one file, also through `..` or a symlink,
    exit 1 before anything is read or written: the SVG used to replace the
    CSV and the path was printed twice. Data and model do not exist here."""
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.csv").symlink_to(tmp_path / "roc.csv")
    rc = main(["roc", "--model", str(tmp_path / "m.model"), "--data", str(tmp_path / "d.csv"),
               "--out", str(tmp_path / "roc.csv"), "--svg", str(tmp_path / svg)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"droidtriage: error: --out and --svg name the same file: {tmp_path / 'roc.csv'}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "sub"]


@pytest.mark.parametrize("command", [
    ["rank", "--out", "x.csv"],
    ["predict", "--model", "m.model", "--out", "p.csv"],
    ["roc", "--model", "m.model", "--out", "roc.csv"],
])
@pytest.mark.parametrize("seed", ["0", "-1"])
def test_seed_is_no_flag_where_it_seeds_nothing(tmp_path, small_corpus, capsys, command, seed):
    """rank, predict and roc draw no random numbers, so they have no --seed:
    given one, even the default, they exit 1 with argparse's single line."""
    argv = command[:1] + [a if a.startswith("--") else str(tmp_path / a) for a in command[1:]]
    rc = main([*argv, "--data", str(small_corpus), "--seed", seed])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"droidtriage: error: unrecognized arguments: --seed {seed}\n"
    assert list(tmp_path.iterdir()) == []


def test_repeated_usage_error_reads_the_same(capsys):
    """The parser is built once; a usage error prints the same line every call."""
    errs = []
    for _ in range(2):
        assert main(["train", "--algo", "nb"]) == 1
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and errs[0].startswith("droidtriage: error: the following arguments are required")


class _Built(Exception):
    """Raised by a stand-in trainer to hand back the descriptors it was given."""


@pytest.fixture
def built(monkeypatch, small_corpus, tmp_path):
    """Run a command and return the descriptors it would train, without training."""

    def stop_train(algo, dataset, rows=None):
        raise _Built([algo])

    def stop_compare(dataset, algos, *args, **kwargs):
        raise _Built(list(algos))

    monkeypatch.setattr(cli, "train_model", stop_train)
    monkeypatch.setattr(cli, "compare", stop_compare)

    def run(command, kind, *flags):
        out = "--model" if command == "train" else "--out"
        with pytest.raises(_Built) as info:
            main([command, "--algo", kind, *flags, "--data", str(small_corpus), out, str(tmp_path / "out")])
        return info.value.args[0]

    return run


ALGO_COMMANDS = ["train", "crossval", "compare"]

# (flags, the AlgoDescriptor field they set, the value they set it to)
ALGO_FLAGS = [
    (["--seed", "7"], "seed", 7),
    (["--alpha", "0.25"], "alpha", 0.25),
    (["--criterion", "gini"], "criterion", "gini"),
    (["--prune"], "prune", True),
    (["--k", "3"], "k", 3),
    (["--trees", "4"], "trees", 4),
    (["--bootstrap", "0.5"], "bootstrap_fraction", 0.5),
    (["--no-bootstrap"], "bootstrap", False),
    (["--max-iter", "8"], "max_iter", 8),
    (["--cv-folds", "3"], "cv_folds", 3),
]


@pytest.mark.parametrize("command", ALGO_COMMANDS)
@pytest.mark.parametrize("kind", KINDS)
def test_cli_adds_no_defaults(built, command, kind):
    """With no algorithm flag, every field keeps the dataclass default."""
    assert built(command, kind) == [AlgoDescriptor(kind)]


def test_every_field_has_a_flag():
    assert sorted(field for _, field, _ in ALGO_FLAGS) == sorted(f.name for f in fields(AlgoDescriptor)[1:])


@pytest.mark.parametrize("command", ALGO_COMMANDS)
@pytest.mark.parametrize("flags, field, value", ALGO_FLAGS, ids=[" ".join(f) for f, _, _ in ALGO_FLAGS])
def test_algo_flag_sets_its_field(built, command, flags, field, value):
    assert getattr(AlgoDescriptor("rf"), field) != value
    assert built(command, "rf", *flags) == [replace(AlgoDescriptor("rf"), **{field: value})]


@pytest.mark.parametrize("command", ALGO_COMMANDS)
def test_unknown_kind_names_the_kinds(small_corpus, tmp_path, capsys, command):
    out = "--model" if command == "train" else "--out"
    rc = main([command, "--algo", "svm", "--data", str(small_corpus), out, str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "droidtriage: error: unknown algorithm kind 'svm'; choose from nb, dt, rt, rf, sl\n"


def test_bare_memory_error_exits_3_as_out_of_memory(small_corpus, tmp_path, capsys, monkeypatch):
    """A MemoryError without a message, as Python's own allocator raises it,
    is named on the one error line; the model file is removed."""
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "train_model", no_memory)
    model = tmp_path / "m.model"
    rc = main(["train", "--algo", "nb", "--data", str(small_corpus), "--model", str(model)])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == "" and not model.exists()
    assert captured.err == "droidtriage: error: out of memory\n"
