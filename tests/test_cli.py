import pytest

from droidtriage.catalog import default_catalog
from droidtriage.cli import main
from droidtriage.dataset import read_csv


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
        ["rank"],
        ["synth"],
    ],
    ids=" ".join,
)
def test_negative_seed_is_usage_error(tmp_path, small_corpus, capsys, command):
    out = tmp_path / "out"
    flag = {"train": "--model", "crossval": "--out", "rank": "--out", "synth": "--out"}
    data = [] if command[0] == "synth" else ["--data", str(small_corpus)]
    rc = main(command + data + ["--seed", "-1", flag[command[0]], str(out)])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("droidtriage: error:") and "seed" in err[0]
    assert captured.out == "" and not out.exists()


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
