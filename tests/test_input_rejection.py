"""Hostile spec and catalog files fail through `cli.main` with exit 2 and
exactly one stderr line naming the fault, and so do sizes that ask for more
memory than a host has. Hostile model files are the `CRAFTED` cases of
test_modelio.py."""

import errno
import os
import re

import pytest

from droidtriage.catalog import default_catalog
from droidtriage.cli import main

_SPEC_HEAD = "#n_benign=5\n#n_malware=5\nname,p_benign,p_malware\n"

# spec file text -> expected message
BAD_SPECS = {
    "unknown-directive": ("#n_apps=5\n" + _SPEC_HEAD, "line 1: unknown directive 'n_apps'"),
    "bad-directive-value": ("#n_benign=five\n#n_malware=5\n", "line 1: bad directive value"),
    "bad-xor-value": (_SPEC_HEAD + "#xor=SEND_SMS,0.9\n", "line 4: bad directive value"),
    "field-count": (_SPEC_HEAD + "SEND_SMS,0.1\n", "line 4: expected 3 fields, got 2"),
    "duplicate-feature": (_SPEC_HEAD + "SEND_SMS,0.1,0.2\nSEND_SMS,0.1,0.2\n", "line 5: duplicate feature 'SEND_SMS'"),
    "bad-probability": (_SPEC_HEAD + "SEND_SMS,low,0.2\n", "line 4: bad probability"),
    "rate-above-1": (_SPEC_HEAD + "SEND_SMS,1.5,0.2\n", r"p_benign entries must lie in \[0, 1\]"),
    "rate-below-0": (_SPEC_HEAD + "SEND_SMS,0.1,-0.2\n", r"p_malware entries must lie in \[0, 1\]"),
    "rate-nan-benign": (_SPEC_HEAD + "SEND_SMS,nan,0.5\n", r"p_benign entries must lie in \[0, 1\]"),
    "rate-nan-malware": (_SPEC_HEAD + "SEND_SMS,0.5,nan\n", r"p_malware entries must lie in \[0, 1\]"),
}

# catalog file text -> expected message
BAD_CATALOGS = {
    "bad-header": ("name,kind,pattern\nSEND_SMS,PERMISSION,p\n", "line 1: expected header 'name,category,pattern'"),
    "field-count": ("name,category,pattern\nSEND_SMS,PERMISSION\n", "line 2: expected 3 fields, got 2"),
    "empty-name": ("name,category,pattern\n,API,tok\n", "line 2: feature name must be nonempty"),
}


def _rejected(capsys, argv, message):
    rc = main(argv)
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert rc == 2
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("droidtriage: error:")
    assert re.search(message, err[0]), err[0]


@pytest.mark.parametrize("name", BAD_SPECS)
def test_bad_spec_exits_2(tmp_path, capsys, name):
    text, message = BAD_SPECS[name]
    (tmp_path / "s.spec").write_text(text)
    out = tmp_path / "x.csv"
    _rejected(capsys, ["synth", "--spec", str(tmp_path / "s.spec"), "--out", str(out)], message)
    assert not out.exists()


@pytest.mark.parametrize("name", BAD_CATALOGS)
def test_bad_catalog_exits_2(tmp_path, capsys, name):
    text, message = BAD_CATALOGS[name]
    (tmp_path / "cat.csv").write_text(text)
    out = tmp_path / "x.csv"
    _rejected(capsys, ["synth", "--catalog", str(tmp_path / "cat.csv"), "--out", str(out)], message)
    assert not out.exists()


@pytest.mark.parametrize("command", ["rank", "roc"])
def test_unlabeled_extract_output_exits_2(tmp_path, capsys, command):
    """`extract` without --label writes no class column, which rank and roc need."""
    app, vector, model = tmp_path / "app", tmp_path / "vec.csv", tmp_path / "nb.model"
    app.mkdir()
    (app / "AndroidManifest.xml").write_text('<uses-permission android:name="android.permission.SEND_SMS"/>')
    assert main(["extract", str(app), "--out", str(vector)]) == 0
    (tmp_path / "s.spec").write_text(_SPEC_HEAD + "SEND_SMS,0.1,0.8\n")
    assert main(["synth", "--spec", str(tmp_path / "s.spec"), "--out", str(tmp_path / "train.csv")]) == 0
    assert main(["train", "--algo", "nb", "--data", str(tmp_path / "train.csv"), "--model", str(model)]) == 0
    capsys.readouterr()
    out = tmp_path / "out.csv"
    argv = {"rank": ["rank"], "roc": ["roc", "--model", str(model)]}[command]
    _rejected(capsys, [*argv, "--data", str(vector), "--out", str(out)], re.escape(f"{vector}: label column absent"))
    assert not out.exists()


@pytest.fixture
def tebibyte_csv(tmp_path):
    """A default-catalog header, then a hole up to 1 TiB: a file whose size
    allows 3,012,360,615 rows, 502 GiB of bits, and that holds none."""
    path = tmp_path / "huge.csv"
    path.write_text(",".join([*default_catalog().names, "class"]) + "\n")
    os.truncate(path, 1 << 40)
    with open(path, "rb") as f:
        try:
            os.lseek(f.fileno(), 1 << 20, os.SEEK_DATA)
        except (AttributeError, OSError) as exc:
            if getattr(exc, "errno", None) != errno.ENXIO:
                pytest.skip("the file system does not report holes")
        else:
            pytest.skip("the file system does not report holes")
    return path


@pytest.mark.parametrize("command", ["rank", "predict", "train"])
def test_tebibyte_file_exits_2(tmp_path, capsys, tebibyte_csv, command):
    """No command allocates from the size: each skips the hole to name the
    first row. train sized its matrix from the file, and failed on that."""
    out = tmp_path / "out"
    argv = {
        "rank": ["rank", "--data", str(tebibyte_csv), "--out", str(out)],
        "predict": ["predict", "--data", str(tebibyte_csv), "--model", str(tmp_path / "absent.model"), "--out", str(out)],
        "train": ["train", "--algo", "nb", "--data", str(tebibyte_csv), "--model", str(out)],
    }[command]
    _rejected(capsys, argv, re.escape(f"{tebibyte_csv}: "))
    assert not out.exists()


def test_synth_of_a_trillion_rows_fails_on_its_first_write(tmp_path, capsys):
    """Rows are written as they are drawn, so /dev/full fails the first block."""
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    (tmp_path / "s.spec").write_text("#n_benign=1000000000000\n#n_malware=1\n")
    _rejected(capsys, ["synth", "--spec", str(tmp_path / "s.spec"), "--out", "/dev/full"], "No space left on device")
