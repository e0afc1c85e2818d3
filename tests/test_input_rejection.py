"""Hostile spec and catalog files fail through `cli.main` with exit 2 and
exactly one stderr line naming the fault. Hostile model files are the
`CRAFTED` cases of test_modelio.py."""

import re

import pytest

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
