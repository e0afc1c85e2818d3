"""Hostile spec and catalog files: a valid pair of them, a few bytes edited,
runs `synth` and then `rank` on its output through `main`. Each case exits
0, 1 or 2; a failed command prints nothing on stdout, exactly one error line
on stderr, and leaves no output behind."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from droidtriage.cli import main

CATALOG = b"""name,category,pattern
p0,PERMISSION,android.permission.P0
p1,PERMISSION,android.permission.P1
a0,API,Lcom/a0;->call
a1,API,Lcom/a1;->call
c0,COMMAND,chmod
"""

# Few rows, so that a few inserted digits still make a small corpus.
SPEC = b"""#n_benign=4
#n_malware=3
#xor=a0,p1,0.9
name,p_benign,p_malware
p0,0.1,0.8
a1,0.5,0.25
c0,0,1
"""

# Bytes that the formats give a meaning, and any other byte.
EDIT_BYTE = st.sampled_from(list(b",#=\n\r.-0123456789e \xc3\xff")) | st.integers(0, 255)


@st.composite
def edited(draw, data: bytes) -> bytes:
    """`data` with one to three single-byte edits: a byte replaced, inserted or deleted."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        at, byte = draw(st.integers(0, len(data))), draw(EDIT_BYTE)
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert":
            data[at:at] = bytes([byte])
        elif at < len(data):
            if edit == "replace":
                data[at] = byte
            else:
                del data[at]
    return bytes(data)


def _run(argv: list[str], out) -> int:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(argv)
    assert rc in (0, 1, 2), (argv, stderr.getvalue())
    if rc != 0:
        assert stdout.getvalue() == "" and not out.exists()
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("droidtriage: error:"), (argv, stderr.getvalue())
    return rc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.tuples(edited(CATALOG), st.just(SPEC)) | st.tuples(st.just(CATALOG), edited(SPEC)))
def test_edited_spec_or_catalog_exits_0_1_or_2_with_one_line(tmp_path_factory, files):
    catalog, spec = files
    root = tmp_path_factory.mktemp("hostile")
    (root / "catalog.csv").write_bytes(catalog)
    (root / "spec").write_bytes(spec)
    common = ["--catalog", str(root / "catalog.csv")]
    data, ranking = root / "data.csv", root / "ranking.csv"
    if _run(["synth", *common, "--spec", str(root / "spec"), "--out", str(data)], data) == 0:
        _run(["rank", *common, "--data", str(data), "--out", str(ranking)], ranking)


def test_unedited_spec_and_catalog_synth_and_rank(tmp_path):
    (tmp_path / "catalog.csv").write_bytes(CATALOG)
    (tmp_path / "spec").write_bytes(SPEC)
    common = ["--catalog", str(tmp_path / "catalog.csv")]
    data, ranking = tmp_path / "data.csv", tmp_path / "ranking.csv"
    assert _run(["synth", *common, "--spec", str(tmp_path / "spec"), "--out", str(data)], data) == 0
    assert _run(["rank", *common, "--data", str(data), "--out", str(ranking)], ranking) == 0
    assert len(ranking.read_text().splitlines()) == 6
