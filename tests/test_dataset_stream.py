"""Dataset CSVs are read, and corpora synthesized, a block at a time: the
results equal those of the whole-file reader and of one draw per class for
any block size, and memory holds the matrix plus about one block."""

import contextlib
import io
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droidtriage import dataset
from droidtriage.catalog import default_catalog
from droidtriage.cli import main
from droidtriage.dataset import DatasetError, SyntheticSpec, read_vectors, synthesize, write_csv

from conftest import make_dataset, toy_catalog, traced_peak, whole_file_reader, write_catalog

F = 3
HEADER = b"f00,f01,f02,class\n"
L = 2 * F - 1 + len(",benign\n")  # a labeled row's length: a benign row and its newline
BLOCKS = (1, 7, L - 1, L, L + 1, 1 << 18)


def _outcome(reader, path, catalog=None):
    """(shape, X, y) as lists, or the DatasetError text."""
    try:
        X, y = reader(path, catalog or toy_catalog(F))
    except DatasetError as exc:
        return str(exc)
    return X.shape, X.tolist(), None if y is None else y.tolist()


def _read_in_blocks(path, block: int, catalog=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_CHUNK_BYTES", block)
        return _outcome(read_vectors, path, catalog)


def _row_starts(data: bytes) -> list[int]:
    """Offsets of the data rows: each byte after a newline but the last."""
    return [i + 1 for i, b in enumerate(data[:-1]) if b == 10]


@st.composite
def mutated_files(draw):
    """A valid labeled CSV of up to 12 rows, then up to three mutations."""
    rows = draw(st.lists(st.tuples(st.lists(st.sampled_from("01"), min_size=F, max_size=F),
                                   st.sampled_from(["benign", "malware"])), max_size=12))
    data = HEADER + b"".join(f"{','.join(bits)},{label}\n".encode() for bits, label in rows)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from([
            "flip", "truncate", "insert", "extra cell", "missing cell", "bad label",
            "no final newline", "header only", "crlf",
        ]))
        pos = draw(st.integers(0, len(data)))
        starts = _row_starts(data)
        if kind == "flip" and pos < len(data):
            data = data[:pos] + bytes([data[pos] ^ draw(st.integers(1, 255))]) + data[pos + 1 :]
        elif kind == "truncate":
            data = data[:pos]
        elif kind == "insert":  # a CR, bytes that are not UTF-8, or a non-ASCII letter
            data = data[:pos] + draw(st.sampled_from([b"\r", b"\xff", b"\xc3", b"\x80", "é".encode()])) + data[pos:]
        elif kind == "extra cell" and starts:
            at = draw(st.sampled_from(starts))
            data = data[:at] + b"0," + data[at:]
        elif kind == "missing cell" and starts:
            at = draw(st.sampled_from(starts))
            data = data[:at] + data[at + 2 :]
        elif kind == "bad label":
            label = draw(st.sampled_from([b"benign", b"malware"]))
            data = data.replace(label, draw(st.sampled_from([b"Benign", b"malwar", b"benign ", b"malwaree"])), 1)
        elif kind == "no final newline":
            data = data.removesuffix(b"\n")
        elif kind == "header only":
            data = data.split(b"\n", 1)[0] + b"\n"
        elif kind == "crlf":
            data = data.replace(b"\n", b"\r\n")
    return data


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("stream")
    write_catalog(toy_catalog(F), root / "toy.catalog")
    return root


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_files())
def test_mutated_file_reads_as_the_whole_file_reader(workdir, data):
    path = workdir / "d.csv"
    path.write_bytes(data)
    expected = _outcome(whole_file_reader, path)
    for block in BLOCKS:
        assert _read_in_blocks(path, block) == expected, block
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(["rank", "--catalog", str(workdir / "toy.catalog"), "--data", str(path),
                   "--out", str(workdir / "rank.csv")])
    assert rc in (0, 2)
    if isinstance(expected, str):
        assert rc == 2
    if rc:
        assert stdout.getvalue() == "" and len(stderr.getvalue().splitlines()) == 1


def test_crlf_split_after_the_cr(tmp_path):
    """Blocks that end between a CR and its LF read as the LF file does."""
    lf = HEADER + b"0,1,1,benign\n1,0,0,malware\n0,0,1,benign\n"
    crlf, data = tmp_path / "crlf.csv", lf.replace(b"\n", b"\r\n")
    crlf.write_bytes(data)
    (tmp_path / "lf.csv").write_bytes(lf)
    expected = _outcome(read_vectors, tmp_path / "lf.csv")
    split = [b for b in range(1, len(data)) if data[b - 1 : b + 1] == b"\r\n"]
    assert len(split) == 4
    for block in split:
        assert _read_in_blocks(crlf, block) == expected
    # a lone CR as a block's last byte is a line end too
    crlf.write_bytes(lf.replace(b"\n", b"\r"))
    assert _read_in_blocks(crlf, len(HEADER)) == expected


def test_bad_row_in_a_later_block_is_numbered_across_the_file(tmp_path, rng):
    ds = make_dataset(rng.integers(0, 2, (2000, F)), rng.integers(0, 2, 2000), toy_catalog(F))
    path = tmp_path / "d.csv"
    write_csv(ds, path)
    lines = path.read_bytes().split(b"\n")
    lines[1500] = b"0,2," + lines[1500][4:]
    path.write_bytes(b"\n".join(lines))
    message = f"{path}: row 1500, column 'f01': cell must be 0 or 1, got '2'"
    assert _read_in_blocks(path, 1024) == message
    assert _outcome(read_vectors, path) == message


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_fifo_grows_the_matrix(tmp_path, rng):
    """A pipe reports no size, so the matrix grows as its rows arrive."""
    ds = make_dataset(rng.integers(0, 2, (3000, F)), rng.integers(0, 2, 3000), toy_catalog(F))
    path, fifo = tmp_path / "d.csv", tmp_path / "pipe"
    write_csv(ds, path)
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()))
    writer.start()
    try:
        got = _read_in_blocks(fifo, 1000)
    finally:
        writer.join()
    assert got == _outcome(read_vectors, path)


def _one_draw(spec: SyntheticSpec, seed: int) -> np.ndarray:
    """Each class's bits from one (count, F) draw, then one draw for the XOR."""
    rng = np.random.default_rng(seed)
    blocks = []
    for count, p, label_bit in ((spec.n_benign, spec.p_benign, 0), (spec.n_malware, spec.p_malware, 1)):
        bits = (rng.random((count, len(spec.catalog))) < p).astype(np.uint8)
        if spec.xor_interaction is not None:
            a, b, q = spec.xor_interaction
            target = np.where(rng.random(count) < q, label_bit, 1 - label_bit).astype(np.uint8)
            bits[:, b] = bits[:, a] ^ target
        blocks.append(bits)
    return np.vstack(blocks)


@pytest.mark.parametrize("xor", [None, (0, 3, 0.8), (4, 1, 1.0)])
@pytest.mark.parametrize("block", [1, 200, 1 << 18])
def test_synthesize_in_blocks_equals_one_draw(xor, block):
    """200 bytes hold five rows of five doubles, so each class spans many
    blocks, the last one partial, and the XOR draws span several too."""
    rng = np.random.default_rng(3)
    spec = SyntheticSpec(toy_catalog(5), rng.random(5), rng.random(5), 61, 83, xor)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_CHUNK_BYTES", block)
        ds = synthesize(spec, 17)
    assert np.array_equal(ds.X, _one_draw(spec, 17))
    assert ds.y.tolist() == [0] * 61 + [1] * 83


def _wide_spec(n: int) -> SyntheticSpec:
    catalog = default_catalog()
    rng = np.random.default_rng(0)
    return SyntheticSpec(catalog, rng.random(len(catalog)) * 0.3, rng.random(len(catalog)) * 0.5, n // 2, n - n // 2)


def test_synthesize_holds_the_matrix_and_one_block():
    ds, peak = traced_peak(lambda: synthesize(_wide_spec(20_000), 1))
    assert peak <= ds.X.nbytes + (2 << 20)


def test_read_holds_the_matrix_and_one_block(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(synthesize(_wide_spec(20_000), 1), path)
    (X, y), peak = traced_peak(lambda: read_vectors(path, default_catalog()))
    assert len(X) == 20_000
    assert peak <= X.nbytes + y.nbytes + (4 << 20)
