import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droidtriage import dataset, extract
from droidtriage.catalog import PERMISSION, FeatureCatalog, FeatureDef, FeatureSet, default_catalog, select_feature_set
from droidtriage.dataset import _CHUNK_BYTES, read_vectors
from droidtriage.extract import MANIFEST_NAME, scan_app

from conftest import traced_peak

SRC = Path(__file__).resolve().parents[1] / "src"
AF = select_feature_set(default_catalog(), FeatureSet.AF)


def _write_tree(root, manifest=None, files=()):
    root.mkdir(parents=True, exist_ok=True)
    if manifest is not None:
        (root / "AndroidManifest.xml").write_text(manifest)
    for rel, content in files:
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)


def test_permission_token_match(tmp_path):
    cat = default_catalog()
    _write_tree(
        tmp_path / "app",
        manifest='<uses-permission android:name="android.permission.SEND_SMS"/>',
    )
    bits = scan_app(tmp_path / "app", cat)
    assert bits[cat.index_of("SEND_SMS")] == 1
    assert bits.sum() == 1


def test_permission_requires_token_boundary(tmp_path):
    cat = default_catalog()
    _write_tree(
        tmp_path / "app",
        manifest='<x name="android.permission.SEND_SMS_EXTRA"/> <y name="xandroid.permission.READ_SMS"/>',
    )
    bits = scan_app(tmp_path / "app", cat)
    assert bits[cat.index_of("SEND_SMS")] == 0
    assert bits[cat.index_of("READ_SMS")] == 0


def test_empty_tree_gives_zero_vector(tmp_path):
    cat = default_catalog()
    _write_tree(tmp_path / "app", manifest="")
    assert not scan_app(tmp_path / "app", cat).any()


def test_attribute_pattern_in_code_file(tmp_path):
    cat = default_catalog()
    _write_tree(
        tmp_path / "app",
        manifest="",
        files=[("smali/a/b.smali", "invoke-static {}, createSubprocess(II)")],
    )
    bits = scan_app(tmp_path / "app", cat)
    assert bits[cat.index_of("createSubprocess")] == 1


def test_subfolders_are_inspected(tmp_path):
    cat = default_catalog()
    _write_tree(
        tmp_path / "app",
        manifest="",
        files=[("assets/deep/nest/run.sh", "#!/system/bin/sh\nchmod 777 /data\n")],
    )
    bits = scan_app(tmp_path / "app", cat)
    assert bits[cat.index_of("/system/bin/sh")] == 1
    assert bits[cat.index_of("chmod")] == 1


def test_binary_files_scanned_bytewise(tmp_path):
    cat = default_catalog()
    payload = b"\x00\x01\xff" + b"pm install" + b"\xfe\x00"
    _write_tree(tmp_path / "app", manifest="", files=[("lib/native.so", payload)])
    bits = scan_app(tmp_path / "app", cat)
    assert bits[cat.index_of("pm install")] == 1


def test_manifest_not_scanned_for_attributes(tmp_path):
    cat = default_catalog()
    _write_tree(tmp_path / "app", manifest="chmod createSubprocess")
    bits = scan_app(tmp_path / "app", cat)
    assert bits[cat.index_of("chmod")] == 0
    assert bits[cat.index_of("createSubprocess")] == 0


def test_missing_manifest_warns_and_zeroes_permissions(tmp_path):
    cat = default_catalog()
    _write_tree(
        tmp_path / "app",
        files=[("code.txt", "android.permission.SEND_SMS and busybox")],
    )
    with pytest.warns(UserWarning, match="missing"):
        bits = scan_app(tmp_path / "app", cat)
    assert bits[cat.index_of("SEND_SMS")] == 0  # permissions come from the manifest only
    assert bits[cat.index_of("busybox")] == 1


def test_unreadable_root(tmp_path):
    with pytest.raises(NotADirectoryError):
        scan_app(tmp_path / "nope", default_catalog())


def test_monotone_under_added_files(tmp_path):
    cat = default_catalog()
    _write_tree(
        tmp_path / "app",
        manifest='"android.permission.INTERNET"',
        files=[("a.txt", "getDeviceId")],
    )
    before = scan_app(tmp_path / "app", cat)
    (tmp_path / "app" / "b.txt").write_text("DexClassLoader busybox")
    after = scan_app(tmp_path / "app", cat)
    assert np.all(after >= before)
    assert after.sum() > before.sum()


def test_traversal_order_independent(tmp_path):
    cat = default_catalog()
    contents = ["chmod", "busybox", "TelephonyManager", "nothing here"]
    _write_tree(
        tmp_path / "one",
        manifest="",
        files=[(f"z{i}.txt", c) for i, c in enumerate(contents)],
    )
    _write_tree(
        tmp_path / "two",
        manifest="",
        files=[(f"a{9 - i}/deep.txt", c) for i, c in enumerate(contents)],
    )
    assert np.array_equal(scan_app(tmp_path / "one", cat), scan_app(tmp_path / "two", cat))


def test_inverse_construction_reproduces_vector(tmp_path, rng):
    perms = [FeatureDef(f"P{i}", "PERMISSION", f"android.permission.P{i}") for i in range(6)]
    attrs = [FeatureDef(f"A{i}", "API", f"uniquetoken{i}x") for i in range(6)]
    cat = FeatureCatalog(perms + attrs)
    target = (rng.random(12) < 0.5).astype(np.uint8)
    manifest = " ".join(f'"{perms[i].pattern}"' for i in range(6) if target[i])
    files = [
        (f"src/file{i}.txt", f"call {attrs[i].pattern} here")
        for i in range(6)
        if target[6 + i]
    ]
    _write_tree(tmp_path / "app", manifest=manifest, files=files)
    assert np.array_equal(scan_app(tmp_path / "app", cat), target)


def _reference(root, catalog):
    """Reference attribute bits: every pattern searched for in every file
    read whole, the manifest left out."""
    bits = np.zeros(len(catalog), dtype=np.uint8)
    for path in root.rglob("*"):
        if path.is_file() and path != root / MANIFEST_NAME:
            data = path.read_bytes()
            for i, f in enumerate(catalog):
                bits[i] |= f.category != PERMISSION and f.pattern.encode() in data
    return bits


def _api_catalog(patterns):
    return FeatureCatalog(FeatureDef(f"p{i}", "API", p) for i, p in enumerate(patterns))


@pytest.mark.parametrize(
    "catalog, planted",
    [
        (AF, "Ljavax/crypto/spec/SecretKeySpec"),  # the longest pattern
        (AF, "remount"),  # holds mount
        (AF, "getDeviceId"),  # shares getDe with getDeclaredField/Method
        (_api_catalog(["a", "xy", "xyz"]), "xyz"),  # short patterns only
        (_api_catalog(["xy", "wxyz", "vwxyz12"]), "wxyz"),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_pattern_found_at_every_offset_around_chunk_boundary(tmp_path, catalog, planted):
    """A pattern ending in the first chunk, straddling the boundary, or
    starting the second chunk is found, as in the file read whole."""
    filler = np.random.default_rng(7).integers(0, 0x20, 2 * _CHUNK_BYTES, dtype=np.uint8).tobytes()
    token = planted.encode()
    for offset in range(_CHUNK_BYTES - len(token), _CHUNK_BYTES + 1):
        root = tmp_path / str(offset)
        _write_tree(root, manifest="", files=[("blob.bin", filler[:offset] + token + filler[offset:])])
        bits = scan_app(root, catalog)
        assert np.array_equal(bits, _reference(root, catalog)), offset
        assert bits[[f.pattern for f in catalog].index(planted)] == 1


def test_tiny_and_empty_files(tmp_path):
    cat = _api_catalog(["a", "bc", "abc", "abcd", "c"])
    _write_tree(tmp_path / "app", manifest="", files=[("e", b""), ("one", b"c"), ("three", b"abc")])
    assert scan_app(tmp_path / "app", cat).tolist() == [1, 1, 1, 0, 1]
    _write_tree(tmp_path / "empty", manifest="", files=[("e", b"")])
    assert not scan_app(tmp_path / "empty", cat).any()
    _write_tree(tmp_path / "four", manifest="", files=[("f", b"abcd")])  # a match in the last position
    assert scan_app(tmp_path / "four", cat).tolist() == [1, 1, 1, 1, 1]


_SHORT_PATTERNS = st.lists(st.text("abmo", min_size=1, max_size=5), min_size=1, max_size=6)
_SIZES = st.sampled_from([0, 1, 2, 3, 4, 100, _CHUNK_BYTES - 1, _CHUNK_BYTES, _CHUNK_BYTES + 1]) | st.integers(0, 2 * _CHUNK_BYTES + 64)


@st.composite
def _app_trees(draw):
    """A catalog (the shipped attributes, or 1- to 5-byte patterns over a small
    alphabet) and files of seeded bytes with patterns and near misses planted,
    often around a chunk boundary."""
    catalog = draw(st.sampled_from([AF, None]))
    if catalog is None:
        catalog = _api_catalog(draw(_SHORT_PATTERNS))
    tokens = [f.pattern.encode() for f in catalog]
    tokens += [t[:-1] for t in tokens if len(t) > 1]  # near misses
    files = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(_SIZES)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        alphabet = np.frombuffer(draw(st.sampled_from([bytes(range(256)), b"abmo\x00"])), dtype=np.uint8)
        data = bytearray(rng.choice(alphabet, size).tobytes())
        for _ in range(draw(st.integers(0, 4))):
            token = draw(st.sampled_from(tokens))
            at = draw(
                st.integers(_CHUNK_BYTES - len(token) - 2, _CHUNK_BYTES + 2)
                | st.integers(0, max(size - 1, 0))
                | st.just(max(size - len(token), 0))  # ending the file
            )
            data[at : at + len(token)] = token
        files.append(bytes(data[:size]) if size else b"")
    return catalog, files


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_app_trees())
def test_scanner_matches_whole_file_reference(case):
    catalog, files = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_tree(root, manifest="", files=[(f"d{i}/f{i}.bin", data) for i, data in enumerate(files)])
        assert np.array_equal(scan_app(root, catalog), _reference(root, catalog))


def _extract(root, out):
    """`droidtriage extract` in a child process that a hang cannot stall."""
    return subprocess.run(
        [sys.executable, "-m", "droidtriage", "extract", str(root), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )


def _bits_of(out):
    return read_vectors(out, default_catalog())[0][0]


def _expected(*names):
    cat = default_catalog()
    bits = np.zeros(len(cat), dtype=np.uint8)
    bits[[cat.index_of(n) for n in names]] = 1
    return bits


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("fifo", ["assets/pipe", MANIFEST_NAME])
def test_fifo_in_tree_is_skipped(tmp_path, fifo):
    root = tmp_path / "app"
    _write_tree(root, manifest='"android.permission.SEND_SMS"', files=[("code.txt", "chmod")])
    (root / fifo).unlink(missing_ok=True)
    (root / fifo).parent.mkdir(parents=True, exist_ok=True)
    os.mkfifo(root / fifo)
    proc = _extract(root, tmp_path / "vec.csv")
    assert proc.returncode == 0, proc.stderr
    if fifo == MANIFEST_NAME:
        assert proc.stderr.count("\n") == 1 and "not a regular file" in proc.stderr
        assert np.array_equal(_bits_of(tmp_path / "vec.csv"), _expected("chmod"))
    else:
        assert proc.stderr == ""
        assert np.array_equal(_bits_of(tmp_path / "vec.csv"), _expected("SEND_SMS", "chmod"))


def test_symlink_leaving_root_is_skipped(tmp_path):
    """Links whose target lies outside the root are not read, the manifest
    included; links that stay inside are."""
    outside = tmp_path / "outside"
    _write_tree(outside, files=[("secret.txt", "getDeviceId"), (MANIFEST_NAME, '"android.permission.READ_SMS"')])
    root = tmp_path / "app"
    _write_tree(root, files=[("real/tool.sh", "busybox chmod")])
    (root / MANIFEST_NAME).symlink_to(outside / MANIFEST_NAME)
    (root / "leak.txt").symlink_to(outside / "secret.txt")
    (root / "hop.txt").symlink_to(root / "leak.txt")  # inside, but resolves outside
    (root / "up.txt").symlink_to(Path("..") / "outside" / "secret.txt")
    (root / "alias.sh").symlink_to(Path("real") / "tool.sh")
    proc = _extract(root, tmp_path / "vec.csv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("\n") == 1 and "not a regular file inside the app tree" in proc.stderr
    assert np.array_equal(_bits_of(tmp_path / "vec.csv"), _expected("busybox", "chmod"))


def _manifest_reference(data, catalog):
    """Permission bits of a manifest read whole: each pattern standing alone
    between non-identifier bytes."""
    return np.array([
        f.category == PERMISSION
        and re.search(rb"(?<![A-Za-z0-9_])" + re.escape(f.pattern.encode()) + rb"(?![A-Za-z0-9_])", data) is not None
        for f in catalog
    ], dtype=np.uint8)


@pytest.mark.parametrize("chunk", [16, 64])  # shorter and longer than the token
@pytest.mark.parametrize("before, after", [
    (b" ", b" "),  # split across an edge
    (b" ", b"_EXTRA"),  # the identifier tail in the next chunk
    (b"x", b" "),  # an identifier byte in the previous chunk
    (b" ", b""),  # ending the file
], ids=["split", "extra-after", "ident-before", "at-end"])
def test_manifest_token_at_chunk_edge_matches_whole_file(tmp_path, monkeypatch, chunk, before, after):
    """With the token the one permission, a buffer carries just the token's
    length from the chunk before: a token starting anywhere up to past the
    second edge is found as in the file read whole. The file goes on for
    two chunks after the token unless the token ends it."""
    monkeypatch.setattr(dataset, "_CHUNK_BYTES", chunk)
    cat = FeatureCatalog([FeatureDef("SEND_SMS", PERMISSION, "android.permission.SEND_SMS")])
    token = cat[0].pattern.encode()
    for at in range(2 * chunk + 3):
        root = tmp_path / str(at)
        data = (b" " * at + before)[len(before):] + token + after  # `before` ends the first `at` bytes
        data += b" " * (2 * chunk if after else 0)
        _write_tree(root)
        (root / MANIFEST_NAME).write_bytes(data)
        bits = scan_app(root, cat)
        assert np.array_equal(bits, _manifest_reference(data, cat)), at
        assert bits[0] == ((at == 0 or before == b" ") and after != b"_EXTRA"), at


def _sparse_manifest(root, head=b""):
    _write_tree(root)
    with open(root / MANIFEST_NAME, "wb") as f:
        f.write(head)
        f.truncate(8 << 20)


def test_sparse_manifest_scanned_in_bounded_memory(tmp_path):
    """An 8 MiB manifest is read a chunk at a time, not whole: a chunk, the
    next one and the buffer searched are held at once."""
    root = tmp_path / "app"
    _sparse_manifest(root, b'"android.permission.SEND_SMS"')
    cat = default_catalog()
    bits, peak = traced_peak(lambda: scan_app(root, cat))
    assert np.array_equal(bits, _expected("SEND_SMS"))
    assert peak < 6 * _CHUNK_BYTES, peak


def test_manifest_read_stops_once_every_permission_is_found(tmp_path, monkeypatch):
    cat = select_feature_set(default_catalog(), FeatureSet.PF)
    root = tmp_path / "app"
    _sparse_manifest(root, " ".join(f'"{f.pattern}"' for f in cat).encode())
    read = []

    def counting(path, inside):
        f = open_regular(path, inside)
        return None if f is None else _Counting(f, read)

    open_regular = extract._open_regular
    monkeypatch.setattr(extract, "_open_regular", counting)
    assert scan_app(root, cat).all()
    assert sum(read) <= 2 * _CHUNK_BYTES


class _Counting:
    """A file that records the size of every read."""

    def __init__(self, f, sizes):
        self.f, self.sizes = f, sizes

    def read(self, n):
        data = self.f.read(n)
        self.sizes.append(len(data))
        return data

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()
