"""Byte pins of every CLI output: rank (file and stdout), train plus predict
for each kind, a crossval report, a compare report over all kinds and sets,
and the roc CSV and SVG, on a small seeded corpus. The two reports are also
pinned with their folds fitted in this process and in two workers. A
default-catalog synth of the reference calibration, about ten 256 KiB
blocks, and its rank output pin the CSV writer and reader across blocks;
every prediction and a synth with an XOR interaction are pinned with
blocks of a few rows too."""

import contextlib
import functools
import hashlib
import io

import pytest

from droidtriage import dataset, evaluation
from droidtriage.cli import main

CATALOG = """name,category,pattern
SEND_SMS,PERMISSION,android.permission.SEND_SMS
READ_SMS,PERMISSION,android.permission.READ_SMS
INTERNET,PERMISSION,android.permission.INTERNET
CAMERA,PERMISSION,android.permission.CAMERA
chmod,COMMAND,chmod
remount,COMMAND,remount
exec,API,Runtime.exec
crypto,API,SecretKeySpec
"""

SPEC = """#n_benign=70
#n_malware=50
name,p_benign,p_malware
SEND_SMS,0.05,0.6
READ_SMS,0.1,0.4
INTERNET,0.8,0.85
CAMERA,0.3,0.2
chmod,0.1,0.45
remount,0.02,0.3
exec,0.2,0.5
crypto,0.4,0.15
"""

# sha256 of each output the commands below write.
PINS = {
    "corpus.csv": "a8117e1c06bfc412baf2c39a3c1a98a5be4b7672e321a0a188b50d47e22fda2d",
    "rank.csv": "ba35973547479971535fb13c39e3983795a35a0933cf39e08f15838ff6b2f2f7",
    "rank.stdout": "ba35973547479971535fb13c39e3983795a35a0933cf39e08f15838ff6b2f2f7",
    "nb.model": "63b43e138e9086f38a47fc8d3db5a67810f73717f75097b8caa971dd3716b762",
    "nb.pred.csv": "3d4b361ed722a0a2246bcbb1867896c276bf0dc71981f2542a117d7b5bbf88de",
    "dt.model": "5b397baa7451cf1026445f0177e0982ef879c18a42b044e147c838212f416181",
    "dt.pred.csv": "4d09e144aba874cb12baaffdb6c7f562707941ec05bf74eea23a383083692fe5",
    "gini.model": "ac3e1243e3673fa78ee7738377b1ecc4f8061fae87830d3336a4cdacec09057f",
    "gini.pred.csv": "8396fbed027485d3c95c600a279e35c3a93aef8afc0a9d8d4338b5bfda4f4b15",
    "rt.model": "fffc3d00b053d8448fdf00c09da4edd5a9d4ae2d633f0fdf7ff7276949723fd9",
    "rt.pred.csv": "8396fbed027485d3c95c600a279e35c3a93aef8afc0a9d8d4338b5bfda4f4b15",
    "rf.model": "d9baeb509dc400d0f9a3ea4287b36db1ec5861b7ace99e346d7d5a21bbf23443",
    "rf.pred.csv": "d1ad75d1ad310332dc72d53b4fba5c208df44764e23e437cf56dfbcbdc86a331",
    "sl.model": "859a874869cc4ef2c92cf72cd715031c00c744a75295e9c9c3a544a693cb0e43",
    "sl.pred.csv": "cf5f367d54442b917db2b75e11970559032389275a62095517be982007ce114a",
    "crossval.csv": "8344f5aad6e6f0c0a672cd781590310fcc786555479f3c172674da223857d519",
    "compare.csv": "d5f5456a772f4b5deb4e6027f02259bb2bd26d7c77b3b960e27a96a69e8ac1f0",
    "roc.csv": "8d6887d2cab7d16dcd447dee954d1347b954ccb07b4e26625f03c7174c7d09e3",
    "roc.svg": "7e6f60eb798f902059672ec294503fc63809c5168bcafe9161ef8671a6e909eb",
}


# sha256 of a default-catalog synth of the reference calibration (6,863 rows)
# and of its ranking.
CALIBRATED_PINS = {
    "calibrated.csv": "afb586abec926ad8e920c8488ddd27e95621e2f42e78c18f6a3ab45014fc1c01",
    "calibrated.rank.csv": "bd68faf05a18cf66984a02b3f4254fa68ee67044ce0b98b890fff9000d6201d2",
}


# sha256 of a synth, seed 5, of SPEC with an XOR of SEND_SMS and chmod at q = 0.8.
XOR_PIN = "cf5a9110bd96f7a701d8f8c3e696427e55ed907d3c7ae3f28458c6e222ee685d"

# The flags of each trained model whose file and predictions PINS holds.
TRAIN_FLAGS = {
    "nb": ["--algo", "nb", "--alpha", "0.5"],
    "dt": ["--algo", "dt", "--prune"],
    "gini": ["--algo", "dt", "--criterion", "gini"],
    "rt": ["--algo", "rt", "--k", "3"],
    "rf": ["--algo", "rf", "--trees", "4"],
    "sl": ["--algo", "sl", "--max-iter", "8", "--cv-folds", "3"],
}

# The commands that fit folds, by the report each writes.
FOLD_COMMANDS = {
    "crossval.csv": ["crossval", "--algo", "rf", "--trees", "3", "--folds", "3", "--seed", "4"],
    "compare.csv": ["compare", "--algo", "nb,dt,rt,rf,sl", "--trees", "3", "--max-iter", "5", "--cv-folds", "2",
                    "--feature-set", "pf,af,capf", "--folds", "2", "--seed", "1"],
}


def _run(root, command, *flags) -> bytes:
    """stdout of one command run with the pinned catalog in `root`."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([command, "--catalog", str(root / "cat.csv"), *flags]) == 0
    return out.getvalue().encode()


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A directory holding the catalog and the seeded corpus."""
    root = tmp_path_factory.mktemp("pins")
    (root / "cat.csv").write_text(CATALOG)
    (root / "corpus.spec").write_text(SPEC)
    _run(root, "synth", "--spec", str(root / "corpus.spec"), "--seed", "5", "--out", str(root / "corpus.csv"))
    return root


@pytest.fixture(scope="module")
def outputs(root):
    """name -> bytes of every pinned output, from one run of the commands."""
    run = functools.partial(_run, root)
    corpus = str(root / "corpus.csv")
    run("rank", "--data", corpus, "--out", str(root / "rank.csv"))
    (root / "rank.stdout").write_bytes(run("rank", "--data", corpus))
    for name, flags in TRAIN_FLAGS.items():
        model = str(root / f"{name}.model")
        run("train", *flags, "--data", corpus, "--seed", "9", "--model", model)
        run("predict", "--data", corpus, "--model", model, "--out", str(root / f"{name}.pred.csv"))
    for name, argv in FOLD_COMMANDS.items():
        run(*argv, "--data", corpus, "--out", str(root / name))
    run("roc", "--data", corpus, "--model", str(root / "sl.model"),
        "--out", str(root / "roc.csv"), "--svg", str(root / "roc.svg"))
    return {name: (root / name).read_bytes() for name in PINS}


@pytest.mark.parametrize("name", PINS)
def test_output_bytes_pinned(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == PINS[name]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", FOLD_COMMANDS)
def test_fold_reports_pinned_for_any_worker_count(root, monkeypatch, name, workers):
    monkeypatch.setattr(evaluation, "_default_workers", lambda: workers)
    out = root / f"{workers}-{name}"
    _run(root, *FOLD_COMMANDS[name], "--data", str(root / "corpus.csv"), "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS[name]


def test_calibrated_corpus_and_ranking_pinned(tmp_path):
    corpus, ranking = (str(tmp_path / name) for name in CALIBRATED_PINS)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", corpus]) == 0
        assert main(["rank", "--data", corpus, "--out", ranking]) == 0
    for name in CALIBRATED_PINS:
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == CALIBRATED_PINS[name], name


@pytest.fixture
def tiny_blocks(monkeypatch):
    """Blocks of a few rows in every module that reads, packs, scores or
    writes rows a block at a time, all of which take their block size
    from `dataset`: 64 bytes of CSV (two or three rows),
    64 rows per pack, nb's minimum of 64 rows, 8 rows for sl, one row per
    block of predictions, 8 rows or a few candidate columns per block of a
    split histogram and one or two nodes per block of random split
    candidates."""
    monkeypatch.setattr(dataset, "_CHUNK_BYTES", 64)
    monkeypatch.setattr(dataset, "_PACK_ROWS", 64)


@pytest.mark.parametrize("name", ["dt", "gini", "rt", "rf"])
def test_trees_pinned_across_blocks(root, tiny_blocks, name):
    """A tree grown with blocks of a few cells is the one grown with whole
    levels in one block: dt's split histograms are summed 8 rows at a time,
    so a node's runs of entries cross block edges, and rt's and rf's a
    candidate column or a few at a time, their keys hashed one or two nodes
    per block."""
    model = root / f"tiny-{name}.model"
    _run(root, "train", *TRAIN_FLAGS[name], "--data", str(root / "corpus.csv"), "--seed", "9", "--model", str(model))
    assert hashlib.sha256(model.read_bytes()).hexdigest() == PINS[f"{name}.model"]


@pytest.mark.parametrize("name", TRAIN_FLAGS)
def test_predictions_pinned_across_blocks(root, outputs, tiny_blocks, name):
    out = root / f"tiny-{name}.pred.csv"
    _run(root, "predict", "--data", str(root / "corpus.csv"), "--model", str(root / f"{name}.model"), "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS[f"{name}.pred.csv"]


@pytest.mark.parametrize("blocks", ["default", "tiny"])
def test_xor_synth_pinned_across_blocks(root, request, blocks):
    """With blocks of one row, each class's XOR draws come from a copy of the
    stream advanced past its bits, a block at a time."""
    if blocks == "tiny":
        request.getfixturevalue("tiny_blocks")
    spec, out = root / "xor.spec", root / f"{blocks}-xor.csv"
    spec.write_text(SPEC.replace("name,p_benign", "#xor=SEND_SMS,chmod,0.8\nname,p_benign"))
    _run(root, "synth", "--spec", str(spec), "--seed", "5", "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == XOR_PIN
