"""Seeded inputs for the droidtriage benchmark workloads.

Run as a script, it builds one workload's inputs in an empty directory and
prints one JSON line with the build time in seconds and a SHA-256 digest of
every file it wrote:

    python3 bench/inputs.py --workload scan_apps --seed 1 --out DIR

The same (workload, seed) pair always produces byte-identical files.

- ``cv_compare``: ``corpus.csv``, the calibrated 6863-app corpus.
- ``triage_10x``: ``corpus.csv`` plus ``scaled10.spec``, the shipped
  calibration at ten times the instance counts, which the timed ``synth``
  command expands to 68,630 rows.
- ``scan_apps``: ``apps/appNNN/`` unpacked app trees and ``truth.json``
  with each tree's expected feature vector and byte size. Each app is
  benign or malware in the reference corpus's class ratio, and each of its
  manifest permissions is planted at the reference rate for its class. The
  file sizes are assumed, not taken from a published size study: a code blob
  per app of lognormal size (median 256 KiB, sigma 1.2, so the largest of 64
  is about 4.6 MiB), a native library in half the apps (median 128 KiB) and
  three resources of 1 to 32 KiB.

App trees are built so that the expected vector is exact. The manifest is
ASCII XML whose permissions are matched by an independent token regex. Every
other file is filler bytes >= 0x80 with ASCII tokens planted between them;
catalog patterns are ASCII, so a pattern can only occur inside one planted
token, and the expected API/COMMAND bits are the patterns found in those
tokens. This accounts for nested patterns such as ``mount`` in ``remount``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time includes importing the program

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import NormalDist  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from droidtriage.calibration import (  # noqa: E402
    REFERENCE_N_BENIGN,
    REFERENCE_N_MALWARE,
    reference_rates,
    reference_spec,
)
from droidtriage.catalog import PERMISSION, default_catalog  # noqa: E402
from droidtriage.dataset import synthesize, write_csv  # noqa: E402

WORKLOADS = ("cv_compare", "triage_10x", "scan_apps")
SCALE = 10
N_APPS = 64
KIB = 1024

# Planted into non-manifest files besides the bare catalog patterns: real
# call sites and shell lines that nest several patterns, and decoys that
# nearly match one.
_COMPOSITE_TOKENS = (
    "Ljava/lang/ProcessBuilder;->start()",
    "Ljava/lang/Runtime;->exec(Ljava/lang/String;)",
    "/system/bin/sh -c mount -o remount,rw /system",
    "Landroid/telephony/TelephonyManager;->getSubscriberId()",
    "Landroid/telephony/SmsManager;->sendTextMessage",
    "pm install -r /sdcard/update.apk",
    "Ldalvik/system/DexClassLoader;->loadClass",
    "busybox chmod 755 /system/xbin/su",
)
_DECOY_TOKENS = (
    "getDevice", "chmo", "busybo", "Telephony", "SmsManage", "remoun",
    "Ljava/lang/Proces", "/system/ap", "sendText", "android.permission.",
)


def _build_corpus(out: Path, seed: int) -> None:
    write_csv(synthesize(reference_spec(), seed), out / "corpus.csv")


def _write_scaled_spec(out: Path) -> None:
    lines = [f"#n_benign={SCALE * REFERENCE_N_BENIGN}", f"#n_malware={SCALE * REFERENCE_N_MALWARE}"]
    lines.append("name,p_benign,p_malware")
    for name, (p_ben, p_mal) in reference_rates().items():
        lines.append(f"{name},{p_ben!r},{p_mal!r}")
    (out / "scaled10.spec").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _lognormal_quantiles(n: int, median: int, sigma: float) -> np.ndarray:
    """The n midpoint quantiles of a lognormal, in whole bytes."""
    z = [NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)]
    return np.round(median * np.exp(sigma * np.array(z))).astype(np.int64)


def _filler_with_tokens(rng, size: int, tokens: list[str]) -> bytes:
    """`size` filler bytes in [0x80, 0xff] with `tokens` planted between them."""
    raw = np.frombuffer(rng.bytes(max(size, len(tokens) + 1)), dtype=np.uint8)
    filler = (raw | 0x80).tobytes()
    cuts = np.sort(rng.choice(len(filler) - 1, size=len(tokens), replace=False) + 1)
    parts, prev = [], 0
    for cut, token in zip(cuts, tokens):
        parts += [filler[prev:cut], token.encode("ascii")]
        prev = cut
    parts.append(filler[prev:])
    return b"".join(parts)


def _manifest(rng, index: int, perm_patterns: list[str], perm_rates: np.ndarray, attr_pool: list[str]) -> str:
    planted = [p for p, rate in zip(perm_patterns, perm_rates) if rng.random() < rate]
    near = rng.choice(perm_patterns, size=4, replace=False)
    lines = [
        '<?xml version="1.0" encoding="utf-8"?>',
        f'<manifest xmlns:android="http://schemas.android.com/apk/res/android" package="com.bench.app{index:03d}">',
    ]
    lines += [f'    <uses-permission android:name="{p}"/>' for p in planted]
    # Near misses: identifier characters touch the pattern, so no bit is set.
    lines += [f'    <uses-permission android:name="{near[0]}_EXTRA"/>',
              f'    <uses-permission android:name="X{near[1]}"/>',
              f'    <uses-permission android:name="{near[2]}2"/>',
              f'    <uses-permission android:name="my{near[3]}"/>']
    # API/COMMAND patterns in the manifest never set a bit.
    hint = " ".join(rng.choice(attr_pool, size=3, replace=False))
    lines += [f'    <meta-data android:name="hint" android:value="{hint}"/>',
              f'    <application android:label="App {index}"/>', "</manifest>"]
    return "\n".join(lines) + "\n"


def _build_apps(out: Path, seed: int) -> None:
    catalog = default_catalog()
    perm_patterns = [f.pattern for f in catalog if f.category == PERMISSION]
    attr_patterns = [f.pattern for f in catalog if f.category != PERMISSION]
    pool = attr_patterns + list(_COMPOSITE_TOKENS) + list(_DECOY_TOKENS) + perm_patterns[:10]
    perm_res = [
        (i, f.pattern, re.compile(rf"(?<![A-Za-z0-9_]){re.escape(f.pattern)}(?![A-Za-z0-9_])"))
        for i, f in enumerate(catalog) if f.category == PERMISSION
    ]
    attr_idx = [(i, f.pattern) for i, f in enumerate(catalog) if f.category != PERMISSION]
    spec = reference_spec(catalog)
    is_perm = np.array([f.category == PERMISSION for f in catalog])
    rates = {False: spec.p_benign[is_perm], True: spec.p_malware[is_perm]}
    rng = np.random.default_rng(seed)
    # Malware apps in the reference corpus's share, and blob sizes as
    # lognormal quantiles, dealt to the apps in seeded order: every seed has
    # the same class mix, byte total and size spread.
    malware = rng.permutation(N_APPS) < round(N_APPS * REFERENCE_N_MALWARE / (REFERENCE_N_BENIGN + REFERENCE_N_MALWARE))
    dex = rng.permutation(_lognormal_quantiles(N_APPS, 256 * KIB, 1.2))
    lib = rng.permutation(_lognormal_quantiles(N_APPS, 128 * KIB, 1.0))
    truth = {}
    for a in range(N_APPS):
        root = out / "apps" / f"app{a:03d}"
        manifest = _manifest(rng, a, perm_patterns, rates[bool(malware[a])], attr_patterns)
        files = {"AndroidManifest.xml": manifest.encode("ascii")}
        # One code blob (KiB to MiB), a native library in half the apps, and
        # three small resources.
        sizes = {"classes.dex": int(dex[a])}
        if lib[a] >= np.median(lib):
            sizes["lib/armeabi/libnative.so"] = int(lib[a])
        for r in range(3):
            sizes[f"res/raw/r{r}.bin"] = int(rng.integers(KIB, 32 * KIB))
        planted: list[str] = []
        for rel, size in sizes.items():
            tokens = [str(t) for t in rng.choice(pool, size=int(rng.poisson(3)))]
            planted += tokens
            files[rel] = _filler_with_tokens(rng, size, tokens)
        bits = np.zeros(len(catalog), dtype=np.uint8)
        for i, pattern, rx in perm_res:
            bits[i] = pattern in manifest and rx.search(manifest) is not None
        for i, pattern in attr_idx:
            bits[i] = any(pattern in t for t in planted)
        for rel, data in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        truth[root.name] = {
            "bits": "".join(map(str, bits)),
            "bytes": sum(len(d) for d in files.values()),
        }
    (out / "truth.json").write_text(json.dumps(truth, indent=1, sort_keys=True) + "\n")


def build(workload: str, seed: int, out: Path) -> None:
    """Write `workload`'s inputs for `seed` into the directory `out`."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "cv_compare":
        _build_corpus(out, seed)
    elif workload == "triage_10x":
        _build_corpus(out, seed)
        _write_scaled_spec(out)
    elif workload == "scan_apps":
        _build_apps(out, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def digest(directory: Path) -> str:
    """SHA-256 over every file under `directory`: relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        with path.open("rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    build(args.workload, args.seed, args.out)
    seconds = time.perf_counter() - _T0
    print(json.dumps({"setup_s": seconds, "sha256": digest(args.out)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
