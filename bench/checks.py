"""Output checks for the benchmark workloads.

Each check reads the outputs a workload's commands left in the work
directory and returns ``{command index: [problem, ...]}`` for the commands
whose outputs break an invariant. The checks test invariants, not byte
digests, so a declared change of a random stream does not break them.
CSV files are parsed here with numpy rather than with droidtriage's reader.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

from droidtriage.algo import model_scores
from droidtriage.catalog import PERMISSION, default_catalog
from droidtriage.modelio import load_model

RATE_COLUMNS = ("TPR", "TNR", "FPR", "FNR", "ACC", "ERR", "precision", "AUC")
MIN_AUC = 0.90
STRONG_ON_CAPF = ("nb", "rf", "sl")
RANK_TOP3 = ["SEND_SMS", "RECEIVE_SMS", "READ_SMS"]


def read_bits(path: Path, n_features: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Header, bit matrix and malware flags of a labeled dataset CSV."""
    data = np.fromfile(path, dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    header = data[: ends[0]].tobytes().decode("utf-8").split(",")
    starts, ends = ends[:-1] + 1, ends[1:]
    cols = 2 * np.arange(n_features)
    X = np.empty((starts.size, n_features), dtype=np.uint8)
    for i in range(0, starts.size, 4096):
        at = starts[i : i + 4096, None] + cols
        if np.any(data[at + 1] != ord(",")):
            raise ValueError(f"{path}: a row is not {n_features} single-character cells")
        X[i : i + 4096] = data[at] - ord("0")
    tails = [data[s + 2 * n_features : e].tobytes() for s, e in zip(starts, ends)]
    if X.max(initial=0) > 1 or not set(tails) <= {b"benign", b"malware"}:
        raise ValueError(f"{path}: cells must be 0/1 and labels benign/malware")
    return header, X, np.array([t == b"malware" for t in tails])


def check_cv_compare(work: Path, **_) -> dict[int, list[str]]:
    catalog = default_catalog()
    n_perm = sum(f.category == PERMISSION for f in catalog)
    widths = {"pf": n_perm, "af": len(catalog) - n_perm, "capf": len(catalog)}
    problems = []
    lines = (work / "comparison.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    seen = sorted((r["feature_set"], r["algo"]) for r in rows)
    want = sorted((s, k) for s in widths for k in ("nb", "dt", "rt", "rf", "sl"))
    if seen != want:
        problems.append(f"report rows {seen} are not one per (set, kind)")
    for r in rows:
        if widths.get(r["feature_set"]) != int(r["features"]):
            problems.append(f"{r['algo']}/{r['feature_set']}: {r['features']} features")
        for col in RATE_COLUMNS:
            try:
                ok = 0.0 <= float(r[col]) <= 1.0
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"{r['algo']}/{r['feature_set']}: {col}={r[col]} outside [0, 1]")
        if r["feature_set"] == "capf" and r["algo"] in STRONG_ON_CAPF and float(r["AUC"]) < MIN_AUC:
            problems.append(f"{r['algo']}/capf: AUC {r['AUC']} < {MIN_AUC}")
    return {0: problems} if problems else {}


def check_triage_10x(work: Path, inputs: Path, **_) -> dict[int, list[str]]:
    catalog = default_catalog()
    spec = dict(line[1:].split("=") for line in (inputs / "scaled10.spec").read_text().splitlines()
                if line.startswith("#"))
    n_ben, n_mal = int(spec["n_benign"]), int(spec["n_malware"])
    found: dict[int, list[str]] = defaultdict(list)

    header, X, malware = read_bits(work / "corpus10x.csv", len(catalog))
    if header != list(catalog.names) + ["class"]:
        found[0].append("synth header does not match the catalog")
    if (len(malware), int(malware.sum())) != (n_ben + n_mal, n_mal):
        found[0].append(f"synth wrote {len(malware)} rows, {int(malware.sum())} malware")

    ranking = [line.split(",") for line in (work / "ranking.csv").read_text().splitlines()[1:]]
    scores = [float(r[2]) for r in ranking]
    if [r[1] for r in ranking[:3]] != RANK_TOP3 or scores != sorted(scores, reverse=True):
        found[1].append(f"rank top 3 {[r[1] for r in ranking[:3]]} or order is wrong")

    model = load_model(work / "forest.rf", catalog)
    if type(model).__name__ != "ForestModel":
        found[2].append(f"train wrote a {type(model).__name__}")

    lines = (work / "predictions.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if lines[0] != "row,label,score" or len(rows) != len(X):
        found[3].append(f"predict wrote {len(rows)} rows for {len(X)} inputs")
    else:
        got = np.array([float(r[2]) for r in rows])
        if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
            found[3].append("predict row numbers are not 1..n")
        if any((r[1] == "malware") != (s > 0.5) or r[1] not in ("benign", "malware") for r, s in zip(rows, got)):
            found[3].append("a predict label disagrees with score > 0.5")
        if not np.array_equal(got, model_scores(model, X)):
            found[3].append("predict scores differ from model_scores(load_model(...), X)")
    return dict(found)


def check_scan_apps(work: Path, inputs: Path, **_) -> dict[int, list[str]]:
    names = ",".join(default_catalog().names)
    truth = json.loads((inputs / "truth.json").read_text())
    found = {}
    for i, app in enumerate(sorted(truth)):
        lines = (work / f"{app}.csv").read_text().splitlines()
        bits = lines[1].replace(",", "") if len(lines) == 2 else None
        if lines[0] != names or bits != truth[app]["bits"]:
            found[i] = [f"{app}: vector differs from the planted ground truth"]
    return found


CHECKS = {"cv_compare": check_cv_compare, "triage_10x": check_triage_10x, "scan_apps": check_scan_apps}
