"""droidtriage benchmark: one workload, or all three, end to end and by layer.

    python3 bench/run.py --workload cv_compare --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 38

Run from the repository root. Each run builds the workload's inputs from
the seed in separate set-up processes (several times, reporting the median),
then drives ``droidtriage.cli.main`` in one child process as a closed loop
for ``--seconds`` and checks every output. With ``--trace 0`` the last line
of stdout is a JSON object whose metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics, from
iterations that alternate untraced and traced. The lines above it are a
readable report, and every run also writes a record with the environment,
the input digest and all metrics to ``.bench_results/``. The exit code is 0
only when every operation succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cv_compare", "triage_10x", "scan_apps")
SETUP_REPS = 5
RUN_DEADLINE_S = 170  # every run must end within 180 s
MIB = 1 << 20
KINDS = ("nb", "dt", "rt", "rf", "sl")
LAYERS = ("cli", "catalog", "extract", "dataset", "ranking", "bayes", "trees", "ensemble", "algo", "evaluation", "modelio")

# Per-layer busy times: metric stem -> span name (see spans.WRAPS).
BUSY = {
    "dataset.read": "dataset.read_vectors",
    **{f"dataset.{n}": f"dataset.{n}" for n in ("write_csv", "synthesize", "subset")},
    **{f"trees.{n}": f"trees.{n}" for n in ("train_decision_tree", "train_random_tree", "tree_scores")},
    **{f"ensemble.{n}": f"ensemble.{n}" for n in ("train_forest", "forest_scores", "train_simple_logistic", "logit_scores")},
    **{f"bayes.{n}": f"bayes.{n}" for n in ("train_nb", "nb_scores")},
    **{f"algo.{f}.{k}": f"algo.{f}.{k}" for f in ("train_model", "model_scores") for k in KINDS},
    **{f"evaluation.{n}": f"evaluation.{n}" for n in ("compare", "roc_auc")},
    **{f"modelio.{n}": f"modelio.{n}" for n in ("save_model", "load_model")},
    "extract.scan_app": "extract.scan_app",
    **{f"catalog.{n}": f"catalog.{n}" for n in ("default_catalog", "select_feature_set")},
}
CLI_COMMANDS = ("synth", "rank", "train", "predict", "compare", "extract")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def environment() -> dict:
    """Machine, interpreter, library versions, commit and src/ size."""
    import numpy

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            loose = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                commit = next((ln.split()[0] for ln in packed.read_text().splitlines() if ln.endswith(" " + ref[5:])), None)
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_lines": src_lines,
    }


def _run_json(argv: list[str], timeout: float, env: dict | None = None) -> dict:
    """Run a helper script; its last stdout line is a JSON object."""
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{Path(argv[1]).name} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{Path(argv[1]).name} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup(workload: str, seed: int, work: Path, deadline: float) -> tuple[Path, list[float], str]:
    """Build the inputs SETUP_REPS times; return the last copy, times, digest."""
    times, digests = [], set()
    for rep in range(SETUP_REPS):
        out = work / f"inputs{rep}"
        built = _run_json([sys.executable, str(BENCH / "inputs.py"), "--workload", workload,
                           "--seed", str(seed), "--out", str(out)], deadline - time.monotonic())
        times.append(built["setup_s"])
        digests.add(built["sha256"])
        if rep < SETUP_REPS - 1:
            shutil.rmtree(out)
    if len(digests) != 1:
        raise BenchError(f"set-up is not deterministic: digests {sorted(digests)}")
    return out, times, digests.pop()


def _failures(workload: str, result: dict, inputs: Path, work: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every command run."""
    from checks import CHECKS

    try:
        semantic = CHECKS[workload](work=work, inputs=inputs)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        n = len(result["iterations"][0]["commands"])
        semantic = {c: [f"outputs unreadable: {type(exc).__name__}: {exc}"] for c in range(n)}
    problems = [p for ps in semantic.values() for p in ps]
    attempted = failed = 0
    for it in result["iterations"]:
        for c, cmd in enumerate(it["commands"]):
            attempted += 1
            bad = []
            if cmd["exit"] != 0:
                bad.append(f"{cmd['name']} exited {cmd['exit']}: {cmd['stderr'].strip()}")
            if not cmd["stdout_ok"]:
                bad.append(f"{cmd['name']} stdout is not exactly its output path")
            if not cmd["same_output"]:
                bad.append(f"{cmd['name']} output differs from the first iteration's")
            if bad or c in semantic:
                failed += 1
            problems += bad
    return attempted, failed, list(dict.fromkeys(problems))


def named_metrics(workload: str, result: dict, inputs: Path, setup_times: list[float], failed_ratio: float) -> dict:
    """The workload's end-to-end metrics, as {name: (value, unit)}.

    BENCHMARK.json's end-to-end list is the subset every workload has:
    ``wall_s``, ``peak_rss_mib`` and ``setup_s``.
    """
    plain = [it for it in result["iterations"] if not it["traced"]]
    walls = [it["seconds"] for it in plain]

    def cmd_seconds(name):
        return [c["seconds"] for it in plain for c in it["commands"] if c["name"] == name]

    named = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024, "MiB"),
        "failed_ratio": (failed_ratio, "ratio"),
    }
    if workload == "cv_compare":
        from loop import COMPARE_FOLDS, COMPARE_KINDS, COMPARE_SETS

        # A fit on (k-1)/k of the rows counts as (k-1)/k / 0.9 of a 10-fold fit.
        fits = len(COMPARE_SETS) * len(COMPARE_KINDS) * (COMPARE_FOLDS - 1) / 0.9
        named["cv_fits_per_s"] = (statistics.median(fits / w for w in walls), "1/s")
    elif workload == "triage_10x":
        spec = dict(ln[1:].split("=") for ln in (inputs / "scaled10.spec").read_text().splitlines() if ln.startswith("#"))
        rows = int(spec["n_benign"]) + int(spec["n_malware"])
        for name in ("synth", "rank", "train"):
            named[f"{name}_s"] = (statistics.median(cmd_seconds(name)), "s")
        named["triage_rows_per_s"] = (statistics.median(rows / s for s in cmd_seconds("predict")), "1/s")
    else:
        truth = json.loads((inputs / "truth.json").read_text())
        total = sum(v["bytes"] for v in truth.values()) / MIB
        lat = sorted(s * 1000 for s in cmd_seconds("extract"))
        named["scan_mib_per_s"] = (statistics.median(total / w for w in walls), "MiB/s")
        named["scan_app_p50_ms"] = (statistics.median(lat), "ms")
        named["scan_app_p95_ms"] = (statistics.quantiles(lat, n=100)[94] if len(lat) > 1 else lat[0], "ms")
        named["scan_app_samples"] = (len(lat), "count")
    return named


def layer_metrics(result: dict, untraced_wall: float) -> tuple[dict, dict]:
    """(per-layer metrics as {name: (value, unit)}; each layer's share of the
    traced wall in %, for the report).

    Times are busy and self seconds per traced iteration, averaged over the
    traced iterations, so the self times add up to the traced wall exactly.
    A layer a workload does not call reads 0 s there.
    """
    traced = result["traced"]
    n = len(traced)

    def mean(key, name):
        return sum(s[key].get(name, 0.0) for s in traced) / n

    def count(name):
        return sum(s["counts"].get(name, 0) for s in traced) / n

    def per_s(amount, busy):
        return amount / busy if busy > 0 else 0.0

    wall = sum(it["seconds"] for it in result["iterations"] if it["traced"]) / n
    seconds = {f"{stem}.s": mean("busy", span) for stem, span in BUSY.items()}
    seconds["evaluation.cross_validate.self_s"] = mean("self", "evaluation.cross_validate")
    for cmd in CLI_COMMANDS:
        seconds[f"cli.{cmd}.self_s"] = mean("self", f"cli.{cmd}")
    names = {name for s in traced for name in s["self"]}
    for layer in LAYERS:
        seconds[f"{layer}.self_s"] = sum((mean("self", nm) for nm in names if nm.split(".", 1)[0] == layer), 0.0)
    shares = {k: 100 * v / wall for k, v in seconds.items()}
    shares["trace.unaccounted"] = 100 * (wall - sum(seconds[f"{layer}.self_s"] for layer in LAYERS)) / wall
    metrics = {k: (v, "s") for k, v in seconds.items()}
    tree_busy = seconds["trees.train_decision_tree.s"] + seconds["trees.train_random_tree.s"]
    metrics.update({
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "dataset.read.rows_per_s": (per_s(count("dataset.read.rows"), seconds["dataset.read.s"]), "1/s"),
        "dataset.write_csv.rows_per_s": (per_s(count("dataset.write_csv.rows"), seconds["dataset.write_csv.s"]), "1/s"),
        "dataset.subset.bytes": (count("dataset.subset.bytes"), "B"),
        "trees.nodes": (count("trees.nodes"), "count"),
        "trees.nodes_per_s": (per_s(count("trees.nodes"), tree_busy), "1/s"),
        "trees.max_depth": (max(s["counts"].get("trees.max_depth", 0) for s in traced), "count"),
        "trees.tree_scores.rows_per_s": (per_s(count("trees.tree_scores.rows"), seconds["trees.tree_scores.s"]), "1/s"),
        "evaluation.folds": (count("evaluation.folds"), "count"),
        "modelio.model_bytes": (count("modelio.model_bytes"), "B"),
        "extract.scan_app.calls": (count("extract.scan_app.calls"), "count"),
        "extract.mib_per_s": (per_s(count("extract.scan_app.bytes") / MIB, seconds["extract.scan_app.s"]), "MiB/s"),
        "cli.exit_nonzero": (sum(c["exit"] != 0 for it in result["iterations"] if it["traced"] for c in it["commands"]) / n, "count"),
    })
    return metrics, shares


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up, run and check one workload; the record of the run."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = ROOT / ".bench_work" / f"{workload}-s{seed}-t{trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs, setup_times, digest = setup(workload, seed, work, deadline)
        # One BLAS thread keeps the measured process on one core: on a shared
        # 2-core host, two threads made repeated compare times spread about
        # three times as wide (five runs each way).
        result = _run_json([sys.executable, str(BENCH / "loop.py"), "--workload", workload, "--seed", str(seed),
                            "--inputs", str(inputs), "--work", str(work / "out"), "--seconds", str(seconds),
                            "--trace", str(trace)], deadline - time.monotonic() - 10,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        attempted, failed, problems = _failures(workload, result, inputs, work / "out")
        named = named_metrics(workload, result, inputs, setup_times, failed / attempted)
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "environment": {**environment(), "blas": result["blas"], "python_threads": result["threads"]},
            "inputs_sha256": digest, "setup_times_s": setup_times,
            "correct": failed == 0, "attempted": attempted, "failed": failed, "problems": problems,
            "named": named,
            "iterations": [{"traced": it["traced"], "seconds": it["seconds"],
                            "commands": [c["seconds"] for c in it["commands"]]} for it in result["iterations"]],
        }
        if trace:
            record["layers"], record["layer_shares_pct"] = layer_metrics(result, named["wall_s"][0])
            record["spans"] = result["spans"]
            record["untraced_names"] = list(dict.fromkeys(m for s in result["traced"] for m in s["missing"]))
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_lines(rec: dict) -> list[str]:
    env = rec["environment"]
    blas = env["blas"]
    lines = [
        f"workload {rec['workload']}  seed {rec['seed']}  seconds {rec['seconds']}  trace {rec['trace']}",
        f"  env  nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
        f"blas {blas['name']} {blas['version']} threads {blas['threads']}  commit {env['commit']}  src_lines {env['src_lines']}",
        f"  inputs sha256 {rec['inputs_sha256']}  iterations {len(rec['iterations'])}  "
        f"attempted {rec['attempted']}  failed {rec['failed']}",
    ]
    lines += [f"  {name:<18} {_fmt(v)} {unit}" for name, (v, unit) in rec["named"].items()]
    if rec["trace"]:
        shares = rec["layer_shares_pct"]
        for name, (v, unit) in rec["layers"].items():
            share = f"  ({shares[name]:.3g}% of the traced wall)" if name in shares else ""
            lines.append(f"  {name:<40} {_fmt(v)} {unit}{share}")
        lines.append(f"  {'trace.unaccounted':<40} {shares['trace.unaccounted']:.3g}% of the traced wall")
    if rec.get("untraced_names"):
        lines.append(f"  not traced or not counted (absent from the program): {', '.join(rec['untraced_names'])}")
    lines += [f"  problem: {p}" for p in rec["problems"][:20]]
    return lines


def _declared(key: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[key]]


def summary_line(rec: dict) -> str:
    values = rec["layers"] if rec["trace"] else rec["named"]
    metrics = {}
    for name, unit in _declared("per_layer" if rec["trace"] else "end_to_end"):
        value, got_unit = values.get(name, (None, None))
        if got_unit != unit:
            raise BenchError(f"metric {name} is in {got_unit}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": rec["correct"], "attempted": rec["attempted"], "failed": rec["failed"], "metrics": metrics})


def _save(rec: dict) -> Path:
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    path = out / f"{rec['workload']}-s{rec['seed']}-t{rec['trace']}-{time.strftime('%Y%m%dT%H%M%S')}-p{os.getpid()}.json"
    path.write_text(json.dumps(rec, indent=1) + "\n")
    return path


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=38)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "droidtriage" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: no droidtriage sources under {SRC} or no BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        records = []
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            rec = run_workload(workload, args.seed, args.seconds, args.trace)
            print("\n".join(report_lines(rec)))
            print(f"  record {_save(rec).relative_to(ROOT)}")
            records.append(rec)
        if args.workload == "all":
            print("end-to-end metrics")
            for rec in records:
                for name, (v, unit) in rec["named"].items():
                    print(f"  {rec['workload']:<11} {name:<18} {_fmt(v)} {unit}")
            print(json.dumps({
                "correct": all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": {f"{r['workload']}.{k}": {"value": v, "unit": u}
                            for r in records for k, (v, u) in r["named"].items()},
            }))
        else:
            print(summary_line(records[0]))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
