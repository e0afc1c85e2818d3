"""The measured child process: one client driving ``droidtriage.cli.main``.

It runs one workload's command sequence over and over, in this process and
one thread, each command only after the previous one returned, until the
time budget would be exceeded (at least once; with ``--trace 1`` at least
once untraced and once traced, alternating). For every command it records
the wall seconds, the exit code, whether stdout was exactly the output
path(s), and whether the outputs are byte-identical to the first
iteration's. The semantic output checks run afterwards in the parent, so
that this process's peak RSS covers the commands alone; it is read after the
first iteration, which every run repeats identically.

    python3 bench/loop.py --workload W --seed N --inputs DIR --work DIR \
        --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import resource
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from droidtriage import cli  # noqa: E402
from spans import Tracer, summarize  # noqa: E402

COMPARE_FOLDS = 2
COMPARE_KINDS = ("nb", "dt", "rt", "rf", "sl")
COMPARE_SETS = ("pf", "af", "capf")


def plan(workload: str, seed: int, inputs: Path, work: Path) -> list[tuple[str, list[str], list[Path]]]:
    """One iteration's commands as (command, argv, output paths).

    Program seeds derive from the workload seed; the 10x corpus uses
    seed + 1 so that its rows are not a copy of the training corpus's.
    """
    corpus = str(inputs / "corpus.csv")
    if workload == "cv_compare":
        report = work / "comparison.csv"
        return [("compare", ["compare", "--algo", ",".join(COMPARE_KINDS), "--feature-set",
                             ",".join(COMPARE_SETS), "--folds", str(COMPARE_FOLDS), "--seed", str(seed),
                             "--data", corpus, "--out", str(report)], [report])]
    if workload == "triage_10x":
        big, ranking, model, pred = (work / n for n in ("corpus10x.csv", "ranking.csv", "forest.rf", "predictions.csv"))
        return [
            ("synth", ["synth", "--spec", str(inputs / "scaled10.spec"), "--seed", str(seed + 1), "--out", str(big)], [big]),
            ("rank", ["rank", "--data", str(big), "--out", str(ranking)], [ranking]),
            ("train", ["train", "--algo", "rf", "--seed", str(seed), "--data", corpus, "--model", str(model)], [model]),
            ("predict", ["predict", "--model", str(model), "--data", str(big), "--out", str(pred)], [pred]),
        ]
    if workload == "scan_apps":
        apps = sorted((inputs / "apps").iterdir())
        return [("extract", ["extract", str(app), "--out", str(work / f"{app.name}.csv")], [work / f"{app.name}.csv"])
                for app in apps]
    raise ValueError(f"unknown workload {workload!r}")


def _file_digest(path: Path) -> str | None:
    if not path.is_file():
        return None
    h = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def blas_info() -> dict:
    """The BLAS library numpy was built against and its current thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                threads = int(getattr(handle, sym)())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def run(args) -> dict:
    commands = plan(args.workload, args.seed, args.inputs, args.work)
    app_bytes = {}
    if args.workload == "scan_apps":
        truth = json.loads((args.inputs / "truth.json").read_text())
        app_bytes = {name: v["bytes"] for name, v in truth.items()}
    first_digests: dict[int, list] = {}
    iterations = []
    traced_summaries = []
    first_spans = None
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        tracer = Tracer(app_bytes) if traced else None
        if tracer:
            tracer.install()
        cmds = []
        for c, (name, argv, outputs) in enumerate(commands):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer:
                    root = tracer.open(f"cli.{name}")
                t0 = perf_counter()
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a traceback is a failed operation, not a crash of the run
                    code = f"{type(exc).__name__}: {exc}"
                finally:
                    t1 = perf_counter()
                    if tracer:
                        tracer.close(root)
            seconds = (root[2] - root[1]) if tracer else t1 - t0
            if tracer:
                tracer.count_trees()
            digests = [_file_digest(p) for p in outputs]
            same = first_digests.setdefault(c, digests) == digests
            stdout_ok = out.getvalue() == "".join(f"{p}\n" for p in outputs)
            cmds.append({"name": name, "seconds": seconds, "exit": code, "stdout_ok": stdout_ok,
                         "same_output": same and None not in digests, "stderr": err.getvalue()[-500:]})
        if tracer:
            tracer.uninstall()
            summary = summarize(tracer.spans)
            summary["counts"] = dict(tracer.counts)
            summary["missing"] = tracer.missing
            traced_summaries.append(summary)
            if first_spans is None:
                first_spans = tracer.spans
        iterations.append({"traced": traced, "seconds": sum(c["seconds"] for c in cmds), "commands": cmds})
        if len(iterations) == 1:
            rss_first = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = perf_counter() - start
        if len(iterations) < (2 if args.trace else 1):
            continue
        step = statistics.median(it["seconds"] for it in iterations) * (elapsed / sum(it["seconds"] for it in iterations))
        if elapsed + step > args.seconds:
            break
    return {
        "iterations": iterations,
        "traced": traced_summaries,
        "spans": first_spans or [],
        "peak_rss_kib": rss_first,
        "threads": threading.active_count(),
        "blas": blas_info(),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", type=Path, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    args.work.mkdir(parents=True, exist_ok=True)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
