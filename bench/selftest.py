"""Smoke test of the benchmark itself; run from the repository root:

    python3 bench/selftest.py

For every workload it makes one short untraced and one short traced run and
checks that the last stdout line has exactly the contract's keys, that every
metric BENCHMARK.json declares is printed by name with its unit, that the
traced spans nest, that no self time is negative and that the self times add
up to the traced wall time. It also checks that the benchmark refuses to run
without the program's sources. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import LAYERS, WORKLOADS  # noqa: E402
from spans import check_nesting  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int, declared: dict) -> list[str]:
    proc = _run(ROOT, "--workload", workload, "--seed", "2", "--seconds", "1", "--trace", str(trace))
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
        problems.append(f"{where}: bad result keys or not correct: {lines[-1][:200]}")
    want = declared["per_layer" if trace else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want or not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
        problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    record = json.loads((ROOT / next(ln.split()[-1] for ln in lines if ln.strip().startswith("record "))).read_text())
    if trace:
        problems += [f"{where}: {p}" for p in check_nesting(record["spans"])[:5]]
        seconds = {k: v for k, (v, unit) in record["layers"].items() if unit == "s"}
        negative = [k for k, v in seconds.items() if k.endswith("self_s") and v < 0]
        if negative:
            problems.append(f"{where}: negative self times {negative}")
        total = sum(seconds[f"{layer}.self_s"] for layer in LAYERS)
        if abs(total - seconds["trace.wall_s"]) > 1e-6 * seconds["trace.wall_s"]:
            problems.append(f"{where}: layer self times sum to {total}, traced wall is {seconds['trace.wall_s']}")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "--workload", "scan_apps", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    problems = check_refuses_without_sources()
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, trace, declared)
            print(f"{workload} trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    for p in problems:
        print(p)
    print("selftest", "passed" if not problems else f"failed with {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
