"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that:

* BENCHMARK.json keeps to its schema and layer_map.json maps every
  per-layer metric it declares;
* a short run of each workload, untraced and traced, exits 0 and prints a
  last line with exactly the declared metrics and units, with
  ``correct`` true and nothing failed;
* in the traced runs the self times of all spans add up to within 5% of
  the traced wall time (``trace.self_sum_share``);
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_out" / "selftest"
WORKLOADS = ("grid-stats", "grid-trained", "monitor-stream")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
COVERAGE = 0.05


def check_spec(spec: dict, layer_map: dict) -> list:
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad or repeated name {n!r}" for n in names
                 if not NAME.match(n) or names.count(n) > 1]
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"bad unit or direction in {m}")
    for m in spec["end_to_end"]:
        if not 0 < m.get("bound", 0) <= 0.25:
            problems.append(f"bound of {m['name']} outside (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must be declared with the largest bound")
    declared = {m["name"] for m in spec["per_layer"]}
    mapped = {entry["metric"] for entry in layer_map["per_layer"]}
    if declared != mapped:
        problems.append(f"layer_map.json and BENCHMARK.json differ: {declared ^ mapped}")
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for entry in layer_map["per_layer"]:
        for pair in entry["moves"]:
            if pair["workload"] not in workloads or pair["metric"] not in end_to_end:
                problems.append(f"layer_map.json: unknown pair {pair} for {entry['metric']}")
    return problems


def run_short(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--short"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int) -> list:
    proc = run_short(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if printed != declared:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{set(printed.items()) ^ set(declared.items())}")
    if trace:
        share = result["metrics"]["trace.self_sum_share"]["value"]
        if abs(share - 1.0) > COVERAGE:
            problems.append(f"{label}: self times add up to {share:.3f} of the traced wall")
    return problems


def check_bare_directory() -> list:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_short(bare, "grid-stats", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or '"metrics"' in last[0]:
        return ["without src/ the benchmark did not fail"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    problems = check_spec(spec, layer_map)
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
            print(f"ran {workload} --trace {trace} --short", flush=True)
    problems += check_bare_directory()
    shutil.rmtree(WORK, ignore_errors=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
