"""Self-test of the benchmark at toy size.

Runs every workload once untraced and once traced through the same code as
a real run, shrunk to the toy config in workloads.json, and checks that
each result is correct and names every metric of BENCHMARK.json with its
unit. Also checks the records in workloads.json against BENCHMARK.json,
and that the benchmark refuses to run where the onea sources are absent.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def check_result(bench: dict, name: str, trace: int) -> list[str]:
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in bench[kind]}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", name, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--toy"])
    where = f"{name} --trace {trace}"
    if rc != 0:
        return [f"{where}: exit status {rc}"]
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} "
                        "operations failed")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {sorted(k for k in want if got.get(k, want[k]) != want[k])}")
    for key, metric in result["metrics"].items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {key} is {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end metric {key} is {value}")
    return problems


def check_records(bench: dict) -> list[str]:
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    names = {w["name"] for w in bench["workloads"]}
    problems = []
    if set(spec["workloads"]) != names:
        problems.append("workloads.json and BENCHMARK.json name different workloads")
    metrics = [m["name"] for m in bench["per_layer"]]
    for row in spec["moves"]:
        for pattern in row.get("layer", []):
            prefix = pattern.rstrip("*")
            if not any(m == pattern or (pattern.endswith("*") and m.startswith(prefix))
                       for m in metrics):
                problems.append(f"moves table names unknown layer metric {pattern}")
        problems += [f"moves table names unknown workload {w}"
                     for w in row["moves"] if w not in names]
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               "fold-bank", "--seed", "1", "--seconds", "1"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["benchmark ran or printed a result without the onea sources"]
    return []


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_records(bench) + check_refuses_without_sources()
    for workload in bench["workloads"]:
        for trace in (0, 1):
            problems += check_result(bench, workload["name"], trace)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
