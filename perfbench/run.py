"""Benchmark of onea: whole `onea run` invocations and adapter-bank folding.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload run-headheavy --seed 1 --seconds 20 --trace 0

Workloads, their configs and the reason each was chosen are in
perfbench/workloads.json. The run starts five worker processes one after
another (perfbench/worker.py). Each sets the workload up, so set-up time
is a median of five samples; the middle one then runs operations for about
--seconds, starting none that would overrun it by more than a typical
operation. Its first operation is a warm-up that is checked but not timed.
Every operation's outputs are checked, and outputs must be byte-identical
across all operations of the run.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1 traced and untraced operations
alternate and it holds the per-layer metrics from the traced ones. The
lines before it record the machine, the sample counts and sha256 digests
of the outputs. A full record, and the spans of traced runs, go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# set-up-only workers run before and after the measuring one, so the set-up
# median samples the machine across the whole run
SETUP_ONLY_BEFORE = SETUP_ONLY_AFTER = 2
TIME_LIMIT_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# per-layer values that count work and so must repeat exactly
EXACT_SUFFIXES = (".calls", ".rows", ".bytes", ".unique_share")

sys.path.insert(0, str(HERE))
from tracing import layer_metric_units  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "step_ms.p50": "ms",
                    "step_ms.p90": "ms", "peak_rss_mb": "MB",
                    "acc_last.one-a": "ratio", "ok_rate": "ratio"}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def spawn_worker(args, budget: float, deadline: float) -> dict:
    # one BLAS thread, set before the worker imports numpy; ONEA_THREADS
    # unset, so onea runs strategies one after another on one thread
    env = {k: v for k, v in os.environ.items() if k != "ONEA_THREADS"}
    env.update({var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--budget", str(budget),
           "--trace", str(args.trace), "--spawned", repr(spawned), "--out", str(OUT)]
    if args.toy:
        cmd.append("--toy")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def mark_mismatches(ops: list[dict], key, what: str) -> None:
    """Fail every operation whose key(op) differs from the first one's."""
    if not ops:
        return
    want = key(ops[0])
    for op in ops[1:]:
        if key(op) != want:
            op["errors"].append(f"{what} differs from the first operation")


def run_times(ops: list[dict]) -> list[float]:
    """Wall times of the timed operations that finished; failing when none did."""
    times = [op["run_s"] for op in ops if op["run_s"] is not None and not op["warmup"]]
    if not times:
        raise RuntimeError("no operation finished")
    return times


def end_to_end(setups: list[float], measured: dict, failed: int) -> dict:
    ops = measured["ops"]
    steps = [ms for op in ops if not op["warmup"] for ms in op["steps_ms"]]
    accs = [op["acc"] for op in ops if op["acc"] is not None]
    if not steps or not accs:
        raise RuntimeError("no operation produced fold steps and an accuracy")
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(run_times(ops)),
        "step_ms.p50": percentile(steps, 0.5),
        "step_ms.p90": percentile(steps, 0.9),
        "peak_rss_mb": measured["peak_rss_mb"],
        "acc_last.one-a": accs[0],
        "ok_rate": (len(ops) - failed) / len(ops),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(ops: list[dict]) -> dict:
    traced = [op for op in ops if op["traced"]]
    overhead = (statistics.median(run_times(traced))
                / statistics.median(run_times([op for op in ops if not op["traced"]])) - 1.0)
    out = {}
    for name, unit in layer_metric_units().items():
        value = overhead if name == "trace_overhead" else \
            statistics.median(op["layers"][name] for op in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    workloads = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrink the workload to its toy config (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "onea" / "__init__.py").is_file():
        print(f"error: no onea sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    try:
        before = [spawn_worker(args, 0.0, deadline) for _ in range(SETUP_ONLY_BEFORE)]
        measured = spawn_worker(args, args.seconds, deadline)
        after = [spawn_worker(args, 0.0, deadline) for _ in range(SETUP_ONLY_AFTER)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    workers = before + [measured] + after
    setups = [w["setup_s"] for w in workers]
    ops = measured["ops"]
    mark_mismatches(ops, lambda op: op["files"], "output digest")
    mark_mismatches([op for op in ops if op["traced"]],
                    lambda op: {k: v for k, v in op["layers"].items()
                                if k.endswith(EXACT_SUFFIXES)}, "per-layer count")
    failed = sum(1 for op in ops if op["errors"])
    try:
        metrics = per_layer(ops) if args.trace else end_to_end(setups, measured, failed)
    except RuntimeError as exc:
        print(f"error: {exc}; errors: {[e for op in ops for e in op['errors']]}",
              file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "toy": args.toy,
              "env": {**measured["env"], "commit": git_commit()},
              "digests": ops[0]["files"],
              "samples": {"setups": len(setups), "operations": len(ops),
                          "traced": sum(op["traced"] for op in ops),
                          "steps": sum(len(op["steps_ms"]) for op in ops)},
              "errors": [e for op in ops for e in op["errors"]],
              "workers": workers, "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for key in ("env", "samples", "digests", "errors"):
        print(f"{key}: {json.dumps(record[key], sort_keys=True)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
