"""One benchmark worker process: set up a workload, then run and check
operations until its time budget is spent (none when it is 0).

Run by perfbench/run.py, which pins the BLAS thread pools to one thread
and unsets ONEA_THREADS in this process's environment, and passes the
monotonic clock reading taken just before it started the process, so
set-up time covers interpreter start, imports and workload preparation.
Prints one JSON object as the last line of its standard output.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import onea
import onea.cli
from tracing import Tracer, write_spans

HERE = Path(__file__).resolve().parent
FOLD_STRATEGIES = ("one-a", "average", "symmetric")
SVD_STRATEGIES = ("one-a", "symmetric")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_argv(config: dict, seed: int, out_dir: Path) -> list[str]:
    argv = ["run", "--out-dir", str(out_dir)]
    for key, value in config.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    return argv + ["--set", f"stream_seed={seed}", "--set", f"train_seed={seed}"]


def call_cli(argv: list[str]) -> int:
    # onea prints one progress line per strategy; keep stdout for the result
    with contextlib.redirect_stdout(io.StringIO()):
        return onea.cli.main(argv)


class RunWorkload:
    """One operation is a whole `onea run` over the workload config."""

    def __init__(self, config: dict, seed: int, work: Path):
        self.config, self.seed = config, seed

    def operation(self, out_dir: Path) -> dict:
        # a fresh directory, so no output of an earlier operation is checked
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = run_argv(self.config, self.seed, out_dir)
        start = time.perf_counter()
        rc = call_cli(argv)
        run_s = time.perf_counter() - start
        result = {"run_s": run_s, "errors": [], "files": {}, "acc": None,
                  "steps_ms": []}
        if rc != 0:
            result["errors"].append(f"onea run exited with status {rc}")
            return result
        self._check(out_dir, result)
        return result

    def _check(self, out_dir: Path, result: dict) -> None:
        tasks = self.config["tasks"]
        strategies = self.config["strategies"]
        errors, files = result["errors"], result["files"]
        merge_ms = []
        for strategy in strategies:
            name = f"report-{strategy}.json"
            report = onea.RunReport.from_json((out_dir / name).read_text(encoding="utf-8"))
            files[name] = sha256(report.canonical_bytes())
            want_svd = 2 * (tasks - 1) if strategy in SVD_STRATEGIES else 0
            if report.svd_calls != want_svd:
                errors.append(f"{strategy}: svd_calls {report.svd_calls}, expected {want_svd}")
            if len(report.step_acc) != tasks or not all(0.0 <= a <= 1.0 for a in report.step_acc):
                errors.append(f"{strategy}: step_acc is not {tasks} accuracies")
            if strategy == "one-a":
                result["acc"] = report.step_acc[-1]
            if strategy in FOLD_STRATEGIES:
                merge_ms.append(report.timings["merge_ms"][1:])
        result["steps_ms"] = [sum(step) for step in zip(*merge_ms)]
        want_adapters = len(strategies) + (tasks - 1 if "per-task" in strategies else 0)
        adapters = sorted(out_dir.glob("*.onea"))
        if len(adapters) != want_adapters:
            errors.append(f"{len(adapters)} adapter files, expected {want_adapters}")
        for path in adapters:
            files[path.name] = sha256(path.read_bytes())


class FoldWorkload:
    """One operation folds a trained per-task adapter bank with each merge
    strategy and classifies all test data under the folded one-a adapter."""

    def __init__(self, config: dict, seed: int, work: Path):
        bank_dir = work / "bank"
        rc = call_cli(run_argv(config, seed, bank_dir))
        if rc != 0:
            raise RuntimeError(f"training the adapter bank exited with status {rc}")
        spec = onea.StreamSpec(total_classes=config["classes"], num_tasks=config["tasks"],
                               gamma=config["gamma"], order=onea.TaskOrder(config["order"]),
                               samples_per_class=config["samples_per_class"], seed=seed)
        stream = onea.build_stream(spec)
        self.bank = [bank_dir / f"adapter-per-task-t{t.meta.task_id}.onea"
                     for t in stream.tasks]
        missing = [p.name for p in self.bank if not p.is_file()]
        if missing:
            raise RuntimeError(f"adapter bank is missing {missing}")
        # the same backbone run_sequence derives from the train seed
        self.backbone = onea.Backbone.from_seed(
            stream.tasks[0].data.train_x.shape[1], onea.sim.BACKBONE_DIM,
            np.random.SeedSequence(entropy=seed, spawn_key=(0, 0)))
        parts = [t.data for t in stream.tasks]
        self.data = onea.SyntheticDataset(
            train_x=np.concatenate([d.train_x for d in parts]),
            train_y=np.concatenate([d.train_y for d in parts]),
            test_x=np.concatenate([d.test_x for d in parts]),
            test_y=np.concatenate([d.test_y for d in parts]))
        self.want_meta = (len(stream.tasks), frozenset(range(config["classes"])),
                          sum(t.meta.sample_count for t in stream.tasks))
        self.merge_cfg = onea.MergeConfig()

    def _fold_step(self, strategy, new, carried, idx):
        if strategy == "one-a":
            return onea.merge_modules(new, carried, self.merge_cfg)
        if strategy == "average":
            return onea.merge_average(new, carried, idx)
        w_b, w_a = onea.info_weights(carried.meta, new.meta, carried.layers[0],
                                     new.layers[0], self.merge_cfg)
        return onea.merge_symmetric(new, carried, w_b, w_a, self.merge_cfg)

    def operation(self, out_dir: Path) -> dict:
        # Each step encodes the carried adapter as `onea merge --out` would,
        # but only the folded result goes to disk: writing 147 files per
        # operation doubled its time and made it swing two-fold from second
        # to second with the shared disk's write-back, swamping a 1-3 ms merge.
        out_dir.mkdir(exist_ok=True)
        steps_ms, folded = [0.0] * (len(self.bank) - 1), {}
        encoded = {strategy: [] for strategy in FOLD_STRATEGIES}
        start = time.perf_counter()
        for strategy in FOLD_STRATEGIES:
            carried = onea.load_module(self.bank[0])
            for idx, bank_path in enumerate(self.bank[1:], start=1):
                tick = time.perf_counter()
                new = onea.load_module(bank_path)
                carried = self._fold_step(strategy, new, carried, idx)
                encoded[strategy].append(onea.serialize(carried))
                steps_ms[idx - 1] += (time.perf_counter() - tick) * 1000.0
            onea.save_module(carried, out_dir / f"{strategy}-t{len(self.bank)}.onea")
            folded[strategy] = carried
        protos = onea.compute_prototypes(folded["one-a"], self.backbone, self.data)
        preds = onea.classify_batch(self.data.test_x, folded["one-a"], self.backbone, protos)
        run_s = time.perf_counter() - start

        acc = float(np.mean(preds == self.data.test_y))
        result = {"run_s": run_s, "errors": [], "acc": acc, "steps_ms": steps_ms,
                  "files": {"predictions": sha256(preds.astype("<i8").tobytes())}}
        for strategy, module in folded.items():
            meta = module.meta
            if (meta.task_id, meta.class_ids, meta.sample_count) != self.want_meta:
                result["errors"].append(f"{strategy}: folded metadata does not cover the stream")
            name = f"{strategy}-t{len(self.bank)}.onea"
            saved = (out_dir / name).read_bytes()
            if saved != encoded[strategy][-1]:
                result["errors"].append(f"{strategy}: saved adapter differs from its encoding")
            result["files"][name] = sha256(saved)
            result["files"][f"{strategy}-steps"] = sha256(b"".join(encoded[strategy]))
        return result


KINDS = {"run": RunWorkload, "fold": FoldWorkload}


def environment() -> dict:
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    entry = spec["workloads"][args.workload]
    config = {**entry["config"], **(entry["toy"] if args.toy else {})}
    out = Path(args.out)
    work = out / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = KINDS[entry["kind"]](config, args.seed, work)
        setup_s = time.monotonic() - args.spawned
        ops, tracers = [], []
        began = time.perf_counter()
        while args.budget > 0:
            i = len(ops)
            # operation 0 is a warm-up: checked, but not timed; after it
            # traced and untraced operations alternate, so both see the
            # same drift in machine speed
            traced = bool(args.trace) and i % 2 == 0 and i > 0
            tracer = Tracer() if traced else None
            gc.collect()
            try:
                if tracer:
                    tracer.install()
                try:
                    op = workload.operation(work / "op")
                finally:
                    if tracer:
                        tracer.uninstall()
            except Exception:  # an operation that raises is a failed operation
                op = {"run_s": None, "errors": [traceback.format_exc(limit=3)],
                      "files": {}, "acc": None, "steps_ms": []}
            op["traced"], op["warmup"] = traced, i == 0
            if tracer:
                op["layers"] = tracer.summary()
                tracers.append(tracer)
            ops.append(op)
            # stop before an operation that would overrun the budget, so a
            # run lasts about the budget however long one operation takes
            timed = [o["run_s"] for o in ops[1:] if o["run_s"] is not None]
            enough = len(ops) >= (3 if args.trace else 2)
            left = args.budget - (time.perf_counter() - began)
            if enough and (left <= 0 or (timed and left < sorted(timed)[len(timed) // 2])):
                break
        if tracers:
            write_spans(out / f"spans-{args.workload}-seed{args.seed}.json.gz", tracers)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "ops": ops,
                      "env": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
