"""Span tracing of onea's public functions, installed from outside the package.

`from .x import f` copies the binding, so a wrapper must replace every name
that refers to the function, not only the one in the defining module.
`Tracer.install` scans every loaded `onea` module for bindings identical to
each target and swaps in one shared wrapper; `uninstall` puts the originals
back. Spans (name, start, end, parent) stay in memory until `write_spans`.
The tracer assumes one thread: onea runs its strategies sequentially when
ONEA_THREADS is unset, which the benchmark worker guarantees.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _count_rows(tracer, args, kwargs, result):
    tracer.extra["sim.objective_grads.rows"] += _arg(args, kwargs, "h").shape[0]


def _count_bytes(tracer, args, kwargs, result):
    tracer.extra["adapter.serialize.bytes"] += len(result)


def _count_unique_training(tracer, args, kwargs, result):
    # A call with no init whose task id an earlier init-free call already
    # trained repeats that work exactly; calls with init depend on the
    # carried state and are always new work.
    if kwargs.get("init") is not None:
        tracer.extra["sim.train_task.unique"] += 1
        return
    task_id = _arg(args, kwargs, "task").meta.task_id
    if task_id not in tracer.trained:
        tracer.trained.add(task_id)
        tracer.extra["sim.train_task.unique"] += 1


# (layer name, defining module, attribute path, hook, reports self time)
TARGETS = (
    ("stream.build_stream", "onea.stream", "build_stream", None, False),
    ("sim.run_sequence", "onea.sim", "run_sequence", None, True),
    ("sim.train_task", "onea.sim", "train_task", _count_unique_training, True),
    ("sim.objective_grads", "onea.sim", "objective_grads", _count_rows, False),
    ("sim.compute_prototypes", "onea.sim", "compute_prototypes", None, True),
    ("sim.classify_batch", "onea.sim", "classify_batch", None, True),
    ("sim.adapted_features", "onea.sim", "adapted_features", None, True),
    ("adapter.adapter_forward", "onea.adapter", "adapter_forward", None, False),
    ("adapter.serialize", "onea.adapter", "serialize", _count_bytes, False),
    ("adapter.deserialize", "onea.adapter", "deserialize", None, False),
    ("adapter.save_module", "onea.adapter", "save_module", None, True),
    ("adapter.load_module", "onea.adapter", "load_module", None, True),
    ("merge.merge_modules", "onea.merge", "merge_modules", None, True),
    ("merge.merge_average", "onea.merge", "merge_average", None, False),
    ("merge.merge_symmetric", "onea.merge", "merge_symmetric", None, True),
    ("merge.thin_svd", "onea.merge", "thin_svd", None, False),
    ("metrics.RunReport.to_json", "onea.metrics", "RunReport.to_json", None, False),
    ("cli.cmd_run", "onea.cli", "cmd_run", None, True),
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name, _, _, _, nests in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        if nests:
            units[f"{name}.self_s"] = "s"
    units["sim.train_task.unique_share"] = "ratio"
    units["sim.objective_grads.rows"] = "rows"
    units["adapter.serialize.bytes"] = "B"
    units["trace_overhead"] = "ratio"
    return units


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records one span per call of each target while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.extra: dict[str, int] = defaultdict(int)
        self.trained: set[int] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "onea" or key.startswith("onea."))]
        for name, module, path, hook, _ in TARGETS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            sites = [(owner, attr)]
            for mod in modules:
                sites += [(mod, key) for key, value in list(vars(mod).items())
                          if value is original and (mod, key) != (owner, attr)]
            for site, key in sites:
                self._undo.append((site, key, original))
                setattr(site, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            site, key, original = self._undo.pop()
            setattr(site, key, original)

    def summary(self) -> dict[str, float]:
        """Per-layer calls, busy time, self time and counters of one operation.

        Self time is a span's duration minus that of its direct children;
        calls run on one thread, so children never overlap each other.
        """
        durations = [end - start for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += durations[i]
        calls, busy, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for i, (name, _, _, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += durations[i]
            own[name] += durations[i] - child_time[i]
        out = {}
        for name, _, _, _, nests in TARGETS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = busy[name]
            if nests:
                out[f"{name}.self_s"] = own[name]
        trained = calls["sim.train_task"]
        out["sim.train_task.unique_share"] = (
            self.extra["sim.train_task.unique"] / trained if trained else 0.0)
        out["sim.objective_grads.rows"] = self.extra["sim.objective_grads.rows"]
        out["adapter.serialize.bytes"] = self.extra["adapter.serialize.bytes"]
        return out


def write_spans(path, tracers) -> None:
    """Write the spans of each traced operation as gzipped JSON, one list
    of [name, start, end, parent] rows per operation."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump([[list(s) for s in t.spans] for t in tracers], fh,
                  separators=(",", ":"))
