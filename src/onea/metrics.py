"""Accuracy-table metrics over a completed run.

The accuracy matrix is lower triangular in (task, step): entry [j][k] is
the accuracy on task j's test data after finishing step k, defined for
k >= j. step_acc[k] is the accuracy over all test data seen through k.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, check_int

SCHEMA_VERSION = 1


@dataclass
class RunReport:
    strategy: str
    stream_seed: int
    train_seed: int
    class_counts: list[int]
    acc_matrix: list[list[float | None]]
    step_acc: list[float]
    config: dict
    svd_calls: int
    timings: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"report is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("report must be a JSON object")
        missing = {f.name for f in cls.__dataclass_fields__.values()} - set(raw)
        if missing:
            raise ConfigError(f"report is missing fields: {sorted(missing)}")
        extra = set(raw) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"report has unknown fields: {sorted(extra)}")
        _check_read_fields(raw)
        return cls(**raw)

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization: everything except wall-clock timings.

        Two runs with identical seeds, config, and strategy produce
        identical canonical bytes; timings are the only volatile fields.
        """
        payload = asdict(self)
        payload.pop("timings")
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_read_fields(raw: dict) -> None:
    """Types and the T x T shape of the report fields that eval and
    compare read; T is the length of step_acc."""
    if check_int("report field 'schema_version'", raw["schema_version"]) \
            != SCHEMA_VERSION:
        raise ConfigError(f"report field 'schema_version' must be {SCHEMA_VERSION}, "
                          f"got {raw['schema_version']}")
    for name in ("stream_seed", "train_seed", "svd_calls"):
        check_int(f"report field '{name}'", raw[name], 0)
    steps = raw["step_acc"]
    if not isinstance(steps, list) or not all(map(_is_number, steps)):
        raise ConfigError("report field 'step_acc' must be a list of numbers")
    t = len(steps)
    rows = raw["acc_matrix"]
    if not (isinstance(rows, list) and len(rows) == t and all(
            isinstance(row, list) and len(row) == t
            and all(v is None or _is_number(v) for v in row) for row in rows)):
        raise ConfigError(f"report field 'acc_matrix' must be a {t}x{t} "
                          "list of numbers and nulls")
    counts = raw["class_counts"]
    if not isinstance(counts, list):
        raise ConfigError("report field 'class_counts' must be a list of integers")
    for n in counts:
        check_int("report field 'class_counts' entry", n)
    for name in ("config", "timings"):
        if not isinstance(raw[name], dict):
            raise ConfigError(f"report field '{name}' must be a JSON object")
    merge_ms = raw["timings"].get("merge_ms", [])
    if not isinstance(merge_ms, list) or not all(map(_is_number, merge_ms)):
        raise ConfigError("report field 'timings.merge_ms' must be a list of numbers")


def last_accuracy(report: RunReport) -> float:
    if not report.step_acc:
        raise ConfigError("report holds no steps")
    return float(report.step_acc[-1])


def average_accuracy(report: RunReport) -> float:
    """Unweighted mean of the per-step accuracies."""
    if not report.step_acc:
        raise ConfigError("report holds no steps")
    return float(np.mean(report.step_acc))


def forgetting(report: RunReport) -> float | None:
    """Mean drop from each task's best accuracy to its final accuracy.

    For task j < T-1 the drop is max over steps k in {j..T-2} of acc[j][k]
    minus acc[j][T-1], floored at zero so later improvements never count
    as negative forgetting. Returns None for single-task runs, where the
    quantity is not applicable.
    """
    t = len(report.step_acc)
    if t < 2:
        return None
    drops = []
    for j in range(t - 1):
        row = report.acc_matrix[j]
        past = [row[k] for k in range(j, t - 1)]
        if any(v is None for v in past) or row[t - 1] is None:
            raise ConfigError(f"accuracy matrix row {j} is incomplete")
        drops.append(max(0.0, max(past) - row[t - 1]))
    return float(np.mean(drops))


def weighted_average_accuracy(report: RunReport) -> float:
    """Step accuracies weighted by the cumulative class count at each step.

    Convention: step t carries weight |classes seen through t| normalized
    over steps. The accumulated-class weighting is this artifact's choice;
    it is echoed in every report via class_counts.
    """
    counts = report.class_counts
    if len(counts) != len(report.step_acc):
        raise ConfigError(
            f"{len(counts)} class counts for {len(report.step_acc)} steps")
    if not counts:
        raise ConfigError("report holds no steps")
    if any(n < 1 for n in counts):
        raise ConfigError("class counts must be positive")
    weights = np.cumsum(np.asarray(counts, dtype=np.float64))
    return float(np.dot(weights, report.step_acc) / weights.sum())
