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


@dataclass(frozen=True)
class RunReport:
    """One strategy's accuracy table over a run; checked on construction,
    so the metrics below trust it. T, the number of steps, is the length
    of step_acc and at least 1."""

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

    def __post_init__(self):
        if check_int("report field 'schema_version'", self.schema_version) \
                != SCHEMA_VERSION:
            raise ConfigError(f"report field 'schema_version' must be {SCHEMA_VERSION}, "
                              f"got {self.schema_version}")
        for name in ("stream_seed", "train_seed", "svd_calls"):
            check_int(f"report field '{name}'", getattr(self, name), 0)
        steps = self.step_acc
        if not isinstance(steps, list) or not all(map(_is_number, steps)):
            raise ConfigError("report field 'step_acc' must be a list of numbers")
        t = len(steps)
        if not t:
            raise ConfigError("report holds no steps")
        rows = self.acc_matrix
        if not (isinstance(rows, list) and len(rows) == t and all(
                isinstance(row, list) and len(row) == t
                and all(v is None or _is_number(v) for v in row) for row in rows)):
            raise ConfigError(f"report field 'acc_matrix' must be a {t}x{t} "
                              "list of numbers and nulls")
        for j, row in enumerate(rows):
            if None in row[j:]:
                raise ConfigError(f"report field 'acc_matrix' row {j} is incomplete")
        counts = self.class_counts
        if not isinstance(counts, list):
            raise ConfigError("report field 'class_counts' must be a list of integers")
        if len(counts) != t:
            raise ConfigError(f"report field 'class_counts' must hold {t} entries, "
                              f"got {len(counts)}")
        for n in counts:
            check_int("report field 'class_counts' entry", n, 1)
        for name in ("config", "timings"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"report field '{name}' must be a JSON object")
        merge_ms = self.timings.get("merge_ms", [])
        if not isinstance(merge_ms, list) or not all(map(_is_number, merge_ms)):
            raise ConfigError("report field 'timings.merge_ms' must be a list of numbers")

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


def last_accuracy(report: RunReport) -> float:
    return float(report.step_acc[-1])


def average_accuracy(report: RunReport) -> float:
    """Unweighted mean of the per-step accuracies."""
    return float(np.mean(report.step_acc))


def forgetting(report: RunReport) -> float | None:
    """Mean drop from each task's best accuracy to its final accuracy.

    For task j < T-1 the drop is max over steps k in {j..T-2} of acc[j][k]
    minus acc[j][T-1], floored at zero so later improvements never count
    as negative forgetting. Returns None for single-task runs, where the
    quantity is not applicable.
    """
    if len(report.step_acc) < 2:
        return None
    return float(np.mean([max(0.0, max(row[j:-1]) - row[-1])
                          for j, row in enumerate(report.acc_matrix[:-1])]))


def weighted_average_accuracy(report: RunReport) -> float:
    """Step accuracies weighted by the cumulative class count at each step.

    Convention: step t carries weight |classes seen through t| normalized
    over steps. The accumulated-class weighting is this artifact's choice;
    it is echoed in every report via class_counts.
    """
    weights = np.cumsum(np.asarray(report.class_counts, dtype=np.float64))
    return float(np.dot(weights, report.step_acc) / weights.sum())
