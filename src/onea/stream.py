"""Step-imbalanced task streams over synthetic Gaussian class clusters.

Class ratios follow an exponential long-tail curve; tasks receive
contiguous head-to-tail slices of that curve holding equal ratio mass, so
the head task absorbs many classes and tail tasks very few. Datasets are
regenerated from the seed on demand and never serialized.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

from .adapter import TaskMeta, freeze
from .errors import ConfigError, check_float, check_int, clip_repr

FEATURE_DIM = 32       # input dimension of every synthetic sample
MEAN_RADIUS = 4.0      # class means are drawn uniformly on this sphere
NOISE_SCALE = 1.0      # isotropic stddev around each class mean
TRAIN_FRACTION = 0.8
MAX_SEED = 2 ** 64 - 1  # seeds are numpy SeedSequence entropy: unsigned 64-bit
# samples in one stream, classes times samples_per_class: at this bound the
# float64 sample array of FEATURE_DIM columns is 1 GiB
MAX_STREAM_SAMPLES = 2 ** 22

# The one table between the fields of the config objects (StreamSpec here,
# sim.TrainConfig, merge.MergeConfig) and their flat `onea run` keys, by
# (class name, field); every field not listed is keyed by its own name.
CONFIG_KEYS = {("StreamSpec", "total_classes"): "classes",
               ("StreamSpec", "num_tasks"): "tasks",
               ("StreamSpec", "seed"): "stream_seed",
               ("TrainConfig", "seed"): "train_seed"}


def config_keys(cls) -> dict:
    """Field name -> flat config key, for each field of a config class."""
    return {f.name: CONFIG_KEYS.get((cls.__name__, f.name), f.name)
            for f in fields(cls)}


def config_values(obj) -> dict:
    """A config object's values under their flat keys, enums as their values."""
    values = {key: getattr(obj, name) for name, key in config_keys(type(obj)).items()}
    return {key: v.value if isinstance(v, enum.Enum) else v for key, v in values.items()}


class TaskOrder(enum.Enum):
    PERMUTED_HEAD_TAIL = "permuted"
    DESCENDING = "descending"
    ASCENDING = "ascending"
    BALANCED = "balanced"


def _train_count(samples_per_class: int) -> int:
    """Training rows per class; the rest of the class is its test split."""
    return max(1, int(round(TRAIN_FRACTION * samples_per_class)))


@dataclass(frozen=True)
class StreamSpec:
    total_classes: int
    num_tasks: int
    gamma: float = 0.01
    order: TaskOrder = TaskOrder.PERMUTED_HEAD_TAIL
    samples_per_class: int = 50
    seed: int = 0

    def __post_init__(self):
        c = check_int("total_classes", self.total_classes, 2)
        object.__setattr__(self, "total_classes", c)
        object.__setattr__(self, "num_tasks", check_int("num_tasks", self.num_tasks, 1, c))
        n = check_int("samples_per_class", self.samples_per_class)
        object.__setattr__(self, "samples_per_class", n)
        if c * n > MAX_STREAM_SAMPLES:
            raise ConfigError(f"total_classes * samples_per_class must be <= "
                              f"{MAX_STREAM_SAMPLES}, got {clip_repr(c)} * {clip_repr(n)}")
        object.__setattr__(self, "seed", check_int("stream seed", self.seed, 0, MAX_SEED))
        object.__setattr__(self, "gamma", check_float("gamma", self.gamma))
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not isinstance(self.order, TaskOrder):
            raise ConfigError(f"order must be a TaskOrder, got {clip_repr(self.order)}")
        if self.samples_per_class - _train_count(self.samples_per_class) < 1:
            raise ConfigError(
                f"samples_per_class must be >= 3 so the {TRAIN_FRACTION:.0%} "
                f"train split leaves test samples, got {self.samples_per_class}")

    def to_dict(self) -> dict:
        """The manifest's spec: the stream's config values, where its one
        seed needs no `stream_` prefix."""
        return {k.removeprefix("stream_"): v for k, v in config_values(self).items()}


@dataclass(frozen=True)
class SyntheticDataset:
    """Per-task train/test split; labels are global class ids."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    def __post_init__(self):
        for name in ("train_x", "test_x"):
            object.__setattr__(self, name, freeze(getattr(self, name)))
        for name in ("train_y", "test_y"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class Task:
    meta: TaskMeta
    data: SyntheticDataset


@dataclass(frozen=True)
class TaskStream:
    spec: StreamSpec
    tasks: tuple[Task, ...]

    def manifest(self) -> dict:
        return {
            "schema_version": 1,
            "spec": self.spec.to_dict(),
            "tasks": [{
                "task_id": t.meta.task_id,
                "class_ids": sorted(t.meta.class_ids),
                "class_count": t.meta.class_count,
                "sample_count": t.meta.sample_count,
            } for t in self.tasks],
        }


def class_ratios(total_classes: int, gamma: float) -> np.ndarray:
    """Exponential long-tail curve r_k = gamma ** (k / (C - 1))."""
    total_classes = check_int("total_classes", total_classes, 2, MAX_STREAM_SAMPLES)
    gamma = check_float("gamma", gamma)
    if not 0.0 < gamma <= 1.0:
        raise ConfigError(f"gamma must lie in (0, 1], got {gamma}")
    k = np.arange(total_classes, dtype=np.float64)
    return gamma ** (k / (total_classes - 1))


def _largest_remainder(shares: np.ndarray, total: int) -> np.ndarray:
    counts = np.floor(shares).astype(int)
    deficit = total - int(counts.sum())
    if deficit < 0:
        raise AssertionError("fractional shares exceed the total")
    order = np.argsort(-(shares - counts), kind="stable")
    counts[order[:deficit]] += 1
    return counts


def allocate_tasks(spec: StreamSpec) -> list[int]:
    """Class counts per task before any task-order permutation.

    The normalized ratio curve is cut into num_tasks contiguous buckets of
    equal cumulative mass (each class k occupies [k, k+1) with uniform
    density); bucket widths become the counts, assigned head-to-tail in
    non-increasing order via largest-remainder rounding with every task
    guaranteed at least one class.
    """
    c, t = spec.total_classes, spec.num_tasks
    if spec.order is TaskOrder.BALANCED:
        if c % t:
            raise ConfigError(
                f"balanced order needs num_tasks to divide total_classes ({c} % {t} != 0)")
        return [c // t] * t
    ratios = class_ratios(c, spec.gamma)
    cum = np.concatenate([[0.0], np.cumsum(ratios / ratios.sum())])
    cum[-1] = 1.0
    cuts = np.interp(np.arange(1, t) / t, cum, np.arange(c + 1, dtype=np.float64))
    widths = np.diff(np.concatenate([[0.0], cuts, [float(c)]]))
    counts = _largest_remainder(widths[::-1], c)
    # every task must hold a class; donate from the currently largest task
    while counts.min() == 0:
        counts[int(np.argmin(counts))] = 1
        largest = len(counts) - 1 - int(np.argmax(counts[::-1]))
        counts[largest] -= 1
    # remainder ties (flat stretches of the ratio curve) can land out of
    # order under float jitter; restore the documented head-to-tail shape
    counts[::-1].sort()
    return [int(n) for n in counts]


def build_stream(spec: StreamSpec) -> TaskStream:
    """Materialize the stream deterministically from the spec seed.

    Draw order is fixed (class order, task permutation, class means,
    per-class samples in class-id order) so the same seed yields identical
    data regardless of how tasks end up grouped.
    """
    c, t = spec.total_classes, spec.num_tasks
    counts = allocate_tasks(spec)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    class_order = rng.permutation(c)
    task_perm = rng.permutation(t)

    means = rng.normal(size=(c, FEATURE_DIM))
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    means = MEAN_RADIUS * means / norms
    samples = rng.normal(size=(c, spec.samples_per_class, FEATURE_DIM))
    samples *= NOISE_SCALE
    samples += means[:, None, :]

    blocks = []
    start = 0
    for n in counts:
        blocks.append(np.sort(class_order[start:start + n]))
        start += n
    if spec.order is TaskOrder.PERMUTED_HEAD_TAIL:
        blocks = [blocks[i] for i in task_perm]
    elif spec.order is TaskOrder.ASCENDING:  # tail first, head last
        blocks.reverse()

    n_train = _train_count(spec.samples_per_class)
    tasks = []
    for position, classes in enumerate(blocks, start=1):
        data = SyntheticDataset(
            train_x=samples[classes, :n_train].reshape(-1, FEATURE_DIM),
            train_y=np.repeat(classes, n_train),
            test_x=samples[classes, n_train:].reshape(-1, FEATURE_DIM),
            test_y=np.repeat(classes, spec.samples_per_class - n_train))
        meta = TaskMeta(task_id=position,
                        class_ids=frozenset(classes),
                        sample_count=len(classes) * n_train)
        tasks.append(Task(meta=meta, data=data))
    return TaskStream(spec=spec, tasks=tuple(tasks))
