"""Desk-scale continual-learning harness around a frozen random backbone.

Each task trains a fresh residual bottleneck adapter plus a throwaway
linear head with plain mini-batch gradient descent (gradients are written
out by hand; they are validated against finite differences in the test
suite). Classification is nearest-prototype by cosine similarity, so only
the adapter and the prototype bank survive a task.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .adapter import AdapterModule, adapter_forward, as_matrix, freeze
from .counters import SVD_CALLS
from .errors import (ConfigError, NumericError, ShapeError, TrainingError,
                     check_float, check_int)
from .merge import (MergeConfig, MergeTrace, _merge_traced, info_weights,
                    merge_average, merge_symmetric)
from .metrics import RunReport, Strategy
from .stream import (MAX_SEED, MAX_STREAM_SAMPLES, StreamSpec, Task, TaskStream,
                     config_values)

BACKBONE_DIM = 32
_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class Backbone:
    """A fixed random linear projection with ReLU; never trained."""

    projection: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "projection",
                           freeze(as_matrix(self.projection, "projection")))

    @classmethod
    def from_seed(cls, d_in: int, d_out: int, seed) -> "Backbone":
        rng = np.random.default_rng(seed)
        return cls(projection=rng.normal(scale=1.0 / math.sqrt(d_in),
                                         size=(d_in, d_out)))

    def features(self, x: np.ndarray) -> np.ndarray:
        x = as_matrix(x, "x")
        if x.shape[1] != self.projection.shape[0]:
            raise ShapeError(f"input width {x.shape[1]} does not match backbone "
                             f"{self.projection.shape[0]}")
        return np.maximum(x @ self.projection, 0.0)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the per-task trainer.

    Five constants shape its two schedules: the epoch budget grows as the
    task-size ratio to the power beta, the contrastive weight decays from
    lambda_max at one class toward lambda_min at rate k_decay, and
    tau_margin is the similarity below which a negative pair costs nothing.
    """

    beta: ClassVar[float] = 0.5
    lambda_min: ClassVar[float] = 0.01
    lambda_max: ClassVar[float] = 0.1
    k_decay: ClassVar[float] = 2.3979  # ln(11) to 5 digits
    tau_margin: ClassVar[float] = 0.07
    lr: float = 0.1
    epochs_base: int = 15      # epochs at the reference task size
    epochs_min: int = 2
    epochs_max: int = 60
    batch_size: int = 32
    bottleneck: int = 8
    seed: int = 0

    def __post_init__(self):
        # the epoch budget scales epochs_base as a float, exact up to 2**53
        for name, low, high in (("epochs_base", 1, 2**53), ("epochs_min", 0, None),
                                ("epochs_max", self.epochs_min, None),
                                ("batch_size", 1, None), ("bottleneck", 1, BACKBONE_DIM)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), low, high))
        object.__setattr__(self, "seed", check_int("train seed", self.seed, 0, MAX_SEED))
        object.__setattr__(self, "lr", check_float("lr", self.lr))
        if self.lr <= 0.0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")


def lambda_schedule(class_count: int, cfg: TrainConfig) -> float:
    """Contrastive weight, the constant lambda_max for single-class tasks,
    decaying exponentially at rate k_decay toward lambda_min as tasks widen.

    Arranged as lambda_max + (lambda_min - lambda_max) * (1 - exp(...)) so
    class_count == 1 returns lambda_max exactly.
    """
    class_count = check_int("class_count", class_count, 1, MAX_STREAM_SAMPLES)
    decay = 1.0 - math.exp(-cfg.k_decay * (class_count - 1))
    return cfg.lambda_max + (cfg.lambda_min - cfg.lambda_max) * decay


def epoch_schedule(class_count: int, total_classes: int, num_tasks: int,
                   cfg: TrainConfig) -> int:
    """Epoch budget scaled by task size relative to the balanced size C/T."""
    total_classes = check_int("total_classes", total_classes, 1, MAX_STREAM_SAMPLES)
    t0 = total_classes / check_int("num_tasks", num_tasks, 1, total_classes)
    ratio = check_int("class_count", class_count, 1, total_classes) / t0
    raw = cfg.epochs_base * ratio ** cfg.beta  # ratio <= 2**22, so raw <= 2**64
    return min(max(int(round(raw)), cfg.epochs_min), cfg.epochs_max)


def _normalize_rows(z: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    norms = np.sqrt(np.add.reduce(z * z, -1))
    if (norms == 0.0).any():
        raise NumericError(f"{what} contains a zero-norm row")
    return z / norms[..., None], norms


def _pair_coefficients(sims: np.ndarray, same: np.ndarray, tau: float):
    """Loss value and the symmetric d(loss)/d(similarity) matrix.

    sims may carry a leading member axis; same is the (n, n) label-equality
    matrix. The tables below depend on the labels only, so they are built
    once for every member: a positive pair pulls toward similarity 1 with
    -1/n_pos at any similarity, a negative pair pushes toward tau with
    1/n_neg above tau and costs nothing at or below it. Each unordered pair
    shows up twice in the full matrices, so the pair counts are halved and
    the loss sum with them.
    """
    n = same.shape[0]
    n_same = int(np.count_nonzero(same))
    n_pos, n_neg = (n_same - n) // 2, (n * n - n_same) // 2
    below = np.where(same, -1.0 / n_pos if n_pos else 0.0, 0.0)
    np.fill_diagonal(below, 0.0)
    above = np.where(same, below, 1.0 / n_neg if n_neg else 0.0)
    coeff = np.where(sims > tau, above, below)
    target = np.where(same, 1.0, tau)
    loss = 0.5 * (coeff * (sims - target)).sum(axis=(-2, -1))
    return loss, coeff


def _contrastive_grad(z: np.ndarray, labels: np.ndarray, tau: float):
    """Contrastive loss and its gradient with respect to unnormalized z."""
    f, norms = _normalize_rows(z, "features")
    same = labels[:, None] == labels[None, :]
    loss, coeff = _pair_coefficients(f @ f.mT, same, tau)
    df = coeff @ f
    dz = (df - f * (f * df).sum(axis=-1, keepdims=True)) / norms[..., None]
    return loss, dz


def _cross_entropy_grad(z: np.ndarray, y: np.ndarray, head_w: np.ndarray,
                        head_b: np.ndarray):
    """Mean softmax cross-entropy and gradients w.r.t. z and the head."""
    n = z.shape[-2]
    logits = z @ head_w + head_b[..., None, :]
    shift = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shift).sum(axis=-1, keepdims=True))
    loss = -(shift[..., np.arange(n), y] - log_norm[..., 0]).mean(axis=-1)
    dlogits = np.exp(shift - log_norm)
    dlogits -= y[:, None] == np.arange(head_w.shape[-1])  # one-hot targets
    dlogits /= n
    return loss, dlogits @ head_w.mT, z.mT @ dlogits, dlogits.sum(axis=-2)


def _objective(h: np.ndarray, y: np.ndarray, params: dict, lam: float,
               tau: float) -> tuple[float, dict, dict]:
    """The training objective on a batch of backbone features: the loss,
    its named terms and analytic gradients for every parameter in params.

    The loss is (1 - lam) * cross-entropy + lam * contrastive. A
    single-class head runs at lam = 1: its one-column cross-entropy is
    exactly 0 with zero gradients, so the contrastive term trains alone at
    full weight. Reverse-mode accumulation runs through the residual
    adapter and the local linear head; the ReLU and hinge use the 0
    subgradient at their kinks. Parameters may carry a leading member axis
    (w_down of shape (m, d, b), and so on) over the one batch h; the loss
    and its terms then hold one value per member.
    """
    w_down, w_up = params["w_down"], params["w_up"]
    head_w, head_b = params["head_w"], params["head_b"]
    a = h @ w_down
    relu_a = np.maximum(a, 0.0)
    z = h + relu_a @ w_up
    ctr, dz = _contrastive_grad(z, y, tau)
    if head_w.shape[-1] < 2:
        lam = 1.0
    ce, dz_ce, dhw, dhb = _cross_entropy_grad(z, y, head_w, head_b)
    loss = (1.0 - lam) * ce + lam * ctr
    dz = (1.0 - lam) * dz_ce + lam * dz
    grads = {"head_w": (1.0 - lam) * dhw, "head_b": (1.0 - lam) * dhb}
    grads["w_up"] = relu_a.mT @ dz
    grads["w_down"] = h.T @ ((dz @ w_up.mT) * (a > 0.0))
    return loss, {"ce": ce, "ctr": ctr}, grads


def objective(h: np.ndarray, y: np.ndarray, params: dict, lam: float,
              tau: float) -> tuple[float, dict]:
    """The training objective's loss and its named terms ("ce", "ctr")."""
    loss, terms, _ = _objective(h, y, params, lam, tau)
    return loss, terms


def objective_grads(h: np.ndarray, y: np.ndarray, params: dict, lam: float,
                    tau: float) -> tuple[float, dict]:
    """The training objective's loss and its gradient for every parameter."""
    loss, _, grads = _objective(h, y, params, lam, tau)
    return loss, grads


def _initial_params(init: AdapterModule | None, seed: int, d: int, b: int,
                    k: int) -> dict:
    """One member's starting adapter and local head.

    Every member draws from the same initialization stream (key (0, 1)),
    so fresh adapters of different tasks stay comparable for merging.
    """
    init_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(0, 1)))
    if init is not None:
        if tuple(layer.shape for layer in init.layers) != ((d, b), (b, d)):
            raise ShapeError("init adapter does not match backbone/bottleneck dims")
        w_down = np.array(init.layers[0])
        w_up = np.array(init.layers[1])
    else:
        # classic residual-adapter start: random down, zero up, so the
        # adapted features begin exactly at the backbone features
        w_down = init_rng.normal(scale=1.0 / math.sqrt(d), size=(d, b))
        w_up = np.zeros((b, d))
    head_w = init_rng.normal(scale=1.0 / math.sqrt(d), size=(d, k))
    return {"w_down": w_down, "w_up": w_up, "head_w": head_w, "head_b": np.zeros(k)}


def train_task(task: Task, backbone: Backbone, cfg: TrainConfig,
               inits=(None,), *, epochs: int) -> list[AdapterModule]:
    """Train adapters (each with a discarded local head) on a single task.

    Every member sees the task's one batch sequence (stream key
    (1, task id)), and each SGD step runs once for all members along a
    leading member axis; each member ends bit-identical to a call that
    trains it alone.

    Args:
        task: metadata plus the train split to fit.
        inits: one entry per member: an adapter to continue from, or None
            for a fresh initialization.
        epochs: passes over the train split, at least 0; run_strategies
            takes each task's from epoch_schedule.

    Returns:
        The trained AdapterModules, one per entry of inits, in order.
    """
    epochs = check_int("epochs", epochs, 0)
    meta, data = task.meta, task.data
    n = data.train_x.shape[0]
    if n == 0:
        raise ConfigError(f"task {meta.task_id} has no training samples")
    inits = list(inits)
    if not inits:
        raise ConfigError("train_task needs at least one init")
    d = backbone.projection.shape[1]
    classes = sorted(meta.class_ids)
    k = len(classes)
    members = [_initial_params(init, cfg.seed, d, cfg.bottleneck, k) for init in inits]
    params = {name: np.stack([m[name] for m in members]) for name in members[0]}

    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1, meta.task_id)))
    y_local = np.searchsorted(classes, data.train_y)
    lam = lambda_schedule(k, cfg)
    h_all = backbone.features(data.train_x)
    diverged = (f"loss diverged on task {meta.task_id} "
                f"(seed={cfg.seed}, lr={cfg.lr}, batch={cfg.batch_size})")
    try:
        # any overflow or invalid value in the loop is divergence; BLAS
        # kernels may not raise numpy's flags, so the loss is tested too
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(epochs):
                order = rng.permutation(n)
                h_epoch, y_epoch = h_all[order], y_local[order]
                for start in range(0, n, cfg.batch_size):
                    stop = start + cfg.batch_size
                    loss, grads = objective_grads(h_epoch[start:stop], y_epoch[start:stop],
                                                  params, lam, cfg.tau_margin)
                    if not np.isfinite(loss).all():
                        raise TrainingError(diverged)
                    for name, grad in grads.items():
                        params[name] -= cfg.lr * grad
    except FloatingPointError:
        raise TrainingError(diverged) from None

    return [AdapterModule(layers=(w_down, w_up), meta=meta)
            for w_down, w_up in zip(params["w_down"], params["w_up"])]


def adapted_features(x: np.ndarray, adapter: AdapterModule,
                     backbone: Backbone) -> np.ndarray:
    """Backbone features passed through the adapter stack."""
    return _adapt(backbone.features(x), adapter)


def _adapt(h: np.ndarray, adapter: AdapterModule) -> np.ndarray:
    """Backbone features h passed through the adapter stack."""
    for w_down, w_up in adapter.layer_pairs():
        h = adapter_forward(h, w_down, w_up)
    return h


@dataclass(frozen=True)
class PrototypeBank:
    """One mean feature vector per class; frozen, so its normalized matrix
    is built once."""

    prototypes: dict[int, np.ndarray]

    def __post_init__(self):
        # ids are stored as int64, so an id past its range is rejected here
        protos = {check_int("class id", cid, _INT64.min, _INT64.max):
                  np.reshape(vec, -1) for cid, vec in self.prototypes.items()}
        widths = sorted({arr.size for arr in protos.values()})
        if len(widths) != 1:
            raise ShapeError(f"a bank needs prototypes of one width, got {widths}")
        ids = sorted(protos)
        stack = as_matrix(np.stack([protos[c] for c in ids]), "prototypes")
        stack.flags.writeable = False
        object.__setattr__(self, "prototypes", dict(zip(ids, stack)))
        normed, _ = _normalize_rows(stack, "prototypes")
        ids = np.array(ids, dtype=np.int64)
        ids.flags.writeable = normed.flags.writeable = False
        object.__setattr__(self, "_matrix", (ids, normed))

    def updated(self, other: "PrototypeBank") -> "PrototypeBank":
        return PrototypeBank(prototypes={**self.prototypes, **other.prototypes})

    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Class ids (ascending) and the row-normalized prototype matrix."""
        return self._matrix


def compute_prototypes(adapter: AdapterModule, backbone: Backbone,
                       data, class_ids=None) -> PrototypeBank:
    """Mean adapted train feature per class under the given adapter."""
    wanted = sorted(class_ids) if class_ids is not None else \
        sorted(int(c) for c in np.unique(data.train_y))
    z = adapted_features(data.train_x, adapter, backbone)
    protos = {}
    for cid in wanted:
        mask = data.train_y == cid
        if not mask.any():
            raise ConfigError(f"class {cid} has no training samples")
        protos[int(cid)] = z[mask].mean(axis=0)
    return PrototypeBank(prototypes=protos)


def classify_batch(x: np.ndarray, adapter: AdapterModule, backbone: Backbone,
                   bank: PrototypeBank) -> np.ndarray:
    """Cosine nearest-prototype labels; ties resolve to the lowest class id."""
    return _predict_across_banks(backbone.features(x), [adapter], [bank])[1]


def classify(x: np.ndarray, adapter: AdapterModule, backbone: Backbone,
             bank: PrototypeBank) -> int:
    """Single-sample form of classify_batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[0] != 1:
        raise ShapeError("classify expects a single sample; use classify_batch")
    return int(classify_batch(x, adapter, backbone, bank)[0])


def _predict_across_banks(h, adapters, banks, best=None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Cosine nearest-prototype scores and labels of backbone features h
    over (adapter, bank) members: the best score wins and an exact tie goes
    to the lowest class id. The pick is associative and commutative, so
    members may be folded in any order and in several calls: best is an
    optional running (scores, ids) per row of h to start from.

    Returns the running best (scores, ids) after every member."""
    for adapter, bank in zip(adapters, banks):
        ids, protos = bank.matrix()
        f, _ = _normalize_rows(_adapt(h, adapter), "features")
        if f.shape[1] != protos.shape[1]:
            raise ShapeError(f"feature width {f.shape[1]} does not match "
                             f"prototype width {protos.shape[1]}")
        scores = f @ protos.T
        col = np.argmax(scores, axis=1)  # ids ascend: first max is lowest id
        top, top_ids = scores[np.arange(col.size), col], ids[col]
        if best is not None:
            keep = (best[0] > top) | ((best[0] == top) & (best[1] < top_ids))
            top, top_ids = np.where(keep, best[0], top), np.where(keep, best[1], top_ids)
        best = top, top_ids
    return best


def _fold_symmetric(acc, new, n_prev, cfg):
    w_b, w_a = info_weights(acc.meta, new.meta, acc.layers[0], new.layers[0], cfg)
    trace = MergeTrace(base=acc.meta, align=new.meta,
                       layers=((None, w_b, w_a),) * len(acc.layers))
    return merge_symmetric(new, acc, w_b, w_a, cfg), trace


# How each strategy absorbs a task: its fold rule, (carried, new, n_prev,
# cfg) -> (module, MergeTrace | None), or None; the adapter it absorbs: the
# task's "fresh" one, its carried one "continued" on the task, or the
# "identity" (zero w_down and w_up); and whether it keeps one member per task.
_Rule = namedtuple("_Rule", "fold absorbs per_task", defaults=("fresh", False))
_RULES = {
    Strategy.ONE_A: _Rule(lambda acc, new, n, cfg: _merge_traced(new, acc, cfg)),
    Strategy.AVERAGE: _Rule(lambda acc, new, n, cfg: (merge_average(new, acc, n), None)),
    Strategy.SYMMETRIC: _Rule(_fold_symmetric),
    Strategy.PER_TASK: _Rule(None, per_task=True),
    Strategy.SINGLE_FINETUNE: _Rule(None, "continued"),
    Strategy.BACKBONE: _Rule(None, "identity"),
}
FOLD_STRATEGIES = tuple(s for s, rule in _RULES.items() if rule.fold)
PER_TASK_STRATEGIES = tuple(s for s, rule in _RULES.items() if rule.per_task)


def fold(strategy: Strategy, carried: AdapterModule, new: AdapterModule,
         n_prev: int, merge_cfg: MergeConfig
         ) -> tuple[AdapterModule, MergeTrace | None]:
    """Fold a newly trained adapter into the carried one.

    Args:
        strategy: one of FOLD_STRATEGIES.
        carried: the adapter folded so far.
        n_prev: tasks already absorbed into carried (the average's weight).

    Returns (module, MergeTrace); the trace is None for average, and for
    symmetric has carried as its base.
    """
    if strategy not in FOLD_STRATEGIES:
        names = ", ".join(s.value for s in FOLD_STRATEGIES)
        raise ConfigError(f"fold supports {names}; "
                          f"got '{getattr(strategy, 'value', strategy)}'")
    return _RULES[strategy].fold(carried, new, n_prev, merge_cfg)


def run_config(spec: StreamSpec, train: TrainConfig,
               merge_cfg: MergeConfig) -> dict:
    """The flat `onea run` config that the three config objects spell, keyed
    by stream.CONFIG_KEYS."""
    return {**config_values(spec), **config_values(train), **config_values(merge_cfg)}


class _StrategyRun:
    """One strategy's (adapter, prototype bank) members and accuracy record
    in run_strategies: per-task appends a member at every task, the other
    strategies replace their single member.

    Per-task members and banks never change after their task, so per-task
    keeps the running best (score, id) of every test row seen so far:
    each member scores each test row once. BLAS rounding depends on the
    rows in one product, so a kept score can differ from a full rescoring
    in the last bits, and a label only on such a near-tie."""

    def __init__(self, strategy: Strategy, t_total: int, backbone: Backbone,
                 merge_cfg: MergeConfig):
        self.strategy, self.rule = strategy, _RULES[strategy]
        self.backbone, self.merge_cfg = backbone, merge_cfg
        self.adapters: list[AdapterModule] = []
        self.banks: list[PrototypeBank] = []
        self.acc_matrix: list[list[float | None]] = \
            [[None] * t_total for _ in range(t_total)]
        self.step_acc: list[float] = []
        self.merge_ms: list[float] = []
        self.svd_calls = 0
        self.best: tuple[np.ndarray, np.ndarray] | None = None

    def step(self, idx: int, task: Task, new: AdapterModule,
             eval_h: np.ndarray, eval_y: np.ndarray, widths: list[int]) -> None:
        """Absorb task idx, record prototypes for its classes and score all
        test data seen so far, given as its backbone features eval_h (the
        new task's rows last). new is the adapter that the rule absorbs."""
        carried = self.adapters[0] if self.adapters else None
        if self.rule.fold and carried is not None:
            svd_start = SVD_CALLS.value
            tick = time.perf_counter()
            adapter, _ = fold(self.strategy, carried, new, idx, self.merge_cfg)
            self.merge_ms.append((time.perf_counter() - tick) * 1000.0)
            self.svd_calls += SVD_CALLS.value - svd_start
        else:
            adapter = new
            if carried is not None and not self.rule.per_task:
                # the replacement serves every class seen so far, as a fold does
                adapter = AdapterModule(layers=new.layers,
                                        meta=carried.meta.union(task.meta))
            self.merge_ms.append(0.0)

        fresh = compute_prototypes(adapter, self.backbone, task.data,
                                   class_ids=task.meta.class_ids)
        if carried is None or self.rule.per_task:
            self.adapters.append(adapter)
            self.banks.append(fresh)
        else:
            self.adapters[0] = adapter
            self.banks[0] = self.banks[0].updated(fresh)
        kept = None
        if self.best is not None:
            # the old members score only the new task's rows
            old = _predict_across_banks(eval_h[self.best[1].size:],
                                        self.adapters[:-1], self.banks[:-1])
            kept = tuple(np.concatenate(pair) for pair in zip(self.best, old))
        best = _predict_across_banks(eval_h, self.adapters[-1:], self.banks[-1:], kept)
        if self.rule.per_task:
            self.best = best
        correct = best[1] == eval_y
        self.step_acc.append(float(np.mean(correct)))
        offset = 0
        for j, width in enumerate(widths):
            self.acc_matrix[j][idx] = float(np.mean(correct[offset:offset + width]))
            offset += width


def run_strategies(stream: TaskStream, strategies, cfg: TrainConfig,
                   merge_cfg: MergeConfig | None = None
                   ) -> list[tuple[RunReport, list[AdapterModule]]]:
    """Run one continual-learning pass over the stream for several strategies.

    Each task is trained at most once: one train_task call trains the
    task's fresh adapter and, for single-finetune past the first task, the
    continuation of its carried adapter, in one stacked pass over its
    batches for the task's epoch_schedule budget. Every strategy then
    absorbs the adapter its rule names (fold, append, or replace), records
    prototypes for the task's classes under its current model, and
    measures accuracy task-agnostically over all test data seen so far.
    Each report is bit-reproducible given (stream seed, train seed, config,
    strategy) and does not depend on which other strategies share the pass
    or their order; only its timing block varies between runs.
    svd_calls and timings.merge_ms cover that strategy's own folds (no fold
    runs at the first task), and timings.total_s is the wall time of the
    whole shared pass.

    Returns one (RunReport, deployable adapters) pair per strategy, in the
    given order: one merged module, or one per task for per-task.
    """
    strategies = list(strategies)
    if not strategies:
        raise ConfigError("need at least one strategy")
    for strategy in strategies:
        if not isinstance(strategy, Strategy):
            raise ConfigError(f"unknown strategy {strategy!r}")
    merge_cfg = MergeConfig() if merge_cfg is None else merge_cfg
    spec = stream.spec
    t_total = len(stream.tasks)
    backbone = Backbone.from_seed(
        stream.tasks[0].data.train_x.shape[1], BACKBONE_DIM,
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0, 0)))

    started = time.perf_counter()
    runs = [_StrategyRun(s, t_total, backbone, merge_cfg) for s in strategies]
    # a continuing run starts from a fresh adapter at the first task; every
    # continuing run carries the same adapter, so one continuation serves all
    absorbs = {run.rule.absorbs for run in runs}
    finetune = next((run for run in runs if run.rule.absorbs == "continued"), None)
    zeros = np.zeros((BACKBONE_DIM, cfg.bottleneck))  # the identity's w_down and w_up.T
    for idx, task in enumerate(stream.tasks):
        inits = [None] if "fresh" in absorbs or (idx == 0 and finetune) else []
        if finetune is not None and idx > 0:
            inits.append(finetune.adapters[0])
        epochs = epoch_schedule(task.meta.class_count, spec.total_classes,
                                spec.num_tasks, cfg)
        trained = train_task(task, backbone, cfg, inits, epochs=epochs) if inits else [None]
        identity = AdapterModule(layers=(zeros, zeros.T), meta=task.meta) \
            if "identity" in absorbs else None
        new = {"fresh": trained[0], "continued": trained[-1], "identity": identity}
        seen = stream.tasks[:idx + 1]
        eval_h = backbone.features(np.concatenate([t.data.test_x for t in seen]))
        eval_y = np.concatenate([t.data.test_y for t in seen])
        widths = [t.data.test_x.shape[0] for t in seen]
        for run in runs:
            run.step(idx, task, new[run.rule.absorbs], eval_h, eval_y, widths)
    total_s = time.perf_counter() - started

    config_echo = run_config(spec, cfg, merge_cfg)
    del config_echo["stream_seed"], config_echo["train_seed"]
    results = []
    for run in runs:
        report = RunReport(
            strategy=run.strategy.value,
            stream_seed=spec.seed,
            train_seed=cfg.seed,
            class_counts=[t.meta.class_count for t in stream.tasks],
            acc_matrix=run.acc_matrix,
            step_acc=run.step_acc,
            config=dict(config_echo),
            svd_calls=run.svd_calls,
            timings={"merge_ms": run.merge_ms, "total_s": total_s},
        )
        results.append((report, run.adapters))
    return results


def run_sequence(stream: TaskStream, strategy: Strategy, cfg: TrainConfig,
                 merge_cfg: MergeConfig | None = None, *,
                 return_adapters: bool = False):
    """Run one continual-learning pass over the stream with one strategy.

    The single-strategy form of run_strategies. Returns the RunReport,
    plus the deployable adapter list when return_adapters is set (one
    merged module, or one per task for the per-task strategy).
    """
    report, adapters = run_strategies(stream, [strategy], cfg, merge_cfg)[0]
    return (report, adapters) if return_adapters else report
