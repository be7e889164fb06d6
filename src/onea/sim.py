"""Desk-scale continual-learning harness around a frozen random backbone.

Each task trains a fresh residual bottleneck adapter plus a throwaway
linear head with plain mini-batch gradient descent (gradients are written
out by hand; they are validated against finite differences in the test
suite). Classification is nearest-prototype by cosine similarity, so only
the adapter and the prototype bank survive a task.
"""

from __future__ import annotations

import enum
import math
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .adapter import AdapterModule, adapter_forward, as_matrix, freeze
from .counters import SVD_CALLS
from .errors import ConfigError, NumericError, ShapeError, TrainingError
from .merge import (MergeConfig, info_weights, merge_average, merge_modules,
                    merge_symmetric)
from .metrics import RunReport
from .stream import StreamSpec, Task, TaskStream, check_seed

BACKBONE_DIM = 32


class Strategy(enum.Enum):
    ONE_A = "one-a"
    AVERAGE = "average"
    SYMMETRIC = "symmetric"
    PER_TASK = "per-task"
    SINGLE_FINETUNE = "single-finetune"


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
    lr: float = 0.1
    epochs_base: int = 15      # epochs at the reference task size
    epochs_min: int = 2
    epochs_max: int = 60
    beta: float = 0.5          # epoch growth exponent in task size
    lambda_min: float = 0.01
    lambda_max: float = 0.1
    k_decay: float = 2.3979    # decay rate of the contrastive weight
    tau_margin: float = 0.07
    batch_size: int = 32
    bottleneck: int = 8
    cosine_lr: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0.0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.epochs_base < 1:
            raise ConfigError(f"epochs_base must be >= 1, got {self.epochs_base}")
        if self.epochs_min < 0 or self.epochs_min > self.epochs_max:
            raise ConfigError(f"need 0 <= epochs_min <= epochs_max, got "
                              f"{self.epochs_min}..{self.epochs_max}")
        if not 0.0 <= self.lambda_min <= self.lambda_max <= 1.0:
            raise ConfigError("need 0 <= lambda_min <= lambda_max <= 1")
        if self.beta < 0.0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if self.k_decay <= 0.0:
            raise ConfigError(f"k_decay must be > 0, got {self.k_decay}")
        if not 0.0 <= self.tau_margin < 1.0:
            raise ConfigError(f"tau_margin must lie in [0, 1), got {self.tau_margin}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.bottleneck < 1:
            raise ConfigError(f"bottleneck must be >= 1, got {self.bottleneck}")
        check_seed("train seed", self.seed)


def lambda_schedule(class_count: int, cfg: TrainConfig) -> float:
    """Contrastive weight, largest for single-class tasks and decaying
    exponentially toward lambda_min as tasks widen.

    Arranged as lambda_max + (lambda_min - lambda_max) * (1 - exp(...)) so
    class_count == 1 returns lambda_max exactly.
    """
    if class_count < 1:
        raise ConfigError(f"class_count must be >= 1, got {class_count}")
    decay = 1.0 - math.exp(-cfg.k_decay * (class_count - 1))
    return cfg.lambda_max + (cfg.lambda_min - cfg.lambda_max) * decay


def epoch_schedule(class_count: int, total_classes: int, num_tasks: int,
                   cfg: TrainConfig) -> int:
    """Epoch budget scaled by task size relative to the balanced size C/T."""
    if total_classes < 1 or num_tasks < 1:
        raise ConfigError("total_classes and num_tasks must be >= 1")
    return _epochs_for(class_count, total_classes / num_tasks, cfg)


def _epochs_for(class_count: int, t0: float, cfg: TrainConfig) -> int:
    if class_count < 1:
        raise ConfigError(f"class_count must be >= 1, got {class_count}")
    if t0 <= 0.0:
        raise ConfigError(f"reference task size must be > 0, got {t0}")
    raw = cfg.epochs_base * (class_count / t0) ** cfg.beta
    return min(max(int(round(raw)), cfg.epochs_min), cfg.epochs_max)


def _normalize_rows(z: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(z, axis=1)
    if np.any(norms == 0.0):
        raise NumericError(f"{what} contains a zero-norm row")
    return z / norms[:, None], norms


def _pair_coefficients(sims: np.ndarray, same: np.ndarray, tau: float):
    """Loss value and the symmetric d(loss)/d(similarity) matrix.

    Each unordered pair shows up twice in the full masks, so the pair
    counts are halved and the loss sums are halved with them.
    """
    pos = same & ~np.eye(sims.shape[0], dtype=bool)
    neg = ~same
    n_pos = int(np.count_nonzero(pos)) // 2
    n_neg = int(np.count_nonzero(neg)) // 2
    coeff = np.zeros(sims.shape)
    loss = 0.0
    if n_pos:
        loss += float(np.sum(1.0 - sims[pos])) / (2 * n_pos)
        coeff[pos] = -1.0 / n_pos
    if n_neg:
        margins = sims - tau
        active = neg & (margins > 0.0)
        loss += float(np.sum(margins[active])) / (2 * n_neg)
        coeff[active] = 1.0 / n_neg
    return loss, coeff, n_pos, n_neg


def contrastive_loss(features: np.ndarray, labels, tau: float) -> float:
    """Pairwise cosine objective: positives are pulled to similarity 1,
    negatives hinge-pushed below tau. Features are normalized internally;
    both pair means are over all within-batch pairs of that kind.
    """
    z = as_matrix(features, "features")
    labels = np.asarray(labels).reshape(-1)
    if labels.shape[0] != z.shape[0]:
        raise ShapeError(f"{labels.shape[0]} labels for {z.shape[0]} rows")
    if not 0.0 <= tau < 1.0:
        raise ConfigError(f"tau must lie in [0, 1), got {tau}")
    f, _ = _normalize_rows(z, "features")
    same = labels[:, None] == labels[None, :]
    loss, _, n_pos, n_neg = _pair_coefficients(f @ f.T, same, tau)
    if n_pos == 0 and n_neg == 0:
        warnings.warn("batch holds no sample pairs; contrastive loss is 0",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    return loss


def _contrastive_grad(z: np.ndarray, labels: np.ndarray, tau: float):
    """Contrastive loss and its gradient with respect to unnormalized z."""
    f, norms = _normalize_rows(z, "features")
    same = labels[:, None] == labels[None, :]
    loss, coeff, _, _ = _pair_coefficients(f @ f.T, same, tau)
    df = coeff @ f
    dz = (df - f * np.sum(f * df, axis=1, keepdims=True)) / norms[:, None]
    return loss, dz


def _cross_entropy_grad(z: np.ndarray, y: np.ndarray, head_w: np.ndarray,
                        head_b: np.ndarray):
    """Mean softmax cross-entropy and gradients w.r.t. z and the head."""
    n = z.shape[0]
    logits = z @ head_w + head_b
    shift = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(shift), axis=1, keepdims=True))
    loss = float(-np.mean(shift[np.arange(n), y] - log_norm[:, 0]))
    dlogits = np.exp(shift - log_norm)
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    return loss, dlogits @ head_w.T, z.T @ dlogits, dlogits.sum(axis=0)


def objective(h: np.ndarray, y: np.ndarray, params: dict, lam: float,
              tau: float) -> tuple[float, dict]:
    """Forward-only training objective for a batch of backbone features.

    Returns the scalar loss plus its named terms. With two or more classes
    present the loss is (1 - lam) * cross-entropy + lam * contrastive; a
    single-class batch trains on the contrastive term alone at full weight.
    """
    a = h @ params["w_down"]
    z = h + np.maximum(a, 0.0) @ params["w_up"]
    single = params["head_w"].shape[1] < 2
    if single:
        ctr, _ = _contrastive_grad(z, y, tau)
        return ctr, {"ce": 0.0, "ctr": ctr}
    ce, _, _, _ = _cross_entropy_grad(z, y, params["head_w"], params["head_b"])
    ctr, _ = _contrastive_grad(z, y, tau)
    return (1.0 - lam) * ce + lam * ctr, {"ce": ce, "ctr": ctr}


def objective_grads(h: np.ndarray, y: np.ndarray, params: dict, lam: float,
                    tau: float) -> tuple[float, dict]:
    """Loss and analytic gradients for every parameter in params.

    Reverse-mode accumulation through the residual adapter and the local
    linear head; the ReLU and hinge use the 0 subgradient at their kinks.
    """
    w_down, w_up = params["w_down"], params["w_up"]
    head_w, head_b = params["head_w"], params["head_b"]
    a = h @ w_down
    relu_a = np.maximum(a, 0.0)
    z = h + relu_a @ w_up
    single = head_w.shape[1] < 2

    grads = {"head_w": np.zeros_like(head_w), "head_b": np.zeros_like(head_b)}
    if single:
        loss, dz = _contrastive_grad(z, y, tau)
    else:
        ce, dz_ce, dhw, dhb = _cross_entropy_grad(z, y, head_w, head_b)
        ctr, dz_ctr = _contrastive_grad(z, y, tau)
        loss = (1.0 - lam) * ce + lam * ctr
        dz = (1.0 - lam) * dz_ce + lam * dz_ctr
        grads["head_w"] = (1.0 - lam) * dhw
        grads["head_b"] = (1.0 - lam) * dhb
    grads["w_up"] = relu_a.T @ dz
    da = (dz @ w_up.T) * (a > 0.0)
    grads["w_down"] = h.T @ da
    return loss, grads


def train_task(task: Task, backbone: Backbone, cfg: TrainConfig, *,
               t0: float | None = None,
               init: AdapterModule | None = None) -> AdapterModule:
    """Train one adapter (and a discarded local head) on a single task.

    Args:
        task: metadata plus the train split to fit.
        t0: reference task size C / T of the surrounding stream; defaults
            to this task's own class count (epoch budget epochs_base).
        init: adapter to continue from instead of a fresh initialization.

    Returns:
        The trained AdapterModule; the local head is discarded.
    """
    meta, data = task.meta, task.data
    n = data.train_x.shape[0]
    if n == 0:
        raise ConfigError(f"task {meta.task_id} has no training samples")
    # every task's adapter spawns from the same initialization (stream
    # key (0, 1)) so trained adapters stay comparable for merging; only
    # the batch shuffle stream is task-specific
    init_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0, 1)))
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1, meta.task_id)))
    d = backbone.projection.shape[1]
    b = cfg.bottleneck

    if init is not None:
        if len(init.layers) != 2 or init.layers[0].shape != (d, b):
            raise ShapeError("init adapter does not match backbone/bottleneck dims")
        w_down = np.array(init.layers[0])
        w_up = np.array(init.layers[1])
    else:
        # classic residual-adapter start: random down, zero up, so the
        # adapted features begin exactly at the backbone features
        w_down = init_rng.normal(scale=1.0 / math.sqrt(d), size=(d, b))
        w_up = np.zeros((b, d))

    classes = sorted(meta.class_ids)
    k = len(classes)
    y_local = np.searchsorted(classes, data.train_y)
    head_w = init_rng.normal(scale=1.0 / math.sqrt(d), size=(d, k))
    head_b = np.zeros(k)
    params = {"w_down": w_down, "w_up": w_up, "head_w": head_w, "head_b": head_b}

    lam = lambda_schedule(k, cfg)
    epochs = _epochs_for(k, t0 if t0 is not None else float(k), cfg)
    h_all = backbone.features(data.train_x)
    n_batches = math.ceil(n / cfg.batch_size)
    total_steps = max(1, epochs * n_batches)
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads = objective_grads(h_all[idx], y_local[idx], params,
                                          lam, cfg.tau_margin)
            if not math.isfinite(loss):
                raise TrainingError(
                    f"loss diverged on task {meta.task_id} "
                    f"(seed={cfg.seed}, lr={cfg.lr}, batch={cfg.batch_size})")
            lr = cfg.lr
            if cfg.cosine_lr:
                lr *= 0.5 * (1.0 + math.cos(math.pi * step / total_steps))
            for name, grad in grads.items():
                params[name] -= lr * grad
            step += 1

    return AdapterModule(layers=(params["w_down"], params["w_up"]),
                         bottleneck=b, meta=meta)


def adapted_features(x: np.ndarray, adapter: AdapterModule,
                     backbone: Backbone) -> np.ndarray:
    """Backbone features passed through the adapter stack."""
    z = backbone.features(x)
    for w_down, w_up in adapter.layer_pairs():
        z = adapter_forward(z, w_down, w_up)
    return z


@dataclass(frozen=True)
class PrototypeBank:
    """One mean feature vector per class."""

    prototypes: dict[int, np.ndarray]

    def __post_init__(self):
        for cid, vec in self.prototypes.items():
            arr = np.asarray(vec, dtype=np.float64).reshape(-1)
            if np.linalg.norm(arr) == 0.0:
                raise NumericError(f"prototype for class {cid} has zero norm")
            arr.flags.writeable = False
            self.prototypes[cid] = arr

    def updated(self, other: "PrototypeBank") -> "PrototypeBank":
        protos = dict(self.prototypes)
        protos.update(other.prototypes)
        return PrototypeBank(prototypes=protos)

    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Class ids (ascending) and the row-normalized prototype matrix."""
        ids = np.array(sorted(self.prototypes), dtype=np.int64)
        stack = np.stack([self.prototypes[int(c)] for c in ids])
        stack, _ = _normalize_rows(stack, "prototypes")
        return ids, stack


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
    return _predict_across_banks(x, [adapter], backbone, [bank])


def classify(x: np.ndarray, adapter: AdapterModule, backbone: Backbone,
             bank: PrototypeBank) -> int:
    """Single-sample form of classify_batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[0] != 1:
        raise ShapeError("classify expects a single sample; use classify_batch")
    return int(classify_batch(x, adapter, backbone, bank)[0])


def _predict_across_banks(x, adapters, backbone, banks) -> np.ndarray:
    """Cosine nearest-prototype labels over (adapter, bank) members: the
    best score wins and an exact tie goes to the lowest class id."""
    best_ids = best = None
    for adapter, bank in zip(adapters, banks):
        ids, protos = bank.matrix()
        f, _ = _normalize_rows(adapted_features(x, adapter, backbone), "features")
        scores = f @ protos.T
        col = np.argmax(scores, axis=1)  # ids ascend: first max is lowest id
        top, top_ids = scores[np.arange(col.size), col], ids[col]
        if best is not None:
            keep = (best > top) | ((best == top) & (best_ids < top_ids))
            top, top_ids = np.where(keep, best, top), np.where(keep, best_ids, top_ids)
        best, best_ids = top, top_ids
    return best_ids


FOLD_STRATEGIES = (Strategy.ONE_A, Strategy.AVERAGE, Strategy.SYMMETRIC)


def fold(strategy: Strategy, carried: AdapterModule | None, new: AdapterModule,
         n_prev: int, merge_cfg: MergeConfig) -> AdapterModule:
    """Fold a newly trained adapter into the carried one.

    Args:
        strategy: one of FOLD_STRATEGIES.
        carried: the adapter folded so far, or None before the first task,
            in which case the new adapter is returned verbatim.
        n_prev: tasks already absorbed into carried (the average's weight).
    """
    if strategy not in FOLD_STRATEGIES:
        names = ", ".join(s.value for s in FOLD_STRATEGIES)
        raise ConfigError(f"fold supports {names}; "
                          f"got '{getattr(strategy, 'value', strategy)}'")
    if strategy is Strategy.ONE_A:
        return merge_modules(new, carried, merge_cfg)
    if carried is None:
        return new
    if strategy is Strategy.AVERAGE:
        return merge_average(new, carried, n_prev)
    w_b, w_a = info_weights(carried.meta, new.meta, carried.layers[0],
                            new.layers[0], merge_cfg)
    return merge_symmetric(new, carried, w_b, w_a, merge_cfg)


def run_config(spec: StreamSpec, train: TrainConfig,
               merge_cfg: MergeConfig) -> dict:
    """The flat `onea run` config that the three config objects spell.

    Stream keys come from StreamSpec.to_dict, training keys are the
    TrainConfig field names, merge keys are the MergeConfig field names
    with sharpness_kappa as kappa and info_proxy as its value, and the two
    seeds are stream_seed and train_seed.
    """
    stream = spec.to_dict()
    stream["stream_seed"] = stream.pop("seed")
    training = asdict(train)
    training["train_seed"] = training.pop("seed")
    merging = asdict(merge_cfg)
    merging["kappa"] = merging.pop("sharpness_kappa")
    merging["info_proxy"] = merge_cfg.info_proxy.value
    return {**stream, **training, **merging}


class _StrategyRun:
    """One strategy's (adapter, prototype bank) members and accuracy record
    in run_strategies: per-task appends a member at every task, the other
    strategies replace their single member."""

    def __init__(self, strategy: Strategy, t_total: int, backbone: Backbone,
                 cfg: TrainConfig, t0: float, merge_cfg: MergeConfig):
        self.strategy = strategy
        self.backbone, self.cfg, self.t0 = backbone, cfg, t0
        self.merge_cfg = merge_cfg
        self.adapters: list[AdapterModule] = []
        self.banks: list[PrototypeBank] = []
        self.acc_matrix: list[list[float | None]] = \
            [[None] * t_total for _ in range(t_total)]
        self.step_acc: list[float] = []
        self.merge_ms: list[float] = []
        self.svd_calls = 0

    def step(self, idx: int, task: Task, new: AdapterModule | None,
             eval_x: np.ndarray, eval_y: np.ndarray, widths: list[int]) -> None:
        """Absorb task idx (new is its freshly trained adapter), record
        prototypes for its classes and score all test data seen so far."""
        carried = self.adapters[0] if self.adapters else None
        if self.strategy is Strategy.SINGLE_FINETUNE:
            adapter = new if carried is None else train_task(
                task, self.backbone, self.cfg, t0=self.t0, init=carried)
            self.merge_ms.append(0.0)
        else:
            svd_start = SVD_CALLS.value
            tick = time.perf_counter()
            adapter = new if self.strategy is Strategy.PER_TASK else \
                fold(self.strategy, carried, new, idx, self.merge_cfg)
            self.merge_ms.append((time.perf_counter() - tick) * 1000.0)
            self.svd_calls += SVD_CALLS.value - svd_start

        fresh = compute_prototypes(adapter, self.backbone, task.data,
                                   class_ids=task.meta.class_ids)
        if carried is None or self.strategy is Strategy.PER_TASK:
            self.adapters.append(adapter)
            self.banks.append(fresh)
        else:
            self.adapters[0] = adapter
            self.banks[0] = self.banks[0].updated(fresh)
        preds = _predict_across_banks(eval_x, self.adapters, self.backbone,
                                      self.banks)
        correct = preds == eval_y
        self.step_acc.append(float(np.mean(correct)))
        offset = 0
        for j, width in enumerate(widths):
            self.acc_matrix[j][idx] = float(np.mean(correct[offset:offset + width]))
            offset += width


def run_strategies(stream: TaskStream, strategies, cfg: TrainConfig,
                   merge_cfg: MergeConfig | None = None
                   ) -> list[tuple[RunReport, list[AdapterModule]]]:
    """Run one continual-learning pass over the stream for several strategies.

    Each task's fresh adapter is trained once and shared: after training,
    every strategy in turn absorbs it (fold, append, or, for
    single-finetune past the first task, continued training of its own
    adapter), records prototypes for the task's classes under its current
    model, and measures accuracy task-agnostically over all test data seen
    so far. Each report is bit-reproducible given (stream seed, train seed,
    config, strategy) and does not depend on which other strategies share
    the pass or their order; only its timing block varies between runs.
    svd_calls and timings.merge_ms cover that strategy's own folds, and
    timings.total_s is the wall time of the whole shared pass.

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
    t0 = spec.total_classes / spec.num_tasks
    backbone = Backbone.from_seed(
        stream.tasks[0].data.train_x.shape[1], BACKBONE_DIM,
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0, 0)))

    started = time.perf_counter()
    runs = [_StrategyRun(s, t_total, backbone, cfg, t0, merge_cfg)
            for s in strategies]
    # single-finetune uses a fresh adapter only for the first task
    fresh_every_task = any(s is not Strategy.SINGLE_FINETUNE for s in strategies)
    for idx, task in enumerate(stream.tasks):
        new = train_task(task, backbone, cfg, t0=t0) \
            if idx == 0 or fresh_every_task else None
        seen = stream.tasks[:idx + 1]
        eval_x = np.concatenate([t.data.test_x for t in seen])
        eval_y = np.concatenate([t.data.test_y for t in seen])
        widths = [t.data.test_x.shape[0] for t in seen]
        for run in runs:
            run.step(idx, task, new, eval_x, eval_y, widths)
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
