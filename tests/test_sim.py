"""Training harness: schedules, losses, gradients, prototypes, sequences."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest

from onea import (Backbone, ConfigError, MergeConfig, MergeTrace,
                  NumericError, PrototypeBank, ShapeError, Strategy,
                  StreamSpec, TaskMeta, TaskOrder, TrainConfig, TrainingError,
                  adapted_features, build_stream, classify, classify_batch,
                  compute_prototypes, epoch_schedule, fold,
                  info_weights, lambda_schedule, merge_modules, run_sequence,
                  run_strategies, select_roles, serialize, train_task)
from onea import sim
from onea.counters import SVD_CALLS
from onea.sim import BACKBONE_DIM, objective, objective_grads
from onea.stream import MAX_STREAM_SAMPLES, SyntheticDataset, Task

from conftest import (draw_gradcheck_batch, fd_gradient, make_module,
                      modules_equal)

QUICK = TrainConfig(epochs_base=2, epochs_min=1, batch_size=16, bottleneck=4)


def _tiny_stream(**kwargs):
    base = dict(total_classes=4, num_tasks=2, gamma=0.5, samples_per_class=10,
                seed=0)
    base.update(kwargs)
    return build_stream(StreamSpec(**base))


def _single_task_stream():
    return build_stream(StreamSpec(total_classes=2, num_tasks=1, gamma=0.5,
                                   samples_per_class=30, seed=1))


# ----------------------------------------------------------------- Backbone

def test_backbone_from_seed_is_deterministic():
    a = Backbone.from_seed(8, 16, 3)
    b = Backbone.from_seed(8, 16, 3)
    assert np.array_equal(a.projection, b.projection)
    assert not a.projection.flags.writeable


def test_backbone_features_are_rectified():
    bb = Backbone.from_seed(4, 6, 0)
    out = bb.features(np.random.default_rng(0).normal(size=(10, 4)))
    assert out.shape == (10, 6)
    assert np.all(out >= 0.0)
    with pytest.raises(ShapeError):
        bb.features(np.ones((2, 5)))


# -------------------------------------------------------------- TrainConfig

@pytest.mark.parametrize("kwargs", [
    {"lr": 0.0}, {"epochs_base": 0}, {"epochs_min": -1},
    {"epochs_min": 5, "epochs_max": 4}, {"batch_size": 0}, {"bottleneck": 0},
    {"seed": -1}, {"seed": 2 ** 64}, {"seed": 1.5}, {"seed": True},
])
def test_train_config_validation(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


def test_train_config_schedule_shapes_are_constants():
    # the five schedule constants keep the values they had as fields, and
    # neither they nor the removed cosine_lr can be passed
    assert (TrainConfig.beta, TrainConfig.lambda_min, TrainConfig.lambda_max,
            TrainConfig.k_decay, TrainConfig.tau_margin) == (0.5, 0.01, 0.1, 2.3979, 0.07)
    assert [f.name for f in dataclasses.fields(TrainConfig)] == [
        "lr", "epochs_base", "epochs_min", "epochs_max", "batch_size", "bottleneck", "seed"]
    for name, value in (("beta", 0.5), ("lambda_min", 0.01), ("lambda_max", 0.1),
                        ("k_decay", 2.3979), ("tau_margin", 0.07), ("cosine_lr", False)):
        with pytest.raises(TypeError):
            TrainConfig(**{name: value})


# ---------------------------------------------------------------- schedules

def test_lambda_schedule_hand_values():
    cfg = TrainConfig()
    assert lambda_schedule(1, cfg) == cfg.lambda_max == 0.1
    # k = 2.3979 is ln(11) to 5 digits, so exp(-k) is 1/11 and
    # lambda(2) = 0.1 - 0.09 * (10/11) = 0.0181818...
    assert lambda_schedule(2, cfg) == pytest.approx(0.0181818, abs=1e-6)
    assert lambda_schedule(50, cfg) == pytest.approx(cfg.lambda_min, abs=1e-6)


def test_lambda_schedule_monotone_and_bounded():
    cfg = TrainConfig()
    values = [lambda_schedule(c, cfg) for c in range(1, 30)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(cfg.lambda_min - 1e-15 <= v <= cfg.lambda_max + 1e-15
               for v in values)
    with pytest.raises(ConfigError):
        lambda_schedule(0, cfg)


def test_epoch_schedule_reference_point_and_growth():
    cfg = TrainConfig()
    assert epoch_schedule(4, 20, 5, cfg) == cfg.epochs_base == 15
    # four times the reference size doubles the budget under beta = 0.5
    assert epoch_schedule(16, 20, 5, cfg) == 30


def test_epoch_schedule_clamps(monkeypatch):
    cfg = TrainConfig()
    assert epoch_schedule(1, 1000, 1, cfg) == cfg.epochs_min
    assert epoch_schedule(100, 100, 20, cfg) == cfg.epochs_max == 60
    monkeypatch.setattr(TrainConfig, "beta", 0.0)
    assert epoch_schedule(1, 1000, 1, cfg) == cfg.epochs_base


@pytest.mark.parametrize("epochs_base", [
    1, 15, 60, 61,
    # the largest epochs_base, where the budget is past epochs_max at any ratio
    pytest.param(2 ** 53, id="2**53")])
def test_epoch_schedule_large_beta_clamps_without_overflow(epochs_base):
    # the budget is the plain formula, clamped, whatever the task size
    cfg = TrainConfig(epochs_base=epochs_base)
    for class_count in (1, 2, 5, 10, 11, 52, 99, 100):
        raw = int(round(cfg.epochs_base * (class_count / 10.0) ** cfg.beta))
        assert epoch_schedule(class_count, 100, 10, cfg) == \
            min(max(raw, cfg.epochs_min), cfg.epochs_max)


def test_epochs_base_past_the_largest_float_is_rejected():
    # the epoch budget scales epochs_base as a float
    with pytest.raises(ConfigError, match="epochs_base"):
        TrainConfig(epochs_base=2 ** 1024 - 2 ** 970)


def test_schedules_bound_their_arguments():
    # each call fails with ConfigError before any float arithmetic; the
    # largest budget, 2**53 times the square root of a ratio of 2**22, is 2**64
    cfg = TrainConfig()
    calls = {"class_count": [lambda: epoch_schedule(10 ** 400, 20, 5, cfg),
                             lambda: epoch_schedule(21, 20, 5, cfg),
                             lambda: lambda_schedule(10 ** 400, cfg),
                             lambda: lambda_schedule(MAX_STREAM_SAMPLES + 1, cfg)],
             "num_tasks": [lambda: epoch_schedule(1, 20, 10 ** 400, cfg),
                           lambda: epoch_schedule(1, 20, 21, cfg)],
             "epochs_base": [lambda: TrainConfig(epochs_base=2 ** 53 + 1)]}
    for name, failing in calls.items():
        for call in failing:
            with pytest.raises(ConfigError, match=f"^{name} must lie in"):
                call()
    assert epoch_schedule(20, 20, 20, cfg) == cfg.epochs_max
    assert lambda_schedule(MAX_STREAM_SAMPLES, cfg) == pytest.approx(cfg.lambda_min)
    top = TrainConfig(epochs_base=2 ** 53, epochs_max=2 ** 64)
    assert epoch_schedule(MAX_STREAM_SAMPLES, MAX_STREAM_SAMPLES, MAX_STREAM_SAMPLES,
                          top) == 2 ** 64


def test_epoch_schedule_guards():
    cfg = TrainConfig()
    with pytest.raises(ConfigError):
        epoch_schedule(0, 20, 5, cfg)
    with pytest.raises(ConfigError):
        epoch_schedule(1, 0, 5, cfg)


def test_epoch_schedule_bounds_total_classes():
    # a stream holds at most MAX_STREAM_SAMPLES classes, so t0 is a float
    cfg = TrainConfig()
    assert epoch_schedule(1, MAX_STREAM_SAMPLES, 1, cfg) == cfg.epochs_min
    for total_classes in (MAX_STREAM_SAMPLES + 1, 10 ** 400):
        with pytest.raises(ConfigError, match="total_classes"):
            epoch_schedule(1, total_classes, 1, cfg)


def test_train_config_bottleneck_is_no_wider_than_the_backbone():
    assert TrainConfig(bottleneck=BACKBONE_DIM).bottleneck == BACKBONE_DIM
    for width in (BACKBONE_DIM + 1, 10 ** 10):
        with pytest.raises(ConfigError, match=rf"^bottleneck must lie in \[1, {BACKBONE_DIM}\]"):
            TrainConfig(bottleneck=width)


# --------------------------------------------------------- contrastive loss

def _contrastive_loss(feats, labels, tau=0.07):
    return float(sim._contrastive_grad(np.asarray(feats, dtype=np.float64),
                                       np.asarray(labels), tau)[0])


def test_contrastive_loss_hand_value():
    feats = np.array([[2.0, 0.0], [1.0, 0.0], [3.0, 3.0]])
    labels = [0, 0, 1]
    # positive pair is perfectly aligned; both negative pairs sit at
    # cos = sqrt(1/2), each paying sqrt(1/2) - tau
    want = math.sqrt(0.5) - 0.07
    assert _contrastive_loss(feats, labels) == pytest.approx(want, abs=1e-12)


def test_contrastive_loss_positive_only_batches():
    assert _contrastive_loss([[1.0, 0.0], [2.0, 0.0]], [0, 0]) \
        == pytest.approx(0.0, abs=1e-12)
    assert _contrastive_loss([[1.0, 0.0], [0.0, 1.0]], [0, 0]) \
        == pytest.approx(1.0, abs=1e-12)


def test_contrastive_loss_inactive_negatives_cost_nothing():
    assert _contrastive_loss([[1.0, 0.0], [0.0, 1.0]], [0, 1]) == 0.0


def test_contrastive_loss_is_scale_invariant():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(6, 4))
    labels = [0, 0, 1, 1, 2, 2]
    a = _contrastive_loss(feats, labels)
    b = _contrastive_loss(7.5 * feats, labels)
    assert a == pytest.approx(b, abs=1e-12)


def test_contrastive_loss_rejects_zero_norm_rows():
    with pytest.raises(NumericError):
        _contrastive_loss([[0.0, 0.0], [1.0, 0.0]], [0, 1])


def _pairwise_reference(sims, labels, tau):
    """Loss and symmetric coefficient matrix, one i < j pair at a time."""
    n = len(labels)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pos = [(i, j) for i, j in pairs if labels[i] == labels[j]]
    neg = [(i, j) for i, j in pairs if labels[i] != labels[j]]
    coeff = np.zeros((n, n))
    loss = 0.0
    if pos:
        loss += sum(1.0 - sims[i, j] for i, j in pos) / len(pos)
        for i, j in pos:
            coeff[i, j] = coeff[j, i] = -1.0 / len(pos)
    if neg:
        loss += sum(max(sims[i, j] - tau, 0.0) for i, j in neg) / len(neg)
        for i, j in neg:
            if sims[i, j] - tau > 0.0:
                coeff[i, j] = coeff[j, i] = 1.0 / len(neg)
    return loss, coeff


@pytest.mark.parametrize("n, classes", [(1, 1), (2, 1), (2, 2), (6, 1),
                                        (9, 3), (32, 5), (17, 17)])
def test_pair_coefficients_match_pairwise_loop(n, classes):
    rng = np.random.default_rng(n * 100 + classes)
    labels = np.arange(n) % classes
    rng.shuffle(labels)
    z = rng.normal(size=(n, 5))
    f = z / np.linalg.norm(z, axis=1, keepdims=True)
    sims = f @ f.T
    assert np.array_equal(sims, sims.T)
    same = labels[:, None] == labels[None, :]
    loss, coeff = sim._pair_coefficients(sims, same, 0.07)
    want_loss, want_coeff = _pairwise_reference(sims, labels, 0.07)
    assert np.array_equal(coeff, want_coeff)
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------- objective

def test_objective_blends_terms():
    rng = np.random.default_rng(1)
    h, y, params = draw_gradcheck_batch(rng)
    lam = 0.3
    loss, terms = objective(h, y, params, lam, 0.07)
    assert loss == pytest.approx((1.0 - lam) * terms["ce"] + lam * terms["ctr"],
                                 abs=1e-12)
    assert terms["ce"] > 0.0


def test_objective_single_class_uses_contrastive_only():
    rng = np.random.default_rng(2)
    h = rng.normal(size=(6, 4))
    y = np.zeros(6, dtype=int)
    params = {
        "w_down": rng.normal(size=(4, 2)),
        "w_up": rng.normal(scale=0.1, size=(2, 4)),
        "head_w": rng.normal(size=(4, 1)),
        "head_b": np.zeros(1),
    }
    loss, terms = objective(h, y, params, 0.25, 0.07)
    assert terms["ce"] == 0.0
    assert loss == terms["ctr"]
    z = h + np.maximum(h @ params["w_down"], 0.0) @ params["w_up"]
    assert loss == pytest.approx(_contrastive_loss(z, y), abs=1e-12)
    _, grads = objective_grads(h, y, params, 0.25, 0.07)
    assert np.array_equal(grads["head_w"], np.zeros((4, 1)))
    assert np.array_equal(grads["head_b"], np.zeros(1))


def test_objective_grads_match_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(3):
        h, y, params = draw_gradcheck_batch(rng)
        _, grads = objective_grads(h, y, params, 0.3, 0.07)
        for name in ("w_down", "w_up", "head_w", "head_b"):
            fd = fd_gradient(lambda: objective(h, y, params, 0.3, 0.07)[0],
                             params[name])
            err = np.linalg.norm(fd - grads[name])
            assert err <= 1e-4 * max(1.0, np.linalg.norm(grads[name]))


@pytest.mark.parametrize("k", [1, 3])
def test_objective_member_axis_matches_each_member(k):
    # stacked parameters over one shared batch give every member the loss
    # and the gradient bits of its own 2-D call
    rng = np.random.default_rng(5)
    h, y = rng.normal(size=(9, 6)), rng.integers(0, k, size=9)
    members = [{"w_down": rng.normal(size=(6, 3)),
                "w_up": rng.normal(scale=0.5, size=(3, 6)),
                "head_w": rng.normal(size=(6, k)),
                "head_b": rng.normal(size=k)} for _ in range(3)]
    stacked = {name: np.stack([m[name] for m in members]) for name in members[0]}
    loss, grads = objective_grads(h, y, stacked, 0.3, 0.07)
    assert loss.shape == (3,)
    for i, params in enumerate(members):
        want_loss, want_grads = objective_grads(h, y, params, 0.3, 0.07)
        assert loss[i] == pytest.approx(want_loss, rel=1e-12)
        for name, grad in want_grads.items():
            assert np.array_equal(grads[name][i], grad), name


# --------------------------------------------------------------- train_task

def test_train_task_learns_an_easy_pair():
    stream = _single_task_stream()
    task = stream.tasks[0]
    backbone = Backbone.from_seed(32, 32, 0)
    (module,) = train_task(task, backbone, TrainConfig(), epochs=15)
    bank = compute_prototypes(module, backbone, task.data)
    preds = classify_batch(task.data.train_x, module, backbone, bank)
    assert np.mean(preds == task.data.train_y) >= 0.95
    assert not backbone.projection.flags.writeable


def test_train_task_is_deterministic():
    task = _tiny_stream().tasks[0]
    backbone = Backbone.from_seed(32, 16, 0)
    (a,) = train_task(task, backbone, QUICK, epochs=2)
    (b,) = train_task(task, backbone, QUICK, epochs=2)
    for wa, wb in zip(a.layers, b.layers):
        assert np.array_equal(wa, wb)
    assert a.meta == task.meta


def test_train_task_zero_epochs_keeps_residual_identity():
    cfg = TrainConfig()
    task = _tiny_stream().tasks[0]
    backbone = Backbone.from_seed(32, 16, 0)
    (module,) = train_task(task, backbone, cfg, epochs=0)
    assert np.array_equal(module.layers[1], np.zeros((cfg.bottleneck, 16)))
    assert np.any(module.layers[0] != 0.0)
    adapted = adapted_features(task.data.train_x, module, backbone)
    assert np.allclose(adapted, backbone.features(task.data.train_x))


def test_train_task_warm_start_continues():
    stream = _tiny_stream()
    backbone = Backbone.from_seed(32, 16, 0)
    (first,) = train_task(stream.tasks[0], backbone, QUICK, epochs=2)
    (cont,) = train_task(stream.tasks[1], backbone, QUICK, [first], epochs=2)
    (fresh,) = train_task(stream.tasks[1], backbone, QUICK, epochs=2)
    assert cont.meta == stream.tasks[1].meta
    assert not np.array_equal(cont.layers[0], fresh.layers[0])


def test_train_task_rejects_mismatched_init():
    stream = _tiny_stream()
    backbone = Backbone.from_seed(32, 16, 0)
    b = QUICK.bottleneck
    for layers in ([np.zeros((16, 2)), np.zeros((2, 16))],
                   [np.zeros((16, b)), np.zeros((b, 17))],
                   [np.zeros((16, b)), np.zeros((b + 1, 16))]):
        wrong = make_module(layers)
        with pytest.raises(ShapeError):
            train_task(stream.tasks[0], backbone, QUICK, [None, wrong], epochs=2)


def test_train_task_steps_by_lr(monkeypatch):
    # one batch per epoch and two epochs: each step subtracts lr * grad
    seen = []

    def constant_grads(h, y, params, lam, tau):
        seen.append(np.array(params["w_down"]))
        return 0.0, {name: np.ones_like(value) for name, value in params.items()}

    monkeypatch.setattr(sim, "objective_grads", constant_grads)
    task = _tiny_stream().tasks[0]
    cfg = TrainConfig(lr=0.1, batch_size=task.data.train_x.shape[0])
    (module,) = train_task(task, Backbone.from_seed(32, 16, 0), cfg, epochs=2)
    assert len(seen) == 2
    assert np.allclose(seen[0] - seen[1], 0.1, rtol=0.0, atol=1e-12)
    assert np.allclose(seen[1] - module.layers[0], 0.1, rtol=0.0, atol=1e-12)


def test_train_task_divergence_reports_config():
    task = _tiny_stream().tasks[0]
    backbone = Backbone.from_seed(32, 16, 0)
    wild = TrainConfig(lr=1e300)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(TrainingError) as err:
            train_task(task, backbone, wild, epochs=8)
    assert "seed=0" in str(err.value)
    assert "lr=1e+300" in str(err.value)


def test_train_task_non_finite_loss_raises_the_divergence_message(monkeypatch):
    # BLAS kernels may not raise numpy's flags, so a NaN loss that no
    # floating-point error announced is reported as the same divergence
    task = _tiny_stream().tasks[0]
    backbone = Backbone.from_seed(32, 16, 0)
    wild = TrainConfig(lr=1e300)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(TrainingError) as flagged:
            train_task(task, backbone, wild, epochs=8)

    def nan_loss(h, y, params, lam, tau):
        return (np.full(params["w_down"].shape[0], np.nan),
                {name: np.zeros_like(value) for name, value in params.items()})

    monkeypatch.setattr(sim, "objective_grads", nan_loss)
    with pytest.raises(TrainingError) as checked:
        train_task(task, backbone, wild, epochs=8)
    assert str(checked.value) == str(flagged.value)
    assert str(checked.value).startswith(f"loss diverged on task {task.meta.task_id} ")


# (classes, tasks, batch_size): 16 train rows per task in 5-row batches end
# on a one-row batch; four tasks hold one class each
@pytest.mark.parametrize("classes, tasks, batch_size", [(4, 2, 5), (4, 4, 16), (4, 2, 1)],
                         ids=["short-last-batch", "single-class", "batch-size-1"])
def test_train_task_stacked_members_match_solo_calls(classes, tasks, batch_size):
    stream = _tiny_stream(total_classes=classes, num_tasks=tasks,
                          order=TaskOrder.BALANCED)
    cfg = TrainConfig(batch_size=batch_size, bottleneck=4)
    backbone = Backbone.from_seed(32, 16, 0)
    (carried,) = train_task(stream.tasks[0], backbone, cfg, epochs=2)
    task = stream.tasks[1]
    fresh, cont = train_task(task, backbone, cfg, [None, carried], epochs=2)
    (solo_fresh,) = train_task(task, backbone, cfg, epochs=2)
    (solo_cont,) = train_task(task, backbone, cfg, [carried], epochs=2)
    for stacked, solo in ((fresh, solo_fresh), (cont, solo_cont)):
        assert stacked.meta == solo.meta == task.meta
        for w_stacked, w_solo in zip(stacked.layers, solo.layers):
            assert np.array_equal(w_stacked, w_solo)
    assert not np.array_equal(fresh.layers[1], cont.layers[1])


def test_train_task_stacked_divergence_raises_the_solo_message():
    stream = _tiny_stream()
    backbone = Backbone.from_seed(32, 16, 0)
    (carried,) = train_task(stream.tasks[0], backbone, QUICK, epochs=2)
    wild = TrainConfig(lr=1e300, batch_size=QUICK.batch_size, bottleneck=QUICK.bottleneck)
    messages = []
    for inits in ([None], [carried], [None, carried], [carried, None]):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TrainingError) as err:
                train_task(stream.tasks[1], backbone, wild, inits, epochs=8)
        messages.append(str(err.value))
    assert len(set(messages)) == 1
    assert "loss diverged on task 2" in messages[0]


def test_train_task_needs_a_valid_epoch_count():
    task = _tiny_stream().tasks[0]
    backbone = Backbone.from_seed(32, 16, 0)
    with pytest.raises(TypeError, match="epochs"):
        train_task(task, backbone, QUICK)
    with pytest.raises(ConfigError, match="^epochs must be >= 0, got -1$"):
        train_task(task, backbone, QUICK, epochs=-1)


def test_train_task_needs_an_init():
    with pytest.raises(ConfigError, match="at least one init"):
        train_task(_tiny_stream().tasks[0], Backbone.from_seed(32, 16, 0), QUICK, [],
                   epochs=2)


def test_train_task_rejects_empty_task():
    empty = SyntheticDataset(train_x=np.empty((0, 32)),
                             train_y=np.empty(0, dtype=np.int64),
                             test_x=np.ones((1, 32)),
                             test_y=np.zeros(1, dtype=np.int64))
    task = Task(meta=TaskMeta(task_id=1, class_ids=frozenset({0}),
                              sample_count=0), data=empty)
    with pytest.raises(ConfigError):
        train_task(task, Backbone.from_seed(32, 16, 0), QUICK, epochs=2)


# --------------------------------------------------------------- prototypes

def _identity_adapter(d, b=2):
    rng = np.random.default_rng(9)
    return make_module([rng.normal(size=(d, b)), np.zeros((b, d))], class_ids=(0, 1))


def test_compute_prototypes_are_class_means():
    stream = _tiny_stream()
    task = stream.tasks[0]
    backbone = Backbone.from_seed(32, 16, 0)
    module = _identity_adapter(16)
    bank = compute_prototypes(module, backbone, task.data)
    h = backbone.features(task.data.train_x)
    for cid in sorted(task.meta.class_ids):
        want = h[task.data.train_y == cid].mean(axis=0)
        assert np.allclose(bank.prototypes[cid], want, atol=1e-12)


def test_compute_prototypes_missing_class():
    task = _tiny_stream().tasks[0]
    backbone = Backbone.from_seed(32, 16, 0)
    with pytest.raises(ConfigError):
        compute_prototypes(_identity_adapter(16), backbone, task.data,
                           class_ids={99})


def test_prototype_bank_rejects_zero_vector():
    with pytest.raises(NumericError):
        PrototypeBank(prototypes={3: np.zeros(4)})


def test_prototype_bank_rejects_empty_and_mixed_widths():
    with pytest.raises(ShapeError):
        PrototypeBank(prototypes={})
    with pytest.raises(ShapeError):
        PrototypeBank(prototypes={0: np.ones(2), 1: np.ones(3)})
    bank = PrototypeBank(prototypes={0: np.ones(2)})
    with pytest.raises(ShapeError):
        bank.updated(PrototypeBank(prototypes={1: np.ones(3)}))


def test_prototype_bank_matrix_sorted_and_normalized():
    bank = PrototypeBank(prototypes={5: np.array([0.0, 2.0]),
                                     1: np.array([3.0, 0.0])})
    ids, mat = bank.matrix()
    assert list(ids) == [1, 5]
    assert np.allclose(mat, np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_prototype_bank_updated_overrides():
    a = PrototypeBank(prototypes={1: np.array([1.0, 0.0])})
    b = PrototypeBank(prototypes={1: np.array([0.0, 1.0]),
                                  2: np.array([1.0, 1.0])})
    merged = a.updated(b)
    assert set(merged.prototypes) == {1, 2}
    assert np.array_equal(merged.prototypes[1], np.array([0.0, 1.0]))


def test_prototype_bank_keeps_its_own_copy():
    vec = np.array([1.0, 0.0])
    given = {1: vec}
    bank = PrototypeBank(prototypes=given)
    given[1] = np.array([0.0, 1.0])
    given[2] = np.array([1.0, 1.0])
    vec[0] = 5.0
    assert set(bank.prototypes) == {1}
    assert np.array_equal(bank.prototypes[1], [1.0, 0.0])
    assert not bank.prototypes[1].flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_prototype_bank_rejects_non_finite_prototypes(bad):
    with pytest.raises(NumericError):
        PrototypeBank(prototypes={0: np.array([bad, 1.0]),
                                  1: np.array([0.0, 1.0])})


@pytest.mark.parametrize("cid", [2.5, True, "1", 2 ** 63, -2 ** 63 - 1])
def test_prototype_bank_class_ids_follow_the_integer_rule(cid):
    with pytest.raises(ConfigError, match="class id"):
        PrototypeBank(prototypes={cid: np.array([1.0, 0.0])})


def test_prototype_bank_accepts_numpy_integer_ids():
    bank = PrototypeBank(prototypes={np.int64(5): np.array([0.0, 1.0]),
                                     np.int32(1): np.array([1.0, 0.0])})
    assert list(bank.prototypes) == [1, 5]
    assert all(type(c) is int for c in bank.prototypes)


# --------------------------------------------------------------- classifier

def _flat_setup():
    backbone = Backbone(projection=np.eye(2))
    adapter = make_module([np.zeros((2, 1)), np.zeros((1, 2))], class_ids=(0, 1))
    bank = PrototypeBank(prototypes={0: np.array([1.0, 0.0]),
                                     1: np.array([0.0, 1.0])})
    return backbone, adapter, bank


def test_classify_batch_picks_nearest_prototype():
    backbone, adapter, bank = _flat_setup()
    x = np.array([[3.0, 1.0], [0.5, 5.0]])
    assert list(classify_batch(x, adapter, backbone, bank)) == [0, 1]


def test_class_ids_and_labels_are_int64():
    backbone, adapter, bank = _flat_setup()
    ids, _ = bank.matrix()
    assert ids.dtype == np.int64 and not ids.flags.writeable
    labels = classify_batch(np.array([[3.0, 1.0], [0.5, 5.0]]), adapter,
                            backbone, bank)
    assert labels.dtype == np.int64


def test_classify_tie_breaks_to_lowest_id():
    backbone, adapter, bank = _flat_setup()
    assert classify(np.array([2.0, 2.0]), adapter, backbone, bank) == 0


def test_classify_single_sample_interface():
    backbone, adapter, bank = _flat_setup()
    assert classify(np.array([[3.0, 1.0]]), adapter, backbone, bank) == 0
    with pytest.raises(ShapeError):
        classify(np.ones((2, 2)), adapter, backbone, bank)


def test_classify_scale_invariant_with_identity_adapter():
    backbone, adapter, bank = _flat_setup()
    x = np.array([[0.3, 1.9]])
    assert classify(x, adapter, backbone, bank) == \
        classify(10.0 * x, adapter, backbone, bank)


def test_classify_rejects_prototypes_of_another_width():
    backbone, adapter, _ = _flat_setup()
    wide = PrototypeBank(prototypes={0: np.ones(3)})
    with pytest.raises(ShapeError):
        classify_batch(np.ones((2, 2)), adapter, backbone, wide)


def test_classify_rejects_zero_feature_rows():
    backbone, adapter, bank = _flat_setup()
    with pytest.raises(NumericError):
        classify_batch(np.array([[-1.0, -1.0]]), adapter, backbone, bank)


@pytest.mark.parametrize("high_first", [True, False])
def test_cross_bank_tie_breaks_to_lowest_id(high_first):
    # both banks hold the same two directions under different class ids,
    # so every sample ties across banks; the lower id must win either way
    backbone, adapter, _ = _flat_setup()
    high = PrototypeBank(prototypes={7: np.array([1.0, 0.0]),
                                     9: np.array([0.0, 1.0])})
    low = PrototypeBank(prototypes={2: np.array([1.0, 0.0]),
                                    4: np.array([0.0, 1.0])})
    banks = [high, low] if high_first else [low, high]
    x = np.array([[3.0, 1.0], [0.5, 5.0], [2.0, 2.0]])
    _, preds = sim._predict_across_banks(backbone.features(x), [adapter, adapter],
                                         banks)
    assert list(preds) == [2, 4, 2]


def test_predict_across_banks_matches_reference_loop():
    # prototypes and samples come from a few grid directions, so exact
    # score ties within and across banks are common
    backbone, adapter, _ = _flat_setup()
    grid = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    rng = np.random.default_rng(0)
    for _ in range(50):
        ids = rng.permutation(30)[:rng.integers(2, 12)]
        groups = np.array_split(ids, rng.integers(1, min(4, ids.size) + 1))
        banks = [PrototypeBank(prototypes={int(c): grid[rng.integers(4)]
                                           for c in g}) for g in groups]
        x = grid[rng.integers(4, size=20)] * rng.choice([0.5, 1.0, 3.0], (20, 1))
        _, preds = sim._predict_across_banks(backbone.features(x),
                                             [adapter] * len(banks), banks)
        for row, pred in zip(x, preds):
            f = row / np.linalg.norm(row)
            scored = [(-float(f @ (v / np.linalg.norm(v))), cid)
                      for bank in banks for cid, v in bank.prototypes.items()]
            assert pred == min(scored)[1]


# ------------------------------------------------------------- run_sequence

def test_run_sequence_report_shape():
    stream = _tiny_stream()
    report = run_sequence(stream, Strategy.ONE_A, QUICK)
    assert report.strategy == "one-a"
    assert report.stream_seed == 0
    assert len(report.step_acc) == 2
    assert all(0.0 <= a <= 1.0 for a in report.step_acc)
    assert report.acc_matrix[0][0] is not None
    assert report.acc_matrix[1][0] is None
    assert report.acc_matrix[1][1] is not None
    assert report.class_counts == [t.meta.class_count for t in stream.tasks]
    assert "classes" in report.config and "lr" in report.config
    assert "seed" not in report.config
    assert "merge_ms" in report.timings


def test_run_sequence_svd_budget_per_strategy():
    stream = _tiny_stream()
    budget = {Strategy.ONE_A: 2, Strategy.AVERAGE: 0, Strategy.SYMMETRIC: 2,
              Strategy.PER_TASK: 0, Strategy.SINGLE_FINETUNE: 0, Strategy.BACKBONE: 0}
    for strategy, want in budget.items():
        report = run_sequence(stream, strategy, QUICK)
        assert report.svd_calls == want, strategy


def test_run_sequence_is_bit_reproducible():
    stream = _tiny_stream()
    a = run_sequence(stream, Strategy.ONE_A, QUICK)
    b = run_sequence(stream, Strategy.ONE_A, QUICK)
    assert a.canonical_bytes() == b.canonical_bytes()


def test_run_sequence_adapters_out():
    stream = _tiny_stream()
    _, merged = run_sequence(stream, Strategy.ONE_A, QUICK,
                             return_adapters=True)
    assert len(merged) == 1
    assert merged[0].meta.class_ids == set(range(4))
    _, per_task = run_sequence(stream, Strategy.PER_TASK, QUICK,
                               return_adapters=True)
    assert len(per_task) == 2
    assert per_task[0].meta.task_id == 1


def _stream_union(stream):
    return functools.reduce(TaskMeta.union, (t.meta for t in stream.tasks))


def test_run_sequence_single_finetune_deploys_the_union_meta():
    stream = _tiny_stream()
    _, modules = run_sequence(stream, Strategy.SINGLE_FINETUNE, QUICK,
                              return_adapters=True)
    assert modules[0].meta == _stream_union(stream)


def test_every_single_member_strategy_deploys_the_stream_union():
    # a fold unions the metadata it absorbs and a replaced member does the
    # same, so a deployed header names every class and sample it serves
    stream = _tiny_stream(total_classes=6, num_tasks=3)
    want = _stream_union(stream)
    assert (want.task_id, want.class_ids, want.sample_count) == \
        (3, frozenset(range(6)), sum(t.meta.sample_count for t in stream.tasks))
    strategies = [s for s in Strategy if s not in sim.PER_TASK_STRATEGIES]
    for strategy, (_, (module,)) in zip(strategies,
                                        run_strategies(stream, strategies, QUICK)):
        assert module.meta == want, strategy


def test_run_sequence_backbone_deploys_the_identity_adapter():
    stream = _tiny_stream(total_classes=6, num_tasks=3)
    report, (module,) = run_sequence(stream, Strategy.BACKBONE, QUICK,
                                     return_adapters=True)
    assert [w.shape for w in module.layers] == [(sim.BACKBONE_DIM, 4),
                                                (4, sim.BACKBONE_DIM)]
    assert not any(w.any() for w in module.layers)
    assert module.meta == _stream_union(stream)
    assert report.strategy == "backbone" and report.svd_calls == 0
    assert report.timings["merge_ms"] == [0.0] * 3


def test_run_sequence_single_task_stream():
    report = run_sequence(_single_task_stream(), Strategy.AVERAGE, QUICK)
    assert len(report.step_acc) == 1
    assert report.acc_matrix[0][0] == report.step_acc[0]


def test_run_sequence_rejects_raw_strings():
    with pytest.raises(ConfigError):
        run_sequence(_tiny_stream(), "one-a", QUICK)


@pytest.mark.parametrize("order", ["given", "reversed"])
def test_run_strategies_matches_run_sequence_per_strategy(order):
    stream = _tiny_stream(total_classes=6, num_tasks=3)
    strategies = list(Strategy)
    if order == "reversed":
        strategies.reverse()
    results = run_strategies(stream, strategies, QUICK)
    assert [r.strategy for r, _ in results] == [s.value for s in strategies]
    for strategy, (report, adapters) in zip(strategies, results):
        alone, alone_adapters = run_sequence(stream, strategy, QUICK,
                                             return_adapters=True)
        assert report.canonical_bytes() == alone.canonical_bytes(), strategy
        assert [serialize(m) for m in adapters] == \
            [serialize(m) for m in alone_adapters], strategy
        assert len(report.timings["merge_ms"]) == len(stream.tasks)


@pytest.mark.parametrize("strategies, stacks", [
    (list(Strategy), ["fresh", "fresh+continued", "fresh+continued"]),
    ([Strategy.SINGLE_FINETUNE], ["fresh", "continued", "continued"]),
    ([Strategy.PER_TASK, Strategy.ONE_A], ["fresh", "fresh", "fresh"]),
    ([Strategy.SINGLE_FINETUNE, Strategy.ONE_A, Strategy.SINGLE_FINETUNE],
     ["fresh", "fresh+continued", "fresh+continued"]),
    ([Strategy.BACKBONE], []),
    ([Strategy.BACKBONE, Strategy.SINGLE_FINETUNE], ["fresh", "continued", "continued"]),
])
def test_run_strategies_trains_each_task_in_one_call(monkeypatch, strategies, stacks):
    calls = []

    def recording(task, backbone, cfg, inits=(None,), **kwargs):
        calls.append("+".join("fresh" if init is None else "continued"
                              for init in inits))
        return train_task(task, backbone, cfg, inits, **kwargs)

    monkeypatch.setattr(sim, "train_task", recording)
    results = run_strategies(_tiny_stream(total_classes=6, num_tasks=3),
                             strategies, QUICK)
    assert calls == stacks
    # a strategy listed twice shares one continuation: equal bytes twice
    first = {}
    for strategy, (report, adapters) in zip(strategies, results):
        got = (report.canonical_bytes(), [serialize(m) for m in adapters])
        assert first.setdefault(strategy, got) == got, strategy


def _rescored_per_task(tasks, adapters, banks, backbone):
    """Reference per-task record: every member rescored over every test
    row seen so far at each step."""
    t_total = len(tasks)
    acc = [[None] * t_total for _ in range(t_total)]
    step_acc = []
    for idx in range(t_total):
        seen = tasks[:idx + 1]
        h = backbone.features(np.concatenate([t.data.test_x for t in seen]))
        _, preds = sim._predict_across_banks(h, adapters[:idx + 1], banks[:idx + 1])
        correct = preds == np.concatenate([t.data.test_y for t in seen])
        step_acc.append(float(np.mean(correct)))
        offset = 0
        for j, task in enumerate(seen):
            width = task.data.test_x.shape[0]
            acc[j][idx] = float(np.mean(correct[offset:offset + width]))
            offset += width
    return acc, step_acc


@pytest.mark.parametrize("spec", [
    dict(total_classes=12, num_tasks=6),
    dict(total_classes=12, num_tasks=8, order=TaskOrder.DESCENDING,
         samples_per_class=3),
], ids=["permuted", "descending-one-row-blocks"])
def test_per_task_running_best_matches_full_rescoring(monkeypatch, spec):
    stream = _tiny_stream(**spec)
    banks, backbones = [], []

    def recording(adapter, backbone, data, class_ids=None):
        banks.append(compute_prototypes(adapter, backbone, data, class_ids))
        backbones.append(backbone)
        return banks[-1]

    monkeypatch.setattr(sim, "compute_prototypes", recording)
    report, adapters = run_strategies(stream, [Strategy.PER_TASK], QUICK)[0]
    acc, step_acc = _rescored_per_task(stream.tasks, adapters, banks, backbones[0])
    assert report.acc_matrix == acc
    assert report.step_acc == step_acc


def test_per_task_running_best_on_exact_ties():
    # one-hot prototypes under an identity backbone and adapter make every
    # score one feature entry, so scores tie exactly within and across
    # members, whatever the number of rows scored at once
    d = 3
    backbone = Backbone(projection=np.eye(d))
    rng = np.random.default_rng(5)
    class_sets = [(5, 1), (3,), (0, 4), (2,), (7, 6)]
    run = sim._StrategyRun(Strategy.PER_TASK, len(class_sets), backbone,
                           MergeConfig())
    tasks, adapters = [], []
    for idx, cids in enumerate(class_sets):
        train_y = np.repeat(cids, 2)
        test_x = rng.integers(0, 3, size=(idx + 2, d)).astype(float)
        test_x[test_x.sum(axis=1) == 0.0] = 1.0
        data = SyntheticDataset(train_x=2.0 * np.eye(d)[train_y % d], train_y=train_y,
                                test_x=test_x, test_y=rng.choice(cids, idx + 2))
        tasks.append(Task(meta=TaskMeta(task_id=idx + 1, class_ids=frozenset(cids),
                                        sample_count=train_y.size), data=data))
        adapters.append(make_module([np.ones((d, 1)), np.zeros((1, d))],
                                    task_id=idx + 1, class_ids=cids))
        seen = tasks[:idx + 1]
        run.step(idx, tasks[-1], adapters[-1],
                 backbone.features(np.concatenate([t.data.test_x for t in seen])),
                 np.concatenate([t.data.test_y for t in seen]),
                 [t.data.test_x.shape[0] for t in seen])
    acc, step_acc = _rescored_per_task(tasks, adapters, run.banks, backbone)
    assert run.acc_matrix == acc
    assert run.step_acc == step_acc


def test_per_task_scores_each_member_on_each_test_row_once(monkeypatch):
    stream = _tiny_stream(total_classes=12, num_tasks=6)
    rows, calls = [], []    # scored rows and adapter forwards, per step
    in_prototypes = False

    def counting(h, w_down, w_up):
        if not in_prototypes:
            rows[-1] += h.shape[0]
            calls[-1] += 1
        return sim_adapter_forward(h, w_down, w_up)

    def marking(*args, **kwargs):
        nonlocal in_prototypes
        rows.append(0)
        calls.append(0)
        in_prototypes = True
        try:
            return compute_prototypes(*args, **kwargs)
        finally:
            in_prototypes = False

    sim_adapter_forward = sim.adapter_forward
    monkeypatch.setattr(sim, "adapter_forward", counting)
    monkeypatch.setattr(sim, "compute_prototypes", marking)
    run_strategies(stream, [Strategy.PER_TASK], QUICK)
    t_total = len(stream.tasks)
    test_rows = sum(t.data.test_x.shape[0] for t in stream.tasks)
    assert calls == list(range(1, t_total + 1))
    assert sum(rows) == t_total * test_rows


def test_run_strategies_rejects_empty_and_unknown():
    with pytest.raises(ConfigError):
        run_strategies(_tiny_stream(), [], QUICK)
    with pytest.raises(ConfigError):
        run_strategies(_tiny_stream(), [Strategy.ONE_A, "average"], QUICK)


def test_zero_updates_fold_like_any_other():
    # one class per task at batch size 1: no batch holds a contrastive
    # pair, so every w_up keeps its zero init, each one-a merge meets an
    # all-zero base, and one-a's folded w_up stays zero too
    stream = build_stream(StreamSpec(total_classes=4, num_tasks=4,
                                     order=TaskOrder.BALANCED))
    results = run_strategies(stream, list(Strategy), TrainConfig(batch_size=1))
    for _, adapters in results:
        assert all(not module.layers[1].any() for module in adapters)
    reports = [report for report, _ in results]
    for report in reports[1:]:
        assert report.step_acc == reports[0].step_acc
        assert report.acc_matrix == reports[0].acc_matrix


@pytest.mark.parametrize("order", [TaskOrder.PERMUTED_HEAD_TAIL, TaskOrder.DESCENDING])
@pytest.mark.parametrize("seed", [0, 1])
def test_zero_epochs_match_the_backbone_floor(order, seed):
    # no epoch leaves every w_up at zero, so every strategy's adapter is
    # the identity and scores exactly as the backbone strategy does
    stream = build_stream(StreamSpec(total_classes=20, num_tasks=5, order=order,
                                     seed=seed))
    cfg = TrainConfig(epochs_min=0, epochs_max=0, seed=seed)
    results = run_strategies(stream, list(Strategy), cfg)
    floor = results[list(Strategy).index(Strategy.BACKBONE)][0]
    for report, _ in results:
        assert report.step_acc == floor.step_acc, report.strategy
        assert report.acc_matrix == floor.acc_matrix, report.strategy


def test_fold_first_task_and_non_merge_strategies():
    # the first task has nothing to fold into: each fold strategy keeps the
    # task's fresh adapter as per-task does, with no merge time and no SVD
    results = run_strategies(_single_task_stream(),
                             [Strategy.PER_TASK, *sim.FOLD_STRATEGIES], QUICK)
    (fresh,) = results[0][1]
    for report, (adapter,) in results[1:]:
        assert modules_equal(adapter, fresh), report.strategy
        assert report.timings["merge_ms"] == [0.0] and report.svd_calls == 0
    rng = np.random.default_rng(3)
    new = make_module([rng.normal(size=(4, 2)), rng.normal(size=(2, 4))])
    cfg = MergeConfig()
    for strategy in (Strategy.PER_TASK, Strategy.SINGLE_FINETUNE,
                     Strategy.BACKBONE, "one-a"):
        with pytest.raises(ConfigError):
            fold(strategy, new, new, 1, cfg)


@pytest.mark.parametrize("new_samples, carried_samples",
                         [(80, 40), (40, 80), (40, 40)],
                         ids=["new-is-base", "carried-is-base", "tie"])
def test_fold_trace_matches_an_oracle(new_samples, carried_samples):
    # the trace must be what the merge decided: rebuild it afterwards from
    # select_roles, info_weights and numpy's spectrum; layer 0 is rank 1
    rng = np.random.default_rng(4)
    cfg = MergeConfig()

    def module(task_id, class_ids, samples):
        return make_module([np.outer(rng.normal(size=4), rng.normal(size=2)),
                            rng.normal(size=(2, 4))], task_id=task_id,
                           class_ids=class_ids, sample_count=samples)

    new = module(2, (2,), new_samples)
    carried = module(1, (0, 1, 3), carried_samples)
    merged, trace = fold(Strategy.ONE_A, carried, new, 1, cfg)
    assert modules_equal(merged, merge_modules(new, carried, cfg))
    base, align = select_roles(new, carried)
    layers = []
    for b, a in zip(base.layers, align.layers):
        s = np.linalg.svd(b, compute_uv=False)
        layers.append((int(np.count_nonzero(s > cfg.rank_eps * s[0])),
                       *info_weights(base.meta, align.meta, b, a, cfg)))
    assert trace == MergeTrace(base=base.meta, align=align.meta,
                               layers=tuple(layers))
    assert [rank for rank, _, _ in trace.layers] == [1, 2]

    _, trace = fold(Strategy.SYMMETRIC, carried, new, 1, cfg)
    weights = info_weights(carried.meta, new.meta, carried.layers[0],
                           new.layers[0], cfg)
    assert trace == MergeTrace(base=carried.meta, align=new.meta,
                               layers=((None, *weights),) * 2)
    assert fold(Strategy.AVERAGE, carried, new, 1, cfg)[1] is None
