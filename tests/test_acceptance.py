"""Acceptance gate: one test per release criterion.

Each criterion is stated next to its tolerances; the terminal summary
(see conftest) prints one PASS/FAIL line per criterion. Criteria c01-c08
and c10 are property or oracle checks; c09 is the directional strategy
comparison on descending desk-scale streams.
"""

import json
import time

import numpy as np

from onea import (Backbone, GateVector, MergeConfig, RunReport, Strategy,
                  StreamSpec, TaskOrder, TrainConfig, average_accuracy,
                  build_stream, classify, compute_prototypes, epoch_schedule,
                  forgetting, gate_vector, lambda_schedule, merge_layer,
                  merge_modules, merge_symmetric, run_sequence,
                  run_strategies, thin_svd)
from onea.cli import main
from onea.counters import ADAPTER_FORWARDS, SVD_CALLS
from onea.sim import objective, objective_grads

from conftest import (draw_gradcheck_batch, fd_gradient, make_module,
                      reference_merge_layer, reference_merge_symmetric)

CFG = MergeConfig()


# c01: a 100-class, 10-task stream at gamma=0.01 concentrates over 35
# classes in the head task while tail tasks hold 1-3 classes each; the
# counts partition the label space. Budget: under one second.
def test_c01_stream_shape(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "manifest.json"
    assert main(["gen-stream", "--classes", "100", "--tasks", "10",
                 "--gamma", "0.01", "--seed", "7", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - started
    manifest = json.loads(out.read_text())
    counts = sorted((t["class_count"] for t in manifest["tasks"]),
                    reverse=True)
    assert counts == [52, 14, 8, 6, 5, 4, 3, 3, 3, 2]
    assert counts[0] > 35
    assert sum(counts) == 100
    assert all(c in {1, 2, 3} for c in counts[-3:])
    assert elapsed < 1.0


# c02: decomposition oracle over 1,000 random matrices up to 16x16:
# reconstruction within 1e-8 * max(1, |W|_F) and singular values within
# 1e-8 of the eigenvalue route. Budget: under ten seconds.
def test_c02_svd_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        rows = int(rng.integers(1, 17))
        cols = int(rng.integers(1, 17))
        w = rng.normal(scale=rng.uniform(0.1, 3.0), size=(rows, cols))
        dec = thin_svd(w)
        recon = (dec.U * dec.sigma) @ dec.V.T
        assert np.linalg.norm(recon - w) <= 1e-8 * max(1.0, np.linalg.norm(w))
        eigs = np.linalg.eigvalsh(w.T @ w)
        oracle = np.sqrt(np.maximum(eigs, 0.0))[::-1][:min(rows, cols)]
        assert np.all(np.abs(dec.sigma - oracle) <= 1e-8)
    assert time.perf_counter() - started < 10.0


# c03: merge limits, 200 randomized trials each. (a) an all-zero gate
# reproduces the rank-truncated base within 1e-8; (b) merging a module
# with itself is the identity within 1e-8 for both mergers.
def test_c03_merge_limits():
    rng = np.random.default_rng(1)
    for trial in range(200):
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(2, 9))
        if trial % 2:
            w_b = rng.normal(size=(rows, cols))
        else:     # rank-deficient half
            k = int(rng.integers(1, min(rows, cols) + 1))
            w_b = rng.normal(size=(rows, k)) @ rng.normal(size=(k, cols))
        w_a = rng.normal(size=(rows, cols))
        gate = GateVector(g=np.zeros(min(rows, cols)))
        out = merge_layer(w_b, w_a, 0.5, 0.5, CFG, gate=gate)
        u, s, vt = np.linalg.svd(w_b, full_matrices=False)
        s = np.where(s > CFG.rank_eps * s[0], s, 0.0)
        assert np.allclose(out, (u * s) @ vt, atol=1e-8)

    for trial in range(200):
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(2, 9))
        layers = [rng.normal(size=(rows, cols)), rng.normal(size=(cols, rows))]
        a = make_module(layers, task_id=1, class_ids=(0, 1), sample_count=30)
        b = make_module(layers, task_id=2, class_ids=(2,), sample_count=30)
        merged = merge_modules(b, a, CFG)
        for got, want in zip(merged.layers, layers):
            assert np.allclose(got, want, atol=1e-8)
        sym = merge_symmetric(b, a, 0.5, 0.5, CFG)
        for got, want in zip(sym.layers, layers):
            assert np.allclose(got, want, atol=1e-8)


# c04: the production merges agree with independently written
# straight-line transcriptions to 1e-10 on 100 random 6x6 pairs.
def test_c04_dual_implementation():
    rng = np.random.default_rng(2)
    for _ in range(100):
        w_b = rng.normal(scale=rng.uniform(0.2, 2.0), size=(6, 6))
        w_a = rng.normal(scale=rng.uniform(0.2, 2.0), size=(6, 6))
        weight_a = float(rng.uniform(0.05, 0.95))
        weight_b = 1.0 - weight_a

        got = merge_layer(w_b, w_a, weight_b, weight_a, CFG)
        want = reference_merge_layer(w_b, w_a, weight_b, weight_a,
                                     q=CFG.quantile_q,
                                     kappa=CFG.sharpness_kappa,
                                     delta=CFG.delta, rank_eps=CFG.rank_eps)
        assert np.linalg.norm(got - want) <= 1e-10

        acc = make_module([w_b], task_id=1)
        new = make_module([w_a], task_id=2)
        got = merge_symmetric(new, acc, weight_b, weight_a, CFG).layers[0]
        want = reference_merge_symmetric(w_b, w_a, weight_b, weight_a,
                                         rank_eps=CFG.rank_eps)
        assert np.linalg.norm(got - want) <= 1e-10


# c05: the gate is exactly one half where a score sits on the threshold
# (|g - 0.5| <= 1e-12) and never increases as the score grows, over 100
# random spectra.
def test_c05_gate_law():
    rng = np.random.default_rng(3)
    for _ in range(100):
        size = int(rng.integers(1, 8)) * 2 + 1      # odd: exact quantile hit
        sigma = np.sort(rng.uniform(0.05, 5.0, size=size))[::-1]
        gate = gate_vector(sigma, CFG).g
        scores = sigma / (sigma[0] + CFG.delta)
        theta = float(np.quantile(scores, CFG.quantile_q))
        at_theta = np.isclose(scores, theta, rtol=0.0, atol=0.0)
        assert at_theta.any()
        assert np.all(np.abs(gate[at_theta] - 0.5) <= 1e-12)
        assert np.all(np.diff(gate) >= -1e-15)      # scores fall, gates rise


# c06: analytic gradients of the blended objective match central finite
# differences (step 1e-5) to relative error 1e-4 on 20 random batches.
def test_c06_gradient_check():
    rng = np.random.default_rng(4)
    for _ in range(20):
        h, y, params = draw_gradcheck_batch(rng)
        lam = float(rng.uniform(0.05, 0.5))
        _, grads = objective_grads(h, y, params, lam, 0.07)
        for name in ("w_down", "w_up", "head_w", "head_b"):
            fd = fd_gradient(lambda: objective(h, y, params, lam, 0.07)[0],
                             params[name], step=1e-5)
            err = np.linalg.norm(fd - grads[name])
            assert err <= 1e-4 * max(1.0, np.linalg.norm(grads[name])), name


# c07: schedule anchor points are exact: the contrastive weight starts at
# its maximum for single-class tasks and the epoch budget at the balanced
# task size equals the base budget.
def test_c07_schedules():
    cfg = TrainConfig()
    assert lambda_schedule(1, cfg) == cfg.lambda_max
    assert cfg.lambda_max == 0.1
    assert epoch_schedule(4, 20, 5, cfg) == cfg.epochs_base
    assert cfg.epochs_base == 15


# c08: accuracy-table metrics on a hand-built 3x3 table equal the
# hand-computed values exactly.
def test_c08_metric_oracle():
    report = RunReport(
        strategy="one-a", stream_seed=0, train_seed=0,
        class_counts=[2, 1, 2],
        acc_matrix=[[1.0, 0.75, 0.5],
                    [None, 0.75, 0.75],
                    [None, None, 1.0]],
        step_acc=[1.0, 0.75, 0.625],
        config={}, svd_calls=0)
    # task 0 peaks at 1.0 and ends at 0.5, task 1 holds steady
    assert forgetting(report) == (0.5 + 0.0) / 2.0
    assert average_accuracy(report) == (1.0 + 0.75 + 0.625) / 3.0


# c09: directional strategy ordering on desk-scale streams: 20 classes,
# 5 tasks, gamma=0.01, the big task first, seeds 0..9, stock settings.
# The asymmetric merge must beat both the running average and plain
# sequential finetuning on mean final accuracy, and forget no more than
# sequential finetuning, with each comparison holding on >= 8/10 seeds.
# Budget: under two minutes.
def test_c09_directional_ordering():
    started = time.perf_counter()
    finals = {s: [] for s in (Strategy.ONE_A, Strategy.AVERAGE,
                              Strategy.SINGLE_FINETUNE)}
    forgets = {s: [] for s in (Strategy.ONE_A, Strategy.SINGLE_FINETUNE)}
    for seed in range(10):
        stream = build_stream(StreamSpec(
            total_classes=20, num_tasks=5, gamma=0.01,
            order=TaskOrder.DESCENDING, seed=seed))
        cfg = TrainConfig(seed=seed)
        for strategy, (report, _) in zip(
                finals, run_strategies(stream, finals, cfg)):
            finals[strategy].append(report.step_acc[-1])
            if strategy in forgets:
                forgets[strategy].append(forgetting(report))

    onea = np.array(finals[Strategy.ONE_A])
    avg = np.array(finals[Strategy.AVERAGE])
    single = np.array(finals[Strategy.SINGLE_FINETUNE])
    f_onea = np.array(forgets[Strategy.ONE_A])
    f_single = np.array(forgets[Strategy.SINGLE_FINETUNE])

    assert onea.mean() >= avg.mean()
    assert onea.mean() >= single.mean()
    assert f_onea.mean() <= f_single.mean()
    assert int(np.sum(onea >= avg)) >= 8
    assert int(np.sum(onea >= single)) >= 8
    assert int(np.sum(f_onea <= f_single)) >= 8
    assert time.perf_counter() - started < 120.0


# c10: cost contracts. A module merge spends exactly one decomposition
# per layer, and classifying a sample through the merged adapter costs
# exactly one adapter forward no matter how many tasks were absorbed.
def test_c10_efficiency_contract():
    rng = np.random.default_rng(5)
    for n_layers in (2, 4):
        shapes = [(6, 3), (3, 6)] * (n_layers // 2)
        new = make_module([rng.normal(size=s) for s in shapes], task_id=2,
                          class_ids=(2,), sample_count=10)
        acc = make_module([rng.normal(size=s) for s in shapes], task_id=1,
                          class_ids=(0, 1), sample_count=20)
        before = SVD_CALLS.value
        merge_modules(new, acc, CFG)
        assert SVD_CALLS.value - before == n_layers

    cfg = TrainConfig(epochs_base=2, epochs_min=1, bottleneck=4)
    deltas = {}
    for tasks in (2, 5):
        stream = build_stream(StreamSpec(
            total_classes=10, num_tasks=tasks, gamma=0.1,
            samples_per_class=10, seed=0))
        report, (merged,) = run_sequence(stream, Strategy.ONE_A, cfg,
                                         return_adapters=True)
        assert report.svd_calls == 2 * (tasks - 1)
        backbone = Backbone.from_seed(32, 32, np.random.SeedSequence(
            entropy=cfg.seed, spawn_key=(0, 0)))
        bank = None
        for task in stream.tasks:
            fresh = compute_prototypes(merged, backbone, task.data,
                                       class_ids=task.meta.class_ids)
            bank = fresh if bank is None else bank.updated(fresh)
        queries = stream.tasks[0].data.test_x[:8]
        before = ADAPTER_FORWARDS.value
        for row in queries:
            classify(row, merged, backbone, bank)
        deltas[tasks] = ADAPTER_FORWARDS.value - before
        assert deltas[tasks] == len(queries)
    assert deltas[2] == deltas[5]
