"""Singular-direction merge: decomposition, alignment, gating, baselines."""

import dataclasses
import math

import numpy as np
import pytest

from onea import (ConfigError, GateVector, MergeConfig, NumericError,
                  ShapeError, StreamSpec, Strategy, TaskMeta,
                  TrainConfig, build_stream, gate_vector, info_weights,
                  merge_average, merge_layer, merge_modules, merge_symmetric,
                  run_sequence, select_roles, thin_svd)
from onea import merge
from onea.counters import SVD_CALLS
from onea.merge import _effective_rank, _linear_quantile, _logistic

from conftest import (make_module, reference_merge_layer,
                      reference_merge_symmetric, reference_svd)

CFG = MergeConfig()


def _meta(task_id=1, class_ids=(0,), sample_count=10):
    return TaskMeta(task_id=task_id, class_ids=frozenset(class_ids),
                    sample_count=sample_count)


# -------------------------------------------------------------- MergeConfig

@pytest.mark.parametrize("kwargs", [
    {"info_proxy": None}, {"info_proxy": 0},
    {"info_proxy": "frobenius"}, {"info_proxy": "class-count"},
])
def test_merge_config_validation(kwargs):
    # info_proxy is no field: the weights are always the class-count pair,
    # so passing it is a TypeError whatever the value, its old default too
    with pytest.raises(TypeError):
        MergeConfig(**kwargs)


def test_merge_config_gate_shapes_are_constants():
    # the four gate constants keep their values, MergeConfig has no
    # field, and neither quantile_q nor sharpness_kappa can be passed
    assert (MergeConfig.quantile_q, MergeConfig.sharpness_kappa, MergeConfig.delta,
            MergeConfig.rank_eps) == (0.5, 10.0, 1e-6, 1e-10)
    assert dataclasses.fields(MergeConfig) == ()
    for name, value in (("quantile_q", 0.3), ("sharpness_kappa", 5.0)):
        with pytest.raises(TypeError):
            MergeConfig(**{name: value})


# --------------------------------------------------------------- GateVector

def test_gate_vector_validation():
    with pytest.raises(ShapeError):
        GateVector(g=np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        GateVector(g=np.array([]))
    with pytest.raises(NumericError):
        GateVector(g=np.array([-0.1, 0.5]))
    with pytest.raises(NumericError):
        GateVector(g=np.array([0.5, 1.5]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericError):
            GateVector(g=np.array([bad, 0.5]))
    gate = GateVector(g=np.array([0.0, 0.5, 1.0]))
    assert not gate.g.flags.writeable


# ----------------------------------------------------------------- thin_svd

def test_thin_svd_reconstructs_and_matches_eig_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        w = rng.normal(size=(rng.integers(1, 9), rng.integers(1, 9)))
        dec = thin_svd(w)
        recon = (dec.U * dec.sigma) @ dec.V.T
        assert np.linalg.norm(recon - w) <= 1e-8 * max(1.0, np.linalg.norm(w))
        oracle = np.sqrt(np.maximum(np.linalg.eigvalsh(w.T @ w), 0.0))[::-1]
        k = min(w.shape)
        assert np.allclose(dec.sigma, oracle[:k], atol=1e-8)


def test_thin_svd_returns_lapack_factors():
    rng = np.random.default_rng(1)
    for shape in ((6, 4), (4, 6), (1, 1), (5, 5)):
        w = rng.normal(size=shape)
        u, s, vt = np.linalg.svd(w, full_matrices=False)
        dec = thin_svd(w)
        assert np.array_equal(dec.U, u)
        assert np.array_equal(dec.sigma, s)
        assert np.array_equal(dec.V, vt.T)


def test_thin_svd_factors_are_read_only():
    dec = thin_svd(np.random.default_rng(3).normal(size=(5, 3)))
    for factor in (dec.U, dec.sigma, dec.V):
        assert not factor.flags.writeable
        with pytest.raises(ValueError):
            factor[0] = 1.0


def test_thin_svd_is_deterministic():
    w = np.random.default_rng(2).normal(size=(5, 5))
    a, b = thin_svd(w), thin_svd(w)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.V, b.V)


def test_effective_rank():
    def rank(w, rank_eps=CFG.rank_eps):
        return _effective_rank(np.linalg.svd(w, compute_uv=False), rank_eps)

    assert rank(np.outer(np.ones(4), np.ones(3))) == 1
    assert rank(np.zeros((3, 3))) == 0
    assert rank(np.diag([4.0, 2.0, 1.0])) == 3
    # entries at exactly rank_eps * sigma_1 count as noise
    assert rank(np.diag([1.0, 1e-10, 1e-16]), rank_eps=1e-10) == 1


def test_thin_svd_counts_calls():
    before = SVD_CALLS.value
    thin_svd(np.eye(3))
    thin_svd(np.eye(2))
    assert SVD_CALLS.value - before == 2


def test_thin_svd_rejects_bad_input():
    with pytest.raises(ShapeError):
        thin_svd(np.ones(4))
    with pytest.raises(NumericError):
        thin_svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))


# ------------------------------------------------------------- select_roles

def test_select_roles_by_sample_count():
    big = make_module([np.eye(2)], sample_count=100)
    small = make_module([np.eye(2)], sample_count=10, task_id=2)
    assert select_roles(big, small) == (big, small)
    assert select_roles(small, big) == (big, small)


def test_select_roles_tie_prefers_new():
    new = make_module([np.eye(2)], sample_count=10)
    acc = make_module([np.eye(2)], sample_count=10, task_id=2)
    base, align = select_roles(new, acc)
    assert base is new
    assert align is acc


# ------------------------------------------------------------- info_weights

def test_info_weights_class_count():
    w = np.eye(2)
    w_b, w_a = info_weights(_meta(class_ids=(1, 2, 3)), _meta(class_ids=(9,)),
                            w, w, CFG)
    assert (w_b, w_a) == (0.75, 0.25)


def test_info_weights_are_convex():
    rng = np.random.default_rng(5)
    w_b, w_a = info_weights(_meta(class_ids=(1, 2)), _meta(class_ids=(3,)),
                            rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), CFG)
    assert math.isclose(w_b + w_a, 1.0)
    assert 0.0 <= w_a <= 1.0


# -------------------------------------------------------------- gate_vector

def test_gate_is_half_at_threshold_and_saturates(monkeypatch):
    # kappa=100 pushes the head to ~0 and the tail toward 1
    monkeypatch.setattr(MergeConfig, "sharpness_kappa", 100.0)
    gate = gate_vector(np.array([10.0, 1.0, 0.1]), CFG).g
    assert gate[0] < 1e-30
    assert gate[1] == 0.5
    assert abs(gate[2] - 0.999876605424014) < 1e-6    # logistic(9) by hand


def test_gate_equal_spectrum_all_half():
    gate = gate_vector(np.array([2.0, 2.0, 2.0, 2.0]), CFG).g
    assert np.array_equal(gate, np.full(4, 0.5))


def test_gate_monotone_non_increasing_in_score():
    rng = np.random.default_rng(6)
    for _ in range(50):
        sigma = np.sort(rng.uniform(0.01, 5.0, size=7))[::-1]
        gate = gate_vector(sigma, CFG).g
        assert np.all(np.diff(gate) >= -1e-15)   # scores fall, gates rise


def test_gate_ignores_directions_below_noise():
    # the sub-noise direction must not drag the threshold down
    sigma = np.array([1.0, 0.5, 1e-14])
    gate = gate_vector(sigma, CFG).g
    scores = sigma / (sigma[0] + CFG.delta)
    theta = np.quantile(scores[:2], 0.5)
    assert gate[1] == pytest.approx(1.0 / (1.0 + math.exp(-10.0 * (theta - scores[1]))),
                                    abs=1e-15)


def test_gate_vector_input_guards():
    with pytest.raises(ShapeError):
        gate_vector(np.array([]), CFG)
    with pytest.raises(ShapeError):
        gate_vector(np.ones((2, 2)), CFG)
    with pytest.raises(NumericError):
        gate_vector(np.array([1.0, -0.5]), CFG)
    with pytest.raises(NumericError):
        gate_vector(np.array([np.inf, 1.0]), CFG)
    with pytest.raises(NumericError):
        gate_vector(np.array([np.nan, 1.0]), CFG)
    # the first entry is read as sigma_1 and the head as the top directions
    with pytest.raises(NumericError):
        gate_vector(np.array([0.1, 5.0, 1.0]), CFG)


def _masked_logistic(x):
    # the piecewise form gate_vector used before its branch-free one
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _draw_pool(rng):
    """A non-increasing pool of 1-40 non-negative values spanning 1e-8 to
    1e8, often with ties and zeros."""
    n = int(rng.integers(1, 41))
    values = 10.0 ** rng.uniform(-8.0, 8.0, size=n)
    if rng.random() < 0.3:                       # ties
        values = rng.choice(values[:max(1, n // 3)], size=n)
    if rng.random() < 0.1:
        values[rng.random(n) < 0.3] = 0.0
    return np.sort(values)[::-1]


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def test_gate_threshold_is_numpy_linear_quantile_bit_for_bit():
    rng = np.random.default_rng(20)
    for _ in range(3000):
        pool = _draw_pool(rng)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0, float(rng.random())):
            got = _linear_quantile(pool, q)
            want = float(np.quantile(pool, q))
            assert got == want and _bits(got) == _bits(want), (pool, q)
    # a lone -0.0 comes back as +0.0: equal, though not the same bits
    for q in (0.0, 0.5, 1.0):
        assert _linear_quantile(np.array([-0.0]), q) == np.quantile([-0.0], q)


def test_logistic_matches_masked_form_bit_for_bit():
    rng = np.random.default_rng(21)
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 709.0, -709.0,
                      745.0, -745.0, 746.0, -746.0, 1e6, -1e6, np.inf, -np.inf])
    for x in (edges, rng.normal(scale=5.0, size=4000),
              rng.uniform(-800.0, 800.0, size=4000)):
        assert _logistic(x).tobytes() == _masked_logistic(x).tobytes()


def test_gate_vector_matches_numpy_quantile_gate_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(22)
    shapes = [(q, k) for q in (0.0, 0.3, 0.5, 1.0) for k in (0.5, 10.0, 1e4)]
    for _ in range(250):
        sigma = _draw_pool(rng)
        for q, k in shapes:
            monkeypatch.setattr(MergeConfig, "quantile_q", q)
            monkeypatch.setattr(MergeConfig, "sharpness_kappa", k)
            scores = sigma / (sigma[0] + CFG.delta)
            eff = int(np.count_nonzero(sigma > CFG.rank_eps * sigma[0])) \
                if sigma[0] > 0.0 else 0
            pool = scores[:eff] if eff else scores
            theta = float(np.quantile(pool, q))
            want = _masked_logistic(k * (theta - scores))
            assert gate_vector(sigma, CFG).g.tobytes() == want.tobytes()


# -------------------------------------------------------------- merge_layer

def test_merge_layer_zero_gate_returns_base():
    # the gated update is exactly zero, so a base without -0.0 entries
    # comes back bit for bit
    rng = np.random.default_rng(7)
    for shape in ((5, 4), (32, 8), (8, 32)):
        w_b = rng.normal(size=shape)
        w_a = rng.normal(size=shape)
        zero = GateVector(g=np.zeros(min(shape)))
        out = merge_layer(w_b, w_a, 0.5, 0.5, CFG, gate=zero)
        assert out.tobytes() == w_b.tobytes()


def test_merge_layer_one_gate_is_full_fusion():
    rng = np.random.default_rng(8)
    w_b = rng.normal(size=(4, 4))
    w_a = rng.normal(size=(4, 4))
    ones = GateVector(g=np.ones(4))
    out = merge_layer(w_b, w_a, 0.3, 0.7, CFG, gate=ones)
    u, s, v, _ = reference_svd(w_b)
    fused = 0.3 * v + 0.7 * (w_a.T @ u) / s
    assert np.allclose(out, (u * s) @ fused.T, atol=1e-12)


def test_merge_layer_zeroes_noise_directions():
    # a rank-1 base: the align update enters through the one direction
    # above noise only, so the merge stays in the base's column space
    base = np.outer(np.arange(1.0, 5.0), np.ones(3))
    w_a = np.random.default_rng(4).normal(size=(4, 3))
    u, _, _, eff = reference_svd(base)
    assert eff == 1
    out = merge_layer(base, w_a, 0.3, 0.7, CFG, gate=GateVector(g=np.ones(3)))
    want = reference_merge_layer(base, w_a, 0.3, 0.7, gate=np.ones(3))
    assert np.allclose(out, want, atol=1e-12)
    u0 = u[:, :1]
    assert np.allclose(out - u0 @ (u0.T @ out), 0.0, atol=1e-12)


def _reference_inputs(rng):
    """(base, align, gate or None, rank_eps): full-rank bases at the stock
    rank_eps and at 0.5, which cuts the effective rank and so exercises
    the rows past it; all-one, all-zero and random gate overrides; all-zero
    bases of several shapes with and without a gate override; and
    rank-deficient bases (rank 1 to min(shape) - 1)."""
    for shape in ((6, 6), (32, 8), (8, 32)):
        r = min(shape)
        for _ in range(5):
            base, align = rng.normal(size=shape), rng.normal(size=shape)
            for rank_eps in (1e-10, 0.5):
                yield base, align, None, rank_eps
            for gate in (np.ones(r), np.zeros(r), rng.uniform(0.0, 1.0, size=r)):
                yield base, align, gate, 1e-10
    for shape in ((3, 3), (4, 2), (2, 5), (1, 1), (6, 1)):
        w_a = rng.normal(size=shape)
        yield np.zeros(shape), w_a, None, 1e-10
        yield np.zeros(shape), w_a, rng.uniform(0.0, 1.0, size=min(shape)), 1e-10
    for shape in ((6, 6), (5, 3), (3, 7)):
        for rank in range(1, min(shape)):
            base = rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
            yield base, rng.normal(size=shape), None, 1e-10
            yield base, rng.normal(size=shape), None, 0.5


def _assert_matches_reference(base, align, w_b, w_a, gate, rank_eps, monkeypatch,
                              q=0.5):
    """merge_layer's closed form equals the reference's direction-by-
    direction V-frame route within 1e-12 relative, with the constants
    MergeConfig.rank_eps and quantile_q patched to rank_eps and q; returns
    the merge."""
    monkeypatch.setattr(MergeConfig, "rank_eps", rank_eps)
    monkeypatch.setattr(MergeConfig, "quantile_q", q)
    got = merge_layer(base, align, w_b, w_a, CFG,
                      gate=None if gate is None else GateVector(g=gate))
    want = reference_merge_layer(base, align, w_b, w_a, q=q, rank_eps=rank_eps,
                                 gate=gate)
    scale = np.linalg.norm(base) + np.linalg.norm(align)
    assert np.linalg.norm(got - want) <= 1e-12 * scale
    return got


def test_merge_layer_matches_reference(monkeypatch):
    rng = np.random.default_rng(9)
    for w_b, w_a, gate, rank_eps in _reference_inputs(rng):
        w_align = rng.uniform(0.1, 0.9)
        got = _assert_matches_reference(w_b, w_a, 1.0 - w_align, w_align,
                                        gate, rank_eps, monkeypatch)
        if not w_b.any():    # rank 0: nothing of the align update passes
            assert np.array_equal(got, np.zeros_like(w_b))


@pytest.mark.parametrize("q", [0.0, 1.0])
def test_merge_layer_matches_reference_at_the_quantile_ends(q, monkeypatch):
    # the clipped ends of numpy's linear quantile: the gate threshold is the
    # pool's smallest score at q = 0 and its largest at q = 1
    rng = np.random.default_rng(24)
    for w_b, w_a, gate, rank_eps in _reference_inputs(rng):
        if gate is None:
            w_align = rng.uniform(0.1, 0.9)
            _assert_matches_reference(w_b, w_a, 1.0 - w_align, w_align, None,
                                      rank_eps, monkeypatch, q=q)


def test_merge_layer_matches_reference_on_a_one_a_run(monkeypatch):
    # every layer of every fold of a stock 20/5 one-a run, with the
    # weights that the run passed; the run reads the gate constants from
    # MergeConfig, so a patched quantile_q reaches every one of its merges
    original = merge._merge_layer
    for q in (0.5, 0.25):
        calls = []

        def recording(base_w, align_w, w_b, w_a, gate=None):
            merged = original(base_w, align_w, w_b, w_a, gate)
            calls.append((base_w, align_w, w_b, w_a, merged[0]))
            return merged

        with monkeypatch.context() as patch:  # merge_layer below runs _merge_layer too
            patch.setattr(merge, "_merge_layer", recording)
            patch.setattr(MergeConfig, "quantile_q", q)
            run_sequence(build_stream(StreamSpec(total_classes=20, num_tasks=5)),
                         Strategy.ONE_A, TrainConfig())
        assert len(calls) == 2 * 4
        for base_w, align_w, w_b, w_a, got in calls:
            want = _assert_matches_reference(base_w, align_w, w_b, w_a, None,
                                             MergeConfig.rank_eps, monkeypatch, q=q)
            assert got.tobytes() == want.tobytes()
    # the patched quantile moved the run's merges off the stock gate
    assert any(not np.allclose(got, reference_merge_layer(b, a, w_b, w_a))
               for b, a, w_b, w_a, got in calls)


def test_merge_layer_guards():
    with pytest.raises(ShapeError):
        merge_layer(np.eye(3), np.eye(2), 0.5, 0.5, CFG)
    with pytest.raises(ShapeError):
        merge_layer(np.eye(3), np.ones((4, 3)), 0.5, 0.5, CFG)
    with pytest.raises(ShapeError):
        merge_layer(np.eye(3), np.eye(3), 0.5, 0.5, CFG,
                    gate=GateVector(g=np.array([0.5])))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x", True,
                                 3.0, -2.0])
@pytest.mark.parametrize("slot", ["w_b", "w_a"])
def test_merge_weights_must_be_finite_and_in_unit_interval(slot, bad):
    weights = {"w_b": 0.5, "w_a": 0.5, slot: bad}
    acc = make_module([np.eye(3)], task_id=1)
    new = make_module([np.eye(3)], task_id=2)
    with pytest.raises(ConfigError, match=slot):
        merge_layer(np.eye(3), np.eye(3), cfg=CFG, **weights)
    with pytest.raises(ConfigError, match=slot):
        merge_symmetric(new, acc, cfg=CFG, **weights)


def test_gated_merge_never_exceeds_full_fusion_distance():
    rng = np.random.default_rng(10)
    for _ in range(100):
        w_b = rng.normal(size=(6, 5))
        w_a = rng.normal(size=(6, 5))
        base = merge_layer(w_b, w_a, 0.5, 0.5, CFG,
                           gate=GateVector(g=np.zeros(5)))
        full = merge_layer(w_b, w_a, 0.5, 0.5, CFG,
                           gate=GateVector(g=np.ones(5)))
        gated = merge_layer(w_b, w_a, 0.5, 0.5, CFG)
        assert (np.linalg.norm(gated - base)
                <= np.linalg.norm(full - base) + 1e-12)


def test_dominant_direction_moves_least():
    # relative movement per direction (vs the ungated fusion) must grow
    # from the strongest singular direction to the weakest
    rng = np.random.default_rng(11)
    for _ in range(100):
        w_b = rng.normal(size=(6, 6))
        w_a = rng.normal(size=(6, 6))
        u, s, v, _ = reference_svd(w_b)
        fused = 0.5 * v + 0.5 * (w_a.T @ u) / s
        gate = gate_vector(s, CFG).g
        delta = np.linalg.norm(fused - v, axis=0)
        moved = gate * delta
        usable = delta > 1e-12
        ratios = moved[usable] / delta[usable]
        assert np.all(np.diff(ratios) >= -1e-12)


# ------------------------------------------------------------ merge_modules

def test_merge_modules_requires_matching_layers():
    a = make_module([np.eye(2), np.eye(2)])
    b = make_module([np.eye(3), np.eye(3)], task_id=2)
    with pytest.raises(ShapeError):
        merge_modules(a, b, CFG)


def test_merge_modules_spends_one_svd_per_layer():
    rng = np.random.default_rng(12)
    shapes = [(4, 2), (2, 4), (4, 3), (3, 4)]
    new = make_module([rng.normal(size=s) for s in shapes], task_id=2,
                      class_ids=(2, 3), sample_count=80)
    acc = make_module([rng.normal(size=s) for s in shapes], task_id=1,
                      class_ids=(0, 1), sample_count=40)
    before = SVD_CALLS.value
    merged = merge_modules(new, acc, CFG)
    assert SVD_CALLS.value - before == len(shapes)
    assert merged.meta.task_id == 2
    assert merged.meta.class_ids == frozenset({0, 1, 2, 3})
    assert merged.meta.sample_count == 120
    assert [w.shape for w in merged.layers] == shapes


def test_merge_modules_self_merge_is_idempotent():
    rng = np.random.default_rng(13)
    for _ in range(20):
        layers = [rng.normal(size=(5, 3)), rng.normal(size=(3, 5))]
        a = make_module(layers, task_id=1, sample_count=50)
        b = make_module(layers, task_id=2, class_ids=(1,), sample_count=50)
        merged = merge_modules(a, b, CFG)
        for got, want in zip(merged.layers, layers):
            assert np.allclose(got, want, atol=1e-8)


# ------------------------------------------------------------ merge_average

def test_merge_average_hand_values():
    acc = make_module([np.ones((2, 2))], task_id=1)
    new = make_module([5.0 * np.ones((2, 2))], task_id=2)
    assert np.array_equal(merge_average(new, acc, 1).layers[0],
                          3.0 * np.ones((2, 2)))
    assert np.array_equal(merge_average(new, acc, 3).layers[0],
                          2.0 * np.ones((2, 2)))


def test_merge_average_running_mean_equals_batch_mean():
    rng = np.random.default_rng(14)
    stacks = [rng.normal(size=(3, 3)) for _ in range(4)]
    modules = [make_module([w], task_id=i + 1) for i, w in enumerate(stacks)]
    merged = modules[0]
    for n, module in enumerate(modules[1:], start=1):
        merged = merge_average(module, merged, n)
    assert np.allclose(merged.layers[0], np.mean(stacks, axis=0), atol=1e-12)


def test_merge_average_guards():
    a = make_module([np.eye(2)])
    b = make_module([np.eye(2)], task_id=2)
    with pytest.raises(ConfigError):
        merge_average(a, b, 0)
    with pytest.raises(ShapeError):
        merge_average(a, make_module([np.eye(3)], task_id=2), 1)


# ---------------------------------------------------------- merge_symmetric

def test_merge_symmetric_matches_reference():
    rng = np.random.default_rng(15)
    for _ in range(10):
        acc_w = rng.normal(size=(6, 6))
        new_w = rng.normal(size=(6, 6))
        acc = make_module([acc_w], task_id=1)
        new = make_module([new_w], task_id=2)
        w_new = rng.uniform(0.1, 0.9)
        got = merge_symmetric(new, acc, 1.0 - w_new, w_new, CFG).layers[0]
        want = reference_merge_symmetric(acc_w, new_w, 1.0 - w_new, w_new)
        assert np.linalg.norm(got - want) <= 1e-10


def test_merge_symmetric_self_merge_is_idempotent():
    rng = np.random.default_rng(16)
    for _ in range(20):
        w = rng.normal(size=(4, 5))
        a = make_module([w], task_id=1)
        b = make_module([w], task_id=2)
        merged = merge_symmetric(b, a, 0.5, 0.5, CFG)
        assert np.allclose(merged.layers[0], w, atol=1e-8)


def test_merge_symmetric_guards():
    a = make_module([np.eye(2)])
    with pytest.raises(ShapeError):
        merge_symmetric(a, make_module([np.eye(3)], task_id=2), 0.5, 0.5, CFG)


@pytest.mark.parametrize("other", [[np.eye(3)], [np.eye(2), np.eye(2)]],
                         ids=["layer-shape", "layer-count"])
def test_merges_reject_a_mismatched_pair_alike(other):
    new = make_module([np.eye(2)], task_id=2)
    acc = make_module(other)
    merges = (lambda: merge_modules(new, acc, CFG),
              lambda: merge_average(new, acc, 1),
              lambda: merge_symmetric(new, acc, 0.5, 0.5, CFG))
    before = SVD_CALLS.value
    for merge in merges:
        with pytest.raises(ShapeError) as err:
            merge()
        assert str(err.value) == "modules are not mergeable: layer shapes differ"
    assert SVD_CALLS.value == before


def test_merge_symmetric_is_the_linear_blend():
    # the thin SVD of [acc | new] reconstructs both blocks, so the
    # factorization cancels up to rounding
    rng = np.random.default_rng(17)
    for i in range(200):
        shape = ((32, 8), (8, 32), (5, 5), (1, 1))[i % 4]
        acc_w, new_w = (_sign_bases(rng, shape)[i % 5] for _ in range(2))
        w_new = rng.uniform(0.0, 1.0)
        got = merge_symmetric(make_module([new_w], task_id=2),
                              make_module([acc_w], task_id=1),
                              1.0 - w_new, w_new, CFG).layers[0]
        want = (1.0 - w_new) * acc_w + w_new * new_w
        scale = np.linalg.norm(np.concatenate([acc_w, new_w], axis=1))
        assert np.linalg.norm(got - want) <= 1e-12 * scale


# --------------------------------------------------------- sign invariance

def _sign_bases(rng, shape):
    """Random, rank-deficient, all-zero, single-entry and all -0.0 bases."""
    m, n = shape
    rank = min(shape) - 1    # 0 for a (1, 1) layer: the product is all zero
    deficient = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
    single = np.zeros(shape)
    single[rng.integers(m), rng.integers(n)] = rng.normal()
    return [rng.normal(size=shape), deficient, np.zeros(shape), single,
            np.full(shape, -0.0)]


def _signed_merge_layer(base_w, align_w, w_b, w_a, cfg, gate=None):
    """merge_layer's operations on reference_svd's sign-pinned factors:
    column i of u meets row i of u.T @ align_w and of s * v.T, and u_i and
    v_i flip together, so each product keeps its sign."""
    u, s, v, k = reference_svd(base_w, cfg.rank_eps)
    g = gate_vector(s, cfg).g if gate is None else gate.g
    update = (w_b - 1.0) * (s[:, None] * v.T)
    update[:k] += w_a * (u[:, :k].T @ align_w)
    return base_w + (u * g) @ update


def _signed_merge_symmetric(acc_w, new_w, w_b, w_a):
    """merge_symmetric's operations on reference_svd's sign-pinned factors."""
    u, s, v, _ = reference_svd(np.concatenate([acc_w, new_w], axis=1))
    d_in = acc_w.shape[1]
    return (u * s) @ (w_b * v[:d_in] + w_a * v[d_in:]).T


@pytest.mark.parametrize("shape", [(32, 8), (8, 32), (1, 1), (5, 5)])
def test_merges_do_not_depend_on_svd_signs(shape):
    rng = np.random.default_rng(18)
    bases = _sign_bases(rng, shape)
    flipped = 0
    for base in bases:
        u = np.linalg.svd(base, full_matrices=False)[0]
        flipped += int(not np.array_equal(u, reference_svd(base)[0]))
        for align in bases + [rng.normal(size=shape)]:
            w_a = rng.uniform(0.0, 1.0)
            gate = GateVector(g=rng.uniform(0.0, 1.0, size=min(shape)))
            for g in (None, gate):
                got = merge_layer(base, align, 1.0 - w_a, w_a, CFG, gate=g)
                want = _signed_merge_layer(base, align, 1.0 - w_a, w_a, CFG, g)
                assert got.tobytes() == want.tobytes()
            got = merge_symmetric(make_module([align], task_id=2),
                                  make_module([base], task_id=1),
                                  1.0 - w_a, w_a, CFG).layers[0]
            want = _signed_merge_symmetric(base, align, 1.0 - w_a, w_a)
            assert got.tobytes() == want.tobytes()
            new = make_module([base, align.T], task_id=2, sample_count=30)
            acc = make_module([align, base.T], task_id=1, sample_count=20)
            for got, new_w, acc_w in zip(merge_modules(new, acc, CFG).layers,
                                         new.layers, acc.layers):
                w_b, w_a = info_weights(new.meta, acc.meta, new_w, acc_w, CFG)
                want = _signed_merge_layer(new_w, acc_w, w_b, w_a, CFG)
                assert got.tobytes() == want.tobytes()
    # the test means something only if reference_svd flipped some LAPACK sign
    assert flipped
