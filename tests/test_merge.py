"""Singular-direction merge: decomposition, alignment, gating, baselines."""

import math

import numpy as np
import pytest

from onea import (ConfigError, GateVector, InfoProxy, MergeConfig,
                  NumericError, ShapeError, TaskMeta,
                  gate_vector, info_weights, merge_average, merge_layer,
                  merge_modules, merge_symmetric, select_roles, thin_svd)
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
    {"quantile_q": -0.1}, {"quantile_q": 1.1},
    {"sharpness_kappa": 0.0}, {"delta": 0.0}, {"delta": -1.0},
    {"rank_eps": 0.0}, {"rank_eps": 1.0}, {"info_proxy": "class-count"},
])
def test_merge_config_validation(kwargs):
    with pytest.raises(ConfigError):
        MergeConfig(**kwargs)


def test_merge_config_boundary_quantiles_allowed():
    MergeConfig(quantile_q=0.0)
    MergeConfig(quantile_q=1.0)


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


def test_info_weights_frobenius_and_energy():
    base = np.array([[3.0, 0.0], [0.0, 0.0]])
    align = np.array([[1.0, 0.0], [0.0, 0.0]])
    cfg = MergeConfig(info_proxy=InfoProxy.FROBENIUS_NORM)
    assert info_weights(_meta(), _meta(), base, align, cfg) == (0.75, 0.25)
    cfg = MergeConfig(info_proxy=InfoProxy.SINGULAR_ENERGY)
    w_b, w_a = info_weights(_meta(), _meta(), base, align, cfg)
    assert math.isclose(w_b, 0.9) and math.isclose(w_a, 0.1)


def test_info_weights_zero_proxies_fall_back():
    cfg = MergeConfig(info_proxy=InfoProxy.FROBENIUS_NORM)
    zero = np.zeros((2, 2))
    # silently: the suite turns any warning into an error
    assert info_weights(_meta(), _meta(), zero, zero, cfg) == (0.5, 0.5)


def test_info_weights_are_convex():
    rng = np.random.default_rng(5)
    for proxy in InfoProxy:
        cfg = MergeConfig(info_proxy=proxy)
        w_b, w_a = info_weights(_meta(class_ids=(1, 2)), _meta(class_ids=(3,)),
                                rng.normal(size=(3, 3)),
                                rng.normal(size=(3, 3)), cfg)
        assert math.isclose(w_b + w_a, 1.0)
        assert 0.0 <= w_a <= 1.0


# -------------------------------------------------------------- gate_vector

def test_gate_is_half_at_threshold_and_saturates():
    # kappa=100 pushes the head to ~0 and the tail toward 1
    cfg = MergeConfig(sharpness_kappa=100.0)
    gate = gate_vector(np.array([10.0, 1.0, 0.1]), cfg).g
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


def test_gate_vector_matches_numpy_quantile_gate_bit_for_bit():
    rng = np.random.default_rng(22)
    configs = [MergeConfig(quantile_q=q, sharpness_kappa=k)
               for q in (0.0, 0.3, 0.5, 1.0) for k in (0.5, 10.0, 1e4)]
    for _ in range(250):
        sigma = _draw_pool(rng)
        for cfg in configs:
            scores = sigma / (sigma[0] + cfg.delta)
            eff = int(np.count_nonzero(sigma > cfg.rank_eps * sigma[0])) \
                if sigma[0] > 0.0 else 0
            pool = scores[:eff] if eff else scores
            theta = float(np.quantile(pool, cfg.quantile_q))
            want = _masked_logistic(cfg.sharpness_kappa * (theta - scores))
            assert gate_vector(sigma, cfg).g.tobytes() == want.tobytes()


# -------------------------------------------------------------- merge_layer

def test_merge_layer_zero_gate_returns_base():
    rng = np.random.default_rng(7)
    w_b = rng.normal(size=(5, 4))
    w_a = rng.normal(size=(5, 4))
    zero = GateVector(g=np.zeros(4))
    out = merge_layer(w_b, w_a, 0.5, 0.5, CFG, gate=zero)
    assert np.allclose(out, w_b, atol=1e-8)


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
    """(base, align, gate or None): full-rank 6x6 bases, all-zero bases of
    several shapes with and without a gate override, and rank-deficient
    bases (rank 1 to min(shape) - 1)."""
    for _ in range(10):
        yield rng.normal(size=(6, 6)), rng.normal(size=(6, 6)), None
    for shape in ((3, 3), (4, 2), (2, 5), (1, 1), (6, 1)):
        w_a = rng.normal(size=shape)
        yield np.zeros(shape), w_a, None
        yield np.zeros(shape), w_a, rng.uniform(0.0, 1.0, size=min(shape))
    for shape in ((6, 6), (5, 3), (3, 7)):
        for rank in range(1, min(shape)):
            base = rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
            yield base, rng.normal(size=shape), None


def test_merge_layer_matches_reference():
    rng = np.random.default_rng(9)
    for w_b, w_a, gate in _reference_inputs(rng):
        w_align = rng.uniform(0.1, 0.9)
        got = merge_layer(w_b, w_a, 1.0 - w_align, w_align, CFG,
                          gate=None if gate is None else GateVector(g=gate))
        want = reference_merge_layer(w_b, w_a, 1.0 - w_align, w_align, gate=gate)
        assert np.linalg.norm(got - want) <= 1e-10
        if not w_b.any():    # rank 0: nothing of the align update passes
            assert np.array_equal(got, np.zeros_like(w_b))


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

def test_merge_modules_first_task_passthrough():
    new = make_module([np.eye(2), np.eye(2)])
    assert merge_modules(new, None, CFG) is new


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
    assert merged.bottleneck == new.bottleneck


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
    """merge_layer's operations on reference_svd's sign-pinned factors."""
    u, s, v, k = reference_svd(base_w, cfg.rank_eps)
    v_aligned = np.zeros_like(v)
    v_aligned[:, :k] = (align_w.T @ u[:, :k]) / s[:k]
    v_fused = w_b * v + w_a * v_aligned
    g = gate_vector(s, cfg).g if gate is None else gate.g
    v_final = v + (v_fused - v) * g[None, :]
    return (u * s) @ v_final.T


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
            cfg = MergeConfig(info_proxy=InfoProxy.FROBENIUS_NORM)
            for got, new_w, acc_w in zip(merge_modules(new, acc, cfg).layers,
                                         new.layers, acc.layers):
                w_b, w_a = info_weights(new.meta, acc.meta, new_w, acc_w, cfg)
                want = _signed_merge_layer(new_w, acc_w, w_b, w_a, cfg)
                assert got.tobytes() == want.tobytes()
    # the test means something only if reference_svd flipped some LAPACK sign
    assert flipped
