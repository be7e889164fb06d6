"""Singular-direction merging of adapter modules.

One module pair is merged by decomposing the base update and moving it by
a gated projection of the information-weighted update onto the base's left
singular directions, so dominant directions stay close to the base; a
MergeTrace records what it decided.
Two baselines live here as well: a running average and a symmetric
concat-then-SVD merge, which works out to a linear blend of the two.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .adapter import AdapterModule, TaskMeta, as_matrix, freeze, mergeable
from .counters import SVD_CALLS
from .errors import (ConfigError, NumericError, ShapeError, check_float,
                     check_int)


class InfoProxy(enum.Enum):
    """How much a task knows, for weighting its update during fusion."""

    CLASS_COUNT = "class-count"
    FROBENIUS_NORM = "frobenius"
    SINGULAR_ENERGY = "singular-energy"


def _unit_interval(name: str, value) -> float:
    """check_float, then the [0, 1] range of quantile_q and the merge weights."""
    value = check_float(name, value)
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class MergeConfig:
    """Knobs of the asymmetric merge.

    quantile_q picks the gate threshold within the normalized spectrum and
    sharpness_kappa sets how hard the gate saturates. Two constants: delta
    guards the spectrum normalization, and rank_eps defines the effective
    rank: singular values at or below rank_eps * sigma_1 count as noise.
    """

    delta: ClassVar[float] = 1e-6
    rank_eps: ClassVar[float] = 1e-10
    quantile_q: float = 0.5
    sharpness_kappa: float = 10.0
    info_proxy: InfoProxy = InfoProxy.CLASS_COUNT

    def __post_init__(self):
        for name in ("quantile_q", "sharpness_kappa"):
            object.__setattr__(self, name, check_float(name, getattr(self, name)))
        _unit_interval("quantile_q", self.quantile_q)
        if self.sharpness_kappa <= 0.0:
            raise ConfigError(f"sharpness_kappa must be > 0, got {self.sharpness_kappa}")
        if not isinstance(self.info_proxy, InfoProxy):
            raise ConfigError(f"info_proxy must be an InfoProxy, got {self.info_proxy!r}")


@dataclass(frozen=True)
class SingularDecomposition:
    """Thin SVD W = U @ diag(sigma) @ V.T."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class GateVector:
    """Per-direction blend factors in [0, 1], one per singular direction."""

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.float64)
        if g.ndim != 1 or g.size == 0:
            raise ShapeError(f"gate must be a non-empty vector, got shape {g.shape}")
        # NaN fails both comparisons, so this also rejects non-finite entries
        if not ((g >= 0.0) & (g <= 1.0)).all():
            raise NumericError("gate entries must be finite and lie in [0, 1]")
        object.__setattr__(self, "g", freeze(g).reshape(-1))


@dataclass(frozen=True)
class MergeTrace:
    """What one merge decided: the base and align task metadata and, per
    layer, (the base's effective rank, or None if none was taken; w_b; w_a)."""

    base: TaskMeta
    align: TaskMeta
    layers: tuple[tuple[int | None, float, float], ...]


def _effective_rank(s: np.ndarray, rank_eps: float) -> int:
    """Count of singular values strictly above rank_eps * sigma_1, for a
    non-empty, non-increasing, non-negative s; 0 when s is all zero."""
    return int(np.count_nonzero(s > rank_eps * s[0]))


def _svd(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (U, sigma, V) of a checked matrix, counted in SVD_CALLS,
    with LAPACK's column signs. Merges use it directly: in one-a's
    (U * g) @ (rows of U.T @ align_w and diag(sigma) @ V.T) and symmetric's
    U @ diag(sigma) @ (...).T, a column's sign appears twice, and flipping
    a sign is exact, so the signs never reach a merged byte."""
    try:
        u, s, vt = np.linalg.svd(w, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc
    SVD_CALLS.bump()
    return u, s, vt.T


def thin_svd(w: np.ndarray) -> SingularDecomposition:
    """Thin SVD of w with LAPACK's factors and signs, made read-only."""
    u, s, v = _svd(as_matrix(w, "w"))
    u.flags.writeable = s.flags.writeable = v.flags.writeable = False
    return SingularDecomposition(U=u, sigma=s, V=v)


def select_roles(new: AdapterModule, accumulated: AdapterModule):
    """Pick (base, align): the module with more training samples anchors
    the subspace; on ties the new module is the base."""
    if new.meta.sample_count >= accumulated.meta.sample_count:
        return new, accumulated
    return accumulated, new


def info_weights(base_meta: TaskMeta, align_meta: TaskMeta,
                 base_w: np.ndarray, align_w: np.ndarray,
                 cfg: MergeConfig) -> tuple[float, float]:
    """Convex weights (w_b, w_a) from the configured information proxy.

    The singular-energy proxy is the sum of squared singular values, which
    equals the squared Frobenius norm, so no decomposition is spent here.
    """
    base_w = as_matrix(base_w, "base_w")
    align_w = as_matrix(align_w, "align_w")
    if cfg.info_proxy is InfoProxy.CLASS_COUNT:
        phi_b, phi_a = float(base_meta.class_count), float(align_meta.class_count)
    elif cfg.info_proxy is InfoProxy.FROBENIUS_NORM:
        phi_b, phi_a = np.linalg.norm(base_w), np.linalg.norm(align_w)
    else:
        phi_b, phi_a = np.linalg.norm(base_w) ** 2, np.linalg.norm(align_w) ** 2
    if phi_b == 0.0 and phi_a == 0.0:
        return 0.5, 0.5
    w_a = phi_a / (phi_a + phi_b)
    return 1.0 - w_a, w_a


def _logistic(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows and underflows cleanly to exact 0/1; each
    # side is the usual stable form, 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0.0, 1.0 / d, e / d)


def _linear_quantile(desc: np.ndarray, q: float) -> float:
    """np.quantile(desc, q) for a non-increasing vector, in closed form.

    numpy's default 'linear' rule on the ascending order: virtual index
    (n - 1) * q, its floor clipped at the last index, and numpy's
    two-sided lerp. The same IEEE operations give the same bits (only a
    lone -0.0 comes back as +0.0), with no sort: ascending index i is
    desc[n - 1 - i].
    """
    last = desc.size - 1
    virtual = last * q
    lo = min(math.floor(virtual), last)
    gamma = virtual - lo
    a, b = float(desc[last - lo]), float(desc[last - min(lo + 1, last)])
    if gamma >= 0.5:
        return b - (b - a) * (1.0 - gamma)
    return a + (b - a) * gamma


def _gate(sigma: np.ndarray, cfg: MergeConfig, eff: int) -> np.ndarray:
    """The gate law of gate_vector for a checked spectrum whose effective
    rank is eff; every entry is finite and in [0, 1]."""
    scores = sigma / (sigma[0] + cfg.delta)
    pool = scores[:eff] if eff >= 1 else scores
    theta = _linear_quantile(pool, cfg.quantile_q)
    return _logistic(cfg.sharpness_kappa * (theta - scores))


def gate_vector(sigma: np.ndarray, cfg: MergeConfig) -> GateVector:
    """Per-direction gates from the normalized spectrum.

    Directions are scored s_i = sigma_i / (sigma_1 + delta); the threshold
    is the quantile_q point of the scores within the effective rank, and
    g_i = logistic(kappa * (theta - s_i)). Dominant directions therefore
    gate toward 0 (kept at base) and weak ones toward 1 (fully fused);
    g is exactly 0.5 where s_i equals the threshold, which is numpy's
    default 'linear' quantile computed in closed form. sigma must be
    non-increasing, as thin_svd returns it.
    """
    s = np.asarray(sigma, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ShapeError(f"sigma must be a non-empty 1-D array, got shape {np.shape(sigma)}")
    if (s < 0.0).any() or not np.isfinite(s).all():
        raise NumericError("sigma must be finite and non-negative")
    if (s[1:] > s[:-1]).any():
        raise NumericError("sigma must be non-increasing, as thin_svd returns it")
    return GateVector(g=_gate(s, cfg, _effective_rank(s, cfg.rank_eps)))


def merge_layer(base_w: np.ndarray, align_w: np.ndarray, w_b: float, w_a: float,
                cfg: MergeConfig, gate: GateVector | None = None) -> np.ndarray:
    """Merge one layer pair of matrices with base/align roles fixed.

    One thin SVD base_w = U @ diag(sigma) @ V.T, effective rank k, gate g;
    with E_k zeroing the rows past k, the result is base_w + U @ diag(g) @
    (w_a * E_k @ U.T @ align_w - (1 - w_b) * diag(sigma) @ V.T): a gated
    projection of the update onto base_w's column space. An all-zero gate
    returns base_w; an all-zero base has rank 0, so nothing of align_w
    passes and the zero base comes back (average and symmetric keep part
    of align_w there). w_b and w_a lie in [0, 1].

    Args:
        gate: optional override of the spectrum-derived gate, used to probe
            the stability (all-zero) and plasticity (all-one) limits.
    """
    base_w = as_matrix(base_w, "base_w")
    align_w = as_matrix(align_w, "align_w")
    w_b, w_a = _unit_interval("w_b", w_b), _unit_interval("w_a", w_a)
    if base_w.shape != align_w.shape:
        raise ShapeError(f"layer shape mismatch: {base_w.shape} vs {align_w.shape}")
    if gate is not None and gate.g.size != min(base_w.shape):
        raise ShapeError(f"gate has {gate.g.size} entries for "
                         f"{min(base_w.shape)} directions")
    return _merge_layer(base_w, align_w, w_b, w_a, cfg, gate)[0]


def _merge_layer(base_w, align_w, w_b, w_a, cfg, gate=None):
    """merge_layer on checked, same-shape operands and a gate of the right
    size; returns the merged layer and the base's effective rank."""
    u, s, v = _svd(base_w)
    k = _effective_rank(s, cfg.rank_eps)
    g = _gate(s, cfg, k) if gate is None else gate.g
    update = (w_b - 1.0) * (s[:, None] * v.T)
    update[:k] += w_a * (u[:, :k].T @ align_w)
    return base_w + (u * g) @ update, k


def _check_mergeable(new: AdapterModule, accumulated: AdapterModule) -> None:
    """The shape guard of all three merges."""
    if not mergeable(new, accumulated):
        raise ShapeError("modules are not mergeable: layer shapes differ")


def _merged_module(new: AdapterModule, accumulated: AdapterModule,
                   layers) -> AdapterModule:
    return AdapterModule(layers=tuple(layers), meta=new.meta.union(accumulated.meta))


def merge_modules(new: AdapterModule, accumulated: AdapterModule,
                  cfg: MergeConfig) -> AdapterModule:
    """Fold a newly trained module into the accumulated one.

    Roles are selected once per module pair from sample counts, weights
    are computed per layer from the information proxy, and each layer is
    merged independently. Costs exactly one thin SVD per layer.
    """
    return _merge_traced(new, accumulated, cfg)[0]


def _merge_traced(new: AdapterModule, accumulated: AdapterModule,
                  cfg: MergeConfig) -> tuple[AdapterModule, MergeTrace]:
    """merge_modules with the trace of its decisions."""
    _check_mergeable(new, accumulated)
    base, align = select_roles(new, accumulated)
    merged, trace = [], []
    for base_layer, align_layer in zip(base.layers, align.layers):
        w_b, w_a = info_weights(base.meta, align.meta, base_layer, align_layer, cfg)
        layer, rank = _merge_layer(base_layer, align_layer, w_b, w_a, cfg)
        merged.append(layer)
        trace.append((rank, w_b, w_a))
    return (_merged_module(new, accumulated, merged),
            MergeTrace(base=base.meta, align=align.meta, layers=tuple(trace)))


def merge_average(new: AdapterModule, accumulated: AdapterModule,
                  n_prev_tasks: int) -> AdapterModule:
    """Running per-entry mean: (n * accumulated + new) / (n + 1)."""
    # up to 2**895, n * acc + cur stays finite for entries within float32's
    # range (|x| < 2**128), which every .onea layer is
    n_prev_tasks = check_int("n_prev_tasks", n_prev_tasks, 1, 2**895)
    _check_mergeable(new, accumulated)
    n = float(n_prev_tasks)
    layers = [(n * acc + cur) / (n + 1.0)
              for cur, acc in zip(new.layers, accumulated.layers)]
    return _merged_module(new, accumulated, layers)


def merge_symmetric(new: AdapterModule, accumulated: AdapterModule,
                    w_b: float, w_a: float, cfg: MergeConfig) -> AdapterModule:
    """Symmetric baseline: concatenate, decompose once, reblend.

    Per layer, X = [accumulated | new] is decomposed by one thin SVD; the
    right factor splits row-wise into the two task blocks, which are
    averaged as w_b * block_acc + w_a * block_new before reconstruction.
    The thin SVD reconstructs both blocks, so the result equals the linear
    blend w_b * accumulated + w_a * new up to rounding; no knob of cfg
    changes it.
    """
    w_b, w_a = _unit_interval("w_b", w_b), _unit_interval("w_a", w_a)
    _check_mergeable(new, accumulated)
    layers = []
    for cur, acc in zip(new.layers, accumulated.layers):
        d_in = acc.shape[1]
        u, s, v = _svd(np.concatenate([acc, cur], axis=1))
        v_merged = w_b * v[:d_in] + w_a * v[d_in:]
        layers.append((u * s) @ v_merged.T)
    return _merged_module(new, accumulated, layers)
