"""Singular-direction merging of adapter modules.

One module pair is merged by decomposing the base update, expressing the
other update in the base's left singular frame, blending the right factors
under information weights, and gating each singular direction so dominant
directions stay close to the base. Two baselines live here as well: a
running average and a symmetric concat-then-SVD merge.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .adapter import AdapterModule, TaskMeta, as_matrix, freeze, mergeable
from .counters import SVD_CALLS
from .errors import (ConfigError, DegenerateBaseError, NumericError,
                     ShapeError)


class InfoProxy(enum.Enum):
    """How much a task knows, for weighting its update during fusion."""

    CLASS_COUNT = "class-count"
    FROBENIUS_NORM = "frobenius"
    SINGULAR_ENERGY = "singular-energy"


@dataclass(frozen=True)
class MergeConfig:
    """Knobs of the asymmetric merge.

    quantile_q picks the gate threshold within the normalized spectrum,
    sharpness_kappa sets how hard the gate saturates, delta guards the
    spectrum normalization, and rank_eps defines the effective rank:
    singular values at or below rank_eps * sigma_1 are treated as noise.
    """

    quantile_q: float = 0.5
    sharpness_kappa: float = 10.0
    delta: float = 1e-6
    rank_eps: float = 1e-10
    info_proxy: InfoProxy = InfoProxy.CLASS_COUNT

    def __post_init__(self):
        if not 0.0 <= self.quantile_q <= 1.0:
            raise ConfigError(f"quantile_q must lie in [0, 1], got {self.quantile_q}")
        if self.sharpness_kappa <= 0.0:
            raise ConfigError(f"sharpness_kappa must be > 0, got {self.sharpness_kappa}")
        if self.delta <= 0.0:
            raise ConfigError(f"delta must be > 0, got {self.delta}")
        if not 0.0 < self.rank_eps < 1.0:
            raise ConfigError(f"rank_eps must lie in (0, 1), got {self.rank_eps}")
        if not isinstance(self.info_proxy, InfoProxy):
            raise ConfigError(f"info_proxy must be an InfoProxy, got {self.info_proxy!r}")


@dataclass(frozen=True)
class SingularDecomposition:
    """Thin SVD W = U @ diag(sigma) @ V.T with a fixed sign convention."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    effective_rank: int


@dataclass(frozen=True)
class GateVector:
    """Per-direction blend factors in [0, 1], one per singular direction."""

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.float64)
        if g.ndim != 1 or g.size == 0:
            raise ShapeError(f"gate must be a non-empty vector, got shape {g.shape}")
        if np.any(g < 0.0) or np.any(g > 1.0):
            raise NumericError("gate entries must lie in [0, 1]")
        object.__setattr__(self, "g", freeze(g).reshape(-1))


def _effective_rank(s: np.ndarray, rank_eps: float) -> int:
    """Count of singular values strictly above rank_eps * sigma_1; 0 when
    the spectrum is empty or all zero."""
    if s.size and s[0] > 0.0:
        return int(np.count_nonzero(s > rank_eps * s[0]))
    return 0


def thin_svd(w: np.ndarray,
             rank_eps: float = MergeConfig.rank_eps) -> SingularDecomposition:
    """Thin SVD with deterministic signs.

    Each U column is flipped so its largest-magnitude entry is positive
    (the paired V column flips with it), which pins an otherwise arbitrary
    sign choice. effective_rank counts singular values strictly above
    rank_eps * sigma_1.
    """
    w = as_matrix(w, "w")
    try:
        u, s, vt = np.linalg.svd(w, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc
    SVD_CALLS.bump()
    v = vt.T
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0.0] = 1.0
    u = u * signs
    v = v * signs
    return SingularDecomposition(U=freeze(u), sigma=freeze(s.reshape(-1)),
                                 V=freeze(v),
                                 effective_rank=_effective_rank(s, rank_eps))


def select_roles(new: AdapterModule, accumulated: AdapterModule):
    """Pick (base, align): the module with more training samples anchors
    the subspace; on ties the new module is the base."""
    if new.meta.sample_count >= accumulated.meta.sample_count:
        return new, accumulated
    return accumulated, new


def align_to_base(base_svd: SingularDecomposition, w_a: np.ndarray) -> np.ndarray:
    """Express w_a in the base's left singular frame.

    Returns V_a2b with one column per base direction: column i is
    w_a.T @ U[:, i] / sigma_i for directions inside the effective rank and
    zero beyond it, so noise-level base directions never amplify w_a.
    """
    w_a = as_matrix(w_a, "w_a")
    if base_svd.effective_rank < 1:
        raise DegenerateBaseError("base matrix has no singular direction above noise")
    if w_a.shape[0] != base_svd.U.shape[0]:
        raise ShapeError(f"w_a has {w_a.shape[0]} rows but base expects {base_svd.U.shape[0]}")
    r = base_svd.sigma.size
    k = base_svd.effective_rank
    out = np.zeros((w_a.shape[1], r))
    out[:, :k] = (w_a.T @ base_svd.U[:, :k]) / base_svd.sigma[:k]
    return out


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
        warnings.warn("both information proxies are zero; falling back to 0.5/0.5",
                      RuntimeWarning, stacklevel=2)
        return 0.5, 0.5
    w_a = phi_a / (phi_a + phi_b)
    return 1.0 - w_a, w_a


def global_fuse(v_base: np.ndarray, v_aligned: np.ndarray,
                w_b: float, w_a: float) -> np.ndarray:
    """Convex blend of the base right factor with the aligned one."""
    v_base = as_matrix(v_base, "v_base")
    v_aligned = as_matrix(v_aligned, "v_aligned")
    if v_base.shape != v_aligned.shape:
        raise ShapeError(f"fuse shape mismatch: {v_base.shape} vs {v_aligned.shape}")
    return w_b * v_base + w_a * v_aligned


def _logistic(x: np.ndarray) -> np.ndarray:
    # Piecewise form avoids overflow; underflows cleanly to exact 0/1.
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def gate_vector(sigma: np.ndarray, cfg: MergeConfig) -> GateVector:
    """Per-direction gates from the normalized spectrum.

    Directions are scored s_i = sigma_i / (sigma_1 + delta); the threshold
    is the quantile_q point of the scores within the effective rank, and
    g_i = logistic(kappa * (theta - s_i)). Dominant directions therefore
    gate toward 0 (kept at base) and weak ones toward 1 (fully fused);
    g is exactly 0.5 where s_i equals the threshold.
    """
    s = np.asarray(sigma, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ShapeError(f"sigma must be a non-empty 1-D array, got shape {np.shape(sigma)}")
    if np.any(s < 0.0) or not np.all(np.isfinite(s)):
        raise NumericError("sigma must be finite and non-negative")
    scores = s / (s[0] + cfg.delta)
    eff = _effective_rank(s, cfg.rank_eps)
    pool = scores[:eff] if eff >= 1 else scores
    theta = float(np.quantile(pool, cfg.quantile_q))
    g = _logistic(cfg.sharpness_kappa * (theta - scores))
    return GateVector(g=g)


def merge_layer(base_w: np.ndarray, align_w: np.ndarray, w_b: float, w_a: float,
                cfg: MergeConfig, gate: GateVector | None = None) -> np.ndarray:
    """Merge one layer pair of matrices with base/align roles fixed.

    Composes thin_svd -> align_to_base -> global_fuse -> gate_vector and
    reconstructs U @ diag(sigma) @ V_final.T where column i of V_final is
    V[:, i] + g_i * (V_fused[:, i] - V[:, i]).

    Args:
        gate: optional override of the spectrum-derived gate, used to probe
            the stability (all-zero) and plasticity (all-one) limits.
    """
    base_w = as_matrix(base_w, "base_w")
    align_w = as_matrix(align_w, "align_w")
    if base_w.shape != align_w.shape:
        raise ShapeError(f"layer shape mismatch: {base_w.shape} vs {align_w.shape}")
    dec = thin_svd(base_w, rank_eps=cfg.rank_eps)
    v_aligned = align_to_base(dec, align_w)
    v_fused = global_fuse(dec.V, v_aligned, w_b, w_a)
    if gate is None:
        gate = gate_vector(dec.sigma, cfg)
    g = gate.g
    if g.size != dec.sigma.size:
        raise ShapeError(f"gate has {g.size} entries for {dec.sigma.size} directions")
    v_final = dec.V + (v_fused - dec.V) * g[None, :]
    return (dec.U * dec.sigma) @ v_final.T


def _merged_module(new: AdapterModule, accumulated: AdapterModule,
                   layers) -> AdapterModule:
    return AdapterModule(layers=tuple(layers), bottleneck=new.bottleneck,
                         meta=new.meta.union(accumulated.meta))


def merge_modules(new: AdapterModule, accumulated: AdapterModule | None,
                  cfg: MergeConfig) -> AdapterModule:
    """Fold a newly trained module into the accumulated one.

    The first task has nothing to merge into and returns the new module
    verbatim. Otherwise roles are selected once per module pair from
    sample counts, weights are computed per layer from the information
    proxy, and each layer is merged independently. Costs exactly one thin
    SVD per layer.
    """
    if accumulated is None:
        return new
    if not mergeable(new, accumulated):
        raise ShapeError("modules are not mergeable: layer shapes differ")
    base, align = select_roles(new, accumulated)
    merged = []
    for base_layer, align_layer in zip(base.layers, align.layers):
        w_b, w_a = info_weights(base.meta, align.meta, base_layer, align_layer, cfg)
        merged.append(merge_layer(base_layer, align_layer, w_b, w_a, cfg))
    return _merged_module(new, accumulated, merged)


def merge_average(new: AdapterModule, accumulated: AdapterModule,
                  n_prev_tasks: int) -> AdapterModule:
    """Running per-entry mean: (n * accumulated + new) / (n + 1)."""
    if n_prev_tasks < 1:
        raise ConfigError(f"n_prev_tasks must be >= 1, got {n_prev_tasks}")
    if not mergeable(new, accumulated):
        raise ShapeError("modules are not mergeable: layer shapes differ")
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
    """
    if not mergeable(new, accumulated):
        raise ShapeError("modules are not mergeable: layer shapes differ")
    layers = []
    for cur, acc in zip(new.layers, accumulated.layers):
        d_in = acc.shape[1]
        dec = thin_svd(np.concatenate([acc, cur], axis=1), rank_eps=cfg.rank_eps)
        v_merged = w_b * dec.V[:d_in] + w_a * dec.V[d_in:]
        layers.append((dec.U * dec.sigma) @ v_merged.T)
    return _merged_module(new, accumulated, layers)
