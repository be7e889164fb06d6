"""Shared test helpers: module factories, finite differences, and
independently written reference implementations of the merge math.

The reference_* functions re-derive the merges as straight-line numpy
with explicit loops. They deliberately share nothing with onea.merge,
so the production code can be checked against a second route through
the same algebra. The references pin their own sign convention
(largest-magnitude entry of each left singular vector made positive);
onea keeps LAPACK's signs, so the two routes also differ in signs.
"""

from __future__ import annotations

import numpy as np

from onea.adapter import AdapterModule, TaskMeta


def make_module(layers, task_id=1, class_ids=(0,), sample_count=10,
                bottleneck=None) -> AdapterModule:
    layers = tuple(np.asarray(w, dtype=np.float64) for w in layers)
    if bottleneck is None:
        bottleneck = max(1, layers[0].shape[1])
    meta = TaskMeta(task_id=task_id, class_ids=frozenset(class_ids),
                    sample_count=sample_count)
    return AdapterModule(layers=layers, bottleneck=bottleneck, meta=meta)


def modules_equal(a: AdapterModule, b: AdapterModule) -> bool:
    """Exact structural equality (metadata and layer data)."""
    return (a.meta == b.meta and a.bottleneck == b.bottleneck
            and len(a.layers) == len(b.layers)
            and all(np.array_equal(x, y) for x, y in zip(a.layers, b.layers)))


def fd_gradient(fn, arr: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of the scalar fn() over every entry of
    arr, mutating arr in place and restoring it afterwards."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        keep = arr[idx]
        arr[idx] = keep + step
        hi = fn()
        arr[idx] = keep - step
        lo = fn()
        arr[idx] = keep
        grad[idx] = (hi - lo) / (2.0 * step)
    return grad


def draw_gradcheck_batch(rng, n=8, d=6, b=3, k=3, tau=0.07):
    """Random batch plus parameters kept away from the ReLU and hinge
    kinks, so central differences at step 1e-5 stay on one branch."""
    for _ in range(200):
        h = rng.normal(size=(n, d))
        y = rng.integers(0, k, size=n)
        if np.unique(y).size < 2:
            continue
        params = {
            "w_down": rng.normal(scale=0.5, size=(d, b)),
            "w_up": rng.normal(scale=0.5, size=(b, d)),
            "head_w": rng.normal(scale=0.5, size=(d, k)),
            "head_b": rng.normal(scale=0.1, size=k),
        }
        a = h @ params["w_down"]
        z = h + np.maximum(a, 0.0) @ params["w_up"]
        norms = np.linalg.norm(z, axis=1)
        if norms.min() < 0.1:
            continue
        sims = (z / norms[:, None]) @ (z / norms[:, None]).T
        iu = np.triu_indices(n, k=1)
        if min(np.abs(a).min(), np.abs(sims[iu] - tau).min()) > 1e-3:
            return h, y, params
    raise AssertionError("could not draw a kink-free batch")


def reference_svd(w, rank_eps: float = 1e-10):
    """Thin SVD with the pinned sign convention, written out longhand."""
    u, s, vt = np.linalg.svd(np.asarray(w, dtype=np.float64),
                             full_matrices=False)
    v = vt.T.copy()
    u = u.copy()
    for j in range(u.shape[1]):
        pivot = u[int(np.argmax(np.abs(u[:, j]))), j]
        if pivot < 0.0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    eff = 0
    if s.size and s[0] > 0.0:
        eff = int(np.sum(s > rank_eps * s[0]))
    return u, s, v, eff


def reference_merge_layer(w_b, w_a, weight_b, weight_a, q=0.5, kappa=10.0,
                          delta=1e-6, rank_eps=1e-10, gate=None) -> np.ndarray:
    """One gated asymmetric layer merge, one direction at a time; gate
    overrides the spectrum-derived gate."""
    w_b = np.asarray(w_b, dtype=np.float64)
    w_a = np.asarray(w_a, dtype=np.float64)
    u, s, v, eff = reference_svd(w_b, rank_eps)
    r = s.size

    v_aligned = np.zeros((w_a.shape[1], r))
    for i in range(eff):
        v_aligned[:, i] = (w_a.T @ u[:, i]) / s[i]

    v_fused = weight_b * v + weight_a * v_aligned

    scores = s / (s[0] + delta)
    pool = scores[:eff] if eff >= 1 else scores
    theta = float(np.quantile(pool, q))
    g = np.array([1.0 / (1.0 + np.exp(-kappa * (theta - si)))
                  for si in scores]) if gate is None else np.asarray(gate)

    v_final = np.empty_like(v)
    for i in range(r):
        v_final[:, i] = v[:, i] + g[i] * (v_fused[:, i] - v[:, i])
    return (u * s) @ v_final.T


def reference_merge_symmetric(acc, cur, weight_acc, weight_new,
                              rank_eps=1e-10) -> np.ndarray:
    """Concat-decompose-reblend baseline for one layer pair."""
    acc = np.asarray(acc, dtype=np.float64)
    cur = np.asarray(cur, dtype=np.float64)
    u, s, v, _ = reference_svd(np.concatenate([acc, cur], axis=1), rank_eps)
    d_in = acc.shape[1]
    v_merged = weight_acc * v[:d_in] + weight_new * v[d_in:]
    return (u * s) @ v_merged.T


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    rows = {}
    for outcome in ("passed", "failed"):
        for rep in terminalreporter.stats.get(outcome, []):
            if "test_acceptance.py" in rep.nodeid and rep.when == "call":
                rows[rep.nodeid.split("::")[-1]] = \
                    "PASS" if outcome == "passed" else "FAIL"
    for rep in terminalreporter.stats.get("error", []):
        if "test_acceptance.py" in rep.nodeid:
            rows[rep.nodeid.split("::")[-1]] = "FAIL"
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(rows):
        label = name.removeprefix("test_").replace("_", " ")
        terminalreporter.write_line(f"{label}: {rows[name]}")
