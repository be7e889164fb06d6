"""Adapter modules, task metadata, and the binary container format.

Matrices are plain 2-D float64 numpy arrays throughout the package. All
math runs in 64-bit precision; containers store payloads as little-endian
32-bit floats, so deserialize(serialize(m)) equals m up to float32
quantization and serialize is a fixpoint on round-tripped bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .counters import ADAPTER_FORWARDS
from .errors import (ConfigError, FormatError, NumericError, ShapeError,
                     check_int)

MAGIC = b"ONEA"
FORMAT_VERSION = 1

_HEADER_KEYS = {"task_id", "class_ids", "class_count", "sample_count",
                "bottleneck", "layers"}


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a non-empty 2-D float64 array, rejecting non-finite data."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeError(f"{name} must be a non-empty 2-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError(f"{name} contains non-finite entries")
    return arr


def freeze(arr: np.ndarray) -> np.ndarray:
    """Return a contiguous float64 copy with the write flag cleared."""
    out = np.array(arr, dtype=np.float64, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TaskMeta:
    """Identity and data volume of the task(s) an adapter has absorbed."""

    task_id: int
    class_ids: frozenset[int]
    sample_count: int

    def __post_init__(self):
        object.__setattr__(self, "task_id", check_int("task_id", self.task_id, 1))
        object.__setattr__(self, "sample_count",
                           check_int("sample_count", self.sample_count, 0))
        # every fold rebuilds its meta through union: when every id is a
        # plain int, one C-level pass over the types replaces the full rule
        ids = tuple(self.class_ids)
        if not set(map(type, ids)) <= {int}:
            ids = [check_int("class id", c) for c in ids]
        object.__setattr__(self, "class_ids", frozenset(ids))
        if not self.class_ids:
            raise ConfigError("class_ids must be non-empty")

    @property
    def class_count(self) -> int:
        return len(self.class_ids)

    def union(self, other: "TaskMeta") -> "TaskMeta":
        """Metadata for a module that has absorbed both tasks.

        The merged module is stamped with the newest task id; class sets
        union and sample counts add.
        """
        return TaskMeta(task_id=max(self.task_id, other.task_id),
                        class_ids=self.class_ids | other.class_ids,
                        sample_count=self.sample_count + other.sample_count)


@dataclass(frozen=True, eq=False)
class AdapterModule:
    """An ordered stack of dense layer matrices plus task metadata.

    For the standard MLP adapter each consecutive pair is (down, up) with
    shapes (d, b) and (b, d); the merge operations treat layers as an
    opaque matrix list, so other stack shapes are permitted.
    """

    layers: tuple[np.ndarray, ...]
    bottleneck: int
    meta: TaskMeta

    def __post_init__(self):
        object.__setattr__(self, "bottleneck", check_int("bottleneck", self.bottleneck, 1))
        frozen = tuple(freeze(as_matrix(w, f"layers[{i}]"))
                       for i, w in enumerate(self.layers))
        object.__setattr__(self, "layers", frozen)

    def layer_pairs(self):
        if len(self.layers) % 2:
            raise ShapeError("adapter stack must hold an even number of layers")
        return [(self.layers[i], self.layers[i + 1])
                for i in range(0, len(self.layers), 2)]


def mergeable(a: AdapterModule, b: AdapterModule) -> bool:
    """Modules merge iff layer counts and per-layer shapes match exactly."""
    if len(a.layers) != len(b.layers):
        return False
    return all(x.shape == y.shape for x, y in zip(a.layers, b.layers))


def adapter_forward(h: np.ndarray, w_down: np.ndarray, w_up: np.ndarray) -> np.ndarray:
    """Residual bottleneck forward pass: h + relu(h @ w_down) @ w_up.

    Args:
        h: batch of features, shape (n, d).
        w_down: projection into the bottleneck, shape (d, b).
        w_up: projection back out, shape (b, d).

    Returns:
        Adapted features with the same shape as h.
    """
    h = as_matrix(h, "h")
    w_down = as_matrix(w_down, "w_down")
    w_up = as_matrix(w_up, "w_up")
    if h.shape[1] != w_down.shape[0]:
        raise ShapeError(f"h has width {h.shape[1]} but w_down expects {w_down.shape[0]}")
    if w_down.shape[1] != w_up.shape[0]:
        raise ShapeError(f"bottleneck mismatch: {w_down.shape[1]} vs {w_up.shape[0]}")
    if w_up.shape[1] != h.shape[1]:
        raise ShapeError(f"w_up emits width {w_up.shape[1]} but h has {h.shape[1]}")
    ADAPTER_FORWARDS.bump()
    return h + np.maximum(h @ w_down, 0.0) @ w_up


def serialize(module: AdapterModule) -> bytes:
    """Encode a module into the versioned binary container."""
    if not module.layers:
        raise FormatError("cannot serialize a module with no layers", 0)
    header = {
        "task_id": module.meta.task_id,
        "class_ids": sorted(module.meta.class_ids),
        "class_count": module.meta.class_count,
        "sample_count": module.meta.sample_count,
        "bottleneck": module.bottleneck,
        "layers": [{"rows": int(w.shape[0]), "cols": int(w.shape[1])}
                   for w in module.layers],
    }
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION),
             struct.pack("<I", len(encoded)), encoded]
    for w in module.layers:
        parts.append(w.astype("<f4").tobytes(order="C"))
    return b"".join(parts)


def deserialize(data: bytes) -> AdapterModule:
    """Decode the binary container, reporting the offset of any defect."""
    if len(data) < 4 or data[:4] != MAGIC:
        raise FormatError("bad magic, expected b'ONEA'", 0)
    if len(data) < 8:
        raise FormatError("truncated before format version", 4)
    (version,) = struct.unpack_from("<I", data, 4)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}", 4)
    if len(data) < 12:
        raise FormatError("truncated before header length", 8)
    (header_len,) = struct.unpack_from("<I", data, 8)
    if len(data) < 12 + header_len:
        raise FormatError("truncated inside header", len(data))
    try:
        header = json.loads(data[12:12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"header is not valid JSON: {exc}", 12) from None
    if not isinstance(header, dict) or set(header) != _HEADER_KEYS:
        raise FormatError("header keys do not match the format", 12)
    layers_spec = header["layers"]
    if not isinstance(layers_spec, list) or not layers_spec:
        raise FormatError("layer list must be non-empty", 12)
    try:
        meta = TaskMeta(task_id=header["task_id"], class_ids=header["class_ids"],
                        sample_count=header["sample_count"])
        bottleneck = check_int("bottleneck", header["bottleneck"], 1)
        class_count = check_int("class_count", header["class_count"])
    except (ConfigError, TypeError) as exc:
        raise FormatError(f"header fields invalid: {exc}", 12) from None
    if len(header["class_ids"]) != meta.class_count:
        raise FormatError("class_ids holds duplicate ids", 12)
    if class_count != meta.class_count:
        raise FormatError("class_count disagrees with class_ids", 12)

    cursor = 12 + header_len
    layers = []
    for i, shape in enumerate(layers_spec):
        try:
            rows = check_int(f"layer {i} rows", shape["rows"], 1)
            cols = check_int(f"layer {i} cols", shape["cols"], 1)
        except (KeyError, TypeError, ConfigError) as exc:
            raise FormatError(f"layer {i} shape entry is malformed: {exc}", 12) from None
        nbytes = rows * cols * 4
        if len(data) < cursor + nbytes:
            raise FormatError(
                f"payload truncated in layer {i}: need {nbytes} bytes", len(data))
        raw = np.frombuffer(data, dtype="<f4", count=rows * cols, offset=cursor)
        if not np.isfinite(raw).all():
            raise FormatError(f"layer {i} payload holds non-finite values", cursor)
        layers.append(raw.astype(np.float64).reshape(rows, cols))
        cursor += nbytes
    if cursor != len(data):
        raise FormatError(f"{len(data) - cursor} trailing bytes after payload", cursor)

    return AdapterModule(layers=tuple(layers), bottleneck=bottleneck, meta=meta)


def save_module(module: AdapterModule, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(module))


def load_module(path) -> AdapterModule:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
