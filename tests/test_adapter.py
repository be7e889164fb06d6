"""Adapter containers: metadata, forward pass, and the binary format."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from onea import (AdapterModule, ConfigError, FormatError, NumericError,
                  ShapeError, TaskMeta, adapter_forward, deserialize,
                  load_module, mergeable, save_module, serialize)
from onea.adapter import as_matrix, freeze
from onea.counters import ADAPTER_FORWARDS

from conftest import make_module, modules_equal


# ---------------------------------------------------------------- helpers

def _meta(task_id=1, class_ids=(0, 1), sample_count=10):
    return TaskMeta(task_id=task_id, class_ids=frozenset(class_ids),
                    sample_count=sample_count)


def _sample_module():
    rng = np.random.default_rng(7)
    return make_module([rng.normal(size=(4, 2)), rng.normal(size=(2, 4))],
                       task_id=3, class_ids=(5, 9, 11), sample_count=120,
                       bottleneck=2)


def _rebuild(data: bytes, mutate_header) -> bytes:
    """Re-encode a container with its JSON header altered."""
    (header_len,) = struct.unpack_from("<I", data, 8)
    header = json.loads(data[12:12 + header_len])
    mutate_header(header)
    encoded = json.dumps(header, sort_keys=True,
                         separators=(",", ":")).encode()
    return (data[:8] + struct.pack("<I", len(encoded)) + encoded
            + data[12 + header_len:])


# ---------------------------------------------------------------- as_matrix

def test_as_matrix_coerces_lists():
    out = as_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.float64
    assert out.shape == (2, 2)


@pytest.mark.parametrize("bad", [[1.0, 2.0], np.empty((0, 3)), np.ones((2, 2, 2))])
def test_as_matrix_rejects_non_2d(bad):
    with pytest.raises(ShapeError):
        as_matrix(bad)


def test_as_matrix_rejects_non_finite():
    with pytest.raises(NumericError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(NumericError):
        as_matrix([[np.inf, 1.0]])


def test_freeze_returns_locked_copy():
    src = np.ones((2, 2))
    out = freeze(src)
    assert not out.flags.writeable
    src[0, 0] = 5.0
    assert out[0, 0] == 1.0


# ---------------------------------------------------------------- TaskMeta

def test_task_meta_validation():
    with pytest.raises(ConfigError):
        TaskMeta(task_id=0, class_ids=frozenset({1}), sample_count=1)
    with pytest.raises(ConfigError):
        TaskMeta(task_id=1, class_ids=frozenset(), sample_count=1)
    with pytest.raises(ConfigError):
        TaskMeta(task_id=1, class_ids=frozenset({1}), sample_count=-1)


def test_task_meta_class_count_and_union():
    a = _meta(task_id=2, class_ids=(1, 2, 3), sample_count=30)
    b = _meta(task_id=5, class_ids=(3, 4), sample_count=20)
    assert a.class_count == 3
    merged = a.union(b)
    assert merged.task_id == 5
    assert merged.class_ids == frozenset({1, 2, 3, 4})
    assert merged.sample_count == 50
    # union is symmetric
    assert b.union(a) == merged


def test_task_meta_coerces_numpy_ids():
    meta = TaskMeta(task_id=1, class_ids=frozenset(np.array([3, 7])),
                    sample_count=0)
    assert meta.class_ids == frozenset({3, 7})
    assert all(isinstance(c, int) for c in meta.class_ids)


# ------------------------------------------------------------ AdapterModule

def test_module_freezes_layers():
    w = np.ones((2, 3))
    module = make_module([w, np.ones((3, 2))])
    assert not module.layers[0].flags.writeable
    w[0, 0] = 9.0
    assert module.layers[0][0, 0] == 1.0


def test_module_rejects_bad_bottleneck():
    with pytest.raises(ConfigError):
        AdapterModule(layers=(np.ones((2, 2)),), bottleneck=0, meta=_meta())


def test_layer_pairs_requires_even_stack():
    module = make_module([np.ones((2, 2))] * 3)
    with pytest.raises(ShapeError):
        module.layer_pairs()
    pairs = _sample_module().layer_pairs()
    assert len(pairs) == 1
    assert pairs[0][0].shape == (4, 2)


def test_mergeable():
    a = _sample_module()
    b = _sample_module()
    assert mergeable(a, b)
    c = make_module([np.ones((4, 2)), np.ones((2, 4))], bottleneck=2)
    assert mergeable(a, c)
    d = make_module([np.ones((3, 2)), np.ones((2, 3))], bottleneck=2)
    assert not mergeable(a, d)
    e = make_module([np.ones((4, 2))], bottleneck=2)
    assert not mergeable(a, e)


# ------------------------------------------------------------ forward pass

def test_adapter_forward_hand_value():
    h = np.array([[1.0, 2.0]])
    w_down = np.eye(2)
    w_up = np.array([[3.0, 0.0], [0.0, 2.0]])
    # h + relu(h) @ w_up = [1 + 3, 2 + 4]
    assert np.array_equal(adapter_forward(h, w_down, w_up),
                          np.array([[4.0, 6.0]]))


def test_adapter_forward_relu_clips_negatives():
    h = np.array([[1.0, -2.0]])
    out = adapter_forward(h, np.eye(2), np.eye(2))
    assert np.array_equal(out, np.array([[2.0, -2.0]]))


def test_adapter_forward_counts_calls():
    h = np.ones((5, 3))
    w_down, w_up = np.ones((3, 2)), np.ones((2, 3))
    before = ADAPTER_FORWARDS.value
    adapter_forward(h, w_down, w_up)
    adapter_forward(h, w_down, w_up)
    assert ADAPTER_FORWARDS.value - before == 2


def test_adapter_forward_shape_errors():
    with pytest.raises(ShapeError):
        adapter_forward(np.ones((2, 3)), np.ones((4, 2)), np.ones((2, 3)))
    with pytest.raises(ShapeError):
        adapter_forward(np.ones((2, 3)), np.ones((3, 2)), np.ones((5, 3)))
    with pytest.raises(ShapeError):
        adapter_forward(np.ones((2, 3)), np.ones((3, 2)), np.ones((2, 4)))


# ------------------------------------------------------------ serialization

def test_round_trip_quantizes_to_float32():
    module = _sample_module()
    back = deserialize(serialize(module))
    assert back.meta == module.meta
    assert back.bottleneck == module.bottleneck
    for got, want in zip(back.layers, module.layers):
        assert np.array_equal(got, want.astype("<f4").astype(np.float64))


def test_serialize_is_fixpoint_after_round_trip():
    data = serialize(_sample_module())
    assert serialize(deserialize(data)) == data


def test_serialize_rejects_empty_module():
    module = AdapterModule(layers=(), bottleneck=1, meta=_meta())
    with pytest.raises(FormatError) as err:
        serialize(module)
    assert err.value.offset == 0


def test_save_and_load_round_trip(tmp_path):
    module = _sample_module()
    path = tmp_path / "adapter.onea"
    save_module(module, path)
    loaded = load_module(path)
    assert modules_equal(loaded, deserialize(serialize(module)))


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_module(tmp_path / "absent.onea")


_f32 = st.floats(min_value=-1e6, max_value=1e6, width=32)
_layer = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: hnp.arrays(np.float32, shape, elements=_f32))


@settings(max_examples=50, deadline=None)
@given(layers=st.lists(_layer, min_size=1, max_size=3),
       task_id=st.integers(1, 50),
       class_ids=st.sets(st.integers(0, 99), min_size=1, max_size=6),
       sample_count=st.integers(0, 10000),
       bottleneck=st.integers(1, 16))
def test_container_round_trip_property(layers, task_id, class_ids,
                                       sample_count, bottleneck):
    # float32-representable payloads survive the container untouched,
    # and re-serializing the result reproduces the same bytes
    module = make_module([w.astype(np.float64) for w in layers],
                         task_id=task_id, class_ids=class_ids,
                         sample_count=sample_count, bottleneck=bottleneck)
    data = serialize(module)
    back = deserialize(data)
    assert back.meta == module.meta
    assert back.bottleneck == module.bottleneck
    for got, want in zip(back.layers, module.layers):
        assert np.array_equal(got, want)
    assert serialize(back) == data


# Every defect class reports the offset of the first bad byte.

def test_bad_magic_offset_0():
    for blob in (b"", b"XY", b"NOPE" + b"\x00" * 8):
        with pytest.raises(FormatError) as err:
            deserialize(blob)
        assert err.value.offset == 0
        assert "(byte offset 0)" in str(err.value)


def test_truncated_version_offset_4():
    with pytest.raises(FormatError) as err:
        deserialize(b"ONEA\x01")
    assert err.value.offset == 4


def test_unsupported_version_offset_4():
    data = serialize(_sample_module())
    bad = data[:4] + struct.pack("<I", 99) + data[8:]
    with pytest.raises(FormatError) as err:
        deserialize(bad)
    assert err.value.offset == 4


def test_truncated_header_length_offset_8():
    with pytest.raises(FormatError) as err:
        deserialize(b"ONEA" + struct.pack("<I", 1) + b"\x00\x00")
    assert err.value.offset == 8


def test_truncated_inside_header():
    data = serialize(_sample_module())
    cut = data[:20]
    with pytest.raises(FormatError) as err:
        deserialize(cut)
    assert err.value.offset == len(cut)


def test_header_not_json_offset_12():
    raw = b"{this is not json"
    data = (b"ONEA" + struct.pack("<I", 1) + struct.pack("<I", len(raw)) + raw)
    with pytest.raises(FormatError) as err:
        deserialize(data)
    assert err.value.offset == 12


def test_header_wrong_keys_offset_12():
    raw = json.dumps({"surprise": 1}).encode()
    data = (b"ONEA" + struct.pack("<I", 1) + struct.pack("<I", len(raw)) + raw)
    with pytest.raises(FormatError) as err:
        deserialize(data)
    assert err.value.offset == 12


def test_class_count_mismatch_offset_12():
    data = serialize(_sample_module())
    bad = _rebuild(data, lambda h: h.__setitem__("class_count", 99))
    with pytest.raises(FormatError) as err:
        deserialize(bad)
    assert err.value.offset == 12


def test_empty_layer_list_offset_12():
    data = serialize(_sample_module())
    bad = _rebuild(data, lambda h: h.__setitem__("layers", []))
    with pytest.raises(FormatError) as err:
        deserialize(bad)
    assert err.value.offset == 12


def test_malformed_layer_spec_offset_12():
    data = serialize(_sample_module())
    bad = _rebuild(data, lambda h: h.__setitem__(
        "layers", [{"rows": "many", "cols": 2}]))
    with pytest.raises(FormatError) as err:
        deserialize(bad)
    assert err.value.offset == 12


def test_non_positive_layer_shape_offset_12():
    data = serialize(_sample_module())
    bad = _rebuild(data, lambda h: h.__setitem__(
        "layers", [{"rows": 0, "cols": 2}]))
    with pytest.raises(FormatError) as err:
        deserialize(bad)
    assert err.value.offset == 12


def test_truncated_payload_reports_end():
    data = serialize(_sample_module())
    cut = data[:-2]
    with pytest.raises(FormatError) as err:
        deserialize(cut)
    assert err.value.offset == len(cut)
    assert "truncated" in str(err.value)


def test_non_finite_payload_reports_layer_start():
    data = serialize(_sample_module())
    (header_len,) = struct.unpack_from("<I", data, 8)
    cursor = 12 + header_len
    bad = (data[:cursor] + struct.pack("<f", float("inf"))
           + data[cursor + 4:])
    with pytest.raises(FormatError) as err:
        deserialize(bad)
    assert err.value.offset == cursor


def test_trailing_bytes_report_payload_end():
    data = serialize(_sample_module())
    with pytest.raises(FormatError) as err:
        deserialize(data + b"zz")
    assert err.value.offset == len(data)


def _set_layer(field, value):
    return lambda h: h["layers"][0].__setitem__(field, value)


_BAD_HEADERS = {
    "task_id-float": lambda h: h.__setitem__("task_id", 3.5),
    "task_id-bool": lambda h: h.__setitem__("task_id", True),
    "sample_count-float": lambda h: h.__setitem__("sample_count", 120.5),
    "bottleneck-float": lambda h: h.__setitem__("bottleneck", 2.5),
    "class_count-float": lambda h: h.__setitem__("class_count", 3.0),
    "rows-float": _set_layer("rows", 4.9),
    "cols-string": _set_layer("cols", "2"),
    "class_id-float": lambda h: h.__setitem__("class_ids", [5, 9, 11.5]),
    "class_ids-letters": lambda h: h.__setitem__("class_ids", "abc"),
    "class_ids-digits": lambda h: h.__setitem__("class_ids", "123"),
    "class_ids-duplicate": lambda h: h.__setitem__("class_ids", [5, 5, 9]),
}


@pytest.mark.parametrize("mutate", _BAD_HEADERS.values(), ids=_BAD_HEADERS.keys())
def test_non_integer_header_fields_offset_12(mutate):
    bad = _rebuild(serialize(_sample_module()), mutate)
    with pytest.raises(FormatError) as err:
        deserialize(bad)
    assert err.value.offset == 12


def test_invalid_header_fields_offset_12():
    data = serialize(_sample_module())
    bad = _rebuild(data, lambda h: h.__setitem__("task_id", 0))
    with pytest.raises(FormatError) as err:
        deserialize(bad)
    assert err.value.offset == 12
