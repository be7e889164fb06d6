"""Task-stream generation: long-tail ratios, allocation, determinism."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onea import (ConfigError, Strategy, StreamSpec, TaskOrder, TrainConfig,
                  allocate_tasks, build_stream, class_ratios, run_sequence)
from onea.stream import (FEATURE_DIM, MAX_STREAM_SAMPLES, TRAIN_FRACTION,
                         _largest_remainder)


def _spec(**kwargs):
    base = dict(total_classes=20, num_tasks=5, gamma=0.01, seed=0)
    base.update(kwargs)
    return StreamSpec(**base)


# ------------------------------------------------------------- class_ratios

def test_class_ratios_endpoints_and_hand_values():
    r = class_ratios(3, 0.25)
    assert np.allclose(r, [1.0, 0.5, 0.25], atol=1e-15)
    r = class_ratios(100, 0.01)
    assert r[0] == 1.0
    assert r[-1] == pytest.approx(0.01, abs=1e-12)
    assert np.all(np.diff(r) < 0.0)


def test_class_ratios_flat_when_gamma_is_one():
    assert np.array_equal(class_ratios(7, 1.0), np.ones(7))


def test_class_ratios_guards():
    with pytest.raises(ConfigError):
        class_ratios(1, 0.5)
    with pytest.raises(ConfigError):
        class_ratios(10, 0.0)
    with pytest.raises(ConfigError):
        class_ratios(10, 1.5)
    for classes in (MAX_STREAM_SAMPLES + 1, 10 ** 400):
        with pytest.raises(ConfigError, match="total_classes"):
            class_ratios(classes, 0.5)


def test_stream_spec_bounds_the_sample_count():
    # classes times samples_per_class, the rows of the sample array, is at
    # most MAX_STREAM_SAMPLES; only the spec is built here, no stream
    StreamSpec(MAX_STREAM_SAMPLES // 4, 1, samples_per_class=4)
    StreamSpec(2, 1, samples_per_class=MAX_STREAM_SAMPLES // 2)
    for classes, samples in ((MAX_STREAM_SAMPLES // 4 + 1, 4), (2, MAX_STREAM_SAMPLES),
                             (10 ** 400, 50), (10 ** 8, 3)):
        with pytest.raises(ConfigError, match=r"^total_classes \* samples_per_class"):
            StreamSpec(classes, 1, samples_per_class=samples)


# ----------------------------------------------------------- allocate_tasks

def test_allocate_pinned_shapes():
    assert allocate_tasks(StreamSpec(100, 10, gamma=0.01)) == \
        [52, 14, 8, 6, 5, 4, 3, 3, 3, 2]
    assert allocate_tasks(_spec()) == [13, 3, 2, 1, 1]
    assert allocate_tasks(StreamSpec(10, 3, gamma=0.1)) == [6, 2, 2]


def test_allocate_counts_are_a_partition():
    for c, t, gamma in [(30, 4, 0.05), (17, 5, 0.3), (9, 9, 0.01),
                        (50, 2, 0.001)]:
        counts = allocate_tasks(StreamSpec(c, t, gamma=gamma))
        assert sum(counts) == c
        assert len(counts) == t
        assert min(counts) >= 1
        assert counts == sorted(counts, reverse=True)


def test_largest_remainder_rejects_shares_past_the_total():
    with pytest.raises(AssertionError, match="^fractional shares exceed the total$"):
        _largest_remainder(np.array([2.0, 2.0]), 3)


def test_allocate_balanced_splits_evenly():
    counts = allocate_tasks(_spec(order=TaskOrder.BALANCED, gamma=0.5))
    assert counts == [4] * 5


def test_allocate_balanced_requires_divisibility():
    with pytest.raises(ConfigError):
        allocate_tasks(StreamSpec(10, 3, order=TaskOrder.BALANCED))


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       gamma=st.floats(min_value=1e-3, max_value=1.0),
       classes=st.integers(2, 60))
def test_allocate_partition_property(data, gamma, classes):
    tasks = data.draw(st.integers(1, classes))
    counts = allocate_tasks(StreamSpec(classes, tasks, gamma=gamma))
    assert sum(counts) == classes
    assert len(counts) == tasks
    assert min(counts) >= 1
    assert counts == sorted(counts, reverse=True)


# --------------------------------------------------------------- StreamSpec

@pytest.mark.parametrize("kwargs", [
    {"total_classes": 1}, {"num_tasks": 0}, {"num_tasks": 21},
    {"gamma": 0.0}, {"gamma": 1.0001}, {"order": "permuted"},
    {"samples_per_class": 0}, {"seed": -1}, {"seed": 1.5}, {"seed": True},
])
def test_stream_spec_validation(kwargs):
    with pytest.raises(ConfigError):
        _spec(**kwargs)


def test_numpy_integer_seeds_are_accepted():
    spec = _spec(seed=np.uint64(2 ** 64 - 1))
    manifest = build_stream(_spec(seed=np.int64(7))).manifest()
    assert json.dumps(manifest) == json.dumps(build_stream(_spec(seed=7)).manifest())
    assert spec.seed == 2 ** 64 - 1
    stream = build_stream(_spec(total_classes=4, num_tasks=2, samples_per_class=10,
                                seed=np.int64(7)))
    cfg = TrainConfig(epochs_base=1, epochs_min=1, seed=np.uint64(3))
    report = run_sequence(stream, Strategy.AVERAGE, cfg)
    plain = run_sequence(build_stream(stream.spec), Strategy.AVERAGE,
                         TrainConfig(epochs_base=1, epochs_min=1, seed=3))
    assert report.canonical_bytes() == plain.canonical_bytes()


@pytest.mark.parametrize("samples_per_class", [1, 2])
def test_stream_spec_rejects_empty_test_split(samples_per_class):
    with pytest.raises(ConfigError, match="test samples"):
        _spec(samples_per_class=samples_per_class)


def test_smallest_valid_split_keeps_train_and_test_rows():
    stream = build_stream(_spec(samples_per_class=3))
    for task in stream.tasks:
        assert task.data.train_x.shape[0] == 2 * task.meta.class_count
        assert task.data.test_x.shape[0] == task.meta.class_count


def test_stream_spec_to_dict_round_trips_values():
    spec = _spec(order=TaskOrder.DESCENDING, samples_per_class=8, seed=42)
    assert spec.to_dict() == {
        "classes": 20, "tasks": 5, "gamma": 0.01, "order": "descending",
        "samples_per_class": 8, "seed": 42,
    }


# ------------------------------------------------------------- build_stream

def test_build_stream_is_deterministic():
    a = build_stream(_spec(seed=5))
    b = build_stream(_spec(seed=5))
    for ta, tb in zip(a.tasks, b.tasks):
        assert ta.meta == tb.meta
        assert np.array_equal(ta.data.train_x, tb.data.train_x)
        assert np.array_equal(ta.data.test_y, tb.data.test_y)
    c = build_stream(_spec(seed=6))
    assert not np.array_equal(a.tasks[0].data.train_x, c.tasks[0].data.train_x)


def test_build_stream_classes_partition_the_label_space():
    stream = build_stream(_spec())
    seen = set()
    for task in stream.tasks:
        assert not (task.meta.class_ids & seen)
        seen |= task.meta.class_ids
    assert seen == set(range(20))


def test_build_stream_task_ids_are_positional():
    stream = build_stream(_spec())
    assert [t.meta.task_id for t in stream.tasks] == [1, 2, 3, 4, 5]


def test_build_stream_descending_keeps_head_first():
    stream = build_stream(_spec(order=TaskOrder.DESCENDING))
    counts = [t.meta.class_count for t in stream.tasks]
    assert counts == [13, 3, 2, 1, 1]


def test_build_stream_permuted_shuffles_the_same_blocks():
    descending = build_stream(_spec(order=TaskOrder.DESCENDING))
    permuted = build_stream(_spec())
    want = sorted(tuple(sorted(t.meta.class_ids)) for t in descending.tasks)
    got = sorted(tuple(sorted(t.meta.class_ids)) for t in permuted.tasks)
    assert got == want


def test_build_stream_ascending_reverses_descending():
    # the same blocks and data in reverse, with no new draw; ids stay positional
    descending = build_stream(_spec(order=TaskOrder.DESCENDING))
    ascending = build_stream(_spec(order=TaskOrder.ASCENDING))
    assert [t.meta.class_count for t in ascending.tasks] == [1, 1, 2, 3, 13]
    assert [t.meta.task_id for t in ascending.tasks] == [1, 2, 3, 4, 5]
    for asc, desc in zip(ascending.tasks, reversed(descending.tasks)):
        assert (asc.meta.class_ids, asc.meta.sample_count) == \
            (desc.meta.class_ids, desc.meta.sample_count)
        for name in ("train_x", "train_y", "test_x", "test_y"):
            assert np.array_equal(getattr(asc.data, name), getattr(desc.data, name))


def test_build_stream_balanced_counts():
    stream = build_stream(_spec(order=TaskOrder.BALANCED, gamma=1.0))
    assert [t.meta.class_count for t in stream.tasks] == [4] * 5


def test_build_stream_split_sizes_and_labels():
    spec = _spec(samples_per_class=10)
    n_train = max(1, round(TRAIN_FRACTION * 10))
    stream = build_stream(spec)
    for task in stream.tasks:
        k = task.meta.class_count
        assert task.data.train_x.shape == (k * n_train, FEATURE_DIM)
        assert task.data.test_x.shape == (k * (10 - n_train), FEATURE_DIM)
        assert task.meta.sample_count == k * n_train
        assert set(task.data.train_y) == task.meta.class_ids
        assert set(task.data.test_y) == task.meta.class_ids
        counts = np.bincount(task.data.train_y, minlength=20)
        assert all(counts[c] == n_train for c in task.meta.class_ids)


def test_build_stream_peak_memory_stays_near_its_samples():
    # the samples are one array, scaled and shifted in place, and each
    # task's splits are indexed from it, so the build's peak allocation
    # stays under 2.6 times the stream's float64 sample data
    spec = StreamSpec(total_classes=2000, num_tasks=10, seed=0)
    data_bytes = spec.total_classes * spec.samples_per_class * FEATURE_DIM * 8
    tracemalloc.start()
    try:
        stream = build_stream(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(t.meta.class_count for t in stream.tasks) == 2000
    assert peak < 2.6 * data_bytes, peak / data_bytes


def test_build_stream_data_is_immutable():
    task = build_stream(_spec()).tasks[0]
    assert not task.data.train_x.flags.writeable
    assert not task.data.test_y.flags.writeable


def test_same_seed_same_data_across_orders():
    # grouping must not change the underlying per-class samples
    descending = build_stream(_spec(order=TaskOrder.DESCENDING))
    permuted = build_stream(_spec())
    by_class_desc = {}
    for task in descending.tasks:
        for cid in sorted(task.meta.class_ids):
            rows = task.data.train_x[task.data.train_y == cid]
            by_class_desc[cid] = rows
    for task in permuted.tasks:
        for cid in sorted(task.meta.class_ids):
            rows = task.data.train_x[task.data.train_y == cid]
            assert np.array_equal(rows, by_class_desc[cid])


# ----------------------------------------------------------------- manifest

def test_manifest_shape_and_determinism():
    stream = build_stream(_spec(seed=3))
    manifest = stream.manifest()
    assert manifest["schema_version"] == 1
    assert manifest["spec"]["classes"] == 20
    assert len(manifest["tasks"]) == 5
    entry = manifest["tasks"][0]
    assert set(entry) == {"task_id", "class_ids", "class_count", "sample_count"}
    assert entry["class_ids"] == sorted(entry["class_ids"])
    again = build_stream(_spec(seed=3)).manifest()
    assert json.dumps(manifest, sort_keys=True) == json.dumps(again, sort_keys=True)
