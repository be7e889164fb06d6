"""The one integer rule: every integer field and argument goes through
check_int, so a float, a bool or a string fails at construction with
ConfigError, and a numpy integer is accepted and stored as a Python int."""

import numpy as np
import pytest

from onea import (Backbone, ConfigError, StreamSpec, TaskMeta, TrainConfig,
                  build_stream, class_ratios, epoch_schedule, lambda_schedule,
                  merge_average, train_task)
from onea.errors import check_int

from conftest import make_module


def _spec(**kwargs):
    base = dict(total_classes=6, num_tasks=3, samples_per_class=10, seed=1)
    base.update(kwargs)
    return StreamSpec(**base)


def _meta(**kwargs):
    base = dict(task_id=1, class_ids=frozenset({0}), sample_count=1)
    base.update(kwargs)
    return TaskMeta(**base)


_CFG = TrainConfig()
_ACC = make_module([np.ones((2, 2))], task_id=1)
_NEW = make_module([3.0 * np.ones((2, 2))], task_id=2)
_TASK = build_stream(_spec()).tasks[0]
_BACKBONE = Backbone.from_seed(32, 8, 0)

# name -> (a call that puts its argument in the slot and returns what was
# stored or computed, a valid value for the slot); a numpy integer must
# give the same result, of the same type, as the equal Python int
_SLOTS = {
    "StreamSpec.total_classes": (lambda v: _spec(total_classes=v).total_classes, 6),
    "StreamSpec.num_tasks": (lambda v: _spec(num_tasks=v).num_tasks, 3),
    "StreamSpec.samples_per_class":
        (lambda v: _spec(samples_per_class=v).samples_per_class, 10),
    "StreamSpec.seed": (lambda v: _spec(seed=v).seed, 7),
    "TrainConfig.epochs_base": (lambda v: TrainConfig(epochs_base=v).epochs_base, 3),
    "TrainConfig.epochs_min": (lambda v: TrainConfig(epochs_min=v).epochs_min, 3),
    "TrainConfig.epochs_max": (lambda v: TrainConfig(epochs_max=v).epochs_max, 3),
    "TrainConfig.batch_size": (lambda v: TrainConfig(batch_size=v).batch_size, 3),
    "TrainConfig.bottleneck": (lambda v: TrainConfig(bottleneck=v).bottleneck, 3),
    "TrainConfig.seed": (lambda v: TrainConfig(seed=v).seed, 3),
    "TaskMeta.task_id": (lambda v: _meta(task_id=v).task_id, 3),
    "TaskMeta.sample_count": (lambda v: _meta(sample_count=v).sample_count, 3),
    "TaskMeta.class_id":
        (lambda v: next(iter(_meta(class_ids=frozenset({v})).class_ids)), 3),
    "lambda_schedule.class_count": (lambda v: lambda_schedule(v, _CFG), 3),
    "epoch_schedule.class_count": (lambda v: epoch_schedule(v, 20, 5, _CFG), 3),
    "epoch_schedule.total_classes": (lambda v: epoch_schedule(1, v, 1, _CFG), 3),
    "epoch_schedule.num_tasks": (lambda v: epoch_schedule(4, 20, v, _CFG), 3),
    "train_task.epochs":
        (lambda v: train_task(_TASK, _BACKBONE, _CFG, epochs=v)[0].layers[1].tolist(), 3),
    "class_ratios.total_classes": (lambda v: tuple(class_ratios(v, 0.5)), 3),
    "merge_average.n_prev_tasks":
        (lambda v: merge_average(_NEW, _ACC, v).layers[0].tolist(), 3),
}


@pytest.mark.parametrize("slot", _SLOTS.values(), ids=_SLOTS.keys())
def test_integer_slots_follow_the_rule(slot):
    call, good = slot
    for bad in (2.5, 4.0, True, "3"):
        with pytest.raises(ConfigError):
            call(bad)
    stored, expected = call(np.int64(good)), call(good)
    assert stored == expected and type(stored) is type(expected)


def test_check_int_bounds_and_messages():
    assert check_int("n", np.uint64(2 ** 64 - 1)) == 2 ** 64 - 1
    assert check_int("n", 5, 5, 5) == 5
    with pytest.raises(ConfigError, match=r"^n must be an integer, got '3'$"):
        check_int("n", "3")
    with pytest.raises(ConfigError, match=r"^n must be >= 1, got 0$"):
        check_int("n", 0, 1)
    with pytest.raises(ConfigError, match=r"^n must lie in \[1, 4\], got 5$"):
        check_int("n", 5, 1, 4)
    # a bound past 40 characters is cut like the value, to its first 19 and
    # last 18 digits, so the line stays short
    with pytest.raises(ConfigError, match=r"^n must lie in \[1, 1797693\d{12}\.\.\.\d{17}6\], "
                                          r"got 10{18}\.\.\.0{18}$"):
        check_int("n", 10 ** 400, 1, 2 ** 1024)
    # a value past the bound by 1 prints apart from it, in its last digit
    top = 2 ** 1024 - 2 ** 970 - 1
    with pytest.raises(ConfigError) as caught:
        check_int("n", top + 1, 1, top)
    bound, value = str(top), str(top + 1)
    assert str(caught.value) == (f"n must lie in [1, {bound[:19]}...{bound[-18:]}], "
                                 f"got {value[:19]}...{value[-18:]}")
    assert bound[-18:] != value[-18:]


def test_integers_past_the_digit_limit_are_quoted_by_bit_length():
    # str() of an integer past Python's 4300-digit limit raises ValueError,
    # so the messages give such an integer's size in bits
    huge = 10 ** 5000
    calls = {
        r"total_classes \* samples_per_class must be <= 4194304, "
        r"got an integer of 16610 bits \* 50":
            lambda: StreamSpec(total_classes=huge, num_tasks=1),
        r"stream seed must lie in \[0, 18446744073709551615\], got an integer of 16610 bits":
            lambda: StreamSpec(6, 1, seed=huge),
        r"epochs_max must be >= an integer of 16610 bits, got 60":
            lambda: TrainConfig(epochs_min=huge),
        r"n must lie in \[an integer of 16610 bits, an integer of 16611 bits\], got 0":
            lambda: check_int("n", 0, huge, 2 * huge),
    }
    for message, call in calls.items():
        with pytest.raises(ConfigError, match=f"^{message}$"):
            call()
