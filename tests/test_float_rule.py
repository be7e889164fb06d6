"""The one float rule: every float field goes through check_float, so a
bool, a string, NaN or an infinity fails at construction with ConfigError,
and a numpy float or an integer is accepted and stored as a Python float."""

import math

import numpy as np
import pytest

from onea import ConfigError, MergeConfig, StreamSpec, TrainConfig, class_ratios
from onea.errors import check_float


def _spec(**kwargs):
    return StreamSpec(total_classes=6, num_tasks=3, **kwargs)


# name -> (a call that puts its argument in the slot and returns what was
# stored or computed, a valid value for the slot)
_SLOTS = {
    "StreamSpec.gamma": (lambda v: _spec(gamma=v).gamma, 0.5),
    "TrainConfig.lr": (lambda v: TrainConfig(lr=v).lr, 0.5),
    "MergeConfig.quantile_q": (lambda v: MergeConfig(quantile_q=v).quantile_q, 0.5),
    "MergeConfig.sharpness_kappa":
        (lambda v: MergeConfig(sharpness_kappa=v).sharpness_kappa, 0.5),
    "class_ratios.gamma": (lambda v: float(class_ratios(3, v)[-1]), 0.5),
}


@pytest.mark.parametrize("slot", _SLOTS.values(), ids=_SLOTS.keys())
def test_float_slots_follow_the_rule(slot):
    call, good = slot
    for bad in (True, False, "0.5", None, math.nan, math.inf, -math.inf,
                np.float64(np.nan), 10 ** 400):
        with pytest.raises(ConfigError):
            call(bad)
    stored, expected = call(np.float64(good)), call(good)
    assert stored == expected and type(stored) is type(expected) is float


def test_integers_are_stored_as_floats():
    assert type(_spec(gamma=1).gamma) is float
    assert TrainConfig(lr=1).lr == 1.0 and type(TrainConfig(lr=1).lr) is float


def test_check_float_messages():
    assert check_float("x", np.float32(0.25)) == 0.25
    with pytest.raises(ConfigError, match=r"^x must be a number, got True$"):
        check_float("x", True)
    with pytest.raises(ConfigError, match=r"^x must be finite, got nan$"):
        check_float("x", math.nan)
    with pytest.raises(ConfigError, match=r"^x must be finite, got -inf$"):
        check_float("x", -math.inf)
    with pytest.raises(ConfigError, match=r"^x must be finite, got an integer "
                                          r"past the largest float$"):
        check_float("x", -10 ** 400)
