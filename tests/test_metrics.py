"""Report container and the accuracy-table metrics."""

import json
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from onea import (ConfigError, RunReport, average_accuracy, forgetting,
                  last_accuracy, step_damage, weighted_average_accuracy)


def _report(**kwargs):
    base = dict(
        strategy="one-a",
        stream_seed=0,
        train_seed=0,
        class_counts=[2, 1, 2],
        acc_matrix=[[1.0, 0.75, 0.5],
                    [None, 0.75, 0.75],
                    [None, None, 1.0]],
        step_acc=[1.0, 0.75, 0.625],
        config={"classes": 5},
        svd_calls=4,
        timings={"merge_ms": [0.1, 0.2], "total_s": 1.5},
    )
    base.update(kwargs)
    return RunReport(**base)


# ---------------------------------------------------------------- container

def test_report_json_round_trip():
    report = _report()
    back = RunReport.from_json(report.to_json())
    assert back == report
    assert back.schema_version == 1


def test_report_rejects_missing_and_unknown_fields():
    payload = json.loads(_report().to_json())
    del payload["svd_calls"]
    with pytest.raises(ConfigError, match="missing"):
        RunReport.from_json(json.dumps(payload))
    payload = json.loads(_report().to_json())
    payload["surprise"] = 1
    with pytest.raises(ConfigError, match="unknown"):
        RunReport.from_json(json.dumps(payload))


def test_report_rejects_non_object_and_bad_json():
    with pytest.raises(ConfigError):
        RunReport.from_json("[1, 2]")
    with pytest.raises(ConfigError):
        RunReport.from_json("{not json")


# field overrides that break one rule each, and the message they raise
_MALFORMED = {
    "no-steps": ({"class_counts": [], "step_acc": [], "acc_matrix": []}, "no steps"),
    "row-1-gap": ({"acc_matrix": [[1.0, 0.75, 0.5], [None, None, 0.75],
                                  [None, None, 1.0]]}, "row 1 is incomplete"),
    "last-diagonal-null": ({"acc_matrix": [[1.0, 0.75, 0.5], [None, 0.75, 0.75],
                                           [None, None, None]]}, "row 2 is incomplete"),
    "matrix-2x2": ({"acc_matrix": [[1.0, 0.75], [None, 0.75]]}, "3x3"),
    "two-counts": ({"class_counts": [2, 1]}, "must hold 3 entries, got 2"),
    "zero-count": ({"class_counts": [2, 0, 2]}, "entry must be >= 1"),
    "float-count": ({"class_counts": [2, 1.0, 2]}, "entry must be an integer"),
    "counts-tuple": ({"class_counts": (2, 1, 2)}, "'class_counts' must be a list"),
    "bool-step": ({"step_acc": [1.0, True, 0.5]}, "'step_acc' must be a list"),
    "negative-svd-calls": ({"svd_calls": -1}, "'svd_calls' must be >= 0"),
    "schema-2": ({"schema_version": 2}, "'schema_version' must be 1"),
    "strategy-int": ({"strategy": 5}, "'strategy' must be one of: one-a, "),
    "strategy-null": ({"strategy": None}, "'strategy' must be one of"),
    "strategy-comma": ({"strategy": "x,y"}, r"'strategy' must be .*; got 'x,y'$"),
    "strategy-list": ({"strategy": ["one-a"]}, "'strategy' must be one of"),
    # repr and str of an integer past Python's 4300-digit limit raise ValueError
    "strategy-past-digit-limit": ({"strategy": 10 ** 5000},
                                  "'strategy' must be .*; got an integer of 16610 bits$"),
    "schema-past-digit-limit": ({"schema_version": 10 ** 5000},
                                "'schema_version' must be 1, got an integer of 16610 bits$"),
    "config-list": ({"config": []}, "'config' must be a JSON object"),
    "merge_ms-string": ({"timings": {"merge_ms": "fast"}}, "'timings.merge_ms'"),
    "step-inf": ({"step_acc": [1.0, 0.75, math.inf]}, "finite and lie in"),
    "step-nan": ({"step_acc": [math.nan, 0.75, 0.625]}, "finite and lie in"),
    "step-above-1": ({"step_acc": [1.0, 7.5, 0.625]}, "finite and lie in"),
    "step-negative": ({"step_acc": [1.0, 0.75, -0.125]}, "finite and lie in"),
    "matrix-nan": ({"acc_matrix": [[math.nan, 0.75, 0.5], [None, 0.75, 0.75],
                                   [None, None, 1.0]]}, "finite and lie in"),
    "matrix-above-1": ({"acc_matrix": [[1.0, 0.75, 0.5], [None, 0.75, 0.75],
                                       [None, None, 2]]}, "finite and lie in"),
    "matrix-neg-inf": ({"acc_matrix": [[1.0, -math.inf, 0.5], [None, 0.75, 0.75],
                                       [None, None, 1.0]]}, "finite and lie in"),
    "merge_ms-nan": ({"timings": {"merge_ms": [0.1, math.nan]}}, "finite and >= 0"),
    "merge_ms-inf": ({"timings": {"merge_ms": [math.inf]}}, "finite and >= 0"),
    "merge_ms-negative": ({"timings": {"merge_ms": [0.1, -0.5]}}, "finite and >= 0"),
}


@pytest.mark.parametrize("fields, match", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_report_checks_fields_on_construction(fields, match):
    with pytest.raises(ConfigError, match=match):
        _report(**fields)


def test_report_is_frozen():
    report = _report()
    with pytest.raises(FrozenInstanceError):
        report.step_acc = [0.0, 0.0, 0.0]


def test_canonical_bytes_ignore_timings():
    a = _report(timings={"merge_ms": [0.1], "total_s": 9.9})
    b = _report(timings={"merge_ms": [7.7], "total_s": 0.0})
    assert a.canonical_bytes() == b.canonical_bytes()
    c = _report(step_acc=[1.0, 0.75, 0.626])
    assert a.canonical_bytes() != c.canonical_bytes()


# ------------------------------------------------------------------ metrics

def test_last_and_average_accuracy_hand_values():
    report = _report()
    assert last_accuracy(report) == 0.625
    assert average_accuracy(report) == (1.0 + 0.75 + 0.625) / 3.0


def test_forgetting_hand_value():
    # task 0 peaks at 1.0 and ends at 0.5; task 1 never drops
    assert forgetting(_report()) == 0.25


def test_forgetting_uses_running_maximum():
    report = _report(acc_matrix=[[0.5, 1.0, 0.75],
                                 [None, 0.5, 0.5],
                                 [None, None, 1.0]])
    assert forgetting(report) == 0.125


def test_forgetting_floors_negative_drops():
    report = _report(acc_matrix=[[0.5, 0.5, 1.0],
                                 [None, 0.5, 0.75],
                                 [None, None, 1.0]])
    assert forgetting(report) == 0.0


def test_forgetting_single_task_is_undefined():
    report = _report(class_counts=[2], acc_matrix=[[1.0]], step_acc=[1.0])
    assert forgetting(report) is None


def test_forgetting_rejects_incomplete_matrix():
    with pytest.raises(ConfigError, match="row 0 is incomplete"):
        _report(acc_matrix=[[1.0, None, 0.5],
                            [None, 0.75, 0.75],
                            [None, None, 1.0]])


def test_step_damage_hand_values():
    # step 1: task 0 drops 1.0 -> 0.75; step 2: task 0 drops 0.75 -> 0.5 and
    # task 1 holds at 0.75, so the mean drop is (0.25 + 0) / 2
    assert step_damage(_report()) == [None, 0.25, 0.125]
    # a task that improves counts as negative damage
    gained = _report(acc_matrix=[[0.5, 0.75, 0.5],
                                 [None, 0.5, 1.0],
                                 [None, None, 1.0]])
    assert step_damage(gained) == [None, -0.25, -0.125]
    single = _report(class_counts=[2], acc_matrix=[[0.5]], step_acc=[0.5])
    assert step_damage(single) == [None]


def test_weighted_average_accuracy_hand_value():
    # cumulative class weights 2, 3, 5 over steps 1.0, 0.75, 0.625
    assert weighted_average_accuracy(_report()) == \
        (2.0 * 1.0 + 3.0 * 0.75 + 5.0 * 0.625) / 10.0


def test_weighted_average_accuracy_override_counts():
    report = replace(_report(), class_counts=[1, 1, 1])
    flat = weighted_average_accuracy(report)
    weights = np.array([1.0, 2.0, 3.0])
    want = float(weights @ np.array(report.step_acc) / weights.sum())
    assert flat == pytest.approx(want, abs=1e-15)


def test_weighted_average_accuracy_guards():
    with pytest.raises(ConfigError):
        replace(_report(), class_counts=[1, 2])
    with pytest.raises(ConfigError):
        replace(_report(), class_counts=[1, 0, 1])
    with pytest.raises(ConfigError):
        _report(class_counts=[], step_acc=[], acc_matrix=[])
