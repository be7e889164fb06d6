"""End-to-end CLI behavior: subcommands, config plumbing, exit codes."""

import contextlib
import io
import json
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onea import (InfoProxy, RunReport, Strategy, TaskOrder, load_module,
                  save_module)
from onea.cli import RUN_DEFAULTS, main
from onea.counters import SVD_CALLS

from conftest import make_module

RUN_ARGS = ["--set", "classes=4", "--set", "tasks=2",
            "--set", "samples_per_class=10", "--set", "epochs_base=1",
            "--set", "epochs_min=1"]


def _strip_timings(path):
    payload = json.loads(path.read_text())
    payload.pop("timings")
    return payload


def _two_modules(tmp_path, shape=(4, 2)):
    rng = np.random.default_rng(0)
    rows, cols = shape
    a = make_module([rng.normal(size=(rows, cols)),
                     rng.normal(size=(cols, rows))],
                    task_id=1, class_ids=(0, 1), sample_count=40,
                    bottleneck=cols)
    b = make_module([rng.normal(size=(rows, cols)),
                     rng.normal(size=(cols, rows))],
                    task_id=2, class_ids=(2,), sample_count=20,
                    bottleneck=cols)
    pa, pb = tmp_path / "a.onea", tmp_path / "b.onea"
    save_module(a, pa)
    save_module(b, pb)
    return pa, pb


# --------------------------------------------------------------- gen-stream

def test_gen_stream_stdout(capsys):
    assert main(["gen-stream", "--classes", "10", "--tasks", "2",
                 "--seed", "3"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["schema_version"] == 1
    assert manifest["spec"]["classes"] == 10
    assert sum(t["class_count"] for t in manifest["tasks"]) == 10


def test_gen_stream_deterministic_files(tmp_path):
    out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
    argv = ["gen-stream", "--classes", "12", "--tasks", "3", "--seed", "9"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_stream_balanced(capsys):
    assert main(["gen-stream", "--classes", "10", "--tasks", "5",
                 "--gamma", "1.0", "--order", "balanced"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert [t["class_count"] for t in manifest["tasks"]] == [2] * 5


def test_gen_stream_bad_flags_exit_2(capsys):
    assert main(["gen-stream", "--classes", "5", "--tasks", "9"]) == 2
    assert main(["gen-stream", "--classes", "10", "--tasks", "2",
                 "--order", "sideways"]) == 2


# ---------------------------------------------------------------------- run

def test_run_writes_reports_and_adapters(tmp_path, capsys):
    out = tmp_path / "runs"
    argv = ["run", *RUN_ARGS, "--set", 'strategies=["one-a","average"]',
            "--out-dir", str(out)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for name in ("one-a", "average"):
        report = RunReport.from_json((out / f"report-{name}.json").read_text())
        assert report.schema_version == 1
        assert report.strategy == name
        assert report.config["classes"] == 4
        module = load_module(out / f"adapter-{name}.onea")
        assert module.meta.class_ids == set(range(4))


def test_run_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["run", *RUN_ARGS, "--set", 'strategies=["one-a"]']
    assert main(argv + ["--out-dir", str(a)]) == 0
    assert main(argv + ["--out-dir", str(b)]) == 0
    assert _strip_timings(a / "report-one-a.json") == \
        _strip_timings(b / "report-one-a.json")


def test_run_per_task_writes_one_adapter_per_task(tmp_path):
    out = tmp_path / "runs"
    argv = ["run", *RUN_ARGS, "--set", 'strategies=["per-task"]',
            "--out-dir", str(out)]
    assert main(argv) == 0
    assert (out / "adapter-per-task-t1.onea").exists()
    assert (out / "adapter-per-task-t2.onea").exists()


def test_run_all_strategies_matches_single_strategy_runs(tmp_path):
    names = ["one-a", "average", "symmetric", "per-task", "single-finetune"]
    shared = tmp_path / "shared"
    argv = ["run", *RUN_ARGS, "--set", "tasks=3"]
    assert main(argv + ["--set", f"strategies={json.dumps(names)}",
                        "--out-dir", str(shared)]) == 0
    for name in names:
        alone = tmp_path / name
        assert main(argv + ["--set", f"strategies={json.dumps([name])}",
                            "--out-dir", str(alone)]) == 0
        assert _strip_timings(shared / f"report-{name}.json") == \
            _strip_timings(alone / f"report-{name}.json")
        for path in alone.glob("*.onea"):
            assert (shared / path.name).read_bytes() == path.read_bytes()


def test_run_rejects_empty_test_split_before_training(tmp_path, capsys):
    out = tmp_path / "runs"
    argv = ["run", *RUN_ARGS, "--set", "samples_per_class=2",
            "--out-dir", str(out)]
    assert main(argv) == 2
    assert "samples_per_class" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_run_rejects_bad_train_seed_before_training(seed, tmp_path, capsys):
    out = tmp_path / "runs"
    argv = ["run", *RUN_ARGS, "--set", f"train_seed={seed}",
            "--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "train seed" in err
    assert not out.exists()


def test_run_config_file_and_overrides(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"classes": 4, "tasks": 2,
                                "samples_per_class": 10, "epochs_base": 1,
                                "epochs_min": 1, "strategies": ["average"]}))
    out = tmp_path / "runs"
    argv = ["run", "--config", str(conf), "--set", "stream_seed=5",
            "--out-dir", str(out)]
    assert main(argv) == 0
    report = RunReport.from_json((out / "report-average.json").read_text())
    assert report.stream_seed == 5


def test_run_defaults_keys_values_and_types():
    want = {
        "classes": 20, "tasks": 5, "gamma": 0.01, "order": "permuted",
        "samples_per_class": 50, "stream_seed": 0,
        "lr": 0.1, "epochs_base": 15, "epochs_min": 2, "epochs_max": 60,
        "beta": 0.5, "lambda_min": 0.01, "lambda_max": 0.1, "k_decay": 2.3979,
        "tau_margin": 0.07, "batch_size": 32, "bottleneck": 8,
        "cosine_lr": False, "train_seed": 0,
        "quantile_q": 0.5, "kappa": 10.0, "delta": 1e-6, "rank_eps": 1e-10,
        "info_proxy": "class-count",
        "strategies": ["one-a", "average"], "out_dir": "runs",
    }
    assert RUN_DEFAULTS == want
    assert {k: type(v) for k, v in RUN_DEFAULTS.items()} == \
        {k: type(v) for k, v in want.items()}


def test_run_report_echoes_every_key(tmp_path):
    out = tmp_path / "runs"
    conf = {
        "classes": 6, "tasks": 2, "gamma": 0.2, "order": "balanced",
        "samples_per_class": 10, "stream_seed": 3,
        "lr": 0.05, "epochs_base": 1, "epochs_min": 1, "epochs_max": 3,
        "beta": 0.4, "lambda_min": 0.02, "lambda_max": 0.2, "k_decay": 1.5,
        "tau_margin": 0.1, "batch_size": 7, "bottleneck": 4,
        "cosine_lr": True, "train_seed": 5,
        "quantile_q": 0.4, "kappa": 8.0, "delta": 1e-5, "rank_eps": 1e-9,
        "info_proxy": "frobenius",
        "strategies": ["symmetric"], "out_dir": str(out),
    }
    assert set(conf) == set(RUN_DEFAULTS)
    assert all(conf[k] != RUN_DEFAULTS[k] for k in conf)
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    assert main(["run", "--config", str(path)]) == 0
    report = RunReport.from_json((out / "report-symmetric.json").read_text())
    assert (report.stream_seed, report.train_seed) == (3, 5)
    for key in ("stream_seed", "train_seed", "strategies", "out_dir"):
        del conf[key]
    assert report.config == conf


@pytest.mark.parametrize("argv", [
    ["run", "--set", "no_such_key=1"],
    ["run", "--set", "classes"],                   # missing '='
    ["run", "--set", "classes=maybe"],             # wrong type
    ["run", "--set", "epochs_base=1.5"],           # float for int
    ["run", "--set", 'strategies=["warp"]'],       # unknown strategy
    ["run", "--set", "strategies=[]"],
])
def test_run_config_errors_exit_2(argv, tmp_path, capsys):
    assert main(argv + ["--out-dir", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_rejects_a_repeated_strategy_before_training(tmp_path, capsys):
    out = tmp_path / "runs"
    argv = ["run", *RUN_ARGS, "--set",
            'strategies=["one-a", "average", "one-a", "average"]',
            "--out-dir", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: config key 'strategies' names average, "
                            "one-a more than once\n")
    assert not out.exists()


@pytest.mark.parametrize("setting", ["lr=NaN", "lr=Infinity", "k_decay=NaN",
                                     "gamma=-Infinity"])
def test_run_rejects_non_finite_floats_before_training(setting, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["run", *RUN_ARGS, "--set", setting, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be finite" in err
    assert not out.exists()


def test_run_large_beta_clamps_the_epoch_budget(tmp_path):
    # 1000th powers of the task-size ratios overflow a float; the head
    # tasks clamp to epochs_max and the tail tasks to epochs_min
    out = tmp_path / "runs"
    assert main(["run", "--set", "beta=1000", "--set", 'strategies=["per-task"]',
                 "--out-dir", str(out)]) == 0
    assert (out / "report-per-task.json").exists()


@pytest.mark.parametrize("setting", ["epochs_base", "lr"])
def test_run_rejects_integers_past_the_largest_float(setting, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["run", "--set", f"{setting}=1{'0' * 400}", "--set", "beta=1000",
                 "--out-dir", str(out)]) == 2
    assert "past the largest float" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_bad_config_file(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text("{broken")
    assert main(["run", "--config", str(conf)]) == 2
    conf.write_text(json.dumps({"intruder": 1}))
    assert main(["run", "--config", str(conf)]) == 2
    conf.write_text(json.dumps([1, 2]))
    assert main(["run", "--config", str(conf)]) == 2
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 4


def test_run_divergence_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["run", "--set", "lr=1e300", "--set", "classes=6", "--set", "tasks=2",
                 "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: loss diverged") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["run", "eval", "compare"])
def test_non_utf8_file_exits_2(command, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "runs"
    argv = {"run": ["run", "--config", str(bad), "--out-dir", str(out)],
            "eval": ["eval", str(bad)],
            "compare": ["compare", str(bad), str(bad)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and err.count("\n") == 1, err
    assert not out.exists()


# -------------------------------------------------------------------- merge

def test_merge_one_a_roundtrip(tmp_path, capsys):
    pa, pb = _two_modules(tmp_path)
    out = tmp_path / "merged.onea"
    assert main(["merge", str(pa), str(pb), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "base: task 1" in stdout            # 40 samples beats 20
    assert "effective rank" in stdout
    merged = load_module(out)
    assert merged.meta.class_ids == {0, 1, 2}
    assert merged.meta.sample_count == 60


@pytest.mark.parametrize("strategy, svds_per_layer",
                         [("one-a", 1), ("symmetric", 1), ("average", 0)])
def test_merge_svd_cost_per_strategy(strategy, svds_per_layer, tmp_path):
    pa, pb = _two_modules(tmp_path)
    before = SVD_CALLS.value
    assert main(["merge", str(pa), str(pb), "--out", str(tmp_path / "m.onea"),
                 "--strategy", strategy]) == 0
    assert SVD_CALLS.value - before == svds_per_layer * len(load_module(pa).layers)


def test_merge_self_is_near_identity(tmp_path):
    pa, _ = _two_modules(tmp_path)
    out = tmp_path / "self.onea"
    assert main(["merge", str(pa), str(pa), "--out", str(out)]) == 0
    original = load_module(pa)
    merged = load_module(out)
    for got, want in zip(merged.layers, original.layers):
        # two float32 quantization passes on top of the 1e-8 merge math
        assert np.allclose(got, want, atol=1e-5)


def test_merge_average_and_symmetric(tmp_path, capsys):
    pa, pb = _two_modules(tmp_path)
    for strategy in ("average", "symmetric"):
        out = tmp_path / f"{strategy}.onea"
        assert main(["merge", str(pa), str(pb), "--out", str(out),
                     "--strategy", strategy, "--n-prev", "2"]) == 0
        assert load_module(out).meta.class_ids == {0, 1, 2}
    outputs = [load_module(tmp_path / f"{s}.onea").layers[0]
               for s in ("average", "symmetric")]
    assert np.linalg.norm(outputs[0] - outputs[1]) > 0.0


def test_merge_error_exit_codes(tmp_path, capsys):
    pa, _ = _two_modules(tmp_path)
    other = tmp_path / "wide.onea"
    save_module(make_module([np.ones((6, 3)), np.ones((3, 6))], task_id=3,
                            bottleneck=3), other)
    out = tmp_path / "out.onea"
    for strategy in ("one-a", "average", "symmetric"):
        assert main(["merge", str(pa), str(other), "--out", str(out),
                     "--strategy", strategy]) == 2
        assert capsys.readouterr().out == ""

    corrupt = tmp_path / "corrupt.onea"
    corrupt.write_bytes(b"JUNKJUNKJUNK")
    assert main(["merge", str(pa), str(corrupt), "--out", str(out)]) == 4
    assert "byte offset" in capsys.readouterr().err

    # same-length header edits: duplicate class ids, and a string of ids
    data = pa.read_bytes()
    for name, ids in (("dup", b"[1,1]"), ("str", b'"ab" ')):
        bad = tmp_path / f"{name}.onea"
        bad.write_bytes(data.replace(b'"class_ids":[0,1]', b'"class_ids":' + ids))
        assert bad.read_bytes() != data
        assert main(["merge", str(pa), str(bad), "--out", str(out)]) == 4
        assert "byte offset 12" in capsys.readouterr().err

    assert main(["merge", str(pa), str(tmp_path / "absent.onea"),
                 "--out", str(out)]) == 4


@pytest.mark.parametrize("strategy", ["one-a", "average", "symmetric"])
def test_merge_unwritable_out_prints_nothing(strategy, tmp_path, capsys):
    pa, pb = _two_modules(tmp_path)
    out = tmp_path / "missing" / "merged.onea"
    assert main(["merge", str(pa), str(pb), "--out", str(out),
                 "--strategy", strategy]) == 4
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_merge_zero_base_keeps_zero_layers(tmp_path, capsys):
    _, new = _two_modules(tmp_path)
    zero = tmp_path / "zero.onea"
    # more samples than the new module, so the all-zero module is the base
    save_module(make_module([np.zeros((4, 2)), np.zeros((2, 4))], task_id=1,
                            class_ids=(0, 1), sample_count=40, bottleneck=2),
                zero)
    out = tmp_path / "out.onea"
    assert main(["merge", str(zero), str(new), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for i in (0, 1):
        assert f"layer {i}: effective rank 0," in captured.out
    merged = load_module(out)
    assert [w.shape for w in merged.layers] == [(4, 2), (2, 4)]
    assert not any(w.any() for w in merged.layers)


# ----------------------------------------------------- validated configs

@st.composite
def _small_run_configs(draw):
    classes = draw(st.integers(2, 8))
    conf = {
        "classes": classes,
        "tasks": draw(st.integers(1, classes)),
        "samples_per_class": draw(st.integers(3, 6)),
        "batch_size": draw(st.integers(1, 4)),
        "epochs_min": 0,
        "epochs_max": draw(st.integers(0, 3)),
        "bottleneck": draw(st.integers(1, 3)),
        "order": draw(st.sampled_from([o.value for o in TaskOrder])),
        "info_proxy": draw(st.sampled_from([p.value for p in InfoProxy])),
        "quantile_q": draw(st.sampled_from([0.0, 0.5, 1.0])),
        "cosine_lr": draw(st.booleans()),
        "strategies": draw(st.lists(st.sampled_from([s.value for s in Strategy]),
                                    min_size=1, unique=True)),
        "stream_seed": draw(st.integers(0, 5)),
        "train_seed": draw(st.integers(0, 5)),
    }
    assume(conf["order"] != "balanced" or classes % conf["tasks"] == 0)
    return conf


@settings(max_examples=60, deadline=None)
@given(conf=_small_run_configs())
def test_validated_small_configs_finish(conf):
    # zero-epoch tasks and single-row batches leave adapters at their zero
    # init, so every merge strategy meets all-zero layers here
    argv = ["run"]
    for key, value in conf.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv + ["--out-dir", tmp])
    if code == 3:
        assert err.getvalue().startswith("error: loss diverged"), err.getvalue()
    else:
        assert code == 0, err.getvalue()


# --------------------------------------------------------------- eval

def _run_one(tmp_path):
    out = tmp_path / "runs"
    assert main(["run", *RUN_ARGS, "--set", 'strategies=["one-a","average"]',
                 "--out-dir", str(out)]) == 0
    return out


def test_eval_prints_metrics(tmp_path, capsys):
    out = _run_one(tmp_path)
    capsys.readouterr()
    assert main(["eval", str(out / "report-one-a.json")]) == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout[:stdout.rindex("\n", 0, -1)])
    assert set(payload) == {"last_accuracy", "avg_accuracy",
                            "weighted_avg_accuracy", "forgetting"}
    csv_line = stdout.strip().splitlines()[-1]
    assert len(csv_line.split(",")) == 4


def test_eval_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["eval", str(bad)]) == 2
    assert main(["eval", str(tmp_path / "absent.json")]) == 4


_MALFORMED = {
    "step_acc-string": {"step_acc": "ab"},
    "step_acc-null": {"step_acc": [0.5, None]},
    "acc_matrix-short": {"acc_matrix": [[0.5, 0.4]]},
    "acc_matrix-short-row": {"acc_matrix": [[0.5, 0.4], [None]]},
    "class_counts-string": {"class_counts": "ab"},
    "timings-list": {"timings": [1.0]},
    "merge_ms-string": {"timings": {"merge_ms": "ab", "total_s": 1.0}},
    "config-list": {"config": ["classes", 4]},
    "schema_version-99": {"schema_version": 99},
    "schema_version-string": {"schema_version": "x"},
    "stream_seed-float": {"stream_seed": 1.5},
    "train_seed-string": {"train_seed": "x"},
    "svd_calls-bool": {"svd_calls": True},
    "svd_calls-negative": {"svd_calls": -1},
    "step_acc-infinity": {"step_acc": [0.5, float("inf")]},
    "step_acc-above-1": {"step_acc": [0.5, 7.5]},
    "acc_matrix-nan": {"acc_matrix": [[float("nan"), 0.4], [None, 0.6]]},
    "timings-merge_ms-nan": {"timings": {"merge_ms": [0.0, float("nan")], "total_s": 1.0}},
}


def _report_payload(**fields):
    payload = {
        "strategy": "one-a", "stream_seed": 0, "train_seed": 0,
        "class_counts": [2, 2], "acc_matrix": [[0.5, 0.4], [None, 0.6]],
        "step_acc": [0.5, 0.5], "config": {"classes": 4, "tasks": 2},
        "svd_calls": 2, "timings": {"merge_ms": [0.0, 0.1], "total_s": 1.0},
        "schema_version": 1,
    }
    payload.update(fields)
    return payload


@pytest.mark.parametrize("command", ["eval", "compare"])
@pytest.mark.parametrize("fields", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_report_exit_2(command, fields, tmp_path, capsys):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(_report_payload()))
    bad.write_text(json.dumps(_report_payload(**fields)))
    assert main(["eval", str(good)]) == 0
    assert main(["compare", str(good), str(good)]) == 0
    capsys.readouterr()
    argv = ["eval", str(bad)] if command == "eval" else \
        ["compare", str(good), str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: report")
    assert next(iter(fields)) in err


# ------------------------------------------------------------------ compare

def test_compare_table_and_outputs(tmp_path, capsys):
    out = _run_one(tmp_path)
    capsys.readouterr()
    csv_path = tmp_path / "table.csv"
    json_path = tmp_path / "table.json"
    assert main(["compare", str(out / "report-one-a.json"),
                 str(out / "report-average.json"),
                 "--out-csv", str(csv_path), "--out-json", str(json_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[:2] == ["strategy", "last_accuracy"]
    assert len(lines) == 3
    assert lines[1].startswith("one-a,")
    assert csv_path.read_text().strip() == "\n".join(lines)
    payload = json.loads(json_path.read_text())
    assert payload["schema_version"] == 1
    assert len(payload["rows"]) == 2
    assert main(["compare", str(out / "report-one-a.json"),
                 str(out / "report-average.json"), "--out-json", "-"]) == 0
    table, dumped = capsys.readouterr().out.split("\n{", 1)
    assert table.splitlines() == lines
    assert json.loads("{" + dumped) == payload


@pytest.mark.parametrize("flag", ["--out-json", "--out-csv"])
def test_compare_unwritable_output_prints_nothing(flag, tmp_path, capsys):
    out = _run_one(tmp_path)
    capsys.readouterr()
    assert main(["compare", str(out / "report-one-a.json"),
                 flag, str(tmp_path / "absent" / "table")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_compare_rejects_mismatched_streams(tmp_path, capsys):
    out = _run_one(tmp_path)
    moved = json.loads((out / "report-average.json").read_text())
    moved["stream_seed"] = 1
    other_seed = tmp_path / "other-seed.json"
    other_seed.write_text(json.dumps(moved))
    assert main(["compare", str(out / "report-one-a.json"),
                 str(other_seed)]) == 2

    moved = json.loads((out / "report-average.json").read_text())
    moved["config"]["classes"] = 9
    other_shape = tmp_path / "other-shape.json"
    other_shape.write_text(json.dumps(moved))
    assert main(["compare", str(out / "report-one-a.json"),
                 str(other_shape)]) == 2
    assert "stream" in capsys.readouterr().err


# ------------------------------------------------------------------- README

def _readme_walkthrough():
    """(argv, shown stdout lines) of each `$ onea ...` command in the
    README's code blocks, with backslash continuations joined."""
    steps, command = [], None
    for line in (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8").splitlines():
        if line.startswith("```"):
            command = None
        elif command is not None and command[-1].endswith("\\"):
            command.append(line)
        elif line.startswith("$ onea "):
            command = [line.removeprefix("$ onea ")]
            steps.append((command, []))
        elif command is not None:
            steps[-1][1].append(line)
    return [(shlex.split(" ".join(c.rstrip("\\") for c in parts)), shown)
            for parts, shown in steps]


def test_readme_walkthrough_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = _readme_walkthrough()
    assert [argv[0] for argv, _ in steps] == ["gen-stream", "run", "eval",
                                              "compare", "merge"]
    for argv, shown in steps:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out.rstrip("\n").splitlines()
        # "..." marks an abridged printout; compare's last column is wall time
        if argv[0] != "compare" and not any("..." in line for line in shown):
            assert out == [line for line in shown if line], argv
