"""End-to-end CLI behavior: subcommands, config plumbing, exit codes."""

import contextlib
import io
import json
import re
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onea import (ConfigError, MergeConfig, RunReport, Strategy, StreamSpec,
                  TaskOrder, TrainConfig, average_accuracy, forgetting, last_accuracy,
                  load_module, save_module, step_damage, weighted_average_accuracy)
from onea.cli import RUN_DEFAULTS, _build_objects, main
from onea.counters import SVD_CALLS
from onea.sim import BACKBONE_DIM, MAX_EPOCHS, run_config
from onea.stream import MAX_STREAM_SAMPLES

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
                    task_id=1, class_ids=(0, 1), sample_count=40)
    b = make_module([rng.normal(size=(rows, cols)),
                     rng.normal(size=(cols, rows))],
                    task_id=2, class_ids=(2,), sample_count=20)
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


@pytest.mark.parametrize("classes, samples", [("1" + "0" * 400, "50"), ("100000000", "3")],
                         ids=["401-digits", "1e8"])
def test_gen_stream_too_big_to_build_exits_2(classes, samples, tmp_path, capsys):
    # the spec bounds the stream's samples, so no array is allocated
    out = tmp_path / "manifest.json"
    assert main(["gen-stream", "--classes", classes, "--tasks", "1",
                 "--samples-per-class", samples, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: total_classes * samples_per_class "
                                   f"must be <= {MAX_STREAM_SAMPLES}, got ")
    assert captured.err.count("\n") == 1 and len(captured.err) < 200
    assert not out.exists()


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


def test_run_per_task_names_its_adapter_by_task_on_a_one_task_stream(tmp_path):
    out = tmp_path / "runs"
    argv = ["run", *RUN_ARGS, "--set", "tasks=1",
            "--set", 'strategies=["per-task", "average"]', "--out-dir", str(out)]
    assert main(argv) == 0
    assert sorted(p.name for p in out.glob("*.onea")) == \
        ["adapter-average.onea", "adapter-per-task-t1.onea"]


def test_run_backbone_writes_one_identity_adapter(tmp_path):
    out = tmp_path / "runs"
    argv = ["run", *RUN_ARGS, "--set", 'strategies=["backbone"]', "--out-dir", str(out)]
    assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == \
        ["adapter-backbone.onea", "report-backbone.json"]
    assert not any(w.any() for w in load_module(out / "adapter-backbone.onea").layers)


def test_run_all_strategies_matches_single_strategy_runs(tmp_path):
    names = ["one-a", "average", "symmetric", "per-task", "single-finetune", "backbone"]
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
        "epochs_base": 15, "epochs_min": 2, "epochs_max": 60,
        "bottleneck": 8, "train_seed": 0,
        "strategies": ["one-a", "average"],
    }
    assert RUN_DEFAULTS == want
    assert {k: type(v) for k, v in RUN_DEFAULTS.items()} == \
        {k: type(v) for k, v in want.items()}


def test_run_report_echoes_every_key(tmp_path):
    out = tmp_path / "runs"
    conf = {
        "classes": 6, "tasks": 2, "gamma": 0.2, "order": "balanced",
        "samples_per_class": 10, "stream_seed": 3,
        "epochs_base": 1, "epochs_min": 1, "epochs_max": 3,
        "bottleneck": 4, "train_seed": 5,
        "strategies": ["symmetric"],
    }
    assert set(conf) == set(RUN_DEFAULTS)
    assert all(conf[k] != RUN_DEFAULTS[k] for k in conf)
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
    report = RunReport.from_json((out / "report-symmetric.json").read_text())
    assert (report.stream_seed, report.train_seed) == (3, 5)
    for key in ("stream_seed", "train_seed", "strategies"):
        del conf[key]
    assert report.config == conf


@pytest.mark.parametrize("argv", [
    ["run", "--set", "no_such_key=1"],
    ["run", "--set", "classes"],                   # missing '='
    ["run", "--set", "classes=maybe"],             # wrong type
    ["run", "--set", "epochs_base=1.5"],           # float for int
    ["run", "--set", 'strategies=["warp"]'],       # unknown strategy
    ["run", "--set", "strategies=[]"],
    # no options: delta and rank_eps are MergeConfig constants, and
    # --out-dir is the one setter of the output directory
    ["run", "--set", "delta=1e-6"],
    ["run", "--set", "rank_eps=1e-10"],
    ["run", "--set", "out_dir=x"],
    # the schedule shapes are TrainConfig constants, and cosine_lr is gone
    ["run", "--set", "beta=0.5"],
    ["run", "--set", "lambda_min=0.01"],
    ["run", "--set", "lambda_max=0.1"],
    ["run", "--set", "k_decay=2.3979"],
    ["run", "--set", "tau_margin=0.07"],
    ["run", "--set", "cosine_lr=false"],
    # the gate's threshold quantile and sharpness are MergeConfig constants
    ["run", "--set", "quantile_q=0.5"],
    ["run", "--set", "kappa=10"],
    # a bottleneck adapter is no wider than the backbone's 32 features
    ["run", "--set", "bottleneck=33"],
    # the SGD step size and batch size are TrainConfig constants
    ["run", "--set", "lr=0.1"],
    ["run", "--set", "batch_size=32"],
    # the information weights are the class-count pair, with no proxy key
    ["run", "--set", "info_proxy=class-count"],
])
def test_run_config_errors_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out-dir", str(tmp_path / "runs")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("setting", ["gamma=NaN", "gamma=Infinity", "gamma=-Infinity"])
def test_run_rejects_non_finite_floats_before_training(setting, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["run", *RUN_ARGS, "--set", setting, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be finite" in err
    assert not out.exists()


# JSON values of the wrong type for each kind of run key, by its default's type
_WRONG_TYPES = {int: ["2.5", "4.0", "true", '"3"'],
                float: ["true", '"0.5"', "null", "NaN", "Infinity", "1" * 401],
                str: ["5"], list: ['"one-a"']}


@pytest.mark.parametrize("key,raw", [
    pytest.param(key, raw, id=f"{key}={raw if len(raw) < 10 else '401-digits'}")
    for key, default in RUN_DEFAULTS.items() for raw in _WRONG_TYPES[type(default)]])
def test_each_run_key_rejects_a_wrong_type_before_out_dir(key, raw, tmp_path,
                                                          monkeypatch, capsys):
    # --out-dir keeps its default, runs, under tmp_path
    monkeypatch.chdir(tmp_path)
    assert main(["run", *RUN_ARGS, "--set", f"{key}={raw}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("field", ["total_classes", "num_tasks", "samples_per_class",
                                   "stream seed", "train seed"])
def test_run_type_errors_name_the_field_rule(field, tmp_path, capsys):
    key = {"total_classes": "classes", "num_tasks": "tasks", "stream seed": "stream_seed",
           "train seed": "train_seed"}.get(field, field)
    out = tmp_path / "runs"
    assert main(["run", "--set", f'{key}="x"', "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be ")
    assert not out.exists()


# JSON that json.loads cannot decode although it is well formed: nesting past
# the recursion limit, and an integer past the 4300-digit conversion limit
_UNDECODABLE = {"deep": "[" * 100000, "long-int": '{"classes": ' + "1" * 5000 + "}"}


@pytest.mark.parametrize("text", _UNDECODABLE.values(), ids=_UNDECODABLE.keys())
def test_run_rejects_an_undecodable_config_file(text, tmp_path, capsys):
    path, out = tmp_path / "conf.json", tmp_path / "runs"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config file is not valid JSON") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("raw", ["[" * 100000, "1" * 5000], ids=["deep", "long-int"])
def test_run_set_reads_an_undecodable_value_as_a_bareword(raw, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["run", "--set", f"classes={raw}", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: total_classes must be an integer") and err.count("\n") == 1
    assert not out.exists()


def test_run_largest_epochs_base_clamps_the_epoch_budget(tmp_path, capsys):
    # epochs_base is at most 2**53, the largest integer exact in the float
    # the budget is computed in; every task's budget clamps to epochs_max
    out = tmp_path / "runs"
    assert main(["run", *RUN_ARGS, "--set", f"epochs_base={2 ** 53}",
                 "--set", "epochs_max=2", "--set", 'strategies=["per-task"]',
                 "--out-dir", str(out)]) == 0
    assert (out / "report-per-task.json").exists()
    past = tmp_path / "past"
    assert main(["run", *RUN_ARGS, "--set", f"epochs_base={2 ** 53 + 1}",
                 "--out-dir", str(past)]) == 2
    assert capsys.readouterr().err == \
        f"error: epochs_base must lie in [1, {2 ** 53}], got {2 ** 53 + 1}\n"
    assert not past.exists()


def test_run_rejects_an_epoch_budget_no_run_finishes(tmp_path, capsys):
    # epochs_min and epochs_max are at most MAX_EPOCHS, so a billion epochs
    # per task exits 2 before the stream is built
    out = tmp_path / "runs"
    assert main(["run", "--set", "epochs_min=1000000000", "--set", "epochs_max=1000000000",
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: epochs_min must lie in [0, {MAX_EPOCHS}], got 1000000000\n"
    assert main(["run", "--set", f"epochs_max={MAX_EPOCHS + 1}", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: epochs_max must lie in [2, {MAX_EPOCHS}], got {MAX_EPOCHS + 1}\n"
    assert not out.exists()


@pytest.mark.parametrize("setting", ["epochs_base", "gamma"])
def test_run_rejects_integers_past_the_largest_float(setting, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["run", "--set", f"{setting}=1{'0' * 400}", "--out-dir", str(out)]) == 2
    expected = ("epochs_base must lie in [1, 9007199254740992], got 1000000000000000000..."
                "000000000000000000" if setting == "epochs_base"
                else "gamma must be finite, got an integer past the largest float")
    assert capsys.readouterr().err == f"error: {expected}\n"
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


def test_run_divergence_is_one_error_line(tmp_path, monkeypatch, capsys):
    out = tmp_path / "runs"
    monkeypatch.setattr(TrainConfig, "lr", 1e300)
    assert main(["run", "--set", "classes=6", "--set", "tasks=2",
                 "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: loss diverged") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_non_utf8_file_exits_2(command, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "runs"
    argv = {"run": ["run", "--config", str(bad), "--out-dir", str(out)],
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


def test_merge_average_n_prev_must_convert_to_a_float(tmp_path, capsys):
    # the average weighs the carried module by float(n_prev); up to 2**895,
    # n * accumulated + new stays finite for any float32 layers
    acc = tmp_path / "acc.onea"
    save_module(make_module([np.full((4, 2), 0.5), np.full((2, 4), -0.25)],
                            task_id=1, class_ids=(0, 1), sample_count=40), acc)
    _, new = _two_modules(tmp_path)
    biggest = tmp_path / "biggest.onea"
    f32max = float(np.finfo(np.float32).max)
    save_module(make_module([np.full((4, 2), f32max), np.full((2, 4), -f32max)],
                            task_id=3, class_ids=(3,), sample_count=8), biggest)
    out = tmp_path / "merged.onea"
    top = 2 ** 895
    for pair, want in (((acc, new), 0.5), ((biggest, biggest), f32max)):
        assert main(["merge", *map(str, pair), "--out", str(out),
                     "--strategy", "average", "--n-prev", str(top)]) == 0
        assert np.allclose(load_module(out).layers[0], want)
        out.unlink()
        # the echo is clipped to its first and last digits
        digits = str(top)
        assert capsys.readouterr().out.splitlines()[0] == (
            f"averaged 2 layers with n_prev={digits[:19]}...{digits[-18:]}")
    for n_prev in (top + 1, 10 ** 308, 2 ** 1024 - 2 ** 970 - 1, 10 ** 400):
        assert main(["merge", str(acc), str(new), "--out", str(out),
                     "--strategy", "average", "--n-prev", str(n_prev)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n_prev_tasks must lie in [1, 2641472")
        assert err.count("\n") == 1 and len(err) < 130, err
        # top + 1 differs from the bound only in its last digit
        bound, value = re.fullmatch(r".*\[1, (\S+)\], got (\S+)\n", err).groups()
        assert bound != value
        assert not out.exists()


def test_merge_rejects_the_backbone_strategy(tmp_path, capsys):
    pa, pb = _two_modules(tmp_path)
    out = tmp_path / "merged.onea"
    assert main(["merge", str(pa), str(pb), "--out", str(out),
                 "--strategy", "backbone"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--delta", "--rank-eps", "--quantile-q", "--kappa",
                                  "--proxy"])
def test_merge_rejects_the_gate_constants_as_flags(flag, tmp_path, capsys):
    # delta, rank_eps, quantile_q and sharpness_kappa are MergeConfig
    # constants, not options, and the weights have no proxy to pick
    pa, pb = _two_modules(tmp_path)
    out = tmp_path / "merged.onea"
    value = {"--delta": "1e-4", "--rank-eps": "0.5", "--quantile-q": "0.3",
             "--kappa": "5", "--proxy": "class-count"}[flag]
    assert main(["merge", str(pa), str(pb), "--out", str(out), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == \
        [f"onea merge: error: unrecognized arguments: {flag} {value}"]
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("run", ["--bogus"]), ("merge", ["--delta", "1e-4"]),
    ("compare", ["--out-csv", "t.csv"]), ("onea", ["--bogus"])])
def test_unknown_arguments_name_their_subcommand(command, extra, tmp_path,
                                                 monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # "onea" is the top level: a flag given before the subcommand is its own
    argv = {"run": ["run", *extra],
            "merge": ["merge", "a.onea", "b.onea", "--out", "m.onea", *extra],
            "compare": ["compare", "r.json", *extra], "onea": [*extra, "run"]}[command]
    prog = "onea" if command == "onea" else f"onea {command}"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    # the parser's usage, with the flags it does take, then its error
    assert lines[0].startswith(f"usage: {prog} [-h]")
    assert lines[-1] == f"{prog}: error: unrecognized arguments: {' '.join(extra)}"
    assert list(tmp_path.iterdir()) == []


def test_merge_error_exit_codes(tmp_path, capsys):
    pa, _ = _two_modules(tmp_path)
    other = tmp_path / "wide.onea"
    save_module(make_module([np.ones((6, 3)), np.ones((3, 6))], task_id=3), other)
    out = tmp_path / "out.onea"
    for strategy in ("one-a", "average", "symmetric"):
        assert main(["merge", str(pa), str(other), "--out", str(out),
                     "--strategy", strategy]) == 2
        assert capsys.readouterr().out == ""

    corrupt = tmp_path / "corrupt.onea"
    corrupt.write_bytes(b"JUNKJUNKJUNK")
    assert main(["merge", str(pa), str(corrupt), "--out", str(out)]) == 4
    assert "byte offset" in capsys.readouterr().err

    # same-length header edits: duplicate class ids, a string of ids,
    # unsorted ids, and a bottleneck that is not layer 0's width
    data = pa.read_bytes()
    for name, old, new in (("dup", b'"class_ids":[0,1]', b'"class_ids":[1,1]'),
                           ("str", b'"class_ids":[0,1]', b'"class_ids":"ab" '),
                           ("order", b'"class_ids":[0,1]', b'"class_ids":[1,0]'),
                           ("width", b'"bottleneck":2', b'"bottleneck":3')):
        bad = tmp_path / f"{name}.onea"
        bad.write_bytes(data.replace(old, new))
        assert bad.read_bytes() != data
        assert main(["merge", str(pa), str(bad), "--out", str(out)]) == 4
        assert "byte offset 12" in capsys.readouterr().err

    assert main(["merge", str(pa), str(tmp_path / "absent.onea"),
                 "--out", str(out)]) == 4


@pytest.mark.parametrize("strategy", ["one-a", "symmetric"])
def test_merge_svd_failure_exits_3(strategy, tmp_path, monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    pa, pb = _two_modules(tmp_path)
    out = tmp_path / "merged.onea"
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    assert main(["merge", str(pa), str(pb), "--out", str(out),
                 "--strategy", strategy]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: SVD did not converge")
    assert captured.err.count("\n") == 1
    assert not out.exists()


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
                            class_ids=(0, 1), sample_count=40),
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
        "epochs_min": 0,
        "epochs_max": draw(st.integers(0, 3)),
        "bottleneck": draw(st.integers(1, 3)),
        "order": draw(st.sampled_from([o.value for o in TaskOrder])),
        # not run keys: the test patches the TrainConfig and MergeConfig
        # constants
        "batch_size": draw(st.integers(1, 4)),
        "quantile_q": draw(st.sampled_from([0.0, 0.5, 1.0])),
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
    batch_size, quantile_q = conf.pop("batch_size"), conf.pop("quantile_q")
    argv = ["run"]
    for key, value in conf.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        patch.setattr(TrainConfig, "batch_size", batch_size)
        patch.setattr(MergeConfig, "quantile_q", quantile_q)
        code = main(argv + ["--out-dir", tmp])
    if code == 3:
        assert err.getvalue().startswith("error: loss diverged"), err.getvalue()
    else:
        assert code == 0, err.getvalue()


def _reals(low=None, high=None, **kwargs):
    return st.floats(low, high, allow_nan=False, allow_infinity=False, **kwargs)


_SEEDS = st.integers(0, 2 ** 64 - 1)


@st.composite
def _config_objects(draw):
    classes = draw(st.integers(2, 500))
    spec = StreamSpec(total_classes=classes, num_tasks=draw(st.integers(1, classes)),
                      gamma=draw(_reals(0.0, 1.0, exclude_min=True)),
                      order=draw(st.sampled_from(TaskOrder)),
                      samples_per_class=draw(
                          st.integers(3, MAX_STREAM_SAMPLES // classes)),
                      seed=draw(_SEEDS))
    epochs_min = draw(st.integers(0, 100))
    train = TrainConfig(epochs_base=draw(st.integers(1, 100)), epochs_min=epochs_min,
                        epochs_max=draw(st.integers(epochs_min, MAX_EPOCHS)),
                        bottleneck=draw(st.integers(1, BACKBONE_DIM)), seed=draw(_SEEDS))
    return spec, train, MergeConfig()


@settings(max_examples=200, deadline=None)
@given(objects=_config_objects())
def test_the_key_table_round_trips(objects):
    conf = run_config(*objects)
    assert set(conf) == set(RUN_DEFAULTS) - {"strategies"}
    assert _build_objects({**conf, "strategies": ["one-a"]})[:3] == objects


def test_build_objects_quotes_values_past_the_digit_limit():
    # repr of an integer past Python's 4300-digit limit raises ValueError,
    # so the messages give its size in bits or name what the list holds
    with pytest.raises(ConfigError, match=r"^config key 'strategies' must be a list of "
                                          r"strings, got a list holding an integer past "
                                          r"the digit limit$"):
        _build_objects({**RUN_DEFAULTS, "strategies": [10 ** 5000]})
    with pytest.raises(ConfigError, match=r"^config key 'order' must be one of: .*; "
                                          r"got an integer of 16610 bits$"):
        _build_objects({**RUN_DEFAULTS, "order": 10 ** 5000})


# ------------------------------------------------------------------ compare

def _run_one(tmp_path):
    out = tmp_path / "runs"
    assert main(["run", *RUN_ARGS, "--set", 'strategies=["one-a","average"]',
                 "--out-dir", str(out)]) == 0
    return out


def test_compare_of_one_report_prints_its_metrics(tmp_path, capsys):
    out = _run_one(tmp_path)
    report = RunReport.from_json((out / "report-one-a.json").read_text())
    expected = {"last_accuracy": last_accuracy(report),
                "avg_accuracy": average_accuracy(report),
                "weighted_avg_accuracy": weighted_average_accuracy(report),
                "forgetting": forgetting(report)}
    capsys.readouterr()
    assert main(["compare", str(out / "report-one-a.json"), "--out-json", "-"]) == 0
    header, row, dumped = capsys.readouterr().out.split("\n", 2)
    assert header.split(",")[1:5] == list(expected)
    assert row.split(",")[:5] == ["one-a", *(f"{v:.6f}" for v in expected.values())]
    (values,) = json.loads(dumped)["rows"]
    assert {k: values[k] for k in expected} == expected


def test_one_task_reports_leave_forgetting_empty(tmp_path, capsys):
    # forgetting needs a second task: compare leaves its column empty and
    # --out-json - gives null
    out = tmp_path / "runs"
    assert main(["run", "--set", "classes=4", "--set", "tasks=1", "--set",
                 'strategies=["one-a", "per-task"]', "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["compare", str(out / "report-one-a.json"),
                 str(out / "report-per-task.json"), "--out-json", "-"]) == 0
    header, *rows, dumped = capsys.readouterr().out.split("\n", 3)
    assert '"forgetting": null' in dumped
    assert [row["forgetting"] for row in json.loads(dumped)["rows"]] == [None, None]
    column = header.split(",").index("forgetting")
    assert [row.split(",")[column] for row in rows] == ["", ""]
    assert rows[0].split(",")[1:5] == ["0.900000", "0.900000", "0.900000", ""]


def test_compare_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["compare", str(bad)]) == 2
    assert main(["compare", str(tmp_path / "absent.json")]) == 4


def test_eval_is_not_a_subcommand(tmp_path, capsys):
    # compare reads one report or many; there is no second report reader
    report = tmp_path / "r.json"
    report.write_text(json.dumps(_report_payload()))
    assert main(["eval", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'eval'" in captured.err


@pytest.mark.parametrize("text", _UNDECODABLE.values(), ids=_UNDECODABLE.keys())
def test_compare_rejects_an_undecodable_report(text, tmp_path, capsys):
    good, bad, table = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "t.json"
    good.write_text(json.dumps(_report_payload()))
    bad.write_text(text)
    assert main(["compare", str(good), str(bad), "--out-json", str(table)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: report is not valid JSON")
    assert captured.err.count("\n") == 1
    assert not table.exists()


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
    "strategy-int": {"strategy": 5},
    "strategy-null": {"strategy": None},
    "strategy-comma": {"strategy": "x,y"},
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


@pytest.mark.parametrize("command", ["compare"])
@pytest.mark.parametrize("fields", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_report_exit_2(command, fields, tmp_path, capsys):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(_report_payload()))
    bad.write_text(json.dumps(_report_payload(**fields)))
    assert main([command, str(good), str(good)]) == 0
    capsys.readouterr()
    assert main([command, str(good), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: report")
    assert next(iter(fields)) in err


def test_compare_table_and_outputs(tmp_path, capsys):
    out = _run_one(tmp_path)
    capsys.readouterr()
    json_path = tmp_path / "table.json"
    assert main(["compare", str(out / "report-one-a.json"),
                 str(out / "report-average.json"), "--out-json", str(json_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[:2] == ["strategy", "last_accuracy"]
    assert len(lines) == 3
    assert lines[1].startswith("one-a,")
    payload = json.loads(json_path.read_text())
    assert payload["schema_version"] == 1
    assert len(payload["rows"]) == 2
    assert main(["compare", str(out / "report-one-a.json"),
                 str(out / "report-average.json"), "--out-json", "-"]) == 0
    table, dumped = capsys.readouterr().out.split("\n{", 1)
    assert table.splitlines() == lines
    assert json.loads("{" + dumped) == payload


@pytest.mark.parametrize("flag", ["--out-json"])
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


def _floor_run(tmp_path, train_seed=0):
    out = tmp_path / f"floor-{train_seed}"
    assert main(["run", *RUN_ARGS, "--set", "tasks=3", "--set", f"train_seed={train_seed}",
                 "--set", 'strategies=["one-a", "backbone"]', "--out-dir", str(out)]) == 0
    return out


def test_compare_adds_excess_damage_over_a_backbone_report(tmp_path, capsys):
    out = _floor_run(tmp_path)
    reports = [RunReport.from_json((out / f"report-{name}.json").read_text())
               for name in ("one-a", "backbone")]
    capsys.readouterr()
    assert main(["compare", str(out / "report-one-a.json"),
                 str(out / "report-backbone.json"), "--out-json", "-"]) == 0
    table, dumped = capsys.readouterr().out.split("\n{", 1)
    header, *lines = table.splitlines()
    assert header == ("strategy,last_accuracy,avg_accuracy,weighted_avg_accuracy,"
                      "forgetting,excess_damage_1,excess_damage_2,svd_calls,merge_ms")
    rows = json.loads("{" + dumped)["rows"]
    for k in (1, 2):
        one_a, floor = (step_damage(report)[k] for report in reports)
        assert rows[0][f"excess_damage_{k}"] == one_a - floor
        assert rows[1][f"excess_damage_{k}"] == 0.0
    assert [line.split(",")[5:7] for line in lines] == \
        [[f"{row[f'excess_damage_{k}']:.6f}" for k in (1, 2)] for row in rows]


def test_compare_rejects_a_backbone_report_of_another_train_seed(tmp_path, capsys):
    one_a, floor = _floor_run(tmp_path, 0), _floor_run(tmp_path, 1)
    capsys.readouterr()
    argv = ["compare", str(one_a / "report-one-a.json"), str(floor / "report-backbone.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the backbone report has train seed 1, "
                            "the one-a report 0\n")
    # without a backbone report, reports of two train seeds still compare
    assert main(["compare", str(one_a / "report-one-a.json"),
                 str(floor / "report-one-a.json")]) == 0


def test_compare_rejects_a_backbone_report_of_another_length(tmp_path, capsys):
    one_a, floor = tmp_path / "one-a.json", tmp_path / "backbone.json"
    one_a.write_text(json.dumps(_report_payload()))
    floor.write_text(json.dumps(_report_payload(
        strategy="backbone", class_counts=[2, 1, 1], step_acc=[0.5, 0.5, 0.5],
        acc_matrix=[[0.5, 0.5, 0.5], [None, 0.5, 0.5], [None, None, 0.5]])))
    assert main(["compare", str(one_a), str(floor)]) == 2
    assert capsys.readouterr().err == ("error: the backbone report holds 3 steps, "
                                       "the one-a report 2\n")


# --set flags whose rejected value or key is 100000 characters long
_LONG_SETTINGS = {"int": "classes=" + "[" * 100000,
                  "int-range": "stream_seed=" + "9" * 4000,
                  "float": "gamma=" + "[" * 100000,
                  "enum": "order=" + "[" * 100000,
                  "strategies": "strategies=" + json.dumps([1] * 100000),
                  "missing-equals": "x" * 100000,
                  "unknown-key": "x" * 100000 + "=1"}


@pytest.mark.parametrize("setting", _LONG_SETTINGS.values(), ids=_LONG_SETTINGS.keys())
def test_run_error_line_stays_short_for_a_long_value(setting, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["run", "--set", setting, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert len(err) < 200 and "..." in err, err
    assert not out.exists()


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


def test_readme_config_table_matches_run_defaults():
    section = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8").split("\n## Configuration keys\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        key_cell, default_cell = line.split(" | ")[:2]
        keys = re.findall(r"`([^`]+)`", key_cell)
        raw = default_cell.replace("`", "")
        values = [json.loads(raw)] if len(keys) == 1 else json.loads(f"[{raw}]")
        table.update(zip(keys, values, strict=True))
    assert table == RUN_DEFAULTS
    assert {k: type(v) for k, v in table.items()} == \
        {k: type(v) for k, v in RUN_DEFAULTS.items()}


def test_readme_walkthrough_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = _readme_walkthrough()
    assert [argv[0] for argv, _ in steps] == ["gen-stream", "run", "compare",
                                              "compare", "merge"]
    for argv, shown in steps:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out.rstrip("\n").splitlines()
        # "..." marks an abridged printout; compare's last column is wall time
        if argv[0] != "compare" and not any("..." in line for line in shown):
            assert out == [line for line in shown if line], argv
