"""Command-line interface.

Subcommands: gen-stream (write a stream manifest), run (train and merge
over a stream, one report per strategy), merge (fuse two serialized
adapters), eval (metrics for one report), compare (table across reports).

Configuration is one flat key-value JSON document; --set KEY=VALUE flags
override file values, unknown keys are rejected, and the effective config
is echoed into every output. Exit codes: 0 success, 2 user/config error,
3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .adapter import load_module, save_module
from .errors import (ConfigError, FormatError, NumericError, OneaError,
                     check_float, check_int)
from .merge import InfoProxy, MergeConfig
from .metrics import (RunReport, average_accuracy, forgetting, last_accuracy,
                      weighted_average_accuracy)
from .sim import (FOLD_STRATEGIES, Strategy, TrainConfig, fold, run_config,
                  run_strategies)
from .stream import StreamSpec, TaskOrder, build_stream

# every library default comes from the config dataclasses; only the
# stream shape, the strategy list and the output directory are the CLI's own
_DEFAULT_SPEC = StreamSpec(total_classes=20, num_tasks=5)
RUN_DEFAULTS = {
    **run_config(_DEFAULT_SPEC, TrainConfig(), MergeConfig()),
    "strategies": ["one-a", "average"],
    "out_dir": "runs",
}

_STREAM_KEYS = tuple(k for k in _DEFAULT_SPEC.to_dict() if k != "seed")


def _coerce(key: str, value):
    """Validate a config value against the type of its default."""
    default = RUN_DEFAULTS[key]
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"config key '{key}' must be a boolean, got {value!r}")
        return value
    if isinstance(default, int):
        return check_int(f"config key '{key}'", value)
    if isinstance(default, float):
        return check_float(f"config key '{key}'", value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"config key '{key}' must be a string, got {value!r}")
        return value
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"config key '{key}' must be a list of strings, got {value!r}")
    return list(value)


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8: {exc}") from None


def _config_items(path: str | None, overrides: list[str] | None):
    """(key, value) pairs from the config file, then from --set flags."""
    if path is not None:
        try:
            loaded = json.loads(_read_text(path, "config file"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a flat JSON object")
        yield from loaded.items()
    for item in overrides or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got '{item}'")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        yield key, value


def _load_run_config(path: str | None, overrides: list[str] | None) -> dict:
    conf = dict(RUN_DEFAULTS)
    for key, value in _config_items(path, overrides):
        if key not in RUN_DEFAULTS:
            raise ConfigError(f"unknown config key '{key}'")
        conf[key] = _coerce(key, value)
    return conf


def _enum_value(enum_cls, raw: str, field: str):
    try:
        return enum_cls(raw)
    except ValueError:
        choices = ", ".join(e.value for e in enum_cls)
        raise ConfigError(f"config key '{field}' must be one of: {choices}; "
                          f"got '{raw}'") from None


def _build_objects(conf: dict):
    spec = StreamSpec(total_classes=conf["classes"], num_tasks=conf["tasks"],
                      gamma=conf["gamma"],
                      order=_enum_value(TaskOrder, conf["order"], "order"),
                      samples_per_class=conf["samples_per_class"],
                      seed=conf["stream_seed"])
    train = TrainConfig(seed=conf["train_seed"],
                        **{f.name: conf[f.name] for f in fields(TrainConfig)
                           if f.name != "seed"})
    merge_cfg = MergeConfig(quantile_q=conf["quantile_q"],
                            sharpness_kappa=conf["kappa"], delta=conf["delta"],
                            rank_eps=conf["rank_eps"],
                            info_proxy=_enum_value(InfoProxy, conf["info_proxy"],
                                                   "info_proxy"))
    strategies = [_enum_value(Strategy, s, "strategies") for s in conf["strategies"]]
    if not strategies:
        raise ConfigError("config key 'strategies' must name at least one strategy")
    repeated = sorted({s.value for s in strategies if strategies.count(s) > 1})
    if repeated:
        raise ConfigError(f"config key 'strategies' names {', '.join(repeated)} "
                          "more than once")
    return spec, train, merge_cfg, strategies


def _dump_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_gen_stream(args) -> int:
    spec = _build_objects({**RUN_DEFAULTS, **vars(args)})[0]
    _dump_json(build_stream(spec).manifest(), args.out)
    return 0


def cmd_run(args) -> int:
    conf = _load_run_config(args.config, args.set)
    if args.out_dir is not None:
        conf["out_dir"] = args.out_dir
    spec, train, merge_cfg, strategies = _build_objects(conf)
    stream = build_stream(spec)
    out_dir = Path(conf["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    results = run_strategies(stream, strategies, train, merge_cfg)
    for strategy, (report, adapters) in zip(strategies, results):
        report_path = out_dir / f"report-{strategy.value}.json"
        report_path.write_text(report.to_json() + "\n", encoding="utf-8")
        if strategy is Strategy.PER_TASK:
            for i, module in enumerate(adapters, start=1):
                save_module(module, out_dir / f"adapter-{strategy.value}-t{i}.onea")
        else:
            save_module(adapters[0], out_dir / f"adapter-{strategy.value}.onea")
        print(f"{strategy.value}: final accuracy "
              f"{report.step_acc[-1]:.4f} -> {report_path}")
    return 0


def cmd_merge(args) -> int:
    accumulated = load_module(args.accumulated)
    new = load_module(args.new)
    merge_cfg = _build_objects({**RUN_DEFAULTS, **vars(args)})[2]
    strategy = Strategy(args.strategy)
    merged, trace = fold(strategy, accumulated, new, args.n_prev, merge_cfg)
    save_module(merged, args.out)  # an unwritable --out prints nothing
    if strategy is Strategy.ONE_A:
        print(f"base: task {trace.base.task_id} ({trace.base.sample_count} samples), "
              f"align: task {trace.align.task_id} ({trace.align.sample_count} samples)")
        for i, (rank, w_b, w_a) in enumerate(trace.layers):
            print(f"layer {i}: effective rank {rank}, w_b={w_b:.6f}, w_a={w_a:.6f}")
    elif strategy is Strategy.SYMMETRIC:
        _, w_b, w_a = trace.layers[0]
        print(f"symmetric blocks weighted w_acc={w_b:.6f}, w_new={w_a:.6f}")
    else:
        print(f"averaged {len(merged.layers)} layers with n_prev={args.n_prev}")
    print(f"wrote {args.out}")
    return 0


def _metrics_row(report: RunReport) -> dict:
    value = forgetting(report)
    return {
        "strategy": report.strategy,
        "last_accuracy": last_accuracy(report),
        "avg_accuracy": average_accuracy(report),
        "weighted_avg_accuracy": weighted_average_accuracy(report),
        "forgetting": value,
        "svd_calls": report.svd_calls,
        "merge_ms": float(sum(report.timings.get("merge_ms", []))),
    }


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def cmd_eval(args) -> int:
    report = RunReport.from_json(_read_text(args.report, "report"))
    row = _metrics_row(report)
    keys = ["last_accuracy", "avg_accuracy", "weighted_avg_accuracy", "forgetting"]
    print(json.dumps({k: row[k] for k in keys}, sort_keys=True, indent=2))
    print(",".join(_csv_cell(row[k]) for k in keys))
    return 0


def cmd_compare(args) -> int:
    reports = [RunReport.from_json(_read_text(p, "report")) for p in args.reports]
    first = reports[0]
    for other in reports[1:]:
        if other.stream_seed != first.stream_seed:
            raise ConfigError("reports come from different stream seeds "
                              f"({first.stream_seed} vs {other.stream_seed})")
        for key in _STREAM_KEYS:
            if other.config.get(key) != first.config.get(key):
                raise ConfigError(f"reports disagree on stream key '{key}'")
    rows = [_metrics_row(r) for r in reports]
    header = ["strategy", "last_accuracy", "avg_accuracy",
              "weighted_avg_accuracy", "forgetting", "svd_calls", "merge_ms"]
    lines = [",".join(header)]
    lines += [",".join(_csv_cell(row[k]) for k in header) for row in rows]
    payload = {"schema_version": 1, "stream_seed": first.stream_seed, "rows": rows}
    # files are written first, so an unwritable one prints nothing; a
    # --out-json of - still prints the JSON after the table
    if args.out_json not in (None, "-"):
        _dump_json(payload, args.out_json)
    if args.out_csv:
        Path(args.out_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    if args.out_json == "-":
        _dump_json(payload, "-")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onea",
        description="Asymmetric adapter fusion for step-imbalanced "
                    "class-incremental learning.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-stream", help="write a task-stream manifest")
    gen.add_argument("--classes", type=int, required=True)
    gen.add_argument("--tasks", type=int, required=True)
    gen.add_argument("--gamma", type=float, default=StreamSpec.gamma)
    gen.add_argument("--order", default=StreamSpec.order.value,
                     choices=[o.value for o in TaskOrder])
    gen.add_argument("--samples-per-class", type=int,
                     default=StreamSpec.samples_per_class)
    gen.add_argument("--seed", dest="stream_seed", metavar="SEED", type=int,
                     default=StreamSpec.seed)
    gen.add_argument("--out", default=None, help="output file (default stdout)")
    gen.set_defaults(func=cmd_gen_stream)

    run = sub.add_parser("run", help="train over a stream and write reports")
    run.add_argument("--config", default=None, help="flat JSON config file")
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one config key (repeatable)")
    run.add_argument("--out-dir", default=None)
    run.set_defaults(func=cmd_run)

    merge = sub.add_parser("merge", help="merge two serialized adapters")
    merge.add_argument("accumulated", help="path of the carried .onea module")
    merge.add_argument("new", help="path of the newly trained .onea module")
    merge.add_argument("--out", required=True)
    merge.add_argument("--strategy", default=FOLD_STRATEGIES[0].value,
                       choices=[s.value for s in FOLD_STRATEGIES])
    merge.add_argument("--quantile-q", type=float, default=MergeConfig.quantile_q)
    merge.add_argument("--kappa", type=float, default=MergeConfig.sharpness_kappa)
    merge.add_argument("--delta", type=float, default=MergeConfig.delta)
    merge.add_argument("--rank-eps", type=float, default=MergeConfig.rank_eps)
    merge.add_argument("--proxy", dest="info_proxy",
                       default=MergeConfig.info_proxy.value,
                       choices=[p.value for p in InfoProxy])
    merge.add_argument("--n-prev", type=int, default=1,
                       help="tasks already absorbed (average strategy)")
    merge.set_defaults(func=cmd_merge)

    ev = sub.add_parser("eval", help="print metrics for one report")
    ev.add_argument("report")
    ev.set_defaults(func=cmd_eval)

    cmp_ = sub.add_parser("compare", help="tabulate metrics across reports")
    cmp_.add_argument("reports", nargs="+")
    cmp_.add_argument("--out-csv", default=None)
    cmp_.add_argument("--out-json", default=None)
    cmp_.set_defaults(func=cmd_compare)
    return parser


# first match wins; ConfigError, ShapeError and any other OneaError exit 2
_EXIT_CODES = ((FormatError, 4), (NumericError, 3), (OSError, 4), (OneaError, 2))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OneaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
