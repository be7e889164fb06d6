"""Command-line interface.

Subcommands: gen-stream (write a stream manifest), run (train and merge
over a stream, one report per strategy), merge (fuse two serialized
adapters), compare (the metrics table of one report or many).

Configuration is one flat key-value JSON document; --set KEY=VALUE flags
override file values, unknown keys are rejected, and the effective config
is echoed into every output. Exit codes: 0 success, 2 user/config error,
3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import enum
import json
import sys
from dataclasses import fields
from pathlib import Path

from .adapter import load_module, save_module
from .errors import ConfigError, FormatError, NumericError, OneaError, clip
from .merge import InfoProxy, MergeConfig
from .metrics import (RunReport, average_accuracy, forgetting, last_accuracy,
                      step_damage, weighted_average_accuracy)
from .sim import (FOLD_STRATEGIES, PER_TASK_STRATEGIES, Strategy, TrainConfig,
                  fold, run_config, run_strategies)
from .stream import StreamSpec, TaskOrder, build_stream, config_keys

# every library default comes from the config dataclasses; only the
# stream shape and the strategy list are the CLI's own
RUN_DEFAULTS = {
    **run_config(StreamSpec(total_classes=20, num_tasks=5), TrainConfig(), MergeConfig()),
    "strategies": ["one-a", "average"],
}


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
        except (ValueError, RecursionError) as exc:  # past the digit or depth limit too
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a flat JSON object")
        yield from loaded.items()
    for item in overrides or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got '{clip(item)}'")
        try:
            value = json.loads(raw)
        except (ValueError, RecursionError):
            value = raw  # a bareword; the key's own rule judges it
        yield key, value


def _load_run_config(path: str | None, overrides: list[str] | None) -> dict:
    conf = dict(RUN_DEFAULTS)
    for key, value in _config_items(path, overrides):
        if key not in RUN_DEFAULTS:
            raise ConfigError(f"unknown config key '{clip(key)}'")
        conf[key] = value
    return conf


def _enum_value(enum_cls, raw, key: str):
    try:
        return enum_cls(raw)
    except ValueError:
        choices = ", ".join(e.value for e in enum_cls)
        raise ConfigError(f"config key '{key}' must be one of: {choices}; "
                          f"got '{clip(str(raw))}'") from None


def _config_object(cls, conf: dict):
    """The cls that conf's flat keys spell; an enum field takes its value
    from its default's enum, and cls checks every value."""
    keys = config_keys(cls)
    values = {name: conf[key] for name, key in keys.items()}
    for f in fields(cls):
        if isinstance(f.default, enum.Enum):
            values[f.name] = _enum_value(type(f.default), values[f.name], keys[f.name])
    return cls(**values)


def _build_objects(conf: dict):
    spec, train, merge_cfg = (_config_object(cls, conf)
                              for cls in (StreamSpec, TrainConfig, MergeConfig))
    names = conf["strategies"]
    if not (isinstance(names, list) and all(isinstance(v, str) for v in names)):
        raise ConfigError("config key 'strategies' must be a list of strings, "
                          f"got {clip(repr(names))}")
    strategies = [_enum_value(Strategy, s, "strategies") for s in names]
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
    spec = _config_object(StreamSpec, vars(args))
    _dump_json(build_stream(spec).manifest(), args.out)
    return 0


def cmd_run(args) -> int:
    spec, train, merge_cfg, strategies = _build_objects(
        _load_run_config(args.config, args.set))
    stream = build_stream(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = run_strategies(stream, strategies, train, merge_cfg)
    for strategy, (report, adapters) in zip(strategies, results):
        report_path = out_dir / f"report-{strategy.value}.json"
        report_path.write_text(report.to_json() + "\n", encoding="utf-8")
        if strategy in PER_TASK_STRATEGIES:
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
    merge_cfg = _config_object(MergeConfig, vars(args))
    merged, trace = fold(Strategy(args.strategy), accumulated, new, args.n_prev,
                         merge_cfg)
    save_module(merged, args.out)  # an unwritable --out prints nothing
    if trace is None:
        n_prev = clip(str(args.n_prev))
        print(f"averaged {len(merged.layers)} layers with n_prev={n_prev}")
    elif trace.layers[0][0] is None:  # no rank taken: one blend of both blocks
        _, w_b, w_a = trace.layers[0]
        print(f"symmetric blocks weighted w_acc={w_b:.6f}, w_new={w_a:.6f}")
    else:
        print(f"base: task {trace.base.task_id} ({trace.base.sample_count} samples), "
              f"align: task {trace.align.task_id} ({trace.align.sample_count} samples)")
        for i, (rank, w_b, w_a) in enumerate(trace.layers):
            print(f"layer {i}: effective rank {rank}, w_b={w_b:.6f}, w_a={w_a:.6f}")
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


def cmd_compare(args) -> int:
    reports = [RunReport.from_json(_read_text(p, "report")) for p in args.reports]
    first = reports[0]
    for other in reports[1:]:
        if other.stream_seed != first.stream_seed:
            raise ConfigError("reports come from different stream seeds "
                              f"({first.stream_seed} vs {other.stream_seed})")
        for key in config_keys(StreamSpec).values():
            if other.config.get(key) != first.config.get(key):
                raise ConfigError(f"reports disagree on stream key '{key}'")
    # the floor, cosine nearest-prototype on a backbone that the train seed
    # draws, is a reference only for reports of the same seed and length
    floor = next((r for r in reports if r.strategy == "backbone"), None)
    for other in reports if floor is not None else ():
        if other.train_seed != floor.train_seed:
            raise ConfigError(f"the backbone report has train seed {floor.train_seed}, "
                              f"the {other.strategy} report {other.train_seed}")
        if len(other.step_acc) != len(floor.step_acc):
            raise ConfigError(f"the backbone report holds {len(floor.step_acc)} steps, "
                              f"the {other.strategy} report {len(other.step_acc)}")
    rows = [_metrics_row(r) for r in reports]
    header = ["strategy", "last_accuracy", "avg_accuracy",
              "weighted_avg_accuracy", "forgetting", "svd_calls", "merge_ms"]
    if floor is not None:  # each step's damage beyond the floor's, before svd_calls
        floor_damage = step_damage(floor)
        header[5:5] = [f"excess_damage_{k}" for k in range(1, len(floor_damage))]
        for row, report in zip(rows, reports):
            row.update({f"excess_damage_{k}": damage - floor_damage[k]
                        for k, damage in enumerate(step_damage(report)) if k})
    lines = [",".join(header)]
    lines += [",".join(_csv_cell(row[k]) for k in header) for row in rows]
    payload = {"schema_version": 1, "stream_seed": first.stream_seed, "rows": rows}
    # a file is written first, so an unwritable one prints nothing; with
    # -, --out-json prints after the table
    if args.out_json not in (None, "-"):
        _dump_json(payload, args.out_json)
    print("\n".join(lines))
    if args.out_json == "-":
        _dump_json(payload, "-")
    return 0


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it reports arguments it does not take in its
    own name and usage, where argparse would hand them to the top level."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onea",
        description="Asymmetric adapter fusion for step-imbalanced "
                    "class-incremental learning.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)

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
    run.add_argument("--out-dir", default="runs")
    run.set_defaults(func=cmd_run)

    merge = sub.add_parser("merge", help="merge two serialized adapters")
    merge.add_argument("accumulated", help="path of the carried .onea module")
    merge.add_argument("new", help="path of the newly trained .onea module")
    merge.add_argument("--out", required=True)
    merge.add_argument("--strategy", default=FOLD_STRATEGIES[0].value,
                       choices=[s.value for s in FOLD_STRATEGIES])
    merge.add_argument("--proxy", dest="info_proxy",
                       default=MergeConfig.info_proxy.value,
                       choices=[p.value for p in InfoProxy])
    merge.add_argument("--n-prev", type=int, default=1,
                       help="tasks already absorbed (average strategy)")
    merge.set_defaults(func=cmd_merge)

    cmp_ = sub.add_parser("compare", help="tabulate metrics of one report or many")
    cmp_.add_argument("reports", nargs="+")
    cmp_.add_argument("--out-json", default=None)
    cmp_.set_defaults(func=cmd_compare)
    return parser


# first match wins; ConfigError, ShapeError and any other OneaError exit 2
_EXIT_CODES = ((FormatError, 4), (NumericError, 3), (OSError, 4), (OneaError, 2))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OneaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
