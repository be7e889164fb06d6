"""Digest of onea's outputs on a fixed config matrix.

Runs `onea run` on thirteen configs x stream/train seeds {0, 3}, nine with
the five strategies other than backbone (one of them on an ascending
stream, head task last, and one-task on a stream of a single task, where
no fold runs and no report has a forgetting value; in 32-row batches,
spc23's tasks of 18 train rows a class end their epochs on short
batches, and balanced-one-row-batch's tasks of one class and 33 train
rows on a one-row batch, which holds no contrastive pair) and four with
a single one
(single-finetune alone trains only the continuation past the first task,
per-task alone only fresh adapters; per-task-one-row has one test row per
task, so every test block is scored through the single-row product path;
backbone alone trains nothing, and its compare adds the excess-damage
columns; zero-updates trains no epoch, so every w_up stays zero;
bottleneck3 is the one config whose adapters are not 8 wide), then
`onea merge` for the three fold strategies on adapters from those runs,
under default flags and under --n-prev 2, and for the
three fold strategies on two zero-updates adapters, whose zero w_up
layers merge at effective rank 0 under one-a and could surface signed
zeros under any, and for the three fold strategies on two bottleneck3
adapters, so a .onea header width taken from anything but the layers
changes the bytes. It then reads the
reports back with `onea compare` over each run's reports, the merge_ms
column (wall time) masked, whose rows carry every metric of every
report. Then `onea gen-stream` writes three manifests, one of them
balanced. Last come invocations that fail: `onea
run` with a wrong type, a range error, a stream, a bottleneck, an
epochs_base or an epochs_max past its bound, or an unknown key (lr is one,
a TrainConfig constant, and info_proxy another, as the information weights
are always the class-count pair), and `onea merge` on a missing and on a
truncated .onea file, with the --proxy flag it does not take, and with
--n-prev 0 under one-a (the bound holds for every strategy).
Each case hashes its exit code, its stdout and stderr (output directory
masked), each report's canonical_bytes() and every .onea file it wrote; a
failing case hashes whether its output exists instead. Prints one
sha256 per case and a total; two source trees that print the same total
produce the same outputs on the matrix.

    python3 tools/output_digest.py [--src DIR]

--src picks the source tree to import onea from (default: this
checkout's src/), so a parent commit's tree can be checked the same way.
"""

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

STRATEGIES = ["one-a", "average", "symmetric", "per-task", "single-finetune"]
CONFIGS = {
    "default": {},
    "descending": {"order": "descending"},
    "ascending": {"order": "ascending"},
    "spc23": {"samples_per_class": 23},
    "100x50": {"classes": 100, "tasks": 50, "epochs_base": 3},
    "balanced-one-row-batch": {"classes": 12, "tasks": 12, "order": "balanced",
                               "samples_per_class": 41},
    "single-finetune-only": {"strategies": ["single-finetune"]},
    "per-task-only": {"strategies": ["per-task"]},
    "backbone-only": {"strategies": ["backbone"]},
    "per-task-one-row": {"classes": 12, "tasks": 12, "samples_per_class": 3,
                         "strategies": ["per-task"]},
    "zero-updates": {"epochs_min": 0, "epochs_max": 0},
    "bottleneck3": {"classes": 12, "tasks": 4, "bottleneck": 3},
    "one-task": {"classes": 4, "tasks": 1},
}
SEEDS = (0, 3)
MERGE_FLAGS = ([], ["--n-prev", "2"])
# (source run, strategy, case tag, first of two consecutive per-task
# adapters, flags): each fold strategy under each flag set, then each fold
# strategy on zero updates and on bottleneck-3 adapters
MERGE_CASES = ([("default", strategy, f"f{i}", i + 1, flags)
                for strategy in STRATEGIES[:3] for i, flags in enumerate(MERGE_FLAGS)]
               + [("zero-updates", strategy, "zero", 1, [])
                  for strategy in STRATEGIES[:3]]
               + [("bottleneck3", strategy, "b3", 1, []) for strategy in STRATEGIES[:3]])
GEN_STREAM_CASES = {
    "20x5": ["--classes", "20", "--tasks", "5"],
    "100x10-descending": ["--classes", "100", "--tasks", "10", "--order", "descending",
                          "--gamma", "0.05", "--samples-per-class", "23", "--seed", "3"],
    "12x6-balanced": ["--classes", "12", "--tasks", "6", "--order", "balanced",
                      "--gamma", "1.0", "--seed", "7"],
}

# --set flags that `onea run` rejects with exit 2 before it creates out_dir
FAILING_RUN_SETTINGS = {"classes-float": "classes=2.5", "unknown-key-lr": "lr=0",
                        "gamma-string": 'gamma="x"', "order-int": "order=5",
                        "unknown-key": "no_such_key=1", "bottleneck-33": "bottleneck=33",
                        "classes-1e8": "classes=100000000",
                        "epochs_base-2**53+1": "epochs_base=9007199254740993",
                        "epochs_max-past-bound": "epochs_max=1001",
                        "unknown-key-info_proxy": "info_proxy=class-count"}


def call_cli(main, argv: list[str], mask: Path) -> list[bytes]:
    """Call the CLI; return its exit code and its streams with mask's
    path replaced."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [f"exit {code}".encode(), out.getvalue().replace(str(mask), "<out>").encode(),
            err.getvalue().replace(str(mask), "<out>").encode()]


def run_case(main, argv: list[str], out_dir: Path) -> bytes:
    """Call the CLI; return the case's bytes: exit code, masked streams,
    canonical report bytes and .onea files in name order."""
    from onea.metrics import RunReport

    parts = call_cli(main, argv, out_dir)
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".json":
            report = RunReport.from_json(path.read_text(encoding="utf-8"))
            parts += [path.name.encode(), report.canonical_bytes()]
        elif path.suffix == ".onea":
            parts += [path.name.encode(), path.read_bytes()]
    return b"\0".join(parts)


def fail_case(main, argv: list[str], output: Path, mask: Path) -> bytes:
    """Call the CLI on an invocation that fails; return its exit code, its
    masked streams and whether it left output behind."""
    parts = call_cli(main, argv, mask)
    return b"\0".join(parts + [f"output exists: {output.exists()}".encode()])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    import onea.cli

    total = hashlib.sha256()

    def record(case: str, data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        total.update(f"{case} {digest}\n".encode())
        print(case, digest, flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, config in CONFIGS.items():
            for seed in SEEDS:
                case = f"run-{name}-s{seed}"
                out_dir = work / case
                argv = ["run", "--out-dir", str(out_dir),
                        "--set", f"strategies={json.dumps(STRATEGIES)}",
                        "--set", f"stream_seed={seed}", "--set", f"train_seed={seed}"]
                for key, value in config.items():
                    argv += ["--set", f"{key}={json.dumps(value)}"]
                record(case, run_case(onea.cli.main, argv, out_dir))
        for seed in SEEDS:
            for source, strategy, tag, first, flags in MERGE_CASES:
                src = work / f"run-{source}-s{seed}"
                case = f"merge-{strategy}-s{seed}-{tag}"
                out_dir = work / case
                out_dir.mkdir()
                argv = ["merge", str(src / f"adapter-per-task-t{first}.onea"),
                        str(src / f"adapter-per-task-t{first + 1}.onea"),
                        "--strategy", strategy, "--out", str(out_dir / "merged.onea"),
                        *flags]
                record(case, run_case(onea.cli.main, argv, out_dir))
        for name in CONFIGS:
            for seed in SEEDS:
                src = work / f"run-{name}-s{seed}"
                reports = [str(path) for path in sorted(src.glob("report-*.json"))]
                code, out, err = call_cli(onea.cli.main, ["compare", *reports], src)
                # the last column, merge_ms, is wall time
                out = re.sub(rb",[^,\n]*$", b",<ms>", out, flags=re.M)
                record(f"compare-{name}-s{seed}", b"\0".join([code, out, err]))
        for name, flags in GEN_STREAM_CASES.items():
            record(f"gen-stream-{name}",
                   b"\0".join(call_cli(onea.cli.main, ["gen-stream", *flags], work)))
        for name, setting in FAILING_RUN_SETTINGS.items():
            out_dir = work / f"fail-run-{name}"
            record(f"fail-run-{name}", fail_case(
                onea.cli.main, ["run", "--set", setting, "--out-dir", str(out_dir)],
                out_dir, work))
        adapter = work / "run-default-s0" / "adapter-one-a.onea"
        truncated = work / "truncated.onea"
        truncated.write_bytes(adapter.read_bytes()[:-1])
        for name, first, flags in (("missing", work / "absent.onea", []),
                                   ("truncated", truncated, []),
                                   ("proxy", adapter, ["--proxy", "frobenius"]),
                                   ("n-prev-0", adapter,
                                    ["--strategy", "one-a", "--n-prev", "0"])):
            out = work / f"fail-merge-{name}.onea"
            record(f"fail-merge-{name}", fail_case(
                onea.cli.main,
                ["merge", str(first), str(adapter), "--out", str(out), *flags],
                out, work))
    print("total", total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
