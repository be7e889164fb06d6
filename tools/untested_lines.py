"""List the lines of src/onea that no tier-1 test runs.

Runs the test suite in this process under a sys.settrace line tracer that
follows only the files of src/onea, then prints each executable line (one
that a code object's co_lines names) that no test ran, as path:line, and
their count. Extra arguments go to pytest. Tracing roughly doubles the
suite's run time. The exit code is pytest's; the list is a report and
gates nothing.

    python3 tools/untested_lines.py [PYTEST_ARGS...]
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "onea"


def executable_lines(path: Path) -> set[int]:
    """Every line that some code object compiled from path names."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in files}

    def trace(frame, event, arg):
        seen = ran.get(frame.f_code.co_filename)
        if seen is None:
            return None  # no line events outside the package

        def local(frame, event, arg):
            seen.add(frame.f_lineno)
            return local

        return local(frame, event, arg)

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            "--rootdir", str(ROOT), str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)

    untested = [f"{path.relative_to(ROOT)}:{line}"
                for name, path in files.items()
                for line in sorted(executable_lines(path) - ran[name])]
    print(*untested, sep="\n")
    print(f"{len(untested)} untested lines")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
