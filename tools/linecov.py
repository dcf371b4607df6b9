"""List the executable lines of src/gradcomp that the test suite never runs.

A line tracer built on the standard library alone (sys.settrace), for
hosts without the coverage package.  It runs pytest in this process and
prints every executable line of src/gradcomp that no test executed, then
a one-line total.  Lines run only in a subprocess (the CLI tests that
start ``python -m gradcomp``) count as not run.

    python tools/linecov.py                 # the tier-1 suite, tests/
    python tools/linecov.py tests/test_rng.py -k keyed

Arguments are passed to pytest as they are.  The exit code is pytest's.
Tracing makes the suite take 1.5 to 2 times as long.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "gradcomp"


def executable_lines(path: Path) -> set[int]:
    """Every line the compiled module, or any code object in it, maps an instruction to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # Line 0 holds a module's set-up instructions, which have no source line.
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def trace_suite(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; (its exit code, lines run per file of the package)."""
    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        # A code object's first line (its def, or line 1 of a module) has no
        # line event of its own.
        seen.setdefault(filename, set()).add(frame.f_code.co_firstlineno)
        return local

    sys.path.insert(0, str(REPO / "src"))
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main(argv: list[str]) -> int:
    code, seen = trace_suite(argv or [str(REPO / "tests")])
    missed = total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        source = path.read_text().splitlines()
        total += len(lines)
        for line in sorted(lines - seen.get(str(path), set())):
            missed += 1
            print(f"{path.relative_to(REPO)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines in {PACKAGE.relative_to(REPO)} not run")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
