"""Line coverage of `src/fordc`, with the standard library alone.

    python tests/linecov.py

Runs the tier-1 tests in this process through `pytest.main`, then
`fordc corpus corpus/manifest.txt` through `runpy` on `fordc.__main__`,
under a `sys.settrace` collector. A line is executable when a code object
compiled from its file lists it in `co_lines()`. Exits 1 when the tests or
the corpus fail, when an executable line never ran and is not on the
allowlist, or when an allowlist entry matches no line that never ran, so a
stale entry goes. Exits 0 otherwise.

`tests/linecov_allow.txt` holds the allowlist, one entry a line:
`<file under src/fordc> | <the line's source text, stripped> | <reason>`.
An entry names source text, not a line number, so it survives edits around
the line. Line tables differ between Python versions; CI runs this on one.
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fordc"
ALLOW = Path(__file__).resolve().parent / "linecov_allow.txt"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from `path`."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class Collector:
    """Records the lines run in the files of `SRC`. Arm it before each
    test: CPython drops a trace function that raises, and calling one at
    the recursion limit raises `RecursionError`, so a test that reaches
    the limit turns tracing off for the rest of the run."""

    def __init__(self, files: set[str]):
        self.hits: dict[str, set[int]] = {f: set() for f in files}
        # one local trace function per file, made once: one made per call
        # would be a reference cycle (it returns itself) left per call, and
        # the tests count the cycles that fordc's code leaves
        self.tracers = {f: _line_tracer(h) for f, h in self.hits.items()}

    def arm(self):
        sys.settrace(self._call)

    def _call(self, frame, event, arg):
        return self.tracers.get(frame.f_code.co_filename)

    # pytest hook: runs before each test's setup
    def pytest_runtest_setup(self, item):
        self.arm()


def _line_tracer(hits: set[int]):
    def line(frame, event, arg):
        if event == "line":
            hits.add(frame.f_lineno)
        return line
    return line


def read_allowlist(path: Path) -> list[tuple[str, str, str]]:
    entries = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        file, rest = raw.split(" | ", 1)
        text, reason = rest.rsplit(" | ", 1)
        entries.append((file.strip(), text.strip(), reason.strip()))
    return entries


def main() -> int:
    files = {str(p): p for p in sorted(SRC.glob("*.py"))}
    col = Collector(set(files))
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    col.arm()
    status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"],
                         plugins=[col])
    if status != 0:
        print(f"linecov: the tests failed (pytest exit {status})")
        return 1
    col.arm()
    sys.argv = ["fordc", "corpus", "corpus/manifest.txt"]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            runpy.run_module("fordc", run_name="__main__", alter_sys=True)
    except SystemExit as e:
        status = e.code
    sys.settrace(None)
    if status != 0:
        print(out.getvalue() + f"linecov: the corpus failed (exit {status})")
        return 1

    unrun, total = [], 0
    for name, path in files.items():
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for n in sorted(lines - col.hits[name]):
            unrun.append((path.name, n, source[n - 1].strip()))
    entries = read_allowlist(ALLOW)
    allowed = {(f, t) for f, t, _ in entries}
    used = {(f, t) for f, _, t in unrun}
    bad = [u for u in unrun if (u[0], u[2]) not in allowed]
    stale = [e for e in entries if (e[0], e[1]) not in used]
    print(f"linecov: {total - len(unrun)} of {total} executable lines of "
          f"src/fordc ran; {len(unrun) - len(bad)} unrun lines allowed by "
          f"{len(entries)} entries")
    for f, n, text in bad:
        print(f"src/fordc/{f}:{n}: never ran: {text}")
    for f, text, _ in stale:
        print(f"{ALLOW.name}: stale entry, no unrun line matches: "
              f"{f} | {text}")
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
