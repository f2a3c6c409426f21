"""Mutation testing of `src/fordc` modules, with the standard library alone.

    python tests/mutants.py normalize.py unify.py

Each module named (a file of `src/fordc`) is mutated one operator at a
time, at every site of these kinds:

- a comparison swapped: `==`/`!=`, `is`/`is not`, `in`/`not in`,
  `<`/`<=` and `>`/`>=`, either way;
- `and` swapped with `or`, either way;
- a `not` dropped.

A mutant is the module's syntax tree with that one change, written back as
source (`ast.unparse`) over the module in a scratch copy of the repository.
The unmutated modules go through the same `ast.unparse` first, and `TESTS`
run once on them under `tests/linecov.py`'s collector, which records the
lines of those modules that each test's call runs and how long it takes.
They must pass, or the tool stops with exit 2. A mutant differs from that
text on one line, and `pytest -x` runs only the tests that ran that line:
first those of the first file among them, which fail first as a rule, and
then, if they pass, all of them in the order of `TESTS`. The mutant
survives when they pass. A line that ran outside a test's call (at
import, at collection, in a fixture, whose value later tests may share,
or in a `fordc` command run before the tests to build what `fordc` keeps
between calls, such as the checked prelude) needs all of `TESTS`, and a
test whose tracing stopped (at the recursion limit) runs for every
mutant. When no test ran a mutant's line, and no test's tracing stopped,
the mutant survives without a run: no test can tell it from the
unmutated module. So the verdicts are those of running all of `TESTS` on
every mutant.

Each run is a child forked from this process (POSIX only), which has
imported pytest already but not `fordc` or the tests, and its output is
discarded. pytest loads no plugin from another package
(`PYTEST_DISABLE_PLUGIN_AUTOLOAD`), as the tests use none, and rewrites no
assertion (`--assert=plain`), which would cost most of a short run and
changes no outcome. A run that outlasts `SLACK` seconds plus `FACTOR`
times the time its tests took in the traced first run counts as killed:
a mutant that loops has been noticed.

Exits 1 when a survivor is not on the allowlist, or when an allowlist entry
for a module that ran matches no survivor, so a stale entry goes. Exits 0
otherwise. The counts of mutants and survivors per module are printed.

`tests/mutants_allow.txt` holds the allowlist, one entry a line:
`<file under src/fordc> | <the site's line, stripped> | <mutation> |
<reason>`, with the mutation as printed (`and -> or #1`, `is -> is not
#2`, `drop not #1`): `#n` counts the sites of that mutation on lines of
that text, in source order, so an entry names one site. An entry names
source text, not a line number, so it survives edits around the line.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

import pytest

from linecov import Collector

ROOT = Path(__file__).resolve().parent.parent
ALLOW = Path(__file__).resolve().parent / "mutants_allow.txt"
TESTS = ["tests/test_kernel.py", "tests/test_oracle.py",
         "tests/test_acceptance.py", "tests/test_ford.py",
         "tests/test_merge.py", "tests/test_reference.py"]
SLACK, FACTOR = 10, 2
PYTEST = ["-x", "-q", "-p", "no:cacheprovider", "--assert=plain"]

_SWAPS = [(ast.Eq, ast.NotEq), (ast.Is, ast.IsNot), (ast.In, ast.NotIn),
          (ast.Lt, ast.LtE), (ast.Gt, ast.GtE), (ast.And, ast.Or)]
SWAP = {**dict(_SWAPS), **{b: a for a, b in _SWAPS}}
SYMBOL = {ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
          ast.In: "in", ast.NotIn: "not in", ast.Lt: "<", ast.LtE: "<=",
          ast.Gt: ">", ast.GtE: ">=", ast.And: "and", ast.Or: "or"}


def sites(tree: ast.AST) -> list[tuple[ast.AST, int | None, str]]:
    """Every mutation site of `tree` as `(node, index, mutation)`, in source
    order: the index of the swapped operator in a comparison, else None."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            out += [(node, k, f"{SYMBOL[type(op)]} -> {SYMBOL[SWAP[type(op)]]}")
                    for k, op in enumerate(node.ops) if type(op) in SWAP]
        elif isinstance(node, ast.BoolOp):
            op = type(node.op)
            out.append((node, None, f"{SYMBOL[op]} -> {SYMBOL[SWAP[op]]}"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            out.append((node, None, "drop not"))
    return sorted(out, key=lambda s: (s[0].lineno, s[0].col_offset,
                                      s[1] or 0))


def mutant(source: str, i: int) -> str:
    """`source` with its i-th site (see `sites`) mutated."""
    tree = ast.parse(source)
    node, k, _ = sites(tree)[i]
    if isinstance(node, ast.Compare):
        node.ops[k] = SWAP[type(node.ops[k])]()
    elif isinstance(node, ast.BoolOp):
        node.op = SWAP[type(node.op)]()
    else:
        tree = _DropNot(node).visit(tree)
    return ast.unparse(tree)


class _DropNot(ast.NodeTransformer):
    """Puts the operand of the `not` node `target` in its place."""

    def __init__(self, target: ast.UnaryOp):
        self.target = target

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        return node.operand if node is self.target else node


class _PerTest(Collector):
    """The collector, with the lines run in each test's call kept apart,
    under that test's id, from those run anywhere else, under None."""

    def __init__(self, files: set[str]):
        super().__init__(files)
        self.ran: dict[str, dict[int, set[str | None]]] = {
            f: {} for f in files}
        self.seconds: dict[str, float] = {}
        self.lost: list[str] = []

    def flush(self, owner: str | None):
        for f, hits in self.hits.items():
            for n in hits:
                self.ran[f].setdefault(n, set()).add(owner)
            hits.clear()

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(self, item):
        self.flush(None)
        self.arm()
        start = time.monotonic()
        try:
            return (yield)
        finally:
            self.seconds[item.nodeid] = time.monotonic() - start
            if sys.gettrace() != self._call:
                self.lost.append(item.nodeid)
            self.flush(item.nodeid)


def record(names: list[str]) -> int:
    """Run `TESTS` in the current directory, a copy of the repository,
    under `_PerTest` on the modules `names` (files of `src/fordc`); write
    the tests' times in run order, those whose tracing stopped, and per
    module each line's owners to `ran.json` there, and return pytest's exit
    status."""
    src = Path("src").resolve()
    sys.path.insert(0, str(src))
    col = _PerTest({str(src / "fordc" / n) for n in names})
    col.arm()
    from fordc import cli
    cli.main(["check", "corpus/empty.fda"])
    status = pytest.main([*PYTEST, *TESTS], plugins=[col])
    sys.settrace(None)
    col.flush(None)
    Path("ran.json").write_text(json.dumps({
        "seconds": col.seconds, "lost": col.lost,
        "lines": {n: {line: list(owners) for line, owners in
                      col.ran[str(src / "fordc" / n)].items()}
                  for n in names}}))
    return status


def chosen(ran: dict, name: str, base: str, text: str
           ) -> tuple[list[str], list[str]]:
    """The tests the mutant `text` of module `name` needs, from what
    `record` wrote to `ran` about the line on which it differs from `base`:
    those of the first file among the tests whose calls ran that line, and
    every test it needs, ids in run order or all of `TESTS`. None are
    needed when no test ran the line."""
    a, b = base.splitlines(), text.splitlines()
    if len(a) != len(b):
        return [], TESTS
    owners = {t for n, (x, y) in enumerate(zip(a, b), 1) if x != y
              for t in ran["lines"][name].get(str(n), ())}
    direct = [t for t in ran["seconds"] if t in owners]
    first = [t for t in direct if t.split("::")[0] == direct[0].split("::")[0]]
    if None in owners:
        return first, TESTS
    owners.update(ran["lost"])
    tests = [t for t in ran["seconds"] if t in owners]
    return (first if first != tests else []), tests


def passes(copy: Path, work, limit: float = 0) -> bool:
    """Whether `work()` returns 0 in a child forked from this process, run
    in `copy` with its output discarded, within `limit` seconds (0: no
    limit)."""
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.chdir(copy)
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.dup2(null, 2)
            signal.alarm(int(limit))
            status = work()
        finally:
            os._exit(status)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


def run_tests(copy: Path, ran: dict, tests: list[str]) -> bool:
    """Whether `pytest -x` passes on `tests` in `copy`, in time."""
    seconds = ran["seconds"]
    took = sum(seconds.values() if tests == TESTS else map(seconds.get, tests))
    return passes(copy, lambda: pytest.main([*PYTEST, *tests]),
                  SLACK + FACTOR * took)


def read_allowlist(path: Path) -> list[tuple[str, str, str, str]]:
    entries = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        if raw.strip() and not raw.startswith("#"):
            parts = [p.strip() for p in raw.split(" | ")]
            if len(parts) != 4 or not parts[3]:
                raise SystemExit(f"mutants: malformed allowlist entry: {raw}")
            entries.append(tuple(parts))
    return entries


def main(names: list[str]) -> int:
    if not names:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    allowed = read_allowlist(ALLOW)
    found: list[tuple[str, str, str]] = []
    # the children import the copy's modules afresh, and must write no
    # bytecode that a mutant of the same size and time could reuse
    sys.dont_write_bytecode = True
    os.environ["PYTEST_DISABLE_PLUGIN_AUTOLOAD"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp).resolve()
        for part in ("src", "tests", "corpus"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        sources = {n: (ROOT / "src" / "fordc" / n).read_text(encoding="utf-8")
                   for n in names}
        bases = {n: ast.unparse(ast.parse(s)) for n, s in sources.items()}
        for name, base in bases.items():
            (copy / "src" / "fordc" / name).write_text(base, encoding="utf-8")
        start = time.monotonic()
        if not passes(copy, lambda: record(names)):
            print(f"mutants: the tests fail on the unmutated modules "
                  f"{', '.join(names)}", file=sys.stderr)
            return 2
        ran = json.loads((copy / "ran.json").read_text())
        print(f"mutants: recorded the lines each test runs "
              f"({time.monotonic() - start:.0f} s)")
        for name in names:
            source, module = sources[name], copy / "src" / "fordc" / name
            start = time.monotonic()
            lines = source.splitlines()
            todo = sites(ast.parse(source))
            alive = []
            count: dict[tuple[str, str], int] = {}
            for i, (node, _, what) in enumerate(todo):
                line = lines[node.lineno - 1].strip()
                n = count[line, what] = count.get((line, what), 0) + 1
                text = mutant(source, i)
                module.write_text(text, encoding="utf-8")
                if all(run_tests(copy, ran, tests) for tests in
                       chosen(ran, name, bases[name], text) if tests):
                    alive.append((name, line, f"{what} #{n}"))
                    print(f"{name}:{node.lineno}: {what} #{n} survives: "
                          f"{line}")
            module.write_text(bases[name], encoding="utf-8")
            found += alive
            print(f"mutants: {name}: {len(todo)} mutants, {len(alive)} "
                  f"survive ({time.monotonic() - start:.0f} s)")
    bad = 0
    for site in found:
        if not any(e[:3] == site for e in allowed):
            print(f"mutants: unlisted survivor: {' | '.join(site)}")
            bad += 1
    for entry in allowed:
        if entry[0] in names and entry[:3] not in found:
            print(f"mutants: allowlist entry matches no survivor: "
                  f"{' | '.join(entry[:3])}")
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
