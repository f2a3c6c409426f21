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
`pytest -x` then runs `FIRST` there, and `TESTS` only when that passes; the
mutant survives when `TESTS` pass. `FIRST` is one of `TESTS` and kills most
mutants without collecting the others, so the verdicts are those of `TESTS`
alone. pytest loads no plugin from another package
(`PYTEST_DISABLE_PLUGIN_AUTOLOAD`): the tests use none, and loading them
would cost each run about a second where some are installed. A run that
outlasts `TIMEOUT` seconds counts as killed: a mutant that loops has been
noticed. The unmutated module goes through the same `ast.unparse` and must
pass first, or the tool stops with exit 2.

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
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOW = Path(__file__).resolve().parent / "mutants_allow.txt"
TESTS = ["tests/test_kernel.py", "tests/test_oracle.py",
         "tests/test_acceptance.py", "tests/test_ford.py",
         "tests/test_merge.py", "tests/test_reference.py"]
FIRST = ["tests/test_kernel.py"]
TIMEOUT = 120

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


def survives(copy: Path, module: Path, text: str) -> bool:
    module.write_text(text, encoding="utf-8")
    return passes(copy, FIRST) and passes(copy, TESTS)


def passes(copy: Path, tests: list[str]) -> bool:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *tests], cwd=copy, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


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
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "corpus"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        for name in names:
            source = (ROOT / "src" / "fordc" / name).read_text(encoding="utf-8")
            module = copy / "src" / "fordc" / name
            start = time.monotonic()
            if not survives(copy, module, ast.unparse(ast.parse(source))):
                print(f"mutants: {name}: the tests fail on the unmutated "
                      "module", file=sys.stderr)
                return 2
            lines = source.splitlines()
            todo = sites(ast.parse(source))
            alive = []
            count: dict[tuple[str, str], int] = {}
            for i, (node, _, what) in enumerate(todo):
                line = lines[node.lineno - 1].strip()
                n = count[line, what] = count.get((line, what), 0) + 1
                if survives(copy, module, mutant(source, i)):
                    alive.append((name, line, f"{what} #{n}"))
                    print(f"{name}:{node.lineno}: {what} #{n} survives: "
                          f"{line}")
            module.write_text(source, encoding="utf-8")
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
