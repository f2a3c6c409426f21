"""Behaviour differential of the `fordc` CLI against another source tree,
with the standard library alone.

    python tests/differential.py PARENT_SRC

PARENT_SRC is the `src` directory of another checkout, for instance of the
parent commit unpacked with `git archive`. The inputs are the top-level
corpus inputs (`corpus/*.fda`, goldens excluded); for each of SEEDS,
MUTANTS one-token mutants: a corpus input with one token deleted,
duplicated or replaced by another of its tokens; and the clause mutants:
every corpus file (goldens and subdirectories included) with one clause
line of a `def` dropped, or two adjacent ones swapped, which exercise
missing-case reporting; and, for each top-level corpus input that parses,
RENAMINGS alpha-renamings of its local names onto slot-like names
(`tests/renaming.py`), printed by this tree's `fordc` in a child process,
which exercise substitution and alpha-equality where variables meet
constructor slots. Each input gets four runs: `check`, `check --json`,
`ford --data <its last datatype> --out <file>` and `merge --types <its
first two datatypes>`. Each tree makes every run in one child process that
imports its own `fordc` and calls `fordc.cli.main` in-process, on its own
copy of the inputs, with the same hash seed. Prints each run whose exit
code, stdout, stderr or `--out` file differs, with the mutation that made
its input; exits 1 when one differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
TOKEN = re.compile(r"--[^\n]*|\w+(?:\.\w+)*|=>|->|\S")
DATA = re.compile(r"^\s*data\s+(\w+)", re.M)
HEADER = re.compile(r"\s*(?:partial\s+)?(def|data|axiom|mutual)\b")
CLAUSE = re.compile(r"\s+\|")
OUT = "out.fda"
SEEDS = (7, 11)
MUTANTS = 2000
RENAMINGS = 3


def corpus_inputs() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted(CORPUS.glob("*.fda"))
            if not p.name.endswith(".golden.fda")}


def mutants(inputs: dict[str, str], seed: int, n: int
            ) -> dict[str, tuple[str, str]]:
    """`n` one-token mutants of `inputs`, by file name: (text, how made)."""
    rng = random.Random(seed)
    spans = {name: [m.span() for m in TOKEN.finditer(text)
                    if not m.group().startswith("--")]
             for name, text in inputs.items()}
    names = [name for name in inputs if spans[name]]
    out = {}
    for k in range(n):
        name = rng.choice(names)
        text, toks = inputs[name], spans[name]
        i = rng.randrange(len(toks))
        lo, hi = toks[i]
        op = rng.choice(["delete", "duplicate", "replace"])
        word = text[lo:hi]
        new = {"delete": "", "duplicate": f"{word} {word}",
               "replace": text[slice(*rng.choice(toks))]}[op]
        how = f"{name}: {op} token {i} {word!r}" + (
            f" with {new!r}" if op == "replace" else "")
        out[f"m{seed}-{k}.fda"] = (text[:lo] + new + text[hi:], how)
    return out


def clause_mutants() -> dict[str, tuple[str, str]]:
    """Each corpus file with one `def` clause line dropped, and with two
    adjacent clause lines of one `def` swapped, by name: (text, how made)."""
    out = {}
    for path in sorted(CORPUS.rglob("*.fda")):
        rel = path.relative_to(CORPUS).as_posix()
        stem = "c-" + rel.removesuffix(".fda").replace("/", "-")
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        groups: list[list[int] | None] = []  # clause lines, per `def`
        for i, line in enumerate(lines):
            if CLAUSE.match(line):
                if groups and groups[-1] is not None:
                    groups[-1].append(i)
            elif m := HEADER.match(line):
                groups.append([] if m.group(1) == "def" else None)
        for g in filter(None, groups):
            for k, i in enumerate(g):
                out[f"{stem}-drop{i}.fda"] = (
                    "".join(lines[:i] + lines[i + 1:]),
                    f"{rel}: drop clause line {i + 1}")
                if k + 1 < len(g) and g[k + 1] == i + 1:
                    out[f"{stem}-swap{i}.fda"] = (
                        "".join(lines[:i] + [lines[i + 1], lines[i]]
                                + lines[i + 2:]),
                        f"{rel}: swap clause lines {i + 1} and {i + 2}")
    return out


def renamed(inputs: dict[str, str], env: dict[str, str]
            ) -> dict[str, tuple[str, str]]:
    """RENAMINGS seeded alpha-renamings of each of `inputs` that parses, by
    name: (text, how made). A child process makes them, so this one needs
    neither `fordc` nor the tests' helpers."""
    done = subprocess.run(
        [sys.executable, "-s", str(Path(__file__).resolve()), "--rename",
         str(ROOT / "src")], input=json.dumps(inputs), stdout=subprocess.PIPE,
        encoding="utf-8", env=env, check=True)
    return {name: tuple(v) for name, v in json.loads(done.stdout).items()}


def rename_child(src: str):
    """Print the renamings of the inputs read from stdin, each printed by
    the `fordc` under `src`, as JSON."""
    sys.path.insert(0, src)
    from fordc import FordcError, parse, print_module
    from renaming import rename_locals
    rng = random.Random(SEEDS[0])
    out = {}
    for name, text in json.load(sys.stdin).items():
        try:
            m = parse(text)
        except FordcError:
            continue
        for k in range(RENAMINGS):
            out[f"r{k}-{name}"] = (print_module(rename_locals(m, rng)),
                                   f"{name}: renaming {k}")
    print(json.dumps(out))


def runs(name: str, text: str) -> list[list[str]]:
    datas = DATA.findall(text) or ["D"]
    return [["check", name], ["check", "--json", name],
            ["ford", name, "--data", datas[-1], "--out", OUT],
            ["merge", name, "--types", ",".join(datas[:2])]]


def child(src: str, jobs_path: str, results_path: str):
    """Make every run of `jobs_path` with the `fordc` under `src`."""
    sys.path.insert(0, src)
    import fordc.cli
    if not fordc.cli.__file__.startswith(src):
        sys.exit(f"imported {fordc.cli.__file__}, not the fordc under {src}")
    results = []
    for argv in json.loads(Path(jobs_path).read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = fordc.cli.main(argv)
            except SystemExit as e:
                code = f"SystemExit({e.code!r})"
            except Exception as e:  # a crash is a result to compare
                code = f"uncaught {type(e).__name__}: {e}"
        written = None
        if os.path.exists(OUT):
            written = Path(OUT).read_text(encoding="utf-8")
            os.unlink(OUT)
        results.append([code, out.getvalue(), err.getvalue(), written])
    Path(results_path).write_text(json.dumps(results), encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", type=Path)
    args = ap.parse_args()
    parent = args.parent_src.resolve()
    if not (parent / "fordc" / "cli.py").is_file():
        ap.error(f"no fordc sources under {parent}")
    inputs = {name: (text, "corpus input")
              for name, text in corpus_inputs().items()}
    plain = {name: text for name, (text, _) in inputs.items()}
    for seed in SEEDS:
        inputs.update(mutants(plain, seed, MUTANTS))
    inputs.update(clause_mutants())
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    inputs.update(renamed(plain, env))
    jobs = [(name, argv) for name, (text, _) in inputs.items()
            for argv in runs(name, text)]
    procs = {}
    with tempfile.TemporaryDirectory(prefix="fordc-differential-") as tmp:
        for tree, src in [("parent", parent), ("this", ROOT / "src")]:
            cwd = Path(tmp, tree)  # each child writes its own --out file
            cwd.mkdir()
            for name, (text, _) in inputs.items():
                (cwd / name).write_text(text, encoding="utf-8")
            (cwd / "jobs.json").write_text(
                json.dumps([argv for _, argv in jobs]), encoding="utf-8")
            procs[tree] = subprocess.Popen(
                [sys.executable, "-s", str(Path(__file__).resolve()),
                 "--child", str(src), "jobs.json", "results.json"],
                cwd=cwd, env=env)
        if any([p.wait() for p in procs.values()]):
            print("differential: a child process failed")
            return 1
        got = {tree: json.loads(Path(tmp, tree, "results.json").read_text(
            encoding="utf-8")) for tree in procs}
    fields = ["exit", "stdout", "stderr", OUT]
    differ = 0
    for (name, argv), old, new in zip(jobs, got["parent"], got["this"]):
        if old != new:
            differ += 1
            which = ", ".join(f for f, a, b in zip(fields, old, new) if a != b)
            print(f"DIFF {' '.join(argv)} ({inputs[name][1]}): {which}; "
                  f"exit {old[0]} -> {new[0]}")
    print(f"differential: {len(inputs)} inputs, {len(jobs)} runs, "
          f"{differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(*sys.argv[2:])
    elif sys.argv[1:2] == ["--rename"]:
        rename_child(*sys.argv[2:])
    else:
        sys.exit(main())
