"""fordc makes no reference cycles, so `cli.main` runs each command with the
cyclic collector paused and gives the caller its collector state back."""

import gc
import sys

import pytest

from fordc import (FordcError, TransformError, check_module, ford_module,
                   merge_block, parse, prelude_signature)
from fordc import cli
from fordc.printer import print_module
from conftest import CORPUS, cyclic_garbage, load_checked

FDA_FILES = sorted(p.relative_to(CORPUS).as_posix()
                   for p in CORPUS.glob("**/*.fda"))
TRANSFORM_CASES = [f for f in map(str.split, (CORPUS / "manifest.txt")
                                   .read_text().splitlines())
                   if f and f[0].removesuffix("-error") in ("ford", "merge")]


@pytest.mark.parametrize("name", FDA_FILES)
def test_checking_a_corpus_file_leaves_no_cyclic_garbage(name):
    text = (CORPUS / name).read_text(encoding="utf-8")

    def work():
        try:
            check_module(parse(text, prelude_signature().name_env()))
        except FordcError:
            pass  # a failing input must leave no cycle either

    assert cyclic_garbage(work) == 0


@pytest.mark.parametrize("case", TRANSFORM_CASES,
                         ids=[" ".join(c[:2]) for c in TRANSFORM_CASES])
def test_a_corpus_transform_leaves_no_cyclic_garbage(case):
    kind, inp, *fields = case
    rejected = kind.endswith("-error")
    target, rest = (fields[0], []) if rejected else (fields[1], fields[2:])
    outcome = []

    def work():
        m, sig = load_checked(inp)
        try:
            if kind.startswith("ford"):
                out, _ = ford_module(m, sig, target, *rest)
            else:
                out, _ = merge_block(m, sig, target.split(","),
                                     [tuple(s.split(":")) for s in rest])
        except TransformError:
            outcome.append("rejected")  # a rejection must leave none either
        else:
            print_module(out)
            outcome.append("done")

    assert cyclic_garbage(work) == 0
    assert outcome == ["rejected" if rejected else "done"]


def wide_module(n: int) -> str:
    """`Nat`, then `n` Nat-indexed families, each with a function that
    splits on it."""
    blocks = ["data Nat\n  | zero\n  | suc (n : Nat)"]
    for i in range(n):
        blocks.append(f"data W{i} : (n : Nat)\n"
                      f"  | a{i} [zero]\n"
                      f"  | b{i} [suc m] (x : W{i} m)")
        blocks.append(f"def f{i} (n : Nat) (v : W{i} n) : Nat\n"
                      f"  | n (a{i}) => zero\n"
                      f"  | n (b{i} m x) => suc (f{i} m x)")
    return "\n\n".join(blocks) + "\n"


def test_no_collection_runs_during_a_command(tmp_path, capsys):
    path = tmp_path / "wide.fda"
    path.write_text(wide_module(300))
    starts = []

    def count(phase, info):
        # the pass that the first allocation after `main` starts, once
        # `main` enables the collector again, is not one during `main`
        frame = sys._getframe()
        while frame and frame.f_code is not cli.main.__code__:
            frame = frame.f_back
        if phase == "start" and frame:
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        code = cli.main(["check", str(path)])
    finally:
        gc.callbacks.remove(count)
    assert code == 0 and capsys.readouterr().out == f"checked {path}\n"
    assert starts == []


def _raise(args):
    raise RuntimeError("boom")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, then, code", [
    (["check", str(CORPUS / "vec.fda")], None, 0),
    (["check", str(CORPUS / "bad-split-so-stuck.fda")], None, 1),
    (["check", str(CORPUS / "vec.fda")], _raise, 6),
    (["check"], None, SystemExit),
], ids=["pass", "exit-1", "internal", "usage"])
def test_main_restores_the_callers_collector_state(monkeypatch, capsys,
                                                   enabled, argv, then, code):
    seen = []
    real = cli.cmd_check

    def spy(args):
        seen.append(gc.isenabled())
        return (then or real)(args)

    monkeypatch.setattr(cli, "cmd_check", spy)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if code is SystemExit:
            with pytest.raises(SystemExit):
                cli.main(argv)
            assert seen == []
        else:
            assert cli.main(argv) == code
            assert seen == [False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    if then is _raise:
        assert "E-INTERNAL" in capsys.readouterr().err


def test_a_command_after_the_first_leaves_no_cyclic_garbage(capsys):
    # the first call builds the argument parser, whose cycles it keeps
    vec = str(CORPUS / "vec.fda")
    assert cli.main(["check", vec]) == 0
    assert cyclic_garbage(lambda: cli.main(["check", vec])) == 0
    assert capsys.readouterr().out == f"checked {vec}\n" * 2
