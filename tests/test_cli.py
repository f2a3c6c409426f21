import json
import shutil
import sys

import pytest

from fordc import (AxiomDecl, Checker, Clause, Diagnostic, FunDecl, PatVar,
                   SourceModule, parse)
from fordc import cli, prelude_signature
from fordc import parser as fordc_parser
from fordc.cli import main
from fordc.terms import App, CtorRef, DataRef, Var
from fordc.node import replace
from conftest import CORPUS, arith_theorem, corpus_text, load, numeral


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cp(name):
    return str(CORPUS / name)


def test_check_ok(capsys):
    code, out, err = run(capsys, "check", cp("vec.fda"))
    assert code == 0 and "checked" in out and err == ""


def test_check_empty_file_ok(capsys):
    code, _, _ = run(capsys, "check", cp("empty.fda"))
    assert code == 0


def test_check_type_error_exit_1(capsys):
    code, _, err = run(capsys, "check", cp("bad-split-so-stuck.fda"))
    assert code == 1 and "E-UNIFY-STUCK" in err


def test_check_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.fda"
    bad.write_text("data |")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2 and "E-PARSE" in err


def test_check_missing_file_exit_3(capsys):
    code, _, err = run(capsys, "check", "no-such-file.fda")
    assert code == 3 and "E-IO" in err


def test_ford_no_indices_exit_4(capsys):
    code, _, err = run(capsys, "ford", cp("bool.fda"), "--data", "Bool")
    assert code == 4 and "E-FORD-NO-INDICES" in err


def test_merge_indexed_member_exit_5(capsys):
    code, _, err = run(capsys, "merge", cp("vec.fda"), "--types", "Vec")
    assert code == 5 and "E-MERGE-BLOCK" in err


def test_json_diagnostic_twin(capsys):
    _, _, text_err = run(capsys, "check", cp("bad-split-so-stuck.fda"))
    _, _, json_err = run(capsys, "check", cp("bad-split-so-stuck.fda"), "--json")
    rec = json.loads(json_err.strip())
    head = text_err.split(":")[0]  # "error[CODE] path" prefix
    assert rec["code"] == "E-UNIFY-STUCK" and rec["code"] in head
    assert f":{rec['line']}:{rec['col']}:" in text_err


def test_ford_out_matches_golden(tmp_path, capsys):
    out = tmp_path / "so.out.fda"
    code, report, _ = run(capsys, "ford", cp("so.fda"), "--data", "So",
                          "--out", str(out))
    assert code == 0
    assert out.read_text() == (CORPUS / "so.forded.golden.fda").read_text()
    rec = json.loads(report)
    assert rec["converters"] == {"toFord": "toSoF", "fromFord": "fromSoF"}


def test_no_partial_write_on_failure(tmp_path, capsys):
    out = tmp_path / "never.fda"
    code, _, _ = run(capsys, "ford", cp("bool.fda"), "--data", "Bool",
                     "--out", str(out))
    assert code == 4 and not out.exists()


def test_merge_with_path_flag(tmp_path, capsys):
    out = tmp_path / "m.fda"
    code, report, _ = run(capsys, "merge", cp("int-point.fda"),
                          "--types", "Int", "--path", "path:Int:Int",
                          "--out", str(out))
    assert code == 0
    assert out.read_text() == (CORPUS / "int-point.merged.golden.fda").read_text()
    assert json.loads(report)["paths"] == [
        {"name": "path", "lhs": "Int_tag", "rhs": "Int_tag"}]


@pytest.mark.parametrize("source, extra, message", [
    ("data D1 | a\n\ndata D1_tag | q\n", [],
     "{}:1:1: generated tag 'D1_tag' collides with an existing name"),
    ("data D1 | a\n\ndata Z | pth\n", ["--path", "pth:D1:D1"],
     "{}: path constructor name 'pth' collides with an existing name"),
    ("data D1 | a\n\ndata Z | a_T\n", [],
     "{}:1:9: generated constructor 'a_T' collides with an existing name"),
], ids=["tag", "path", "constructor"])
def test_merge_generated_name_clashes(tmp_path, capsys, source, extra,
                                      message):
    path = tmp_path / "in.fda"
    path.write_text(source)
    code, out, err = run(capsys, "merge", str(path), "--types", "D1", *extra)
    assert (code, out) == (5, "")
    assert err == f"error[E-NAME-CLASH] {message.format(path)}\n"


@pytest.mark.parametrize("source, argv, exit_code, expected", [
    ("data D1 (A : Type0) | a\n", ["merge", "--types", "D1"], 5,
     "error[E-MERGE-BLOCK] {}:1:1: block member D1 has parameters; only "
     "plain datatypes can be merged"),
    ("data Bool | true | false\n", ["ford", "--data", "Bool"], 4,
     "error[E-FORD-NO-INDICES] {}:1:1: datatype Bool has no indices to "
     "ford"),
], ids=["merge", "ford"])
def test_transform_rejection_is_located_at_the_declaration(
        tmp_path, capsys, source, argv, exit_code, expected):
    path = tmp_path / "in.fda"
    path.write_text(source)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (exit_code, "")
    assert err == expected.format(path) + "\n"


def test_cli_output_deterministic(tmp_path, capsys):
    runs = []
    for i in range(2):
        out = tmp_path / f"v{i}.fda"
        code, report, _ = run(capsys, "ford", cp("vec.fda"), "--data", "Vec",
                              "--out", str(out))
        assert code == 0
        runs.append((out.read_text(), report))
    assert runs[0] == runs[1]


def test_corpus_manifest_passes(capsys):
    code, out, _ = run(capsys, "corpus", str(CORPUS / "manifest.txt"))
    assert code == 0
    assert "0 failed" in out and "FAIL" not in out


def test_corpus_corrupted_golden_fails_only_that_case(tmp_path, capsys):
    work = tmp_path / "corpus"
    shutil.copytree(CORPUS, work)
    golden = work / "so.forded.golden.fda"
    golden.write_text(golden.read_text() + "-- tampered\n")
    code, out, _ = run(capsys, "corpus", str(work / "manifest.txt"))
    assert code != 0
    fails = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert len(fails) == 1 and "so.fda" in fails[0]


def test_corpus_wrong_field_count_fails_the_case(tmp_path, capsys):
    mf = tmp_path / "manifest.txt"
    mf.write_text(f"check {cp('bool.fda')}\n"
                  f"check {cp('bool.fda')} extra\n"
                  f"golden {cp('so.fda')}\n"
                  f"ford-error {cp('bool.fda')} Bool X\n")
    code, out, _ = run(capsys, "corpus", str(mf))
    fails = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert code == 1 and out.endswith("1 passed, 3 failed\n")
    assert [f.rsplit(": ", 1)[1] for f in fails] == [
        "check takes the fields <input>, got 2",
        "golden takes the fields <input> <golden>, got 1",
        "ford-error takes the fields <input> <data>, got 3"]


def test_ford_suffix_must_give_an_identifier(capsys):
    code, out, err = run(capsys, "ford", cp("vec.fda"), "--data", "Vec",
                         "--suffix", "x y")
    assert code == 4 and out == ""
    assert err.startswith(f"error[E-NAME-CLASH] {cp('vec.fda')}: forded "
                          "name 'Vecx y' is not an identifier")


def test_merge_path_name_must_be_an_identifier(capsys):
    code, out, err = run(capsys, "merge", cp("int-point.fda"), "--types",
                         "Int", "--path", "refl:Int:Int")
    assert code == 5 and out == ""
    assert "E-MERGE-BLOCK" in err and "'refl' is not an identifier" in err


def test_merge_reports_a_missing_input_before_a_bad_path(capsys):
    code, _, err = run(capsys, "merge", "missing.fda", "--types", "Nat",
                       "--path", "bad")
    assert code == 3 and err.startswith("error[E-IO] missing.fda: ")


def test_corpus_empty_manifest(tmp_path, capsys):
    mf = tmp_path / "manifest.txt"
    mf.write_text("# nothing here\n")
    code, out, _ = run(capsys, "corpus", str(mf))
    assert code == 0 and "0 passed, 0 failed" in out


NEEDS_UNFOLD = """
data Nat
  | zero
  | suc (n : Nat)

def N : Type0 => Nat

axiom n0 : N

def use : Nat => n0
"""


def test_step_budget_env_var(tmp_path, capsys, monkeypatch):
    mod = tmp_path / "unfold.fda"
    mod.write_text(NEEDS_UNFOLD)
    monkeypatch.setenv("FORDC_STEP_BUDGET", "0")
    code, _, err = run(capsys, "check", str(mod))
    assert code == 1 and "E-STEP-BUDGET" in err
    monkeypatch.delenv("FORDC_STEP_BUDGET")
    code, _, _ = run(capsys, "check", str(mod))
    assert code == 0


def test_step_budget_flag_overrides(tmp_path, capsys, monkeypatch):
    mod = tmp_path / "unfold.fda"
    mod.write_text(NEEDS_UNFOLD)
    monkeypatch.setenv("FORDC_STEP_BUDGET", "0")
    code, _, _ = run(capsys, "check", str(mod), "--step-budget", "100000")
    assert code == 0


def test_step_budget_rejects_bad_values(tmp_path, capsys, monkeypatch):
    mod = tmp_path / "unfold.fda"
    mod.write_text(NEEDS_UNFOLD)
    for env, flag, shown in [("abc", [], "FORDC_STEP_BUDGET"),
                             ("-5", [], "FORDC_STEP_BUDGET"),
                             ("0", ["--step-budget", "-5"], "--step-budget"),
                             ("0", ["--step-budget", "abc"], "--step-budget")]:
        monkeypatch.setenv("FORDC_STEP_BUDGET", env)
        with pytest.raises(SystemExit) as ei:
            main(["check", str(mod), *flag])
        assert ei.value.code == 2
        assert shown in capsys.readouterr().err


SPIN = """
data Nat
  | zero
  | suc (n : Nat)

partial def spin (n : Nat) : Nat
  | n => spin n

def t : Id Nat (spin zero) zero
  => refl
"""


def test_step_budget_error_is_located(tmp_path, capsys):
    mod = tmp_path / "spin.fda"
    mod.write_text(SPIN)
    code, _, err = run(capsys, "check", str(mod), "--step-budget", "1000")
    assert code == 1
    assert err.startswith(f"error[E-STEP-BUDGET] {mod}:9:1: ")


NAT = "data Nat | zero | suc (n : Nat)\n\n"


@pytest.mark.parametrize("source, expected", [
    (NAT + "def f (n : Nat) : Nat => refl\n", "error[E-TYPE] {}:3:1: "),
    (NAT + "def f (n : Nat) : Nat => f n\n", "error[E-TERMINATION] {}:3:1: "),
    (NAT + "partial def loop (n : Nat) : Nat => loop n\n\n"
           "partial def t (n : Nat) : Id Nat (loop n) zero => refl\n",
     "error[E-STEP-BUDGET] {}:5:1: "),
    (NAT + "def N : Type0 => Nat\n\ndef z : N => zero\n", ""),
], ids=["type", "termination", "step-budget", "alias"])
def test_single_body_checks_as_its_one_clause(tmp_path, monkeypatch, capsys,
                                              source, expected):
    # the twin spells every body as one all-variable clause; it is built
    # after parsing, since an arity-zero clause has no source syntax
    def one_clause(d):
        if not isinstance(d, FunDecl) or d.body is None:
            return d
        pats = tuple(PatVar(b.name) for b in d.binders)
        return replace(d, body=None, clauses=(Clause(pats, d.body),))

    path = tmp_path / "in.fda"
    path.write_text(source)
    argv = ["check", str(path), "--step-budget", "1000"]
    code, out, err = run(capsys, *argv)
    assert err.startswith(expected.format(path)) and (code == 0) == (not err)
    monkeypatch.setattr(cli, "parse", lambda text, env: SourceModule(
        tuple(one_clause(d) for d in parse(text, env).decls)))
    assert run(capsys, *argv) == (code, out, err)


def test_invalid_utf8_is_an_io_error(tmp_path, capsys):
    bad = tmp_path / "latin1.fda"
    bad.write_bytes(b"data Nat\n  | z\xff\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 3 and err.startswith(f"error[E-IO] {bad}: ")


def test_deep_arithmetic_checks_under_default_recursion_limit(tmp_path,
                                                              capsys):
    assert sys.getrecursionlimit() == 1000
    mod = tmp_path / "arith.fda"
    mod.write_text(arith_theorem(25, 25))
    code, out, err = run(capsys, "check", str(mod))
    assert (code, err) == (0, "") and "checked" in out


def test_false_arithmetic_shows_normal_form(tmp_path, capsys):
    mod = tmp_path / "arith.fda"
    mod.write_text(arith_theorem(20, 20, extra_suc=True))
    code, _, err = run(capsys, "check", str(mod))
    assert code == 1 and "E-TYPE" in err
    assert f"got {numeral(401)}\n" in err


def test_false_deep_arithmetic_prints_without_recursion_error(tmp_path,
                                                              capsys):
    mod = tmp_path / "arith.fda"
    mod.write_text(arith_theorem(30, 30, extra_suc=True))
    code, _, err = run(capsys, "check", str(mod))
    assert code == 1 and "E-TYPE" in err and "Traceback" not in err
    assert f"expected {numeral(900)}, got {numeral(901)}\n" in err


def test_merge_bad_path_names_the_input(capsys):
    code, out, err = run(capsys, "merge", cp("int-point.fda"), "--types",
                         "Int", "--path", "bad")
    assert code == 5 and out == ""
    assert err.startswith(f"error[E-MERGE-BLOCK] {cp('int-point.fda')}: "
                          "--path expects name:Member:Member, got 'bad'")


def test_corpus_drops_empty_type_names_like_the_cli(tmp_path, capsys):
    mf = tmp_path / "manifest.txt"
    mf.write_text(f"merge {cp('d1d2.fda')} {cp('d1d2.merged.golden.fda')} "
                  "D1,,D2\n"
                  f"merge-error {cp('vec.fda')} Vec,\n")
    code, out, _ = run(capsys, "corpus", str(mf))
    assert code == 0 and out.endswith("2 passed, 0 failed\n")
    code, out, _ = run(capsys, "merge", cp("d1d2.fda"), "--types", "D1,,D2")
    assert code == 0
    assert out == (CORPUS / "d1d2.merged.golden.fda").read_text()


# -- the output re-check: only from the first changed declaration --------------

def fake_ford(monkeypatch, out: SourceModule):
    """Make `fordc ford` emit `out`; no report is needed, as each use fails."""
    monkeypatch.setattr(cli, "ford_module", lambda m, sig, *a: (out, None))


def rechecked(monkeypatch) -> list[list[str]]:
    """Record the declaration names each `Checker.check_module` call gets."""
    calls = []
    orig = Checker.check_module

    def spy(self, m):
        calls.append([getattr(d, "name", "mutual") for d in m.decls])
        return orig(self, m)
    monkeypatch.setattr(Checker, "check_module", spy)
    return calls


def test_transform_appending_an_ill_typed_decl_is_rejected(monkeypatch,
                                                           capsys):
    fake_ford(monkeypatch, parse(corpus_text("vec.fda")
                                 + "\ndef bad : Nat => refl\n"))
    code, out, err = run(capsys, "ford", cp("vec.fda"), "--data", "Vec")
    assert code == 1 and out == ""
    assert err.startswith(f"error[E-TYPE] {cp('vec.fda')}:")


def test_transform_altering_a_shared_decl_is_rechecked_from_it(monkeypatch,
                                                               capsys):
    text = corpus_text("vec.forded.golden.fda")
    bad = text.replace("VecF.nil A zero refl", "VecF.nil A (suc zero) refl")
    assert bad != text
    fake_ford(monkeypatch, parse(bad))
    calls = rechecked(monkeypatch)
    code, _, err = run(capsys, "ford", cp("vec.forded.golden.fda"),
                       "--data", "Vec")
    assert code == 1 and "E-TYPE" in err
    assert calls[-1] == ["toVecF", "fromVecF"]


def test_transform_reusing_a_shared_ctor_name_still_clashes(monkeypatch,
                                                            capsys):
    # Vec and VecF both have `nil`: dropping VecF keeps Vec's `nil` taken
    nil = FunDecl("nil", (), DataRef("Nat"), body=CtorRef("Nat", "zero"))
    fake_ford(monkeypatch, SourceModule(load("vec.fda").decls + (nil,)))
    code, _, err = run(capsys, "ford", cp("vec.forded.golden.fda"),
                       "--data", "Vec")
    assert code == 1 and "E-NAME-CLASH" in err and "'nil'" in err


MERGE_BETWEEN = """\
data Bool
  | true
  | false

mutual
data D1
  | one
  | wrap (d : D2)
data D2
  | two (a : D1) (b : D2)
end

def id1 (d : D1) : D1 => d
"""


@pytest.mark.parametrize("source, argv, expected", [
    (corpus_text("vec.fda"), ["ford", "--data", "Vec"],
     ["VecF", "toVecF", "fromVecF"]),
    (corpus_text("d1d2.fda"), ["merge", "--types", "D1,D2"],
     ["U", "T", "D1", "D2"]),
    (MERGE_BETWEEN, ["merge", "--types", "D1,D2"],
     ["U", "T", "D1", "D2", "id1"]),
], ids=["ford-vec", "merge-d1d2", "merge-between"])
def test_transform_rechecks_only_the_changed_declarations(
        tmp_path, monkeypatch, capsys, source, argv, expected):
    path = tmp_path / "in.fda"
    path.write_text(source)
    calls = rechecked(monkeypatch)
    code, _, _ = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 0
    assert len(calls) == 2 and calls[1] == expected


def test_ford_leaves_the_forded_family_to_the_recheck(monkeypatch, capsys):
    checked = []
    orig = Checker.check_data

    def spy(self, d):
        checked.append(d.name)
        return orig(self, d)
    monkeypatch.setattr(Checker, "check_data", spy)
    code, _, _ = run(capsys, "ford", cp("vec.fda"), "--data", "Vec")
    assert code == 0 and checked == ["Nat", "Vec", "VecF"]


@pytest.mark.parametrize("source, argv, golden", [
    (corpus_text("vec.fda"), ["ford", "--data", "Vec"],
     "vec.forded.golden.fda"),
    (corpus_text("d1d2.fda"), ["merge", "--types", "D1,D2"],
     "d1d2.merged.golden.fda"),
    (MERGE_BETWEEN, ["merge", "--types", "D1,D2"], None),
], ids=["ford-vec", "merge-d1d2", "merge-between"])
def test_transform_lexes_only_the_changed_suffix_of_its_output(
        tmp_path, monkeypatch, capsys, source, argv, golden):
    # the input is lexed once; of the output, only the text from the first
    # declaration the transform changed is parsed back
    path = tmp_path / "in.fda"
    path.write_text(source)
    prelude_signature()  # lexes the prelude on first use
    lexed = []
    lex = fordc_parser.lex

    def spy(*args):
        toks = lex(*args)
        lexed.append(len(toks))
        return toks
    monkeypatch.setattr(fordc_parser, "lex", spy)
    code, out, _ = run(capsys, argv[0], str(path), *argv[1:])
    monkeypatch.undo()
    assert code == 0 and (golden is None or out == corpus_text(golden))
    written = parse(out).decls
    first_line = written[cli._shared_prefix(parse(source).decls,
                                            written)].loc[0]
    assert lexed == [len(lex(source)),
                     sum(t.line >= first_line for t in lex(out))]


NAT_PLUS = """\
data Nat
  | zero
  | suc (n : Nat)

def plus (m : Nat) (n : Nat) : Nat
  | zero n => n
  | (suc k) n => suc (plus k n)
"""


def test_merge_output_that_does_not_parse_back_is_not_written(tmp_path,
                                                              capsys):
    # `plus` still matches on `suc`, which the merge renames to `suc_T`, so
    # the changed suffix does not parse back. The span is a line of the
    # output, not of the 7-line input. Once merge rewrites later constructor
    # references (ROADMAP, "Merge that keeps downstream code checking"),
    # this merge is meant to succeed and this test must change with it.
    path, dest = tmp_path / "in.fda", tmp_path / "o.fda"
    path.write_text(NAT_PLUS)
    code, out, err = run(capsys, "merge", str(path), "--types", "Nat",
                         "--out", str(dest))
    assert code == 1 and out == ""
    assert err == (f"error[E-SCOPE] {path}:13:6: unknown constructor 'suc' "
                   "in pattern\n")
    assert not dest.exists()


def test_shared_prefix_stops_at_declarations_too_deep_to_compare():
    def deep():
        t = Var("x")
        for _ in range(5000):
            t = App(Var("f"), t)
        return (AxiomDecl("a", t),)
    shallow = (AxiomDecl("b", Var("x")),)
    assert cli._shared_prefix(shallow + deep(), shallow + deep()) == 1


@pytest.mark.parametrize("argv", [
    ["ford", cp("vec.fda"), "--data", "Nope"],
    ["merge", cp("vec.fda"), "--types", "Vec"],
    ["corpus", "no-such-manifest.txt"],
], ids=["ford", "merge", "corpus"])
def test_json_diagnostics_on_every_subcommand(capsys, argv):
    code, _, text_err = run(capsys, *argv)
    json_code, _, json_err = run(capsys, *argv, "--json")
    assert code == json_code != 0
    [line] = json_err.splitlines()
    rec = json.loads(line)
    diag = Diagnostic(rec["severity"], rec["code"], rec["message"],
                      rec["file"], rec["line"], rec["col"])
    assert diag.text() + "\n" == text_err


GROW = """
data Nat
  | zero
  | suc (n : Nat)

partial def grow (n : Nat) : Nat
  | n => suc (grow n)

def t : Id Nat (grow zero) zero
  => refl
"""

NESTED_LAMBDAS = ("def f : Type0 -> Type0 => " + "(\\x => " * 600 + "x"
                  + ")" * 600 + "\n")


@pytest.mark.parametrize("source", [GROW, NESTED_LAMBDAS],
                         ids=["grow", "nested-lambdas"])
@pytest.mark.parametrize("argv", [["check"], ["ford", "--data", "Nat"]],
                         ids=["check", "ford"])
def test_internal_error_has_its_own_exit_code(tmp_path, capsys, source,
                                              argv):
    mod = tmp_path / "deep.fda"
    mod.write_text(source)
    code, out, err = run(capsys, argv[0], str(mod), *argv[1:])
    assert code == cli.EXIT_INTERNAL == 6 and out == ""
    assert err.startswith(f"error[E-INTERNAL] {mod}: internal error: "
                          "RecursionError: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1
