import json
import os
import re
import shutil
import stat
import sys

import pytest

from fordc import (Checker, Clause, Diagnostic, FunDecl, PatVar, SourceModule,
                   parse)
from fordc import cli, prelude_signature
from fordc import parser as fordc_parser
from fordc.cli import main
from fordc.terms import CtorRef, DataRef
from fordc.node import replace
from conftest import (CORPUS, FORCED_SLOT, NAT_BOOL, arith_theorem,
                      corpus_text, cyclic_garbage, load, numeral)


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


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_new_out_file_mode_follows_the_umask(tmp_path, capsys, umask):
    out = tmp_path / "so.out.fda"
    old = os.umask(umask)
    try:
        code, _, _ = run(capsys, "ford", cp("so.fda"), "--data", "So",
                         "--out", str(out))
    finally:
        os.umask(old)
    assert code == 0 and stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


def test_overwritten_out_file_keeps_its_mode(tmp_path, capsys):
    out = tmp_path / "m.fda"
    out.write_text("old\n")
    out.chmod(0o604)
    code, _, _ = run(capsys, "merge", cp("d1d2.fda"), "--types", "D1,D2",
                     "--out", str(out))
    assert code == 0
    assert out.read_text() == (CORPUS / "d1d2.merged.golden.fda").read_text()
    assert stat.S_IMODE(out.stat().st_mode) == 0o604


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
    (NAT_BOOL + "data W : (n : Nat)\n  | w [zero]\n",
     ["merge", "--types", "W"], 5,
     "error[E-MERGE-BLOCK] {}:9:1: block member W is indexed; only plain "
     "datatypes can be merged"),
], ids=["merge", "ford", "merge-indexed"])
def test_transform_rejection_is_located_at_the_declaration(
        tmp_path, capsys, source, argv, exit_code, expected):
    path = tmp_path / "in.fda"
    path.write_text(source)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (exit_code, "")
    assert err == expected.format(path) + "\n"



@pytest.mark.parametrize("decls, expected", [
    ("data D\n  | c (x : Nat Nat)\n",
     "error[E-TYPE] {}:6:3: application head: expected ? -> ?, got Type0"),
    ("data P : (n : Nat)\n  | mk [.(suc Nat)]\n",
     "error[E-TYPE] {}:6:3: type mismatch: expected Nat, got Type0"),
    ("data I\n  | a\n  | b\n  | seg : Id Nat a b\n",
     "error[E-TYPE] {}:8:3: type mismatch: expected Nat, got I"),
    ("mutual\ndata A : (n : Nat)\n  | ma\ndata B : (n : Nat Nat)\n  | mb\n"
     "end\n",
     "error[E-TYPE] {}:8:1: application head: expected ? -> ?, got Type0"),
    ("partial def spinT (n : Nat) : Type0\n  | n => spinT n\n\n"
     "data D\n  | c (y : Nat) (x : Id (spinT zero) y y)\n",
     "error[E-STEP-BUDGET] {}:9:3: normalization exceeded the step budget "
     "of 100000"),
    ("partial def spin (n : Nat) : Nat\n  | n => spin n\n\n"
     "def f (n : Nat) : Id Nat (spin n) zero\n  | zero => refl\n"
     "  | (suc k) => refl\n",
     "error[E-STEP-BUDGET] {}:9:3: normalization exceeded the step budget "
     "of 100000"),
], ids=["ctor-arg", "row-inaccessible", "path-ctor", "mutual-header",
        "row-step-budget", "clause-step-budget"])
def test_error_inside_a_row_or_member_points_at_it(tmp_path, capsys, decls,
                                                   expected):
    path = tmp_path / "in.fda"
    path.write_text("data Nat\n  | zero\n  | suc (n : Nat)\n\n" + decls)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert err == expected.format(path) + "\n"


@pytest.mark.parametrize("decls, expected", [
    ("data P : (n : Nat)\n  | mk [true]\n",
     "error[E-TYPE] {}:10:3: constructor mk: pattern head true does not "
     "construct Nat"),
    ("data V : (n : Nat)\n  | vn [zero]\n\ndata Q : (v : V zero)\n"
     "  | mq [vn]\n",
     "error[E-TYPE] {}:13:3: constructor mq: availability patterns over the "
     "indexed datatype V are not supported"),
    ("data P : (n : Nat)\n  | mk [suc]\n",
     "error[E-ARITY] {}:10:3: constructor mk: pattern suc takes 1 arguments, "
     "given 0"),
    ("data E : (b : Bool) (p : Id Bool b b)\n  | me [true, refl]\n",
     "error[E-TYPE] {}:10:3: constructor me: refl is not supported in "
     "availability rows"),
    ("data P : (m : Nat) (n : Nat)\n  | mk [m, .(suc m)]\n\n"
     "def t : P zero (suc zero) => mk zero\n", None),
    ("def f (n : Nat) : Nat\n  | true => zero\n",
     "error[E-TYPE] {}:10:3: pattern Bool.true cannot match a scrutinee of "
     "type Nat"),
    ("def f (n : Nat) : Nat\n  | (suc) => zero\n",
     "error[E-ARITY] {}:10:3: pattern suc takes 1 arguments (row variables "
     "first), given 0"),
    ("def f (n : Nat) : Nat\n  | refl => zero\n",
     "error[E-TYPE] {}:10:3: refl pattern against non-identity type Nat"),
    (FORCED_SLOT.format("(suc k)"),
     "error[E-TYPE] {}:13:3: pattern suc k at a position forced to zero is "
     "not supported"),
    (FORCED_SLOT.format(".(zero)"), None),
    ("def x : Type1 => Type1\n",
     "error[E-UNIVERSE] {}:9:1: Type1 has no type in this theory"),
    ("def f : Nat => (\\x => x) zero\n",
     "error[E-TYPE] {}:9:1: cannot infer the type of a lambda; use it where "
     "a function type is expected"),
    ("def f : Nat => J (\\z q => Nat) zero refl\n",
     "error[E-TYPE] {}:9:1: cannot infer the type of refl; use it where an "
     "identity type is expected"),
    ("def f : Nat => J (\\z q => Nat) zero zero\n",
     "error[E-TYPE] {}:9:1: J target: expected Id ? ? ?, got Nat"),
    ("def f : Nat => \\x => x\n",
     "error[E-TYPE] {}:9:1: lambda: expected Nat, got ? -> ?"),
    ("def f (x : zero) : Nat => zero\n",
     "error[E-TYPE] {}:9:1: expected a type: expected Type0, got Nat"),
    ("def f (x : Nat) (x : Nat) : Nat => x\n",
     "error[E-NAME-CLASH] {}:9:1: def f: binder 'x' bound twice"),
    ("data S\n  | p : S\n",
     "error[E-TYPE] {}:10:3: path constructor p must target an identity type"),
    ("data D (A : Type0)\n  | c (A : Nat)\n",
     "error[E-NAME-CLASH] {}:10:3: constructor c: argument 'A' shadows an "
     "earlier binder"),
    ("def f (n : Nat) : Nat\n  | zero zero => zero\n",
     "error[E-ARITY] {}:10:3: def f: clause has 2 patterns but the function "
     "takes 1 arguments"),
], ids=["row-head", "row-indexed", "row-arity", "row-refl", "row-inaccessible",
        "clause-head", "clause-arity", "clause-refl", "forced-ctor",
        "forced-inaccessible", "type1", "infer-lambda", "infer-refl",
        "j-target", "lambda-not-a-function", "not-a-type", "binder-twice",
        "path-not-an-identity", "argument-shadows", "pattern-count"])
def test_checker_rejections_keep_their_text(tmp_path, capsys, decls,
                                            expected):
    path = tmp_path / "in.fda"
    path.write_text(NAT_BOOL + decls)
    code, out, err = run(capsys, "check", str(path))
    if expected is None:
        assert (code, err) == (0, "")
    else:
        assert (code, out, err) == (1, "", expected.format(path) + "\n")


PLUS = """\
def plus (m : Nat) (n : Nat) : Nat
  | zero n => n
  | (suc k) n => suc (plus k n)

"""


@pytest.mark.parametrize("decls, expected", [
    ("def c (n : Nat) : Nat\n  | _ => zero\n", None),
    ("def f (b : Bool) (g : Nat -> Nat) : Nat\n  | true g => zero\n",
     "error[E-COVERAGE] {}:9:1: def f: missing canonical case: false _"),
    (PLUS + "def f (n : Nat) (p : Id Nat (plus n zero) n) : Nat\n"
     "  | n refl => zero\n",
     "error[E-UNIFY-STUCK] {}:14:3: matching refl: unification stuck on "
     "neutral term plus n zero"),
    ("def g (p : Id Nat zero (suc zero)) : Nat\n  | refl => zero\n",
     "error[E-UNIFY-CLASH] {}:10:3: matching refl: constructor clash between "
     "zero and suc zero"),
    ("def isz (n : Nat) : Bool\n  | zero => true\n  | n => false\n", None),
    ("def f (a : Nat) (b : Bool) : Bool\n  | zero true => true\n"
     "  | n false => false\n",
     "error[E-COVERAGE] {}:9:1: def f: missing canonical case: suc _ true"),
    ("def half (n : Nat) : Nat\n  | zero => zero\n  | (suc zero) => zero\n"
     "  | (suc (suc k)) => suc (half k)\n", None),
    ("def app (g : Nat -> Nat) (x : Nat) : Nat => g x\n\n"
     "def f (n : Nat) : Nat\n  | zero => zero\n  | (suc k) => app f k\n",
     "error[E-TERMINATION] {}:11:1: def f: no argument position decreases "
     "structurally in every recursive call (mark the definition 'partial' "
     "to skip this check)"),
    ("data W\n  | leaf\n  | sup (f : Nat -> W)\n\n"
     "def size (w : W) : Nat\n  | leaf => zero\n"
     "  | (sup f) => suc (size (f zero))\n",
     "error[E-TERMINATION] {}:13:1: def size: no argument position decreases "
     "structurally in every recursive call (mark the definition 'partial' "
     "to skip this check)"),
], ids=["wildcard", "unsplittable-column", "refl-stuck", "refl-clash",
        "variable-row", "variable-row-missing", "nested-recursion",
        "unapplied-recursion", "function-typed-argument"])
def test_clause_and_split_branches_keep_their_text(tmp_path, capsys, decls,
                                                   expected):
    path = tmp_path / "in.fda"
    path.write_text(NAT_BOOL + decls)
    code, out, err = run(capsys, "check", str(path))
    if expected is None:
        assert (code, err) == (0, "")
    else:
        assert (code, out, err) == (1, "", expected.format(path) + "\n")


@pytest.mark.parametrize("decls, expected", [
    ("def k (n : Nat) : Id Nat n zero\n  | .(zero) => refl\n",
     "error[E-TYPE] {}:10:3: inaccessible pattern zero is at a position no "
     "other pattern forces"),
    ("def eqv (a : Nat) (b : Nat) : Id Nat a b\n  | k .(k) => refl\n",
     "error[E-TYPE] {}:10:3: inaccessible pattern k is at a position no other "
     "pattern forces"),
    ("data Box\n  | box (n : Nat)\n\ndef unbox (b : Box) : Nat\n"
     "  | (box .(zero)) => zero\n",
     "error[E-TYPE] {}:13:3: inaccessible pattern zero is at a position no "
     "other pattern forces"),
], ids=["argument", "alias", "ctor-argument"])
def test_an_unforced_inaccessible_pattern_is_rejected(tmp_path, capsys, decls,
                                                      expected):
    # taking the written term as a fact would let `k` prove n = zero for
    # every n
    path = tmp_path / "in.fda"
    path.write_text(NAT_BOOL + decls)
    assert run(capsys, "check", str(path)) == (1, "",
                                               expected.format(path) + "\n")


def test_no_closed_proof_of_empty_through_an_inaccessible_pattern(capsys):
    path = cp("soundness/unforced-inaccessible.fda")
    assert run(capsys, "check", path) == (
        1, "", f"error[E-TYPE] {path}:10:3: inaccessible pattern zero is at "
        "a position no other pattern forces\n")


def test_an_ill_typed_forced_inaccessible_pattern_is_rejected(capsys):
    path = cp("soundness/ill-typed-inaccessible.fda")
    assert run(capsys, "check", path) == (
        1, "", f"error[E-TYPE] {path}:20:3: type mismatch: expected Bool, "
        "got Nat\n")


def test_a_well_typed_forced_inaccessible_pattern_checks(tmp_path, capsys):
    # the probe above with `true`, a `Bool`, in place of `zero`
    path = tmp_path / "in.fda"
    path.write_text(corpus_text("soundness/ill-typed-inaccessible.fda")
                    .replace("const m zero", "const m true"))
    assert run(capsys, "check", str(path)) == (0, f"checked {path}\n", "")


@pytest.mark.parametrize("name, expected", [
    ("hit-disjoint-family", "E-COVERAGE] {}:15:1: def absurd: cannot decide "
     "coverage for F.onlyLeft: unification stuck on right"),
    ("hit-disjoint-id", "E-COVERAGE] {}:10:1: def absurd: cannot decide "
     "coverage of an identity type stuck on left"),
    ("k", "E-UNIFY-STUCK] {}:4:3: matching refl: unification stuck on "
     "neutral term x"),
    ("uip", "E-UNIFY-STUCK] {}:4:3: matching refl: unification stuck on "
     "neutral term x"),
    ("k-circle", "E-UNIFY-STUCK] {}:8:3: matching refl: unification stuck on "
     "neutral term base"),
    ("k2", "E-UNIFY-STUCK] {}:4:3: matching refl: unification stuck on "
     "neutral term refl"),
])
def test_matching_is_without_k_and_hit_constructors_do_not_clash(
        capsys, name, expected):
    path = cp(f"soundness/{name}.fda")
    assert run(capsys, "check", path) == (
        1, "", "error[" + expected.format(path) + "\n")


def test_point_constructors_without_a_path_still_clash(capsys):
    path = cp("soundness/disjoint-control.fda")
    assert run(capsys, "check", path) == (0, f"checked {path}\n", "")


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


def test_corpus_transform_cases_share_the_cli_path(tmp_path, capsys):
    mf = tmp_path / "manifest.txt"
    mf.write_text(f"ford-error {cp('vec.fda')} Vec\n"
                  f"merge-error {cp('d1d2.fda')} D1,D2\n"
                  f"ford {cp('bool.fda')} {cp('so.forded.golden.fda')} Bool\n"
                  f"ford {cp('so.fda')} {cp('vec.forded.golden.fda')} So\n"
                  f"merge {cp('bool.fda')} {cp('nat.merged.golden.fda')} Bool\n")
    code, out, _ = run(capsys, "corpus", str(mf))
    fails = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert code == 1 and out.endswith("0 passed, 5 failed\n")
    assert [f.split(": ", 1)[1] for f in fails] == [
        "expected the ford transform to be rejected",
        "expected the merge transform to be rejected",
        "ford failed: datatype Bool has no indices to ford",
        "forded module differs from golden",
        "merged module differs from golden"]


def test_corpus_names_the_reason_a_case_failed(tmp_path, capsys):
    mf = tmp_path / "manifest.txt"
    bad = tmp_path / "bad.fda"
    bad.write_text("data\n")
    mf.write_text(f"frob {cp('bool.fda')}\n"
                  f"check-error {cp('bool.fda')} E-TYPE\n"
                  f"check-error {cp('bad-split-so-stuck.fda')} E-TYPE\n"
                  f"parse {bad}\n"
                  f"golden {cp('so.fda')} {cp('vec.golden.fda')}\n"
                  f"check {tmp_path / 'missing.fda'}\n")
    code, out, _ = run(capsys, "corpus", str(mf))
    fails = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert code == 1 and out.endswith("0 passed, 6 failed\n")
    assert [f.split(": ", 1)[1] for f in fails] == [
        "unknown case kind 'frob'",
        "expected failure E-TYPE, module checked",
        "expected E-TYPE, got E-UNIFY-STUCK",
        "parse failed: expected datatype name, found 'end of input'",
        "printed text differs from golden",
        "[Errno 2] No such file or directory: "
        f"'{tmp_path / 'missing.fda'}'"]


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


def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys):
    plain, bom = cp("vec.fda"), tmp_path / "vec.fda"
    bom.write_bytes(b"\xef\xbb\xbf" + (CORPUS / "vec.fda").read_bytes())
    code, out, err = run(capsys, "check", plain)
    assert code == 0
    assert run(capsys, "check", str(bom)) == (
        code, out.replace(plain, str(bom)), err)
    outs = tmp_path / "plain.out.fda", tmp_path / "bom.out.fda"
    runs = [run(capsys, "ford", src, "--data", "Vec", "--out", str(dest))
            for src, dest in zip((plain, str(bom)), outs)]
    assert runs[0][0] == 0 and runs[0] == runs[1]
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert not outs[1].read_bytes().startswith(b"\xef\xbb\xbf")


def test_a_byte_order_mark_after_the_start_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bom.fda"
    bad.write_bytes(b"data Nat\n\xef\xbb\xbf  | zero\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert err == (f"error[E-PARSE] {bad}:2:1: unexpected character "
                   "'\\ufeff'\n")


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



def test_corpus_error_case_rechecks_the_transform_output(monkeypatch,
                                                         tmp_path, capsys):
    fake_ford(monkeypatch, parse(corpus_text("vec.fda")
                                 + "\ndef bad : Nat => refl\n"))
    mf = tmp_path / "manifest.txt"
    mf.write_text(f"ford-error {cp('vec.fda')} Vec\n")
    code, out, _ = run(capsys, "corpus", str(mf))
    assert code == 1 and out.endswith("0 passed, 1 failed\n")
    assert out.startswith(f"FAIL ford-error   {cp('vec.fda')}: ford failed: ")


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
    toks = lex(out)
    assert lexed == [len(lex(source)), sum(
        toks.position(i)[0] >= first_line for i in range(len(toks.kinds)))]


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


@pytest.mark.parametrize("name, kind, target", [
    ("vec.fda", "ford", "Vec"), ("d1d2.fda", "merge", ["D1", "D2"]),
    ("nat.fda", "merge", ["Nat"]),
], ids=["ford", "merge-block", "merge"])
def test_a_transform_keeps_the_shared_declarations_as_objects(name, kind,
                                                              target):
    # so `_shared_prefix` compares them by identity, and stops at a class
    # or name, however deep their terms are
    m = load(name)
    sig = cli.check_module(m)
    fn = cli.ford_module if kind == "ford" else cli.merge_block
    out, _ = fn(m, sig, target)
    k = cli._shared_prefix(m.decls, out.decls)
    assert all(a is b for a, b in zip(m.decls[:k], out.decls))
    if k < len(m.decls):
        a, b = m.decls[k], out.decls[k]
        assert type(a) is not type(b) or a.name != b.name


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


@pytest.mark.parametrize("argv", [["check"], ["ford", "--data", "Nat"]],
                         ids=["check", "ford"])
def test_unbounded_evaluation_runs_out_of_budget(tmp_path, capsys, argv):
    # `grow zero` unfolds under `suc` in a non-tail position, each unfolding
    # one frame deeper
    mod = tmp_path / "grow.fda"
    mod.write_text(GROW)
    code, out, err = run(capsys, argv[0], str(mod), *argv[1:])
    assert (code, out) == (1, "")
    assert err == (f"error[E-STEP-BUDGET] {mod}:9:1: normalization exceeded "
                   "the step budget of 100000\n")


def test_evaluation_ten_thousand_levels_deep_checks(capsys):
    # `down` leaves one `suc` pending per level of its 10,000-deep argument
    path = cp("deep/deep-eval.fda")
    assert run(capsys, "check", path) == (0, f"checked {path}\n", "")


@pytest.mark.parametrize("source", [NESTED_LAMBDAS], ids=["nested-lambdas"])
@pytest.mark.parametrize("argv", [["check"], ["ford", "--data", "Nat"]],
                         ids=["check", "ford"])
def test_internal_error_has_its_own_exit_code(tmp_path, capsys, source,
                                              argv):
    # nesting deeper than the parser's stack is a located E-DEPTH, not an
    # internal error; exit 6 is pinned by
    # test_any_unexpected_exception_is_an_internal_error
    mod = tmp_path / "deep.fda"
    mod.write_text(source)
    code, out, err = run(capsys, argv[0], str(mod), *argv[1:])
    assert code == cli.EXIT_PARSE == 2 and out == ""
    assert re.match(rf"error\[E-DEPTH\] {re.escape(str(mod))}:1:\d+: ", err)
    assert "Traceback" not in err and len(err.splitlines()) == 1


DEEP_SUC = ("data Nat\n  | zero\n  | suc (n : Nat)\n\ndef big : Nat => "
            + "suc (" * 10000 + "zero" + ")" * 10000 + "\n")
# the occurs check of the split on `c m` walks the 10,000-deep index
DEEP_INDEX = ("\n".join(corpus_text("deep/deep-eval.fda").splitlines()[:19])
              + "\n\ndata V : (n : Nat) | c [m]\n\ndef f (v : V (mult (mult "
              "ten ten) (mult ten ten))) : Nat | (c m) => zero\n")


@pytest.mark.parametrize("source, code, line", [
    (DEEP_SUC, 2, 5), (DEEP_INDEX, 1, 23),
], ids=["suc-literal", "occurs-check"])
def test_nesting_too_deep_is_a_located_depth_error(tmp_path, capsys, source,
                                                   code, line):
    # the parser's column depends on the Python version's stack depth
    mod = tmp_path / "deep.fda"
    mod.write_text(source)
    status, out, err = run(capsys, "check", str(mod))
    assert (status, out) == (code, "")
    assert re.fullmatch(rf"error\[E-DEPTH\] {re.escape(str(mod))}:{line}:"
                        r"\d+: [^\n]+\n", err)


def test_a_type_error_about_a_1200_binder_telescope_is_a_type_error(
        tmp_path, capsys):
    # (y_i : Nat) (p_i : Id Nat y_i y_i) for 600 values of i: reading the
    # type back for the message walks the whole chain's free variables
    binders = " ".join(f"(y{i} : Nat) (p{i} : Id Nat y{i} y{i})"
                       for i in range(600))
    mod = tmp_path / "tele.fda"
    mod.write_text("data Nat\n  | zero\n  | suc (n : Nat)\n\n"
                   f"def f {binders} : Nat => zero\n\ndef g : Nat => f\n")
    code, out, err = run(capsys, "check", str(mod))
    assert (code, out) == (1, "")
    assert err.startswith(
        f"error[E-TYPE] {mod}:7:1: type mismatch: expected Nat, got "
        "Pi (y0 : Nat) -> Id Nat y0 y0 -> Pi (y1 : Nat) -> ")
    assert err.endswith("Id Nat y599 y599 -> Nat\n")


def test_applying_a_1200_binder_telescope_is_a_type_error(tmp_path, capsys):
    # each argument substitutes into the rest of the chain, which mentions
    # `y0` down to its end
    binders = " ".join(f"(y{i} : Nat) (p{i} : Id Nat y{i} y{i})"
                       for i in range(600))
    mod = tmp_path / "tele.fda"
    mod.write_text("data Nat\n  | zero\n  | suc (n : Nat)\n\n"
                   f"def f {binders} : Id Nat y0 y0 => refl\n\n"
                   "def g : Nat => f zero refl\n")
    code, out, err = run(capsys, "check", str(mod))
    assert (code, out) == (1, "")
    assert err.startswith(
        f"error[E-TYPE] {mod}:7:1: type mismatch: expected Nat, got "
        "Pi (y1 : Nat) -> Id Nat y1 y1 -> Pi (y2 : Nat) -> ")
    assert err.endswith("Id Nat y599 y599 -> Id Nat zero zero\n")


def test_applying_a_telescope_walks_free_variables_in_linear_time(
        tmp_path, capsys, monkeypatch):
    # the file above at 600 and 1,200 pairs: no substituted term mentions a
    # binder of the chain, so no binder needs a walk of the rest of it
    from fordc import terms
    walks = {}

    def counted(t, real=terms.free_vars):
        walks[n] += 1
        return real(t)

    monkeypatch.setattr(terms, "free_vars", counted)
    for n in (600, 1200):
        binders = " ".join(f"(y{i} : Nat) (p{i} : Id Nat y{i} y{i})"
                           for i in range(n))
        mod = tmp_path / f"tele{n}.fda"
        mod.write_text("data Nat\n  | zero\n  | suc (n : Nat)\n\n"
                       f"def f {binders} : Id Nat y0 y0 => refl\n\n"
                       "def g : Nat => f zero refl\n")
        walks[n] = 0
        code, _, err = run(capsys, "check", str(mod))
        assert code == 1 and err.startswith(f"error[E-TYPE] {mod}:7:1: ")
    assert walks[1200] <= 2.5 * walks[600]


def test_readme_lists_exactly_the_codes_fordc_raises():
    root = CORPUS.parent
    raised = set(re.findall(r'"(E-[A-Z-]+)"', "".join(
        p.read_text() for p in (root / "src" / "fordc").glob("*.py"))))
    table = (root / "README.md").read_text().split(
        "### Diagnostic codes\n\n", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^\| (E-[A-Z-]+) \| \S", table, re.M)
    assert sorted(listed) == sorted(raised)


def test_out_naming_a_directory_is_an_io_error(tmp_path, capsys):
    dest = tmp_path / "dir"
    dest.mkdir()
    code, out, err = run(capsys, "ford", cp("vec.fda"), "--data", "Vec",
                         "--out", str(dest))
    assert (code, out) == (3, "")
    assert err.startswith(f"error[E-IO] {dest}: [Errno 21] Is a directory")
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert not any(dest.iterdir())


def _module(tmp_path, source):
    """A corpus file by name, or `source` written to a file."""
    if source.endswith(".fda"):
        return cp(source)
    path = tmp_path / "in.fda"
    path.write_text(source)
    return str(path)


# the first four names `merge` tries for the enumeration
ENUM_NAMES = "".join(f"data {n}\n  | {n.lower()}\n\n"
                     for n in ("U", "U1", "U2", "U3"))


@pytest.mark.parametrize("source, types, expected", [
    ("bool.fda", ",", "E-MERGE-BLOCK] {}: empty merge block"),
    (ENUM_NAMES, "U,U2",
     "E-MERGE-BLOCK] {}: block members must be contiguous declarations"),
], ids=["empty", "not-contiguous"])
def test_merge_block_rejections(tmp_path, capsys, source, types, expected):
    path = _module(tmp_path, source)
    code, out, err = run(capsys, "merge", path, "--types", types)
    assert (code, out, err) == (5, "", "error[" + expected.format(path) + "\n")


def test_merge_names_the_enumeration_past_every_taken_name(tmp_path, capsys):
    # `U` to `U3` are taken, so the enumeration is the next variant, `U4`
    path = _module(tmp_path, ENUM_NAMES + "data X\n  | x\n")
    code, out, err = run(capsys, "merge", path, "--types", "X")
    assert code == 0 and json.loads(err)["enum"] == "U4"
    assert "\ndata U4\n  | X_tag\n\ndata T : (u : U4)\n  | x_T [X_tag]\n" in out


NESTED = """\
data Nat
  | zero
  | suc (n : Nat)

data T : (n : Nat)
  | node [n] (f : Nat -> T n)
"""


@pytest.mark.parametrize("source, target, expected", [
    ("d1d2.fda", "D1", "{}:2:1: D1 belongs to a mutual block; fording mutual "
     "members is not supported"),
    (NESTED, "T", "{}: argument type Nat -> T n mentions T in a nested "
     "position; converter generation does not support this"),
], ids=["mutual-member", "nested-occurrence"])
def test_ford_target_rejections(tmp_path, capsys, source, target, expected):
    path = _module(tmp_path, source)
    code, out, err = run(capsys, "ford", path, "--data", target)
    assert (code, out) == (4, "")
    assert err == "error[E-FORD-TARGET] " + expected.format(path) + "\n"


@pytest.mark.parametrize("argv, where", [
    (["check"], "check_module"), (["ford", "--data", "Vec"], "ford_module"),
], ids=["check", "ford"])
def test_any_unexpected_exception_is_an_internal_error(monkeypatch, capsys,
                                                       argv, where):
    def boom(*args):
        raise ValueError("boom")
    monkeypatch.setattr(cli, where, boom)
    path = cp("vec.fda")
    assert run(capsys, argv[0], path, *argv[1:]) == (
        6, "", f"error[E-INTERNAL] {path}: internal error: ValueError: "
        "boom\n")


def _cycles_of(capsys, *argv) -> int:
    """The objects in reference cycles that one `main(argv)` leaves."""
    main(list(argv))  # first-use work stays out of the count
    n = cyclic_garbage(lambda: main(list(argv)))
    capsys.readouterr()
    return n


@pytest.mark.parametrize("argv", [
    ["check", cp("bad-split-so-stuck.fda")],
    ["ford", cp("bool.fda"), "--data", "Bool"],
    ["merge", cp("vec.fda"), "--types", "Vec"],
    ["check", "no-such-file.fda"],
], ids=["check", "ford", "merge", "missing"])
def test_a_failing_command_leaves_no_more_cycles_than_a_passing_one(capsys,
                                                                    argv):
    # argparse's own cycles are in both counts; the failure adds none
    assert _cycles_of(capsys, *argv) == _cycles_of(
        capsys, "check", cp("vec.fda"))


def test_out_errors_name_the_out_path_not_a_temporary_file(tmp_path,
                                                           capsys):
    dest = tmp_path / "dir"
    dest.mkdir()
    missing = tmp_path / "missing" / "out.fda"
    for out, reason in [(dest, "[Errno 21] Is a directory"),
                        (missing, "[Errno 2] No such file or directory")]:
        assert run(capsys, "ford", cp("vec.fda"), "--data", "Vec",
                   "--out", str(out)) == (
            3, "", f"error[E-IO] {out}: {reason}: {str(out)!r}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert not any(dest.iterdir())


def test_a_merge_without_path_takes_none_from_an_earlier_call(capsys):
    # one process, one argument parser: `--path` must not leak its list
    golden = (CORPUS / "int-point.merged.golden.fda").read_text()
    plain = golden.replace("  | path : Id U Int_tag Int_tag\n", "")
    for argv, text in [(["--path", "path:Int:Int"], golden), ([], plain),
                       (["--path", "path:Int:Int"], golden)]:
        code, out, report = run(capsys, "merge", cp("int-point.fda"),
                                "--types", "Int", *argv)
        assert code == 0 and out == text
        assert len(json.loads(report)["paths"]) == len(argv) // 2
