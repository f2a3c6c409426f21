import json
import shutil
import sys

import pytest

from fordc.cli import main
from conftest import CORPUS, arith_theorem, numeral


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
