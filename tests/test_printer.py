import pytest

from fordc import parse, parse_term_text, prelude_signature, print_module, print_term
from conftest import CORPUS, FORCED_SLOT, NAT_BOOL, corpus_text


ALL_FDA = sorted(p.name for p in CORPUS.glob("*.fda"))


@pytest.mark.parametrize("name", ALL_FDA)
def test_print_parse_round_trip(name):
    m = parse(corpus_text(name))
    text = print_module(m)
    again = parse(text)
    # printing is injective up to alpha-renaming, so canonical text is a
    # fixed point of parse-then-print
    assert print_module(again) == text
    assert again == m  # corpus sources are canonical; names survive


@pytest.mark.parametrize("pat", ["(suc k)", ".(zero)"],
                         ids=["ctor", "inaccessible"])
def test_forced_slot_clauses_round_trip(pat):
    m = parse(NAT_BOOL + FORCED_SLOT.format(pat))
    text = print_module(m)
    assert f"(cons {pat} xs)" in text
    assert print_module(parse(text)) == text and parse(text) == m


def test_so_golden_byte_exact():
    m = parse(corpus_text("so.fda"))
    assert print_module(m) == corpus_text("so.golden.fda")


def test_print_is_deterministic():
    m = parse(corpus_text("vec.fda"))
    assert print_module(m) == print_module(m)


def test_pi_and_arrow_spellings():
    env = prelude_signature().name_env()
    t = parse_term_text("Pi (A : Type0) -> A -> A", env)
    assert print_term(t) == "Pi (A : Type0) -> A -> A"
    t2 = parse_term_text("(Type0 -> Type0) -> Type0", env)
    assert print_term(t2) == "(Type0 -> Type0) -> Type0"
    t3 = parse_term_text("\\x y => x", env, locals_=())
    assert print_term(t3) == "\\x y => x"


def test_qualification_only_when_ambiguous():
    src = """
data A
  | mk

data B
  | mk
  | wrap (x : A)

def f : A => A.mk
"""
    m = parse(src)
    out = print_module(m)
    assert "A.mk" in out
    assert parse(out) == m


def test_qualification_when_a_binder_takes_the_name():
    # a bare `zero` would read back as the variable in the binder's scope,
    # and only there
    src = """
data Nat
  | zero
  | suc (n : Nat)

def k : Nat -> Nat
  => \\zero => Nat.zero

def j (p : Id Nat Nat.zero Nat.zero) : Id Nat Nat.zero Nat.zero
  => J (\\zero q => Id Nat Nat.zero Nat.zero) refl p

def P : Type0
  => Pi (zero : Nat) -> Id Nat Nat.zero zero -> Nat
"""
    m = parse(src)
    out = print_module(m)
    assert "=> \\zero => Nat.zero\n" in out
    assert ("def j (p : Id Nat zero zero) : Id Nat zero zero\n"
            "  => J (\\zero q => Id Nat Nat.zero Nat.zero) refl p\n") in out
    assert "=> Pi (zero : Nat) -> Id Nat Nat.zero zero -> Nat\n" in out
    assert parse(out) == m


def test_empty_module_prints_empty():
    assert print_module(parse("")) == ""
