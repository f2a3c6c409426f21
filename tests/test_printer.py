import pytest

from fordc import parse, parse_term_text, prelude_signature, print_module, print_term
from fordc import printer, terms
from fordc.printer import APP, ATOM, decl_line
from fordc.terms import (App, CtorRef, DataRef, FunRef, IdType, Lam, Pi, Univ,
                         Var, mk_app)
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


# every kind of block, each followed by another: no corpus module has a
# declaration after a mutual block
EVERY_BLOCK = NAT_BOOL + """\
mutual
data Even
  | ev0
  | evS (o : Odd)
data Odd
  | odS (e : Even)
end

axiom ax : Nat

partial def loop (n : Nat) : Nat
  => loop n

def isZero (n : Nat) : Bool
  | zero => true
  | (suc k) => false
"""
TEXTS = {str(p.relative_to(CORPUS)): p.read_text(encoding="utf-8")
         for p in sorted(CORPUS.glob("**/*.fda"))} | {"every": EVERY_BLOCK}


@pytest.mark.parametrize("name", TEXTS)
def test_a_tail_print_is_the_whole_print_from_decl_line(name):
    # for every k: the text of declarations k on, qualified as in the whole
    # module, and the line on which the whole print starts declaration k
    m = parse(TEXTS[name])
    lines = print_module(m).splitlines(keepends=True)
    for k in range(len(m.decls)):
        n = decl_line(m, k)
        assert "".join(lines[n - 1:]) == print_module(m, k)
        assert k == 0 or lines[n - 2] == "\n"


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


# The explicit stack: each of these is deeper or longer than the default
# recursion limit (1000).

def test_a_ten_thousand_deep_numeral_prints():
    t = CtorRef("Nat", "zero")
    for _ in range(10_000):
        t = App(CtorRef("Nat", "suc"), t)
    assert print_term(t) == "suc (" * 9999 + "suc zero" + ")" * 9999


def test_a_spine_of_ten_thousand_arguments_prints():
    args = [Var(f"x{i}") for i in range(10_000)]
    t = mk_app(FunRef("f"), *args)
    assert print_term(t) == "f " + " ".join(a.name for a in args)
    assert print_term(t, ATOM) == "(f " + " ".join(a.name for a in args) + ")"


def test_five_thousand_nested_lambdas_print():
    t = Var("x0")
    for i in reversed(range(5_000)):
        t = Lam(f"x{i}", t)
    names = " ".join(f"x{i}" for i in range(5_000))
    assert print_term(t) == f"\\{names} => x0"


def test_application_precedence_and_qualification():
    f, x, y = FunRef("f"), Var("x"), Var("y")
    zero, suc = CtorRef("Nat", "zero"), CtorRef("Nat", "suc")
    assert print_term(x, ATOM) == "x"
    assert print_term(App(f, x), ATOM) == "(f x)"
    assert print_term(App(f, App(f, x))) == "f (f x)"
    assert print_term(App(App(f, x), y), APP) == "f x y"
    assert print_term(App(Lam("x", x), y)) == "(\\x => x) y"
    assert print_term(App(Pi("_", x, x), y)) == "(x -> x) y"
    assert print_term(App(suc, zero), qual=frozenset({"zero"})) == "suc Nat.zero"
    assert print_term(App(suc, zero), ATOM, frozenset({"suc"})) == "(Nat.suc zero)"
    assert print_term(zero, ATOM, frozenset({"zero"})) == "Nat.zero"
    # a binder that takes a constructor's name qualifies it in its scope only
    t = App(App(f, Lam("zero", zero)), zero)
    assert print_term(t) == "f (\\zero => Nat.zero) zero"


def test_a_pi_chain_mixing_dependent_runs_and_arrows_prints_as_before():
    env = prelude_signature().name_env()
    text = ("Pi (A : Type0) (x : A) -> (A -> A) -> Id A x x -> "
            "Pi (y : A) (z : A) -> Id A y z -> A")
    assert print_term(parse_term_text(text, env)) == text
    t = Pi("A", Univ(0), Pi("_", Var("A"), Pi("B", Univ(0), Var("B"))))
    assert print_term(t) == "Pi (A : Type0) -> A -> Pi (B : Type0) -> B"
    assert print_term(t, APP) == f"({print_term(t)})"


def test_printing_a_pi_chain_visits_each_node_a_bounded_number_of_times(
        monkeypatch):
    # (y_i : Nat) (p_i : Id Nat y_i y_i) for 200 values of i: 400 binders
    nat = DataRef("Nat")
    t = nat
    for i in reversed(range(200)):
        y = Var(f"y{i}")
        t = Pi(y.name, nat, Pi(f"p{i}", IdType(nat, y, y), t))
    calls = []
    real = terms.free_vars

    def spy(u):
        calls.append(u)
        return real(u)

    # the recursive calls inside `free_vars` count too
    monkeypatch.setattr(terms, "free_vars", spy)
    monkeypatch.setattr(printer, "free_vars", spy)
    text = print_term(t)
    assert text.startswith("Pi (y0 : Nat) -> Id Nat y0 y0 -> Pi (y1 : Nat)")
    assert len(calls) < 10 * 400
