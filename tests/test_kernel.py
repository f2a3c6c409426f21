import random
import sys

import pytest

from fordc import (Checker, CoverageError, FordcError, PatVar, SourceModule,
                   StepBudgetExceeded, TypeCheckError, UnifyMismatch,
                   UnifyStuck, UnifySuccess, canonical_values, check_module,
                   convertible, normalize, parse, parse_term_text,
                   prelude_signature, print_term, unify_terms)
from fordc import cli, ford_module, kernel, print_module
from fordc.normalize import Normalizer
from fordc.signature import Signature
from fordc.terms import (REFL, App, AxiomRef, CtorRef, DataRef, IdType, JElim,
                         Lam, Pi, Var, alpha_eq, data_refs, mk_app)
from conftest import (CORPUS, NAT_BOOL, PLUS_MULT, corpus_text, load,
                      load_checked, mult_term, numeral, rename_locals)


def pt(sig, s, **kw):
    return parse_term_text(s, sig.name_env(), **kw)


# -- module checking -----------------------------------------------------------

def test_vec_module_accepted():
    load_checked("vec.fda")


def test_zu_module_accepted():
    _, sig = load_checked("zu.fda")
    assert "succ" in sig.funs and "pred" in sig.funs


def test_checking_a_module_twice_succeeds():
    m = load("vec.fda")
    first, second = check_module(m), check_module(m)
    assert first.all_names() == second.all_names()


def test_prelude_names_unchanged_by_checking():
    before = set(prelude_signature().all_names())
    assert before == {"subst", "idp", "sym", "trans"}
    sig = check_module(load("vec.fda"))
    assert {"Vec", "cons"} <= sig.all_names()
    assert prelude_signature().all_names() == before
    assert not prelude_signature().has_name("cons")


def test_a_checked_function_in_the_signature_is_read_only():
    # a signature copy shares the prelude's entries, so none may change
    trans = check_module(parse("")).funs["trans"]
    with pytest.raises(AttributeError):
        trans.clauses = ()
    (clause,) = prelude_signature().funs["trans"].clauses
    assert isinstance(clause.rhs, JElim)


def _checks(path) -> bool:
    try:
        check_module(parse(path.read_text(encoding="utf-8")))
    except FordcError:
        return False
    return True


CHECKED_CORPUS = [p.name for p in sorted(CORPUS.glob("*.fda")) if _checks(p)]


def _shape(sig):
    return ([*sig.datas], [*sig.funs], [*sig.axioms],
            {n: [*d.ctors] for n, d in sig.datas.items()}, sig.all_names())


@pytest.mark.parametrize("name", CHECKED_CORPUS)
def test_rewind_gives_the_signature_of_the_prefix(name):
    m = load(name)
    full = check_module(m)
    for k in range(len(m.decls) + 1):
        assert (_shape(full.rewind(m.decls[k:]))
                == _shape(check_module(SourceModule(m.decls[:k])))), k


def test_mutual_members_are_clash_checked():
    a = parse("data Nat\n  | zero\n  | suc (n : Nat)\n")
    b = parse("mutual\ndata Nat\n  | z2\nend\n")
    with pytest.raises(TypeCheckError) as ei:
        check_module(SourceModule(a.decls + b.decls))
    assert ei.value.code == "E-NAME-CLASH" and "'Nat'" in ei.value.message


def test_mutual_members_check_their_telescopes_once(monkeypatch):
    calls = []
    orig = Checker.check_telescope

    def spy(self, ctx, tele, what):
        calls.append(what)
        return orig(self, ctx, tele, what)
    monkeypatch.setattr(Checker, "check_telescope", spy)
    load_checked("d1d2.fda")
    assert calls.count("data D1 parameters") == 1


def test_check_module_extends_a_given_base_and_leaves_it_unchanged():
    m = load("vec.forded.golden.fda")
    base = check_module(SourceModule(m.decls[:2]))
    before = _shape(base)
    sig = check_module(SourceModule(m.decls[2:]), base=base)
    assert _shape(base) == before
    assert _shape(sig) == _shape(check_module(m))


def test_availability_arity_violation():
    src = """
data Bool
  | true
  | false

data So : (b : Bool)
  | oh [true, true]
"""
    with pytest.raises(TypeCheckError) as ei:
        check_module(parse(src))
    assert ei.value.code == "E-ARITY"


def test_overlapping_and_redundant_rows_accepted():
    load_checked("over.fda")


def test_self_reference_in_header_rejected():
    with pytest.raises(TypeCheckError):
        check_module(parse("data D (x : D)\n  | mk"))


def test_negative_occurrence_rejected():
    src = """
data Bad
  | mk (f : Bad -> Bad)
"""
    with pytest.raises(TypeCheckError) as ei:
        check_module(parse(src))
    assert ei.value.code == "E-POSITIVITY"


def test_inductive_inductive_mutual_rejected():
    src = """
mutual
data Ctx
  | nil
data Ty : (c : Ctx)
  | unit [nil]
end
"""
    with pytest.raises(TypeCheckError) as ei:
        check_module(parse(src))
    assert "inductive-inductive" in ei.value.message


# -- normalization -------------------------------------------------------------

def test_subst_along_idp_computes():
    _, sig = load_checked("zu.fda")
    t = pt(sig, "subst U PreInt T T (idp U T) zero")
    assert alpha_eq(normalize(sig, t), pt(sig, "zero"))


def test_beta():
    _, sig = load_checked("bool.fda")
    t = mk_app(Lam("x", Var("x")), pt(sig, "true"))
    assert normalize(sig, t) == pt(sig, "true")


def test_j_on_path_axiom_is_stuck():
    _, sig = load_checked("zu.fda")
    t = pt(sig, "J (\\z q => PreInt z) zero path")
    n = normalize(sig, t)
    assert isinstance(n, JElim)
    assert n.path == CtorRef("U", "path")


def test_j_computes_on_refl():
    _, sig = load_checked("zu.fda")
    t = pt(sig, "J (\\z q => PreInt z) zero (idp U T)")
    assert alpha_eq(normalize(sig, t), pt(sig, "zero"))


J_NAMED_MOTIVE = """
data Nat
  | zero
  | suc (n : Nat)

def Mot {} : Type0 => Nat

def t (y : Nat) (p : Id Nat zero y) : Mot {} => J Mot zero p
"""


def test_j_with_a_named_motive():
    check_module(parse(J_NAMED_MOTIVE.format(
        "(z : Nat) (q : Id Nat zero z)", "y p")))


def test_j_with_a_one_argument_named_motive_rejected():
    with pytest.raises(TypeCheckError) as ei:
        check_module(parse(J_NAMED_MOTIVE.format("(z : Nat)", "y")))
    assert ei.value.code == "E-TYPE"
    assert ei.value.message == (
        "J motive has type Nat -> Type0, expected a two-argument family over "
        "Nat and an identity type")


J_MOTIVE = NAT_BOOL + """\
def M {} => {}

def t (y : Nat) (p : Id Nat zero y) : Nat => J M zero p
"""


@pytest.mark.parametrize("binders, body, shown", [
    ("(z : Bool) (q : Id Bool true z) : Type0", "Nat",
     "Pi (z : Bool) -> Id Bool true z -> Type0"),
    ("(z : Nat) (q : Id Nat (suc zero) z) : Type0", "Nat",
     "Pi (z : Nat) -> Id Nat (suc zero) z -> Type0"),
    ("(z : Nat) (q : Id Nat zero zero) : Type0", "Nat",
     "Nat -> Id Nat zero zero -> Type0"),
    ("(z : Nat) (q : Id Nat zero z) : Nat", "zero",
     "Pi (z : Nat) -> Id Nat zero z -> Nat"),
], ids=["carrier", "left-end", "right-end", "universe"])
def test_a_named_motive_wrong_in_one_part_is_rejected(binders, body, shown):
    # the family over `Nat` and `Id Nat zero z` is a motive; each rejected
    # one is a well-typed two-argument function that differs from it in one
    # part: the carrier (in both places), an end, or the universe
    check_module(parse(J_MOTIVE.format("(z : Nat) (q : Id Nat zero z) : Type0",
                                       "Nat")))
    with pytest.raises(TypeCheckError) as ei:
        check_module(parse(J_MOTIVE.format(binders, body)))
    assert ei.value.code == "E-TYPE"
    assert ei.value.message == (
        f"J motive has type {shown}, expected a two-argument family over "
        "Nat and an identity type")


def test_a_named_motive_over_another_carrier_with_the_same_ends_is_rejected():
    # both ends are `refl`, so only the carrier check tells the identity
    # types of `Bool` from those of `Nat`
    src = NAT_BOOL + """\
def M (z : Id Bool true true) (q : Id (Id Bool true true) refl z) : Type0 => Nat

def t (y : Id Nat zero zero) (p : Id (Id Nat zero zero) refl y) : Nat =>
  J M zero p
"""
    with pytest.raises(TypeCheckError) as ei:
        check_module(parse(src))
    assert ei.value.code == "E-TYPE"
    assert ei.value.message == (
        "J motive has type Pi (z : Id Bool true true) -> Id (Id Bool true "
        "true) refl z -> Type0, expected a two-argument family over Id Nat "
        "zero zero and an identity type")


def test_normalization_idempotent_on_function_bodies():
    for name in ["zu.fda", "vec.fda", "helix.fda"]:
        _, sig = load_checked(name)
        for f in sig.funs.values():
            for clause in f.clauses:
                once = normalize(sig, clause.rhs)
                assert alpha_eq(normalize(sig, once), once)


def test_step_budget_exceeded():
    src = """
data Nat
  | zero
  | suc (n : Nat)

partial def spin (n : Nat) : Nat
  | n => spin n
"""
    m = parse(src)
    sig = check_module(m)
    with pytest.raises(StepBudgetExceeded):
        normalize(sig, pt(sig, "spin zero"), step_budget=1000)


def unary_value(t):
    """The number a normal `suc (... zero)` term denotes, walked without
    recursion."""
    k = 0
    while isinstance(t, App) and t.fn == CtorRef("Nat", "suc"):
        k, t = k + 1, t.arg
    assert t == CtorRef("Nat", "zero")
    return k


def test_mult_steps_counted_per_normalize():
    sig = check_module(parse(PLUS_MULT))
    nrm = Normalizer(sig)
    n = nrm.normalize(pt(sig, mult_term(20, 20)))
    assert nrm.steps == 441  # 21 mult clauses, 20 plus calls of 21 each
    assert unary_value(n) == 400


HALF = PLUS_MULT + """
partial def half (n : Nat) : Nat
  | zero => zero
  | (suc zero) => zero
  | (suc (suc k)) => suc (half k)
"""


@pytest.mark.parametrize("term, steps, normal", [
    (mult_term(3, 4), 19, numeral(12)),
    ("plus ((\\x => suc x) (suc zero)) ((\\y => plus y y) (suc zero))", 7,
     numeral(4)),
    ("J (\\z q => Nat -> Nat -> Nat) (\\m n => plus m n) refl (suc zero) zero",
     5, "suc zero"),
    ("half (suc (suc (suc x)))", 1, "suc (half (suc x))"),
], ids=["mult", "beta-in-spine", "j-refl-applied", "partial-stuck"])
def test_normalize_spends_a_pinned_number_of_steps(term, steps, normal):
    sig = check_module(parse(HALF))
    nrm = Normalizer(sig)
    n = nrm.normalize(pt(sig, term, locals_=("x",)))
    assert (nrm.steps, n) == (steps, pt(sig, normal, locals_=("x",)))


def test_a_pinned_step_count_is_the_exact_budget(tmp_path, capsys):
    mod = tmp_path / "steps.fda"
    mod.write_text(PLUS_MULT + f"\ndef t : Id Nat ({mult_term(3, 4)}) "
                               f"({numeral(12)}) => refl\n")
    assert cli.main(["check", str(mod), "--step-budget", "19"]) == 0
    assert cli.main(["check", str(mod), "--step-budget", "18"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error[E-STEP-BUDGET] {mod}:13:1: ")


def test_deep_normal_form_reads_back_without_recursion_error():
    sig = check_module(parse(PLUS_MULT))
    assert unary_value(normalize(sig, pt(sig, mult_term(30, 30)))) == 900


def test_each_side_of_a_conversion_has_its_own_budget():
    sig = check_module(parse(PLUS_MULT))
    lhs, rhs = pt(sig, mult_term(20, 20)), pt(sig, mult_term(20, 20))
    assert Normalizer(sig, 441).convertible(lhs, rhs)  # 882 steps in all
    with pytest.raises(StepBudgetExceeded):
        Normalizer(sig, 440).convertible(lhs, rhs)


def test_no_eta_conversion():
    src = """
data Nat
  | zero
  | suc (n : Nat)

axiom f : Nat -> Nat
"""
    sig = check_module(parse(src))
    eta = Lam("x", App(AxiomRef("f"), Var("x")))
    assert not convertible(sig, eta, AxiomRef("f"))
    assert not convertible(sig, AxiomRef("f"), eta)
    assert convertible(sig, eta, Lam("y", App(AxiomRef("f"), Var("y"))))


# -- applying a function-typed variable: a closure, a partial call, a stuck J

APP = PLUS_MULT + """
def app (f : Nat -> Nat) (x : Nat) : Nat => f x
"""

STUCK_J = "J (\\z q => Nat -> Nat) (\\n => {}) p"


def refl_proves(lhs: str, rhs: str, binders: str = ""):
    check_module(parse(APP + f"\ndef t {binders}: Id Nat ({lhs}) ({rhs})"
                             " => refl\n"))


def test_applied_variable_bound_to_a_closure_reduces():
    refl_proves("app (\\x => suc x) zero", "suc zero")


def test_applied_variable_bound_to_a_partial_call_fires_it():
    refl_proves("app (plus (suc zero)) zero", "suc zero")


def test_applied_variable_bound_to_a_stuck_j_extends_its_spine():
    binders = "(y : Nat) (p : Id Nat zero y) "
    lhs = f"app ({STUCK_J.format('n')}) zero"
    refl_proves(lhs, f"{STUCK_J.format('n')} zero", binders)
    with pytest.raises(TypeCheckError) as ei:
        refl_proves(lhs, f"{STUCK_J.format('suc n')} zero", binders)
    assert ei.value.code == "E-TYPE"
    assert ei.value.message == (
        "refl endpoints differ: expected J (\\z q => Nat -> Nat) (\\n => n) "
        "p zero, got J (\\z q => Nat -> Nat) (\\n => suc n) p zero")


# -- convertibility --------------------------------------------------------------

def test_subst_commutes_with_composition_at_refl():
    _, sig = load_checked("zu.fda")
    lhs = pt(sig, "subst U PreInt T T (trans U T T T (idp U T) (idp U T)) zero")
    rhs = pt(sig, "subst U PreInt T T (idp U T) (subst U PreInt T T (idp U T) zero)")
    assert convertible(sig, lhs, rhs)


def test_distinct_constructors_not_convertible():
    _, sig = load_checked("bool.fda")
    assert not convertible(sig, pt(sig, "true"), pt(sig, "false"))


def test_succ_pred_do_not_compute_axiomatically():
    _, sig = load_checked("zu.fda")
    assert not convertible(sig, pt(sig, "succ (pred zero)"), pt(sig, "zero"))


# -- index unification -----------------------------------------------------------

def unify(sig, pairs, flex_row=(), flex_ctx=()):
    """Unify (index value, row term) pairs, the way a split does."""
    return unify_terms(sig, Normalizer(sig), pairs, set(flex_row),
                       set(flex_ctx))


def test_unify_exact_constructor_row():
    _, sig = load_checked("so.fda")
    res = unify(sig, [(pt(sig, "true"), pt(sig, "true"))])
    assert isinstance(res, UnifySuccess) and res.subst == {}


def test_unify_stuck_on_neutral_call():
    _, sig = load_checked("so-forded-delay.fda")
    stuck = pt(sig, "isEmpty xs", locals_=("xs",))
    res = unify(sig, [(stuck, pt(sig, "true"))])
    assert isinstance(res, UnifyStuck)
    assert print_term(res.blocker) == "isEmpty xs"


def test_unify_constructor_clash():
    _, sig = load_checked("nat.fda")
    res = unify(sig, [(pt(sig, "zero"), pt(sig, "suc n", locals_=("n",)))],
                flex_row={"n"})
    assert isinstance(res, UnifyMismatch)


def test_unify_variable_solves_toward_row():
    _, sig = load_checked("nat.fda")
    res = unify(sig, [(Var("k"), Var("n"))], flex_row={"n"}, flex_ctx={"k"})
    assert isinstance(res, UnifySuccess)
    assert res.subst == {"n": Var("k")}


def test_unify_success_substitution_is_sound():
    _, sig = load_checked("nat.fda")
    expected = pt(sig, "suc (suc zero)")
    res = unify(sig, [(expected, pt(sig, "suc n", locals_=("n",)))],
                flex_row={"n"})
    assert isinstance(res, UnifySuccess)
    assert convertible(sig, res.subst["n"], pt(sig, "suc zero"))


@pytest.fixture(scope="module")
def nat_f():
    """`Nat` plus an axiom `f : Nat -> Nat`, whose calls never compute."""
    return check_module(parse(corpus_text("nat.fda")
                              + "\naxiom f : Nat -> Nat\n"))


@pytest.mark.parametrize("x_left", [True, False])
def test_unify_occurs_check_is_stuck(nat_f, x_left):
    x, sx = Var("x"), pt(nat_f, "suc x", locals_=("x",))
    res = unify(nat_f, [(x, sx) if x_left else (sx, x)], flex_ctx={"x"})
    assert isinstance(res, UnifyStuck)
    assert print_term(res.blocker) == "suc x"


def test_unify_composes_solutions(nat_f):
    res = unify(nat_f, [(Var("x"), pt(nat_f, "suc y", locals_=("y",))),
                        (Var("y"), pt(nat_f, "zero"))], flex_ctx={"x", "y"})
    assert isinstance(res, UnifySuccess)
    assert res.subst == {"x": pt(nat_f, "suc zero"), "y": pt(nat_f, "zero")}


@pytest.mark.parametrize("refl_left", [True, False])
def test_unify_refl_clashes_with_a_constructor(nat_f, refl_left):
    pair = (REFL, pt(nat_f, "zero"))
    pair = pair if refl_left else pair[::-1]
    res = unify(nat_f, [pair])
    assert isinstance(res, UnifyMismatch)
    assert (res.lhs, res.rhs) == pair


@pytest.mark.parametrize("call_left", [True, False])
def test_unify_stuck_on_an_axiom_call_on_either_side(nat_f, call_left):
    pair = (pt(nat_f, "f zero"), pt(nat_f, "zero"))
    res = unify(nat_f, [pair if call_left else pair[::-1]])
    assert isinstance(res, UnifyStuck)
    assert print_term(res.blocker) == "f zero"


def test_unify_refl_with_refl(nat_f):
    # deleting `refl ≐ refl` would be K one level up
    res = unify(nat_f, [(REFL, REFL)])
    assert isinstance(res, UnifyStuck) and res.blocker == REFL


def test_split_clash_names_the_freshened_row_variable():
    m = parse(corpus_text("vec.fda")
              + "\ndef headZ (A : Type0) (v : Vec A zero) : A\n"
                "  | A (cons _ x xs) => x\n")
    with pytest.raises(TypeCheckError) as ei:
        check_module(m)
    assert ei.value.message == ("splitting Vec A zero with cons: constructor "
                                "clash between zero and suc %m")


def test_data_refs_of_a_deep_application():
    t = DataRef("Nat")
    for i in range(10_000):
        t = App(DataRef(f"D{i % 3}"), t)
    assert data_refs(t) == {"Nat", "D0", "D1", "D2"}


# -- clause checking ----------------------------------------------------------------

def test_eager_rewrite_split_accepted_and_computes():
    _, sig = load_checked("rewrite-so.fda")
    r = normalize(sig, pt(sig, "soTrue true oh"))
    assert r == CtorRef("Bool", "true")


def test_delayed_rewrite_split_accepted():
    load_checked("so-forded-delay.fda")


def test_stuck_split_rejected_with_evidence():
    from conftest import corpus_text
    with pytest.raises(TypeCheckError) as ei:
        check_module(parse(corpus_text("bad-split-so-stuck.fda")))
    assert ei.value.code == "E-UNIFY-STUCK"
    assert "isEmpty" in ei.value.message


def test_impossible_constructor_pattern_rejected():
    src = """
data Nat
  | zero
  | suc (n : Nat)

data Vec (A : Type0) : (n : Nat)
  | nil [zero]
  | cons [suc m] (x : A) (xs : Vec A m)

def f (A : Type0) (v : Vec A zero) : Nat
  | A (cons m x xs) => zero
"""
    with pytest.raises(TypeCheckError) as ei:
        check_module(parse(src))
    assert ei.value.code == "E-UNIFY-CLASH"


def test_missing_case_reported():
    src = """
data Nat
  | zero
  | suc (n : Nat)

def f (n : Nat) : Nat
  | zero => zero
"""
    with pytest.raises(CoverageError) as ei:
        check_module(parse(src))
    assert "suc" in ei.value.message


def test_termination_check_and_escape_hatch():
    base = """
data Nat
  | zero
  | suc (n : Nat)

{DEF} def spin (n : Nat) : Nat
  | n => spin n
"""
    with pytest.raises(TypeCheckError) as ei:
        check_module(parse(base.replace("{DEF} ", "")))
    assert ei.value.code == "E-TERMINATION"
    check_module(parse(base.replace("{DEF}", "partial")))


@pytest.mark.parametrize("src, code, loc, message", [
    # a lambda binder named like a variable in scope is renamed, so `p`'s
    # `n` is not taken for the lambda's
    ("def f (n : Nat) (p : Id Nat n zero) : Pi (m : Nat) -> Id Nat m zero\n"
     "  => \\n => p\n", "E-TYPE", (9, 1),
     "type mismatch: expected Id Nat n1 zero, got Id Nat n zero"),
    ("def f (n : Nat) : Nat\n  | true => zero\n", "E-TYPE", (10, 3),
     "pattern Bool.true cannot match a scrutinee of type Nat"),
    ("def f (A : Type0) : Nat\n  | zero => zero\n", "E-TYPE", (10, 3),
     "pattern Nat.zero cannot match a scrutinee of type Type0"),
    ("data D : (n : Nat)\n  | c [true]\n", "E-TYPE", (10, 3),
     "constructor c: pattern head true does not construct Nat"),
    ("data D : (A : Type0)\n  | c [zero]\n", "E-TYPE", (10, 3),
     "constructor c: pattern head zero does not construct Type0"),
    # no clause, and the one case of the column is stuck
    ("data D : (n : Nat)\n  | b [zero]\n\naxiom c : Nat\n\n"
     "def f (v : D c) : Nat\n", "E-COVERAGE", (14, 1),
     "def f: cannot decide coverage for D.b: unification stuck on c"),
    # `f n` passes no second argument, so that position does not decrease
    ("def apply (h : Nat -> Nat) (n : Nat) : Nat => h n\n\n"
     "def f (n : Nat) (m : Nat) : Nat\n  | n zero => zero\n"
     "  | n (suc k) => apply (f n) k\n", "E-TERMINATION", (11, 1),
     "def f: no argument position decreases structurally in every "
     "recursive call (mark the definition 'partial' to skip this check)"),
], ids=["shadowing-lambda", "other-datatype-pattern", "non-datatype-pattern",
        "other-datatype-row", "non-datatype-row", "stuck-empty-column",
        "partial-recursive-call"])
def test_a_rejection_keeps_its_code_location_and_text(src, code, loc,
                                                      message):
    with pytest.raises(FordcError) as ei:
        check_module(parse(NAT_BOOL + src))
    assert (ei.value.code, ei.value.loc, ei.value.message) == (
        code, loc, message)


def test_inaccessible_pattern_accepted():
    src = """
data Nat
  | zero
  | suc (n : Nat)

data Vec (A : Type0) : (n : Nat)
  | nil [zero]
  | cons [suc m] (x : A) (xs : Vec A m)

def headDepth (A : Type0) (n : Nat) (v : Vec A n) : Nat
  | A .(zero) nil => zero
  | A .(suc m) (cons m x xs) => suc m
"""
    m = parse(src)
    sig = check_module(m)
    r = normalize(sig, pt(sig, "headDepth Nat (suc zero) "
                               "(cons Nat zero zero (nil Nat))"))
    assert alpha_eq(r, pt(sig, "suc zero"))


def test_wrong_inaccessible_value_rejected():
    src = """
data Nat
  | zero
  | suc (n : Nat)

data Vec (A : Type0) : (n : Nat)
  | nil [zero]
  | cons [suc m] (x : A) (xs : Vec A m)

def f (A : Type0) (n : Nat) (v : Vec A n) : Nat
  | A .(suc zero) nil => zero
  | A n (cons m x xs) => suc m
"""
    with pytest.raises(TypeCheckError):
        check_module(parse(src))


def test_an_inaccessible_pattern_forced_by_a_later_pattern_checks():
    # `cons n x xs` names its row variable `n`, and unification solves it
    # as the placeholder `.(n)` stands for, so that placeholder is forced
    sig = check_module(parse(corpus_text("vec.fda") + """
def hd (A : Type0) (n : Nat) (v : Vec A (suc n)) : A
  | A .(n) (cons n x xs) => x

def pred (A : Type0) (n : Nat) (v : Vec A (suc n)) : Nat
  | A .(n) (cons n x xs) => n

def len (A : Type0) (n : Nat) (v : Vec A n) : Nat
  | A .(zero) nil => zero
  | A .(suc m) (cons m x xs) => suc (len A m xs)
"""))
    v = "(cons Nat (suc zero) zero (cons Nat zero (suc zero) (nil Nat)))"
    assert alpha_eq(normalize(sig, pt(sig, f"hd Nat (suc zero) {v}")),
                    CtorRef("Nat", "zero"))
    assert alpha_eq(normalize(sig, pt(sig, f"pred Nat (suc zero) {v}")),
                    pt(sig, "suc zero"))
    assert alpha_eq(normalize(sig, pt(sig, f"len Nat (suc (suc zero)) {v}")),
                    pt(sig, "suc (suc zero)"))


def test_refl_clause_rewrites_endpoint():
    src = """
data Bool
  | true
  | false

def onDiag (b : Bool) (p : Id Bool true b) : Bool
  | b refl => b
"""
    m = parse(src)
    sig = check_module(m)
    r = normalize(sig, pt(sig, "onDiag true refl"))
    assert r == CtorRef("Bool", "true")


def test_type1_is_not_first_class():
    with pytest.raises(TypeCheckError) as ei:
        check_module(parse("axiom bad : Id Type1 Type0 Type0"))
    assert ei.value.code == "E-UNIVERSE"
    check_module(parse("axiom fine : Pi (A : Type0) -> Id Type0 A A"))


def test_normalize_preserves_type_empirically():
    _, sig = load_checked("zu.fda")
    ck = Checker(sig)
    t = pt(sig, "succ (pred zero)")
    ty = ck.infer({}, t)
    n = normalize(sig, t)
    ty2 = ck.infer({}, n)
    assert convertible(sig, ty, ty2)


def test_subject_reduction_on_corpus_bodies():
    # a normalized body still checks at the declared return type
    for name in ["zu.fda", "helix.fda", "zu-merged.fda"]:
        _, sig = load_checked(name)
        ck = Checker(sig)
        for f in sig.funs.values():
            ctx = {b.name: b.type for b in f.binders}
            body = f.clauses[0].rhs if f.clauses else None
            if body is None or any(not isinstance(p, PatVar)
                                   for p in f.clauses[0].pats):
                continue
            ck.check(ctx, body, f.ret)
            ck.check(ctx, normalize(sig, body), f.ret)


# -- coverage: one split for constructors and refl -----------------------------

NAT = """
data Nat
  | zero
  | suc (n : Nat)
"""

LEN = corpus_text("vec.fda") + """
def len (A : Type0) (n : Nat) (v : Vec A n) : Nat
  | A zero nil => zero
"""


def coverage_message(src: str) -> str:
    with pytest.raises(CoverageError) as ei:
        check_module(parse(src))
    return ei.value.message


def test_coverage_instantiates_the_split_variable():
    # splitting n to zero makes the later column `Vec A zero`, so only nil
    # is left to cover there
    check_module(parse(LEN + "  | A (suc m) (cons m1 x xs) => suc (len A m xs)\n"))
    check_module(parse(NAT + """
data Bool
  | true
  | false

def f (x : Bool) (p : Id Bool x true) : Nat
  | true refl => zero
"""))


def test_coverage_reports_the_case_left_after_instantiation():
    assert coverage_message(LEN) == "def len: missing canonical case: _ suc _ _"


def test_coverage_stuck_on_an_axiom_index_names_the_constructor():
    assert coverage_message(NAT + """
data D : (n : Nat)
  | a [k]
  | b [zero]

axiom c : Nat

def f (v : D c) : Nat
  | (a k) => zero
""") == "def f: cannot decide coverage for D.b: unification stuck on c"


def test_uninhabited_columns_are_covered_vacuously():
    check_module(parse(NAT + """
data D : (n : Nat)
  | b [zero]

def f (v : D (suc zero)) : Nat

def g (p : Id Nat zero (suc zero)) : Nat
"""))
    assert coverage_message(NAT + "\ndef h (p : Id Nat zero zero) : Nat\n"
                            ) == "def h: missing canonical case: _"


# one family of each shape the `wide` benchmark draws, and its splitting
# function with one clause per constructor
WIDE = NAT + """
data W : (n : Nat)
  | w0 [zero]
  | w1 [suc m] (x : W m)
  | w2 [suc m] (y : Nat)
  | w3 [suc (suc m)] (x : W m)
  | w4 [k] (x : W k)

def f (n : Nat) (v : W n) : Nat
"""
WIDE_CLAUSES = ["  | n w0 => zero\n", "  | n (w1 m x) => suc (f m x)\n",
                "  | n (w2 m y) => y\n",
                "  | n (w3 m x) => suc (suc (f m x))\n",
                "  | n (w4 k x) => f k x\n"]


def opened_cases(monkeypatch, src: str) -> list[tuple[str, str | None]]:
    """(caller, constructor name, None for refl) of each `open_case` call
    that checking `src` makes."""
    opened = []
    open_case = kernel.open_case

    def spy(sig, nrm, tyn, c, *args, **kw):
        opened.append((sys._getframe(1).f_code.co_name, c and c.name))
        return open_case(sig, nrm, tyn, c, *args, **kw)

    monkeypatch.setattr(kernel, "open_case", spy)
    check_module(parse(src))
    monkeypatch.undo()
    return opened


def test_coverage_takes_the_cases_clause_elaboration_opened(monkeypatch):
    callers = [caller for caller, _ in
               opened_cases(monkeypatch, WIDE + "".join(WIDE_CLAUSES))]
    assert callers == ["_elab_ctor"] * len(WIDE_CLAUSES)


# a family `G` of `n` constructors, each of one of the rows the `transform`
# benchmark draws, which `forded_g` fords into `GF`, `toGF` and `fromGF`
G_ROWS = ["[zero]", "[suc zero]", "[suc m] (x : G m)", "[suc m] (y : Nat)",
          "[suc (suc m)] (x : G m)"]


def forded_g(n: int) -> str:
    m = parse(NAT + "\ndata G : (n : Nat)\n" + "".join(
        f"  | g{j} {G_ROWS[j % len(G_ROWS)]}\n" for j in range(n)))
    return print_module(ford_module(m, check_module(m), "G")[0])


@pytest.mark.parametrize("n", [60, 240, 960])
def test_coverage_reuses_a_case_whose_row_holds_only_variables_and_refl(
        monkeypatch, n):
    # each `fromGF` clause matches `GF.g<j>` with a `refl` inside; its
    # elaboration opened that case and the `refl` under it, so coverage
    # opens neither again (it opened both, 2 * n cases, before)
    callers = [c for c, _ in opened_cases(monkeypatch, forded_g(n))]
    assert callers.count("_cover") == 0
    assert callers.count("_elab_ctor") == 2 * n


@pytest.mark.parametrize("j", range(len(G_ROWS)))
def test_a_missing_clause_with_refl_inside_keeps_its_text(j):
    text = forded_g(len(G_ROWS))
    clause = next(line for line in text.splitlines(keepends=True)
                  if line.startswith(f"  | n (GF.g{j} "))
    slots = "_ _ _ _" if "m" in G_ROWS[j] else "_ _"
    assert coverage_message(text.replace(clause, "")) == (
        f"def fromGF: missing canonical case: _ g{j} {slots}")


def test_a_nested_refl_behind_a_constructor_split_is_covered_unopened(
        monkeypatch):
    # `suc` is opened to split its slot; the clause's own `zero` and `refl`
    # lead to the nested cases, which its elaboration opened in this order
    # at these types, so coverage opens only the `zero` and `suc` cases that
    # no clause takes
    src = NAT + """
def f (n : Nat) (p : Id Nat n (suc zero)) : Nat
  | (suc zero) refl => zero
"""
    assert [c for caller, c in opened_cases(monkeypatch, src)
            if caller == "_cover"] == ["zero", "suc", "suc"]


HALF_EVEN_AND = NAT_BOOL + """
def half (n : Nat) : Nat
  | zero => zero
  | (suc zero) => zero
  | (suc (suc k)) => suc (half k)

def even (n : Nat) : Bool
  | zero => true
  | (suc zero) => false
  | (suc (suc k)) => even k

def and (a : Bool) (b : Bool) : Bool
  | true true => true
  | true false => false
  | false b => false
"""


def test_coverage_reuses_the_cases_of_nested_and_later_patterns(
        monkeypatch):
    # coverage opens `suc` in `half` and `even`, and `true` in `and`, to
    # split below them; every other case is a clause's own, reached through
    # that clause's patterns alone
    callers = [c for c, _ in opened_cases(monkeypatch, HALF_EVEN_AND)]
    assert (callers.count("_cover"), callers.count("_elab_ctor")) == (3, 15)


def test_a_refl_after_a_filled_column_opens_its_case(monkeypatch):
    # the second row has a variable where the first splits `n`, so in the
    # case `suc` its `refl` was unified at a more general type: coverage
    # opens that `refl` case (and the `zero` above it) again
    src = NAT + """
def f (n : Nat) (m : Nat) (p : Id Nat m zero) : Nat
  | zero m q => zero
  | n zero refl => zero
"""
    assert [c for caller, c in opened_cases(monkeypatch, src)
            if caller == "_cover"] == ["suc", "zero", None, "suc"]


def test_a_stuck_nested_refl_is_the_clause_unification_error():
    # `refl` at `Id Nat x x` would need K; the clause says so before
    # coverage could take its row as covering
    src = NAT + """
data B
  | mk (x : Nat) (p : Id Nat x x)

def f (b : B) : Nat
  | (mk x refl) => zero
"""
    with pytest.raises(FordcError) as ei:
        check_module(parse(src))
    assert (ei.value.code, ei.value.loc) == ("E-UNIFY-STUCK", (10, 3))
    assert ei.value.message == ("matching refl: unification stuck on "
                                "neutral term x")


def test_a_refl_in_a_variable_row_does_not_cover_a_case_it_did_not_take():
    # the second clause's `refl` was unified at `Id Nat n c`, with `n`
    # general; at the case `suc` the identity type is stuck on `c`, and
    # that row must not be taken as covering it
    src = NAT + """
axiom c : Nat

def f (n : Nat) (m : Nat) (p : Id Nat n c) : Nat
  | zero m q => zero
  | n m refl => zero
"""
    assert coverage_message(src) == (
        "def f: cannot decide coverage of an identity type stuck on c")


def test_the_first_missing_case_is_in_constructor_order():
    # clauses in reverse constructor order, w0 and w2 missing
    clauses = [c for i, c in enumerate(WIDE_CLAUSES) if i not in (0, 2)]
    assert coverage_message(WIDE + "".join(reversed(clauses))
                            ) == "def f: missing canonical case: _ w0"


def test_a_nested_missing_case_keeps_its_text():
    src = HALF.replace("  | (suc zero) => zero\n", "")
    assert coverage_message(src) == "def half: missing canonical case: suc zero"


def test_a_catch_all_row_spends_no_coverage_budget(tmp_path, capsys):
    # opening `a` would normalize its index, 60 * 60 * 60 in unary, which
    # the budget does not allow; the catch-all row covers it unopened
    big = f"mult ({mult_term(60, 60)}) ({numeral(60)})"
    text = PLUS_MULT + f"""
data D : (n : Nat)
  | a [.({big})]
  | b [zero]

def f (v : D zero) : Nat
  | b => zero
"""
    line = text[:text.index("def f")].count("\n") + 1
    mod = tmp_path / "budget.fda"
    mod.write_text(text + "  | v => zero\n")
    assert cli.main(["check", str(mod), "--step-budget", "20000"]) == 0
    mod.write_text(text)
    assert cli.main(["check", str(mod), "--step-budget", "20000"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error[E-STEP-BUDGET] {mod}:{line}:1: ")


def test_canonical_values_of_identity_types():
    sig = check_module(parse(NAT))
    assert canonical_values(sig, pt(sig, "Id Nat zero zero"), 2) == [REFL]
    assert canonical_values(sig, pt(sig, "Id Nat zero (suc zero)"), 2) == []


# -- opening a constructor: caller variables named like its slots ------------

P_MODULE = """
data P (A : Type0) : (n : Type0)
  | mk [n] (x : A)

def coerce (n : Type0) (T : Type0) (v : P n T) : T
  | n T (mk k x) => x
"""


def test_a_caller_variable_named_like_a_slot_is_not_captured():
    with pytest.raises(TypeCheckError) as ei:
        check_module(parse(P_MODULE))
    assert ei.value.code == "E-TYPE"
    assert ei.value.message == "type mismatch: expected T, got n"


def test_a_parameter_named_like_a_row_variable_is_not_captured():
    check_module(parse(NAT + """
data Vec (A : Type0) : (n : Nat)
  | nil [zero]
  | cons [suc n] (x : A) (xs : Vec A n)

def head (n : Type0) (m : Nat) (v : Vec n (suc m)) : n
  | n m (cons k x xs) => x
"""))


def test_an_availability_pattern_named_like_a_slot_is_not_captured():
    check_module(parse("""
data List (A : Type0)
  | nil
  | cons (x : A) (xs : List A)

data D (x : Type0) : (l : List x)
  | c [cons y ys] (w : List x) (e : Id (List x) w ys)
"""))


def test_a_row_variable_named_like_a_parameter_is_a_clash():
    # left alone, the row variable `A` captures the parameter in the result
    # type, which would read `P A A`
    with pytest.raises(TypeCheckError) as ei:
        check_module(parse("""
data P (A : Type0) : (n : Type0)
  | mk [A] (x : A)
"""))
    assert ei.value.code == "E-NAME-CLASH"
    assert ei.value.message == ("constructor mk: row variable 'A' shadows a "
                                "parameter")
    assert ei.value.loc == (3, 3)


# a row's constructor pattern: `v`'s type depends on the earlier slot `n`
# and on the parameter `A`, and `e` names a row variable `A`
SIG_ROWS = NAT + """
data Vec (A : Type0) : (n : Nat)

data Sig (A : Type0)
  | pair (n : Nat) (v : Vec A n)

data D (n : Type0) (v : Nat) : (s : Sig n)
  | d [pair _ _]
  | e [pair (suc A) x] (w : Vec n (suc A))
"""


def test_rows_elaborate_constructor_patterns_without_opening_them(
        monkeypatch):
    prelude_signature()
    opened = []
    ctor_slots = Signature.ctor_slots

    def spy(self, c, *args, **kw):
        opened.append(c.name)
        return ctor_slots(self, c, *args, **kw)
    monkeypatch.setattr(Signature, "ctor_slots", spy)
    check_module(parse(SIG_ROWS))
    assert opened == []


def test_a_row_pattern_substitutes_parameters_and_slots_at_once():
    sig = check_module(parse(SIG_ROWS))
    ctors = sig.datas["D"].ctors

    def row(name):
        return [(b.name, print_term(b.type)) for b in ctors[name].patvars]
    assert row("d") == [("n1", "Nat"), ("v1", "Vec n n1")]
    assert row("e") == [("A", "Nat"), ("x", "Vec n (suc A)")]


def _verdict(m) -> str:
    try:
        check_module(m)
    except FordcError as e:
        return e.code
    return "ok"


def test_checking_is_invariant_under_renaming_locals():
    # renaming onto slot-like names makes variables meet constructor slots
    # of other declarations; fresh names meet nothing
    rng = random.Random(7)
    mods = []
    for p in sorted(CORPUS.glob("*.fda")):
        try:
            mods.append((p.name, parse(p.read_text(encoding="utf-8"))))
        except FordcError:
            pass
    for name, m in mods:
        fresh = _verdict(rename_locals(m, rng, pool=()))
        for _ in range(20):
            assert _verdict(rename_locals(m, rng)) == fresh, name


# -- branches that checked modules do not reach ------------------------------

def test_an_unbound_variable_is_a_type_error():
    # the parser scopes every name, so only a direct caller can pass one
    with pytest.raises(TypeCheckError) as ei:
        Checker(check_module(parse(NAT))).infer({}, Var("y"))
    assert ei.value.message == "unbound variable 'y'"


S1_NAT = NAT + """
data S1
  | base
  | loop : Id S1 base base

def pred (n : Nat) : Nat
  | zero => zero
  | (suc k) => k
"""


@pytest.mark.parametrize("arg", ["loop", "suc"],
                         ids=["path-constructor", "missing-slot"])
def test_an_ill_typed_match_stays_stuck(arg):
    # a path constructor never computes, and a constructor short of its
    # slots matches nothing: either way the call stays as it is
    sig = check_module(parse(S1_NAT))
    t = pt(sig, f"pred {arg}")
    assert normalize(sig, t) == t


def test_a_function_with_no_clauses_is_stuck():
    sig = check_module(parse(corpus_text("soundness/disjoint-control.fda")))
    t = pt(sig, "absurd p", locals_=("p",))
    assert normalize(sig, t) == t


def test_read_back_renames_a_binder_that_shadows_an_enclosing_one():
    sig = check_module(parse(NAT))
    t = normalize(sig, pt(sig, "\\x => \\x => x"))
    assert print_term(t) == "\\x x1 => x1"


def test_canonical_values_are_closed():
    # the row variable `k` is solved by the open index `n`
    sig = check_module(parse(NAT + "\ndata D : (n : Nat)\n  | c [k]\n"))
    assert canonical_values(sig, pt(sig, "D n", locals_=("n",)), 2) == []
    assert canonical_values(sig, pt(sig, "D zero"), 2) == [pt(sig, "c zero")]


# -- the clause-matching rule ----------------------------------------------------

BERRY = NAT + """
data Bool
  | true
  | false

def berry (a : Bool) (b : Bool) (c : Bool) : Nat
  | true false x => zero
  | false x true => suc zero
  | x true false => suc (suc zero)
  | x y z => zero

def e2 (n : Bool) : Id Nat (berry n true false) (suc (suc zero)) => refl
def e1 (n : Bool) : Id Nat (berry false n true) (suc zero) => refl
def e0 (n : Bool) : Id Nat (berry true false n) zero => refl
"""


def test_a_clause_with_a_clashing_column_is_skipped_past_a_neutral_one():
    # `berry n true false` skips the first two clauses on their clashing
    # `b` and `c` columns, though their `a` column is neutral, and fires
    # the third; `berry n false true` is stuck on the first clause, which
    # clashes nowhere but has a neutral column
    sig = check_module(parse(BERRY))
    stuck = pt(sig, "berry n false true", locals_=("n",))
    assert normalize(sig, stuck) == stuck


# -- inert terms: their own normal form ---------------------------------------

def _no_eval(monkeypatch):
    def refuse(self, t, env):
        raise AssertionError("an inert term was evaluated")
    monkeypatch.setattr(Normalizer, "eval", refuse)


def test_an_inert_term_normalizes_to_itself_without_evaluation(monkeypatch):
    sig = check_module(parse(PLUS_MULT))
    t = pt(sig, "Id Nat (suc n) (suc (suc zero))", locals_=("n",))
    _no_eval(monkeypatch)
    assert Normalizer(sig).normalize(t) is t


def test_equal_inert_terms_convert_without_evaluation(monkeypatch):
    sig = check_module(parse(PLUS_MULT))
    a = pt(sig, "Id Nat (suc n) zero", locals_=("n",))
    b = pt(sig, "Id Nat (suc n) zero", locals_=("n",))
    _no_eval(monkeypatch)
    assert a is not b and Normalizer(sig).convertible(a, b)


def test_different_inert_terms_do_not_convert():
    sig = check_module(parse(PLUS_MULT))
    nat = DataRef("Nat")
    assert not convertible(sig, pt(sig, "Nat.zero"), pt(sig, "suc zero"))
    assert not convertible(sig, IdType(nat, Var("x"), Var("y")),
                           IdType(nat, Var("y"), Var("x")))


def test_a_call_still_converts_by_evaluation():
    sig = check_module(parse(PLUS_MULT))
    assert convertible(sig, pt(sig, "plus zero n", locals_=("n",)), Var("n"))


def _suc_chain(depth):
    t = CtorRef("Nat", "zero")
    for _ in range(depth):
        t = App(CtorRef("Nat", "suc"), t)
    return t


def test_a_ten_thousand_deep_numeral_is_its_own_normal_form():
    # the inert check walks on a stack: no RecursionError at the default limit
    sig = check_module(parse(PLUS_MULT))
    t, copy = _suc_chain(10000), _suc_chain(10000)
    assert Normalizer(sig).normalize(t) is t
    assert convertible(sig, t, copy)
    assert not convertible(sig, t, App(CtorRef("Nat", "suc"), copy))


def test_a_binder_is_still_renamed_on_read_back():
    sig = check_module(parse(PLUS_MULT))
    t = Lam("x", Lam("x", Var("x")))
    assert normalize(sig, t) == Lam("x", Lam("x1", Var("x1")))


def test_alpha_eq_compares_ten_thousand_deep_normal_forms():
    # the normal form of `mult (mult ten ten) (mult ten ten)` in
    # deep/deep-eval.fda, computed twice
    sig = check_module(parse((CORPUS / "deep" / "deep-eval.fda").read_text()))
    t = pt(sig, "mult (mult ten ten) (mult ten ten)")
    once, twice = normalize(sig, t), normalize(sig, t)
    assert once is not twice and unary_value(once) == 10000
    assert alpha_eq(once, twice)
    assert not alpha_eq(once, App(CtorRef("Nat", "suc"), twice))


# -- class heads take arguments like any other head ----------------------------

_ZERO = CtorRef("Nat", "zero")


@pytest.mark.parametrize("node", [IdType(DataRef("Nat"), _ZERO, _ZERO),
                                  Pi("x", DataRef("Nat"), DataRef("Nat"))],
                         ids=["Id", "Pi"])
def test_a_class_head_keeps_the_arguments_it_is_applied_to(node):
    sig = check_module(parse(PLUS_MULT))
    applied = App(node, _ZERO)
    assert not convertible(sig, applied, node)
    assert not convertible(sig, node, applied)
    # `(\f => f zero) node`: the argument reaches the node through a variable
    assert normalize(sig, App(Lam("f", App(Var("f"), _ZERO)), node)) == applied
    assert normalize(sig, applied) == applied


def test_running_out_of_stack_is_a_depth_error_at_the_declaration(
        monkeypatch):
    # a real overflow turns line tracing off, so raise it at shallow depth
    def overflow(self, f):
        raise RecursionError("maximum recursion depth exceeded")
    m = parse("data Unit | tt\n\ndef u : Unit => tt\n")
    monkeypatch.setattr(Checker, "check_fun", overflow)
    with pytest.raises(TypeCheckError) as ei:
        check_module(m)
    assert ei.value.code == "E-DEPTH" and ei.value.loc == (3, 1)


# -- values made where they are met ---------------------------------------------

SECOND = PLUS_MULT + """
def second (m : Nat) (n : Nat) : Nat
  | (suc _) n => n
  | _ _ => zero
"""


@pytest.mark.parametrize("term, steps, normal", [
    ("plus x y", 0, "plus x y"),
    ("(\\y => plus x y) zero", 1, "plus x zero"),
    ("(\\x y => plus (suc x) y) zero (suc zero)", 4, "suc (suc zero)"),
    ("plus (suc x) y", 1, "suc (plus x y)"),
    ("(\\x => plus x) zero (suc zero)", 2, "suc zero"),
    ("(\\f x => f x) (\\y => suc y) zero", 3, "suc zero"),
    ("(\\f x => plus (f x) x) (\\y => suc y) zero", 5, "suc zero"),
    ("second (suc x) y", 1, "y"),
    ("second zero y", 1, "zero"),
], ids=["variables-unbound", "variables-one-unbound", "variable-after-call",
        "variable-after-constructor", "pending-arguments", "closure-applied",
        "closure-in-a-call", "wildcard-subpattern", "wildcard-columns"])
def test_a_variable_argument_is_read_where_its_spine_is_met(term, steps,
                                                             normal):
    sig = check_module(parse(SECOND))
    nrm = Normalizer(sig)
    n = nrm.normalize(pt(sig, term, locals_=("x", "y")))
    assert (nrm.steps, n) == (steps, pt(sig, normal, locals_=("x", "y")))


def test_a_wildcard_subpattern_binds_nothing():
    sig = check_module(parse(SECOND))
    nrm = Normalizer(sig)
    vals = [nrm.eval(pt(sig, "suc zero"), {}), nrm.eval(Var("y"), {})]
    env, rhs, rest = nrm._match_clauses("second", vals)
    assert (list(env), rhs, rest) == (["n"], Var("n"), [])


def test_lambdas_side_by_side_read_back_under_their_own_names():
    sig = check_module(parse(PLUS_MULT))
    t = pt(sig, "Id (Nat -> Nat) (\\x => x) (\\x => x)")
    assert print_term(normalize(sig, t)) == (
        "Id (Nat -> Nat) (\\x => x) (\\x => x)")


@pytest.mark.parametrize("ty", [
    "Fun", "J (\\z q => Type0) (Nat -> Nat) (idp Nat zero)"],
    ids=["a-call", "a-j-on-refl"])
def test_a_lambda_checks_against_a_type_that_computes_to_a_pi(ty):
    # `whnf` of the expected type must compute a call and a `J` head
    check_module(parse(NAT + "\ndef Fun : Type0 => Nat -> Nat\n\n"
                             f"def f : {ty} => \\x => suc x\n"))


# -- clauses matched through per-function tables ---------------------------------

TABLES = SECOND + """
data S1
  | base
  | loop : Id S1 base base

partial def half (n : Nat) : Nat
  | zero => zero
  | (suc zero) => zero
  | (suc (suc k)) => suc (half k)

def ends (x : Nat) (y : Nat) (p : Id Nat x y) : Nat
  | x .(x) refl => x

def onBase (s : S1) : Nat
  | base => zero
  | _ => suc zero

def firstOr (m : Nat) (n : Nat) : Nat
  | zero n => n
  | m n => m

data Vec (A : Type0) : (n : Nat)
  | nil [zero]
  | cons [suc m] (x : A) (xs : Vec A m)

def tail (A : Type0) (n : Nat) (v : Vec A (suc n)) : Vec A n
  | A n (cons .(n) _ xs) => xs
"""


@pytest.mark.parametrize("term, steps, normal", [
    ("half (suc (suc (suc (suc (suc zero)))))", 3, "suc (suc zero)"),
    ("half (suc (suc x))", 1, "suc (half x)"),
    ("half (suc x)", 0, "half (suc x)"),
    ("half (suc suc)", 0, "half (suc suc)"),
    ("half suc", 0, "half suc"),
    ("half (\\y => y)", 0, "half (\\y => y)"),
    ("plus suc x", 0, "plus suc x"),
    ("ends zero zero refl", 1, "zero"),
    ("ends x y refl", 1, "x"),
    ("ends zero zero p", 0, "ends zero zero p"),
    ("onBase base", 1, "zero"),
    ("onBase loop", 0, "onBase loop"),
    ("onBase zero", 1, "suc zero"),
    ("onBase x", 0, "onBase x"),
    ("tail Nat x (cons Nat x zero y)", 1, "y"),
    ("tail Nat zero (cons Nat zero zero (nil Nat))", 1, "nil Nat"),
    ("tail Nat x (cons Nat x y)", 0, "tail Nat x (cons Nat x y)"),
    ("firstOr (suc x) zero", 1, "suc x"),
    ("firstOr x zero", 0, "firstOr x zero"),
], ids=["nested-row", "nested-row-stuck-below", "nested-row-neutral-slot",
        "nested-short-constructor", "short-constructor-above-a-nested-row",
        "closure-under-a-constructor-pattern",
        "short-constructor", "refl-on-refl", "refl-on-refl-open",
        "refl-on-a-neutral-path", "point-constructor",
        "path-constructor-blocks-later-clauses",
        "constructor-of-another-datatype", "neutral-blocks-later-clauses",
        "wildcard-and-inaccessible-subpatterns", "nested-value-in-a-slot",
        "short-constructor-with-subpatterns", "variable-row-after-a-clash",
        "stuck-first-clause-ahead-of-a-match"])
def test_clauses_match_through_their_table(term, steps, normal):
    sig = check_module(parse(TABLES))
    nrm = Normalizer(sig)
    n = nrm.normalize(pt(sig, term, locals_=("x", "y", "p")))
    assert (nrm.steps, n) == (steps, pt(sig, normal,
                                        locals_=("x", "y", "p")))


def test_a_path_constructor_named_like_a_point_one_is_stuck():
    # `Z.zero` is no `Nat.zero`, and a path constructor: the `suc` row is
    # stuck on it, so the catch-all row below cannot fire
    sig = check_module(parse(NAT + """
data Z
  | o
  | zero : Id Z o o

def pred (n : Nat) : Nat
  | (suc k) => k
  | _ => Nat.zero
"""))
    t = pt(sig, "pred Z.zero")
    assert normalize(sig, t) == t
    assert normalize(sig, pt(sig, "pred Z.o")) == pt(sig, "Nat.zero")


def test_two_modules_defining_f_each_evaluate_by_their_own_clauses():
    sigs = [check_module(parse(NAT + f"\ndef f (n : Nat) : Nat\n  | {c}\n"))
            for c in ("zero => zero\n  | (suc k) => k", "n => suc n")]
    for _ in range(2):  # each table in turn, then again once both exist
        assert [normalize(sig, pt(sig, "f (suc zero)")) for sig in sigs] == [
            pt(sigs[0], "zero"), pt(sigs[1], "suc (suc zero)")]


def test_a_call_met_before_its_clauses_land_computes_after():
    # checking `f`'s last clause evaluates `f k` while `f` has no clause
    sig = check_module(parse(NAT + """
def same (a : Nat) (b : Nat) (p : Id Nat a b) : Nat => a

def f (n : Nat) : Nat
  | zero => zero
  | (suc k) => same (f k) (f k) refl

def t : Id Nat (f (suc zero)) zero => refl
"""))
    assert normalize(sig, pt(sig, "f (suc (suc zero))")) == pt(sig, "zero")


def test_a_function_replaced_through_add_fun_evaluates_by_its_new_clauses():
    sig, other = (
        check_module(parse(NAT + f"\ndef f (n : Nat) : Nat\n  | {c}\n"))
        for c in ("zero => zero\n  | (suc k) => k", "n => suc n"))
    assert normalize(sig, pt(sig, "f (suc zero)")) == pt(sig, "zero")
    sig.add_fun(other.funs["f"])
    assert normalize(sig, pt(sig, "f (suc zero)")) == pt(sig, "suc (suc zero)")
