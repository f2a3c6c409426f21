import pytest

from fordc import (Checker, CoverageError, PatCtor, PatVar,
                   StepBudgetExceeded, TypeCheckError, UnifyMismatch,
                   UnifyStuck, UnifySuccess, check_module, convertible,
                   normalize, parse, parse_term_text, prelude_signature,
                   print_term, unify_indices)
from fordc.normalize import Normalizer
from fordc.terms import (App, AxiomRef, CtorRef, JElim, Lam, Var, alpha_eq,
                         mk_app)
from conftest import PLUS_MULT, load, load_checked, mult_term


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

def test_unify_exact_constructor_row():
    _, sig = load_checked("so.fda")
    res = unify_indices(sig, [pt(sig, "true")], [PatCtor("Bool", "true")])
    assert isinstance(res, UnifySuccess) and res.subst == {}


def test_unify_stuck_on_neutral_call():
    _, sig = load_checked("so-forded-delay.fda")
    stuck = pt(sig, "isEmpty xs", locals_=("xs",))
    res = unify_indices(sig, [stuck], [PatCtor("Bool", "true")])
    assert isinstance(res, UnifyStuck)
    assert print_term(res.blocker) == "isEmpty xs"


def test_unify_constructor_clash():
    _, sig = load_checked("nat.fda")
    res = unify_indices(sig, [pt(sig, "zero")],
                        [PatCtor("Nat", "suc", (PatVar("n"),))])
    assert isinstance(res, UnifyMismatch)


def test_unify_variable_solves_toward_row():
    _, sig = load_checked("nat.fda")
    res = unify_indices(sig, [Var("k")], [PatVar("n")], flex_ctx={"k"})
    assert isinstance(res, UnifySuccess)
    assert res.subst == {"n": Var("k")}


def test_unify_success_substitution_is_sound():
    _, sig = load_checked("nat.fda")
    expected = pt(sig, "suc (suc zero)")
    res = unify_indices(sig, [expected], [PatCtor("Nat", "suc", (PatVar("n"),))])
    assert isinstance(res, UnifySuccess)
    assert convertible(sig, res.subst["n"], pt(sig, "suc zero"))


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
