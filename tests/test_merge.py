import pytest

from fordc import (PatCtor, TransformError, check_module, convertible,
                   merge_block, normalize, parse, parse_term_text,
                   print_module, print_term)
from fordc.terms import CtorRef, JElim
from conftest import corpus_text, load_checked


def merged(name, types, paths=()):
    m, sig = load_checked(name)
    out, plan = merge_block(m, sig, types, list(paths))
    sig2 = check_module(out)
    return out, plan, sig2


def test_d1d2_merge_matches_expected_shape():
    out, plan, _ = merged("d1d2.fda", ["D1", "D2"])
    enum = out.find_data(plan.enum_name)
    fam = out.find_data(plan.family_name)
    assert len(enum.ctors) == 2
    assert {c.name for c in enum.ctors} == {"D1_tag", "D2_tag"}
    assert len(fam.ctors) == 2 + 1  # |D1| + |D2| conserved
    assert len(plan.ctor_map) == len(fam.ctors)


def test_every_family_row_is_one_tag():
    out, plan, _ = merged("d1d2.fda", ["D1", "D2"])
    fam = out.find_data(plan.family_name)
    for c in fam.ctors:
        assert len(c.availability) == 1
        (p,) = c.availability
        assert isinstance(p, PatCtor) and p.data == plan.enum_name
        assert not p.args


def test_singleton_bool_merge():
    out, plan, sig2 = merged("bool.fda", ["Bool"])
    fam = out.find_data("T")
    assert [c.name for c in fam.ctors] == ["true_T", "false_T"]
    env = sig2.name_env()
    # the alias is definitional: a retagged value checks at the old name
    t = parse_term_text("true_T", env)
    alias = parse_term_text("Bool", env)
    assert convertible(sig2, alias, parse_term_text("T Bool_tag", env))
    from fordc import Checker
    ck = Checker(sig2)
    ck.check({}, t, alias)


def test_recursive_occurrences_retagged():
    out, _, _ = merged("nat.fda", ["Nat"])
    text = print_module(out)
    assert "suc_T [Nat_tag] (n : T Nat_tag)" in text


def test_merge_with_path_gives_loop_shape():
    out, plan, sig2 = merged("int-point.fda", ["Int"],
                             paths=[("path", "Int", "Int")])
    text = print_module(out)
    assert "path : Id U Int_tag Int_tag" in text
    assert "zero_T [Int_tag]" in text


def test_empty_paths_is_plain_merge():
    a, _, _ = merged("int-point.fda", ["Int"])
    m, sig = load_checked("int-point.fda")
    b, _ = merge_block(m, sig, ["Int"], [])
    assert print_module(a) == print_module(b)


def test_succ_pred_over_merged_integers():
    _, sig = load_checked("zu-merged.fda")
    env = sig.name_env()
    assert (print_module(parse(corpus_text("zu-merged.fda")))
            == corpus_text("zu-merged.fda"))
    succ_ty = sig.funs["succ"].type()
    assert "T Int_tag -> T Int_tag" in __import__("fordc").print_term(succ_ty)
    n = normalize(sig, parse_term_text("succ zero_T", env))
    assert isinstance(n, JElim)  # stuck on the path axiom


def test_indexed_member_rejected():
    m, sig = load_checked("vec.fda")
    with pytest.raises(TransformError) as ei:
        merge_block(m, sig, ["Vec"])
    assert ei.value.code == "E-MERGE-BLOCK"
    assert "Vec" in ei.value.message


def test_inductive_inductive_dependency_named():
    src = """
data Ctx
  | emptyCtx

data Ty : (c : Ctx)
  | unit [emptyCtx]
"""
    m = parse(src)
    sig = check_module(m)
    with pytest.raises(TransformError) as ei:
        merge_block(m, sig, ["Ctx", "Ty"])
    assert "inductive-inductive" in ei.value.message
    assert "Ctx" in ei.value.message and "Ty" in ei.value.message


def test_member_with_path_constructor_rejected():
    m, sig = load_checked("zu.fda")
    with pytest.raises(TransformError) as ei:
        merge_block(m, sig, ["U"])
    assert ei.value.code == "E-MERGE-BLOCK"


def test_unknown_member_rejected():
    m, sig = load_checked("bool.fda")
    with pytest.raises(TransformError):
        merge_block(m, sig, ["Nope"])


def test_partial_mutual_block_rejected():
    m, sig = load_checked("d1d2.fda")
    with pytest.raises(TransformError) as ei:
        merge_block(m, sig, ["D1"])
    assert "whole" in ei.value.message


def test_unknown_path_tag_rejected():
    m, sig = load_checked("int-point.fda")
    with pytest.raises(TransformError) as ei:
        merge_block(m, sig, ["Int"], [("path", "Int", "Bogus")])
    assert "Bogus" in ei.value.message


def test_retagged_canonical_terms_check():
    out, plan, sig2 = merged("d1d2.fda", ["D1", "D2"])
    from fordc import Checker, canonical_family_values
    ck = Checker(sig2)
    values = canonical_family_values(sig2, plan.family_name, [], 3)
    assert values
    for (tag,), v in values:
        ck.check({}, v, sig2.data_applied(plan.family_name, [], [tag]))


def test_an_argument_of_another_type_is_not_retagged():
    m = parse(corpus_text("bool.fda")
              + "\ndata L\n  | nil\n  | cons (b : Bool) (xs : L)\n")
    out, plan = merge_block(m, check_module(m), ["L"])
    check_module(out)
    cons = out.find_data(plan.family_name).ctors[1]
    assert [print_term(b.type) for b in cons.args] == ["Bool", "T L_tag"]


def test_merge_keeps_a_constructor_apart_from_a_binder_of_its_name():
    # the bare `zero` would read back as the parameter: `f` would become
    # the identity
    m = parse("data B\n  | t\n\ndata Nat\n  | zero\n  | suc (n : Nat)\n\n"
              "def f (zero : Nat) : Nat\n  => Nat.zero\n")
    out, _ = merge_block(m, check_module(m), ["B"])
    text = print_module(out)
    assert "def f (zero : Nat) : Nat\n  => Nat.zero\n" in text
    back = parse(text)
    check_module(back)
    assert back.decls[-1].body == CtorRef("Nat", "zero")
