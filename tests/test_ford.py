import pytest

from fordc import (PatVar, TransformError, TypeCheckError,
                   canonical_family_values, check_module, convertible,
                   ford_module, normalize, parse, parse_term_text)
from fordc.printer import print_pattern
from fordc.terms import DataRef, FunRef, IdType, alpha_eq, mk_app
from conftest import corpus_text, load_checked


def forded(name, target, suffix="F"):
    m, sig = load_checked(name)
    out, plan = ford_module(m, sig, target, suffix)
    sig2 = check_module(out)
    return out, plan, sig2


def test_so_becomes_wrapper_of_equality():
    out, plan, _ = forded("so.fda", "So")
    sof = out.find_data("SoF")
    (oh,) = sof.ctors
    assert [b.name for b in oh.args] == ["eq"]
    eq = oh.args[0].type
    assert isinstance(eq, IdType)
    assert eq.carrier == DataRef("Bool")
    assert "true" in (getattr(eq.lhs, "name", None), getattr(eq.rhs, "name", None))


def test_vec_ford_shape_matches_hand_application():
    out, _, _ = forded("vec.fda", "Vec")
    vf = out.find_data("VecF")
    nil, cons = vf.ctors
    assert [b.name for b in nil.args] == ["eq"]
    assert [b.name for b in cons.args] == ["m", "eq", "x", "xs"]
    # recursive occurrence points at the forded family
    assert DataRef("VecF") in [cons.args[3].type.fn.fn]


def test_helix_ford_wraps_the_loop_space():
    out, _, _ = forded("helix.fda", "Helix")
    hf = out.find_data("HelixF")
    (zero,) = hf.ctors
    eq = zero.args[0].type
    assert isinstance(eq, IdType) and eq.carrier == DataRef("S1")


def test_path_constructors_copied_through():
    src = """
data Bool
  | true
  | false

data P : (b : Bool)
  | point [true]
  | flip : Id Bool true true
"""
    m = parse(src)
    sig = check_module(m)
    out, _ = ford_module(m, sig, "P")
    check_module(out)
    pf = out.find_data("PF")
    flip = [c for c in pf.ctors if c.name == "flip"][0]
    assert flip.is_path
    from fordc.terms import CtorRef
    true = CtorRef("Bool", "true")
    assert flip.path_type == IdType(DataRef("Bool"), true, true)


def test_self_referencing_path_constructor_refused():
    src = """
data Bool
  | true
  | false

data P : (b : Bool)
  | point [true]
  | wiggle : Id (P true) (point) (point)
"""
    m = parse(src)
    sig = check_module(m)
    with pytest.raises(TransformError) as ei:
        ford_module(m, sig, "P")
    assert ei.value.code == "E-FORD-TARGET"


def test_index_freeness_scan():
    for name, target in [("so.fda", "So"), ("vec.fda", "Vec"),
                         ("fin.fda", "Fin"), ("helix.fda", "Helix")]:
        out, plan, _ = forded(name, target)
        fd = out.find_data(plan.forded)
        for c in fd.ctors:
            assert all(isinstance(p, PatVar) for p in c.availability)


def test_type_preservation():
    # checked by construction inside forded(); assert the converters exist
    out, plan, sig2 = forded("vec.fda", "Vec")
    assert plan.to_name in sig2.funs and plan.from_name in sig2.funs


def test_ford_golden_files_recheck():
    for g in ["so.forded.golden.fda", "vec.forded.golden.fda",
              "fin.forded.golden.fda", "helix.forded.golden.fda"]:
        check_module(parse(corpus_text(g)))


def test_to_ford_on_oh_evaluates_to_wrapped_refl():
    _, plan, sig2 = forded("so.fda", "So")
    env = sig2.name_env()
    t = parse_term_text("toSoF true So.oh", env)
    expected = parse_term_text("SoF.oh true refl", env)
    assert alpha_eq(normalize(sig2, t), expected)


def test_from_to_round_trip_on_nil():
    _, plan, sig2 = forded("vec.fda", "Vec")
    env = sig2.name_env()
    t = parse_term_text("fromVecF Nat zero (toVecF Nat zero (Vec.nil Nat))", env)
    assert alpha_eq(normalize(sig2, t), parse_term_text("Vec.nil Nat", env))


def test_to_from_identity_on_canonical_forded_value():
    _, plan, sig2 = forded("so.fda", "So")
    env = sig2.name_env()
    w = parse_term_text("SoF.oh true refl", env)
    t = parse_term_text("toSoF true (fromSoF true (SoF.oh true refl))", env)
    assert convertible(sig2, t, w)


@pytest.mark.parametrize("name,target,params", [
    ("so.fda", "So", []),
    ("fin.fda", "Fin", []),
    ("vec.fda", "Vec", ["Bool"]),
])
def test_round_trip_suite_depth3(name, target, params):
    m, sig = load_checked(name)
    if params:  # Vec needs an element type in scope
        src = corpus_text(name) + "\ndata Bool\n  | true\n  | false\n"
        m = parse(src)
        sig = check_module(m)
    out, plan, sig2 = ford_module(m, sig, target), None, None
    out, plan = out
    sig2 = check_module(out)
    env = sig2.name_env()
    pterms = [parse_term_text(p, env) for p in params]
    values = canonical_family_values(sig2, target, pterms, 3)
    assert values, "generator must produce canonical values"
    for indices, v in values:
        call = mk_app(FunRef(plan.from_name), *pterms, *indices,
                      mk_app(FunRef(plan.to_name), *pterms, *indices, v))
        assert convertible(sig2, call, v), f"round trip failed on {v}"
    fvalues = canonical_family_values(sig2, plan.forded, pterms, 4)
    assert fvalues
    for indices, w in fvalues:
        call = mk_app(FunRef(plan.to_name), *pterms, *indices,
                      mk_app(FunRef(plan.from_name), *pterms, *indices, w))
        assert convertible(sig2, call, w), f"reverse round trip failed on {w}"


def test_variable_row_stays_in_the_row():
    src = """
data Nat
  | zero
  | suc (n : Nat)

data G : (n : Nat)
  | a [zero]
  | b [k] (x : G k)
"""
    m = parse(src)
    out, plan = ford_module(m, check_module(m), "G")
    sig2 = check_module(out)
    b = out.find_data("GF").ctors[1]
    assert [print_pattern(p) for p in b.availability] == ["k"]
    assert [a.name for a in b.args] == ["x"]
    values = canonical_family_values(sig2, "G", [], 4)
    assert len(values) > 3
    for indices, v in values:
        call = mk_app(FunRef(plan.from_name), *indices,
                      mk_app(FunRef(plan.to_name), *indices, v))
        assert convertible(sig2, call, v), f"round trip failed on {v}"


def test_ford_without_indices_rejected():
    m, sig = load_checked("bool.fda")
    with pytest.raises(TransformError) as ei:
        ford_module(m, sig, "Bool")
    assert ei.value.code == "E-FORD-NO-INDICES"


def test_ford_dependent_index_telescope_rejected():
    src = """
data Nat
  | zero
  | suc (n : Nat)

data Fin : (n : Nat)
  | fzero [suc m]

data Dep : (n : Nat) (i : Fin n)
  | mk [zero, k]
"""
    m = parse(src)
    sig = check_module(m)
    with pytest.raises(TransformError) as ei:
        ford_module(m, sig, "Dep")
    assert ei.value.code == "E-FORD-TARGET"


def test_ford_leaves_the_input_signature_alone():
    m, sig = load_checked("vec.fda")
    names = set(sig.all_names())
    ford_module(m, sig, "Vec")
    assert not sig.has_name("VecF") and "VecF" not in sig.datas
    assert sig.all_names() == names


def test_suffix_collision_rejected():
    src = corpus_text("so.fda") + "\naxiom SoF : Type0\n"
    m = parse(src)
    sig = check_module(m)
    with pytest.raises(TransformError) as ei:
        ford_module(m, sig, "So")
    assert ei.value.code == "E-NAME-CLASH"


def test_unification_unblocking_pair():
    # the same split is stuck on the original family and fine on the
    # forded one with the proof left abstract
    with pytest.raises(TypeCheckError) as ei:
        check_module(parse(corpus_text("bad-split-so-stuck.fda")))
    assert ei.value.code == "E-UNIFY-STUCK"
    check_module(parse(corpus_text("so-forded-delay.fda")))
