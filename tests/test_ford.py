import pytest

from fordc import (PatVar, TransformError, TypeCheckError,
                   canonical_family_values, check_module, convertible,
                   ford_module, normalize, parse, parse_term_text)
from fordc.cli import main
from fordc.printer import print_module, print_pattern
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


def _round_trips(sig2, plan, params, target_depth, forded_depth):
    """Both round trips on the canonical values of the two families; each
    value set must be non-empty."""
    values = canonical_family_values(sig2, plan.target, params, target_depth)
    fvalues = canonical_family_values(sig2, plan.forded, params, forded_depth)
    assert values and fvalues
    for a, b, vs in [(plan.from_name, plan.to_name, values),
                     (plan.to_name, plan.from_name, fvalues)]:
        for indices, v in vs:
            call = mk_app(FunRef(a), *params, *indices,
                          mk_app(FunRef(b), *params, *indices, v))
            assert convertible(sig2, call, v), f"{a} . {b} moved {v}"


def test_round_trip_over_a_family_indexed_by_a_higher_inductive_type():
    # the split's `base = base` is stuck, so the values come by conversion
    _, plan, sig2 = forded("helix.fda", "Helix")
    _round_trips(sig2, plan, [], 3, 4)


NAMED_LIKE_A_CONSTRUCTOR = {
    "index-named-like-a-tag": (
        "data U\n  | Int_tag\n  | path : Id U Int_tag Int_tag\n\n"
        "data T : (Int_tag : U)\n  | zero_T [Int_tag]\n", "T", []),
    "index-named-zero": (
        "data Nat\n  | zero\n  | suc (n : Nat)\n\n"
        "data V : (zero : Nat)\n  | c [suc m]\n", "V", []),
    "parameter-named-zero": (
        "data Nat\n  | zero\n  | suc (n : Nat)\n\n"
        "data L (zero : Type0) : (n : Nat)\n  | nil [zero]\n"
        "  | cons [suc m] (x : zero) (xs : L zero m)\n", "L", ["Nat"]),
    "parameter-named-zero-and-row-variable-zero1": (
        "data Nat\n  | zero\n  | suc (n : Nat)\n\n"
        "data L (zero : Type0) : (n : Nat)\n  | nil [zero]\n"
        "  | cons [suc zero1] (x : zero) (xs : L zero zero1)\n", "L",
        ["Nat"]),
    "parameter-named-zero-and-index-zero1": (
        "data Nat\n  | zero\n  | suc (n : Nat)\n\n"
        "data L (zero : Type0) : (zero1 : Nat)\n  | nil [zero]\n"
        "  | cons [suc m] (x : zero) (xs : L zero m)\n", "L", ["Nat"]),
}


@pytest.mark.parametrize("src,target,params",
                         NAMED_LIKE_A_CONSTRUCTOR.values(),
                         ids=NAMED_LIKE_A_CONSTRUCTOR)
def test_ford_of_a_binder_named_like_a_constructor(tmp_path, capsys, src,
                                                   target, params):
    path, out = tmp_path / "in.fda", tmp_path / "out.fda"
    path.write_text(src, encoding="utf-8")
    assert main(["ford", "--data", target, "--out", str(out),
                 str(path)]) == 0, capsys.readouterr().err
    m = parse(out.read_text(encoding="utf-8"))
    sig2 = check_module(m)
    m0 = parse(src)
    _, plan = ford_module(m0, check_module(m0), target)
    env = sig2.name_env()
    _round_trips(sig2, plan, [parse_term_text(p, env) for p in params], 3, 4)


# -- the paper's equivalence: the converters are mutually inverse ---------------

AP = """
def ap (A : Type0) (B : Type0) (f : A -> B) (x : A) (y : A) (p : Id A x y) : Id B (f x) (f y)
  => J (\\z q => Id B (f x) (f z)) refl p
"""

VEC_CONS_FROM_TO = ("ap (Vec A m) (Vec A (suc m)) (Vec.cons A m x) "
                    "(fromVecF A m (toVecF A m xs)) xs (fromTo A m xs)")

VEC_LEMMAS = AP + """
def fromTo (A : Type0) (n : Nat) (v : Vec A n) : Id (Vec A n) (fromVecF A n (toVecF A n v)) v
  | A n Vec.nil => refl
  | A n (Vec.cons m x xs) => {cons}

def toFrom (A : Type0) (n : Nat) (v : VecF A n) : Id (VecF A n) (toVecF A n (fromVecF A n v)) v
  | A n (VecF.nil n1 refl) => refl
  | A n (VecF.cons n1 m refl x xs) => ap (VecF A m) (VecF A (suc m)) (VecF.cons A (suc m) m refl x) (toVecF A m (fromVecF A m xs)) xs (toFrom A m xs)
"""

HELIX_LEMMAS = """
def fromTo (x : S1) (v : Helix x) : Id (Helix x) (fromHelixF x (toHelixF x v)) v
  | x Helix.zero => refl

def toFrom (x : S1) (v : HelixF x) : Id (HelixF x) (toHelixF x (fromHelixF x v)) v
  | x (HelixF.zero x1 refl) => refl
"""


# two recursive slots: one `ap` per slot, chained with the prelude's `trans`
TREE = """\
data Nat
  | zero
  | suc (n : Nat)

data Tree : (n : Nat)
  | leaf [zero]
  | node [suc m] (l : Tree m) (r : Tree m)
"""

TREE_NODE_FROM_TO = (
    "trans (Tree (suc m)) "
    "(Tree.node m (fromTreeF m (toTreeF m l)) (fromTreeF m (toTreeF m r))) "
    "(Tree.node m l (fromTreeF m (toTreeF m r))) (Tree.node m l r) "
    "(ap (Tree m) (Tree (suc m)) "
    "(\\z => Tree.node m z (fromTreeF m (toTreeF m r))) "
    "(fromTreeF m (toTreeF m l)) l (fromTo m l)) "
    "(ap (Tree m) (Tree (suc m)) (Tree.node m l) "
    "(fromTreeF m (toTreeF m r)) r (fromTo m r))")

TREE_NODE_TO_FROM = (
    "trans (TreeF (suc m)) "
    "(TreeF.node (suc m) m refl (toTreeF m (fromTreeF m l)) "
    "(toTreeF m (fromTreeF m r))) "
    "(TreeF.node (suc m) m refl l (toTreeF m (fromTreeF m r))) "
    "(TreeF.node (suc m) m refl l r) "
    "(ap (TreeF m) (TreeF (suc m)) "
    "(\\z => TreeF.node (suc m) m refl z (toTreeF m (fromTreeF m r))) "
    "(toTreeF m (fromTreeF m l)) l (toFrom m l)) "
    "(ap (TreeF m) (TreeF (suc m)) (TreeF.node (suc m) m refl l) "
    "(toTreeF m (fromTreeF m r)) r (toFrom m r))")

TREE_LEMMAS = AP + """
def fromTo (n : Nat) (v : Tree n) : Id (Tree n) (fromTreeF n (toTreeF n v)) v
  | n Tree.leaf => refl
  | n (Tree.node m l r) => {node}

def toFrom (n : Nat) (v : TreeF n) : Id (TreeF n) (toTreeF n (fromTreeF n v)) v
  | n (TreeF.leaf n1 refl) => refl
  | n (TreeF.node n1 m refl l r) => """ + TREE_NODE_TO_FROM + "\n"


def _check_with_lemmas(source, target, lemmas):
    m = parse(source)
    out, _ = ford_module(m, check_module(m), target)
    return check_module(parse(print_module(out) + lemmas))


@pytest.mark.parametrize("source, target, lemmas", [
    (corpus_text("vec.fda"), "Vec", VEC_LEMMAS.format(cons=VEC_CONS_FROM_TO)),
    (corpus_text("helix.fda"), "Helix", HELIX_LEMMAS),
    (TREE, "Tree", TREE_LEMMAS.format(node=TREE_NODE_FROM_TO)),
], ids=["Vec", "Helix", "Tree"])
def test_the_converters_are_proved_mutually_inverse(source, target, lemmas):
    sig = _check_with_lemmas(source, target, lemmas)
    assert {"fromTo", "toFrom"} <= set(sig.funs)


def test_a_wrong_round_trip_proof_is_rejected():
    for source, target, lemmas in [
            (corpus_text("vec.fda"), "Vec", VEC_LEMMAS.format(cons="refl")),
            (TREE, "Tree", TREE_LEMMAS.format(node="refl"))]:
        with pytest.raises(TypeCheckError) as ei:
            _check_with_lemmas(source, target, lemmas)
        assert ei.value.code == "E-TYPE", target
        assert "refl endpoints differ" in ei.value.message, target
