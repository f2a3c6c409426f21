"""Behaviour of the `@node` classes: terms, patterns and declarations."""

import pytest

from fordc import Binder, CtorDecl, DataDecl, FunDecl, PatCtor, PatVar, terms
from fordc.node import replace
from fordc.terms import (REFL, App, AxiomRef, CtorRef, DataRef, FunRef,
                         IdType, JElim, Lam, Pi, Refl, Term, Univ, Var)

X, A = Var("x"), DataRef("A")
TERM_ARGS = [
    (Var, ("x",)), (Univ, (0,)), (Pi, ("x", A, A)), (Lam, ("x", X)),
    (App, (X, X)), (DataRef, ("A",)), (CtorRef, ("A", "c")), (FunRef, ("f",)),
    (AxiomRef, ("a",)), (IdType, (A, X, X)), (Refl, ()), (JElim, (X, X, X)),
]


def test_every_term_class_is_listed():
    # the classes `@node` replaced may linger in `Term.__subclasses__()`
    # until collected, so read the module instead
    assert {cls for cls, _ in TERM_ARGS} == {
        v for v in vars(terms).values()
        if isinstance(v, type) and issubclass(v, Term) and v is not Term}


def _fields_by_match(t):
    match t:
        case Var(x) | Univ(x) | DataRef(x) | FunRef(x) | AxiomRef(x):
            return (x,)
        case Pi(x, a, b) | IdType(x, a, b) | JElim(x, a, b):
            return (x, a, b)
        case Lam(x, a) | App(x, a) | CtorRef(x, a):
            return (x, a)
        case Refl():
            return ()


@pytest.mark.parametrize("cls,args", TERM_ARGS,
                         ids=[cls.__name__ for cls, _ in TERM_ARGS])
def test_positional_match_gives_the_constructor_arguments(cls, args):
    t = cls(*args)
    assert _fields_by_match(t) == args
    assert cls(*args) == t and hash(cls(*args)) == hash(t)


def test_fields_are_read_only():
    d = DataDecl("D", loc=(1, 1))
    for obj, field in [(X, "name"), (App(X, X), "fn"), (d, "name"),
                       (d, "loc"), (PatVar("y"), "name"), (REFL, "name")]:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
    with pytest.raises(AttributeError):
        del X.name
    assert X.name == "x" and d.loc == (1, 1)


def test_equality_is_class_sensitive():
    assert Var("x") != DataRef("x")
    assert FunRef("f") != AxiomRef("f")
    assert Var("x") == Var("x") and Var("x") != Var("y")
    assert Refl() == REFL and Var("x") != "x"


def test_equality_and_hash_ignore_locations():
    ctor = CtorDecl("c", args=(Binder("x", A),), loc=(3, 3))
    d1 = DataDecl("D", ctors=(ctor,), loc=(1, 1))
    d2 = DataDecl("D", ctors=(replace(ctor, loc=(9, 2)),), loc=(7, 1))
    assert d1 == d2 and hash(d1) == hash(d2)
    assert d1 != replace(d2, name="E")


def test_keyword_construction_and_defaults():
    f = FunDecl(name="f", binders=(), ret=A, partial=True)
    assert (f.clauses, f.body, f.partial, f.loc) == ((), None, True, None)
    assert PatCtor("D", "c").args == ()
    with pytest.raises(TypeError):
        Var()
    with pytest.raises(TypeError):
        replace(X, nom="y")


def test_repr_keeps_the_dataclass_format():
    assert repr(App(Var("f"), Var("x"))) == (
        "App(fn=Var(name='f'), arg=Var(name='x'))")
    assert repr(REFL) == "Refl()"
    assert repr(DataDecl("D", loc=(1, 2))) == (
        "DataDecl(name='D', params=(), indices=(), ctors=(), loc=(1, 2))")
