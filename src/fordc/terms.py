"""Core term language: named binders, capture-avoiding substitution, alpha
equality, and spine helpers.

Terms are immutable; all operations return fresh trees. Alpha-equivalent
terms are identified by `alpha_eq`, not by `==` (which compares binder
names literally).
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Univ(Term):
    level: int  # 0 or 1


@dataclass(frozen=True)
class Pi(Term):
    binder: str
    domain: Term
    codomain: Term


@dataclass(frozen=True)
class Lam(Term):
    binder: str
    body: Term


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class DataRef(Term):
    name: str


@dataclass(frozen=True)
class CtorRef(Term):
    data: str
    name: str


@dataclass(frozen=True)
class FunRef(Term):
    name: str


@dataclass(frozen=True)
class AxiomRef(Term):
    name: str


@dataclass(frozen=True)
class IdType(Term):
    carrier: Term
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Refl(Term):
    pass


@dataclass(frozen=True)
class JElim(Term):
    motive: Term
    base: Term
    path: Term


TYPE0 = Univ(0)
TYPE1 = Univ(1)
REFL = Refl()


def mk_app(head: Term, *args: Term) -> Term:
    t = head
    for a in args:
        t = App(t, a)
    return t


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Decompose nested applications into (head, [arg1, ..., argn])."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(x):
            return frozenset((x,))
        case Pi(x, dom, cod):
            return free_vars(dom) | (free_vars(cod) - {x})
        case Lam(x, body):
            return free_vars(body) - {x}
        case App(f, a):
            return free_vars(f) | free_vars(a)
        case IdType(c, l, r):
            return free_vars(c) | free_vars(l) | free_vars(r)
        case JElim(m, b, p):
            return free_vars(m) | free_vars(b) | free_vars(p)
        case _:
            return frozenset()


def fresh_name(base: str, *avoid: Container[str]) -> str:
    """Deterministic fresh-name scheme: base, base1, base2, ..., skipping
    every name in any of the `avoid` containers."""
    root = base.rstrip("0123456789") or "x"
    name, i = base, 0
    while any(name in a for a in avoid):
        i += 1
        name = f"{root}{i}"
    return name


def subst_term(t: Term, sub: dict[str, Term]) -> Term:
    """Capture-avoiding simultaneous substitution."""
    if not sub:
        return t
    match t:
        case Var(x):
            return sub.get(x, t)
        case Pi(x, dom, cod):
            x2, cod2, sub2 = _under_binder(x, cod, sub)
            return Pi(x2, subst_term(dom, sub), subst_term(cod2, sub2))
        case Lam(x, body):
            x2, body2, sub2 = _under_binder(x, body, sub)
            return Lam(x2, subst_term(body2, sub2))
        case App(f, a):
            return App(subst_term(f, sub), subst_term(a, sub))
        case IdType(c, l, r):
            return IdType(subst_term(c, sub), subst_term(l, sub), subst_term(r, sub))
        case JElim(m, b, p):
            return JElim(subst_term(m, sub), subst_term(b, sub), subst_term(p, sub))
        case _:
            return t


def _under_binder(x: str, body: Term, sub: dict[str, Term]):
    sub = {k: v for k, v in sub.items() if k != x and k in free_vars(body)}
    if not sub:
        return x, body, sub
    hit = set()
    for v in sub.values():
        hit |= free_vars(v)
    if x not in hit:
        return x, body, sub
    avoid = set(hit) | set(free_vars(body)) | set(sub)
    x2 = fresh_name(x, avoid)
    return x2, subst_term(body, {x: Var(x2)}), sub


def map_term(t: Term, fn) -> Term:
    """Rebuild a term bottom-up, applying fn to every node. Not
    binder-aware: fn should only rewrite closed reference nodes."""
    match t:
        case Pi(x, dom, cod):
            t = Pi(x, map_term(dom, fn), map_term(cod, fn))
        case Lam(x, body):
            t = Lam(x, map_term(body, fn))
        case App(f, a):
            t = App(map_term(f, fn), map_term(a, fn))
        case IdType(c, l, r):
            t = IdType(map_term(c, fn), map_term(l, fn), map_term(r, fn))
        case JElim(m, b, p):
            t = JElim(map_term(m, fn), map_term(b, fn), map_term(p, fn))
        case _:
            pass
    return fn(t)


def alpha_eq(a: Term, b: Term, env: tuple[tuple[str, str], ...] = ()) -> bool:
    match a, b:
        case Var(x), Var(y):
            for ax, by in reversed(env):
                if ax == x or by == y:
                    return ax == x and by == y
            return x == y
        case Univ(i), Univ(j):
            return i == j
        case Pi(x, d1, c1), Pi(y, d2, c2):
            return alpha_eq(d1, d2, env) and alpha_eq(c1, c2, env + ((x, y),))
        case Lam(x, b1), Lam(y, b2):
            return alpha_eq(b1, b2, env + ((x, y),))
        case App(f1, a1), App(f2, a2):
            return alpha_eq(f1, f2, env) and alpha_eq(a1, a2, env)
        case DataRef(n1), DataRef(n2):
            return n1 == n2
        case CtorRef(d1, n1), CtorRef(d2, n2):
            return d1 == d2 and n1 == n2
        case FunRef(n1), FunRef(n2):
            return n1 == n2
        case AxiomRef(n1), AxiomRef(n2):
            return n1 == n2
        case IdType(c1, l1, r1), IdType(c2, l2, r2):
            return (alpha_eq(c1, c2, env) and alpha_eq(l1, l2, env)
                    and alpha_eq(r1, r2, env))
        case Refl(), Refl():
            return True
        case JElim(m1, b1, p1), JElim(m2, b2, p2):
            return (alpha_eq(m1, m2, env) and alpha_eq(b1, b2, env)
                    and alpha_eq(p1, p2, env))
        case _:
            return False
