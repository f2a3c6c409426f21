"""Core term language: named binders, capture-avoiding substitution, alpha
equality, and spine helpers.

Terms are immutable; all operations return fresh trees. Alpha-equivalent
terms are identified by `alpha_eq`, not by `==` (which compares binder
names literally).
"""

from __future__ import annotations

from collections.abc import Container, Iterator
from operator import is_

from .node import node


@node
class Term:
    pass


@node
class Var(Term):
    name: str


@node
class Univ(Term):
    level: int  # 0 or 1


@node
class Pi(Term):
    binder: str
    domain: Term
    codomain: Term


@node
class Lam(Term):
    binder: str
    body: Term


@node
class App(Term):
    fn: Term
    arg: Term


@node
class DataRef(Term):
    name: str


@node
class CtorRef(Term):
    data: str
    name: str


@node
class FunRef(Term):
    name: str


@node
class AxiomRef(Term):
    name: str


@node
class IdType(Term):
    carrier: Term
    lhs: Term
    rhs: Term


@node
class Refl(Term):
    pass


@node
class JElim(Term):
    motive: Term
    base: Term
    path: Term


REFL = Refl()

# The subterm fields of each compound class, in order; a class missing here
# is a leaf. `Pi` and `Lam` bind their binder in their last subterm.
_KIDS = {App: ("fn", "arg"), Pi: ("domain", "codomain"), Lam: ("body",),
         IdType: ("carrier", "lhs", "rhs"), JElim: ("motive", "base", "path")}


def _kids(t: Term) -> list[Term]:
    kids = []  # a loop, not a comprehension: cheaper per node on 3.11
    for f in _KIDS.get(t.__class__, ()):
        kids.append(getattr(t, f))
    return kids


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


def spines(t: Term) -> Iterator[tuple[Term, list[Term]]]:
    """Every maximal application spine `(head, args)` in `t`, outermost
    first, on an explicit stack: each head's subterms, then its arguments,
    are visited in turn. A term that is no application is a spine with no
    arguments. Read-only; `map_term` is the traversal that rebuilds."""
    stack = [t]
    while stack:
        head, args = spine(stack.pop())
        yield head, args
        stack += reversed(_kids(head) + args)


def data_refs(t: Term) -> set[str]:
    """Names of the datatypes that `t` mentions."""
    return {h.name for h, _ in spines(t) if isinstance(h, DataRef)}


_NO_VARS: frozenset[str] = frozenset()


def free_vars(t: Term) -> frozenset[str]:
    cls = t.__class__
    if cls is App:
        return free_vars(t.fn) | free_vars(t.arg)
    if cls is Var:
        return frozenset((t.name,))
    if cls not in _KIDS:
        return _NO_VARS
    if cls is Pi or cls is Lam:
        # the binder chain in a loop, so only its domains recurse
        chain = []
        while cls is Pi or cls is Lam:
            chain.append(t)
            t = t.codomain if cls is Pi else t.body
            cls = t.__class__
        out = set(free_vars(t))
        for b in reversed(chain):
            out.discard(b.binder)
            if b.__class__ is Pi:
                out |= free_vars(b.domain)
        return frozenset(out)
    out = _NO_VARS
    for k in _kids(t):
        out |= free_vars(k)
    return out


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
    """Capture-avoiding simultaneous substitution. A node whose subterms
    all come back as the same objects is returned as it is, so a subterm
    that mentions no substituted name is shared, not copied. A `Pi`/`Lam`
    chain is walked in a loop, so only its domains recurse."""
    cls = t.__class__
    if cls is App and sub:
        fn, arg = subst_term(t.fn, sub), subst_term(t.arg, sub)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    if cls is Var:
        return sub.get(t.name, t)
    if not sub or cls not in _KIDS:
        return t
    if cls is not Pi and cls is not Lam:
        kids, out = _kids(t), []
        for k in kids:
            out.append(subst_term(k, sub))
        return t if all(map(is_, out, kids)) else cls(*out)
    # down the chain, renaming each binder first if it captures; the map
    # only loses keys down the chain, so a binder that no substituted term
    # mentions cannot capture and needs no look at the rest of the chain
    brought = set().union(*map(free_vars, sub.values()))
    chain = []
    while (cls is Pi or cls is Lam) and sub:
        domain = subst_term(t.domain, sub) if cls is Pi else None
        x2, body = t.binder, t.codomain if cls is Pi else t.body
        if x2 in brought:
            x2, body, sub = _under_binder(x2, body, sub)
        elif x2 in sub:
            sub = {k: v for k, v in sub.items() if k != x2}
        chain.append((t, x2, domain))
        t = body
        cls = t.__class__
    out = subst_term(t, sub)
    # `_under_binder` hands back a binder it keeps as the very same str
    for b, x2, domain in reversed(chain):
        if b.__class__ is Pi:
            same = x2 is b.binder and domain is b.domain and out is b.codomain
            out = b if same else Pi(x2, domain, out)
        else:
            out = b if x2 is b.binder and out is b.body else Lam(x2, out)
    return out


def _under_binder(x: str, body: Term, sub: dict[str, Term]):
    fv = free_vars(body)
    sub = {k: v for k, v in sub.items() if k != x and k in fv}
    if not sub:
        return x, body, sub
    hit = set()
    for v in sub.values():
        hit |= free_vars(v)
    if x not in hit:
        return x, body, sub
    x2 = fresh_name(x, hit, fv, sub)
    return x2, subst_term(body, {x: Var(x2)}), sub


def map_term(t: Term, fn) -> Term:
    """Rebuild a term bottom-up, applying fn to every node. Not
    binder-aware: fn should only rewrite closed reference nodes."""
    if t.__class__ in _KIDS:
        out = [t.binder] if isinstance(t, (Pi, Lam)) else []
        for k in _kids(t):
            out.append(map_term(k, fn))
        t = t.__class__(*out)
    return fn(t)


def alpha_eq(a: Term, b: Term) -> bool:
    """Equality up to the names of bound variables, on an explicit stack.
    Each pending pair carries the binders in scope at it, innermost first,
    as a chain `(a's name, b's name, outer chain)`; a variable is bound by
    the innermost binder that names it on either side."""
    work = [(a, b, None)]
    while work:
        a, b, env = work.pop()
        cls = a.__class__
        if cls is not b.__class__:
            return False
        if cls is Var:
            while env is not None:
                ax, by, env = env
                if ax == a.name or by == b.name:
                    if ax != a.name or by != b.name:
                        return False
                    break
            else:
                if a.name != b.name:
                    return False
        elif cls in _KIDS:
            kids, others = _kids(a), _kids(b)
            inner = env
            if cls is Pi or cls is Lam:
                inner = (a.binder, b.binder, env)
            work.append((kids.pop(), others.pop(), inner))
            for k, other in zip(reversed(kids), reversed(others)):
                work.append((k, other, env))
        elif a != b:
            return False
    return True
