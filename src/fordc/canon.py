"""Enumeration of closed canonical values, used by the round-trip suites.

Depth counts constructor nesting along argument positions; index values
forced by availability rows are taken as solved by unification, and the
family driver enumerates index instantiations to the same depth.
"""

from __future__ import annotations

from .decls import Binder
from .normalize import Normalizer
from .signature import Signature
from .terms import (REFL, CtorRef, IdType, Term, Var, free_vars, mk_app,
                    subst_term)
from .unify import UnifySuccess, unify_terms


def canonical_values(sig: Signature, ty: Term, depth: int,
                     nrm: Normalizer | None = None) -> list[Term]:
    """All closed canonical inhabitants of a type up to the given depth."""
    nrm = nrm or Normalizer(sig)
    if depth <= 0:
        return []
    tyn = nrm.normalize(ty)
    if isinstance(tyn, IdType):
        return [REFL] if nrm.convertible(tyn.lhs, tyn.rhs) else []
    split = sig.split_data_type(tyn)
    if split is None:
        return []
    dinfo, us, vs = split
    out: list[Term] = []
    for c in dinfo.point_ctors():
        slots, avail, row = sig.open_ctor(c, us, set())
        res = unify_terms(sig, nrm, list(zip(vs, avail)), row, set())
        if not isinstance(res, UnifySuccess):
            continue
        sub = res.subst
        n_row = len(c.patvars)
        solved = [subst_term(Var(b.name), sub) for b in slots[:n_row]]
        if any(free_vars(v) for v in solved):
            continue  # index leaves a row variable open; not closed here
        for filled in _fill_args(sig, nrm, slots[n_row:], sub, depth - 1):
            out.append(mk_app(CtorRef(c.data, c.name), *us, *solved, *filled))
    return out


def _fill_args(sig, nrm, slots, sub, depth):
    if not slots:
        yield []
        return
    head, rest = slots[0], slots[1:]
    for v in canonical_values(sig, subst_term(head.type, sub), depth, nrm):
        for tail in _fill_args(sig, nrm, rest, {**sub, head.name: v}, depth):
            yield [v] + tail


def canonical_family_values(sig: Signature, data: str, params: list[Term],
                            depth: int) -> list[tuple[list[Term], Term]]:
    """(index values, inhabitant) pairs for a datatype at closed indices
    enumerated to the same depth."""
    nrm = Normalizer(sig)
    info = sig.datas[data]
    out: list[tuple[list[Term], Term]] = []

    def indices(tele, chosen, sub):
        if not tele:
            yield list(chosen)
            return
        b = tele[0]
        for v in canonical_values(sig, subst_term(b.type, sub), depth, nrm):
            yield from indices(tele[1:], chosen + [v], {**sub, b.name: v})

    psub = {b.name: v for b, v in zip(info.params, params)}
    for vec in indices([Binder(b.name, subst_term(b.type, psub))
                        for b in info.indices], [], {}):
        ty = sig.data_applied(data, params, vec)
        for v in canonical_values(sig, ty, depth, nrm):
            out.append((vec, v))
    return out
