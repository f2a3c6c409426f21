"""Enumeration of closed canonical values, used by the round-trip suites.

Depth counts constructor nesting along argument positions; index values
forced by availability rows are taken as solved by unification, and the
family driver enumerates index instantiations to the same depth. A case
whose unification is stuck, as every case over a higher inductive type's
constructors is, is decided on the closed values by conversion instead.
"""

from __future__ import annotations

from .kernel import split_cases
from .normalize import Normalizer
from .signature import Signature
from .terms import Term, Var, free_vars, subst_term
from .unify import UnifyStuck, UnifySuccess


def canonical_values(sig: Signature, ty: Term, depth: int,
                     nrm: Normalizer | None = None) -> list[Term]:
    """All closed canonical inhabitants of a type up to the given depth."""
    nrm = nrm or Normalizer(sig)
    if depth <= 0:
        return []
    tyn = nrm.normalize(ty)
    out: list[Term] = []
    for c, slots, value, res, eqs in split_cases(sig, nrm, tyn, set()) or ():
        if isinstance(res, UnifyStuck):
            out += _by_conversion(sig, nrm, slots, value, eqs, depth)
            continue
        if not isinstance(res, UnifySuccess):
            continue  # a clash: no value of this constructor fits
        n_row = len(c.patvars) if c else 0
        if any(free_vars(subst_term(Var(b.name), res.subst))
               for b in slots[:n_row]):
            continue  # index leaves a row variable open; not closed here
        for sub in _fill_args(sig, nrm, slots[n_row:], res.subst, depth - 1):
            out.append(subst_term(value, sub))
    return out


def _by_conversion(sig, nrm, slots, value, eqs, depth) -> list[Term]:
    """The values of a stuck case of a split on a closed type: each
    instantiation of its slots, row variables included, under which each
    of its equations is convertible (for `refl`, with no slots, the
    endpoints)."""
    return [subst_term(value, sub)
            for sub in _fill_args(sig, nrm, slots, {}, depth - 1)
            if all(nrm.convertible(subst_term(a, sub), subst_term(b, sub))
                   for a, b in eqs)]


def _fill_args(sig, nrm, slots, sub, depth):
    """Each extension of `sub` by canonical values for `slots` in order,
    each slot's type instantiated at the values chosen before it."""
    if not slots:
        yield sub
        return
    head, rest = slots[0], slots[1:]
    for v in canonical_values(sig, subst_term(head.type, sub), depth, nrm):
        yield from _fill_args(sig, nrm, rest, {**sub, head.name: v}, depth)


def canonical_family_values(sig: Signature, data: str, params: list[Term],
                            depth: int) -> list[tuple[list[Term], Term]]:
    """(index values, inhabitant) pairs for a datatype at closed indices
    enumerated to the same depth."""
    nrm = Normalizer(sig)
    d = sig.datas[data].decl
    psub = {b.name: v for b, v in zip(d.params, params)}
    out: list[tuple[list[Term], Term]] = []
    for sub in _fill_args(sig, nrm, d.indices, psub, depth):
        vec = [sub[b.name] for b in d.indices]
        ty = sig.data_applied(data, params, vec)
        out.extend((vec, v) for v in canonical_values(sig, ty, depth, nrm))
    return out
