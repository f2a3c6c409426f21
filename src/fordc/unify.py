"""First-order index unification.

Rigid-rigid constructor heads decompose, flexible variables solve with an
occurs check, and anything with a neutral head (a stuck function call, an
axiom, a path constructor) blocks the problem: matching against such an
index is reported Stuck, never silently rejected or accepted.

Mismatch is reserved for genuinely distinct rigid constructor heads; an
occurs-check failure is conservatively Stuck.
"""

from __future__ import annotations

from .normalize import Normalizer
from .signature import Signature
from .terms import (CtorRef, Refl, Term, Var, alpha_eq, free_vars, spine,
                    subst_term)


class UnifySuccess:
    subst: dict[str, Term]

    def __init__(self, subst):
        self.subst = subst


class UnifyMismatch:
    lhs: Term
    rhs: Term

    def __init__(self, lhs, rhs):
        self.lhs = lhs
        self.rhs = rhs


class UnifyStuck:
    blocker: Term

    def __init__(self, blocker):
        self.blocker = blocker


UnifyResult = UnifySuccess | UnifyMismatch | UnifyStuck


def _rigid_ctor(sig: Signature, t: Term):
    """Point-constructor spine (head, args), or None."""
    head, args = spine(t)
    if isinstance(head, CtorRef) and not sig.ctor(head.data, head.name).is_path:
        return head, args
    return None


def unify_terms(sig: Signature, nrm: Normalizer,
                pairs: list[tuple[Term, Term]],
                flex_row: set[str], flex_ctx: set[str]) -> UnifyResult:
    """Solve pairs left to right; solutions on row variables are preferred
    when both sides are flexible."""
    sub: dict[str, Term] = {}
    work = list(pairs)

    def solve(x: str, t: Term) -> UnifyResult | None:
        if x in free_vars(t):
            return UnifyStuck(t)
        for k in list(sub):
            sub[k] = subst_term(sub[k], {x: t})
        sub[x] = t
        return None

    while work:
        a, b = work.pop(0)
        a = nrm.normalize(subst_term(a, sub))
        b = nrm.normalize(subst_term(b, sub))
        if alpha_eq(a, b):
            continue
        a_var = a.name if isinstance(a, Var) else None
        b_var = b.name if isinstance(b, Var) else None
        a_flex = a_var is not None and (a_var in flex_row or a_var in flex_ctx)
        b_flex = b_var is not None and (b_var in flex_row or b_var in flex_ctx)
        if a_flex and b_flex:
            # tie-break toward the availability-row variable
            if b_var in flex_row and a_var not in flex_row:
                a, b = b, a
                a_var = a.name
            fail = solve(a_var, b)
        elif a_flex:
            fail = solve(a_var, b)
        elif b_flex:
            fail = solve(b_var, a)
        else:
            ra, rb = _rigid_ctor(sig, a), _rigid_ctor(sig, b)
            if ra and rb:
                (ha, aas), (hb, bas) = ra, rb
                if (ha.data, ha.name) != (hb.data, hb.name) or len(aas) != len(bas):
                    return UnifyMismatch(a, b)
                work = list(zip(aas, bas)) + work
            elif isinstance(a, Refl) and isinstance(b, Refl):
                continue
            elif (ra or isinstance(a, Refl)) and (rb or isinstance(b, Refl)):
                return UnifyMismatch(a, b)
            else:
                return UnifyStuck(b if ra or isinstance(a, Refl) else a)
            fail = None
        if fail is not None:
            return fail
    return UnifySuccess(sub)

