"""First-order index unification without K (after Cockx, Devriese and
Piessens, "Pattern matching without K", and Cockx and Devriese,
"Proof-relevant unification"). Each pair meets three rules in turn:
- Solution: a flexible variable, a row variable first when both sides are,
  is solved by the other side; an occurs-check failure is Stuck, so
  `x ≐ x` is Stuck, not deleted.
- Injectivity and conflict: point constructors decompose into the pairs of
  their non-parameter arguments, or clash (Mismatch) when the heads differ;
  `refl` clashes with a constructor. A datatype with a path constructor
  may join any two of its point constructors, so those are neither
  injective nor disjoint.
- Otherwise the pair has a neutral side (a stuck call, an axiom, a
  constructor of a higher inductive type) and is Stuck, never silently
  rejected or accepted.
There is no deletion rule: it is axiom K. An alpha-equal pair decomposes
like any other, so it unifies only when it is made of point constructors
alone, and `refl ≐ refl` (K one level up) is Stuck.
"""

from __future__ import annotations

from .normalize import Normalizer
from .signature import Signature
from .terms import CtorRef, Refl, Term, Var, free_vars, spine, subst_term


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
    """(head, non-parameter arguments) of a spine of a point constructor of
    a datatype without path constructors, or of `refl`; else None."""
    if isinstance(t, Refl):
        return t, ()
    head, args = spine(t)
    if isinstance(head, CtorRef):
        info = sig.datas[head.data]
        if not info.has_path:
            return head, args[len(info.params):]
    return None


def _flex(t: Term, flex_row: set[str], flex_ctx: set[str]) -> int:
    """2 for a row variable, 1 for another flexible variable, else 0."""
    name = t.name if isinstance(t, Var) else None
    return 2 if name in flex_row else int(name in flex_ctx)


def unify_terms(sig: Signature, nrm: Normalizer,
                pairs: list[tuple[Term, Term]],
                flex_row: set[str], flex_ctx: set[str]) -> UnifyResult:
    """Apply the rules to `pairs`, left to right."""
    sub: dict[str, Term] = {}
    work = list(pairs)
    while work:
        a, b = work.pop(0)
        a = nrm.normalize(subst_term(a, sub))
        b = nrm.normalize(subst_term(b, sub))
        fa, fb = _flex(a, flex_row, flex_ctx), _flex(b, flex_row, flex_ctx)
        if fb > fa:
            a, b, fa = b, a, fb
        if fa:
            if a.name in free_vars(b):
                return UnifyStuck(b)
            for k in sub:
                sub[k] = subst_term(sub[k], {a.name: b})
            sub[a.name] = b
            continue
        ra, rb = _rigid_ctor(sig, a), _rigid_ctor(sig, b)
        if not (ra and rb) or isinstance(a, Refl) and isinstance(b, Refl):
            return UnifyStuck(b if ra else a)
        if ra[0] != rb[0] or len(ra[1]) != len(rb[1]):
            return UnifyMismatch(a, b)
        work[:0] = zip(ra[1], rb[1])
    return UnifySuccess(sub)
