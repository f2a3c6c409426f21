"""A reference evaluator for fordc terms: plain substitution and recursion.

It is the specification that `fordc.normalize.Normalizer` is compared with
(`tests/test_reference.py`), so it is written to be plainly right rather
than fast. There is no value type and no environment: a value is a term
with nothing left to compute outside binders, and a binder is entered by
substituting (`subst_term`, which avoids capture) for its variable. The
rules are those of the module docstring of `fordc/normalize.py`:

- call-by-value: the arguments of a spine become values, left to right,
  before its head runs;
- a `J` evaluates its path first; on `refl` it is its base, else its
  motive and then its base are evaluated and it is stuck;
- a `Pi` evaluates its domain, an `Id` its carrier and both endpoints;
- clauses fire first-match: a clause with a clashing column is skipped,
  and the first clause without one fires when it matches everywhere and
  is stuck otherwise; path constructors never compute;
- β, `J` on `refl` and a fired clause each spend one step of the budget.

The normal form reads a value back: the normal forms of its parts, with
each binder kept and its body normalized under it.
"""

from __future__ import annotations

from fordc.decls import PatInacc, PatRefl, PatVar
from fordc.terms import (CtorRef, FunRef, IdType, JElim, Lam, Pi, Refl,
                         mk_app, spine, subst_term)

MATCH, STUCK, CLASH = "match", "stuck", "clash"


class OutOfSteps(Exception):
    pass


class Reference:
    def __init__(self, sig, budget: int):
        self.sig, self.budget, self.steps = sig, budget, 0

    def step(self):
        self.steps += 1
        if self.steps > self.budget:
            raise OutOfSteps

    def normalize(self, t):
        return self.read_back(self.value(t))

    def value(self, t):
        """The value of `t`. A reduct is evaluated in a turn of this loop,
        not by a recursive call, so a long reduction does not exhaust the
        interpreter stack."""
        while True:
            head, args = spine(t)
            args = [self.value(a) for a in args]
            if isinstance(head, JElim):
                head = JElim(head.motive, head.base, self.value(head.path))
            reduct = self.reduct(head, args)
            if reduct is None:
                return self.rigid(head, args)
            t = reduct

    def reduct(self, head, args):
        """What `head`, which is no application, applied to the values
        `args` reduces to in one step, or None; a `J` has a value as its
        path."""
        if isinstance(head, Lam) and args:
            self.step()
            return mk_app(subst_term(head.body, {head.binder: args[0]}),
                          *args[1:])
        if isinstance(head, FunRef):
            fired = self.fire(head.name, args)
            if fired is not None:
                self.step()
                return mk_app(*fired)
        if isinstance(head, JElim) and isinstance(spine(head.path)[0], Refl):
            self.step()
            return mk_app(head.base, *args)
        return None

    def rigid(self, head, args):
        """`head` applied to `args` when it does not reduce: a `J`, a `Pi`
        and an `Id` first evaluate their other parts."""
        if isinstance(head, JElim):
            motive = self.value(head.motive)
            head = JElim(motive, self.value(head.base), head.path)
        elif isinstance(head, Pi):
            head = Pi(head.binder, self.value(head.domain), head.codomain)
        elif isinstance(head, IdType):
            head = IdType(self.value(head.carrier), self.value(head.lhs),
                          self.value(head.rhs))
        return mk_app(head, *args)

    def fire(self, name, args):
        """`[rhs, *rest]` for the clause of `name` that fires on `args`,
        with its pattern variables replaced, or None."""
        f = self.sig.funs.get(name)
        if f is None or len(args) < len(f.binders):
            return None
        for clause in f.clauses:
            sub = {}
            outcome = self.match_all(clause.pats, args, sub)
            if outcome == STUCK:
                return None
            if outcome == MATCH:
                return [subst_term(clause.rhs, sub), *args[len(f.binders):]]
        return None

    def match_all(self, pats, vals, sub) -> str:
        outcome = MATCH
        for pat, val in zip(pats, vals):
            r = self.match(pat, val, sub)
            if r == CLASH:
                return CLASH
            if r == STUCK:
                outcome = STUCK
        return outcome

    def match(self, pat, val, sub) -> str:
        if isinstance(pat, PatVar):
            if pat.name != "_":
                sub[pat.name] = val
            return MATCH
        if isinstance(pat, PatInacc):
            return MATCH
        head, args = spine(val)
        if isinstance(pat, PatRefl):
            return MATCH if isinstance(head, Refl) else STUCK
        if isinstance(head, Refl):  # against a constructor pattern
            return CLASH
        if not isinstance(head, CtorRef):
            return STUCK
        data = self.sig.datas[head.data]
        if data.ctors[head.name].is_path:
            return STUCK
        if (head.data, head.name) != (pat.data, pat.name):
            return CLASH
        slots = args[len(data.decl.params):]
        if len(slots) != len(pat.args):
            return STUCK
        return self.match_all(pat.args, slots, sub)

    def read_back(self, v):
        head, args = spine(v)
        if isinstance(head, Lam):
            head = Lam(head.binder, self.normalize(head.body))
        elif isinstance(head, Pi):
            head = Pi(head.binder, self.read_back(head.domain),
                      self.normalize(head.codomain))
        elif isinstance(head, IdType):
            head = IdType(self.read_back(head.carrier),
                          self.read_back(head.lhs), self.read_back(head.rhs))
        elif isinstance(head, JElim):
            head = JElim(self.read_back(head.motive),
                         self.read_back(head.base), self.read_back(head.path))
        return mk_app(head, *(self.read_back(a) for a in args))
