"""Normalization by evaluation: terms evaluate to values with closures,
values read back (`quote`) to named terms, and conversion compares values
head by head.

A value has one of two shapes. A `VLam` is a closure: a binder and a body
over an environment. A `VRigid` is a head that does not compute applied to
a tuple of argument values; besides the usual heads (a variable,
constructor, datatype, axiom, universe, `refl`, or a function call that
cannot fire) its head may be one of the term classes `IdType`, `JElim` and
`Pi`, whose arguments are the node's own subterms as values (see
`VRigid`). Evaluation is call-by-value: the arguments of a spine evaluate
before its head. Tail positions (β, `J` on `refl`, a fired clause)
continue in a loop, so a chain of unfoldings spends the step budget
instead of the interpreter stack.

Clauses fire first-match. A neutral scrutinee never skips a clause: if a
pattern requires a constructor and the value has a neutral head, the whole
call stays stuck. Path constructors never compute.

The step budget counts β-reductions, `J` on `refl` and clause firings. It
applies afresh to each `normalize` call and to each side of a
`convertible` call.
"""

from __future__ import annotations

from functools import partial

from .decls import PatCtor, PatInacc, PatRefl, Pattern, PatVar
from .diagnostics import StepBudgetExceeded
from .signature import FunInfo, Signature
from .terms import (App, CtorRef, FunRef, IdType, JElim, Lam, Pi, Refl, Term,
                    Var, free_vars, fresh_name, mk_app, spine)

DEFAULT_STEP_BUDGET = 100000

_NOMATCH = "nomatch"
_STUCK = "stuck"


class VRigid:
    """A head that does not compute, applied to a tuple of argument values.

    The head is a term, or one of three term classes whose arguments stand
    for the node's subterms:

    - `IdType`: the carrier, then the two endpoints;
    - `JElim`: the motive, the base and a path that is not `refl`, then the
      arguments the `J` is applied to;
    - `Pi`: the domain, then the codomain as a `VLam` over the binder.
    """
    __slots__ = ("head", "args")

    def __init__(self, head: Term | type, args: tuple = ()):
        self.head, self.args = head, args


class VLam:
    __slots__ = ("binder", "body", "env")

    def __init__(self, binder: str, body: Term, env: dict):
        self.binder, self.body, self.env = binder, body, env


Value = VRigid | VLam
Env = dict[str, Value]


def _jspine(m: Term, b: Term, p: Term, *args: Term) -> Term:
    return mk_app(JElim(m, b, p), *args)


def _pi(domain: Term, lam: Lam) -> Term:
    return Pi(lam.binder, domain, lam.body)


# how `quote` rebuilds the node of a class head from its read-back arguments
_REBUILD = {IdType: IdType, JElim: _jspine, Pi: _pi}


class Normalizer:
    def __init__(self, sig: Signature, step_budget: int = DEFAULT_STEP_BUDGET):
        self.sig = sig
        self.budget = step_budget
        self.steps = 0

    def normalize(self, t: Term) -> Term:
        """Full normal form; each call gets a fresh step budget."""
        self.steps = 0
        return self.quote(self.eval(t, {}), t)

    def whnf(self, t: Term) -> Term:
        """`t` itself when its head cannot compute, else its normal form."""
        head, args = spine(t)
        if isinstance(head, (FunRef, JElim)) or (args and isinstance(head, Lam)):
            return self.normalize(t)
        return t

    def convertible(self, a: Term, b: Term) -> bool:
        """Compare the values of `a` and `b` one pair of heads at a time,
        stopping at the first mismatch. There is no η: `\\x => f x` and `f`
        differ. Each side spends its own step budget."""
        spent = [0, 0]

        def on(side: int, fn, *args):
            self.steps = spent[side]
            v = fn(*args)
            spent[side] = self.steps
            return v

        work = [(on(0, self.eval, a, {}), on(1, self.eval, b, {}))]
        fresh = 0
        while work:
            u, v = work.pop()
            if u is v:
                continue
            if type(u) is not type(v):
                return False
            if isinstance(u, VRigid):
                if u.head != v.head or len(u.args) != len(v.args):
                    return False
                work.extend(zip(u.args, v.args))
            else:
                # '#' never occurs in a parsed or generated name
                x = VRigid(Var(f"#{fresh}"))
                fresh += 1
                work.append((on(0, self.instantiate, u, x),
                             on(1, self.instantiate, v, x)))
        return True

    def _step(self):
        self.steps += 1
        if self.steps > self.budget:
            raise StepBudgetExceeded(
                f"normalization exceeded the step budget of {self.budget}")

    # -- evaluation ------------------------------------------------------------

    def instantiate(self, clo: VLam, v: Value) -> Value:
        return self.eval(clo.body, {**clo.env, clo.binder: v})

    def eval(self, t: Term, env: Env) -> Value:
        args: list[Value] = []  # pending arguments of the head `t`
        while True:
            cls = type(t)
            if cls is App:
                t, targs = spine(t)
                args = [self.eval(a, env) for a in targs] + args
            elif cls is Var:
                v = env.get(t.name)
                if v is None:
                    return VRigid(t, tuple(args))
                if not args:
                    return v
                if isinstance(v, VLam):
                    self._step()
                    t, env, args = v.body, {**v.env, v.binder: args[0]}, args[1:]
                elif isinstance(v.head, FunRef):
                    t, args = v.head, [*v.args, *args]  # may now be saturated
                else:
                    return VRigid(v.head, v.args + tuple(args))
            elif cls is Lam:
                if not args:
                    return VLam(t.binder, t.body, env)
                self._step()
                t, env, args = t.body, {**env, t.binder: args[0]}, args[1:]
            elif cls is FunRef:
                info = self.sig.funs.get(t.name)
                if info is None or len(args) < info.arity:
                    return VRigid(t, tuple(args))
                fired = self._match_clauses(info, args[:info.arity])
                if fired is None:
                    return VRigid(t, tuple(args))
                self._step()
                env, t = fired
                args = args[info.arity:]
            elif cls is JElim:
                path = self.eval(t.path, env)
                if not (isinstance(path, VRigid) and isinstance(path.head, Refl)):
                    return VRigid(JElim, (self.eval(t.motive, env),
                                          self.eval(t.base, env), path, *args))
                self._step()
                t = t.base
            elif cls is Pi:
                return VRigid(Pi, (self.eval(t.domain, env),
                                   VLam(t.binder, t.codomain, env)))
            elif cls is IdType:
                return VRigid(IdType, (self.eval(t.carrier, env),
                                       self.eval(t.lhs, env),
                                       self.eval(t.rhs, env)))
            else:  # constructor, datatype, axiom, universe, refl
                return VRigid(t, tuple(args))

    def _match_clauses(self, info: FunInfo, args: list[Value]):
        for clause in info.clauses:
            env: Env = {}
            outcome = "ok"
            for pat, val in zip(clause.pats, args):
                r = self._match(pat, val, env)
                if r == _NOMATCH:
                    outcome = _NOMATCH
                    break
                if r == _STUCK:
                    outcome = _STUCK
            if outcome == "ok":
                return env, clause.rhs
            if outcome == _STUCK:
                return None  # first-match: cannot skip past a stuck clause
        return None

    def _match(self, pat: Pattern, val: Value, env: Env) -> str:
        head = val.head if isinstance(val, VRigid) else None
        match pat:
            case PatVar(x):
                if x != "_":
                    env[x] = val
                return "ok"
            case PatInacc(_):
                return "ok"
            case PatRefl():
                return "ok" if isinstance(head, Refl) else _STUCK
            case PatCtor(d, c, subs):
                if isinstance(head, CtorRef):
                    if self.sig.ctor(head.data, head.name).is_path:
                        return _STUCK
                    if (head.data, head.name) != (d, c):
                        return _NOMATCH
                    n_params = len(self.sig.datas[d].params)
                    slots = val.args[n_params:]
                    if len(slots) != len(subs):
                        return _STUCK
                    worst = "ok"
                    for sp, sv in zip(subs, slots):
                        r = self._match(sp, sv, env)
                        if r == _NOMATCH:
                            return _NOMATCH
                        if r == _STUCK:
                            worst = _STUCK
                    return worst
                if isinstance(head, Refl):
                    return _NOMATCH
                return _STUCK
        raise AssertionError(f"unknown pattern {pat!r}")

    # -- read-back ---------------------------------------------------------------

    def quote(self, v: Value, source: Term) -> Term:
        """Read `v`, the value of `source`, back as a named term. A binder
        keeps its own name unless that clashes with a name in scope: a free
        variable of `source` or an enclosing binder. Works on an explicit
        stack, so deep values do not exhaust the interpreter's."""
        scope: set[str] | None = None  # computed at the first binder
        out: list[Term] = []
        # a value to read back; (closure, name) to go under a binder; or
        # (make, n, name) to build a node from the last n results
        todo: list = [v]
        while todo:
            item = todo.pop()
            if isinstance(item, VRigid):
                head = item.head
                if item.args:
                    make = (_REBUILD[head] if type(head) is type
                            else partial(mk_app, head))
                    todo.append((make, len(item.args), None))
                    todo.extend(reversed(item.args))
                else:
                    out.append(head)
            elif isinstance(item, VLam):
                if scope is None:
                    scope = set(free_vars(source))
                name = item.binder
                if name in scope:
                    name = fresh_name(name, scope)
                leave = None if name == "_" else name
                todo += [(partial(Lam, name), 1, leave), (item, name)]
            elif len(item) == 2:
                clo, name = item
                if name != "_":
                    scope.add(name)
                todo.append(self.instantiate(clo, VRigid(Var(name))))
            else:
                make, n, leave = item
                parts = out[-n:]
                del out[-n:]
                out.append(make(*parts))
                if leave is not None:
                    scope.discard(leave)
        return out[0]
