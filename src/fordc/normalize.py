"""Normalization by evaluation: terms evaluate to values with closures,
values read back (`quote`) to named terms, and conversion compares values
head by head.

A value has one of two shapes. A `VLam` is a closure: a binder and a body
over an environment. A `VRigid` is a head that does not compute applied to
a tuple of argument values; besides the usual heads (a variable,
constructor, datatype, axiom, universe, `refl`, or a function call that
cannot fire) its head may be one of the term classes `IdType`, `JElim` and
`Pi`. One rule holds for every class head: its arguments are the node's
own parts as values, then the arguments the node is applied to (see
`VRigid`). Evaluation is call-by-value: the arguments of a spine evaluate
before its head. Every position, tail or not, runs on the explicit stack
of `Normalizer.eval`, so deep evaluation spends the step budget and heap,
not the interpreter stack; only `_match` recurses, to the depth of the
written pattern.

Clauses fire first-match, column by column: a clause with a column whose
constructor clashes with the value's is skipped, even when an earlier
column is neutral. The first clause with no clashing column fires when all
its columns match, and the call is stuck when that clause has a neutral
column. Path constructors never compute.

The step budget counts β-reductions, `J` on `refl` and clause firings. It
applies afresh to each `normalize` call and to each side of a
`convertible` call.

A term built only of variables, constructors, datatypes, axioms, universes
and `refl`, applied to one another and under `Id`, is inert: none of its
nodes can compute or bind, so it is its own normal form, as a term whose
head cannot compute is its own `whnf`. `normalize` returns such a term as
it is, and `convertible` accepts one that is `alpha_eq` to the other side,
without evaluating either. Inert terms spend no steps either way.
"""

from __future__ import annotations

from functools import partial

from .decls import PatInacc, PatRefl, Pattern, PatVar
from .diagnostics import StepBudgetExceeded
from .signature import Signature
from .terms import (App, AxiomRef, CtorRef, DataRef, FunRef, IdType, JElim,
                    Lam, Pi, Refl, Term, Univ, Var, alpha_eq, free_vars,
                    fresh_name, mk_app, spine)

DEFAULT_STEP_BUDGET = 100000

# outcomes of matching a pattern; `|` combines two that are not _NOMATCH
_OK, _STUCK, _NOMATCH = 0, 1, 2

# frame kinds of `Normalizer.eval`
_ARGS, _PATH, _PARTS = 0, 1, 2


class VRigid:
    """A head that does not compute, applied to a tuple of argument values.

    The head is a term, or one of three term classes, whose arguments are
    the node's parts, then the arguments the node is applied to. The parts:

    - `IdType`: the carrier, then the two endpoints;
    - `JElim`: the motive, the base and a path that is not `refl`;
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


def _rebuild(head: Term | type, *args: Term) -> Term:
    """`head` applied to the read-back `args`; a class head first takes its
    parts (see `VRigid`)."""
    if head is Pi:
        (domain, lam), args = args[:2], args[2:]
        head = Pi(lam.binder, domain, lam.body)
    elif type(head) is type:  # IdType or JElim
        head, args = head(*args[:3]), args[3:]
    return mk_app(head, *args)


_INERT_LEAVES = frozenset((Var, CtorRef, DataRef, AxiomRef, Univ, Refl))


def _inert(t: Term) -> bool:
    """Whether `t` is inert (see the module docstring), on an explicit
    stack: normal forms can be deep."""
    work = [t]
    while work:
        t = work.pop()
        cls = t.__class__
        if cls is IdType:
            work += (t.carrier, t.lhs, t.rhs)
            continue
        while cls is App:  # down the spine: its head must be a leaf
            work.append(t.arg)
            t = t.fn
            cls = t.__class__
        if cls not in _INERT_LEAVES:
            return False
    return True


class Normalizer:
    def __init__(self, sig: Signature, step_budget: int = DEFAULT_STEP_BUDGET):
        self.sig = sig
        self.budget = step_budget
        self.steps = 0

    def normalize(self, t: Term) -> Term:
        """Full normal form; each call gets a fresh step budget."""
        self.steps = 0
        if _inert(t):
            return t
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
        differ. Each side is evaluated by a normalizer of its own, with its
        own step budget."""
        if _inert(a) and alpha_eq(a, b):
            return True
        left = Normalizer(self.sig, self.budget)
        right = Normalizer(self.sig, self.budget)
        work = [(left.eval(a, {}), right.eval(b, {}))]
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
                work.append((left.instantiate(u, x), right.instantiate(v, x)))
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
        """The value of `t` under `env`, computed in one loop over an explicit
        stack of frames. Each frame is `[kind, terms, vals, env, a, b]`: it
        evaluates `terms` under `env` left to right into `vals`, then
        resumes. By kind, it waits for

        - `_ARGS`: the arguments of a spine; then the head `a` runs, applied
          to `vals` and the pending arguments `b`;
        - `_PATH`: the path of the `J` node `a`; `refl` fires it, applied to
          `b`, and any other path pushes a `_PARTS` frame;
        - `_PARTS`: the parts of a `Pi`, an `Id` or a stuck `J`; then the
          value is the class head `a` applied to `vals` and the arguments
          `b` pending at the node.
        """
        stack: list[list] = []
        args: list[Value] = []  # pending arguments of the head `t`
        while True:
            cls = type(t)
            if cls is App:
                t, targs = spine(t)
                stack.append([_ARGS, targs, [], env, t, args])
                t, args = targs[0], []
                continue
            elif cls is Var:
                v = env.get(t.name)
                if v is None:
                    v = VRigid(t, tuple(args))
                elif args:
                    if type(v) is VLam:
                        self._step()
                        env = {**v.env, v.binder: args[0]}
                        t, args = v.body, args[1:]
                        continue
                    if type(v.head) is FunRef:
                        t, args = v.head, [*v.args, *args]  # may now be saturated
                        continue
                    v = VRigid(v.head, v.args + tuple(args))
            elif cls is Lam:
                if args:
                    self._step()
                    t, env, args = t.body, {**env, t.binder: args[0]}, args[1:]
                    continue
                v = VLam(t.binder, t.body, env)
            elif cls is FunRef:
                fired = self._match_clauses(t.name, args)
                if fired is not None:
                    self._step()
                    env, t, args = fired
                    continue
                v = VRigid(t, tuple(args))
            elif cls is JElim:
                stack.append([_PATH, (t.path,), [], env, t, args])
                t, args = t.path, []
                continue
            elif cls is Pi:
                stack.append([_PARTS, (t.domain,), [], env, Pi,
                              (VLam(t.binder, t.codomain, env), *args)])
                t, args = t.domain, []
                continue
            elif cls is IdType:
                stack.append([_PARTS, (t.carrier, t.lhs, t.rhs), [], env,
                              IdType, args])
                t, args = t.carrier, []
                continue
            else:  # constructor, datatype, axiom, universe, refl
                v = VRigid(t, tuple(args))
            # `v` is a value: hand it to the frames waiting for it
            while stack:
                kind, terms, vals, env, a, b = stack[-1]
                vals.append(v)
                if len(vals) < len(terms):
                    t, args = terms[len(vals)], []
                    break
                stack.pop()
                if kind == _ARGS:
                    t, args = a, vals + b
                    break
                if kind == _PARTS:
                    v = VRigid(a, (*vals, *b))
                elif type(v) is VRigid and type(v.head) is Refl:  # _PATH
                    self._step()
                    t, args = a.base, b
                    break
                else:
                    stack.append([_PARTS, (a.motive, a.base), [], env, JElim,
                                  (v, *b)])
                    t, args = a.motive, []
                    break
            else:
                return v

    def _match_clauses(self, name: str, args: list[Value]):
        """`(env, rhs, rest)` for the first clause of the function `name`
        that matches its arguments, with `rest` the arguments beyond its
        arity. None when the function is unknown or unsaturated, when no
        clause matches, or when the first clause that does not fail is
        stuck: first-match cannot skip past it."""
        info = self.sig.funs.get(name)
        if info is None or len(args) < len(info.binders):
            return None
        for clause in info.clauses:
            env: Env = {}
            stuck = _OK
            for pat, val in zip(clause.pats, args):
                r = self._match(pat, val, env)
                if r == _NOMATCH:
                    break
                stuck |= r
            else:
                return None if stuck else (env, clause.rhs,
                                           args[len(info.binders):])
        return None

    def _match(self, pat: Pattern, val: Value, env: Env) -> int:
        cls = type(pat)
        if cls is PatVar:
            if pat.name != "_":
                env[pat.name] = val
            return _OK
        if cls is PatInacc:
            return _OK
        head = val.head if type(val) is VRigid else None
        if cls is PatRefl:
            return _OK if type(head) is Refl else _STUCK
        if type(head) is not CtorRef:  # `pat` is a PatCtor
            return _NOMATCH if type(head) is Refl else _STUCK
        data = self.sig.datas[head.data]
        if data.ctors[head.name].is_path:
            return _STUCK
        if head.name != pat.name or head.data != pat.data:
            return _NOMATCH
        slots = val.args[len(data.decl.params):]
        if len(slots) != len(pat.args):
            return _STUCK
        worst = _OK
        for sp, sv in zip(pat.args, slots):
            r = self._match(sp, sv, env)
            if r == _NOMATCH:
                return _NOMATCH
            worst |= r
        return worst

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
                    todo.append((partial(_rebuild, head), len(item.args),
                                 None))
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
