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
not the interpreter stack; only matching a nested constructor pattern
recurses, to the depth of the written pattern. A value that needs no
computation is made where it is met, not in a turn of the loop: the
leading variable arguments of a spine are read when the spine is met, so
a spine of variables alone pushes no frame, and a constructor's spine is
its value when its frame resumes.

Clauses fire first-match, column by column: a clause with a column whose
constructor clashes with the value's is skipped, even when an earlier
column is neutral. The first clause with no clashing column fires when all
its columns match, and the call is stuck when that clause has a neutral
column. Path constructors never compute. Clauses are read through a
table per function (`_table`), kept in the signature's `tables` until
`Signature.add_fun` replaces the function.

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

from .decls import FunDecl, PatCtor, PatRefl, Pattern, PatVar
from .diagnostics import StepBudgetExceeded
from .signature import Signature
from .terms import (App, AxiomRef, CtorRef, DataRef, FunRef, IdType, JElim,
                    Lam, Pi, Refl, Term, Univ, Var, alpha_eq, free_vars,
                    fresh_name, mk_app)

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


def _row(sig: Signature, pats: tuple[Pattern, ...]) -> tuple:
    """Items `(column, constructor, datatype, parameter count, sub)`:
    `(i, None, None, 0, name)` for a variable, `(i, None, None, 0, None)`
    for `refl`, `sub = (row, arity)` for a constructor, none for the rest."""
    row = []
    for i, pat in enumerate(pats):
        cls = pat.__class__
        if cls is PatVar and pat.name != "_":
            row.append((i, None, None, 0, pat.name))
        elif cls is PatRefl:
            row.append((i, None, None, 0, None))
        elif cls is PatCtor:
            row.append((i, pat.name, pat.data,
                        len(sig.datas[pat.data].decl.params),
                        (_row(sig, pat.args), len(pat.args))))
    return tuple(row)


def _table(sig: Signature, f: FunDecl) -> tuple:
    """`(rows, datatype, dispatch)`: each clause's `(row, rhs)` and, by
    each point constructor of the first column's datatype, the rows whose
    first pattern is that constructor or no constructor."""
    rows = tuple((_row(sig, c.pats), c.rhs) for c in f.clauses)
    firsts = [c.pats[0] for c in f.clauses] if f.binders else []
    data = next((p.data for p in firsts if p.__class__ is PatCtor), None)
    return rows, data, {
        c.name: tuple(r for r, p in zip(rows, firsts)
                      if p.__class__ is not PatCtor or p.name == c.name)
        for c in (sig.datas[data].point_ctors() if data else ())}


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
        head = t
        while head.__class__ is App:
            head = head.fn
        cls = head.__class__
        if cls is FunRef or cls is JElim or (cls is Lam and head is not t):
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

        - `_ARGS`: the arguments of a spine after its leading variables;
          then the head `a` runs, applied to `vals` and the pending
          arguments `b`, or a constructor head is applied to them;
        - `_PATH`: the path of the `J` node `a`; `refl` fires it, applied to
          `b`, and any other path pushes a `_PARTS` frame;
        - `_PARTS`: the parts of a `Pi`, an `Id` or a stuck `J`; then the
          value is the class head `a` applied to `vals` and the arguments
          `b` pending at the node.
        """
        stack: list[list] = []
        args: list[Value] = []  # pending arguments of the head `t`
        while True:
            cls = t.__class__
            if cls is App:  # read the spine's leading variables at once
                terms = []
                while cls is App:
                    terms.append(t.arg)
                    t = t.fn
                    cls = t.__class__
                terms.reverse()
                vals = []
                for a in terms:
                    if a.__class__ is not Var:
                        stack.append([_ARGS, terms, vals, env, t, args])
                        t, args = a, []
                        break
                    vals.append(env.get(a.name) or VRigid(a))
                else:  # every argument is a variable: run the head now
                    args = vals + args
                continue
            elif cls is CtorRef:
                v = VRigid(t, tuple(args))
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
            else:  # datatype, axiom, universe, refl
                v = VRigid(t, tuple(args))
            # `v` is a value: hand it to the frames waiting for it
            while stack:
                kind, terms, vals, env, a, b = stack[-1]
                vals.append(v)
                if len(vals) < len(terms):
                    t, args = terms[len(vals)], []
                    break
                stack.pop()
                if kind == _ARGS and a.__class__ is not CtorRef:
                    t, args = a, vals + b
                    break
                if kind != _PATH:  # parts, or a constructor's arguments
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
        sig = self.sig
        info = sig.funs.get(name)
        if info is None or len(args) < len(info.binders):
            return None
        table = sig.tables.get(name)
        if table is None:
            table = sig.tables[name] = _table(sig, info)
        rows, data, dispatch = table
        if dispatch:  # the rows a constructor heading the first argument takes
            head = args[0].head if args[0].__class__ is VRigid else None
            if head.__class__ is CtorRef and head.data == data:
                rows = dispatch.get(head.name, rows)
        for row, rhs in rows:
            env: Env = {}
            r = self._match_row(row, args, env)
            if r != _NOMATCH:
                return None if r else (env, rhs, args[len(info.binders):])
        return None

    def _match_row(self, row: tuple, vals, env: Env) -> int:
        """Match `vals` against a row of `_table`, binding its variables in
        `env`. `_NOMATCH` when any constructor clashes, else `_STUCK` when
        any value is neutral where the row needs a constructor or `refl`."""
        worst = _OK
        for i, ctor, data, np, sub in row:
            val = vals[i]
            if ctor is None:
                if sub is not None:  # a variable
                    env[sub] = val
                elif (val.__class__ is not VRigid
                      or val.head.__class__ is not Refl):
                    worst = _STUCK
                continue
            head = val.head if val.__class__ is VRigid else None
            if head.__class__ is not CtorRef:
                if head.__class__ is Refl:
                    return _NOMATCH
                worst = _STUCK
            elif head.name != ctor or head.data != data:
                # `ctor` is a point constructor; a path constructor is stuck
                if not self.sig.datas[head.data].ctors[head.name].is_path:
                    return _NOMATCH
                worst = _STUCK
            else:
                slots = val.args[np:]
                r = (self._match_row(sub[0], slots, env)
                     if len(slots) == sub[1] else _STUCK)
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
