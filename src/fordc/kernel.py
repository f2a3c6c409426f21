"""Bidirectional type checker for the declaration language.

Declarations check in order into a Signature seeded with the built-in
combinators (subst, idp, sym, trans — all defined through J). Data
declarations admit overlapping and redundant availability rows; path
constructors are installed as axiomatic identities with no computation
rule. A row's constructor pattern fills the constructor's declared slots
by one simultaneous substitution. A clause's constructor (or refl) pattern
is one case of a split, opened by `open_case`: its unification can rewrite
earlier pattern variables, and a stuck one is E-UNIFY-STUCK rather than
guessed at. An inaccessible pattern must be forced. Coverage splits the
clause rows per `split_ctors` and skips a case that an exact row (led
there by its own patterns) takes with only variables and refl below.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .decls import (AxiomDecl, Binder, Clause, DataDecl, FunDecl, MutualBlock,
                    PatCtor, PatInacc, PatRefl, Pattern, PatVar, SourceModule,
                    Telescope, members, telescope_pi, telescope_vars)
from .diagnostics import CoverageError, FordcError, TypeCheckError
from .normalize import DEFAULT_STEP_BUDGET, Normalizer
from .parser import NameEnv, parse
from .printer import print_pattern, print_term
from .signature import CtorInfo, DataInfo, Signature
from .terms import (REFL, App, AxiomRef, CtorRef, DataRef, FunRef, IdType,
                    JElim, Lam, Pi, Refl, Term, Univ, Var, data_refs,
                    free_vars, fresh_name, mk_app, spine, spines, subst_term)
from .unify import (UnifyMismatch, UnifyResult, UnifyStuck, UnifySuccess,
                    unify_terms)

Ctx = dict[str, Term]
Case = tuple[CtorInfo | None, list[Binder], Term, UnifyResult,
             list[tuple[Term, Term]]]


def _located(e: FordcError, loc: tuple[int, int] | None) -> FordcError:
    """`e`, given the location `loc`, the enclosing one's, if it has none."""
    if e.loc is None:
        e.loc = loc
    return e


def split_ctors(sig: Signature, tyn: Term) -> list[CtorInfo | None] | None:
    """The cases of a split on the normal type `tyn`, each for `open_case`:
    the point constructors of its datatype, or `[None]`, the one `refl`
    case of an identity type. None when `tyn` cannot split."""
    split = sig.split_data_type(tyn)
    if split is not None:
        return split[0].point_ctors()
    return [None] if isinstance(tyn, IdType) else None


def open_case(sig: Signature, nrm: Normalizer, tyn: Term,
              c: CtorInfo | None, taken: set[str],
              fixed: Sequence[str | None] = (), prefix: str = "") -> Case:
    """The case of the point constructor `c` in a split on the normal type
    `tyn`: its slots from `Signature.ctor_slots`, the constructor applied
    to the parameters and slots, its row unified with the indices, and
    those (index, row term) equations. When `c` is None, the `refl` case
    of an identity type, unifying the endpoints. The variables in `taken`
    are flexible."""
    if c is None:
        eqs = [(tyn.lhs, tyn.rhs)]
        return None, [], REFL, unify_terms(sig, nrm, eqs, set(), taken), eqs
    _, us, vs = sig.split_data_type(tyn)
    slots, avail, row = sig.ctor_slots(c, us, taken, fixed, prefix)
    value = mk_app(CtorRef(c.data, c.name), *us, *telescope_vars(slots))
    eqs = list(zip(vs, avail))
    return c, slots, value, unify_terms(sig, nrm, eqs, row, taken), eqs


class Checker:
    def __init__(self, sig: Signature, step_budget: int = DEFAULT_STEP_BUDGET):
        self.sig = sig
        self.nrm = Normalizer(sig, step_budget)

    def nf(self, t: Term) -> Term:
        return self.nrm.normalize(t)

    def conv(self, a: Term, b: Term) -> bool:
        return self.nrm.convertible(a, b)

    def _mismatch(self, expected: Term, actual: Term, what: str):
        e, a = print_term(self.nf(expected)), print_term(self.nf(actual))
        return TypeCheckError(f"{what}: expected {e}, got {a}",
                              evidence={"expected": e, "actual": a})

    # -- bidirectional core ------------------------------------------------

    def infer(self, ctx: Ctx, t: Term) -> Term:
        if t.__class__ is App:  # the commonest node, ahead of the `match`
            tf = self.nrm.whnf(self.infer(ctx, t.fn))
            if not isinstance(tf, Pi):
                raise self._mismatch(Pi("_", Var("?"), Var("?")), tf,
                                     "application head")
            self.check(ctx, t.arg, tf.domain)
            return subst_term(tf.codomain, {tf.binder: t.arg})
        match t:
            case Var(x):
                if x not in ctx:
                    raise TypeCheckError(f"unbound variable {x!r}")
                return ctx[x]
            case Univ(0):
                return Univ(1)
            case Univ(1):
                raise TypeCheckError("Type1 has no type in this theory",
                                     code="E-UNIVERSE")
            case Pi(x, dom, cod):
                ld = self.check_is_type(ctx, dom)
                x2, cod2 = self._open(ctx, x, cod)
                lc = self.check_is_type({**ctx, x2: dom}, cod2)
                if max(ld, lc) > 1:
                    raise TypeCheckError(
                        "function type exceeds the universe hierarchy",
                        code="E-UNIVERSE")
                return Univ(max(ld, lc))
            case Lam(_, _):
                raise TypeCheckError(
                    "cannot infer the type of a lambda; use it where a "
                    "function type is expected")
            case DataRef(n):
                return self.sig.datas[n].type
            case CtorRef(d, c):
                return self.sig.ctor(d, c).type
            case FunRef(n):
                return self.sig.funs[n].type()
            case AxiomRef(n):
                return self.sig.axioms[n].type
            case IdType(c, l, r):
                lvl = self.check_is_type(ctx, c)
                if lvl > 1:
                    raise TypeCheckError("identity type exceeds the universe "
                                         "hierarchy", code="E-UNIVERSE")
                self.check(ctx, l, c)
                self.check(ctx, r, c)
                return Univ(lvl)
            case Refl():
                raise TypeCheckError(
                    "cannot infer the type of refl; use it where an identity "
                    "type is expected")
            case JElim(m, b, p):
                return self._infer_j(ctx, m, b, p)
        raise AssertionError(f"cannot infer {t!r}")

    def _infer_j(self, ctx: Ctx, m: Term, b: Term, p: Term) -> Term:
        tp = self.nrm.whnf(self.infer(ctx, p))
        if not isinstance(tp, IdType):
            raise self._mismatch(IdType(Var("?"), Var("?"), Var("?")), tp,
                                 "J target")
        carrier, x, y = tp.carrier, tp.lhs, tp.rhs
        if isinstance(m, Lam) and isinstance(m.body, Lam):
            z, inner = self._open(ctx, m.binder, m.body)
            q, body = self._open({**ctx, z: carrier}, inner.binder, inner.body)
            ctx2 = {**ctx, z: carrier, q: IdType(carrier, x, Var(z))}
            self.check_is_type(ctx2, body)
        else:
            tm = self.nf(self.infer(ctx, m))
            ok = (isinstance(tm, Pi) and self.conv(tm.domain, carrier)
                  and isinstance(tm.codomain, Pi))
            if ok:
                inner = tm.codomain.domain
                ok = (isinstance(inner, IdType)
                      and self.conv(inner.lhs, x)
                      and inner.rhs == Var(tm.binder)
                      and isinstance(self.nf(tm.codomain.codomain), Univ))
            if not ok:
                raise TypeCheckError(
                    f"J motive has type {print_term(tm)}, expected a two-"
                    f"argument family over {print_term(carrier)} and an "
                    "identity type")
        self.check(ctx, b, mk_app(m, x, REFL))
        return mk_app(m, y, p)

    def check(self, ctx: Ctx, t: Term, expected: Term):
        exp = self.nrm.whnf(expected)
        match t:
            case Lam(x, body):
                if not isinstance(exp, Pi):
                    raise self._mismatch(exp, Pi(x, Var("?"), Var("?")),
                                         "lambda")
                z, body2 = self._open(ctx, x, body)
                cod = subst_term(exp.codomain, {exp.binder: Var(z)})
                self.check({**ctx, z: exp.domain}, body2, cod)
            case Refl():
                if not isinstance(exp, IdType):
                    raise self._mismatch(exp, IdType(Var("?"), Var("?"),
                                                     Var("?")), "refl")
                if not self.conv(exp.lhs, exp.rhs):
                    raise self._mismatch(exp.lhs, exp.rhs,
                                         "refl endpoints differ")
            case _:
                got = self.infer(ctx, t)
                if not self.conv(got, exp):
                    raise self._mismatch(exp, got, "type mismatch")

    def check_is_type(self, ctx: Ctx, t: Term) -> int:
        if t.__class__ is Univ and t.level == 1:
            return 2
        ty = self.nrm.whnf(self.infer(ctx, t))
        if not isinstance(ty, Univ):
            raise self._mismatch(Univ(0), ty, "expected a type")
        return ty.level

    def _open(self, ctx: Ctx, x: str, body: Term) -> tuple[str, Term]:
        if x == "_" or x in ctx or self.sig.has_name(x):
            x2 = fresh_name(x if x != "_" else "x", ctx, free_vars(body),
                            self.sig.all_names())
            return x2, subst_term(body, {x: Var(x2)})
        return x, body

    # -- declarations --------------------------------------------------------

    def check_telescope(self, ctx: Ctx, tele: Telescope, what: str) -> Ctx:
        ctx = dict(ctx)
        for b in tele:
            if b.name in ctx:
                raise TypeCheckError(
                    f"{what}: binder {b.name!r} bound twice",
                    code="E-NAME-CLASH")
            self.check_is_type(ctx, b.type)
            if b.name != "_":
                ctx[b.name] = b.type
        return ctx

    def _declare(self, d: DataDecl) -> Ctx:
        """Check a datatype's header and add it to the signature; returns
        the context of its parameters."""
        try:
            for b in d.params + d.indices:
                if d.name in data_refs(b.type):
                    raise TypeCheckError(
                        f"data {d.name}: {d.name} cannot appear in its own "
                        "parameters or indices")
            pctx = self.check_telescope({}, d.params,
                                        f"data {d.name} parameters")
            self.check_telescope(pctx, d.indices, f"data {d.name} indices")
        except FordcError as e:
            raise _located(e, d.loc)
        self.sig.add_data(DataInfo(d))
        return pctx

    def check_data(self, d: DataDecl):
        pctx = self._declare(d)
        for c in d.ctors:
            self.sig.add_ctor(self._check_ctor(d, c, pctx, {d.name}))

    def _check_ctor(self, d: DataDecl, c, pctx: Ctx,
                    group: set[str]) -> CtorInfo:
        try:
            if c.is_path:
                self.check_is_type(pctx, c.path_type)
                tail = c.path_type
                while isinstance(tail, Pi):
                    tail = tail.codomain
                if not isinstance(tail, IdType):
                    raise TypeCheckError(f"path constructor {c.name} must "
                                         "target an identity type")
                return CtorInfo(d.name, c.name, is_path=True,
                                type=telescope_pi(d.params, c.path_type))
            if len(c.availability) != len(d.indices):
                raise TypeCheckError(
                    f"constructor {c.name}: availability row has "
                    f"{len(c.availability)} patterns but {d.name} has "
                    f"{len(d.indices)} indices", code="E-ARITY")
            patvars: list[Binder] = []
            avail_terms, avail_pats = self._elab_avail_seq(
                d.indices, c.availability, patvars, pctx, c, {})
            actx = dict(pctx)
            for b in patvars:
                actx[b.name] = b.type
            args: list[Binder] = []
            for b in c.args:
                if b.name in actx:
                    raise TypeCheckError(
                        f"constructor {c.name}: argument {b.name!r} shadows "
                        "an earlier binder", code="E-NAME-CLASH")
                self.check_is_type(actx, b.type)
                self._check_positive(b.type, group, f"{d.name}.{c.name}")
                actx[b.name] = b.type
                args.append(b)
            result = self.sig.data_applied(d.name, telescope_vars(d.params),
                                           list(avail_terms))
            full = telescope_pi(tuple(list(d.params) + patvars + args), result)
            return CtorInfo(d.name, c.name, tuple(patvars), tuple(args),
                            tuple(avail_pats), tuple(avail_terms), False, full)
        except FordcError as e:
            raise _located(e, c.loc)

    def _elab_avail_seq(self, tele, pats, patvars: list[Binder], pctx: Ctx,
                        c, sub: dict[str, Term]):
        """Elaborate `pats` against the declared telescope `tele`, whose
        types take one simultaneous substitution of `sub` and the earlier
        results; a `_` is named after its entry in `tele`."""
        terms: list[Term] = []
        out: list[Pattern] = []
        for b, pat in zip(tele, pats):
            t, p2 = self._elab_avail_pat(pat, self.nf(subst_term(b.type, sub)),
                                         patvars, pctx, b.name, c)
            sub[b.name] = t
            terms.append(t)
            out.append(p2)
        return tuple(terms), tuple(out)

    def _elab_avail_pat(self, pat: Pattern, expected: Term,
                        patvars: list[Binder], pctx: Ctx, base: str, c):
        match pat:
            case PatVar(x):
                if x in pctx:
                    raise TypeCheckError(
                        f"constructor {c.name}: row variable {x!r} shadows a "
                        "parameter", code="E-NAME-CLASH")
                name = fresh_name(base, pctx, {b.name for b in patvars},
                                  self.sig.all_names()) if x == "_" else x
                patvars.append(Binder(name, expected))
                return Var(name), PatVar(name)
            case PatCtor(dn, cn, subs):
                split = self.sig.split_data_type(expected)
                if split is None or split[0].decl.name != dn:
                    raise TypeCheckError(
                        f"constructor {c.name}: pattern head {cn} does not "
                        f"construct {print_term(expected)}")
                dinfo, us, vs = split
                if vs:
                    raise TypeCheckError(
                        f"constructor {c.name}: availability patterns over "
                        f"the indexed datatype {dn} are not supported")
                cinfo = dinfo.ctors[cn]
                slots = cinfo.patvars + cinfo.args
                if len(subs) != len(slots):
                    raise TypeCheckError(
                        f"constructor {c.name}: pattern {cn} takes "
                        f"{len(slots)} arguments, given {len(subs)}",
                        code="E-ARITY")
                # the slot types are over the constructor's own parameters
                params = {b.name: u for b, u in zip(dinfo.decl.params, us)}
                sub_terms, sub_pats = self._elab_avail_seq(
                    slots, subs, patvars, pctx, c, params)
                return (mk_app(CtorRef(dn, cn), *us, *sub_terms),
                        PatCtor(dn, cn, sub_pats))
            case PatInacc(t):
                ctx = dict(pctx)
                for b in patvars:
                    ctx[b.name] = b.type
                self.check(ctx, t, expected)
                return t, pat
            case PatRefl():
                raise TypeCheckError(
                    f"constructor {c.name}: refl is not supported in "
                    "availability rows")
        raise AssertionError(f"unknown pattern {pat!r}")

    def _check_positive(self, ty: Term, group: set[str], where: str) -> None:
        """Strict positivity of the constructor argument type `ty` in the
        mutual `group`: no member of `group` in a `Pi` domain along the
        codomain chain, and at its end either a member applied to arguments
        that mention none, or no member at all. A loop, not a nested
        recursive function, so the check leaves no reference cycle."""
        while isinstance(ty, Pi):
            _no_occ(ty.domain, group, where)
            ty = ty.codomain
        head, args = spine(ty)
        if isinstance(head, DataRef) and head.name in group:
            for a in args:
                _no_occ(a, group, where)
            return
        _no_occ(ty, group, where)

    def check_mutual(self, block: MutualBlock):
        group = {d.name for d in block.decls}
        for d in block.decls:
            for b in d.params + d.indices:
                dep = data_refs(b.type) & group
                if dep:
                    raise TypeCheckError(
                        f"mutual datatype {d.name} is indexed by group "
                        f"member {sorted(dep)[0]}; inductive-inductive "
                        "blocks are not supported", loc=d.loc)
        pctxs = [self._declare(d) for d in block.decls]
        for d, pctx in zip(block.decls, pctxs):
            for c in d.ctors:
                self.sig.add_ctor(self._check_ctor(d, c, pctx, group))

    def check_axiom(self, a: AxiomDecl):
        self.check_is_type({}, a.type)
        self.sig.add_axiom(a)

    def check_fun(self, f: FunDecl):
        ctx = self.check_telescope({}, f.binders, f"def {f.name}")
        self.check_is_type(ctx, f.ret)
        # no clause yet, so a recursive call does not compute meanwhile
        self.sig.add_fun(FunDecl(f.name, f.binders, f.ret))
        # a single body is the one clause binding every argument
        clauses = f.clauses if f.body is None else (
            Clause(tuple(PatVar(b.name) for b in f.binders), f.body),)
        for clause in clauses:
            self._check_clause(f, clause)
        self.sig.add_fun(FunDecl(f.name, f.binders, f.ret, clauses))
        self._check_coverage(f)
        self._check_termination(f)

    def check_module(self, m: SourceModule):
        for decl in m.decls:
            try:
                for d in members(decl):
                    if self.sig.has_name(d.name):
                        raise TypeCheckError(
                            f"declaration {d.name!r} collides with an "
                            "existing name", code="E-NAME-CLASH")
                if isinstance(decl, DataDecl):
                    self.check_data(decl)
                elif isinstance(decl, FunDecl):
                    self.check_fun(decl)
                elif isinstance(decl, AxiomDecl):
                    self.check_axiom(decl)
                elif isinstance(decl, MutualBlock):
                    self.check_mutual(decl)
                else:
                    raise AssertionError(f"unknown declaration {decl!r}")
            except FordcError as e:
                raise _located(e, decl.loc)
            except RecursionError:
                raise TypeCheckError("declaration nested too deeply to check",
                                     code="E-DEPTH", loc=decl.loc) from None

    # -- clauses ---------------------------------------------------------------

    def _check_clause(self, f: FunDecl, clause: Clause):
        try:
            if len(clause.pats) != len(f.binders):
                raise TypeCheckError(
                    f"def {f.name}: clause has {len(clause.pats)} patterns "
                    f"but the function takes {len(f.binders)} arguments",
                    code="E-ARITY")
            st = _ClauseState(self)
            for binder, pat in zip(f.binders, clause.pats):
                expected = subst_term(binder.type, st.binder_map)
                st.binder_map[binder.name] = st.elab(pat, expected)
            st.resolve_inaccessible()
            ret = subst_term(f.ret, st.binder_map)
            self.check(st.ctx, st.current(clause.rhs), ret)
        except FordcError as e:
            raise _located(e, clause.loc)

    def _check_coverage(self, f: FunDecl):
        cols = [(b.name, b.type) for b in f.binders]
        # a row is (exact, patterns): exact while only its own constructor
        # and refl patterns, and columns no row splits, led it to the split
        rows = [(True, list(c.pats)) for c in self.sig.funs[f.name].clauses]
        self._cover(f.name, cols, rows, [], set())

    def _cover(self, fname: str, cols, rows, acc, gen: set[str]):
        if not rows:
            if self._some_column_empty(fname, cols, gen):
                return
            shape = " ".join(acc + ["_"] * len(cols)) or "<empty row>"
            raise CoverageError(
                f"def {fname}: missing canonical case: {shape}")
        if any(_all_vars(r) for _, r in rows):
            return  # a row of variables covers every case below
        (x, ty) = cols[0]
        # one pass: the rows by head constructor (None for refl), with their
        # sub-patterns in front, and the variable rows' later columns
        heads: dict[str | None, list] = {}
        wild = []
        for exact, r in rows:
            if isinstance(r[0], (PatVar, PatInacc)):
                wild.append(r[1:])
            else:
                heads.setdefault(getattr(r[0], "name", None), []).append(
                    (exact, [*getattr(r[0], "args", ()), *r[1:]]))
        if not heads:
            # the consumed column stands for an arbitrary value: keep its
            # variable flexible while splitting later columns
            self._cover(fname, cols[1:], [(e, r[1:]) for e, r in rows],
                        acc + ["_"], gen | {x})
            return
        tyn = self.nf(ty)
        taken = {n for n, _ in cols} | gen
        for c in split_ctors(self.sig, tyn):
            head = c and c.name
            took = heads.get(head, [])
            if any(exact and _vars_or_refl(r) for exact, r in took):
                # that row's clause opened this case, and every case on the
                # way here, in this order and at these types up to renaming,
                # then unified each of its refl patterns, the one case of
                # its identity type, at this instance too
                continue
            # a refl pattern has no sub-patterns, a variable one per slot; a
            # filled row's refls were unified at a more general type
            fill = [PatVar("_")] * (len(c.patvars) + len(c.args) if c else 0)
            rows2 = took + [(False, fill + r) for r in wild]
            _, slots, value, res, _ = open_case(self.sig, self.nrm, tyn, c,
                                                taken)
            if isinstance(res, UnifyMismatch):
                continue
            if isinstance(res, UnifyStuck):
                raise _undecided(fname, c, res)
            # the split variable becomes the case's value in later columns
            sub = {**res.subst, x: subst_term(value, res.subst)}
            cols2 = [(n, subst_term(t, sub)) for n, t in
                     [(b.name, b.type) for b in slots] + cols[1:]]
            self._cover(fname, cols2, rows2, acc + [head or "refl"],
                        set(gen))

    def _some_column_empty(self, fname: str, cols, gen: set[str]) -> bool:
        """A telescope with a visibly uninhabited column is covered
        vacuously (every case of a split on it clashes). When no column is,
        but one has a stuck case and no case that unifies, coverage cannot
        be decided."""
        colnames = {n for n, _ in cols} | gen
        undecided = None
        for _, ty in cols:
            tyn = self.nf(ty)
            ctors = split_ctors(self.sig, tyn)
            if ctors is None:
                continue
            stuck = None
            for c in ctors:
                res = open_case(self.sig, self.nrm, tyn, c, colnames)[3]
                if isinstance(res, UnifySuccess):
                    break
                if stuck is None and isinstance(res, UnifyStuck):
                    stuck = c, res
            else:
                if stuck is None:
                    return True
                undecided = undecided or stuck
        if undecided:
            raise _undecided(fname, *undecided)
        return False

    def _check_termination(self, f: FunDecl):
        if f.partial:
            return
        calls = [(c, args) for c in self.sig.funs[f.name].clauses
                 for head, args in spines(c.rhs)
                 if isinstance(head, FunRef) and head.name == f.name]
        if not calls:
            return

        def strict_vars(p: Pattern) -> set[str]:
            if isinstance(p, PatCtor):
                out: set[str] = set()
                stack = list(p.args)
                while stack:
                    q = stack.pop()
                    if isinstance(q, PatVar) and q.name != "_":
                        out.add(q.name)
                    elif isinstance(q, PatCtor):
                        stack.extend(q.args)
                return out
            return set()

        for i in range(len(f.binders)):
            ok = True
            for c, args in calls:
                if i >= len(args):
                    ok = False
                    break
                a = args[i]
                if not (isinstance(a, Var)
                        and a.name in strict_vars(c.pats[i])):
                    ok = False
                    break
            if ok:
                return
        raise TypeCheckError(
            f"def {f.name}: no argument position decreases structurally in "
            "every recursive call (mark the definition 'partial' to skip "
            "this check)", code="E-TERMINATION", loc=f.loc)


def _no_occ(t: Term, group: set[str], where: str):
    hit = data_refs(t) & group
    if hit:
        raise TypeCheckError(f"{where}: {sorted(hit)[0]} occurs in a negative "
                             "position", code="E-POSITIVITY")


def _all_vars(pats) -> bool:
    return all(isinstance(p, (PatVar, PatInacc)) for p in pats)


def _vars_or_refl(pats) -> bool:
    return all(isinstance(p, (PatVar, PatInacc, PatRefl)) for p in pats)


def _undecided(fname: str, c: CtorInfo | None, res: UnifyStuck):
    what = (f"for {c.data}.{c.name}: unification" if c else
            "of an identity type")
    return CoverageError(f"def {fname}: cannot decide coverage {what} stuck "
                         f"on {print_term(res.blocker)}")


class _ClauseState:
    """Left-to-right pattern elaboration with rewriting.

    Unification solutions remove variables from the live context and are
    pushed through everything recorded so far; `resolved` then rewrites the
    right-hand side (the traditional "rewrite x as true" behaviour). Every
    variable the elaboration invents is '%'-prefixed, so it can never occur
    in a term the user wrote."""

    def __init__(self, checker: Checker):
        self.ck = checker
        self.sig = checker.sig
        self.ctx: Ctx = {}
        self.binder_map: dict[str, Term] = {}
        self.resolved: dict[str, Term] = {}
        # inaccessible patterns check once the whole row has bound its
        # variables: (placeholder var, its type, written term)
        self.inacc: list[tuple[str, Term, Term]] = []

    def apply(self, sub: dict[str, Term]):
        if not sub:
            return
        for k in list(self.resolved):
            self.resolved[k] = subst_term(self.resolved[k], sub)
        self.resolved.update(sub)
        for k in sub:
            self.ctx.pop(k, None)
        self.ctx = {k: subst_term(t, sub) for k, t in self.ctx.items()}
        self.binder_map = {k: subst_term(t, sub)
                           for k, t in self.binder_map.items()}

    def current(self, t: Term) -> Term:
        return subst_term(t, self.resolved)

    def resolve_inaccessible(self):
        for x, ty, raw in self.inacc:
            t = self.current(raw)
            if x in self.ctx:
                # nothing forced it: only a later name for it may stand there
                if t != Var(x):
                    raise TypeCheckError(
                        f"inaccessible pattern {print_term(raw)} is at a "
                        "position no other pattern forces")
            else:
                forced = self.resolved[x]
                # conversion alone would take an ill-typed term that
                # normalizes to the forced value
                self.ck.check(self.ctx, t, self.current(ty))
                if not self.ck.conv(t, forced):
                    raise TypeCheckError(
                        f"inaccessible pattern {print_term(t)} is not the "
                        f"forced value {print_term(forced)}")

    def _take(self, case: Case, what: Callable[[], str]) -> Case:
        """Bind a matched case's slots and apply its unification, or reject
        a stuck or clashing case."""
        res = case[3]
        if isinstance(res, UnifyStuck):
            # an inaccessible pattern's placeholder prints as written
            blocker = print_term(subst_term(res.blocker, {
                x: raw for x, _, raw in self.inacc}))
            raise TypeCheckError(
                f"{what()}: unification stuck on neutral term {blocker}",
                code="E-UNIFY-STUCK", evidence={"blocker": blocker})
        if isinstance(res, UnifyMismatch):
            lhs, rhs = print_term(res.lhs), print_term(res.rhs)
            raise TypeCheckError(
                f"{what()}: constructor clash between {lhs} and {rhs}",
                code="E-UNIFY-CLASH", evidence={"lhs": lhs, "rhs": rhs})
        self.ctx.update((b.name, b.type) for b in case[1])
        self.apply(res.subst)
        return case

    def elab(self, pat: Pattern, expected: Term) -> Term:
        match pat:
            case PatVar(x):
                if x == "_":
                    x = fresh_name("%w", set(self.ctx))
                self.ctx[x] = expected
                return Var(x)
            case PatInacc(t):
                x = fresh_name("%dot", set(self.ctx))
                self.ctx[x] = expected
                self.inacc.append((x, expected, t))
                return Var(x)
            case PatRefl():
                tyn = self.ck.nf(expected)
                if not isinstance(tyn, IdType):
                    raise TypeCheckError(
                        f"refl pattern against non-identity type "
                        f"{print_term(tyn)}")
                self._take(open_case(self.sig, self.ck.nrm, tyn, None,
                                     set(self.ctx)), lambda: "matching refl")
                return REFL
            case PatCtor(dn, cn, subs):
                return self._elab_ctor(dn, cn, subs, expected)
        raise AssertionError(f"unknown pattern {pat!r}")

    def _elab_ctor(self, dn: str, cn: str, subs, expected: Term) -> Term:
        tyn = self.ck.nf(expected)
        split = self.sig.split_data_type(tyn)
        if split is None or split[0].decl.name != dn:
            raise TypeCheckError(
                f"pattern {dn}.{cn} cannot match a scrutinee of type "
                f"{print_term(tyn)}")
        cinfo = split[0].ctors[cn]
        arity = len(cinfo.patvars) + len(cinfo.args)
        if len(subs) != arity:
            raise TypeCheckError(
                f"pattern {cn} takes {arity} arguments "
                f"(row variables first), given {len(subs)}", code="E-ARITY")
        # slots take the user's variable names, and fresh internal names
        # elsewhere
        user = [sp.name if isinstance(sp, PatVar) and sp.name != "_" else None
                for sp in subs]
        _, slots, value, _, _ = self._take(
            open_case(self.sig, self.ck.nrm, tyn, cinfo, set(self.ctx), user,
                      "%"), lambda: f"splitting {print_term(tyn)} with {cn}")
        for b, sp in zip(slots, subs):
            if isinstance(sp, PatInacc):
                self.inacc.append((b.name, b.type, sp.term))
            elif isinstance(sp, PatVar):
                pass  # names the slot; a forced one is aliased by apply()
            elif b.name in self.ctx:
                self.apply({b.name: self.elab(sp, self.ctx[b.name])})
            else:
                raise TypeCheckError(
                    f"pattern {print_pattern(sp)} at a position forced to "
                    f"{print_term(self.resolved[b.name])} is not supported")
        return self.current(value)


# -- prelude -------------------------------------------------------------------

PRELUDE_SOURCE = """\
def subst (A : Type0) (P : A -> Type0) (x : A) (y : A) (p : Id A x y) (u : P x) : P y
  => J (\\z q => P z) u p

def idp (A : Type0) (x : A) : Id A x x
  => refl

def sym (A : Type0) (x : A) (y : A) (p : Id A x y) : Id A y x
  => J (\\z q => Id A z x) refl p

def trans (A : Type0) (x : A) (y : A) (z : A) (p : Id A x y) (q : Id A y z) : Id A x z
  => J (\\w r => Id A x w) p q
"""

_PRELUDE: Signature | None = None


def prelude_signature() -> Signature:
    global _PRELUDE
    if _PRELUDE is None:
        sig = Signature()
        Checker(sig).check_module(parse(PRELUDE_SOURCE, NameEnv()))
        _PRELUDE = sig
    return _PRELUDE


def check_module(m: SourceModule, step_budget: int = DEFAULT_STEP_BUDGET,
                 base: Signature | None = None) -> Signature:
    """Check a parsed module on top of `base`, by default the prelude, and
    leave `base` unchanged; returns the extended signature or raises a
    TypeCheckError subclass."""
    sig = (prelude_signature() if base is None else base).copy()
    Checker(sig, step_budget).check_module(m)
    return sig


def normalize(sig: Signature, t: Term,
              step_budget: int = DEFAULT_STEP_BUDGET) -> Term:
    return Normalizer(sig, step_budget).normalize(t)


def convertible(sig: Signature, a: Term, b: Term,
                step_budget: int = DEFAULT_STEP_BUDGET) -> bool:
    return Normalizer(sig, step_budget).convertible(a, b)
