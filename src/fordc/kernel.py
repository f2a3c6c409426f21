"""Bidirectional type checker for the declaration language.

Declarations check in order into a Signature seeded with the built-in
combinators (subst, idp, sym, trans — all defined through J). Data
declarations admit overlapping and redundant availability rows; path
constructors are installed as axiomatic identities with no computation
rule. Function clauses go through index unification: matching a
constructor (or refl) can rewrite earlier pattern variables, and a stuck
unification problem is reported as E-UNIFY-STUCK rather than guessed at.
"""

from __future__ import annotations

from .decls import (AxiomDecl, Binder, Clause, DataDecl, FunDecl, MutualBlock,
                    PatCtor, PatInacc, PatRefl, Pattern, PatVar, SourceModule,
                    Telescope)
from .diagnostics import CoverageError, FordcError, TypeCheckError
from .normalize import DEFAULT_STEP_BUDGET, Normalizer
from .printer import print_pattern, print_term
from .signature import (AxiomInfo, CtorInfo, DataInfo, FunInfo, Signature,
                        telescope_pi, telescope_vars)
from .terms import (REFL, App, AxiomRef, CtorRef, DataRef, FunRef, IdType,
                    JElim, Lam, Pi, Refl, Term, Univ, Var, free_vars,
                    fresh_name, mk_app, spine, subst_term)
from .unify import UnifyMismatch, UnifyStuck, unify_terms

Ctx = dict[str, Term]


def _data_refs(t: Term) -> set[str]:
    out: set[str] = set()

    def walk(u: Term):
        match u:
            case DataRef(n):
                out.add(n)
            case Pi(_, d, c):
                walk(d)
                walk(c)
            case Lam(_, b):
                walk(b)
            case App(f, a):
                walk(f)
                walk(a)
            case IdType(c, l, r):
                walk(c)
                walk(l)
                walk(r)
            case JElim(m, b, p):
                walk(m)
                walk(b)
                walk(p)
            case _:
                pass

    walk(t)
    return out


class Checker:
    def __init__(self, sig: Signature, step_budget: int = DEFAULT_STEP_BUDGET):
        self.sig = sig
        self.nrm = Normalizer(sig, step_budget)

    def nf(self, t: Term) -> Term:
        return self.nrm.normalize(t)

    def conv(self, a: Term, b: Term) -> bool:
        return self.nrm.convertible(a, b)

    def _mismatch(self, expected: Term, actual: Term, what: str = "term"):
        e, a = self.nf(expected), self.nf(actual)
        return TypeCheckError(
            f"{what}: expected {print_term(e)}, got {print_term(a)}",
            evidence={"expected": print_term(e), "actual": print_term(a)})

    # -- bidirectional core ------------------------------------------------

    def infer(self, ctx: Ctx, t: Term) -> Term:
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
            case App(f, a):
                tf = self.nrm.whnf(self.infer(ctx, f))
                if not isinstance(tf, Pi):
                    raise self._mismatch(Pi("_", Var("?"), Var("?")), tf,
                                         "application head")
                self.check(ctx, a, tf.domain)
                return subst_term(tf.codomain, {tf.binder: a})
            case DataRef(n):
                return self.sig.datas[n].former_type()
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
                      and self.conv(inner.carrier, carrier)
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
        if t == Univ(1):
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

    def check_data(self, d: DataDecl, group: set[str] | None = None):
        group = group or {d.name}
        for b in d.params + d.indices:
            hit = _data_refs(b.type) & group
            if hit:
                raise TypeCheckError(
                    f"data {d.name}: {sorted(hit)[0]} cannot appear in its "
                    "own parameters or indices", loc=d.loc)
        pctx = self.check_telescope({}, d.params, f"data {d.name} parameters")
        self.check_telescope(pctx, d.indices, f"data {d.name} indices")
        if d.name not in self.sig.datas:
            self.sig.add_data(DataInfo(d, d.params, d.indices))
        info = self.sig.datas[d.name]
        info.decl, info.params, info.indices = d, d.params, d.indices
        for c in d.ctors:
            self.sig.add_ctor(self._check_ctor(d, c, pctx, group))

    def _check_ctor(self, d: DataDecl, c, pctx: Ctx,
                    group: set[str]) -> CtorInfo:
        if c.is_path:
            self.check_is_type(pctx, c.path_type)
            tail = c.path_type
            while isinstance(tail, Pi):
                tail = tail.codomain
            if not isinstance(tail, IdType):
                raise TypeCheckError(
                    f"path constructor {c.name} must target an identity type",
                    loc=c.loc)
            return CtorInfo(d.name, c.name, is_path=True,
                            type=telescope_pi(d.params, c.path_type))
        if len(c.availability) != len(d.indices):
            raise TypeCheckError(
                f"constructor {c.name}: availability row has "
                f"{len(c.availability)} patterns but {d.name} has "
                f"{len(d.indices)} indices", code="E-ARITY", loc=c.loc)
        patvars, avail_terms, avail_pats = self._elab_avail_row(d, c, pctx)
        actx = dict(pctx)
        for b in patvars:
            actx[b.name] = b.type
        args: list[Binder] = []
        for b in c.args:
            if b.name in actx:
                raise TypeCheckError(
                    f"constructor {c.name}: argument {b.name!r} shadows an "
                    "earlier binder", code="E-NAME-CLASH", loc=c.loc)
            self.check_is_type(actx, b.type)
            self._check_positive(b.type, group, f"{d.name}.{c.name}", c.loc)
            actx[b.name] = b.type
            args.append(b)
        result = self.sig.data_applied(d.name, telescope_vars(d.params),
                                       list(avail_terms))
        full = telescope_pi(tuple(list(d.params) + list(patvars) + args),
                            result)
        return CtorInfo(d.name, c.name, tuple(patvars), tuple(args),
                        tuple(avail_pats), tuple(avail_terms), False, full)

    def _elab_avail_row(self, d: DataDecl, c, pctx: Ctx):
        patvars: list[Binder] = []
        terms: list[Term] = []
        pats: list[Pattern] = []
        isub: dict[str, Term] = {}
        for idx, pat in zip(d.indices, c.availability):
            expected = self.nf(subst_term(idx.type, isub))
            t, p2 = self._elab_avail_pat(pat, expected, patvars, pctx,
                                         idx.name, c)
            terms.append(t)
            pats.append(p2)
            isub[idx.name] = t
        return tuple(patvars), tuple(terms), tuple(pats)

    def _elab_avail_pat(self, pat: Pattern, expected: Term,
                        patvars: list[Binder], pctx: Ctx, base: str, c):
        match pat:
            case PatVar(x):
                name = fresh_name(base, pctx, {b.name for b in patvars},
                                  self.sig.all_names()) if x == "_" else x
                patvars.append(Binder(name, expected))
                return Var(name), PatVar(name)
            case PatCtor(dn, cn, subs):
                split = self.sig.split_data_type(expected)
                if split is None or split[0].decl.name != dn:
                    raise TypeCheckError(
                        f"constructor {c.name}: pattern head {cn} does not "
                        f"construct {print_term(expected)}", loc=c.loc)
                dinfo, us, vs = split
                if vs:
                    raise TypeCheckError(
                        f"constructor {c.name}: availability patterns over "
                        f"the indexed datatype {dn} are not supported",
                        loc=c.loc)
                cinfo = dinfo.ctors[cn]
                slots, _ = self.sig.ctor_slots(cinfo, us)
                if len(subs) != len(slots):
                    raise TypeCheckError(
                        f"constructor {c.name}: pattern {cn} takes "
                        f"{len(slots)} arguments, given {len(subs)}",
                        code="E-ARITY", loc=c.loc)
                ssub: dict[str, Term] = {}
                sub_terms: list[Term] = []
                sub_pats: list[Pattern] = []
                for slot, sp in zip(slots, subs):
                    sty = self.nf(subst_term(slot.type, ssub))
                    t, p2 = self._elab_avail_pat(sp, sty, patvars, pctx,
                                                 slot.name, c)
                    ssub[slot.name] = t
                    sub_terms.append(t)
                    sub_pats.append(p2)
                return (mk_app(CtorRef(dn, cn), *us, *sub_terms),
                        PatCtor(dn, cn, tuple(sub_pats)))
            case PatInacc(t):
                ctx = dict(pctx)
                for b in patvars:
                    ctx[b.name] = b.type
                self.check(ctx, t, expected)
                return t, pat
            case PatRefl():
                raise TypeCheckError(
                    f"constructor {c.name}: refl is not supported in "
                    "availability rows", loc=c.loc)
        raise AssertionError(f"unknown pattern {pat!r}")

    def _check_positive(self, ty: Term, group: set[str], where: str,
                        loc) -> None:
        def no_occ(t: Term):
            hit = _data_refs(t) & group
            if hit:
                raise TypeCheckError(
                    f"{where}: {sorted(hit)[0]} occurs in a negative "
                    "position", code="E-POSITIVITY", loc=loc)

        def positive(t: Term):
            if isinstance(t, Pi):
                no_occ(t.domain)
                positive(t.codomain)
                return
            head, args = spine(t)
            if isinstance(head, DataRef) and head.name in group:
                for a in args:
                    no_occ(a)
                return
            no_occ(t)

        positive(ty)

    def check_mutual(self, block: MutualBlock):
        group = {d.name for d in block.decls}
        for d in block.decls:
            for b in d.params + d.indices:
                dep = _data_refs(b.type) & group
                if dep:
                    raise TypeCheckError(
                        f"mutual datatype {d.name} is indexed by group "
                        f"member {sorted(dep)[0]}; inductive-inductive "
                        "blocks are not supported", loc=d.loc)
        for d in block.decls:
            pctx = self.check_telescope({}, d.params,
                                        f"data {d.name} parameters")
            self.check_telescope(pctx, d.indices, f"data {d.name} indices")
            self.sig.add_data(DataInfo(d, d.params, d.indices))
        for d in block.decls:
            self.check_data(d, group)

    def check_axiom(self, a: AxiomDecl):
        self.check_is_type({}, a.type)
        self.sig.add_axiom(AxiomInfo(a.name, a.type))

    def check_fun(self, f: FunDecl):
        ctx = self.check_telescope({}, f.binders, f"def {f.name}")
        self.check_is_type(ctx, f.ret)
        info = FunInfo(f.name, f.binders, f.ret, [], f.partial)
        self.sig.add_fun(info)
        if f.body is not None:
            self.check(ctx, f.body, f.ret)
            clauses = [Clause(tuple(PatVar(b.name) for b in f.binders),
                              f.body)]
        else:
            for clause in f.clauses:
                self._check_clause(f, clause)
            clauses = list(f.clauses)
            self._check_coverage(f)
        info.clauses = clauses
        self._check_termination(f)

    def check_module(self, m: SourceModule):
        for decl in m.decls:
            try:
                name = getattr(decl, "name", None)
                if name is not None and self.sig.has_name(name):
                    raise TypeCheckError(
                        f"declaration {name!r} collides with an existing name",
                        code="E-NAME-CLASH")
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
                if e.loc is None:
                    e.loc = getattr(decl, "loc", None)
                raise

    # -- clauses ---------------------------------------------------------------

    def _check_clause(self, f: FunDecl, clause: Clause):
        if len(clause.pats) != len(f.binders):
            raise TypeCheckError(
                f"def {f.name}: clause has {len(clause.pats)} patterns but "
                f"the function takes {len(f.binders)} arguments",
                code="E-ARITY", loc=clause.loc)
        st = _ClauseState(self)
        try:
            for binder, pat in zip(f.binders, clause.pats):
                expected = self.nf(subst_term(binder.type, st.binder_map))
                st.binder_map[binder.name] = st.elab(pat, expected)
            st.resolve_inaccessible()
            ret = subst_term(f.ret, st.binder_map)
            rhs = subst_term(clause.rhs, st.rhs_sub)
            self.check(st.ctx, rhs, ret)
        except TypeCheckError as e:
            if e.loc is None:
                e.loc = clause.loc
            raise

    def _check_coverage(self, f: FunDecl):
        cols = [(b.name, b.type) for b in f.binders]
        rows = [list(c.pats) for c in f.clauses]
        self._cover(f.name, cols, rows, [], set())

    def _cover(self, fname: str, cols, rows, acc, gen: set[str]):
        if not rows:
            if self._some_column_empty(cols, gen):
                return
            shape = " ".join(acc + ["_"] * len(cols)) or "<empty row>"
            raise CoverageError(
                f"def {fname}: missing canonical case: {shape}")
        if not cols:
            return
        (x, ty) = cols[0]
        heads = [r[0] for r in rows]
        if all(isinstance(p, (PatVar, PatInacc)) for p in heads):
            # the consumed column stands for an arbitrary value: keep its
            # variable flexible while splitting later columns
            self._cover(fname, cols[1:], [r[1:] for r in rows], acc + ["_"],
                        gen | {x})
            return
        tyn = self.nf(ty)
        colnames = {n for n, _ in cols} | gen

        def catchall() -> bool:
            return any(all(isinstance(p, (PatVar, PatInacc)) for p in r)
                       for r in rows)

        split = self.sig.split_data_type(tyn)
        if split is not None:
            dinfo, us, vs = split
            globals_ = self.sig.all_names()
            for c in dinfo.point_ctors():
                slots, avail = self.sig.ctor_slots(c, us)
                taken = set(colnames)
                ren: dict[str, Term] = {}
                new_slots = []
                for s in slots:
                    n2 = fresh_name(s.name, taken, globals_)
                    taken.add(n2)
                    new_slots.append((n2, subst_term(s.type, ren)))
                    ren[s.name] = Var(n2)
                avail_inst = [subst_term(a, ren) for a in avail]
                row_flex = {n for (n, _), s in zip(new_slots, c.patvars)}
                res = unify_terms(self.sig, self.nrm,
                                  list(zip(vs, avail_inst)), row_flex,
                                  colnames)
                if isinstance(res, UnifyMismatch):
                    continue
                if isinstance(res, UnifyStuck):
                    if catchall():
                        continue
                    raise CoverageError(
                        f"def {fname}: cannot decide coverage for "
                        f"{dinfo.decl.name}.{c.name}: unification stuck on "
                        f"{print_term(res.blocker)}")
                sub = res.subst
                cols2 = ([(n, subst_term(t, sub)) for n, t in new_slots]
                         + [(n, subst_term(t, sub)) for n, t in cols[1:]])
                rows2 = []
                for r in rows:
                    p0 = r[0]
                    if isinstance(p0, (PatVar, PatInacc)):
                        rows2.append([PatVar("_")] * len(new_slots) + r[1:])
                    elif isinstance(p0, PatCtor) and p0.name == c.name:
                        rows2.append(list(p0.args) + r[1:])
                self._cover(fname, cols2, rows2, acc + [c.name], set(gen))
            return
        if isinstance(tyn, IdType):
            res = unify_terms(self.sig, self.nrm, [(tyn.lhs, tyn.rhs)],
                              set(), colnames)
            if isinstance(res, UnifyMismatch):
                return  # no canonical inhabitant
            if isinstance(res, UnifyStuck):
                if catchall():
                    return
                raise CoverageError(
                    f"def {fname}: cannot decide coverage of an identity "
                    f"type stuck on {print_term(res.blocker)}")
            sub = res.subst
            cols2 = [(n, subst_term(t, sub)) for n, t in cols[1:]]
            rows2 = [r[1:] for r in rows
                     if isinstance(r[0], (PatVar, PatInacc, PatRefl))]
            self._cover(fname, cols2, rows2, acc + ["refl"], set(gen))
            return
        raise CoverageError(
            f"def {fname}: cannot split on {print_term(tyn)}")

    def _some_column_empty(self, cols, gen: set[str]) -> bool:
        """A telescope with a visibly uninhabited column is covered
        vacuously (every availability row clashes with the indices)."""
        colnames = {n for n, _ in cols} | gen
        for _, ty in cols:
            tyn = self.nf(ty)
            split = self.sig.split_data_type(tyn)
            if split is not None:
                dinfo, us, vs = split
                alive = False
                globals_ = self.sig.all_names()
                for c in dinfo.point_ctors():
                    slots, avail = self.sig.ctor_slots(c, us)
                    taken = set(colnames)
                    ren: dict[str, Term] = {}
                    row_flex = set()
                    for k, s in enumerate(slots):
                        n2 = fresh_name(s.name, taken, globals_)
                        taken.add(n2)
                        ren[s.name] = Var(n2)
                        if k < len(c.patvars):
                            row_flex.add(n2)
                    res = unify_terms(
                        self.sig, self.nrm,
                        list(zip(vs, [subst_term(a, ren) for a in avail])),
                        row_flex, colnames)
                    if not isinstance(res, UnifyMismatch):
                        alive = True
                        break
                if not alive:
                    return True
            elif isinstance(tyn, IdType):
                res = unify_terms(self.sig, self.nrm,
                                  [(tyn.lhs, tyn.rhs)], set(), colnames)
                if isinstance(res, UnifyMismatch):
                    return True
        return False

    def _check_termination(self, f: FunDecl):
        if f.partial:
            return
        clauses = (self.sig.funs[f.name].clauses if f.body is not None
                   else list(f.clauses))
        calls: list[tuple[Clause, list[Term]]] = []

        def walk(c: Clause, t: Term):
            head, args = spine(t)
            if isinstance(head, FunRef) and head.name == f.name:
                calls.append((c, args))
            for a in args:
                walk(c, a)
            if isinstance(head, Pi):
                walk(c, head.domain)
                walk(c, head.codomain)
            elif isinstance(head, Lam):
                walk(c, head.body)
            elif isinstance(head, IdType):
                walk(c, head.carrier)
                walk(c, head.lhs)
                walk(c, head.rhs)
            elif isinstance(head, JElim):
                walk(c, head.motive)
                walk(c, head.base)
                walk(c, head.path)

        for c in clauses:
            walk(c, c.rhs)
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
                if not (isinstance(a, Var) and i < len(c.pats)
                        and a.name in strict_vars(c.pats[i])):
                    ok = False
                    break
            if ok:
                return
        raise TypeCheckError(
            f"def {f.name}: no argument position decreases structurally in "
            "every recursive call (mark the definition 'partial' to skip "
            "this check)", code="E-TERMINATION", loc=f.loc)


class _ClauseState:
    """Left-to-right pattern elaboration with rewriting.

    Unification solutions remove variables from the live context and are
    pushed through everything recorded so far, including the right-hand
    side substitution (the traditional "rewrite x as true" behaviour)."""

    def __init__(self, checker: Checker):
        self.ck = checker
        self.sig = checker.sig
        self.ctx: Ctx = {}
        self.user_vars: set[str] = set()
        self.binder_map: dict[str, Term] = {}
        self.rhs_sub: dict[str, Term] = {}
        self.resolved: dict[str, Term] = {}
        # inaccessible patterns check once the whole row has bound its
        # variables: (placeholder var, written term)
        self.inacc: list[tuple[str, Term]] = []

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
        self.rhs_sub = {k: subst_term(t, sub)
                        for k, t in self.rhs_sub.items()}
        for k, t in sub.items():
            if k in self.user_vars:
                self.rhs_sub[k] = t

    def current(self, t: Term) -> Term:
        return subst_term(t, self.resolved)

    def resolve_inaccessible(self):
        for x, raw in self.inacc:
            t = subst_term(raw, self.rhs_sub)
            if x in self.ctx:
                self.ck.check(self.ctx, t, self.ctx[x])
                self.apply({x: t})
            else:
                forced = self.resolved[x]
                if not self.ck.conv(t, forced):
                    raise TypeCheckError(
                        f"inaccessible pattern {print_term(t)} is not the "
                        f"forced value {print_term(forced)}")

    def _unify(self, pairs, flex_row: set[str], what: str):
        res = unify_terms(self.sig, self.ck.nrm, pairs, flex_row,
                          set(self.ctx))
        if isinstance(res, UnifyStuck):
            raise TypeCheckError(
                f"{what}: unification stuck on neutral term "
                f"{print_term(res.blocker)}", code="E-UNIFY-STUCK",
                evidence={"blocker": print_term(res.blocker)})
        if isinstance(res, UnifyMismatch):
            raise TypeCheckError(
                f"{what}: constructor clash between {print_term(res.lhs)} "
                f"and {print_term(res.rhs)}", code="E-UNIFY-CLASH",
                evidence={"lhs": print_term(res.lhs),
                          "rhs": print_term(res.rhs)})
        self.apply(res.subst)

    def elab(self, pat: Pattern, expected: Term) -> Term:
        match pat:
            case PatVar(x):
                if x == "_":
                    # '%'-prefixed names are internal-only: they can never
                    # collide with parseable user names
                    x = fresh_name("%w", set(self.ctx))
                else:
                    self.user_vars.add(x)
                self.ctx[x] = expected
                return Var(x)
            case PatInacc(t):
                x = fresh_name("%dot", set(self.ctx))
                self.ctx[x] = expected
                self.inacc.append((x, t))
                return Var(x)
            case PatRefl():
                tyn = self.ck.nf(expected)
                if not isinstance(tyn, IdType):
                    raise TypeCheckError(
                        f"refl pattern against non-identity type "
                        f"{print_term(tyn)}")
                self._unify([(tyn.lhs, tyn.rhs)], set(), "matching refl")
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
        dinfo, us, vs = split
        cinfo = dinfo.ctors[cn]
        slots, avail = self.sig.ctor_slots(cinfo, us)
        if len(subs) != len(slots):
            raise TypeCheckError(
                f"pattern {cn} takes {len(slots)} arguments "
                f"(row variables first), given {len(subs)}", code="E-ARITY")
        # choose slot names, preferring the user's variable names
        taken = set(self.ctx) | {sp.name for sp in subs
                                 if isinstance(sp, PatVar) and sp.name != "_"}
        globals_ = self.sig.all_names()
        names: list[str] = []
        ren: dict[str, Term] = {}
        for slot, sp in zip(slots, subs):
            if isinstance(sp, PatVar) and sp.name != "_":
                n2 = sp.name
                self.user_vars.add(n2)
            else:
                n2 = fresh_name("%" + slot.name.lstrip("%"), taken, globals_)
            taken.add(n2)
            self.ctx[n2] = subst_term(slot.type, ren)
            ren[slot.name] = Var(n2)
            names.append(n2)
        n_pat = len(cinfo.patvars)
        row_flex = set(names[:n_pat])
        avail_inst = [subst_term(a, ren) for a in avail]
        self._unify(list(zip(vs, avail_inst)), row_flex,
                    f"splitting {print_term(tyn)} with {cn}")
        values: list[Term] = []
        for name, sp in zip(names, subs):
            if name in self.ctx:
                match sp:
                    case PatVar(_):
                        values.append(Var(name))
                    case PatRefl():
                        v = self.elab(sp, self.ctx[name])
                        self.apply({name: v})
                        values.append(REFL)
                    case PatCtor(_, _, _):
                        v = self.elab(sp, self.ctx[name])
                        self.apply({name: v})
                        values.append(v)
                    case PatInacc(t):
                        self.inacc.append((name, t))
                        values.append(Var(name))
            else:
                forced = self.resolved.get(name)
                if isinstance(sp, PatVar):
                    pass  # alias recorded by apply()
                elif isinstance(sp, PatInacc):
                    self.inacc.append((name, sp.term))
                else:
                    raise TypeCheckError(
                        f"pattern {print_pattern(sp)} at a position forced "
                        f"to {print_term(forced)} is not supported")
                values.append(forced)
        values = [self.current(v) for v in values]
        us2 = [self.current(u) for u in us]
        return mk_app(CtorRef(dn, cn), *us2, *values)


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
        from .parser import NameEnv, parse
        sig = Signature()
        Checker(sig).check_module(parse(PRELUDE_SOURCE, NameEnv()))
        _PRELUDE = sig
    return _PRELUDE


def check_module(m: SourceModule,
                 step_budget: int = DEFAULT_STEP_BUDGET) -> Signature:
    """Check a parsed module on top of the prelude; returns the extended
    signature or raises a TypeCheckError subclass."""
    sig = prelude_signature().copy()
    Checker(sig, step_budget).check_module(m)
    return sig


def normalize(sig: Signature, t: Term,
              step_budget: int = DEFAULT_STEP_BUDGET) -> Term:
    return Normalizer(sig, step_budget).normalize(t)


def convertible(sig: Signature, a: Term, b: Term,
                step_budget: int = DEFAULT_STEP_BUDGET) -> bool:
    return Normalizer(sig, step_budget).convertible(a, b)
