"""Fording: de-indexing a datatype through explicit equality witnesses.

Every constrained availability pattern becomes an equality argument
`Id A <pattern-as-term> <row-variable>`: pattern variables are hoisted to
leading ordinary arguments, the equality proofs come next, and the
original arguments follow, with recursive occurrences renamed to the
forded family. The generated converters translate both ways and eliminate
the equality proofs by matching refl.
"""

from __future__ import annotations

from .decls import (Binder, Clause, CtorDecl, DataDecl, FunDecl, PatCtor,
                    PatRefl, PatVar, SourceModule, Telescope, members,
                    telescope_vars)
from .diagnostics import TransformError
from .node import node
from .parser import is_ident, parse
from .printer import decl_line, print_module, print_term
from .signature import Signature
from .terms import (REFL, CtorRef, DataRef, FunRef, IdType, Term, Var,
                    data_refs, free_vars, fresh_name, map_term, mk_app, spine,
                    subst_term)


@node
class CtorFordInfo:
    name: str
    # one equation per constrained index: (position, row var, index term)
    equations: list[tuple[int, str, Term]]
    row_vars: list[str]
    # row variables left unconstrained: bound by the row only, not hoisted
    kept: set[str]


@node
class FordPlan:
    target: str
    forded: str
    per_ctor: list[CtorFordInfo]
    to_name: str
    from_name: str

    def report(self) -> dict:
        return {
            "target": self.target,
            "forded": self.forded,
            "constructors": {c.name: c.name for c in self.per_ctor},
            "equations": {
                c.name: [{"index": v, "value": print_term(t)}
                         for (_, v, t) in c.equations]
                for c in self.per_ctor
            },
            "converters": {"toFord": self.to_name, "fromFord": self.from_name},
        }


def _clear_names(tele: Telescope, globals_: set[str]) -> dict[str, str]:
    """Each binder's name in `tele`, or when it is global, a fresh one
    outside the binders' names."""
    names = {b.name for b in tele}
    out: dict[str, str] = {}
    for b in tele:
        out[b.name] = b.name if b.name not in globals_ else fresh_name(
            b.name, names, out.values(), globals_)
    return out


def _rename_data(t: Term, old: str, new: str) -> Term:
    return map_term(t, lambda u: DataRef(new)
                    if isinstance(u, DataRef) and u.name == old else u)


def ford_data(d: DataDecl, sig: Signature, suffix: str = "F"
              ) -> tuple[DataDecl, FordPlan]:
    """Rewrite a checked, indexed datatype into its index-free form."""
    if not d.indices:
        raise TransformError(f"datatype {d.name} has no indices to ford",
                             code="E-FORD-NO-INDICES", loc=d.loc)
    bound: set[str] = set()
    for b in d.indices:
        if free_vars(b.type) & bound:
            raise TransformError(
                f"datatype {d.name} has a dependent index telescope, which "
                "fording does not support", code="E-FORD-TARGET", loc=d.loc)
        bound.add(b.name)
    new_name = d.name + suffix
    if not is_ident(new_name):
        raise TransformError(
            f"forded name {new_name!r} is not an identifier; pick another "
            "--suffix", code="E-NAME-CLASH")
    if sig.has_name(new_name):
        raise TransformError(
            f"forded name {new_name!r} collides with an existing "
            "declaration; pick another --suffix", code="E-NAME-CLASH")
    info = sig.datas[d.name]
    globals_ = sig.all_names()
    ctors: list[CtorDecl] = []
    plan_ctors: list[CtorFordInfo] = []
    for c in d.ctors:
        if c.is_path:
            if d.name in data_refs(c.path_type):
                raise TransformError(
                    f"path constructor {c.name} mentions {d.name} itself; "
                    "its endpoints cannot be transported to the forded "
                    "family", code="E-FORD-TARGET", loc=c.loc)
            ctors.append(CtorDecl(c.name, is_path=True,
                                  path_type=c.path_type))
            continue
        ci = info.ctors[c.name]
        taken = ({new_name} | {b.name for b in ci.patvars}
                 | {b.name for b in ci.args} | {b.name for b in d.params})
        row, row_vars, kept, eqs, equations = [], [], set(), [], []
        for pos, (idx, pat, val) in enumerate(
                zip(d.indices, ci.avail_pats, ci.avail_terms)):
            if isinstance(pat, PatVar):
                row.append(pat)  # already unconstrained; keep the variable
                row_vars.append(pat.name)
                kept.add(pat.name)
                continue
            v = fresh_name(idx.name, taken, globals_)
            taken.add(v)
            row.append(PatVar(v))
            row_vars.append(v)
            eq = fresh_name("eq", taken, globals_)
            taken.add(eq)
            eqs.append(Binder(eq, IdType(idx.type, val, Var(v))))
            equations.append((pos, v, val))
        args = (tuple(b for b in ci.patvars if b.name not in kept)
                + tuple(eqs)
                + tuple(Binder(b.name, _rename_data(b.type, d.name, new_name))
                        for b in ci.args))
        ctors.append(CtorDecl(c.name, tuple(row), args))
        plan_ctors.append(CtorFordInfo(c.name, equations, row_vars, kept))
    forded = DataDecl(new_name, d.params, d.indices, tuple(ctors))
    to_name = fresh_name(f"to{new_name}", {new_name}, globals_)
    from_name = fresh_name(f"from{new_name}", {new_name, to_name}, globals_)
    return forded, FordPlan(d.name, new_name, plan_ctors, to_name, from_name)


def _convert_arg(sig: Signature, plan: FordPlan, ty: Term, var: Term,
                 ren: dict[str, Term], fun: str) -> Term:
    """Wrap an argument in a recursive converter call when its type is the
    family being forded."""
    head, args = spine(ty)
    if isinstance(head, DataRef) and head.name == plan.target:
        call_args = [subst_term(a, ren) for a in args]
        return mk_app(FunRef(fun), *call_args, var)
    if plan.target in data_refs(ty):
        raise TransformError(
            f"argument type {print_term(ty)} mentions {plan.target} in a "
            "nested position; converter generation does not support this",
            code="E-FORD-TARGET")
    return var


def gen_converters(plan: FordPlan, sig: Signature
                   ) -> tuple[FunDecl, FunDecl]:
    """Generate the two conversion functions between a datatype in the
    signature and its forded counterpart, which only `plan` names."""
    d = sig.datas[plan.target].decl
    params, indices = d.params, d.indices
    binder_names = {b.name for b in params} | {b.name for b in indices}
    globals_ = sig.all_names()
    scrut = fresh_name("v", binder_names, globals_)
    orig_ty = sig.data_applied(plan.target, telescope_vars(params),
                               telescope_vars(indices))
    ford_ty = sig.data_applied(plan.forded, telescope_vars(params),
                               telescope_vars(indices))
    # a bare pattern that names a constructor reads back as that
    # constructor, so the leading pattern variables are named clear of them
    lead = _clear_names(params + indices, globals_)
    lead_pats = [PatVar(n) for n in lead.values()]
    pvars = [Var(lead[b.name]) for b in params]

    to_clauses = []
    from_clauses = []
    for cf in plan.per_ctor:
        ci = sig.datas[plan.target].ctors[cf.name]
        # `sig` lacks the forded family: no variable may take its name
        taken = binder_names | {*lead.values(), scrut, plan.forded}
        slots, avail, _ = sig.ctor_slots(ci, pvars, taken)
        local = {b.name: s.name for b, s in zip(ci.patvars + ci.args, slots)}
        ren = {**{b.name: v for b, v in zip(params, pvars)},
               **{k: Var(v) for k, v in local.items()}}
        taken |= {s.name for s in slots}

        # original -> forded
        sub = [PatVar(s.name) for s in slots]
        pat_row = lead_pats + [PatCtor(plan.target, cf.name, tuple(sub))]
        rhs_args: list[Term] = pvars + avail
        hoisted = [b for b in ci.patvars if b.name not in cf.kept]
        rhs_args += [Var(local[b.name]) for b in hoisted]
        rhs_args += [REFL] * len(cf.equations)
        for b in ci.args:
            rhs_args.append(_convert_arg(sig, plan, b.type,
                                         Var(local[b.name]), ren,
                                         plan.to_name))
        to_clauses.append(Clause(tuple(pat_row),
                                 mk_app(CtorRef(plan.forded, cf.name),
                                        *rhs_args)))

        # forded -> original: row variables first, refl for each equation
        fsub: list = []
        for v in cf.row_vars:
            if v in cf.kept:
                n2 = local[v]
            else:
                n2 = fresh_name(v, taken, globals_)
                taken.add(n2)
            fsub.append(PatVar(n2))
        fsub += [PatVar(local[b.name]) for b in hoisted]
        fsub += [PatRefl()] * len(cf.equations)
        fsub += [PatVar(local[b.name]) for b in ci.args]
        fpat_row = lead_pats + [PatCtor(plan.forded, cf.name, tuple(fsub))]
        frhs_args: list[Term] = list(pvars)
        frhs_args += [Var(local[b.name]) for b in ci.patvars]
        for b in ci.args:
            frhs_args.append(_convert_arg(sig, plan, b.type,
                                          Var(local[b.name]), ren,
                                          plan.from_name))
        from_clauses.append(Clause(tuple(fpat_row),
                                   mk_app(CtorRef(plan.target, cf.name),
                                          *frhs_args)))

    to_fun = FunDecl(plan.to_name,
                     params + indices + (Binder(scrut, orig_ty),),
                     ford_ty, clauses=tuple(to_clauses))
    from_fun = FunDecl(plan.from_name,
                       params + indices + (Binder(scrut, ford_ty),),
                       orig_ty, clauses=tuple(from_clauses))
    return to_fun, from_fun


def ford_module(m: SourceModule, sig: Signature, name: str,
                suffix: str = "F") -> tuple[SourceModule, FordPlan]:
    """Extend a checked module with the forded family and converters.

    Only the three appended declarations are printed and parsed back,
    against the input's names and from their line in the whole output, so
    they resolve and are located as a reader of the output sees them; the
    caller re-checks only those, on top of the input's signature."""
    d = m.find_data(name)
    if d is None:
        raise TransformError(f"no datatype named {name!r} in the module",
                             code="E-FORD-TARGET")
    if any(decl is not d and d in members(decl) for decl in m.decls):
        raise TransformError(
            f"{name} belongs to a mutual block; fording mutual members "
            "is not supported", code="E-FORD-TARGET", loc=d.loc)
    forded, plan = ford_data(d, sig, suffix)
    to_fun, from_fun = gen_converters(plan, sig)
    out = SourceModule(m.decls + (forded, to_fun, from_fun))
    k = len(m.decls)
    added = parse(print_module(out, k), sig.name_env(), decl_line(out, k))
    return SourceModule(m.decls + added.decls), plan
