"""Elaborated signature: the checked global declarations the kernel,
normalizer, and transformations query.

A completed signature is immutable in practice: checking extends it in
declaration order, and afterwards only the normalizer's clause tables
(`tables`) are added to it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .decls import (AxiomDecl, Binder, DataDecl, Declaration, FunDecl,
                    Pattern, Telescope, members, telescope_pi)
from .node import node
from .parser import NameEnv
from .terms import (DataRef, Term, Univ, Var, free_vars, fresh_name, mk_app,
                    spine, subst_term)


@node
class CtorInfo:
    data: str
    name: str
    patvars: Telescope = ()              # row variables, in binding order
    args: Telescope = ()
    avail_pats: tuple[Pattern, ...] = ()
    avail_terms: tuple[Term, ...] = ()   # row read back over params ++ patvars
    is_path: bool = False
    type: Term = Univ(0)                 # full constructor type


class DataInfo:
    """A checked datatype: its declaration, its former type (built once, as
    the declaration never changes) and what checking adds to it."""

    decl: DataDecl
    type: Term
    ctors: dict[str, CtorInfo]
    has_path: bool                   # some constructor is a path

    def __init__(self, decl):
        self.decl = decl
        self.type = telescope_pi(decl.params + decl.indices, Univ(0))
        self.ctors = {}
        self.has_path = False

    def point_ctors(self) -> list[CtorInfo]:
        return [c for c in self.ctors.values() if not c.is_path]


class Signature:
    """Grows only through the `add_*` methods, which keep `names` (every
    declaration and constructor name) exact. `tables` holds the
    normalizer's clause tables by function name; `add_fun` drops the entry
    of the function it replaces, and a copy or a rewind starts with none."""

    datas: dict[str, DataInfo]
    funs: dict[str, FunDecl]             # checked, a single body as a clause
    axioms: dict[str, AxiomDecl]
    names: set[str]
    tables: dict[str, tuple]

    def __init__(self, datas=None, funs=None, axioms=None, names=None):
        self.datas = {} if datas is None else datas
        self.funs = {} if funs is None else funs
        self.axioms = {} if axioms is None else axioms
        self.names = set() if names is None else names
        self.tables = {}

    def copy(self) -> "Signature":
        return Signature(dict(self.datas), dict(self.funs), dict(self.axioms),
                         set(self.names))

    def add_data(self, info: DataInfo):
        self.datas[info.decl.name] = info
        self.names.add(info.decl.name)

    def add_ctor(self, c: CtorInfo):
        info = self.datas[c.data]
        info.ctors[c.name] = c
        info.has_path = info.has_path or c.is_path
        self.names.add(c.name)

    def add_fun(self, f: FunDecl):
        self.funs[f.name] = f
        self.tables.pop(f.name, None)  # built from the replaced clauses
        self.names.add(f.name)

    def add_axiom(self, decl: AxiomDecl):
        self.axioms[decl.name] = decl
        self.names.add(decl.name)

    def rewind(self, decls: Sequence[Declaration]) -> "Signature":
        """A new signature without what `decls`, the last declarations
        checked into this one, declared: the signature as it stood before
        them. Constructor names repeat across datatypes, so `names` is
        rebuilt from what is kept rather than subtracted."""
        gone = {d.name for decl in decls for d in members(decl)}
        datas = {n: d for n, d in self.datas.items() if n not in gone}
        funs = {n: f for n, f in self.funs.items() if n not in gone}
        axioms = {n: a for n, a in self.axioms.items() if n not in gone}
        names = {*datas, *funs, *axioms}
        names.update(c for d in datas.values() for c in d.ctors)
        return Signature(datas, funs, axioms, names)

    def has_name(self, name: str) -> bool:
        return name in self.names

    def all_names(self) -> set[str]:
        """The live name index; callers must not mutate it."""
        return self.names

    def ctor(self, data: str, name: str) -> CtorInfo:
        return self.datas[data].ctors[name]

    def split_data_type(self, t: Term) -> tuple[DataInfo, list[Term], list[Term]] | None:
        """Decompose a datatype `D params indices`, or None when `t` is no
        datatype. `t` is a type, so `D` is fully applied."""
        head, args = spine(t)
        if not isinstance(head, DataRef):
            return None
        info = self.datas[head.name]
        n_params = len(info.decl.params)
        return info, args[:n_params], args[n_params:]

    def ctor_slots(self, c: CtorInfo, params: list[Term],
                   taken: Iterable[str], fixed: Sequence[str | None] = (),
                   prefix: str = ""
                   ) -> tuple[list[Binder], list[Term], set[str]]:
        """Open a constructor at `params`, for a case of a split or a ford
        converter: its slots (row variables, then arguments) under new
        names, in order. Slot i becomes `fixed[i]` when the caller fixes it,
        else the first variant of `prefix + name` outside `taken`, the fixed
        names, the global names, the free variables of `params` and the
        names picked so far. Each slot type, and then the row, takes one
        simultaneous substitution of the parameters and the earlier slots,
        so no caller variable is captured. Returns the slot telescope, the
        availability row over the new names and the new row variables."""
        sub = {b.name: v
               for b, v in zip(self.datas[c.data].decl.params, params)}
        avoid = set(taken).union(filter(None, fixed), *map(free_vars, params))
        globals_ = self.all_names()
        slots: list[Binder] = []
        for i, b in enumerate(c.patvars + c.args):
            name = (fixed[i] if i < len(fixed) and fixed[i] else fresh_name(
                prefix + b.name, avoid, globals_))
            avoid.add(name)
            slots.append(Binder(name, subst_term(b.type, sub)))
            sub[b.name] = Var(name)
        return (slots, [subst_term(t, sub) for t in c.avail_terms],
                {b.name for b in slots[:len(c.patvars)]})

    def data_applied(self, name: str, params: list[Term],
                     indices: list[Term]) -> Term:
        return mk_app(DataRef(name), *params, *indices)

    def name_env(self) -> NameEnv:
        env = NameEnv()
        for dname, d in self.datas.items():
            env.datas[dname] = {}
            for c in d.ctors.values():
                env.add_ctor(dname, c.name, c.is_path)
        env.funs = set(self.funs)
        env.axioms = set(self.axioms)
        return env
