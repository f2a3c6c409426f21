"""Elaborated signature: the checked global declarations the kernel,
normalizer, and transformations query.

A completed signature is immutable in practice: checking extends it in
declaration order, and afterwards it is only read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .decls import Binder, Clause, DataDecl, Pattern, Telescope
from .terms import DataRef, Pi, Term, Univ, Var, mk_app, spine, subst_term


@dataclass
class CtorInfo:
    data: str
    name: str
    patvars: Telescope = ()          # row variables, in binding order
    args: Telescope = ()
    avail_pats: tuple[Pattern, ...] = ()
    avail_terms: tuple[Term, ...] = ()  # row read back over params ++ patvars
    is_path: bool = False
    type: Term = Univ(0)             # full constructor type


@dataclass
class DataInfo:
    decl: DataDecl
    params: Telescope
    indices: Telescope
    ctors: dict[str, CtorInfo] = field(default_factory=dict)

    def former_type(self) -> Term:
        ty: Term = Univ(0)
        for b in reversed(self.params + self.indices):
            ty = Pi(b.name, b.type, ty)
        return ty

    def point_ctors(self) -> list[CtorInfo]:
        return [c for c in self.ctors.values() if not c.is_path]


@dataclass
class FunInfo:
    name: str
    binders: Telescope
    ret: Term
    clauses: list[Clause] = field(default_factory=list)
    partial: bool = False

    @property
    def arity(self) -> int:
        return len(self.binders)

    def type(self) -> Term:
        ty = self.ret
        for b in reversed(self.binders):
            ty = Pi(b.name, b.type, ty)
        return ty


@dataclass
class AxiomInfo:
    name: str
    type: Term


@dataclass
class Signature:
    """Grows only through the `add_*` methods, which keep `names` (every
    declaration and constructor name) exact."""

    datas: dict[str, DataInfo] = field(default_factory=dict)
    funs: dict[str, FunInfo] = field(default_factory=dict)
    axioms: dict[str, AxiomInfo] = field(default_factory=dict)
    names: set[str] = field(default_factory=set)

    def copy(self) -> "Signature":
        return Signature(dict(self.datas), dict(self.funs), dict(self.axioms),
                         set(self.names))

    def add_data(self, info: DataInfo):
        self.datas[info.decl.name] = info
        self.names.add(info.decl.name)

    def add_ctor(self, c: CtorInfo):
        self.datas[c.data].ctors[c.name] = c
        self.names.add(c.name)

    def add_fun(self, info: FunInfo):
        self.funs[info.name] = info
        self.names.add(info.name)

    def add_axiom(self, info: AxiomInfo):
        self.axioms[info.name] = info
        self.names.add(info.name)

    def has_name(self, name: str) -> bool:
        return name in self.names

    def all_names(self) -> set[str]:
        """The live name index; callers must not mutate it."""
        return self.names

    def ctor(self, data: str, name: str) -> CtorInfo:
        return self.datas[data].ctors[name]

    def split_data_type(self, t: Term) -> tuple[DataInfo, list[Term], list[Term]] | None:
        """Decompose a fully applied datatype `D params indices`."""
        head, args = spine(t)
        if not isinstance(head, DataRef):
            return None
        info = self.datas[head.name]
        n_params = len(info.params)
        if len(args) != n_params + len(info.indices):
            return None
        return info, args[:n_params], args[n_params:]

    def ctor_slots(self, c: CtorInfo, params: list[Term]
                   ) -> tuple[list[Binder], list[Term]]:
        """Constructor slot telescope (patvars then args) and availability
        row terms, with the datatype parameters instantiated."""
        info = self.datas[c.data]
        sub = {b.name: v for b, v in zip(info.params, params)}
        slots = [Binder(b.name, subst_term(b.type, sub))
                 for b in c.patvars + c.args]
        avail = [subst_term(t, sub) for t in c.avail_terms]
        return slots, avail

    def data_applied(self, name: str, params: list[Term],
                     indices: list[Term]) -> Term:
        return mk_app(DataRef(name), *params, *indices)

    def name_env(self):
        from .parser import NameEnv
        env = NameEnv()
        for dname, d in self.datas.items():
            env.datas[dname] = {}
            for c in d.ctors.values():
                env.add_ctor(dname, c.name, c.is_path)
        env.funs = set(self.funs)
        env.axioms = set(self.axioms)
        return env


def telescope_pi(tele: Telescope, cod: Term) -> Term:
    ty = cod
    for b in reversed(tele):
        ty = Pi(b.name, b.type, ty)
    return ty


def telescope_vars(tele: Telescope) -> list[Term]:
    return [Var(b.name) for b in tele]
