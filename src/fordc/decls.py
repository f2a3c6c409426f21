"""Declaration-level AST: modules, datatypes with availability rows,
functions with clauses, axioms, and mutual groups.

Location fields never participate in equality, so a parse/print round trip
compares equal structurally.
"""

from __future__ import annotations

from .node import node
from .terms import Pi, Term, Var

Loc = tuple[int, int]


@node
class Binder:
    name: str
    type: Term


Telescope = tuple[Binder, ...]


def telescope_pi(tele: Telescope, cod: Term) -> Term:
    ty = cod
    for b in reversed(tele):
        ty = Pi(b.name, b.type, ty)
    return ty


def telescope_vars(tele: Telescope) -> list[Term]:
    return [Var(b.name) for b in tele]


@node
class Pattern:
    pass


@node
class PatVar(Pattern):
    name: str


@node
class PatCtor(Pattern):
    data: str
    name: str
    args: tuple[Pattern, ...] = ()


@node
class PatRefl(Pattern):
    pass


@node
class PatInacc(Pattern):
    term: Term


@node
class CtorDecl:
    name: str
    availability: tuple[Pattern, ...] = ()
    args: Telescope = ()
    is_path: bool = False
    path_type: Term | None = None  # full declared type when is_path
    loc: Loc | None = None


@node
class DataDecl:
    name: str
    params: Telescope = ()
    indices: Telescope = ()
    ctors: tuple[CtorDecl, ...] = ()
    loc: Loc | None = None


@node
class Clause:
    pats: tuple[Pattern, ...]
    rhs: Term
    loc: Loc | None = None


@node
class FunDecl:
    name: str
    binders: Telescope
    ret: Term
    clauses: tuple[Clause, ...] = ()
    body: Term | None = None  # single-body form, exclusive with clauses
    partial: bool = False  # skip the termination check
    loc: Loc | None = None

    def type(self) -> Term:
        return telescope_pi(self.binders, self.ret)


@node
class AxiomDecl:
    name: str
    type: Term
    loc: Loc | None = None


@node
class MutualBlock:
    decls: tuple[DataDecl, ...]
    loc: Loc | None = None


Declaration = DataDecl | FunDecl | AxiomDecl | MutualBlock


def members(decl: Declaration) -> tuple[Declaration, ...]:
    """What `decl` declares: a mutual block's datatypes, else `decl`."""
    return decl.decls if isinstance(decl, MutualBlock) else (decl,)


@node
class SourceModule:
    decls: tuple[Declaration, ...] = ()

    def data_decls(self) -> list[DataDecl]:
        return [d for decl in self.decls for d in members(decl)
                if isinstance(d, DataDecl)]

    def find_data(self, name: str) -> DataDecl | None:
        for d in self.data_decls():
            if d.name == name:
                return d
        return None

