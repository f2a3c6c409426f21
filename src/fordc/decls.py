"""Declaration-level AST: modules, datatypes with availability rows,
functions with clauses, axioms, and mutual groups.

Location fields never participate in equality, so a parse/print round trip
compares equal structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import Term

Loc = tuple[int, int]


@dataclass(frozen=True)
class Binder:
    name: str
    type: Term


Telescope = tuple[Binder, ...]


@dataclass(frozen=True)
class Pattern:
    pass


@dataclass(frozen=True)
class PatVar(Pattern):
    name: str


@dataclass(frozen=True)
class PatCtor(Pattern):
    data: str
    name: str
    args: tuple[Pattern, ...] = ()


@dataclass(frozen=True)
class PatRefl(Pattern):
    pass


@dataclass(frozen=True)
class PatInacc(Pattern):
    term: Term


@dataclass(frozen=True)
class CtorDecl:
    name: str
    availability: tuple[Pattern, ...] = ()
    args: Telescope = ()
    is_path: bool = False
    path_type: Term | None = None  # full declared type when is_path
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class DataDecl:
    name: str
    params: Telescope = ()
    indices: Telescope = ()
    ctors: tuple[CtorDecl, ...] = ()
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Clause:
    pats: tuple[Pattern, ...]
    rhs: Term
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class FunDecl:
    name: str
    binders: Telescope
    ret: Term
    clauses: tuple[Clause, ...] = ()
    body: Term | None = None  # single-body form, exclusive with clauses
    partial: bool = False  # skip the termination check
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class AxiomDecl:
    name: str
    type: Term
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class MutualBlock:
    decls: tuple[DataDecl, ...]
    loc: Loc | None = field(default=None, compare=False)


Declaration = DataDecl | FunDecl | AxiomDecl | MutualBlock


@dataclass(frozen=True)
class SourceModule:
    decls: tuple[Declaration, ...] = ()

    def data_decls(self) -> list[DataDecl]:
        out = []
        for d in self.decls:
            if isinstance(d, DataDecl):
                out.append(d)
            elif isinstance(d, MutualBlock):
                out.extend(d.decls)
        return out

    def find_data(self, name: str) -> DataDecl | None:
        for d in self.data_decls():
            if d.name == name:
                return d
        return None

