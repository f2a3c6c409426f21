"""Mini-universe merging: fold a block of plain datatypes into one
enumeration-indexed family.

The block members are replaced in place by an enumeration with one tag per
member, a single family indexed by it whose constructors carry exactly one
tag in their availability row, and arity-zero definitions that let the rest
of the module keep using the original type names. Optional path
constructors between tags turn the enumeration into the axiomatic
higher-enumeration used for the loop-based integers.
"""

from __future__ import annotations

from .decls import (Binder, CtorDecl, DataDecl, FunDecl, PatCtor,
                    SourceModule, members)
from .diagnostics import TransformError
from .node import node
from .parser import parse
from .printer import decl_line, print_module
from .signature import Signature
from .terms import (App, CtorRef, DataRef, IdType, Term, Univ, data_refs,
                    fresh_name, map_term)


@node
class MergePlan:
    block: list[str]
    enum_name: str
    family_name: str
    tag_of: dict[str, str]
    ctor_map: dict[str, str]  # "D.c" -> c_T
    paths: list[tuple[str, str, str]]

    def report(self) -> dict:
        return {
            "block": self.block,
            "enum": self.enum_name,
            "family": self.family_name,
            "tags": self.tag_of,
            "constructors": self.ctor_map,
            "paths": [{"name": n, "lhs": self.tag_of[l], "rhs": self.tag_of[r]}
                      for n, l, r in self.paths],
            "aliases": {d: f"{self.family_name} {self.tag_of[d]}"
                        for d in self.block},
        }


def _block_positions(m: SourceModule, names: list[str]) -> tuple[int, int]:
    """Locate the block as one contiguous run of top-level positions; a
    mutual block must be merged whole."""
    wanted = set(names)
    hit: list[int] = []
    covered: set[str] = set()
    for i, decl in enumerate(m.decls):
        datas = {d.name for d in members(decl) if isinstance(d, DataDecl)}
        if datas & wanted:
            if not datas <= wanted:  # only a mutual block declares several
                raise TransformError(
                    "a mutual block must be merged whole; missing "
                    + ", ".join(sorted(datas - wanted)),
                    code="E-MERGE-BLOCK", loc=decl.loc)
            hit.append(i)
            covered |= datas
    if covered != wanted:
        missing = sorted(wanted - covered)
        raise TransformError(
            f"no datatype named {missing[0]!r} in the module",
            code="E-MERGE-BLOCK")
    if hit != list(range(hit[0], hit[-1] + 1)):
        raise TransformError(
            "block members must be contiguous declarations",
            code="E-MERGE-BLOCK")
    return hit[0], hit[-1]


def _check_member(d: DataDecl, wanted: set[str]):
    if d.params:
        raise TransformError(
            f"block member {d.name} has parameters; only plain datatypes "
            "can be merged", code="E-MERGE-BLOCK", loc=d.loc)
    if d.indices:
        for b in d.indices:
            dep = data_refs(b.type) & wanted
            if dep:
                raise TransformError(
                    f"inductive-inductive dependency: {d.name} is indexed "
                    f"by block member {sorted(dep)[0]}",
                    code="E-MERGE-BLOCK", loc=d.loc)
        raise TransformError(
            f"block member {d.name} is indexed; only plain datatypes can "
            "be merged", code="E-MERGE-BLOCK", loc=d.loc)
    for c in d.ctors:
        if c.is_path:
            raise TransformError(
                f"block member {d.name} has path constructor {c.name}; "
                "members must be plain datatypes", code="E-MERGE-BLOCK",
                loc=c.loc)


def merge_block(m: SourceModule, sig: Signature, names: list[str],
                path_ctors: list[tuple[str, str, str]] = ()
                ) -> tuple[SourceModule, MergePlan]:
    """Replace the named datatypes with an enumeration, a family, and
    aliases. path_ctors declares axiomatic identities between tags as
    (name, member, member) triples."""
    if not names:
        raise TransformError("empty merge block", code="E-MERGE-BLOCK")
    wanted = set(names)
    lo, hi = _block_positions(m, names)
    block = [d for decl in m.decls[lo:hi + 1] for d in members(decl)]
    for d in block:
        _check_member(d, wanted)

    taken = (sig.all_names() - wanted
             - {c.name for d in block for c in d.ctors}) | wanted

    def claim(name: str, what: str, loc=None) -> str:
        if name in taken:
            raise TransformError(
                f"{what} {name!r} collides with an existing name",
                code="E-NAME-CLASH", loc=loc)
        taken.add(name)
        return name

    enum_name = fresh_name("U", taken)
    taken.add(enum_name)
    family_name = fresh_name("T", taken)
    taken.add(family_name)
    tag_of = {d.name: claim(f"{d.name}_tag", "generated tag", d.loc)
              for d in block}

    enum_ctors = [CtorDecl(tag_of[d.name]) for d in block]
    for pname, l, r in path_ctors:
        for end in (l, r):
            if end not in tag_of:
                raise TransformError(
                    f"path constructor {pname} references unknown block "
                    f"member {end!r}", code="E-MERGE-BLOCK")
        enum_ctors.append(CtorDecl(
            claim(pname, "path constructor name"), is_path=True,
            path_type=IdType(DataRef(enum_name),
                             CtorRef(enum_name, tag_of[l]),
                             CtorRef(enum_name, tag_of[r]))))
    enum_decl = DataDecl(enum_name, ctors=tuple(enum_ctors))

    def retag(t: Term) -> Term:
        def go(u: Term) -> Term:
            if isinstance(u, DataRef) and u.name in tag_of:
                return App(DataRef(family_name),
                           CtorRef(enum_name, tag_of[u.name]))
            return u
        return map_term(t, go)

    family_ctors, ctor_map = [], {}
    for d in block:
        for c in d.ctors:
            cname = claim(f"{c.name}_T", "generated constructor", c.loc)
            ctor_map[f"{d.name}.{c.name}"] = cname
            args = tuple(Binder(b.name, retag(b.type)) for b in c.args)
            family_ctors.append(CtorDecl(
                cname, (PatCtor(enum_name, tag_of[d.name]),), args))
    idx = Binder("u", DataRef(enum_name))
    family_decl = DataDecl(family_name, (), (idx,), tuple(family_ctors))

    aliases = [FunDecl(d.name, (), Univ(0),
                       body=App(DataRef(family_name),
                                CtorRef(enum_name, tag_of[d.name])))
               for d in block]

    out = SourceModule(
        m.decls[:lo] + (enum_decl, family_decl, *aliases) + m.decls[hi + 1:])
    # print and parse back only the text from the block on (the declarations
    # before it are the input's own), against the names before it: later
    # ones now resolve the old type names to the aliases, and a dangling
    # constructor reference is a scope error located in the output
    tail = parse(print_module(out, lo), sig.rewind(m.decls[lo:]).name_env(),
                 decl_line(out, lo))
    plan = MergePlan([d.name for d in block], enum_name, family_name,
                     tag_of, ctor_map, list(path_ctors))
    return SourceModule(m.decls[:lo] + tail.decls), plan
