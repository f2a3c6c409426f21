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

from dataclasses import dataclass, field

from .decls import (Binder, CtorDecl, DataDecl, FunDecl, MutualBlock,
                    PatCtor, SourceModule)
from .diagnostics import TransformError
from .printer import print_module
from .signature import Signature
from .terms import (App, CtorRef, DataRef, IdType, Term, Univ, map_term)


@dataclass
class MergePlan:
    block: list[str]
    enum_name: str
    family_name: str
    tag_of: dict[str, str]
    ctor_map: dict[str, str] = field(default_factory=dict)  # "D.c" -> c_T
    paths: list[tuple[str, str, str]] = field(default_factory=list)

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
    for i, decl in enumerate(m.decls):
        if isinstance(decl, DataDecl) and decl.name in wanted:
            hit.append(i)
        elif isinstance(decl, MutualBlock):
            members = {d.name for d in decl.decls}
            if members & wanted:
                if not members <= wanted:
                    raise TransformError(
                        "a mutual block must be merged whole; missing "
                        + ", ".join(sorted(members - wanted)),
                        code="E-MERGE-BLOCK")
                hit.append(i)
    covered = set()
    for i in hit:
        decl = m.decls[i]
        covered |= ({d.name for d in decl.decls}
                    if isinstance(decl, MutualBlock) else {decl.name})
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


def _check_member(d: DataDecl, wanted: set[str], sig: Signature):
    if d.params:
        raise TransformError(
            f"block member {d.name} has parameters; only plain datatypes "
            "can be merged", code="E-MERGE-BLOCK")
    if d.indices:
        from .kernel import _data_refs
        for b in d.indices:
            dep = _data_refs(b.type) & wanted
            if dep:
                raise TransformError(
                    f"inductive-inductive dependency: {d.name} is indexed "
                    f"by block member {sorted(dep)[0]}",
                    code="E-MERGE-BLOCK")
        raise TransformError(
            f"block member {d.name} is indexed; only plain datatypes can "
            "be merged", code="E-MERGE-BLOCK")
    for c in d.ctors:
        if c.is_path:
            raise TransformError(
                f"block member {d.name} has path constructor {c.name}; "
                "members must be plain datatypes", code="E-MERGE-BLOCK")


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
    members: list[DataDecl] = []
    for decl in m.decls[lo:hi + 1]:
        members.extend(decl.decls if isinstance(decl, MutualBlock) else [decl])
    for d in members:
        _check_member(d, wanted, sig)

    taken = (sig.all_names() - wanted
             - {c.name for d in members for c in d.ctors}) | wanted
    enum_name = _pick(["U", "U1", "U2", "U3"], taken)
    taken.add(enum_name)
    family_name = _pick(["T", "T1", "T2", "T3"], taken)
    taken.add(family_name)
    tag_of: dict[str, str] = {}
    for d in members:
        tag = f"{d.name}_tag"
        if tag in taken:
            raise TransformError(
                f"generated tag {tag!r} collides with an existing name",
                code="E-NAME-CLASH")
        taken.add(tag)
        tag_of[d.name] = tag

    plan = MergePlan([d.name for d in members], enum_name, family_name,
                     tag_of, paths=list(path_ctors))
    enum_ctors = [CtorDecl(tag_of[d.name]) for d in members]
    for pname, l, r in path_ctors:
        for end in (l, r):
            if end not in tag_of:
                raise TransformError(
                    f"path constructor {pname} references unknown block "
                    f"member {end!r}", code="E-MERGE-BLOCK")
        if pname in taken:
            raise TransformError(
                f"path constructor name {pname!r} collides with an "
                "existing name", code="E-NAME-CLASH")
        taken.add(pname)
        enum_ctors.append(CtorDecl(
            pname, is_path=True,
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

    family_ctors = []
    for d in members:
        for c in d.ctors:
            cname = f"{c.name}_T"
            if cname in taken:
                raise TransformError(
                    f"generated constructor {cname!r} collides with an "
                    "existing name", code="E-NAME-CLASH")
            taken.add(cname)
            plan.ctor_map[f"{d.name}.{c.name}"] = cname
            args = tuple(Binder(b.name, retag(b.type)) for b in c.args)
            family_ctors.append(CtorDecl(
                cname, (PatCtor(enum_name, tag_of[d.name]),), args))
    idx = Binder("u", DataRef(enum_name))
    family_decl = DataDecl(family_name, (), (idx,), tuple(family_ctors))

    aliases = [FunDecl(d.name, (), Univ(0),
                       body=App(DataRef(family_name),
                                CtorRef(enum_name, tag_of[d.name])))
               for d in members]

    out_decls = (m.decls[:lo] + (enum_decl, family_decl, *aliases)
                 + m.decls[hi + 1:])
    # re-parse the printed module: later declarations now resolve the old
    # type names to the aliases, and dangling constructor references fail
    # loudly as scope errors
    from .kernel import prelude_signature
    from .parser import parse
    out = parse(print_module(SourceModule(out_decls)),
                prelude_signature().name_env())
    return out, plan


def _pick(candidates: list[str], taken: set[str]) -> str:
    for c in candidates:
        if c not in taken:
            return c
    raise TransformError("cannot find a free name for the merged datatypes",
                         code="E-NAME-CLASH")
