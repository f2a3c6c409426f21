"""Deterministic pretty-printer; the single output channel for transformed code.

One declaration per block, blocks separated by a blank line and holding
none, two-space indentation for constructor rows and clauses, and a single
canonical spelling per form: dependent products print as `Pi (x : A) -> B`,
non-dependent ones as `A -> B`, lambda runs merge, and constructor
references are qualified exactly when the bare name is ambiguous: another
datatype of the module declares a constructor of that name, or a binder
in scope takes it and so would capture it.

`print_term` prints a name, a constructor and a whole application spine
itself, the commonest nodes of transformed code, and `_parts` splits any
other node; a chain of `Pi`s is split at once, with one `free_vars` per
domain, so a long telescope prints in linear time.
"""

from __future__ import annotations

from .decls import (AxiomDecl, Binder, Clause, CtorDecl, DataDecl,
                    Declaration, FunDecl, MutualBlock, PatCtor, PatInacc,
                    PatRefl, Pattern, PatVar, SourceModule, members)
from .terms import (App, AxiomRef, CtorRef, DataRef, FunRef, IdType, JElim,
                    Lam, Pi, Refl, Term, Univ, Var, free_vars)

LOW, APP, ATOM = 0, 1, 2


def ambiguous_ctors(m: SourceModule) -> frozenset[str]:
    seen: dict[str, int] = {}
    for d in m.data_decls():
        for c in d.ctors:
            seen[c.name] = seen.get(c.name, 0) + 1
    return frozenset(n for n, k in seen.items() if k > 1)


def _bound_names(d: Declaration) -> set[str]:
    """The names that a telescope of `d` binds. `print_term` scopes a `Pi`
    or a `\\` binder itself, and a pattern variable named like a
    constructor would read back as the constructor however it is printed."""
    tele: list[Binder] = []
    for x in members(d):
        if isinstance(x, FunDecl):
            tele += x.binders
        elif isinstance(x, DataDecl):
            tele += x.params + x.indices
            for c in x.ctors:
                tele += c.args
    return {b.name for b in tele}


_NAMED = {Var, DataRef, FunRef, AxiomRef}  # a node that prints as its name


def print_term(t: Term, prec: int = LOW, qual: frozenset[str] = frozenset()) -> str:
    """Print on an explicit stack of pending text, (term, precedence)
    pairs and scopes, so the depth of a term is not bounded by Python's
    recursion. A scope is the set `qual` of constructors to qualify from
    there on: under a `Pi` or a `\\`, it also holds the bound names."""
    if t.__class__ in _NAMED:
        return t.name
    out: list[str] = []
    todo: list = [(t, prec)]
    while todo:
        item = todo.pop()
        if type(item) is tuple:
            t, prec = item
            cls = t.__class__
            if cls in _NAMED:
                out.append(t.name)
            elif cls is App:  # the head at APP, each argument at ATOM
                if prec > APP:
                    out.append("(")
                    todo.append(")")
                while t.__class__ is App:
                    todo += [(t.arg, ATOM), " "]
                    t = t.fn
                todo.append((t, APP))
            elif cls is CtorRef:
                out.append(f"{t.data}.{t.name}" if t.name in qual else t.name)
            else:
                parts, level = _parts(t, qual)
                if type(parts) is str:  # an atom
                    out.append(parts)
                elif level < prec:
                    todo += [")", *reversed(parts), "("]
                else:
                    todo += reversed(parts)
        elif type(item) is str:
            out.append(item)
        else:
            qual = item
    return "".join(out)


def _parts(t: Term, qual: frozenset[str]) -> tuple[str | list, int]:
    """An atom's text, or a node's text as literal pieces, (subterm,
    precedence) holes and scopes."""
    match t:
        case Univ(level):
            return f"Type{level}", ATOM
        case Refl():
            return "refl", ATOM
        case IdType(c, l, r):
            return ["Id ", (c, ATOM), " ", (l, ATOM), " ", (r, ATOM)], APP
        case JElim(m, b, p):
            return ["J ", (m, ATOM), " ", (b, ATOM), " ", (p, ATOM)], APP
        case Lam(_, _):
            names = []
            while isinstance(t, Lam):
                names.append(t.binder)
                t = t.body
            return [f"\\{' '.join(names)} => ", qual.union(names), (t, LOW),
                    qual], LOW
        case Pi():
            # The whole chain at once: which binders their codomain mentions
            # is found in one pass from the innermost body outwards.
            chain = []
            while isinstance(t, Pi):
                chain.append(t)
                t = t.codomain
            fv, dep = set(free_vars(t)), []
            for p in reversed(chain):
                dep.append(p.binder != "_" and p.binder in fv)
                fv.discard(p.binder)
                fv |= free_vars(p.domain)
            parts, inner, run = [], qual, False
            for p, d in zip(chain, reversed(dep)):
                if d:  # a run of dependent binders: `Pi (x : A) (y : B)`
                    inner = inner.union((p.binder,))
                    parts += [" (" if run else "Pi (", f"{p.binder} : ",
                              (p.domain, LOW), ")", inner]
                else:
                    parts += [" -> "] * run + [(p.domain, APP), " -> "]
                run = d
            return parts + [" -> "] * run + [(t, LOW), qual], LOW
    raise AssertionError(f"unprintable term {t!r}")


def print_pattern(p: Pattern, qual: frozenset[str] = frozenset(),
                  atom: bool = False) -> str:
    match p:
        case PatVar(x):
            return x
        case PatRefl():
            return "refl"
        case PatInacc(t):
            return f".({print_term(t, LOW, qual)})"
        case PatCtor(d, n, args):
            head = f"{d}.{n}" if n in qual else n
            if not args:
                return head
            inner = " ".join(print_pattern(a, qual, atom=True) for a in args)
            text = f"{head} {inner}"
            return f"({text})" if atom else text
    raise AssertionError(f"unprintable pattern {p!r}")


def _binder_groups(tele: tuple[Binder, ...], qual: frozenset[str]) -> str:
    return " ".join(f"({b.name} : {print_term(b.type, LOW, qual)})" for b in tele)


def _print_ctor(c: CtorDecl, qual: frozenset[str]) -> str:
    if c.is_path:
        return f"  | {c.name} : {print_term(c.path_type, LOW, qual)}"
    parts = [f"  | {c.name}"]
    if c.availability:
        row = ", ".join(print_pattern(p, qual) for p in c.availability)
        parts.append(f"[{row}]")
    if c.args:
        parts.append(_binder_groups(c.args, qual))
    return " ".join(parts)


def _print_data(d: DataDecl, qual: frozenset[str]) -> str:
    head = f"data {d.name}"
    if d.params:
        head += " " + _binder_groups(d.params, qual)
    if d.indices:
        head += " : " + _binder_groups(d.indices, qual)
    lines = [head]
    lines.extend(_print_ctor(c, qual) for c in d.ctors)
    return "\n".join(lines)


def _print_clause(c: Clause, qual: frozenset[str]) -> str:
    pats = " ".join(print_pattern(p, qual, atom=True) for p in c.pats)
    return f"  | {pats} => {print_term(c.rhs, LOW, qual)}"


def _print_fun(f: FunDecl, qual: frozenset[str]) -> str:
    head = "partial def" if f.partial else "def"
    head += f" {f.name}"
    if f.binders:
        head += " " + _binder_groups(f.binders, qual)
    head += f" : {print_term(f.ret, LOW, qual)}"
    lines = [head]
    if f.body is not None:
        lines.append(f"  => {print_term(f.body, LOW, qual)}")
    else:
        lines.extend(_print_clause(c, qual) for c in f.clauses)
    return "\n".join(lines)


def print_module(m: SourceModule, start: int = 0) -> str:
    """Canonical text for a module; empty module prints as empty text.
    From `start` on, the text of `m.decls[start:]` alone, which is the tail
    of the whole text from line `decl_line(m, start)`: which constructors
    to qualify is still decided from all of `m`."""
    ambiguous = ambiguous_ctors(m)
    ctors = {c.name for d in m.data_decls() for c in d.ctors}
    blocks = []
    for d in m.decls[start:]:
        captured = ctors.intersection(_bound_names(d))
        qual = ambiguous | captured if captured else ambiguous
        if isinstance(d, DataDecl):
            blocks.append(_print_data(d, qual))
        elif isinstance(d, FunDecl):
            blocks.append(_print_fun(d, qual))
        elif isinstance(d, AxiomDecl):
            blocks.append(f"axiom {d.name} : {print_term(d.type, LOW, qual)}")
        elif isinstance(d, MutualBlock):
            inner = "\n".join(_print_data(x, qual) for x in d.decls)
            blocks.append(f"mutual\n{inner}\nend")
        else:
            raise AssertionError(f"unprintable declaration {d!r}")
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


def decl_line(m: SourceModule, k: int) -> int:
    """The line on which `print_module(m)` starts declaration `k`, counted
    from the shapes of the blocks before it, which are not printed: a
    header line, a line per constructor row or clause (or one `=>` body
    line), `mutual` and `end` around a block's members, and a blank line
    after each block. No printed term holds a line break."""
    line = 1
    for d in m.decls[:k]:
        for x in members(d):
            line += 1 + (len(x.ctors) if isinstance(x, DataDecl) else
                         0 if isinstance(x, AxiomDecl) else
                         1 if x.body is not None else len(x.clauses))
        line += 1 + 2 * isinstance(d, MutualBlock)
    return line
