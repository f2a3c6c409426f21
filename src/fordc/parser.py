"""Lexer, parser, and scope resolution for the declaration language.

The grammar is whitespace-insensitive ASCII. References are resolved while
parsing against the names declared earlier (plus a base environment for
built-ins), so the returned module is fully scope-checked: every reference
node already knows whether it is a variable, constructor, datatype,
function, or axiom.

Constructor names may repeat across datatypes; a bare reference must be
unambiguous, otherwise the qualified form `Data.ctor` is required.

`lex` cuts a text into `Tokens`, flat arrays of kinds, texts and start
offsets, with one regular-expression `split`. The parser reads them by
index; a line and column are computed from an offset, only for a location
or a diagnostic.
"""

from __future__ import annotations

import re
from bisect import bisect
from collections.abc import Sequence
from itertools import accumulate, compress, count, islice, repeat
from operator import contains

from .decls import (AxiomDecl, Binder, Clause, CtorDecl, DataDecl, FunDecl,
                    MutualBlock, PatCtor, PatInacc, PatRefl, Pattern, PatVar,
                    SourceModule)
from .diagnostics import ParseError, ScopeError
from .terms import (REFL, App, AxiomRef, CtorRef, DataRef, FunRef, IdType,
                    JElim, Lam, Pi, Term, Univ, Var)

KEYWORDS = {"data", "def", "axiom", "mutual", "end", "partial",
            "Pi", "Id", "J", "refl", "Type0", "Type1"}


class Tokens:
    """A text's tokens as parallel arrays `kinds` (keyword text, punct
    text, "ident", "qident" or "eof"), `texts` and start `offsets`, ending
    in `eof`, which `lex` fills. A position is computed from the offsets of
    the newlines, which are found here."""

    def __init__(self, src: str, start: int):
        # newline offsets, after a virtual one just before `start` (a line
        # start), which ends line `self.line`
        self.newlines = newlines = [start - 1]
        i = src.find("\n", start)
        while i >= 0:
            newlines.append(i)
            i = src.find("\n", i + 1)
        self.line = src.count("\n", 0, start)

    def __len__(self) -> int:
        return len(self.kinds)

    def position(self, i: int) -> tuple[int, int]:
        """(line, column) of token `i`."""
        return self.locate(self.offsets[i])

    def locate(self, offset: int) -> tuple[int, int]:
        """(line, column) of the character at `offset`."""
        k = bisect(self.newlines, offset)
        return self.line + k, offset - self.newlines[k - 1]


_IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
# One group, so `split` keeps each token and comment. `Data.ctor` written
# without spaces is one qualified reference, but a keyword before a dot is a
# token of its own.
_SPLIT = re.compile(rf"""(
    (?:{"|".join(sorted(KEYWORDS))})(?=\.)
  | {_IDENT}(?:\.{_IDENT})?
  | ->|=>|[()\[\],:|.\\]
  | --[^\n]*)""", re.VERBOSE)
_STRAY = re.compile(r"[^ \t\r\n]")
_KIND = {t: t for t in KEYWORDS | {"->", "=>", *"()[],:|.\\"}} | {"": "eof"}


def is_ident(name: str) -> bool:
    """Whether `name` lexes as one unqualified identifier."""
    return re.fullmatch(_IDENT, name) is not None and name not in KEYWORDS


def lex(src: str, start: int = 0) -> Tokens:
    """Scan `src` from `start`, a line start, into `Tokens` with one
    `_SPLIT.split`. Its odd pieces are the tokens and comments, its even
    ones the blanks, where any character but space, tab, CR and LF is
    unexpected. A token's offset is the running total (`accumulate`) of the
    lengths before it; lines count from 1 at the start of `src`. A `--`
    comment runs to the end of its line and does not advance the column, so
    an `eof` right after one keeps the comment's column."""
    toks = Tokens(src, start)
    parts = _SPLIT.split(src[start:])
    parts.append("")  # the text of `eof`, after the last blank
    texts = parts[1::2]
    # each token's start, `eof`'s being the end of the text
    offsets = list(islice(accumulate(map(len, parts), initial=start),
                          1, None, 2))
    if _STRAY.search("".join(parts[::2])):
        for blank, end in zip(parts[::2], offsets):
            if bad := _STRAY.search(blank):
                raise ParseError(f"unexpected character {bad.group()!r}",
                                 *toks.locate(end - len(blank) + bad.start()))
    if src.find("--", start) >= 0:
        if not parts[-2] and texts[-2][:2] == "--":  # it ends the text
            offsets[-1] = offsets[-2]
        keep = [t[:2] != "--" for t in texts]
        texts = list(compress(texts, keep))
        offsets = list(compress(offsets, keep))
    del parts  # free the blanks before the kinds are made
    toks.kinds = kinds = list(map(_KIND.get, texts, repeat("ident")))
    if src.find(".", start) >= 0:  # a dotted identifier is qualified
        for i in compress(count(), map(contains, texts, repeat("."))):
            if texts[i] != ".":
                kinds[i] = "qident"
    toks.texts, toks.offsets = texts, offsets
    return toks


class NameEnv:
    """Names visible to the parser: datatypes with their constructors,
    functions, and axioms. Constructors are registered only through
    `add_ctor`, which keeps the constructor -> datatypes index exact."""

    datas: dict[str, dict[str, bool]]  # ctor -> is_path
    funs: set[str]
    axioms: set[str]
    owners: dict[str, list[str]]  # ctor -> datas

    def __init__(self):
        self.datas = {}
        self.funs = set()
        self.axioms = set()
        self.owners = {}

    def copy(self) -> "NameEnv":
        env = NameEnv()
        env.datas = {d: dict(cs) for d, cs in self.datas.items()}
        env.funs = set(self.funs)
        env.axioms = set(self.axioms)
        env.owners = {c: list(ds) for c, ds in self.owners.items()}
        return env

    def add_ctor(self, data: str, name: str, is_path: bool):
        self.datas[data][name] = is_path
        self.owners.setdefault(name, []).append(data)

    def is_decl(self, name: str) -> bool:
        return name in self.datas or name in self.funs or name in self.axioms

    def ctor_candidates(self, name: str) -> Sequence[str]:
        """Datatypes declaring a constructor `name` (read-only)."""
        return self.owners.get(name, ())


class Parser:
    """Reads `Tokens` by index: `pos` is the current token, and `advance`
    and `expect` return the index of the token they consume."""

    def __init__(self, toks: Tokens, env: NameEnv):
        self.toks = toks
        self.kinds = toks.kinds
        self.texts = toks.texts
        self.pos = 0
        self.env = env

    # -- token plumbing ----------------------------------------------------

    def advance(self) -> int:
        i = self.pos
        if self.kinds[i] != "eof":
            self.pos = i + 1
        return i

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def expect(self, kind: str, what: str | None = None) -> int:
        if self.kinds[self.pos] != kind:
            self.fail({what or kind})
        return self.advance()

    def fail(self, expected: set[str]):
        found = self.texts[self.pos] or "end of input"
        exp = ", ".join(sorted(expected))
        raise ParseError(f"expected {exp}, found {found!r}", *self.loc(),
                         frozenset(expected))

    def loc(self) -> tuple[int, int]:
        return self.toks.position(self.pos)

    def guarded(self, read, *args):
        """`read(*args)`, with running out of stack a located E-DEPTH at the
        current token: every entry point parses through this."""
        try:
            return read(*args)
        except RecursionError:
            raise ParseError("input nested too deeply to parse", *self.loc(),
                             code="E-DEPTH") from None

    # -- name resolution ---------------------------------------------------

    def resolve(self, name: str, locals_: list[str], tok: int) -> Term:
        if name != "_" and name in locals_:
            return Var(name)
        if name in self.env.datas:
            return DataRef(name)
        if name in self.env.funs:
            return FunRef(name)
        if name in self.env.axioms:
            return AxiomRef(name)
        cands = self.env.ctor_candidates(name)
        if len(cands) == 1:
            return CtorRef(cands[0], name)
        if len(cands) > 1:
            raise ScopeError(
                f"ambiguous constructor {name!r}; qualify as one of "
                + ", ".join(f"{d}.{name}" for d in sorted(cands)),
                *self.toks.position(tok))
        raise ScopeError(f"unknown name {name!r}", *self.toks.position(tok))

    def resolve_qualified(self, text: str, tok: int) -> tuple[str, str]:
        data, _, ctor = text.partition(".")
        if data not in self.env.datas or ctor not in self.env.datas[data]:
            raise ScopeError(f"unknown constructor {text!r}",
                             *self.toks.position(tok))
        return data, ctor

    def check_fresh_decl(self, name: str, tok: int):
        if self.env.is_decl(name) or self.env.ctor_candidates(name):
            raise ScopeError(f"duplicate declaration {name!r}",
                             *self.toks.position(tok))

    # -- terms ---------------------------------------------------------------

    ATOM_STARTS = {"ident", "qident", "Type0", "Type1", "refl", "Id", "J", "("}
    PATTERN_STARTS = {"ident", "qident", "refl", "(", "."}

    def parse_term(self, locals_: list[str]) -> Term:
        kind = self.kinds[self.pos]
        if kind == "Pi":
            self.advance()
            binders = self.parse_binder_groups(locals_, at_least_one=True)
            self.expect("->")
            inner = locals_ + [b.name for b in binders]
            body = self.parse_term(inner)
            for b in reversed(binders):
                body = Pi(b.name, b.type, body)
            return body
        if kind == "\\":
            self.advance()
            names = [self.texts[self.expect("ident", "binder name")]]
            while self.at("ident"):
                names.append(self.texts[self.advance()])
            self.expect("=>")
            body = self.parse_term(locals_ + names)
            for x in reversed(names):
                body = Lam(x, body)
            return body
        t = self.parse_app(locals_)
        if self.at("->"):
            self.advance()
            return Pi("_", t, self.parse_term(locals_))
        return t

    def parse_app(self, locals_: list[str]) -> Term:
        t = self.parse_atom(locals_)
        while self.kinds[self.pos] in self.ATOM_STARTS:
            t = App(t, self.parse_atom(locals_))
        return t

    def parse_atom(self, locals_: list[str]) -> Term:
        i = self.pos
        kind = self.kinds[i]
        if kind not in self.ATOM_STARTS:
            self.fail({"a term"})
        self.pos = i + 1
        if kind == "ident":
            return self.resolve(self.texts[i], locals_, i)
        if kind == "qident":
            data, ctor = self.resolve_qualified(self.texts[i], i)
            return CtorRef(data, ctor)
        if kind == "Type0":
            return Univ(0)
        if kind == "Type1":
            return Univ(1)
        if kind == "refl":
            return REFL
        if kind == "Id":
            a = self.parse_atom(locals_)
            l = self.parse_atom(locals_)
            r = self.parse_atom(locals_)
            return IdType(a, l, r)
        if kind == "J":
            m = self.parse_atom(locals_)
            b = self.parse_atom(locals_)
            p = self.parse_atom(locals_)
            return JElim(m, b, p)
        t = self.parse_term(locals_)
        self.expect(")")
        return t

    def parse_binder_groups(self, locals_: list[str],
                            at_least_one: bool = False) -> list[Binder]:
        groups: list[Binder] = []
        seen = locals_
        while self.at("(") :
            # lookahead: '(' IDENT+ ':' marks a binder group
            save = self.pos
            self.advance()
            names = []
            while self.at("ident"):
                names.append(self.texts[self.advance()])
            if not names or not self.at(":"):
                self.pos = save
                break
            self.advance()
            ty = self.parse_term(seen)
            self.expect(")")
            for x in names:
                groups.append(Binder(x, ty))
            seen = seen + names
        if at_least_one and not groups:
            self.fail({"a binder group '(name : type)'"})
        return groups

    # -- patterns ------------------------------------------------------------

    def parse_pattern(self, bound: list[str], locals_base: list[str]) -> Pattern:
        if self.kinds[self.pos] in ("ident", "qident"):
            head = self.advance()
            args: list[Pattern] = []
            while self.kinds[self.pos] in self.PATTERN_STARTS:
                args.append(self.parse_pattern_atom(bound, locals_base))
            return self.make_head_pattern(head, tuple(args), bound)
        return self.parse_pattern_atom(bound, locals_base)

    def parse_pattern_atom(self, bound: list[str],
                           locals_base: list[str]) -> Pattern:
        i = self.pos
        kind = self.kinds[i]
        if kind not in self.PATTERN_STARTS:
            self.fail({"a pattern"})
        self.pos = i + 1
        if kind in ("ident", "qident"):
            return self.make_head_pattern(i, (), bound)
        if kind == "refl":
            return PatRefl()
        if kind == ".":
            self.expect("(")
            t = self.parse_term(locals_base + bound)
            self.expect(")")
            return PatInacc(t)
        p = self.parse_pattern(bound, locals_base)
        self.expect(")")
        return p

    def make_head_pattern(self, tok: int, args: tuple[Pattern, ...],
                          bound: list[str]) -> Pattern:
        if self.kinds[tok] == "qident":
            data, ctor = self.resolve_qualified(self.texts[tok], tok)
            self.check_point_ctor(data, ctor, tok)
            return PatCtor(data, ctor, args)
        name = self.texts[tok]
        cands = self.env.ctor_candidates(name)
        if len(cands) > 1:
            raise ScopeError(
                f"ambiguous constructor pattern {name!r}; qualify as one of "
                + ", ".join(f"{d}.{name}" for d in sorted(cands)),
                *self.toks.position(tok))
        if len(cands) == 1:
            self.check_point_ctor(cands[0], name, tok)
            return PatCtor(cands[0], name, args)
        if args:
            raise ScopeError(f"unknown constructor {name!r} in pattern",
                             *self.toks.position(tok))
        if self.env.is_decl(name):
            raise ScopeError(
                f"pattern variable {name!r} shadows a declaration",
                *self.toks.position(tok))
        if name != "_":
            if name in bound:
                raise ScopeError(f"pattern variable {name!r} bound twice",
                                 *self.toks.position(tok))
            bound.append(name)
        return PatVar(name)

    def check_point_ctor(self, data: str, ctor: str, tok: int):
        if self.env.datas[data][ctor]:
            raise ScopeError(
                f"path constructor {data}.{ctor} cannot be matched",
                *self.toks.position(tok))

    # -- declarations ----------------------------------------------------------

    def parse_module(self) -> SourceModule:
        decls = []
        while not self.at("eof"):
            decls.append(self.parse_decl())
        return SourceModule(tuple(decls))

    def parse_decl(self):
        if self.at("data"):
            return self.parse_data()
        if self.at("def") or self.at("partial"):
            return self.parse_fun()
        if self.at("axiom"):
            return self.parse_axiom()
        if self.at("mutual"):
            return self.parse_mutual()
        self.fail({"data", "def", "axiom", "mutual"})

    def parse_data(self, preregistered: bool = False) -> DataDecl:
        loc = self.loc()
        self.expect("data")
        name_tok = self.expect("ident", "datatype name")
        name = self.texts[name_tok]
        if not preregistered:
            self.check_fresh_decl(name, name_tok)
            self.env.datas[name] = {}
        params = tuple(self.parse_binder_groups([]))
        indices: tuple[Binder, ...] = ()
        if self.at(":"):
            self.advance()
            plocals = [b.name for b in params]
            indices = tuple(self.parse_binder_groups(plocals, at_least_one=True))
        param_names = [b.name for b in params]
        ctors = []
        while self.at("|"):
            ctors.append(self.parse_ctor_row(name, param_names))
        return DataDecl(name, params, indices, tuple(ctors), loc=loc)

    def parse_ctor_row(self, data: str, param_names: list[str]) -> CtorDecl:
        loc = self.loc()
        self.expect("|")
        name_tok = self.expect("ident", "constructor name")
        cname = self.texts[name_tok]
        if cname in self.env.datas[data]:
            raise ScopeError(f"duplicate constructor {cname!r} in {data}",
                             *self.toks.position(name_tok))
        if self.env.is_decl(cname):
            raise ScopeError(
                f"constructor {cname!r} collides with a declaration",
                *self.toks.position(name_tok))
        if self.at(":"):
            self.advance()
            ty = self.parse_term(param_names)
            self.env.add_ctor(data, cname, True)
            return CtorDecl(cname, is_path=True, path_type=ty, loc=loc)
        avail: tuple[Pattern, ...] = ()
        bound: list[str] = []
        if self.at("["):
            self.advance()
            pats = [self.parse_pattern(bound, param_names)]
            while self.at(","):
                self.advance()
                pats.append(self.parse_pattern(bound, param_names))
            self.expect("]")
            avail = tuple(pats)
        args = tuple(self.parse_binder_groups(param_names + bound))
        self.env.add_ctor(data, cname, False)
        return CtorDecl(cname, avail, args, loc=loc)

    def parse_fun(self) -> FunDecl:
        loc = self.loc()
        partial = False
        if self.at("partial"):
            self.advance()
            partial = True
        self.expect("def")
        name_tok = self.expect("ident", "function name")
        name = self.texts[name_tok]
        self.check_fresh_decl(name, name_tok)
        binders = tuple(self.parse_binder_groups([]))
        self.expect(":")
        blocals = [b.name for b in binders]
        ret = self.parse_term(blocals)
        self.env.funs.add(name)
        if self.at("=>"):
            self.advance()
            body = self.parse_term(blocals)
            return FunDecl(name, binders, ret, body=body, partial=partial, loc=loc)
        clauses = []
        while self.at("|"):
            cloc = self.loc()
            self.advance()
            # inaccessible patterns may mention variables bound anywhere in
            # the row, so collect the row's variables up front
            row_vars = self.prescan_row_vars()
            bound: list[str] = []
            pats = [self.parse_pattern_atom(bound, row_vars)]
            while not self.at("=>"):
                pats.append(self.parse_pattern_atom(bound, row_vars))
            self.expect("=>")
            rhs = self.parse_term(bound)
            clauses.append(Clause(tuple(pats), rhs, loc=cloc))
        return FunDecl(name, binders, ret, clauses=tuple(clauses),
                       partial=partial, loc=loc)

    def prescan_row_vars(self) -> list[str]:
        """Identifiers in the clause row (up to '=>') that can only be
        pattern variables, skipping inaccessible-term spans."""
        kinds, texts = self.kinds, self.texts
        out: list[str] = []
        i = self.pos
        while i < len(kinds) and kinds[i] not in ("=>", "eof"):
            if kinds[i] == "." and kinds[i + 1] == "(":
                depth = 0
                i += 1
                while i < len(kinds):
                    if kinds[i] == "(":
                        depth += 1
                    elif kinds[i] == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    i += 1
            elif (kinds[i] == "ident" and texts[i] != "_" and texts[i] not in out
                  and not self.env.is_decl(texts[i])
                  and not self.env.ctor_candidates(texts[i])):
                out.append(texts[i])
            i += 1
        return out

    def parse_axiom(self) -> AxiomDecl:
        loc = self.loc()
        self.expect("axiom")
        name_tok = self.expect("ident", "axiom name")
        name = self.texts[name_tok]
        self.check_fresh_decl(name, name_tok)
        self.expect(":")
        ty = self.parse_term([])
        self.env.axioms.add(name)
        return AxiomDecl(name, ty, loc=loc)

    def parse_mutual(self) -> MutualBlock:
        loc = self.loc()
        self.expect("mutual")
        # pre-register all member names so the group can refer forward
        kinds = self.kinds
        i = self.pos
        names = []
        while i < len(kinds) and kinds[i] != "end":
            if kinds[i] == "data" and kinds[i + 1] == "ident":
                names.append(i + 1)
            i += 1
        if kinds[min(i, len(kinds) - 1)] != "end":
            self.fail({"'end' closing the mutual block"})
        for tok in names:
            self.check_fresh_decl(self.texts[tok], tok)
            self.env.datas[self.texts[tok]] = {}
        members = []
        while self.at("data"):
            members.append(self.parse_data(preregistered=True))
        if not members:
            self.fail({"data"})
        self.expect("end")
        return MutualBlock(tuple(members), loc=loc)


def parse(source: str, env: NameEnv | None = None,
          start: int = 0) -> SourceModule:
    """Parse and scope-check the module in `source` from the line that
    begins at `start`. Raises ParseError / ScopeError."""
    p = Parser(lex(source, start), (env or NameEnv()).copy())
    return p.guarded(p.parse_module)


def parse_term_text(source: str, env: NameEnv,
                    locals_: tuple[str, ...] = ()) -> Term:
    """Parse a single term against an environment; used by tests and tools."""
    p = Parser(lex(source), env.copy())
    t = p.guarded(p.parse_term, list(locals_))
    p.expect("eof")
    return t
