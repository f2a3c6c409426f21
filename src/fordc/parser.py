"""Lexer, parser, and scope resolution for the declaration language.

The grammar is whitespace-insensitive ASCII. References are resolved while
parsing against the names declared earlier (plus a base environment for
built-ins), so the returned module is fully scope-checked: every reference
node already knows whether it is a variable, constructor, datatype,
function, or axiom.

Constructor names may repeat across datatypes; a bare reference must be
unambiguous, otherwise the qualified form `Data.ctor` is required.
"""

from __future__ import annotations

import re
from collections.abc import Sequence

from .decls import (AxiomDecl, Binder, Clause, CtorDecl, DataDecl, FunDecl,
                    MutualBlock, PatCtor, PatInacc, PatRefl, Pattern, PatVar,
                    SourceModule)
from .diagnostics import ParseError, ScopeError
from .terms import (REFL, App, AxiomRef, CtorRef, DataRef, FunRef, IdType,
                    JElim, Lam, Pi, Term, Univ, Var)

KEYWORDS = {"data", "def", "axiom", "mutual", "end", "partial",
            "Pi", "Id", "J", "refl", "Type0", "Type1"}


class Token:
    kind: str  # keyword text, punct text, "ident", "qident", or "eof"
    text: str
    line: int
    col: int

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


_IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
_TOKEN = re.compile(rf"""[ \t\r]*(?:
    (?P<nl>\n)
  | (?P<comment>--[^\n]*)
  | (?P<word>{_IDENT}(?:\.{_IDENT})?)
  | (?P<punct>->|=>|[()\[\],:|.\\])
  | (?P<bad>.)
  | (?P<end>\Z))""", re.VERBOSE)


def is_ident(name: str) -> bool:
    """Whether `name` lexes as one unqualified identifier."""
    return re.fullmatch(_IDENT, name) is not None and name not in KEYWORDS


def lex(src: str) -> list[Token]:
    """One master-pattern match per token (with the blanks before it).
    A `--` comment runs to the end of its line and does not advance the
    column, so an `eof` right after one keeps the comment's column."""
    toks: list[Token] = []
    pos, line, col = 0, 1, 1
    while True:
        m = _TOKEN.match(src, pos)
        kind = m.lastgroup
        start, end = m.span(kind)
        col += start - pos
        text, pos = src[start:end], end
        if kind == "word":
            # `Data.ctor` written without spaces is one qualified reference,
            # unless the head is a keyword
            head, dot, _ = text.partition(".")
            if head in KEYWORDS:
                text, kind, pos = head, head, start + len(head)
            else:
                kind = "qident" if dot else "ident"
        elif kind == "punct":
            kind = text
        elif kind == "nl":
            line, col = line + 1, 1
            continue
        elif kind == "comment":
            continue
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        else:
            toks.append(Token("eof", "", line, col))
            return toks
        toks.append(Token(kind, text, line, col))
        col += len(text)


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
    def __init__(self, toks: list[Token], env: NameEnv):
        self.toks = toks
        self.pos = 0
        self.env = env

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.fail({what or kind})
        return self.advance()

    def fail(self, expected: set[str]):
        t = self.peek()
        found = t.text or "end of input"
        exp = ", ".join(sorted(expected))
        raise ParseError(f"expected {exp}, found {found!r}", t.line, t.col,
                         frozenset(expected))

    def loc(self) -> tuple[int, int]:
        t = self.peek()
        return (t.line, t.col)

    # -- name resolution ---------------------------------------------------

    def resolve(self, name: str, locals_: list[str], tok: Token) -> Term:
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
                tok.line, tok.col)
        raise ScopeError(f"unknown name {name!r}", tok.line, tok.col)

    def resolve_qualified(self, text: str, tok: Token) -> tuple[str, str]:
        data, _, ctor = text.partition(".")
        if data not in self.env.datas or ctor not in self.env.datas[data]:
            raise ScopeError(f"unknown constructor {text!r}", tok.line, tok.col)
        return data, ctor

    def check_fresh_decl(self, name: str, tok: Token):
        if self.env.is_decl(name) or self.env.ctor_candidates(name):
            raise ScopeError(f"duplicate declaration {name!r}", tok.line, tok.col)

    # -- terms ---------------------------------------------------------------

    ATOM_STARTS = {"ident", "qident", "Type0", "Type1", "refl", "Id", "J", "("}

    def parse_term(self, locals_: list[str]) -> Term:
        if self.at("Pi"):
            self.advance()
            binders = self.parse_binder_groups(locals_, at_least_one=True)
            self.expect("->")
            inner = locals_ + [b.name for b in binders]
            body = self.parse_term(inner)
            for b in reversed(binders):
                body = Pi(b.name, b.type, body)
            return body
        if self.at("\\"):
            self.advance()
            names = [self.expect("ident", "binder name").text]
            while self.at("ident"):
                names.append(self.advance().text)
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
        while self.peek().kind in self.ATOM_STARTS:
            t = App(t, self.parse_atom(locals_))
        return t

    def parse_atom(self, locals_: list[str]) -> Term:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return self.resolve(tok.text, locals_, tok)
        if tok.kind == "qident":
            self.advance()
            data, ctor = self.resolve_qualified(tok.text, tok)
            return CtorRef(data, ctor)
        if tok.kind == "Type0":
            self.advance()
            return Univ(0)
        if tok.kind == "Type1":
            self.advance()
            return Univ(1)
        if tok.kind == "refl":
            self.advance()
            return REFL
        if tok.kind == "Id":
            self.advance()
            a = self.parse_atom(locals_)
            l = self.parse_atom(locals_)
            r = self.parse_atom(locals_)
            return IdType(a, l, r)
        if tok.kind == "J":
            self.advance()
            m = self.parse_atom(locals_)
            b = self.parse_atom(locals_)
            p = self.parse_atom(locals_)
            return JElim(m, b, p)
        if tok.kind == "(":
            self.advance()
            t = self.parse_term(locals_)
            self.expect(")")
            return t
        self.fail({"a term"})

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
                names.append(self.advance().text)
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
        tok = self.peek()
        if tok.kind in ("ident", "qident"):
            head = self.advance()
            args: list[Pattern] = []
            while self.peek().kind in ("ident", "qident", "refl", "(", "."):
                args.append(self.parse_pattern_atom(bound, locals_base))
            return self.make_head_pattern(head, tuple(args), bound)
        return self.parse_pattern_atom(bound, locals_base)

    def parse_pattern_atom(self, bound: list[str],
                           locals_base: list[str]) -> Pattern:
        tok = self.peek()
        if tok.kind in ("ident", "qident"):
            self.advance()
            return self.make_head_pattern(tok, (), bound)
        if tok.kind == "refl":
            self.advance()
            return PatRefl()
        if tok.kind == ".":
            self.advance()
            self.expect("(")
            t = self.parse_term(locals_base + bound)
            self.expect(")")
            return PatInacc(t)
        if tok.kind == "(":
            self.advance()
            p = self.parse_pattern(bound, locals_base)
            self.expect(")")
            return p
        self.fail({"a pattern"})

    def make_head_pattern(self, tok: Token, args: tuple[Pattern, ...],
                          bound: list[str]) -> Pattern:
        if tok.kind == "qident":
            data, ctor = self.resolve_qualified(tok.text, tok)
            self.check_point_ctor(data, ctor, tok)
            return PatCtor(data, ctor, args)
        name = tok.text
        cands = self.env.ctor_candidates(name)
        if len(cands) > 1:
            raise ScopeError(
                f"ambiguous constructor pattern {name!r}; qualify as one of "
                + ", ".join(f"{d}.{name}" for d in sorted(cands)),
                tok.line, tok.col)
        if len(cands) == 1:
            self.check_point_ctor(cands[0], name, tok)
            return PatCtor(cands[0], name, args)
        if args:
            raise ScopeError(f"unknown constructor {name!r} in pattern",
                             tok.line, tok.col)
        if self.env.is_decl(name):
            raise ScopeError(
                f"pattern variable {name!r} shadows a declaration",
                tok.line, tok.col)
        if name != "_":
            if name in bound:
                raise ScopeError(f"pattern variable {name!r} bound twice",
                                 tok.line, tok.col)
            bound.append(name)
        return PatVar(name)

    def check_point_ctor(self, data: str, ctor: str, tok: Token):
        if self.env.datas[data][ctor]:
            raise ScopeError(
                f"path constructor {data}.{ctor} cannot be matched",
                tok.line, tok.col)

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
        name = name_tok.text
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
        cname = name_tok.text
        if cname in self.env.datas[data]:
            raise ScopeError(f"duplicate constructor {cname!r} in {data}",
                             name_tok.line, name_tok.col)
        if self.env.is_decl(cname):
            raise ScopeError(
                f"constructor {cname!r} collides with a declaration",
                name_tok.line, name_tok.col)
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
        name = name_tok.text
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
        out: list[str] = []
        i = self.pos
        while i < len(self.toks) and self.toks[i].kind not in ("=>", "eof"):
            t = self.toks[i]
            if t.kind == "." and self.toks[i + 1].kind == "(":
                depth = 0
                i += 1
                while i < len(self.toks):
                    if self.toks[i].kind == "(":
                        depth += 1
                    elif self.toks[i].kind == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    i += 1
            elif (t.kind == "ident" and t.text != "_" and t.text not in out
                  and not self.env.is_decl(t.text)
                  and not self.env.ctor_candidates(t.text)):
                out.append(t.text)
            i += 1
        return out

    def parse_axiom(self) -> AxiomDecl:
        loc = self.loc()
        self.expect("axiom")
        name_tok = self.expect("ident", "axiom name")
        self.check_fresh_decl(name_tok.text, name_tok)
        self.expect(":")
        ty = self.parse_term([])
        self.env.axioms.add(name_tok.text)
        return AxiomDecl(name_tok.text, ty, loc=loc)

    def parse_mutual(self) -> MutualBlock:
        loc = self.loc()
        self.expect("mutual")
        # pre-register all member names so the group can refer forward
        i = self.pos
        names = []
        while i < len(self.toks) and self.toks[i].kind != "end":
            if self.toks[i].kind == "data" and self.toks[i + 1].kind == "ident":
                names.append(self.toks[i + 1])
            i += 1
        if self.toks[min(i, len(self.toks) - 1)].kind != "end":
            self.fail({"'end' closing the mutual block"})
        for tok in names:
            self.check_fresh_decl(tok.text, tok)
            self.env.datas[tok.text] = {}
        members = []
        while self.at("data"):
            members.append(self.parse_data(preregistered=True))
        if not members:
            self.fail({"data"})
        self.expect("end")
        return MutualBlock(tuple(members), loc=loc)


def parse(source: str, env: NameEnv | None = None) -> SourceModule:
    """Parse and scope-check a module. Raises ParseError / ScopeError."""
    p = Parser(lex(source), (env or NameEnv()).copy())
    return p.parse_module()


def parse_term_text(source: str, env: NameEnv,
                    locals_: tuple[str, ...] = ()) -> Term:
    """Parse a single term against an environment; used by tests and tools."""
    p = Parser(lex(source), env.copy())
    t = p.parse_term(list(locals_))
    p.expect("eof")
    return t
