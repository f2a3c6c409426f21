import random
import re

import pytest

from fordc import (DataDecl, FunDecl, MutualBlock, ParseError, PatCtor,
                   PatInacc, PatVar, ScopeError, cli, ford_module,
                   merge_block, parse, parse_term_text, prelude_signature,
                   print_module)
from fordc.parser import KEYWORDS, Parser, lex, parse as parse_from
from fordc.printer import decl_line
from fordc.terms import CtorRef
from conftest import CORPUS, corpus_text, load, load_checked


def test_smallest_enumeration_one_liner():
    m = parse("data Bool | true | false")
    assert len(m.decls) == 1
    d = m.decls[0]
    assert isinstance(d, DataDecl)
    assert d.name == "Bool" and d.indices == () and d.params == ()
    assert [c.name for c in d.ctors] == ["true", "false"]
    assert all(c.availability == () and c.args == () for c in d.ctors)


def test_so_availability_row():
    m = load("so.fda")
    so = m.find_data("So")
    (oh,) = so.ctors
    assert oh.availability == (PatCtor("Bool", "true"),)


def test_vec_availability_rows():
    m = load("vec.fda")
    vec = m.find_data("Vec")
    nil, cons = vec.ctors
    assert nil.availability == (PatCtor("Nat", "zero"),)
    assert cons.availability == (PatCtor("Nat", "suc", (PatVar("m"),)),)
    assert [b.name for b in cons.args] == ["x", "xs"]


def test_parser_totality_on_corpus():
    for path in sorted(CORPUS.glob("*.fda")):
        parse(path.read_text(encoding="utf-8"))


def test_parse_error_has_position_and_expectations():
    with pytest.raises(ParseError) as ei:
        parse("data Bool |")
    e = ei.value
    assert e.loc == (1, 12)
    assert e.expected


def test_unknown_name_is_scope_error():
    with pytest.raises(ScopeError):
        parse("def f (x : Booool) : Booool => x")


def test_duplicate_declaration_rejected():
    with pytest.raises(ScopeError):
        parse("data Bool | true | false\ndata Bool | tt")


def test_ambiguous_constructor_requires_qualification():
    src = """
data A
  | mk

data B
  | mk

axiom use : A
"""
    parse(src)  # declaring the same ctor name twice is fine
    with pytest.raises(ScopeError):
        parse(src.replace("axiom use : A", "def use : A => mk"))
    parse(src.replace("axiom use : A", "def use : A => A.mk"))


def test_nonlinear_pattern_row_rejected():
    src = """
data Nat
  | zero
  | suc (n : Nat)

def f (a : Nat) (b : Nat) : Nat
  | n n => n
"""
    with pytest.raises(ScopeError):
        parse(src)


def test_wildcards_do_not_count_as_bindings():
    src = """
data Nat
  | zero
  | suc (n : Nat)

def f (a : Nat) (b : Nat) : Nat
  | _ _ => zero
"""
    parse(src)


def test_path_constructor_not_matchable():
    src = """
data S1
  | base
  | loop : Id S1 base base

def f (x : S1) : S1
  | loop => base
"""
    with pytest.raises(ScopeError):
        parse(src)


def test_whitespace_insensitive():
    a = parse(corpus_text("vec.fda"))
    b = parse(" ".join(corpus_text("vec.fda").split()))
    assert a == b


def test_unicode_identifiers_rejected():
    with pytest.raises(ParseError):
        parse("data Bóol | true")


def test_empty_module():
    m = parse("")
    assert m.decls == ()
    assert print_module(m) == ""


def lexed(src: str, line: int = 1) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, column) of each token `lex` scans."""
    toks = lex(src, line)
    return [(k, t, *toks.position(i))
            for i, (k, t) in enumerate(zip(toks.kinds, toks.texts))]


@pytest.mark.parametrize("src, expected", [
    ("D.c", [("qident", "D.c", 1, 1), ("eof", "", 1, 4)]),
    ("refl.x", [("refl", "refl", 1, 1), (".", ".", 1, 5),
                ("ident", "x", 1, 6), ("eof", "", 1, 7)]),
    ("A.b.c", [("qident", "A.b", 1, 1), (".", ".", 1, 4),
               ("ident", "c", 1, 5), ("eof", "", 1, 6)]),
    ("a -->b\n=>", [("ident", "a", 1, 1), ("=>", "=>", 2, 1),
                    ("eof", "", 2, 3)]),
    ("x' y''", [("ident", "x'", 1, 1), ("ident", "y''", 1, 4),
                ("eof", "", 1, 7)]),
    ("\tx\r\n (", [("ident", "x", 1, 2), ("(", "(", 2, 2),
                    ("eof", "", 2, 3)]),
    # the column does not advance over a comment
    ("x  -- trailing", [("ident", "x", 1, 1), ("eof", "", 1, 4)]),
    ("Id.x.y", [("Id", "Id", 1, 1), (".", ".", 1, 3),
                ("qident", "x.y", 1, 4), ("eof", "", 1, 7)]),
    ("J.refl z", [("J", "J", 1, 1), (".", ".", 1, 2), ("refl", "refl", 1, 3),
                  ("ident", "z", 1, 8), ("eof", "", 1, 9)]),
    ("data T\r\n  | t -- c", [("data", "data", 1, 1), ("ident", "T", 1, 6),
                              ("|", "|", 2, 3), ("ident", "t", 2, 5),
                              ("eof", "", 2, 7)]),
    ("", [("eof", "", 1, 1)]),
    ("-- only", [("eof", "", 1, 1)]),
])
def test_lexer_tokens(src, expected):
    assert lexed(src) == expected


def test_the_token_count_is_the_length_of_the_arrays():
    # `bench/tracer.py` counts `parser.tokens` with `len()`
    toks = lex(corpus_text("vec.fda"))
    assert len(toks) == len(toks.kinds) > 1
    assert len(toks.texts) == len(toks.offsets) == len(toks.kinds)


def test_lexer_rejects_non_ascii_with_position():
    with pytest.raises(ParseError) as ei:
        lex("data B\n  | \u00e9")
    assert ei.value.message == "unexpected character '\u00e9'"
    assert ei.value.loc == (2, 5)


def test_ambiguous_constructor_lists_sorted_qualifications():
    src = "data B\n  | mk\n\ndata A\n  | mk\n\ndef use : A => mk\n"
    with pytest.raises(ScopeError) as ei:
        parse(src)
    assert ei.value.message.endswith("qualify as one of A.mk, B.mk")


def test_def_named_like_a_constructor_is_a_duplicate():
    with pytest.raises(ScopeError) as ei:
        parse("data Bool\n  | true\n  | false\n\ndef true : Bool => false")
    assert ei.value.message == "duplicate declaration 'true'"


def test_constructor_named_like_a_declaration_clashes():
    with pytest.raises(ScopeError) as ei:
        parse("axiom a : Type0\n\ndata T\n  | a")
    assert ei.value.message == "constructor 'a' collides with a declaration"


def test_constructor_in_clause_row_is_not_a_pattern_variable():
    src = """
data Nat
  | zero
  | suc (n : Nat)

def f (a : Nat) (b : Nat) : Nat
  | zero .(zero) => zero
"""
    (clause,) = parse(src).decls[1].clauses
    assert clause.pats == (PatCtor("Nat", "zero"),
                           PatInacc(CtorRef("Nat", "zero")))


def test_lexer_from_a_line_counts_lines_from_it():
    assert lexed("  c", 4) == [("ident", "c", 4, 3), ("eof", "", 4, 4)]


def _locs(decl):
    """Every location in a declaration: its own, and those of its members,
    constructor rows and clauses."""
    yield decl.loc
    for d in decl.decls if isinstance(decl, MutualBlock) else (decl,):
        if d is not decl:
            yield d.loc
        if isinstance(d, DataDecl):
            yield from (c.loc for c in d.ctors)
        elif isinstance(d, FunDecl):
            yield from (c.loc for c in d.clauses)


@pytest.mark.parametrize("golden", sorted(CORPUS.glob("*.golden.fda")),
                         ids=lambda p: p.name)
def test_suffix_parse_matches_the_whole_parse(golden):
    # what a transform parses back: the printed text from declaration k on,
    # from its line, against the names declared before it; `==` ignores
    # locations
    text = golden.read_text(encoding="utf-8")
    m = parse(text)
    whole = m.decls
    p = Parser(lex(text), prelude_signature().name_env())
    for k in range(len(whole)):
        suffix = parse_from(print_module(m, k), p.env,
                            decl_line(m, k)).decls
        assert suffix == whole[k:]
        assert ([list(_locs(d)) for d in suffix]
                == [list(_locs(d)) for d in whole[k:]])
        p.parse_decl()


# the corpus manifest's `ford` and `merge` cases: (kind, input, target,
# path constructor specs)
TRANSFORMS = [(f[0], f[1], f[3], f[4:]) for f in map(str.split, (
    CORPUS / "manifest.txt").read_text(encoding="utf-8").splitlines())
    if f and f[0] in ("ford", "merge")]


@pytest.mark.parametrize("kind, name, target, specs", TRANSFORMS,
                         ids=[f"{t[0]}-{t[1]}" for t in TRANSFORMS])
def test_a_transform_parses_back_what_the_whole_print_gives(kind, name,
                                                            target, specs):
    # the whole output printed, and parsed from the offset of the first
    # changed declaration, with the lines before it kept as blank lines
    m, sig = load_checked(name)
    if kind == "ford":
        out, _ = ford_module(m, sig, target)
    else:
        paths = [tuple(spec.split(":")) for spec in specs]
        out, _ = merge_block(m, sig, target.split(","), paths)
    k = cli._shared_prefix(m.decls, out.decls)
    text = print_module(out)
    start = sum(len(b) + 2 for b in text.split("\n\n", k)[:k])
    whole = parse_from("\n" * text.count("\n", 0, start) + text[start:],
                       sig.rewind(m.decls[k:]).name_env()).decls
    assert out.decls[k:] == whole
    assert ([list(_locs(d)) for d in out.decls[k:]]
            == [list(_locs(d)) for d in whole])


def test_lexer_error_from_a_line_counts_lines_from_it():
    with pytest.raises(ParseError) as ei:
        lex("  c @", 4)
    assert ei.value.message == "unexpected character '@'"
    assert ei.value.loc == (4, 5)


_NAT = "data Nat\n  | zero\n  | suc (n : Nat)\n\n"


@pytest.mark.parametrize("src, error, loc, message", [
    ("data A\n  | mk\n\ndata B\n  | mk\n\ndef f (x : A) : A\n  | mk => x\n",
     ScopeError, (8, 5),
     "ambiguous constructor pattern 'mk'; qualify as one of A.mk, B.mk"),
    (_NAT + "def g : Nat => zero\n\ndef f (x : Nat) : Nat\n  | g => zero\n",
     ScopeError, (8, 5), "pattern variable 'g' shadows a declaration"),
    ("data T\n  | a\n  | a\n", ScopeError, (3, 5),
     "duplicate constructor 'a' in T"),
    ("data S1\n  | base\n  | loop : Id S1 base base\n\n"
     "def f (x : S1) : S1\n  | loop => base\n",
     ScopeError, (6, 5), "path constructor S1.loop cannot be matched"),
    (_NAT + "def f (a : Nat) (b : Nat) : Nat\n  | x x => x\n",
     ScopeError, (6, 7), "pattern variable 'x' bound twice"),
    ("mutual\ndata A\n  | a\n", ParseError, (2, 1),
     "expected 'end' closing the mutual block, found 'data'"),
    ("data T\n\t| t @", ParseError, (2, 6), "unexpected character '@'"),
    (_NAT + "def f : Nat => Nat.foo\n", ScopeError, (5, 16),
     "unknown constructor 'Nat.foo'"),
    (_NAT + "def f : Nat => )\n", ParseError, (5, 16),
     "expected a term, found ')'"),
    (_NAT + "def f (x) : Nat => zero\n", ParseError, (5, 7),
     "expected :, found '('"),
    (_NAT + "def f : Pi -> Nat => zero\n", ParseError, (5, 12),
     "expected a binder group '(name : type)', found '->'"),
    (_NAT + "def f (n : Nat) : Nat\n  | (suc )) => zero\n", ParseError,
     (6, 11), "expected a pattern, found ')'"),
    (_NAT + "zero\n", ParseError, (5, 1),
     "expected axiom, data, def, mutual, found 'zero'"),
    ("mutual\nend\n", ParseError, (2, 1), "expected data, found 'end'"),
], ids=["ambiguous-pattern", "shadowing-pattern", "duplicate-ctor",
        "path-ctor-pattern", "pattern-var-twice", "mutual-without-end",
        "stray-character", "unknown-qualified-ctor", "no-term",
        "not-a-binder-group", "pi-without-binder", "no-pattern",
        "not-a-declaration", "empty-mutual"])
def test_located_parse_and_scope_errors(src, error, loc, message):
    with pytest.raises(error) as ei:
        parse(src)
    assert type(ei.value) is error
    assert (ei.value.loc, ei.value.message) == (loc, message)


# -- the lexer against a reference ---------------------------------------------

_REF_IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
_REF_TOKEN = re.compile(rf"""[ \t\r]*(?:
    (?P<nl>\n)
  | (?P<comment>--[^\n]*)
  | (?P<word>{_REF_IDENT}(?:\.{_REF_IDENT})?)
  | (?P<punct>->|=>|[()\[\],:|.\\])
  | (?P<bad>.)
  | (?P<end>\Z))""", re.VERBOSE)


def reference_lex(src: str) -> list[tuple[str, str, int, int]]:
    """One match per token, with line and column bookkeeping: the lexer
    as it was written before it scanned into token arrays."""
    toks = []
    pos, line, col = 0, 1, 1
    while True:
        m = _REF_TOKEN.match(src, pos)
        kind = m.lastgroup
        start, end = m.span(kind)
        col += start - pos
        text, pos = src[start:end], end
        if kind == "word":
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
            toks.append(("eof", "", line, col))
            return toks
        toks.append((kind, text, line, col))
        col += len(text)


def _lexes_like_the_reference(src: str):
    try:
        expected = reference_lex(src)
    except ParseError as e:
        with pytest.raises(ParseError) as ei:
            lex(src)
        assert (ei.value.message, ei.value.loc) == (e.message, e.loc), src
        return
    assert lexed(src) == expected, src


_CORPUS_FILES = sorted(CORPUS.glob("**/*.fda"))


@pytest.mark.parametrize("path", _CORPUS_FILES,
                         ids=lambda p: str(p.relative_to(CORPUS)))
def test_lexer_matches_the_reference_on_the_corpus(path):
    _lexes_like_the_reference(path.read_text(encoding="utf-8"))


def test_lexer_matches_the_reference_on_character_mutants():
    # stray characters, blanks, dots, dashes, newlines and parentheses, and
    # keywords written as qualifiers, inserted or replacing one character
    rng = random.Random(16)
    texts = [p.read_text(encoding="utf-8") for p in _CORPUS_FILES]
    texts = [t for t in texts if t]
    pieces = (list("@é\t\r.-\n()")
              + [k + "." for k in sorted(KEYWORDS)])
    for _ in range(2000):
        text = rng.choice(texts)
        i = rng.randrange(len(text))
        cut = i + rng.randrange(2)  # 0: insert, 1: replace
        _lexes_like_the_reference(text[:i] + rng.choice(pieces) + text[cut:])


# characters that `\s`, `str.split` or `str.splitlines` would take for
# blanks or line breaks; to the lexer each is an unexpected character
_NOT_BLANKS = "\f\v\x1c\u00a0\u2028\ufeff"
# a comment at the very end, a comment right after a token, and identifiers
# that begin with a keyword, or are one, before a dot
_SPLIT_EDGES = [
    "data T -- no newline", "x --", "--", "x\n-- c", "x\n--", "x -- a\n-- b",
    "x-- c\ny", "(--)\n)", "a->--b", "=>--\n|", "f x--", "a.b--c",
    "Type01.x", "datax.y", "partial.x", "Type0.x", "refl.x y", "Id.x.y",
    "Type01.x.y", "partial.def.x", "defs.x", "x.Id", "J.J.J", "\n\n x",
]


def _lexes_from_a_line_like_the_reference(src: str):
    # from the third line, past tokens, blanks and a comment
    head = "data Nat -- n\n\t| zero\r\n"
    skip = len(reference_lex(head)) - 1  # its tokens, without `eof`
    try:
        expected = reference_lex(head + src)[skip:]
    except ParseError as e:
        with pytest.raises(ParseError) as ei:
            lex(src, 3)
        assert (ei.value.message, ei.value.loc) == (e.message, e.loc), src
        return
    assert lexed(src, 3) == expected, src


def test_lexer_matches_the_reference_where_a_split_can_go_wrong():
    rng = random.Random(27)
    texts = [p.read_text(encoding="utf-8") for p in _CORPUS_FILES]
    texts = [t for t in texts if t]
    inputs = list(_SPLIT_EDGES)
    for c in _NOT_BLANKS:
        for i in range(200):
            text = rng.choice(texts)
            at = rng.randrange(len(text) + 1)
            inputs.append(text[:at] + c + text[at + i % 2:])
        for edge in _SPLIT_EDGES:
            inputs.append(edge + c)
            inputs.append(c + edge)
    for src in inputs:
        _lexes_like_the_reference(src)
        _lexes_from_a_line_like_the_reference(src)
    for c in _NOT_BLANKS:
        src = "x\ny\n\nz\n  data T\n  | t" + c + " (x : T) -- " + c
        for skip, line in (("", 1), ("x\ny\n\n", 4)):
            with pytest.raises(ParseError) as ei:
                lex(src.removeprefix(skip), line)
            assert ei.value.message == f"unexpected character {c!r}"
            assert ei.value.loc == (6, 6)


def test_running_out_of_stack_is_a_depth_error_at_the_current_token(
        monkeypatch):
    # a real overflow turns line tracing off, so raise it at shallow depth
    def overflow(self, locals_):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(Parser, "parse_term", overflow)
    with pytest.raises(ParseError) as ei:
        parse("data Unit | tt\n\ndef u : Unit => tt\n")
    assert ei.value.code == "E-DEPTH" and ei.value.loc == (3, 9)


def test_a_term_nested_too_deeply_is_a_depth_error():
    # the same overflow as in a module, through the term entry point
    with pytest.raises(ParseError) as ei:
        parse_term_text("(" * 2000 + "Type0" + ")" * 2000,
                        prelude_signature().name_env())
    assert ei.value.code == "E-DEPTH"
