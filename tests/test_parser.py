import pytest

from fordc import (DataDecl, FunDecl, MutualBlock, ParseError, PatCtor,
                   PatInacc, PatVar, ScopeError, parse, prelude_signature,
                   print_module)
from fordc.parser import Parser, lex, parse as parse_from
from fordc.printer import decl_offset
from fordc.terms import CtorRef
from conftest import CORPUS, corpus_text, load


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
])
def test_lexer_tokens(src, expected):
    assert [(t.kind, t.text, t.line, t.col) for t in lex(src)] == expected


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


def test_lexer_from_an_offset_counts_lines_from_the_start():
    assert [(t.kind, t.line, t.col) for t in lex("a\nb\n\n  c", 5)] == [
        ("ident", 4, 3), ("eof", 4, 4)]


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
    # against the names declared before it; `==` ignores locations
    text = golden.read_text(encoding="utf-8")
    whole = parse(text).decls
    p = Parser(lex(text), prelude_signature().name_env())
    for k in range(len(whole)):
        suffix = parse_from(text, p.env, decl_offset(text, k)).decls
        assert suffix == whole[k:]
        assert ([list(_locs(d)) for d in suffix]
                == [list(_locs(d)) for d in whole[k:]])
        p.parse_decl()
