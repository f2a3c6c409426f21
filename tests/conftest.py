import random
from itertools import chain, count
from pathlib import Path

import pytest

from fordc import (Binder, DataDecl, FunDecl, MutualBlock, PatCtor, PatInacc,
                   PatVar, SourceModule, check_module, parse,
                   prelude_signature)
from fordc.node import replace
from fordc.terms import Lam, Pi, Var, map_term

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


def load(name: str):
    """Parse a corpus module."""
    return parse(corpus_text(name))


def load_checked(name: str):
    """Parse and check a corpus module: (module, signature)."""
    m = load(name)
    return m, check_module(m)


PLUS_MULT = """\
data Nat
  | zero
  | suc (n : Nat)

def plus (m : Nat) (n : Nat) : Nat
  | zero n => n
  | (suc k) n => suc (plus k n)

def mult (m : Nat) (n : Nat) : Nat
  | zero n => zero
  | (suc k) n => plus n (mult k n)
"""

NAT_BOOL = """\
data Nat
  | zero
  | suc (n : Nat)

data Bool
  | true
  | false

"""

# after NAT_BOOL: `cons`, whose row forces its slot to `zero`, matched with
# the pattern `{}`
FORCED_SLOT = """\
data Vec : (n : Nat)
  | nil [zero]
  | cons [suc m] (xs : Vec m)
def g (v : Vec (suc zero)) : Nat
  | (cons {} xs) => zero
"""


def numeral(k: int) -> str:
    """`k` in unary, as the printer spells it."""
    return "suc (" * (k - 1) + "suc zero" + ")" * (k - 1) if k else "zero"


def mult_term(a: int, b: int) -> str:
    return f"mult ({numeral(a)}) ({numeral(b)})"


def arith_theorem(a: int, b: int, extra_suc: bool = False) -> str:
    """`mult a b = mult b a` by refl, false by one `suc` if asked."""
    rhs = mult_term(b, a)
    if extra_suc:
        rhs = f"suc ({rhs})"
    return PLUS_MULT + f"\ndef t : Id Nat ({mult_term(a, b)}) ({rhs})\n  => refl\n"


SLOT_LIKE = ("A", "B", "n", "m", "k", "x", "xs", "y", "v", "eq")


def rename_locals(m: SourceModule, rng: random.Random,
                  pool=SLOT_LIKE) -> SourceModule:
    """An alpha-renaming of `m`. Each declaration (each member of a mutual
    block) maps its local names (binders, pattern variables, data
    parameters, indices and constructor slots) injectively onto a shuffle
    of `pool`, then onto names fresh in the whole module once the pool is
    used up. Declarations draw apart, so one declaration's variables can
    meet another's slot names; with an empty pool no two declarations share
    a local name. Global names and `_` stay."""
    taken = prelude_signature().all_names() | {
        n for d in m.data_decls() for n in (d.name, *(c.name for c in d.ctors))
    } | {d.name for d in m.decls if not isinstance(d, MutualBlock)}
    fresh = (f"r{i}" for i in count() if f"r{i}" not in taken)

    def one(decl):
        seen: dict[str, str] = {}  # first-seen order: the seed fixes all
        _rename_decl(decl, lambda x: seen.setdefault(x, x))
        names = [x for x in seen if x != "_"]
        picks = [p for p in pool if p not in taken]
        rng.shuffle(names)
        rng.shuffle(picks)
        ren = {"_": "_", **dict(zip(names, chain(picks, fresh)))}
        return _rename_decl(decl, ren.__getitem__)

    return SourceModule(tuple(
        replace(d, decls=tuple(map(one, d.decls)))
        if isinstance(d, MutualBlock) else one(d) for d in m.decls))


def _rename_decl(d, f):
    """`d` with every local name `x` replaced by `f(x)`."""
    def node(u):
        match u:
            case Var(x):
                return Var(f(x))
            case Pi(x, a, b):
                return Pi(f(x), a, b)
            case Lam(x, b):
                return Lam(f(x), b)
        return u

    def term(t):
        return None if t is None else map_term(t, node)

    def tele(bs):
        return tuple(Binder(f(b.name), term(b.type)) for b in bs)

    def pats(ps):
        return tuple(map(pat, ps))

    def pat(p):
        match p:
            case PatVar(x):
                return PatVar(f(x))
            case PatCtor(dn, cn, args):
                return PatCtor(dn, cn, pats(args))
            case PatInacc(t):
                return PatInacc(term(t))
        return p

    if isinstance(d, DataDecl):
        ctors = tuple(replace(c, availability=pats(c.availability),
                              args=tele(c.args), path_type=term(c.path_type))
                      for c in d.ctors)
        return replace(d, params=tele(d.params), indices=tele(d.indices),
                       ctors=ctors)
    if isinstance(d, FunDecl):
        return replace(d, binders=tele(d.binders), ret=term(d.ret),
                       body=term(d.body),
                       clauses=tuple(replace(c, pats=pats(c.pats),
                                             rhs=term(c.rhs))
                                     for c in d.clauses))
    return replace(d, type=term(d.type))
