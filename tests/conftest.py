from pathlib import Path

import pytest

from fordc import check_module, parse

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
