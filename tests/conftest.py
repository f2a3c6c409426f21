import gc
from pathlib import Path

import pytest

from fordc import check_module, parse
from renaming import rename_locals  # noqa: F401 (the tests import it here)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


def cyclic_garbage(work) -> int:
    """The number of objects in reference cycles that `work()` leaves,
    run with the collector emptied and paused, then put back as it was."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


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
