"""`Normalizer.normalize` against the reference evaluator (`reference.py`).

On each input both compute a normal form with the same step budget; they
must agree up to `alpha_eq` and spend the same number of steps. An input
on which both run out of budget is skipped and counted; one on which only
one side does is a disagreement. The inputs:

- every closed definition of every corpus module that checks;
- every definition applied to closed canonical values of its argument
  types at depth 2 (`test_oracle.applications`);
- SHAPES: each head of HEADS, a value of every shape, applied to
  arguments in each context of CONTEXTS, directly, through a variable and
  behind a β-reduction. Most are ill-typed, which evaluation does not
  look at; they reach the paths of `Normalizer.eval` that well-typed
  closed terms seldom take, such as a `Pi` or an `Id` applied to an
  argument.
"""

from __future__ import annotations

from fordc import (FunDecl, StepBudgetExceeded, check_module, parse,
                   parse_term_text, print_term)
from fordc.normalize import Normalizer
from fordc.terms import FunRef, alpha_eq
from reference import OutOfSteps, Reference
from test_oracle import _checked_modules, applications

BUDGET = 1000  # the corpus inputs spend at most 4 steps
MODULES = list(_checked_modules())


def _normal_forms(sig, t):
    """`(normal form, steps)` from `Normalizer` and from the reference, with
    None for a side that ran out of budget."""
    nrm, ref = Normalizer(sig, BUDGET), Reference(sig, BUDGET)
    try:
        got = nrm.normalize(t), nrm.steps
    except StepBudgetExceeded:
        got = None
    try:
        want = ref.normalize(t), ref.steps
    except OutOfSteps:
        want = None
    return got, want


def _show(result) -> str:
    if result is None:
        return "no value"
    return f"{print_term(result[0])} in {result[1]} steps"


def disagreements(sig, terms) -> tuple[list[str], int]:
    """The inputs of `terms` (name, term) on which the two differ, and the
    number skipped because both ran out of budget."""
    out, skipped = [], 0
    for name, t in terms:
        got, want = _normal_forms(sig, t)
        if got is None and want is None:
            skipped += 1
        elif (got is None or want is None or got[1] != want[1]
              or not alpha_eq(got[0], want[0])):
            out.append(f"{name}: normalize gives {_show(got)}, the "
                       f"reference {_show(want)}")
    return out, skipped


def _closed(module):
    return [(d.name, FunRef(d.name)) for d in module.decls
            if isinstance(d, FunDecl) and not d.binders]


def test_closed_corpus_definitions_agree_with_the_reference():
    flagged, count, skipped = [], 0, 0
    for param in MODULES:
        module, sig = param.values
        terms = _closed(module)
        bad, skips = disagreements(sig, terms)
        flagged += [f"{param.id}: {b}" for b in bad]
        count, skipped = count + len(terms), skipped + skips
    assert flagged == []
    assert (count, skipped) == (10, 0)


def test_applied_corpus_definitions_agree_with_the_reference():
    flagged, count, skipped = [], 0, 0
    for param in MODULES:
        apps, sig = applications(*param.values)
        terms = [(d.name, d.body) for d in apps.decls]
        bad, skips = disagreements(sig, terms)
        flagged += [f"{param.id}: {b}" for b in bad]
        count, skipped = count + len(terms), skipped + skips
    assert flagged == []
    assert (count, skipped) == (21, 0)


SHAPES_MODULE = """\
data Nat
  | zero
  | suc (n : Nat)

data S1
  | base
  | loop : Id S1 base base

def plus (m : Nat) (n : Nat) : Nat
  | zero n => n
  | (suc k) n => suc (plus k n)

def second (m : Nat) (n : Nat) : Nat
  | (suc _) n => n
  | _ _ => zero

def onBase (s : S1) : Nat
  | base => zero

partial def spin (n : Nat) : Nat
  | n => spin n
"""

# a value of each shape, with `x` and `p` free
HEADS = ["\\y => suc y", "\\y => plus y y", "suc", "zero", "plus",
         "plus (suc zero)", "plus x", "second (suc x)", "x", "Nat",
         "Id Nat zero zero", "Nat -> Nat", "Pi (y : Nat) -> Id Nat y y",
         "J (\\z q => Nat -> Nat) (\\n => n) refl",
         "J (\\z q => Nat -> Nat) (\\n => suc n) p", "refl", "loop", "base",
         "onBase", "spin"]

# where a head meets arguments: `{}` is the head
CONTEXTS = ["{}", "({}) zero", "({}) x (suc zero)", "(\\f => f zero) ({})",
            "(\\f => f x x) ({})", "(\\f y => f y) ({}) (suc x)",
            "(\\a => {}) zero (suc zero)", "(\\a b => {}) zero zero x",
            "plus (({}) zero) x", "second (({}) x) (suc zero)",
            "onBase (({}) zero)", "\\w => ({}) w", "Id Nat (({}) x) x"]


def test_values_of_every_shape_applied_in_every_context_agree():
    sig = check_module(parse(SHAPES_MODULE))
    terms = []
    for context in CONTEXTS:
        for head in HEADS:
            text = context.format(head)
            terms.append((text, parse_term_text(text, sig.name_env(),
                                                locals_=("x", "p"))))
    flagged, skipped = disagreements(sig, terms)
    assert flagged == []
    assert (len(terms), skipped) == (260, 12)


TABLES_MODULE = SHAPES_MODULE + """
partial def half (n : Nat) : Nat
  | zero => zero
  | (suc zero) => zero
  | (suc (suc k)) => suc (half k)

def rf (b : Nat) (x : Nat) (y : Nat) (p : Id Nat x y) : Nat
  | zero x .(x) refl => x
  | b x y p => b

def mid (s : S1) (n : Nat) : Nat
  | base (suc k) => k
  | s n => n
  | base zero => zero
"""

# nested constructor rows, a `refl` column ahead of a variable row, and a
# variable row between constructor rows; each partly applied, with short
# constructors, neutral values and a path constructor among the arguments
TABLE_HEADS = ["half", "half (suc (suc (suc x)))", "half (suc suc)",
               "half suc", "rf zero", "rf zero x x", "rf zero x x p",
               "rf (suc x) zero zero", "mid", "mid base", "mid loop",
               "mid loop (suc x)", "mid base (suc suc)", "mid x"]


def test_clause_tables_applied_in_every_context_agree():
    sig = check_module(parse(TABLES_MODULE))
    terms = []
    for context in CONTEXTS:
        for head in TABLE_HEADS:
            text = context.format(head)
            terms.append((text, parse_term_text(text, sig.name_env(),
                                                locals_=("x", "p"))))
    flagged, skipped = disagreements(sig, terms)
    assert flagged == []
    assert (len(terms), skipped) == (182, 0)
