"""Evaluation as a soundness oracle, on closed definitions.

For every closed, non-`partial` `def f : T` of a module that checks:

- type preservation: the normal form of `f` checks against `T`;
- canonicity: when `T` is a datatype without path constructors and the
  module declares no axiom, the normal form is headed by one of its
  constructors.

A definition with arguments is judged the same way on each application
to closed canonical values of its argument types, at the instantiated
return type (`applications`).

Exempt: `partial` definitions, which need not terminate; normal forms stuck
on an axiom, by skipping canonicity in a module with one; and a normal form
stuck on a closed `J` along a path constructor, since transport along a
path does not compute. That last one is a finding at a datatype with no
point constructors, such as `Empty`: nothing can inhabit it.

A false proof of a closed statement computes to a wrong value, so the
probes of the capture in the constructor opener, of an unforced
inaccessible pattern and of the closed proofs of `Empty` through a path
each fail here at the commits that had those holes. K itself computes
correctly on `refl`; `corpus/soundness/` tests it. `findings` uses only
names every version of `fordc` exports, so it runs on old commits too.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from fordc import (Checker, Clause, FordcError, FunDecl, SourceModule,
                   canonical_values, check_module, parse, parse_term_text,
                   print_term)
from fordc.node import replace
from fordc.terms import CtorRef, FunRef, JElim, mk_app, spine, subst_term

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _along_a_path(sig, t) -> bool:
    """`t` is a `J`, in head position, along a path constructor."""
    head, _ = spine(t)
    while isinstance(head, JElim):
        head, _ = spine(head.path)
    return (isinstance(head, CtorRef)
            and sig.datas[head.data].ctors[head.name].is_path)


def findings(module, sig) -> list[str]:
    """What the oracle flags in `module`, checked into `sig`."""
    out = []
    for d in module.decls:
        if not isinstance(d, FunDecl) or d.binders or d.partial:
            continue
        ck = Checker(sig)
        nf = ck.nf(FunRef(d.name))
        try:
            if nf != d.body:  # else checking the module checked it
                ck.check({}, nf, d.ret)
        except FordcError as e:
            out.append(f"{d.name}: {print_term(nf)} does not check: "
                       f"{e.message}")
            continue
        split = sig.split_data_type(ck.nrm.whnf(d.ret))
        if split is None or sig.axioms:
            continue
        info = split[0]
        if any(c.is_path for c in info.ctors.values()):
            continue
        head, _ = spine(nf)
        if isinstance(head, CtorRef) and head.data == info.decl.name:
            continue
        if info.ctors and _along_a_path(sig, nf):
            continue  # transport along a path does not compute
        out.append(f"{d.name}: {print_term(nf)} is no constructor of "
                   f"{info.decl.name}")
    return out


def _checked_modules():
    for path in sorted(CORPUS.rglob("*.fda")):
        module = parse(path.read_text(encoding="utf-8"))
        try:
            sig = check_module(module)
        except FordcError:
            continue
        yield pytest.param(module, sig, id=str(path.relative_to(CORPUS)))


@pytest.mark.parametrize("module, sig", _checked_modules())
def test_closed_definitions_evaluate_to_canonical_values_of_their_type(
        module, sig):
    assert findings(module, sig) == []


BASE = """\
data Nat
  | zero
  | suc (n : Nat)

data Bool
  | true
  | false

def pick (b : Bool) : Nat
  | true => zero
  | false => suc zero

"""


def oracle(decls: str, break_it=None) -> list[str]:
    module = parse(BASE + decls)
    sig = check_module(module)
    if break_it:
        break_it(sig)
    return findings(module, sig)


def _set_rhs(name, text):
    def go(sig):
        f = sig.funs[name]
        (clause,) = f.clauses
        sig.add_fun(replace(f, clauses=(
            Clause(clause.pats, parse_term_text(text, sig.name_env())),)))
    return go


def _drop_first_clause(name):
    def go(sig):
        f = sig.funs[name]
        sig.add_fun(replace(f, clauses=f.clauses[1:]))
    return go


@pytest.mark.parametrize("decls, break_it, expected", [
    ("def bad : Bool => true\n", _set_rhs("bad", "zero"),
     "bad: zero does not check: type mismatch: expected Bool, got Nat"),
    ("def bad : Nat => pick true\n", _drop_first_clause("pick"),
     "bad: pick true is no constructor of Nat"),
    ("axiom z : Nat\n\ndef fine : Nat => z\n", None, None),
    ("partial def spin : Nat => spin\n", None, None),
    ("data S1\n  | base\n  | loop : Id S1 base base\n\n"
     "def moved : Nat => subst S1 (\\x => Nat) base base loop zero\n",
     None, None),
], ids=["not-type-preserving", "not-canonical", "axiom", "partial",
        "transport-along-a-path"])
def test_the_oracle_flags_a_wrong_value_and_exempts_the_rest(decls, break_it,
                                                            expected):
    # `break_it` stands in for an unsound checker that let the module through
    assert oracle(decls, break_it) == ([] if expected is None else [expected])


def _instances(sig, binders, sub, depth):
    """Each extension of `sub` by closed canonical values for `binders`,
    each type instantiated at the values chosen before it."""
    if not binders:
        yield sub
        return
    b, rest = binders[0], binders[1:]
    for v in canonical_values(sig, subst_term(b.type, sub), depth):
        yield from _instances(sig, rest, {**sub, b.name: v}, depth)


def applications(module, sig, depth=2):
    """Each non-`partial` `def` of `module` with arguments, applied to
    closed canonical values of its argument types at `depth`: one closed
    `def`, named by the application's text, per application, checked at
    the instantiated return type into a copy of `sig`. Returns them as a
    module, and that signature, for `findings`."""
    sig = sig.copy()
    apps = []
    for d in module.decls:
        if not isinstance(d, FunDecl) or not d.binders or d.partial:
            continue
        for sub in _instances(sig, d.binders, {}, depth):
            t = mk_app(FunRef(d.name), *(sub[b.name] for b in d.binders))
            app = FunDecl(print_term(t), (), subst_term(d.ret, sub), body=t)
            Checker(sig).check_fun(app)
            apps.append(app)
    return SourceModule(tuple(apps)), sig


def test_definitions_applied_to_canonical_values_evaluate_to_canonical_values():
    flagged, count = [], 0
    for param in _checked_modules():
        apps, sig = applications(*param.values)
        flagged += [f"{param.id}: {f}" for f in findings(apps, sig)]
        count += len(apps.decls)
    assert flagged == []
    assert count >= 21  # so that the oracle cannot pass on nothing
