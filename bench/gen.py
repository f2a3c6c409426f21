"""Seeded generators for the benchmark's modules, each with its known answer.

Every generated module is written in the printer's canonical layout (one
blank line between declarations, two-space rows), so the expected output of
a transform is the input text followed by, or spliced with, text built here
from hand-written templates of the generated shape. The templates follow
`corpus/vec.forded.golden.fda` (ford) and `corpus/d1d2.merged.golden.fda`
(merge); nothing here calls fordc.

Sizes are fixed by the workload; the seed only chooses shapes: which rows a
constructor has, which arguments it takes, which factors a theorem uses.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

NAT = "data Nat\n  | zero\n  | suc (n : Nat)"

PLUS_MULT = """\
def plus (m : Nat) (n : Nat) : Nat
  | zero n => n
  | (suc k) n => suc (plus k n)

def mult (m : Nat) (n : Nat) : Nat
  | zero n => zero
  | (suc k) n => plus n (mult k n)"""

EXIT_OK, EXIT_TYPE = 0, 1


@dataclass
class Call:
    """One fordc command line and the answer it must produce.

    `argv` and `outputs` name files relative to the work directory, where
    the runner runs the call. `code` is the diagnostic code expected on
    stderr, or None when stderr must be empty; `shows` is text that
    diagnostic must contain."""
    argv: list[str]
    exit: int
    stdout: str
    code: str | None = None
    shows: str = ""
    outputs: dict[str, str] = field(default_factory=dict)


@dataclass
class Case:
    """One benchmark operation: the input files and the calls run on them."""
    label: str
    files: dict[str, str]
    calls: list[Call]


def numeral(k: int) -> str:
    """`k` in unary, as the printer spells it."""
    if k == 0:
        return "zero"
    return "suc (" * (k - 1) + "suc zero" + ")" * (k - 1)


def _paren(s: str) -> str:
    return f"({s})" if " " in s else s


def module(blocks: list[str]) -> str:
    return "\n\n".join(blocks) + "\n"


def _check_call(path: str) -> Call:
    return Call(["check", path], EXIT_OK, f"checked {path}\n")


# -- wide ------------------------------------------------------------------------

# Constructor shapes of a wide family W: availability row, arguments, and
# the clause of the splitting function f on it. `{D}` is the family,
# `{c}` the constructor, `{f}` the function.
WIDE_SHAPES = [
    ("[zero]", "", "{c}", "zero"),
    ("[suc m]", " (x : {D} m)", "({c} m x)", "suc ({f} m x)"),
    ("[suc m]", " (y : Nat)", "({c} m y)", "y"),
    ("[suc (suc m)]", " (x : {D} m)", "({c} m x)", "suc (suc ({f} m x))"),
    ("[k]", " (x : {D} k)", "({c} k x)", "{f} k x"),
]


def ctor_counts(rng: random.Random, n: int) -> list[int]:
    """n families with 1-3 constructors each and exactly 2n in total."""
    counts = [2] * n
    for _ in range(n // 2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j and counts[i] < 3 and counts[j] > 1:
            counts[i] += 1
            counts[j] -= 1
    return counts


def wide_blocks(rng: random.Random, n: int) -> list[str]:
    """Declarations of n Nat-indexed families W<i>, each followed by a
    recursive function f<i> splitting on it (Nat itself not included)."""
    blocks = []
    for i, count in enumerate(ctor_counts(rng, n)):
        d, f = f"W{i}", f"f{i}"
        rows, clauses = [f"data {d} : (n : Nat)"], [
            f"def {f} (n : Nat) (v : {d} n) : Nat"]
        for j in range(count):
            c = f"w{i}_{j}"
            row, args, pat, rhs = rng.choice(WIDE_SHAPES)
            rows.append(f"  | {c} {row}{args.format(D=d)}")
            clauses.append(f"  | n {pat.format(c=c)} => {rhs.format(f=f)}")
        blocks += ["\n".join(rows), "\n".join(clauses)]
    return blocks


def wide_case(seed: int, n: int, path: str) -> Case:
    text = module([NAT] + wide_blocks(random.Random(seed), n))
    return Case(f"wide-{n}", {path: text}, [_check_call(path)])


# -- arith -----------------------------------------------------------------------


def arith_text(a: int, b: int, false: bool) -> str:
    rhs = f"mult {_paren(numeral(b))} {_paren(numeral(a))}"
    if false:
        rhs = f"suc ({rhs})"
    theorem = (f"def t : Id Nat (mult {_paren(numeral(a))} "
               f"{_paren(numeral(b))}) ({rhs})\n"
               "  => refl")
    return module([NAT, PLUS_MULT, theorem])


def arith_case(a: int, b: int, false: bool, path: str) -> Case:
    """`check` on one theorem; a false one must be rejected with E-TYPE by
    a diagnostic that shows the false side's normal form, a*b + 1."""
    call = (Call(["check", path], EXIT_TYPE, "", "E-TYPE",
                 shows=numeral(a * b + 1)) if false
            else _check_call(path))
    label = f"arith-{a}x{b}" + ("-false" if false else "")
    return Case(label, {path: arith_text(a, b, false)}, [call])


def factor_pairs(lo: int, hi: int, least: int = 12) -> list[tuple[int, int]]:
    """Ordered pairs (a, b), both at least `least`, with lo <= a*b <= hi."""
    return [(a, b) for a in range(least, hi // least + 1)
            for b in range(least, hi // least + 1) if lo <= a * b <= hi]


# -- transform ----------------------------------------------------------------------

TRANSFORM_WIDE = 100  # wide families before G
G_CTORS = 60          # constructors of the ford target G
BLOCK_N = 100         # members of the merged mutual block

# Shapes of the ford target G: row, arguments, and the pieces of the forded
# constructor and the two converter clauses. Only constrained rows appear:
# a variable row such as `[k] (x : G k)` checks, but fordc's ford rejects
# it (the hoisted row variable clashes with itself, E-NAME-CLASH).
#   value : the row read back as a term (the index the equation fixes)
#   slots : constructor pattern variables then arguments, as bound in to<G>
#   fargs : forded arguments after the row `[n]`
#   to_rhs / from_rhs : converted arguments after the equation proofs
G_SHAPES = [
    dict(row="[zero]", args="", value="zero", slots=[], fargs="",
         to_rhs="", from_rhs=""),
    dict(row="[suc zero]", args="", value="suc zero", slots=[], fargs="",
         to_rhs="", from_rhs=""),
    dict(row="[suc m]", args=" (x : G m)", value="suc m", slots=["m", "x"],
         fargs=" (x : GF m)", to_rhs=" (toGF m x)", from_rhs=" (fromGF m x)"),
    dict(row="[suc m]", args=" (y : Nat)", value="suc m", slots=["m", "y"],
         fargs=" (y : Nat)", to_rhs=" y", from_rhs=" y"),
    dict(row="[suc (suc m)]", args=" (x : G m)", value="suc (suc m)",
         slots=["m", "x"], fargs=" (x : GF m)", to_rhs=" (toGF m x)",
         from_rhs=" (fromGF m x)"),
]


def ford_expected(shapes: list[dict]) -> tuple[list[str], str]:
    """Blocks appended by `ford --data G`, and its JSON report.

    Layout from corpus/vec.forded.golden.fda: each constrained row becomes
    `[n]` with the row variables hoisted, then `(eq : Id Nat <row> n)`, then
    the arguments with G renamed to GF. Every constructor name now exists
    in G and GF, so references in the converters are qualified."""
    data = ["data GF : (n : Nat)"]
    to = ["def toGF (n : Nat) (v : G n) : GF n"]
    frm = ["def fromGF (n : Nat) (v : GF n) : G n"]
    equations = {}
    for j, s in enumerate(shapes):
        c = f"g{j}"
        hoisted = " (m : Nat)" if "m" in s["slots"] else ""
        data.append(f"  | {c} [n]{hoisted} (eq : Id Nat {_paren(s['value'])} n)"
                    f"{s['fargs']}")
        pat = " ".join([f"G.{c}"] + s["slots"])
        m = " m" if "m" in s["slots"] else ""
        to.append(f"  | n {_paren(pat)} => GF.{c} {_paren(s['value'])}{m} "
                  f"refl{s['to_rhs']}")
        fpat = " ".join([f"GF.{c}", "n1"] + s["slots"][:1 if m else 0]
                        + ["refl"] + s["slots"][1:])
        frm.append(f"  | n ({fpat}) => G.{c}{m}{s['from_rhs']}")
        equations[c] = [{"index": "n", "value": s["value"]}]
    report = {
        "target": "G", "forded": "GF",
        "constructors": {f"g{j}": f"g{j}" for j in range(len(shapes))},
        "equations": equations,
        "converters": {"toFord": "toGF", "fromFord": "fromGF"},
    }
    blocks = ["\n".join(data), "\n".join(to), "\n".join(frm)]
    return blocks, json.dumps(report, indent=2, sort_keys=True) + "\n"


def mutual_block(rng: random.Random, n: int) -> list:
    """A plain mutual block P0..P<n-1>: [(member, [(ctor, [(arg, type)])])]."""
    members = []
    for i in range(n):
        ctors = []
        for j in range(rng.randint(1, 2)):
            args = [(a, rng.choice(["Nat", f"P{rng.randrange(n)}"]))
                    for a in "abc"[:rng.randint(0, 2)]]
            ctors.append((f"p{i}_{j}", args))
        members.append((f"P{i}", ctors))
    return members


def _binders(args, retype=lambda t: t) -> str:
    return "".join(f" ({a} : {retype(t)})" for a, t in args)


def merge_expected(members, path: tuple[str, str] | None
                   ) -> tuple[list[str], str]:
    """Blocks replacing the mutual block under `merge --types P0,...`, and
    its JSON report. Layout from corpus/d1d2.merged.golden.fda: an
    enumeration U of tags, a family T over it, one alias per member."""
    enum = ["data U"] + [f"  | {name}_tag" for name, _ in members]
    if path:
        enum.append(f"  | loop : Id U {path[0]}_tag {path[1]}_tag")
    family = "\n".join(
        ["data T : (u : U)"]
        + [f"  | {c}_T [{name}_tag]" + _binders(
            args, lambda t: t if t == "Nat" else f"T {t}_tag")
           for name, ctors in members for c, args in ctors])
    aliases = [f"def {name} : Type0\n  => T {name}_tag" for name, _ in members]
    tags = {name: f"{name}_tag" for name, _ in members}
    report = {
        "block": [name for name, _ in members],
        "enum": "U", "family": "T", "tags": tags,
        "constructors": {f"{name}.{c}": f"{c}_T"
                         for name, ctors in members for c, _ in ctors},
        "paths": ([{"name": "loop", "lhs": tags[path[0]],
                    "rhs": tags[path[1]]}] if path else []),
        "aliases": {name: f"T {name}_tag" for name, _ in members},
    }
    blocks = ["\n".join(enum), family] + aliases
    return blocks, json.dumps(report, indent=2, sort_keys=True) + "\n"


def transform_case(seed: int, path: str) -> Case:
    rng = random.Random(seed)
    prefix = [NAT] + wide_blocks(rng, TRANSFORM_WIDE)
    shapes = [rng.choice(G_SHAPES) for _ in range(G_CTORS)]
    g = "\n".join(["data G : (n : Nat)"]
                  + [f"  | g{j} {s['row']}{s['args']}"
                     for j, s in enumerate(shapes)])
    members = mutual_block(rng, BLOCK_N)
    mutual = "\n".join(
        ["mutual"]
        + [f"data {name}\n" + "\n".join(f"  | {c}{_binders(args)}"
                                        for c, args in ctors)
           for name, ctors in members]
        + ["end"])
    loop = None
    if rng.random() < 0.5:
        loop = tuple(f"P{rng.randrange(BLOCK_N)}" for _ in range(2))

    ford_blocks, ford_report = ford_expected(shapes)
    merge_blocks, merge_report = merge_expected(members, loop)
    source = prefix + [g, mutual]
    out_ford, out_merge = "transform.forded.fda", "transform.merged.fda"
    ford = Call(["ford", path, "--data", "G", "--out", out_ford], EXIT_OK,
                ford_report, outputs={out_ford: module(source + ford_blocks)})
    types = ",".join(name for name, _ in members)
    merge_argv = ["merge", path, "--types", types]
    if loop:
        merge_argv += ["--path", f"loop:{loop[0]}:{loop[1]}"]
    merge = Call(merge_argv + ["--out", out_merge], EXIT_OK, merge_report,
                 outputs={out_merge: module(prefix + [g] + merge_blocks)})
    return Case("transform", {path: module(source)}, [ford, merge])
