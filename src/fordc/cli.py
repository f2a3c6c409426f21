"""Command-line front door: check, ford, merge, and the corpus harness.

Exit codes: 0 success, 1 type error, 2 parse/scope error, 3 I/O error,
4 ford transform rejected, 5 merge block rejected, 6 internal error.
Output files are written atomically (write-then-rename) or not at all; a
new file gets mode 0o666 less the umask, an overwritten one keeps its mode.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile

from .decls import Declaration, SourceModule
from .diagnostics import (Diagnostic, FordcError, ParseError,
                          TransformError)
from .ford import ford_module
from .kernel import check_module, prelude_signature
from .merge import merge_block
from .normalize import DEFAULT_STEP_BUDGET
from .parser import is_ident, parse
from .printer import print_module

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_FORD = 4
EXIT_MERGE = 5
EXIT_INTERNAL = 6


class _Failure(Exception):
    def __init__(self, exit_code: int, diag: Diagnostic):
        self.exit_code = exit_code
        self.diag = diag


def _internal(e: Exception, path: str | None) -> _Failure:
    """An exception no layer turned into a diagnostic: a defect in fordc,
    not a judgement on the input, so it must not read as exit 1."""
    return _Failure(EXIT_INTERNAL, Diagnostic(
        "error", "E-INTERNAL", f"internal error: {type(e).__name__}: {e}",
        path))


def _emit(diag: Diagnostic, json_mode: bool):
    print(diag.json() if json_mode else diag.text(), file=sys.stderr)


def _report(e: Exception, path: str | None, json_mode: bool) -> int:
    """Emit the diagnostic of `e`, a `_Failure` or an exception no layer
    turned into one, and return its exit code. The caller keeps no name for
    the failure, so its traceback, which holds the caller's frame, makes no
    reference cycle through that frame."""
    f = e if isinstance(e, _Failure) else _internal(e, path)
    _emit(f.diag, json_mode)
    return f.exit_code


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            # drop a leading byte-order mark, as "utf-8-sig" would, without
            # importing that codec's module
            return f.read().removeprefix("\ufeff")
    except OSError as e:
        raise _Failure(EXIT_IO, Diagnostic("error", "E-IO", str(e), path))
    except UnicodeDecodeError as e:
        raise _Failure(EXIT_IO, Diagnostic(
            "error", "E-IO", f"not valid UTF-8: {e}", path))


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    try:
        mode = os.stat(path).st_mode & 0o7777
    except OSError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".fordc-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(text)
            os.chmod(tmp, mode)  # `mkstemp` makes the file 0o600
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        # name `path`, not the random temporary file, so the text is stable
        raise _Failure(EXIT_IO, Diagnostic(
            "error", "E-IO", f"[Errno {e.errno}] {e.strerror}: {path!r}",
            path))


def _load_checked(path: str, budget: int):
    text = _read(path)
    try:
        module = parse(text, prelude_signature().name_env())
    except ParseError as e:
        raise _Failure(EXIT_PARSE, e.diagnostic(path))
    try:
        sig = check_module(module, budget)
    except FordcError as e:
        raise _Failure(EXIT_TYPE, e.diagnostic(path))
    return module, sig


def cmd_check(args) -> int:
    status = EXIT_OK
    for path in args.paths:
        try:
            _load_checked(path, args.step_budget)
            print(f"checked {path}")
        except Exception as e:
            code = _report(e, path, args.json)
            if status == EXIT_OK:
                status = code
    return status


def _transform(kind: str, path: str, budget: int, target: str,
               rest: list[str]):
    """Load and check `path`, ford (`rest`: an optional suffix) or merge
    (`rest`: path constructor specs) `target`, re-check the output and
    print it: (text, plan). The output's first `k` declarations equal the
    input's, so only the rest is re-checked, on the input's signature as it
    stood before its declaration `k`. Any failure raises `_Failure`; a
    rejected transform exits 4 (ford) or 5 (merge)."""
    module, sig = _load_checked(path, budget)
    try:
        if kind == "ford":
            out, plan = ford_module(module, sig, target, *rest)
        else:
            paths = [_parse_path_spec(s, path) for s in rest]
            out, plan = merge_block(module, sig, _type_names(target), paths)
        k = _shared_prefix(module.decls, out.decls)
        check_module(SourceModule(out.decls[k:]), budget,
                     sig.rewind(module.decls[k:]))
    except TransformError as e:
        code = EXIT_FORD if kind == "ford" else EXIT_MERGE
        raise _Failure(code, e.diagnostic(path))
    except FordcError as e:
        raise _Failure(EXIT_TYPE, e.diagnostic(path))
    return print_module(out), plan


def _shared_prefix(a: tuple[Declaration, ...],
                   b: tuple[Declaration, ...]) -> int:
    """The number of leading declarations `a` and `b` share; `==` ignores
    source locations. A transform keeps the input's declarations before the
    first one it changes as the same objects, and the first changed one
    differs from the input's in its class or name, so `==` never descends
    into a term."""
    k = 0
    while k < min(len(a), len(b)) and a[k] == b[k]:
        k += 1
    return k


def cmd_transform(args) -> int:
    if args.command == "ford":
        target, rest = args.data, [args.suffix]
    else:
        target, rest = args.types, args.path_ctor or []
    text, plan = _transform(args.command, args.path, args.step_budget,
                            target, rest)
    report = json.dumps(plan.report(), indent=2, sort_keys=True)
    if args.out:
        _atomic_write(args.out, text)
        print(report)
    else:
        sys.stdout.write(text)
        print(report, file=sys.stderr)
    return EXIT_OK


def _type_names(spec: str) -> list[str]:
    """The datatype names of a comma-separated `--types` block; empty
    names are dropped."""
    return [n for n in spec.split(",") if n]


def _parse_path_spec(spec: str, path: str) -> tuple[str, str, str]:
    """A `name:Member:Member` path constructor for the merge of `path`."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise _Failure(EXIT_MERGE, Diagnostic(
            "error", "E-MERGE-BLOCK",
            f"--path expects name:Member:Member, got {spec!r}", path))
    if not is_ident(parts[0]):
        raise _Failure(EXIT_MERGE, Diagnostic(
            "error", "E-MERGE-BLOCK",
            f"--path name {parts[0]!r} is not an identifier", path))
    return parts[0], parts[1], parts[2]


# -- corpus harness ------------------------------------------------------------

# The fields each case kind takes: their names, then the least and the most
# number of them (None: no limit).
_CASE_FIELDS = {
    "check": ("<input>", 1, 1),
    "check-error": ("<input> <code>", 2, 2),
    "parse": ("<input>", 1, 1),
    "golden": ("<input> <golden>", 2, 2),
    "ford": ("<input> <golden> <data> [<suffix>]", 3, 4),
    "ford-error": ("<input> <data>", 2, 2),
    "merge": ("<input> <golden> <types> [<name:member:member>...]", 3, None),
    "merge-error": ("<input> <types>", 2, 2),
}


def _run_case(kind: str, fields: list[str], base: str, budget: int) -> str | None:
    """Returns None on pass, or a short failure reason."""

    def p(rel: str) -> str:
        return os.path.join(base, rel)

    if kind not in _CASE_FIELDS:
        return f"unknown case kind {kind!r}"
    names, least, most = _CASE_FIELDS[kind]
    if not least <= len(fields) <= (most or len(fields)):
        return f"{kind} takes the fields {names}, got {len(fields)}"
    inp = fields[0]
    if kind == "check":
        _load_checked(p(inp), budget)
        return None
    if kind == "check-error":
        try:
            _load_checked(p(inp), budget)
        except _Failure as f:
            if f.diag.code == fields[1]:
                return None
            return f"expected {fields[1]}, got {f.diag.code}"
        return f"expected failure {fields[1]}, module checked"
    if kind in ("parse", "golden"):
        try:
            module = parse(_read(p(inp)), prelude_signature().name_env())
        except ParseError as e:
            return f"parse failed: {e.message}"
        if kind == "golden" and print_module(module) != _read(p(fields[1])):
            return "printed text differs from golden"
        return None
    what = kind.removesuffix("-error")
    rejected = kind != what  # an -error case expects the transform to fail
    target, rest = (fields[1], []) if rejected else (fields[2], fields[3:])
    try:
        text, _ = _transform(what, p(inp), budget, target, rest)
    except _Failure as f:
        if rejected and f.exit_code in (EXIT_FORD, EXIT_MERGE):
            return None
        return f"{what} failed: {f.diag.message}"
    if rejected:
        return f"expected the {what} transform to be rejected"
    if text != _read(p(fields[1])):
        done = {"ford": "forded", "merge": "merged"}[what]
        return f"{done} module differs from golden"
    return None


def cmd_corpus(args) -> int:
    text = _read(args.manifest)
    base = os.path.dirname(os.path.abspath(args.manifest))
    passed = failed = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *fields = line.split()
        try:
            reason = _run_case(kind, fields, base, args.step_budget)
        except _Failure as f:
            reason = f.diag.message
        if reason is None:
            passed += 1
            print(f"PASS {kind:12s} {fields[0] if fields else ''}")
        else:
            failed += 1
            print(f"FAIL {kind:12s} {fields[0] if fields else ''}: {reason}")
    print(f"{passed} passed, {failed} failed")
    return EXIT_OK if failed == 0 else EXIT_TYPE


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fordc",
        description="Type-check a small indexed-datatype language and "
                    "mechanically de-index (ford) or merge its datatypes.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--step-budget", type=int, default=None,
                        help="normalization step budget "
                             f"(default {DEFAULT_STEP_BUDGET}, "
                             "env FORDC_STEP_BUDGET)")
        sp.add_argument("--json", action="store_true",
                        help="diagnostics as JSON lines on stderr")

    sp = sub.add_parser("check", help="type-check modules")
    sp.add_argument("paths", nargs="+")
    common(sp)

    sp = sub.add_parser("ford", help="de-index a datatype")
    sp.add_argument("path")
    sp.add_argument("--data", required=True, help="datatype to ford")
    sp.add_argument("--suffix", default="F")
    sp.add_argument("--out", default=None)
    common(sp)

    sp = sub.add_parser("merge", help="merge datatypes into one family")
    sp.add_argument("path")
    sp.add_argument("--types", required=True, help="comma-separated block")
    sp.add_argument("--path", dest="path_ctor", action="append",
                    metavar="NAME:MEMBER:MEMBER",
                    help="add an axiomatic identity between two tags")
    sp.add_argument("--out", default=None)
    common(sp)

    sp = sub.add_parser("corpus", help="run a corpus manifest")
    sp.add_argument("manifest")
    common(sp)
    return ap


def _step_budget(ap: argparse.ArgumentParser, args) -> int:
    """The flag, else FORDC_STEP_BUDGET, else the default; anything but a
    non-negative integer is a usage error (exit 2)."""
    source, raw = "--step-budget", args.step_budget
    if raw is None:
        source, raw = "FORDC_STEP_BUDGET", os.environ.get("FORDC_STEP_BUDGET")
        if not raw:
            return DEFAULT_STEP_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        ap.error(f"{source} must be a non-negative integer, got {raw!r}")
    return budget


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    """Run one command. fordc makes no reference cycles, so the cyclic
    collector is paused for the command (reference counting still frees
    every object at once) and restored to the caller's state afterwards.
    The argument parser is built on the first call and kept for the next
    ones; the command's function is looked up by name on each call."""
    global _parser
    enabled = gc.isenabled()
    gc.disable()
    try:
        ap = _parser = _parser or build_arg_parser()
        args = ap.parse_args(argv)
        args.step_budget = _step_budget(ap, args)
        fn = {"check": cmd_check, "corpus": cmd_corpus}.get(args.command,
                                                             cmd_transform)
        try:
            return fn(args)
        except Exception as e:
            return _report(e, getattr(args, "path", None)
                           or getattr(args, "manifest", None), args.json)
    finally:
        if enabled:
            gc.enable()
