"""Per-layer tracing of fordc from outside: wrappers at the names callers
look up, a span stack for self time, and counters at the same boundaries.

Each wrapper pushes a frame (layer, start, time spent in child spans) on
one stack, so a layer's self time is its spans' duration minus what nested
spans cover; the recursive `Checker.check`/`infer` get correct self time
because every nested call is its own frame. Hot layers (kernel core,
normalize, unify, signature) are only aggregated; the coarse phases are also
kept as spans in memory and written out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

ALL = frozenset({"wide", "arith", "transform"})
TRANSFORM = frozenset({"transform"})

# Layers whose spans are kept individually (the rest are only summed).
COARSE = {"cli", "parser.lex", "parser.parse", "kernel.module", "kernel.data",
          "kernel.fun", "ford.module", "ford.plan", "ford.converters",
          "merge.block", "printer"}

# Self-time layers reported as `<layer>_s` (normalize.s and unify.s keep the
# shorter name the layer already has).
TIME_METRICS = {
    "cli": "cli.self_s", "parser.lex": "parser.lex_s",
    "parser.parse": "parser.parse_s", "signature": "signature.lookup_s",
    "kernel.module": "kernel.module_s", "kernel.data": "kernel.data_s",
    "kernel.fun": "kernel.fun_s", "kernel.core": "kernel.core_s",
    "normalize": "normalize.s", "unify": "unify.s",
    "ford.plan": "ford.plan_s", "ford.converters": "ford.converters_s",
    "ford.module": "ford.module_s", "merge.block": "merge.block_s",
    "printer": "printer.s",
}

COUNT_METRICS = [
    "parser.tokens", "parser.ctor_lookups", "signature.name_scans",
    "signature.has_name_calls", "kernel.decls", "normalize.calls",
    "normalize.steps", "normalize.max_steps", "normalize.conv_calls",
    "unify.calls", "unify.success", "unify.mismatch", "unify.stuck",
    "printer.out_bytes",
]

# Inclusive phase times, not self times: the re-check of a transform's
# output covers every layer the check runs through.
PHASE_METRICS = ["kernel.recheck_s"]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [layer, start, child seconds, span id]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.phase_s: defaultdict[str, float] = defaultdict(float)
        self.fired: Counter = Counter()
        self.spans: list[tuple] = []  # (op, layer, start, end, parent id)
        self.op = 0
        self.transformed = False  # a transform ran earlier in this op
        self.expect: dict[str, frozenset[str]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str | None, on: frozenset[str],
             after=None):
        """Replace owner.attr with a wrapper. `after(args, result, seconds)`
        records counters (result is None when the call raised); with
        `layer` None there is no span and `after` only sees the arguments.
        `on` names the workloads on whose path the wrapper must fire."""
        key = f"{getattr(owner, '__name__', owner)}.{attr}"
        found = owner.__dict__ if isinstance(owner, type) else vars(owner)
        if attr not in found:
            raise LookupError(f"trace boundary {key} no longer exists")
        orig = found[attr]
        self._patches.append((owner, attr, orig))
        self.expect[key] = on
        fired, stack, self_s = self.fired, self.stack, self.self_s
        spans, clock = self.spans, time.perf_counter

        if layer is None:
            def counter(*args, **kw):
                fired[key] += 1
                after(args, None, 0.0)
                return orig(*args, **kw)
            setattr(owner, attr, counter)
            return

        coarse = layer in COARSE

        def wrapper(*args, **kw):
            fired[key] += 1
            parent = stack[-1][3] if stack else None
            sid = parent
            if coarse:
                sid = len(spans)
                spans.append(None)
            frame = [layer, clock(), 0.0, sid]
            stack.append(frame)
            result = None
            try:
                result = orig(*args, **kw)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self_s[layer] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if coarse:
                    spans[sid] = (self.op, layer, frame[1], end, parent)
                if after is not None:
                    after(args, result, dur)

        setattr(owner, attr, wrapper)

    def install(self, fordc_modules: dict):
        """Wrap fordc's layer boundaries. `fordc_modules` maps the names
        cli, parser, kernel, ford, merge and signature to fordc's modules."""
        m = fordc_modules
        cli, parser, kernel = m["cli"], m["parser"], m["kernel"]
        ford, merge = m["ford"], m["merge"]
        # `fordc.normalize` is the re-exported function; the module holds
        # the Normalizer class.
        normalizer = sys.modules["fordc.normalize"].Normalizer
        c = self.counts

        def tokens(args, result, dur):
            if result is not None:
                c["parser.tokens"] += len(result)

        def count(name):
            def after(args, result, dur):
                c[name] += 1
            return after

        def recheck(args, result, dur):
            if self.transformed:
                self.phase_s["kernel.recheck_s"] += dur

        def normalized(args, result, dur):
            steps = args[0].steps
            c["normalize.calls"] += 1
            c["normalize.steps"] += steps
            c["normalize.max_steps"] = max(c["normalize.max_steps"], steps)

        def unified(args, result, dur):
            c["unify.calls"] += 1
            kind = type(result).__name__
            if kind in ("UnifySuccess", "UnifyMismatch", "UnifyStuck"):
                c["unify." + kind[5:].lower()] += 1

        def printed(args, result, dur):
            if result is not None:
                c["printer.out_bytes"] += len(result)

        def transforming(args, result, dur):
            self.transformed = True

        self.wrap(cli, "parse", "parser.parse", ALL)
        self.wrap(parser, "lex", "parser.lex", ALL, tokens)
        self.wrap(parser.Parser, "parse_module", "parser.parse", ALL)
        self.wrap(parser.NameEnv, "ctor_candidates", None, ALL,
                  count("parser.ctor_lookups"))
        self.wrap(cli, "check_module", "kernel.module", ALL, recheck)
        ck = kernel.Checker
        self.wrap(ck, "check_module", "kernel.module", ALL)
        self.wrap(ck, "check_data", "kernel.data", ALL, count("kernel.decls"))
        self.wrap(ck, "check_mutual", "kernel.data", TRANSFORM)
        self.wrap(ck, "check_fun", "kernel.fun", ALL, count("kernel.decls"))
        self.wrap(ck, "check", "kernel.core", ALL)
        self.wrap(ck, "infer", "kernel.core", ALL)
        self.wrap(normalizer, "normalize", "normalize", ALL, normalized)
        self.wrap(normalizer, "convertible", "normalize", ALL,
                  count("normalize.conv_calls"))
        self.wrap(kernel, "unify_terms", "unify", ALL, unified)
        sig = m["signature"].Signature
        self.wrap(sig, "has_name", "signature", ALL,
                  count("signature.has_name_calls"))
        self.wrap(sig, "all_names", "signature", ALL,
                  count("signature.name_scans"))
        for attr, on in [("copy", ALL), ("ctor", ALL), ("name_env", ALL),
                         ("ctor_slots", ALL), ("split_data_type", ALL),
                         ("data_applied", TRANSFORM)]:
            self.wrap(sig, attr, "signature", on)
        self.wrap(cli, "ford_module", "ford.module", TRANSFORM, transforming)
        self.wrap(ford, "ford_data", "ford.plan", TRANSFORM)
        self.wrap(ford, "gen_converters", "ford.converters", TRANSFORM)
        self.wrap(cli, "merge_block", "merge.block", TRANSFORM, transforming)
        for owner in (cli, ford, merge):
            self.wrap(owner, "print_module", "printer", TRANSFORM, printed)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- running ---------------------------------------------------------------

    def run_op(self, fn):
        """Run one operation under a root `cli` span."""
        self.op += 1
        self.transformed = False
        start = time.perf_counter()
        sid = len(self.spans)
        self.spans.append(None)
        frame = ["cli", start, 0.0, sid]
        self.stack.append(frame)
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.self_s["cli"] += end - start - frame[2]
            self.spans[sid] = (self.op, "cli", start, end, None)

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "phase_s": dict(self.phase_s)}

    def reset(self):
        self.self_s.clear()
        self.counts.clear()
        self.phase_s.clear()

    def never_fired(self, workload: str) -> list[str]:
        """Wrappers on this workload's path that did not fire."""
        return sorted(k for k, on in self.expect.items()
                      if workload in on and not self.fired[k])


def layer_metrics(passes: list[dict], ops: int) -> dict[str, float]:
    """Per-operation layer metrics from snapshots of passes of `ops`
    operations each: times averaged over all passes, counts taken from the
    first (every pass has the same counts)."""
    n = ops * len(passes)
    out = {}
    for layer, name in TIME_METRICS.items():
        out[name] = sum(p["self_s"].get(layer, 0.0) for p in passes) / n
    for name in PHASE_METRICS:
        out[name] = sum(p["phase_s"].get(name, 0.0) for p in passes) / n
    counts = passes[0]["counts"]
    for name in COUNT_METRICS:
        v = counts.get(name, 0)
        out[name] = v if name == "normalize.max_steps" else v / ops
    return out
