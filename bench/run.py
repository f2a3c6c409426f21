"""fordc benchmark: drive the CLI in-process on seeded modules and report
end-to-end or per-layer metrics.

    python3 bench/run.py --workload {wide,arith,transform,all} --seed N \
        --seconds S --trace {0,1}

One operation is one `fordc.cli.main(argv)` call with the arguments a user
would type (two calls, ford then merge, for `transform`), on modules written
to a scratch directory before timing starts; output is captured and checked
against the generator's answer. One client, closed loop, in this process.
The last line of stdout is the JSON result; `--workload all` runs every
workload in a child process and prints a table. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
WORKLOADS = ["wide", "arith", "transform"]
POOL = {"wide": 2, "arith": 4, "transform": 2}
WIDE_N = 400
ARITH_BAND = (390, 400)   # a*b, with a, b >= 12
SETUP_MIN = 7
DIAG = re.compile(r"error\[([A-Z-]+)\] ")

# Scaling curve swept by the traced run, and the layer numbers kept per size.
CURVE_WIDE = [100, 200, 400, 800]
CURVE_ARITH = [(10, 10), (10, 20), (15, 20), (20, 20)]
CURVE_WIDE_KEYS = ["signature.lookup_s", "signature.has_name_calls",
                   "parser.ctor_lookups"]
CURVE_ARITH_KEYS = ["normalize.s", "normalize.steps"]
CURVE_REPEATS = 3

# VmHWM is the peak RSS of this process's own address space, in kB. (Linux
# ru_maxrss would also count the parent's RSS at the fork before exec.)
PEAK_CHILD = """\
import contextlib, io, json, re, sys
sys.path.insert(0, {src!r})
import fordc.cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = fordc.cli.main(argv)
    except (Exception, SystemExit) as e:
        results.append(repr(e))
        continue
    results.append([rc, out.getvalue(), err.getvalue()])
with open("/proc/self/status") as f:
    hwm = re.search(r"^VmHWM:\\s+(\\d+) kB", f.read(), re.M)
print(json.dumps([results, int(hwm.group(1))]))
"""

SETUP_CHILD = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import fordc
fordc.prelude_signature()
t1 = time.perf_counter()
assert fordc.__file__.startswith({src!r}), fordc.__file__
print(t1 - t0)
"""


def die(msg: str, code: int = 2):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


# -- inputs ------------------------------------------------------------------------


def build_pool(workload: str, seed: int) -> list[gen.Case]:
    rng = random.Random(f"{workload}-{seed}")
    n = POOL[workload]
    if workload == "wide":
        return [gen.wide_case(rng.randrange(2**32), WIDE_N, f"wide{i}.fda")
                for i in range(n)]
    if workload == "arith":
        pairs = rng.sample(gen.factor_pairs(*ARITH_BAND), n)
        false = set(rng.sample(range(n), n // 4))
        return [gen.arith_case(a, b, i in false, f"arith{i}.fda")
                for i, (a, b) in enumerate(pairs)]
    return [gen.transform_case(rng.randrange(2**32), path=f"transform{i}.fda")
            for i in range(n)]


def write_files(case: gen.Case):
    for name, text in case.files.items():
        Path(name).write_text(text, encoding="utf-8")


# -- running and checking ---------------------------------------------------------


class Runner:
    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def call(self, case: gen.Case) -> list:
        """Run the case's calls; returns (exit, stdout, stderr) or an
        exception per call. Only this is timed."""
        results = []
        for c in case.calls:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    rc = self.main(list(c.argv))
                results.append((rc, out.getvalue(), err.getvalue()))
            except (Exception, SystemExit) as e:  # a crash is a failed op
                results.append(e)
        return results

    def check(self, case: gen.Case, results: list):
        self.attempted += 1
        reason = None
        for c, r in zip(case.calls, results):
            reason = _mismatch(c, r)
            if reason:
                break
        for c in case.calls:
            for name in c.outputs:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(name)
        if reason:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{case.label}: {reason}")

    def op(self, case: gen.Case, around=None) -> float:
        """One checked operation; returns its wall time. `around`, if given,
        runs the calls (the tracer's root span)."""
        gc.collect()
        t0 = time.perf_counter()
        results = around(lambda: self.call(case)) if around else self.call(case)
        dt = time.perf_counter() - t0
        self.check(case, results)
        return dt


def _mismatch(c: gen.Call, r) -> str | None:
    if isinstance(r, BaseException):
        return "uncaught " + "".join(
            traceback.format_exception_only(type(r), r)).strip()[:300]
    rc, out, err = r
    if rc != c.exit:
        return f"{c.argv[0]} exit {rc}, expected {c.exit}: {err[:200]!r}"
    if out != c.stdout:
        return f"{c.argv[0]} stdout differs from the expected text"
    if c.code is None:
        if err:
            return f"{c.argv[0]} unexpected stderr {err[:200]!r}"
    else:
        m = DIAG.match(err)
        if not m or m.group(1) != c.code:
            return f"{c.argv[0]} diagnostic {err[:120]!r}, expected {c.code}"
        if c.shows not in err:
            return f"{c.argv[0]} diagnostic lacks the expected normal form"
    for name, text in c.outputs.items():
        try:
            got = Path(name).read_text(encoding="utf-8")
        except OSError as e:
            return f"{c.argv[0]} wrote no {name}: {e}"
        if got != text:
            return f"{c.argv[0]} output {name} differs from the expected text"
    return None


def setup_time() -> float:
    """Import plus prelude time, measured inside a fresh interpreter."""
    p = subprocess.run([sys.executable, "-I", "-c",
                        SETUP_CHILD.format(src=str(SRC))],
                       capture_output=True, text=True, timeout=60)
    if p.returncode != 0:
        die(f"set-up child failed: {p.stderr.strip()[-300:]}")
    return float(p.stdout.split()[-1])


def peak_mib(runner: Runner, case: gen.Case) -> float:
    """Peak RSS of a fresh interpreter that runs one operation, whose
    output is checked like any other."""
    p = subprocess.run(
        [sys.executable, "-I", "-c", PEAK_CHILD.format(src=str(SRC)),
         json.dumps([c.argv for c in case.calls])],
        capture_output=True, text=True, timeout=120)
    if p.returncode != 0:
        die(f"peak-memory child failed: {p.stderr.strip()[-300:]}")
    results, kib = json.loads(p.stdout.splitlines()[-1])
    runner.check(case, [RuntimeError(r) if isinstance(r, str) else tuple(r)
                        for r in results])
    return kib / 1024


def import_fordc():
    if not (SRC / "fordc" / "cli.py").is_file():
        die(f"no fordc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fordc
    import fordc.cli
    if not Path(fordc.__file__).resolve().is_relative_to(SRC.resolve()):
        die(f"imported fordc from {fordc.__file__}, not {SRC}")
    return {name: sys.modules[f"fordc.{name}"] for name in
            ("cli", "parser", "kernel", "ford", "merge", "signature")}


# -- the two modes ---------------------------------------------------------------


def end_to_end(workload: str, pool, seconds: float, runner: Runner) -> dict:
    # The children below then load fordc from the bytecode cache.
    subprocess.run([sys.executable, "-I", "-m", "compileall", "-q",
                    str(SRC / "fordc")], check=True, timeout=120)
    runner.op(pool[0])  # warm-up: prelude and first-call costs
    # Whole passes over the pool, so every run times the same mix of cases,
    # and one set-up sample after each pass, so that set-up is sampled
    # across the whole run, as the operations are. The host-speed reference
    # runs between any two samples.
    ops, setup = hostspeed.Samples(), hostspeed.Samples()
    ref = hostspeed.reference_s()
    end = time.perf_counter() + seconds
    while not ops or time.perf_counter() < end:
        for case in pool:
            ref = ops.add(runner.op(case), ref)
        ref = setup.add(setup_time(), ref)
    while len(setup) < SETUP_MIN:
        ref = setup.add(setup_time(), ref)
    # Peak memory depends on the case, so take the median over the pool.
    peak = statistics.median(peak_mib(runner, case) for case in pool)
    p50, setup_s = ops.median(), setup.median()
    print(f"{workload}: op_s_p50 {p50:.4f} s (n={len(ops)}; wall "
          f"{ops.wall_median():.4f} s), setup_s {setup_s:.4f} s "
          f"(n={len(setup)}; wall {setup.wall_median():.4f} s), "
          f"peak_mib {peak:.3f} MiB (n={len(pool)}), ops_failed_frac "
          f"{runner.failed / runner.attempted:g} "
          f"({runner.failed}/{runner.attempted})")
    return {"setup_s": (setup_s, "s"), "op_s_p50": (p50, "s"),
            "peak_mib": (peak, "MiB")}


def traced_op(runner: Runner, tr: tracer.Tracer, mods, case: gen.Case
              ) -> float:
    try:
        tr.install(mods)
    except LookupError as e:
        tr.uninstall()
        die(str(e), 3)
    try:
        return runner.op(case, tr.run_op)
    finally:
        tr.uninstall()


def traced(workload: str, pool, seconds: float, runner: Runner, mods,
           seed: int) -> dict:
    """Passes over the pool for `seconds` (at least two), each case run
    untraced and then traced, back to back, so the overhead estimate
    compares operations made at nearly the same time."""
    for case in pool:
        runner.op(case)  # warm-up
    tr = tracer.Tracer()
    passes, base_s, traced_s = [], [], []
    end = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < end:
        tr.reset()
        for case in pool:
            base_s.append(runner.op(case))
            traced_s.append(traced_op(runner, tr, mods, case))
        passes.append(tr.snapshot())
    missing = tr.never_fired(workload)
    if missing:
        die("trace wrappers never fired on this workload's path: "
            + ", ".join(missing), 3)
    for i, snap in enumerate(passes[1:], 2):
        if snap["counts"] != passes[0]["counts"]:
            diff = {k: (passes[0]["counts"].get(k), snap["counts"].get(k))
                    for k in set(passes[0]["counts"]) | set(snap["counts"])
                    if passes[0]["counts"].get(k) != snap["counts"].get(k)}
            die(f"trace counters differ between passes 1 and {i}: {diff}", 3)
    metrics = {k: (v, _unit(k)) for k, v in
               tracer.layer_metrics(passes, len(pool)).items()}
    per_op, base = statistics.fmean(traced_s), statistics.fmean(base_s)
    metrics["trace.op_s"] = (per_op, "s")
    metrics["trace.overhead_frac"] = ((per_op - base) / per_op, "fraction")
    curve, curve_layers = scaling_curve(runner, tr, mods, seed)
    metrics.update(curve)
    dump = OUT / f"trace-{workload}-{seed}.json"
    dump.write_text(json.dumps({
        "workload": workload, "seed": seed, "passes": passes,
        "spans": tr.spans, "curve": curve_layers,
    }))
    print(f"{workload}: {len(passes)} passes, traced op {per_op:.4f} s, "
          f"untraced {base:.4f} s; {len(tr.spans)} spans written to "
          f"{dump.relative_to(ROOT)}")
    return metrics


def scaling_curve(runner: Runner, tr: tracer.Tracer, mods, seed: int) -> dict:
    """Untraced op time (median of CURVE_REPEATS) and selected layer
    numbers from one traced op, at each size; also every layer number at
    each size, for the trace file."""
    rng = random.Random(f"curve-{seed}")
    sizes = [(f"wide-{n}", gen.wide_case(rng.randrange(2**32), n,
                                         "curve.fda"), CURVE_WIDE_KEYS)
             for n in CURVE_WIDE]
    sizes += [(f"arith-{a * b}", gen.arith_case(a, b, False, "curve.fda"),
               CURVE_ARITH_KEYS) for a, b in CURVE_ARITH]
    out, full = {}, {}
    for label, case, keys in sizes:
        write_files(case)
        times = [runner.op(case) for _ in range(CURVE_REPEATS)]
        out[f"curve.{label}.op_s"] = (statistics.median(times), "s")
        tr.reset()
        traced_op(runner, tr, mods, case)
        full[label] = tracer.layer_metrics([tr.snapshot()], 1)
        for k in keys:
            out[f"curve.{label}.{k}"] = (full[label][k], _unit(k))
    out["curve.wide.n800_over_n200"] = (
        out["curve.wide-800.op_s"][0] / out["curve.wide-200.op_s"][0], "ratio")
    return out, full


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# -- entry points ------------------------------------------------------------------


def run_one(args) -> int:
    mods = import_fordc()
    hostspeed.pin_to_one_cpu()
    pool = build_pool(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    cwd = os.getcwd()
    try:
        os.chdir(work)
        for case in pool:
            write_files(case)
        runner = Runner(mods["cli"].main)
        if args.trace:
            metrics = traced(args.workload, pool, args.seconds, runner, mods,
                             args.seed)
        else:
            metrics = end_to_end(args.workload, pool, args.seconds, runner)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    for r in runner.reasons:
        print(f"FAILED {r}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter; prints each metric with its
    unit, and exits non-zero unless every output was correct."""
    status = 0
    for w in WORKLOADS:
        p = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"{w}: FAILED (exit {p.returncode})\n{p.stderr[-2000:]}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        frac = res["failed"] / res["attempted"]
        print(f"  {'ops_failed_frac':32s} {frac:<14g} fraction "
              f"({res['failed']}/{res['attempted']})")
        for name, m in res["metrics"].items():
            print(f"  {name:32s} {m['value']:<14.6g} {m['unit']}")
        if not res["correct"]:
            print(p.stderr[-2000:])
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
