"""Pipeline benchmark of isingdimer: Ising model -> `todimer` -> Kasteleyn
matrix -> P(z, w) -> divisors -> weight-side and spectral-side Ising checks,
plus amoeba, Harnack diagnostic and local moves.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/selftest.py

Run from the repository root; the program is imported from ./src. Each
workload (exact-verify, numeric-curve, gadget-ladder, move-script; see
BENCHMARK.json for why each was chosen) is a closed loop: one process, one
op at a time, each op calling `isingdimer.cli.main` in-process. Set-up
(subprocess import of the program, input generation from the seed, start
graph) runs at least SETUP_REPS times and its median is `setup_s`. The ops of one
pass then run over and over until S seconds have passed, each pass on the
next seeded variant of the inputs.

Op times are given in reference seconds. A fixed calibration workload
that uses nothing of the program (`calibration_seconds`: Fraction, dict and
complex arithmetic, about 5 ms) runs just before and just after each op,
and the op's wall time is scaled by CAL_REF_S / (the mean of the two
calibration times). On the 2-vCPU x86 VM this benchmark was written on, the
speed of such fixed work swung by 1.5x within a second and its median by up
to 1.7x over minutes, so the wall-time solve_s of the same code spread by
30% from run to run, and the scaled one by 1-5%. A change to the program
moves the op times and not the calibration. Set-up time stays wall time:
it is mostly a fresh interpreter, whose start-up did not follow the
calibration of the benchmark's own process (scaling it doubled its spread).

End-to-end metrics (--trace 0):
  solve_s        penalized time to solution of one pass: the sum over its ops
                 of the op's scaled time, plus the op time limit if the op
                 failed, timed out or gave wrong output; each op at its
                 median over the passes
  ok_frac        ops that passed / ops attempted (higher is better)
  max_ok_whites  largest Kasteleyn dimension n among ops that passed
  setup_s        median set-up time
  peak_rss_mb    peak resident memory of this process
fail_frac = 1 - ok_frac is printed with them. The last line of standard
output is one JSON object: correct (no op gave wrong output), attempted,
failed (ops not ok) and metrics.

With --trace 1, untraced and traced passes alternate, each traced pass
followed by two small reference ops (ops.build_reference) that reach every
layer. The JSON holds the per-layer metrics of `spans.py` and the tracing
overhead (traced minus untraced solve_s, reference ops left out). Spans are
written to .perfbench_out/ when the run ends.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5          # set-ups per run, at least; more while SETUP_MIN_S is not spent
SETUP_MIN_S = 2.0
CAL_REF_S = 0.005       # reference time of calibration_seconds()

import ops  # noqa: E402  (this directory is on sys.path when run as a script)
import spans  # noqa: E402

END_TO_END = [("solve_s", "s"), ("ok_frac", "ratio"), ("max_ok_whites", "count"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]


class NoProgram(Exception):
    pass


def load_program():
    """Import isingdimer from ./src of this checkout, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "isingdimer", "__init__.py")):
        raise NoProgram(f"no isingdimer package under {SRC}")
    sys.path.insert(0, SRC)
    lib = types.SimpleNamespace(**{m: importlib.import_module(f"isingdimer.{m}")
                                   for m in spans.MODULES})
    if not os.path.abspath(lib.cli.__file__).startswith(SRC + os.sep):
        raise NoProgram(f"isingdimer was imported from {lib.cli.__file__}, not {SRC}")
    return lib


def import_seconds():
    """Wall time from starting a fresh interpreter to the end of its import
    of the program's CLI. The child reads the end from the same monotonic
    clock: `subprocess.run` with a timeout polls for the child's exit in
    steps of up to 50 ms, which the measured time must not include."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c",
                           f"import sys, time; sys.path.insert(0, {SRC!r}); "
                           "import isingdimer.cli; print(time.perf_counter())"],
                          check=True, timeout=120, cwd=ROOT, capture_output=True, text=True)
    return float(done.stdout.split()[-1]) - t0


def calibration_seconds():
    """Wall time of a fixed mix of the kinds of work the program does:
    Fraction arithmetic on growing integers, dict updates on tuple keys and
    complex polynomial evaluation. It imports nothing, so that it adds
    nothing to the peak memory of a workload that does not load numpy."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(1, i)
    counts = {}
    for i in range(8000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    coeffs = [complex(k % 7 - 3, k % 5 - 2) for k in range(9)]
    for k in range(800):
        z, v = complex(0.9 + k * 1e-4, 0.3), 0j
        for c in coeffs:
            v = v * z + c
    return time.perf_counter() - t0


def run_calibrated(run):
    """run() -> ops.Result, with `scale` set to the factor that turns its
    wall time into reference seconds."""
    before = calibration_seconds()
    result = run()
    result.scale = 2 * CAL_REF_S / (before + calibration_seconds())
    return result


def setup(wl, lib, seed, work):
    """Full set-ups, SETUP_REPS or as many as fit in SETUP_MIN_S; returns
    (median wall seconds, the last inputs)."""
    times = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        shutil.rmtree(work, ignore_errors=True)
        t0 = time.perf_counter()
        import_seconds()
        variants = wl.setup(lib.cli, seed, work)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), variants


def penalized(result, limit, scaled=True):
    secs = result.seconds * (result.scale if scaled else 1.0)
    return secs + (0.0 if result.outcome == "ok" else limit)


def solve_seconds(passes, limit, scaled=True):
    """Penalized time of one pass, each op at its median over the passes."""
    return sum(statistics.median(penalized(p[k], limit, scaled) for p in passes)
               for k in range(len(passes[0])))


def summary(passes, wl):
    results = [r for p in passes for r in p]
    ok = [r for r in results if r.outcome == "ok"]
    return {
        "solve_s": solve_seconds(passes, wl.limit),
        "ok_frac": len(ok) / len(results),
        "max_ok_whites": max((r.op.whites for r in ok), default=0),
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "wrong": sum(r.outcome == "wrong" for r in results),
    }


def report_ops(passes, wl):
    """One line per op of the first pass, with its outcome over all passes."""
    print(f"workload {wl.name}: {len(passes)} passes, op time limit {wl.limit:g} s")
    width = len(passes[0])
    for k in range(width):
        rs = [p[k] for p in passes]
        counts = {o: sum(r.outcome == o for r in rs) for o in ops.OUTCOMES}
        verdicts = " ".join(f"{o}={n}" for o, n in counts.items() if n)
        detail = next((r.detail for r in rs if r.outcome != "ok"), "")
        print(f"  op {k:2d} n={rs[0].op.whites:<3d} {rs[0].op.name[:60]:60s} "
              f"median {statistics.median(r.seconds for r in rs):8.4f} s wall, "
              f"{statistics.median(r.seconds * r.scale for r in rs):8.4f} s scaled  {verdicts}"
              + (f"  [{detail[:160]}]" if detail else ""))


def run_passes(wl, lib, variants, seconds, tracer=None, reference=()):
    """Passes until `seconds` have passed. With a tracer, each pass is an
    untraced pass followed by a traced pass on the same inputs, and then by
    the traced reference ops. Returns (untraced, traced, reference) results."""
    plain, traced, refs = [], [], []
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < seconds:
        pass_ops = variants[len(plain) % len(variants)]
        gc.collect()
        plain.append([run_calibrated(lambda: ops.run_op(lib.cli, op, wl.limit))
                      for op in pass_ops])
        if tracer is not None:
            gc.collect()
            traced.append([run_calibrated(lambda: tracer.op_span(
                               op, lambda: ops.run_op(lib.cli, op, wl.limit, tracer)))
                           for op in pass_ops])
            refs.append([tracer.op_span(op, lambda: ops.run_op(lib.cli, op, wl.limit, tracer))
                         for op in reference])
    return plain, traced, refs


def metric_json(values, names):
    return {name: {"value": values[name], "unit": unit} for name, unit in names}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = ops.WORKLOADS[args.workload]
    try:
        lib = load_program()
    except (NoProgram, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ops.install_alarm()
    work = os.path.join(ROOT, ".perfbench_work", f"{wl.name}-{os.getpid()}")
    try:
        setup_s, variants = setup(wl, lib, args.seed, work)
        tracer = reference = None
        if args.trace:
            tracer = spans.Tracer(lib, wl.limit)
            reference = ops.build_reference(lib.cli, args.seed, os.path.join(work, "reference"))
        plain, traced, refs = run_passes(wl, lib, variants, args.seconds, tracer, reference or ())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    base = summary(plain, wl)
    report_ops(plain, wl)
    wrong = [r for p in plain + traced + refs for r in p if r.outcome == "wrong"]
    counts = {o: sum(r.outcome == o for p in plain for r in p) for o in ops.OUTCOMES}
    print("oracle verdicts: " + ", ".join(f"{n} {o}" for o, n in counts.items())
          + ("" if not wrong else f"; first wrong output: {wrong[0].detail}"))
    if not args.trace:
        values = dict(base, setup_s=setup_s,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        for name, unit in END_TO_END:
            print(f"{name} = {values[name]:.6g} {unit}")
        print(f"fail_frac = {1 - base['ok_frac']:.6g} ratio")
        print(f"wall-time solve_s = {solve_seconds(plain, wl.limit, scaled=False):.6g} s, "
              "median calibration factor "
              f"{statistics.median(r.scale for p in plain for r in p):.4g}")
        metrics = metric_json(values, END_TO_END)
        attempted, failed = base["attempted"], base["failed"]
    else:
        values, by_name = spans.layer_metrics(tracer.spans, len(traced))
        traced_sum = summary(traced, wl)
        values["trace.overhead_s"] = traced_sum["solve_s"] - base["solve_s"]
        print(f"traced solve_s = {traced_sum['solve_s']:.6g} s, untraced solve_s = "
              f"{base['solve_s']:.6g} s, tracing overhead = {values['trace.overhead_s']:.6g} s")
        print("self time per pass by span:")
        for name, secs in sorted(by_name.items(), key=lambda kv: -kv[1]):
            print(f"  {name:32s} {secs:10.4f} s")
        for name, unit in spans.LAYER_METRICS:
            print(f"{name} = {values[name]:.6g} {unit}")
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"spans-{wl.name}-seed{args.seed}.jsonl"))
        metrics = metric_json(values, spans.LAYER_METRICS)
        attempted, failed = traced_sum["attempted"], traced_sum["failed"]
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
