"""Self-test of the benchmark: one tiny op per workload and the reference
ops of the traced run pass, and every oracle rejects a corrupted output.

    python3 perfbench/selftest.py

Exits 0 when every check holds. Run from the repository root.
"""
from __future__ import annotations

import os
import shutil
import sys
from fractions import Fraction

import gen
import ops
import oracle
import run


def tiny_workloads():
    """The build functions of ops.py on the smallest inputs: the worked example,
    a one-vertex numeric model with a coarse amoeba, the first ladder rung,
    and a three-pair script on the two-cell gadget graph."""
    ops.EXACT_POOL = ops.EXACT_POOL[:1]
    ops.NUMERIC_CURVE = [gen.square(1, 1)]
    ops.AMOEBA_GRID = 8
    ops.LADDER = ops.LADDER[:1]
    ops.MOVE_LATTICE = gen.square(2, 1)
    ops.MOVE_SCRIPTS = 1
    ops.MOVE_PAIRS = 3


def main():
    lib = run.load_program()
    ops.install_alarm()
    tiny_workloads()
    work = os.path.join(run.ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    try:
        outputs = {}
        for name, wl in ops.WORKLOADS.items():
            (op,) = wl.setup(lib.cli, 0, os.path.join(work, name))[0]
            res = ops.run_op(lib.cli, op, wl.limit)
            expect(res.outcome == "ok", f"{name}: tiny op '{op.name}' passes "
                                        f"({res.outcome} {res.detail})")
            outputs[name] = op
        for op in ops.build_reference(lib.cli, 0, os.path.join(work, "reference")):
            res = ops.run_op(lib.cli, op, 20.0)
            expect(res.outcome == "ok", f"reference op '{op.name}' passes "
                                        f"({res.outcome} {res.detail})")

        exact = outputs["exact-verify"]
        text = ops.read(exact.steps[1].out[0])
        expect(not oracle.check_verify(text, 0, True)[0], "worked example report is accepted")
        pts = next(ln for ln in text.splitlines() if ln.startswith("divisor D_w"))
        flipped = pts.replace("(", "(-", 1)
        expect(bool(oracle.check_verify(text.replace(pts, flipped), 0, True)[0]),
               "a flipped divisor coordinate is rejected")
        poly = next(ln for ln in text.splitlines() if ln.startswith("polynomial"))
        dropped = poly.rsplit(" ", 2)[0]
        expect(bool(oracle.check_verify(text.replace(poly, dropped), 0, True)[0]),
               "a dropped polynomial term is rejected")
        expect(bool(oracle.check_verify(text.replace("divisor-sigma pass",
                                                     "divisor-sigma FAIL"), 1, True)[0]),
               "a FAIL condition is rejected")
        numeric = ops.read(outputs["numeric-curve"].steps[1].out[0])
        npts = next(ln for ln in numeric.splitlines() if ln.startswith("divisor D_w"))
        expect(bool(oracle.check_verify(numeric.replace(npts, npts.replace("(", "(-", 1)),
                                        0, False)[0]),
               "a flipped numeric divisor coordinate is rejected")

        dimer = ops.read(exact.steps[0].out[0])
        first_white = next(ln for ln in dimer.splitlines() if ln.endswith(" w"))
        expect(bool(oracle.check_todimer(dimer.replace(first_white + "\n", ""), 2)),
               "a todimer output with a white vertex missing is rejected")

        move = outputs["move-script"]
        moved = ops.read(move.steps[0].out[0])
        after = moved.index("# X basis after")
        line = next(ln for ln in moved[after:].splitlines() if ln.startswith("# X["))
        key, _, val = line.partition(" = ")
        bumped = f"{key} = {Fraction(val) * Fraction(1000001, 1000000)}"
        start = ops.read(move.steps[0].argv[1])
        expect(not oracle.check_move(moved, start), "the move output is accepted")
        expect(bool(oracle.check_move(moved[:after] + moved[after:].replace(line, bumped, 1),
                                      start)),
               "a perturbed transported X value is rejected")

        curve = outputs["numeric-curve"]
        svg = ops.read(curve.steps[2].out[1])
        expect(bool(oracle.check_amoeba(ops.read(curve.steps[2].out[0]),
                                        svg.replace("r='5'", "r='1'"), 1)),
               "an amoeba plot without its divisor marks is rejected")

        original = lib.cli.spectral_report

        def boom(*args, **kwargs):
            raise RuntimeError("injected")

        lib.cli.spectral_report = boom
        try:
            res = ops.run_op(lib.cli, exact, 20.0)
        finally:
            lib.cli.spectral_report = original
        expect(res.outcome == "fail" and "injected" in res.detail,
               f"an injected exception is a failed op ({res.outcome})")
        res = ops.run_op(lib.cli, outputs["gadget-ladder"], 0.01)
        expect(res.outcome == "timeout", f"an op past its limit times out ({res.outcome})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} self-test checks failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
