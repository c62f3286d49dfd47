"""Golden outputs of the command line, so that "the output did not change"
is a test:

- exact/: exact `verify-ising` on the worked example and on the fixed
  couplings of the exact-verify benchmark (one-vertex square models and
  honeycomb 1x1), with the names of `lattices`;
- move/: `move` on a 24-line script over the square 2x2 gadget graph with
  Pythagorean couplings;
- ladder/: the `condition` lines only of numeric `verify-ising` on the
  gadget ladder of 6 to 24 whites, since the digits of float output can
  vary with the BLAS and the verdicts cannot.

The Ising inputs are made here from the lattices and fixed couplings; the
move script is written once and kept as an input. To rewrite the expected
files after a change that is meant to change them:

    PYTHONPATH=src python tests/golden.py

test_golden.py runs every case and compares with the files.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
import tempfile
from fractions import Fraction

from isingdimer.cli import main
from isingdimer.dimer import MoveError, square_move
from isingdimer.lattices import honeycomb, square
from isingdimer.torusgraph import parse_torus_graph, serialize_torus_graph

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# primitive Pythagorean triples (a, b, h); a coupling is s, c = a/h, b/h
TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29),
           (12, 35, 37), (9, 40, 41), (28, 45, 53), (11, 60, 61), (33, 56, 65)]


def sc(a, b, h):
    return f"sc={Fraction(a, h)},{Fraction(b, h)}"


def flip(t):
    return (t[1], t[0], t[2])


# name -> (lattice, couplings in edge order): a low triple with a high one,
# each way round, so that every triple is used
EXACT = {"worked": (square(1, 1), ["sc=4/5,3/5", "sc=12/13,5/13"])}
for i in range(5):
    EXACT[f"square11_{i}a"] = (square(1, 1), [sc(*TRIPLES[i]), sc(*flip(TRIPLES[9 - i]))])
    EXACT[f"square11_{i}b"] = (square(1, 1), [sc(*flip(TRIPLES[i])), sc(*TRIPLES[9 - i])])
EXACT["honeycomb11_a"] = (honeycomb(1, 1), [sc(*TRIPLES[0]), sc(*flip(TRIPLES[3])), sc(*TRIPLES[0])])
EXACT["honeycomb11_b"] = (honeycomb(1, 1), [sc(*flip(TRIPLES[0])), sc(*TRIPLES[2]), sc(*TRIPLES[0])])

# the gadget ladder: seeded J couplings in the square lattice's critical range
LADDER = {"honeycomb11": honeycomb(1, 1), "square21": square(2, 1), "honeycomb21": honeycomb(2, 1),
          "square22": square(2, 2), "honeycomb22": honeycomb(2, 2)}


def ising_text(gi, couplings):
    return serialize_torus_graph(gi) + "".join(
        f"coupling {e} {c}\n" for e, c in zip(gi.edges(), couplings))


def ladder_couplings(name):
    rng = random.Random(f"ladder {name}")
    return [f"J={rng.uniform(0.2, 0.8)!r}" for _ in LADDER[name].edges()]


def move_couplings():
    rng = random.Random("move")
    return [sc(*(t if rng.random() < 0.5 else flip(t)))
            for t in (rng.choice(TRIPLES[:4]) for _ in square(2, 2).edges())]


def run(argv):
    """main(argv) with stderr captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def todimer(tmp, name, text):
    """Write the Ising model, run todimer: (dimer path, gadget-map path,
    the white W_<first vertex>_0)."""
    src, dim, gm = (os.path.join(tmp, name + ext) for ext in (".ising", ".dimer", ".gm"))
    with open(src, "w") as fh:
        fh.write(text)
    assert run(["todimer", src, "--out", dim, "--gadget-map", gm]) == (0, "")
    g = parse_torus_graph(text)[0]
    return dim, gm, f"W_{g.vertex_ids()[0]}_0"


def verify(tmp, name, text, mode):
    """The --out text of verify-ising, with its exit code and stderr."""
    dim, gm, white = todimer(tmp, name, text)
    out = os.path.join(tmp, name + ".verify")
    code, err = run(["verify-ising", dim, "--vertex", white, "--gadget-map", gm,
                     "--mode", mode, "--out", out])
    with open(out) as fh:
        return f"exit {code}\n{err}" + fh.read()


def exact_output(tmp, name):
    return verify(tmp, name, ising_text(*EXACT[name]), "exact")


def ladder_output(tmp, name):
    text = verify(tmp, name, ising_text(LADDER[name], ladder_couplings(name)), "numeric")
    return "".join(line + "\n" for line in text.splitlines()
                   if line.startswith(("exit", "condition")))


def move_script(dim, pairs=12, colour_pairs=2):
    """`pairs` move pairs on the graph at dim: square moves at a drawn quad
    and at the face it made, or two colour changes."""
    g, wt, _ = parse_torus_graph(open(dim).read())
    rng = random.Random("script")
    kinds = ["color"] * colour_pairs + ["square"] * (pairs - colour_pairs)
    rng.shuffle(kinds)
    lines = []
    for kind in kinds:
        if kind == "color":
            lines += ["move color", "move color"]
            continue
        quads = [f for f, orbit in g.faces() if len(orbit) == 4]
        rng.shuffle(quads)
        for f in quads:
            try:
                g1, wt1, rec = square_move(g, wt, f)
                g, wt, _ = square_move(g1, wt1, rec.data["new_face"])
            except MoveError:
                continue
            lines += [f"move square f={f}", f"move square f={rec.data['new_face']}"]
            break
        else:
            raise MoveError("no face admits a square-move pair")
    return "\n".join(lines) + "\n"


def move_output(tmp, script):
    dim, _, _ = todimer(tmp, "square22", ising_text(square(2, 2), move_couplings()))
    out = os.path.join(tmp, "square22.moved")
    code, err = run(["move", dim, "--script", script, "--out", out])
    with open(out) as fh:
        return f"exit {code}\n{err}" + fh.read()


MOVE_SCRIPT = os.path.join(HERE, "move", "square22.script")


def cases():
    """(expected file, function of a scratch directory giving its text)."""
    out = [(os.path.join(HERE, "exact", f"{n}.verify"), lambda tmp, n=n: exact_output(tmp, n))
           for n in EXACT]
    out += [(os.path.join(HERE, "ladder", f"{n}.conditions"), lambda tmp, n=n: ladder_output(tmp, n))
            for n in LADDER]
    out.append((os.path.join(HERE, "move", "square22.moved"),
                lambda tmp: move_output(tmp, MOVE_SCRIPT)))
    return out


def write(tmp):
    for sub in ("exact", "ladder", "move"):
        os.makedirs(os.path.join(HERE, sub), exist_ok=True)
    if not os.path.exists(MOVE_SCRIPT):
        dim, _, _ = todimer(tmp, "square22", ising_text(square(2, 2), move_couplings()))
        with open(MOVE_SCRIPT, "w") as fh:
            fh.write(move_script(dim))
    for path, make in cases():
        with open(path, "w") as fh:
            fh.write(make(tmp))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write(tmp)
