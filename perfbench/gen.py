"""Seeded inputs for the pipeline benchmark: Ising graphs on the torus with
their couplings, written as `torus-graph v1` text.

The program under test only sees the text written here. Each graph is
checked as it is built: the library parses and validates it, and its vertex,
edge and face counts must equal the closed forms of the lattice, with Euler
characteristic 0.
"""
from __future__ import annotations

import random
import string
from fractions import Fraction

# Primitive Pythagorean triples (a, b, h), a^2 + b^2 = h^2, by hypotenuse.
# An exact coupling is (s, c) = (a/h, b/h) or (b/h, a/h).
TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29),
           (12, 35, 37), (9, 40, 41), (28, 45, 53), (11, 60, 61), (33, 56, 65)]

# Numeric couplings J are drawn uniformly from this interval, which holds the
# square-lattice critical point J_c = 0.4407.
J_RANGE = (0.2, 0.8)


class Lattice:
    """Ising graph structure with closed-form counts.

    vertices: ids in creation order; edges: (id, v1, v2, dx, dy);
    rotation: vertex -> ccw list of (edge id, '+' | '-').
    """

    def __init__(self, name, vertices, edges, rotation, faces):
        self.name = name
        self.vertices = vertices
        self.edges = edges
        self.rotation = rotation
        self.counts = (len(vertices), len(edges), faces)

    @property
    def whites(self):
        """Kasteleyn dimension of the gadget dimer graph: 2 |E|."""
        return 2 * len(self.edges)


def square(kx, ky):
    """Square lattice, kx x ky vertices per fundamental domain.
    square(1, 1) is the one-vertex model, square(2, 1) the two-cell model."""
    vs = [f"p{i}_{j}" for i in range(kx) for j in range(ky)]
    es, rot = [], {}
    for i in range(kx):
        for j in range(ky):
            es.append((f"h{i}_{j}", f"p{i}_{j}", f"p{(i + 1) % kx}_{j}", int(i + 1 == kx), 0))
            es.append((f"v{i}_{j}", f"p{i}_{j}", f"p{i}_{(j + 1) % ky}", 0, int(j + 1 == ky)))
            rot[f"p{i}_{j}"] = [(f"h{i}_{j}", "+"), (f"v{i}_{j}", "+"),
                                (f"h{(i - 1) % kx}_{j}", "-"), (f"v{i}_{(j - 1) % ky}", "-")]
    return Lattice(f"square {kx}x{ky}", vs, es, rot, kx * ky)


def honeycomb(kx, ky):
    """Honeycomb lattice, kx x ky cells of two vertices each."""
    vs, es, rot = [], [], {}
    for i in range(kx):
        for j in range(ky):
            vs += [f"u{i}_{j}", f"v{i}_{j}"]
            es.append((f"a{i}_{j}", f"u{i}_{j}", f"v{i}_{j}", 0, 0))
            es.append((f"b{i}_{j}", f"u{i}_{j}", f"v{(i + 1) % kx}_{j}", int(i + 1 == kx), 0))
            es.append((f"c{i}_{j}", f"u{i}_{j}", f"v{i}_{(j + 1) % ky}", 0, int(j + 1 == ky)))
            rot[f"u{i}_{j}"] = [(f"a{i}_{j}", "+"), (f"b{i}_{j}", "+"), (f"c{i}_{j}", "+")]
            rot[f"v{i}_{j}"] = [(f"a{i}_{j}", "-"), (f"b{(i - 1) % kx}_{j}", "-"),
                                (f"c{i}_{(j - 1) % ky}", "-")]
    return Lattice(f"honeycomb {kx}x{ky}", vs, es, rot, kx * ky)


def rng_for(seed, *purpose):
    """Independent random stream per (seed, purpose), stable across runs."""
    return random.Random(":".join(map(str, (seed,) + purpose)))


def relabel(lat, rng):
    """Seeded fresh names for every vertex and edge, assigned in the sorted
    order of the lattice's own names. The program sorts by name in many
    places (matrix rows, face ids, which adjugate entries the divisor search
    uses); keeping that order keeps the work per op the same for every seed,
    while the input text differs."""
    def fresh(prefix, ids):
        names = set()
        while len(names) < len(ids):
            names.add(prefix + "".join(rng.choice(string.ascii_lowercase) for _ in range(6)))
        return dict(zip(sorted(ids), sorted(names)))

    return fresh("q", lat.vertices) | fresh("e", [e[0] for e in lat.edges])


def pythagorean(rng, triples):
    a, b, h = rng.choice(triples)
    if rng.random() < 0.5:
        a, b = b, a
    return sc(a, b, h)


def sc(a, b, h):
    return f"sc={Fraction(a, h)},{Fraction(b, h)}"


def irrational_j(rng):
    return f"J={rng.uniform(*J_RANGE)!r}"


class Model:
    """One generated Ising model: its text, and the white vertex of the
    gadget graph that `verify-ising` and `amoeba` are asked about."""

    def __init__(self, text, white):
        self.text = text
        self.white = white


def model_text(lat, couplings, names):
    """`torus-graph v1` text; couplings: list of specs in edge order."""
    out = ["torus-graph v1"]
    out += [f"vertex {names[v]} n" for v in lat.vertices]
    out += [f"edge {names[e]} {names[v1]} {names[v2]} {dx} {dy}"
            for e, v1, v2, dx, dy in lat.edges]
    out += [f"rot {names[v]} " + " ".join(names[e] + s for e, s in lat.rotation[v])
            for v in lat.vertices]
    out += [f"coupling {names[e[0]]} {c}" for e, c in zip(lat.edges, couplings)]
    return "\n".join(out) + "\n"


def check_graph(text, counts):
    """Parse and validate with the library; require the closed-form
    (V, E, F) and Euler characteristic 0."""
    from isingdimer.torusgraph import parse_torus_graph
    g, _, couplings = parse_torus_graph(text)
    rep = g.validate()
    got = (rep["V"], rep["E"], rep["F"])
    if got != counts or rep["euler"] != 0:
        raise ValueError(f"generated graph has (V, E, F) = {got}, euler {rep['euler']};"
                         f" expected {counts}, euler 0")
    if len(couplings) != counts[1]:
        raise ValueError("generated graph lacks a coupling per edge")


def make_model(lat, couplings, rng):
    """Relabel with `rng`, write and check the model. The white vertex is the
    corner after the first dart at the first vertex (`to_dimer` names it
    W_<vertex>_0)."""
    names = relabel(lat, rng)
    text = model_text(lat, couplings, names)
    check_graph(text, lat.counts)
    return Model(text, f"W_{names[lat.vertices[0]]}_0")


# The worked example: one-vertex square model, (s1, c1) = (4/5, 3/5) on the
# edge crossing the vertical loop, (s2, c2) = (12/13, 5/13) on the other.
WORKED = ["sc=4/5,3/5", "sc=12/13,5/13"]
