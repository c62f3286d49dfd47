"""Shared fixtures: the one-vertex square-lattice Ising model and its
bipartite companion with exact couplings (s1,c1)=(4/5,3/5), (s2,c2)=(12/13,5/13),
and seeded Pythagorean couplings for any lattice.
"""
import random
from fractions import Fraction

import pytest

from isingdimer import lattices
from isingdimer.ising import make_coupling
from isingdimer.torusgraph import parse_torus_graph

# One Ising vertex, two loops: edge 1 crosses the vertical fundamental loop
# (z direction), edge 2 the horizontal one (w direction).
ISING_FIXTURE = """torus-graph v1
vertex n n 0.25 0.25
edge 1 n n 1 0
edge 2 n n 0 1
rot n 1+ 2+ 1- 2-
coupling 1 sc=4/5,3/5
coupling 2 sc=12/13,5/13
"""

# Its bipartite companion with the Figure-style Kasteleyn monomials. Vertex
# names are chosen so that the white w2 carries the divisor (13/20, 52/25)
# and so that the name-sorted Kasteleyn determinant has +2 constant term.
DIMER_FIXTURE = """torus-graph v1
vertex b1 b 0.625 0.375
vertex b2 b 0.375 0.875
vertex b3 b 0.125 0.625
vertex b4 b 0.875 0.125
vertex w1 w 0.125 0.875
vertex w2 w 0.875 0.375
vertex w3 w 0.625 0.125
vertex w4 w 0.375 0.625
edge e1 b3 w2 -1 0
edge e2 b3 w4 0 0
edge e3 b3 w1 0 0
edge e4 b2 w1 0 0
edge e5 b2 w3 0 1
edge e6 b2 w4 0 0
edge e7 b1 w3 0 0
edge e8 b1 w4 0 0
edge e9 b1 w2 0 0
edge e10 b4 w3 0 0
edge e11 b4 w1 1 -1
edge e12 b4 w2 0 0
rot b1 e9 e8 e7
rot b2 e5 e4 e6
rot b3 e2 e3 e1
rot b4 e12 e10 e11
rot w1 e4 e11 e3
rot w2 e1 e9 e12
rot w3 e10 e7 e5
rot w4 e6 e2 e8
weight e1 1
weight e2 12/13
weight e3 5/13
weight e4 12/13
weight e5 1
weight e6 5/13
weight e7 4/5
weight e8 1
weight e9 3/5
weight e10 3/5
weight e11 1
weight e12 4/5
"""

# Kasteleyn sign of the worked example: all +1 except the edges weighted
# -c2 and -s1 in the figure.
FIXTURE_KAPPA = {f"e{i}": 1 for i in range(1, 13)}
FIXTURE_KAPPA["e6"] = -1
FIXTURE_KAPPA["e7"] = -1

S1, C1 = Fraction(4, 5), Fraction(3, 5)
S2, C2 = Fraction(12, 13), Fraction(5, 13)

# Explicit homology basis cycles of the bipartite fixture (dart sequences).
FIXTURE_CYCLE_A = ["e1-", "e2+", "e8-", "e9+"]   # w2->b3->w4->b1->w2, class (1,0)
FIXTURE_CYCLE_B = ["e7-", "e8+", "e6-", "e5+"]   # w3->b1->w4->b2->w3, class (0,1)


@pytest.fixture
def ising_fixture():
    g, _, couplings = parse_torus_graph(ISING_FIXTURE)
    return g, couplings


@pytest.fixture
def dimer_fixture():
    g, weights, _ = parse_torus_graph(DIMER_FIXTURE)
    return g, weights


# Couplings (s, c), s^2 + c^2 = 1, from the first Pythagorean triples: both
# rational, so the gadget weights are exact.
PYTHAGOREAN = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
               (Fraction(8, 17), Fraction(15, 17)), (Fraction(20, 29), Fraction(21, 29))]


def pythagorean_couplings(g, seed, swap=False):
    """A coupling sc=(s, c) from PYTHAGOREAN on each edge of g, drawn by
    random.Random(seed); with swap, (c, s) instead on about half of them."""
    rng = random.Random(seed)
    out = {}
    for e in g.edges():
        s, c = rng.choice(PYTHAGOREAN)
        if swap and rng.choice((1, -1)) < 0:
            s, c = c, s
        out[e] = make_coupling(sc=(s, c))
    return out


def named_lattice(name):
    """The lattice a name such as "square 2x1" or "honeycomb 3x3" names."""
    kind, size = name.split()
    return getattr(lattices, kind)(*map(int, size.split("x")))
