import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from isingdimer.exactalg import LaurentPoly2, lm_determinant
from isingdimer.dimer import MoveError, color_change, square_move
from isingdimer import lattices
from isingdimer.ising import (GadgetMap, IsingModel, couplings_from_file_data,
                              make_coupling, to_dimer)
from isingdimer.abel import discrete_abel
from isingdimer.spectral import (
    SpectralError,
    amoeba_csv,
    amoeba_sample,
    amoeba_svg,
    canonical_sign,
    characteristic_polynomial,
    divisor_of_vertex,
    kappa_tree_normalize,
    kasteleyn_matrix,
    nu_map,
    solve_kasteleyn_signs,
    spectral_report,
    verify_ising_spectral,
)
from isingdimer.torusgraph import TorusGraph, parse_torus_graph

from conftest import (DIMER_FIXTURE, FIXTURE_KAPPA, ISING_FIXTURE, S1, C1, S2, C2, gauge_transform,
                      monomial_label, named_lattice, pythagorean_couplings)


def fixture_gm():
    return GadgetMap({"1": "f2", "2": "f3"},
                     {"w1": "b4", "w2": "b3", "w3": "b2", "w4": "b1"})


EXPECTED_P = "2 - 4/13*w - 4/13*w^-1 - 36/65*z - 36/65*z^-1"


def kappa_is_valid(g, kappa):
    """Every face's sign product is (-1)^(len/2 + 1): the Kasteleyn condition."""
    for fid, orbit in g.faces():
        prod = 1
        for d in orbit:
            prod *= kappa[g.darts[d].edge]
        if prod != (-1) ** (len(orbit) // 2 + 1):
            return False
    return True


class TestKasteleynMatrix:
    def test_fixture_entries(self, dimer_fixture):
        g, wt = dimer_fixture
        K = kasteleyn_matrix(g, wt, FIXTURE_KAPPA)
        assert K.entries[("w1", "b2")] == LaurentPoly2.const(S2)
        assert K.entries[("w1", "b3")] == LaurentPoly2.const(C2)
        assert K.entries[("w3", "b1")] == LaurentPoly2.const(-S1)
        assert K.entries[("w4", "b2")] == LaurentPoly2.const(-C2)
        assert K.entries[("w1", "b4")] == LaurentPoly2.monomial(1, -1)
        assert K.entries[("w2", "b3")] == LaurentPoly2.monomial(-1, 0)
        assert K.entries[("w3", "b2")] == LaurentPoly2.monomial(0, 1)
        assert K.entries[("w2", "b2")].is_zero()

    def test_gauge_scales_det_by_constant(self, dimer_fixture):
        g, wt = dimer_fixture
        rng = random.Random(8)
        f = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in g.vertex_ids()}
        P1 = lm_determinant(kasteleyn_matrix(g, wt, FIXTURE_KAPPA))
        P2 = lm_determinant(kasteleyn_matrix(g, gauge_transform(g, wt, f), FIXTURE_KAPPA))
        ratios = {ij: P2.terms[ij] / c for ij, c in P1.terms.items()}
        assert len(set(ratios.values())) == 1
        assert next(iter(ratios.values())) != 0


class TestCharacteristicPolynomial:
    def test_fixture_exact(self, dimer_fixture):
        g, wt = dimer_fixture
        data = characteristic_polynomial(g, wt, FIXTURE_KAPPA)
        assert data.poly.canonical_str() == EXPECTED_P
        assert data.genus == 1
        assert data.polygon.vertices == [(-1, 0), (0, -1), (1, 0), (0, 1)]

    def test_sigma_invariance_and_perturbation(self, dimer_fixture):
        g, wt = dimer_fixture
        P = characteristic_polynomial(g, wt, FIXTURE_KAPPA).poly
        assert P.sigma() == P
        wtp = dict(wt)
        wtp["e5"] = wtp["e5"] * 2
        P2 = characteristic_polynomial(g, wtp, FIXTURE_KAPPA).poly
        assert P2.sigma() != P2

    def test_numeric_figure_parameters(self, dimer_fixture):
        # c1 = 1/sqrt(2), c2 = sqrt(3)/2: coefficient of z is -c1*s2 = -1/(2 sqrt 2)
        g, _ = dimer_fixture
        c1 = 1 / math.sqrt(2)
        s1 = math.sqrt(1 - c1 * c1)
        c2 = math.sqrt(3) / 2
        s2 = math.sqrt(1 - c2 * c2)
        wt = {"e1": 1.0, "e2": s2, "e3": c2, "e4": s2, "e5": 1.0, "e6": c2,
              "e7": s1, "e8": 1.0, "e9": c1, "e10": c1, "e11": 1.0, "e12": s1}
        P = characteristic_polynomial(g, wt, FIXTURE_KAPPA).poly
        assert abs(P.coeff(1, 0) - (-c1 * s2)) < 1e-12
        assert abs(P.coeff(1, 0) - (-1 / (2 * math.sqrt(2)))) < 1e-12
        assert P.isclose(P.sigma(), 1e-12)

    def test_move_preserves_curve_at_ising_locus(self, dimer_fixture):
        g, wt = dimer_fixture
        P = characteristic_polynomial(g, wt, FIXTURE_KAPPA).poly
        g2, wt2, rec = square_move(g, wt, "f2")
        curves = []
        for lab, kappa in solve_kasteleyn_signs(g2):
            P2 = lm_determinant(kasteleyn_matrix(g2, wt2, kappa))
            curves.append(canonical_sign(P2))
        assert canonical_sign(P) in curves


class TestKasteleynSigns:
    def test_four_distinct_classes(self, dimer_fixture):
        g, _ = dimer_fixture
        classes = solve_kasteleyn_signs(g)
        assert len(classes) == 4
        assert sorted(lab for lab, _ in classes) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        for _, kappa in classes:
            assert kappa_is_valid(g, kappa)
        for (l1, k1), (l2, k2) in itertools.combinations(classes, 2):
            assert kappa_tree_normalize(g, k1) != kappa_tree_normalize(g, k2)

    def test_face_products(self, dimer_fixture):
        g, _ = dimer_fixture
        for _, kappa in solve_kasteleyn_signs(g):
            for fid, orbit in g.faces():
                prod = 1
                for d in orbit:
                    prod *= kappa[g.darts[d].edge]
                assert prod == (-1) ** (len(orbit) // 2 + 1)
                if len(orbit) == 4:
                    assert prod == -1

    def test_figure_representative_among_classes(self, dimer_fixture):
        g, _ = dimer_fixture
        assert kappa_is_valid(g, FIXTURE_KAPPA)
        hits = [lab for lab, k in solve_kasteleyn_signs(g)
                if kappa_tree_normalize(g, k) == kappa_tree_normalize(g, FIXTURE_KAPPA)]
        assert len(hits) == 1

    @pytest.mark.parametrize("lattice", ["square 2x1", "honeycomb 2x2"])
    def test_one_spanning_tree_for_the_four_classes(self, lattice, monkeypatch):
        # every call returns the tree built by the first
        from isingdimer.torusgraph import TorusGraph
        g, *_ = ladder_dimer(lattice, 1)
        trees, tree = [], TorusGraph.spanning_tree
        monkeypatch.setattr(TorusGraph, "spanning_tree", lambda g: trees.append(tree(g)) or trees[-1])
        solve_kasteleyn_signs(g)
        assert len(trees) == 4 and all(t is trees[0] for t in trees)


def reference_gf2_solve(rows, rhs, nvars):
    """Particular solution and kernel basis of A x = b over GF(2)."""
    rows = [r | (b << nvars) for r, b in zip(rows, rhs)]
    pivots = []
    for col in range(nvars):
        piv = next((i for i in range(len(pivots), len(rows)) if rows[i] >> col & 1), None)
        if piv is None:
            continue
        rows[len(pivots)], rows[piv] = rows[piv], rows[len(pivots)]
        for i in range(len(rows)):
            if i != len(pivots) and rows[i] >> col & 1:
                rows[i] ^= rows[len(pivots)]
        pivots.append(col)
    for i in range(len(pivots), len(rows)):
        if rows[i]:
            raise SpectralError("Kasteleyn sign system is inconsistent (parity obstruction)")
    x = 0
    for i, col in enumerate(pivots):
        if rows[i] >> nvars & 1:
            x |= 1 << col
    kernel = []
    for f in (c for c in range(nvars) if c not in pivots):
        v = 1 << f
        for i, col in enumerate(pivots):
            if rows[i] >> f & 1:
                v |= 1 << col
        kernel.append(v)
    return x, kernel


def reference_solve_kasteleyn_signs(g):
    """The four sign classes from the kernel of the face system: a search
    over pairs of kernel vectors for the four labels."""
    edges = g.edges()
    eidx = {e: i for i, e in enumerate(edges)}
    rows, rhs = [], []
    for fid, orbit in g.faces():
        mask = 0
        for d in orbit:
            mask ^= 1 << eidx[g.darts[d].edge]
        rows.append(mask)
        rhs.append(((len(orbit) // 2) + 1) % 2)
    x0, kernel = reference_gf2_solve(rows, rhs, len(edges))
    cycle_a, cycle_b = g.homology_basis_cycles()

    def label(mask):
        sa = sb = 1
        for d in cycle_a:
            if mask >> eidx[g.darts[d].edge] & 1:
                sa = -sa
        for d in cycle_b:
            if mask >> eidx[g.darts[d].edge] & 1:
                sb = -sb
        return (sa, sb)

    base_label = label(x0)
    reps = {base_label: x0}
    effects = []
    for k in kernel:
        la = label(x0 ^ k)
        effects.append((k, (la[0] * base_label[0], la[1] * base_label[1])))
    for k1, eff1 in effects:
        if len(reps) == 4:
            break
        lab = (eff1[0] * base_label[0], eff1[1] * base_label[1])
        reps.setdefault(lab, x0 ^ k1)
        for k2, eff2 in effects:
            lab = (base_label[0] * eff1[0] * eff2[0], base_label[1] * eff1[1] * eff2[1])
            reps.setdefault(lab, x0 ^ k1 ^ k2)
    assert len(reps) == 4
    out = []
    for lab in sorted(reps, reverse=True):
        kappa = {e: (-1 if reps[lab] >> i & 1 else 1) for e, i in eidx.items()}
        out.append((lab, kappa_tree_normalize(g, kappa)))
    return out


def sign_graphs():
    """The gadget graphs of square and honeycomb 1x1, 2x1, 2x2 and 3x3, each
    followed by six seeded square-move descendants: 56 graphs."""
    for make in (lattices.square, lattices.honeycomb):
        for n, m in ((1, 1), (2, 1), (2, 2), (3, 3)):
            rng = random.Random(f"{make.__name__} {n}x{m}")
            gi = make(n, m)
            g, wt, _ = to_dimer(IsingModel(gi, pythagorean_couplings(gi, rng.random(), swap=True)))
            yield g
            for _ in range(6):
                quads = [f for f, orbit in g.faces() if len(orbit) == 4]
                rng.shuffle(quads)
                for fid in quads:
                    try:
                        g, wt, _ = square_move(g, wt, fid)
                        break
                    except MoveError:
                        continue
                else:
                    raise AssertionError("no square face admits a move")
                yield g


def twisted(P, s, t):
    """P(s z, t w) for s, t = +-1."""
    return LaurentPoly2({(i, j): c * s ** (i % 2) * t ** (j % 2) for (i, j), c in P.terms.items()})


# one black b and two whites: b-w1 by edges of displacement (0,0) and
# (1,0), b-w2 by (0,0) and (0,1); the one face is an octagon through both
# darts of every edge, so its sign product is +1, never the -1 it needs
PARITY_OBSTRUCTED = """torus-graph v1
vertex b b
vertex w1 w
vertex w2 w
edge e1 b w1 0 0
edge e2 b w1 1 0
edge e3 b w2 0 0
edge e4 b w2 0 1
rot b e2+ e4+ e1+ e3+
rot w1 e1- e2-
rot w2 e3- e4-
weight e1 1
weight e2 1
weight e3 1
weight e4 1
"""


class TestSignTwists:
    def test_matches_kernel_search_reference(self):
        graphs = list(sign_graphs())
        assert len(graphs) == 56
        for g in graphs:
            assert solve_kasteleyn_signs(g) == reference_solve_kasteleyn_signs(g)

    def test_fixture_matches_reference(self, dimer_fixture):
        g, _ = dimer_fixture
        assert solve_kasteleyn_signs(g) == reference_solve_kasteleyn_signs(g)

    @pytest.mark.parametrize("lattice", ["fixture", "square 1x1", "honeycomb 1x1",
                                         "square 2x1", "honeycomb 2x1"])
    def test_classes_are_twists_of_one_polynomial(self, lattice, dimer_fixture):
        # det K of class (s, t) is +-P_{++}(s z, t w), coefficient by coefficient
        if lattice == "fixture":
            g, wt = dimer_fixture
        else:
            gi = named_lattice(lattice)
            g, wt, _ = to_dimer(IsingModel(gi, pythagorean_couplings(gi, lattice, swap=True)))
        classes = dict(solve_kasteleyn_signs(g))
        assert list(classes) == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        P = lm_determinant(kasteleyn_matrix(g, wt, classes[(1, 1)]))
        dets = []
        for (s, t), kappa in classes.items():
            dets.append(canonical_sign(lm_determinant(kasteleyn_matrix(g, wt, kappa))))
            assert dets[-1] == canonical_sign(twisted(P, s, t))
        assert len(set(dets)) == 4

    def test_parity_obstruction(self):
        g, _, _ = parse_torus_graph(PARITY_OBSTRUCTED)
        rep = g.validate()
        assert (rep["V"], rep["E"], rep["faces"]) == (3, 4, {"f0": 8})
        with pytest.raises(SpectralError, match=r"^Kasteleyn sign system is inconsistent "
                                                r"\(parity obstruction\)$"):
            solve_kasteleyn_signs(g)


class TestDivisors:
    def test_fixture_exact(self, dimer_fixture):
        g, wt = dimer_fixture
        Dw = divisor_of_vertex(g, wt, FIXTURE_KAPPA, "w2")
        Db = divisor_of_vertex(g, wt, FIXTURE_KAPPA, "b3")
        assert Dw.points == [(Fraction(13, 20), Fraction(52, 25), 1)]
        assert Db.points == [(Fraction(20, 13), Fraction(25, 52), 1)]
        assert Dw.matches(Db.sigma())

    def test_degree_equals_genus(self, dimer_fixture):
        g, wt = dimer_fixture
        data = characteristic_polynomial(g, wt, FIXTURE_KAPPA)
        for v in ("w1", "w2", "b1", "b4"):
            D = divisor_of_vertex(g, wt, FIXTURE_KAPPA, v)
            assert len(D) == data.genus == 1

    def test_numeric_matches_exact(self, dimer_fixture):
        g, wt = dimer_fixture
        wtf = {e: float(v) for e, v in wt.items()}
        D = divisor_of_vertex(g, wtf, FIXTURE_KAPPA, "w2", mode="numeric")
        (z, w, m), = D.points
        assert abs(z - 0.65) < 1e-10 and abs(w - 2.08) < 1e-10

    def test_genus_zero_empty(self):
        g = TorusGraph()
        g.add_vertex("B", "b")
        g.add_vertex("W", "w")
        g.add_edge("a", "B", "W", 0, 0)
        g.add_edge("b", "B", "W", 1, 0)
        g.add_edge("c", "B", "W", 0, 1)
        g.set_rotation("B", ["a+", "b+", "c+"])
        g.set_rotation("W", ["a-", "b-", "c-"])
        g.freeze()
        g.validate()
        wt = {"a": Fraction(1), "b": Fraction(2), "c": Fraction(3)}
        _, kappa = solve_kasteleyn_signs(g)[0]
        D = divisor_of_vertex(g, wt, kappa, "W")
        assert len(D) == 0

    def test_residual_test_scales_with_terms(self):
        from isingdimer.divisor import _vanishes
        p = LaurentPoly2({(0, 0): -1e6, (1, 0): 1.0})
        # an absolute 1e-5 miss is rounding at a point of size 1e6
        assert _vanishes([p], 1e6 + 1e-5, 1.0, 1e-10)[0]
        assert not _vanishes([p], 1e6 + 1.0, 1.0, 1e-10)[0]
        # below size 1 the test is absolute
        assert not _vanishes([LaurentPoly2({(1, 0): 1.0})], 1e-9, 1.0, 1e-10)[0]
        # root w = 1e6 of -1e4 + 1e-8 w^2, with a 1e-14 * max|c| error in the
        # small coefficient: it dominates the residual there, not far off
        q = LaurentPoly2({(0, 0): -1e4, (0, 2): 1e-8 + 1e-10})
        assert _vanishes([q], 1.0, 1e6, 1e-10)[0]
        assert not _vanishes([q], 1.0, 2e6, 1e-10)[0]
        # one row per polynomial, each on its own scale (max|c| of p is 100
        # times that of q, and would pass q at w = 2e6)
        assert _vanishes([p, q], [1e6 + 1e-5, 1.0, 1.0], [1.0, 1e6, 2e6], 1e-10).tolist() == \
            [[True, False, False], [False, True, False]]

    def test_polish_on_all_equations(self):
        from isingdimer.divisor import _polish
        polys = [LaurentPoly2({(1, 0): 1.0, (0, 1): 1.0, (0, 0): -3.0}),
                 LaurentPoly2({(1, 0): 1.0, (0, 1): -1.0, (0, 0): 1.0}),
                 LaurentPoly2({(1, 1): 1.0, (0, 0): -2.0})]
        z, w, _ = _polish(polys, 1.001 + 0j, 1.999 + 0j)
        assert abs(z - 1) < 1e-12 and abs(w - 2) < 1e-12

    def test_polish_stop_sees_each_point_in_the_step_it_stops(self):
        # points nearer the common zero (1, 2) stop in earlier steps; stop
        # sees each point once, at its final value, and a true return ends
        # the pass with the points still moving where they are
        import numpy as np
        from isingdimer.divisor import _polish
        polys = [LaurentPoly2({(1, 0): 1.0, (0, 1): 1.0, (0, 0): -3.0}),
                 LaurentPoly2({(1, 0): 1.0, (0, 1): -1.0, (0, 0): 1.0}),
                 LaurentPoly2({(1, 1): 1.0, (0, 0): -2.0})]
        z0 = np.array([8.0, 1.0000001, 1.5]) + 0j
        w0 = np.array([0.3, 2.0000001, 3.0]) + 0j
        seen = []
        z, w, _ = _polish(polys, z0, w0, steps=40, stop=lambda z, w: seen.append(z.tolist()))
        assert (abs(z - 1) < 1e-12).all() and (abs(w - 2) < 1e-12).all()
        assert [len(s) for s in seen] == [1, 1, 1]
        assert [s[0] for s in seen] == [z[1], z[2], z[0]]
        z, w, _ = _polish(polys, z0, w0, steps=40, stop=lambda z, w: True)
        assert abs(z[1] - 1) < 1e-12 and (abs(z[[0, 2]] - 1) > 1e-7).all()

    def test_matches_is_relative_far_out(self):
        from isingdimer.divisor import Divisor
        far = Divisor([(100 + 0j, 70 + 0j, 1)], exact=False)
        assert far.matches(Divisor([(100 + 0j, 70 + 5e-8j, 1)], exact=False))
        near = Divisor([(0.5 + 0j, 0.7 + 0j, 1)], exact=False)
        assert not near.matches(Divisor([(0.5 + 0j, 0.7 + 5e-8j, 1)], exact=False))


def _nonzero_rationals():
    return st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))


def _rational_polys():
    pairs = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    return st.dictionaries(pairs, _nonzero_rationals(), min_size=1, max_size=5).map(LaurentPoly2)


class TestClearedEvaluation:
    @given(st.lists(_rational_polys(), min_size=1, max_size=3),
           _nonzero_rationals(), _nonzero_rationals())
    @settings(max_examples=80, deadline=None)
    # vanishing at the point: z - 2/3, (w + 3/4)(z^-1 - 5) and a zero sum of
    # the terms at (2/3, -3/4)
    @example([LaurentPoly2({(1, 0): Fraction(1), (0, 0): Fraction(-2, 3)}),
              LaurentPoly2({(-1, 1): Fraction(1), (0, 1): Fraction(-5), (-1, 0): Fraction(3, 4),
                            (0, 0): Fraction(-15, 4)})],
             Fraction(2, 3), Fraction(-3, 4))
    @example([LaurentPoly2({(2, -1): Fraction(9, 8), (0, 1): Fraction(3, 4)})],
             Fraction(-2, 3), Fraction(-3, 4))
    def test_against_fraction_sum(self, polys, z0, w0):
        # the candidate test of exact divisors: over coefficients cleared of
        # denominators (times L, the lcm of p's) and power tables of
        # z0 = p/q and w0 = r/s on the joint box, sum n_ij zp[i] wp[j] is
        # p(z0, w0) times L p^-ilo q^ihi r^-jlo s^jhi, so zero exactly where
        # p vanishes
        from isingdimer.exactalg import _cleared_powers, _int_rows
        cleared = [row[0] for row in _int_rows([[p] for p in polys])[0]]
        (ilo, ihi), (jlo, jhi) = ((min(ij[k] for p in polys for ij in p.terms),
                                   max(ij[k] for p in polys for ij in p.terms)) for k in (0, 1))
        zp, wp = _cleared_powers(z0, ilo, ihi), _cleared_powers(w0, jlo, jhi)
        assert sorted(zp) == list(range(ilo, ihi + 1)) and sorted(wp) == list(range(jlo, jhi + 1))
        assert all(isinstance(x, int) for x in list(zp.values()) + list(wp.values()))
        scale = (Fraction(z0.numerator) ** -ilo * Fraction(z0.denominator) ** ihi
                 * Fraction(w0.numerator) ** -jlo * Fraction(w0.denominator) ** jhi)
        for p, c in zip(polys, cleared):
            got = sum(n * zp[i] * wp[j] for (i, j), n in c.items())
            want = sum(x * z0 ** i * w0 ** j for (i, j), x in p.terms.items())
            lcm = math.lcm(*(x.denominator for x in p.terms.values()))
            assert isinstance(got, int) and got == want * lcm * scale
            assert (got == 0) == (want == 0)


def _one_vertex_dimer(sc1, sc2):
    """The gadget dimer graph of the one-vertex Ising model with couplings
    sc=(s, c) on its two edges: (graph, weights, kappa, white)."""
    text = ISING_FIXTURE.replace("sc=4/5,3/5", "sc=%s,%s" % sc1).replace(
        "sc=12/13,5/13", "sc=%s,%s" % sc2)
    gi, _, raw = parse_torus_graph(text)
    gd, wt, _ = to_dimer(IsingModel(gi, couplings_from_file_data(raw)))
    return gd, wt, solve_kasteleyn_signs(gd)[0][1], gd.whites()[0]


def _honeycomb_dimer(scs):
    g = lattices.honeycomb(1, 1)
    model = IsingModel(g, {e: make_coupling(sc=(Fraction(s), Fraction(c)))
                           for e, (s, c) in zip(g.edges(), scs)})
    gd, wt, _ = to_dimer(model)
    return gd, wt, solve_kasteleyn_signs(gd)[0][1], gd.whites()[0]


def _pythagorean_dimer(name, seed):
    """The gadget dimer graph of a named lattice with seeded Pythagorean
    couplings: (graph, weights)."""
    g = named_lattice(name)
    gd, wt, _ = to_dimer(IsingModel(g, pythagorean_couplings(g, seed)))
    return gd, wt


def _worked_dimer():
    g, wt, _ = parse_torus_graph(DIMER_FIXTURE)
    return g, wt, FIXTURE_KAPPA, "w2"


def brute_rational_zeros(coeffs):
    """Nonzero rational roots of a polynomial (lowest degree first), by
    trying every +-p/q with p | a_0 and q | a_n in lowest terms."""
    a = [Fraction(c) for c in coeffs]
    while a and a[0] == 0:
        a.pop(0)
    while a and a[-1] == 0:
        a.pop()
    if len(a) < 2:
        return []
    den = math.lcm(*(c.denominator for c in a))
    a0, an = (int(c * den) for c in (a[0], a[-1]))

    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    cands = {Fraction(s * p, q) for p in divisors(a0) for q in divisors(an) for s in (1, -1)}
    return sorted(c for c in cands if sum(x * c ** k for k, x in enumerate(a)) == 0)


class TestRoots:
    def test_matches_np_roots_per_fibre(self, dimer_fixture):
        # reference: the per-fibre loop the kernel replaced, np.roots on the
        # coefficients of P in w at one z, skipping a vanishing leading one.
        # The fibre rows are built with numpy's complex power and division,
        # so they agree with LaurentPoly2.eval to rounding; the roots of a
        # row are bit-identical.
        import numpy as np
        from isingdimer.divisor import _fibres, _roots
        g, wt = dimer_fixture
        P = lm_determinant(kasteleyn_matrix(g, wt, FIXTURE_KAPPA))
        # plus (z - 1) w^2: the leading coefficient in w vanishes at z = 1
        Q = P + LaurentPoly2({(1, 2): Fraction(1), (0, 2): Fraction(-1)})
        zs = [1.0 + 0j] + [math.exp(x / 7) * complex(math.cos(t / 5), math.sin(t / 5))
                           for x in range(-10, 11) for t in range(16)]
        for poly in (P.to_numeric(), Q.to_numeric()):
            rows = _fibres(poly, np.array(zs))
            roots, ok = _roots(rows)
            cw = poly.coeffs_in_w()
            for k, z in enumerate(zs):
                ref = np.array([complex(c.eval(z, 1.0)) for c in cw][::-1])
                assert np.abs(rows[k] - ref).max() <= 1e-15 * (abs(z) + 1 / abs(z) + 2)
                if abs(rows[k][0]) < 1e-300:
                    assert not ok[k]
                    continue
                assert ok[k] and np.array_equal(roots[k], np.roots(rows[k]))
        assert not _roots(_fibres(Q.to_numeric(), np.array([1.0 + 0j])))[1][0]

    @given(st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)), max_size=4),
           st.sampled_from([2, 3, 5, 6, 10, 15, 30]),
           st.sampled_from([[1], [1, 0, 1], [-2, 0, 1], [3, 1, 1]]),
           st.sampled_from([Fraction(1), Fraction(-3, 7)]))
    @example([Fraction(k) for k in (1, 3, 4, 6)] + [Fraction(1, 2)], 30, [1], Fraction(1))
    @example([Fraction(1), Fraction(1), Fraction(-1), Fraction(5, 2)], 15, [1, 0, 1], Fraction(1))
    @example([Fraction(2), Fraction(7), Fraction(12), Fraction(2, 5)], 10, [1], Fraction(1))
    @settings(max_examples=150, deadline=None)
    def test_rational_zeros_against_brute_force(self, roots, lead, extra, scale):
        # small roots meet modulo 2, 3 and 5 (two of 1, 3, 4 and 6 modulo
        # each), and those primes divide the leading coefficient: the
        # prime search starts at 2 and must step over all of them
        from isingdimer.divisor import _rational_zeros
        f = [Fraction(lead) * scale]
        for r in roots:
            f = [a - r * b for a, b in zip([Fraction(0)] + f, f + [Fraction(0)])]
        f = [sum((f[i] * extra[k - i] for i in range(len(f)) if 0 <= k - i < len(extra)),
                 Fraction(0)) for k in range(len(f) + len(extra) - 1)]
        want = brute_rational_zeros(f)
        assert want == sorted({r for r in roots if r != 0})
        assert _rational_zeros(f) == want

    @given(st.lists(st.tuples(st.integers(1, 2 ** 24), st.integers(-2 ** 24, 2 ** 24),
                              st.integers(1, 3)), max_size=4),
           st.booleans(), st.integers(0, 2), st.integers(1, 2 ** 200),
           st.integers(1, 2 ** 40))
    @settings(max_examples=30, deadline=None)
    def test_rational_zeros_of_tall_polynomials(self, linear, quadratic, zero, content, den):
        # products of (p x - q)^k and maybe an irreducible quadratic, to
        # degree 8 with repeated roots, times x^zero and a content of up to
        # 200 bits over a 40-bit denominator: the roots against sympy's
        sympy = pytest.importorskip("sympy")
        from isingdimer.divisor import _rational_zeros
        x = sympy.symbols("x")
        f, degree, roots = sympy.Rational(content, den) * x ** zero, zero, set()
        for p, q, k in linear:
            if degree + k <= 8:
                f, degree = f * (p * x - q) ** k, degree + k
                roots |= {Fraction(q, p)} - {0}
        if quadratic and degree <= 6:
            f *= (2 ** 23 + 1) * x ** 2 - 3 * x + 2 ** 22
        poly = sympy.Poly(sympy.expand(f), x)
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
        want = sorted(Fraction(int(r.p), int(r.q)) for r in poly.ground_roots() if r != 0)
        assert want == sorted(roots)
        assert _rational_zeros(coeffs) == want

    @pytest.mark.parametrize("case", ["double root", "irreducible quadratic", "above 2^80"])
    def test_rational_zeros_against_sympy(self, case):
        sympy = pytest.importorskip("sympy")
        import numpy as np
        from isingdimer.divisor import _rational_zeros
        x = sympy.symbols("x")
        big1, big2 = 2 ** 81 + 1, 3 ** 52
        f = {"double root": x * (3 * x - 2) ** 2 * (x + 5) * (x ** 2 + 1) / 6,
             "irreducible quadratic": (x ** 2 - 2) * (7 * x + 3) * (4 * x - 1),
             "above 2^80": (big1 * x - (big1 - 2)) * (big2 * x + big2 + 2) * (x ** 2 + x + 1),
             }[case]
        poly = sympy.Poly(sympy.expand(f), x)
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
        want = sorted(Fraction(int(r.p), int(r.q)) for r in poly.ground_roots() if r != 0)
        assert _rational_zeros(coeffs) == want
        if case == "above 2^80":
            # rounding the float roots to N / a_n misses both rational roots
            an = int(poly.LC())
            naive = {Fraction(round(Fraction(r.real) * an), an)
                     for r in np.roots([float(c) for c in poly.all_coeffs()])}
            assert not naive & set(want)

    @pytest.mark.parametrize("model", [
        _worked_dimer,
        lambda: _one_vertex_dimer(("3/5", "4/5"), ("56/65", "33/65")),
        lambda: _one_vertex_dimer(("12/13", "5/13"), ("11/61", "60/61")),
        lambda: _honeycomb_dimer([("3/5", "4/5"), ("24/25", "7/25"), ("3/5", "4/5")]),
        *(functools.partial(_pythagorean_dimer, name, seed)
          for name in ("square 1x1", "honeycomb 1x1") for seed in range(5)),
    ], ids=["worked", "one-vertex 3-4-5/33-56-65", "one-vertex 5-12-13/11-60-61",
            "honeycomb 1x1", *(f"{name} seed {seed}" for name in ("square 1x1", "honeycomb 1x1")
                               for seed in range(5))])
    def test_exact_and_numeric_divisors_agree(self, model):
        # deg D = genus for every vertex, white and black, in every sign class
        g, wt = model()[:2]
        fwt = {e: float(v) for e, v in wt.items()}
        for _, kappa in solve_kasteleyn_signs(g):
            genus = characteristic_polynomial(g, wt, kappa).genus
            assert genus >= 1
            for v in g.vertex_ids():
                De = divisor_of_vertex(g, wt, kappa, v)
                Dn = divisor_of_vertex(g, fwt, kappa, v, mode="numeric")
                assert De.exact and not Dn.exact
                assert len(De) == len(Dn) == genus
                assert Dn.matches(De, tol=1e-8)


def reference_terms(p, z, w):
    """Reference for _terms: one numpy pass per term."""
    import numpy as np
    val, zdz, wdw = (np.zeros(np.shape(z), dtype=complex) for _ in range(3))
    size, spread = np.zeros(np.shape(z)), np.zeros(np.shape(z))
    for (i, j), c in p.terms.items():
        m = (z ** i if i >= 0 else 1 / z ** -i) * (w ** j if j >= 0 else 1 / w ** -j)
        t = complex(c) * m
        val += t
        zdz += i * t
        wdw += j * t
        size += abs(t)
        spread += abs(m)
    return val, zdz, wdw, size, spread


def reference_vanishes(p, z, w, tol):
    """Reference for _vanishes: one scalar point, one term at a time."""
    from isingdimer.divisor import COEFF_EPS
    az, aw = abs(z), abs(w)
    size = spread = 0.0
    for (i, j), c in p.terms.items():
        m = az ** i * aw ** j
        size += abs(c) * m
        spread += m
    cmax = max(abs(c) for c in p.terms.values())
    return abs(p.eval(z, w)) <= tol * max(1.0, size) + COEFF_EPS * cmax * spread


def ladder_dimer(lattice, seed):
    """A gadget-ladder rung: the gadget graph of a lattice with seeded real
    couplings, numeric weights, a sign class and its first white."""
    g = named_lattice(lattice)
    rng = random.Random(seed)
    gd, wt, gm = to_dimer(IsingModel(g, {e: make_coupling(J=rng.uniform(0.2, 1.2))
                                         for e in g.edges()}))
    return gd, wt, gm, solve_kasteleyn_signs(gd)[0][1], gd.whites()[0]


class TestTermKernel:
    def test_matches_per_term_reference_at_24_whites(self):
        # P and the adjugate column of the honeycomb 2x2 gadget graph have
        # negative exponents in z and w; |z|, |w| run from e^-12 to e^12,
        # over more points than one pass of the kernel takes
        import numpy as np
        from isingdimer.exactalg import lm_adjugate_lines
        from isingdimer.divisor import TERMS_BLOCK, _grid, _terms
        g, wt, _, kappa, white = ladder_dimer("honeycomb 2x2", 5)
        K = kasteleyn_matrix(g, wt, kappa)
        assert len(K.rows) == 24
        P = lm_determinant(K)
        (col,), _ = lm_adjugate_lines(K, [white])
        entries = [e for e in col.values() if not e.is_zero()]
        assert len(entries) == 24 and P.degree_range("z")[0] < 0
        n = 2 * TERMS_BLOCK + 100
        rng = np.random.default_rng(5)
        z, w = (np.exp(rng.uniform(-12, 12, n) + 1j * rng.uniform(0, 2 * np.pi, n))
                for _ in range(2))
        polys = [P] + entries
        batch = _terms(_grid(polys), z, w)
        for k, p in enumerate(polys):
            want = reference_terms(p, z, w)
            for got in ([a[k] for a in batch], [a[0] for a in _terms(_grid([p]), z, w)]):
                for a, b in zip(got[:4], want[:4]):
                    assert (abs(a - b) <= 1e-14 * want[3]).all()
                assert (abs(got[4] - want[4]) <= 1e-14 * want[4]).all()
        # one row per polynomial, then the shape of z
        assert np.shape(_terms(_grid(polys), 1.5 + 0j, 0.5j)[0]) == (25,)

    def test_a_point_has_the_same_bits_in_every_block(self):
        # square 2x1 gadget graph, |z| and |w| from e^-20 to e^20: P at 300
        # points in one block, and P with the white's adjugate column at one
        # block and one lone point more; each point against itself alone,
        # word by word
        import numpy as np
        from isingdimer.exactalg import lm_adjugate_lines
        from isingdimer.divisor import TERMS_BLOCK, _grid, _terms
        g, wt, _, kappa, white = ladder_dimer("square 2x1", 3)
        K = kasteleyn_matrix(g, wt, kappa)
        P = lm_determinant(K)
        (col,), _ = lm_adjugate_lines(K, [white])
        column = [P] + [e for e in col.values() if not e.is_zero()]
        rng = np.random.default_rng(25)
        z, w = (np.exp(rng.uniform(-20, 20, 300) + 1j * rng.uniform(0, 2 * np.pi, 300))
                for _ in range(2))
        for polys, n in (([P], 300), (column, TERMS_BLOCK // len(column) + 1)):
            grid = _grid(polys)
            batch = _terms(grid, z[:n], w[:n])
            differ = [k for k in range(n)
                      if any(a[:, k].tobytes() != b[:, 0].tobytes()
                             for a, b in zip(batch, _terms(grid, z[k:k + 1], w[k:k + 1])))]
            assert differ == []

    @pytest.mark.parametrize("count", ["one", "two", "block - 1", "block", "block + 1", "300"])
    def test_value_pass_has_the_bits_of_the_term_kernel(self, count):
        # the value pass of the vanishing test against the value, size and
        # spread of _terms, word by word: P with the white's adjugate column
        # at 24 whites, |z| and |w| from e^-12 to e^12
        import numpy as np
        from isingdimer.exactalg import lm_adjugate_lines
        from isingdimer.divisor import TERMS_BLOCK, _grid, _terms, _values
        g, wt, _, kappa, white = ladder_dimer("honeycomb 2x2", 5)
        K = kasteleyn_matrix(g, wt, kappa)
        (col,), _ = lm_adjugate_lines(K, [white])
        polys = [lm_determinant(K)] + [e for e in col.values() if not e.is_zero()]
        block = TERMS_BLOCK // len(polys)
        n = {"one": 1, "two": 2, "block - 1": block - 1, "block": block,
             "block + 1": block + 1, "300": 300}[count]
        rng = np.random.default_rng(n)
        z, w = (np.exp(rng.uniform(-12, 12, n) + 1j * rng.uniform(0, 2 * np.pi, n))
                for _ in range(2))
        grid = _grid(polys)
        val, _, _, size, spread = _terms(grid, z, w)
        got = _values(grid, z, w)
        assert [a.shape for a in got] == [(len(polys), n)] * 3
        assert [a.tobytes() for a in got] == [a.tobytes() for a in (val, size, spread)]

    def test_vanishing_test_runs_the_value_pass_only(self, monkeypatch):
        # z - 2w and 1 + zw at (2, 1) and (i, i): the verdicts need no
        # derivative, so _vanishes never runs the full term kernel
        import numpy as np
        from isingdimer import divisor
        polys = [LaurentPoly2({(1, 0): 1.0, (0, 1): -2.0}), LaurentPoly2({(0, 0): 1.0, (1, 1): 1.0})]
        z, w = np.array([2, 1j]), np.array([1, 1j])
        want = divisor._vanishes(polys, z, w, 1e-8)
        monkeypatch.setattr(divisor, "_terms", None)
        got = divisor._vanishes(polys, z, w, 1e-8)
        assert got.tolist() == want.tolist() == [[True, False], [False, True]]

    @pytest.mark.parametrize("lattice", ["honeycomb 1x1", "square 2x1", "honeycomb 2x1",
                                         "square 2x2", "honeycomb 2x2"])
    def test_batched_vanishes_matches_scalar_verdict(self, lattice, monkeypatch):
        # every divisor candidate of both divisors of verify-ising
        import numpy as np
        from isingdimer import divisor
        g, wt, gm, kappa, white = ladder_dimer(lattice, 11)
        calls, batched = [], divisor._vanishes

        def spy(polys, z, w, tol, grid=None):
            out = batched(polys, z, w, tol, grid)
            calls.append((polys, z.copy(), w.copy(), tol, out))
            return out

        monkeypatch.setattr(divisor, "_vanishes", spy)
        ok, _ = verify_ising_spectral(g, wt, kappa, gm, white, mode="numeric")
        assert ok and calls
        for polys, z, w, tol, out in calls:
            want = [[reference_vanishes(p, a, b, tol) for a, b in zip(z.tolist(), w.tolist())]
                    for p in polys]
            assert np.array_equal(out, want)


def divisor_search(monkeypatch, lattice, seed, with_stop):
    """Both numeric divisors of verify-ising on a ladder rung, or the
    SpectralError message, with the stop test of the first Newton pass
    (the _polish call given `stop`) on or off. Also, per first pass, the
    number of polynomials of each term-kernel call made inside it (_terms,
    or its value pass _values): 2 for a Newton step on P and e1, more for a
    stop test on P and every entry; and the number of other _polish calls."""
    from isingdimer import divisor
    g, wt, gm, kappa, white = ladder_dimer(lattice, seed)
    polish, passes, others, inside = divisor._polish, [], [], []

    def counted(kernel):
        def counted_kernel(grid, z, w):
            if inside:
                passes[-1].append(grid[0].shape[1])
            return kernel(grid, z, w)
        return counted_kernel

    def first_pass(*args, stop=None, **kw):
        if stop is None:
            others.append(1)
            return polish(*args, **kw)
        passes.append([])
        inside.append(1)
        try:
            return polish(*args, stop=stop if with_stop else None, **kw)
        finally:
            inside.pop()

    with monkeypatch.context() as m:
        m.setattr(divisor, "_terms", counted(divisor._terms))
        m.setattr(divisor, "_values", counted(divisor._values))
        m.setattr(divisor, "_polish", first_pass)
        try:
            _, rep = verify_ising_spectral(g, wt, kappa, gm, white, mode="numeric")
            got = rep["divisor_white"], rep["divisor_black"]
        except SpectralError as exc:
            got = str(exc)
    return got, passes, len(others)


class TestDivisorSearchStop:
    # the first Newton pass of a numeric divisor stops once the points that
    # stopped hold genus accepted points; against the same search run to
    # the end of the pass
    @pytest.mark.parametrize("seed", [11, 12])
    def test_same_divisors_in_a_third_of_the_calls_at_24_whites(self, seed, monkeypatch):
        # the first pass alone finds both divisors, with the stop or without
        (dw, db), fast, second = divisor_search(monkeypatch, "honeycomb 2x2", seed, True)
        (dw0, db0), slow, second0 = divisor_search(monkeypatch, "honeycomb 2x2", seed, False)
        assert len(dw) == len(db) == 7
        assert dw.matches(dw0, 1e-10) and db.matches(db0, 1e-10)
        assert len(fast) == len(slow) == 2 and second == second0 == 0
        assert all(0 < 3 * len(a) <= len(b) for a, b in zip(fast, slow))

    def test_same_error_at_36_whites(self, monkeypatch):
        # square 3x3, genus 13: the stopped points never hold 13, so the
        # pass makes every Newton step it makes without the stop test
        got, fast, _ = divisor_search(monkeypatch, "square 3x3", 1, True)
        want, slow, _ = divisor_search(monkeypatch, "square 3x3", 1, False)
        assert isinstance(got, str) and "found 10 points, genus is 13" in got
        assert got == want
        assert len(fast) == len(slow) == 1 and fast[0].count(2) == len(slow[0]) > 20
        assert len(fast[0]) > len(slow[0]) and set(slow[0]) == {2}


class TestNuMap:
    def test_fixture_singleton_sides(self, dimer_fixture):
        g, wt = dimer_fixture
        polygon = g.newton_polygon()
        sides = nu_map(g, wt, polygon)
        assert [s["vector"] for s in sides] == [v for v, _ in polygon.sides]
        for side, (_, length) in zip(sides, polygon.sides):
            assert len(side["zigzags"]) == len(side["x"]) == length == 1

    def test_opposite_sides_equal_x_at_locus(self, dimer_fixture):
        # condition (3) at the locus: side -S carries the X values of side S
        # exactly (X_alphabar * X_alpha = 1, X_alphabar on the color change)
        g, wt = dimer_fixture
        by_vec = {s["vector"]: s["x"] for s in nu_map(g, wt, g.newton_polygon())}
        assert sorted(x for xs in by_vec.values() for x in xs) == \
            [Fraction(5, 9)] * 2 + [Fraction(9, 5)] * 2
        for (p, q), xs in by_vec.items():
            assert xs == sorted(xs) and by_vec[(-p, -q)] == xs

    def test_gauge_invariance(self, dimer_fixture):
        g, wt = dimer_fixture
        rng = random.Random(13)
        f = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in g.vertex_ids()}
        nm1 = nu_map(g, wt, g.newton_polygon())
        nm2 = nu_map(g, gauge_transform(g, wt, f), g.newton_polygon())
        assert [(s["zigzags"], s["x"]) for s in nm1] == [(s["zigzags"], s["x"]) for s in nm2]

    def test_side_without_an_opposite_fails(self):
        # one hexagon: the triangle polygon's three sides have no opposite
        # side, so each fails condition (3) with residual inf
        g, _, _ = parse_torus_graph("torus-graph v1\nvertex b b\nvertex w w\n"
                                    "edge e0 b w 0 0\nedge e1 b w -1 0\nedge e2 b w 0 -1\n"
                                    "rot b e0 e1 e2\nrot w e0 e1 e2\n")
        wt = {e: Fraction(1) for e in g.edges()}
        _, kappa = solve_kasteleyn_signs(g)[0]
        ok, rep = verify_ising_spectral(g, wt, kappa, GadgetMap({}, {"w": "b"}), "w")
        assert not ok and not rep["nu_condition"]
        assert sorted(rep["nu_failed"]) == [(-1, 0), (0, 1), (1, -1)]
        assert rep["nu_residuals"] == dict.fromkeys(rep["nu_failed"], math.inf)

    def test_one_graph_polygon_per_verify(self, monkeypatch):
        # nu_map takes its sides from the curve's polygon, so the graph's
        # polygon is built once, by characteristic_polynomial
        g, wt, gm, kappa, white = ladder_dimer("square 2x1", 1)
        calls, polygon = [], TorusGraph.newton_polygon
        monkeypatch.setattr(TorusGraph, "newton_polygon",
                            lambda self: calls.append(self) or polygon(self))
        ok, _ = verify_ising_spectral(g, wt, kappa, gm, white, mode="numeric")
        assert ok and calls == [g]


class TestColorChangeIdentities:
    def test_matrix_transpose_identity(self, dimer_fixture):
        g, wt = dimer_fixture
        gb, wtb = color_change(g, wt)
        K = kasteleyn_matrix(g, wt, FIXTURE_KAPPA)
        Kb = kasteleyn_matrix(gb, wtb, FIXTURE_KAPPA)
        # rows of Kb are the old blacks; Kb[b, w] = K[w, b](1/z, 1/w)
        assert Kb.rows == K.cols and Kb.cols == K.rows
        for w in K.rows:
            for b in K.cols:
                assert Kb.entries[(b, w)] == K.entries[(w, b)].sigma()

    def test_p_and_divisor_symmetry(self, dimer_fixture):
        g, wt = dimer_fixture
        gb, wtb = color_change(g, wt)
        P = lm_determinant(kasteleyn_matrix(g, wt, FIXTURE_KAPPA))
        Pb = lm_determinant(kasteleyn_matrix(gb, wtb, FIXTURE_KAPPA))
        assert canonical_sign(Pb) == canonical_sign(P.sigma())
        Dv = divisor_of_vertex(g, wt, FIXTURE_KAPPA, "w2")
        Dvb = divisor_of_vertex(gb, wtb, FIXTURE_KAPPA, "w2")
        assert Dvb.matches(Dv.sigma())


class TestVerifyIsingSpectral:
    def test_fixture_passes(self, dimer_fixture):
        g, wt = dimer_fixture
        ok, rep = verify_ising_spectral(g, wt, FIXTURE_KAPPA, fixture_gm(), "w2")
        assert ok
        assert rep["partner_black"] == "b3"
        assert rep["divisor_white"].points == [(Fraction(13, 20), Fraction(52, 25), 1)]

    def test_doubled_edge_fails_sigma(self, dimer_fixture):
        g, wt = dimer_fixture
        wtp = dict(wt)
        wtp["e5"] = wtp["e5"] * 2
        ok, rep = verify_ising_spectral(g, wtp, FIXTURE_KAPPA, fixture_gm(), "w2")
        assert not ok and not rep["sigma_invariant"]

    def test_asymmetric_weights_fail_nu(self, dimer_fixture):
        g, wt = dimer_fixture
        wtp = dict(wt)
        wtp["e2"] = wtp["e2"] * 3
        ok, rep = verify_ising_spectral(g, wtp, FIXTURE_KAPPA, fixture_gm(), "w2")
        assert not rep["nu_condition"]

    def test_all_whites_pass(self, dimer_fixture):
        g, wt = dimer_fixture
        gm = fixture_gm()
        for w in g.whites():
            ok, _ = verify_ising_spectral(g, wt, FIXTURE_KAPPA, gm, w)
            assert ok

    def test_numeric_verify_builds_three_sample_grids(self, monkeypatch):
        # K's grid, for det K and both adjugate lines, and one per divisor's
        # Sylvester matrix
        import isingdimer.exactalg as exactalg
        g, wt, gm, kappa, white = ladder_dimer("honeycomb 2x2", 11)
        calls, grid = [], exactalg._sample_grid
        monkeypatch.setattr(exactalg, "_sample_grid", lambda a: calls.append(len(a)) or grid(a))
        ok, _ = verify_ising_spectral(g, wt, kappa, gm, white, mode="numeric")
        assert ok
        assert len(calls) == 3 and calls[0] == 24

    def test_report_text(self, dimer_fixture):
        g, wt = dimer_fixture
        text, ok = spectral_report(g, wt, FIXTURE_KAPPA, fixture_gm(), "w2")
        assert ok
        assert text.startswith("spectral-report v1\n")
        assert f"polynomial {EXPECTED_P}" in text
        assert "divisor D_w (13/20,52/25)x1" in text


# The benchmark's inputs (perfbench/ops.py): the gadget-ladder lattices, and
# the exact-verify pool built from its Pythagorean triples (a, b, h), each
# read as the coupling (s, c) = (a/h, b/h) or, flipped, (b/h, a/h). Ten
# one-vertex models pair triple i with triple 9 - i, one of the two flipped.
GADGET_LADDER = ["honeycomb 1x1", "square 2x1", "honeycomb 2x1", "square 2x2", "honeycomb 2x2"]
TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29),
           (12, 35, 37), (9, 40, 41), (28, 45, 53), (11, 60, 61), (33, 56, 65)]


def triple_sc(k, flip=False):
    a, b, h = TRIPLES[k]
    return (Fraction(b, h), Fraction(a, h)) if flip else (Fraction(a, h), Fraction(b, h))


EXACT_VERIFY_POOL = (
    [("square 1x1", [(S1, C1), (S2, C2)])]
    + [("square 1x1", [triple_sc(i, flip), triple_sc(9 - i, not flip)])
       for flip in (False, True) for i in range(5)]
    + [("honeycomb 1x1", [triple_sc(0), triple_sc(3, True), triple_sc(0)]),
       ("honeycomb 1x1", [triple_sc(0, True), triple_sc(2), triple_sc(0)])]
)


def benchmark_model(lattice, couplings, mode):
    """The (1, 1) sign class's verify_ising_spectral report on the gadget
    graph of `lattice` with `couplings` in edge order, asked about the white
    corner after the first dart at the first vertex, as the benchmark asks."""
    g = named_lattice(lattice)
    gd, wt, gm = to_dimer(IsingModel(g, dict(zip(g.edges(), couplings))))
    kappa = dict(solve_kasteleyn_signs(gd))[(1, 1)]
    return verify_ising_spectral(gd, wt, kappa, gm, f"W_{g.vertex_ids()[0]}_0", mode=mode)


class TestPropertiesAcrossTheBenchmark:
    # the three conditions of the paper's Ising locus, one by one, on every
    # input the benchmark verifies: a failing condition names itself

    def assert_conditions(self, ok, rep):
        assert rep["sigma_invariant"]
        assert rep["divisor_condition"]
        assert rep["nu_condition"]
        assert ok

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("lattice", GADGET_LADDER)
    def test_numeric_gadget_ladder(self, lattice, seed):
        rng = random.Random(seed)
        couplings = [make_coupling(J=rng.uniform(0.2, 0.8)) for _ in named_lattice(lattice).edges()]
        self.assert_conditions(*benchmark_model(lattice, couplings, "numeric"))

    @pytest.mark.parametrize("k", range(len(EXACT_VERIFY_POOL)))
    def test_exact_verify_pool(self, k):
        lattice, pairs = EXACT_VERIFY_POOL[k]
        couplings = [make_coupling(sc=sc) for sc in pairs]
        self.assert_conditions(*benchmark_model(lattice, couplings, "exact"))


class TestDiscreteAbel:
    def test_window_consistency(self, dimer_fixture):
        g, _ = dimer_fixture
        labels = discrete_abel(g, window=1)   # 3x3 block of translates
        base = g.whites()[0]
        assert labels[(base, (0, 0))] == {}
        zzc = {zz["id"]: zz["class"] for zz in g.zigzag_paths()}
        for (v, t), lab in labels.items():
            deg = sum(lab.values())
            assert deg == (0 if g.colors[v] == "w" else 2)

    def test_edge_relation(self, dimer_fixture):
        g, _ = dimer_fixture
        labels = discrete_abel(g, window=1)
        zz_of = {}
        for zz in g.zigzag_paths():
            for d in zz["darts"]:
                zz_of[d] = zz["id"]
        for d in g.darts:
            if g.colors[g.tail(d)] != "w":
                continue
            w, b = g.tail(d), g.head(d)
            dd = g.disp(d)
            if (w, (0, 0)) in labels and (b, dd) in labels:
                diff = dict(labels[(b, dd)])
                for z, c in labels[(w, (0, 0))].items():
                    diff[z] = diff.get(z, 0) - c
                pair = sorted([zz_of[d], zz_of[g.twin(d)]])
                expect = {}
                for z in pair:
                    expect[z] = expect.get(z, 0) + 1
                assert {k: v for k, v in diff.items() if v} == expect

    def test_monomial_divisor_degree_zero(self, dimer_fixture):
        # the base white's lift by t carries the label of div(z^i w^j)
        g, _ = dimer_fixture
        labels = discrete_abel(g, window=1)
        zzc = {zz["id"]: zz["class"] for zz in g.zigzag_paths()}
        for t in ((1, 0), (0, 1), (1, 1)):
            red = monomial_label(t, zzc)
            assert sum(red.values()) == 0
            assert labels[(g.whites()[0], t)] == red


def reference_discrete_abel(g, window=1):
    """Reference for discrete_abel: labels by a walk over the lifted block,
    with label arithmetic on every edge of every translate in it, then the
    monomial rule at every translate of the base white. It sees only the
    cycles that fit in the block."""
    zz_of_dart = {d: zz["id"] for zz in g.zigzag_paths() for d in zz["darts"]}
    zz_classes = {zz["id"]: zz["class"] for zz in g.zigzag_paths()}
    base = g.whites()[0]
    labels = {(base, (0, 0)): {}}
    rng = range(-window, window + 1)
    frontier = [(base, (0, 0))]
    while frontier:
        v, t = frontier.pop()
        for d in g.rotation[v]:
            dd = g.disp(d)
            key = (g.head(d), (t[0] + dd[0], t[1] + dd[1]))
            if not (key[1][0] in rng and key[1][1] in rng):
                continue
            lab = dict(labels[(v, t)])
            for z in (zz_of_dart[d], zz_of_dart[g.twin(d)]):
                lab[z] = lab.get(z, 0) + (1 if g.colors[v] == "w" else -1)
            lab = {z: c for z, c in lab.items() if c}
            if key not in labels:
                labels[key] = lab
                frontier.append(key)
            elif labels[key] != lab:
                raise SpectralError(f"Abel labels inconsistent across edge "
                                    f"{g.darts[d].edge} at {key}")
    for (v, t), lab in labels.items():
        if v == base and lab != monomial_label(t, zz_classes):
            raise SpectralError(f"translate {t} violates the monomial rule")
    return labels


def gadget_markings(model):
    """The raw gadget marking and the one the reference search orients."""
    from test_ising import raw_gadget, reference_orient_marking
    raw = raw_gadget(model)
    return raw, reference_orient_marking(raw, model.graph.check_minimal()[0])


def unimodular_maps(rng, count, bound=2):
    """`count` seeded integer 2x2 maps of determinant +-1, entries <= bound."""
    out = []
    while len(out) < count:
        a, b, c, d = 1, 0, 0, 1
        for _ in range(rng.randrange(1, 5)):
            k = rng.randrange(4)
            if k == 0:
                a, b = a + rng.choice((-1, 1)) * c, b + rng.choice((-1, 1)) * d
            elif k == 1:
                c, d = c + rng.choice((-1, 1)) * a, d + rng.choice((-1, 1)) * b
            elif k == 2:
                a, b, c, d = c, d, a, b
            else:
                a, b = -a, -b
        if max(abs(a), abs(b), abs(c), abs(d)) <= bound:
            out.append(((a, b), (c, d)))
    return out


def _verdict(check, g):
    try:
        check(g)
        return True
    except SpectralError:
        return False


class TestAbelTree:
    @pytest.mark.parametrize("lattice", ["square 1x1", "square 2x2", "square 3x3",
                                         "honeycomb 1x1", "honeycomb 2x2"])
    def test_verdict_matches_window_reference(self, lattice):
        from isingdimer.abel import abel_tree
        from test_ising import reference_apply_lattice_map
        g = named_lattice(lattice)
        model = IsingModel(g, {e: make_coupling(x=Fraction(1, 3)) for e in g.edges()})
        raw, final = gadget_markings(model)
        assert not _verdict(abel_tree, raw) and _verdict(abel_tree, final)
        rng = random.Random(lattice)
        seen = set()
        for marking in (raw, final):
            for S in unimodular_maps(rng, 40):
                h = reference_apply_lattice_map(marking, S)
                verdict = _verdict(abel_tree, h)
                if verdict != _verdict(reference_discrete_abel, h):
                    # the window sees only the cycles that fit in it; the
                    # tree check sees all, and a larger window agrees
                    assert not verdict, S
                    assert not _verdict(lambda x: reference_discrete_abel(x, 2), h), S
                seen.add(verdict)
        assert seen == {True, False}

    @pytest.mark.parametrize("graph", ["fixture", "honeycomb 2x2"])
    def test_labels_match_window_reference(self, graph, dimer_fixture):
        if graph == "fixture":
            g = dimer_fixture[0]
        else:
            gi = lattices.honeycomb(2, 2)
            g, _, _ = to_dimer(IsingModel(gi, {e: make_coupling(sc=(S1, C1)) for e in gi.edges()}))
        for window in (0, 1, 2):
            got, want = discrete_abel(g, window), reference_discrete_abel(g, window)
            assert list(got) == list(want)
            assert all(got[k] == want[k] for k in want)

    def test_inconsistent_marking_names_the_edge(self):
        from isingdimer.abel import abel_tree
        from test_ising import fixture_model, reference_apply_lattice_map
        raw, final = gadget_markings(fixture_model())
        for g in (raw, reference_apply_lattice_map(final, ((0, 1), (1, 0)))):
            with pytest.raises(SpectralError, match="inconsistent across edge") as exc:
                abel_tree(g)
            named = str(exc.value).split("edge ")[1].split()[0]
            assert named in g.edges()
            with pytest.raises(SpectralError):
                discrete_abel(g, window=0)


class TestAmoeba:
    def test_residuals_and_symmetry(self, dimer_fixture):
        g, wt = dimer_fixture
        P = lm_determinant(kasteleyn_matrix(g, wt, FIXTURE_KAPPA))
        sample = amoeba_sample(P, grid=40, region=(-2, 2, -2, 2))
        assert sample
        Pn = P.to_numeric()
        assert all(abs(Pn.eval(z, w)) < 1e-8 for z, w in zip(sample.z.tolist(), sample.w.tolist()))
        pts = list(zip(sample.x, sample.y))
        step = 4.0 / 40 + 1e-6
        for x, y in pts[::11]:
            assert any(abs(x + a) <= step and abs(y + b) <= step for a, b in pts)

    def test_divisor_point_in_amoeba(self, dimer_fixture):
        g, wt = dimer_fixture
        P = lm_determinant(kasteleyn_matrix(g, wt, FIXTURE_KAPPA))
        sample = amoeba_sample(P, grid=60, region=(-2, 2, -2, 2))
        tx, ty = math.log(13 / 20), math.log(52 / 25)
        d = min(math.hypot(x - tx, y - ty) for x, y in zip(sample.x, sample.y))
        assert d < 4.0 / 60 + 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(SpectralError):
            amoeba_sample(LaurentPoly2({(1, 0): Fraction(1), (0, 0): Fraction(2)}))


def reference_amoeba_sample(P, grid, region, tol=1e-8):
    """Reference for amoeba_sample: the grid point by point, one row at a time."""
    import cmath
    import numpy as np
    from isingdimer.divisor import _fibres, _polish, _roots, _vanishes
    Pn = P.to_numeric()
    x0, x1, _, _ = region
    zs = []
    for ix in range(grid):
        r = math.exp(x0 + (x1 - x0) * (ix + 0.5) / grid)
        for ip in range(grid):
            theta = math.pi * ip / (grid - 1) if grid > 1 else 0.0
            zs.append(r * cmath.exp(1j * theta))
    z = np.array(zs, dtype=complex)
    roots, ok = _roots(_fibres(Pn, z))
    keep = ok[:, None] & (np.abs(roots) >= 1e-300)
    fibre = np.nonzero(keep)[0]
    _, w, _ = _polish([Pn], z[fibre], roots[keep], steps=3, move_z=False)
    hit = _vanishes([Pn], z[fibre], w, tol)[0]
    rows = []
    for k, wk in zip(fibre[hit].tolist(), w[hit].tolist()):
        zk = zs[k]
        is_real = k % grid in (0, grid - 1) and abs(wk.imag) < 1e-9
        rows.append((math.log(abs(zk)), math.log(abs(wk)), is_real, zk, wk))
    return rows


def sample_rows(sample):
    """The rows (x, y, is_real, z, w) of an AmoebaSample, as Python scalars."""
    return list(zip(sample.x, sample.y, sample.is_real.tolist(), sample.z.tolist(),
                    sample.w.tolist()))


def assert_columns_hold(sample, rows):
    """sample's columns hold the rows bit for bit: x and y as lists of
    floats, is_real as a bool array, z and w as complex arrays."""
    import numpy as np
    assert len(sample) == len(rows)
    assert type(sample.x) is type(sample.y) is list
    assert all(type(v) is float for v in sample.x + sample.y)
    cols = (sample.x, sample.y, sample.is_real, sample.z, sample.w)
    for got, want, dtype in zip(cols, list(zip(*rows)) or [()] * 5,
                                (float, float, bool, complex, complex)):
        got, want = np.asarray(got), np.array(want, dtype=dtype)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()


def reference_amoeba_csv(rows):
    """Reference for amoeba_csv: one f-string per row."""
    out = ["x,y,is_real"]
    for x, y, is_real, *_ in rows:
        out.append(f"{x:.12g},{y:.12g},{int(is_real)}")
    return "\n".join(out) + "\n"


def reference_amoeba_svg(rows, marks=(), size=480):
    """Reference for amoeba_svg: one f-string per circle."""
    if not rows:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
    xs = [r[0] for r in rows]
    ys = [r[1] for r in rows]
    lo = min(min(xs), min(ys)) - 0.3
    hi = max(max(xs), max(ys)) + 0.3

    def sx(x):
        return (x - lo) / (hi - lo) * size

    def sy(y):
        return size - (y - lo) / (hi - lo) * size

    parts = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{size}' height='{size}' "
             f"viewBox='0 0 {size} {size}'>",
             f"<rect width='{size}' height='{size}' fill='white'/>"]
    for x, y, is_real, *_ in rows:
        color = "#d62728" if is_real else "#1f77b4"
        parts.append(f"<circle cx='{sx(x):.2f}' cy='{sy(y):.2f}' r='1' fill='{color}'/>")
    for x, y in marks:
        parts.append(f"<circle cx='{sx(x):.2f}' cy='{sy(y):.2f}' r='5' fill='none' "
                     f"stroke='black' stroke-width='2'/>")
    parts.append("</svg>")
    return "\n".join(parts)


# the angles of harnack_diagnostic's scan of [0, pi]
HARNACK_STEPS = 720


def reference_harnack(P, probes):
    """Reference for harnack_diagnostic at given probes: one root-kernel
    call per probe, the sorted levels and their signs angle by angle."""
    import cmath
    import numpy as np
    from isingdimer.divisor import _fibres, _roots
    Pn = P.to_numeric()
    out = []
    violations = []
    for x, y in probes:
        r = math.exp(x)
        z = np.array([r * cmath.exp(1j * math.pi * k / HARNACK_STEPS)
                      for k in range(HARNACK_STEPS + 1)])
        count = 0
        prev = None
        for roots, ok in zip(*_roots(_fibres(Pn, z))):
            if not ok:
                prev = None
                continue
            levels = sorted(math.log(abs(w)) for w in roots.tolist() if abs(w) > 1e-300)
            signs = tuple(v - y > 0 for v in levels)
            if prev is not None and len(prev) == len(signs):
                for a, b in zip(prev, signs):
                    if a != b:
                        count += 2
            prev = signs
        out.append({"probe": (x, y), "preimages": count})
        if count != 2:
            violations.append({"probe": (x, y), "preimages": count})
    return {"consistent": not violations, "probes": out, "violations": violations}


def reference_auto_probes(P):
    """The Harnack probes, one root-kernel call per fibre: (0.0, the lower
    median of the levels log|w|) of the fibre on |z| = 1 at theta =
    pi (k + 1/2) / HARNACK_STEPS, k a quarter, a half and three quarters of
    HARNACK_STEPS; a fibre with no level gives none."""
    import cmath
    import numpy as np
    from isingdimer.divisor import _fibres, _roots
    out = []
    steps = HARNACK_STEPS
    for k in (steps // 4, steps // 2, 3 * steps // 4):
        z = np.array([cmath.exp(1j * math.pi * (k + 0.5) / steps)])
        roots, _ = _roots(_fibres(P.to_numeric(), z))
        levels = sorted(math.log(abs(w)) for w in roots[0].tolist() if abs(w) > 1e-300)
        if levels:
            out.append((0.0, levels[(len(levels) - 1) // 2]))
    return out


CURVES = ["fixture", "square 1x1", "square 2x1", "square 2x2", "honeycomb 1x1",
          "honeycomb 2x1", "honeycomb 2x2"]


@functools.cache
def curve(name):
    """P of the worked example (exact), or of a gadget-ladder rung (floats)."""
    if name == "fixture":
        g, wt, _ = parse_torus_graph(DIMER_FIXTURE)
        return lm_determinant(kasteleyn_matrix(g, wt, FIXTURE_KAPPA))
    g, wt, _, kappa, _ = ladder_dimer(name, 7)
    return lm_determinant(kasteleyn_matrix(g, wt, kappa))


class TestAmoebaArrays:
    @pytest.mark.parametrize("grid", [1, 2, 40])
    @pytest.mark.parametrize("name", CURVES)
    def test_rows_csv_and_svg_match_per_row_reference(self, name, grid):
        P = curve(name)
        region = (-2.5, 2.5, -2.5, 2.5)
        sample = amoeba_sample(P, grid=grid, region=region)
        rows = reference_amoeba_sample(P, grid, region)
        assert_columns_hold(sample, rows)
        assert rows or grid == 1
        marks = [(x + 0.01, y - 0.02) for x, y, *_ in rows[:3]]
        assert amoeba_csv(sample) == reference_amoeba_csv(rows)
        for m in (marks, ()):
            assert amoeba_svg(sample, m) == reference_amoeba_svg(rows, m)
        if grid == 40:
            # both colours and both csv flags occur
            assert {r[2] for r in rows} == {True, False}
            # at |x| <= 2.5 the fibre rule agrees with |Im z| < 1e-12
            assert [r[2] for r in rows] == [abs(z.imag) < 1e-12 and abs(w.imag) < 1e-9
                                            for *_, z, w in rows]

    @pytest.mark.parametrize("r", [20, 40])
    def test_far_roots_kept(self, r):
        # every fibre of P(z, .) has w-degree 4; far out on a tentacle |P|
        # grows with the terms, and the relative rule keeps every root
        P = curve("square 2x1")
        assert P.degree_range("w") == (-2, 2)
        sample = amoeba_sample(P, grid=40, region=(-r, r, -r, r))
        assert len(sample) == 40 * 40 * 4
        assert_columns_hold(sample, reference_amoeba_sample(P, 40, (-r, r, -r, r)))

    @pytest.mark.parametrize("r", [20, 40])
    @pytest.mark.parametrize("name", ["fixture", "honeycomb 2x2"])
    def test_is_real_far_out(self, name, r):
        # Im z of a real fibre grows with |z| to above 1e-12, and that of
        # the others falls below it as |z| shrinks; relative to |z| the two
        # stay 16 orders apart
        rows = sample_rows(amoeba_sample(curve(name), grid=40, region=(-r, r, -r, r)))
        on_real_fibre = [abs(z.imag) <= 1e-12 * abs(z) for *_, z, _ in rows]
        assert 0 < sum(on_real_fibre) < len(rows)
        assert [row[2] for row in rows] == [a and abs(w.imag) < 1e-9
                                            for a, (*_, w) in zip(on_real_fibre, rows)]

    @pytest.mark.parametrize("name", CURVES)
    def test_one_root_kernel_call_and_term_passes_only_in_newton_steps(self, name, monkeypatch):
        # the roots are kept by the values of the last Newton step, so every
        # pass of the term kernel is one of the steps + 1 = 4 evaluations,
        # and its value pass (a vanishing test on fresh points) never runs
        import isingdimer.spectral as spectral
        from isingdimer import divisor
        roots, terms, polish = spectral._roots, divisor._terms, spectral._polish
        calls, inside = {}, []

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                calls["outside _polish"] += name in ("_terms", "_values") and not inside
                return fn(*args, **kwargs)
            return call

        def in_polish(*args, **kwargs):
            inside.append(1)
            try:
                return polish(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(spectral, "_roots", counted("_roots", roots))
        monkeypatch.setattr(divisor, "_terms", counted("_terms", terms))
        monkeypatch.setattr(divisor, "_values", counted("_values", divisor._values))
        monkeypatch.setattr(spectral, "_polish", in_polish)
        for r in (2.5, 40):
            calls.update({"_roots": 0, "_terms": 0, "_values": 0, "outside _polish": 0})
            assert amoeba_sample(curve(name), grid=40, region=(-r, r, -r, r))
            assert calls["_roots"] == 1 and calls["outside _polish"] == 0
            assert 1 <= calls["_terms"] <= 4 and calls["_values"] == 0

    def test_no_hit_rows(self):
        # the one fibre, z = 1, of (z - 1) w + 1 has its root at infinity
        P = LaurentPoly2({(1, 1): 1.0, (0, 1): -1.0, (0, 0): 1.0})
        sample = amoeba_sample(P, grid=1, region=(-1, 1, -1, 1))
        rows = reference_amoeba_sample(P, 1, (-1, 1, -1, 1))
        assert rows == []
        assert_columns_hold(sample, rows)
        assert amoeba_csv(sample) == reference_amoeba_csv(rows) == "x,y,is_real\n"
        assert amoeba_svg(sample, [(0.0, 0.0)]) == reference_amoeba_svg(rows, [(0.0, 0.0)])


class TestPolishValues:
    # _polish hands back the term kernel's values at each point's last
    # evaluation; the vanishing test on them is _vanishes run afresh at the
    # points it returns

    @staticmethod
    def verdicts(polys, z, w, values, tol=1e-8):
        from isingdimer.divisor import _grid, _vanish_rule, _vanishes
        return _vanish_rule(_grid(polys), values, tol), _vanishes(polys, z, w, tol)

    @pytest.mark.parametrize("r", [2.5, 20, 40])
    @pytest.mark.parametrize("name", CURVES)
    def test_amoeba(self, name, r, monkeypatch):
        import numpy as np
        import isingdimer.spectral as spectral
        polish, seen = spectral._polish, []
        monkeypatch.setattr(spectral, "_polish",
                            lambda *args, **kw: seen.append((args[0], polish(*args, **kw))) or
                            seen[-1][1])
        assert amoeba_sample(curve(name), grid=40, region=(-r, r, -r, r))
        ((polys, (z, w, values)),) = seen
        got, want = self.verdicts(polys, z, w, values)
        assert np.array_equal(got, want) and want.any()

    @pytest.mark.parametrize("move_z", [True, False])
    def test_non_finite_evaluation_and_non_finite_step(self, move_z, monkeypatch):
        # w^4 - 1, and z - 2 when z moves. From w = 1e-38 the first step
        # goes to |w| = 2.5e113, where w^4 overflows: the point is taken
        # back and keeps the values of its first evaluation. At w = 0 the
        # derivative in log w is 0, and so is that of z - 2 in log w: the
        # normal equations are singular, and the step is nan. The other
        # points reach (2, +-1) or (2, +-i).
        import numpy as np
        from isingdimer import divisor
        from isingdimer.divisor import _grid, _polish
        polys = [LaurentPoly2({(0, 4): 1.0, (0, 0): -1.0}),
                 LaurentPoly2({(1, 0): 1.0, (0, 0): -2.0})][:1 + move_z]
        z0 = np.full(5, 1.5 if move_z else 2.0, dtype=complex)
        w0 = np.array([1e-38, 0, 0.9, -1.1j, 2], dtype=complex)
        terms, evaluated = divisor._terms, []
        monkeypatch.setattr(divisor, "_terms",
                            lambda *args: evaluated.append(terms(*args)) or evaluated[-1])
        z, w, values = _polish(polys, z0, w0, steps=8, move_z=move_z)
        # the second evaluation leaves out w = 0 and overflows at the first
        assert evaluated[1][0].shape == (len(polys), 4)
        assert not np.isfinite(evaluated[1][0][0, 0])
        assert w[:2].tolist() == w0[:2].tolist() and z[:2].tolist() == z0[:2].tolist()
        assert all(np.isfinite(v).all() for v in values)
        fresh = terms(_grid(polys), z, w)
        for a, b in zip(values, (fresh[0], fresh[3], fresh[4])):
            assert (abs(a - b) <= 1e-15 * fresh[3]).all()
        got, want = self.verdicts(polys, z, w, values)
        assert np.array_equal(got, want)
        assert got.all(0).tolist() == [False, False, True, True, True]

    def test_second_pass_of_a_numeric_divisor(self, monkeypatch):
        # square 3x3 (36 whites) is the rung whose first pass falls short of
        # the genus, so the second polishes on P and every entry; the
        # singularity probe's polish, on two polynomials, is left out
        import numpy as np
        from isingdimer import divisor
        polish, second = divisor._polish, []

        def spy(polys, *args, **kw):
            out = polish(polys, *args, **kw)
            if kw.get("stop") is None and len(polys) > 2:
                second.append((polys, out))
            return out

        monkeypatch.setattr(divisor, "_polish", spy)
        g, wt, gm, kappa, white = ladder_dimer("square 3x3", 1)
        with pytest.raises(SpectralError, match="found 10 points, genus is 13"):
            verify_ising_spectral(g, wt, kappa, gm, white, mode="numeric")
        ((polys, (z, w, values)),) = second
        got, want = self.verdicts(polys, z, w, values, 1e-10)
        assert np.array_equal(got, want) and want.all(0).any()


class TestHarnackArrays:
    @pytest.mark.parametrize("name", CURVES)
    def test_report_matches_per_angle_reference(self, name):
        from isingdimer.spectral import harnack_diagnostic
        P = curve(name)
        rep = harnack_diagnostic(P)
        assert [p["probe"] for p in rep["probes"]] == reference_auto_probes(P)
        assert rep == reference_harnack(P, reference_auto_probes(P))
        assert len(rep["probes"]) == 3

    def test_fibre_with_a_root_at_infinity(self, monkeypatch):
        # the leading coefficient z - 1 in w vanishes at theta = 0 on |z| = 1:
        # the root kernel skips that fibre, and the step next to it counts
        # no crossing
        from isingdimer import spectral
        skipped = []
        kernel = spectral._roots

        def spy(coeffs):
            roots, ok = kernel(coeffs)
            skipped.extend((~ok).nonzero()[0].tolist())
            return roots, ok

        monkeypatch.setattr(spectral, "_roots", spy)
        P = LaurentPoly2({(1, 2): 1.0, (0, 2): -1.0, (0, 1): 0.5, (0, 0): 2.0, (1, 0): 1.0})
        rep = spectral.harnack_diagnostic(P)
        assert skipped == [0]
        assert rep == reference_harnack(P, reference_auto_probes(P))
        assert [p["preimages"] for p in rep["probes"]] == [4, 4, 2]

    def test_mid_fibre_without_a_level_gives_no_probe(self):
        # the leading coefficient z - c in w vanishes on the first mid-angle
        # fibre of the probes: the root kernel skips it, and the other two
        # fibres give the probes
        import cmath
        from isingdimer.spectral import harnack_diagnostic
        c = cmath.exp(1j * math.pi * 180.5 / 720)
        P = LaurentPoly2({(1, 1): 1.0, (0, 1): -c, (0, 0): 2.0, (1, 0): 1.0})
        rep = harnack_diagnostic(P)
        assert len(rep["probes"]) == 2
        assert rep == reference_harnack(P, reference_auto_probes(P))

    @pytest.mark.parametrize("terms", [
        {(1, 0): 0.2767183997632788, (-1, 0): 0.27671839976327933, (0, 1): 0.7216637898262106,
         (0, -1): 0.721663789826211, (0, 0): -2.000000000000817},
        {(0, 0): 2.0, (0, 1): -0.721663789826, (0, -1): -0.721663789826,
         (1, 0): -0.276718399763, (-1, 0): -0.276718399763},
    ], ids=["determinant", "printed"])
    def test_no_probe_on_a_real_fibre(self, terms):
        # a one-vertex square-lattice P whose samples at theta = 0 have
        # log|w| within an ulp of 0: taken as a probe, such a sample put its
        # preimages on the end of the scan and gave a false violation
        from isingdimer.spectral import harnack_diagnostic
        rep = harnack_diagnostic(LaurentPoly2(terms))
        assert rep["consistent"] and len(rep["probes"]) == 3

    def test_one_kernel_call_and_no_amoeba_sample(self, monkeypatch):
        # the circle |z| = 1 and the three probe fibres go to the root
        # kernel in one call
        from isingdimer import spectral
        calls = []
        kernel = spectral._roots

        def spy(coeffs):
            calls.append(len(coeffs))
            return kernel(coeffs)

        def no_sample(*args, **kwargs):
            raise AssertionError("amoeba_sample called")

        monkeypatch.setattr(spectral, "_roots", spy)
        monkeypatch.setattr(spectral, "amoeba_sample", no_sample)
        rep = spectral.harnack_diagnostic(curve("square 2x1"))
        assert calls == [721 + 3]
        assert len(rep["probes"]) == 3

    @pytest.mark.parametrize("terms", [
        {(0, 0): 0.5, (1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0},
        {(0, 2): 1.0, (1, 1): 1.0, (-1, 1): 1.0, (0, 1): 0.2, (0, 0): 1.0},
    ], ids=["0.5 + z + 1/z + w + 1/w", "w^2 + (z + 1/z + 0.2) w + 1"])
    def test_automatic_probes_flag_non_harnack_curves(self, terms):
        # on both curves whole arcs of the unit torus map to one point of
        # the amoeba, so the map is not 2:1 there
        from isingdimer.spectral import harnack_diagnostic
        rep = harnack_diagnostic(LaurentPoly2(terms))
        assert not rep["consistent"]
        assert len(rep["probes"]) == 3 and rep["violations"]
        assert all(p["probe"][0] == 0.0 for p in rep["probes"])

    def test_automatic_probes_on_a_harnack_curve(self):
        from isingdimer.spectral import harnack_diagnostic
        P = LaurentPoly2({(0, 0): 5.0, (1, 0): -1.0, (-1, 0): -1.0, (0, 1): -1.0, (0, -1): -1.0})
        rep = harnack_diagnostic(P)
        assert rep["consistent"]
        assert [p["preimages"] for p in rep["probes"]] == [2, 2, 2]

    def test_constant_in_w_raises(self):
        from isingdimer.spectral import harnack_diagnostic
        P = LaurentPoly2({(1, 0): 1.0, (0, 0): 2.0})
        with pytest.raises(SpectralError, match="constant in w"):
            harnack_diagnostic(P)

    def test_fibres_outside_the_float_range_raise(self):
        # 1e308 + 1e308 z, the coefficient of w^0, overflows near z = 1
        from isingdimer.spectral import harnack_diagnostic
        P = LaurentPoly2({(0, 1): 1.0, (0, 0): 1e308, (1, 0): 1e308})
        with pytest.raises(SpectralError, match=r"^fibre coefficients of P are not finite "
                                                r"at \|log\|z\|\| = 0$"):
            harnack_diagnostic(P)


class TestSecondFixturePolygon:
    def test_genus_zero_polygon_coherence(self):
        g = TorusGraph()
        g.add_vertex("B", "b")
        g.add_vertex("W", "w")
        g.add_edge("a", "B", "W", 0, 0)
        g.add_edge("b", "B", "W", 1, 0)
        g.add_edge("c", "B", "W", 0, 1)
        g.set_rotation("B", ["a+", "b+", "c+"])
        g.set_rotation("W", ["a-", "b-", "c-"])
        g.freeze()
        g.validate()
        assert g.check_minimal()[0]
        wt = {"a": Fraction(2), "b": Fraction(3), "c": Fraction(5)}
        _, kappa = solve_kasteleyn_signs(g)[0]
        data = characteristic_polynomial(g, wt, kappa)
        gp = g.newton_polygon()
        assert data.polygon.normalized().vertices == gp.normalized().vertices
        assert data.genus == 0

    def test_honeycomb_dimer_polygon_coherence(self):
        g = lattices.honeycomb(1, 1)
        model = IsingModel(g, {e: make_coupling(sc=(S1, C1)) for e in g.edges()})
        gd, wt, gm = to_dimer(model)
        assert gd.check_minimal()[0] == g.check_minimal()[0]
        _, kappa = solve_kasteleyn_signs(gd)[0]
        data = characteristic_polynomial(gd, wt, kappa)
        gp = gd.newton_polygon()
        assert data.polygon.normalized().vertices == gp.normalized().vertices


class TestHarnackAndSingularities:
    def test_two_to_one_diagnostic(self, dimer_fixture):
        from isingdimer.spectral import harnack_diagnostic
        g, wt = dimer_fixture
        P = lm_determinant(kasteleyn_matrix(g, wt, FIXTURE_KAPPA))
        rep = harnack_diagnostic(P)
        assert rep["consistent"]
        assert all(p["preimages"] == 2 for p in rep["probes"])

    def test_fixture_curve_smooth(self, dimer_fixture):
        from isingdimer.divisor import detect_singularities
        g, wt = dimer_fixture
        P = lm_determinant(kasteleyn_matrix(g, wt, FIXTURE_KAPPA))
        assert detect_singularities(P) == []

    def test_newton_refine_stops_before_overflow(self, dimer_fixture):
        # from this start the critical-system iteration runs off to infinity
        import cmath
        import numpy as np
        from isingdimer.divisor import _polish, derivative
        g, wt = dimer_fixture
        P = lm_determinant(kasteleyn_matrix(g, wt, FIXTURE_KAPPA))
        Pn, Pw, Pz = (p.to_numeric() for p in (P, derivative(P, "w"), derivative(P, "z")))
        z0 = 4.5 + 7.34546972e-17j
        cw = Pn.coeffs_in_w()
        for w0 in np.roots([complex(c.eval(z0, 1.0)) for c in cw][::-1]):
            z1, w1 = (complex(v) for v in _polish([Pw, Pz], z0, complex(w0), steps=40)[:2])
            assert cmath.isfinite(Pw.eval(z1, w1)) and cmath.isfinite(Pz.eval(z1, w1))

    def test_nodal_curve_detected(self):
        from isingdimer.divisor import detect_singularities
        # (z + 1/z + w + 1/w): node at (z, w) = (1, -1) and (-1, 1)
        P = LaurentPoly2({(1, 0): Fraction(1), (-1, 0): Fraction(1),
                          (0, 1): Fraction(1), (0, -1): Fraction(1)})
        hits = detect_singularities(P)
        assert hits


class TestToDimerSpectralPath:
    def test_charpoly_from_to_dimer_matches(self):
        gi, _, raw = parse_torus_graph(ISING_FIXTURE)
        model = IsingModel(gi, couplings_from_file_data(raw))
        gd, wt, gm = to_dimer(model)
        curves = set()
        for lab, kappa in solve_kasteleyn_signs(gd):
            P = lm_determinant(kasteleyn_matrix(gd, wt, kappa))
            curves.add(canonical_sign(P).canonical_str())
        assert EXPECTED_P in curves

    def test_spectral_conditions_on_to_dimer(self):
        gi, _, raw = parse_torus_graph(ISING_FIXTURE)
        model = IsingModel(gi, couplings_from_file_data(raw))
        gd, wt, gm = to_dimer(model)
        lab, kappa = solve_kasteleyn_signs(gd)[0]
        white = gd.whites()[0]
        ok, rep = verify_ising_spectral(gd, wt, kappa, gm, white)
        assert ok

    # honeycomb 2x2 gadget graph, 24 whites, genus 7. With these couplings
    # the first has a divisor point next to another common zero of P and the
    # Newton entry (it needs the polish on every entry), the second one at
    # |w| ~ 1e4 (it needs the coefficient-error term of the residual test).
    @pytest.mark.parametrize("tenths", ["999322272294", "174719488946"])
    def test_numeric_divisor_at_24_whites(self, tenths):
        g = lattices.honeycomb(2, 2)
        gd, wt, gm = to_dimer(IsingModel(g, {e: make_coupling(x=Fraction(int(k), 10))
                                             for e, k in zip(g.edges(), tenths)}))
        wtf = {e: float(v) for e, v in wt.items()}
        _, kappa = solve_kasteleyn_signs(gd)[0]
        Dw = divisor_of_vertex(gd, wtf, kappa, "W_u00_0", mode="numeric")
        Db = divisor_of_vertex(gd, wtf, kappa, gm.partners["W_u00_0"], mode="numeric")
        assert len(Dw) == len(Db) == 7
        assert Dw.matches(Db.sigma())
