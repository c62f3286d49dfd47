import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from isingdimer.exactalg import LaurentPoly2, lm_determinant
from isingdimer.dimer import color_change, gauge_transform, square_move, x_of_cycle
from isingdimer.ising import (GadgetMap, IsingModel, couplings_from_file_data,
                              make_coupling, to_dimer)
from isingdimer.abel import AbelLabel, discrete_abel
from isingdimer.spectral import (
    SpectralError,
    amoeba_csv,
    amoeba_sample,
    amoeba_svg,
    canonical_sign,
    characteristic_polynomial,
    divisor_of_vertex,
    kappa_gauge_equivalent,
    kappa_is_valid,
    kasteleyn_matrix,
    nu_map,
    solve_kasteleyn_signs,
    spectral_report,
    verify_ising_spectral,
)
from isingdimer.torusgraph import TorusGraph, parse_torus_graph

from conftest import DIMER_FIXTURE, FIXTURE_KAPPA, ISING_FIXTURE, S1, C1, S2, C2


def fixture_gm():
    return GadgetMap({"1": "f2", "2": "f3"},
                     {"w1": "b4", "w2": "b3", "w3": "b2", "w4": "b1"}, {}, {})


EXPECTED_P = "2 - 4/13*w - 4/13*w^-1 - 36/65*z - 36/65*z^-1"


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
            assert not kappa_gauge_equivalent(g, k1, k2)

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
                if kappa_gauge_equivalent(g, k, FIXTURE_KAPPA)]
        assert len(hits) == 1


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
        from isingdimer.spectral import _vanishes
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
        from isingdimer.spectral import _polish
        polys = [LaurentPoly2({(1, 0): 1.0, (0, 1): 1.0, (0, 0): -3.0}),
                 LaurentPoly2({(1, 0): 1.0, (0, 1): -1.0, (0, 0): 1.0}),
                 LaurentPoly2({(1, 1): 1.0, (0, 0): -2.0})]
        z, w = _polish(polys, 1.001 + 0j, 1.999 + 0j)
        assert abs(z - 1) < 1e-12 and abs(w - 2) < 1e-12

    def test_matches_is_relative_far_out(self):
        from isingdimer.spectral import Divisor
        far = Divisor([(100 + 0j, 70 + 0j, 1)], exact=False)
        assert far.matches(Divisor([(100 + 0j, 70 + 5e-8j, 1)], exact=False))
        near = Divisor([(0.5 + 0j, 0.7 + 0j, 1)], exact=False)
        assert not near.matches(Divisor([(0.5 + 0j, 0.7 + 5e-8j, 1)], exact=False))


def _one_vertex_dimer(sc1, sc2):
    """The gadget dimer graph of the one-vertex Ising model with couplings
    sc=(s, c) on its two edges: (graph, weights, kappa, white)."""
    text = ISING_FIXTURE.replace("sc=4/5,3/5", "sc=%s,%s" % sc1).replace(
        "sc=12/13,5/13", "sc=%s,%s" % sc2)
    gi, _, raw = parse_torus_graph(text)
    gd, wt, _ = to_dimer(IsingModel(gi, couplings_from_file_data(raw)))
    return gd, wt, solve_kasteleyn_signs(gd)[0][1], gd.whites()[0]


def _honeycomb_dimer(scs):
    from test_torusgraph import honeycomb
    g = honeycomb(1, 1)
    model = IsingModel(g, {e: make_coupling(sc=(Fraction(s), Fraction(c)))
                           for e, (s, c) in zip(g.edges(), scs)})
    gd, wt, _ = to_dimer(model)
    return gd, wt, solve_kasteleyn_signs(gd)[0][1], gd.whites()[0]


def _worked_dimer():
    g, wt, _ = parse_torus_graph(DIMER_FIXTURE)
    return g, wt, FIXTURE_KAPPA, "w2"


class TestRoots:
    def test_matches_np_roots_per_fibre(self, dimer_fixture):
        # reference: the per-fibre loop the kernel replaced, np.roots on the
        # coefficients of P in w at one z, skipping a vanishing leading one.
        # The fibre rows are built with numpy's complex power and division,
        # so they agree with LaurentPoly2.eval to rounding; the roots of a
        # row are bit-identical.
        import numpy as np
        from isingdimer.spectral import _fibres, _roots
        g, wt = dimer_fixture
        P = lm_determinant(kasteleyn_matrix(g, wt, FIXTURE_KAPPA))
        # plus (z - 1) w^2: the leading coefficient in w vanishes at z = 1
        Q = P + LaurentPoly2({(1, 2): Fraction(1), (0, 2): Fraction(-1)})
        zs = [1.0 + 0j] + [math.exp(x / 7) * complex(math.cos(t / 5), math.sin(t / 5))
                           for x in range(-10, 11) for t in range(16)]
        for poly in (P.to_numeric(), Q.to_numeric()):
            rows = _fibres(poly, np.array(zs))
            roots, ok = _roots(rows)
            cw, _ = poly.coeffs_in("w")
            for k, z in enumerate(zs):
                ref = np.array([complex(c.eval(z, 1.0)) for c in cw][::-1])
                assert np.abs(rows[k] - ref).max() <= 1e-15 * (abs(z) + 1 / abs(z) + 2)
                if abs(rows[k][0]) < 1e-300:
                    assert not ok[k]
                    continue
                assert ok[k] and np.array_equal(roots[k], np.roots(rows[k]))
        assert not _roots(_fibres(Q.to_numeric(), np.array([1.0 + 0j])))[1][0]

    @pytest.mark.parametrize("case", ["double root", "irreducible quadratic", "above 2^80"])
    def test_rational_zeros_against_sympy(self, case):
        sympy = pytest.importorskip("sympy")
        import numpy as np
        from isingdimer.spectral import _rational_zeros
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
    ], ids=["worked", "one-vertex 3-4-5/33-56-65", "one-vertex 5-12-13/11-60-61",
            "honeycomb 1x1"])
    def test_exact_and_numeric_divisors_agree(self, model):
        g, wt, kappa, white = model()
        De = divisor_of_vertex(g, wt, kappa, white)
        Dn = divisor_of_vertex(g, {e: float(v) for e, v in wt.items()}, kappa, white,
                               mode="numeric")
        assert De.exact and len(De) >= 1
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
    from isingdimer.spectral import COEFF_EPS
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
    from test_torusgraph import honeycomb, square
    kind, size = lattice.split()
    g = (square if kind == "square" else honeycomb)(*map(int, size.split("x")))
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
        from isingdimer.exactalg import lm_adjugate_column
        from isingdimer.spectral import TERMS_BLOCK, _grid, _terms
        g, wt, _, kappa, white = ladder_dimer("honeycomb 2x2", 5)
        K = kasteleyn_matrix(g, wt, kappa)
        assert len(K.rows) == 24
        P = lm_determinant(K)
        entries = [e for e in lm_adjugate_column(K, white).values() if not e.is_zero()]
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

    @pytest.mark.parametrize("lattice", ["honeycomb 1x1", "square 2x1", "honeycomb 2x1",
                                         "square 2x2", "honeycomb 2x2"])
    def test_batched_vanishes_matches_scalar_verdict(self, lattice, monkeypatch):
        # every divisor candidate of both divisors of verify-ising
        import numpy as np
        from isingdimer import spectral
        g, wt, gm, kappa, white = ladder_dimer(lattice, 11)
        calls, batched = [], spectral._vanishes

        def spy(polys, z, w, tol):
            out = batched(polys, z, w, tol)
            calls.append((polys, z.copy(), w.copy(), tol, out))
            return out

        monkeypatch.setattr(spectral, "_vanishes", spy)
        ok, _ = verify_ising_spectral(g, wt, kappa, gm, white, mode="numeric")
        assert ok and calls
        for polys, z, w, tol, out in calls:
            want = [[reference_vanishes(p, a, b, tol) for a, b in zip(z.tolist(), w.tolist())]
                    for p in polys]
            assert np.array_equal(out, want)


class TestNuMap:
    def test_fixture_singleton_sides(self, dimer_fixture):
        g, wt = dimer_fixture
        nm = nu_map(g, wt)
        assert len(nm["sides"]) == 4
        for side in nm["sides"]:
            assert side["length"] == 1
            assert len(side["zigzags"]) == 1
            assert not side["ties"]

    def test_opposite_sides_intercepts_negate_at_locus(self, dimer_fixture):
        g, wt = dimer_fixture
        nm = nu_map(g, wt)
        by_vec = {tuple(s["vector"]): s["intercepts"] for s in nm["sides"]}
        for v, ints in by_vec.items():
            opp = by_vec[(-v[0], -v[1])]
            assert all(abs(a + b) < 1e-12 for a, b in zip(sorted(ints), sorted(-x for x in opp)))

    def test_gauge_invariance(self, dimer_fixture):
        g, wt = dimer_fixture
        rng = random.Random(13)
        f = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in g.vertex_ids()}
        nm1 = nu_map(g, wt)
        nm2 = nu_map(g, gauge_transform(g, wt, f))
        for s1, s2 in zip(nm1["sides"], nm2["sides"]):
            assert s1["zigzags"] == s2["zigzags"]
            assert all(abs(a - b) < 1e-12 for a, b in zip(s1["intercepts"], s2["intercepts"]))


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

    def test_report_text(self, dimer_fixture):
        g, wt = dimer_fixture
        text, ok = spectral_report(g, wt, FIXTURE_KAPPA, fixture_gm(), "w2")
        assert ok
        assert text.startswith("spectral-report v1\n")
        assert f"polynomial {EXPECTED_P}" in text
        assert "divisor D_w (13/20,52/25)x1" in text


class TestDiscreteAbel:
    def test_window_consistency(self, dimer_fixture):
        g, _ = dimer_fixture
        labels = discrete_abel(g, window=1)   # 3x3 block of translates
        base = g.whites()[0]
        assert labels[(base, (0, 0))].counts == {}
        zzc = {zz["id"]: zz["class"] for zz in g.zigzag_paths()}
        for (v, t), lab in labels.items():
            deg = lab.reduced(zzc).degree()
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
                diff = dict(labels[(b, dd)].counts)
                for z, c in labels[(w, (0, 0))].counts.items():
                    diff[z] = diff.get(z, 0) - c
                pair = sorted([zz_of[d], zz_of[g.twin(d)]])
                expect = {}
                for z in pair:
                    expect[z] = expect.get(z, 0) + 1
                assert {k: v for k, v in diff.items() if v} == expect

    def test_monomial_divisor_degree_zero(self, dimer_fixture):
        g, _ = dimer_fixture
        zzc = {zz["id"]: zz["class"] for zz in g.zigzag_paths()}
        for t in ((1, 0), (0, 1), (1, 1)):
            red = AbelLabel({}, t).reduced(zzc)
            assert red.degree() == 0
            assert red.offset == (0, 0)


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
        if v == base and lab != AbelLabel({}, t).reduced(zz_classes).counts:
            raise SpectralError(f"translate {t} violates the monomial rule")
    return {key: AbelLabel(lab) for key, lab in labels.items()}


def gadget_markings(model, monkeypatch):
    """The raw gadget marking that to_dimer starts from, and its output."""
    from isingdimer import ising
    raw, orient = [], ising._orient_marking
    with monkeypatch.context() as mp:
        mp.setattr(ising, "_orient_marking",
                   lambda gn, minimal: raw.append(gn) or orient(gn, minimal))
        final = to_dimer(model)[0]
    return raw[0], final


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
    def test_verdict_matches_window_reference(self, lattice, monkeypatch):
        from isingdimer.ising import _apply_lattice_map
        from isingdimer.abel import abel_tree
        from test_torusgraph import honeycomb, square
        kind, size = lattice.split()
        g = (square if kind == "square" else honeycomb)(*map(int, size.split("x")))
        model = IsingModel(g, {e: make_coupling(x=Fraction(1, 3)) for e in g.edges()})
        raw, final = gadget_markings(model, monkeypatch)
        assert not _verdict(abel_tree, raw) and _verdict(abel_tree, final)
        rng = random.Random(lattice)
        seen = set()
        for marking in (raw, final):
            for S in unimodular_maps(rng, 40):
                h = _apply_lattice_map(marking, S)
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
        from test_dimer import honeycomb22_dimer
        g = dimer_fixture[0] if graph == "fixture" else honeycomb22_dimer()[0]
        for window in (0, 1, 2):
            got, want = discrete_abel(g, window), reference_discrete_abel(g, window)
            assert list(got) == list(want)
            assert all(got[k].counts == want[k].counts for k in want)

    def test_inconsistent_marking_names_the_edge(self, monkeypatch):
        from isingdimer.ising import _apply_lattice_map
        from isingdimer.abel import abel_tree
        from test_ising import fixture_model
        raw, final = gadget_markings(fixture_model(), monkeypatch)
        for g in (raw, _apply_lattice_map(final, ((0, 1), (1, 0)))):
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
        rows = amoeba_sample(P, grid=40, region=(-2, 2, -2, 2))
        assert rows
        Pn = P.to_numeric()
        assert all(abs(Pn.eval(z, w)) < 1e-8 for _, _, _, z, w in rows)
        pts = [(x, y) for x, y, *_ in rows]
        step = 4.0 / 40 + 1e-6
        for x, y in pts[::11]:
            assert any(abs(x + a) <= step and abs(y + b) <= step for a, b in pts)

    def test_divisor_point_in_amoeba(self, dimer_fixture):
        g, wt = dimer_fixture
        P = lm_determinant(kasteleyn_matrix(g, wt, FIXTURE_KAPPA))
        rows = amoeba_sample(P, grid=60, region=(-2, 2, -2, 2))
        tx, ty = math.log(13 / 20), math.log(52 / 25)
        d = min(math.hypot(x - tx, y - ty) for x, y, *_ in rows)
        assert d < 4.0 / 60 + 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(SpectralError):
            amoeba_sample(LaurentPoly2({(1, 0): Fraction(1), (0, 0): Fraction(2)}))


def reference_amoeba_sample(P, grid, region, tol=1e-8):
    """Reference for amoeba_sample: the grid point by point, one row at a time."""
    import cmath
    import numpy as np
    from isingdimer.spectral import _fibres, _grid, _polish, _roots, _terms
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
    _, w = _polish([Pn], z[fibre], roots[keep], steps=3, move_z=False)
    hit = np.abs(_terms(_grid([Pn]), z[fibre], w)[0][0]) < tol
    rows = []
    for k, wk in zip(fibre[hit].tolist(), w[hit].tolist()):
        zk = zs[k]
        is_real = abs(zk.imag) < 1e-12 and abs(wk.imag) < 1e-9
        rows.append((math.log(abs(zk)), math.log(abs(wk)), is_real, zk, wk))
    return rows


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


def reference_harnack(P, probes, theta_steps=720):
    """Reference for harnack_diagnostic at given probes: one root-kernel
    call per probe, the sorted levels and their signs angle by angle."""
    import cmath
    import numpy as np
    from isingdimer.spectral import _fibres, _roots
    Pn = P.to_numeric()
    out = []
    violations = []
    for x, y in probes:
        r = math.exp(x)
        z = np.array([r * cmath.exp(1j * math.pi * k / theta_steps)
                      for k in range(theta_steps + 1)])
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
        rows = amoeba_sample(P, grid=grid, region=region)
        assert rows == reference_amoeba_sample(P, grid, region)
        assert rows or grid == 1
        assert all(type(r[2]) is bool for r in rows)
        marks = [(x + 0.01, y - 0.02) for x, y, *_ in rows[:3]]
        assert amoeba_csv(rows) == reference_amoeba_csv(rows)
        for m in (marks, ()):
            assert amoeba_svg(rows, m) == reference_amoeba_svg(rows, m)
        if grid == 40:
            # both colours and both csv flags occur
            assert {r[2] for r in rows} == {True, False}

    def test_no_hit_rows(self):
        P = curve("square 1x1")
        rows = amoeba_sample(P, grid=6, region=(-1, 1, -1, 1), tol=0.0)
        assert rows == reference_amoeba_sample(P, 6, (-1, 1, -1, 1), tol=0.0) == []
        assert amoeba_csv(rows) == reference_amoeba_csv(rows) == "x,y,is_real\n"
        assert amoeba_svg(rows, [(0.0, 0.0)]) == reference_amoeba_svg(rows, [(0.0, 0.0)])


class TestHarnackArrays:
    @pytest.mark.parametrize("name", CURVES)
    def test_report_matches_per_angle_reference(self, name):
        # probes on real and non-real samples, inside and outside the
        # amoeba, and none at all
        from isingdimer.spectral import harnack_diagnostic
        P = curve(name)
        rows = amoeba_sample(P, grid=24, region=(-1.2, 1.2, -1.2, 1.2))
        real = [(x, y) for x, y, _, z, _ in rows if abs(z.imag) < 1e-12]
        inner = [(x, y) for x, y, _, z, _ in rows if abs(z.imag) >= 1e-12]
        assert real and inner
        for probes in ([], real[:2] + inner[::len(inner) // 4], [(0.1, 30.0), (-0.2, -30.0)]):
            for steps in (720, 45):
                want = reference_harnack(P, probes, steps)
                assert harnack_diagnostic(P, probes=probes, theta_steps=steps) == want
        auto = harnack_diagnostic(P)
        assert auto == reference_harnack(P, [p["probe"] for p in auto["probes"]])
        assert all(p["probe"] in inner for p in auto["probes"])

    def test_fibre_with_a_root_at_infinity(self):
        # the leading coefficient z - 1 in w vanishes at theta = 0 on |z| = 1:
        # the root kernel skips that fibre, and the steps next to it count
        # no crossing
        from isingdimer.spectral import harnack_diagnostic
        P = LaurentPoly2({(1, 2): 1.0, (0, 2): -1.0, (0, 1): 0.5, (0, 0): 2.0, (1, 0): 1.0})
        probes = [(0.0, y) for y in (30.0, -30.0, 0.2, 1.0, -1.0, 0.0)]
        rep = harnack_diagnostic(P, probes=probes)
        assert rep == reference_harnack(P, probes)
        assert [p["preimages"] for p in rep["probes"]] == [0, 0, 4, 4, 0, 4]

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
        gp, _ = g.newton_polygon()
        assert data.polygon.normalized().vertices == gp.normalized().vertices
        assert data.genus == 0

    def test_honeycomb_dimer_polygon_coherence(self):
        from test_torusgraph import honeycomb
        g = honeycomb(1, 1)
        model = IsingModel(g, {e: make_coupling(sc=(Fraction(4, 5), Fraction(3, 5)))
                               for e in g.edges()})
        gd, wt, gm = to_dimer(model)
        assert gd.check_minimal()[0] == g.check_minimal()[0]
        _, kappa = solve_kasteleyn_signs(gd)[0]
        data = characteristic_polynomial(gd, wt, kappa)
        gp, _ = gd.newton_polygon()
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
        from isingdimer.spectral import detect_singularities
        g, wt = dimer_fixture
        P = lm_determinant(kasteleyn_matrix(g, wt, FIXTURE_KAPPA))
        assert detect_singularities(P) == []

    def test_newton_refine_stops_before_overflow(self, dimer_fixture):
        # from this start the critical-system iteration runs off to infinity
        import cmath
        import numpy as np
        from isingdimer.spectral import _polish, derivative
        g, wt = dimer_fixture
        P = lm_determinant(kasteleyn_matrix(g, wt, FIXTURE_KAPPA))
        Pn, Pw, Pz = (p.to_numeric() for p in (P, derivative(P, "w"), derivative(P, "z")))
        z0 = 4.5 + 7.34546972e-17j
        cw, _ = Pn.coeffs_in("w")
        for w0 in np.roots([complex(c.eval(z0, 1.0)) for c in cw][::-1]):
            z1, w1 = (complex(v) for v in _polish([Pw, Pz], z0, complex(w0), steps=40))
            assert cmath.isfinite(Pw.eval(z1, w1)) and cmath.isfinite(Pz.eval(z1, w1))

    def test_nodal_curve_detected(self):
        from isingdimer.spectral import detect_singularities
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
        from test_ising import honeycomb_model
        model = honeycomb_model([Fraction(int(k), 10) for k in tenths], n=2, m=2)
        gd, wt, gm = to_dimer(model)
        wtf = {e: float(v) for e, v in wt.items()}
        _, kappa = solve_kasteleyn_signs(gd)[0]
        Dw = divisor_of_vertex(gd, wtf, kappa, "W_u00_0", mode="numeric")
        Db = divisor_of_vertex(gd, wtf, kappa, gm.partners["W_u00_0"], mode="numeric")
        assert len(Dw) == len(Db) == 7
        assert Dw.matches(Db.sigma())
