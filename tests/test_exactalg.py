import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from isingdimer.exactalg import (
    DimensionError,
    LaurentMatrix,
    LaurentPoly2,
    ModeError,
    NUMERIC_ZERO_TOL,
    NewtonPolygon,
    _divider,
    _from_int,
    _int_rows,
    _interpolate,
    _mul_sub,
    lm_adjugate,
    lm_adjugate_lines,
    lm_determinant,
    newton_polygon,
    resultant_eliminate,
)
from isingdimer import lattices
from isingdimer.ising import IsingModel, make_coupling, to_dimer
from isingdimer.spectral import kasteleyn_matrix, solve_kasteleyn_signs

from conftest import named_lattice, pythagorean_couplings

Z = LaurentPoly2.monomial(1, 0)
W = LaurentPoly2.monomial(0, 1)
ONE = LaurentPoly2.const(Fraction(1))


def fixture_P():
    return LaurentPoly2({
        (0, 0): Fraction(2),
        (0, 1): Fraction(-4, 13), (0, -1): Fraction(-4, 13),
        (1, 0): Fraction(-36, 65), (-1, 0): Fraction(-36, 65),
    })


def rationals(max_num=9, max_den=9):
    return st.builds(Fraction,
                     st.integers(-max_num, max_num),
                     st.integers(1, max_den))


def small_polys():
    pairs = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    return st.dictionaries(pairs, rationals(), min_size=1, max_size=4).map(LaurentPoly2)


def int_polys(min_size=0):
    pairs = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    coeffs = st.integers(-9, 9).filter(bool)
    return st.dictionaries(pairs, coeffs, min_size=min_size, max_size=4)


def laurent_grids(max_n=4):
    """Square grids of exact Laurent entries, n from 1 to max_n: entries
    with negative exponents and denominators that differ within a row,
    about half of them zero, so that zero pivots and zero rows occur."""
    entry = st.one_of(st.just(LaurentPoly2.zero()), small_polys())
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


def reference_divexact(p, d):
    """Exact division p / d of LaurentPoly2 with Fraction coefficients;
    raises if not divisible."""
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return LaurentPoly2.zero()
    lead = max(d.terms)
    dlead = d.terms[lead]
    rem = p
    qterms = {}
    guard = len(p.terms) * len(d.terms) + len(p.terms) + 8
    while rem.terms:
        guard -= 1
        if guard < 0:
            raise ArithmeticError("exact division did not terminate")
        rl = max(rem.terms)
        c = rem.terms[rl]
        qc = c / dlead
        qij = (rl[0] - lead[0], rl[1] - lead[1])
        qterms[qij] = qterms.get(qij, 0) + qc
        rem = rem - LaurentPoly2.monomial(*qij, qc) * d
    return LaurentPoly2(qterms)


def reference_det_bareiss(grid):
    """Reference determinant: Bareiss elimination on the LaurentPoly2
    entries themselves, Fraction arithmetic throughout."""
    a = [list(row) for row in grid]
    n = len(a)
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if a[k][k].is_zero():
            piv = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if piv is None:
                return LaurentPoly2.zero()
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = reference_divexact(num, prev) if not prev == ONE else num
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign > 0 else -det


def reference_minor(grid, i, j):
    """The signed minor of grid without row i and column j."""
    rest = [row[:j] + row[j + 1:] for row in grid[:i] + grid[i + 1:]]
    minor = reference_det_bareiss(rest) if rest else ONE
    return -minor if (i + j) % 2 else minor


def reference_det_int(a):
    """Determinant of the square matrix a of integer term dicts, by Bareiss
    elimination with row swaps only, one elimination per call; a is not
    changed."""
    n = len(a)
    if not n:
        return {(0, 0): 1}
    a = [list(row) for row in a]
    sign, divide = 1, None
    for k in range(n - 1):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return {}
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        top, pivot = a[k], a[k][k]
        for i in range(k + 1, n):
            row, lead = a[i], a[i][k]
            for j in range(k + 1, n):
                if row[j] or lead and top[j]:
                    num = _mul_sub(row[j], pivot, (lead, top[j]))
                    row[j] = divide(num) if divide else num
        divide = _divider(pivot)
    det = a[-1][-1]
    return det if sign > 0 else {ij: -x for ij, x in det.items()}


def minors_lines(m, columns=(), rows=()):
    """lm_adjugate_lines of an exact m by its minors: entry (c, r) is the
    reference_det_int of the rows of m cleared of denominators without row r
    and column c, signed, over the product of their L_r other than L_r."""
    a = [[m[(r, c)] for c in m.cols] for r in m.rows]
    int_rows, scales = _int_rows(a)
    scale = math.prod(scales)

    def entry(i, j):
        minor = [r[:j] + r[j + 1:] for k, r in enumerate(int_rows) if k != i]
        return _from_int(reference_det_int(minor), (-1) ** (i + j) * (scale // scales[i]))

    n = len(a)
    return ([dict(zip(m.cols, (entry(m.rows.index(r), j) for j in range(n)))) for r in columns],
            [dict(zip(m.rows, (entry(i, m.cols.index(c)) for i in range(n)))) for c in rows])


@st.composite
def ranked_int_matrices(draw):
    """Square matrices of integer Laurent entries, n from 1 to 5, about half
    the entries zero (zero pivots, zero rows and columns), and rank n, n - 1
    or at most n - 2: the lines of the deficient rank are combinations, by
    monomials, of the lines before them, as rows or as columns."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just({}), int_polys(1)).map(LaurentPoly2)
    grid = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    monomial = st.builds(LaurentPoly2.monomial, st.integers(-1, 1), st.integers(-1, 1),
                         st.integers(-3, 3).filter(bool))
    for k in draw(st.permutations(range(1, n)))[:draw(st.integers(0, 2))]:
        mix = [draw(monomial) if draw(st.booleans()) else LaurentPoly2.zero() for _ in range(k)]
        grid[k] = [sum((x * grid[i][j] for i, x in enumerate(mix)), LaurentPoly2.zero())
                   for j in range(n)]
    if draw(st.booleans()):
        grid = [list(col) for col in zip(*grid)]
    return _matrix(range(n), range(n), grid)


class TestMul:
    def test_distributivity_example(self):
        p = Z + Z ** -1
        q = W + W ** -1
        expect = LaurentPoly2({(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1})
        assert p * q == expect

    def test_difference_of_squares(self):
        assert (ONE + Z) * (ONE - Z) == ONE - Z * Z

    def test_identity_on_fixture(self):
        P = fixture_P()
        assert P * ONE == P

    def test_mixed_mode_rejected(self):
        with pytest.raises(ModeError):
            fixture_P() * LaurentPoly2.const(0.5)

    def test_dropped_float_zero_leaves_exact(self):
        # the mode follows the kept coefficients: a float zero is dropped
        p = LaurentPoly2({(0, 0): 0.0, (1, 0): Fraction(1, 3)})
        assert p.terms == {(1, 0): Fraction(1, 3)} and p.exact
        m = LaurentMatrix("rs", "cd", {("r", "c"): p, ("r", "d"): ONE,
                                       ("s", "c"): ONE, ("s", "d"): ONE})
        assert lm_determinant(m) == Z * Fraction(1, 3) - ONE
        assert all(isinstance(c, Fraction) for c in lm_determinant(m).terms.values())


class TestEval:
    @given(small_polys(), rationals().filter(bool), rationals().filter(bool))
    @settings(max_examples=60, deadline=None)
    @example(LaurentPoly2({(-2, 1): Fraction(3, 7), (0, -2): Fraction(-5, 2)}),
             Fraction(-2, 3), Fraction(9, 4))
    def test_exact_at_fraction_points(self, p, z, w):
        got = p.eval(z, w)
        assert got == sum((c * z ** i * w ** j for (i, j), c in p.terms.items()), Fraction(0))
        # an empty polynomial sums to the int 0
        assert isinstance(got, Fraction) or not p.terms


class TestSigma:
    def test_monomial(self):
        assert LaurentPoly2.monomial(2, -1).sigma() == LaurentPoly2.monomial(-2, 1)

    def test_fixture_invariant(self):
        P = fixture_P()
        assert P.sigma() == P

    @given(small_polys())
    @settings(max_examples=30, deadline=None)
    def test_involution(self, p):
        assert p.sigma().sigma() == p

    @given(small_polys(), small_polys())
    @settings(max_examples=30, deadline=None)
    def test_multiplicative(self, p, q):
        assert (p * q).sigma() == p.sigma() * q.sigma()


def gadget_kasteleyn(case):
    """Exact and float Kasteleyn matrices of a gadget dimer graph: for case
    12, honeycomb 2x1 with six fixed x (12 whites); for 16, square 2x2 with
    Pythagorean couplings of seed 3 (16 whites); else the lattice case names,
    as "square 2x1", with Pythagorean couplings in either order seeded by the
    name."""
    if case == 12:
        g = lattices.honeycomb(2, 1)
        x = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7),
             Fraction(1, 4), Fraction(3, 5)]
        couplings = {e: make_coupling(x=v) for e, v in zip(g.edges(), x)}
    elif case == 16:
        g = lattices.square(2, 2)
        couplings = pythagorean_couplings(g, 3)
    else:
        g = named_lattice(case)
        couplings = pythagorean_couplings(g, case, swap=True)
    gd, wt, _ = to_dimer(IsingModel(g, couplings))
    _, kappa = solve_kasteleyn_signs(gd)[0]
    K = kasteleyn_matrix(gd, wt, kappa)
    if isinstance(case, int):
        assert len(K.rows) == case
    return K, kasteleyn_matrix(gd, {e: float(v) for e, v in wt.items()}, kappa)


def _matrix(rows, cols, grid):
    entries = {}
    for r, row in zip(rows, grid):
        for c, v in zip(cols, row):
            entries[(r, c)] = v if isinstance(v, LaurentPoly2) else LaurentPoly2.const(v)
    return LaurentMatrix(rows, cols, entries)


def _matmul(a, b):
    """The product a b of Laurent matrices, entry by entry: the reference
    side of the identity m adj(m) = adj(m) m = det(m) I."""
    assert a.cols == b.rows
    return LaurentMatrix(a.rows, b.cols, {
        (r, c): sum((a[(r, k)] * b[(k, c)] for k in a.cols), LaurentPoly2.zero())
        for r in a.rows for c in b.cols})


def _exact(m):
    """The float matrix m with its entries made exact Fractions."""
    return LaurentMatrix(m.rows, m.cols, {
        rc: LaurentPoly2({ij: Fraction(c) for ij, c in e.terms.items()})
        for rc, e in m.entries.items()})


def _assert_line_close(got, want):
    """A numeric line of adj against the exact one: the same labels and
    supports, float coefficients, and each coefficient within 1e-12 of the
    entry's largest one."""
    assert list(got) == list(want)
    for c in want:
        assert set(got[c].terms) == set(want[c].terms)
        assert all(isinstance(v, float) for v in got[c].terms.values())
        scale = max((abs(v) for v in want[c].terms.values()), default=0)
        for ij, v in want[c].terms.items():
            assert abs(got[c].terms[ij] - float(v)) <= 1e-12 * float(scale)


def _assert_column_close(m, r):
    """Adjugate column r (lm_adjugate_lines) of the float matrix m against
    Bareiss minors of m with its entries made exact Fractions: the same
    support, and each coefficient within 1e-12 of the entry's largest one.
    Returns the column."""
    got = lm_adjugate_lines(m, [r])[0][0]
    _assert_line_close(got, lm_adjugate_lines(_exact(m), [r])[0][0])
    return got


class TestDeterminant:
    def test_2x2(self):
        a, b, c, d = (Fraction(k) for k in (2, 3, 5, 7))
        m = _matrix("rs", "cd", [[a, b], [c, d]])
        assert lm_determinant(m) == LaurentPoly2.const(a * d - b * c)

    def test_identity(self):
        m = _matrix("rs", "cd", [[1, 0], [0, 1]])
        assert lm_determinant(m) == ONE

    def test_non_square_rejected(self):
        m = _matrix("r", "cd", [[1, 2]])
        with pytest.raises(DimensionError):
            lm_determinant(m)

    @pytest.mark.parametrize("case", [12, 16] + [f"{kind} {size}" for size in ("1x1", "2x1", "2x2")
                                                 for kind in ("square", "honeycomb")])
    def test_exact_and_numeric_agree_on_gadget_graphs(self, case):
        K, Kn = gadget_kasteleyn(case)
        P, Pn = lm_determinant(K), lm_determinant(Kn)
        assert set(Pn.terms) == set(P.terms)
        assert all(isinstance(c, float) for c in Pn.terms.values())
        for ij, c in P.terms.items():
            assert abs(Pn.terms[ij] - float(c)) <= 1e-9 * abs(float(c))

    def test_paper_kasteleyn_matrix(self):
        s1, c1 = Fraction(4, 5), Fraction(3, 5)
        s2, c2 = Fraction(12, 13), Fraction(5, 13)
        zw = LaurentPoly2.monomial(1, -1)
        w = LaurentPoly2.monomial(0, 1)
        zinv = LaurentPoly2.monomial(-1, 0)
        m = _matrix("1234", "abcd", [
            [c2, s2, 0, zw],
            [s2, -c2, 1, 0],
            [0, w, -s1, c1],
            [zinv, 0, c1, s1],
        ])
        assert lm_determinant(m) == fixture_P()

    def test_bareiss_matches_fraction_gauss(self):
        import random
        rng = random.Random(5)
        n = 9
        grid = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        m = _matrix(range(n), range(n), grid)
        det = lm_determinant(m)
        # independent oracle: fraction Gaussian elimination
        a = [row[:] for row in grid]
        sign = 1
        acc = Fraction(1)
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k] != 0), None)
            if piv is None:
                acc = Fraction(0)
                break
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            acc *= a[k][k]
            for i in range(k + 1, n):
                f = a[i][k] / a[k][k]
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
        assert det == LaurentPoly2.const(sign * acc)


# zero pivot with a row swap, two swaps, a zero row, n = 1, negative
# exponents and denominators that differ within a row
SWAP = [[LaurentPoly2.zero(), LaurentPoly2({(1, -1): Fraction(2, 3)})],
        [LaurentPoly2({(-1, 0): Fraction(5, 7), (0, 0): Fraction(1, 2)}),
         LaurentPoly2.const(Fraction(3, 4))]]
TWO_SWAPS = [[LaurentPoly2.zero(), LaurentPoly2.zero(), LaurentPoly2.const(Fraction(1, 6))],
             [LaurentPoly2.zero(), LaurentPoly2({(0, -2): Fraction(2, 9)}), ONE],
             [LaurentPoly2({(1, 1): Fraction(-3, 5)}), LaurentPoly2.const(Fraction(4)), Z]]
ZERO_ROW = [[Z, W], [LaurentPoly2.zero(), LaurentPoly2.zero()]]
ONE_BY_ONE = [[LaurentPoly2({(-2, 1): Fraction(7, 3), (0, -1): Fraction(-1, 8)})]]


def kernel_examples(test):
    """The grids above as Hypothesis examples of a kernel property."""
    for grid in (SWAP, TWO_SWAPS, ZERO_ROW, ONE_BY_ONE):
        test = example(grid)(test)
    return test


def _grid_matrix(grid):
    n = len(grid)
    return _matrix(range(n), range(n), grid)


class TestIntegerKernel:
    @given(laurent_grids())
    @kernel_examples
    @settings(max_examples=60, deadline=None)
    def test_det_equals_fraction_reference(self, grid):
        assert lm_determinant(_grid_matrix(grid)) == reference_det_bareiss(grid)

    @given(laurent_grids(3))
    @kernel_examples
    @settings(max_examples=40, deadline=None)
    def test_adjugate_column_equals_fraction_reference(self, grid):
        m = _grid_matrix(grid)
        n = len(grid)
        for i in range(n):
            col = lm_adjugate_lines(m, [i])[0][0]
            assert col == {j: reference_minor(grid, i, j) for j in range(n)}

    def test_examples_need_swaps(self):
        assert lm_determinant(_grid_matrix(SWAP)) == \
            LaurentPoly2({(0, -1): Fraction(-10, 21), (1, -1): Fraction(-1, 3)})
        assert lm_determinant(_grid_matrix(TWO_SWAPS)) == \
            LaurentPoly2({(1, -1): Fraction(1, 45)})
        assert lm_determinant(_grid_matrix(ZERO_ROW)).is_zero()

    def test_honeycomb_2x2(self):
        # n = 24, Pythagorean couplings: the determinant against the
        # reference, and the adjugate identity of one column
        g = lattices.honeycomb(2, 2)
        x = [Fraction(k, k + 2) for k in range(1, 13)]
        gd, wt, _ = to_dimer(IsingModel(g, {e: make_coupling(x=v) for e, v in zip(g.edges(), x)}))
        _, kappa = solve_kasteleyn_signs(gd)[0]
        K = kasteleyn_matrix(gd, wt, kappa)
        assert len(K.rows) == 24
        grid = [[K[(r, c)] for c in K.cols] for r in K.rows]
        det = lm_determinant(K)
        assert det == reference_det_bareiss(grid)
        r = K.rows[7]
        col = lm_adjugate_lines(K, [r])[0][0]
        for rr in K.rows:
            acc = LaurentPoly2.zero()
            for c in K.cols:
                acc = acc + K[(rr, c)] * col[c]
            assert acc == (det if rr == r else LaurentPoly2.zero())


class TestElimination:
    """The exact determinant and adjugate lines from one kept elimination,
    against the minors: each entry its own Bareiss determinant."""

    @given(ranked_int_matrices())
    @example(_grid_matrix([[ONE, ONE, ONE], [ONE, ONE, ONE], [Z, W, ONE]]))
    @example(_grid_matrix([[LaurentPoly2.zero()] * 2, [LaurentPoly2.zero(), Z]]))
    @example(_grid_matrix([[LaurentPoly2.zero()] * 2] * 2))
    @settings(max_examples=150, deadline=None)
    def test_lines_equal_minors(self, m):
        want_cols, want_rows = minors_lines(m, m.rows, m.cols)
        assert lm_adjugate_lines(m, m.rows, m.cols) == (want_cols, want_rows)
        assert lm_adjugate(m).entries == {(c, r): col[c] for r, col in zip(m.rows, want_cols)
                                          for c in m.cols}
        a = [[m[(r, c)] for c in m.cols] for r in m.rows]
        rows, scales = _int_rows(a)
        assert lm_determinant(m) == _from_int(reference_det_int(rows), math.prod(scales))

    @given(laurent_grids(4))
    @kernel_examples
    @settings(max_examples=40, deadline=None)
    def test_rational_lines_equal_minors(self, grid):
        # denominators that differ within a row: each entry's own rescaling
        m = _grid_matrix(grid)
        cols, rows = lm_adjugate_lines(m, m.rows[::-1], m.cols[1:])
        assert (cols, rows) == minors_lines(m, m.rows[::-1], m.cols[1:])

    def test_rank_is_kept(self):
        # rank n - 1: det 0 and a nonzero adjugate; rank n - 2: adjugate 0
        for grid, rank in (([[1, 2, 3], [2, 4, 6], [Z, W, 1]], 2),
                           ([[Z, W, 1], [2 * Z, 2 * W, 2], [-1 * Z, -1 * W, -1]], 1)):
            m = _matrix("abc", "xyz", grid)
            assert m.elimination()[0].rank == rank
            cols, rows = lm_adjugate_lines(m, m.rows, m.cols)
            assert (cols, rows) == minors_lines(m, m.rows, m.cols)
            assert any(not e.is_zero() for line in cols for e in line.values()) == (rank == 2)

    @pytest.mark.parametrize("case", [16, "honeycomb 2x2"])
    def test_gadget_kasteleyn(self, case):
        K = gadget_kasteleyn(case)[0]
        n = len(K.rows)
        assert n == {16: 16, "honeycomb 2x2": 24}[case]
        rs, cs = [K.rows[0], K.rows[n // 3]], [K.cols[1], K.cols[-1]]
        assert lm_adjugate_lines(K, rs, cs) == minors_lines(K, rs, cs)
        a = [[K[(r, c)] for c in K.cols] for r in K.rows]
        rows, scales = _int_rows(a)
        assert lm_determinant(K) == _from_int(reference_det_int(rows), math.prod(scales))

    def test_one_elimination_per_matrix(self, monkeypatch):
        # det and any columns and rows of one exact matrix: one elimination,
        # of the whole matrix, whatever is asked and in any order; another
        # matrix makes its own
        import isingdimer.exactalg as exactalg
        sizes, elimination = [], exactalg._Elimination
        monkeypatch.setattr(exactalg, "_Elimination",
                            lambda a: sizes.append(len(a)) or elimination(a))
        for first in ("det", "rows", "columns"):
            K, _ = gadget_kasteleyn(12)
            sizes.clear()
            if first == "rows":
                lm_adjugate_lines(K, (), K.cols[:2])
            elif first == "columns":
                lm_adjugate_lines(K, K.rows[3:5])
            lm_determinant(K)
            lm_adjugate_lines(K, K.rows[:1], K.cols[:1])
            lm_adjugate(K)
            lm_determinant(K)
            assert sizes == [12]
        lm_determinant(gadget_kasteleyn(12)[0])
        assert sizes == [12, 12]
        assert not hasattr(exactalg, "_det_int")


def _sympy_matrix(sympy, grid):
    z, w = sympy.symbols("z w")
    return sympy.Matrix([[sum((sympy.Rational(c.numerator, c.denominator) * z ** i * w ** j
                               for (i, j), c in e.terms.items()), sympy.Integer(0))
                          for e in row] for row in grid]), z, w


def _sympy_poly(sympy, p, z, w):
    return sum((sympy.Rational(c.numerator, c.denominator) * z ** i * w ** j
                for (i, j), c in p.terms.items()), sympy.Integer(0))


class TestAgainstSympy:
    @given(laurent_grids(3))
    @kernel_examples
    @settings(max_examples=25, deadline=None)
    def test_det_and_adjugate(self, grid):
        sympy = pytest.importorskip("sympy")
        M, z, w = _sympy_matrix(sympy, grid)
        m = _grid_matrix(grid)
        det = lm_determinant(m)
        assert sympy.expand(M.det(method="berkowitz") - _sympy_poly(sympy, det, z, w)) == 0
        adj = lm_adjugate(m)
        want = M.adjugate(method="berkowitz")
        n = len(grid)
        for r in range(n):
            for c in range(n):
                got = _sympy_poly(sympy, adj.entries[(r, c)], z, w)
                assert sympy.expand(want[r, c] - got) == 0
        # m adj(m) = adj(m) m = det(m) I
        for prod in (_matmul(m, adj), _matmul(adj, m)):
            for r in range(n):
                for c in range(n):
                    assert prod.entries[(r, c)] == (det if r == c else LaurentPoly2.zero())


class TestAdjugate:
    def test_column_identity_on_gadget_graph(self):
        K, _ = gadget_kasteleyn(12)
        det = lm_determinant(K)
        r = K.rows[5]
        col = lm_adjugate_lines(K, [r])[0][0]
        for rr in K.rows:
            acc = LaurentPoly2.zero()
            for c in K.cols:
                acc = acc + K[(rr, c)] * col[c]
            assert acc == (det if rr == r else LaurentPoly2.zero())

    def test_singular_matrix(self):
        # rank 2: the adjugate is nonzero although det is zero
        m = _matrix("abc", "xyz", [[1, 2, 3], [2, 4, 6], [Z, W, 1]])
        assert lm_determinant(m).is_zero()
        adj = lm_adjugate(m)
        assert adj.entries[("x", "a")] == LaurentPoly2.const(4) - 6 * W
        prod = _matmul(m, adj)
        assert all(v.is_zero() for v in prod.entries.values())

    def test_1x1(self):
        m = _matrix("r", "c", [[Z + W]])
        adj = lm_adjugate(m)
        assert adj.entries[("c", "r")] == ONE

    def test_fixture_entries(self):
        s1, c1 = Fraction(4, 5), Fraction(3, 5)
        s2, c2 = Fraction(12, 13), Fraction(5, 13)
        zw = LaurentPoly2.monomial(1, -1)
        w = LaurentPoly2.monomial(0, 1)
        zinv = LaurentPoly2.monomial(-1, 0)
        m = _matrix(["w1", "w2", "w3", "w4"], ["b1", "b2", "b3", "b4"], [
            [c2, s2, 0, zw],
            [s2, -c2, 1, 0],
            [0, w, -s1, c1],
            [zinv, 0, c1, s1],
        ])
        Q = lm_adjugate(m)
        # displayed entries of the worked example, with symbols instantiated
        assert Q.entries[("b1", "w1")] == LaurentPoly2({(0, 0): c1 * c1 * c2 + c2 * s1 * s1,
                                                        (0, 1): -s1})
        assert Q.entries[("b4", "w3")] == LaurentPoly2({(0, 0): c1 * c2 * c2 + c1 * s2 * s2,
                                                        (-1, 0): -s2})
        assert Q.entries[("b3", "w4")] == LaurentPoly2({(0, 0): c1 * c2 * c2 + c1 * s2 * s2,
                                                        (1, 0): -s2})
        assert Q.entries[("b2", "w2")] == LaurentPoly2({(0, 0): -(c1 * c1 * c2 + c2 * s1 * s1),
                                                        (0, -1): s1})

    @pytest.mark.parametrize("which", ["gadget 12", "fixture"])
    def test_numeric_column_matches_bareiss_minors(self, which):
        # every row: the numeric column against Bareiss minors of the same float
        # matrix with its entries made exact Fractions
        m = fixture_float() if which == "fixture" else gadget_kasteleyn(12)[1]
        for r in m.rows:
            _assert_column_close(m, r)

    def test_numeric_singular_matrix(self):
        m = _matrix("abc", "xyz", [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0],
                                   [LaurentPoly2.monomial(1, 0, 1.0),
                                    LaurentPoly2.monomial(0, 1, 1.0), 1.0]])
        for r in m.rows:
            col = lm_adjugate_lines(m, [r])[0][0]
            for rr in m.rows:
                acc = LaurentPoly2.zero()
                for c in m.cols:
                    acc = acc + m[(rr, c)] * col[c]
                assert all(abs(v) <= 1e-12 for v in acc.terms.values())
        col = lm_adjugate_lines(m, ["a"])[0][0]
        assert set(col["x"].terms) == {(0, 0), (0, 1)}
        assert abs(col["x"].terms[(0, 0)] - 4) <= 1e-12
        assert abs(col["x"].terms[(0, 1)] + 6) <= 1e-12

    def test_numeric_zero_row(self):
        m = _matrix("abc", "xyz", [[1.0, LaurentPoly2.monomial(1, 0, 2.0), 3.0],
                                   [0, 0, 0],
                                   [LaurentPoly2.monomial(0, 1, 1.0), 5.0, 7.0]])
        own = _assert_column_close(m, "b")
        assert own["x"].isclose(LaurentPoly2({(1, 0): -14.0, (0, 0): 15.0}), 1e-12)
        for r in "ac":
            col = lm_adjugate_lines(m, [r])[0][0]
            assert all(abs(v) <= 1e-12 for c in "xyz" for v in col[c].terms.values())

    def test_numeric_one_entry_row(self):
        # row b meets column y only: every minor without column y has a zero
        # row, so those entries of the other columns are zero, as in Bareiss
        m = _matrix("abc", "xyz", [[1.0, LaurentPoly2.monomial(1, 0, 2.0), 3.0],
                                   [0, 4.0, 0],
                                   [LaurentPoly2.monomial(0, 1, 1.0), 5.0, 7.0]])
        for r in m.rows:
            col = _assert_column_close(m, r)
            if r != "b":
                assert col["y"].is_zero()

    def test_numeric_1x1(self):
        m = _matrix("r", "c", [[LaurentPoly2({(1, 0): 2.0, (0, 1): 3.0})]])
        assert lm_adjugate_lines(m, ["r"])[0][0] == {"c": LaurentPoly2.const(1.0)}

    @given(st.lists(rationals(4, 4), min_size=9, max_size=9))
    @settings(max_examples=20, deadline=None)
    def test_defining_identity_3x3(self, vals):
        grid = [vals[0:3], vals[3:6], vals[6:9]]
        m = _matrix("abc", "xyz", grid)
        adj = lm_adjugate(m)
        det = lm_determinant(m)
        prod = _matmul(m, adj)
        for r in "abc":
            for c in "abc":
                expect = det if r == c else LaurentPoly2.zero()
                assert prod.entries[(r, c)] == expect


def fixture_float():
    """The Kasteleyn matrix of the worked example with float entries."""
    s1, c1, s2, c2 = 0.8, 0.6, 12 / 13, 5 / 13
    return _matrix("1234", "abcd", [
        [c2, s2, 0.0, LaurentPoly2.monomial(1, -1, 1.0)],
        [s2, -c2, 1.0, 0.0],
        [0.0, LaurentPoly2.monomial(0, 1, 1.0), -s1, c1],
        [LaurentPoly2.monomial(-1, 0, 1.0), 0.0, c1, s1],
    ])


def honeycomb22_float():
    """The float Kasteleyn matrix of the honeycomb 2x2 gadget graph (n = 24)."""
    g = lattices.honeycomb(2, 2)
    x = [Fraction(k, k + 2) for k in range(1, 13)]
    gd, wt, _ = to_dimer(IsingModel(g, {e: make_coupling(x=v) for e, v in zip(g.edges(), x)}))
    _, kappa = solve_kasteleyn_signs(gd)[0]
    return kasteleyn_matrix(gd, {e: float(v) for e, v in wt.items()}, kappa)


def square22_critical_float():
    """The float Kasteleyn matrix of class (1, 1) of the square 2x2 gadget
    graph (n = 16) at the uniform critical coupling J_c = ln(1 + sqrt 2) / 2,
    where K(1, 1) has corank 2 up to rounding."""
    g = lattices.square(2, 2)
    jc = 0.5 * math.log(1 + math.sqrt(2))
    gd, wt, _ = to_dimer(IsingModel(g, {e: make_coupling(J=jc) for e in g.edges()}))
    label, kappa = solve_kasteleyn_signs(gd)[0]
    assert label == (1, 1)
    return kasteleyn_matrix(gd, wt, kappa)


class TestAdjugateLines:
    """The numeric engine: columns and rows of adj m from one sample grid."""

    def assert_lines(self, m, pairs):
        """For each (row label r, column label c) of m: column r and row c of
        adj m from one lm_adjugate_lines call, against Bareiss minors of the
        same matrix made exact."""
        rs, cs = list(dict.fromkeys(r for r, _ in pairs)), list(dict.fromkeys(c for _, c in pairs))
        want_cols, want_rows = lm_adjugate_lines(_exact(m), rs, cs)
        want_cols, want_rows = dict(zip(rs, want_cols)), dict(zip(cs, want_rows))
        for r, c in pairs:
            (col,), (row,) = lm_adjugate_lines(m, [r], [c])
            _assert_line_close(col, want_cols[r])
            _assert_line_close(row, want_rows[c])

    @pytest.mark.parametrize("which", ["fixture", "gadget 12"])
    def test_every_pair_matches_bareiss(self, which):
        m = fixture_float() if which == "fixture" else gadget_kasteleyn(12)[1]
        self.assert_lines(m, [(r, c) for r in m.rows for c in m.cols])

    def test_honeycomb_2x2(self):
        m = honeycomb22_float()
        assert len(m.rows) == 24
        self.assert_lines(m, [(m.rows[0], m.cols[0]), (m.rows[7], m.cols[13])])

    def test_several_lines_at_once(self):
        _, m = gadget_kasteleyn(12)
        cols, rows = lm_adjugate_lines(m, m.rows[:3], m.cols[4:6])
        assert cols == [lm_adjugate_lines(m, [r])[0][0] for r in m.rows[:3]]
        assert rows == [lm_adjugate_lines(m, (), [c])[1][0] for c in m.cols[4:6]]
        assert lm_adjugate_lines(m) == ([], [])

    def test_row_rule(self):
        # row b meets column y only: the minors of every other row without
        # column y keep row b and lose its only entry
        z, w = LaurentPoly2.monomial(1, 0, 2.0), LaurentPoly2.monomial(0, 1, 1.0)
        m = _matrix("abc", "xyz", [[1.0, z, 3.0], [0.0, 4.0, 0.0], [w, 5.0, 7.0]])
        self.assert_lines(m, [(r, c) for r in m.rows for c in m.cols])
        (col,), (row,) = lm_adjugate_lines(m, ["a"], ["y"])
        assert col["y"].is_zero() and row["a"].is_zero() and not row["b"].is_zero()

    def test_column_rule(self):
        # column y meets row b only: the minors without row b keep column y
        # and lose its only entry
        z, w = LaurentPoly2.monomial(1, 0, 2.0), LaurentPoly2.monomial(0, 1, 1.0)
        m = _matrix("abc", "xyz", [[1.0, 0.0, 3.0], [w, 4.0, 5.0], [7.0, 0.0, z]])
        self.assert_lines(m, [(r, c) for r in m.rows for c in m.cols])
        (col,), (row,) = lm_adjugate_lines(m, ["b"], ["x"])
        assert col["x"].is_zero() and col["z"].is_zero() and not col["y"].is_zero()
        assert row["b"].is_zero()

    @pytest.mark.parametrize("zero", ["row", "column"])
    def test_zero_line(self, zero):
        z, w = LaurentPoly2.monomial(1, 0, 2.0), LaurentPoly2.monomial(0, 1, 1.0)
        grid = [[1.0, z, 3.0], [0.0, 0.0, 0.0], [w, 5.0, 7.0]]
        if zero == "column":
            grid = [list(r) for r in zip(*grid)]
        m = _matrix("abc", "xyz", grid)
        self.assert_lines(m, [(r, c) for r in m.rows for c in m.cols])

    def test_rank_n_minus_1(self):
        # det m = 0 for all z, w, adj m = r (x) l is not; the minors of the
        # two proportional rows vanish to rounding only (no zero line)
        z, w = LaurentPoly2.monomial(1, 0, 1.0), LaurentPoly2.monomial(0, 1, 1.0)
        m = _matrix("abc", "xyz", [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [z, w, 1.0]])
        cols, rows = lm_adjugate_lines(m, m.rows, m.cols)
        want_cols, want_rows = lm_adjugate_lines(_exact(m), m.rows, m.cols)
        for got, want in zip(cols + rows, want_cols + want_rows):
            assert list(got) == list(want)
            for k in want:
                assert all(abs(v) <= 1e-12 for v in (got[k] - want[k].to_numeric()).terms.values())
        assert not cols[0]["x"].is_zero() and not rows[2]["b"].is_zero()

    def test_near_singular_sample(self):
        # the sample at z = w = 1 is singular to working precision; Bareiss
        # on the same floats leaves rounding residue (below 1e-15 of the
        # entry) where the numeric read-out drops a term, so every
        # coefficient is compared, a term absent on one side counting as 0,
        # within the tolerance of _assert_line_close
        m = square22_critical_float()
        at_one = np.array([[m[(r, c)].eval(1.0, 1.0) for c in m.cols] for r in m.rows])
        assert np.linalg.cond(at_one) > 1e12
        pairs = [(m.rows[0], m.cols[0]), (m.rows[5], m.cols[11]), (m.rows[15], m.cols[3])]
        rs, cs = [r for r, _ in pairs], [c for _, c in pairs]
        got_cols, got_rows = lm_adjugate_lines(m, rs, cs)
        want_cols, want_rows = lm_adjugate_lines(_exact(m), rs, cs)
        for got, want in zip(got_cols + got_rows, want_cols + want_rows):
            assert list(got) == list(want)
            for c in want:
                scale = float(max((abs(v) for v in want[c].terms.values()), default=0))
                assert scale > 0
                for ij in set(got[c].terms) | set(want[c].terms):
                    diff = got[c].terms.get(ij, 0.0) - float(want[c].terms.get(ij, 0))
                    assert abs(diff) <= 1e-12 * scale

    def test_rank_n_minus_2(self):
        # rank 1 at every sample: adj m is 0 up to rounding
        z, w = LaurentPoly2.monomial(1, 0, 1.0), LaurentPoly2.monomial(0, 1, 1.0)
        m = _matrix("abc", "xyz", [[z, w, 1.0], [2.0 * z, 2.0 * w, 2.0],
                                   [-1.0 * z, -1.0 * w, -1.0]])
        cols, rows = lm_adjugate_lines(m, m.rows, m.cols)
        assert all(abs(v) <= 1e-12 for line in cols + rows for e in line.values()
                   for v in e.terms.values())

    @pytest.mark.parametrize("entry", [LaurentPoly2({(1, 0): 2.0, (0, 1): 3.0}),
                                       LaurentPoly2({(0, -2): -0.5})])
    def test_1x1(self, entry):
        m = LaurentMatrix("r", "c", {("r", "c"): entry})
        (col,), (row,) = lm_adjugate_lines(m, ["r"], ["c"])
        assert col["c"].terms == row["r"].terms == {(0, 0): 1.0}
        assert isinstance(col["c"].terms[(0, 0)], float)

    @pytest.mark.parametrize("which", ["fixture", "gadget 12"])
    def test_numeric_lm_adjugate(self, which):
        m = fixture_float() if which == "fixture" else gadget_kasteleyn(12)[1]
        adj, want = lm_adjugate(m), lm_adjugate(_exact(m))
        assert adj.rows == want.rows == m.cols and adj.cols == want.cols == m.rows
        for c in m.cols:
            _assert_line_close({r: adj[(c, r)] for r in m.rows},
                               {r: want[(c, r)] for r in m.rows})
        # m adj(m) = det(m) I, to rounding
        det = lm_determinant(m)
        top = max(abs(v) for v in det.terms.values())
        prod = _matmul(m, adj)
        for r in m.rows:
            for rr in m.rows:
                diff = prod[(r, rr)] - (det if r == rr else LaurentPoly2.zero())
                assert all(abs(v) <= 1e-11 * top for v in diff.terms.values())

    def test_one_grid_per_lm_adjugate(self, monkeypatch):
        # one grid per matrix: the determinant and every later call of the
        # same matrix read the grid of the first; another matrix builds its own
        import isingdimer.exactalg as exactalg
        calls = []
        grid = exactalg._sample_grid
        monkeypatch.setattr(exactalg, "_sample_grid", lambda a: calls.append(a) or grid(a))
        _, m = gadget_kasteleyn(12)
        lm_adjugate(m)
        assert len(calls) == 1
        lm_adjugate_lines(m, m.rows[:2], m.cols[:2])
        lm_determinant(m)
        assert len(calls) == 1
        lm_determinant(gadget_kasteleyn(12)[1])
        assert len(calls) == 2

    def test_shared_grid_is_read_only(self):
        m = honeycomb22_float()
        grid = m.samples()[0]
        before = grid.copy()
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0, 0, 0] = 1.0
        lm_adjugate_lines(m, m.rows, m.cols[:3])
        lm_determinant(m)
        assert m.samples()[0] is grid
        assert grid.tobytes() == before.tobytes()


def reference_sample_grid(a):
    """The sample grid of _sample_grid made by one numpy pass per term:
    each cell the sum, in term order, of coef * roots_z^(a (i - lo)) *
    roots_w^(b (j - lo)) over the grid's pairs (a, b)."""
    n = len(a)
    lows, spans = [], []
    for row in a:
        support = [ij for e in row for ij in e.terms] or [(0, 0)]
        lo = [min(ij[k] for ij in support) for k in (0, 1)]
        lows.append(lo)
        spans.append([max(ij[k] for ij in support) - lo[k] for k in (0, 1)])
    nz, nw = (sum(s[k] for s in spans) + 1 for k in (0, 1))
    roots_z = np.exp(2j * np.pi * np.arange(nz) / nz)
    roots_w = np.exp(2j * np.pi * np.arange(nw) / nw)
    az, bw = np.arange(nz)[:, None], np.arange(nw)[None, :]
    grid = np.zeros((nz, nw, n, n), dtype=complex)
    for r, (row, (zlo, wlo)) in enumerate(zip(a, lows)):
        for c, e in enumerate(row):
            for (i, j), coef in e.terms.items():
                grid[:, :, r, c] += (complex(coef) * roots_z[az * (i - zlo) % nz]
                                     * roots_w[bw * (j - wlo) % nw])
    real = all(isinstance(c, float) for row in a for e in row for c in e.terms.values())
    return grid, lows, real


def reference_interpolate(values, shifts, real):
    """The read-out of _interpolate made polynomial by polynomial, one
    np.nonzero and one scalar index per kept term."""
    nz, nw, _ = values.shape
    coeffs = np.fft.fft2(values, axes=(0, 1)) / (nz * nw)
    mags = np.abs(coeffs)
    keep = mags > NUMERIC_ZERO_TOL * mags.max(axis=(0, 1))
    return [LaurentPoly2({(x + dz, y + dw): float(coeffs[x, y, t].real) if real
                          else complex(coeffs[x, y, t]) for x, y in zip(*np.nonzero(keep[..., t]))})
            for t, (dz, dw) in enumerate(shifts)]


def assert_same_grid(m):
    """m.samples() against reference_sample_grid on the rows of m: equal
    arrays, bit for bit, and equal row shifts and float flags."""
    grid, lows, real = m.samples()
    want, want_lows, want_real = reference_sample_grid(
        [[m[(r, c)] for c in m.cols] for r in m.rows])
    assert np.array_equal(grid, want) and grid.tobytes() == want.tobytes()
    assert (lows, real) == (want_lows, want_real)


def checked_read_out(mp):
    """Patch _interpolate, on the pytest.MonkeyPatch mp, with one that also
    runs reference_interpolate and asserts the same term dicts, keys in the
    same order. Returns the list of checked calls."""
    import isingdimer.exactalg as exactalg
    interpolate, calls = exactalg._interpolate, []

    def checked(values, shifts, real):
        got = interpolate(values, shifts, real)
        want = reference_interpolate(values, shifts, real)
        assert [list(p.terms.items()) for p in got] == [list(p.terms.items()) for p in want]
        calls.append(len(shifts))
        return got

    mp.setattr(exactalg, "_interpolate", checked)
    return calls


@st.composite
def numeric_matrices(draw):
    """Square Laurent matrices up to 6x6 whose coefficients are all floats,
    all complex or all Fractions, up to three terms in a cell, exponents
    from -2 to 2, and maybe one zero row."""
    n = draw(st.integers(1, 6))
    coeff = draw(st.sampled_from([
        st.floats(-9, 9, allow_nan=False).filter(bool),
        st.builds(complex, st.floats(-9, 9), st.floats(-9, 9)).filter(bool),
        rationals().filter(bool)]))
    pairs = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    cell = st.dictionaries(pairs, coeff, max_size=3).map(LaurentPoly2)
    grid = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    zero = draw(st.none() | st.integers(0, n - 1))
    if zero is not None:
        grid[zero] = [LaurentPoly2.zero()] * n
    return _matrix(range(n), range(n), grid)


class TestSampleKernels:
    """The scatter that builds a matrix's sample grid and the one-pass FFT
    read-out, against their per-term and per-polynomial references."""

    @pytest.mark.parametrize("lattice", ["honeycomb 1x1", "square 2x1", "honeycomb 2x1",
                                         "square 2x2", "honeycomb 2x2"])
    def test_ladder_kasteleyn_matrices(self, lattice):
        from test_spectral import ladder_dimer
        g, wt, _, kappa, _ = ladder_dimer(lattice, 3)
        m = kasteleyn_matrix(g, wt, kappa)
        assert_same_grid(m)
        with pytest.MonkeyPatch.context() as mp:
            calls = checked_read_out(mp)
            lm_determinant(m)
            lm_adjugate_lines(m, m.rows[:2], m.cols[-1:])
        assert calls == [1, 3 * len(m.rows)]

    def test_numeric_sylvester_matrix(self):
        # the resultant of P and an adjugate entry: cells of several terms
        import isingdimer.exactalg as exactalg
        from test_spectral import ladder_dimer
        g, wt, _, kappa, white = ladder_dimer("square 2x1", 3)
        K = kasteleyn_matrix(g, wt, kappa)
        P = lm_determinant(K)
        e = max(lm_adjugate_lines(K, [white])[0][0].values(), key=lambda e: len(e.terms))
        seen, det = [], exactalg.lm_determinant
        with pytest.MonkeyPatch.context() as mp:
            calls = checked_read_out(mp)
            mp.setattr(exactalg, "lm_determinant", lambda m: seen.append(m) or det(m))
            resultant_eliminate(P, e)
        (m,) = seen
        assert calls == [1]
        assert max(len(c.terms) for c in m.entries.values()) > 1
        assert_same_grid(m)

    @settings(max_examples=50, deadline=None)
    @given(numeric_matrices())
    def test_random_matrices(self, m):
        assert_same_grid(m)
        if not all(e.exact for e in m.entries.values()):
            with pytest.MonkeyPatch.context() as mp:
                calls = checked_read_out(mp)
                lm_determinant(m)
                lm_adjugate_lines(m, m.rows, m.cols)
            assert calls == [1, 2 * len(m.rows) ** 2]

    def test_sample_with_an_unflagged_zero_pivot(self):
        # a zero row: on the sample at w = -1 the LU leaves an exact zero
        # pivot unflagged, and numpy's det gave nan there, with warnings
        # (found by test_random_matrices)
        m = _matrix(range(4), range(4), [[0.0, 0.0, 0.0, 0.0], [1e-300, 0.0, 0.0, 1.0],
                                         [1.0, 1.0, LaurentPoly2({(0, -1): 4.0}), 0.0],
                                         [1.0, 0.0, 0.0, 0.0]])
        assert lm_determinant(m).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 4), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def test_read_out_of_random_samples(self, nz, nw, k, real, seed):
        # coefficients from 1e-14 to 1 of the largest: the cut at 1e-10
        # drops some terms of some polynomials
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=(nz, nw, k)) + 1j * rng.normal(size=(nz, nw, k))
        coeffs *= 10.0 ** rng.uniform(-14, 0, size=(nz, nw, k))
        values = np.fft.ifft2(coeffs, axes=(0, 1)) * (nz * nw)
        shifts = [tuple(map(int, rng.integers(-3, 4, 2))) for _ in range(k)]
        got = _interpolate(values, shifts, real)
        want = reference_interpolate(values, shifts, real)
        assert [list(p.terms.items()) for p in got] == [list(p.terms.items()) for p in want]


class TestNewtonPolygon:
    def test_fixture_square(self):
        np_ = newton_polygon(fixture_P())
        assert np_.vertices == [(-1, 0), (0, -1), (1, 0), (0, 1)]
        assert np_.twice_area == 4
        assert np_.genus == 1

    def test_single_monomial(self):
        np_ = newton_polygon(LaurentPoly2.monomial(3, 1))
        assert np_.vertices == [(3, 1)]
        assert np_.genus == 0

    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=9))
    @settings(max_examples=200, deadline=None)
    def test_genus_counts_interior_points(self, pts):
        # Pick's theorem against a scan of the bounding box for points
        # strictly left of every ccw side
        np_ = newton_polygon(LaurentPoly2({p: 1 for p in pts}))
        v = np_.vertices
        sides = list(zip(v, v[1:] + v[:1])) if len(v) >= 3 else []
        xs, ys = [x for x, _ in v], [y for _, y in v]
        inside = sum(all((b[0] - a[0]) * (y - a[1]) > (b[1] - a[1]) * (x - a[0])
                         for a, b in sides)
                     for x in range(min(xs), max(xs) + 1)
                     for y in range(min(ys), max(ys) + 1)) if sides else 0
        assert np_.genus == inside
        assert np_.twice_area == abs(sum(a[0] * b[1] - b[0] * a[1] for a, b in sides))

    def test_triangle(self):
        np_ = newton_polygon(ONE + Z + W)
        assert set(np_.vertices) == {(0, 0), (1, 0), (0, 1)}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            newton_polygon(LaurentPoly2.zero())

    def test_primitive_sides(self):
        np_ = newton_polygon(fixture_P())
        assert all(k == 1 for _, k in np_.sides)
        assert sorted(v for v, _ in np_.sides) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    @given(small_polys(), small_polys())
    @settings(max_examples=30, deadline=None)
    def test_minkowski(self, p, q):
        if p.is_zero() or q.is_zero() or (p * q).is_zero():
            return
        np1 = newton_polygon(p)
        np2 = newton_polygon(q)
        minkowski = [(x1 + x2, y1 + y2) for x1, y1 in np1.vertices for x2, y2 in np2.vertices]
        assert newton_polygon(p * q).vertices == NewtonPolygon(minkowski).vertices


class TestResultant:
    def test_linear(self):
        a, b = Fraction(3, 7), Fraction(5, 2)
        p = W - LaurentPoly2.const(a)
        q = W - LaurentPoly2.const(b)
        assert resultant_eliminate(p, q) == [a - b]

    def test_missing_power_is_zero(self):
        # Res_w(w - z^2, w - 1) = z^2 - 1, low to high, the z^1 place a Fraction 0
        res = resultant_eliminate(W - Z * Z, W - ONE)
        assert res == [-1, 0, 1] and type(res[1]) is Fraction

    def test_self_resultant_zero(self):
        p = W * W - Z
        assert resultant_eliminate(p, p) == []

    def test_both_constant_rejected(self):
        with pytest.raises(ValueError, match="both inputs constant in w"):
            resultant_eliminate(ONE, ONE + ONE)

    def test_fixture_divisor_root(self):
        # Res_w(P, b1-row w2-column adjugate entry) has z = 13/20 as a root
        P = fixture_P()
        entry = LaurentPoly2({(0, 0): Fraction(3, 5), (1, 0): Fraction(-12, 13)})
        res = resultant_eliminate(P, entry)
        z0 = Fraction(13, 20)
        assert sum(c * z0 ** k for k, c in enumerate(res)) == 0


class TestRationalArithmetic:
    @given(rationals(50, 50), rationals(50, 50))
    @settings(max_examples=50, deadline=None)
    def test_exactness(self, a, b):
        assert (a + b) - a == b


class TestDivexact:
    @given(int_polys(), int_polys(min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_product_division(self, p, q):
        prod = _mul_sub(p, q)
        assert _divider(q)(prod) == p
        assert _divider(q)(_mul_sub(p, q, (q, p))) == {}

    @given(int_polys(), int_polys(min_size=1), st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
           st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_non_divisible_raises(self, p, q, ij, c):
        # p*q plus a monomial c*z^i*w^j: q with two or more terms divides no
        # monomial, and a monomial q divides it only if its coefficient
        # divides c, so q is scaled to make sure it does not
        if len(q) == 1:
            q = {k: 9 * v for k, v in q.items()}
        prod = _mul_sub(p, q)
        prod[ij] = prod.get(ij, 0) + c
        prod = {k: v for k, v in prod.items() if v}
        with pytest.raises(ArithmeticError):
            _divider(q)(prod)

    def test_examples(self):
        # z^2 - w^2 = (z - w)(z + w); 2z + 1 is not divisible by 2 over Z,
        # z + 1 not by z + 2, z^-1 + w not by z - w
        assert _divider({(1, 0): 1, (0, 1): -1})({(2, 0): 1, (0, 2): -1}) == \
            {(1, 0): 1, (0, 1): 1}
        assert _divider({(0, 0): 3})({(1, -1): 6, (0, 0): -3}) == {(1, -1): 2, (0, 0): -1}
        for p, d in (({(1, 0): 2, (0, 0): 1}, {(0, 0): 2}),
                     ({(1, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): 2}),
                     ({(-1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1})):
            with pytest.raises(ArithmeticError):
                _divider(d)(dict(p))


class TestSerialization:
    def test_fixture_string(self):
        assert fixture_P().canonical_str() == \
            "2 - 4/13*w - 4/13*w^-1 - 36/65*z - 36/65*z^-1"

    def test_zero(self):
        assert LaurentPoly2.zero().canonical_str() == "0"

    def test_unit_coefficients(self):
        p = LaurentPoly2({(1, 0): 1, (0, 1): -1, (2, 3): Fraction(1, 2)})
        assert p.canonical_str() == "-w + z + 1/2*z^2*w^3"
