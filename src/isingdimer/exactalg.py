"""Exact algebra kernels: rationals, two-variable Laurent polynomials,
small Laurent-entry matrices, lattice Newton polygons and resultants.

Coefficients are either `fractions.Fraction` (exact mode) or Python
floats/complex (numeric mode). A mode is uniform within any one value;
mixing modes in a binary operation raises `ModeError`.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

NUMERIC_ZERO_TOL = 1e-10


class ModeError(TypeError):
    """Raised when exact and numeric coefficients are mixed."""


class DimensionError(ValueError):
    """Raised for non-square matrices or mismatched labels."""


def is_exact_scalar(c):
    return isinstance(c, (int, Fraction))


def as_coeff(c):
    """Normalize a scalar into an admissible coefficient."""
    if isinstance(c, bool):
        raise TypeError("bool is not a coefficient")
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, (Fraction, float, complex)):
        return c
    raise TypeError(f"unsupported coefficient type {type(c)!r}")


def format_coeff(c):
    """Render a coefficient: exact as p/q, numeric with 12 significant digits."""
    if isinstance(c, Fraction):
        return str(c)
    if isinstance(c, complex):
        return f"({c.real:.12g}{c.imag:+.12g}j)"
    return f"{c:.12g}"


def _mono_str(i, j):
    parts = []
    if i == 1:
        parts.append("z")
    elif i != 0:
        parts.append(f"z^{i}")
    if j == 1:
        parts.append("w")
    elif j != 0:
        parts.append(f"w^{j}")
    return "*".join(parts)


def _term_sort_key(ij):
    i, j = ij
    return (abs(i), i < 0, abs(j), j < 0)


class LaurentPoly2:
    """A Laurent polynomial in z, w: a finite map (i, j) -> nonzero coefficient."""

    __slots__ = ("terms", "exact")

    def __init__(self, terms=None):
        clean, other = {}, False
        for ij, c in (terms or {}).items():
            if type(c) not in (float, complex):   # these pass as they are
                c, other = as_coeff(c), True
            if c != 0:
                clean[(int(ij[0]), int(ij[1]))] = c
        # the mode follows the kept coefficients; only an exact one needs converting
        exact = all(is_exact_scalar(c) for c in clean.values())
        if not exact and other:
            clean = {ij: complex(c) if is_exact_scalar(c) else c for ij, c in clean.items()}
        self.terms = clean
        self.exact = exact

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return LaurentPoly2({})

    @staticmethod
    def const(c):
        return LaurentPoly2({(0, 0): c})

    @staticmethod
    def monomial(i, j, c=1):
        return LaurentPoly2({(i, j): c})

    # -- basic queries ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def support(self):
        return set(self.terms)

    def coeff(self, i, j):
        return self.terms.get((i, j), Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def isclose(self, other, tol=NUMERIC_ZERO_TOL):
        keys = set(self.terms) | set(other.terms)
        return all(abs(complex(self.coeff(*k)) - complex(other.coeff(*k))) <= tol for k in keys)

    # -- ring operations ----------------------------------------------------

    def _check_mode(self, other):
        if self.terms and other.terms and self.exact != other.exact:
            raise ModeError("mixed exact/numeric operands")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly2):
            other = LaurentPoly2.const(other)
        self._check_mode(other)
        terms = dict(self.terms)
        for ij, c in other.terms.items():
            s = terms.get(ij, 0) + c
            if s == 0:
                terms.pop(ij, None)
            else:
                terms[ij] = s
        return LaurentPoly2(terms)

    def __neg__(self):
        return LaurentPoly2({ij: -c for ij, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly2):
            other = LaurentPoly2.const(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly2):
            other = LaurentPoly2.const(other)
        self._check_mode(other)
        terms = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                ij = (i1 + i2, j1 + j2)
                s = terms.get(ij, 0) + c1 * c2
                if s == 0:
                    terms.pop(ij, None)
                else:
                    terms[ij] = s
        return LaurentPoly2(terms)

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, n):
        if n < 0:
            if len(self.terms) == 1:
                (i, j), c = next(iter(self.terms.items()))
                inv = Fraction(1, 1) / c if is_exact_scalar(c) else 1.0 / c
                return LaurentPoly2.monomial(-i, -j, inv) ** (-n)
            raise ValueError("negative powers only for monomials")
        out = LaurentPoly2.const(Fraction(1) if self.exact else 1.0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def sigma(self):
        """(z, w) -> (1/z, 1/w): negate every exponent pair."""
        return LaurentPoly2({(-i, -j): c for (i, j), c in self.terms.items()})

    def eval(self, z, w):
        total = 0
        for (i, j), c in self.terms.items():
            zi = z ** i if i >= 0 else 1 / (z ** (-i))
            wj = w ** j if j >= 0 else 1 / (w ** (-j))
            total += (c if not isinstance(c, Fraction) or isinstance(z, Fraction) else complex(c)) * zi * wj
        return total

    def to_numeric(self):
        return LaurentPoly2({ij: complex(c) for ij, c in self.terms.items()})

    # -- degrees ------------------------------------------------------------

    def degree_range(self, var):
        """(min, max) exponent of 'z' or 'w' over the support; None for zero."""
        if not self.terms:
            return None
        k = 0 if var == "z" else 1
        exps = [ij[k] for ij in self.terms]
        return min(exps), max(exps)

    def coeffs_in_w(self):
        """View as a polynomial in w after clearing the minimal exponent:
        the coefficients low..high, as LaurentPoly2s in z."""
        if not self.terms:
            raise ValueError("zero polynomial")
        lo, hi = self.degree_range("w")
        out = [dict() for _ in range(hi - lo + 1)]
        for (i, j), c in self.terms.items():
            out[j - lo][(i, 0)] = c
        return [LaurentPoly2(t) for t in out]

    # -- output -------------------------------------------------------------

    def canonical_str(self):
        if not self.terms:
            return "0"
        pieces = []
        for ij in sorted(self.terms, key=_term_sort_key):
            c = self.terms[ij]
            mono = _mono_str(*ij)
            if isinstance(c, Fraction):
                neg = c < 0
                mag = -c if neg else c
                body = f"{mag}" if not mono else (mono if mag == 1 else f"{mag}*{mono}")
            else:
                neg = isinstance(c, float) and c < 0
                mag = -c if neg else c
                body = format_coeff(mag) if not mono else f"{format_coeff(mag)}*{mono}"
            if not pieces:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append(("- " if neg else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return f"LaurentPoly2({self.canonical_str()})"


class LaurentMatrix:
    """A rectangular matrix of Laurent polynomials with labeled rows/columns.

    Never changed after construction: `nonzero`, `samples` and
    `elimination` keep what they build on their first call, which a change
    to rows, cols or entries would leave stale."""

    def __init__(self, rows, cols, entries):
        self.rows = list(rows)
        self.cols = list(cols)
        self._nonzero = self._samples = self._elimination = None
        zero = LaurentPoly2.zero()          # one for all cells: nothing mutates terms
        # row-major, an order that setting a cell keeps
        self.entries = dict.fromkeys(itertools.product(self.rows, self.cols), zero)
        for rc, e in entries.items():
            if rc in self.entries:
                self.entries[rc] = e

    def __getitem__(self, rc):
        return self.entries[rc]

    def is_square(self):
        return len(self.rows) == len(self.cols)

    def nonzero(self):
        """Per row index, the (column index, entry) pairs of the row's
        nonzero cells, by column, built on the first call and kept: the
        numeric kernels walk these, not all n^2 cells. Only numeric
        matrices ask for them."""
        if self._nonzero is None:
            n, self._nonzero = len(self.cols), [[] for _ in self.rows]
            for k, e in enumerate(self.entries.values()):
                if e.terms:
                    self._nonzero[k // n].append((k % n, e))
        return self._nonzero

    def samples(self):
        """(grid, lows, real) of _sample_grid for this square matrix, built
        on the first call and kept, the grid read-only: lm_determinant and
        every lm_adjugate_lines call on the matrix share one grid."""
        if self._samples is None:
            grid, lows, real = _sample_grid(self.nonzero())
            grid.flags.writeable = False
            self._samples = grid, lows, real
        return self._samples

    def elimination(self):
        """(elimination, scales): the _Elimination of the rows of this exact
        square matrix cleared of denominators, and the row scales [L_r] of
        _int_rows, built on the first call and kept: lm_determinant and every
        lm_adjugate_lines call on the matrix share one elimination."""
        if self._elimination is None:
            rows, scales = _int_rows([[self.entries[(r, c)] for c in self.cols]
                                      for r in self.rows])
            self._elimination = _Elimination(rows), scales
        return self._elimination


def lm_determinant(m):
    """Determinant of a square Laurent matrix, of any size.

    Exact entries: the matrix's one fraction-free elimination over
    Z[z^±1, w^±1] of its rows cleared of denominators, m.elimination().
    Numeric entries: det lies in the exponent box summed from each row's
    exponent range, so it is evaluated on a grid of roots of unity covering
    that box (the matrix's one sample grid, m.samples(); batched LU) and
    its coefficients are read off by a 2-D FFT (_interpolate).
    """
    if not m.is_square():
        raise DimensionError("determinant of a non-square matrix")
    if all(e.exact for e in m.entries.values()):
        elim, scales = m.elimination()
        return _from_int(elim.det, math.prod(scales))
    import numpy as np
    grid, lows, real = m.samples()
    shift = tuple(sum(lo[k] for lo in lows) for k in (0, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        det = np.linalg.det(grid)
        # LU can leave an exact zero pivot unflagged; det then takes 0/0 for
        # its sign. A log|det| of -inf tells such a singular sample from
        # one that overflowed
        bad = np.isnan(det)
        if bad.any():
            det[bad] = np.where(np.linalg.slogdet(grid[bad])[1] == -np.inf, 0, det[bad])
    return _interpolate(det[..., None], [shift], real)[0]


# -- the exact kernel: integer term dicts {(i, j): int} -------------------------


def _int_rows(a):
    """The rows of the exact matrix a as integer term dicts, each multiplied
    by the lcm L_r of its denominators; returns (rows, [L_r])."""
    dens = [math.lcm(*(c.denominator for e in row for c in e.terms.values())) for row in a]
    return [[{ij: c.numerator * (den // c.denominator) for ij, c in e.terms.items()}
             for e in row] for row, den in zip(a, dens)], dens


def _from_int(p, scale):
    """The integer term dict p divided by the nonzero integer scale."""
    return LaurentPoly2({ij: Fraction(c, scale) for ij, c in p.items()})


def _cleared_powers(x, lo, hi):
    """{k: p^(k - lo) q^(hi - k) for lo <= k <= hi}, the powers x^k of the
    nonzero rational x = p/q times the integer p^-lo q^hi."""
    p, q = x.numerator, x.denominator
    ps, qs = [1], [1]
    for _ in range(hi - lo):
        ps.append(ps[-1] * p)
        qs.append(qs[-1] * q)
    return dict(zip(range(lo, hi + 1), (a * b for a, b in zip(ps, reversed(qs)))))


def _mul_sub(a, b, *pairs):
    """a*b minus x*y for each pair (x, y), for integer term dicts, without
    zero terms."""
    out, sign = {}, 1
    for p, q in ((a, b), *pairs):
        for (i1, j1), x in p.items():
            x *= sign
            for (i2, j2), y in q.items():
                ij = (i1 + i2, j1 + j2)
                out[ij] = out.get(ij, 0) + x * y
        sign = -1
    return {ij: x for ij, x in out.items() if x}


def _divider(d):
    """Exact division by the nonzero integer term dict d in Z[z^±1, w^±1]:
    a function p -> p / d that uses p up as the remainder. The quotient
    lies in the box N(p) - N(d) of the Newton polygons, walked down in lex
    order, each step dividing the top terms. Raises ArithmeticError on a
    nonzero remainder."""
    lead = max(d)
    lc = d[lead]
    rest = [(ij, x) for ij, x in d.items() if ij != lead]
    di, dj = zip(*d)
    low, high = (min(di), min(dj)), (max(di), max(dj))

    def divide(p):
        if not p:
            return {}
        pi, pj = zip(*p)
        q = {}
        for qi in range(max(pi) - high[0], min(pi) - low[0] - 1, -1):
            for qj in range(max(pj) - high[1], min(pj) - low[1] - 1, -1):
                c = p.pop((qi + lead[0], qj + lead[1]), 0)
                if not c:
                    continue
                y, r = divmod(c, lc)
                if r:
                    raise ArithmeticError("inexact division")
                q[(qi, qj)] = y
                for (i, j), x in rest:
                    ij = (i + qi, j + qj)
                    p[ij] = p.get(ij, 0) - y * x
        if any(p.values()):
            raise ArithmeticError("inexact division")
        return q

    return divide


class _Elimination:
    """One fraction-free elimination of the square matrix a of integer term
    dicts over Z[z^±1, w^±1] (Bareiss, Math. Comp. 1968), pivoting on rows
    and columns: a nonzero diagonal entry, else the first nonzero entry
    below it, else the first in a later column. Every entry made is a minor
    of a, so each division by the previous pivot is exact; an entry whose
    two products are zero stays zero, which skips most of the work on a
    sparse Kasteleyn matrix. a is not changed.

    Kept, for A = a with rows in the order `rows` and columns in the order
    `cols`: the packed factors u (on and above the diagonal the pivot rows,
    below it the entries each step eliminated), the pivots (1 first) with
    their dividers, the rank, the sign of the two orders and det a. The
    elimination of A^T has the transposed factors and the same pivots, so
    the rows of adj a come from the same factors as its columns."""

    def __init__(self, a):
        n = self.n = len(a)
        u = self.u = [list(row) for row in a]
        rows, cols = self.rows, self.cols = list(range(n)), list(range(n))
        self.pivots, self.divides, self.rank, sign = [{(0, 0): 1}], [], n, 1
        for k in range(n):
            at = next(((i, j) for j in range(k, n) for i in range(k, n) if u[i][j]), None)
            if at is None:
                self.rank = k
                break
            i, j = at
            if i != k:
                u[k], u[i], rows[k], rows[i], sign = u[i], u[k], rows[i], rows[k], -sign
            if j != k:
                for row in u:
                    row[k], row[j] = row[j], row[k]
                cols[k], cols[j], sign = cols[j], cols[k], -sign
            top, pivot = u[k], u[k][k]
            divide = self.divides[-1] if k else None
            for i in range(k + 1, n):
                row, lead = u[i], u[i][k]
                for j in range(k + 1, n):
                    if row[j] or lead and top[j]:
                        num = _mul_sub(row[j], pivot, (lead, top[j]))
                        row[j] = divide(num) if divide else num
            self.pivots.append(pivot)
            self.divides.append(_divider(pivot))
        self.sign = sign
        det = self.pivots[-1] if self.rank == n else {}
        self.det = det if sign > 0 else {ij: -x for ij, x in det.items()}

    def adjugate(self, i, transpose=False):
        """Column i of adj a, or row i when `transpose`, as a list by index.

        Column k of adj A solves A x = det(A) e_k: the elimination's steps
        replayed on e_k (its entries before k stay zero, and entry k becomes
        the pivot before step k), then a fraction-free back substitution
        (Nakos, Turner and Williams 1997), each division exact by a pivot.
        At rank n - 1 det A = 0, and no zero pivot is divided by; below it
        adj a = 0. Entry l of that column is sign times entry (cols[l], i)
        of adj a; rows come the same way from A^T."""
        n = self.n
        if self.rank < n - 1:
            return [{}] * n
        if transpose:
            u, k, order = [list(c) for c in zip(*self.u)], self.cols.index(i), self.rows
        else:
            u, k, order = self.u, self.rows.index(i), self.cols
        x, p, div = [{}] * n, self.pivots, self.divides
        x[k] = p[k]
        for t in range(k, n - 1):
            for r in range(t + 1, n):
                lead = u[r][t]
                if x[r] or lead and x[t]:
                    num = _mul_sub(x[r], p[t + 1], (lead, x[t]))
                    x[r] = div[t - 1](num) if t else num
        d = p[n] if self.rank == n else {}
        for t in range(n - 2, -1, -1):
            row = u[t]
            x[t] = div[t](_mul_sub(d, x[t], *((row[j], x[j]) for j in range(t + 1, n) if row[j])))
        out = [None] * n
        for c, e in zip(order, x):
            out[c] = e if self.sign > 0 else {ij: -v for ij, v in e.items()}
        return out


def _sample_grid(a):
    """The matrix a, given by its nonzero cells (LaurentMatrix.nonzero()), on
    the grid of pairs of roots of unity that covers the exponent box of
    det a, each row shifted to nonnegative exponents first (a zero row
    counts as constant). Returns the (nz, nw, n, n) samples, the shift
    (low z and w exponent) of each row and whether every coefficient is a
    float. Every term's samples coef * roots_z^(i - lo) * roots_w^(j - lo)
    are made in one array pass and added to their cells by one scatter,
    the terms of a cell in their order."""
    import numpy as np
    n = len(a)
    lows, spans = [], []
    for row in a:
        support = [ij for _, e in row for ij in e.terms] or [(0, 0)]
        lo = [min(ij[k] for ij in support) for k in (0, 1)]
        lows.append(lo)
        spans.append([max(ij[k] for ij in support) - lo[k] for k in (0, 1)])
    nz, nw = (sum(s[k] for s in spans) + 1 for k in (0, 1))
    roots_z = np.exp(2j * np.pi * np.arange(nz) / nz)
    roots_w = np.exp(2j * np.pi * np.arange(nw) / nw)
    grid = np.zeros((nz, nw, n, n), dtype=complex)
    terms = [(r, c, i - zlo, j - wlo, complex(coef))
             for r, (row, (zlo, wlo)) in enumerate(zip(a, lows)) for c, e in row
             for (i, j), coef in e.terms.items()]
    if terms:
        r, c, i, j, coef = map(np.array, zip(*terms))
        samples = (coef[:, None, None] * roots_z[np.outer(i, np.arange(nz)) % nz][:, :, None]
                   * roots_w[np.outer(j, np.arange(nw)) % nw][:, None, :])
        np.add.at(grid, (slice(None), slice(None), r, c), samples.transpose(1, 2, 0))
    real = all(isinstance(c, float) for row in a for _, e in row for c in e.terms.values())
    return grid, lows, real


def _interpolate(values, shifts, real):
    """One Laurent polynomial per index t of the last axis of `values`, its
    samples on the grid of _sample_grid times z^-shifts[t][0] w^-shifts[t][1],
    read out by one batched 2-D FFT. Terms at or below NUMERIC_ZERO_TOL
    times the polynomial's largest coefficient are dropped; coefficients
    are floats when `real`, and a float real part of 0 is dropped too. The
    kept terms of all polynomials are found and gathered in one pass, each
    polynomial's in the order of its (x, y), and make its LaurentPoly2
    without a second check: int exponents, float or complex coefficients,
    none of them 0, so the polynomial is exact only when it is empty."""
    import numpy as np
    nz, nw, k = values.shape
    coeffs = np.fft.fft2(values, axes=(0, 1)) / (nz * nw)
    mags = np.abs(coeffs)
    keep = mags > NUMERIC_ZERO_TOL * mags.max(axis=(0, 1))
    t, x, y = np.nonzero(keep.transpose(2, 0, 1))
    kept = coeffs[x, y, t].real if real else coeffs[x, y, t]
    held = kept != 0
    t, x, y, kept = t[held], x[held], y[held], kept[held]
    dz, dw = np.array(shifts, dtype=int).reshape(-1, 2)[t].T
    terms = list(zip(zip((x + dz).tolist(), (y + dw).tolist()), kept.tolist()))
    ends = np.cumsum(np.bincount(t, minlength=k)).tolist()
    out = []
    for a, b in zip([0] + ends, ends):
        p = LaurentPoly2.__new__(LaurentPoly2)
        p.terms, p.exact = dict(terms[a:b]), a == b
        out.append(p)
    return out


def _adjugate_qr(a, samples, cols, rows):
    """Columns `cols` and rows `rows` (indices) of adj(a), numeric entries,
    for the matrix a given by its nonzero cells (LaurentMatrix.nonzero()),
    from `samples`, the sample grid of a (_sample_grid, the grid of det a),
    which is only read. Each sample is factored A = QR by Householder
    reflectors, Q = H_0 ... H_(n-1) with H_i = I - tau_i v_i v_i^H and
    det(H_i) = 1 - tau_i |v_i|^2, and adj(A) = det(Q) adj(R) Q^H: column
    i is det(Q) adj(R) Q^H e_i, row j is det(Q) conj(Q) (row j of adj(R)),
    and row j of adj(R) is column n-1-j of adj(R') read backwards, R' =
    R^T with both indices reversed. The lines of adj(R) and adj(R') come
    from one _adjugate_triangular pass over both stacks of factors, which
    divides by nothing, so singular samples need no care (Stewart, "On the
    adjugate matrix", LAA 1998). Row r of a
    is sampled times the monomial z^-lo_r (lo_r its low exponents in z and
    w), so entry (c, r) of adj, a minor without row r, is sampled times
    z^-(sum of lo - lo_r), a polynomial inside the grid's box; each entry
    is read out with that shift. An entry whose minor has a zero row or a
    zero column is zero (_zero_minors)."""
    import numpy as np
    n = len(a)
    grid, lows, real = samples
    nz, nw = grid.shape[:2]
    total = [sum(lo[k] for lo in lows) for k in (0, 1)]
    # one z-slice at a time, each sample's factors (R on and above the
    # diagonal, v_i below it, whose entry i is 1) in the grid's shape; the
    # buffer's second half holds their conjugates while Q is applied, and
    # for the triangular pass the factors transposed with both indices
    # reversed, whose upper triangles are the R'
    factors = np.empty((2, nz, nw, n, n), dtype=complex)
    tau = np.empty((nz, nw, n), dtype=complex)
    det_q = np.empty((nz, nw), dtype=complex)
    for t, z_slice in enumerate(grid):
        h, tau[t] = np.linalg.qr(z_slice, mode="raw")
        factors[0, t] = h.swapaxes(1, 2)
        norms = 1 + (abs(np.tril(factors[0, t], -1)) ** 2).sum(axis=1)
        det_q[t] = (1 - tau[t] * norms).prod(axis=1)
    h, spare = factors.reshape((2, -1, n, n))
    tau, det_q = tau.reshape((-1, n)), det_q.reshape((-1, 1, 1))
    # the right-hand sides stacked as the factors: Q^H e_i for column i,
    # e_(n-1-j) for row j, padded with zero lines to the longer list
    eye = np.eye(n, dtype=complex)
    y = np.zeros((2, len(h), max(len(cols), len(rows)), n), dtype=complex)
    y[0, :, :len(cols)] = eye[cols]
    y[1, :, :len(rows)] = eye[[n - 1 - j for j in rows]]
    if cols:
        _apply_q(h, np.conjugate(h, out=spare), tau, y[0, :, :len(cols)], adjoint=True)
    if rows:
        spare[...] = h.swapaxes(1, 2)[:, ::-1, ::-1]
    halves = slice(1 if rows and not cols else 0, 2 if rows else 1)    # those asked for
    stack = factors[halves].reshape((-1, n, n))
    x = _adjugate_triangular(stack, y[halves].reshape((len(stack),) + y.shape[2:]))
    lines = np.empty((len(h), len(cols) + len(rows), n), dtype=complex)
    lines[:, :len(cols)] = det_q * x[:len(h), :len(cols)]
    if rows:
        back = x[-len(h):, :len(rows), ::-1].conj()
        lines[:, len(cols):] = det_q * _apply_q(h, np.conjugate(h, out=spare), tau, back).conj()
    del factors, h, spare, stack    # twice as large as the grid: gone before the read-out
    cells = [(i, c) for i in cols for c in range(n)] + [(r, j) for j in rows for r in range(n)]
    out = _interpolate(lines.reshape((nz, nw, -1)),
                       [(total[0] - lows[r][0], total[1] - lows[r][1]) for r, _ in cells], real)
    zero = _zero_minors(a)
    out = [LaurentPoly2.zero() if zero(r, c) else e for (r, c), e in zip(cells, out)]
    lines = [out[k:k + n] for k in range(0, len(out), n)]
    return lines[:len(cols)], lines[len(cols):]


def _apply_q(h, hc, tau, x, adjoint=False):
    """Q x, or Q^H x when `adjoint`, in place, for each sample's Q = H_0 ...
    H_(n-1) in the factored form of _adjugate_qr (h, tau) and each of its
    lines x[s, l]: H_i x = x - tau_i v_i (v_i^H x), H_i^H with conj(tau_i).
    hc is conj(h), the reflectors conjugated once for all of them."""
    n = h.shape[-1]
    order, tau = (range(n), tau.conj()) if adjoint else (range(n - 1, -1, -1), tau)
    for i in order:
        v = h[:, None, i + 1:, i]
        f = tau[:, i, None] * (x[..., i] + (hc[:, None, i + 1:, i] * x[..., i + 1:]).sum(axis=-1))
        x[..., i] -= f
        x[..., i + 1:] -= f[..., None] * v
    return x


def _adjugate_triangular(r, y):
    """adj(R) y for each upper triangular R of the stack r (s, n, n), read
    on and above the diagonal only, and each vector y of the lines y
    (s, m, n), as (s, m, n), by back substitution on scaled
    unknowns: with S_k the product of r_ii over i >= k, the
    u_k = S_(k+1) y_k - sum over j > k of r_kj (product of r_ii over
    k < i < j) u_j give x_k = (product of r_ii over i < k) u_k, the
    solution of R x = det(R) y. Each step keeps x_j, j > k, scaled by the
    diagonal up to k, so nothing is divided and a singular R needs no care."""
    import numpy as np
    n = r.shape[-1]
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    x = np.zeros(y.shape, dtype=complex)
    s = np.ones((len(r), 1), dtype=complex)
    for k in range(n - 1, -1, -1):
        u = s * y[..., k] - (r[:, None, k, k + 1:] * x[..., k + 1:]).sum(axis=-1)
        x[..., k + 1:] *= diag[:, k, None, None]
        x[..., k] = u
        s = s * diag[:, k, None]
    return x


def _zero_minors(a):
    """A test (r, c) -> whether the minor without row r and column c of
    the matrix a, given by its nonzero cells (LaurentMatrix.nonzero()), has a
    zero row or a zero column: a row other than r meets no column but c,
    or a column other than c no row but r."""
    hits = [[c for c, _ in row] for row in a]
    col_hits = [[] for _ in a]
    for r, row in enumerate(hits):
        for c in row:
            col_hits[c].append(r)
    lone_rows = [(k, hit) for k, hit in enumerate(hits) if len(hit) <= 1]
    lone_cols = [(k, hit) for k, hit in enumerate(col_hits) if len(hit) <= 1]

    def zero(r, c):
        return (any(k != r and hit in ([], [c]) for k, hit in lone_rows)
                or any(k != c and hit in ([], [r]) for k, hit in lone_cols))

    return zero


def lm_adjugate_lines(m, columns=(), rows=()):
    """Lines of adj(m), whose rows are named by the column labels of m and
    whose columns by its row labels: for each row label r of m in
    `columns`, column r of adj(m) as {column label of m: entry}, and for
    each column label c of m in `rows`, row c of adj(m) as {row label of m:
    entry}. Returns (the columns, the rows), two lists. Entry (c, r) is the
    signed (n-1)-minor of m without row r and column c.

    Exact entries: every requested line from the one elimination of m,
    m.elimination(), that lm_determinant also reads (_Elimination.adjugate),
    each entry (c, r) of the cleared rows divided by the product of their
    L_r other than L_r. Numeric entries: every requested line from the one
    sample grid of m, m.samples(), that lm_determinant also reads, and one
    Householder QR per sample (_adjugate_qr), read out as lm_determinant
    reads det."""
    if not m.is_square():
        raise DimensionError("adjugate of a non-square matrix")
    ci = [m.rows.index(r) for r in columns]
    rj = [m.cols.index(c) for c in rows]
    if all(e.exact for e in m.entries.values()):
        elim, scales = m.elimination()
        scale = math.prod(scales)
        lines = ([[_from_int(e, scale // scales[i]) for e in elim.adjugate(i)] for i in ci],
                 [[_from_int(e, scale // s)
                   for e, s in zip(elim.adjugate(j, transpose=True), scales)] for j in rj])
    else:
        lines = _adjugate_qr(m.nonzero(), m.samples(), ci, rj)
    return ([dict(zip(m.cols, col)) for col in lines[0]],
            [dict(zip(m.rows, row)) for row in lines[1]])


def lm_adjugate(m):
    """Adjugate (transposed cofactor matrix): m @ adj(m) == det(m) * I,
    singular m included. Every column from one lm_adjugate_lines call, so
    from the one elimination or the one sample grid of m."""
    cols = lm_adjugate_lines(m, m.rows)[0]
    return LaurentMatrix(m.cols, m.rows,
                         {(c, r): v for r, col in zip(m.rows, cols) for c, v in col.items()})


class NewtonPolygon:
    """Convex hull of a finite set of lattice points.

    vertices: counterclockwise, starting from the lexicographically
    smallest vertex. sides: per hull edge, its primitive vector and lattice
    length; a segment has two, there and back.
    """

    def __init__(self, points):
        pts = sorted({(int(x), int(y)) for x, y in points})
        if not pts:
            raise ValueError("empty support")
        self.vertices = _convex_hull(pts)
        self.sides = []
        k = len(self.vertices)
        if k >= 2:
            for t in range(k):
                x0, y0 = self.vertices[t]
                x1, y1 = self.vertices[(t + 1) % k]
                dx, dy = x1 - x0, y1 - y0
                g = math.gcd(dx, dy)
                self.sides.append(((dx // g, dy // g), g))

    @property
    def twice_area(self):
        """Twice the area, by the shoelace formula over the ccw vertices."""
        v = self.vertices
        return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(v, v[1:] + v[:1]))

    @property
    def genus(self):
        """Lattice points strictly inside, by Pick's theorem: twice the area
        is 2 I + B - 2 with B the lattice points on the boundary."""
        if len(self.vertices) < 3:
            return 0
        return (self.twice_area - sum(n for _, n in self.sides) + 2) // 2

    def translate(self, dx, dy):
        return NewtonPolygon([(x + dx, y + dy) for x, y in self.vertices])

    def normalized(self):
        """Translate so the lexicographically smallest vertex is the origin."""
        x0, y0 = min(self.vertices)
        return self.translate(-x0, -y0)

    def __repr__(self):
        return f"NewtonPolygon({self.vertices})"


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(pts):
    """Monotone chain; returns ccw vertex list starting at the lex-min vertex."""
    if len(pts) == 1:
        return list(pts)
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    # distinct points: pts[0] and pts[-1] are two vertices
    return lower[:-1] + upper[:-1]


def newton_polygon(p):
    """Newton polygon of a nonzero Laurent polynomial."""
    if p.is_zero():
        raise ValueError("zero polynomial has no Newton polygon")
    return NewtonPolygon(p.support())


def resultant_eliminate(p, q):
    """Resultant of p and q eliminating w, as its coefficients in z, low to
    high, after clearing the lowest exponent of z ([] when the resultant is
    zero; Fraction(0) for a power between the lowest and highest that does
    not occur). Both inputs are cleared of their minimal w exponent first.
    Sign convention: Sylvester determinant with the p-coefficient rows
    first, taken by lm_determinant at any size (Bareiss for exact inputs,
    FFT interpolation for numeric ones).
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of a zero polynomial")
    pc, qc = p.coeffs_in_w(), q.coeffs_in_w()
    m, n = len(pc) - 1, len(qc) - 1
    if m == 0 and n == 0:
        raise ValueError("both inputs constant in w")
    labels = list(range(m + n))
    entries = {}
    # n shifted copies of p's coefficients (descending), then m of q's
    for s in range(n):
        for k, c in enumerate(reversed(pc)):
            entries[(s, s + k)] = c
    for s in range(m):
        for k, c in enumerate(reversed(qc)):
            entries[(n + s, s + k)] = c
    res = lm_determinant(LaurentMatrix(labels, labels, entries))
    if res.is_zero():
        return []
    lo, hi = res.degree_range("z")
    return [res.coeff(i, 0) for i in range(lo, hi + 1)]
