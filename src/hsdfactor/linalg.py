"""Exact linear algebra over Gaussian rationals.

`Mat` holds the small matrices (gamma matrices, Casimir matrices,
projectors, the coefficients of derivative operators) fraction-free:
sparse rows of Gaussian-integer numerators over one reduced common
denominator.  Products, sums and whole sums of products run through
one kernel, `Mat.sum_of_products`, on Python ints, and divide once per
sum.  The large eliminations all run in `sparse_rref`, on the
Gaussian-integer rows `{col: (re, im)}` that callers already hold (the
numerators of a `Mat` or of polynomial images), in the spirit of
Bareiss's integer-preserving elimination: forward elimination
(`_echelon`), then one back substitution.  `int_nullspace`,
`solve_sparse` and `span_coords` build on it; `nullity` and `Mat.rank`
need only the pivots of the forward phase.  `SpanSolver`, on QQi rows,
is only the tests' reference now.  All pivoting is deterministic, so
bases come out in a reproducible order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .gaussian import QQi, QQI_ONE, QQI_ZERO


class SpanError(AssertionError):
    """An engine self-check failed: a vector left its span, or a basis was dependent."""


class ShapeError(AssertionError):
    """Matrices of mismatched shapes met in a product or a sum: an engine error."""


class ResourceCapError(RuntimeError):
    """An exact computation exceeded its configured size cap."""


# default bound on the cells (rows x columns) of one elimination
DEFAULT_CELL_CAP = 4_000_000


def check_cells(nrows, ncols, cap):
    """Raise ResourceCapError when an nrows x ncols elimination exceeds cap cells."""
    if nrows * ncols > cap:
        raise ResourceCapError(f"elimination size {nrows}x{ncols} exceeds cap {cap}")


def _common_den(values):
    """Least common denominator of the components of some QQi."""
    den = 1
    for v in values:
        den = lcm(den, v.re.denominator, v.im.denominator)
    return den


def _numerators(x, den):
    """The Gaussian integer x * den as (re, im), for den a multiple of x's denominators."""
    return x.re.numerator * (den // x.re.denominator), x.im.numerator * (den // x.im.denominator)


def _qqi(re, im, den):
    return QQi(Fraction(re, den), Fraction(im, den))


def _content(pairs, g=0):
    """gcd of g and every component of some (re, im) pairs, stopping early at 1."""
    for re, im in pairs:
        g = gcd(g, re, im)
        if g == 1:
            break
    return g


class Mat:
    """Dense-shaped exact matrix over the Gaussian rationals, stored fraction-free.

    Row i is a sparse dict ``col -> (re, im)`` of Python ints, zero entries
    absent, and entry (i, j) is ``(re + im*i) / den`` for one positive
    common denominator ``den``.  ``den`` is reduced so that its gcd with
    every numerator component is 1 (the zero matrix has ``den == 1``), which
    makes the form canonical: equality and ``is_zero`` compare integers.
    A product, a sum or a whole sum of products runs on integers and
    divides once, in that reduction.  ``rows`` materialises the ``QQi``
    view on demand.
    """

    __slots__ = ("num", "den", "nrows", "ncols")

    def __init__(self, rows):
        dense = [[QQi.coerce(x) for x in row] for row in rows]
        ncols = len(dense[0]) if dense else 0
        if any(len(row) != ncols for row in dense):
            raise ValueError("ragged matrix")
        # the lcm of reduced denominators shares no prime with all the
        # numerators, so this form is already canonical
        den = _common_den(x for row in dense for x in row)
        self.num = [{j: _numerators(x, den) for j, x in enumerate(row) if x} for row in dense]
        self.den = den
        self.nrows = len(dense)
        self.ncols = ncols

    @classmethod
    def _reduced(cls, num, den, ncols):
        """The matrix num / den, reduced to the canonical form."""
        g = den
        for row in num:
            g = _content(row.values(), g)
            if g == 1:
                break
        if g != 1:
            num = [{j: (re // g, im // g) for j, (re, im) in row.items()} for row in num]
            den //= g
        out = object.__new__(cls)
        out.num = num
        out.den = den
        out.nrows = len(num)
        out.ncols = ncols
        return out

    @staticmethod
    def zero(n, m):
        return Mat._reduced([{} for _ in range(n)], 1, m)

    @staticmethod
    def identity(n):
        return Mat._reduced([{i: (1, 0)} for i in range(n)], 1, n)

    @property
    def rows(self):
        """The entries as lists of QQi (built on each access)."""
        den = self.den
        out = []
        for row in self.num:
            dense = [QQI_ZERO] * self.ncols
            for j, (re, im) in row.items():
                dense[j] = _qqi(re, im, den)
            out.append(dense)
        return out

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"index {ij} out of range for a {self.nrows}x{self.ncols} matrix")
        entry = self.num[i].get(j)
        return QQI_ZERO if entry is None else _qqi(*entry, self.den)

    @staticmethod
    def sum_of_products(terms):
        """The sum of a_k * b_k over the nonempty terms (a_k, b_k).

        b_k is a Mat, or an exact scalar c_k for the term c_k * a_k.  Every
        term is brought to the common denominator of all of them, the
        integers accumulate in place, and the sum is reduced once.  A
        shape mismatch, within a product or between terms, is a
        ShapeError.
        """
        shape = None
        plan = []  # (a, b or None, scalar numerators or None, the term's denominator)
        for a, b in terms:
            if isinstance(b, Mat):
                if a.ncols != b.nrows:
                    raise ShapeError(f"shape mismatch {a.nrows}x{a.ncols} * {b.nrows}x{b.ncols}")
                plan.append((a, b, None, a.den * b.den))
                out = (a.nrows, b.ncols)
            elif isinstance(b, int):
                plan.append((a, None, (b, 0), a.den))
                out = (a.nrows, a.ncols)
            else:
                c = QQi.coerce(b)
                cd = _common_den([c])
                plan.append((a, None, _numerators(c, cd), a.den * cd))
                out = (a.nrows, a.ncols)
            if shape is None:
                shape = out
            elif out != shape:
                raise ShapeError(f"terms of shapes {shape[0]}x{shape[1]} and {out[0]}x{out[1]} in one sum")
        den = lcm(*(term[3] for term in plan))
        # a first contribution is a product of nonzero Gaussian integers, so
        # only a sum can vanish, and it is dropped where it does
        num = [{} for _ in range(shape[0])]
        for a, b, c, term_den in plan:
            f = den // term_den
            if b is None:
                cr, ci = c[0] * f, c[1] * f
                if not (cr or ci):
                    continue
                for arow, row in zip(a.num, num):
                    if not arow:
                        continue
                    if not row:
                        row.update(arow if cr == 1 and not ci else
                                   {j: (re * cr - im * ci, re * ci + im * cr) for j, (re, im) in arow.items()})
                        continue
                    for j, (ar, ai) in arow.items():
                        re = ar * cr - ai * ci
                        im = ar * ci + ai * cr
                        cur = row.get(j)
                        if cur is not None:
                            re += cur[0]
                            im += cur[1]
                            if not (re or im):
                                del row[j]
                                continue
                        row[j] = (re, im)
                continue
            bnum = b.num
            for arow, row in zip(a.num, num):
                for j, (ar, ai) in arow.items():
                    if f != 1:
                        ar, ai = ar * f, ai * f
                    for t, (br, bi) in bnum[j].items():
                        re = ar * br - ai * bi
                        im = ar * bi + ai * br
                        cur = row.get(t)
                        if cur is not None:
                            re += cur[0]
                            im += cur[1]
                            if not (re or im):
                                del row[t]
                                continue
                        row[t] = (re, im)
        return Mat._reduced(num, den, shape[1])

    def __add__(self, other):
        return Mat.sum_of_products([(self, 1), (other, 1)])

    def __sub__(self, other):
        return Mat.sum_of_products([(self, 1), (other, -1)])

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = QQi.coerce(c)
        cd = _common_den([c])
        cr, ci = _numerators(c, cd)
        if not (cr or ci):
            return Mat.zero(self.nrows, self.ncols)
        num = [
            {j: (re * cr - im * ci, re * ci + im * cr) for j, (re, im) in row.items()}
            for row in self.num
        ]
        return Mat._reduced(num, self.den * cd, self.ncols)

    def __mul__(self, other):
        return Mat.sum_of_products([(self, other)])

    __rmul__ = scale

    def is_zero(self):
        return not any(self.num)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.nrows == other.nrows and self.ncols == other.ncols and \
            self.den == other.den and self.num == other.num

    __hash__ = None

    def rank(self):
        # the common denominator does not change the rank
        return self.ncols - nullity(self.num, self.ncols)

    def __repr__(self):
        return "Mat(" + "; ".join(" ".join(repr(x) for x in row) for row in self.rows) + ")"


# ---------------------------------------------------------------------------
# sparse elimination (rows are dict[col -> (re, im)], zero entries absent)


def _eliminate_into(target, pivot_row, col):
    """target -= target[col] * pivot_row, with pivot_row unit at col (QQi rows)."""
    factor = target.pop(col)
    for j, v in pivot_row.items():
        if j == col:
            continue
        cur = target.get(j)
        nv = v * factor
        nv = (cur - nv) if cur is not None else -nv
        if nv:
            target[j] = nv
        elif cur is not None:
            del target[j]


def _primitive(row):
    """row with its integer content (gcd of every component) divided out."""
    g = _content(row.values())
    return row if g == 1 else {j: (re // g, im // g) for j, (re, im) in row.items()}


def _cross_eliminate(target, pivot_row, col):
    """The primitive part of p*target - target[col]*pivot_row, p = pivot_row[col]."""
    pr, pi = pivot_row[col]
    tr, ti = target[col]
    g = gcd(pr, pi, tr, ti)
    pr, pi, tr, ti = pr // g, pi // g, tr // g, ti // g
    if pr == 1 and not pi:
        out = dict(target)
    else:
        out = {j: (pr * re - pi * im, pr * im + pi * re) for j, (re, im) in target.items()}
    for j, (re, im) in pivot_row.items():
        cur = out.get(j, (0, 0))
        nre = cur[0] - (tr * re - ti * im)
        nim = cur[1] - (tr * im + ti * re)
        if nre or nim:
            out[j] = (nre, nim)
        else:
            out.pop(j, None)
    return _primitive(out)


def _echelon(rows, ncols):
    """Forward elimination: (pivots, pivot_rows), each row primitive with a
    positive integer pivot and no column left of it, earlier pivot
    columns not cleared.  rows is left untouched."""
    work = [_primitive(r) for r in rows if r]
    # a live row holds no column left of the current one, so the rows
    # holding col are the ones whose leading column is col
    by_lead = {}
    for i, r in enumerate(work):
        by_lead.setdefault(min(r), []).append(i)
    pivots = []
    pivot_rows = []
    for col in range(ncols):
        group = by_lead.pop(col, None)
        if group is None:
            continue
        idx = min(group, key=lambda i: (len(work[i]), i))
        prow = work[idx]
        pr, pi = prow[col]
        if pi or pr < 0:
            # times conj(p): the pivot becomes a positive integer, a unit one 1,
            # and eliminating by a pivot 1 rescales nothing
            prow = _primitive({j: (re * pr + im * pi, im * pr - re * pi) for j, (re, im) in prow.items()})
        for i in group:
            if i != idx:
                r = work[i] = _cross_eliminate(work[i], prow, col)
                if r:
                    by_lead.setdefault(min(r), []).append(i)
        pivots.append(col)
        pivot_rows.append(prow)
    return pivots, pivot_rows


def sparse_rref(rows, ncols):
    """Reduced row echelon form of Gaussian-integer rows (dict col -> (re, im)).

    Returns (pivots, pivot_rows): pivots is the increasing list of pivot
    columns, and each pivot row is the primitive multiple of the matching
    reduced row whose pivot entry is a positive integer, with every other
    pivot column cleared.  Two phases: `_echelon`, then one back
    substitution from the last row up.  The rows below row i are then
    reduced, so each holds no pivot column but its own, and one sweep
    clears all of row i's: s * row minus s*t/p times each row below, s the
    lcm of p / gcd(p, t) over row i's entries t at later pivots p.  Fill
    lands only in free columns.  Every row held is a nonzero multiple of
    the row Gaussian-rational elimination would hold, and the RREF with
    primitive rows and positive pivots is unique, so the result is that
    of clearing each new pivot from every earlier row.
    rows is a sized collection and is left untouched; a returned row can
    be one of the caller's own, so treat the results as read-only.
    """
    pivots, pivot_rows = _echelon(rows, ncols)
    where = dict(zip(pivots, pivot_rows))
    for i in range(len(pivots) - 2, -1, -1):
        col, row = pivots[i], pivot_rows[i]
        hits = [(where[j], j, t) for j, t in row.items() if j != col and j in where]
        if hits:
            s = lcm(*(prow[j][0] // gcd(prow[j][0], *t) for prow, j, t in hits))
            acc = {j: [re * s, im * s] for j, (re, im) in row.items() if j == col or j not in where}
            for prow, j, (tr, ti) in hits:
                tr, ti = tr * s // prow[j][0], ti * s // prow[j][0]
                for c, (re, im) in prow.items():
                    if c != j:  # at j, s*t cancels exactly
                        cur = acc.setdefault(c, [0, 0])
                        cur[0] -= tr * re - ti * im
                        cur[1] -= tr * im + ti * re
            pivot_rows[i] = where[col] = _primitive({c: (re, im) for c, (re, im) in acc.items() if re or im})
    return pivots, pivot_rows


def nullity(rows, ncols):
    """Dimension of the null space of Gaussian-integer rows, from `_echelon` alone."""
    return ncols - len(_echelon(rows, ncols)[0])


def _nullspace_of_rref(pivots, pivot_rows, ncols):
    """int_nullspace read off `sparse_rref`'s output; entries at columns >= ncols are ignored."""
    pivot_set = set(pivots)
    by_free = {}  # free column -> [(pivot column, pivot, entry)]
    for col, row in zip(pivots, pivot_rows):
        for j, entry in row.items():
            if j not in pivot_set:
                by_free.setdefault(j, []).append((col, row[col][0], entry))
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        hits = by_free.get(free, ())
        den = lcm(*(n for _, n, _ in hits))
        vec = {c: (-re * (den // n), -im * (den // n)) for c, n, (re, im) in hits}
        vec[free] = (den, 0)
        basis.append(_primitive(vec))
    return basis


def int_nullspace(rows, ncols):
    """Basis of the right null space of Gaussian-integer rows (dict col -> (re, im)).

    One vector per free column, in increasing free-column order: the
    primitive Gaussian-integer multiple, with a positive free entry, of
    the reduced-row-echelon null-space vector, so no fraction is formed.
    """
    return _nullspace_of_rref(*sparse_rref(rows, ncols), ncols)


def solve_sparse(rows, rhs, ncols):
    """Solve A x = b exactly.

    rows: Gaussian-integer rows of A; rhs: one (re, im) per row.
    Returns (particular, nullspace_basis) or None when inconsistent:
    particular a dict col -> QQi, the basis as `int_nullspace` gives it.
    When [A|b] is consistent its RREF restricted to A's columns is the
    RREF of A, so one elimination serves both.
    """
    aug = [{**r, ncols: b} if b[0] or b[1] else r for r, b in zip(rows, rhs)]
    pivots, pivot_rows = sparse_rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    particular = {c: _qqi(*row[ncols], row[c][0]) for c, row in zip(pivots, pivot_rows) if ncols in row}
    return particular, _nullspace_of_rref(pivots, pivot_rows, ncols)


def span_coords(rows, nb, ncols):
    """X with B X = V, from one `sparse_rref` of the Gaussian-integer rows [B | V].

    B holds columns 0..nb-1 and V the rest.  Returns (num, den): row i of
    X is num[i] / den, the V part of the pivot row of column i over its
    pivot, with V's columns renumbered from 0.  SpanError when B's
    columns are dependent or V leaves their span.
    """
    pivots, pivot_rows = sparse_rref(rows, ncols)
    if pivots[:nb] != list(range(nb)):
        raise SpanError("basis vectors are linearly dependent")
    if len(pivots) > nb:
        raise SpanError("image leaves the span of the basis")
    units = [row[i][0] for i, row in enumerate(pivot_rows)]
    den = lcm(1, *units)
    return [
        {j - nb: (re * (den // u), im * (den // u)) for j, (re, im) in row.items() if j >= nb}
        for u, row in zip(units, pivot_rows)
    ], den


class SpanSolver:
    """Repeatedly express vectors in the span of a fixed basis.

    Basis vectors are sparse dicts over arbitrary hashable coordinate
    keys.  coords() raises SpanError when a query leaves the span.  Only
    the tests call it, as an independent reference for `span_coords`.
    """

    def __init__(self, basis_vectors):
        self.dim = len(basis_vectors)
        keys = set()
        for v in basis_vectors:
            keys.update(v.keys())
        self.key_index = {k: i for i, k in enumerate(sorted(keys, key=repr))}
        nrows = len(self.key_index)
        rows = [dict() for _ in range(nrows)]
        for j, v in enumerate(basis_vectors):
            for k, val in v.items():
                val = QQi.coerce(val)
                if val:
                    rows[self.key_index[k]][j] = val
        self.b_rows = rows
        # greedy: first self.dim independent rows of B, in coordinate order
        echelon = []  # (pivot_col, reduced_row, original_row_index)
        pivot_rows = []
        for i, r in enumerate(rows):
            if len(pivot_rows) == self.dim:
                break
            red = dict(r)
            for col, prow, _ in echelon:
                if col in red:
                    _eliminate_into(red, prow, col)
            if red:
                col = min(red)
                inv = QQI_ONE / red[col]
                red = {j: inv * v for j, v in red.items()}
                echelon.append((col, red, i))
                pivot_rows.append(i)
        if len(pivot_rows) != self.dim:
            raise ValueError("basis vectors are linearly dependent")
        self.pivot_rows = pivot_rows
        block = [[rows[i].get(j, QQI_ZERO) for j in range(self.dim)] for i in pivot_rows]
        self.block_inv = _invert_dense(block)

    def coords(self, vector):
        """Coordinates of vector in the basis; SpanError if outside."""
        vec = {}
        for k, v in vector.items():
            v = QQi.coerce(v)
            if not v:
                continue
            idx = self.key_index.get(k)
            if idx is None:
                raise SpanError("vector has support outside the basis span")
            vec[idx] = v
        sub = [vec.get(i, QQI_ZERO) for i in self.pivot_rows]
        coeffs = _dense_matvec(self.block_inv, sub)
        for i, row in enumerate(self.b_rows):
            acc = QQI_ZERO
            for j, v in row.items():
                c = coeffs[j]
                if c:
                    acc = acc + v * c
            if acc != vec.get(i, QQI_ZERO):
                raise SpanError("vector is not in the span of the basis")
        return coeffs


def _invert_dense(block):
    n = len(block)
    a = [list(row) + [QQI_ONE if i == j else QQI_ZERO for j in range(n)] for i, row in enumerate(block)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col]:
                piv = r
                break
        if piv is None:
            raise ValueError("singular block")
        a[col], a[piv] = a[piv], a[col]
        inv = QQI_ONE / a[col][col]
        a[col] = [inv * x for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _dense_matvec(mat, vec):
    out = []
    for row in mat:
        acc = QQI_ZERO
        for a, b in zip(row, vec):
            if a and b:
                acc = acc + a * b
        out.append(acc)
    return out
