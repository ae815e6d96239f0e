"""The integer-preserving sparse_rref against the QQi elimination it replaced.

`ref_sparse_rref` is the earlier production code, kept apart from its
name: it normalises each pivot row to a unit pivot and subtracts QQi
multiples of it.  Each QQi row is given to the fraction-free version as
Gaussian integers over its own denominator; its pivot rows, scaled to a
unit pivot, must equal the oracle's `(pivots, reduced)` pair, since the
reduced row echelon form is unique and the pivot choice depends only on
the supports.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from hsdfactor.gaussian import QQi, QQI_ONE, QQI_ZERO
from hsdfactor.linalg import Mat, SpanError, int_nullspace, nullity, solve_sparse, span_coords, sparse_rref

examples = settings(max_examples=150, deadline=None)


# --- oracle ----------------------------------------------------------------

def _eliminate_into(target, pivot_row, col):
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


def ref_sparse_rref(rows, ncols):
    work = [dict(r) for r in rows if r]
    live = list(range(len(work)))
    pivots = []
    pivot_rows = []
    for col in range(ncols):
        best = None
        for i in live:
            r = work[i]
            if col in r:
                key = (len(r), i)
                if best is None or key < best:
                    best = key
        if best is None:
            continue
        idx = best[1]
        live.remove(idx)
        prow = work[idx]
        inv = QQI_ONE / prow[col]
        prow = {j: inv * v for j, v in prow.items()}
        for i in live:
            if col in work[i]:
                _eliminate_into(work[i], prow, col)
        for prev in pivot_rows:
            if col in prev:
                _eliminate_into(prev, prow, col)
        pivots.append(col)
        pivot_rows.append(prow)
    return pivots, pivot_rows


# --- strategies --------------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12))
nonzero = st.one_of(
    st.builds(QQi, rationals, st.just(Fraction(0))),
    st.builds(QQi, st.just(Fraction(0)), rationals),  # purely imaginary pivots
    st.builds(QQi, rationals, rationals),
)


def _add(a, b, c):
    """a + c * b on sparse QQi rows, zero entries dropped."""
    out = dict(a)
    for j, v in b.items():
        s = out.get(j, QQI_ZERO) + c * v
        if s:
            out[j] = s
        else:
            out.pop(j, None)
    return out


@st.composite
def sparse_matrices(draw):
    """Sparse rows with empty rows and rows that combine earlier ones."""
    ncols = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["sparse", "sparse", "empty", "dependent"]))
        if kind == "dependent" and rows:
            picks = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), nonzero), min_size=1, max_size=3))
            row = {}
            for i, c in picks:
                row = _add(row, rows[i], c)
        elif kind == "empty":
            row = {}
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
            row = {j: draw(nonzero) for j in sorted(cols)}
        rows.append(row)
    return rows, ncols


def int_row(row):
    """A QQi row as Gaussian integers over its own common denominator."""
    den = lcm(1, *(d for v in row.values() for d in (v.re.denominator, v.im.denominator)))
    return {j: (int(v.re * den), int(v.im * den)) for j, v in row.items()}


def over(vec, unit):
    """An integer row or vector divided by a positive integer, as QQi."""
    return {j: QQi(Fraction(re, unit), Fraction(im, unit)) for j, (re, im) in vec.items()}


def dot(row, vec):
    """sum row[j] * vec[j] on Gaussian-integer pairs, as a pair."""
    re = im = 0
    for j, (a, b) in row.items():
        c, d = vec.get(j, (0, 0))
        re += a * c - b * d
        im += a * d + b * c
    return re, im


def primitive(vec):
    return gcd(*(x for pair in vec.values() for x in pair)) == 1


# --- tests -------------------------------------------------------------------

@examples
@given(sparse_matrices())
def test_rref_matches_qqi_oracle(case):
    rows, ncols = case
    int_rows = [int_row(r) for r in rows]
    snapshot = [dict(r) for r in int_rows]
    pivots, pivot_rows = sparse_rref(int_rows, ncols)
    assert (pivots, [over(row, row[col][0]) for col, row in zip(pivots, pivot_rows)]) == ref_sparse_rref(rows, ncols)
    assert int_rows == snapshot  # inputs untouched
    for col, row in zip(pivots, pivot_rows):
        assert row[col][0] > 0 and row[col][1] == 0
        assert primitive(row)
        assert all(re or im for re, im in row.values())
        assert not any(other in row for other in pivots if other != col)


@examples
@given(sparse_matrices())
def test_rank_nullspace_and_mat_rank_agree(case):
    rows, ncols = case
    int_rows = [int_row(r) for r in rows]
    rank = len(ref_sparse_rref(rows, ncols)[0])
    assert len(sparse_rref(int_rows, ncols)[0]) == rank
    null = int_nullspace(int_rows, ncols)
    assert len(null) == ncols - rank
    for vec in null:
        for row in int_rows:
            assert dot(row, vec) == (0, 0)
    dense = [[row.get(j, QQI_ZERO) for j in range(ncols)] for row in rows]
    if dense:
        assert Mat(dense).rank() == rank


@examples
@given(sparse_matrices())
def test_int_nullspace_is_the_scaled_nullspace(case):
    """Fraction-free null space: primitive Gaussian-integer multiples of
    the vectors read off the oracle's RREF, each with a positive free
    entry."""
    rows, ncols = case
    pivots, reduced = ref_sparse_rref(rows, ncols)
    want = [
        {free: QQI_ONE, **{c: -row[free] for c, row in zip(pivots, reduced) if free in row}}
        for free in range(ncols)
        if free not in pivots
    ]
    got = int_nullspace([int_row(r) for r in rows], ncols)
    assert len(got) == len(want)
    for vec, ref in zip(got, want):
        free = max(vec)
        assert ref[free] == QQI_ONE and vec[free][0] > 0 and vec[free][1] == 0
        assert primitive(vec)
        assert over(vec, vec[free][0]) == ref


gaussian_integers = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


@examples
@given(sparse_matrices(), st.data())
def test_solve_sparse_consistent_and_inconsistent(case, data):
    rows, ncols = case
    rows = [int_row(r) for r in rows]
    x = {j: data.draw(gaussian_integers) for j in range(ncols)}
    rhs = [dot(row, x) for row in rows]
    solved = solve_sparse(rows, rhs, ncols)
    assert solved is not None
    particular, null = solved
    for row, (re, im) in zip(rows, rhs):
        assert sum((v * particular[j] for j, v in over(row, 1).items() if j in particular), QQI_ZERO) == QQi(re, im)
    assert len(null) == ncols - len(sparse_rref(rows, ncols)[0])
    assert null == int_nullspace(rows, ncols)
    # a copy of an existing row with a different right-hand side, or a
    # nonzero right-hand side on an empty row, has no solution
    i = data.draw(st.integers(0, len(rows)))
    extra_row = dict(rows[i]) if i < len(rows) else {}
    re, im = rhs[i] if i < len(rows) else (0, 0)
    shift = data.draw(gaussian_integers.filter(any))
    assert solve_sparse(rows + [extra_row], rhs + [(re + shift[0], im + shift[1])], ncols) is None


@examples
@given(sparse_matrices(), st.data())
def test_span_coords_recovers_the_coordinates(case, data):
    """[q B | B X] gives back X / q; a dependent B, or a V outside B's span, raises SpanError."""
    rows, nb = case
    rows = [int_row(r) for r in rows]
    k = data.draw(st.integers(0, 3))
    q = data.draw(st.integers(1, 6))
    # rows of X with different contents, so the pivots of [q B | B X] differ
    x = []
    for _ in range(nb):
        f = data.draw(st.integers(1, 6))
        x.append([(f * re, f * im) for re, im in (data.draw(gaussian_integers) for _ in range(k))])
    aug = []
    for row in rows:
        image = {nb + j: dot(row, {i: x[i][j] for i in range(nb)}) for j in range(k)}
        aug.append({j: (q * re, q * im) for j, (re, im) in row.items()} | {c: p for c, p in image.items() if any(p)})
    if len(sparse_rref(rows, nb)[0]) < nb:
        with pytest.raises(SpanError, match="dependent"):
            span_coords(aug, nb, nb + k)
        return
    num, den = span_coords(aug, nb, nb + k)
    assert [over(r, den) for r in num] == [over({j: p for j, p in enumerate(xr) if any(p)}, q) for xr in x]
    if len(rows) > nb:
        # the unit vectors span every row coordinate, so one leaves B's span
        units = [row | {nb + r: (1, 0)} for r, row in enumerate(rows)]
        with pytest.raises(SpanError, match="leaves"):
            span_coords(units, nb, nb + len(rows))


# scalings that leave a pivot non-unit or purely imaginary: 2, 1 + i and i
SCALES = [(2, 0), (1, 1), (0, 1)]


def mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


@st.composite
def staircase_matrices(draw):
    """Gaussian-integer rows in echelon shape whose entries at later pivot
    columns are nonzero, each scaled by 2, 1 + i or i, plus combinations
    of them, shuffled: back substitution has to clear every later pivot,
    through pivots that are neither 1 nor real."""
    ncols = draw(st.integers(2, 7))
    pivots = sorted(draw(st.sets(st.integers(0, ncols - 1), min_size=2, max_size=ncols)))
    rows = []
    for col in pivots:
        row = {col: draw(st.sampled_from([(2, 0), (3, 0), (1, 1), (0, 2), (0, -3), (-2, 1)]))}
        for j in range(col + 1, ncols):
            if j in pivots or draw(st.booleans()):
                row[j] = draw(gaussian_integers.filter(any))
        scale = draw(st.sampled_from(SCALES))
        rows.append({j: mul(v, scale) for j, v in row.items()})
    for _ in range(draw(st.integers(0, 3))):
        row = {}
        for i in draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3)):
            c = draw(st.sampled_from(SCALES + [(1, 0), (-1, 0)]))
            for j, v in rows[i].items():
                re, im = mul(v, c)
                re, im = re + row.get(j, (0, 0))[0], im + row.get(j, (0, 0))[1]
                row[j] = (re, im)
        rows.append({j: v for j, v in row.items() if any(v)})
    return draw(st.permutations(rows)), ncols


@examples
@given(staircase_matrices())
def test_back_substitution_through_non_unit_and_imaginary_pivots(case):
    rows, ncols = case
    snapshot = [dict(r) for r in rows]
    qqi_rows = [over(r, 1) for r in rows]
    pivots, pivot_rows = sparse_rref(rows, ncols)
    assert rows == snapshot  # inputs untouched
    assert (pivots, [over(row, row[col][0]) for col, row in zip(pivots, pivot_rows)]) == ref_sparse_rref(qqi_rows, ncols)
    for col, row in zip(pivots, pivot_rows):
        assert row[col][0] > 0 and row[col][1] == 0
        assert primitive(row)
        assert not any(other in row for other in pivots if other != col)
    dense = [[v.get(j, QQI_ZERO) for j in range(ncols)] for v in qqi_rows]
    assert nullity(rows, ncols) == len(int_nullspace(rows, ncols)) == ncols - Mat(dense).rank()
    assert rows == snapshot


def test_solve_sparse_inconsistent_example():
    rows = [{0: (1, 0), 1: (0, 1)}, {0: (2, 0), 1: (0, 2)}]
    assert solve_sparse(rows, [(1, 0), (3, 0)], 2) is None
    particular, null = solve_sparse(rows, [(1, 0), (2, 0)], 2)
    assert particular == {0: QQi(1)}
    assert null == [{1: (1, 0), 0: (0, -1)}]
