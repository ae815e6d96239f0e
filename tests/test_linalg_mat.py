"""Property tests of the fraction-free Mat against a naive QQi reference."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hsdfactor.gaussian import QQi, QQI_ZERO
from hsdfactor.linalg import Mat
from hsd_oracle import matvec, trace

examples = settings(max_examples=60, deadline=None)
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
scalars = st.one_of(
    st.just(QQI_ZERO),
    st.builds(QQi, rationals, st.just(Fraction(0))),
    st.builds(QQi, rationals, rationals),
)
dims = st.integers(1, 4)


def matrices(nrows, ncols):
    return st.lists(st.lists(scalars, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)


@st.composite
def square(draw):
    n = draw(dims)
    return draw(matrices(n, n))


@st.composite
def same_shape_pair(draw):
    n, m = draw(dims), draw(dims)
    return draw(matrices(n, m)), draw(matrices(n, m))


@st.composite
def chain(draw):
    n, k, m, p = draw(dims), draw(dims), draw(dims), draw(dims)
    return draw(matrices(n, k)), draw(matrices(k, m)), draw(matrices(m, p))


def naive_mul(a, b):
    out = []
    for row in a:
        acc = []
        for t in range(len(b[0])):
            s = QQI_ZERO
            for j, x in enumerate(row):
                s = s + x * b[j][t]
            acc.append(s)
        out.append(acc)
    return out


def assert_canonical(mat):
    assert mat.den > 0
    g = mat.den
    for row in mat.num:
        for j, (re, im) in row.items():
            assert 0 <= j < mat.ncols
            assert re or im
            g = gcd(g, re, im)
    assert g == 1


@examples
@given(square())
def test_rows_getitem_and_trace_match_reference(a):
    mat = Mat(a)
    assert_canonical(mat)
    assert mat.rows == a
    assert all(mat[i, j] == a[i][j] for i in range(len(a)) for j in range(len(a[0])))
    for outside in ((0, len(a)), (len(a), 0), (-1, 0)):
        with pytest.raises(IndexError):
            mat[outside]
    expected = QQI_ZERO
    for i in range(len(a)):
        expected = expected + a[i][i]
    assert trace(mat) == expected


@examples
@given(same_shape_pair())
def test_add_sub_match_reference(pair):
    a, b = pair
    total = Mat(a) + Mat(b)
    diff = Mat(a) - Mat(b)
    assert_canonical(total)
    assert_canonical(diff)
    assert total.rows == [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]
    assert diff.rows == [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]


@examples
@given(same_shape_pair(), scalars)
def test_scale_matches_reference(pair, c):
    a, _ = pair
    scaled = Mat(a).scale(c)
    assert_canonical(scaled)
    assert scaled.rows == [[c * x for x in row] for row in a]
    assert Mat(a) * c == scaled
    assert 3 * Mat(a) == Mat(a).scale(3)


@examples
@given(chain())
def test_product_matches_reference_and_associates(triple):
    a, b, c = triple
    ab = Mat(a) * Mat(b)
    assert_canonical(ab)
    assert ab.rows == naive_mul(a, b)
    assert (ab * Mat(c)) == (Mat(a) * (Mat(b) * Mat(c)))


@examples
@given(chain())
def test_matvec_matches_reference(triple):
    a, b, _ = triple
    vec = [row[0] for row in b]
    assert matvec(Mat(a), vec) == [row[0] for row in naive_mul(a, b)]


@examples
@given(same_shape_pair())
def test_canonical_form(pair):
    a, b = pair
    n, m = len(a), len(a[0])
    A, B = Mat(a), Mat(b)
    assert A - A == Mat.zero(n, m)
    assert (A - A).is_zero() and (A - A).den == 1
    assert (A + B) - B == A
    assert A * Mat.identity(m) == A == Mat.identity(n) * A
    assert A.scale(2) == A + A
    assert (A == B) == (a == b)


@examples
@given(square(), scalars)
def test_rank_is_invariant_under_nonzero_scaling(a, c):
    mat = Mat(a)
    if c:
        assert mat.scale(c).rank() == mat.rank()
    else:
        assert mat.scale(c).rank() == 0


@examples
@given(same_shape_pair(), scalars)
def test_qqi_on_the_left_reaches_mat_rmul(pair, c):
    a, _ = pair
    assert c * Mat(a) == Mat(a) * c
    with pytest.raises(TypeError):
        c * 0.5  # no floating point: any operand but QQi, int or Fraction is refused


@st.composite
def sums_of_products(draw):
    """1-4 terms of one n x m output: products a * b, and scalings c * a."""
    n, m = draw(dims), draw(dims)
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            inner = draw(dims)
            terms.append((draw(matrices(n, inner)), draw(matrices(inner, m))))
        else:
            terms.append((draw(matrices(n, m)), draw(scalars)))
    return terms


def naive_term(a, b):
    return naive_mul(a, b) if isinstance(b, list) else [[b * x for x in row] for row in a]


def as_operand(b):
    return Mat(b) if isinstance(b, list) else b


@examples
@given(sums_of_products())
def test_sum_of_products_matches_reference_and_pairwise_route(terms):
    """Mixed denominators and imaginary parts: the naive QQi sum, and the sum of
    `*` one term at a time folded with `+`, give the same canonical matrix."""
    fused = Mat.sum_of_products([(Mat(a), as_operand(b)) for a, b in terms])
    assert_canonical(fused)
    expected = naive_term(*terms[0])
    for a, b in terms[1:]:
        expected = [[x + y for x, y in zip(r, s)] for r, s in zip(expected, naive_term(a, b))]
    assert fused.rows == expected
    pairwise = Mat(terms[0][0]) * as_operand(terms[0][1])
    for a, b in terms[1:]:
        pairwise = pairwise + Mat(a) * as_operand(b)
    assert fused == pairwise


@examples
@given(sums_of_products())
def test_sum_of_products_that_cancels_is_the_canonical_zero(terms):
    negated = [(a, Mat(b).scale(-1) if isinstance(b, list) else -b) for a, b in terms]
    pairs = [(Mat(a), as_operand(b)) for a, b in terms] + [(Mat(a), b) for a, b in negated]
    total = Mat.sum_of_products(pairs)
    assert total.is_zero() and total.den == 1
    assert total == Mat.zero(len(terms[0][0]), total.ncols)


def test_shape_mismatches_are_engine_errors():
    from hsdfactor.linalg import ShapeError

    a, b = Mat.identity(2), Mat.identity(3)
    assert issubclass(ShapeError, AssertionError) and not issubclass(ShapeError, ValueError)
    with pytest.raises(ShapeError, match="shape mismatch 2x2 \\* 3x3"):
        a * b
    with pytest.raises(ShapeError, match="terms of shapes 2x2 and 3x3 in one sum"):
        a + b
    with pytest.raises(ShapeError, match="shape mismatch 2x2 \\* 3x3"):
        Mat.sum_of_products([(a, a), (a, b)])  # the second pair is checked too
    with pytest.raises(ShapeError, match="terms of shapes 2x2 and 3x3 in one sum"):
        Mat.sum_of_products([(a, a), (b, 2)])
