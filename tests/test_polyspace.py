import itertools
import random

import pytest
from fractions import Fraction

from hsdfactor.clifford import gamma_rep
from hsdfactor.gaussian import QQi
from hsdfactor.linalg import SpanError
from hsdfactor.polyspace import (
    Compose,
    Dirac,
    IDENTITY,
    LaplaceOp,
    MixedEuler,
    VectorMult,
    apply,
    exponents,
    homogeneous_basis,
    monomials,
    operator_matrix,
)
from test_acceptance import fischer_inner
from hsd_oracle import matvec
from polys import columns, lin, poly, scale, spinor_unit, stack


def coord_monomial(m, k, assignments, vec):
    exp = [0] * ((k + 1) * m)
    for coord, e in assignments:
        exp[coord] = e
    return poly(m, k, {tuple(exp): tuple(vec)})


def radius_squared(m, k, var=0):
    dim = 2 ** ((m - 1) // 2)
    unit = tuple(QQi(1) if s == 0 else QQi(0) for s in range(dim))
    return lin(*((coord_monomial(m, k, [(var * m + i, 2)], unit), 1) for i in range(m)))


def test_dirac_on_linear():
    m, k = 3, 0
    f = coord_monomial(m, k, [(0, 1)], (QQi(1), QQi(0)))  # x_1 * s0
    image = apply(Dirac(0), f)
    g1 = gamma_rep(m)[0]
    expected_vec = tuple(matvec(g1, [QQi(1), QQi(0)]))
    assert image == poly(m, k, {(0,) * m: expected_vec})


def test_dirac_squared_is_minus_laplace():
    m, k = 3, 1
    f = radius_squared(m, k)
    twice = apply(Dirac(0), apply(Dirac(0), f))
    assert twice == scale(spinor_unit(m, k, 0), -2 * m)
    assert apply(LaplaceOp(0), f) == scale(twice, -1)


def test_laplace_examples():
    m, k = 5, 0
    harmonic = coord_monomial(m, k, [(0, 1), (1, 1)], tuple(QQi(1 if s == 0 else 0) for s in range(4)))
    assert apply(LaplaceOp(0), harmonic).is_zero()  # x_1 x_2 is harmonic
    f = radius_squared(m, k)
    assert apply(LaplaceOp(0), f) == scale(spinor_unit(m, k, 0), 2 * m)


def test_mixed_euler_kills_independent_polynomials():
    m, k = 5, 2
    f = coord_monomial(m, k, [(0, 1)], tuple(QQi(1 if s == 0 else 0) for s in range(4)))
    assert apply(MixedEuler(1, 2), f).is_zero()


def test_euler_measures_degree():
    # the Euler operator of one variable group is MixedEuler(v, v)
    m, k = 3, 1
    f = coord_monomial(m, k, [(0, 2), (m + 1, 1)], (QQi(1), QQi(2)))
    assert apply(MixedEuler(0, 0), f) == scale(f, 2)
    assert apply(MixedEuler(1, 1), f) == scale(f, 1)


def test_mixed_euler_commutes_with_x_dirac():
    m, k = 3, 2
    rng = random.Random(11)
    basis = homogeneous_basis(m, k, (2, 1, 1))
    f = lin(*((b, QQi(rng.randint(-3, 3), rng.randint(-2, 2))) for b in rng.sample(list(basis), 6)))
    lhs = apply(MixedEuler(1, 2), apply(Dirac(0), f))
    rhs = apply(Dirac(0), apply(MixedEuler(1, 2), f))
    assert lhs == rhs


def test_apply_is_linear():
    m, k = 3, 1
    rng = random.Random(5)
    basis = homogeneous_basis(m, k, (1, 1))
    f = basis[3]
    g = basis[10]
    a, b = QQi(Fraction(2, 3)), QQi(0, 1)
    for spec in (Dirac(0), VectorMult(1), MixedEuler(1, 1), LaplaceOp(0)):
        lhs = apply(spec, lin((f, a), (g, b)))
        rhs = lin((apply(spec, f), a), (apply(spec, g), b))
        assert lhs == rhs


@pytest.mark.parametrize("m,k,degrees", [(3, 0, (2,)), (3, 1, (1, 2)), (5, 2, (0, 1, 1))])
def test_homogeneous_basis_is_exponent_major_spinor_minor(m, k, degrees):
    """Column j * 2^n + s is monomial j (variable groups outermost, in listed
    order) times spinor unit s, and basis[c] reads column c."""
    dim = 2 ** ((m - 1) // 2)
    exps = [sum(parts, ()) for parts in itertools.product(*(exponents(m, d) for d in degrees))]
    want = [poly(m, k, {e: [int(t == s) for t in range(dim)]}) for e in exps for s in range(dim)]
    basis = homogeneous_basis(m, k, degrees)
    assert basis == stack(want)
    assert list(basis) == want == columns(basis)
    assert monomials(m, k, degrees) == stack([poly(m, k, {e: [1]}) for e in exps])
    with pytest.raises(IndexError):
        basis[len(want)]


def test_homogeneous_basis_counts():
    assert len(homogeneous_basis(3, 0, (1,))) == 6
    assert len(homogeneous_basis(5, 1, (0, 1))) == 20
    assert len(homogeneous_basis(5, 0, (0,))) == 4


def test_operator_matrix_examples():
    dom = homogeneous_basis(3, 0, (1,))
    cod = homogeneous_basis(3, 0, (0,))
    mat = operator_matrix(Dirac(0), dom, cod)
    assert (mat.nrows, mat.ncols) == (2, 6)
    assert mat.rank() == 2
    ident = operator_matrix(IDENTITY, dom, dom)
    assert all(
        ident[i, j] == (QQi(1) if i == j else QQi(0))
        for i in range(6) for j in range(6)
    )
    zero = operator_matrix(LaplaceOp(0), dom, cod)
    assert all(zero[i, j] == QQi(0) for i in range(2) for j in range(6))


def test_operator_matrix_span_violation():
    dom = homogeneous_basis(3, 0, (2,))
    cod = homogeneous_basis(3, 0, (0,))  # Dirac lands in degree 1, not 0
    with pytest.raises(SpanError):
        operator_matrix(Dirac(0), dom, cod)


def test_operator_matrix_span_failures_are_internal_errors():
    """A truncated or a dependent codomain fails an engine self-check, an AssertionError."""
    from hsdfactor.repthy import orbital_spec, simplicial_harmonic_ambient
    from hsdfactor.weights import weight

    amb = simplicial_harmonic_ambient(weight(1), 3)
    spec = orbital_spec(0, 2, 3, amb.k)
    with pytest.raises(AssertionError, match="leaves the span"):
        operator_matrix(spec, amb.basis, stack(list(amb.basis)[:-1]))
    with pytest.raises(AssertionError, match="linearly dependent"):
        operator_matrix(spec, amb.basis, stack([amb.basis, amb.basis[0]]))
    assert issubclass(SpanError, AssertionError) and not issubclass(SpanError, ValueError)


def test_dirac_squared_matrix_identity():
    for degrees in ((2,), (3,)):
        dom = homogeneous_basis(3, 0, degrees)
        cod = homogeneous_basis(3, 0, (degrees[0] - 2,))
        dd = operator_matrix(Compose((Dirac(0), Dirac(0))), dom, cod)
        lap = operator_matrix(LaplaceOp(0), dom, cod)
        assert all(
            dd[i, j] == -lap[i, j]
            for i in range(len(cod)) for j in range(len(dom))
        )


def test_fischer_inner():
    m, k = 3, 0
    f = coord_monomial(m, k, [(0, 2)], (QQi(1), QQi(0)))
    g = coord_monomial(m, k, [(0, 2)], (QQi(0, 1), QQi(0)))
    assert fischer_inner(f, f) == QQi(2)          # 2! = 2
    assert fischer_inner(f, g) == QQi(0, 2)       # antilinear left slot
    h = coord_monomial(m, k, [(1, 2)], (QQi(1), QQi(0)))
    assert fischer_inner(f, h) == QQi(0)


def test_joint_kernel_of_specs():
    from hsdfactor.linalg import ResourceCapError
    from hsdfactor.polyspace import BlockPoly, combination, joint_kernel, stacked_rows

    dom = homogeneous_basis(3, 0, (2,))
    kernel = joint_kernel([Dirac(0)], dom)
    assert len(kernel) == 6  # degree-2 monogenics in R^3: 2 (k + 1)
    assert all(apply(Dirac(0), f).is_zero() for f in kernel)
    # stacking a second operator only adds constraints
    assert len(joint_kernel([Dirac(0), LaplaceOp(0)], dom)) == 6
    rows, den = stacked_rows([Dirac(0), LaplaceOp(0)], dom)
    assert {key[0] for key in rows} == {0, 1} and den == 1
    with pytest.raises(ResourceCapError, match=r"^elimination size 6x12 exceeds cap 71$"):
        joint_kernel([Dirac(0)], dom, cap=71)
    empty = BlockPoly(3, 0, 0, {})
    assert joint_kernel([Dirac(0)], empty, cap=0) == empty
    assert combination(dom, {0: QQi(2), 3: QQi(0, 1)}) == lin((dom[0], 2), (dom[3], QQi(0, 1)))
    assert combination(dom, [QQi(0)] * len(dom)).is_zero()
    # Gaussian-integer coefficients over a common denominator
    assert combination(dom, {0: (2, 0), 3: (0, 1)}, 4) == combination(dom, {0: QQi(Fraction(1, 2)), 3: QQi(0, Fraction(1, 4))})


def test_operator_matrix_columns_are_the_images():
    from hsdfactor.polyspace import combination

    dom = homogeneous_basis(3, 1, (1, 1))
    cod = homogeneous_basis(3, 1, (0, 1))
    mat = operator_matrix(Dirac(0), dom, cod)
    assert not mat.is_zero()
    for j, b in enumerate(dom):
        assert combination(cod, [mat[i, j] for i in range(len(cod))]) == apply(Dirac(0), b)
