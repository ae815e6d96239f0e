"""Specs applied once per domain, against the per-element route.

`stacked_rows`, `operator_matrix` and `hsd._degree_one_images` apply a
spec once, to the whole domain held as a `BlockPoly`: one
spinor_dim x len(domain) `Mat` per exponent, column j holding domain[j].
Every image is linear and exact and each block is canonical, so the
rows, their common denominator and the matrices must be those of
applying the spec to each domain element on its own.  The domains mix
denominators: they are simplicial monogenic bases, or simplicial
harmonics, or random polynomials with a zero element among them, imaged
under random spec trees and checked against the QQi oracle `ref_apply`.
The Casimir matrix, built from generator matrices, is checked against
the second-order spec -sum L_ab L_ab applied to each ambient element by
the same oracle.
"""

from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from hsdfactor.clifford import gamma_rep
from hsdfactor.gaussian import QQi
from hsdfactor.hsd import explicit_hsd
from hsdfactor.linalg import Mat, SpanSolver
from hsdfactor.polyspace import (
    IDENTITY,
    Compose,
    CoordOp,
    Dirac,
    LaplaceOp,
    MixedEuler,
    MixedLaplace,
    ScalarMix,
    SpinorPoly,
    VectorMult,
    apply,
    homogeneous_basis,
    joint_kernel,
    operator_matrix,
    stacked_rows,
)
from hsdfactor.repthy import (
    casimir_matrix,
    orbital_spec,
    simplicial_harmonic_ambient,
    simplicial_monogenic_basis,
    so_generators,
)
from hsdfactor.weights import weight
from hsd_oracle import x_shift
from test_polyspace_oracle import SpinorMat, polys, rationals, ref_apply, spaces, to_ref


def per_element_rows(specs, domain):
    """(spec index, (exponent, spinor index)) -> {column: (re, im)} over the lcm, one image at a time."""
    images = [[apply(spec, b) for b in domain] for spec in specs]
    den = lcm(*(f.den for fs in images for f in fs))
    rows = {}
    for si, fs in enumerate(images):
        for j, f in enumerate(fs):
            scale = den // f.den
            for exp, vec in f.num.items():
                for s, (re, im) in enumerate(vec):
                    if re or im:
                        rows.setdefault((si, (exp, s)), {})[j] = (re * scale, im * scale)
    return rows, den


def per_element_matrix(spec, domain, codomain):
    solver = SpanSolver([b.coordinates() for b in codomain])
    columns = [solver.coords(apply(spec, b).coordinates()) for b in domain]
    return Mat([[col[i] for col in columns] for i in range(len(codomain))])


def ref_generator_spec(a, b, m, k):
    """L_ab as one spec: sum_p (u_{p,b} d_{p,a} - u_{p,a} d_{p,b}) plus
    gamma_a gamma_b / 2 as a `SpinorMat`."""
    gam = gamma_rep(m)
    parts = [(1, SpinorMat((gam[a] * gam[b]).scale(QQi(Fraction(1, 2)))))]
    for p in range(1, k + 1):
        parts += [(1, CoordOp(p * m + b, p * m + a)), (-1, CoordOp(p * m + a, p * m + b))]
    return ScalarMix(tuple(parts))


def ref_casimir_spec(m, k):
    """The quadratic Casimir -sum_{a<b} L_ab L_ab as one second-order spec."""
    gens = [ref_generator_spec(a, b, m, k) for a in range(m) for b in range(a + 1, m)]
    return ScalarMix(tuple((-1, Compose((lab, lab))) for lab in gens))


def ref_matrices(specs, basis):
    """The matrix of each spec on span(basis), one element at a time: each
    image from the QQi oracle `ref_apply`, its coordinates from `SpanSolver`."""
    solver = SpanSolver([b.coordinates() for b in basis])
    out = []
    for spec in specs:
        columns = []
        for b in basis:
            image = ref_apply(spec, to_ref(b))
            columns.append(solver.coords({(exp, s): c for exp, vec in image.terms.items() for s, c in enumerate(vec)}))
        out.append(Mat([[col[i] for col in columns] for i in range(len(basis))]))
    return out


def shifted_monogenic(lam, m):
    """x_i (x) b_j over a simplicial monogenic basis, i-major."""
    basis = simplicial_monogenic_basis(weight(*lam), m).basis
    units = [tuple(int(t == i) for t in range(m)) for i in range(m)]
    return [x_shift(b, e) for e in units for b in basis]


def check_rows(specs, domain):
    rows, den = stacked_rows(specs, domain)
    want, want_den = per_element_rows(specs, domain)
    # row order is not part of the contract: the dicts compare as sets
    assert rows and den == want_den and rows == want


@pytest.mark.parametrize("lam,m", [((3,), 3), ((2, 1), 5)])
def test_stacked_rows_of_the_explicit_spec(lam, m):
    assert len({b.den for b in simplicial_monogenic_basis(weight(*lam), m).basis}) > 1
    check_rows([explicit_hsd(weight(*lam), m).spec], shifted_monogenic(lam, m))


def test_stacked_rows_of_the_casimir_and_of_several_specs():
    basis = simplicial_monogenic_basis(weight(3), 3).basis
    # the orbital Casimir -sum O_ab O_ab: a second-order spec of nested mixes
    orbitals = [orbital_spec(a, b, 3, 1) for a in range(3) for b in range(a + 1, 3)]
    check_rows([ScalarMix(tuple((-1, Compose((o, o))) for o in orbitals))], basis)
    # the specs' images have different common denominators: 3, 2 and 4
    half = ScalarMix(((Fraction(1, 2), MixedEuler(1, 1)),))
    specs = [VectorMult(0), half, Compose((half, half))]
    assert [lcm(*(apply(spec, b).den for b in basis)) for spec in specs] == [3, 2, 4]
    check_rows(specs, basis)


def spec_trees(m, k):
    """Trees over all eight spec kinds, mixed with Fraction and Gaussian coefficients."""
    var = st.integers(0, k)
    coord = st.integers(0, (k + 1) * m - 1)
    leaf = st.one_of(
        st.builds(Dirac, var),
        st.builds(VectorMult, var),
        st.builds(MixedEuler, var, var),
        st.builds(LaplaceOp, var),
        st.builds(MixedLaplace, var, var),
        st.builds(CoordOp, coord, coord),
    )
    weights = st.one_of(rationals, st.builds(QQi, rationals, rationals))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3).map(lambda parts: Compose(tuple(parts))),
            st.lists(st.tuples(weights, inner), min_size=1, max_size=3).map(lambda parts: ScalarMix(tuple(parts))),
        ),
        max_leaves=5,
    )


@st.composite
def specs_and_domain(draw):
    """Spec trees plus one spec whose image is empty, on a domain with a zero
    element and an element over a denominator divisible by 3."""
    m, k = draw(spaces)
    specs = draw(st.lists(spec_trees(m, k), min_size=1, max_size=3))
    cancel = draw(spec_trees(m, k))
    specs.append(ScalarMix(((1, cancel), (-1, cancel))))
    domain = draw(st.lists(polys(m, k), min_size=1, max_size=4))
    domain += [SpinorPoly(m, k), domain[0].scale(QQi(Fraction(1, 3), Fraction(2, 3)))]
    return draw(st.permutations(specs)), draw(st.permutations(domain))


@settings(max_examples=60, deadline=None)
@given(specs_and_domain())
def test_stacked_rows_are_the_oracle_coordinates(case):
    specs, domain = case
    want = {}
    for si, spec in enumerate(specs):
        for j, b in enumerate(domain):
            for exp, vec in ref_apply(spec, to_ref(b)).terms.items():
                for s, c in enumerate(vec):
                    if c:
                        want.setdefault((si, (exp, s)), {})[j] = c
    want_den = lcm(1, *(x.denominator for row in want.values() for c in row.values() for x in (c.re, c.im)))
    rows, den = stacked_rows(specs, domain)
    assert den == want_den
    assert {
        key: {j: QQi(Fraction(re, den), Fraction(im, den)) for j, (re, im) in row.items()}
        for key, row in rows.items()
    } == want
    assert list(rows) == list(stacked_rows(specs, domain)[0])


def test_the_explicit_specs_are_the_two_shapes():
    # one form for (), (k) and (k,l): a Compose of one ScalarMix factor per row, then Dirac(0)
    for lam, m in (((0,), 3), ((3,), 3), ((2, 1), 5)):
        spec = explicit_hsd(weight(*lam), m).spec
        assert isinstance(spec, Compose) and spec.specs[-1] == Dirac(0)
        rows = len([e for e in lam if e])
        assert len(spec.specs) == rows + 1 and all(isinstance(part, ScalarMix) for part in spec.specs[:-1])


@pytest.mark.parametrize("lam,m", [((1,), 3), ((1, 1), 5), ((2,), 3), ((1, 0), 5), ((2, 1), 5)])
def test_casimir_matrix_is_the_per_element_matrix(lam, m):
    ambient = simplicial_harmonic_ambient(weight(*lam), m)
    a, b = 0, m - 1
    cas, lab = ref_matrices([ref_casimir_spec(m, ambient.k), ref_generator_spec(a, b, m, ambient.k)], ambient.basis)
    got = casimir_matrix(ambient)
    assert got == cas and not got.is_zero()
    assert so_generators(ambient)[a, b] == lab


def test_operator_matrix_on_a_codomain_with_mixed_denominators():
    """O_12 on the (3), m = 3 harmonic scalars: the den_B / den_V rescale of `operator_matrix`."""
    basis = simplicial_harmonic_ambient(weight(3), 3).basis[::2]
    assert {f.den for f in basis} == {1, 3}
    spec = orbital_spec(1, 2, 3, basis[0].k)
    got = operator_matrix(spec, basis, basis)
    assert got == per_element_matrix(spec, basis, basis)
    assert not got.is_zero()


def image_rows(op):
    """The rows of [A_1 ... A_m] as a multiset of {(i, j): rational (re, im)}."""
    rows = {}
    for sig, mat in op.deriv_op.terms.items():
        i = sig.index(1)
        for r, row in enumerate(mat.num):
            for j, (re, im) in row.items():
                rows.setdefault(r, {})[i, j] = (Fraction(re, mat.den), Fraction(im, mat.den))
    return Counter(frozenset(row.items()) for row in rows.values())


@pytest.mark.parametrize("lam,m", [((2,), 3), ((1, 1), 5)])
def test_degree_one_images_are_the_per_element_images(lam, m):
    op = explicit_hsd(weight(*lam), m)
    d = len(op.source_basis)
    want, den = per_element_rows([op.spec], shifted_monogenic(lam, m))
    ref = Counter(
        frozenset(((c // d, c % d), (Fraction(re, den), Fraction(im, den))) for c, (re, im) in row.items())
        for row in want.values()
    )
    assert image_rows(op) == ref
    assert all(mat.nrows == len(want) for mat in op.deriv_op.terms.values())


def test_empty_domains():
    dom = homogeneous_basis(3, 0, (1,))
    cod = homogeneous_basis(3, 0, (0,))
    assert stacked_rows([Dirac(0)], []) == ({}, 1)
    assert stacked_rows([], dom) == ({}, 1)
    assert joint_kernel([Dirac(0)], []) == []
    mat = operator_matrix(Dirac(0), [], cod)
    assert (mat.nrows, mat.ncols) == (len(cod), 0)
    mat = operator_matrix(IDENTITY, [], [])
    assert (mat.nrows, mat.ncols) == (0, 0)
