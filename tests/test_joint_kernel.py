"""`stacked_rows` and `joint_kernel` against the QQi route they replaced.

The QQi route stacks every image's `coordinates` and reads the null
space off `ref_sparse_rref` with unit free entries.  The integer rows
over their common denominator must be those coordinates, and, since
every block is canonical, the joint kernel must be the very same
polynomials.
"""

from fractions import Fraction

import pytest

from hsdfactor.gaussian import QQi, QQI_ONE
from hsdfactor.polyspace import (
    Dirac,
    LaplaceOp,
    MixedEuler,
    MixedLaplace,
    ScalarMix,
    VectorMult,
    apply,
    combination,
    homogeneous_basis,
    joint_kernel,
    monomials,
    stacked_rows,
)
from polys import coordinates, stack
from test_sparse_rref import ref_sparse_rref


def qqi_rows(ops, domain):
    """(operator index, coordinate) -> {column: QQi}, in order of first appearance."""
    rows = {}
    for si, op in enumerate(ops):
        for j, b in enumerate(domain):
            image = apply(op, b)
            for key, val in coordinates(image).items():
                rows.setdefault((si, key), {})[j] = val
    return rows


def qqi_joint_kernel(ops, domain):
    pivots, reduced = ref_sparse_rref(list(qqi_rows(ops, domain).values()), len(domain))
    null = [
        {free: QQI_ONE, **{c: -row[free] for c, row in zip(pivots, reduced) if free in row}}
        for free in range(len(domain))
        if free not in pivots
    ]
    return stack([combination(domain, vec) for vec in null])


def test_stacked_rows_over_den_are_the_coordinates():
    m, k = 3, 1
    # the scaled mixed Euler operator gives the images a denominator 3
    ops = [Dirac(1), VectorMult(1), ScalarMix(((Fraction(1, 3), MixedEuler(0, 1)),))]
    domain = homogeneous_basis(m, k, (1, 1))
    rows, den = stacked_rows(ops, domain)
    assert den == 3
    # row order is not part of the contract, but it is deterministic
    assert list(rows) == list(stacked_rows(ops, domain)[0])
    want = qqi_rows(ops, domain)
    assert {
        key: {j: QQi(Fraction(re, den), Fraction(im, den)) for j, (re, im) in row.items()}
        for key, row in rows.items()
    } == want


def monogenic(lam, m):
    k = len(lam)
    specs = [Dirac(p) for p in range(1, k + 1)]
    specs += [MixedEuler(p, q) for p in range(1, k + 1) for q in range(p + 1, k + 1)]
    return specs, homogeneous_basis(m, k, (0,) + lam)


def harmonic(lam, m):
    k = len(lam)
    specs = [LaplaceOp(p) for p in range(1, k + 1)]
    specs += [MixedLaplace(p, q) for p in range(1, k + 1) for q in range(p + 1, k + 1)]
    specs += [MixedEuler(p, q) for p in range(1, k + 1) for q in range(p + 1, k + 1)]
    return specs, monomials(m, k, (0,) + lam)


@pytest.mark.parametrize("lam,m", [((1,), 3), ((2,), 3), ((1, 1), 5)])
@pytest.mark.parametrize("space", [monogenic, harmonic])
def test_joint_kernel_is_the_qqi_route(space, lam, m):
    specs, domain = space(lam, m)
    got = joint_kernel(specs, domain)
    assert got and got == qqi_joint_kernel(specs, domain)
