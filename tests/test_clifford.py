"""Gamma matrices against an independent oracle: exact blade arithmetic.

`CliffordElement` and `clifford_product` multiply basis blades e_I by
counting transpositions, with no matrices involved; `represent` must
carry their products to products of the gamma matrices of `gamma_rep`.
"""

import random

import pytest

from hsdfactor.clifford import gamma_rep, spinor_dim
from hsdfactor.gaussian import QQi, QQI_ZERO
from hsdfactor.linalg import Mat, SpanSolver
from hsd_oracle import trace


class CliffordElement:
    """Multivector: map from strictly increasing index tuples to scalars."""

    __slots__ = ("m", "blades")

    def __init__(self, m: int, blades=None):
        self.m = m
        self.blades = {}
        if blades:
            for key, val in blades.items():
                key = tuple(key)
                if list(key) != sorted(set(key)):
                    raise ValueError(f"blade index {key} not strictly increasing")
                if key and not (1 <= key[0] and key[-1] <= m):
                    raise ValueError(f"blade index {key} out of range 1..{m}")
                val = QQi.coerce(val)
                if val:
                    self.blades[key] = val

    @staticmethod
    def scalar(m, value):
        return CliffordElement(m, {(): value})

    @staticmethod
    def generator(m, i):
        return CliffordElement(m, {(i,): 1})

    def scale(self, c):
        c = QQi.coerce(c)
        return CliffordElement(self.m, {k: c * v for k, v in self.blades.items()})

    def __eq__(self, other):
        return self.m == other.m and self.blades == other.blades


def _blade_product(a: tuple, b: tuple):
    """Product of basis blades; returns (sign, index tuple).

    Moving each index of b into place counts transpositions past the
    current indices of a; a repeated index contracts with e_i^2 = -1.
    """
    out = list(a)
    sign = 1
    for idx in b:
        pos = len(out)
        while pos > 0 and out[pos - 1] > idx:
            pos -= 1
        sign *= (-1) ** (len(out) - pos)
        if pos > 0 and out[pos - 1] == idx:
            out.pop(pos - 1)
            sign *= -1  # e_i e_i = -1
        else:
            out.insert(pos, idx)
    return sign, tuple(out)


def clifford_product(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    if a.m != b.m:
        raise ValueError(f"dimension mismatch {a.m} vs {b.m}")
    blades = {}
    for ka, va in a.blades.items():
        for kb, vb in b.blades.items():
            sign, key = _blade_product(ka, kb)
            acc = blades.get(key, QQI_ZERO) + va * vb * sign
            if acc:
                blades[key] = acc
            elif key in blades:
                del blades[key]
    return CliffordElement(a.m, blades)


def spin_generators(m: int) -> list:
    """The m(m-1)/2 rotation generators gamma_a gamma_b / 2 for a < b."""
    gam = gamma_rep(m)
    half = QQi(1) / QQi(2)
    out = []
    for a in range(m):
        for b in range(a + 1, m):
            out.append((gam[a] * gam[b]).scale(half))
    return out


def gen(m, i):
    return CliffordElement.generator(m, i)


def test_defining_relations():
    m = 5
    assert clifford_product(gen(m, 1), gen(m, 1)) == CliffordElement.scalar(m, -1)
    e12 = clifford_product(gen(m, 1), gen(m, 2))
    e21 = clifford_product(gen(m, 2), gen(m, 1))
    assert e12 == e21.scale(-1)
    assert clifford_product(e12, e21) == CliffordElement.scalar(m, 1)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        clifford_product(gen(3, 1), gen(5, 1))


def random_element(m, rng):
    blades = {}
    for _ in range(5):
        size = rng.randint(0, 3)
        key = tuple(sorted(rng.sample(range(1, m + 1), size)))
        blades[key] = QQi(rng.randint(-4, 4), rng.randint(-4, 4))
    return CliffordElement(m, blades)


def test_associativity_random():
    rng = random.Random(20240917)
    for _ in range(40):
        a, b, c = (random_element(5, rng) for _ in range(3))
        left = clifford_product(clifford_product(a, b), c)
        right = clifford_product(a, clifford_product(b, c))
        assert left == right


@pytest.mark.parametrize("m", [3, 5, 7])
def test_gamma_rep(m):
    gam = gamma_rep(m)
    n = (m - 1) // 2
    assert len(gam) == m
    assert spinor_dim(m) == 2 ** n
    assert all(g.nrows == g.ncols == 2 ** n for g in gam)
    minus_two = Mat.identity(2 ** n).scale(-2)
    for i, gi in enumerate(gam):
        for j, gj in enumerate(gam):
            anti = gi * gj + gj * gi
            if i == j:
                assert anti == minus_two
            else:
                assert anti.is_zero()
                assert trace(gi * gj) == QQi(0)


def test_gamma_rep_rejects_even():
    with pytest.raises(ValueError):
        gamma_rep(4)


@pytest.mark.parametrize("m", [3, 5])
def test_spin_generator_closure(m):
    gens = spin_generators(m)
    assert len(gens) == m * (m - 1) // 2
    flat = []
    for g in gens:
        flat.append({(i, j): g[i, j] for i in range(g.nrows) for j in range(g.ncols) if g[i, j]})
    # commutators lie in span(generators) + span(identity)
    ident = Mat.identity(gens[0].nrows)
    flat.append({(i, i): QQi(1) for i in range(ident.nrows)})
    solver = SpanSolver(flat)
    for a in range(len(gens)):
        for b in range(len(gens)):
            comm = gens[a] * gens[b] - gens[b] * gens[a]
            vec = {(i, j): comm[i, j] for i in range(comm.nrows) for j in range(comm.ncols) if comm[i, j]}
            solver.coords(vec)  # raises if outside the span


def test_specific_bracket():
    g12, g13, g23 = spin_generators(3)
    assert g12 * g13 - g13 * g12 == g23
    # antisymmetry holds by construction: G_ba would be -G_ab
    assert (g12 * g12 - g12 * g12).is_zero()


def represent(a, gam):
    """rho(a) = sum_I a_I gamma_{i1} ... gamma_{ik}, with rho(1) the identity."""
    dim = gam[0].nrows
    out = Mat.zero(dim, dim)
    for blade, coeff in a.blades.items():
        word = Mat.identity(dim)
        for i in blade:
            word = word * gam[i - 1]
        out = out + word.scale(coeff)
    return out


@pytest.mark.parametrize("m", [3, 5, 7])
def test_gamma_rep_is_multiplicative(m):
    # the blade arithmetic of clifford_product is an oracle for gamma_rep:
    # e_I -> gamma_{i1} ... gamma_{ik} must carry products to products
    gam = gamma_rep(m)
    rng = random.Random(9000 + m)
    for _ in range(25):
        a, b = random_element(m, rng), random_element(m, rng)
        assert represent(clifford_product(a, b), gam) == represent(a, gam) * represent(b, gam)
