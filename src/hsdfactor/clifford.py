"""Exact Clifford algebra arithmetic and a matrix spinor representation.

The algebra on generators e_1..e_m obeys e_p e_q + e_q e_p = -2 delta_pq.
For odd m = 2n+1 the spinor space is realized concretely as column
vectors of length 2^n acted on by gamma matrices built from the usual
Pauli tensor construction; the factor i that squares the generators to
-1 is why scalars are Gaussian rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .gaussian import QQi, QQI_I, QQI_ZERO
from .linalg import Mat


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

    def __add__(self, other):
        self._check(other)
        blades = dict(self.blades)
        for k, v in other.blades.items():
            acc = blades.get(k, QQI_ZERO) + v
            if acc:
                blades[k] = acc
            elif k in blades:
                del blades[k]
        return CliffordElement(self.m, blades)

    def __neg__(self):
        return CliffordElement(self.m, {k: -v for k, v in self.blades.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = QQi.coerce(c)
        return CliffordElement(self.m, {k: c * v for k, v in self.blades.items()})

    def _check(self, other):
        if self.m != other.m:
            raise ValueError(f"dimension mismatch {self.m} vs {other.m}")

    def is_zero(self):
        return not self.blades

    def __eq__(self, other):
        if isinstance(other, (int, QQi)):
            other = CliffordElement.scalar(self.m, other)
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.m == other.m and self.blades == other.blades

    __hash__ = None

    def __repr__(self):
        if not self.blades:
            return "0"
        parts = []
        for key in sorted(self.blades, key=lambda b: (len(b), b)):
            label = "e" + "".join(str(i) for i in key) if key else "1"
            parts.append(f"({self.blades[key]})*{label}")
        return " + ".join(parts)


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
    a._check(b)
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


# ---------------------------------------------------------------------------
# gamma matrices


@dataclass(frozen=True)
class GammaRep:
    m: int
    generators: tuple  # m matrices of size 2^n

    @property
    def spinor_dim(self) -> int:
        return 2 ** ((self.m - 1) // 2)


_PAULI_X = Mat([[0, 1], [1, 0]])
_PAULI_Y = Mat([[0, QQi(0, -1)], [QQi(0, 1), 0]])
_PAULI_Z = Mat([[1, 0], [0, -1]])


def _kron(a: Mat, b: Mat) -> Mat:
    rows = []
    for ra in a.rows:
        for rb in b.rows:
            rows.append([x * y for x in ra for y in rb])
    return Mat(rows)


@lru_cache(maxsize=None)
def gamma_rep(m: int) -> GammaRep:
    """Deterministic gamma matrices for odd m with gamma_i^2 = -1.

    The construction is the standard Pauli chain for Euclidean Clifford
    generators squaring to +1, multiplied by i to flip the signature.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"odd dimension m = 2n+1 >= 3 required, got {m}")
    n = (m - 1) // 2
    gens = []
    for k in range(1, n + 1):
        left = Mat.identity(1)
        for _ in range(k - 1):
            left = _kron(left, _PAULI_Z)
        right = Mat.identity(2 ** (n - k))
        gens.append(_kron(_kron(left, _PAULI_X), right))
        gens.append(_kron(_kron(left, _PAULI_Y), right))
    last = Mat.identity(1)
    for _ in range(n):
        last = _kron(last, _PAULI_Z)
    gens.append(last)
    gens = tuple(g.scale(QQI_I) for g in gens)
    dim = 2 ** n
    minus_two_id = Mat.identity(dim).scale(-2)
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            anti = gi.anticommutator(gj)
            expected = minus_two_id if i == j else Mat.zero(dim, dim)
            if anti != expected:
                raise AssertionError(f"gamma anticommutator failed at ({i+1},{j+1})")
    return GammaRep(m, gens)


def spin_generators(m: int) -> list:
    """The m(m-1)/2 rotation generators gamma_a gamma_b / 2 for a < b."""
    rep = gamma_rep(m)
    half = QQi(1) / QQi(2)
    out = []
    for a in range(m):
        for b in range(a + 1, m):
            out.append((rep.generators[a] * rep.generators[b]).scale(half))
    return out
