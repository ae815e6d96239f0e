"""Gamma matrices: an exact matrix spinor representation of the Clifford algebra.

The algebra on generators e_1..e_m obeys e_p e_q + e_q e_p = -2 delta_pq.
For odd m = 2n+1 the spinor space is realized concretely as column
vectors of length 2^n acted on by gamma matrices built from the usual
Pauli tensor construction; the factor i that squares the generators to
-1 is why scalars are Gaussian rationals.  This module owns that rule:
`_rank_of` checks m and gives n, `spinor_dim` gives 2^n, and every
other module reads both from here.
"""

from __future__ import annotations

from functools import lru_cache

from .gaussian import QQi, QQI_I
from .linalg import Mat


_PAULI_X = Mat([[0, 1], [1, 0]])
_PAULI_Y = Mat([[0, QQi(0, -1)], [QQi(0, 1), 0]])
_PAULI_Z = Mat([[1, 0], [0, -1]])


def _kron(a: Mat, b: Mat) -> Mat:
    """The Kronecker product a (x) b, formed on the integer numerators."""
    num = [
        {ja * b.ncols + jb: (ar * br - ai * bi, ar * bi + ai * br)
         for ja, (ar, ai) in ra.items() for jb, (br, bi) in rb.items()}
        for ra in a.num for rb in b.num
    ]
    return Mat._reduced(num, a.den * b.den, a.ncols * b.ncols)


def _rank_of(m: int) -> int:
    """The rank n of Spin(m) for an odd m = 2n+1 >= 3; any other m is a ValueError."""
    if m < 3 or m % 2 == 0:
        raise ValueError(f"odd dimension m = 2n+1 >= 3 required, got {m}")
    return (m - 1) // 2


def spinor_dim(m: int) -> int:
    """2^n, the dimension of the spinor space for m = 2n+1."""
    return 2 ** _rank_of(m)


@lru_cache(maxsize=None)
def gamma_rep(m: int) -> tuple:
    """The m deterministic 2^n x 2^n gamma matrices for odd m, gamma_i^2 = -1.

    The construction is the standard Pauli chain for Euclidean Clifford
    generators squaring to +1, multiplied by i to flip the signature.
    """
    n = _rank_of(m)
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
            anti = gi * gj + gj * gi
            expected = minus_two_id if i == j else Mat.zero(dim, dim)
            if anti != expected:
                raise AssertionError(f"gamma anticommutator failed at ({i+1},{j+1})")
    return gens

