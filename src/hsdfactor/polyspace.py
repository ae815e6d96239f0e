"""Spinor-valued polynomials in x and dummy vector variables u_1..u_k.

A polynomial is a map from multi-exponents over the (k+1)*m coordinates
(x first, then each u_p) to spinor vectors of length 2^n.  It is stored
fraction-free, like `linalg.Mat`: Gaussian-integer numerators over one
reduced common denominator, so operators, sums and comparisons run on
Python ints.  First-order invariant building blocks are assembled from
OperatorSpec values and applied exactly in one accumulation pass; a spec
reaches the spinor factor only through the gamma matrices of `Dirac` and
`VectorMult` (the so(m) generators are matrices, built in `repthy`).
Homogeneous components get exact matrix realizations.  A basis is
imaged as one polynomial: element j carries a trailing exponent
coordinate j that no spec touches (`_tagged`), so `stacked_rows` and
`operator_matrix` apply each spec once per domain and split the image
back into columns.  The eliminations take the images' numerators as
they are (`stacked_rows`), `operator_matrix` included (`span_coords`);
QQi appears only at the boundary: constructor inputs, scalar
coefficients and `coordinates()`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm

from .clifford import gamma_rep
from .gaussian import QQi
from .linalg import (
    DEFAULT_CELL_CAP,
    Mat,
    _common_den,
    _content,
    _numerators,
    _qqi,
    check_cells,
    int_nullspace,
    span_coords,
)


# one shared object for the zero spinor components, most of a vector's entries
_ZERO_PAIR = (0, 0)


class SpinorPoly:
    """Spinor-valued polynomial over the Gaussian rationals, stored fraction-free.

    ``num`` maps an exponent tuple to a tuple of ``spinor_dim`` pairs
    ``(re, im)`` of Python ints, all-zero vectors absent; the coefficient
    is ``(re + im*i) / den`` for one positive common denominator ``den``.
    ``den`` is reduced so that its gcd with every numerator component is 1
    (the zero polynomial has ``den == 1``), which makes the form canonical:
    equality and ``is_zero`` compare integers.
    """

    __slots__ = ("m", "k", "num", "den")

    def __init__(self, m: int, k: int, terms=None):
        self.m = m
        self.k = k
        width = (k + 1) * m
        vecs = {}
        for exp, vec in (terms or {}).items():
            if len(exp) != width:
                raise ValueError(f"exponent length {len(exp)} != {width}")
            vecs[tuple(exp)] = [QQi.coerce(c) for c in vec]
        # the lcm of reduced denominators shares no prime with all the
        # numerators, so this form is already canonical
        den = _common_den(c for vec in vecs.values() for c in vec)
        self.num = {
            exp: tuple(_numerators(c, den) if c else _ZERO_PAIR for c in vec)
            for exp, vec in vecs.items() if any(vec)
        }
        self.den = den if self.num else 1

    @classmethod
    def from_num(cls, m: int, k: int, num: dict, den: int) -> "SpinorPoly":
        """The polynomial num / den (no all-zero vectors in num), reduced to the canonical form."""
        g = den
        for vec in num.values():
            g = _content(vec, g)
            if g == 1:
                break
        if g != 1:
            num = {
                e: tuple((re // g, im // g) if re or im else _ZERO_PAIR for re, im in vec)
                for e, vec in num.items()
            }
            den //= g
        out = object.__new__(cls)
        out.m = m
        out.k = k
        out.num = num
        out.den = den
        return out

    def reindexed(self, k: int, exp_map) -> "SpinorPoly":
        """The polynomial in k dummy variables with each exponent e moved to exp_map(e), an injective map."""
        return SpinorPoly.from_num(self.m, k, {exp_map(e): vec for e, vec in self.num.items()}, self.den)

    @property
    def spinor_dim(self):
        return 2 ** ((self.m - 1) // 2)

    def is_zero(self):
        return not self.num

    def __add__(self, other):
        self._check(other)
        return _weighted_sum(self.m, self.k, ((self, 1), (other, 1)))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        self._check(other)
        return _weighted_sum(self.m, self.k, ((self, 1), (other, -1)))

    def scale(self, c):
        return _weighted_sum(self.m, self.k, ((self, c),))

    def _check(self, other):
        if self.m != other.m or self.k != other.k:
            raise ValueError("mixed polynomial spaces")

    def __eq__(self, other):
        if not isinstance(other, SpinorPoly):
            return NotImplemented
        return self.m == other.m and self.k == other.k and self.den == other.den and self.num == other.num

    __hash__ = None

    def coordinates(self):
        """Sparse dict (exponent, spinor index) -> QQi for exact solving."""
        den = self.den
        out = {}
        for exp, vec in self.num.items():
            for s, (re, im) in enumerate(vec):
                if re or im:
                    out[(exp, s)] = _qqi(re, im, den)
        return out

    def __repr__(self):
        if not self.num:
            return "SpinorPoly(0)"
        return f"SpinorPoly({len(self.num)} monomials, m={self.m}, k={self.k})"


def _finish(m: int, k: int, acc: dict, den: int) -> SpinorPoly:
    """The polynomial acc / den from flat accumulators [re0, im0, re1, im1, ...]."""
    num = {}
    for exp, out in acc.items():
        if any(out):
            flat = iter(out)
            num[exp] = tuple([(re, im) if re or im else _ZERO_PAIR for re, im in zip(flat, flat)])
    return SpinorPoly.from_num(m, k, num, den)


def _weighted_sum(m: int, k: int, items) -> SpinorPoly:
    """sum c * p over pairs (p, c), over the lcm of the denominators.

    c is a Gaussian rational or a Gaussian integer (re, im).  Each p is
    added as items yields it, the sum so far rescaled when the common
    denominator grows, so the images a generator yields (the parts of a
    `ScalarMix`) are never all held at once.
    """
    den = 1
    acc = {}
    for p, c in items:
        if isinstance(c, tuple):
            (cr, ci), cd = c, 1
        elif isinstance(c, int):
            cr, ci, cd = c, 0, 1
        else:
            c = QQi.coerce(c)
            cd = _common_den([c])
            cr, ci = _numerators(c, cd)
        if not p.num or not (cr or ci):
            continue
        d = cd * p.den
        grown = lcm(den, d)
        if grown != den:
            g = grown // den
            for out in acc.values():
                out[:] = [v * g for v in out]
            den = grown
        f = den // d
        cr *= f
        ci *= f
        for exp, vec in p.num.items():
            out = acc.get(exp)
            if out is None:
                out = acc[exp] = [0] * (2 * len(vec))
            for s, (re, im) in enumerate(vec):
                if re or im:
                    out[2 * s] += cr * re - ci * im
                    out[2 * s + 1] += cr * im + ci * re
    return _finish(m, k, acc, den)


def spinor_unit(m: int, k: int, index: int) -> SpinorPoly:
    dim = 2 ** ((m - 1) // 2)
    vec = tuple((1, 0) if s == index else (0, 0) for s in range(dim))
    return SpinorPoly.from_num(m, k, {(0,) * ((k + 1) * m): vec}, 1)


# ---------------------------------------------------------------------------
# operator specs


@dataclass(frozen=True)
class Dirac:
    var: int = 0


@dataclass(frozen=True)
class VectorMult:
    var: int


@dataclass(frozen=True)
class MixedEuler:
    """sum_i u_{p,i} d/du_{q,i}"""

    p: int
    q: int


@dataclass(frozen=True)
class LaplaceOp:
    var: int = 0


@dataclass(frozen=True)
class MixedLaplace:
    """sum_i d/du_{p,i} d/du_{q,i}"""

    p: int
    q: int


@dataclass(frozen=True)
class CoordOp:
    """Multiply by one flat coordinate after deriving by another."""

    mult: int
    deriv: int


@dataclass(frozen=True)
class Compose:
    specs: tuple  # applied right to left


@dataclass(frozen=True)
class ScalarMix:
    parts: tuple  # tuple of (Fraction, spec)


IDENTITY = Compose(())


def _check_var(f: SpinorPoly, var: int):
    if not 0 <= var <= f.k:
        raise IndexError(f"variable index {var} out of range 0..{f.k}")


def _sum_terms(f: SpinorPoly, terms) -> SpinorPoly:
    """sum of mat . x_mult . d_derivs f over terms (derivs, mult, mat), in one pass.

    derivs is a tuple of flat coordinates to differentiate by, mult a
    coordinate to multiply by or None, and mat a Mat on the spinor factor
    or None (the identity); all arithmetic is on the integer numerators.
    """
    den = lcm(*(mat.den for _, _, mat in terms if mat is not None))
    prepared = []
    for derivs, mult, mat in terms:
        cols = None
        if mat is not None:
            # scattered by column: spinor vectors are mostly zero pairs
            f_mat = den // mat.den
            cols = [[] for _ in range(mat.ncols)]
            for t, row in enumerate(mat.num):
                for j, (re, im) in row.items():
                    cols[j].append((2 * t, re * f_mat, im * f_mat))
        prepared.append((derivs, mult, cols))
    width = 2 * f.spinor_dim
    acc = {}
    for exp, vec in f.num.items():
        for derivs, mult, cols in prepared:
            coeff = 1
            new = list(exp)
            for c in derivs:
                e = new[c]
                if not e:
                    break
                coeff *= e
                new[c] = e - 1
            else:
                if mult is not None:
                    new[mult] += 1
                key = tuple(new)
                out = acc.get(key)
                if out is None:
                    out = acc[key] = [0] * width
                if cols is None:
                    coeff *= den
                    for s, (re, im) in enumerate(vec):
                        if re or im:
                            out[2 * s] += coeff * re
                            out[2 * s + 1] += coeff * im
                    continue
                for j, (re, im) in enumerate(vec):
                    if re or im:
                        cre = coeff * re
                        cim = coeff * im
                        for t, gr, gi in cols[j]:
                            out[t] += gr * cre - gi * cim
                            out[t + 1] += gr * cim + gi * cre
    return _finish(f.m, f.k, acc, f.den * den)


def apply(spec, f: SpinorPoly) -> SpinorPoly:
    """Apply an operator spec exactly."""
    m = f.m
    if isinstance(spec, (Dirac, VectorMult, LaplaceOp)):
        _check_var(f, spec.var)
        coords = range(spec.var * m, (spec.var + 1) * m)
        if isinstance(spec, Dirac):
            gens = gamma_rep(m).generators
            return _sum_terms(f, [((c,), None, g) for c, g in zip(coords, gens)])
        if isinstance(spec, VectorMult):
            gens = gamma_rep(m).generators
            return _sum_terms(f, [((), c, g) for c, g in zip(coords, gens)])
        return _sum_terms(f, [((c, c), None, None) for c in coords])
    if isinstance(spec, (MixedEuler, MixedLaplace)):
        _check_var(f, spec.p)
        _check_var(f, spec.q)
        pairs = [(spec.p * m + i, spec.q * m + i) for i in range(m)]
        if isinstance(spec, MixedEuler):
            return _sum_terms(f, [((q,), p, None) for p, q in pairs])
        return _sum_terms(f, [((q, p), None, None) for p, q in pairs])
    if isinstance(spec, CoordOp):
        return _sum_terms(f, [((spec.deriv,), spec.mult, None)])
    if isinstance(spec, Compose):
        out = f
        for part in reversed(spec.specs):
            out = apply(part, out)
        return out
    if isinstance(spec, ScalarMix):
        return _weighted_sum(m, f.k, ((apply(part, f), coeff) for coeff, part in spec.parts))
    raise TypeError(f"unknown operator spec {spec!r}")


def laplace(var: int, f: SpinorPoly) -> SpinorPoly:
    """Componentwise sum of second derivatives in one variable group.

    Sign convention: this computes +sum d^2/dv_i^2, and the classical
    identity reads Dirac(v)^2 = -laplace(v, .), checked exactly in the
    test suite.
    """
    return apply(LaplaceOp(var), f)


# ---------------------------------------------------------------------------
# homogeneous bases and exact matrices


def exponents(m: int, degree: int):
    """All length-m exponent tuples of given total degree, lexicographic."""
    if m == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in exponents(m - 1, degree - first):
            yield (first,) + rest


def homogeneous_basis(m: int, k: int, degrees) -> list:
    """Monomial x spinor-unit basis of one homogeneous component.

    degrees lists the x-degree first, then the degree in each u_p.
    Ordering is deterministic: variable-group exponents outermost in
    listed order, spinor index innermost.
    """
    degrees = tuple(degrees)
    if len(degrees) != k + 1:
        raise ValueError(f"need {k + 1} degrees, got {len(degrees)}")
    dim = 2 ** ((m - 1) // 2)
    units = [tuple((1, 0) if t == s else (0, 0) for t in range(dim)) for s in range(dim)]
    out = []
    for parts in itertools.product(*(exponents(m, d) for d in degrees)):
        exp = sum(parts, ())
        out.extend(SpinorPoly.from_num(m, k, {exp: unit}, 1) for unit in units)
    return out


def combination(basis: list, coeffs, den: int = 1) -> SpinorPoly:
    """sum_j coeffs[j] basis[j] / den; coeffs is a dict index -> scalar or a list.

    A scalar is a Gaussian rational or a Gaussian integer (re, im).  One
    pass over the integer numerators, over the lcm of the denominators.
    """
    items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
    out = _weighted_sum(basis[0].m, basis[0].k, ((basis[j], c) for j, c in items))
    return out if den == 1 else SpinorPoly.from_num(out.m, out.k, out.num, out.den * den)


def _tagged(domain: list) -> SpinorPoly:
    """The domain as one polynomial: domain[j] gets one trailing exponent
    coordinate holding j, which no spec touches, over the lcm of the
    domain's denominators.  domain must not be empty.

    Every image is linear and exact, and `SpinorPoly` is canonical, so
    the image of the tagged domain, split by that coordinate, is the
    image of each element over the lcm of their denominators.
    """
    den = lcm(*(b.den for b in domain))
    num = {}
    for j, b in enumerate(domain):
        f = den // b.den
        for exp, vec in b.num.items():
            num[exp + (j,)] = vec if f == 1 else tuple(
                (re * f, im * f) if re or im else _ZERO_PAIR for re, im in vec
            )
    return SpinorPoly.from_num(domain[0].m, domain[0].k, num, den)


def stacked_rows(specs, domain: list) -> tuple:
    """Gaussian-integer rows of the images of a basis under several operator specs.

    Returns (rows, den).  rows maps (spec index, (exponent, spinor
    index)) to a dict column -> (re, im): column j holds the image of
    domain[j], each entry a numerator over den, the lcm of the images'
    denominators.  The order of the rows, and of the columns within a
    row, is not part of the contract.  Each spec is applied once, to the
    tagged domain, and its image is turned into rows before the next one
    is applied.  An empty domain gives ({}, 1).
    """
    if not domain:
        return {}, 1
    tagged = _tagged(domain)
    rows = {}
    dens = []
    for si, spec in enumerate(specs):
        image = apply(spec, tagged)
        dens.append(image.den)
        for exp, vec in image.num.items():
            j, key = exp[-1], exp[:-1]
            for s, pair in enumerate(vec):
                if pair[0] or pair[1]:
                    rows.setdefault((si, (key, s)), {})[j] = pair
        del image  # before the next spec is applied
    den = lcm(*dens)
    if any(d != den for d in dens):
        for (si, _), row in rows.items():
            scale = den // dens[si]
            for j, (re, im) in row.items():
                row[j] = (re * scale, im * scale)
    return rows, den


def joint_kernel(specs, domain: list, cap: int = DEFAULT_CELL_CAP) -> list:
    """Basis of the common kernel of specs on span(domain), one polynomial per free column.

    Each is an `int_nullspace` vector divided by its free entry, its last
    column: the reduced-row-echelon basis.
    """
    rows = list(stacked_rows(specs, domain)[0].values())
    check_cells(len(rows), len(domain), cap)
    return [combination(domain, vec, vec[max(vec)][0]) for vec in int_nullspace(rows, len(domain))]


def operator_matrix(spec, domain: list, codomain: list) -> Mat:
    """Matrix of an operator spec from span(domain) to span(codomain) (`operator_matrices`)."""
    return operator_matrices([spec], domain, codomain)[0]


def operator_matrices(specs, domain: list, codomain: list) -> list:
    """The matrix of each spec from span(domain) to span(codomain), from one elimination.

    Column j holds the codomain coordinates of the image of domain[j]:
    `span_coords` of [B | V_0 | V_1 | ...] on integer rows, B the codomain
    (`stacked_rows` of IDENTITY) and V_s the images under specs[s] (each
    applied once), rescaled by den_B / den_V.  A dependent codomain or an
    image outside its span raises `SpanError`, an engine self-check.
    """
    b_rows, b_den = stacked_rows([IDENTITY], codomain)
    v_rows, v_den = stacked_rows(specs, domain)
    nb, nd = len(codomain), len(domain)
    rows = {key: dict(row) for (_, key), row in b_rows.items()}
    for (si, key), row in v_rows.items():
        rows.setdefault(key, {}).update((nb + si * nd + j, pair) for j, pair in row.items())
    num, den = span_coords(list(rows.values()), nb, nb + len(specs) * nd)
    parts = [[{} for _ in num] for _ in specs]
    for r, row in enumerate(num):
        for c, pair in row.items():
            parts[c // nd][r][c % nd] = pair
    return [Mat._reduced(part, den * v_den, nd).scale(b_den) for part in parts]
