"""Spinor-valued polynomials in x and dummy vector variables u_1..u_k.

A polynomial is a map from multi-exponents over the (k+1)*m coordinates
(x first, then each u_p) to spinor vectors of length 2^n.  It is stored
fraction-free, like `linalg.Mat`: Gaussian-integer numerators over one
reduced common denominator, so operators, sums and comparisons run on
Python ints.  A `BlockPoly` holds several side by side, one spinor_dim
x n `Mat` per exponent.  First-order invariant building blocks are
assembled from OperatorSpec values, and `apply` runs them on blocks:
each spec term moves an exponent to one exponent with an integer
factor, and one `Mat.sum_of_products` per exponent sums the terms
landing there.  That kernel does every product and sum here: a
`SpinorPoly` is the one-column case, and linear combinations are block
products.  A spec reaches the spinor factor only through the gammas of
`Dirac` and `VectorMult` (the so(m) generators are matrices, built in
`repthy`).  `stacked_rows` and `operator_matrix` apply each spec once
to a whole domain and read the rows off the image blocks, and the
eliminations take those numerators as they are (`span_coords`).  QQi
appears only at the boundary: constructor inputs, scalar coefficients
and `coordinates()`.
"""

from __future__ import annotations

import itertools
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
from .weights import Frozen, _set


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

    @property
    def spinor_dim(self):
        return 2 ** ((self.m - 1) // 2)

    def is_zero(self):
        return not self.num

    def __add__(self, other):
        self._check(other)
        return combination([self, other], [1, 1])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        self._check(other)
        return combination([self, other], [1, -1])

    def scale(self, c):
        return combination([self], [c])

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


class BlockPoly:
    """ncols polynomials of one space side by side, one `Mat` per exponent.

    ``blocks`` maps an exponent to a spinor_dim x ncols Mat whose column j
    is polynomial j's coefficient vector there; exponents where every
    column vanishes are absent.  Each block is canonical, so the lcm of
    the blocks' denominators is the columns' common denominator.
    """

    __slots__ = ("m", "k", "ncols", "blocks")

    def __init__(self, m: int, k: int, ncols: int, blocks: dict):
        self.m = m
        self.k = k
        self.ncols = ncols
        self.blocks = blocks

    @classmethod
    def of(cls, polys: list) -> "BlockPoly":
        """The nonempty list polys of one space, column j holding polys[j]."""
        m, k, n = polys[0].m, polys[0].k, len(polys)
        dim = polys[0].spinor_dim
        den = lcm(*(p.den for p in polys))
        nums = {}
        for j, p in enumerate(polys):
            f = den // p.den
            for exp, vec in p.num.items():
                rows = nums.get(exp)
                if rows is None:
                    rows = nums[exp] = [{} for _ in range(dim)]
                for row, (re, im) in zip(rows, vec):
                    if re or im:
                        row[j] = (re * f, im * f)
        return cls(m, k, n, {exp: Mat._reduced(rows, den, n) for exp, rows in nums.items()})

    def summed(self, groups: dict, ncols: int = None) -> "BlockPoly":
        """The blocks in this space whose exponent e holds the sum of
        products of groups[e] (`Mat.sum_of_products`), zero sums dropped."""
        blocks = {}
        for exp, terms in groups.items():
            block = Mat.sum_of_products(terms)
            if not block.is_zero():
                blocks[exp] = block
        return BlockPoly(self.m, self.k, self.ncols if ncols is None else ncols, blocks)

    def columns(self) -> list:
        """The polynomials, one per column, each in canonical form."""
        dim = 2 ** ((self.m - 1) // 2)
        den = lcm(1, *(block.den for block in self.blocks.values()))
        nums = [{} for _ in range(self.ncols)]
        for exp, block in self.blocks.items():
            f = den // block.den
            for s, row in enumerate(block.num):
                for j, (re, im) in row.items():
                    vec = nums[j].get(exp)
                    if vec is None:
                        vec = nums[j][exp] = [_ZERO_PAIR] * dim
                    vec[s] = (re * f, im * f)
        return [SpinorPoly.from_num(self.m, self.k, {e: tuple(v) for e, v in num.items()}, den) for num in nums]


def spinor_unit(m: int, k: int, index: int) -> SpinorPoly:
    dim = 2 ** ((m - 1) // 2)
    vec = tuple((1, 0) if s == index else (0, 0) for s in range(dim))
    return SpinorPoly.from_num(m, k, {(0,) * ((k + 1) * m): vec}, 1)


# ---------------------------------------------------------------------------
# operator specs


class Dirac(Frozen):
    __slots__ = ("var",)

    def __init__(self, var: int = 0):
        _set(self, "var", var)


class VectorMult(Frozen):
    __slots__ = ("var",)


class MixedEuler(Frozen):
    """sum_i u_{p,i} d/du_{q,i}"""

    __slots__ = ("p", "q")


class LaplaceOp(Frozen):
    __slots__ = ("var",)

    def __init__(self, var: int = 0):
        _set(self, "var", var)


class MixedLaplace(Frozen):
    """sum_i d/du_{p,i} d/du_{q,i}"""

    __slots__ = ("p", "q")


class CoordOp(Frozen):
    """Multiply by one flat coordinate after deriving by another."""

    __slots__ = ("mult", "deriv")


class Compose(Frozen):
    __slots__ = ("specs",)  # applied right to left


class ScalarMix(Frozen):
    __slots__ = ("parts",)  # tuple of (Fraction, spec)


IDENTITY = Compose(())


def _check_var(f: BlockPoly, var: int):
    if not 0 <= var <= f.k:
        raise IndexError(f"variable index {var} out of range 0..{f.k}")


def _leaf_terms(spec, f: BlockPoly):
    """The terms of a first- or second-order spec, or None for a Compose or
    a ScalarMix.  A term (derivs, mult, mat) is mat . x_mult . d_derivs:
    derivs the flat coordinates to differentiate by, mult one to multiply
    by or None, mat a Mat on the spinor factor or None (the identity)."""
    m = f.m
    if isinstance(spec, (Dirac, VectorMult, LaplaceOp)):
        _check_var(f, spec.var)
        coords = range(spec.var * m, (spec.var + 1) * m)
        if isinstance(spec, LaplaceOp):
            return [((c, c), None, None) for c in coords]
        gens = gamma_rep(m)
        if isinstance(spec, Dirac):
            return [((c,), None, g) for c, g in zip(coords, gens)]
        return [((), c, g) for c, g in zip(coords, gens)]
    if isinstance(spec, (MixedEuler, MixedLaplace)):
        _check_var(f, spec.p)
        _check_var(f, spec.q)
        pairs = [(spec.p * m + i, spec.q * m + i) for i in range(m)]
        if isinstance(spec, MixedEuler):
            return [((q,), p, None) for p, q in pairs]
        return [((q, p), None, None) for p, q in pairs]
    if isinstance(spec, CoordOp):
        return [((spec.deriv,), spec.mult, None)]
    if isinstance(spec, (Compose, ScalarMix)):
        return None
    raise TypeError(f"unknown operator spec {spec!r}")


def _add_terms(groups: dict, f: BlockPoly, terms, weight):
    """Add weight * sum of the terms applied to f into groups, by output exponent.

    A term sends the block at e to one exponent with an integer factor c,
    as the product (weight c mat, block), or (block, weight c) when mat is
    None.
    """
    scaled = {}  # (term, c) -> weight * c * mat
    for exp, block in f.blocks.items():
        for t, (derivs, mult, mat) in enumerate(terms):
            c = 1
            new = list(exp)
            for i in derivs:
                e = new[i]
                if not e:
                    break
                c *= e
                new[i] = e - 1
            else:
                if mult is not None:
                    new[mult] += 1
                if mat is None:
                    term = (block, weight * c)
                else:
                    a = scaled.get((t, c))
                    if a is None:
                        a = scaled[t, c] = mat if weight * c == 1 else mat.scale(weight * c)
                    term = (a, block)
                groups.setdefault(tuple(new), []).append(term)


def apply(spec, f):
    """Apply an operator spec exactly to a `BlockPoly`, column by column,
    or to a `SpinorPoly`, its one-column case.

    A leaf spec is a one-part `ScalarMix`.  The leaf parts of a mix add
    their terms, and the other parts their image blocks, to one sum of
    products per output exponent.
    """
    if isinstance(f, SpinorPoly):
        return apply(spec, BlockPoly.of([f])).columns()[0]
    if isinstance(spec, Compose):
        out = f
        for part in reversed(spec.specs):
            out = apply(part, out)
        return out
    groups = {}
    for weight, part in spec.parts if isinstance(spec, ScalarMix) else ((1, spec),):
        terms = _leaf_terms(part, f)
        if terms is None:
            for exp, block in apply(part, f).blocks.items():
                groups.setdefault(exp, []).append((block, weight))
        else:
            _add_terms(groups, f, terms, weight)
    return f.summed(groups)


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


def combinations(basis: list, coeffs: Mat) -> list:
    """The polynomials sum_j coeffs[j, c] basis[j], one per column c of coeffs:
    one block product per exponent."""
    domain = BlockPoly.of(basis)
    return domain.summed({e: [(b, coeffs)] for e, b in domain.blocks.items()}, coeffs.ncols).columns()


def combination(basis: list, coeffs, den: int = 1) -> SpinorPoly:
    """sum_j coeffs[j] basis[j] / den; coeffs is a dict index -> scalar or a list.

    A scalar is a Gaussian rational or a Gaussian integer (re, im).
    """
    items = list(coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs))
    if not items:
        return SpinorPoly(basis[0].m, basis[0].k)
    column = Mat([[QQi(*c) if isinstance(c, tuple) else c] for _, c in items]).scale(QQi(1) / den)
    return combinations([basis[j] for j, _ in items], column)[0]


def stacked_rows(specs, domain: list) -> tuple:
    """Gaussian-integer rows of the images of a basis under several operator specs.

    Returns (rows, den).  rows maps (spec index, (exponent, spinor
    index)) to a dict column -> (re, im): column j holds the image of
    domain[j] (of a list of polynomials, or of a `BlockPoly`), each
    entry a numerator over den, the lcm of the images' denominators.
    The order of the rows, and of the columns within a row, is not part
    of the contract, though two calls give the same.  Each spec is
    applied once, to the domain's blocks, and row (spec, (e, s)) is row
    s of its image's block at e, maybe that block's own dict: treat the
    rows as read-only.  An empty domain gives ({}, 1).
    """
    if not domain:
        return {}, 1
    blocks = domain if isinstance(domain, BlockPoly) else BlockPoly.of(domain)
    images = [apply(spec, blocks).blocks for spec in specs]
    den = lcm(1, *(block.den for image in images for block in image.values()))
    rows = {}
    for si, image in enumerate(images):
        for exp, block in image.items():
            f = den // block.den
            for s, row in enumerate(block.num):
                if row:
                    rows[si, (exp, s)] = row if f == 1 else {j: (re * f, im * f) for j, (re, im) in row.items()}
    return rows, den


def joint_kernel(specs, domain: list, cap: int = DEFAULT_CELL_CAP) -> list:
    """Basis of the common kernel of specs on span(domain), one polynomial per free column.

    Each is an `int_nullspace` vector divided by its free entry, its last
    column: the reduced-row-echelon basis, all of them from one product
    of the domain's blocks (`combinations`).
    """
    rows = list(stacked_rows(specs, domain)[0].values())
    check_cells(len(rows), len(domain), cap)
    null = int_nullspace(rows, len(domain))
    den = lcm(1, *(vec[max(vec)][0] for vec in null))
    num = [{} for _ in domain]
    for c, vec in enumerate(null):
        f = den // vec[max(vec)][0]
        for j, (re, im) in vec.items():
            num[j][c] = (re * f, im * f)
    return combinations(domain, Mat._reduced(num, den, len(null))) if null else []


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
