"""Spinor-valued polynomials in x and dummy vector variables u_1..u_k.

A polynomial is a map from multi-exponents over the (k+1)*m coordinates
(x first, then each u_p) to vectors: spinor vectors of length
`clifford.spinor_dim(m)` = 2^n, or scalars.  A `BlockPoly` holds a whole
space, its polynomials side by side, one r x ncols `Mat` per exponent
(r = 2^n, or 1 for scalar polynomials); one polynomial is the
one-column case.  The blocks are
fraction-free, like every `linalg.Mat`: Gaussian-integer numerators over
one reduced denominator, so operators, sums and comparisons run on
Python ints.  First-order invariant building blocks are assembled from
OperatorSpec values, and `apply` runs them on blocks: each spec term
moves an exponent to one exponent with an integer factor, and one
`Mat.sum_of_products` per exponent sums the terms landing there.  That
kernel does every product and sum here, linear combinations included
(`BlockPoly.combined`).  A spec reaches the spinor factor only through
the gammas of `Dirac` and `VectorMult` (the so(m) generators are
matrices, built in `repthy`).  `stacked_rows` and `operator_matrix`
apply each spec once to a whole domain and read the rows off the image
blocks, and the eliminations take those numerators as they are
(`span_coords`).  QQi appears only at the boundary: scalar coefficients.
"""

from __future__ import annotations

from math import lcm

from .clifford import _kron, gamma_rep, spinor_dim
from .gaussian import QQi
from .linalg import DEFAULT_CELL_CAP, Mat, check_cells, int_nullspace, span_coords
from .weights import Frozen, _set


class BlockPoly:
    """ncols polynomials of one space side by side, one `Mat` per exponent.

    ``blocks`` maps an exponent to an r x ncols Mat whose column j is
    polynomial j's coefficient vector there; exponents where every column
    vanishes are absent.  Each block is canonical, so equality and
    ``is_zero`` compare integers, and the lcm of the blocks' denominators
    is the columns' common denominator.  ``basis[j]`` is polynomial j as
    a one-column `BlockPoly`.
    """

    __slots__ = ("m", "k", "ncols", "blocks")

    def __init__(self, m: int, k: int, ncols: int, blocks: dict):
        self.m = m
        self.k = k
        self.ncols = ncols
        self.blocks = blocks

    def summed(self, groups: dict, ncols: int = None) -> "BlockPoly":
        """The blocks in this space whose exponent e holds the sum of
        products of groups[e] (`Mat.sum_of_products`), zero sums dropped."""
        blocks = {}
        for exp, terms in groups.items():
            block = Mat.sum_of_products(terms)
            if not block.is_zero():
                blocks[exp] = block
        return BlockPoly(self.m, self.k, self.ncols if ncols is None else ncols, blocks)

    def combined(self, coeffs: Mat) -> "BlockPoly":
        """The polynomials sum_j coeffs[j, c] self[j], one per column c of
        coeffs: one block product per exponent."""
        return self.summed({e: [(b, coeffs)] for e, b in self.blocks.items()}, coeffs.ncols)

    def is_zero(self):
        return not self.blocks

    def __len__(self):
        return self.ncols

    def __getitem__(self, j: int) -> "BlockPoly":
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} out of range 0..{self.ncols - 1}")
        blocks = {}
        for exp, block in self.blocks.items():
            col = [{0: row[j]} if j in row else {} for row in block.num]
            if any(col):
                blocks[exp] = Mat._reduced(col, block.den, 1)
        return BlockPoly(self.m, self.k, 1, blocks)

    def __eq__(self, other):
        if not isinstance(other, BlockPoly):
            return NotImplemented
        return self.m == other.m and self.k == other.k and self.ncols == other.ncols and self.blocks == other.blocks

    __hash__ = None


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
    """+sum_i d^2/dv_i^2 in the variable group v, so that Dirac(v)^2 = -LaplaceOp(v)."""

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


def apply(spec, f: BlockPoly) -> BlockPoly:
    """Apply an operator spec exactly to a `BlockPoly`, column by column.

    A leaf spec is a one-part `ScalarMix`.  The leaf parts of a mix add
    their terms, and the other parts their image blocks, to one sum of
    products per output exponent.
    """
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


def monomials(m: int, k: int, degrees) -> BlockPoly:
    """The n scalar monomials of one homogeneous component, a 1 x n block per exponent.

    degrees lists the x-degree first, then the degree in each u_p.
    Ordering is deterministic: variable-group exponents outermost in
    listed order.
    """
    degrees = tuple(degrees)
    if len(degrees) != k + 1:
        raise ValueError(f"need {k + 1} degrees, got {len(degrees)}")
    exps = [()]
    for d in degrees:
        exps = [exp + part for exp in exps for part in exponents(m, d)]
    n = len(exps)
    return BlockPoly(m, k, n, {exp: Mat._reduced([{j: (1, 0)}], 1, n) for j, exp in enumerate(exps)})


def spinor_valued(f: BlockPoly) -> BlockPoly:
    """Scalar polynomials tensored with the spinor units: column j * 2^n + s
    is f[j] times unit s, so scalar-major, spinor-minor."""
    unit = Mat.identity(spinor_dim(f.m))
    return BlockPoly(f.m, f.k, f.ncols * unit.ncols, {e: _kron(b, unit) for e, b in f.blocks.items()})


def homogeneous_basis(m: int, k: int, degrees) -> BlockPoly:
    """Monomial x spinor-unit basis of one homogeneous component
    (`monomials`, `spinor_valued`): exponents outermost, spinor index
    innermost."""
    return spinor_valued(monomials(m, k, degrees))


def combination(basis: BlockPoly, coeffs, den: int = 1) -> BlockPoly:
    """sum_j coeffs[j] basis[j] / den; coeffs is a dict index -> scalar or a list.

    A scalar is a Gaussian rational or a Gaussian integer (re, im).
    """
    column = [[0] for _ in range(len(basis))]
    for j, c in coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs):
        column[j] = [QQi(*c) if isinstance(c, tuple) else c]
    return basis.combined(Mat(column).scale(QQi(1) / den))


def stacked_rows(specs, domain: BlockPoly) -> tuple:
    """Gaussian-integer rows of the images of a basis under several operator specs.

    Returns (rows, den).  rows maps (spec index, (exponent, row index))
    to a dict column -> (re, im): column j holds the image of domain[j],
    each entry a numerator over den, the lcm of the images'
    denominators.  The order of the rows, and of the columns within a
    row, is not part of the contract, though two calls give the same.
    Each spec is applied once, to the domain's blocks, and row (spec,
    (e, s)) is row s of its image's block at e, maybe that block's own
    dict: treat the rows as read-only.  An empty domain gives ({}, 1).
    """
    if not domain:
        return {}, 1
    images = [apply(spec, domain).blocks for spec in specs]
    den = lcm(1, *(block.den for image in images for block in image.values()))
    rows = {}
    for si, image in enumerate(images):
        for exp, block in image.items():
            f = den // block.den
            for s, row in enumerate(block.num):
                if row:
                    rows[si, (exp, s)] = row if f == 1 else {j: (re * f, im * f) for j, (re, im) in row.items()}
    return rows, den


def joint_kernel(specs, domain: BlockPoly, cap: int = DEFAULT_CELL_CAP) -> BlockPoly:
    """Basis of the common kernel of specs on span(domain), one column per free column.

    Each is an `int_nullspace` vector divided by its free entry, its last
    column: the reduced-row-echelon basis, all of them from one product
    of the domain's blocks (`BlockPoly.combined`).
    """
    rows = list(stacked_rows(specs, domain)[0].values())
    check_cells(len(rows), len(domain), cap)
    null = int_nullspace(rows, len(domain))
    den = lcm(1, *(vec[max(vec)][0] for vec in null))
    num = [{} for _ in range(len(domain))]
    for c, vec in enumerate(null):
        f = den // vec[max(vec)][0]
        for j, (re, im) in vec.items():
            num[j][c] = (re * f, im * f)
    return domain.combined(Mat._reduced(num, den, len(null)))


def operator_matrix(spec, domain: BlockPoly, codomain: BlockPoly) -> Mat:
    """Matrix of an operator spec from span(domain) to span(codomain) (`operator_matrices`)."""
    return operator_matrices([spec], domain, codomain)[0]


def operator_matrices(specs, domain: BlockPoly, codomain: BlockPoly) -> list:
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
