"""Spinor-valued polynomials in x and dummy vector variables u_1..u_k.

A polynomial is a map from multi-exponents over the (k+1)*m coordinates
(x first, then each u_p) to spinor vectors of length 2^n.  First-order
invariant building blocks are assembled from OperatorSpec values and
applied exactly; homogeneous components get exact matrix realizations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .clifford import gamma_rep
from .gaussian import QQi, QQI_ONE, QQI_ZERO
from .linalg import DEFAULT_CELL_CAP, SpanError, SpanSolver, check_cells, sparse_nullspace, sparse_rank


class SpinorPoly:
    """terms: exponent tuple -> spinor coefficient vector (tuple of QQi)."""

    __slots__ = ("m", "k", "terms")

    def __init__(self, m: int, k: int, terms=None):
        self.m = m
        self.k = k
        self.terms = {}
        if terms:
            width = (k + 1) * m
            for exp, vec in terms.items():
                if len(exp) != width:
                    raise ValueError(f"exponent length {len(exp)} != {width}")
                vec = tuple(QQi.coerce(c) for c in vec)
                if any(vec):
                    self.terms[tuple(exp)] = vec

    @property
    def spinor_dim(self):
        return 2 ** ((self.m - 1) // 2)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for exp, vec in other.terms.items():
            cur = terms.get(exp)
            if cur is None:
                terms[exp] = vec
            else:
                s = tuple(a + b for a, b in zip(cur, vec))
                if any(s):
                    terms[exp] = s
                else:
                    del terms[exp]
        return SpinorPoly(self.m, self.k, terms)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = QQi.coerce(c)
        if not c:
            return SpinorPoly(self.m, self.k)
        return SpinorPoly(self.m, self.k, {e: tuple(c * x for x in v) for e, v in self.terms.items()})

    def _check(self, other):
        if self.m != other.m or self.k != other.k:
            raise ValueError("mixed polynomial spaces")

    def __eq__(self, other):
        if not isinstance(other, SpinorPoly):
            return NotImplemented
        return self.m == other.m and self.k == other.k and self.terms == other.terms

    __hash__ = None

    def degree(self, var: int) -> int:
        """Homogeneity degree in variable group var (0 = x, 1..k = u_p)."""
        if not self.terms:
            return 0
        degs = {sum(exp[var * self.m:(var + 1) * self.m]) for exp in self.terms}
        if len(degs) != 1:
            raise ValueError(f"polynomial not homogeneous in variable {var}")
        return degs.pop()

    def coordinates(self):
        """Sparse dict (exponent, spinor index) -> QQi for exact solving."""
        out = {}
        for exp, vec in self.terms.items():
            for s, c in enumerate(vec):
                if c:
                    out[(exp, s)] = c
        return out

    def __repr__(self):
        if not self.terms:
            return "SpinorPoly(0)"
        return f"SpinorPoly({len(self.terms)} monomials, m={self.m}, k={self.k})"


def spinor_unit(m: int, k: int, index: int) -> SpinorPoly:
    dim = 2 ** ((m - 1) // 2)
    vec = tuple(QQI_ONE if s == index else QQI_ZERO for s in range(dim))
    return SpinorPoly(m, k, {(0,) * ((k + 1) * m): vec})


def monomial(m: int, k: int, exponent, vec) -> SpinorPoly:
    return SpinorPoly(m, k, {tuple(exponent): tuple(vec)})


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
class Euler:
    var: int


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
class SpinorMat:
    """Constant matrix acting on the spinor factor alone."""

    entries: tuple  # tuple of row tuples of QQi


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


def _deriv(f: SpinorPoly, coord: int) -> SpinorPoly:
    terms = {}
    for exp, vec in f.terms.items():
        e = exp[coord]
        if e:
            new = list(exp)
            new[coord] = e - 1
            terms[tuple(new)] = tuple(QQi(e) * c for c in vec)
    return SpinorPoly(f.m, f.k, terms)


def _coord_mult(f: SpinorPoly, coord: int) -> SpinorPoly:
    terms = {}
    for exp, vec in f.terms.items():
        new = list(exp)
        new[coord] += 1
        terms[tuple(new)] = vec
    return SpinorPoly(f.m, f.k, terms)


def _gamma_apply(f: SpinorPoly, i: int) -> SpinorPoly:
    g = gamma_rep(f.m).generators[i]
    return SpinorPoly(f.m, f.k, {exp: tuple(g.matvec(list(vec))) for exp, vec in f.terms.items()})


def apply(spec, f: SpinorPoly) -> SpinorPoly:
    """Apply an operator spec exactly."""
    m = f.m
    if isinstance(spec, Dirac):
        _check_var(f, spec.var)
        out = SpinorPoly(m, f.k)
        base = spec.var * m
        for i in range(m):
            out = out + _gamma_apply(_deriv(f, base + i), i)
        return out
    if isinstance(spec, VectorMult):
        _check_var(f, spec.var)
        out = SpinorPoly(m, f.k)
        base = spec.var * m
        for i in range(m):
            out = out + _gamma_apply(_coord_mult(f, base + i), i)
        return out
    if isinstance(spec, MixedEuler):
        _check_var(f, spec.p)
        _check_var(f, spec.q)
        out = SpinorPoly(m, f.k)
        for i in range(m):
            out = out + _coord_mult(_deriv(f, spec.q * m + i), spec.p * m + i)
        return out
    if isinstance(spec, Euler):
        _check_var(f, spec.var)
        out = SpinorPoly(m, f.k)
        base = spec.var * m
        for i in range(m):
            out = out + _coord_mult(_deriv(f, base + i), base + i)
        return out
    if isinstance(spec, LaplaceOp):
        _check_var(f, spec.var)
        out = SpinorPoly(m, f.k)
        base = spec.var * m
        for i in range(m):
            out = out + _deriv(_deriv(f, base + i), base + i)
        return out
    if isinstance(spec, MixedLaplace):
        _check_var(f, spec.p)
        _check_var(f, spec.q)
        out = SpinorPoly(m, f.k)
        for i in range(m):
            out = out + _deriv(_deriv(f, spec.q * m + i), spec.p * m + i)
        return out
    if isinstance(spec, CoordOp):
        return _coord_mult(_deriv(f, spec.deriv), spec.mult)
    if isinstance(spec, SpinorMat):
        terms = {}
        for exp, vec in f.terms.items():
            new = tuple(
                sum((row[j] * vec[j] for j in range(len(vec)) if vec[j]), QQI_ZERO)
                for row in spec.entries
            )
            if any(new):
                terms[exp] = new
        return SpinorPoly(m, f.k, terms)
    if isinstance(spec, Compose):
        out = f
        for part in reversed(spec.specs):
            out = apply(part, out)
        return out
    if isinstance(spec, ScalarMix):
        out = SpinorPoly(m, f.k)
        for coeff, part in spec.parts:
            out = out + apply(part, f).scale(coeff)
        return out
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
    out = []
    for parts in itertools.product(*(exponents(m, d) for d in degrees)):
        exp = sum(parts, ())
        for s in range(dim):
            vec = tuple(QQI_ONE if t == s else QQI_ZERO for t in range(dim))
            out.append(SpinorPoly(m, k, {exp: vec}))
    return out


def _image(op, f: SpinorPoly) -> SpinorPoly:
    """op(f) for an operator spec or a callable on polynomials."""
    return op(f) if callable(op) else apply(op, f)


def combination(basis: list, coeffs) -> SpinorPoly:
    """sum_j coeffs[j] basis[j]; coeffs is a dict index -> scalar or a list.

    Sums in place and skips zero spinor components, which are most of a
    monomial basis element's entries.
    """
    terms = {}
    items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
    for j, c in items:
        if c:
            for exp, vec in basis[j].terms.items():
                acc = terms.setdefault(exp, [QQI_ZERO] * len(vec))
                for s, x in enumerate(vec):
                    if x:
                        acc[s] = acc[s] + c * x
    return SpinorPoly(basis[0].m, basis[0].k, terms)


def stacked_rows(ops, domain: list) -> dict:
    """Sparse rows of the images of a basis under several operators.

    Keys are (operator index, coordinate) in order of first appearance,
    values dicts column -> QQi with column j the image of domain[j].
    """
    rows = {}
    for si, op in enumerate(ops):
        for j, b in enumerate(domain):
            for key, val in _image(op, b).coordinates().items():
                rows.setdefault((si, key), {})[j] = val
    return rows


def joint_kernel(ops, domain: list, cap: int = DEFAULT_CELL_CAP) -> list:
    """Basis of the common kernel of ops on span(domain), one polynomial per free column."""
    rows = list(stacked_rows(ops, domain).values())
    check_cells(len(rows), len(domain), cap)
    return [combination(domain, vec) for vec in sparse_nullspace(rows, len(domain))]


@dataclass
class LinOpMatrix:
    """Exact matrix of an operator between two explicit bases.

    Column j holds the codomain coordinates of the image of domain
    basis vector j; construction fails loudly when an image leaves the
    codomain span.
    """

    domain: list
    codomain: list
    columns: list  # list of coordinate lists (length = len(codomain))

    @property
    def shape(self):
        return (len(self.codomain), len(self.domain))

    def entry(self, i, j):
        return self.columns[j][i]

    def rows(self):
        nr, nc = self.shape
        return [{j: self.columns[j][i] for j in range(nc) if self.columns[j][i]} for i in range(nr)]

    def rank(self):
        return sparse_rank(self.rows(), len(self.domain))


def operator_matrix(op, domain: list, codomain: list) -> LinOpMatrix:
    """Matrix of an operator spec or a callable from span(domain) to span(codomain)."""
    solver = SpanSolver([b.coordinates() for b in codomain])
    columns = []
    for b in domain:
        image = _image(op, b)
        if image.is_zero():
            columns.append([QQI_ZERO] * len(codomain))
            continue
        try:
            columns.append(solver.coords(image.coordinates()))
        except SpanError as exc:
            raise SpanError(f"operator image leaves the codomain span: {exc}") from exc
    return LinOpMatrix(domain, codomain, columns)


def fischer_inner(f: SpinorPoly, g: SpinorPoly) -> QQi:
    """Fischer pairing <x^a s, x^b t> = delta_ab a! <s, t>, antilinear left."""
    f._check(g)
    acc = QQI_ZERO
    for exp, vec in f.terms.items():
        other = g.terms.get(exp)
        if other is None:
            continue
        fact = 1
        for e in exp:
            for t in range(2, e + 1):
                fact *= t
        pair = sum((vec[s].conj() * other[s] for s in range(len(vec)) if vec[s] and other[s]), QQI_ZERO)
        acc = acc + pair * QQi(fact)
    return acc
