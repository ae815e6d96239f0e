"""Explicit realizations of the spin representations and their projectors.

Simplicial monogenic polynomial spaces realize the half-integral
irreducibles; their dimensions are cross-checked against an independent
Weyl dimension oracle.  The tensor product of an integral irreducible
with the spinor space is realized as simplicial harmonics tensored with
spinor columns, and the quadratic Casimir splits it into isotypic
pieces: each summand's frame comes from the Casimir's eigenspace on
integer rows, all exactly.  The so(m) generators are matrices on the
ambient basis, L_ab = O_ab (x) 1 + gamma_a gamma_b / 2, the orbital part
taken on the scalar harmonics alone, and the Casimir is -sum L_ab L_ab.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .clifford import _kron, _rank_of, gamma_rep, spinor_dim
from .gaussian import QQi
from .linalg import DEFAULT_CELL_CAP, Mat, check_cells, int_nullspace, nullity, span_coords
from .polyspace import (
    BlockPoly,
    CoordOp,
    Dirac,
    LaplaceOp,
    MixedEuler,
    MixedLaplace,
    ScalarMix,
    homogeneous_basis,
    joint_kernel,
    monomials,
    operator_matrices,
    spinor_valued,
    stacked_rows,
)
from .weights import Weight, is_dominant, summand_weights


def pad_weight(w: Weight, n: int) -> Weight:
    if w.rank > n:
        raise ValueError(f"weight {w} does not fit rank {n}")
    return Weight(w.entries + (0,) * (n - w.rank), w.spin)


def rho(m: int) -> tuple:
    n = _rank_of(m)
    return tuple(Fraction(m - 2 * (i + 1), 2) for i in range(n))


def weyl_dim(w: Weight, m: int) -> int:
    """Weyl dimension formula for the odd orthogonal algebra, exact.

    Positive roots are eps_i (short) and eps_i +/- eps_j for i < j.
    The weight is padded with zeros to the full rank.
    """
    n = _rank_of(m)
    w = pad_weight(w, n)
    if not is_dominant(w):
        raise ValueError(f"{w} is not dominant")
    r = rho(m)
    a = [v + ri for v, ri in zip(w.values(), r)]
    num = Fraction(1)
    den = Fraction(1)
    for i in range(n):
        num *= a[i]
        den *= r[i]
        for j in range(i + 1, n):
            num *= (a[i] - a[j]) * (a[i] + a[j])
            den *= (r[i] - r[j]) * (r[i] + r[j])
    dim = num / den
    if dim.denominator != 1 or dim <= 0:
        raise AssertionError(f"Weyl dimension came out non-integral: {dim}")
    return int(dim)


def casimir_eigenvalue(kappa: Weight, m: int) -> Fraction:
    """<kappa, kappa + 2 rho> for the quadratic Casimir, exact."""
    n = _rank_of(m)
    kappa = pad_weight(kappa, n)
    vals = kappa.values()
    return sum((v * (v + 2 * ri) for v, ri in zip(vals, rho(m))), Fraction(0))


def _shape_rows(lam: Weight, m: int, kind: str) -> tuple:
    """(n, the nonzero rows of lam), once lam is checked to be an integral
    dominant shape with at most n = (m - 1) / 2 nonzero rows."""
    if lam.spin:
        raise ValueError(f"{kind} shapes are integral weights")
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    n = _rank_of(m)
    degrees = tuple(e for e in lam.entries if e > 0)
    if len(degrees) > n:
        raise ValueError(f"{lam} has more than n = {n} nonzero rows")
    return n, degrees


class RealizedSpace:
    """Explicit polynomial model of one space of values.

    label is the padded highest weight (half-integral for spin modules,
    integral for the tensor-with-spinors ambient); basis is a `BlockPoly`
    of polynomials in the dummy variables only (x-degree 0).  An ambient
    also keeps its scalar harmonics, the scalar polynomials that basis
    tensors with the spinor units (None for a spin module).
    """

    def __init__(self, label: Weight, m: int, k: int, basis: BlockPoly, scalars: BlockPoly = None):
        self.label = label
        self.m = m
        self.k = k
        self.basis = basis
        self.scalars = scalars

    @property
    def dim(self) -> int:
        return len(self.basis)


def _monogenic_system(lam: Weight, m: int) -> tuple:
    """(label, degrees, domain, specs) of the simplicial monogenic component
    of shape lam, the specs' common kernel on span(domain): homogeneity
    degrees (lam_1, ..., lam_k) in the dummy variables, cut out by all
    Dirac(u_p) and the mixed Euler operators u_p . d_q for p < q."""
    n, degrees = _shape_rows(lam, m, "simplicial")
    k = len(degrees)
    specs = [Dirac(p) for p in range(1, k + 1)]
    specs += [MixedEuler(p, q) for p in range(1, k + 1) for q in range(p + 1, k + 1)]
    return pad_weight(lam, n).spin_shifted(), degrees, homogeneous_basis(m, k, (0,) + degrees), specs


@lru_cache(maxsize=None)
def simplicial_monogenic_basis(lam: Weight, m: int, cap: int = DEFAULT_CELL_CAP) -> RealizedSpace:
    """Exact basis of the simplicial monogenic component of shape lam
    (`_monogenic_system`).  Its dimension must equal the Weyl dimension of
    the spin-shifted label; that equality is asserted here because the two
    computations are fully independent.
    """
    label, degrees, domain, specs = _monogenic_system(lam, m)
    basis = joint_kernel(specs, domain, cap)
    expected = weyl_dim(label, m)
    if len(basis) != expected:
        raise AssertionError(
            f"simplicial monogenic dimension {len(basis)} != Weyl dimension {expected} for {lam}, m={m}"
        )
    return RealizedSpace(label, m, len(degrees), basis)


def simplicial_monogenic_dim(lam: Weight, m: int, cap: int = DEFAULT_CELL_CAP) -> tuple:
    """(label, dimension) of the space `simplicial_monogenic_basis` builds,
    the dimension counted by the pivots of the same rows under the same
    cap: no basis is built."""
    label, _, domain, specs = _monogenic_system(lam, m)
    rows = list(stacked_rows(specs, domain)[0].values())
    check_cells(len(rows), len(domain), cap)
    return label, nullity(rows, len(domain))


def simplicial_harmonic_ambient(lam: Weight, m: int, cap: int = DEFAULT_CELL_CAP) -> RealizedSpace:
    """Realization of (integral irreducible of shape lam) tensor spinors.

    Scalar simplicial harmonics: each u_p harmonic, cross-harmonic in
    every pair, and killed by the mixed Euler operators for p < q, found
    on the scalar monomials.  The constraints are scalar, so the basis is
    (scalar harmonics) tensor (spinor units), scalar-major
    (`spinor_valued`); the scalar dimension is checked against the Weyl
    oracle for the integral label, and the d x d ambient against cap
    before the basis is built.
    """
    n, degrees = _shape_rows(lam, m, "ambient")
    k = len(degrees)
    label = pad_weight(lam, n)
    specs = [LaplaceOp(p) for p in range(1, k + 1)]
    specs += [MixedLaplace(p, q) for p in range(1, k + 1) for q in range(p + 1, k + 1)]
    specs += [MixedEuler(p, q) for p in range(1, k + 1) for q in range(p + 1, k + 1)]
    scalars = joint_kernel(specs, monomials(m, k, (0,) + degrees), cap)
    expected = weyl_dim(label, m)
    if len(scalars) != expected:
        raise AssertionError(
            f"simplicial harmonic dimension {len(scalars)} != Weyl dimension {expected} for {lam}, m={m}"
        )
    d = len(scalars) * spinor_dim(m)
    check_cells(d, d, cap)
    return RealizedSpace(label, m, k, spinor_valued(scalars), scalars)


def gamma_on_ambient(ambient: RealizedSpace) -> list:
    """Matrices of gamma_1..gamma_m on the ambient basis coordinates.

    The ambient basis is scalar-major, spinor-minor, so each gamma is
    1 (x) gamma_i, acting on consecutive spinor blocks."""
    ident = Mat.identity(len(ambient.scalars))
    return [_kron(ident, g) for g in gamma_rep(ambient.m)]


def orbital_spec(a: int, b: int, m: int, k: int) -> ScalarMix:
    """O_ab = sum_p (u_{p,b} d_{p,a} - u_{p,a} d_{p,b}) on dummy-variable polynomials."""
    return ScalarMix(tuple(
        part
        for base in range(m, (k + 1) * m, m)
        for part in ((1, CoordOp(base + b, base + a)), (-1, CoordOp(base + a, base + b)))
    ))


def so_generators(ambient: RealizedSpace) -> dict:
    """(a, b) -> L_ab on the ambient basis coordinates, for 0 <= a < b < m.

    L_ab = O_ab (x) 1 + gamma_a gamma_b / 2, the orbital parts all from
    one `operator_matrices` of the `orbital_spec`s on the ambient's scalar
    harmonics.  The orbital sign is fixed by requiring both parts to
    close under the same brackets, [L_ab, L_ac] = L_bc, which the
    eigenvalue match in the projector construction then confirms."""
    m = ambient.m
    spin = Mat.identity(spinor_dim(m))
    gams = gamma_on_ambient(ambient)
    half = QQi(Fraction(1, 2))
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    scalars = ambient.scalars
    orbital = operator_matrices([orbital_spec(a, b, m, ambient.k) for a, b in pairs], scalars, scalars)
    return {
        (a, b): _kron(o, spin) + (gams[a] * gams[b]).scale(half) for (a, b), o in zip(pairs, orbital)
    }


class ProjectorSet:
    """Casimir summand frames of one ambient realization."""

    def __init__(self, ambient: RealizedSpace, weights: list, eigenvalues: list, casimir: Mat, frames: list):
        self.ambient = ambient
        self.weights = weights          # dominant half-integral summand labels
        self.eigenvalues = eigenvalues  # matching Casimir eigenvalues
        self.casimir = casimir
        self.frames = frames            # matching (C, L): Cas C = c C, L_kappa C_iota = 1 or 0
        # (target, source) -> the block L_target . (id x Dirac) . C_source, filled by hsd._step_ops
        self.steps = {}

    def _index(self, kappa: Weight) -> int:
        if kappa not in self.weights:
            raise KeyError(f"{kappa} is not a summand")
        return self.weights.index(kappa)

    def frame(self, kappa: Weight) -> tuple:
        """Summand coordinates (C, L): C an integer basis of the Casimir
        eigenspace (dim x d), L its rows of [C_1 | ... | C_r]^-1 (d x dim)."""
        return self.frames[self._index(kappa)]

    def dim(self, kappa: Weight) -> int:
        return self.frames[self._index(kappa)][1].nrows


def casimir_matrix(ambient: RealizedSpace) -> Mat:
    """The quadratic Casimir -sum_{a<b} L_ab L_ab, with eigenvalues <kappa, kappa + 2 rho>."""
    return Mat.sum_of_products([(-lab, lab) for lab in so_generators(ambient).values()])


@lru_cache(maxsize=None)
def casimir_projectors(lam: Weight, m: int, cap: int = DEFAULT_CELL_CAP) -> ProjectorSet:
    """Summand frames of the Casimir on the lam-tensor-spinor ambient.

    One frame per dominant summand weight, from the Casimir's eigenspace
    at its predicted eigenvalue, all on integer rows: C_kappa is the
    `int_nullspace` of Cas - c_kappa * 1, and L is [C_1 | ... | C_r]^-1,
    read off one elimination of [C | 1] (`span_coords`), L_kappa its
    block of rows.  Checked exactly: Cas C_kappa = c_kappa C_kappa, the
    C_kappa fill all d columns, and L_kappa C_kappa = 1; an eigenvalue
    collision is a hard error.  The projectors P = C L are never
    formed.  cap bounds the ambient elimination and the d x d Casimir
    matrix.
    """
    kappas = summand_weights(pad_weight(lam, _rank_of(m)))
    eigs = [casimir_eigenvalue(w, m) for w in kappas]
    if len(set(eigs)) != len(eigs):
        raise ArithmeticError(f"Casimir eigenvalue collision among summands of {lam}: {eigs}")
    ambient = simplicial_harmonic_ambient(lam, m, cap=cap)
    d = ambient.dim
    cas = casimir_matrix(ambient)
    cols = []
    bases = []
    for kappa, ck in zip(kappas, eigs):
        vecs = int_nullspace((cas - Mat.identity(d).scale(ck)).num, d)
        c = Mat._reduced([{t: v[i] for t, v in enumerate(vecs) if i in v} for i in range(d)], 1, len(vecs))
        if cas * c != c.scale(ck):
            raise AssertionError(f"eigenspace for {kappa} misses its eigenvalue")
        cols.extend(vecs)
        bases.append(c)
    if len(cols) != d:
        raise AssertionError(f"Casimir eigenspaces fill {len(cols)} of {d} dimensions")
    # X with [C_1 | ... | C_r] X = 1, read off [C | 1]
    aug = [{t: v[i] for t, v in enumerate(cols) if i in v} | {d + i: (1, 0)} for i in range(d)]
    inverse, den = span_coords(aug, d, 2 * d)
    rows = iter(inverse)
    frames = []
    for kappa, c in zip(kappas, bases):
        left = Mat._reduced([next(rows) for _ in range(c.ncols)], den, d)
        if left * c != Mat.identity(c.ncols):
            raise AssertionError(f"frame rows do not invert the eigenspace for {kappa}")
        frames.append((c, left))
    return ProjectorSet(ambient, kappas, eigs, cas, frames)
