"""The polynomial route to HSD kernels, kept as the oracle of `hsd.kernel_basis`.

`hsd.kernel_basis` reads an operator's kernel off the integer matrices A_i
of its degree-1 images.  The route here applies the operator to every
domain element x^alpha (x) b_j as a polynomial and takes the joint kernel
of the images, as the engine did before; `ref_polyharmonic_order` applies
the Laplacian to polynomials rather than to coefficient vectors.

It also holds the matrix and polynomial readings that only the tests take
(`matvec`, `trace`, `degree`, `projectors`, `projector`), the
pairwise `DerivOp` arithmetic (`add_ops`, `sub_ops`, `pairwise_compose`):
one `Mat` product or sum at a time, the reference for the engine's
sums grouped by signature, and `all_terms_apply_monomial`, the loop
over every signature that `DerivOp.apply_monomial` prunes.
"""

from math import lcm, perm, prod

from hsdfactor.gaussian import QQi, QQI_ZERO
from hsdfactor.hsd import DerivOp
from hsdfactor.linalg import Mat, SpanSolver, _common_den, _numerators, _qqi
from hsdfactor.polyspace import (
    BlockPoly,
    LaplaceOp,
    apply,
    combination,
    exponents,
)
from polys import columns, coordinates, lin, stack, vectors, x_shift, zero


def matvec(mat: Mat, vec) -> list:
    """The product with a column of Gaussian rationals, as a list of QQi."""
    vec = [QQi.coerce(v) for v in vec]
    vden = _common_den(vec)
    vnum = [_numerators(v, vden) for v in vec]
    out = []
    for row in mat.num:
        re = im = 0
        for j, (ar, ai) in row.items():
            br, bi = vnum[j]
            re += ar * br - ai * bi
            im += ar * bi + ai * br
        out.append(_qqi(re, im, mat.den * vden))
    return out


def trace(mat: Mat):
    return sum((mat[i, i] for i in range(min(mat.nrows, mat.ncols))), QQI_ZERO)


def degree(f: BlockPoly, var: int) -> int:
    """Homogeneity degree in variable group var (0 = x, 1..k = u_p)."""
    if not f.blocks:
        return 0
    degs = {sum(exp[var * f.m:(var + 1) * f.m]) for exp in f.blocks}
    if len(degs) != 1:
        raise ValueError(f"polynomial not homogeneous in variable {var}")
    return degs.pop()


def add_ops(a: DerivOp, b: DerivOp) -> DerivOp:
    """a + b, one `Mat` sum per shared signature."""
    terms = dict(a.terms)
    for sig, mat in b.terms.items():
        terms[sig] = terms[sig] + mat if sig in terms else mat
    return DerivOp(a.m, terms)


def sub_ops(a: DerivOp, b: DerivOp) -> DerivOp:
    return add_ops(a, b.scale(-1))


def pairwise_compose(p: DerivOp, q: DerivOp) -> DerivOp:
    """p . q, one `Mat` product and one `Mat` sum per pair of terms."""
    terms = {}
    for s1, m1 in p.terms.items():
        for s2, m2 in q.terms.items():
            sig = tuple(a + b for a, b in zip(s1, s2))
            prod = m1 * m2
            terms[sig] = terms[sig] + prod if sig in terms else prod
    return DerivOp(p.m, terms)


def all_terms_apply_monomial(op: DerivOp, alpha: tuple) -> dict:
    """`DerivOp.apply_monomial` by a pass over every term: perm is 0 where
    sig_i > alpha_i, and those terms are dropped."""
    out = {}
    for sig, mat in op.terms.items():
        coeff = prod(map(perm, alpha, sig))
        if coeff:
            out[tuple(a - s for a, s in zip(alpha, sig))] = mat.scale(coeff)
    return out


def projectors(ps) -> list:
    """The spectral projectors P = C L of a `ProjectorSet`, on ambient coordinates."""
    return [c * left for c, left in ps.frames]


def projector(ps, kappa):
    c, left = ps.frame(kappa)
    return c * left


def domain_basis(op, h: int) -> BlockPoly:
    """x-degree-h monomials tensored with the source value basis, alpha-major."""
    return stack([x_shift(op.source_basis, alpha) for alpha in exponents(op.m, h)])


def target_basis(op, h: int) -> BlockPoly:
    if h < 0:
        return BlockPoly(op.m, op.value_space.k, 0, {})
    return stack([x_shift(op.target_values, alpha) for alpha in exponents(op.m, h)])


def apply_op(op, f: BlockPoly) -> BlockPoly:
    """The operator on a polynomial valued in op.value_space."""
    if op.kind == "explicit":
        return apply(op.spec, f)
    # coordinatize each x-monomial's value in the ambient, then in the
    # source summand, apply the block and rebuild from the target basis
    m = op.m
    solver = SpanSolver([coordinates(b) for b in op.value_space.basis])
    by_x = {}
    for (exp, s), c in coordinates(f).items():
        by_x.setdefault(exp[:m], {})[((0,) * m + exp[m:], s)] = c
    terms = [(zero(m, op.value_space.k), 1)]
    for alpha, coords in by_x.items():
        w = matvec(op.source_coords, solver.coords(coords))
        for beta, mat in op.deriv_op.apply_monomial(alpha).items():
            terms.append((x_shift(combination(op.target_values, matvec(mat, w)), beta), 1))
    return lin(*terms)


def op_matrix(op, h: int) -> Mat:
    """Exact matrix on x-degree h, rows in the degree-(h-1) target basis.

    Each domain element's image is coordinatized on its own.
    """
    domain = domain_basis(op, h)
    codomain = target_basis(op, h - 1)
    solver = SpanSolver([coordinates(b) for b in codomain])
    cols = []
    for b in columns(domain):
        image = apply_op(op, b)
        cols.append(solver.coords(coordinates(image)) if not image.is_zero() else [QQI_ZERO] * len(codomain))
    if not codomain:
        return Mat.zero(0, len(domain))
    return Mat([[col[i] for col in cols] for i in range(len(codomain))])


def ref_rows(op, h: int) -> list:
    """The images of domain_basis(op, h) as Gaussian-integer rows column -> (re, im).

    Each domain element is imaged on its own, and the rows are read over
    the lcm of the images' denominators.  Their null space
    (`int_nullspace`) is the kernel the engine took before `kernel_basis`
    read it off the degree-1 images.
    """
    images = [vectors(apply_op(op, b)) for b in columns(domain_basis(op, h))]
    den = lcm(*(f_den for _, f_den in images))
    rows = {}
    for j, (num, f_den) in enumerate(images):
        scale = den // f_den
        for exp, vec in num.items():
            for s, (re, im) in enumerate(vec):
                if re or im:
                    rows.setdefault((exp, s), {})[j] = (re * scale, im * scale)
    return list(rows.values())


def ref_polyharmonic_order(f: BlockPoly) -> int:
    """Least p with the p-th Laplace power killing f (bounded search)."""
    if f.is_zero():
        return 1
    bound = degree(f, 0) // 2 + 1
    g = f
    for p in range(1, bound + 1):
        g = apply(LaplaceOp(0), g)
        if g.is_zero():
            return p
    raise ArithmeticError("polynomial not annihilated within the degree bound")


def as_poly(op, vec: dict) -> BlockPoly:
    """The polynomial sum (re + im i) x^alpha (x) source_basis[j] of a kernel vector."""
    terms = [x_shift(op.source_basis[j], alpha) for alpha, j in vec]
    return combination(stack(terms), list(vec.values()))


def as_columns(op, h: int, vec: dict) -> dict:
    """A kernel vector in domain_basis(op, h) columns.

    Both routes give primitive Gaussian-integer vectors with a positive
    free entry, so they compare as they are.
    """
    index = {alpha: a for a, alpha in enumerate(exponents(op.m, h))}
    d = len(op.source_basis)
    return {index[alpha] * d + j: pair for (alpha, j), pair in vec.items()}
