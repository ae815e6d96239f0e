"""The polynomial route to HSD kernels, kept as the oracle of `hsd.kernel_basis`.

`hsd.kernel_basis` reads an operator's kernel off the integer matrices A_i
of its degree-1 images.  The route here applies the operator to every
domain element x^alpha (x) b_j as a polynomial and takes the joint kernel
of the images, as the engine did before; `ref_polyharmonic_order` applies
the Laplacian to polynomials rather than to coefficient vectors.

It also holds the matrix and polynomial readings that only the tests take
(`x_shift`, `matvec`, `trace`, `degree`, `projectors`, `projector`), the
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
    SpinorPoly,
    apply,
    combination,
    exponents,
    laplace,
)


def x_shift(b: SpinorPoly, alpha: tuple) -> SpinorPoly:
    """Multiply a dummy-variable polynomial by the x-monomial x^alpha."""
    m = b.m
    return SpinorPoly.from_num(m, b.k, {alpha + exp[m:]: vec for exp, vec in b.num.items()}, b.den)


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


def degree(f: SpinorPoly, var: int) -> int:
    """Homogeneity degree in variable group var (0 = x, 1..k = u_p)."""
    if not f.num:
        return 0
    degs = {sum(exp[var * f.m:(var + 1) * f.m]) for exp in f.num}
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


def domain_basis(op, h: int) -> list:
    """x-degree-h monomials tensored with the source value basis, alpha-major."""
    return [x_shift(b, alpha) for alpha in exponents(op.m, h) for b in op.source_basis]


def target_basis(op, h: int) -> list:
    return [x_shift(b, alpha) for alpha in exponents(op.m, h) for b in op.target_values]


def apply_op(op, f: SpinorPoly) -> SpinorPoly:
    """The operator on a polynomial valued in op.value_space."""
    if op.kind == "explicit":
        return apply(op.spec, f)
    # coordinatize each x-monomial's value in the ambient, then in the
    # source summand, apply the block and rebuild from the target basis
    m = op.m
    solver = SpanSolver([b.coordinates() for b in op.value_space.basis])
    by_x = {}
    for (exp, s), c in f.coordinates().items():
        by_x.setdefault(exp[:m], {})[((0,) * m + exp[m:], s)] = c
    out = SpinorPoly(m, op.value_space.k)
    for alpha, coords in by_x.items():
        w = matvec(op.source_coords, solver.coords(coords))
        for beta, mat in op.deriv_op.apply_monomial(alpha).items():
            out = out + x_shift(combination(op.target_values, matvec(mat, w)), beta)
    return out


def op_matrix(op, h: int) -> Mat:
    """Exact matrix on x-degree h, rows in the degree-(h-1) target basis.

    Each domain element's image is coordinatized on its own.
    """
    domain = domain_basis(op, h)
    codomain = target_basis(op, h - 1) if h >= 1 else []
    solver = SpanSolver([b.coordinates() for b in codomain])
    columns = []
    for b in domain:
        image = apply_op(op, b)
        columns.append(solver.coords(image.coordinates()) if not image.is_zero() else [QQI_ZERO] * len(codomain))
    if not codomain:
        return Mat.zero(0, len(domain))
    return Mat([[col[i] for col in columns] for i in range(len(codomain))])


def ref_rows(op, h: int) -> list:
    """The images of domain_basis(op, h) as Gaussian-integer rows column -> (re, im).

    Each domain element is imaged on its own, and the rows are read over
    the lcm of the images' denominators.  Their null space
    (`int_nullspace`) is the kernel the engine took before `kernel_basis`
    read it off the degree-1 images.
    """
    images = [apply_op(op, b) for b in domain_basis(op, h)]
    den = lcm(*(f.den for f in images))
    rows = {}
    for j, f in enumerate(images):
        scale = den // f.den
        for exp, vec in f.num.items():
            for s, (re, im) in enumerate(vec):
                if re or im:
                    rows.setdefault((exp, s), {})[j] = (re * scale, im * scale)
    return list(rows.values())


def ref_polyharmonic_order(f: SpinorPoly) -> int:
    """Least p with the p-th Laplace power killing f (bounded search)."""
    if f.is_zero():
        return 1
    bound = degree(f, 0) // 2 + 1
    g = f
    for p in range(1, bound + 1):
        g = laplace(0, g)
        if g.is_zero():
            return p
    raise ArithmeticError("polynomial not annihilated within the degree bound")


def as_poly(op, vec: dict) -> SpinorPoly:
    """The polynomial sum (re + im i) x^alpha (x) source_basis[j] of a kernel vector."""
    terms = [x_shift(op.source_basis[j], alpha) for alpha, j in vec]
    return combination(terms, list(vec.values()))


def as_columns(op, h: int, vec: dict) -> dict:
    """A kernel vector in domain_basis(op, h) columns.

    Both routes give primitive Gaussian-integer vectors with a positive
    free entry, so they compare as they are.
    """
    index = {alpha: a for a, alpha in enumerate(exponents(op.m, h))}
    d = len(op.source_basis)
    return {index[alpha] * d + j: pair for (alpha, j), pair in vec.items()}
