"""Higher-spin Dirac and twistor operators with exact verification.

Two realizations coexist: explicit first-order formulas for the shapes
(), (k) and (k, l), one spec prod_p (1 + u_p d_{u_p} / (2 lam_p + m - 2p))
d_x, and the generic construction P_kappa . (id x Dirac) . P_iota
between two Casimir summands of one tensor-with-spinors ambient (its
gammas from `repthy.gamma_on_ambient`).
The generic operators live in summand coordinates: with P = C L from
`ProjectorSet.frame`, the block is L_kappa . (id x Dirac) . C_iota, a
sum of (x-derivative monomial) x (d_kappa x d_iota matrix) terms, which
keeps compositions and identity checks exact and small.  The explicit
operators take this form from their degree-1 images, and the kernels of
both kinds are null spaces of integer matrices built from it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product
from math import comb, factorial, lcm, perm, prod
from operator import add, sub

from .clifford import _rank_of, spinor_dim
from .gaussian import QQi, QQI_ZERO
from .linalg import DEFAULT_CELL_CAP, Mat, ResourceCapError, _echelon, check_cells, int_nullspace, nullity, solve_sparse
from .opalgebra import expand_laplace_power
from .polyspace import (
    BlockPoly,
    Compose,
    Dirac,
    IDENTITY,
    ScalarMix,
    VectorMult,
    apply,  # unused here; kept as hsd.apply, which the benchmark tracer patches
    exponents,
    homogeneous_basis,
    joint_kernel,
    stacked_rows,
)
from .repthy import (
    ProjectorSet,
    RealizedSpace,
    casimir_projectors,
    gamma_on_ambient,
    pad_weight,
    simplicial_monogenic_basis,
)
from .reports import Check, Report
from .weights import Weight, canonical_path, manhattan_distance


# ---------------------------------------------------------------------------
# sums of (derivative monomial) x (matrix between summand coordinates)


class DerivOp:
    """Exact operator sum_sig (d/dx)^sig (x) A_sig on vector-valued polynomials.

    Each A_sig maps the source summand's coordinates to the target's.
    Zero matrices are dropped and `Mat` is canonical, so `terms` is too.
    """

    __slots__ = ("m", "terms", "_top", "_echelon")

    def __init__(self, m: int, terms=None):
        self.m = m
        self.terms = {}
        if terms:
            for sig, mat in terms.items():
                if not mat.is_zero():
                    self.terms[tuple(sig)] = mat
        self._top = max((max(sig) for sig in self.terms), default=0)  # largest signature entry
        self._echelon = None  # echelon rows of a first-order operator's degree-1 images (`_kernel_rows`)

    def compose(self, other: "DerivOp") -> "DerivOp":
        return compose_sum(self.m, [(self, other)])

    def scale(self, c) -> "DerivOp":
        c = QQi.coerce(c)
        return DerivOp(self.m, {s: mat.scale(c) for s, mat in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, DerivOp):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def apply_monomial(self, alpha: tuple) -> dict:
        """Action on x^alpha: output exponent beta -> the matrix sending the
        coefficient vector of x^alpha to that of x^beta.

        (d/dx)^sig x^alpha = prod perm(alpha_i, sig_i) x^(alpha - sig), which
        vanishes unless sig <= alpha.  So only the signatures sig <= alpha
        with no entry above the largest of any term's are visited: they are
        enumerated and intersected with the terms at C speed.  Distinct
        signatures give distinct exponents, and every stored matrix is
        nonzero, so no entry is zero.
        """
        terms = self.terms
        out = {}
        for sig in terms.keys() & product(*(range(min(a, self._top) + 1) for a in alpha)):
            out[tuple(a - s for a, s in zip(alpha, sig))] = terms[sig].scale(prod(map(perm, alpha, sig)))
        return out


def _by_signature(m: int, terms) -> DerivOp:
    """The operator with matrix sum a * b at each signature sig, over the
    terms (sig, a, b): one `Mat.sum_of_products` per signature."""
    groups = {}
    for sig, a, b in terms:
        groups.setdefault(sig, []).append((a, b))
    return DerivOp(m, {sig: Mat.sum_of_products(pairs) for sig, pairs in groups.items()})


def compose_sum(m: int, pairs) -> DerivOp:
    """sum_k p_k . q_k over the pairs (p_k, q_k): every product of a term of
    p_k and a term of q_k lands at the sum of their signatures."""
    return _by_signature(m, (
        (tuple(a + b for a, b in zip(s1, s2)), m1, m2)
        for p, q in pairs
        for s1, m1 in p.terms.items()
        for s2, m2 in q.terms.items()
    ))


def laplace_shifts(m: int, power: int) -> list:
    """Lap^power as integer signature shifts: (2k, power!/prod k_i!) for |k| = power."""
    return [(tuple(2 * ki for ki in k), factorial(power) // prod(map(factorial, k))) for k in exponents(m, power)]


def laplace_deriv_op(m: int, dim: int, power: int = 1) -> DerivOp:
    """Lap^power (x) 1 on dim coordinates, one scaled identity per shift."""
    ident = Mat.identity(dim)
    return DerivOp(m, {sig: ident.scale(c) for sig, c in laplace_shifts(m, power)})


def _step_ops(ps: ProjectorSet):
    """The blocks L_target . (id x Dirac) . C_source of one ambient, each built
    once per `ProjectorSet` and kept in its `steps`.  A `DerivOp` is never
    mutated, so every caller may share them."""
    m = ps.ambient.m
    gams = gamma_on_ambient(ps.ambient)
    cache = ps.steps

    def op_between(target: Weight, source: Weight) -> DerivOp:
        key = (target, source)
        if key not in cache:
            left, cols = ps.frame(target)[1], ps.frame(source)[0]
            cache[key] = DerivOp(m, {
                tuple(int(j == i) for j in range(m)): left * g * cols for i, g in enumerate(gams)
            })
        return cache[key]

    return op_between


# ---------------------------------------------------------------------------
# operators


class HsdOperator:
    """One invariant first-order operator with an explicit realization.

    Either kind is deriv_op = sum_i d/dx_i (x) A_i, A_i acting on
    source_basis coordinates.  kind 'explicit': `spec` built from
    polynomial blocks on x-polynomials valued in a simplicial monogenic
    space; A_i[r, j] is coordinate r of spec(x_i (x) b_j).  The spec is
    applied once to all m*d elements x_i (x) b_j, i-major, and the rows
    r number the (exponent, spinor) keys of the images in the order
    `stacked_rows` returns them.
    kind 'projector': P_target . (id x Dirac) . P_source between two
    Casimir summands of one ambient, in summand coordinates (rows are
    target_values); source_coords is the source's L.  Each kind leaves
    the other's field (spec or source_coords) None.
    """

    def __init__(self, label: Weight, source_label: Weight, m: int, kind: str, value_space: RealizedSpace,
                 source_basis: BlockPoly, target_values: BlockPoly, deriv_op: DerivOp, spec=None,
                 source_coords: Mat = None):
        self.label = label                  # target summand (half-integral)
        self.source_label = source_label    # source summand
        self.m = m
        self.kind = kind
        self.value_space = value_space
        self.source_basis = source_basis    # value-space basis of the source side
        self.target_values = target_values  # value-space basis of the target side
        self.deriv_op = deriv_op
        self.spec = spec
        self.source_coords = source_coords


def explicit_hsd(lam: Weight, m: int, cap: int = DEFAULT_CELL_CAP) -> HsdOperator:
    """Explicit operator for shapes (), (k) and (k, l): one factor per row p,

    prod_p (1 + u_p d_{u_p} / (2 lam_p + m - 2p)) d_x, so
    (k):    (1 + u du / (2k+m-2)) d_x
    (k, l): (1 + u1 d1 / (2k+m-2)) (1 + u2 d2 / (2l+m-4)) d_x
    """
    if lam.spin:
        raise ValueError("explicit shapes are integral weights")
    degrees = tuple(e for e in lam.entries if e > 0)
    if len(degrees) > 2:
        raise ValueError(f"explicit formulas cover shapes (k) and (k,l), not {lam}")
    space = simplicial_monogenic_basis(lam, m, cap=cap)
    # every denominator is >= 3: lam_p >= 1 and p <= n = (m - 1) / 2
    factors = tuple(
        ScalarMix(((1, IDENTITY), (Fraction(1, 2 * lp + m - 2 * p), Compose((VectorMult(p), Dirac(p))))))
        for p, lp in enumerate(degrees, 1)
    )
    spec = Compose((*factors, Dirac(0)))
    return HsdOperator(
        label=space.label,
        source_label=space.label,
        m=m,
        kind="explicit",
        value_space=space,
        source_basis=space.basis,
        target_values=space.basis,
        deriv_op=_degree_one_images(spec, space.basis, m),
        spec=spec,
    )


def _degree_one_images(spec, basis: BlockPoly, m: int) -> DerivOp:
    """sum_i d/dx_i (x) A_i for a spec first order in x with constant coefficients.

    Column j of A_i is spec(x_i (x) basis[j]), over the images' common
    denominator, in their (exponent, spinor) coordinates numbered as
    `stacked_rows` returns them.  The spec is applied once, to the m*d
    elements x_i (x) b_j as one `BlockPoly`: the basis blocks moved to
    x-exponent e_i, and column c = i*d + j.
    """
    d = len(basis)
    units = [tuple(int(t == i) for t in range(m)) for i in range(m)]
    rows, den = stacked_rows([spec], BlockPoly(m, basis.k, m * d, {
        e + exp[m:]: Mat._reduced([{i * d + j: v for j, v in row.items()} for row in b.num], b.den, m * d)
        for i, e in enumerate(units) for exp, b in basis.blocks.items()
    }))
    nums = [[{} for _ in rows] for _ in units]
    for r, row in enumerate(rows.values()):
        for c, pair in row.items():
            nums[c // d][r][c % d] = pair
    return DerivOp(m, {e: Mat._reduced(num, den, d) for e, num in zip(units, nums)})


def _summand_basis(ps: ProjectorSet, kappa: Weight) -> BlockPoly:
    """The columns of C (a basis of the Casimir eigenspace), as value-space polynomials."""
    return ps.ambient.basis.combined(ps.frame(kappa)[0])


def generic_twistor_hsd(lam: Weight, m: int) -> list:
    """All projector-composed operators between summands at distance <= 1.

    Diagonal entries are the HSD operators of the summands, off-diagonal
    ones the twistors.  Pairs at distance >= 2 are verified to give the
    zero operator (termwise, hence in every x-degree).
    """
    ps = casimir_projectors(pad_weight(lam, _rank_of(m)), m, cap=DEFAULT_CELL_CAP)
    op_between = _step_ops(ps)
    out = []
    values = {kappa: _summand_basis(ps, kappa) for kappa in ps.weights}
    for kappa in ps.weights:
        for iota in ps.weights:
            dist = manhattan_distance(kappa, iota)
            block = op_between(kappa, iota)
            if dist >= 2:
                if not block.is_zero():
                    raise AssertionError(
                        f"operator between {kappa} and {iota} at distance {dist} is nonzero"
                    )
                continue
            out.append(
                HsdOperator(
                    label=kappa,
                    source_label=iota,
                    m=m,
                    kind="projector",
                    value_space=ps.ambient,
                    source_basis=values[iota],
                    target_values=values[kappa],
                    deriv_op=block,
                    source_coords=ps.frame(iota)[1],
                )
            )
    return out


def _kernel_rows(deriv_op: DerivOp, d: int, h: int, cap: int) -> tuple:
    """(rows, ncols) of the integer matrix of a first-order sum_i d/dx_i (x) A_i
    on degree-h polynomials valued in d coordinates, columns (alpha, j) alpha-major.

    R(x^alpha (x) b_j) = sum_i alpha_i x^(alpha - e_i) (x) A_i b_j, so the
    rows at one beta of degree h - 1 are the rows of [A_1 | ... | A_m]
    under one linear map: entry (i, j) moves to column (beta + e_i, j),
    times beta_i + 1.  The integer echelon rows of [A_1 | ... | A_m]
    (`_echelon`, once per operator, kept on it) span the same row space,
    so one row (beta, e) per echelon row e gives the same null space.  The
    cap counts the unreduced rows, |exponents(m, h - 1)| x (rows live in
    some A_i).
    """
    m, terms = deriv_op.m, deriv_op.terms
    index = {alpha: a * d for a, alpha in enumerate(exponents(m, h))}
    den = lcm(*(mat.den for mat in terms.values()))
    stacked = {}  # image coordinate r -> row r of [A_1 | ... | A_m], zero rows absent
    for sig, mat in terms.items():
        i, f = sig.index(1), den // mat.den
        for r, row in enumerate(mat.num):
            if row:
                stacked.setdefault(r, {}).update((i * d + j, (re * f, im * f)) for j, (re, im) in row.items())
    check_cells(comb(m + h - 2, h - 1) * len(stacked) if h else 0, len(index) * d, cap)
    if h and deriv_op._echelon is None:
        deriv_op._echelon = _echelon(stacked.values(), m * d)[1]
    echelon = deriv_op._echelon if h else ()
    rows = []
    for beta in exponents(m, h - 1):  # none for h = 0
        place = [(index[beta[:i] + (b + 1,) + beta[i + 1:]], b + 1) for i, b in enumerate(beta)]
        for e in echelon:
            out = {}
            for c, (re, im) in e.items():
                col, f = place[c // d]
                out[col + c % d] = (re * f, im * f)
            rows.append(out)
    return rows, len(index) * d


def kernel_basis(op: HsdOperator, h: int, cap: int = DEFAULT_CELL_CAP) -> list:
    """Exact basis of the degree-h kernel: one vector {(alpha, j): (re, im)}
    per free column, standing for sum (re + im i) x^alpha (x) source_basis[j].

    The kernel is the null space of `_kernel_rows`'s integer matrix, rows
    (beta, echelon row of the degree-1 images), columns (alpha, j)
    alpha-major.  The vectors are the reduced-row-echelon basis, each as
    a primitive Gaussian-integer multiple.
    """
    d, alphas = len(op.source_basis), list(exponents(op.m, h))
    rows, ncols = _kernel_rows(op.deriv_op, d, h, cap)
    return [{(alphas[c // d], c % d): v for c, v in vec.items()} for vec in int_nullspace(rows, ncols)]


def double_monogenic_basis(m: int, h: int, k: int, cap: int = DEFAULT_CELL_CAP) -> BlockPoly:
    """(h, k)-homogeneous polynomials monogenic in both x and u."""
    return joint_kernel([Dirac(0), Dirac(1)], homogeneous_basis(m, 1, (h, k)), cap)


def polyharmonic_order(f: dict) -> int:
    """Least p with Lap^p killing a kernel vector f of `kernel_basis` (bounded search).

    The values b_j do not depend on x, so the Laplacian acts on the
    exponents alpha alone: x^alpha -> sum_i alpha_i (alpha_i - 1) x^(alpha - 2 e_i).
    """
    if not f:
        return 1
    bound = sum(next(iter(f))[0]) // 2 + 1
    # the Laplacian is real: the real and imaginary parts go their own ways
    g = {(alpha, j, part): c for (alpha, j), pair in f.items() for part, c in enumerate(pair) if c}
    for p in range(1, bound + 1):
        acc = {}
        for (alpha, j, part), c in g.items():
            for i, a in enumerate(alpha):
                if a > 1:
                    key = (alpha[:i] + (a - 2,) + alpha[i + 1:], j, part)
                    acc[key] = acc.get(key, 0) + a * (a - 1) * c
        g = {key: c for key, c in acc.items() if c}
        if not g:
            return p
    raise ArithmeticError("polynomial not annihilated within the degree bound")


def verify_induction_dims(k: int, h: int, m: int, cap: int = DEFAULT_CELL_CAP) -> Report:
    """dim ker_h R_k = dim M_(h,k) + dim ker_(h-1) R_(k-1), all exact.

    Each term is the `nullity` of a `_kernel_rows` matrix: R_k, R_(k-1)
    one degree down, and D_x on P_h (x) M_k, for D_u acts on u alone and
    M_k = ker D_u is R_k's value space.  No basis is built, and each
    matrix is priced before it is assembled, M_(h,k) as the direct matrix
    of D_x and D_u on (h, k)-homogeneous polynomials (rows: images of
    degrees (h-1, k) and (h, k-1)).  For k = 0 the operator one step down
    is zero by convention and the third term is absent.
    """
    r_k = explicit_hsd(Weight((k,)), m, cap)
    counted = [_kernel_rows(r_k.deriv_op, len(r_k.source_basis), h, cap)]
    s = spinor_dim(m)
    n = {e: comb(m + e - 1, e) if e >= 0 else 0 for e in (h - 1, h, k - 1, k)}  # |exponents(m, e)|
    check_cells(s * (n[h - 1] * n[k] + n[h] * n[k - 1]), s * n[h] * n[k], cap)
    counted.append(_kernel_rows(_degree_one_images(Dirac(0), r_k.source_basis, m), len(r_k.source_basis), h, cap))
    below = explicit_hsd(Weight((k - 1,)), m, cap) if k and h else None  # h = 0: no degree -1 polynomials
    counted.append(_kernel_rows(below.deriv_op, len(below.source_basis), h - 1, cap) if below else ((), 0))
    dims = dict(zip(("ker", "double_monogenic", "previous_kernel"), (nullity(*c) for c in counted)))
    ok = dims["ker"] == dims["double_monogenic"] + dims["previous_kernel"]
    return Report(
        title="induction_dims",
        params={"k": k, "h": h, "m": m},
        checks=[Check("kernel_dimension_splits", ok, dims)],
        results=dims,
    )


# ---------------------------------------------------------------------------
# identity verification


def verify_identities(lam: Weight, m: int, x_degree: int, cap: int = DEFAULT_CELL_CAP) -> Report:
    """Exact operator identities in one ambient decomposition.

    (1) minus the Laplace operator equals R^2 plus the sum of incoming
        twistor round trips on each summand;
    (2) T R + R T vanishes across every edge;
    (3) the two-step compositions between summands at distance two
        cancel (or vanish singly when only one intermediate exists).

    Operators are sums of derivative monomials with matrices between
    summand coordinates, so each identity reduces to finitely many exact
    matrix equalities, valid uniformly in the x-degree; the stated
    x_degree is echoed into the report and used for the evaluation spot
    checks.  cap bounds the eliminations of `casimir_projectors`, keyed
    on the padded weight as in the theorem.
    """
    ps = casimir_projectors(pad_weight(lam, _rank_of(m)), m, cap=cap)
    block = _step_ops(ps)
    checks = []
    splitting = {}  # summand -> both sides of identity (1)
    for kappa in ps.weights:
        lhs = laplace_deriv_op(m, ps.dim(kappa)).scale(-1)
        rhs = compose_sum(m, [(block(kappa, kappa), block(kappa, kappa))] + [
            (block(kappa, omega), block(omega, kappa))
            for omega in ps.weights if manhattan_distance(kappa, omega) == 1
        ])
        splitting[kappa] = (lhs, rhs)
        checks.append(Check(f"splitting_of_laplace_at_{kappa}", lhs == rhs, {"summand": kappa}))
    pairs = [(kappa, iota) for kappa in ps.weights for iota in ps.weights]
    for kappa, iota in pairs:
        if manhattan_distance(kappa, iota) == 1:
            anti = compose_sum(m, [(block(kappa, iota), block(iota, iota)), (block(kappa, kappa), block(kappa, iota))])
            checks.append(
                Check(f"edge_anticommutation_{kappa}_{iota}", anti.is_zero(), {"target": kappa, "source": iota})
            )
    dist2 = 0
    for kappa, iota in pairs:
        if kappa == iota or manhattan_distance(kappa, iota) != 2:
            continue
        dist2 += 1
        legs = [
            theta for theta in ps.weights
            if manhattan_distance(kappa, theta) == 1 and manhattan_distance(theta, iota) == 1
        ]
        turns = compose_sum(m, [(block(kappa, theta), block(theta, iota)) for theta in legs])
        checks.append(
            Check(
                f"turn_cancellation_{kappa}_{iota}",
                turns.is_zero(),
                {"target": kappa, "source": iota, "dominant_intermediates": len(legs)},
            )
        )
    # evaluation spot check: both sides on a few monomials of the requested degree
    lhs, rhs = splitting[ps.weights[0]]
    spot_ok = all(lhs.apply_monomial(a) == rhs.apply_monomial(a) for a in islice(exponents(m, x_degree), 3))
    checks.append(Check("evaluation_spot_check", spot_ok, {"x_degree": x_degree}))
    return Report(
        title="operator_identities",
        params={"lambda": lam, "m": m, "x_degree": x_degree},
        checks=checks,
        results={
            "summands": ps.weights,
            "eigenvalues": ps.eigenvalues,
            "distance_2_pairs": dist2,
        },
    )


# ---------------------------------------------------------------------------
# numeric factorization check


def theorem_chains(ps: ProjectorSet, mu: Weight, p: int, support: list) -> list:
    """(base, closers) for each lam of the support, on the summand coordinates
    of mu'.  With e = p - |mu - lam| - 1 and the open chain
    O = r_mu P(mu <- lam) P(lam <- mu) (P(mu <- lam) the steps of the
    canonical path from lam up to mu, P(lam <- mu) those back down):

    e = 0: base O, closers the terms (e_i, r_mu[e_i]) of r_mu;
    e > 0: base O r_mu, closers the shifts (2k, coef_k) of `laplace_shifts`.

    The closed chain O r_mu (Lap^e (x) 1) is sum base[alpha - s] f over the
    closers (s, f) at each signature alpha: Lap^e (x) 1 commutes with every
    step, so it only shifts signatures by integers, and no product has a
    multiple of the identity as a factor.
    """
    op_between = _step_ops(ps)
    mu_s = mu.spin_shifted()
    r_mu = op_between(mu_s, mu_s)
    chains = []
    for lam in support:
        nodes = [w.spin_shifted() for w in canonical_path(lam, mu)]
        walk = nodes[::-1] + nodes[1:]  # mu down to lam and back up
        base = r_mu
        for a, b in zip(walk, walk[1:]):
            base = base.compose(op_between(a, b))
        e = p - manhattan_distance(mu, lam) - 1
        chains.append((base.compose(r_mu), dict(laplace_shifts(ps.ambient.m, e))) if e else (base, r_mu.terms))
    return chains


def closed_chain_at(base: DerivOp, closers: dict, alpha: tuple):
    """The closed chain of `theorem_chains` at signature alpha, None where it
    has no term: one sum of base[alpha - s] f over the closers (s, f)."""
    terms = [(base.terms[sig], f) for s, f in closers.items() if (sig := tuple(map(sub, alpha, s))) in base.terms]
    total = Mat.sum_of_products(terms) if terms else None
    return None if total is None or total.is_zero() else total


def verify_factorization_numeric(
    mu: Weight, p: int, m: int, x_degree: int, cap: int = DEFAULT_CELL_CAP
) -> Report:
    """Instantiate one factorization certificate as exact matrices.

    Every node of every canonical path must be a summand of the single
    ambient decomposition of mu tensor spinors, which holds exactly when
    mu_1 <= 1; larger first entries would need intertwiners between
    different ambients and are out of numeric scope here.

    The per-weight convention scalars relating the symbolic certificate
    to the projector normalization are solved exactly on the lowest
    admissible degree 2p, then the identity Lap^p = R A R is re-checked
    exactly on every degree up to x_degree.  cap bounds the
    eliminations of `casimir_projectors` and the monomials of degrees
    2p..x_degree that those checks instantiate.

    Each chain is a base and its closers (`theorem_chains`), closed one
    way: the solve by `closed_chain_at` at the signatures it visits,
    (2p, 0, ..., 0) alone for m >= 5, and the sum sum_lam c_lam C_lam as
    the terms (sig + s, base[sig], c_lam f) over the closers (s, f).
    """
    mu = pad_weight(mu, _rank_of(m))
    if mu.spin:
        raise ValueError("mu must be integral")
    if p <= mu.entries[0]:
        raise ValueError(f"need p > mu_1, got p={p}, mu_1={mu.entries[0]}")
    if x_degree < 2 * p:
        raise ValueError(f"x_degree must be at least 2p = {2 * p} to see Lap^{p}")
    if mu.entries[0] > 1:
        raise ResourceCapError(
            "numeric instantiation needs every path node inside one ambient; requires mu_1 <= 1"
        )
    cert = expand_laplace_power(mu, p)
    ps = casimir_projectors(mu, m, cap=cap)
    monomials = sum(comb(m + d - 1, d) for d in range(2 * p, x_degree + 1))
    if monomials > cap:
        raise ResourceCapError(f"{monomials} monomials of degrees {2 * p}..{x_degree} exceed cap {cap}")
    support = cert.support()
    chains = theorem_chains(ps, mu, p, support)
    target = laplace_deriv_op(m, ps.dim(mu.spin_shifted()), p)

    # solve scalars on the lowest admissible degree 2p: every chain and Lap^p
    # has order exactly 2p, so on x^alpha each gives alpha! times its matrix
    # at signature alpha.  One row per nonzero entry (i, j) of those
    # matrices, over their common denominator; Lap^p enters as column
    # `unknowns`, split off as the right-hand side
    unknowns = len(support)
    rows = []
    rhs = []
    for alpha in exponents(m, 2 * p):
        mats = [(jj, closed_chain_at(base, closers, alpha)) for jj, (base, closers) in enumerate(chains)]
        mats = [(jj, a) for jj, a in mats + [(unknowns, target.terms.get(alpha))] if a is not None]
        den = lcm(*(a.den for _, a in mats))
        eqs = {}
        for jj, a in mats:
            scale = den // a.den
            for i, row in enumerate(a.num):
                for j, (re, im) in row.items():
                    eqs.setdefault((i, j), {})[jj] = (re * scale, im * scale)
        for ij in sorted(eqs):
            rhs.append(eqs[ij].pop(unknowns, (0, 0)))
            rows.append(eqs[ij])
        if len(rows) >= 12 * unknowns:
            break
    solved = solve_sparse(rows, rhs, unknowns)
    results = {"support": support}
    if solved is None or solved[1]:
        reason = "inconsistent" if solved is None else "underdetermined"
        checks = [Check("normalization_solve", False, {"reason": reason})]
        results["certificate"] = cert.to_jsonable()
    else:
        values = [solved[0].get(j, QQI_ZERO) for j in range(unknowns)]
        real = all(v.im == 0 for v in values)
        scalars = [v.re for v in values]
        results["symbolic_coefficients"] = {str(l): cert.coefficients[l] for l in support}
        results["solved_scalars"] = {str(l): str(s) for l, s in zip(support, scalars)} if real else {}
        results["residual_empty"] = cert.residual.is_zero()
        checks = [Check("normalization_solve", real, {"degree": 2 * p, "scalars": list(map(str, scalars))}
                        if real else {"reason": "non-real scalar"})]
        if real:
            terms = []
            for c, (base, closers) in zip(scalars, chains):
                closing = [(s, c * f) for s, f in closers.items()]  # c r_mu[e_i] (e = 0) or c coef_k (e > 0)
                terms += [(tuple(map(add, sig, s)), mat, cf) for sig, mat in base.terms.items() for s, cf in closing]
            combined = _by_signature(m, terms)
            # termwise equality makes the identity degree-independent; still
            # instantiate and compare on every requested degree explicitly
            checks.append(Check("termwise_matrix_equality", combined == target, {}))
            for degree in range(2 * p, x_degree + 1):
                ok = all(target.apply_monomial(a) == combined.apply_monomial(a) for a in exponents(m, degree))
                checks.append(Check(f"exact_equality_degree_{degree}", ok, {"degree": degree}))
    return Report(
        title="factorization_numeric",
        params={"mu": mu, "power": p, "m": m, "x_degree": x_degree},
        checks=checks,
        results=results,
    )
