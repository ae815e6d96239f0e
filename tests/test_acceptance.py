"""Acceptance suite: one test per criterion, all tolerances exactly zero.

Every check below is exact rational arithmetic; a criterion passes only
with literal equality.  Each test prints its own pass line (visible
with pytest -s; pytest -v shows one line per criterion either way).
"""

import itertools
import time
from fractions import Fraction
from math import lcm

import pytest

from hsdfactor.gaussian import QQi
from hsdfactor.hsd import (
    double_monogenic_basis,
    explicit_hsd,
    kernel_basis,
    verify_factorization_numeric,
    verify_identities,
    verify_induction_dims,
)
from hsdfactor.linalg import Mat, solve_sparse
from hsdfactor.opalgebra import (
    certificate_reexpands,
    expand_laplace_power,
    normal_form,
    path_operator,
    vanish_outside_box,
    verify_path_independence,
)
from hsdfactor.polyspace import (
    Compose,
    Dirac,
    VectorMult,
    SpinorPoly,
    apply,
    combination,
    homogeneous_basis,
    laplace,
    operator_matrix,
    stacked_rows,
)
from hsdfactor.repthy import casimir_projectors, simplicial_monogenic_basis, weyl_dim
from hsdfactor.weights import Weight, box, bruhat_leq, canonical_path, is_dominant, weight
from hsd_oracle import as_poly, degree, projectors


def dominant_weights(rank, max_entry):
    out = []
    for tup in itertools.product(range(max_entry + 1), repeat=rank):
        w = Weight(tup)
        if is_dominant(w):
            out.append(w)
    return out


# ---------------------------------------------------------------------------
# criterion 7's oracle: the induction step inverted by an exact solve


def twistor_inversion(g: SpinorPoly, m: int) -> SpinorPoly:
    """Invert one induction step: the f with d_x f = u g and d_u f = 0.

    g must be an exact degree-(h-1) kernel element for the shape one
    step down.  The linear system determines f modulo double monogenics,
    so the representative orthogonal to them in the Fischer pairing is
    returned; with that gauge the solution is unique, and uniqueness is
    asserted.  An inconsistent system signals g outside the kernel.
    """
    if g.k != 1:
        g = _promote_to_one_dummy(g)
    h = degree(g, 0) + 1
    k = degree(g, 1) + 1
    km1 = k - 1
    opm1_spec = explicit_hsd(Weight((km1,)) if km1 else Weight((0,)), m).spec
    if not apply(opm1_spec, g).is_zero():
        raise ValueError("input is not in the kernel one step down")
    domain = homogeneous_basis(m, 1, (h, k))
    # constraint rows: Dirac(0) f = u g ; Dirac(1) f = 0 ; Fischer gauge
    # stacked / den = u g = target.num / target.den, cleared of both denominators
    stacked, den = stacked_rows([Dirac(0), Dirac(1)], domain)
    target = apply(VectorMult(1), g)
    targets = {
        (0, (exp, s)): (re * den, im * den)
        for exp, vec in target.num.items() for s, (re, im) in enumerate(vec) if re or im
    }
    keys = list(stacked) + [key for key in targets if key not in stacked]
    rows = [{j: (re * target.den, im * target.den) for j, (re, im) in stacked.get(key, {}).items()} for key in keys]
    rhs = [targets.get(key, (0, 0)) for key in keys]
    for w in double_monogenic_basis(m, h, k):
        rows.append(_int_row({j: fischer_inner(w, b) for j, b in enumerate(domain)}))
        rhs.append((0, 0))
    solved = solve_sparse(rows, rhs, len(domain))
    if solved is None:
        raise ValueError("inconsistent inversion system; input outside the kernel")
    particular, null = solved
    if null:
        raise ArithmeticError("inversion solution not unique after the Fischer gauge")
    return combination(domain, particular)


def _int_row(values: dict) -> dict:
    """The nonzero QQi values as Gaussian integers over their common denominator."""
    den = lcm(1, *(x.denominator for v in values.values() for x in (v.re, v.im)))
    return {j: (int(v.re * den), int(v.im * den)) for j, v in values.items() if v}


def _promote_to_one_dummy(g: SpinorPoly) -> SpinorPoly:
    if g.k != 0:
        raise ValueError("expected a polynomial in x alone or x and one dummy variable")
    pad = (0,) * g.m
    return SpinorPoly.from_num(g.m, 1, {exp + pad: vec for exp, vec in g.num.items()}, g.den)


def fischer_inner(f: SpinorPoly, g: SpinorPoly) -> QQi:
    """Fischer pairing <x^a s, x^b t> = delta_ab a! <s, t>, antilinear left."""
    f._check(g)
    acc_re = acc_im = 0
    for exp, vec in f.num.items():
        other = g.num.get(exp)
        if other is None:
            continue
        fact = 1
        for e in exp:
            for t in range(2, e + 1):
                fact *= t
        for (ar, ai), (br, bi) in zip(vec, other):
            acc_re += fact * (ar * br + ai * bi)
            acc_im += fact * (ar * bi - ai * br)
    den = f.den * g.den
    return QQi(Fraction(acc_re, den), Fraction(acc_im, den))


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_path_independence():
    started = time.time()
    pairs = 0
    ok = True
    for rank in (1, 2, 3):
        for mu in dominant_weights(rank, 3):
            for nu in dominant_weights(rank, 3):
                if bruhat_leq(nu, mu):
                    pairs += 1
                    rep = verify_path_independence(nu, mu)
                    ok = ok and rep.passed
    elapsed = time.time() - started
    ok = ok and elapsed < 30
    report(f"1 path independence ({pairs} pairs, {elapsed:.1f}s)", ok)


def test_criterion_2_box_vanishing():
    ok = True
    for rank in (1, 2, 3):
        for mu in dominant_weights(rank, 3):
            inside = set(box(mu))
            for lam in dominant_weights(rank, 3):
                if not bruhat_leq(lam, mu):
                    continue
                fwd = normal_form(path_operator(canonical_path(lam, mu)))
                rev = normal_form(path_operator(canonical_path(lam, mu)[::-1]))
                expected_zero = lam not in inside
                ok = ok and fwd.is_zero() == expected_zero
                ok = ok and rev.is_zero() == expected_zero
                if expected_zero and rank <= 2:
                    ok = ok and vanish_outside_box(mu, lam).vanished
    report("2 box vanishing", ok)


def test_criterion_3_factorization_certificates():
    ok = True
    for rank in (1, 2, 3):
        for mu in dominant_weights(rank, 2):
            mu1 = mu.entries[0]
            for p in (mu1 + 1, mu1 + 2):
                cert = expand_laplace_power(mu, p)
                ok = ok and cert.residual.is_zero()
                ok = ok and set(cert.coefficients) <= set(box(mu))
                ok = ok and certificate_reexpands(cert)
            if mu1 >= 1:
                low = expand_laplace_power(mu, mu1)
                ok = ok and certificate_reexpands(low)  # residual reported, no emptiness claim
    report("3 factorization certificates", ok)


@pytest.mark.parametrize("lam,m", [((0,), 3), ((1,), 3), ((2,), 3), ((1,), 5), ((1, 1), 5)])
def test_criterion_4_operator_identities(lam, m):
    ok = True
    for degree in (2, 3):
        rep = verify_identities(Weight(lam), m, degree)
        ok = ok and rep.passed
    report(f"4 operator identities lam={lam} m={m}", ok)


def test_criterion_5_numeric_theorem():
    rep1 = verify_factorization_numeric(weight(1), 2, 3, 5)  # checks degrees 4 and 5
    rep2 = verify_factorization_numeric(weight(1, 0), 2, 5, 4)
    report("5 numeric theorem instantiation", rep1.passed and rep2.passed)


def test_criterion_6_corollary_sharpness():
    op = explicit_hsd(weight(1), 3)
    ok = True
    sharp = False
    for h in range(4):
        for vec in kernel_basis(op, h):
            f = as_poly(op, vec)
            ok = ok and laplace(0, laplace(0, f)).is_zero()
            if not laplace(0, f).is_zero():
                sharp = True
    report("6 corollary and sharpness", ok and sharp)


def test_criterion_7_induction_principle():
    ok = True
    for k in range(3):
        for h in range(4):
            ok = ok and verify_induction_dims(k, h, 3).passed
    inversions = 0
    for k in (1, 2):
        prev = explicit_hsd(weight(k - 1) if k > 1 else weight(0), 3)
        for h in range(1, 4):
            for vec in kernel_basis(prev, h - 1):
                g = as_poly(prev, vec)
                f = twistor_inversion(g, 3)
                ok = ok and apply(Dirac(1), f).is_zero()
                gg = g if g.k == 1 else _promote_to_one_dummy(g)
                ok = ok and (apply(Dirac(0), f) - apply(VectorMult(1), gg)).is_zero()
                inversions += 1
    report(f"7 induction principle ({inversions} inversions)", ok)


def test_criterion_8_dimension_oracle():
    ok = True
    expected = {(0,): 4, (1,): 16, (2,): 40, (1, 1): 20, (2, 1): 64}
    for lam, dim in expected.items():
        space = simplicial_monogenic_basis(Weight(lam), 5)
        ok = ok and space.dim == dim == weyl_dim(space.label, 5)
    report("8 dimension oracle agreement", ok)


def test_criterion_9_structural_exactness():
    ok = True
    # projector sets: idempotent, orthogonal, complete
    for lam, m in [((1,), 3), ((1,), 5), ((1, 1), 5)]:
        ps = casimir_projectors(Weight(lam), m)
        ident = Mat.identity(ps.ambient.dim)
        total = Mat.zero(ps.ambient.dim, ps.ambient.dim)
        projs = projectors(ps)
        for p in projs:
            ok = ok and p * p == p
            total = total + p
        for i, p in enumerate(projs):
            for j, q in enumerate(projs):
                if i != j:
                    ok = ok and (p * q).is_zero()
        ok = ok and total == ident
    # gamma relations exact for every dimension in play
    from hsdfactor.clifford import gamma_rep

    for m in (3, 5, 7):
        ok = ok and len(gamma_rep(m)) == m  # construction itself verifies the anticommutators
    # Dirac squared = -Laplace as exact matrices on tested components
    for m, degrees in [(3, (2,)), (3, (3,)), (5, (2,))]:
        dom = homogeneous_basis(m, 0, degrees)
        cod = homogeneous_basis(m, 0, (degrees[0] - 2,))
        dd = operator_matrix(Compose((Dirac(0), Dirac(0))), dom, cod)
        lap = operator_matrix(__import__("hsdfactor.polyspace", fromlist=["LaplaceOp"]).LaplaceOp(0), dom, cod)
        ok = ok and all(
            dd[i, j] == -lap[i, j] for i in range(len(cod)) for j in range(len(dom))
        )
    report("9 structural exactness", ok)
