"""Acceptance suite: one test per criterion, all tolerances exactly zero.

Every check below is exact rational arithmetic; a criterion passes only
with literal equality.  Each test prints its own pass line (visible
with pytest -s; pytest -v shows one line per criterion either way).
"""

import itertools
import time

import pytest

from hsdfactor.hsd import (
    explicit_hsd,
    kernel_basis,
    twistor_inversion,
    verify_factorization_numeric,
    verify_identities,
    verify_induction_dims,
)
from hsdfactor.linalg import Mat
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
    apply,
    homogeneous_basis,
    laplace,
    operator_matrix,
)
from hsdfactor.repthy import casimir_projectors, simplicial_monogenic_basis, weyl_dim
from hsdfactor.weights import Weight, box, bruhat_leq, canonical_path, is_dominant, weight


def dominant_weights(rank, max_entry):
    out = []
    for tup in itertools.product(range(max_entry + 1), repeat=rank):
        w = Weight(tup)
        if is_dominant(w):
            out.append(w)
    return out


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
                rev = normal_form(path_operator(canonical_path(lam, mu).reversed()))
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
        for f in kernel_basis(op, h):
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
            for g in kernel_basis(prev, h - 1):
                f = twistor_inversion(g, 3)
                ok = ok and apply(Dirac(1), f).is_zero()
                gg = g if g.k == 1 else _one_dummy(g)
                ok = ok and (apply(Dirac(0), f) - apply(VectorMult(1), gg)).is_zero()
                inversions += 1
    report(f"7 induction principle ({inversions} inversions)", ok)


def _one_dummy(g):
    from hsdfactor.hsd import _promote_to_one_dummy

    return _promote_to_one_dummy(g)


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
        for p in ps.projectors:
            ok = ok and p * p == p
            total = total + p
        for i, p in enumerate(ps.projectors):
            for j, q in enumerate(ps.projectors):
                if i != j:
                    ok = ok and (p * q).is_zero()
        ok = ok and total == ident
    # gamma relations exact for every dimension in play
    from hsdfactor.clifford import gamma_rep

    for m in (3, 5, 7):
        rep = gamma_rep(m)  # construction itself verifies the anticommutators
        ok = ok and len(rep.generators) == m
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
