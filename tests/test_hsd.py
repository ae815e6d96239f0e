import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hsdfactor.gaussian import QQi
from hsdfactor.hsd import (
    DerivOp,
    double_monogenic_basis,
    explicit_hsd,
    generic_twistor_hsd,
    kernel_basis,
    polyharmonic_order,
    verify_factorization_numeric,
    verify_identities,
    verify_induction_dims,
)
from hsdfactor.polyspace import Compose, Dirac, ScalarMix, SpinorPoly, VectorMult, apply, laplace, spinor_unit
from hsdfactor.weights import Weight, weight
from hsd_oracle import (
    add_ops,
    all_terms_apply_monomial,
    apply_op,
    as_poly,
    degree,
    domain_basis,
    matvec,
    op_matrix,
    pairwise_compose,
    projector,
    ref_polyharmonic_order,
    sub_ops,
    trace,
    x_shift,
)
from test_acceptance import twistor_inversion


def test_explicit_coefficients_shape_k():
    op = explicit_hsd(weight(1), 3)
    mix, dx = op.spec.specs
    assert isinstance(mix, ScalarMix)
    assert mix.parts[0][0] == Fraction(1)
    assert mix.parts[1][0] == Fraction(1, 3)  # 1/(2k+m-2) at k=1, m=3
    assert dx == Dirac(0)


def test_explicit_coefficients_shape_kl():
    op = explicit_hsd(weight(1, 1), 5)
    outer = op.spec
    assert isinstance(outer, Compose)
    f1, f2, dx = outer.specs
    assert f1.parts[1][0] == Fraction(1, 5)  # 1/(2k+m-2)
    assert f2.parts[1][0] == Fraction(1, 3)  # 1/(2l+m-4)
    assert dx == Dirac(0)


def test_explicit_shape_zero_is_plain_dirac():
    op = explicit_hsd(weight(0), 3)
    assert op.spec == Compose((Dirac(0),))


def test_value_preservation():
    op = explicit_hsd(weight(1), 3)
    for b in domain_basis(op, 2):
        image = apply_op(op, b)
        assert apply(Dirac(1), image).is_zero()


def test_value_preservation_two_row_shape():
    from hsdfactor.polyspace import MixedEuler

    op = explicit_hsd(weight(1, 1), 5)
    for b in domain_basis(op, 1)[:8]:
        image = apply_op(op, b)
        assert apply(Dirac(1), image).is_zero()
        assert apply(Dirac(2), image).is_zero()
        assert apply(MixedEuler(1, 2), image).is_zero()


def test_operator_matrix_per_degree():
    op = explicit_hsd(weight(1), 3)
    mat = op_matrix(op, 1)
    assert (mat.nrows, mat.ncols) == (4, 12)
    assert mat.rank() == 12 - len(kernel_basis(op, 1))
    ops = generic_twistor_hsd(weight(1), 3)
    t = next(o for o in ops if o.label != o.source_label)
    tmat = op_matrix(t, 1)
    assert tmat.ncols == 3 * len(t.source_basis)


def test_kernel_dims_match_monogenics():
    op0 = explicit_hsd(weight(0), 3)
    for h in range(4):
        assert len(kernel_basis(op0, h)) == 2 * (h + 1)
    # degree 0: whole value space
    op1 = explicit_hsd(weight(1), 3)
    assert len(kernel_basis(op1, 0)) == op1.value_space.dim


def test_generic_operators_and_agreement():
    ops = generic_twistor_hsd(weight(1), 3)
    pairs = {(o.label.entries, o.source_label.entries) for o in ops}
    assert pairs == {((1,), (1,)), ((1,), (0,)), ((0,), (1,)), ((0,), (0,))}
    gen_r1 = next(o for o in ops if o.label == o.source_label == Weight((1,), spin=True))
    exp_r1 = explicit_hsd(weight(1), 3)
    ratios = set()
    for h in (1, 2, 3):
        ratio = None
        for b in domain_basis(exp_r1, h):
            got = apply_op(gen_r1, b)
            want = apply_op(exp_r1, b)
            if want.is_zero():
                assert got.is_zero()
                continue
            key = next(iter(want.coordinates()))
            r = got.coordinates().get(key, QQi(0)) / want.coordinates()[key]
            assert (got - want.scale(r)).is_zero()
            ratio = r if ratio is None else ratio
            assert r == ratio
        ratios.add(repr(ratio))
    assert len(ratios) == 1  # one degree-independent scalar


def test_generic_operators_nonzero_m5():
    ops = generic_twistor_hsd(weight(1), 5)
    assert len(ops) == 4
    for op in ops:
        assert not op.deriv_op.is_zero()


def test_generic_single_summand_is_dirac():
    ops = generic_twistor_hsd(weight(0), 3)
    assert len(ops) == 1
    op = ops[0]
    for b in domain_basis(op, 2):
        assert (apply_op(op, b) - apply(Dirac(0), b)).is_zero()


def test_twistor_maps_kernels_to_kernels():
    # edge anticommutation implies T sends ker R(source) into ker R(target)
    ops = generic_twistor_hsd(weight(1), 3)
    by_pair = {(o.label.entries, o.source_label.entries): o for o in ops}
    t_down = by_pair[((0,), (1,))]
    r_up = by_pair[((1,), (1,))]
    r_down = by_pair[((0,), (0,))]
    for vec in kernel_basis(r_up, 2):
        assert apply_op(r_down, apply_op(t_down, as_poly(r_up, vec))).is_zero()


@pytest.mark.parametrize("lam,m", [((0,), 3), ((1,), 3)])
def test_identities_quick(lam, m):
    rep = verify_identities(Weight(lam), m, 3)
    assert rep.passed


def test_identities_match_explicit_matrix_route():
    """Tie the termwise identity check to literal matrices on one degree."""
    from hsdfactor.hsd import gamma_on_ambient, laplace_deriv_op
    from hsdfactor.repthy import casimir_projectors

    ps = casimir_projectors(weight(1), 3)
    gams = gamma_on_ambient(ps.ambient)
    dop = DerivOp(3, {tuple(int(j == i) for j in range(3)): g for i, g in enumerate(gams)})

    def const(mat):
        return DerivOp(3, {(0, 0, 0): mat})

    top = Weight((1,), spin=True)
    proj = projector(ps, top)
    lhs = laplace_deriv_op(3, ps.ambient.dim).compose(const(proj)).scale(-1)
    blocks = {}
    for k in ps.weights:
        for i in ps.weights:
            blocks[(k, i)] = const(projector(ps, k)).compose(dop).compose(const(projector(ps, i)))
    rhs = blocks[(top, top)].compose(blocks[(top, top)])
    bottom = Weight((0,), spin=True)
    rhs = add_ops(rhs, blocks[(top, bottom)].compose(blocks[(bottom, top)]))
    # evaluate both on the full degree-2 component
    for alpha in [(2, 0, 0), (1, 1, 0), (0, 1, 1)]:
        assert lhs.apply_monomial(alpha) == rhs.apply_monomial(alpha)


def ref_apply_monomial(op, alpha, w):
    """Oracle: the action of op on x^alpha (x) w, one vector at a time,
    as output exponent -> vector with zero vectors dropped."""
    out = {}
    for sig, mat in op.terms.items():
        coeff = 1
        ok = True
        for a, s in zip(alpha, sig):
            if s > a:
                ok = False
                break
            for t in range(a, a - s, -1):
                coeff *= t
        if not ok:
            continue
        beta = tuple(a - s for a, s in zip(alpha, sig))
        vec = matvec(mat, w)
        if coeff != 1:
            vec = [QQi(v.re * coeff, v.im * coeff) for v in vec]
        out[beta] = vec
    return {b: v for b, v in out.items() if any(v)}


rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_apply_monomial_visits_what_the_all_terms_loop_keeps(data):
    """Signatures of mixed degrees, each coordinate 0..3, on exponents that
    lie below some of them: the pruned lookup keeps exactly the live terms."""
    from hsdfactor.linalg import Mat

    m = data.draw(st.sampled_from([3, 5]))
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    entries = st.builds(QQi, rationals, rationals)
    sigs = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * m), max_size=10, unique=True))
    op = DerivOp(m, {
        sig: Mat(data.draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))
        for sig in sigs
    })
    for _ in range(3):
        alpha = data.draw(st.tuples(*[st.integers(0, 3)] * m))
        got = op.apply_monomial(alpha)
        assert got == all_terms_apply_monomial(op, alpha)
        assert len(got) == sum(all(s <= a for s, a in zip(sig, alpha)) for sig in op.terms)


@pytest.mark.parametrize("lam,m", [((1,), 3), ((1, 0), 5)])
def test_apply_monomial_matches_the_vector_oracle(lam, m):
    """Each returned matrix, applied to every unit vector, gives the oracle's vector."""
    from hsdfactor.hsd import _step_ops, laplace_deriv_op
    from hsdfactor.linalg import Mat
    from hsdfactor.polyspace import exponents
    from hsdfactor.repthy import casimir_projectors
    from hsdfactor.weights import manhattan_distance

    ps = casimir_projectors(Weight(lam), m)
    block = _step_ops(ps)
    ops = [(block(k, i), ps.dim(i)) for k in ps.weights for i in ps.weights]
    for kappa in ps.weights:
        rhs = block(kappa, kappa).compose(block(kappa, kappa))
        for omega in ps.weights:
            if manhattan_distance(kappa, omega) == 1:
                rhs = add_ops(rhs, block(kappa, omega).compose(block(omega, kappa)))
        ops += [(laplace_deriv_op(m, ps.dim(kappa)).scale(-1), ps.dim(kappa)), (rhs, ps.dim(kappa))]
    for op, ncols in ops:
        for degree in range(4):
            for alpha in exponents(m, degree):
                mats = op.apply_monomial(alpha)
                for w in Mat.identity(ncols).rows:
                    got = {b: v for b, mat in mats.items() if any(v := matvec(mat, w))}
                    assert got == ref_apply_monomial(op, alpha, w), (alpha, w)


def test_spot_check_takes_three_exponents_lazily():
    """The spot check reads three monomials, not every exponent of the degree."""
    import tracemalloc

    tracemalloc.start()
    try:
        rep = verify_identities(weight(1), 5, 120)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 50 * 2**20


@pytest.mark.parametrize("lam,m", [((1,), 3), ((1, 0), 5)])
def test_derivop_canonical_form(lam, m):
    """Zero terms never survive, so equality may compare the term dicts."""
    from hsdfactor.hsd import _step_ops
    from hsdfactor.repthy import casimir_projectors

    ps = casimir_projectors(Weight(lam), m)
    op_between = _step_ops(ps)
    # blocks between different summands differ in shape: add only equal shapes
    blocks = [((ps.dim(k), ps.dim(i)), op_between(k, i)) for k in ps.weights for i in ps.weights]
    assert any(not a.is_zero() for _, a in blocks)
    for shape_a, a in blocks:
        assert sub_ops(a, a).is_zero()
        assert sub_ops(a, a) == DerivOp(m)
        assert a.scale(0).is_zero()
        for shape_b, b in blocks:
            if shape_a == shape_b:
                assert sub_ops(add_ops(a, b), b) == a


@pytest.mark.parametrize("lam,m", [((1,), 3), ((1, 0), 5), ((1, 1), 5)])
def test_fused_compositions_match_the_pairwise_route(lam, m):
    """compose and compose_sum, one sum of products per signature, equal
    composing one Mat product at a time and adding the operators after."""
    from hsdfactor.hsd import _step_ops, compose_sum
    from hsdfactor.repthy import casimir_projectors

    ps = casimir_projectors(Weight(lam), m)
    block = _step_ops(ps)
    w = ps.weights
    for kappa in w:
        for theta in w:
            for iota in w:
                assert block(kappa, theta).compose(block(theta, iota)) == pairwise_compose(
                    block(kappa, theta), block(theta, iota)
                )
            pairs = [(block(kappa, omega), block(omega, theta)) for omega in w]
            expected = DerivOp(m)
            for p, q in pairs:
                expected = add_ops(expected, pairwise_compose(p, q))
            assert compose_sum(m, pairs) == expected
            # a sum that cancels leaves no term at all
            p, q = pairs[0]
            assert compose_sum(m, [(p, q), (p, q.scale(-1))]).terms == {}


def lap_first_chains(ps, mu, p, support):
    """The chains P(mu <- lam) Lap^e P(lam <- mu) built from the inside out,
    then r_mu on both sides: the order before Lap^e was composed last."""
    from hsdfactor.hsd import _step_ops, laplace_deriv_op
    from hsdfactor.weights import canonical_path, manhattan_distance

    op_between = _step_ops(ps)
    mu_s = mu.spin_shifted()
    r_mu = op_between(mu_s, mu_s)
    chains = []
    for lam in support:
        nodes = [x.spin_shifted() for x in canonical_path(lam, mu)]
        mid = laplace_deriv_op(ps.ambient.m, ps.dim(nodes[0]), p - manhattan_distance(mu, lam) - 1)
        for a, b in zip(nodes, nodes[1:]):
            mid = pairwise_compose(pairwise_compose(op_between(b, a), mid), op_between(a, b))
        chains.append(pairwise_compose(pairwise_compose(r_mu, mid), r_mu))
    return chains


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("mu,m", [((1,), 3), ((1, 0), 5), ((1, 0, 0), 7)])
def test_laplace_last_chains_equal_laplace_first_chains(mu, m, p):
    """Lap^e (x) 1 commutes with every step: each base, closed by r_mu
    (e = 0) or by Lap^e (e > 0), agrees with the oracle term by term, and
    so does `closed_chain_at` at every alpha of degree 2p."""
    from hsdfactor.hsd import _step_ops, closed_chain_at, laplace_deriv_op, theorem_chains
    from hsdfactor.opalgebra import expand_laplace_power
    from hsdfactor.polyspace import exponents
    from hsdfactor.repthy import casimir_projectors
    from hsdfactor.weights import manhattan_distance

    mu = Weight(mu)
    support = expand_laplace_power(mu, p).support()
    ps = casimir_projectors(mu, m)
    mu_s = mu.spin_shifted()
    r_mu = _step_ops(ps)(mu_s, mu_s)
    got = theorem_chains(ps, mu, p, support)
    want = lap_first_chains(ps, mu, p, support)
    for lam, (base, closers), full in zip(support, got, want):
        e = p - manhattan_distance(mu, lam) - 1
        closed = pairwise_compose(base, laplace_deriv_op(m, ps.dim(mu_s), e) if e else r_mu)
        assert closed.terms == full.terms and not closed.is_zero()
        for alpha in exponents(m, 2 * p):
            at = closed_chain_at(base, closers, alpha)
            assert (at is None) if alpha not in full.terms else at == full.terms[alpha], alpha


def test_theorem_takes_no_product_with_a_multiple_of_the_identity(monkeypatch, capsys):
    """Lap^e enters the theorem as integer shifts: once the ambient's
    projectors are built, no term of any sum of products has a scalar
    multiple of the identity as a factor."""
    from hsdfactor import cli
    from hsdfactor.linalg import DEFAULT_CELL_CAP, Mat
    from hsdfactor.repthy import casimir_projectors

    def scaled_identity(x):
        return isinstance(x, Mat) and x.nrows == x.ncols and all(list(row) == [i] for i, row in enumerate(x.num)) \
            and len({row[i] for i, row in enumerate(x.num)}) == 1

    casimir_projectors(weight(1, 0), 5, cap=DEFAULT_CELL_CAP)
    real = Mat.sum_of_products
    offending = []

    def guarded(terms):
        terms = list(terms)
        offending.extend((a, b) for a, b in terms if scaled_identity(a) or scaled_identity(b))
        return real(terms)

    monkeypatch.setattr(Mat, "sum_of_products", staticmethod(guarded))
    assert cli.run(["verify", "theorem", "--mu", "1,0", "--m", "5", "--power", "3", "--degree", "6"]) == 0
    assert '"passed": true' in capsys.readouterr().out
    assert offending == []


def _doubled_solve(rows, rhs, ncols):
    from hsdfactor.linalg import solve_sparse

    particular, free = solve_sparse(rows, rhs, ncols)
    return {j: v + v for j, v in particular.items()}, free


THEOREM_FAILURES = {
    "inconsistent": lambda rows, rhs, ncols: None,
    "underdetermined": lambda rows, rhs, ncols: ({}, [{0: (1, 0)}]),
    "non_real": lambda rows, rhs, ncols: ({0: QQi(1, 1)}, []),
    "doubled": _doubled_solve,  # a solution, but not one that factors Lap^p
}


@pytest.mark.parametrize("outcome", THEOREM_FAILURES)
def test_theorem_failure_reports(outcome, monkeypatch, capsys):
    """Each way the scalar solve can fail, and scalars that do not give the
    identity, exit 1 with the report recorded in theorem_failures.json
    (everything but wall_time_s): the certificate and support after a
    failed solve, the coefficients and scalars after a solved one."""
    import json
    from pathlib import Path

    from hsdfactor import cli, hsd

    monkeypatch.setattr(hsd, "solve_sparse", THEOREM_FAILURES[outcome])
    code = cli.run(["verify", "theorem", "--mu", "1", "--m", "3", "--power", "2", "--degree", "5"])
    report = json.loads(capsys.readouterr().out)
    report.pop("wall_time_s")
    recorded = json.loads(Path(__file__).with_name("theorem_failures.json").read_text())
    assert {"exit": code, "report": report} == recorded[outcome]


def test_polyharmonic_order_examples():
    # coefficient vectors {(alpha, j): (re, im)} and the polynomials they stand for
    m = 3
    h = SpinorPoly(m, 0, {(1, 1, 0): (QQi(1), QQi(0))})  # x1 x2, harmonic
    assert ref_polyharmonic_order(h) == polyharmonic_order({((1, 1, 0), 0): (1, 0)}) == 1
    r2 = SpinorPoly(m, 0, {(2, 0, 0): (QQi(1), QQi(0)),
                           (0, 2, 0): (QQi(1), QQi(0)),
                           (0, 0, 2): (QQi(1), QQi(0))})
    vec = {((2, 0, 0), 0): (1, 0), ((0, 2, 0), 0): (1, 0), ((0, 0, 2), 0): (1, 0)}
    assert ref_polyharmonic_order(r2) == polyharmonic_order(vec) == 2
    # x1^2 b_1 + i x2^2 b_1 + x3^2 b_1: a complex coefficient, a nonzero value index
    assert polyharmonic_order({((2, 0, 0), 1): (1, 0), ((0, 2, 0), 1): (0, 1), ((0, 0, 2), 1): (1, 0)}) == 2
    # the values b_j are independent, so x1^2 b_0 - x2^2 b_1 is not harmonic
    assert polyharmonic_order({((2, 0, 0), 0): (1, 0), ((0, 2, 0), 1): (-1, 0)}) == 2
    assert polyharmonic_order({((2, 0, 0), 0): (1, 0), ((0, 2, 0), 0): (-1, 0)}) == 1
    assert polyharmonic_order({((4, 0, 0), 0): (0, 3)}) == 3
    assert ref_polyharmonic_order(SpinorPoly(m, 0)) == polyharmonic_order({}) == 1


def test_kernel_polyharmonicity_bound_and_sharpness():
    op = explicit_hsd(weight(1), 3)
    seen_sharp = False
    for h in range(4):
        for vec in kernel_basis(op, h):
            f = as_poly(op, vec)
            order = polyharmonic_order(vec)
            assert order == ref_polyharmonic_order(f)
            assert order <= 2
            assert laplace(0, laplace(0, f)).is_zero()
            seen_sharp = seen_sharp or order == 2
    assert seen_sharp


def test_twistor_inversion_roundtrip():
    g = spinor_unit(3, 1, 0)  # constant spinor in ker_0 R_0
    f = twistor_inversion(g, 3)
    assert degree(f, 0) == 1 and degree(f, 1) == 1
    assert apply(Dirac(1), f).is_zero()
    assert (apply(Dirac(0), f) - apply(VectorMult(1), g)).is_zero()


def test_twistor_inversion_zero_and_bad_input():
    z = twistor_inversion(SpinorPoly(3, 1), 3)
    assert z.is_zero()
    bad = SpinorPoly(3, 1, {(1, 0, 0, 0, 0, 0): (QQi(1), QQi(0))})  # x1 s, not in ker R_0
    with pytest.raises(ValueError):
        twistor_inversion(bad, 3)


def test_induction_dims_small():
    for k in (0, 1, 2):
        for h in (0, 1, 2):
            rep = verify_induction_dims(k, h, 3)
            assert rep.passed, (k, h, rep.results)


def test_induction_dims_m5():
    rep = verify_induction_dims(1, 2, 5)
    assert rep.passed, rep.results


def test_double_monogenics_are_in_kernel():
    op = explicit_hsd(weight(1), 3)
    for f in double_monogenic_basis(3, 2, 1):
        assert apply_op(op, f).is_zero()


def test_factorization_numeric_base_case():
    rep = verify_factorization_numeric(weight(0), 1, 3, 2)
    assert rep.passed
    assert rep.results["solved_scalars"] == {"(0)": "-1"}


def test_factorization_numeric_rarita_schwinger():
    rep = verify_factorization_numeric(weight(1), 2, 3, 4)
    assert rep.passed
    assert rep.results["residual_empty"]


def test_factorization_numeric_preconditions():
    with pytest.raises(ValueError):
        verify_factorization_numeric(weight(1), 1, 3, 4)  # p must exceed mu_1
    with pytest.raises(ValueError):
        verify_factorization_numeric(weight(1), 2, 3, 3)  # degree too small
    from hsdfactor.linalg import ResourceCapError
    with pytest.raises(ResourceCapError):
        verify_factorization_numeric(weight(2), 3, 3, 6)  # needs mu_1 <= 1


def test_x_shift():
    b = spinor_unit(3, 1, 0)
    shifted = x_shift(b, (2, 0, 1))
    assert degree(shifted, 0) == 3 and degree(shifted, 1) == 0


@pytest.mark.parametrize("lam,m", [((1,), 3), ((2,), 3), ((1, 0), 5), ((1, 1), 5)])
def test_projector_columns_span_each_summand(lam, m):
    from hsdfactor.hsd import _summand_basis
    from hsdfactor.linalg import SpanSolver
    from hsdfactor.repthy import casimir_projectors, weyl_dim

    ps = casimir_projectors(Weight(lam), m)
    for kappa in ps.weights:
        proj = projector(ps, kappa)
        cols = _summand_basis(ps, kappa)
        assert QQi(len(cols)) == trace(proj)
        assert len(cols) == weyl_dim(kappa, m)
        # each chosen column is fixed by the projector, so it lies in the summand
        solver = SpanSolver([b.coordinates() for b in ps.ambient.basis])
        for poly in cols:
            coords = solver.coords(poly.coordinates())
            assert matvec(proj, coords) == coords


def test_matrix_on_degree_zero_is_empty():
    op = explicit_hsd(weight(1), 3)
    mat = op_matrix(op, 0)
    assert (mat.nrows, mat.ncols) == (0, len(domain_basis(op, 0)))
    ops = generic_twistor_hsd(weight(1), 3)
    t = next(o for o in ops if o.label != o.source_label)
    tmat = op_matrix(t, 0)
    assert (tmat.nrows, tmat.ncols) == (0, len(domain_basis(t, 0)))


def test_generic_operators_share_the_verifiers_projector_cache():
    """generic_twistor_hsd reuses the projector set the verifiers built."""
    from hsdfactor.repthy import casimir_projectors

    casimir_projectors.cache_clear()
    verify_identities(weight(1, 1), 5, 2)
    generic_twistor_hsd(weight(1, 1), 5)
    info = casimir_projectors.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_identities_and_theorem_share_one_cache_entry():
    """verify_identities and generic_twistor_hsd pad the weight as the theorem does:
    one ambient, one projector set."""
    from hsdfactor.repthy import casimir_projectors

    casimir_projectors.cache_clear()
    assert verify_identities(weight(1), 5, 2).passed
    assert verify_factorization_numeric(weight(1), 2, 5, 4).passed
    info = casimir_projectors.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    generic_twistor_hsd(weight(1), 5)
    assert casimir_projectors.cache_info().hits == 2


def test_step_blocks_are_built_once_per_ambient():
    """The verifiers and generic_twistor_hsd share each L . (id x Dirac) . C block of one (lambda, m)."""
    from hsdfactor.linalg import DEFAULT_CELL_CAP
    from hsdfactor.repthy import casimir_projectors

    casimir_projectors.cache_clear()
    verify_identities(weight(1), 3, 2)
    ps = casimir_projectors(weight(1), 3, cap=DEFAULT_CELL_CAP)
    blocks = dict(ps.steps)
    assert blocks
    assert verify_factorization_numeric(weight(1), 2, 3, 4).passed
    ops = generic_twistor_hsd(weight(1), 3)
    assert all(ps.steps[key] is block for key, block in blocks.items())
    assert all(op.deriv_op is ps.steps[op.label, op.source_label] for op in ops)


@pytest.mark.parametrize(
    "mu,m,p", [((1,), 3, 2), ((1,), 3, 3), ((1,), 5, 2), ((1, 0), 5, 2), ((1, 1), 5, 2)]
)
def test_solved_scalars_follow_the_conversion_rule(mu, m, p):
    """Solved scalar = symbolic coefficient * ((mu_j + rho_j) / (lam_j + rho_j))^2,
    with j the last coordinate where mu_j = 1 and rho_j = n - j + 1/2."""
    rep = verify_factorization_numeric(Weight(mu), p, m, 2 * p)
    assert rep.passed
    n = (m - 1) // 2
    mu = rep.params["mu"]
    j = max(i for i, e in enumerate(mu.entries) if e == 1)  # 0-based
    rho_j = Fraction(2 * (n - j) - 1, 2)
    for lam in rep.results["support"]:
        conversion = ((mu.entries[j] + rho_j) / (lam.entries[j] + rho_j)) ** 2
        want = rep.results["symbolic_coefficients"][str(lam)] * conversion
        assert Fraction(rep.results["solved_scalars"][str(lam)]) == want, lam
