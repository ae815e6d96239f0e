"""HSD kernels as null spaces of integer matrices, against the polynomial route.

`kernel_basis` builds the degree-h matrix from the operator's degree-1
images, R(x^alpha (x) b_j) = sum_i alpha_i x^(alpha - e_i) (x) A_i b_j.
A reduced-row-echelon null-space basis depends only on the kernel and
the column order, and so does its primitive Gaussian-integer multiple
with a positive free entry; the vectors must equal those of the
polynomial route in `hsd_oracle`, and so must the polyharmonic orders.
"""

import pytest

from hsdfactor import cli, hsd, linalg, polyspace, repthy
from hsdfactor.hsd import (
    double_monogenic_basis,
    explicit_hsd,
    generic_twistor_hsd,
    kernel_basis,
    polyharmonic_order,
    verify_induction_dims,
)
from hsdfactor.linalg import Mat, ResourceCapError, int_nullspace
from hsdfactor.polyspace import Dirac, homogeneous_basis, stacked_rows
from hsdfactor.weights import weight
from hsd_oracle import as_columns, domain_basis, ref_polyharmonic_order, ref_rows
from polys import columns

ORACLE_CASES = [((k,), 3, 2 * (k + 1)) for k in range(5)] + [(lam, 5, 2) for lam in [(1,), (2,), (1, 0), (1, 1)]]


@pytest.mark.parametrize("lam,m,top", ORACLE_CASES)
def test_kernel_vectors_and_orders_match_the_polynomial_route(lam, m, top):
    op = explicit_hsd(weight(*lam), m)
    for h in range(top + 1):
        domain = domain_basis(op, h)
        rows = ref_rows(op, h)
        want = int_nullspace(rows, len(domain))
        # the cap sees exactly the rows the polynomial route stacks
        cells = len(rows) * len(domain)
        got = kernel_basis(op, h, cap=cells)
        assert [as_columns(op, h, vec) for vec in got] == want, h
        kernel = domain.combined(Mat._reduced(
            [{c: vec[j] for c, vec in enumerate(want) if j in vec} for j in range(len(domain))], 1, len(want)))
        ref_orders = [ref_polyharmonic_order(f) for f in columns(kernel)]
        assert [polyharmonic_order(vec) for vec in got] == ref_orders, h
        if cells:
            with pytest.raises(ResourceCapError) as exc:
                kernel_basis(op, h, cap=cells - 1)
            assert str(exc.value) == f"elimination size {len(rows)}x{len(domain)} exceeds cap {cells - 1}"


def _projector_hsd(lam, m):
    """The diagonal projector-kind operator on the summand the explicit HSD acts on."""
    label = explicit_hsd(weight(*lam), m).label
    return next(o for o in generic_twistor_hsd(weight(*lam), m) if o.label == o.source_label == label)


# (1), m = 7 stops at h = 2: h = 3 exceeds the default cap (1568x4032)
DUPLICATE_CASES = [((k,), 3, 2 * (k + 1)) for k in range(4)] + [
    ((1,), 5, 4), ((1, 1), 5, 4), ((2,), 5, 3), ((1,), 7, 2), ((0,), 7, 2),
]


@pytest.mark.parametrize("lam,m,top", DUPLICATE_CASES)
def test_explicit_and_projector_kernels_agree(lam, m, top):
    """The deliberate duplicate: same kernel dimension and maximum order in every degree.

    Order sets are not compared: they belong to a basis, and the two
    operators' echelon bases differ (first at (1), m = 3, h = 2)."""
    explicit = explicit_hsd(weight(*lam), m)
    projector = _projector_hsd(lam, m)
    assert projector.kind == "projector"
    for h in range(top + 1):
        a = kernel_basis(explicit, h)
        b = kernel_basis(projector, h)
        assert len(a) == len(b), h
        assert max(map(polyharmonic_order, a), default=0) == max(map(polyharmonic_order, b), default=0), h


def test_cap_is_checked_before_anything_is_assembled(monkeypatch):
    op = explicit_hsd(weight(1, 1), 5)
    calls = []
    real = linalg._echelon

    def counting(rows, ncols):
        calls.append(ncols)
        return real(rows, ncols)

    # the images' echelon rows come from hsd's binding, the kernel's elimination from linalg's
    monkeypatch.setattr(hsd, "_echelon", counting)
    monkeypatch.setattr(linalg, "_echelon", counting)
    with pytest.raises(ResourceCapError) as exc:
        kernel_basis(op, 5)
    assert str(exc.value) == "elimination size 5600x2520 exceeds cap 4000000"
    assert calls == []
    kernel_basis(op, 1)
    d = len(op.source_basis)
    assert calls == [5 * d, 5 * d]  # once on [A_1 | ... | A_5], once on the degree-1 kernel matrix


def test_corollary_eliminates_the_degree_one_images_once(monkeypatch, capsys):
    """The operator keeps the echelon rows of its images: a corollary run to
    degree D eliminates [A_1 | ... | A_m] once, not once per degree."""
    calls = []
    real = linalg._echelon

    def counting(rows, ncols):
        calls.append(ncols)
        return real(rows, ncols)

    monkeypatch.setattr(hsd, "_echelon", counting)  # hsd's binding: the images only
    assert cli.run(["verify", "corollary", "--mu", "1,1", "--m", "5", "--degree", "4"]) == 0
    assert '"passed": true' in capsys.readouterr().out
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (["kernel", "--mu", "1,1", "--m", "5", "--degree", "5"], "elimination size 5600x2520 exceeds cap 4000000"),
        (["verify", "corollary", "--mu", "2", "--m", "5", "--degree", "4"], "elimination size 2100x2800 exceeds cap 4000000"),
        (["dims", "--mu", "1,1,1", "--m", "7"], "elimination size 5880x2744 exceeds cap 4000000"),
    ],
)
def test_cli_kernel_cap_messages(capsys, argv, message):
    assert cli.run(argv) == 2
    assert capsys.readouterr().out.strip() == '{"error": "resource_cap", "message": "%s"}' % message


def test_projector_kernels_match_the_polynomial_route():
    """Both kinds share kernel_basis: every projector-kind operator of the
    (1) x spinors ambient, m = 3, the twistors included, against its
    polynomial route."""
    for op in generic_twistor_hsd(weight(1), 3):
        for h in range(4):
            domain = domain_basis(op, h)
            want = int_nullspace(ref_rows(op, h), len(domain))
            assert [as_columns(op, h, vec) for vec in kernel_basis(op, h)] == want, (op.label, op.source_label, h)


INDUCTION_CASES = (
    [(k, h, 3) for k in range(5) for h in range(5)]
    + [(k, h, 5) for k in range(3) for h in range(3)]
    + [(0, 1, 7), (1, 1, 7), (2, 1, 7)]
)


@pytest.mark.parametrize("k,h,m", INDUCTION_CASES)
def test_induction_counts_are_the_basis_lengths(k, h, m):
    """Each pivot count of `verify_induction_dims` is the length of the basis it stands for."""
    rep = verify_induction_dims(k, h, m)
    previous = len(kernel_basis(explicit_hsd(weight(k - 1), m), h - 1)) if k and h else 0
    assert rep.results == {
        "ker": len(kernel_basis(explicit_hsd(weight(k), m), h)),
        "double_monogenic": len(double_monogenic_basis(m, h, k)),
        "previous_kernel": previous,
    }
    assert rep.passed


def test_induction_builds_no_null_space_vector_and_no_polynomial(monkeypatch):
    # the value spaces of R_k and R_(k-1) are cached bases; build them first
    explicit_hsd(weight(3), 3)
    explicit_hsd(weight(2), 3)

    def refuse(*args, **kwargs):
        raise AssertionError("verify_induction_dims built a basis")

    for module in (linalg, polyspace, hsd, repthy):
        for name in ("int_nullspace", "combination"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(polyspace.BlockPoly, "combined", refuse)
    rep = verify_induction_dims(3, 4, 3)
    assert rep.passed and rep.results == {"ker": 40, "double_monogenic": 16, "previous_kernel": 24}


class _Priced(Exception):
    pass


@pytest.mark.parametrize("m", [3, 5, 7])
def test_induction_prices_the_double_monogenic_matrix_it_no_longer_builds(monkeypatch, m):
    """The second cap check of `verify_induction_dims`, after R_k's, has the
    shape of the direct matrix of D_x and D_u on (h, k)-homogeneous
    polynomials; it stops there."""
    priced = []

    def record(rows, cols, cap):
        priced.append((rows, cols))
        if len(priced) == 2:
            raise _Priced

    monkeypatch.setattr(hsd, "check_cells", record)
    for k in range(4):
        for h in range(4):
            domain = homogeneous_basis(m, 1, (h, k))
            priced.clear()
            with pytest.raises(_Priced):
                verify_induction_dims(k, h, m)
            assert priced[1] == (len(stacked_rows([Dirac(0), Dirac(1)], domain)[0]), len(domain)), (k, h)
