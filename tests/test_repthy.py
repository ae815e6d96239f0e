import itertools
import json

import pytest
from fractions import Fraction

from hsdfactor import cli, hsd, linalg, polyspace, repthy
from hsdfactor.linalg import Mat
from hsdfactor.polyspace import (
    BlockPoly,
    Dirac,
    LaplaceOp,
    MixedEuler,
    MixedLaplace,
    apply,
    exponents,
    joint_kernel,
    spinor_valued,
)
from hsdfactor.repthy import (
    casimir_eigenvalue,
    casimir_projectors,
    pad_weight,
    simplicial_harmonic_ambient,
    simplicial_monogenic_basis,
    simplicial_monogenic_dim,
    so_generators,
    weyl_dim,
)
from hsdfactor.weights import Weight, weight
from hsd_oracle import projectors
from polys import columns, poly, stack


def test_weyl_dim_frozen_values():
    assert weyl_dim(weight(0, 0, spin=True), 5) == 4
    assert weyl_dim(weight(1, 0, spin=True), 5) == 16
    assert weyl_dim(weight(2, 1, spin=True), 5) == 64
    assert weyl_dim(weight(1, spin=True), 5) == 16  # padded automatically
    assert weyl_dim(weight(0, spin=True), 3) == 2
    assert weyl_dim(weight(1), 5) == 5
    assert weyl_dim(weight(1, 1), 5) == 10
    assert weyl_dim(weight(2, 1), 5) == 35
    with pytest.raises(ValueError):
        weyl_dim(weight(1, 2), 5)


def test_casimir_eigenvalues_frozen():
    assert casimir_eigenvalue(weight(1, 0, spin=True), 5) == Fraction(15, 2)
    assert casimir_eigenvalue(weight(0, 0, spin=True), 5) == Fraction(5, 2)
    assert casimir_eigenvalue(weight(1, 1, spin=True), 5) == Fraction(21, 2)
    assert casimir_eigenvalue(weight(1, spin=True), 3) == Fraction(15, 4)


@pytest.mark.parametrize(
    "lam,m,expected",
    [((0,), 5, 4), ((1,), 5, 16), ((2,), 5, 40), ((1, 1), 5, 20), ((2, 1), 5, 64), ((1,), 3, 4)],
)
def test_simplicial_dimensions(lam, m, expected):
    space = simplicial_monogenic_basis(Weight(lam), m)
    assert space.dim == expected
    assert space.dim == weyl_dim(space.label, m)


PIVOT_SHAPES = (
    [((k,), 3) for k in range(4)]
    + [(lam, 5) for lam in [(0,), (1,), (2,), (1, 1), (2, 1)]]
    + [(lam, 7) for lam in [(0,), (1,), (2,), (1, 1), (2, 1), (1, 1, 1)]]
)


@pytest.mark.parametrize("lam,m", PIVOT_SHAPES)
def test_pivot_count_is_the_basis_length_and_the_weyl_dimension(lam, m):
    cap = 20_000_000  # (1,1,1), m = 7 is 5880x2744
    label, dim = simplicial_monogenic_dim(Weight(lam), m, cap=cap)
    space = simplicial_monogenic_basis(Weight(lam), m, cap=cap)
    assert (label, dim) == (space.label, space.dim)
    assert dim == weyl_dim(label, m)


def test_dims_builds_no_basis(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("dims built a basis")

    for module in (linalg, polyspace, hsd, repthy):
        for name in ("int_nullspace", "combination"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(polyspace.BlockPoly, "combined", refuse)
    assert cli.run(["dims", "--mu", "2,1", "--m", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["dimension"] == data["results"]["weyl"] == 64


def test_simplicial_basis_satisfies_defining_equations():
    space = simplicial_monogenic_basis(weight(1, 1), 5)
    for f in space.basis:
        assert apply(Dirac(1), f).is_zero()
        assert apply(Dirac(2), f).is_zero()
        assert apply(MixedEuler(1, 2), f).is_zero()


def test_ambient_dimension_and_projectors():
    ps = casimir_projectors(weight(1), 5)
    assert [w.entries for w in ps.weights] == [(1, 0), (0, 0)]
    assert ps.eigenvalues == [Fraction(15, 2), Fraction(5, 2)]
    projs = projectors(ps)
    assert [p.rank() for p in projs] == [16, 4]
    total = projs[0] + projs[1]
    assert total == Mat.identity(ps.ambient.dim)


def test_single_summand_projector_is_identity():
    ps = casimir_projectors(weight(0), 3)
    assert projectors(ps) == [Mat.identity(2)]


def test_three_summand_projectors():
    ps = casimir_projectors(weight(1, 1), 5)
    assert [w.entries for w in ps.weights] == [(1, 1), (1, 0), (0, 0)]
    ranks = [p.rank() for p in projectors(ps)]
    assert ranks == [weyl_dim(w, 5) for w in ps.weights]
    assert sum(ranks) == ps.ambient.dim == 40


@pytest.mark.parametrize("lam,m", [((1,), 3), ((1,), 5), ((1, 1), 5)])
def test_frames_are_eigenspaces_with_dual_rows(lam, m):
    """Cas C_kappa = c_kappa C_kappa, and L_kappa C_iota is 1 for kappa = iota, 0 otherwise."""
    ps = casimir_projectors(Weight(lam), m)
    cas = ps.casimir
    assert sum(c.ncols for c, _ in ps.frames) == ps.ambient.dim
    for (c, _), ck, kappa in zip(ps.frames, ps.eigenvalues, ps.weights):
        assert c.ncols == weyl_dim(kappa, m)
        assert cas * c == c.scale(ck)
    for i, (_, left) in enumerate(ps.frames):
        for j, (c, _) in enumerate(ps.frames):
            want = Mat.identity(c.ncols) if i == j else Mat.zero(left.nrows, c.ncols)
            assert left * c == want


def test_casimir_commutes_with_rotations():
    ps = casimir_projectors(weight(1), 5)
    gens = so_generators(ps.ambient)
    assert len(gens) == 10
    for L in gens.values():
        assert ps.casimir * L == L * ps.casimir


@pytest.mark.parametrize("lam,m", [((1,), 3), ((1, 1), 5)])
def test_generators_close_under_brackets(lam, m):
    """[L_ab, L_ac] = L_bc for every a < b < c, the convention `so_generators` states."""
    gens = so_generators(simplicial_harmonic_ambient(Weight(lam), m))
    for a in range(m):
        for b in range(a + 1, m):
            for c in range(b + 1, m):
                lab, lac = gens[a, b], gens[a, c]
                assert lab * lac - lac * lab == gens[b, c]


def test_pad_weight():
    assert pad_weight(weight(1), 2) == weight(1, 0)
    with pytest.raises(ValueError):
        pad_weight(weight(1, 0, 0), 2)


def stand_in_ambient(lam, m):
    """The ambient basis built the earlier way: scalar harmonics found among
    the monomials times the first spinor unit (a scalar stand-in), then each
    harmonic's value moved to every spinor slot in turn, scalar-major."""
    degrees = tuple(e for e in lam if e)
    k, dim = len(degrees), 2 ** ((m - 1) // 2)
    first = [int(s == 0) for s in range(dim)]
    exps = [sum(parts, ()) for parts in itertools.product(*(exponents(m, d) for d in (0,) + degrees))]
    specs = [LaplaceOp(p) for p in range(1, k + 1)]
    specs += [MixedLaplace(p, q) for p in range(1, k + 1) for q in range(p + 1, k + 1)]
    specs += [MixedEuler(p, q) for p in range(1, k + 1) for q in range(p + 1, k + 1)]
    harmonics = joint_kernel(specs, stack([poly(m, k, {e: first}) for e in exps]))
    return stack([
        BlockPoly(m, k, 1, {e: Mat._reduced(b.num[1:s + 1] + b.num[:1] + b.num[s + 1:], b.den, 1)
                            for e, b in h.blocks.items()})
        for h in columns(harmonics) for s in range(dim)
    ])


@pytest.mark.parametrize("lam,m", [
    ((0,), 3), ((1,), 3), ((2,), 3),
    ((0, 0), 5), ((1, 0), 5), ((1, 1), 5), ((2, 1), 5),
    ((1, 0, 0), 7), ((1, 1, 1), 7),
])
def test_the_ambient_is_its_scalar_harmonics_tensor_the_spinor_units(lam, m):
    """The same polynomials, in the same order, as the stand-in construction."""
    ambient = simplicial_harmonic_ambient(Weight(lam), m)
    assert all(b.nrows == 1 for b in ambient.scalars.blocks.values())
    assert ambient.basis == spinor_valued(ambient.scalars) == stand_in_ambient(lam, m)
