"""The fraction-free polynomial layer against the QQi code it replaced.

`RefPoly` and `ref_apply` are the earlier production `SpinorPoly` and
`apply`, kept apart from their names: coefficients are tuples of QQi,
every operator builds one intermediate polynomial per coordinate and
re-adds them with `+`.  The integer `apply` must give the same values on
random Gaussian-rational polynomials for every spec kind.  `SpinorMat`,
a constant matrix on the spinor factor, is a spec only the oracle
applies: it lets the tests write a spin term (as in the so(m) generators)
as a spec.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from hsdfactor.clifford import gamma_rep
from hsdfactor.gaussian import QQi, QQI_ZERO
from hsdfactor.linalg import Mat
from hsd_oracle import matvec
from hsdfactor.polyspace import (
    Compose,
    CoordOp,
    Dirac,
    IDENTITY,
    LaplaceOp,
    MixedEuler,
    MixedLaplace,
    ScalarMix,
    SpinorPoly,
    BlockPoly,
    VectorMult,
    _add_terms,
    apply,
    combination,
)

examples = settings(max_examples=80, deadline=None)


# --- oracle ----------------------------------------------------------------

@dataclass(frozen=True)
class SpinorMat:
    """Constant matrix acting on the spinor factor alone (oracle only)."""

    mat: Mat


class RefPoly:
    """terms: exponent tuple -> spinor coefficient vector (tuple of QQi)."""

    def __init__(self, m, k, terms=None):
        self.m = m
        self.k = k
        self.terms = {}
        for exp, vec in (terms or {}).items():
            vec = tuple(QQi.coerce(c) for c in vec)
            if any(vec):
                self.terms[tuple(exp)] = vec

    def __add__(self, other):
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
        return RefPoly(self.m, self.k, terms)

    def scale(self, c):
        c = QQi.coerce(c)
        return RefPoly(self.m, self.k, {e: tuple(c * x for x in v) for e, v in self.terms.items()})


def _deriv(f, coord):
    terms = {}
    for exp, vec in f.terms.items():
        e = exp[coord]
        if e:
            new = list(exp)
            new[coord] = e - 1
            terms[tuple(new)] = tuple(QQi(e) * c for c in vec)
    return RefPoly(f.m, f.k, terms)


def _coord_mult(f, coord):
    terms = {}
    for exp, vec in f.terms.items():
        new = list(exp)
        new[coord] += 1
        terms[tuple(new)] = vec
    return RefPoly(f.m, f.k, terms)


def _gamma_apply(f, i):
    g = gamma_rep(f.m)[i]
    return RefPoly(f.m, f.k, {exp: tuple(matvec(g, list(vec))) for exp, vec in f.terms.items()})


def ref_apply(spec, f):
    m = f.m
    out = RefPoly(m, f.k)
    if isinstance(spec, Dirac):
        for i in range(m):
            out = out + _gamma_apply(_deriv(f, spec.var * m + i), i)
        return out
    if isinstance(spec, VectorMult):
        for i in range(m):
            out = out + _gamma_apply(_coord_mult(f, spec.var * m + i), i)
        return out
    if isinstance(spec, MixedEuler):
        for i in range(m):
            out = out + _coord_mult(_deriv(f, spec.q * m + i), spec.p * m + i)
        return out
    if isinstance(spec, LaplaceOp):
        for i in range(m):
            out = out + _deriv(_deriv(f, spec.var * m + i), spec.var * m + i)
        return out
    if isinstance(spec, MixedLaplace):
        for i in range(m):
            out = out + _deriv(_deriv(f, spec.q * m + i), spec.p * m + i)
        return out
    if isinstance(spec, CoordOp):
        return _coord_mult(_deriv(f, spec.deriv), spec.mult)
    if isinstance(spec, SpinorMat):
        terms = {}
        for exp, vec in f.terms.items():
            terms[exp] = tuple(
                sum((row[j] * vec[j] for j in range(len(vec)) if vec[j]), QQI_ZERO) for row in spec.mat.rows
            )
        return RefPoly(m, f.k, terms)
    if isinstance(spec, Compose):
        out = f
        for part in reversed(spec.specs):
            out = ref_apply(part, out)
        return out
    if isinstance(spec, ScalarMix):
        for coeff, part in spec.parts:
            image = ref_apply(part, f)
            out = out + (image if coeff == 1 else image.scale(coeff))
        return out
    raise TypeError(spec)


def to_ref(f: SpinorPoly) -> RefPoly:
    dim = f.spinor_dim
    terms = {}
    for (exp, s), c in f.coordinates().items():
        terms.setdefault(exp, [QQI_ZERO] * dim)[s] = c
    return RefPoly(f.m, f.k, terms)


# --- strategies --------------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 7))
scalars = st.one_of(
    st.just(QQI_ZERO),
    st.builds(QQi, rationals, st.just(Fraction(0))),
    st.builds(QQi, rationals, rationals),
)
spaces = st.tuples(st.sampled_from([3, 5]), st.integers(0, 2))


@st.composite
def polys(draw, m, k):
    dim = 2 ** ((m - 1) // 2)
    width = (k + 1) * m
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * width),
        st.tuples(*[scalars] * dim),
        max_size=4,
    ))
    return SpinorPoly(m, k, terms)


def leaf_specs(m, k):
    var = st.integers(0, k)
    coord = st.integers(0, (k + 1) * m - 1)
    return st.one_of(
        st.builds(Dirac, var),
        st.builds(VectorMult, var),
        st.builds(MixedEuler, var, var),
        st.builds(LaplaceOp, var),
        st.builds(MixedLaplace, var, var),
        st.builds(CoordOp, coord, coord),
    )


def specs(m, k):
    leaf = leaf_specs(m, k)
    weights = st.one_of(rationals, st.integers(-3, 3).map(Fraction))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3).map(lambda parts: Compose(tuple(parts))),
            st.lists(st.tuples(weights, inner), min_size=1, max_size=3).map(
                lambda parts: ScalarMix(tuple(parts))
            ),
        ),
        max_leaves=4,
    )


@st.composite
def spec_and_poly(draw):
    m, k = draw(spaces)
    return draw(specs(m, k)), draw(polys(m, k))


def assert_canonical(f: SpinorPoly):
    assert f.den > 0
    g = f.den
    for vec in f.num.values():
        assert any(re or im for re, im in vec)
        assert len(vec) == f.spinor_dim
        for re, im in vec:
            g = gcd(g, re, im)
    assert g == 1
    if f.is_zero():
        assert f.den == 1


# --- tests -------------------------------------------------------------------

@examples
@given(spec_and_poly())
def test_apply_matches_qqi_oracle(case):
    spec, f = case
    got = apply(spec, f)
    want = ref_apply(spec, to_ref(f))
    assert to_ref(got).terms == want.terms
    assert got == SpinorPoly(f.m, f.k, want.terms)
    assert_canonical(got)


@examples
@given(st.data())
def test_every_leaf_kind_matches_oracle(data):
    # the recursive strategy can favour composites; pin each leaf kind too
    m, k = data.draw(spaces)
    f = data.draw(polys(m, k))
    for spec in (Dirac(k), VectorMult(0), MixedEuler(k, k), MixedEuler(0, k), LaplaceOp(0), MixedLaplace(k, 0),
                 CoordOp(0, (k + 1) * m - 1), IDENTITY):
        assert to_ref(apply(spec, f)).terms == ref_apply(spec, to_ref(f)).terms


@examples
@given(st.data())
def test_one_pass_over_matrices_with_different_denominators(data):
    # gamma generators share one denominator; the per-exponent sums must
    # also bring spinor matrices with different denominators over their lcm
    m, k = data.draw(spaces)
    f = data.draw(polys(m, k))
    dim = f.spinor_dim
    a, b = (data.draw(st.tuples(*[st.tuples(*[scalars] * dim)] * dim)) for _ in range(2))
    weight = data.draw(scalars)
    blocks, groups = BlockPoly.of([f]), {}
    _add_terms(groups, blocks, [((), None, Mat(a)), ((0,), 1, Mat(b))], weight)
    (got,) = blocks.summed(groups).columns()
    rf = to_ref(f)
    want = (ref_apply(SpinorMat(Mat(a)), rf) + ref_apply(SpinorMat(Mat(b)), _coord_mult(_deriv(rf, 0), 1))).scale(weight)
    assert to_ref(got).terms == want.terms
    assert_canonical(got)


@examples
@given(st.data())
def test_sums_scales_and_combination_match_oracle(data):
    m, k = data.draw(spaces)
    f, g = data.draw(polys(m, k)), data.draw(polys(m, k))
    a, b = data.draw(scalars), data.draw(scalars)
    rf, rg = to_ref(f), to_ref(g)
    assert to_ref(f + g).terms == (rf + rg).terms
    assert to_ref(f - g).terms == (rf + rg.scale(-1)).terms
    assert to_ref(-f).terms == rf.scale(-1).terms
    assert to_ref(f.scale(a)).terms == rf.scale(a).terms
    combo = combination([f, g], [a, b])
    assert to_ref(combo).terms == (rf.scale(a) + rg.scale(b)).terms
    assert combination([f, g], {1: b}) == g.scale(b)
    for h in (f + g, f - g, -f, f.scale(a), combo):
        assert_canonical(h)


@examples
@given(st.data())
def test_canonical_form(data):
    m, k = data.draw(spaces)
    f = data.draw(polys(m, k))
    c = data.draw(scalars.filter(bool))
    assert_canonical(f)
    assert f.scale(c).scale(QQi(1) / c) == f
    zero = f - f
    assert zero.is_zero() and zero.den == 1 and zero == SpinorPoly(m, k)
    assert f.scale(0).den == 1
    assert SpinorPoly(m, k).den == 1
    # explicit zero vectors are dropped at construction
    assert SpinorPoly(m, k, {(0,) * ((k + 1) * m): (QQI_ZERO,) * f.spinor_dim}).is_zero()
