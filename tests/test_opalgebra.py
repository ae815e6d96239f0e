import gc
import itertools

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from hsdfactor.opalgebra import (
    OperatorExpr,
    OperatorWord,
    TwistorSym,
    _path_word,
    _word_normal_form,
    certificate_reexpands,
    eliminate_laplace,
    expand_laplace_power,
    hsd_sym,
    HsdSym,
    identity_expr,
    laplace_sym,
    normal_form,
    normalization_sign,
    path_operator,
    twistor,
    vanish_outside_box,
    verify_path_independence,
)
from hsdfactor.weights import Weight, box, bruhat_leq, canonical_path, enumerate_paths, is_dominant, weight


def sw(*entries):
    return Weight(tuple(entries), spin=True)


def dominants(rank, max_entry):
    for tup in itertools.product(range(max_entry + 1), repeat=rank):
        w = Weight(tup)
        if is_dominant(w):
            yield w


# --- symbols ---------------------------------------------------------------

def test_symbol_constructors():
    t = twistor(sw(1, 0), sw(0, 0))
    assert len(t.terms) == 1
    assert twistor(sw(1, 2), sw(1, 1)).is_zero()  # non-dominant target
    assert len(hsd_sym(sw(3)).terms) == 1
    assert laplace_sym(sw(0, -1)).is_zero()
    with pytest.raises(ValueError):
        twistor(sw(2, 0), sw(0, 0))  # distance 2


def test_normalization_sign_examples():
    assert normalization_sign(weight(0, 0), 1) == 1
    assert normalization_sign(weight(1, 0), 2) == 1
    assert normalization_sign(weight(1, 1), 1) == -1
    with pytest.raises(ValueError):
        normalization_sign(weight(1, 1), 2)  # (1,2) not dominant


def test_normalized_squares_commute():
    """Oracle behind the sign rule: every elementary square commutes.

    Raw generators anticommute across a square, so the two normalized
    routes agree iff the sign products differ by exactly -1.
    """
    for mu in dominants(2, 3):
        for p, q in ((1, 2), (2, 1)):
            up_p = mu.shifted(p - 1, 1)
            up_q = mu.shifted(q - 1, 1)
            top = up_p.shifted(q - 1, 1)
            if not all(is_dominant(w) for w in (up_p, up_q, top)):
                continue
            s_via_p = normalization_sign(mu, p) * normalization_sign(up_p, q)
            s_via_q = normalization_sign(mu, q) * normalization_sign(up_q, p)
            assert s_via_p == -s_via_q
    # mixed raise/lower squares: raise a after lowering b versus the swap
    for mu in dominants(2, 3):
        for a, b in ((1, 2), (2, 1)):
            down_b = mu.shifted(b - 1, -1)
            up_a = mu.shifted(a - 1, 1)
            end = down_b.shifted(a - 1, 1)
            if not all(is_dominant(w) for w in (down_b, up_a, end)):
                continue
            s_low_first = normalization_sign(down_b, b) * normalization_sign(down_b, a)
            s_raise_first = normalization_sign(mu, a) * normalization_sign(end, b)
            assert s_low_first == -s_raise_first


# --- normal form -----------------------------------------------------------

def test_normal_form_sorts_to_canonical_path():
    e = twistor(sw(2, 1), sw(1, 1)) * twistor(sw(1, 1), sw(1, 0))
    canon = path_operator(canonical_path(weight(1, 0), weight(2, 1)))
    assert normal_form(e) == normal_form(canon)
    word, coeff = next(iter(normal_form(e).terms.items()))
    assert coeff == Fraction(1)


def test_normal_form_kills_nondominant_intermediate():
    e = twistor(sw(2, 2), sw(2, 1)) * twistor(sw(2, 1), sw(1, 1))
    assert normal_form(e).is_zero()


def test_normal_form_moves_hsd_to_source():
    e = hsd_sym(sw(1)) * twistor(sw(1), sw(0))
    nf = normal_form(e)
    assert len(nf.terms) == 1
    word, coeff = next(iter(nf.terms.items()))
    assert coeff == Fraction(-1)
    assert isinstance(word.syms[-1], HsdSym) and word.syms[-1].at == sw(0)


def test_identity_and_composition_endpoints():
    i = identity_expr(sw(1, 0))
    t = twistor(sw(1, 1), sw(1, 0))
    assert t * i == t
    with pytest.raises(ValueError):
        _ = i * t  # endpoints do not match


def test_path_operator_examples():
    p = canonical_path(weight(0, 0), weight(2, 1))
    expr = path_operator(p)
    assert len(expr.terms) == 1
    word, coeff = next(iter(expr.terms.items()))
    assert abs(coeff) == 1 and len(word.syms) == 3
    empty = path_operator(canonical_path(weight(1, 1), weight(1, 1)))
    assert empty == identity_expr(sw(1, 1))
    a, b = (path_operator(q) for q in
            __import__("hsdfactor.weights", fromlist=["enumerate_paths"]).enumerate_paths(
                weight(1, 0), weight(2, 1)).paths)
    assert normal_form(a) == normal_form(b)


def test_path_independence_reports():
    rep = verify_path_independence(weight(1, 0), weight(2, 1))
    assert rep.passed and rep.results["path_count"] == 2
    assert verify_path_independence(weight(0), weight(3)).passed
    assert verify_path_independence(weight(0, 0), weight(2, 2)).passed
    capped = verify_path_independence(weight(0, 0), weight(2, 2), cap=1)
    assert not capped.passed  # truncation is flagged as a failed check


def test_truncated_enumeration_skips_the_normal_forms():
    capped = verify_path_independence(weight(0, 0), weight(2, 2), cap=1)
    assert [c.name for c in capped.checks] == ["enumeration_complete"]
    assert capped.results["truncated"] and capped.results["normal_form"] is None


# --- box vanishing ---------------------------------------------------------

def test_vanish_outside_box_trace():
    tr = vanish_outside_box(weight(2, 2), weight(1, 1))
    assert tr.vanished
    assert tr.alternate == weight(1, 2)
    assert not is_dominant(tr.alternate)
    tr2 = vanish_outside_box(weight(3, 2), weight(1, 0))
    assert tr2.vanished
    with pytest.raises(ValueError):
        vanish_outside_box(weight(2, 2, 0), weight(2, 1, 0))  # box member


def test_box_vanishing_characterization_rank2():
    for mu in dominants(2, 3):
        inside = set(box(mu))
        for lam in dominants(2, 3):
            if not bruhat_leq(lam, mu):
                continue
            fwd = normal_form(path_operator(canonical_path(lam, mu)))
            rev = normal_form(path_operator(canonical_path(lam, mu).reversed()))
            assert fwd.is_zero() == (lam not in inside)
            assert rev.is_zero() == (lam not in inside)


# --- Laplace expansion -----------------------------------------------------

def test_expand_zero_weight():
    for rank in (1, 2, 3):
        mu = Weight((0,) * rank)
        cert = expand_laplace_power(mu, 1)
        assert cert.coefficients == {mu: Fraction(-1)}
        assert cert.residual.is_zero()
        assert certificate_reexpands(cert)


def test_expand_example_1_0_power2():
    cert = expand_laplace_power(weight(1, 0), 2)
    assert cert.coefficients == {weight(1, 0): Fraction(-1), weight(0, 0): Fraction(1)}
    assert cert.residual.is_zero()
    assert certificate_reexpands(cert)
    # middle is R-free: the sandwich structure is explicit
    for word in cert.middle.terms:
        assert not any(isinstance(s, HsdSym) for s in word.syms)


def test_expand_residual_at_low_power():
    cert = expand_laplace_power(weight(1, 0), 1)
    assert not cert.residual.is_zero()
    assert certificate_reexpands(cert)


def test_expansion_grid_soundness():
    for rank in (1, 2):
        for mu in dominants(rank, 2):
            for p in sorted({mu.entries[0] + 1, mu.entries[0] + 2, max(1, mu.entries[0])}):
                cert = expand_laplace_power(mu, p)
                assert certificate_reexpands(cert), (mu, p)
                assert set(cert.coefficients) <= set(box(mu))
                if p > mu.entries[0]:
                    assert cert.residual.is_zero()


def test_eliminate_laplace_matches_defining_relation():
    mu = sw(1, 0)
    lhs = eliminate_laplace(laplace_sym(mu))
    rhs = normal_form(
        (hsd_sym(mu) * hsd_sym(mu)).scale(-1)
        + (twistor(mu, sw(0, 0)) * twistor(sw(0, 0), mu)).scale(-1)
    )
    assert lhs == rhs


def test_certificate_serialization_roundtrip_fields():
    cert = expand_laplace_power(weight(1, 0), 2)
    data = cert.to_jsonable()
    assert data["power"] == 2
    assert {tuple(c["lambda"]["entries"]) for c in data["coefficients"]} == {(1, 0), (0, 0)}
    assert all("/" in c["value"] for c in data["coefficients"])


@st.composite
def dominant_pairs(draw):
    """Dominant nu <= mu of rank <= 3."""
    rank = draw(st.integers(1, 3))
    mu = sorted(draw(st.lists(st.integers(0, 4), min_size=rank, max_size=rank)), reverse=True)
    nu = []
    for bound in mu:
        nu.append(draw(st.integers(0, min([bound] + nu[-1:]))))
    return Weight(tuple(nu)), Weight(tuple(mu))


@settings(max_examples=100, deadline=None)
@given(dominant_pairs())
def test_path_independence_on_random_dominant_pairs(pair):
    nu, mu = pair
    rep = verify_path_independence(nu, mu)
    assert rep.passed
    assert not rep.results["truncated"]


# --- the per-call canonical-word memo ---------------------------------------

@st.composite
def composable_words(draw):
    """A composable word of rank <= 4: a random walk of twistor and HSD symbols."""
    rank = draw(st.integers(1, 4))
    cur = Weight(tuple(sorted(draw(st.lists(st.integers(0, 3), min_size=rank, max_size=rank)), reverse=True)), spin=True)
    source = cur
    app = []
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 3)) == 0:
            app.append(HsdSym(cur))
            continue
        nxt = cur.shifted(draw(st.integers(0, rank - 1)), draw(st.sampled_from((-1, 1))))
        app.append(TwistorSym(nxt, cur))
        cur = nxt
    return OperatorWord(cur, source, tuple(reversed(app)), draw(st.integers(0, 2)))


def _variants(word):
    """word, word * R(source) and word with one more Laplace factor: keys that differ in one part."""
    with_hsd = OperatorWord(word.target, word.source, word.syms + (HsdSym(word.source),), word.lap)
    return [word, with_hsd, OperatorWord(word.target, word.source, word.syms, word.lap + 1)]


@settings(max_examples=100, deadline=None)
@given(st.lists(composable_words(), min_size=1, max_size=4))
def test_shared_word_memo_matches_fresh_memos(drawn):
    word_list = [v for word in drawn for v in _variants(word)]
    shared = {}
    for word in word_list:
        expr = OperatorExpr({word: 1})
        assert normal_form(expr, words=shared) == normal_form(expr, words={}) == normal_form(expr)
    for word in word_list:
        sign, nf = _word_normal_form(word, shared)
        again = _word_normal_form(word, shared)
        assert again == (sign, nf)
        if sign:
            assert again[1] is nf
            assert nf == _word_normal_form(word, {})[1]


def test_equal_keys_share_one_canonical_word():
    # two different orderings of the same steps from (1,0)' to (2,1)'
    a, b, c, d = sw(1, 0), sw(2, 0), sw(1, 1), sw(2, 1)
    one = OperatorWord(d, a, (TwistorSym(d, b), TwistorSym(b, a)))
    two = OperatorWord(d, a, (TwistorSym(d, c), TwistorSym(c, a)))
    words = {}
    (s1, n1), (s2, n2) = _word_normal_form(one, words), _word_normal_form(two, words)
    assert s1 and s2 and n1 is n2


def test_internal_callers_pass_the_memo_by_keyword(monkeypatch):
    # the expression is normal_form's only positional argument, so a
    # wrapper taking (expr, **kwargs) serves every caller in the package
    import hsdfactor.opalgebra as opalgebra

    inner = opalgebra.normal_form
    calls = []

    def one_positional(expr, **kwargs):
        calls.append(sorted(kwargs))
        return inner(expr, **kwargs)

    monkeypatch.setattr(opalgebra, "normal_form", one_positional)
    assert certificate_reexpands(expand_laplace_power(weight(2, 1), 3))
    assert verify_path_independence(weight(0, 0), weight(2, 1)).passed
    assert calls and all(kw == ["words"] for kw in calls)


def _live_words():
    gc.collect()
    return sum(isinstance(o, OperatorWord) for o in gc.get_objects())


def test_no_word_memo_outlives_the_reexpansion():
    cert = expand_laplace_power(weight(3, 1), 4)
    before = _live_words()
    assert certificate_reexpands(cert)
    assert _live_words() == before


def _built_during_reexpansion(monkeypatch, cls, cert) -> int:
    """How many cls objects certificate_reexpands(cert) constructs."""
    built = []
    post_init = cls.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    assert certificate_reexpands(cert)
    return len(built)


def test_reexpansion_builds_each_twistor_symbol_once(monkeypatch):
    # both sides are compared as walk dicts, so no canonical word and no
    # symbol is built (about 14 k symbols when every normal form rebuilt
    # its chain, and up to 2,000 with a shared word memo)
    cert = expand_laplace_power(weight(6, 4, 2), 7)
    assert _built_during_reexpansion(monkeypatch, TwistorSym, cert) == 0


# --- the parts-based splice on integer coefficients --------------------------

def test_reexpansion_builds_no_spliced_words(monkeypatch):
    # each H * x * T is joined on walks; only canonical words,
    # identities and the assembled certificate are built (4,246 words
    # when every spliced word was built and validated)
    cert = expand_laplace_power(weight(6, 4, 2), 7)
    assert 0 < _built_during_reexpansion(monkeypatch, OperatorWord, cert) <= 1500


def test_reexpansion_memo_holds_integers():
    cert = expand_laplace_power(weight(3, 1), 4)
    mu_s = cert.mu.spin_shifted()
    memo = {}
    lhs = eliminate_laplace(laplace_sym(mu_s, cert.power), memo)
    rhs = eliminate_laplace(hsd_sym(mu_s) * cert.middle * hsd_sym(mu_s) + cert.residual, memo)
    assert lhs == rhs and not lhs.is_zero()
    assert memo and all(isinstance(entry, dict) for entry in memo.values())
    assert all(type(c) is int for entry in memo.values() for c in entry.values())
    assert all(all(isinstance(c, Fraction) for c in e.terms.values()) for e in (lhs, rhs))


def test_fractional_coefficients_reexpand_exactly():
    cert = expand_laplace_power(weight(2, 1), 3)
    mu_s = cert.mu.spin_shifted()
    third = Fraction(1, 3)
    for expr in (laplace_sym(mu_s, 3), hsd_sym(mu_s) * cert.middle * hsd_sym(mu_s) + cert.residual):
        whole = eliminate_laplace(expr)
        scaled = eliminate_laplace(expr.scale(third))
        assert not whole.is_zero()
        assert scaled == whole.scale(third)
        assert any(c.denominator == 3 for c in scaled.terms.values())


# --- the per-call edge memo of path words -----------------------------------

def _scratch_path_word(nodes):
    """_path_word without a memo: every node shifted and checked, every edge built."""
    nodes = [w if w.spin else w.spin_shifted() for w in nodes]
    if not all(map(is_dominant, nodes)):
        return 0, None
    sign, syms = 1, []
    for a, b in zip(nodes, nodes[1:]):
        sym = TwistorSym(b, a)
        idx, delta = sym.step
        sign *= normalization_sign((a if delta > 0 else b).integral_part(), idx + 1)
        syms.append(sym)
    return sign, OperatorWord(nodes[-1], nodes[0], tuple(reversed(syms)))


@pytest.mark.parametrize("mu", [weight(2, 1), weight(3, 1, 0), weight(4, 2, 1), weight(2, 2, 1, 1)])
def test_shared_edge_memo_matches_fresh_calls_on_every_path(mu):
    edges = {}
    count = 0
    for nu in dominants(mu.rank, mu.entries[0]):
        if not bruhat_leq(nu, mu):
            continue
        for path in enumerate_paths(nu, mu).paths:
            for nodes in (path.nodes, path.nodes[::-1], tuple(w.spin_shifted() for w in path.nodes)):
                got = _path_word(nodes, edges)
                assert got == _path_word(nodes, {}) == _scratch_path_word(nodes)
                assert got[0] in (1, -1)
                count += 1
    assert count > 3 * len(box(mu))


def test_non_dominant_node_gives_no_path_word():
    edges = {}
    assert _path_word((weight(2, 1), weight(2, 2)), edges)[0] == 1
    for nodes in [
        (weight(1, 2),),
        (weight(1, 1), weight(1, 2)),
        (weight(1, 2), weight(2, 2)),
        (weight(0, 0), weight(0, 1), weight(1, 1)),
        (sw(0, -1), sw(0, 0)),
    ]:
        assert _path_word(nodes, edges) == (0, None) == _scratch_path_word(nodes)


def test_verify_path_builds_one_twistor_symbol_per_edge(monkeypatch, capsys):
    # one memo serves every start weight, for path words and canonical
    # words alike: 220 distinct symbols, against 241 k built without it
    from hsdfactor import cli

    built = []
    post_init = TwistorSym.__post_init__

    def counted(self):
        post_init(self)
        built.append((self.target, self.source))

    monkeypatch.setattr(TwistorSym, "__post_init__", counted)
    assert cli.run(["verify", "path", "--mu", "6,4,2"]) == 0
    capsys.readouterr()
    assert len(built) == len(set(built)) == 220
