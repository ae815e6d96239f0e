"""The closed-form certificate, the memoized Laplace re-expansion and the
linear-time death test against the tree walkers and the count-grid test
they replaced.

The oracles below are the earlier production code, kept verbatim apart
from their names: `grid_word_normal_form` visits every count vector of
the step grid, `tree_eliminate_laplace` rewrites one Laplace factor per
step until no word carries one, `tree_expand_laplace_power` walks
every chain of lowerings that the Laplace power unfolds into, and
`product_path_operator` multiplies one `product_twistor` expression per
edge.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hsdfactor.opalgebra import (
    ZERO,
    FactorizationCertificate,
    HsdSym,
    OperatorExpr,
    OperatorWord,
    TwistorSym,
    WorkBudget,
    _accumulate,
    _bottom_position,
    _canonical_word,
    _eliminated_power,
    _lowerings,
    _twistor_splice,
    _word_normal_form,
    certificate_reexpands,
    eliminate_laplace,
    expand_laplace_power,
    hsd_sym,
    laplace_sym,
    normal_form,
    normalization_sign,
    path_operator,
)
from hsdfactor.linalg import ResourceCapError
from hsdfactor.weights import (
    Weight,
    box,
    canonical_path,
    enumerate_paths,
    is_dominant,
    manhattan_distance,
    path_changes,
    weight,
)


# --- oracles ---------------------------------------------------------------

def _dominant_entries(entries) -> bool:
    return all(entries[i] >= entries[i + 1] for i in range(len(entries) - 1)) and entries[-1] >= 0


def product_twistor(target: Weight, source: Weight) -> OperatorExpr:
    if not (is_dominant(target) and is_dominant(source)):
        return ZERO
    sym = TwistorSym(target, source)
    idx, delta = sym.step
    lower = source if delta > 0 else target
    sign = normalization_sign(lower.integral_part(), idx + 1)
    return OperatorExpr({OperatorWord(target, source, (sym,)): Fraction(sign)})


def product_path_operator(path) -> OperatorExpr:
    nodes = [w if w.spin else w.spin_shifted() for w in path]
    expr = laplace_sym(nodes[0], 0)
    for a, b in zip(nodes, nodes[1:]):
        expr = product_twistor(b, a) * expr
    return expr


def grid_word_normal_form(word: OperatorWord):
    sign = 1
    n_hsd = 0
    trailing_twistors = 0
    for sym in reversed(word.syms):
        if isinstance(sym, TwistorSym):
            trailing_twistors += 1
        else:
            n_hsd += 1
            if trailing_twistors % 2:
                sign = -sign
    app_steps = [sym.step for sym in reversed(word.syms) if isinstance(sym, TwistorSym)]
    src = word.source.entries

    per_coord: dict[int, list[int]] = {}
    for idx, delta in app_steps:
        per_coord.setdefault(idx, []).append(delta)
    coords = sorted(per_coord)
    prefixes = {}
    for c in coords:
        acc = [0]
        for d in per_coord[c]:
            acc.append(acc[-1] + d)
        prefixes[c] = acc

    # enumerate the full count grid (product of per-coordinate ranges)
    def grid_points():
        if not coords:
            yield ()
            return
        ranges = [range(len(per_coord[c]) + 1) for c in coords]

        def rec(i, acc):
            if i == len(coords):
                yield tuple(acc)
                return
            for k in ranges[i]:
                yield from rec(i + 1, acc + [k])

        yield from rec(0, [])

    for counts in grid_points():
        entries = list(src)
        for c, k in zip(coords, counts):
            entries[c] += prefixes[c][k]
        if not _dominant_entries(entries):
            return 0, None

    inversions = 0
    for i in range(len(app_steps)):
        for j in range(i + 1, len(app_steps)):
            if app_steps[i][0] > app_steps[j][0]:
                inversions += 1
    if inversions % 2:
        sign = -sign

    sorted_steps = [(c, d) for c in coords for d in per_coord[c]]
    spin = word.source.spin
    nodes = [Weight(tuple(src), spin)]
    cur = list(src)
    for idx, delta in sorted_steps:
        cur[idx] += delta
        nodes.append(Weight(tuple(cur), spin))
    chain = tuple(
        TwistorSym(nodes[t + 1], nodes[t]) for t in reversed(range(len(sorted_steps)))
    )
    syms = chain + (HsdSym(word.source),) * n_hsd
    return sign, OperatorWord(word.target, word.source, syms, word.lap)


def grid_normal_form(expr: OperatorExpr) -> OperatorExpr:
    terms = {}
    for word, coeff in expr.terms.items():
        sign, nf = grid_word_normal_form(word)
        if not sign:
            continue
        acc = terms.get(nf, Fraction(0)) + sign * coeff
        if acc:
            terms[nf] = acc
        elif nf in terms:
            del terms[nf]
    return OperatorExpr(terms, expr.target, expr.source)


def tree_eliminate_laplace(expr: OperatorExpr) -> OperatorExpr:
    pending = list(expr.terms.items())
    done: dict[OperatorWord, Fraction] = {}
    while pending:
        word, coeff = pending.pop()
        if word.lap == 0:
            acc = done.get(word, Fraction(0)) + coeff
            if acc:
                done[word] = acc
            elif word in done:
                del done[word]
            continue
        j, w = _bottom_position(word)
        head, tail = word.syms[:j], word.syms[j:]
        r = HsdSym(w)
        pending.append(
            (OperatorWord(word.target, word.source, head + (r, r) + tail, word.lap - 1), -coeff)
        )
        for i in range(w.rank):
            lower = w.shifted(i, -1)
            if not is_dominant(lower):
                continue
            t_up = TwistorSym(w, lower)
            t_dn = TwistorSym(lower, w)
            pending.append(
                (OperatorWord(word.target, word.source, head + (t_up, t_dn) + tail, word.lap - 1), -coeff)
            )
    return grid_normal_form(OperatorExpr(done, expr.target, expr.source))


def tree_expand_laplace_power(mu: Weight, p: int, budget: WorkBudget | None = None) -> FactorizationCertificate:
    """Expand Lap(mu)^p through the HSD sandwich.

    Repeatedly splits one Laplace factor at the innermost weight into
    -R^2 - sum TT, closes the R^2 branches by moving both factors out
    through the accumulated twistor chains (one sign per step), and
    recurses on the TT branches.  Branches whose chains die by the
    non-dominant-intermediate rule contribute nothing, which is what
    confines the support to the box.  Each popped state spends budget.
    """
    if mu.spin:
        raise ValueError("expand_laplace_power takes an integral weight")
    if not is_dominant(mu):
        raise ValueError(f"{mu} is not dominant")
    if p < 1:
        raise ValueError("power must be >= 1")
    mu_s = mu.spin_shifted()
    budget = WorkBudget() if budget is None else budget

    coefficients: dict[Weight, Fraction] = {}
    cache: dict[Weight, tuple] = {}
    residual = ZERO
    # term: (coeff, up-chain syms lam->mu, lam, remaining power, down-chain syms mu->lam)
    stack = [(Fraction(1), (), mu, p, ())]
    while stack:
        coeff, up, lam, e, down = stack.pop()
        budget.spend()
        lam_s = lam.spin_shifted()
        sigma = (_word_normal_form(OperatorWord(mu_s, lam_s, up))[0]
                 * _word_normal_form(OperatorWord(lam_s, mu_s, down))[0])
        if sigma == 0:
            continue  # dead chain; extending it can never revive it
        if e == 0:
            word = OperatorWord(mu_s, mu_s, up + down, 0)
            residual = residual + OperatorExpr({word: coeff})
            continue
        # R^2 branch: -R(lam) Lap^(e-1) R(lam), both R factors moved out to mu
        closed = -coeff * (-1) ** (len(up) + len(down))
        if lam not in cache:
            cpath = canonical_path(lam, mu)
            fwd = path_operator(cpath)
            rev = path_operator(cpath[::-1])
            # the reverse-path word is generally not in normal form; its
            # normal-form sign enters the change of basis to path operators
            rev_word = next(iter(rev.terms))
            rev_sigma, _ = _word_normal_form(rev_word)
            cache[lam] = (fwd, rev, rev_sigma)
        fwd, rev, rev_sigma = cache[lam]
        contrib = closed * sigma * rev_sigma * _single_coeff(fwd) * _single_coeff(rev)
        _accumulate(coefficients, lam, contrib)
        # TT branches: descend one coordinate
        for _, lower in reversed(list(_lowerings(lam))):
            low_s = lower.spin_shifted()
            t_down = TwistorSym(low_s, lam_s)
            t_up = TwistorSym(lam_s, low_s)
            stack.append((-coeff, up + (t_up,), lower, e - 1, (t_down,) + down))

    middle = ZERO
    for lam, c in coefficients.items():
        fwd, rev, _ = cache[lam]
        e = p - manhattan_distance(mu, lam) - 1
        middle = middle + (fwd * laplace_sym(lam.spin_shifted(), e) * rev).scale(c)
    residual = normal_form(residual)

    if p > mu.entries[0]:
        if not residual.is_zero():
            raise AssertionError("residual failed to vanish for p > mu_1")
        inside = set(box(mu))
        stray = [lam for lam in coefficients if lam not in inside]
        if stray:
            raise AssertionError(f"coefficients outside the box: {stray}")
    return FactorizationCertificate(mu, p, coefficients, middle, residual)


def _single_coeff(expr: OperatorExpr) -> Fraction:
    if len(expr.terms) != 1:
        raise AssertionError("expected a single-word expression")
    return next(iter(expr.terms.values()))


# --- the acceptance grid: rank <= 3, mu_1 <= 3, p <= mu_1 + 2 ---------------

def grid_cases():
    for rank in (1, 2, 3):
        for tup in itertools.product(range(4), repeat=rank):
            mu = Weight(tup)
            if is_dominant(mu):
                for p in range(1, mu.entries[0] + 3):
                    yield mu, p


def sides(cert):
    mu_s = cert.mu.spin_shifted()
    return (
        laplace_sym(mu_s, cert.power),
        hsd_sym(mu_s) * cert.middle * hsd_sym(mu_s) + cert.residual,
    )


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_eliminate_laplace_matches_tree_walker(rank):
    count = 0
    for mu, p in grid_cases():
        if mu.rank != rank:
            continue
        for expr in sides(expand_laplace_power(mu, p)):
            assert str(eliminate_laplace(expr)) == str(tree_eliminate_laplace(expr)), (mu, p)
            count += 1
    assert count == {1: 28, 2: 80, 3: 170}[rank]  # 278 expressions in all


def test_shared_memo_gives_the_same_sides():
    cert = expand_laplace_power(weight(3, 1, 0), 4)
    lhs, rhs = sides(cert)
    memo = {}
    assert eliminate_laplace(lhs, memo) == eliminate_laplace(lhs)
    filled = len(memo)
    assert eliminate_laplace(rhs, memo) == eliminate_laplace(rhs) == eliminate_laplace(lhs)
    assert len(memo) == filled  # the right side reuses the left side's entries


def test_normal_form_matches_grid_on_certificate_words():
    for mu, p in grid_cases():
        if mu.rank == 3 and p > 3:
            continue
        cert = expand_laplace_power(mu, p)
        for expr in (cert.middle, cert.residual):
            for word in expr.terms:
                assert _word_normal_form(word) == grid_word_normal_form(word), (mu, p, str(word))


# --- the closed-form certificate against the tree walker ------------------

def certificate_grid(rank):
    """Dominant mu of one rank with mu_1 <= 4 and |mu| <= 9, every p <= mu_1 + 2."""
    for tup in itertools.product(range(5), repeat=rank):
        mu = Weight(tup)
        if is_dominant(mu) and sum(tup) <= 9:
            for p in range(1, mu.entries[0] + 3):
                yield mu, p


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_closed_form_matches_tree_walker_on_grid(rank):
    count = 0
    for mu, p in certificate_grid(rank):
        assert expand_laplace_power(mu, p).to_jsonable() == tree_expand_laplace_power(mu, p).to_jsonable(), (mu, p)
        count += 1
    assert count == {1: 20, 2: 70, 3: 151, 4: 224}[rank]  # 465 certificates in all


def test_closed_form_enumerates_only_weights_within_p_steps():
    budget = WorkBudget()
    cert = expand_laplace_power(weight(200, 100, 50), 1, budget)
    assert budget.spent == 4  # mu itself and its three lowerings, not the box
    assert [lam.entries for lam in cert.support()] == [(200, 100, 50)]
    assert len(cert.residual.terms) == 3


# --- path and certificate words against products of one-symbol expressions -

CERTS = [(weight(2, 1), 3), (weight(3, 1, 0), 4), (weight(2, 1), 2), (weight(1, 1, 1), 1)]


@pytest.mark.parametrize("mu", [weight(2, 1), weight(3, 2, 1), weight(3, 1, 1), weight(2, 2, 1, 1)])
def test_path_operator_matches_product_of_twistors(mu):
    """Every path from every dominant nu below mu, both directions."""
    count = 0
    for entries in itertools.product(*(range(m + 1) for m in mu.entries)):
        nu = Weight(entries)
        if is_dominant(nu):
            for path in enumerate_paths(nu, mu).paths:
                for walk in (path, path[::-1]):
                    assert path_operator(walk) == product_path_operator(walk), (nu, mu, path_changes(walk))
                    count += 1
    assert count == {(2, 1): 14, (3, 2, 1): 136, (3, 1, 1): 50, (2, 2, 1, 1): 80}[mu.entries]


def test_twistor_matches_the_product_oracle_on_single_steps():
    ws = [Weight(e, spin=True) for e in itertools.product(range(-1, 3), repeat=2)]
    pairs = [(t, s) for t in ws for s in ws if manhattan_distance(t, s) == 1]
    steps = [(path_operator((s, t)), product_twistor(t, s)) for t, s in pairs]
    assert all(step == oracle for step, oracle in steps)
    assert any(step.is_zero() for step, _ in steps) and any(not step.is_zero() for step, _ in steps)


@pytest.mark.parametrize("mu,p", CERTS)
def test_middle_matches_product_of_path_operators(mu, p):
    cert = expand_laplace_power(mu, p)
    middle = ZERO
    for lam, c in cert.coefficients.items():
        cpath = canonical_path(lam, mu)
        lap = laplace_sym(lam.spin_shifted(), p - manhattan_distance(mu, lam) - 1)
        middle = middle + (product_path_operator(cpath) * lap * product_path_operator(cpath[::-1])).scale(c)
    assert cert.middle == middle


# --- random words ----------------------------------------------------------

examples = settings(max_examples=150, deadline=None)


@st.composite
def certificate_cases(draw):
    """Dominant mu of rank <= 5 and p <= mu_1 + 2, kept where the walker is cheap."""
    rank = draw(st.integers(1, 5))
    mu = Weight(tuple(sorted(draw(st.lists(st.integers(0, 6), min_size=rank, max_size=rank)), reverse=True)))
    cheap = max(q for q in range(1, 13) if (rank + 1) ** q <= 5000)
    return mu, draw(st.integers(1, min(mu.entries[0] + 2, cheap)))


@settings(max_examples=100, deadline=None)
@given(certificate_cases())
def test_closed_form_matches_tree_walker_on_random_weights(case):
    mu, p = case
    assert expand_laplace_power(mu, p).to_jsonable() == tree_expand_laplace_power(mu, p).to_jsonable()


def _walk(draw, start, length):
    """Application-ordered symbols of a random walk from start (half-integral)."""
    cur = start
    app = []
    for _ in range(length):
        if draw(st.integers(0, 3)) == 0:
            app.append(HsdSym(cur))
            continue
        i = draw(st.integers(0, cur.rank - 1))
        nxt = cur.shifted(i, draw(st.sampled_from((-1, 1))))
        app.append(TwistorSym(nxt, cur))
        cur = nxt
    return app, cur


def _word(source, app):
    target = app[-1].target if app else source
    return OperatorWord(target, source, tuple(reversed(app)))


@st.composite
def words(draw):
    rank = draw(st.integers(1, 4))
    entries = draw(st.lists(st.integers(0, 4), min_size=rank, max_size=rank))
    start = Weight(tuple(sorted(entries, reverse=True)), spin=True)
    app, _ = _walk(draw, start, draw(st.integers(0, 12)))
    return _word(start, app)


@st.composite
def spliced(draw):
    """(H, X, T): T from s to w, a closed word X at w, H from w onward."""
    rank = draw(st.integers(1, 3))
    start = Weight(tuple(draw(st.lists(st.integers(0, 4), min_size=rank, max_size=rank))), spin=True)
    t_app, w = _walk(draw, start, draw(st.integers(0, 5)))
    out, _ = _walk(draw, w, draw(st.integers(0, 4)))
    steps = [s for s in out if isinstance(s, TwistorSym)]
    back = draw(st.permutations([s.step for s in steps]))
    x_app = list(out)
    cur = steps[-1].target if steps else w
    for i, delta in back:
        nxt = cur.shifted(i, -delta)
        x_app.append(TwistorSym(nxt, cur))
        if draw(st.booleans()):
            x_app.append(HsdSym(nxt))
        cur = nxt
    assert cur == w
    h_app, _ = _walk(draw, w, draw(st.integers(0, 5)))
    return _word(w, h_app), _word(w, x_app), _word(start, t_app)


@examples
@given(words())
def test_linear_death_test_matches_grid(word):
    assert _word_normal_form(word) == grid_word_normal_form(word)


def with_lap(word: OperatorWord, lap: int) -> OperatorWord:
    """word with its Laplace power set to lap."""
    return OperatorWord(word.target, word.source, word.syms, lap)


@examples
@given(words(), st.integers(0, 3), st.integers(-3, 3).filter(bool))
def test_normal_form_is_idempotent(word, lap, coeff):
    once = normal_form(OperatorExpr({with_lap(word, lap): coeff}))
    assert normal_form(once) == once
    assert all(_word_normal_form(w) == (1, w) for w in once.terms)


def _joined(h, x, t):
    return OperatorWord(h.target, t.source, h.syms + x.syms + t.syms)


@examples
@given(spliced())
def test_splice_lemma(parts):
    h, x, t = parts
    sign_x, nf_x = _word_normal_form(x)
    whole = _word_normal_form(_joined(h, x, t))
    if not sign_x:
        assert whole == (0, None)
        return
    sign, nf = _word_normal_form(_joined(h, nf_x, t))
    assert whole == ((sign_x * sign, nf) if sign else (0, None))


# --- the walk join of H * x * T ---------------------------------------------

def check_walk_join(word: OperatorWord, k: int) -> set:
    """eliminate_laplace on word * Lap^k, with E(w, k) set to one walk x at a
    time, against _word_normal_form of the chain H x T; returns which of
    "dead" and "alive" the joined words were."""
    j, w = _bottom_position(word)
    seen = set()
    for x in _eliminated_power(w, k, {}, WorkBudget()):
        expr = OperatorExpr({with_lap(word, k): 1})
        joined = eliminate_laplace(expr, {(w, k): {x: 1}})
        chain = word.syms[:j] + _canonical_word(w, x, 0).syms + word.syms[j:]
        sign, nf = _word_normal_form(OperatorWord(word.target, word.source, chain))
        assert joined == (OperatorExpr({nf: sign}) if sign else ZERO), (str(word), x)
        seen.add("alive" if sign else "dead")
    return seen


@examples
@given(words(), st.integers(1, 3))
def test_walk_join_matches_whole_chain_normal_form(word, k):
    check_walk_join(word, k)


def test_walk_join_kills_words_that_only_the_join_makes_dead():
    # H * T = T((1,1)' <- (1,0)') T((1,0)' <- (1,1)') lives, with bottom (1,0)';
    # an x lowering coordinate 1 there meets coordinate 2 at 1 and dies
    a, b = weight(1, 1, spin=True), weight(1, 0, spin=True)
    word = OperatorWord(a, a, (TwistorSym(a, b), TwistorSym(b, a)))
    assert _word_normal_form(word)[0]
    assert check_walk_join(word, 1) == {"dead", "alive"}


# --- the one-coordinate splices of the memo ----------------------------------

def walk_of(v: Weight, syms: tuple):
    """The memo walk of a closed word at v, read off its symbols in application order."""
    seqs = [[] for _ in v.entries]
    cur, lo, hi = list(v.entries), list(v.entries), list(v.entries)
    n_hsd = 0
    for sym in reversed(syms):
        if isinstance(sym, HsdSym):
            n_hsd += 1
            continue
        i, delta = sym.step
        seqs[i].append(delta)
        cur[i] += delta
        lo[i], hi[i] = min(lo[i], cur[i]), max(hi[i], cur[i])
    assert tuple(cur) == v.entries
    return tuple(map(tuple, seqs)), n_hsd, tuple(lo), tuple(hi)


@st.composite
def memo_weights(draw):
    """A dominant half-integral v of rank 1-4 and a power k >= 1.

    Every splice is checked against _word_normal_form on the whole word
    it stands for: the sign (+1, or the word dies) and the canonical word.
    """
    rank = draw(st.integers(1, 4))
    v = Weight(tuple(sorted(draw(st.lists(st.integers(0, 4), min_size=rank, max_size=rank)), reverse=True)), spin=True)
    return v, draw(st.integers(1, 4))


@settings(max_examples=80, deadline=None)
@given(memo_weights())
def test_one_coordinate_splice_matches_whole_word_normal_form(case):
    v, k = case
    memo = {}
    _eliminated_power(v, k, memo, WorkBudget())
    r = HsdSym(v)
    for x in memo[v, k - 1]:
        chain = _canonical_word(v, x, 0).syms
        assert walk_of(v, chain) == x
        sign, nf = _word_normal_form(OperatorWord(v, v, (r, r) + chain))
        assert sign == 1 and walk_of(v, nf.syms) == (x[0], x[1] + 2, x[2], x[3])
    for i, low in _lowerings(v):
        up, down = TwistorSym(v, low), TwistorSym(low, v)
        for x in memo[low, k - 1]:
            chain = _canonical_word(low, x, 0).syms
            assert walk_of(low, chain) == x
            sign, nf = _word_normal_form(OperatorWord(v, v, (up,) + chain + (down,)))
            walk = _twistor_splice(x, i, v.entries[i])
            if walk is None:
                assert (sign, nf) == (0, None)
            else:
                assert sign == 1 and walk == walk_of(v, nf.syms)
                assert _canonical_word(v, walk, 0) == nf


# --- tampered certificates -------------------------------------------------


def with_parts(cert, middle=None, residual=None) -> FactorizationCertificate:
    """cert with its middle or its residual replaced."""
    return FactorizationCertificate(
        cert.mu,
        cert.power,
        cert.coefficients,
        cert.middle if middle is None else middle,
        cert.residual if residual is None else residual,
    )


def _first_term(expr):
    return min(expr.terms, key=lambda w: w.sort_key())


def test_lowerings_match_shift_and_check():
    """_lowerings shifts coordinate i only when w_i > w_{i+1} (w_{n+1} = 0); the
    earlier route shifted every coordinate and kept the dominant results."""
    for rank in range(1, 5):
        for entries in itertools.product(range(-1, 4), repeat=rank):
            for spin in (False, True):
                w = Weight(entries, spin)
                shifted = [(i, w.shifted(i, -1)) for i in range(rank)]
                assert list(_lowerings(w)) == [(i, low) for i, low in shifted if is_dominant(low)], w


@pytest.mark.parametrize("mu,p", CERTS)
def test_tampered_certificates_do_not_reexpand(mu, p):
    cert = expand_laplace_power(mu, p)
    assert certificate_reexpands(cert)
    mu_s = mu.spin_shifted()
    if not cert.middle.is_zero():
        word = _first_term(cert.middle)
        bumped = dict(cert.middle.terms)
        bumped[word] += 1
        assert not certificate_reexpands(with_parts(cert, middle=OperatorExpr(bumped)))
        dropped = {w: c for w, c in cert.middle.terms.items() if w != word}
        assert not certificate_reexpands(with_parts(cert, middle=OperatorExpr(dropped, mu_s, mu_s)))
    extra = cert.residual + hsd_sym(mu_s) * hsd_sym(mu_s)
    assert not certificate_reexpands(with_parts(cert, residual=extra))


@st.composite
def tampered_certificates(draw):
    """A certificate of certificate_cases(), as built or with its middle or residual changed."""
    mu, p = draw(certificate_cases())
    cert = expand_laplace_power(mu, p)
    mu_s = mu.spin_shifted()
    words = sorted(cert.middle.terms, key=lambda w: w.sort_key())
    change = draw(st.sampled_from(["none", "bump", "drop", "residual"]))
    if change == "bump" and words:
        bumped = dict(cert.middle.terms)
        bumped[draw(st.sampled_from(words))] += draw(st.integers(-2, 2))
        return with_parts(cert, middle=OperatorExpr(bumped, mu_s, mu_s))
    if change == "drop" and words:
        word = draw(st.sampled_from(words))
        kept = {w: c for w, c in cert.middle.terms.items() if w != word}
        return with_parts(cert, middle=OperatorExpr(kept, mu_s, mu_s))
    if change == "residual":
        extra = draw(st.sampled_from([hsd_sym(mu_s) * hsd_sym(mu_s), laplace_sym(mu_s, draw(st.integers(1, 2)))]))
        return with_parts(cert, residual=cert.residual + extra.scale(draw(st.integers(-2, 2))))
    return cert


@settings(max_examples=80, deadline=None)
@given(tampered_certificates())
def test_walk_comparison_matches_the_word_comparison(cert):
    # certificate_reexpands compares walk dicts; eliminate_laplace builds the words
    lhs, rhs = sides(cert)
    assert certificate_reexpands(cert) == (eliminate_laplace(lhs) == eliminate_laplace(rhs))


# --- the work budget -------------------------------------------------------

def test_budget_counts_expander_states_plus_memo_entries():
    mu, p = weight(2, 1), 3
    budget = WorkBudget()
    cert = expand_laplace_power(mu, p, budget)
    states = budget.spent
    assert certificate_reexpands(cert, budget)
    total = budget.spent
    assert 0 < states < total
    expected = expand_laplace_power(mu, p)
    assert expand_laplace_power(mu, p, WorkBudget(states)).to_jsonable() == expected.to_jsonable()
    with pytest.raises(ResourceCapError):
        expand_laplace_power(mu, p, WorkBudget(states - 1))
    exact = WorkBudget(total)
    assert certificate_reexpands(expand_laplace_power(mu, p, exact), exact)
    short = WorkBudget(total - 1)
    cert = expand_laplace_power(mu, p, short)  # the expander still fits
    with pytest.raises(ResourceCapError):
        certificate_reexpands(cert, short)
