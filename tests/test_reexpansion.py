"""The memoized Laplace re-expansion and the linear-time death test
against the tree walker and the count-grid test they replaced.

The oracles below are the earlier production code, kept verbatim apart
from their names: `grid_word_normal_form` visits every count vector of
the step grid, and `tree_eliminate_laplace` rewrites one Laplace factor
per step until no word carries one.
"""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hsdfactor.opalgebra import (
    HsdSym,
    OperatorExpr,
    OperatorWord,
    TwistorSym,
    WorkBudget,
    _bottom_position,
    _word_normal_form,
    certificate_reexpands,
    eliminate_laplace,
    expand_laplace_power,
    hsd_sym,
    laplace_sym,
)
from hsdfactor.linalg import ResourceCapError
from hsdfactor.weights import Weight, is_dominant, weight


# --- oracles ---------------------------------------------------------------

def _dominant_entries(entries) -> bool:
    return all(entries[i] >= entries[i + 1] for i in range(len(entries) - 1)) and entries[-1] >= 0


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


# --- random words ----------------------------------------------------------

examples = settings(max_examples=150, deadline=None)


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


# --- tampered certificates -------------------------------------------------

CERTS = [(weight(2, 1), 3), (weight(3, 1, 0), 4), (weight(2, 1), 2), (weight(1, 1, 1), 1)]


def _first_term(expr):
    return min(expr.terms, key=lambda w: w.sort_key())


@pytest.mark.parametrize("mu,p", CERTS)
def test_tampered_certificates_do_not_reexpand(mu, p):
    cert = expand_laplace_power(mu, p)
    assert certificate_reexpands(cert)
    mu_s = mu.spin_shifted()
    if not cert.middle.is_zero():
        word = _first_term(cert.middle)
        bumped = dict(cert.middle.terms)
        bumped[word] += 1
        assert not certificate_reexpands(dataclasses.replace(cert, middle=OperatorExpr(bumped)))
        dropped = {w: c for w, c in cert.middle.terms.items() if w != word}
        assert not certificate_reexpands(dataclasses.replace(cert, middle=OperatorExpr(dropped, mu_s, mu_s)))
    extra = cert.residual + hsd_sym(mu_s) * hsd_sym(mu_s)
    assert not certificate_reexpands(dataclasses.replace(cert, residual=extra))


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
