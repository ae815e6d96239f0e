"""Formal algebra of twistor / higher-spin Dirac / Laplace symbols.

Words are composable chains of raw twistor generators T(target<-source)
and HSD generators R(at), with a central Laplace power attached per
word.  Rewriting implements three families of relations:

  * adjacent twistor steps in distinct coordinates swap with a sign
    flip; when the alternate intermediate weight is non-dominant the
    whole word collapses to zero (every symbol at a non-dominant weight
    is zero by convention),
  * an HSD symbol moves right past a twistor with a sign flip,
  * Laplace symbols are central and tracked as a single exponent.

Raw generators anticommute across elementary squares, so path
operators built from them are path-dependent up to sign.  The explicit
normalization sign (-1)^(mu_{p+1} + ... + mu_n) attached to the step
raising coordinate p at mu makes every square commute; path operators
carry the product of these signs and become path-independent.

A Laplace symbol at a dominant weight k is eliminated through the
module's fixed convention

    Lap(k) = -R(k)^2 - sum_i T(k <- k-e_i) T(k-e_i <- k),

the sum running over the dominant lowerings of k.  expand_laplace_power
writes Lap(mu)^p = R * middle * R + residual from the closed form of
that unfolding, and eliminate_laplace re-expands both sides through the
rule itself, so certificate_reexpands checks the closed form
independently.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial

from .weights import (
    Frozen,
    Weight,
    _set,
    box,
    box_offsets,
    bruhat_leq,
    canonical_path,
    enumerate_paths,
    is_dominant,
    manhattan_distance,
    path_changes,
)
from .linalg import ResourceCapError
from .reports import Check, Report, jsonable


class TwistorSym(Frozen):
    __slots__ = ("target", "source", "step", "_hash")

    def __init__(self, target: Weight, source: Weight):
        if not (target.spin and source.spin):
            raise ValueError("twistor symbols live on half-integral weights")
        if manhattan_distance(target, source) != 1:
            raise ValueError(f"twistor endpoints {target}, {source} not at distance 1")
        _set(self, "target", target)
        _set(self, "source", source)
        # step: (0-based coordinate, +1 or -1) from source to target; both it
        # and the hash (11.6k hashes a certify pool pass) are read on every
        # rewrite, so they are fixed here
        i = next(i for i, (t, s) in enumerate(zip(target.entries, source.entries)) if t != s)
        _set(self, "step", (i, target.entries[i] - source.entries[i]))
        _set(self, "_hash", hash((target, source)))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return f"T[{self.target}<-{self.source}]"


class HsdSym(Frozen):
    __slots__ = ("at",)
    step = None  # an HSD moves no coordinate; _walk reads it among twistor steps

    def __init__(self, at: Weight):
        if not at.spin:
            raise ValueError("HSD symbols live on half-integral weights")
        _set(self, "at", at)

    def __hash__(self):  # not Frozen's generic one: 3.3k calls a certify pool pass
        return hash((self.at,))

    @property
    def target(self) -> Weight:
        return self.at

    @property
    def source(self) -> Weight:
        return self.at

    def __str__(self):
        return f"R[{self.at}]"


class OperatorWord(Frozen):
    """Composable symbol chain with a central Laplace power."""

    __slots__ = ("target", "source", "syms", "lap", "_hash")

    def __init__(self, target: Weight, source: Weight, syms: tuple = (), lap: int = 0):
        if lap < 0:
            raise ValueError("negative Laplace power")
        if syms:
            if syms[0].target != target or syms[-1].source != source:
                raise ValueError("word endpoints do not match its symbols")
            for left, right in zip(syms, syms[1:]):
                if left.source is not right.target and left.source != right.target:
                    raise ValueError(f"non-composable symbols {left} * {right}")
        elif target != source:
            raise ValueError("empty word must have equal endpoints")
        _set(self, "target", target)
        _set(self, "source", source)
        _set(self, "syms", syms)
        _set(self, "lap", lap)
        # words are dict keys throughout (11.6k hashes a certify pool pass);
        # hashing one walks every symbol, so the hash is stored
        _set(self, "_hash", hash((target, source, syms, lap)))

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.lap, len(self.syms), str(self))

    def __str__(self):
        parts = [str(s) for s in self.syms]
        if self.lap:
            parts.append(f"Lap[{self.source}]^{self.lap}")
        return "*".join(parts) if parts else f"Id[{self.source}]"


def _accumulate(terms: dict, key, value):
    """terms[key] += value, dropping the key when the sum cancels."""
    acc = terms.get(key, 0) + value
    if acc:
        terms[key] = acc
    else:
        terms.pop(key, None)


class OperatorExpr:
    """Exact-rational linear combination of words with common endpoints."""

    __slots__ = ("terms", "target", "source")

    def __init__(self, terms=None, target=None, source=None):
        self.terms = {}
        if terms:
            for word, coeff in terms.items():
                if not isinstance(coeff, Fraction):
                    coeff = Fraction(coeff)
                if coeff:
                    self.terms[word] = coeff
        if self.terms:
            first = next(iter(self.terms))
            self.target = first.target
            self.source = first.source
            for word in self.terms:
                if word.target != self.target or word.source != self.source:
                    raise ValueError("mixed endpoints in one expression")
        else:
            self.target = target
            self.source = source

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if (self.target, self.source) != (other.target, other.source):
            raise ValueError("cannot add expressions with different endpoints")
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            _accumulate(terms, word, coeff)
        return OperatorExpr(terms, self.target, self.source)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "OperatorExpr":
        c = Fraction(c)
        if not c:
            return OperatorExpr()
        return OperatorExpr({w: c * v for w, v in self.terms.items()}, self.target, self.source)

    def __mul__(self, other):
        """Composition: self applied after other."""
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return OperatorExpr()
        if self.source != other.target:
            raise ValueError(f"cannot compose {self.source} after {other.target}")
        terms = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                word = OperatorWord(wa.target, wb.source, wa.syms + wb.syms, wa.lap + wb.lap)
                _accumulate(terms, word, ca * cb)
        return OperatorExpr(terms, self.target, other.source)

    def __eq__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __str__(self):
        if self.is_zero():
            return "0"
        return " + ".join(f"({c})*{w}" for w, c in self.sorted_terms())


ZERO = OperatorExpr()


def identity_expr(at: Weight) -> OperatorExpr:
    if not is_dominant(at):
        return ZERO
    return OperatorExpr({OperatorWord(at, at): Fraction(1)})


def _step_sign(entries, c: int) -> int:
    """Normalization sign of a step in 0-based coordinate c at entries e: (-1)^(e_{c+2} + ... + e_n).

    In 1-based terms the step raises or lowers coordinate p = c + 1 and the
    sign is (-1)^(e_{p+1} + ... + e_n).  A step leaves the coordinates above
    its own alone, so either end of it gives the same sign.
    """
    return -1 if sum(entries[c + 1 :]) % 2 else 1


def normalization_sign(mu: Weight, p: int) -> int:
    """Sign attached to the step raising coordinate p (1-based) at mu.

    Chosen as (-1)^(mu_{p+1} + ... + mu_n); with this rescaling every
    elementary square of twistor steps commutes, which is exactly what
    path independence needs.
    """
    if not 1 <= p <= mu.rank:
        raise ValueError(f"coordinate {p} out of range for rank {mu.rank}")
    if not is_dominant(mu):
        raise ValueError(f"{mu} is not dominant")
    if p > 1 and mu.entries[p - 2] == mu.entries[p - 1]:  # raising p would break dominance
        raise ValueError(f"{mu} + eps_{p} is not dominant")
    return _step_sign(mu.entries, p - 1)


def _path_word(nodes) -> tuple:
    """(sign, word) of the twistor chain along half-integral nodes; sign is the product
    of the steps' normalization signs, and (0, None) means a node is non-dominant.

    Each edge is validated by its TwistorSym first, so a step that is not
    a unit step raises whatever the nodes' dominance.
    """
    syms = [TwistorSym(b, a) for a, b in zip(nodes, nodes[1:])]
    if not all(map(is_dominant, nodes)):
        return 0, None
    sign = 1
    for a, sym in zip(nodes, syms):
        sign *= _step_sign(a.entries, sym.step[0])
    return sign, OperatorWord(nodes[-1], nodes[0], tuple(reversed(syms)))


def twistor(target: Weight, source: Weight) -> OperatorExpr:
    """Normalized twistor symbol; zero when either weight is non-dominant.

    TwistorSym rejects endpoints that are not half-integral or not at distance 1.
    """
    sign, word = _path_word((source, target))
    return OperatorExpr({word: Fraction(sign)}) if sign else ZERO


def hsd_sym(at: Weight) -> OperatorExpr:
    if not at.spin:
        raise ValueError("HSD symbols live on half-integral weights")
    if not is_dominant(at):
        return ZERO
    return OperatorExpr({OperatorWord(at, at, (HsdSym(at),)): Fraction(1)})


def laplace_sym(at: Weight, power: int = 1) -> OperatorExpr:
    if not at.spin:
        raise ValueError("Laplace symbols live on half-integral weights")
    if not is_dominant(at):
        return ZERO
    return OperatorExpr({OperatorWord(at, at, (), power): Fraction(1)})


# ---------------------------------------------------------------------------
# normal form


def _walk(source: Weight, steps):
    """Read a chain's steps from source into (sign, walk).

    steps are in application order: (0-based coordinate, +1 or -1) for
    a twistor and None for an HSD; a word passes
    [s.step for s in reversed(word.syms)].

    The walk is (seqs, n_hsd, lo, hi): seqs[c] the steps (+1/-1) of
    coordinate c in application order, n_hsd the HSD count, lo/hi each
    coordinate's extremes, source included.  It fixes the normal form up
    to sign (_canonical_word), the word dies iff _dies(lo, hi), and a
    spliced word's walk is a join of its parts' (eliminate_laplace).

    HSD symbols migrate to the source end (sign flip per twistor
    passed).  The twistor chain then sorts into non-decreasing change
    order as seen from the source, each coordinate's steps keeping their
    order; the sign picks up the parity of the distinct-coordinate
    inversions removed.

    Zero detection: adjacent distinct-coordinate steps swap freely, and
    a swap whose alternate intermediate weight is non-dominant kills
    the word.  Steps on one coordinate never pass each other, so the
    reachable reorderings are exactly the interleavings preserving each
    coordinate's internal order, and every such walk is determined
    pointwise by how many steps of each coordinate it has consumed.
    The chain therefore dies if and only if some count vector on that
    grid lands on a non-dominant weight.  Each dominance inequality links
    two adjacent coordinates of that product grid, so it dies iff
    lo[c] < hi[c+1] or lo[n-1] < 0.
    """
    seqs = [[] for _ in source.entries]  # each coordinate's steps met so far
    inversions = 0                       # higher-coordinate steps each step passes, and twistors each HSD passes
    n_hsd = 0
    for step in steps:
        if step is None:
            n_hsd += 1
            inversions += sum(map(len, seqs))
            continue
        idx, delta = step
        inversions += sum(map(len, seqs[idx + 1 :]))
        seqs[idx].append(delta)
    heights = [tuple(accumulate(seq, initial=s)) for s, seq in zip(source.entries, seqs)]
    sign = -1 if inversions % 2 else 1
    return sign, (tuple(map(tuple, seqs)), n_hsd, tuple(map(min, heights)), tuple(map(max, heights)))


def _dies(lo: tuple, hi: tuple) -> bool:
    """The death test of _walk on a walk's extremes."""
    return lo[-1] < 0 or any(a < b for a, b in zip(lo, hi[1:]))


def _canonical_word(source: Weight, walk: tuple, lap: int) -> OperatorWord:
    """The normal-form word of a live walk from source: twistors coordinate by coordinate, HSDs last."""
    chain = []
    prev = source
    for c, seq in enumerate(walk[0]):
        for d in seq:
            chain.append(TwistorSym(prev.shifted(c, d), prev))
            prev = chain[-1].target
    return OperatorWord(prev, source, tuple(reversed(chain)) + (HsdSym(source),) * walk[1], lap)


def _word_normal_form(word: OperatorWord):
    """Return (sign, canonical word) or (0, None) when the word dies."""
    sign, walk = _walk(word.source, [s.step for s in reversed(word.syms)])
    if _dies(walk[2], walk[3]):
        return 0, None
    return sign, _canonical_word(word.source, walk, word.lap)


def normal_form(expr: OperatorExpr) -> OperatorExpr:
    """Confluent normal form of an expression (total function)."""
    if expr.is_zero():
        return ZERO
    terms = {}
    for word, coeff in expr.terms.items():
        sign, nf = _word_normal_form(word)
        if sign:
            _accumulate(terms, nf, sign * coeff)
    if not terms:
        return ZERO
    return OperatorExpr(terms, expr.target, expr.source)


def path_operator(nodes) -> OperatorExpr:
    """Composition of normalized twistor symbols along a path's nodes.

    Accepts nodes of integral weights (shifted to their half-integral
    forms) or of half-integral weights directly; zero when a node is
    non-dominant, and a step that is not a unit step raises.  The
    reversed nodes give the reversed composition.
    """
    sign, word = _path_word([w if w.spin else w.spin_shifted() for w in nodes])
    return OperatorExpr({word: Fraction(sign)}) if sign else ZERO


def _path_walk(source: Weight, steps: list) -> tuple:
    """(sign, walk) of the normalized twistor path taking steps from source, (0, None) if it dies.

    _walk reads the steps and each step's normalization sign is multiplied
    in, so this is normal_form of the path operator with no symbol built
    (_canonical_word(source', walk, 0) is its word).  A path through a
    non-dominant node dies, since its nodes lie on the walk's grid.
    """
    sign, entries = 1, list(source.entries)
    for c, d in steps:
        sign *= _step_sign(entries, c)
        entries[c] += d
    walk_sign, walk = _walk(source, steps)
    return (0, None) if _dies(walk[2], walk[3]) else (sign * walk_sign, walk)


def path_forms(nodes, changes=None) -> tuple:
    """The normal forms of the ascending path along nodes and of its reverse, as (sign, walk) each.

    changes is path_changes(nodes), for a caller that holds it already.
    Two forms from one source are equal iff their normal forms are.
    """
    up = [(c - 1, 1) for c in (path_changes(nodes) if changes is None else changes)]
    return _path_walk(nodes[0], up), _path_walk(nodes[-1], [(c, -1) for c, _ in reversed(up)])


# ---------------------------------------------------------------------------
# verification helpers


def verify_path_independence(nu: Weight, mu: Weight, cap: int = 10000) -> Report:
    """All paths (and all reverse paths) give one normal form each way, compared as path_forms."""
    if not bruhat_leq(nu, mu):
        raise ValueError(f"{nu} is not below {mu}")
    enum = enumerate_paths(nu, mu, cap=cap)
    changes = [path_changes(p) for p in enum.paths]
    if enum.truncated:
        # agreement among the first cap paths proves nothing; skip the normal forms
        checks = [Check("enumeration_complete", False, {"cap": cap})]
        printed = None
    else:
        forward, reverse = zip(*(path_forms(p, c) for p, c in zip(enum.paths, changes)))
        checks = [
            Check("forward_paths_agree", len(set(forward)) == 1, {"count": len(forward)}),
            Check("reverse_paths_agree", len(set(reverse)) == 1, {"count": len(reverse)}),
        ]
        sign, walk = forward[0]
        source = nu if nu.spin else nu.spin_shifted()
        printed = str(OperatorExpr({_canonical_word(source, walk, 0): Fraction(sign)}) if sign else ZERO)
    return Report(
        title="path_independence",
        params={"nu": nu, "mu": mu, "cap": cap},
        checks=checks,
        results={
            "path_count": len(enum.paths),
            "truncated": enum.truncated,
            "change_sequences": [list(c) for c in changes],
            "normal_form": printed,
        },
    )


class VanishTrace:
    """Record of how a path operator outside the box is annihilated."""

    def __init__(self, mu, lam, pivot, lam_minus, lam_zero, lam_plus, alternate, route_sign, canonical_sign,
                 reverse_sign):
        self.mu = mu
        self.lam = lam
        self.pivot = pivot                    # 1-based index i with lam_i < mu_{i+1}
        self.lam_minus = lam_minus
        self.lam_zero = lam_zero
        self.lam_plus = lam_plus
        self.alternate = alternate            # the non-dominant alternate intermediate
        self.route_sign = route_sign          # the signs of the three normal forms (path_forms): 0 when one is zero
        self.canonical_sign = canonical_sign
        self.reverse_sign = reverse_sign

    @property
    def vanished(self) -> bool:
        return not (self.route_sign or self.canonical_sign or self.reverse_sign)

    def to_jsonable(self):
        return {
            "mu": jsonable(self.mu),
            "lambda": jsonable(self.lam),
            "pivot_index": self.pivot,
            "triple": [jsonable(w) for w in (self.lam_minus, self.lam_zero, self.lam_plus)],
            "non_dominant_intermediate": jsonable(self.alternate),
            "vanished": self.vanished,
        }


def vanish_outside_box(mu: Weight, lam: Weight) -> VanishTrace:
    """Trace the annihilation of P(mu <- lam) for lam below mu, outside its box.

    The route passes through the triple lam_minus -> lam_zero -> lam_plus
    around the failing coordinate; the two-step composition across that
    corner has a non-dominant alternate intermediate and is therefore
    zero, which the rewriting engine detects on its own.
    """
    if not bruhat_leq(lam, mu):
        raise ValueError(f"{lam} is not below {mu}")
    if lam in box(mu):
        raise ValueError(f"{lam} lies in the box of {mu}; no vanishing to trace")
    n = mu.rank
    pivot = None
    for i in range(n - 1, 0, -1):  # 1-based index i, largest violator first
        if lam.entries[i - 1] < mu.entries[i]:
            pivot = i
            break
    if pivot is None:
        raise AssertionError("box membership test and violation search disagree")
    i = pivot
    mu_next = mu.entries[i]        # mu_{i+1} in 1-based terms
    ents = list(mu.entries)
    ents[i - 1] = mu_next - 1
    ents[i] = mu_next - 1
    lam_minus = Weight(tuple(ents))
    lam_zero = lam_minus.shifted(i - 1, 1)
    lam_plus = lam_zero.shifted(i, 1)
    alternate = lam_minus.shifted(i, 1)
    if is_dominant(alternate):
        raise AssertionError("alternate intermediate unexpectedly dominant")
    # a non-dominant node would make the route's operator zero, and "vanished" would prove nothing;
    # canonical_path checks the other ends, and the nodes between dominant ends are dominant
    for w in (lam_minus, lam_zero, lam_plus):
        if not is_dominant(w):
            raise AssertionError(f"vanishing route node {w} is not dominant")
    (route_sign, _), _ = path_forms(canonical_path(lam, lam_minus) + (lam_zero,) + canonical_path(lam_plus, mu))
    (canonical_sign, _), (reverse_sign, _) = path_forms(canonical_path(lam, mu))
    return VanishTrace(
        mu=mu,
        lam=lam,
        pivot=pivot,
        lam_minus=lam_minus,
        lam_zero=lam_zero,
        lam_plus=lam_plus,
        alternate=alternate,
        route_sign=route_sign,
        canonical_sign=canonical_sign,
        reverse_sign=reverse_sign,
    )


# ---------------------------------------------------------------------------
# Laplace-power expansion


class FactorizationCertificate:
    """Data of one factorization Lap^p = R * middle * R + residual.

    coefficients maps each surviving integral weight lam to its constant
    (in the normalized path-operator convention); middle is the
    assembled operator between the two R factors.  For p > mu_1 the
    residual is empty and the support lies inside the box of mu.
    """

    def __init__(self, mu: Weight, power: int, coefficients: dict, middle: OperatorExpr, residual: OperatorExpr):
        self.mu = mu
        self.power = power
        self.coefficients = coefficients
        self.middle = middle
        self.residual = residual

    def support(self):
        return sorted(self.coefficients, key=lambda w: w.entries, reverse=True)

    def to_jsonable(self):
        return {
            "mu": jsonable(self.mu),
            "power": self.power,
            "coefficients": [
                {"lambda": jsonable(lam), "value": jsonable(self.coefficients[lam])}
                for lam in self.support()
            ],
            "middle": expr_jsonable(self.middle),
            "residual": expr_jsonable(self.residual),
        }


def expr_jsonable(expr: OperatorExpr):
    terms = []
    for word, coeff in expr.sorted_terms():
        syms = []
        for sym in word.syms:
            if isinstance(sym, TwistorSym):
                syms.append({"kind": "twistor", "target": jsonable(sym.target), "source": jsonable(sym.source)})
            else:
                syms.append({"kind": "hsd", "at": jsonable(sym.at)})
        terms.append(
            {
                "coeff": jsonable(coeff),
                "symbols": syms,
                "laplace_power": word.lap,
                "target": jsonable(word.target),
                "source": jsonable(word.source),
            }
        )
    return {"terms": terms}


class WorkBudget:
    """Work units (certificate weights plus re-expansion memo entries) under an optional cap."""

    def __init__(self, cap: int | None = None):
        self.cap = cap
        self.spent = 0

    def spend(self):
        self.spent += 1
        if self.cap is not None and self.spent > self.cap:
            raise ResourceCapError(f"more than {self.cap} certificate weights and re-expansion entries")


def expand_laplace_power(mu: Weight, p: int, budget: WorkBudget | None = None) -> FactorizationCertificate:
    """Expand Lap(mu)^p through the HSD sandwich, in closed form.

    Unfolding the Laplace rule p times reaches lam = mu - k in the box of
    mu along each of the d!/prod k_i! orderings of its d = |k| lowerings
    (all dominant, as the box interlaces; chains leaving the box die), and
    each one normalizes to the canonical path word with one common sign.
    So for d < p, lam gets the coefficient (-1)^(d+1) d!/prod k_i! of
    P(mu <- lam) Lap(lam)^(p-d-1) P(lam <- mu) in middle, and for d = p the
    chain mu -> lam -> mu enters the residual with (-1)^p p!/prod k_i!.
    Only k with |k| <= p are enumerated, one budget unit each.
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
    middle: dict[OperatorWord, Fraction] = {}
    residual: dict[OperatorWord, Fraction] = {}
    for k in box_offsets(mu, p):
        budget.spend()
        lam = Weight(tuple(a - b for a, b in zip(mu.entries, k)))
        d = sum(k)
        chains = factorial(d)
        for ki in k:
            chains //= factorial(ki)
        nodes = canonical_path(lam.spin_shifted(), mu_s)
        sign, loop = _path_word(nodes[::-1] + nodes[1:])  # P(mu <- lam) P(lam <- mu)
        if d < p:
            coefficients[lam] = Fraction((-1) ** (d + 1) * chains)
            middle[OperatorWord(mu_s, mu_s, loop.syms, p - d - 1)] = sign * coefficients[lam]
        else:
            residual.update(normal_form(OperatorExpr({loop: (-1) ** p * chains})).terms)

    if p > mu.entries[0]:
        if residual:
            raise AssertionError("residual failed to vanish for p > mu_1")
        inside = set(box(mu))
        stray = [lam for lam in coefficients if lam not in inside]
        if stray:
            raise AssertionError(f"coefficients outside the box: {stray}")
    return FactorizationCertificate(mu, p, coefficients, OperatorExpr(middle), OperatorExpr(residual))


def _bottom_position(word: OperatorWord):
    """Chain position of the lowest weight, nearest the source on ties.

    Laplace factors are central, so they may be slid to any position
    before substituting; the expander always substitutes at the current
    descended weight, i.e. at the bottom of the chain, and the
    re-expansion check has to follow the same convention.
    """
    best_j, best_w = 0, word.target
    for j in range(1, len(word.syms) + 1):
        w = word.syms[j - 1].source
        if sum(w.entries) <= sum(best_w.entries):
            best_j, best_w = j, w
    return best_j, best_w


def _lowerings(w: Weight):
    """(i, w - e_i) for the dominant weights one step below w, in coordinate order."""
    for i in range(w.rank):
        lower = w.shifted(i, -1)
        if is_dominant(lower):
            yield i, lower


def _twistor_splice(walk: tuple, i: int, top: int):
    """Walk of T(v <- v-e_i) x T(v-e_i <- v), x a walk at v - e_i, top = v_i; None if it dies."""
    seqs, n_hsd, lo, hi = walk
    if i and lo[i - 1] < top:
        return None
    if hi[i] < top:
        hi = hi[:i] + (top,) + hi[i + 1 :]
    return seqs[:i] + ((-1,) + seqs[i] + (1,),) + seqs[i + 1 :], n_hsd, lo, hi


def _eliminated_power(w: Weight, e: int, memo: dict, budget: WorkBudget) -> dict:
    """E(w, e) of eliminate_laplace as {walk: int}, filling memo one power k at a time.

    A word of E(v, k) is in normal form and closed at v, so it is fixed by
    its walk (seqs, n_hsd, lo, hi) of _walk.  Each seqs[c] sums to 0, so
    has even length.  The splices follow from _walk's rules:

    * R R x: both HSDs pass every twistor, an even number, so the sign
      is +1 and the walk gains two HSDs; HSDs move no weight, so it lives.
    * T(v <- v-e_i) x T(v-e_i <- v), in application order (i,-1), x's
      HSDs, x's steps by coordinate, (i,+1): each HSD passes one twistor,
      (i,-1) passes x's steps below i and (i,+1) those above it, an even
      number; the sign is (-1)^n_hsd.  Only seqs[i] changes, to
      (-1, *seqs[i], +1).  Coordinate i adds v_i and v_i - 1 (x's start),
      so lo[i] stays and hi[i] rises to v_i at most.  x lives, so only
      the pair (i-1, i) can fail: the word dies iff lo[i-1] < v_i.

    E(v, 0) has no HSD, R R adds two and T x T none, so n_hsd is even and
    every splice has sign +1.  Each weight's lowerings are worked out
    once, while the layers are built, and those objects key memo.
    """
    if (w, e) in memo:         # then so is every entry it was built from
        return memo[w, e]
    layers = [{w: w}]          # layers[d]: the weights d lowering steps below w
    lowered = {}               # v -> [(i, v - e_i)], one object per weight
    for _ in range(e):
        below = {}
        for v in layers[-1]:
            lowered[v] = [(i, below.setdefault(low, low)) for i, low in _lowerings(v)]
        layers.append(below)
    for k in range(e + 1):
        for layer in layers[: e - k + 1]:
            for v in layer:
                if (v, k) in memo:
                    continue
                budget.spend()
                if k == 0:
                    ents = v.entries
                    memo[v, k] = {(((),) * len(ents), 0, ents, ents): 1} if is_dominant(v) else {}
                    continue
                total = {(seqs, n_hsd + 2, lo, hi): -c for (seqs, n_hsd, lo, hi), c in memo[v, k - 1].items()}
                for i, low in lowered[v]:
                    for x, c in memo[low, k - 1].items():
                        walk = _twistor_splice(x, i, v.entries[i])
                        if walk:
                            _accumulate(total, walk, -c)
                memo[v, k] = total
    return memo[w, e]


def eliminate_laplace(expr: OperatorExpr, memo: dict | None = None, budget: WorkBudget | None = None) -> OperatorExpr:
    """Rewrite every Laplace power away via the expander's convention.

    Each elimination slides one Laplace factor to the chain's bottom
    weight w and replaces it by -R(w)^2 - sum_i T(w <- w-e_i)
    T(w-e_i <- w); the result is a pure twistor/HSD expression in
    normal form, suitable for exact equality checks.  It is
    _eliminated_walks(expr), whose memo and budget these are, with each
    walk built into its canonical word.
    """
    walks = _eliminated_walks(expr, {} if memo is None else memo, WorkBudget() if budget is None else budget)
    return OperatorExpr({_canonical_word(expr.source, walk, 0): c for walk, c in walks.items()}, expr.target, expr.source)


def _eliminated_walks(expr: OperatorExpr, memo: dict, budget: WorkBudget) -> dict:
    """eliminate_laplace(expr) as {walk from expr.source: coefficient}, with no word built.

    _canonical_word is injective on the walks from one source, so two
    expressions from one source eliminate to the same expression iff
    their walk dicts are equal.

    The inserted symbols keep the bottom among them, so H * Lap(w)^e * T
    (bottom w) rewrites to the words H * X * T, X running over the
    rewrites of Lap(w)^e alone.  Splice lemma: a normal form depends only
    on each coordinate's step sequence, the twistor count and where each
    HSD sits among the twistors, so nf(H X T) = sign(X) * nf(H nf(X) T),
    and H X T dies when X does.  The word thus gives nf(H E(w, e) T),
    with E(w, 0) = Id(w) and, over the dominant lowerings w - e_i,

        E(w, e) = -nf(R(w) R(w) E(w, e-1))
                  - sum_i nf(T(w <- w-e_i) E(w-e_i, e-1) T(w-e_i <- w)).

    memo holds E by (w, e) as integer coefficients on walks, spliced one
    coordinate at a time (_eliminated_power).  Each H * x * T is joined
    on walks, not built: H * T is read once (_walk), and x's steps go
    after T's in each coordinate.  The sign is that of nf(H T): x's HSDs
    pass T's twistors, H's HSDs x's twistors, x's steps in coordinate c
    pass T's above c and H's steps in c pass x's above c, and x, closed,
    has an even number of HSDs and of steps in each coordinate.  x's
    walk leaves from w, which H * T passes, so the joined extremes are
    the min and max of both, and _dies reads them; if H * T dies, every
    H * x * T does.  memo is shared between calls if the caller passes
    one dict; budget is spent once per new entry of memo.  Integral
    coefficients of expr are taken as ints.
    """
    source = expr.source
    total = {}
    for word, coeff in expr.terms.items():
        if coeff.denominator == 1:
            coeff = coeff.numerator
        j, w = _bottom_position(word)
        xs = _eliminated_power(w, word.lap, memo, budget)
        steps = [s.step for s in reversed(word.syms)]
        sign, (seqs, n_hsd, lo, hi) = _walk(source, steps)
        if _dies(lo, hi):
            continue
        cut = _walk(source, steps[: len(steps) - j])[1][0]   # T's steps, per coordinate
        ends = [(s[: len(t)], s[len(t) :]) for s, t in zip(seqs, cut)]
        coeff *= sign
        for (x_seqs, x_hsd, x_lo, x_hi), c in xs.items():
            joined_lo, joined_hi = tuple(map(min, lo, x_lo)), tuple(map(max, hi, x_hi))
            if not _dies(joined_lo, joined_hi):
                joined = tuple(t + x + h for (t, h), x in zip(ends, x_seqs)), n_hsd + x_hsd, joined_lo, joined_hi
                _accumulate(total, joined, coeff * c)
    return total


def certificate_reexpands(cert: FactorizationCertificate, budget: WorkBudget | None = None) -> bool:
    """Exact check, one memo for both sides: R * middle * R + residual = Lap(mu)^power.

    Both sides start at mu', so they are compared as walk dicts, without
    building their words (_eliminated_walks).
    """
    mu_s = cert.mu.spin_shifted()
    assembled = hsd_sym(mu_s) * cert.middle * hsd_sym(mu_s) + cert.residual
    memo: dict = {}
    budget = WorkBudget() if budget is None else budget
    return _eliminated_walks(laplace_sym(mu_s, cert.power), memo, budget) == _eliminated_walks(assembled, memo, budget)
