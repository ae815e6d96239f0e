"""Dominant-weight combinatorics for the odd orthogonal rank-n lattice.

Weights are rank-n integer vectors; half-integral weights carry a spin
flag meaning "+ (1/2, ..., 1/2)" on top of the stored integer entries,
which keeps all lattice arithmetic in plain integers.  Rank is explicit
and trailing zeros are significant: (1, 0) and (1) are different
weights.  Non-dominant weights are representable on purpose — the
operator layer maps symbols at non-dominant weights to zero.

`Frozen` is the base of the package's immutable value types (weights,
operator symbols and words, operator specs, path enumerations).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

_set = object.__setattr__  # how a Frozen constructor writes its slots


class Frozen:
    """An immutable value: one field per slot, set once, and equal to another
    of its own class with equal fields.

    The default constructor takes one value per slot, in slot order; a
    class that checks or derives fields writes each slot once with _set.
    No subclass is subclassed further, so its own __slots__ are its fields.
    """

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            _set(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an immutable {type(self).__name__}")


class RankMismatchError(ValueError):
    pass


class Weight(Frozen):
    """Integer entries plus the spin flag; equal and hashed as (entries, spin)."""

    __slots__ = ("entries", "spin", "_hash")

    def __init__(self, entries: tuple[int, ...], spin: bool = False):
        if len(entries) < 1:
            raise ValueError("weight needs rank >= 1")
        if not all(isinstance(e, int) for e in entries):
            raise ValueError("entries must be integers (use spin=True for the half shift)")
        _set(self, "entries", entries)
        _set(self, "spin", spin)
        # weights key the certificate memos (50k hashes a certify pool pass);
        # hashing one walks its entries, so the hash is stored
        _set(self, "_hash", hash((entries, spin)))

    def __hash__(self):
        return self._hash

    # hand-written for speed: a certify pool pass compares 26.4k weights
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries and self.spin == other.spin

    def __repr__(self):
        return f"Weight(entries={self.entries!r}, spin={self.spin!r})"

    @property
    def rank(self) -> int:
        return len(self.entries)

    def values(self) -> tuple[Fraction, ...]:
        """Actual coordinates, including the half shift."""
        half = Fraction(1, 2) if self.spin else Fraction(0)
        return tuple(Fraction(e) + half for e in self.entries)

    def spin_shifted(self) -> "Weight":
        if self.spin:
            raise ValueError("weight is already half-integral")
        return Weight(self.entries, spin=True)

    def integral_part(self) -> "Weight":
        return Weight(self.entries, spin=False)

    def shifted(self, i: int, delta: int) -> "Weight":
        """Weight with entry i (0-based) moved by delta."""
        e = list(self.entries)
        e[i] += delta
        return Weight(tuple(e), self.spin)

    def __str__(self):
        body = ",".join(str(e) for e in self.entries)
        return f"({body})'" if self.spin else f"({body})"


def weight(*entries, spin=False) -> Weight:
    return Weight(tuple(int(e) for e in entries), spin=spin)


def _check_same_rank(a: Weight, b: Weight):
    if a.rank != b.rank:
        raise RankMismatchError(f"rank mismatch: {a.rank} vs {b.rank}")


def _check_compatible(a: Weight, b: Weight):
    _check_same_rank(a, b)
    if a.spin != b.spin:
        raise ValueError("integral and half-integral weights do not mix")


def is_dominant(w: Weight) -> bool:
    """Entries non-increasing with the last one non-negative."""
    e = w.entries
    return all(e[i] >= e[i + 1] for i in range(len(e) - 1)) and e[-1] >= 0


def bruhat_leq(nu: Weight, mu: Weight) -> bool:
    """Componentwise order: nu <= mu in every coordinate."""
    _check_compatible(nu, mu)
    return all(m >= n for n, m in zip(nu.entries, mu.entries))


def manhattan_distance(mu: Weight, nu: Weight) -> int:
    _check_compatible(mu, nu)
    return sum(abs(m - n) for m, n in zip(mu.entries, nu.entries))


def box_offsets(mu: Weight, left: int):
    """Every k with 0 <= k_i <= mu_i - mu_{i+1} (mu_{n+1} = 0) and |k| <= left, lazily, in lexicographic order.

    mu - k runs over the members of the box of mu at distance |k| <= left
    (mu dominant and left >= 0, so k = 0 is one of them).
    """
    e = mu.entries
    gaps = [a - b for a, b in zip(e, e[1:] + (0,))]
    k, total = [0] * len(gaps), 0
    while True:
        yield tuple(k)
        # odometer: zero the trailing entries that cannot grow, then raise the last one that can
        i = len(k) - 1
        while i >= 0 and (k[i] == gaps[i] or total == left):
            total -= k[i]
            k[i] = 0
            i -= 1
        if i < 0:
            return
        k[i] += 1
        total += 1


def box(mu: Weight) -> list[Weight]:
    """All dominant integral lambda with mu_i >= lambda_i >= mu_{i+1}.

    The ranges interlace, so every member is automatically dominant.
    Returned in decreasing lexicographic order starting from mu itself;
    no offset of the box exceeds mu_1 = the sum of mu's gaps.
    """
    if mu.spin:
        raise ValueError("box is defined for integral weights")
    if not is_dominant(mu):
        raise ValueError(f"box requires a dominant weight, got {mu}")
    return [Weight(tuple(a - b for a, b in zip(mu.entries, k))) for k in box_offsets(mu, mu.entries[0])]


def path_changes(nodes) -> tuple[int, ...]:
    """1-based coordinate changed at each step of a path's nodes, in traversal order."""
    return tuple(
        next(i for i, (x, y) in enumerate(zip(a.entries, b.entries), 1) if x != y) for a, b in zip(nodes, nodes[1:])
    )


def _check_path_ends(nu: Weight, mu: Weight):
    """Paths ascend from nu to mu, comparable dominant weights of one rank and spin.

    Between such ends every node a path builder visits is dominant, so
    the ends are all there is to check.
    """
    if not bruhat_leq(nu, mu):
        raise ValueError(f"{nu} is not below {mu} in the Bruhat order")
    for w in (nu, mu):
        if not is_dominant(w):
            raise ValueError(f"path node {w} is not dominant")


class PathEnumeration(Frozen):
    __slots__ = ("paths", "truncated")  # each path is the tuple of its nodes


def enumerate_paths(nu: Weight, mu: Weight, cap: int = 10000) -> PathEnumeration:
    """All ascending paths nu -> mu through dominant weights, as node tuples.

    Ordered lexicographically by change sequence and truncated at cap
    (the flag records whether truncation happened).  Each lattice point
    is one Weight object, shared by every path through it.
    """
    _check_path_ends(nu, mu)
    if cap < 1:
        raise ValueError("cap must be positive")
    top = mu.entries
    if nu.entries == top:
        return PathEnumeration(((nu,),), False)
    points = {top: mu}
    above = {}  # node -> the nodes one step up, in coordinate order

    def raises(current: Weight):
        out = above.get(current)
        if out is None:
            e, out = current.entries, []
            for i in range(len(e)):
                # raising coordinate i keeps a dominant weight dominant unless it catches up with i - 1
                if e[i] < top[i] and (i == 0 or e[i - 1] > e[i]):
                    up = e[:i] + (e[i] + 1,) + e[i + 1 :]
                    nxt = points.get(up)
                    if nxt is None:
                        nxt = points[up] = Weight(up, mu.spin)
                    out.append(nxt)
            out = above[current] = tuple(out)
        return iter(out)

    # depth-first without recursion: pending[d] iterates over the raises of nodes[d] not yet taken
    paths, nodes, pending = [], [nu], [raises(nu)]
    while pending:
        for nxt in pending[-1]:
            if nxt is not mu:  # points[top] is mu, so every path ends at mu itself
                nodes.append(nxt)
                pending.append(raises(nxt))
                break
            if len(paths) == cap:
                return PathEnumeration(tuple(paths), True)
            paths.append((*nodes, nxt))
        else:
            pending.pop()
            nodes.pop()
    return PathEnumeration(tuple(paths), False)


def canonical_path(nu: Weight, mu: Weight) -> tuple[Weight, ...]:
    """The nodes of the path with non-decreasing change sequence: fill
    coordinate 1 up to mu_1 first, then coordinate 2, and so on.  Every
    intermediate node is dominant because the partially-raised vector
    interlaces."""
    _check_path_ends(nu, mu)
    nodes = [nu]
    for i in range(nu.rank):
        for _ in range(mu.entries[i] - nu.entries[i]):
            nodes.append(nodes[-1].shifted(i, 1))
    return tuple(nodes)


def summand_weights(lam: Weight) -> list[Weight]:
    """Dominant members of {lambda + sum_i sigma_i eps_i / 2}, highest first.

    Each result is a half-integral weight stored as (integral part,
    spin flag): coordinate i keeps lambda_i for sigma_i = +1 and drops
    to lambda_i - 1 for sigma_i = -1.  Codes with a non-dominant weight
    are omitted; distinct codes always give distinct weights.
    """
    if lam.spin:
        raise ValueError("summand_weights takes an integral weight")
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    out = []
    for drops in itertools.product((0, 1), repeat=lam.rank):
        w = Weight(tuple(e - d for e, d in zip(lam.entries, drops)), spin=True)
        if is_dominant(w):
            out.append(w)
    out.sort(key=lambda w: w.entries, reverse=True)
    return out
