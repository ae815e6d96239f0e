"""Dominant-weight combinatorics for the odd orthogonal rank-n lattice.

Weights are rank-n integer vectors; half-integral weights carry a spin
flag meaning "+ (1/2, ..., 1/2)" on top of the stored integer entries,
which keeps all lattice arithmetic in plain integers.  Rank is explicit
and trailing zeros are significant: (1, 0) and (1) are different
weights.  Non-dominant weights are representable on purpose — the
operator layer maps symbols at non-dominant weights to zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


class RankMismatchError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Weight:
    entries: tuple[int, ...]
    spin: bool = False

    def __post_init__(self):
        if len(self.entries) < 1:
            raise ValueError("weight needs rank >= 1")
        if not all(isinstance(e, int) for e in self.entries):
            raise ValueError("entries must be integers (use spin=True for the half shift)")
        # weights key the certificate memos; hashing one walks its entries
        object.__setattr__(self, "_hash", hash((self.entries, self.spin)))

    def __hash__(self):
        return self._hash

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


def box(mu: Weight) -> list[Weight]:
    """All dominant integral lambda with mu_i >= lambda_i >= mu_{i+1}.

    The ranges interlace, so every member is automatically dominant.
    Returned in decreasing lexicographic order starting from mu itself.
    """
    if mu.spin:
        raise ValueError("box is defined for integral weights")
    if not is_dominant(mu):
        raise ValueError(f"box requires a dominant weight, got {mu}")
    n = mu.rank
    out = []

    def rec(prefix):
        i = len(prefix)
        if i == n:
            out.append(Weight(tuple(prefix)))
            return
        lo = mu.entries[i + 1] if i + 1 < n else 0
        for v in range(mu.entries[i], lo - 1, -1):
            rec(prefix + [v])

    rec([])
    return out


@dataclass(frozen=True)
class Path:
    """Lattice path between comparable dominant weights.

    nodes lists the weights in traversal order.  A forward path ascends
    from nu to mu one epsilon step at a time; the reverse path walks the
    same nodes downward.  Every node must be dominant.
    """

    nodes: tuple[Weight, ...]
    direction: str = "forward"

    def __post_init__(self):
        if self.direction not in ("forward", "reverse"):
            raise ValueError("direction must be 'forward' or 'reverse'")
        step = 1 if self.direction == "forward" else -1
        for a, b in zip(self.nodes, self.nodes[1:]):
            diff = [y - x for x, y in zip(a.entries, b.entries)]
            if sorted(diff) != sorted([0] * (len(diff) - 1) + [step]):
                raise ValueError(f"nodes {a} -> {b} are not a single step")
        for node in self.nodes:
            if not is_dominant(node):
                raise ValueError(f"path node {node} is not dominant")

    @property
    def changes(self) -> tuple[int, ...]:
        """1-based coordinate changed at each step, in traversal order."""
        out = []
        for a, b in zip(self.nodes, self.nodes[1:]):
            for i, (x, y) in enumerate(zip(a.entries, b.entries)):
                if x != y:
                    out.append(i + 1)
                    break
        return tuple(out)

    @property
    def length(self) -> int:
        return len(self.nodes) - 1

    @property
    def start(self) -> Weight:
        return self.nodes[0]

    @property
    def end(self) -> Weight:
        return self.nodes[-1]

    def reversed(self) -> "Path":
        d = "reverse" if self.direction == "forward" else "forward"
        return Path(tuple(reversed(self.nodes)), d)


@dataclass(frozen=True)
class PathEnumeration:
    paths: tuple[Path, ...]
    truncated: bool


def enumerate_paths(nu: Weight, mu: Weight, cap: int = 10000) -> PathEnumeration:
    """All ascending paths nu -> mu through dominant weights.

    Ordered lexicographically by change sequence and truncated at cap
    (the flag records whether truncation happened).
    """
    _check_compatible(nu, mu)
    if not bruhat_leq(nu, mu):
        raise ValueError(f"{nu} is not below {mu} in the Bruhat order")
    if cap < 1:
        raise ValueError("cap must be positive")
    paths = []
    truncated = False

    def rec(current: Weight, nodes):
        nonlocal truncated
        if truncated:
            return
        if current == mu:
            if len(paths) >= cap:
                truncated = True
                return
            paths.append(Path(tuple(nodes)))
            return
        for i in range(current.rank):
            if current.entries[i] < mu.entries[i]:
                nxt = current.shifted(i, 1)
                if is_dominant(nxt):
                    rec(nxt, nodes + [nxt])

    rec(nu, [nu])
    return PathEnumeration(tuple(paths), truncated)


def canonical_path(nu: Weight, mu: Weight) -> Path:
    """The path with non-decreasing change sequence: fill coordinate 1
    up to mu_1 first, then coordinate 2, and so on.  Every intermediate
    node is dominant because the partially-raised vector interlaces."""
    _check_compatible(nu, mu)
    if not bruhat_leq(nu, mu):
        raise ValueError(f"{nu} is not below {mu} in the Bruhat order")
    nodes = [nu]
    current = nu
    for i in range(nu.rank):
        while current.entries[i] < mu.entries[i]:
            current = current.shifted(i, 1)
            nodes.append(current)
    return Path(tuple(nodes))


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
