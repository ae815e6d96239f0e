import itertools
import re

import pytest

from hsdfactor.weights import (
    RankMismatchError,
    Weight,
    box,
    box_offsets,
    bruhat_leq,
    canonical_path,
    enumerate_paths,
    is_dominant,
    manhattan_distance,
    path_changes,
    summand_weights,
    weight,
)


def dominants(rank, max_entry):
    for tup in itertools.product(range(max_entry + 1), repeat=rank):
        w = Weight(tup)
        if is_dominant(w):
            yield w


def brute_force_paths(nu, mu):
    """Independent oracle: permutations of the step multiset, dominance-filtered."""
    steps = []
    for i, (a, b) in enumerate(zip(nu.entries, mu.entries)):
        steps.extend([i] * (b - a))
    seen = set()
    good = []
    for perm in itertools.permutations(steps):
        if perm in seen:
            continue
        seen.add(perm)
        node = list(nu.entries)
        ok = True
        for i in perm:
            node[i] += 1
            if not all(node[t] >= node[t + 1] for t in range(len(node) - 1)):
                ok = False
                break
        if ok:
            good.append(perm)
    return sorted(good)


def test_is_dominant():
    assert is_dominant(weight(2, 1, 0))
    assert not is_dominant(weight(1, 2))
    assert is_dominant(weight(0, 0, 0, 0))
    assert not is_dominant(weight(1, 0, -1))


def test_bruhat():
    assert bruhat_leq(weight(1, 0), weight(2, 1))
    assert not bruhat_leq(weight(2, 0), weight(1, 1))
    w = weight(2, 1)
    assert bruhat_leq(w, w)
    with pytest.raises(RankMismatchError):
        bruhat_leq(weight(1), weight(1, 0))


def test_manhattan():
    assert manhattan_distance(weight(3, 1), weight(1, 0)) == 3
    assert manhattan_distance(weight(2, 1), weight(2, 1)) == 0
    assert manhattan_distance(weight(2, 1), weight(1, 1)) == 1
    with pytest.raises(RankMismatchError):
        manhattan_distance(weight(1), weight(1, 0))


def test_spin_integral_do_not_mix():
    with pytest.raises(ValueError):
        manhattan_distance(weight(1, 0), weight(1, 0, spin=True))


def test_box_examples():
    assert box(weight(2, 1)) == [weight(2, 1), weight(2, 0), weight(1, 1), weight(1, 0)]
    assert box(weight(0, 0)) == [weight(0, 0)]
    assert box(weight(1, 1, 1)) == [weight(1, 1, 1), weight(1, 1, 0)]
    with pytest.raises(ValueError):
        box(weight(1, 2))


def test_box_invariants():
    for mu in dominants(3, 3):
        members = box(mu)
        assert mu in members
        assert Weight(mu.entries[1:] + (0,)) in members
        for lam in members:
            assert bruhat_leq(lam, mu)
            assert manhattan_distance(mu, lam) <= mu.entries[0]
        assert max(manhattan_distance(mu, lam) for lam in members) == mu.entries[0]


def test_box_matches_the_interlacing_ranges_and_offsets():
    # oracle: every lambda with mu_i >= lambda_i >= mu_{i+1}, in decreasing lexicographic order
    count = 0
    for rank in range(1, 5):
        for mu in dominants(rank, 5):
            ranges = [range(a, b - 1, -1) for a, b in zip(mu.entries, mu.entries[1:] + (0,))]
            members = [Weight(t) for t in itertools.product(*ranges)]
            assert box(mu) == members
            for left in range(mu.entries[0] + 2):
                near = [lam for lam in members if manhattan_distance(mu, lam) <= left]
                assert [Weight(tuple(a - b for a, b in zip(mu.entries, k))) for k in box_offsets(mu, left)] == near
            count += 1
    assert count == 209


def test_enumerate_paths_against_oracle():
    for mu in dominants(2, 3):
        for nu in dominants(2, 3):
            if bruhat_leq(nu, mu):
                enum = enumerate_paths(nu, mu)
                assert not enum.truncated
                got = [tuple(c - 1 for c in path_changes(p)) for p in enum.paths]
                assert got == brute_force_paths(nu, mu)


def test_enumerate_paths_examples():
    enum = enumerate_paths(weight(0, 0), weight(2, 1))
    assert [path_changes(p) for p in enum.paths] == [(1, 1, 2), (1, 2, 1)]
    assert len(enumerate_paths(weight(1, 0), weight(2, 1)).paths) == 2
    same = enumerate_paths(weight(1, 1), weight(1, 1))
    assert same.paths == ((weight(1, 1),),) and path_changes(same.paths[0]) == ()


def test_enumerate_paths_lengths_and_cap():
    mu, nu = weight(2, 2), weight(0, 0)
    enum = enumerate_paths(nu, mu)
    for p in enum.paths:
        assert len(p) - 1 == manhattan_distance(mu, nu)
        assert p[0] == nu and p[-1] == mu and all(map(is_dominant, p))
    capped = enumerate_paths(nu, mu, cap=1)
    assert capped.truncated and len(capped.paths) == 1
    assert enumerate_paths(nu, mu, cap=len(enum.paths)) == enum and not enum.truncated
    with pytest.raises(ValueError):
        enumerate_paths(weight(1, 1), weight(1, 0))


def test_canonical_path():
    p = canonical_path(weight(0, 0), weight(2, 1))
    assert p == (weight(0, 0), weight(1, 0), weight(2, 0), weight(2, 1))
    assert path_changes(p[::-1]) == (2, 1, 1)
    q = canonical_path(weight(0), weight(3))
    assert len(q) - 1 == 3
    assert path_changes(canonical_path(weight(1, 0), weight(2, 1))) == (1, 2)


def test_canonical_is_enumerated_first():
    for mu in dominants(3, 2):
        for nu in dominants(3, 2):
            if bruhat_leq(nu, mu):
                enum = enumerate_paths(nu, mu)
                assert canonical_path(nu, mu) == enum.paths[0]


def test_path_builders_reject_a_non_dominant_end():
    for nu, mu in [(weight(0, 1), weight(1, 1)), (weight(0, 0), weight(0, 1)), (weight(0, 0, 0), weight(0, 1, 1))]:
        bad = nu if not is_dominant(nu) else mu
        for build in (enumerate_paths, canonical_path):
            with pytest.raises(ValueError, match=re.escape(f"path node {bad} is not dominant")):
                build(nu, mu)
    with pytest.raises(ValueError, match="Bruhat"):
        canonical_path(weight(1, 1), weight(2, 0))
    with pytest.raises(RankMismatchError):
        canonical_path(weight(0), weight(1, 0))


def test_enumerated_paths_share_one_weight_per_lattice_point():
    objects = {}
    for p in enumerate_paths(weight(0, 0, 0), weight(3, 2, 1)).paths:
        for w in p:
            objects.setdefault(w, set()).add(id(w))
    assert len(objects) > 10 and all(len(ids) == 1 for ids in objects.values())


def test_summand_weights_examples():
    lam = weight(1, 0)
    got = summand_weights(lam)
    assert [w.entries for w in got] == [(1, 0), (0, 0)]
    # each coordinate keeps lambda_i (sign +) or drops to lambda_i - 1 (sign -)
    assert [tuple(a - b for a, b in zip(lam.entries, w.entries)) for w in got] == [(0, 0), (1, 0)]
    assert [w.entries for w in summand_weights(weight(1, 1))] == [(1, 1), (1, 0), (0, 0)]
    lone = summand_weights(weight(0, 0, 0))
    assert lone == [Weight((0, 0, 0), spin=True)]


def test_summand_weights_multiplicity_free():
    for lam in dominants(3, 2):
        got = summand_weights(lam)
        assert len(got) <= 2 ** 3
        assert len(set(got)) == len(got)
        for w in got:
            assert w.spin and is_dominant(w)
            assert all(a - b in (0, 1) for a, b in zip(lam.entries, w.entries))


def test_weight_hash_is_stored_and_equality_is_by_value():
    a, b = weight(2, 1), Weight((2, 1))
    assert a is not b and a == b and hash(a) == hash(b) == a._hash
    assert {a: 1}[b] == 1
    assert a != weight(2, 1, spin=True) and a != weight(3, 0)
    # the stored hash is not a field: repr and equality ignore it
    assert repr(a) == "Weight(entries=(2, 1), spin=False)"
