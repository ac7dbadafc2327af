"""Property-based and randomized invariant tests.

The heavyweight corpora (exhaustive order-5/7 pairs, the 1e5-pair random
sweep) live in test_acceptance; here the same invariants run at a scale
suited to every-commit testing.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cayleydist as cd

from conftest import (
    cyclic,
    estim1_bound,
    expanded_tables,
    light_set,
    oracle_dist,
    oracle_mf,
    oracle_reconstruct,
    outcome,
    random_permutation,
    reconstruct_branch_cases,
)

perm_5 = st.permutations(range(5)).map(lambda img: cd.Permutation(tuple(img)))
perm_6 = st.permutations(range(6)).map(lambda img: cd.Permutation(tuple(img)))


@given(perm_6, perm_6)
def test_sign_is_multiplicative(f, g):
    assert f.compose(g).sign() == f.sign() * g.sign()


@given(perm_6)
def test_cycle_notation_roundtrip(f):
    assert cd.Permutation.parse(f.cycle_notation(), n=6) == f


@given(perm_6)
def test_inverse_composes_to_identity(f):
    assert f.compose(f.inverse()).is_identity()
    assert f.inverse().compose(f).is_identity()


@given(perm_5, perm_5)
def test_transport_is_an_action(f, g):
    z5 = cyclic(5)
    assert cd.transport(z5, f.compose(g)) == cd.transport(cd.transport(z5, g), f)


@given(perm_5)
def test_transport_distance_equals_hom_distance(f):
    z5 = cyclic(5)
    assert cd.dist(z5, cd.transport(z5, f)).total == cd.hom_distance(f, z5, z5)


@given(perm_5)
def test_dist_agrees_with_oracle(f):
    z5 = cyclic(5)
    moved = cd.transport(z5, f)
    assert cd.dist(z5, moved).total == oracle_dist(z5, moved)
    assert cd.hom_distance(f, z5, z5) == oracle_mf(f, z5, z5)


@given(
    st.integers(min_value=5, max_value=300),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=3, max_value=10),
)
def test_estim2_bounds_nondecreasing_in_m(n, l, m):
    # monotone in m only in the regime the exclusion arithmetic uses
    if l > m or n < 3 * l + 1:
        return
    b1a, b2a = cd.estim2_bounds(n, m, l)
    b1b, b2b = cd.estim2_bounds(n, m + 1, l)
    assert b1b >= b1a
    if b2a is not None and b2b is not None:
        assert b2b >= b2a


def test_estim1_is_estim2_at_l0():
    for p in filter(cd.is_prime, range(2, 102)):
        q4, q3 = math.ceil(p / 4), math.ceil(p / 3)
        for m in range(3, 13):
            assert estim1_bound(p, m) == cd.estim2_bounds(p, m, 0)[1] == q4 * q3 + (p - q4 - 1) * m


@given(st.integers(min_value=0, max_value=10007))
def test_is_prime_matches_factor_scan(n):
    naive = n >= 2 and all(n % d for d in range(2, n))
    assert cd.is_prime(n) == naive


@settings(max_examples=30)
@given(perm_6, perm_6)
def test_isomorphism_is_equivalence_on_transports(f, g):
    z6 = cyclic(6)
    a = cd.transport(z6, f)
    b = cd.transport(z6, g)
    ok, w = cd.are_isomorphic(a, b)
    assert ok
    assert cd.hom_distance(w, a, b) == 0


@pytest.mark.parametrize("n", [9, 11, 13])
def test_row_distance_never_one_or_two_at_odd_order(n):
    t = cyclic(n)
    rng = random.Random(1000 + n)
    for _ in range(300):
        moved = cd.transport(t, random_permutation(n, rng))
        prof = cd.dist(t, moved)
        assert 1 not in prof.row
        assert 2 not in prof.row


@pytest.mark.parametrize("n", [9, 11, 13])
def test_triple_row_sum_inequality(n):
    t = cyclic(n)
    rng = random.Random(2000 + n)
    for _ in range(200):
        moved = cd.transport(t, random_permutation(n, rng))
        prof = cd.dist(t, moved)
        for x in range(n):
            for y in range(n):
                if t.cells[x][y] != moved.cells[x][y]:
                    assert prof.row[x] + prof.row[y] + prof.row[t.cells[x][y]] >= n


def test_exhaustive_small_order_row_distances():
    # all pairs of order-4 group tables: no row distance equals 1
    grids = [cd.validate_table([[int(v) for v in r] for r in arr]) for arr in expanded_tables(4)]
    for i, a in enumerate(grids):
        for b in grids[i + 1 :]:
            prof = cd.dist(a, b)
            assert 1 not in prof.row


def test_light_set_members_are_strictly_light():
    rng = random.Random(31)
    z9 = cyclic(9)
    for _ in range(100):
        moved = cd.transport(z9, random_permutation(9, rng))
        prof = cd.dist(z9, moved)
        K = light_set(z9, moved)
        assert all(3 * prof.row[g] < 9 for g in K)
        assert all(3 * prof.row[g] >= 9 for g in range(9) if g not in K)


def _reconstruct_bases(n: int) -> list[cd.GroupKind]:
    kinds = [cd.GroupKind.cyclic(n)]
    if n % 2 == 0:
        kinds.append(cd.GroupKind.dihedral(n // 2))
    if n == 16:
        kinds.append(cd.GroupKind.elementary_abelian(4))
    if n in (12, 20):
        kinds.append(cd.GroupKind.direct_product(cd.GroupKind.cyclic(n // 2), cd.GroupKind.cyclic(2)))
    return kinds


def test_reconstruct_matches_loop_oracle():
    """reconstruct_isomorphism returns what the cell loop returns, or raises
    the same class with the same message: on near transports (a
    transposition or a 3-cycle, one or two of them), far ones (a random
    permutation), near ones with random cells changed (tables the
    constructor accepts without a group check), and the hand-built pairs
    that reach each failure branch."""
    rng = random.Random(18)
    pairs = []
    for n in range(9, 30):
        for kind in _reconstruct_bases(n):
            base = cd.transport(cd.make_group(kind), random_permutation(n, rng))
            for _ in range(3):
                points = rng.sample(range(n), 5)
                cycles = [points[: rng.choice((2, 3))], points[3:]][: rng.choice((1, 2))]
                moved = cd.transport(base, cd.Permutation.from_cycles(n, cycles))
                cells = [list(r) for r in moved.cells]
                for _ in range(rng.choice((1, 2, 5))):
                    cells[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
                pairs.append((base, moved))
                pairs.append((base, cd.GroupTable(n, cells, moved.identity)))
            pairs.append((base, cd.transport(base, random_permutation(n, rng))))
    pairs.extend((a, b) for a, b, _, _ in reconstruct_branch_cases().values())
    pairs.extend((b, a) for a, b, _, _ in reconstruct_branch_cases().values())
    outcomes = [outcome(cd.reconstruct_isomorphism, a, b) for a, b in pairs]
    for (a, b), got in zip(pairs, outcomes):
        assert got == outcome(oracle_reconstruct, a, b)
    # the pairs reach a found map, the hypothesis check and a disagreement
    messages = [got[1] for got in outcomes if isinstance(got, tuple)]
    assert len(messages) < len(outcomes)
    assert any(m.startswith("|K|") for m in messages)
    assert any("factorizations disagree" in m for m in messages)


def test_reconstruction_fixes_light_set():
    z17 = cyclic(17)
    rng = random.Random(55)
    for _ in range(30):
        u, v = rng.sample(range(17), 2)
        moved = cd.transport(z17, cd.Permutation.transposition(17, u, v))
        f = cd.reconstruct_isomorphism(z17, moved)
        K = light_set(z17, moved)
        assert all(f(x) == x for x in K)
        assert cd.hom_distance(f, z17, moved) == 0
