"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here is exact; runtime budgets are asserted as stated.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import random
import time

import numpy as np
import pytest

import cayleydist as cd

from conftest import cyclic, expanded_tables, random_permutation


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_small_prime_stability():
    start = time.perf_counter()
    values = {n: cd.brute_delta(n)[0] for n in (2, 3, 5, 7)}
    elapsed = time.perf_counter() - start
    expected = {2: 4, 3: 9, 5: 12, 7: 18}
    _report(
        1,
        values == expected and elapsed < 60,
        f"delta(Z_n) for n=2,3,5,7 = {values} (expected {expected}), {elapsed:.1f}s < 60s",
    )


def test_criterion_2_order7_nearest_pair():
    z7 = cyclic(7)
    f = cd.Permutation((0, 1, 4, 5, 2, 3, 6))
    moved = cd.transport(z7, f)
    cd.dist(z7, moved)  # warm up
    start = time.perf_counter()
    total = cd.dist(z7, moved).total
    elapsed = time.perf_counter() - start
    ceiling = cd.delta0(z7)
    _report(
        2,
        total == 18 and ceiling == 24 and total < ceiling and elapsed < 0.001,
        f"dist = {total} < {ceiling} = delta0(Z_7), {elapsed * 1000:.3f}ms < 1ms",
    )


def test_criterion_3_verified_primes():
    start = time.perf_counter()
    ok = True
    details = []
    for p in (11, 13, 17, 19, 23, 29, 31):
        report = cd.prime_stability_verify(p)
        smin = report.searched_minimum()
        good = (
            report.theorem_confirmed()
            and report.delta == 6 * p - 18
            and (smin is None or smin >= 6 * p - 18)
        )
        ok &= good
        details.append(f"p={p}: delta={report.delta}")
    full = cd.prime_stability_verify(11, all_rows=True)
    ok &= full.theorem_confirmed() and full.delta == 48
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10
    _report(3, ok, f"{'; '.join(details)}; all-rows p=11 delta={full.delta}; {elapsed:.1f}s < 10s")


def test_criterion_4_transposition_minimum_matches_delta0():
    kinds = [
        cd.GroupKind.cyclic(5),
        cd.GroupKind.cyclic(7),
        cd.GroupKind.cyclic(9),
        cd.GroupKind.dihedral(3),
        cd.GroupKind.dihedral(5),
        cd.GroupKind.cyclic(8),
        cd.GroupKind.direct_product(cd.GroupKind.cyclic(4), cd.GroupKind.cyclic(2)),
        cd.GroupKind.elementary_abelian(3),
        cd.GroupKind.quaternion8(),
        cd.GroupKind.cyclic(10),
    ]
    start = time.perf_counter()
    results = {}
    ok = True
    for kind in kinds:
        t = cd.make_group(kind)
        value, _ = cd.min_transposition_mf(t)
        results[kind.label()] = value
        ok &= value == cd.delta0(t)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5
    _report(4, ok, f"min transposition m_f = delta0 on {results}; {elapsed:.1f}s < 5s")


def test_criterion_5_nu_of_klein_four():
    start = time.perf_counter()
    value, (wa, wb) = cd.brute_delta(4, "nonisomorphic_only")
    elapsed = time.perf_counter() - start
    ok = value == 4 == 2 ** (2 * 2 - 2) and not cd.are_isomorphic(wa, wb)[0]
    ok &= elapsed < 1
    _report(5, ok, f"nu at order 4 = {value} = 2^(2n-2) with n=2; {elapsed:.2f}s < 1s")


def _check_agreement_subgroup(t, prof):
    H = set(prof.agreement)
    if not H:
        return True
    for x in H:
        for y in H:
            if t.cells[x][y] not in H:
                return False
    return True


def _exhaustive_pair_checks_order7() -> int:
    """Vectorized sweep over all pairs of order-7 tables; returns pair count.

    Only the pairs with 3 * min d < n get the triple-sum check, since every
    triple sum is at least 3 * min d, and only those with a row that
    agrees get the closure check, since an empty agreement set is closed:
    by the row check both are the pairs with min d = 0.
    """
    T = expanded_tables(7)
    n = 7
    pairs = 0
    for i in range(len(T) - 1):
        A = T[i]
        B = T[i + 1 :]
        D = B != A
        d = D.sum(axis=2, dtype=np.uint8)
        assert not ((d == 1) | (d == 2)).any(), "row distance 1 or 2 at order 7"
        near = 3 * d.min(axis=1) < n
        D, d = D[near], d[near]
        S = d[:, :, None] + d[:, None, :] + d[:, A]
        assert not (D & (S < n)).any(), "triple row-sum inequality violated"
        hs = d == 0
        both_in = hs[:, :, None] & hs[:, None, :]
        assert not (both_in & ~hs[:, A]).any(), "agreement set not closed"
        pairs += len(B)
    return pairs


def test_criterion_6_lemma_property_suite():
    start = time.perf_counter()
    # exhaustive order-5 pairs via the library operations
    tables5 = expanded_tables(5)
    grids5 = [cd.validate_table([[int(v) for v in r] for r in arr]) for arr in tables5]
    pairs5 = 0
    for i, a in enumerate(grids5):
        for b in grids5[i + 1 :]:
            prof = cd.dist(a, b)
            assert 1 not in prof.row and 2 not in prof.row
            assert cd.check_lemmas(a, b) == []
            assert _check_agreement_subgroup(a, prof)
            pairs5 += 1
    # exhaustive order-7 pairs, vectorized
    pairs7 = _exhaustive_pair_checks_order7()
    # >= 1e5 seeded random transported pairs at n in {9, 11, 13}
    random_pairs = 0
    for n, count in ((9, 34000), (11, 33000), (13, 33000)):
        t = cyclic(n)
        rng = random.Random(52600 + n)
        for _ in range(count):
            moved = cd.transport(t, random_permutation(n, rng))
            violations = cd.check_lemmas(t, moved)
            assert violations == [], f"n={n}: {violations}"
            prof = cd.dist(t, moved)
            assert _check_agreement_subgroup(t, prof)
            if prof.total <= 6 * n - 18:
                assert t.identity == moved.identity
            random_pairs += 1
    elapsed = time.perf_counter() - start
    ok = pairs5 == 435 and pairs7 == 840 * 839 // 2 and random_pairs >= 100000
    ok &= elapsed < 120
    _report(
        6,
        ok,
        f"{pairs5} order-5 pairs, {pairs7} order-7 pairs, {random_pairs} random pairs, "
        f"zero violations; {elapsed:.0f}s < 120s",
    )


def test_criterion_7_analytic_bound_suite():
    start = time.perf_counter()
    primes = [p for p in range(8, 10008) if cd.is_prime(p)]
    ok = all(cd.analytic_lower_bound(p, 5).excluded for p in primes if p <= 31)
    ok &= all(cd.analytic_lower_bound(p, 3).excluded for p in primes if p > 31)
    ok &= all(
        cd.analytic_lower_bound(p, 4).excluded == (p > 23) for p in primes
    )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1
    _report(
        7,
        ok,
        f"m=5 excluded on 7<p<=31; m=3 excluded on 31<p<=10007; m=4 excluded iff p>23 "
        f"({len(primes)} primes); {elapsed:.2f}s < 1s",
    )


def test_criterion_8_transport_hom_distance_identity():
    import itertools

    start = time.perf_counter()
    mismatches = 0
    checked = {}
    for n in (5, 7):
        t = cyclic(n)
        count = 0
        for img in itertools.permutations(range(n)):
            f = cd.Permutation(img)
            if cd.dist(t, cd.transport(t, f)).total != cd.hom_distance(f, t, t):
                mismatches += 1
            count += 1
        checked[n] = count
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and checked == {5: 120, 7: 5040} and elapsed < 10
    _report(
        8,
        ok,
        f"dist(t, transport(t,f)) = m_f for all {checked} permutations, "
        f"{mismatches} mismatches; {elapsed:.1f}s < 10s",
    )


def test_criterion_9_order8_mu_nu():
    start = time.perf_counter()
    e8 = cd.GroupKind.elementary_abelian(3)
    q8 = cd.GroupKind.quaternion8()
    mu_e8, _ = cd.kind_stability(e8, "mu")
    nu_e8, _ = cd.kind_stability(e8, "nu")
    mu_q8, _ = cd.kind_stability(q8, "mu")
    nu_q8, _ = cd.kind_stability(q8, "nu")
    elapsed = time.perf_counter() - start
    ok = mu_e8 >= nu_e8 and mu_q8 >= nu_q8
    ok &= nu_e8 == 2 ** (2 * 3 - 2)  # 16, the known formula at order 8
    _report(
        9,
        ok,
        f"mu(E_8)={mu_e8} >= nu(E_8)={nu_e8}, mu(Q_8)={mu_q8} >= nu(Q_8)={nu_q8}; "
        f"{elapsed:.1f}s",
    )
