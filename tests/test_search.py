import itertools
import json
import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cayleydist as cd
from cayleydist import search
from cayleydist.errors import (
    InputError,
    NotPCycle,
    NotPrime,
    NuUndefinedForPrime,
    OrderTooLarge,
    UnsupportedM,
)
from cayleydist.search import (
    _block_width,
    _combinations,
    _distance_cells,
    _kernel_buffers,
    _lex_permutations,
    _pattern_table,
    _phi_block,
    _phi_distances,
    _piece_order,
    _search_m,
    all_group_tables,
)

from conftest import (
    cyclic,
    expanded_tables,
    oracle_all_group_tables,
    oracle_brute_delta_by_kinds,
    oracle_complete_block,
    oracle_dist,
    oracle_family,
    oracle_pairwise_delta,
    oracle_pattern_table,
    oracle_search_m,
)

PRIMES = (11, 13, 17, 19, 23, 29, 31)


def reflected_partners(p: int, m: int) -> list:
    """Each pattern's reflected partner under x -> -x, as an index into
    _pattern_table(p, m), or None when the partner is not a pattern.

    On row 1, sigma moves position i to source + 1; N sigma^-1 N moves
    p - 1 - source to (p - 1 - i) + 1.  The partner is found by its
    (positions, sources) in a dictionary of the whole family."""
    positions, sources, _ = oracle_family(p, m)
    index = {
        (tuple(pos), tuple(src)): j
        for j, (pos, src) in enumerate(zip(positions.tolist(), sources.tolist()))
    }
    partners = []
    for pos, src in zip(positions.tolist(), sources.tolist()):
        moved = sorted((p - 1 - s, p - 1 - i) for i, s in zip(pos, src))
        key = tuple(q for q, _ in moved), tuple(s for _, s in moved)
        partners.append(index.get(key))
    return partners


def inverted_partners(p: int, m: int) -> list:
    """Each pattern's inverted partner, as an index into oracle_family(p, m):
    for a row-1 pattern that completes with phi, the pattern that completes
    with phi^-1, and None for a pattern that does not complete.

    Row 1 of the transport of Z_p by phi is phi tau phi^-1, with
    tau(x) = x + 1, since phi(1) = sigma(0) = 1; so row 1 of the transport
    by phi^-1 is phi^-1 tau phi.  Its positions are the x it does not move
    to x + 1, and the partner is found by its (positions, sources) in a
    dictionary of the whole family, as reflected_partners finds its."""
    positions, sources, _ = oracle_family(p, m)
    index = {
        (tuple(pos), tuple(src)): j
        for j, (pos, src) in enumerate(zip(positions.tolist(), sources.tolist()))
    }
    phi, ok = oracle_complete_block(p, 1, positions, sources)
    phi = phi.astype(np.intp)
    inverse = np.argsort(phi, axis=0)
    rows = np.take_along_axis(inverse, (phi + 1) % p, axis=0)  # phi^-1 tau phi
    tau = (np.arange(p) + 1) % p
    partners = []
    for j, completes in enumerate(ok):
        row = rows[:, j]
        moved = np.flatnonzero(row != tau)
        key = tuple(moved.tolist()), tuple(((row[moved] - 1) % p).tolist())
        partners.append(index.get(key) if completes else None)
    return partners


def library_phi(p: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row 1's phi and completion for every pattern of oracle_family(p, m),
    in its order, as the library decides and builds them: completion by
    _piece_order and phi by _phi_block.  Returns phi (p, N) uint8, zero in
    the columns of patterns that do not complete, and ok (N,) bool."""
    positions, _, nxts = oracle_family(p, m)
    phi = np.zeros((p, len(nxts)), dtype=np.uint8)
    ok = np.array([_piece_order(nxt) is not None for nxt in nxts])
    for nxt in search.REARRANGEMENTS[m]:
        order = _piece_order(nxt)
        if order is not None:
            cols = [j for j, other in enumerate(nxts) if other == nxt]
            phi[:, cols] = _phi_block(p, positions[cols].astype(np.uint8), order)
    return phi, ok


class TestEnumeratePatterns:
    def test_counts(self):
        assert sum(1 for _ in cd.enumerate_patterns(11, 4)) == math.comb(10, 4) == 210
        assert sum(1 for _ in cd.enumerate_patterns(29, 3)) == 2 * math.comb(28, 3) == 6552

    def test_positions_positive_and_increasing(self):
        for pat in cd.enumerate_patterns(11, 3):
            assert all(i > 0 for i in pat.positions)
            assert list(pat.positions) == sorted(pat.positions)

    def test_rearrangement_moves_every_position(self):
        for pat in cd.enumerate_patterns(11, 4):
            moved = {x for cyc in pat.rearrangement for x in cyc}
            assert moved == set(pat.positions)
            assert all(len(c) >= 2 for c in pat.rearrangement)
            i0, i1, i2, i3 = pat.positions
            assert pat.rearrangement == ((i0, i2), (i1, i3))

    def test_m3_emits_both_cycles(self):
        # the order is part of the output: the witness is the first minimizer
        pats = [p for p in cd.enumerate_patterns(11, 3) if p.positions == (1, 2, 3)]
        assert [p.rearrangement for p in pats] == [((1, 2, 3),), ((1, 3, 2),)]

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: cd.enumerate_patterns(11.0, 3), "need a prime greater than 7, got 11.0"),
            (lambda: cd.enumerate_patterns(11, 3, 1.0), "row h 1.0 is not an integer"),
        ],
        ids=["p", "h"],
    )
    def test_parameter_not_an_integer(self, call, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            next(call())

    def test_unsupported_m(self):
        with pytest.raises(UnsupportedM, match=r"^pattern search supports m in \{3, 4\}, got 5$"):
            list(cd.enumerate_patterns(11, 5))
        with pytest.raises(InputError):
            list(cd.enumerate_patterns(9, 3))


class TestCompleteFromRow:
    def test_unmodified_row_returns_base(self, z5):
        sigma = cd.Permutation(z5.cells[1])
        assert cd.complete_from_row(z5, 1, sigma) == z5

    @pytest.mark.parametrize(
        "h, message",
        [
            (-1, "h -1 outside 0..10"),
            (12, "h 12 outside 0..10"),
            (11, "h 11 outside 0..10"),
            (0, "h must be a non-identity element of 0..10, got 0"),
            (1.0, "h 1.0 is not an integer"),
        ],
        ids=["-1", "12", "11", "0", "1.0"],
    )
    def test_h_not_a_non_identity_element(self, h, message):
        # sigma is row 10, which h = -1 must not reach as a negative index
        z11 = cyclic(11)
        sigma = cd.Permutation(z11.cells[10])
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            cd.complete_from_row(z11, h, sigma)

    def test_z5_worked_example(self, z5):
        # pattern (1,3)(2,4) applied to row [1,2,3,4,0] gives [1,4,0,2,3],
        # the 5-cycle (0 1 4 3 2)
        pat = cd.PatternMod(p=5, h=1, m=4, positions=(1, 2, 3, 4), rearrangement=((1, 3), (2, 4)))
        sigma = cd.apply_pattern(pat, z5)
        assert sigma.image == (1, 4, 0, 2, 3)
        assert sigma.cycles() == [(0, 1, 4, 3, 2)]
        table = cd.complete_from_row(z5, 1, sigma)
        assert table.cells[1] == sigma.image
        assert cd.are_isomorphic(table, z5)[0]
        assert cd.dist(z5, table).total == oracle_dist(z5, table)

    def test_fixed_point_rejected(self, z7):
        sigma = list(z7.cells[1])
        # make column 0 a fixed point by swapping two images
        j = sigma.index(0)
        sigma[0], sigma[j] = sigma[j], sigma[0]
        with pytest.raises(NotPCycle):
            cd.complete_from_row(z7, 1, cd.Permutation(tuple(sigma)))

    def test_completed_tables_validate_and_keep_row(self):
        z11 = cyclic(11)
        checked = 0
        for pat in cd.enumerate_patterns(11, 4):
            if checked >= 25:
                break
            sigma = cd.apply_pattern(pat, z11)
            try:
                table = cd.complete_from_row(z11, pat.h, sigma)
            except NotPCycle:
                continue
            assert table.cells[pat.h] == sigma.image
            cd.validate_table([list(r) for r in table.cells])
            checked += 1
        assert checked == 25

    def test_fast_path_matches_complete_from_row(self):
        # every pattern of every row at p = 11, against the slow path: the
        # library decides completion by _piece_order and builds row 1's phi
        # by _phi_block, and x -> hx carries row 1 to row h as h * phi
        z11 = cyclic(11)
        for m in (3, 4):
            phi1, ok = library_phi(11, m)
            d1 = _phi_distances(11, phi1)
            for h in range(1, 11):
                dvals = iter(d1[ok])
                phis = phi1.astype(np.intp) * h % 11
                pats = cd.enumerate_patterns(11, m, h=h)
                for pat, phi, completes in zip(pats, phis.T, ok, strict=True):
                    sigma = cd.apply_pattern(pat, z11)
                    try:
                        table = cd.complete_from_row(z11, h, sigma)
                    except NotPCycle:
                        assert not completes
                        continue
                    assert completes
                    # phi is the isomorphism from the canonical table
                    f = cd.Permutation(tuple(int(v) for v in phi))
                    assert cd.transport(z11, f) == table
                    assert next(dvals) == cd.dist(z11, table).total == cd.hom_distance(f, z11, z11)

    @pytest.mark.parametrize("p", [29, 31])
    @pytest.mark.parametrize("m", [3, 4])
    def test_distance_kernel_matches_hom_distance_at_widest_p(self, p, m):
        # the widest p is where the uint8 wrap of phi(x) + phi(y) - phi(x + y)
        # and the uint16 column sum are tightest; a seeded sample of the
        # completing patterns of rows 1, 2 and p - 1 against the public kernel
        zp = cyclic(p)
        positions, sources, _ = oracle_family(p, m)
        rng = random.Random(p * 10 + m)
        for h in (1, 2, p - 1):
            phi, ok = oracle_complete_block(p, h, positions, sources)
            done = phi[:, ok]
            dvals = _phi_distances(p, done)
            assert dvals.dtype == np.intp and dvals.shape == (ok.sum(),)
            for k in rng.sample(range(len(dvals)), 20):
                f = cd.Permutation(tuple(done[:, k].tolist()))
                assert dvals[k] == cd.hom_distance(f, zp, zp)

    def test_distance_kernel_on_no_completing_pattern(self):
        phi = _phi_block(11, _pattern_table(11, 3)[:0], _piece_order((1, 2, 0)))
        assert phi.shape == (11, 0)
        dvals = _phi_distances(11, phi)
        assert dvals.dtype == np.intp and dvals.shape == (0,)


class TestKernelArithmetic:
    @pytest.mark.parametrize("p", [p for p in range(2, 128) if cd.is_prime(p)])
    def test_min_reduction_is_mod_p(self, p):
        # every sum s = phi(x) + phi(y) in 0..2p-2: in uint8, s - p wraps
        # above s when s < p, so min(s, s - p) is s mod p, and its one
        # comparison with phi(x + y) in 0..p-1 flags exactly the mismatches
        s = np.arange(2 * p - 1, dtype=np.uint8)
        wrapped = s - np.uint8(p)
        assert (wrapped[:p] > s[:p]).all() and (wrapped[:p] != 0).all()
        reduced = np.minimum(s, wrapped)
        assert np.array_equal(reduced, np.arange(2 * p - 1) % p)
        v = np.arange(p, dtype=np.uint8)
        assert np.array_equal(reduced[:, None] != v, (np.arange(2 * p - 1) % p)[:, None] != v)

    @pytest.mark.parametrize("p", [11, 13, 17, 19, 23, 29, 31, 37, 61, 127])
    def test_block_width_keeps_buffers_below_mmap_threshold(self, p):
        # each (cells, width) work array stays under glibc's default 128 KiB
        # mmap threshold up to p = 31, and the width is at least 256
        cells = p * (p - 1) // 2
        width = _block_width(cells)
        assert width >= 256
        if p <= 31:
            assert cells * width < 128 * 1024
        if p == 127:
            assert width == 256

    @pytest.mark.parametrize("m", [3, 4])
    def test_buffers_reused_across_blocks(self, m):
        # a 7-tuple block, then a 3-tuple block of other tuples, through
        # the same buffers, which start out full of 255: nothing stale may
        # leak into the second, so both match a fresh call and hom_distance
        p = 13
        z13 = cyclic(p)
        cells = _distance_cells(p)
        buffers = _kernel_buffers(cells.shape[1], 7)
        for buf in buffers:
            buf.fill(255)
        table = _pattern_table(p, m)
        order = _piece_order(search.REARRANGEMENTS[m][0])
        for block in (table[:7], table[-3:]):
            phi = _phi_block(p, block, order)
            out = np.full(len(block), 999, dtype=np.uint16)
            got = _phi_distances(p, phi, buffers, out)
            assert got is out
            assert np.array_equal(out, _phi_distances(p, phi))
            for k in range(len(block)):
                f = cd.Permutation(tuple(phi[:, k].tolist()))
                assert out[k] == cd.hom_distance(f, z13, z13)

    def test_kernel_at_largest_p(self):
        # at p = 127 the 7875 upper cells span 31 chunks of at most 255 rows,
        # and s reaches 2(p - 1) = 252: a few patterns, walked by the
        # oracle, through the search's buffers against hom_distance
        p = 127
        z127 = cyclic(p)
        cells = _distance_cells(p)
        assert math.ceil((cells.shape[1] - (p - 1)) / 255) == 31
        table = _pattern_table(p, 3)
        middle = len(table) // 2
        positions = np.concatenate((table[:3], table[middle : middle + 2], table[-3:]))
        nxt = search.REARRANGEMENTS[3][0]
        phi, ok = oracle_complete_block(p, 1, positions, positions[:, list(nxt)])
        assert ok.all() and np.array_equal(_phi_block(p, positions, _piece_order(nxt)), phi)
        buffers = _kernel_buffers(cells.shape[1], _block_width(cells.shape[1]))
        out = np.empty(len(positions), dtype=np.uint16)
        _phi_distances(p, phi, buffers, out)
        for k in range(len(positions)):
            f = cd.Permutation(tuple(phi[:, k].tolist()))
            assert out[k] == cd.hom_distance(f, z127, z127) >= 6 * p - 18


class TestSegmentRule:
    def test_rule_matches_walk(self):
        # every derangement at m = 2..6 and every position set at p = 11, 13
        # and 17: _piece_order completes exactly the patterns the walk
        # completes, and _phi_block builds the walk's phi
        completing = {}
        for m in range(2, 7):
            derangements = [
                r for r in itertools.permutations(range(m)) if all(r[j] != j for j in range(m))
            ]
            completing[m] = sum(_piece_order(r) is not None for r in derangements)
            for p in (11, 13, 17):
                positions = np.array(list(itertools.combinations(range(1, p), m)), dtype=np.uint8)
                for r in derangements:
                    phi, ok = oracle_complete_block(p, 1, positions, positions[:, list(r)])
                    order = _piece_order(r)
                    if order is None:
                        assert not ok.any()
                    else:
                        assert ok.all()
                        assert np.array_equal(_phi_block(p, positions, order), phi)
        # cyclic permutations with no i -> i + 1 (OEIS A000757)
        assert completing == {2: 0, 3: 1, 4: 1, 5: 8, 6: 36}

    def test_rearrangements_that_complete(self):
        assert [_piece_order(nxt) for nxt in search.REARRANGEMENTS[3]] == [(0, 2, 1, 3), None]
        assert [_piece_order(nxt) for nxt in search.REARRANGEMENTS[4]] == [(0, 3, 2, 1, 4)]


class TestReflectionQuotient:
    @pytest.mark.parametrize("p", [11, 13, 17])
    @pytest.mark.parametrize("m", [3, 4])
    def test_partners_complete_together_at_one_distance(self, p, m):
        # pattern by pattern on rows 1, 2 and p - 1: the partner of a
        # completing pattern completes with phi''(k) = -phi(-k) mod p
        positions, sources, _ = oracle_family(p, m)
        partners = reflected_partners(p, m)
        k = np.arange(p)
        for h in (1, 2, p - 1):
            phi, ok = oracle_complete_block(p, h, positions, sources)
            dvals = _phi_distances(p, phi)
            phi = phi.astype(np.intp)
            paired = 0
            for j, partner in enumerate(partners):
                if partner is None:
                    assert positions[j, -1] == p - 1
                    continue
                assert positions[j, -1] != p - 1
                assert ok[partner] == ok[j]
                if ok[j]:
                    assert np.array_equal(phi[:, partner], -phi[-k % p, j] % p)
                    assert dvals[partner] == dvals[j]
                    paired += 1
            assert paired > 0

    def test_pair_end_to_end_at_11(self):
        # the slow path: the partner's table is the transport of the
        # pattern's table by N, at the same distance from Z_11
        z11 = cyclic(11)
        neg = cd.Permutation(tuple(-x % 11 for x in range(11)))
        pats = list(cd.enumerate_patterns(11, 3))
        partners = reflected_partners(11, 3)
        checked = 0
        for j, pat in enumerate(pats):
            if partners[j] is None or partners[j] <= j:
                continue
            try:
                table = cd.complete_from_row(z11, 1, cd.apply_pattern(pat, z11))
            except NotPCycle:
                continue
            partner = pats[partners[j]]
            assert partner.positions == tuple(10 - i for i in reversed(pat.positions))
            other = cd.complete_from_row(z11, 1, cd.apply_pattern(partner, z11))
            assert other == cd.transport(table, neg)
            assert cd.dist(z11, other).total == cd.dist(z11, table).total
            checked += 1
            if checked == 3:
                break
        assert checked == 3

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("m", [3, 4])
    def test_weights_match_partner_lookup(self, p, m):
        # the kept position tuples are the completing patterns that come
        # first in their orbit under the partner lookups: reflection and
        # inversion are commuting involutions, so the orbit of j is
        # {j, I j, R j, R I j}, less R j and R I j when R j is no pattern
        positions, _, _ = oracle_family(p, m)
        reflected = reflected_partners(p, m)
        inverted = inverted_partners(p, m)
        kept = []
        for j, i in enumerate(inverted):
            if i is None:
                continue  # does not complete, so it is not scored
            assert inverted[i] == j
            orbit = {j, i}
            r = reflected[j]
            if r is not None:
                assert reflected[r] == j and inverted[r] == reflected[i]
                orbit |= {r, reflected[i]}
            if j == min(orbit):
                kept.append(positions[j])
        table = _pattern_table(p, m)
        assert table.dtype == np.uint8 and np.array_equal(table, np.reshape(kept, (-1, m)))

    def test_rearrangements_are_reflection_symmetric(self):
        # rho nxt^-1 rho = nxt with rho(k) = m - 1 - k, so a partner keeps
        # the rearrangement index of its pattern
        for m, rows in search.REARRANGEMENTS.items():
            for nxt in rows:
                inv = np.argsort(nxt)
                assert [m - 1 - inv[m - 1 - k] for k in range(m)] == list(nxt)

    @pytest.mark.parametrize("p, scored, family", [(17, 196, 1120), (31, 1225, 8120)])
    def test_scored_counts(self, monkeypatch, p, scored, family):
        # m = 3 scores (1, 2, 0) at the kept tuples, one of each orbit, and
        # counts both 3-cycles at every tuple, half of them completing
        assert len(_pattern_table(p, 3)) == scored
        built = []
        real = search._phi_block

        def counting(p, positions, order):
            built.append(len(positions))
            return real(p, positions, order)

        monkeypatch.setattr(search, "_phi_block", counting)
        case = _search_m(p, 3, 1)
        assert (case.candidates_enumerated, case.candidates_completing) == (family, family // 2)
        assert sum(built) == scored

    @pytest.mark.parametrize("p, m", [(11, 3), (13, 4), (23, 4)])
    def test_all_rows_complete_row_one_once(self, monkeypatch, p, m):
        # x -> hx carries row 1's search to every row, so a search over all
        # rows builds phi for row 1's scored patterns once (_phi_block
        # builds only row 1's) and for no other row's
        built = []
        real = search._phi_block

        def counting(p, positions, order):
            built.append(len(positions))
            return real(p, positions, order)

        monkeypatch.setattr(search, "_phi_block", counting)
        _search_m(p, m, p - 1)
        completing = [nxt for nxt in search.REARRANGEMENTS[m] if _piece_order(nxt) is not None]
        assert sum(built) == len(completing) * len(_pattern_table(p, m))

    @pytest.mark.parametrize("p", PRIMES)
    def test_search_matches_full_family_on_fixed_row(self, p):
        cases = cd.prime_stability_verify(p).m_cases
        assert cases
        for case in cases:
            assert case == _search_m(p, case.m, 1) == oracle_search_m(p, case.m, [1])

    @pytest.mark.parametrize("p", [p for p in PRIMES if p <= 23])
    def test_search_matches_full_family_on_all_rows(self, p):
        rows = list(range(1, p))
        cases = cd.prime_stability_verify(p, all_rows=True).m_cases
        assert cases
        for case in cases:
            assert case == oracle_search_m(p, case.m, rows)


class TestInversionQuotient:
    @pytest.mark.parametrize("p", [11, 13, 17])
    @pytest.mark.parametrize("m", [3, 4])
    def test_inverted_positions_complete_with_phi_inverse(self, p, m):
        # every tuple P, for each scored row of REARRANGEMENTS: the walk's
        # phi at I(P), i_j -> i0 + i_{m-1} - i_{m-1-j}, is the inverse of
        # the walk's phi at P, and the distance kernel scores both alike
        positions = np.array(list(itertools.combinations(range(1, p), m)), dtype=np.intp)
        flipped = positions[:, :1] + positions[:, -1:] - positions[:, ::-1]
        scored = [nxt for nxt in search.REARRANGEMENTS[m] if _piece_order(nxt) is not None]
        assert scored
        for nxt in scored:
            phi, ok = oracle_complete_block(p, 1, positions, positions[:, list(nxt)])
            phi_inv, ok_inv = oracle_complete_block(p, 1, flipped, flipped[:, list(nxt)])
            assert ok.all() and ok_inv.all()
            assert np.array_equal(np.argsort(phi, axis=0), phi_inv)
            assert np.array_equal(_phi_distances(p, phi), _phi_distances(p, phi_inv))

    def test_inverse_end_to_end_at_11(self):
        # the slow path: through complete_from_row, the table of I(P) is the
        # transport of Z_11 by phi_P^-1, at the same distance from Z_11
        z11 = cyclic(11)
        checked = 0
        for m in (3, 4):
            for pos in itertools.combinations(range(1, 11), m):
                flipped = tuple(pos[0] + pos[-1] - pos[m - 1 - j] for j in range(m))
                for nxt in search.REARRANGEMENTS[m]:
                    sigma = cd.apply_pattern(search._pattern(11, 1, pos, nxt), z11)
                    try:
                        table = cd.complete_from_row(z11, 1, sigma)
                    except NotPCycle:
                        continue
                    phi = [0]
                    while len(phi) < 11:
                        phi.append(sigma.image[phi[-1]])
                    phi_inv = cd.Permutation(tuple(phi)).inverse()
                    other = cd.complete_from_row(
                        z11, 1, cd.apply_pattern(search._pattern(11, 1, flipped, nxt), z11)
                    )
                    assert other == cd.transport(z11, phi_inv)
                    assert cd.dist(z11, other).total == cd.dist(z11, table).total
                    checked += 1
        assert checked == math.comb(10, 3) + math.comb(10, 4)

    def test_rearrangements_are_inversion_symmetric(self):
        # each scored row's piece order is (0, m-1, ..., 1, m): an involution
        # that lists the interior pieces reversed, so phi^-1 is the same
        # rearrangement at the positions with the interior gaps reversed; a
        # row without this would need another quotient
        for m, rows in search.REARRANGEMENTS.items():
            for nxt in rows:
                order = _piece_order(nxt)
                if order is None:
                    continue
                assert [order[k] for k in order] == list(range(m + 1))
                assert order == (0, *range(m - 1, 0, -1), m)

    @pytest.mark.parametrize("m", [3, 4])
    def test_witness_beyond_the_goldens(self, m):
        # the first minimizer survives the quotient at p = 37, past the
        # verify goldens, which search nothing from p = 37 up
        assert _search_m(37, m, 1) == oracle_search_m(37, m, [1])


class TestPositionTable:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [11, 13, 31, 61, 127])
    def test_combinations_match_itertools(self, p, k):
        # C(p-1, k) strictly increasing rows within 1..p-1 whose lexicographic
        # ranks are 0, 1, 2, ... are exactly itertools.combinations(range(1,
        # p), k) in its order, without building those rows.  The rank of
        # c_1 < ... < c_k, with N = p-1, is C(N, k) - 1 - sum_i C(N-c_i, k-i+1):
        # the combinatorial-number-system rank of the complements N - c_i,
        # which reverses the order.  Checked in chunks, so p = 127, k = 4
        # (10 M rows) needs no second copy of the table.
        count = math.comb(p - 1, k)
        combos = _combinations(p, k)
        assert combos.dtype == np.uint8 and combos.shape == (count, k)
        # binom[j][c] = C(N - c, j), for every c in 0..p-1
        binom = [np.array([math.comb(p - 1 - c, j) for c in range(p)]) for j in range(k + 1)]
        for lo in range(0, count, 2**20):
            chunk = combos[lo : lo + 2**20]
            assert (chunk[:, 0] >= 1).all() and (chunk[:, -1] <= p - 1).all()
            assert (chunk[:, 1:] > chunk[:, :-1]).all()
            ranks = binom[k].take(chunk[:, 0])
            for i in range(1, k):
                ranks += binom[k - i].take(chunk[:, i])
            assert np.array_equal(count - 1 - ranks, np.arange(lo, lo + len(chunk)))

    @pytest.mark.parametrize(
        "p, m",
        [(p, m) for p in filter(cd.is_prime, range(11, 62)) for m in (3, 4)]
        + [(p, 5) for p in PRIMES]
        + [(p, m) for p in (11, 13) for m in (2, 6)]
        + [(127, 3)],
    )
    def test_pattern_table_matches_oracle(self, p, m):
        # the gap rule keeps what the orbit comparison at the first
        # differing slot keeps
        table = _pattern_table(p, m)
        assert table.dtype == np.uint8 and np.array_equal(table, oracle_pattern_table(p, m))

    @pytest.mark.parametrize("p", [11, 31, 127])
    def test_distance_cells_match_triu_indices(self, p):
        # one (3, cells) index array, the diagonal first: intp indices in
        # 0..p-1, which is what lets the kernel gather with mode="clip"
        pairs = [(x, x) for x in range(1, p)] + list(itertools.combinations(range(1, p), 2))
        expected = np.array([(x, y, (x + y) % p) for x, y in pairs]).T
        cells = _distance_cells(p)
        assert cells.dtype == np.intp and np.array_equal(cells, expected)
        assert cells.min() >= 0 and cells.max() <= p - 1
        # every search at p shares one cached array, so no caller may write to it
        assert _distance_cells(p) is cells
        with pytest.raises(ValueError):
            cells[0, 0] = 0

    def test_search_refuses_p_above_127(self):
        # uint8 positions and phi and the distance kernel's arithmetic are
        # exact only up to p = 127
        with pytest.raises(InputError, match=r"^the pattern search is exact only for p <= 127, got 131$"):
            _search_m(131, 3, 1)


class TestPrimeStabilityVerify:
    def test_p11(self):
        report = cd.prime_stability_verify(11)
        assert report.delta == 48 == report.threshold
        assert report.theorem_confirmed()
        assert {c.m for c in report.m_cases} == {3, 4}
        assert all(c.min_distance >= 48 for c in report.m_cases)
        assert {b.m for b in report.analytic_exclusions} == {5, 6}

    def test_unexcluded_bound_refutes_theorem(self, m5_left_open):
        # the open m is listed as not excluded, and the theorem is not
        # confirmed although delta and the searches hold
        report = cd.prime_stability_verify(11)
        assert report.delta == 48 == report.threshold
        assert {c.m for c in report.m_cases} == {3, 4}
        assert [(b.m, b.excluded) for b in report.analytic_exclusions] == [(5, False), (6, True)]
        assert not report.theorem_confirmed()
        assert report.to_dict()["theorem_confirmed"] is False

    def test_p13_search_minimum(self):
        report = cd.prime_stability_verify(13)
        assert report.delta == 60
        case4 = next(c for c in report.m_cases if c.m == 4)
        assert case4.candidates_enumerated == math.comb(12, 4)
        assert case4.min_distance >= 60

    def test_p19_m4_count(self):
        report = cd.prime_stability_verify(19)
        case4 = next(c for c in report.m_cases if c.m == 4)
        assert case4.candidates_enumerated == math.comb(18, 4) == 3060
        assert report.delta == 96

    def test_m4_excluded_above_23(self):
        report = cd.prime_stability_verify(23)
        assert {c.m for c in report.m_cases} == {3, 4}
        assert {b.m for b in report.analytic_exclusions} == {5, 6}
        for p in (29, 31):
            report = cd.prime_stability_verify(p)
            assert {c.m for c in report.m_cases} == {3}
            assert {b.m for b in report.analytic_exclusions} == {4, 5, 6}

    @pytest.mark.parametrize("block", [1, 4, 7])
    def test_block_size_keeps_mcase(self, monkeypatch, block):
        # blocks split row 1's kept tuples and share one set of kernel
        # buffers, so the witness index must count the tuples of the
        # earlier blocks (the m = 4 witness is tuple 7), and a partial last
        # block (50 and 100 tuples in blocks of 4 and 7) must not read what
        # a full block left in the buffers
        expected = [oracle_search_m(11, m, range(1, 11)) for m in (3, 4)]
        monkeypatch.setattr(search, "_block_width", lambda cells: block)
        built = []
        real = search._phi_block

        def recording(p, positions, order):
            built.append(len(positions))
            return real(p, positions, order)

        monkeypatch.setattr(search, "_phi_block", recording)
        assert [_search_m(11, m, 10) for m in (3, 4)] == expected
        sizes = [len(_pattern_table(11, m)) for m in (3, 4)]
        assert built == [
            min(block, size - start) for size in sizes for start in range(0, size, block)
        ]
        assert block == 1 or any(size % block for size in sizes)

    def test_m4_searched_directly_at_23(self):
        # With l = 2 the bounds leave m = 4 open at p = 23 (118 < 120), so
        # verify searches it; every one of the 22 rows, scored on its own,
        # agrees with the search and reaches 6p - 18.
        case = oracle_search_m(23, 4, range(1, 23))
        assert case.candidates_enumerated == 22 * math.comb(22, 4) == 160930
        assert case.candidates_completing == 160930
        assert case.min_distance == 120 == 6 * 23 - 18
        assert case == _search_m(23, 4, 22)
        searched = next(c for c in cd.prime_stability_verify(23).m_cases if c.m == 4)
        assert searched.candidates_enumerated == math.comb(22, 4) == 7315
        assert searched.min_distance == 120

    def test_determinism_across_runs(self):
        a = cd.prime_stability_verify(13)
        b = cd.prime_stability_verify(13)
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_all_rows_consistent_at_11(self):
        fixed = cd.prime_stability_verify(11)
        full = cd.prime_stability_verify(11, all_rows=True)
        assert fixed.delta == full.delta
        for m in (3, 4):
            cf = next(c for c in fixed.m_cases if c.m == m)
            cl = next(c for c in full.m_cases if c.m == m)
            assert cl.candidates_enumerated == 10 * cf.candidates_enumerated
            assert cl.min_distance == cf.min_distance

    @pytest.mark.parametrize("p", [11, 13])
    def test_rows_equivariant_to_fixed_row(self, p):
        # the row of h is x -> x + h, so pattern j on row h is pattern j on
        # row 1 scaled by h: the walk's phi_h = h * phi_1 mod p, with phi_1
        # as the library builds it, and the same completions and distances
        for m in (3, 4):
            positions, sources, _ = oracle_family(p, m)
            phi1, ok1 = library_phi(p, m)
            d1 = _phi_distances(p, phi1[:, ok1])
            assert ok1.any()
            for h in range(1, p):
                phi, ok = oracle_complete_block(p, h, positions, sources)
                assert np.array_equal(ok, ok1)
                assert np.array_equal(phi[:, ok], phi1[:, ok1].astype(np.intp) * h % p)
                assert np.array_equal(_phi_distances(p, phi[:, ok]), d1)

    @pytest.mark.parametrize("p", [11, 13])
    def test_all_rows_mcase_matches_slow_path(self, p):
        # rebuild every searched MCase with the slow, obviously correct path
        base = cyclic(p)
        report = cd.prime_stability_verify(p, all_rows=True)
        assert {c.m for c in report.m_cases} == {3, 4}
        for case in report.m_cases:
            enumerated = completing = 0
            best = None  # first minimizer in enumeration order
            for h in range(1, p):
                for pat in cd.enumerate_patterns(p, case.m, h=h):
                    enumerated += 1
                    try:
                        table = cd.complete_from_row(base, h, cd.apply_pattern(pat, base))
                    except NotPCycle:
                        continue
                    completing += 1
                    d = cd.dist(base, table).total
                    if best is None or d < best[0]:
                        best = (d, pat)
            assert case.candidates_enumerated == enumerated
            assert case.candidates_completing == completing
            assert (case.min_distance, case.witness) == best

    def test_out_of_range(self):
        for p in (7, 9, 2, 11.0):
            with pytest.raises(NotPrime, match=f"got {re.escape(str(p))}$"):
                cd.prime_stability_verify(p)

    def test_bounds_alone_above_31(self):
        # the bounds exclude every m from p = 37 up (test_metric proves it
        # per residue class mod 12), so the verdict searches nothing
        for p in filter(cd.is_prime, range(37, 128)):
            report = cd.prime_stability_verify(p)
            assert report.theorem_confirmed() and report.delta == 6 * p - 18
            assert report.m_cases == ()

    def test_report_json_roundtrip(self):
        import json

        report = cd.prime_stability_verify(11)
        doc = json.dumps(report.to_dict(), sort_keys=True)
        assert json.loads(doc)["delta"] == 48


class TestBruteDelta:
    def test_small_orders(self):
        assert cd.brute_delta(2)[0] == 4
        assert cd.brute_delta(3)[0] == 9
        assert cd.brute_delta(5)[0] == 12

    def test_order7_below_delta0(self, z7):
        value, (wa, wb) = cd.brute_delta(7)
        assert value == 18 < 24 == cd.delta0(z7)
        assert cd.dist(wa, wb).total == 18

    def test_nu_at_order_4(self):
        value, (wa, wb) = cd.brute_delta(4, "nu")
        assert value == 4
        assert not cd.are_isomorphic(wa, wb)[0]

    def test_mu_witness_is_isomorphic(self):
        value, (wa, wb) = cd.brute_delta(4, "mu")
        assert cd.are_isomorphic(wa, wb)[0]
        assert cd.dist(wa, wb).total == value

    def test_scope_aliases(self):
        assert cd.brute_delta(4, "nonisomorphic_only")[0] == cd.brute_delta(4, "nu")[0]

    def test_nu_undefined_for_prime(self):
        with pytest.raises(NuUndefinedForPrime):
            cd.brute_delta(5, "nu")

    def test_order_caps(self):
        with pytest.raises(OrderTooLarge, match="^brute force capped at order 8, got 9$"):
            cd.brute_delta(9)

    @pytest.mark.parametrize("scope", ["all", "mu", "nu"])
    def test_order8_matches_golden(self, scope):
        golden = Path(__file__).parent / "golden" / f"oracle_n8_{scope}.json"
        name = {"all": "delta"}.get(scope, scope)
        assert cd.brute_delta(8, scope)[0] == json.loads(golden.read_text())["result"][name]

    @pytest.mark.parametrize("scope", ["all", "mu", "nu"])
    def test_allow_slow_does_nothing(self, scope):
        # the parameter outlives the order-8 gate only for its callers; the
        # value and the witness pair are the same either way
        assert cd.brute_delta(8, scope, allow_slow=False) == cd.brute_delta(8, scope, allow_slow=True)
        if scope != "all":
            for kind in cd.groups_of_order(8):
                slow = cd.kind_stability(kind, scope, allow_slow=True)
                assert cd.kind_stability(kind, scope, allow_slow=False) == slow

    def test_distinct_table_counts_order_not_an_integer(self):
        cd.distinct_table_counts(3)  # a cached int order does not answer for 3.0
        with pytest.raises(InputError, match=r"^order 3\.0 is not an integer$"):
            cd.distinct_table_counts(3.0)

    def test_distinct_table_counts(self):
        assert cd.distinct_table_counts(7) == {"cyclic:7": 840}
        assert cd.distinct_table_counts(5) == {"cyclic:5": 30}
        assert cd.distinct_table_counts(4) == {"cyclic:4": 12, "e2:2": 4}
        assert cd.distinct_table_counts(6) == {"cyclic:6": 360, "dihedral:3": 120}
        assert cd.distinct_table_counts(8) == {
            "cyclic:8": 10080,
            "cyclic:4*cyclic:2": 5040,
            "e2:3": 240,
            "dihedral:4": 5040,
            "q8": 1680,
        }

    @pytest.mark.parametrize("n", range(1, 9))
    def test_distinct_table_counts_are_coset_counts(self, n):
        counts = cd.distinct_table_counts(n)
        for kind in cd.groups_of_order(n):
            aut = cd.automorphisms(cd.make_group(kind))
            assert counts[kind.label()] * len(aut) == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_lex_permutations_match_itertools(self, n):
        perms = _lex_permutations(n)
        assert perms.dtype == np.uint8
        assert np.array_equal(perms, np.array(list(itertools.permutations(range(n)))))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_group_tables_matches_oracle(self, n):
        reps, labels, kinds, _ = all_group_tables(n)
        tables = expanded_tables(n)
        expected = oracle_all_group_tables(n)
        assert reps.dtype == np.uint8 and reps.shape == (len(labels), n)
        assert tables.dtype == expected[0].dtype == np.uint8
        assert labels.dtype == expected[1].dtype == np.int64
        assert np.array_equal(tables, expected[0])
        assert np.array_equal(labels, expected[1])
        assert kinds == expected[2]
        # Each kind keeps every one of its own distinct transports, so no
        # table is shared between kinds.
        perms = np.array(list(itertools.permutations(range(n))))
        pinv = np.argsort(perms, axis=1)
        rows = np.arange(len(perms))[:, None, None]
        counts = cd.distinct_table_counts(n)
        for kind in kinds:
            g = cd.make_group(kind).array
            own = perms[rows, g[pinv[:, :, None], pinv[:, None, :]]]
            assert counts[kind.label()] == len({t.tobytes() for t in own})
        assert sum(counts.values()) == len(tables)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_reps_are_first_of_their_coset(self, n):
        # every row at n <= 7; a seeded sample of 2000 rows at n = 8
        reps, labels, kinds, _ = all_group_tables(n)
        tables = expanded_tables(n)  # equal to the oracle's, as tested above
        # the oracle keeps the first f, in itertools order, of each table
        assert np.array_equal(reps, oracle_all_group_tables(n)[3])
        sample = range(len(reps)) if n <= 7 else random.Random(n).sample(range(len(reps)), 2000)
        for i in sample:
            moved = cd.transport(cd.make_group(kinds[labels[i]]), cd.Permutation(tuple(reps[i].tolist())))
            assert np.array_equal(moved.array, tables[i])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dists_are_distances_to_the_canonical_tables(self, n):
        # every table at n <= 7; a seeded sample of 2000 per kind at n = 8
        _, _, kinds, dists = all_group_tables(n)
        tables = expanded_tables(n)
        assert dists.dtype == np.uint8 and dists.shape == (len(kinds), len(tables))
        rng = random.Random(n)
        for k, kind in enumerate(kinds):
            base = cd.make_group(kind)
            sample = range(len(tables)) if n <= 7 else rng.sample(range(len(tables)), 2000)
            for i in sample:
                assert dists[k, i] == cd.dist(base, cd.validate_table(tables[i])).total

    def test_every_dist_at_order_8(self):
        # all 5 x 22 080 entries, against the mismatch count of each table
        # that expanded_tables builds by its own gather
        _, _, kinds, dists = all_group_tables(8)
        tables = expanded_tables(8)
        for k, kind in enumerate(kinds):
            base = cd.make_group(kind).array
            assert np.array_equal(dists[k], (tables != base).sum(axis=(1, 2)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_catalog_fits_the_packed_lookup(self, n):
        # one byte per kind in a uint64 entry, and a count of at most n^2
        # per byte: at most 8 kinds and n^2 <= 255 at every catalog order
        bases = [cd.make_group(kind).array for kind in cd.groups_of_order(n)]
        lookup = search._mismatch_lookup(bases)
        assert lookup.dtype == np.uint64 and lookup.shape == (n**3,)
        u, v, w = np.unravel_index(np.arange(n**3), (n, n, n))
        packed = lookup.view(np.uint8).reshape(n**3, 8)
        for k, base in enumerate(bases):
            assert np.array_equal(packed[:, k], base[u, v] != w)
        assert not packed[:, len(bases) :].any()

    def test_packed_lookup_refuses_what_would_wrap(self):
        # 8 kinds fill the 8 bytes, and at n = 15 a count is at most 225;
        # a ninth kind has no byte, and at n = 16 a count can reach 256
        z2, z15, z16 = (cd.make_group(cd.GroupKind.cyclic(n)).array for n in (2, 15, 16))
        search._mismatch_lookup([z2] * 8)
        search._mismatch_lookup([z15])
        for bases in ([z2] * 9, [z16]):
            with pytest.raises(OrderTooLarge, match=r"at most 8 kinds of order n with n\^2 <= 255"):
                search._mismatch_lookup(bases)

    @pytest.fixture
    def small_table_block(self, monkeypatch):
        # An odd block: most kinds end in a partial block, and the kinds of
        # order <= 3 and e2:2 fit in one.
        monkeypatch.setattr(search, "_TABLE_BLOCK", 7)
        all_group_tables.cache_clear()
        yield
        all_group_tables.cache_clear()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_block_boundaries(self, small_table_block, n):
        _, labels, kinds, dists = all_group_tables(n)
        tables = expanded_tables(n)
        expected = oracle_all_group_tables(n)
        assert np.array_equal(tables, expected[0])
        assert np.array_equal(labels, expected[1])
        assert kinds == expected[2]
        for k, kind in enumerate(kinds):
            base = cd.make_group(kind)
            for i, table in enumerate(tables):
                assert dists[k, i] == cd.dist(base, cd.validate_table(table)).total

    def test_build_memory_is_bounded_by_the_block(self):
        # What the build keeps, and its peak over that, with a cold table
        # cache: the kept reps, labels and dists come to about 0.48 MiB
        all_group_tables.cache_clear()
        tracemalloc.start()
        try:
            all_group_tables(8)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= 0.6 * 2**20
        assert peak - kept <= 2 * 2**20

    def test_every_enumerated_table_is_a_group(self):
        for arr in expanded_tables(4):
            cd.validate_table([[int(v) for v in row] for row in arr])

    def test_cached_arrays_are_read_only(self):
        # every caller shares one cache entry, so no caller may write to it
        first = all_group_tables(4)
        before = [arr.copy() for arr in (first[0], first[1], first[3])]
        for arr in (first[0], first[1], first[3]):
            with pytest.raises(ValueError):
                arr.flat[0] = 1
        again = all_group_tables(4)
        for arr, old in zip((again[0], again[1], again[3]), before):
            assert np.array_equal(arr, old)
        # kind_stability validates its witness built from a read-only row of reps
        value, (base, other) = cd.kind_stability(cd.GroupKind.cyclic(4), "mu")
        assert cd.dist(base, other).total == value > 0

    @pytest.mark.parametrize(
        "n,scope",
        [
            (n, scope)
            for n in range(2, 8)
            for scope in ("all", "mu", "nu", "isomorphic_only", "nonisomorphic_only")
            if not (cd.is_prime(n) and scope in ("nu", "nonisomorphic_only"))
        ],
    )
    def test_matches_pairwise_oracle(self, n, scope):
        expected = oracle_pairwise_delta(n, scope)
        # Value and witness pair, cells and identities included.
        assert cd.brute_delta(n, scope) == expected
        kinds = cd.groups_of_order(n)
        if len(kinds) == 1:
            # One iso class: the canonical-representative reduction is the
            # global scan itself.
            assert cd.kind_stability(kinds[0], scope) == expected

    @pytest.mark.parametrize(
        "n,scope",
        [
            (n, scope)
            for n in range(2, 9)
            for scope in ("all", "mu", "nu", "isomorphic_only", "nonisomorphic_only")
            if not (cd.is_prime(n) and scope in ("nu", "nonisomorphic_only"))
        ],
    )
    def test_matches_minimum_over_kinds(self, n, scope):
        # One witness built per call, the same as every kind's own.
        assert cd.brute_delta(n, scope) == oracle_brute_delta_by_kinds(n, scope)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_order_below_two(self, n):
        with pytest.raises(InputError, match=rf"^stability needs order >= 2, got {n}$"):
            cd.brute_delta(n)

    def test_kind_outside_catalog_labels(self):
        # isomorphic to the catalog's cyclic:4*cyclic:2, but not listed under this label
        kind = cd.GroupKind.parse("cyclic:2*cyclic:4")
        with pytest.raises(InputError, match=r"^cyclic:2\*cyclic:4 is not a group of order 8"):
            cd.kind_stability(kind, "mu")

    def test_unknown_scope(self):
        with pytest.raises(InputError, match="scope must be one of"):
            cd.brute_delta(4, "some")
        with pytest.raises(InputError, match="scope must be one of"):
            cd.kind_stability(cd.GroupKind.cyclic(4), "some")
