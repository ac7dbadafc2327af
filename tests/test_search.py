import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

import cayleydist as cd
from cayleydist import search
from cayleydist.errors import (
    InputError,
    NotPCycle,
    NuUndefinedForPrime,
    OrderTooLarge,
    OutOfVerifiedRange,
    UnsupportedM,
)
from cayleydist.search import (
    _complete_block,
    _distance_cells,
    _lex_permutations,
    _pattern_table,
    _phi_distances,
    _search_m,
    all_group_tables,
)

from conftest import (
    cyclic,
    oracle_all_group_tables,
    oracle_dist,
    oracle_pairwise_delta,
)


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

    def test_unsupported_m(self):
        with pytest.raises(UnsupportedM, match=r"^pattern search supports m in \{3, 4\}, got 5$"):
            list(cd.enumerate_patterns(11, 5))
        with pytest.raises(InputError):
            list(cd.enumerate_patterns(9, 3))


class TestCompleteFromRow:
    def test_unmodified_row_returns_base(self, z5):
        sigma = cd.Permutation(z5.cells[1])
        assert cd.complete_from_row(z5, 1, sigma) == z5

    @pytest.mark.parametrize("h", [-1, 12, 11, 0])
    def test_h_not_a_non_identity_element(self, h):
        # sigma is row 10, which h = -1 must not reach as a negative index
        z11 = cyclic(11)
        sigma = cd.Permutation(z11.cells[10])
        message = rf"^h must be a non-identity element of 0\.\.10, got {h}$"
        with pytest.raises(InputError, match=message):
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
        # every pattern of every row at p = 11, against the slow path
        z11 = cyclic(11)
        for m in (3, 4):
            positions, sources = _pattern_table(11, m)
            for h in range(1, 11):
                phis, ok = _complete_block(11, h, positions, sources)
                dvals = iter(_phi_distances(11, phis[:, ok], _distance_cells(11)))
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
        cells = _distance_cells(p)
        positions, sources = _pattern_table(p, m)
        rng = random.Random(p * 10 + m)
        for h in (1, 2, p - 1):
            phi, ok = _complete_block(p, h, positions, sources)
            done = phi[:, ok]
            dvals = _phi_distances(p, done, cells)
            assert dvals.dtype == np.intp and dvals.shape == (ok.sum(),)
            for k in rng.sample(range(len(dvals)), 20):
                f = cd.Permutation(tuple(done[:, k].tolist()))
                assert dvals[k] == cd.hom_distance(f, zp, zp)

    def test_distance_kernel_on_no_completing_pattern(self):
        positions, sources = _pattern_table(11, 3)
        phi, _ = _complete_block(11, 1, positions, sources)
        dvals = _phi_distances(11, phi[:, np.zeros(len(positions), dtype=bool)], _distance_cells(11))
        assert dvals.dtype == np.intp and dvals.shape == (0,)


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

    def test_m4_excluded_above_19(self):
        report = cd.prime_stability_verify(23)
        assert {c.m for c in report.m_cases} == {3}
        assert {b.m for b in report.analytic_exclusions} == {4, 5, 6}

    @pytest.mark.parametrize("block", [1, 4, 7])
    def test_block_size_keeps_mcase(self, monkeypatch, block):
        # blocks split each row, so the witness index must count the
        # patterns of the earlier blocks (the m = 4 witness is pattern 7)
        rows = list(range(1, 11))
        expected = [_search_m(11, m, rows) for m in (3, 4)]
        monkeypatch.setattr(search, "_BLOCK", block)
        assert [_search_m(11, m, rows) for m in (3, 4)] == expected

    def test_m4_searched_directly_at_23(self):
        # The analytic exclusion of m = 4 at p = 23 needs l = 3 disjoint
        # positions, but adjacent positions allow only 2 (see
        # TestAnalyticBounds); the search covers the case instead.
        case = _search_m(23, 4, list(range(1, 23)))
        assert case.candidates_enumerated == 22 * math.comb(22, 4) == 160930
        assert case.candidates_completing == 160930
        assert case.min_distance == 120 == 6 * 23 - 18

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
        # row 1 scaled by h: phi_h = h * phi_1 mod p, with the same
        # completions and distances
        for m in (3, 4):
            positions, sources = _pattern_table(p, m)
            phi1, ok1 = _complete_block(p, 1, positions, sources)
            cells = _distance_cells(p)
            d1 = _phi_distances(p, phi1[:, ok1], cells)
            assert ok1.any()
            for h in range(2, p):
                phi, ok = _complete_block(p, h, positions, sources)
                assert np.array_equal(phi, phi1.astype(np.intp) * h % p)
                assert np.array_equal(ok, ok1)
                assert np.array_equal(_phi_distances(p, phi[:, ok], cells), d1)

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
        for p in (7, 37, 9, 2):
            with pytest.raises(OutOfVerifiedRange):
                cd.prime_stability_verify(p)

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
        tables, labels, kinds, _ = all_group_tables(n)
        expected = oracle_all_group_tables(n)
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
    def test_dists_are_distances_to_the_canonical_tables(self, n):
        # every table at n <= 7; a seeded sample of 2000 per kind at n = 8
        tables, _, kinds, dists = all_group_tables(n)
        assert dists.dtype == np.uint8 and dists.shape == (len(kinds), len(tables))
        rng = random.Random(n)
        for k, kind in enumerate(kinds):
            base = cd.make_group(kind)
            sample = range(len(tables)) if n <= 7 else rng.sample(range(len(tables)), 2000)
            for i in sample:
                assert dists[k, i] == cd.dist(base, cd.validate_table(tables[i])).total

    def test_every_enumerated_table_is_a_group(self):
        tables, _, _, _ = all_group_tables(4)
        for arr in tables:
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
        # kind_stability validates its witness from a read-only row of tables
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
