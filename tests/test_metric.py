import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import cayleydist as cd
from cayleydist import metric
from cayleydist.errors import (
    DimensionMismatch,
    HypothesisNotMet,
    InputError,
    MTooSmall,
    NotPrime,
    OrderTooSmall,
)

from conftest import (
    cyclic,
    dihedral,
    estim1_bound,
    light_set,
    max_disjoint_subset,
    oracle_check_lemmas,
    oracle_dist,
    oracle_mf,
    oracle_min_transposition,
    oracle_profile,
    oracle_reconstruct,
    oracle_row_dist,
    oracle_transport,
    outcome,
    random_permutation,
    reconstruct_branch_cases,
)

SMALL_KINDS = [kind.label() for n in range(5, 9) for kind in cd.groups_of_order(n)]
ORACLE_KINDS = (
    SMALL_KINDS
    + [f"cyclic:{n}" for n in range(9, 32)]
    + [f"dihedral:{k}" for k in range(5, 13)]
)


class TestDist:
    def test_paper_distance_18(self, z7, paper_f7):
        prof = cd.dist(z7, cd.transport(z7, paper_f7))
        assert prof.total == 18
        assert prof.total < cd.delta0(z7) == 24

    def test_self_distance(self, z7):
        prof = cd.dist(z7, z7)
        assert prof.total == 0
        assert prof.agreement == tuple(range(7))
        assert prof.m == 0

    def test_z5_transposition(self, z5):
        moved = cd.transport(z5, cd.Permutation.transposition(5, 2, 3))
        assert cd.dist(z5, moved).total == 12

    def test_total_is_row_sum_and_symmetric(self, z7):
        rng = random.Random(2)
        for _ in range(25):
            moved = cd.transport(z7, random_permutation(7, rng))
            prof = cd.dist(z7, moved)
            assert prof.total == sum(prof.row)
            assert prof.total == oracle_dist(z7, moved)
            assert cd.dist(moved, z7).total == prof.total

    def test_m_absent_when_identities_differ(self, z5):
        moved = cd.transport(z5, cd.Permutation((1, 0, 2, 3, 4)))
        assert moved.identity == 1
        assert cd.dist(z5, moved).m is None

    def test_dimension_mismatch(self, z5, z7):
        with pytest.raises(DimensionMismatch, match=r"^orders differ: 5 vs 7$"):
            cd.dist(z5, z7)

    def test_profile_is_immutable_value(self, z7, paper_f7):
        moved = cd.transport(z7, paper_f7)
        prof = cd.dist(z7, moved)
        with pytest.raises(AttributeError):
            prof.total = 0
        assert prof == cd.dist(z7, moved) and hash(prof) == hash(cd.dist(z7, moved))
        assert prof.n == len(prof.row) == 7


class TestHomDistance:
    def test_identity_map(self, z7):
        assert cd.hom_distance(cd.Permutation.identity(7), z7, z7) == 0

    def test_constant_identity_map(self, z7):
        assert cd.hom_distance([0] * 7, z7, z7) == 0

    def test_transposition_on_z5(self, z5):
        f = cd.Permutation.transposition(5, 2, 3)
        assert cd.hom_distance(f, z5, z5) == 12
        assert cd.hom_distance(f, z5, z5) == cd.dist(z5, cd.transport(z5, f)).total

    def test_non_bijective_against_oracle(self, z5):
        rng = random.Random(4)
        for _ in range(20):
            img = [rng.randrange(5) for _ in range(5)]
            assert cd.hom_distance(img, z5, z5) == sum(
                img[z5.cells[a][b]] != z5.cells[img[a]][img[b]]
                for a in range(5)
                for b in range(5)
            )

    def test_image_out_of_range(self, z5):
        with pytest.raises(InputError, match=r"^map image 7 outside 0\.\.4$"):
            cd.hom_distance([0, 1, 2, 3, 7], z5, z5)
        with pytest.raises(InputError, match=r"^map image -1 outside 0\.\.4$"):
            cd.hom_distance([0, -1, 2, 9, 1], z5, z5)
        for f in ([0, 1, 2, 3], cd.Permutation.identity(4)):
            with pytest.raises(DimensionMismatch, match=r"^map has 4 entries, table order 5$"):
                cd.hom_distance(f, z5, z5)

    def test_permutation_into_a_smaller_target(self):
        # a permutation's images lie in the source's range, not the target's
        with pytest.raises(InputError, match=r"^map image 3 outside 0\.\.2$"):
            cd.hom_distance(cd.Permutation.identity(9), cyclic(9), cyclic(3))

    @pytest.mark.parametrize(
        "img,shown",
        [([0, 1, 2, 3, 4.7], "4.7"), ([0.5, 1, 2, 3, 4], "0.5"), (["0", 1, 2, 3, 4], "'0'")],
        ids=["float_in_range", "float_first", "str"],
    )
    def test_image_not_an_integer(self, z5, img, shown):
        with pytest.raises(InputError, match=rf"^map image {shown} is not an integer$"):
            cd.hom_distance(img, z5, z5)


class TestDelta0:
    def test_branches(self):
        assert cd.delta0(cyclic(7)) == 24
        assert cd.delta0(dihedral(5)) == 40
        assert cd.delta0(cyclic(8)) == 24
        assert cd.delta0(cyclic(9)) == 36
        assert cd.delta0(dihedral(3)) == 16
        assert cd.delta0(cyclic(10)) == 36

    def test_too_small(self):
        with pytest.raises(OrderTooSmall):
            cd.delta0(cyclic(4))


class TestLightSet:
    def test_identical_tables(self, z7):
        assert light_set(z7, z7) == list(range(7))

    def test_z7_paper_pair(self, z7, paper_f7):
        moved = cd.transport(z7, paper_f7)
        prof = cd.dist(z7, moved)
        # at odd order each row distance is 0 or >= 3, so K is the agreement set
        assert light_set(z7, moved) == [
            g for g in range(7) if prof.row[g] == 0
        ]

    def test_strict_threshold(self, z5):
        moved = cd.transport(z5, cd.Permutation.transposition(5, 2, 3))
        prof = cd.dist(z5, moved)
        assert prof.total == 12
        K = light_set(z5, moved)
        assert all(3 * prof.row[g] < 5 for g in K)
        assert all(3 * prof.row[g] >= 5 for g in range(5) if g not in K)


class TestReconstruct:
    def test_equal_tables_give_identity(self, z7):
        assert cd.reconstruct_isomorphism(z7, z7) == cd.Permutation.identity(7)

    def test_recovers_transposition_at_29(self):
        z29 = cyclic(29)
        f = cd.Permutation.transposition(29, 2, 5)
        moved = cd.transport(z29, f)
        assert cd.reconstruct_isomorphism(z29, moved) == f

    def test_recovers_random_transpositions(self):
        z13 = cyclic(13)
        for u, v in [(1, 7), (3, 4), (2, 11)]:
            f = cd.Permutation.transposition(13, u, v)
            assert cd.reconstruct_isomorphism(z13, cd.transport(z13, f)) == f

    def test_hypothesis_not_met_on_paper_pair(self, z7, paper_f7):
        with pytest.raises(HypothesisNotMet):
            cd.reconstruct_isomorphism(z7, cd.transport(z7, paper_f7))

    @pytest.mark.parametrize("case", list(reconstruct_branch_cases()))
    def test_failure_branch_class_and_message(self, case):
        a, b, error, message = reconstruct_branch_cases()[case]
        assert outcome(cd.reconstruct_isomorphism, a, b) == (error, message)
        assert outcome(oracle_reconstruct, a, b) == (error, message)


class TestMinTransposition:
    def test_z5(self, z5):
        value, witness = cd.min_transposition_mf(z5)
        assert value == 12
        # (2, 3) is among the minimizers
        assert cd.hom_distance(cd.Permutation.transposition(5, 2, 3), z5, z5) == 12
        assert cd.hom_distance(witness, z5, z5) == 12

    def test_z7(self, z7):
        assert cd.min_transposition_mf(z7)[0] == 24 == cd.delta0(z7)

    def test_dihedral5(self):
        d5 = dihedral(5)
        assert cd.min_transposition_mf(d5)[0] == 40 == cd.delta0(d5)

    def test_matches_exhaustive_oracle(self, z5):
        best = min(
            oracle_mf(cd.Permutation.transposition(5, u, v), z5, z5)
            for u in range(5)
            for v in range(u + 1, 5)
        )
        assert cd.min_transposition_mf(z5)[0] == best

    def test_too_small(self):
        with pytest.raises(OrderTooSmall):
            cd.min_transposition_mf(cyclic(4))

    @pytest.mark.parametrize("label", ORACLE_KINDS)
    def test_matches_oracle_value_and_witness(self, label):
        base = cd.make_group(cd.GroupKind.parse(label))
        moved = cd.transport(base, random_permutation(base.n, random.Random(label)))
        for t in (base, moved):
            assert cd.min_transposition_mf(t) == oracle_min_transposition(t)

    @pytest.mark.parametrize(
        "label",
        ["cyclic:3*cyclic:3", "e2:4", "cyclic:2*dihedral:3", "q8*cyclic:3"]
        + ["dihedral:7", "cyclic:11", "cyclic:13", "cyclic:17"],
    )
    def test_every_transposition_matches_oracle(self, label):
        # every value, not only the minimum, on non-abelian products, on the
        # tables that prime_stability_verify scores, and on a transport
        # that moves the identity off 0
        base = cd.make_group(cd.GroupKind.parse(label))
        moved = cd.transport(base, random_permutation(base.n, random.Random(label)))
        assert moved.identity != 0
        for t in (base, moved):
            us, vs = np.triu_indices(t.n, k=1)
            expected = [
                oracle_mf(cd.Permutation.transposition(t.n, u, v), t, t)
                for u, v in zip(us.tolist(), vs.tolist())
            ]
            assert metric._transposition_mf(t, us, vs).tolist() == expected

    @pytest.mark.parametrize("label", ["cyclic:61", "cyclic:101", "dihedral:50", "dihedral:51"])
    def test_large_order_equals_delta0(self, label):
        t = cd.make_group(cd.GroupKind.parse(label))
        value, witness = cd.min_transposition_mf(t)
        assert value == cd.delta0(t)
        assert cd.dist(t, cd.transport(t, witness)).total == value


class TestEstimates:
    @pytest.mark.parametrize("n,m,expected", [(11, 3, 33), (13, 4, 52), (31, 3, 154)])
    def test_estim1(self, n, m, expected):
        assert estim1_bound(n, m) == expected

    def test_estim2_examples(self):
        assert cd.estim2_bounds(13, 5, 3) == (54, None)
        assert cd.estim2_bounds(13, 5, 3)[0] == 8 * 13 - 50
        b1, b2 = cd.estim2_bounds(19, 4, 3)
        assert b1 == 93 == 7 * 19 - 40 and b2 is None

    def test_estim2_degenerate_l(self):
        for n, m in [(11, 3), (17, 5), (23, 4)]:
            b1, _ = cd.estim2_bounds(n, m, 0)
            assert b1 == (n - 1) * m

    def test_estim2_l_bounds(self):
        with pytest.raises(InputError):
            cd.estim2_bounds(11, 3, 4)


class TestMaxDisjointSubset:
    def test_power_positions_m5(self):
        z11 = cyclic(11)
        disagree = [1, 3, 5, 7, 9]  # powers of h=1 with i0 > 0
        Y = max_disjoint_subset(z11, 1, disagree)
        assert len(Y) >= 3
        assert {z11.cells[1][y] for y in Y}.isdisjoint(Y)

    def test_adjacent_pairs_cap_at_two(self):
        z11 = cyclic(11)
        Y = max_disjoint_subset(z11, 1, [1, 2, 5, 6])
        assert len(Y) == 2

    def test_singleton(self, z7):
        assert max_disjoint_subset(z7, 1, [3]) == [3]

    @pytest.mark.parametrize("h", [7, -1, 5])
    def test_h_not_an_element(self, z5, h):
        with pytest.raises(InputError, match=rf"^element {h} outside 0\.\.4$"):
            max_disjoint_subset(z5, h, (1, 2))

    @pytest.mark.parametrize("h,disagree", [(1.5, (1, 2)), (1, (1.5,))])
    def test_element_not_an_integer(self, z5, h, disagree):
        with pytest.raises(InputError, match=r"^element 1\.5 is not an integer$"):
            max_disjoint_subset(z5, h, disagree)

    def test_exhaustive_against_oracle(self):
        z11 = cyclic(11)
        rng = random.Random(6)
        from itertools import combinations

        for _ in range(40):
            disagree = rng.sample(range(11), 5)
            Y = max_disjoint_subset(z11, 1, disagree)
            best = 0
            for size in range(1, 6):
                for sub in combinations(sorted(disagree), size):
                    if {(1 + y) % 11 for y in sub}.isdisjoint(sub):
                        best = max(best, size)
            assert len(Y) == best

    def test_any_five_powers_allow_three(self):
        # the m = 5 exclusion relies on a guaranteed 3-element subset
        from itertools import combinations

        z11 = cyclic(11)
        for pos in combinations(range(1, 11), 5):
            assert len(max_disjoint_subset(z11, 1, list(pos))) >= 3

    @pytest.mark.parametrize("p", [11, 13])
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_least_over_all_positions_is_the_derived_l(self, p, m):
        # the l of analytic_lower_bound is exactly the guaranteed size: the
        # least max_disjoint_subset over every m-subset of 1..p-1
        z = cyclic(p)
        least = min(
            len(max_disjoint_subset(z, 1, pos))
            for pos in itertools.combinations(range(1, p), m)
        )
        assert least == -(-m // 2)
        names = [name for name, _ in cd.analytic_lower_bound(p, m).bounds]
        assert f"disjoint_pairs_l{least}" in names


class TestAnalyticBounds:
    def test_p13_m5_excluded_by_row_floor(self):
        rep = cd.analytic_lower_bound(13, 5)
        assert rep.best == 60 == 6 * 13 - 18
        assert rep.excluded

    def test_p37_m3_corollary_value(self):
        rep = cd.analytic_lower_bound(37, 3)
        values = dict(rep.bounds)
        assert values["disjoint_pairs_quarter_l2"] == 224
        assert rep.excluded and rep.best >= 6 * 37 - 18 == 204

    def test_p11_m4_not_excluded(self):
        rep = cd.analytic_lower_bound(11, 4)
        assert dict(rep.bounds)["disjoint_pairs_l2"] == 6 * 11 - 28 == 38
        assert rep.best == 40 < 48  # the row floor wins but stays below 6p-18
        assert not rep.excluded

    def test_four_adjacent_positions_allow_two(self):
        # positions 1..4 under h = 1 give l = 2 at every prime, so l = 3
        # is not guaranteed at m = 4, and l = 2 leaves p = 23 at 118 < 120.
        for p in (11, 13, 17, 19, 23, 29, 31):
            assert len(max_disjoint_subset(cyclic(p), 1, (1, 2, 3, 4))) == 2
        assert max(v for v in cd.estim2_bounds(23, 4, 2) if v is not None) == 118

    @pytest.mark.parametrize("p,best", [(29, 170), (31, 186)])
    def test_m4_excluded_with_two_disjoint(self, p, best):
        bounds = [4 * (p - 1), *cd.estim2_bounds(p, 4, 2)]
        assert max(bounds) == best >= 6 * p - 18

    def test_best_is_max(self):
        for p in (11, 13, 31, 101):
            for m in (3, 4, 5, 6):
                rep = cd.analytic_lower_bound(p, m)
                assert rep.best == max(v for _, v in rep.bounds)
                assert rep.excluded == (rep.best >= 6 * p - 18)

    @pytest.mark.parametrize("r", [1, 5, 7, 11])
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_bounds_exclude_every_m_above_31(self, m, r):
        # The proof that verify needs no search from p = 37 up.  On the
        # primes p = r mod 12, ceil(p/4) = (p + a)/4 and ceil(p/3) = (p + b)/3,
        # so D(p) = disjoint_pairs_quarter_l{l} - (6p - 18) is a quadratic
        # c2 p^2 + c1 p + c0.  With c2 > 0, its vertex at or below p0,
        # D(p0) >= 0 and ceil(p0/4) - 2l >= 0, the bound applies and reaches
        # 6p - 18 at every p >= p0 in the class.  The row floor m(p - 1)
        # already does for m >= 6.
        l = (m + 1) // 2
        a, b = -r % 4, -r % 3
        q4, q3 = (Fraction(a, 4), Fraction(1, 4)), (Fraction(b, 3), Fraction(1, 3))
        # l(p - m) + (q4 - 2l) q3 + (p - q4 - 1) m - (6p - 18), q = (constant, slope)
        c2 = q4[1] * q3[1]
        c1 = l + (q4[0] - 2 * l) * q3[1] + q4[1] * q3[0] + (1 - q4[1]) * m - 6
        c0 = -l * m + (q4[0] - 2 * l) * q3[0] - (q4[0] + 1) * m + 18
        D = lambda p: c2 * p * p + c1 * p + c0
        p0 = next(p for p in itertools.count(37) if p % 12 == r)
        assert c2 > 0 and -c1 / (2 * c2) <= p0 and D(p0) >= 0
        assert (p0 + a) // 4 - 2 * l >= 0
        # the algebra is the code's: D is the bound's margin at every prime
        for p in filter(cd.is_prime, range(p0, 1000, 12)):
            bounds = dict(cd.analytic_lower_bound(p, m).bounds)
            assert bounds[f"disjoint_pairs_quarter_l{l}"] - (6 * p - 18) == D(p)

    # Over the 9! maps phi of Z_11 with phi(0) = 0 and phi(1) = 1, by least
    # non-identity row distance m: (maps with that least row, least total
    # distance among them, maps at that distance).
    PREMISE_AT_11 = {
        0: (1, 0, 1),
        3: (780, 48, 40),
        4: (1295, 58, 10),
        5: (13090, 62, 10),
        6: (48500, 66, 5),
        7: (126105, 71, 20),
        8: (136680, 80, 4),
        9: (34435, 90, 203),
        10: (1994, 100, 1994),
    }

    def test_premise_holds_on_every_table_at_11(self):
        # The bounds' premise, checked on every table on Z_11 that shares
        # its identity 0.  Each is the transport of Z_11 by one phi with
        # phi(0) = 0 and phi(1) = 1 (compose with x -> kx, an automorphism,
        # to fix phi(1)).  Row phi(u) of the transport differs from Z_11's
        # at the v with phi(u + v) != phi(u) + phi(v), never at u = 0 or
        # v = 0.  The maps go in chunks of 8!, one per phi(2), each phi in a
        # uint8 row.
        p = 11
        tail = np.array(list(itertools.permutations(range(p - 3))))
        u = np.arange(1, p)
        least_rows, totals, sample = [], [], []
        rng = random.Random(11)
        for second in range(2, p):
            phi = np.empty((len(tail), p), dtype=np.uint8)
            phi[:, :3] = 0, 1, second
            phi[:, 3:] = np.array([v for v in range(2, p) if v != second])[tail]
            left = phi[:, (u[:, None] + u) % p]
            right = (phi[:, u, None] + phi[:, None, u]) % p
            rows = np.add.reduce(left != right, 2)  # (maps, rows u = 1..p-1)
            least_rows.append(rows.min(1))
            totals.append(rows.sum(1))
            for i in rng.sample(range(len(phi)), 4):
                sample.append((phi[i], int(least_rows[-1][i]), int(totals[-1][i])))
        least_row, total = np.concatenate(least_rows), np.concatenate(totals)
        found = {}
        for m in np.unique(least_row).tolist():
            at_m = total[least_row == m]
            found[m] = (len(at_m), int(at_m.min()), int((at_m == at_m.min()).sum()))
        assert found == self.PREMISE_AT_11
        for m in range(3, p):
            assert cd.analytic_lower_bound(p, m).best <= found[m][1]
        # the mask against the library's distances
        z = cyclic(p)
        for phi, row_min, distance in sample:
            f = cd.Permutation(tuple(phi.tolist()))
            d = cd.dist(z, cd.transport(z, f))
            assert (d.m, d.total) == (row_min, distance)
            assert cd.hom_distance(f, z, z) == distance

    def test_errors(self):
        with pytest.raises(NotPrime):
            cd.analytic_lower_bound(15, 3)
        with pytest.raises(NotPrime):
            cd.analytic_lower_bound(7, 3)
        with pytest.raises(MTooSmall):
            cd.analytic_lower_bound(11, 2)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: cd.analytic_lower_bound(11.0, 3), NotPrime, "need a prime greater than 7, got 11.0"),
            (lambda: cd.analytic_lower_bound(11, 3.0), InputError, "m = 3.0 is not an integer"),
            (lambda: cd.estim2_bounds(13.0, 3, 1), InputError, "n = 13.0 is not an integer"),
            (lambda: cd.estim2_bounds(13, 3.5, 1), InputError, "m = 3.5 is not an integer"),
            (lambda: cd.estim2_bounds(13, 3, 1.0), InputError, "l = 1.0 is not an integer"),
        ],
        ids=["bound_p", "bound_m", "estim2_n", "estim2_m", "estim2_l"],
    )
    def test_parameter_not_an_integer(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

    def test_m_above_p_minus_one(self):
        assert cd.analytic_lower_bound(11, 10).bounds[0] == ("row_floor", 100)
        with pytest.raises(InputError, match=r"^m = 11 exceeds p - 1 = 10 at p = 11$"):
            cd.analytic_lower_bound(11, 11)
        with pytest.raises(InputError, match=r"^m = 40 exceeds p - 1 = 10 at p = 11$"):
            cd.analytic_lower_bound(11, 40)


class TestCheckLemmas:
    def test_paper_pair_clean(self, z7, paper_f7):
        assert cd.check_lemmas(z7, cd.transport(z7, paper_f7)) == []

    def test_self_pair_clean(self):
        for t in [cyclic(9), dihedral(4)]:
            assert cd.check_lemmas(t, t) == []

    def test_random_z9_transports_clean(self):
        z9 = cyclic(9)
        rng = random.Random(99)
        for _ in range(200):
            moved = cd.transport(z9, random_permutation(9, rng))
            assert cd.check_lemmas(z9, moved) == []
            prof = cd.dist(z9, moved)
            assert all(d not in (1, 2) for d in prof.row)

    def test_dimension_mismatch(self, z5, z7):
        with pytest.raises(DimensionMismatch, match=r"^orders differ: 5 vs 7$"):
            cd.check_lemmas(z5, z7)

    @pytest.mark.parametrize("n,k", [(7, 2), (10, 3), (6, 2), (9, 3)])
    def test_triple_sum_scan_skip_boundary(self, n, k):
        # Every row differs in exactly k cells, so every triple sum is 3k:
        # at 3k = n - 1 each mismatch violates the triple-sum lemma, and at
        # 3k = n, where check_lemmas skips the scan, none does.
        rng = random.Random(n)
        for _ in range(10):
            a, b = _k_cells_per_row(n, k, rng)
            violations = cd.check_lemmas(a, b)
            assert violations == oracle_check_lemmas(a, b)
            low = [v.witness for v in violations if v.name == "row_triple_sum"]
            cells = [(x, y) for x in range(n) for y in range(n) if a.cells[x][y] != b.cells[x][y]]
            assert len(cells) == n * k
            assert [(w["a"], w["b"]) for w in low] == (cells if 3 * k < n else [])

    def test_agreement_set_is_subgroup(self):
        rng = random.Random(17)
        for n in (9, 11):
            t = cyclic(n)
            for _ in range(100):
                moved = cd.transport(t, random_permutation(n, rng))
                prof = cd.dist(t, moved)
                if t.identity != moved.identity:
                    continue
                H = set(prof.agreement)
                assert t.identity in H
                assert all(t.cells[x][y] in H for x in H for y in H)
                assert all(t.inverse(x) in H for x in H)


PAIR_KINDS = ("cyclic:9", "dihedral:5", "cyclic:11", "cyclic:13")


def _seeded_maps(t: cd.GroupTable, rng: random.Random, count: int):
    """Random permutations of t's elements, alternating with a random
    transposition or 3-cycle, as the pair checks draw them."""
    for i in range(count):
        if i % 2:
            yield random_permutation(t.n, rng)
        else:
            yield cd.Permutation.from_cycles(t.n, [rng.sample(range(t.n), rng.choice((2, 3)))])


def _identity_to(t: cd.GroupTable, e: int, rng: random.Random) -> cd.Permutation:
    """A random permutation of t's elements that sends t's identity to e."""
    img = list(random_permutation(t.n, rng).image)
    i = img.index(e)
    img[i], img[t.identity] = img[t.identity], e
    return cd.Permutation(tuple(img))


def _profile(prof: cd.DistanceProfile) -> tuple:
    return prof.total, prof.row, prof.m, prof.agreement


def _perturbed_pair(n: int, rng: random.Random) -> tuple[cd.GroupTable, cd.GroupTable]:
    """A random table (not a group) and a copy with a few cells changed,
    so row distances 1 and 2 and small triple sums are common."""
    cells = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    other = [row[:] for row in cells]
    for _ in range(rng.randrange(1, 2 * n)):
        other[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    e = rng.randrange(n)
    f = e if rng.random() < 0.5 else rng.randrange(n)
    return (
        cd.GroupTable(n, tuple(map(tuple, cells)), e),
        cd.GroupTable(n, tuple(map(tuple, other)), f),
    )


def _k_cells_per_row(n: int, k: int, rng: random.Random) -> tuple[cd.GroupTable, cd.GroupTable]:
    """A random table (not a group) and a copy with exactly k cells of
    every row changed, both with identity 0."""
    cells = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    other = [row[:] for row in cells]
    for row in other:
        for y in rng.sample(range(n), k):
            row[y] = (row[y] + rng.randrange(1, n)) % n
    return cd.GroupTable(n, cells, 0), cd.GroupTable(n, other, 0)


class TestKernelsAgainstOracles:
    """transport, dist, hom_distance and check_lemmas against the
    cell-by-cell oracles of conftest."""

    @pytest.mark.parametrize("label", PAIR_KINDS)
    def test_seeded_transports(self, label):
        t = cd.make_group(cd.GroupKind.parse(label))
        rng = random.Random(label)
        for f in _seeded_maps(t, rng, 60):
            moved = cd.transport(t, f)
            expected = oracle_transport(t, f)
            assert moved == expected and moved.identity == expected.identity
            prof = cd.dist(t, moved)
            assert prof.row == tuple(oracle_row_dist(t, moved, g) for g in range(t.n))
            assert prof.total == oracle_dist(t, moved)
            assert _profile(prof) == oracle_profile(t, moved)
            assert cd.hom_distance(f, t, t) == oracle_mf(f, t, t) == prof.total
            assert cd.hom_distance(f, t, moved) == 0
            assert cd.check_lemmas(t, moved) == oracle_check_lemmas(t, moved) == []

    @pytest.mark.parametrize(
        "source,target",
        [("cyclic:9", "cyclic:3"), ("cyclic:13", "dihedral:5"), ("dihedral:5", "cyclic:9"), ("cyclic:11", "cyclic:11")],
    )
    def test_non_bijective_maps(self, source, target):
        h = cd.make_group(cd.GroupKind.parse(source))
        k = cd.make_group(cd.GroupKind.parse(target))
        rng = random.Random(source + target)
        for _ in range(50):
            img = [rng.randrange(k.n) for _ in range(h.n)]
            assert cd.hom_distance(img, h, k) == oracle_mf(img, h, k)
            assert cd.hom_distance(tuple(img), h, k) == oracle_mf(img, h, k)
        if source == "cyclic:9":  # reduction mod 3 is a homomorphism
            assert cd.hom_distance([a % 3 for a in range(9)], h, k) == 0

    def test_non_group_pairs_with_many_violations(self):
        rng = random.Random(2024)
        seen = set()
        for n in (5, 6, 7, 9, 10, 11, 13):
            for _ in range(60):
                a, b = _perturbed_pair(n, rng)
                violations = cd.check_lemmas(a, b)
                assert violations == oracle_check_lemmas(a, b)
                seen.update(v.name for v in violations)
                prof = cd.dist(a, b)
                assert prof.row == tuple(oracle_row_dist(a, b, g) for g in range(n))
                assert _profile(prof) == oracle_profile(a, b)
                f = random_permutation(n, rng)
                assert cd.transport(a, f) == oracle_transport(a, f)
                assert cd.hom_distance(f, a, b) == oracle_mf(f, a, b)
        assert seen == {"row_distance_one", "row_distance_two", "row_triple_sum", "identity_mismatch"}

    @pytest.mark.parametrize("label", PAIR_KINDS)
    def test_profile_with_the_identity_anywhere(self, label):
        # m skips the identity's row, wherever the transports put it
        t = cd.make_group(cd.GroupKind.parse(label))
        rng = random.Random(label)
        for e in (0, t.n // 2, t.n - 1):
            for _ in range(20):
                a = cd.transport(t, _identity_to(t, e, rng))
                b = cd.transport(t, _identity_to(t, e, rng))
                assert a.identity == b.identity == e
                prof = cd.dist(a, b)
                assert prof.m is not None and _profile(prof) == oracle_profile(a, b)
                other = cd.transport(t, _identity_to(t, (e + 1) % t.n, rng))
                for x, y in ((a, other), (other, a)):
                    prof = cd.dist(x, y)
                    assert prof.m is None and _profile(prof) == oracle_profile(x, y)

    @pytest.mark.parametrize("n", [1, 2])
    def test_profile_at_orders_one_and_two(self, n):
        t = cyclic(n)
        ms = set()
        for img in itertools.permutations(range(n)):
            moved = cd.transport(t, cd.Permutation(img))
            for a, b in ((t, moved), (moved, t), (moved, moved)):
                prof = cd.dist(a, b)
                assert _profile(prof) == oracle_profile(a, b)
                ms.add(prof.m)
        # Z_1 has no row but the identity's; Z_2 swapped moves its identity.
        assert ms == ({0} if n == 1 else {0, None})

    def test_check_lemmas_at_eight_rejects_a_non_group(self):
        # are_isomorphic walks element orders, which never reach the identity here
        a = cd.GroupTable(8, ((0,) * 8,) * 8, 1)
        b = cd.GroupTable(8, ((0,) * 8,) * 8, 2)
        with pytest.raises(InputError):
            cd.check_lemmas(a, b)


def test_estim2_monotone_in_m():
    for n in (11, 19, 31, 97):
        for l in (0, 1, 2, 3):
            prev = None
            for m in range(l, 12):
                b1, b2 = cd.estim2_bounds(n, m, l)
                if prev is not None:
                    assert b1 >= prev[0]
                    if prev[1] is not None and b2 is not None:
                        assert b2 >= prev[1]
                prev = (b1, b2)
