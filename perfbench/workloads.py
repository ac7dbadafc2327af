"""The four benchmark workloads.

Each workload makes its inputs from the seed (set-up, untimed), runs one
repetition of fixed work through the public library API (timed), and
checks the outputs of that repetition (untimed).  Every library call goes
through a module attribute (`cd.dist`, `search.brute_delta`, ...) looked
up at call time, so the traced run's wrappers see it.

Why each workload exists, and which layers it stresses and bypasses, is
written down in perfbench/README.md.
"""

from __future__ import annotations

import random
from math import comb

import cayleydist as cd
from cayleydist import search
from cayleydist.errors import InputError, NotAssociative

# all_group_tables is replaced by a wrapper in traced repetitions; the
# cache lives on the original.
_all_group_tables = search.all_group_tables


class Tally:
    """Correctness checks attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str, *detail) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{what} {detail}")


# Counts read from the returned verification reports (MCase).
REPORT_COUNTS = (
    "search.patterns_enumerated",
    "search.candidates_completing",
    "search.distance_cells",
)


class Workload:
    """Defaults for workloads without a cache to reset or reports to count."""

    def before_rep(self) -> None:
        pass

    def report_counts(self, out) -> dict[str, int]:
        return dict.fromkeys(REPORT_COUNTS, 0)


def _random_permutation(n: int, rng: random.Random) -> cd.Permutation:
    img = list(range(n))
    rng.shuffle(img)
    return cd.Permutation(tuple(img))


class PrimeSweep(Workload):
    """The paper's proof: delta(Z_p) = 6p - 18 by exhaustive pattern search."""

    FIXED_H = (11, 13, 17, 19, 23, 29, 31)
    ALL_ROWS = (11, 13, 17, 19, 23)

    def make_inputs(self, seed: int):
        # Fixed inputs: the seed is ignored.
        runs = [(p, False) for p in self.FIXED_H] + [(p, True) for p in self.ALL_ROWS]
        bases = {p: cd.make_group(cd.GroupKind.cyclic(p)) for p, _ in runs}
        return runs, bases

    def run(self, inputs):
        runs, _ = inputs
        return [(p, all_rows, cd.prime_stability_verify(p, all_rows=all_rows)) for p, all_rows in runs]

    def check(self, inputs, out, tally: Tally) -> None:
        _, bases = inputs
        for p, all_rows, report in out:
            tally.check(report.delta == 6 * p - 18, "delta", p, all_rows, report.delta)
            tally.check(report.theorem_confirmed(), "theorem_confirmed", p, all_rows)
            rows = p - 1 if all_rows else 1
            for case in report.m_cases:
                per_row = 2 * comb(p - 1, 3) if case.m == 3 else comb(p - 1, 4)
                tally.check(
                    case.candidates_enumerated == per_row * rows,
                    "candidates_enumerated", p, all_rows, case.m, case.candidates_enumerated,
                )
                tally.check(
                    case.witness is not None
                    and _slow_witness_distance(bases[p], case.witness) == case.min_distance,
                    "witness distance", p, all_rows, case.m, case.min_distance,
                )

    def report_counts(self, out) -> dict[str, int]:
        enumerated = completing = cells = 0
        for p, _, report in out:
            for case in report.m_cases:
                enumerated += case.candidates_enumerated
                completing += case.candidates_completing
                cells += case.candidates_completing * p * p
        return dict(zip(REPORT_COUNTS, (enumerated, completing, cells)))


def _slow_witness_distance(base: cd.GroupTable, witness: cd.PatternMod) -> int:
    """The witness's distance by the slow path: rebuild and validate the table."""
    row = cd.apply_pattern(witness, base)
    return cd.dist(base, cd.complete_from_row(base, witness.h, row)).total


class Oracle(Workload):
    """Brute-force delta / mu / nu over every group table of order <= 8."""

    def make_inputs(self, seed: int):
        # Fixed inputs: the seed is ignored.
        brute = [
            (n, scope)
            for n in range(2, 9)
            for scope in (("all",) if cd.is_prime(n) else ("all", "mu", "nu"))
        ]
        kinds = [(kind, scope) for kind in cd.groups_of_order(8) for scope in ("mu", "nu")]
        return brute, kinds

    def before_rep(self) -> None:
        # Every `cayleydist oracle` process builds the tables from scratch.
        _all_group_tables.cache_clear()

    def run(self, inputs):
        brute, kinds = inputs
        return (
            {(n, scope): search.brute_delta(n, scope, allow_slow=True) for n, scope in brute},
            {(k.label(), scope): search.kind_stability(k, scope, allow_slow=True) for k, scope in kinds},
        )

    def check(self, inputs, out, tally: Tally) -> None:
        brute, kinds = out
        for n, expected in {2: 4, 3: 9, 5: 12, 7: 18}.items():
            tally.check(brute[(n, "all")][0] == expected, "delta(Z_n)", n, brute[(n, "all")][0])
        tally.check(brute[(4, "nu")][0] == 4, "nu order 4", brute[(4, "nu")][0])
        tally.check(kinds[("e2:3", "nu")][0] == 16, "nu(E_8)", kinds[("e2:3", "nu")][0])
        tally.check(brute[(8, "mu")][0] >= brute[(8, "nu")][0], "mu >= nu at order 8")
        for kind in cd.groups_of_order(8):
            mu, nu = kinds[(kind.label(), "mu")][0], kinds[(kind.label(), "nu")][0]
            tally.check(mu >= nu, "mu >= nu", kind.label(), mu, nu)
        for key, (value, (a, b)) in [*brute.items(), *kinds.items()]:
            tally.check(cd.dist(a, b).total == value, "witness pair distance", key, value)


class PairChecks(Workload):
    """Many small transport / dist / check_lemmas / hom_distance calls."""

    BASES = ("cyclic:9", "dihedral:5", "cyclic:11", "cyclic:13")
    PAIRS = 10_000

    def make_inputs(self, seed: int):
        rng = random.Random(seed)
        bases = [cd.make_group(cd.GroupKind.parse(label)) for label in self.BASES]
        pairs = []
        for i in range(self.PAIRS):
            base = bases[(i // 2) % len(bases)]
            if i % 2:  # far: a random permutation
                f = _random_permutation(base.n, rng)
            else:  # near: a random transposition or 3-cycle
                cycle = rng.sample(range(base.n), rng.choice((2, 3)))
                f = cd.Permutation.from_cycles(base.n, [cycle])
            pairs.append((base, f))
        return pairs

    def run(self, pairs):
        out = []
        for base, f in pairs:
            moved = cd.transport(base, f)
            out.append((cd.dist(base, moved), cd.check_lemmas(base, moved), cd.hom_distance(f, base, base)))
        return out

    def check(self, pairs, out, tally: Tally) -> None:
        for (base, f), (prof, violations, hom) in zip(pairs, out):
            tally.check(violations == [], "check_lemmas", base.n, f.image, violations)
            tally.check(prof.total == hom, "dist == hom_distance", base.n, f.image)
            agree = set(prof.agreement)
            tally.check(
                all(base.cells[g][h] in agree for g in agree for h in agree),
                "agreement set closed", base.n, f.image,
            )


class LargeOrder(Workload):
    """Few large calls: O(n^3) validation and the O(n^4) transposition scan."""

    GROUPS = ("cyclic:61", "cyclic:101", "dihedral:50", "dihedral:51")
    SWITCHED_ORDER = 100

    def make_inputs(self, seed: int):
        rng = random.Random(seed)
        cases = []
        for label in self.GROUPS:
            base = cd.make_group(cd.GroupKind.parse(label))
            f = _random_permutation(base.n, rng)
            cells = [list(row) for row in cd.transport(base, f).cells]
            cases.append((label, base, f, cells))
        # Z_100 with one intercalate switched: rows a, a+50 and columns
        # b, b+50 hold a 2x2 Latin subsquare; swapping it keeps the Latin
        # property and the identity 0 but breaks associativity.
        n, half = self.SWITCHED_ORDER, self.SWITCHED_ORDER // 2
        switched = [[(x + y) % n for y in range(n)] for x in range(n)]
        a, b = rng.randrange(1, half), rng.randrange(1, half)
        for x in (a, a + half):
            switched[x][b], switched[x][b + half] = switched[x][b + half], switched[x][b]
        return cases, switched

    def run(self, inputs):
        cases, switched = inputs
        out = []
        for label, base, _, cells in cases:
            validated = cd.validate_table(cells)
            value, witness = cd.min_transposition_mf(base)
            moved = cd.transport(base, witness)
            out.append(
                (
                    validated,
                    value,
                    cd.delta0(base),
                    moved,
                    cd.reconstruct_isomorphism(base, moved),
                    cd.dist(base, moved),
                )
            )
        try:
            cd.validate_table(switched)
        except InputError as exc:
            raised = type(exc)
        else:
            raised = None
        return out, raised

    def check(self, inputs, out, tally: Tally) -> None:
        cases, _ = inputs
        results, raised = out
        for (label, base, f, cells), (validated, value, d0, moved, iso, prof) in zip(cases, results):
            tally.check(value == d0, "min_transposition_mf == delta0", label, value, d0)
            tally.check(validated.identity == f(base.identity), "transport identity", label)
            tally.check(validated.cells == tuple(map(tuple, cells)), "validated cells", label)
            tally.check(cd.hom_distance(iso, base, moved) == 0, "reconstructed map", label)
            tally.check(prof.total == value, "dist of witness transport == m_f", label, prof.total)
        tally.check(raised is NotAssociative, "switched intercalate", raised)


WORKLOADS = {
    "prime_sweep": PrimeSweep,
    "oracle": Oracle,
    "pair_checks": PairChecks,
    "large_order": LargeOrder,
}
