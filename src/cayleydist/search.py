"""Exhaustive verification engines.

Two kinds of machinery live here: the single-row pattern search that pins
down the stability of prime-order cyclic groups at every prime p > 7, and the
small-order brute-force oracle that enumerates every group table on
{0..n-1} by transporting each catalog group G through one permutation per
coset of Aut(G).

Whether a pattern completes to a group depends on its rearrangement
alone (see _piece_order), so the search counts the family by formula and
scores only the completing rearrangements.  It scores one pattern of each
reflection pair: x -> -x is an automorphism of Z_p that maps a pattern to
a partner at the reflected positions, which completes with it and lies at
the same distance.  x -> hx is an automorphism of Z_p that carries row 1's
search to the row of h, so a search over several rows scores row 1's
patterns once and counts them once per row; the witness is always row 1's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import InputError, NotPCycle, NuUndefinedForPrime, OrderTooLarge, UnsupportedM
from .group_core import (
    MAX_BRUTE_ORDER,
    GroupKind,
    GroupTable,
    Permutation,
    automorphisms,
    check_element,
    check_integer,
    groups_of_order,
    is_prime,
    make_group,
    validate_table,
)
from .metric import BoundReport, analytic_lower_bound, check_prime_above_7, min_transposition_mf

# Position tuples per block of the array search.  Bounds its working
# memory, the (p(p-1)/2, block) arrays of the distance kernel for each
# completing rearrangement, to about 1.3 MiB at p = 31 (traced).
_BLOCK = 1024

# The largest p the pattern search takes.  Its uint8 positions and phi,
# the int64 keys of _pattern_table and the uint8/uint16 arithmetic of
# _phi_distances are all exact up to it (2(p - 1) <= 255).
_MAX_SEARCH_P = 127

# Coset representatives per block of all_group_tables.  Bounds its
# temporaries, the (block, n*n) tables, gather index and mismatch mask, to
# well under 1 MiB at n = 8, beside the coset representatives it keeps.
_TABLE_BLOCK = 1024

SCOPE_ALIASES = {
    "all": "all",
    "mu": "mu",
    "isomorphic_only": "mu",
    "nu": "nu",
    "nonisomorphic_only": "nu",
}


@dataclass(frozen=True)
class PatternMod:
    """A single-row modification candidate.

    positions are exponents 0 < i0 < ... < i_{m-1} < p of the base row
    element h; the rearrangement permutes the row values at those power
    positions and is stored as cycles on the exponents.
    """

    p: int
    h: int
    m: int
    positions: tuple[int, ...]
    rearrangement: tuple[tuple[int, ...], ...]

    def to_dict(self) -> dict:
        return {
            "h": self.h,
            "m": self.m,
            "positions": list(self.positions),
            "rearrangement": [list(c) for c in self.rearrangement],
        }


@dataclass(frozen=True)
class MCase:
    m: int
    candidates_enumerated: int
    candidates_completing: int
    min_distance: Optional[int]
    witness: Optional[PatternMod]

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "candidates_enumerated": self.candidates_enumerated,
            "candidates_completing_to_group": self.candidates_completing,
            "min_distance_found": self.min_distance,
            "witness": self.witness.to_dict() if self.witness else None,
        }


@dataclass(frozen=True)
class VerificationReport:
    p: int
    rows_searched: str
    m_cases: tuple[MCase, ...]
    analytic_exclusions: tuple[BoundReport, ...]
    threshold: int
    delta: int
    transposition_witness: Permutation

    def searched_minimum(self) -> Optional[int]:
        mins = [c.min_distance for c in self.m_cases if c.min_distance is not None]
        return min(mins) if mins else None

    def theorem_confirmed(self) -> bool:
        if not all(b.excluded for b in self.analytic_exclusions):
            return False
        smin = self.searched_minimum()
        return self.delta == self.threshold and (smin is None or smin >= self.threshold)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "rows_searched": self.rows_searched,
            "m_cases": [c.to_dict() for c in self.m_cases],
            "analytic_exclusions": [b.to_dict() for b in self.analytic_exclusions],
            "threshold": self.threshold,
            "delta": self.delta,
            "transposition_witness": list(self.transposition_witness.image),
            "theorem_confirmed": self.theorem_confirmed(),
        }


# The rearrangements tried at each m, as "next slot" rows: slot j of the
# position tuple takes the row value found at slot nxt[j].  Their order is
# the enumeration order within one position tuple.  m = 3 gets both
# 3-cycles: (1, 2, 0) completes at every position tuple and (2, 0, 1) at
# none (see _piece_order), and the second stays so that
# candidates_enumerated keeps counting the superset.  m = 4 gets the forced
# double transposition (i0 i2)(i1 i3), which always completes.  Each row
# equals its own reflection rho nxt^-1 rho, rho(k) = m-1-k, which
# _pattern_table's reflection quotient relies on.
REARRANGEMENTS: dict[int, tuple[tuple[int, ...], ...]] = {
    3: ((1, 2, 0), (2, 0, 1)),
    4: ((2, 3, 0, 1),),
}


def _pattern(
    p: int, h: int, positions: tuple[int, ...], nxt: Sequence[int]
) -> PatternMod:
    """The PatternMod that moves positions by the next-slot row nxt."""
    cycles = Permutation(tuple(nxt)).cycles()
    rearrangement = tuple(tuple(positions[j] for j in cyc) for cyc in cycles)
    return PatternMod(p, h, len(positions), positions, rearrangement)


def enumerate_patterns(p: int, m: int, h: int = 1) -> Iterator[PatternMod]:
    """All candidate patterns in lexicographic position order, each
    position tuple with every rearrangement of REARRANGEMENTS[m].

    This is the readable reference for the order and the content of the
    family; prime_stability_verify counts every one of these patterns but
    scores only the completing ones, and of those only the first of each
    reflection pair (see _search_m).
    """
    if m not in REARRANGEMENTS:
        supported = ", ".join(map(str, sorted(REARRANGEMENTS)))
        raise UnsupportedM(f"pattern search supports m in {{{supported}}}, got {m}")
    p = check_prime_above_7(p)
    h = check_integer(h, "row h")
    if not 1 <= h < p:
        raise InputError(f"row h must be in 1..{p - 1}, got {h}")
    for pos in itertools.combinations(range(1, p), m):
        for nxt in REARRANGEMENTS[m]:
            yield _pattern(p, h, pos, nxt)


def apply_pattern(pattern: PatternMod, base: GroupTable) -> Permutation:
    """The modified row of h: base row with values rearranged at the
    power positions h^{i_j} per the pattern's cycles."""
    if base.n != pattern.p:
        raise InputError(f"table order {base.n} != pattern order {pattern.p}")
    h = pattern.h
    pi = base.array[h].tolist()
    times_h = base.array[:, h].tolist()
    elem_of_exp = {}
    x = base.identity
    for k in range(pattern.p):
        elem_of_exp[k] = x
        x = times_h[x]
    sigma = list(pi)
    for cyc in pattern.rearrangement:
        for idx, exp in enumerate(cyc):
            nxt = cyc[(idx + 1) % len(cyc)]
            sigma[elem_of_exp[exp]] = pi[elem_of_exp[nxt]]
    return Permutation(tuple(sigma))


def complete_from_row(
    base: GroupTable, h: int, modified_row: Permutation
) -> GroupTable:
    """Build the unique group table whose left translation by h is the
    given row, when that row is a single p-cycle.

    Works over a cyclic base of prime order: the modified row generates
    every other row as its powers.  Raises NotPCycle when the row has a
    fixed point or a shorter cycle (candidate rejected, not a bug).
    """
    p = base.n
    if not is_prime(p):
        raise InputError(f"completion requires prime order, got {p}")
    h = check_element(h, p, "h")
    if h == base.identity:
        raise InputError(f"h must be a non-identity element of 0..{p - 1}, got {h}")
    if modified_row.n != p:
        raise InputError(f"row size {modified_row.n} != order {p}")
    sigma = modified_row.image
    e = base.identity
    # Orbit of e must have length p, i.e. sigma is a single p-cycle.
    x = sigma[e]
    steps = 1
    while x != e:
        x = sigma[x]
        steps += 1
    if steps != p:
        raise NotPCycle(f"row is not a single {p}-cycle (orbit length {steps})")
    if sigma[e] != base.array.item(h, e):
        raise InputError("modified row must keep the identity column (h at column e)")
    cells: list[Optional[tuple[int, ...]]] = [None] * p
    cur = tuple(range(p))
    elem = e
    for _ in range(p):
        cells[elem] = cur
        elem = sigma[elem]
        cur = tuple(sigma[v] for v in cur)
    return validate_table([list(r) for r in cells if r is not None])


def _combinations(p: int, k: int) -> np.ndarray:
    """The k-subsets of 1..p-1 as a (C(p-1, k), k) uint8 array, in the
    lexicographic order of itertools.combinations(range(1, p), k)."""
    combos = np.zeros((1, 0), dtype=np.uint8)
    last = np.zeros(1, dtype=np.intp)  # each row's last value, 0 before the first column
    for _ in range(k):
        # A row ending in v has the children v+1, ..., p-1, in order; a row
        # ending in p-1 has none and drops out.
        children = p - 1 - last
        ends = np.cumsum(children)
        offset = np.arange(ends[-1]) - np.repeat(ends - children, children)
        last = np.repeat(last, children) + 1 + offset
        combos = np.column_stack((np.repeat(combos, children, axis=0), last.astype(np.uint8)))
    return combos


def _pattern_table(p: int, m: int) -> np.ndarray:
    """The row-1 position tuples that the search scores, one of each
    reflection pair, as an (N, m) uint8 exponent array in lexicographic
    order: the rows of _combinations(p, m) that the rule below keeps.

    x -> -x maps the row-1 pattern sigma at positions P = (i0, ..., i_{m-1})
    to N sigma^-1 N, which moves the reflected positions
    (p-1-i_{m-1}, ..., p-1-i0) by the same rearrangement, since
    rho nxt^-1 rho = nxt for each row of REARRANGEMENTS with
    rho(k) = m-1-k.  Its completion is k -> -phi(-k), so it completes with
    sigma, at the same distance.  So a tuple is kept unless its reflection
    is a lexicographically smaller tuple, which comes first and is scored
    for both.  When p-1 is in P the partner moves position 0 and is no
    pattern, so P is kept.  Scaling by h carries this to every row.

    Tuples are compared by their base-p keys sum_j i_j p^(m-1-j), which
    order them lexicographically since every entry is below p.  The key of
    the reflection is p^m - 1 less the key of P read with its digits
    reversed, and p^m < 2^63 for p <= _MAX_SEARCH_P and m <= 9.
    """
    combos = _combinations(p, m)
    weights = p ** np.arange(m - 1, -1, -1, dtype=np.int64)
    mirror_key = p**m - 1 - combos @ weights[::-1]
    return combos[(mirror_key >= combos @ weights) | (combos[:, -1] == p - 1)]


def _piece_order(nxt: Sequence[int]) -> Optional[tuple[int, ...]]:
    """The order in which sigma^k(0) visits the pieces of Z_p for a row-1
    pattern with the next-slot row nxt, or None if sigma is not a single
    p-cycle.

    Cut Z_p after each position i0 < ... < i_{m-1}: piece 0 is 0..i0,
    piece j is i_{j-1}+1..i_j, and piece m is i_{m-1}+1..p-1, empty when
    i_{m-1} = p-1.  sigma(x) = x + 1 off the positions, so sigma walks each
    piece upward and leaves the end p-1 of piece m for 0, the start of
    piece 0.  sigma(i_j) = i_{nxt[j]} + 1 jumps from the end of piece j to
    the start of piece nxt[j] + 1, or to 0 when that is an empty piece m.
    So the orbit of 0 runs through whole pieces in the order of the jump
    map J(j) = nxt[j] + 1, J(m) = 0, an empty piece m passing straight on
    to piece 0.  J is a bijection of 0..m, so the orbit returns to piece 0,
    and it covers Z_p, that is sigma is a p-cycle, exactly when it visits
    all m + 1 pieces: pieces 0..m-1 are nonempty, and an empty piece m is
    J of a piece the orbit visits.  This depends on nxt alone, not on the
    positions or on p.
    """
    jump = [r + 1 for r in nxt] + [0]
    order = [0]
    while jump[order[-1]] != 0:
        order.append(jump[order[-1]])
    return tuple(order) if len(order) == len(jump) else None


def _phi_block(p: int, positions: np.ndarray, order: tuple[int, ...]) -> np.ndarray:
    """phi(k) = sigma^k(0) for a block of B row-1 patterns over the
    canonical Z_p, as a (p, B) uint8 array: positions is their (B, m)
    uint8 exponent array, and order the _piece_order of their
    rearrangement, which completes.  The completed table is the transport
    of Z_p by phi.

    phi lists the pieces in visit order, each as a run of consecutive
    values, so phi(k) = k + shift, where the shift of a piece is its first
    value less the number of values listed before it.  The arithmetic is
    uint8: a shift wraps mod 256, and phi(k) < p lands back in range.
    """
    b, m = positions.shape
    bounds = np.zeros((b, m + 2), dtype=np.uint8)  # piece j is bounds[j]..bounds[j+1]-1
    bounds[:, 1:-1] = positions + 1
    bounds[:, -1] = p
    lengths = np.diff(bounds, axis=1)[:, order]
    shifts = bounds[:, order] - (np.cumsum(lengths, axis=1, dtype=np.uint8) - lengths)
    phi = np.repeat(shifts.ravel(), lengths.ravel()).reshape(b, p)
    phi += np.arange(p, dtype=np.uint8)
    return np.ascontiguousarray(phi.T)


def _distance_cells(p: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The cells (x, y, (x + y) % p) that _phi_distances checks, as intp
    index arrays: first the diagonal 0 < x = y, then the pairs 0 < x < y
    of _combinations(p, 2), in lexicographic order."""
    diag = np.arange(1, p)
    x, y = _combinations(p, 2).T.astype(np.intp)
    return (diag, diag, 2 * diag % p), (x, y, (x + y) % p)


def _phi_distances(
    p: int, phi: np.ndarray, cells: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]
) -> np.ndarray:
    """Exact distance from Z_p to its transport by each column of the
    (p, B) uint8 array phi: the number of cells (x, y) with
    phi(x + y) != phi(x) + phi(y) mod p, as a (B,) intp array.

    Both sides are symmetric in x and y and agree when x or y is 0
    (phi(0) = 0), so only the cells of _distance_cells(p) are checked, and
    a pair x < y counts for two cells.  Each cell gathers whole rows of
    phi, so the working arrays are (cells, B) and the count of a pattern
    is a sum down its column.  The uint8 and uint16 arithmetic is exact for
    p <= 127: 2(p - 1) <= 255, 257 - p > p, and p(p - 1) < 2**16.
    """

    def mismatches(x: np.ndarray, y: np.ndarray, xy: np.ndarray) -> np.ndarray:
        t = phi.take(x, 0)
        t += phi.take(y, 0)  # at most 2(p - 1), so uint8 cannot wrap up
        t -= phi.take(xy, 0)  # a cell that agrees leaves 0 or p; one below
        # 0 wraps to at least 257 - p > p, so it still counts as a mismatch
        bad = (t != 0) & (t != p)
        return bad.view(np.uint8).sum(axis=0, dtype=np.uint16)

    diag, upper = cells
    return (mismatches(*diag) + 2 * mismatches(*upper)).astype(np.intp)


def _search_m(p: int, m: int, rows: int) -> MCase:
    """Search every pattern of the rows h = 1..rows by scoring each
    completing rearrangement at row 1's kept position tuples (one of each
    reflection pair) once, in enumeration order and in blocks of at most
    _BLOCK tuples.

    Whether a pattern completes depends on its rearrangement alone (see
    _piece_order), so C(p-1, m) patterns of each row complete per
    completing rearrangement.  x -> hx is an automorphism of Z_p: pattern j
    on row h completes exactly when pattern j on row 1 does, with
    phi_h = h phi_1, at the same distance.  So each row adds row 1's counts.
    Rows come in order, so the first minimizer is row 1's first minimizer.
    A partner is always later than the tuple scored for it, and blocks come
    in order, so only a strictly smaller distance replaces the first
    minimizer.  A p above _MAX_SEARCH_P is refused, since the search's
    arithmetic is exact only up to it."""
    if p > _MAX_SEARCH_P:
        raise InputError(f"the pattern search is exact only for p <= {_MAX_SEARCH_P}, got {p}")
    scored = [(nxt, o) for nxt in REARRANGEMENTS[m] if (o := _piece_order(nxt)) is not None]
    positions = _pattern_table(p, m) if scored else np.zeros((0, m), dtype=np.uint8)
    per_rearrangement = math.comb(p - 1, m) * rows
    cells = _distance_cells(p)
    min_distance: Optional[int] = None
    witness: Optional[PatternMod] = None
    for start in range(0, len(positions), _BLOCK):
        block = positions[start : start + _BLOCK]
        # (tuples, rearrangements): row-major order is enumeration order
        dvals = np.column_stack(
            [_phi_distances(p, _phi_block(p, block, order), cells) for _, order in scored]
        )
        if min_distance is None or dvals.min() < min_distance:
            j, r = divmod(int(np.argmin(dvals)), len(scored))
            min_distance = int(dvals[j, r])
            witness = _pattern(p, 1, tuple(block[j].tolist()), scored[r][0])
    return MCase(
        m=m,
        candidates_enumerated=len(REARRANGEMENTS[m]) * per_rearrangement,
        candidates_completing=len(scored) * per_rearrangement,
        min_distance=min_distance,
        witness=witness,
    )


def prime_stability_verify(p: int, all_rows: bool = False) -> VerificationReport:
    """Verify stability 6p-18 for a prime p > 7 by exhausting every
    single-row pattern not excluded by the analytic bounds; an open m with
    no pattern search is reported as not excluded, which fails the verdict.
    From p = 37 up the bounds exclude every m, so nothing is searched and
    delta is the transposition minimum.

    Only the row h = 1 is modified.  all_rows, which only the benchmark
    workloads still pass, multiplies its counts by p - 1 (see _search_m).
    """
    p = check_prime_above_7(p)
    rows = p - 1 if all_rows else 1
    m_cases: list[MCase] = []
    exclusions: list[BoundReport] = []
    # m = 6 stands for every m >= 6: all bounds grow with m, and the row
    # floor alone already reaches 6(p-1) > 6p-18 there.
    for m in range(3, 7):
        report = analytic_lower_bound(p, m)
        if report.excluded or m not in REARRANGEMENTS:
            exclusions.append(report)
        else:
            m_cases.append(_search_m(p, m, rows))
    tw_value, tw = min_transposition_mf(make_group(GroupKind.cyclic(p)))
    searched = [c.min_distance for c in m_cases if c.min_distance is not None]
    delta = min([tw_value] + searched)
    return VerificationReport(
        p=p,
        rows_searched="none" if not m_cases else "all rows" if all_rows else "fixed h=1",
        m_cases=tuple(m_cases),
        analytic_exclusions=tuple(exclusions),
        threshold=6 * p - 18,
        delta=delta,
        transposition_witness=tw,
    )


def _lex_permutations(n: int) -> np.ndarray:
    """All n! permutations of 0..n-1 as an (n!, n) uint8 array, in the
    lexicographic order of itertools.permutations(range(n))."""
    perms = np.zeros((1, 0), dtype=np.uint8)
    for k in range(1, n + 1):
        # Each first value i, then the permutations of k-1 values in order,
        # mapped onto 0..k-1 without i.
        first = np.repeat(np.arange(k, dtype=np.uint8), len(perms))
        rest = np.tile(perms, (k, 1))
        rest += rest >= first[:, None]
        perms = np.column_stack((first, rest))
    return perms


def _transport_block(
    table: np.ndarray, reps: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """The transports f(G[f^-1 a][f^-1 b]) of the flat (n*n,) table G by
    each row f of the (b, n) uint8 array reps, as a (b, n*n) uint8 array,
    written to out when it is given."""
    b, n = reps.shape
    rows = np.arange(b)[:, None]
    rinv = np.empty_like(reps)
    rinv[rows, reps] = np.arange(n, dtype=np.uint8)  # the inverse of each f, by scatter
    # Flat index of the cell (f^-1 a, f^-1 b) in an (n, n) table, and of the
    # row of f in reps; n*n <= 64 keeps the first in uint8.
    cell_idx = (rinv[:, :, None] * np.uint8(n) + rinv[:, None, :]).reshape(b, n * n)
    return reps.take(table.take(cell_idx) + rows * n, out=out)


@lru_cache(maxsize=4)
def all_group_tables(n: int) -> tuple[np.ndarray, np.ndarray, tuple[GroupKind, ...], np.ndarray]:
    """Every group table on {0..n-1}, each once, as the permutation that
    makes it from its canonical table, with iso-class labels and its
    distance from each canonical table, all in one cache entry.

    Returns (reps (N, n) uint8, labels (N,) int, kinds, dists
    (len(kinds), N) uint8).  Table i is the transport
    f(G[f^-1 a][f^-1 b]) of G = make_group(kinds[labels[i]]) by
    f = reps[i], and dists[k, i] counts the cells where it differs from
    make_group(kinds[k]) (n * n <= 64 keeps it in uint8).  All three
    arrays are read-only, since every caller shares them through the
    cache.  Tables come kind by kind in catalog order and within a kind in
    the lexicographic order of f.  Two f give one table iff they lie in one
    coset f Aut(G), so each kind has n! / |Aut(G)| tables, and reps[i] is
    the first f of table i's coset: its n bytes stand for the n * n cells.

    The tables are built _TABLE_BLOCK coset representatives at a time,
    into one reused buffer, only to fill their columns of dists, so the
    temporaries beside the result are bounded by the block, not by N.
    """
    kinds = tuple(groups_of_order(n))
    perms = _lex_permutations(n)
    groups = [make_group(kind) for kind in kinds]
    reps_of = []
    for g in groups:
        # f is lexicographically before f.alpha iff f(i) < f(alpha(i)) at
        # the first point i that alpha moves; f is first in its coset iff
        # that holds for every automorphism alpha != id.
        pairs = {
            next((i, v) for i, v in enumerate(alpha.image) if v != i)
            for alpha in automorphisms(g)
            if not alpha.is_identity()
        }
        keep = np.ones(len(perms), dtype=bool)
        for i, j in pairs:
            keep &= perms[:, i] < perms[:, j]
        reps_of.append(np.flatnonzero(keep))
    counts = [len(idx) for idx in reps_of]
    labels = np.repeat(np.arange(len(kinds)), counts)
    reps = perms[np.concatenate(reps_of)]
    dists = np.empty((len(kinds), len(labels)), dtype=np.uint8)
    bases = [g.array.astype(np.uint8).reshape(-1) for g in groups]
    buf = np.empty((min(_TABLE_BLOCK, len(labels)), n * n), dtype=np.uint8)
    lo = 0
    for table, count in zip(bases, counts):
        for start in range(lo, lo + count, _TABLE_BLOCK):
            stop = min(start + _TABLE_BLOCK, lo + count)
            block = _transport_block(table, reps[start:stop], out=buf[: stop - start])
            for base, row in zip(bases, dists):
                row[start:stop] = (block != base).sum(axis=1, dtype=np.uint8)
        lo += count
    for arr in (reps, labels, dists):
        arr.setflags(write=False)  # shared by every caller of the cache
    return reps, labels, kinds, dists


def distinct_table_counts(n: int) -> dict[str, int]:
    """Number of distinct tables per isomorphism class, n! / |Aut G|."""
    _, labels, kinds, _ = all_group_tables(n)
    counts = np.bincount(labels, minlength=len(kinds)).tolist()
    return {kind.label(): c for kind, c in zip(kinds, counts)}


def _scope(n: int, scope: str) -> str:
    """scope with its alias resolved (all / mu / nu), once the oracle is
    known to run it at order n: any catalog order from 2 up."""
    resolved = SCOPE_ALIASES.get(scope)
    if resolved is None:
        raise InputError(f"scope must be one of {sorted(set(SCOPE_ALIASES))}")
    if n < 2:
        raise InputError(f"stability needs order >= 2, got {n}")
    if n > MAX_BRUTE_ORDER:
        raise OrderTooLarge(f"brute force capped at order {MAX_BRUTE_ORDER}, got {n}")
    if resolved == "nu" and is_prime(n):
        raise NuUndefinedForPrime(f"only one isomorphism class at prime order {n}")
    return resolved


def _kind_minimum(kind: GroupKind, scope: str) -> tuple[int, int]:
    """The least distance from the canonical table of `kind` to a table of
    the resolved scope, and the index in all_group_tables of the first
    table at it; O(N) mask and argmin work over the kind's row of dists,
    and no table is built."""
    n = kind.order
    _, labels, kinds, dists = all_group_tables(n)
    try:
        base_label = kinds.index(kind)
    except ValueError:
        raise InputError(f"{kind} is not a group of order {n} in the catalog")
    diffs = dists[base_label]
    if scope == "mu":
        mask = (labels == base_label) & (diffs > 0)
    elif scope == "nu":
        mask = labels != base_label
    else:
        mask = diffs > 0
    if not mask.any():
        raise InputError(f"no table satisfies scope {scope!r} at order {n}")
    j = int(np.argmin(np.where(mask, diffs, n * n + 1)))
    return int(diffs[j]), j


def kind_stability(
    kind: GroupKind, scope: str = "all", allow_slow: bool = False
) -> tuple[int, tuple[GroupTable, GroupTable]]:
    """Minimum distance from the canonical table of `kind` to any other
    table on the same set, restricted by scope (all / mu / nu).

    Valid for the per-group stability values: distance is invariant under
    transporting both tables by the same permutation, so minimizing with
    the canonical representative fixed loses nothing.  The distances are
    the kind's row of all_group_tables' dists, so a call is O(N) mask and
    argmin work.  The witness is the canonical table and the first table,
    in all_group_tables order, at the minimum: the one table the call
    builds, from its coset representative, and validates.  allow_slow does
    nothing; it stays only because the benchmark workloads still pass it.
    """
    n = kind.order
    value, j = _kind_minimum(kind, _scope(n, scope))
    reps, labels, kinds, _ = all_group_tables(n)
    base = make_group(kind)
    source = base if kinds[labels[j]] == kind else make_group(kinds[labels[j]])
    cells = _transport_block(source.array.ravel(), reps[j : j + 1])
    return value, (base, validate_table(cells.reshape(n, n)))


def brute_delta(
    n: int, scope: str = "all", allow_slow: bool = False
) -> tuple[int, tuple[GroupTable, GroupTable]]:
    """Exact minimum distance over all pairs of distinct group tables on
    {0..n-1}, restricted by scope: all pairs, isomorphic-only (mu), or
    non-isomorphic-only (nu).

    Every pair is a transport of a pair whose first table is canonical,
    and distance is invariant under transport, so this is the minimum of
    kind_stability over the kinds of order n.  Each kind's minimum is read
    from its row of all_group_tables' dists without building a table, and
    only the first kind, in groups_of_order order, to reach the least one
    builds its witness from that table's coset representative and
    validates it, in one kind_stability call.  allow_slow does nothing; it
    stays only because the benchmark workloads still pass it.
    """
    scope = _scope(n, scope)
    kinds = groups_of_order(n)
    values = [_kind_minimum(kind, scope)[0] for kind in kinds]
    return kind_stability(kinds[values.index(min(values))], scope)
