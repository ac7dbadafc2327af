"""Exhaustive verification engines.

Two kinds of machinery live here: the single-row pattern search that pins
down the stability of prime-order cyclic groups at 11 <= p <= 31, and the
small-order brute-force oracle that enumerates every group table on
{0..n-1} by transporting each catalog group G through one permutation per
coset of Aut(G).

The pattern search scores one pattern of each reflection pair: x -> -x is
an automorphism of Z_p that maps a pattern to a partner at the reflected
positions, which completes with it and lies at the same distance.  Each
scored pattern carries a weight, the number of family members it stands
for, so the reported counts are those of the whole family.  x -> hx is an
automorphism of Z_p that carries row 1's search to the row of h, so a
search over several rows scores row 1's patterns once and counts them once
per row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    InputError,
    NotPCycle,
    NuUndefinedForPrime,
    OrderTooLarge,
    OutOfVerifiedRange,
    UnsupportedM,
)
from .group_core import (
    INTEGER_TYPES,
    MAX_BRUTE_ORDER,
    GroupKind,
    GroupTable,
    Permutation,
    automorphisms,
    check_integer,
    groups_of_order,
    is_prime,
    make_group,
    transport,
    validate_table,
)
from .metric import BoundReport, analytic_lower_bound, min_transposition_mf

# Patterns per block of the array search.  Bounds its working memory, the
# (p(p-1)/2, block) arrays of the distance kernel, to a few MiB at p = 31.
_BLOCK = 2048

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
# 3-cycles (the single-picture reading is unproved, so the superset is
# enumerated); m = 4 gets the forced double transposition (i0 i2)(i1 i3).
# Each row equals its own reflection rho nxt^-1 rho, rho(k) = m-1-k, which
# _pattern_table's weights rely on.
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
    scores only the first of each reflection pair (see _pattern_table).
    """
    if m not in REARRANGEMENTS:
        supported = ", ".join(map(str, sorted(REARRANGEMENTS)))
        raise UnsupportedM(f"pattern search supports m in {{{supported}}}, got {m}")
    if not is_prime(p) or p <= 7:
        raise InputError(f"need a prime greater than 7, got {p}")
    check_integer(h, "row h")
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
    if not isinstance(h, INTEGER_TYPES) or not 0 <= h < p or h == base.identity:
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


def _pattern_table(p: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pattern of one row as two (N, m) exponent arrays, in
    enumerate_patterns order: the positions, and for each position the
    position whose row value it takes; and each pattern's (N,) weight.

    x -> -x maps the row-1 pattern sigma at positions P = (i0, ..., i_{m-1})
    to N sigma^-1 N, which moves the reflected positions
    (p-1-i_{m-1}, ..., p-1-i0) by the same rearrangement, since
    rho nxt^-1 rho = nxt for each row of REARRANGEMENTS with
    rho(k) = m-1-k.  Its completion is k -> -phi(-k), so it completes with
    sigma, at the same distance.  When p-1 is in P the partner moves
    position 0 and is no pattern, so the weight is 1.  Otherwise the
    lexicographically smaller position tuple, which comes first, stands for
    both with weight 2, a self-reflected one has weight 1, and the later
    one weight 0.  Scaling by h carries this to every row.
    """
    count = math.comb(p - 1, m)
    flat = itertools.chain.from_iterable(itertools.combinations(range(1, p), m))
    combos = np.fromiter(flat, dtype=np.intp, count=count * m).reshape(count, m)
    mirror = p - 1 - combos[:, ::-1]
    differ = mirror != combos
    first = differ.argmax(axis=1)
    rows = np.arange(count)
    later = mirror[rows, first] > combos[rows, first]
    weights = np.where(differ.any(axis=1), 2 * later, 1)
    weights[combos[:, -1] == p - 1] = 1
    nxt = np.array(REARRANGEMENTS[m], dtype=np.intp)
    positions = np.repeat(combos, len(nxt), axis=0)
    sources = combos[:, nxt].reshape(-1, m)
    return positions, sources, np.repeat(weights, len(nxt))


def _complete_block(
    p: int, h: int, positions: np.ndarray, sources: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """phi and the p-cycle mask for a block of B patterns over the
    canonical Z_p, each modifying the row of h: phi is (p, B) uint8 with
    phi[k, j] the image of k under pattern j, and ok is (B,) bool.

    The row of h maps x to x + h; the element at exponent i is i*h, so the
    pattern writes (source + 1)*h at column position*h.  phi(k) is
    sigma^k(0); sigma is a single p-cycle iff no phi(k), 0 < k < p, is 0,
    and then the completed table is the transport of Z_p by phi.
    """
    b = len(positions)
    sigma = np.tile(((np.arange(p) + h) % p).astype(np.uint8), (b, 1))
    sigma[np.arange(b)[:, None], positions * h % p] = (sources + 1) * h % p
    flat = sigma.ravel()
    offsets = np.arange(b) * p
    walk = np.zeros((p, b), dtype=np.uint8)  # walk[k] = sigma^k(0)
    for k in range(1, p):
        walk[k] = flat[offsets + walk[k - 1]]
    return walk, (walk[1:] != 0).all(axis=0)


def _distance_cells(p: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The cells (x, y, (x + y) % p) that _phi_distances checks: first the
    diagonal 0 < x = y, then 0 < x < y."""
    diag = np.arange(1, p)
    x, y = np.triu_indices(p - 1, k=1)
    x, y = x + 1, y + 1
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
    is a sum down its column.
    """

    def mismatches(x: np.ndarray, y: np.ndarray, xy: np.ndarray) -> np.ndarray:
        t = phi.take(x, 0)
        t += phi.take(y, 0)  # < 2p <= 62, so uint8 cannot wrap up
        t -= phi.take(xy, 0)  # a cell that agrees leaves 0 or p; one below
        # 0 wraps to at least 257 - p > p, so it still counts as a mismatch
        bad = (t != 0) & (t != p)
        return bad.view(np.uint8).sum(axis=0, dtype=np.uint16)

    # At most p(p - 1) <= 930 cells at p <= 31, so the counts fit in uint16.
    diag, upper = cells
    return (mismatches(*diag) + 2 * mismatches(*upper)).astype(np.intp)


def _search_m(p: int, m: int, rows: Sequence[int]) -> MCase:
    """Search every pattern of every row in rows by completing and scoring
    row 1's patterns of nonzero weight (one of each reflection pair) once,
    in enumeration order and in blocks of at most _BLOCK scored patterns.

    x -> hx is an automorphism of Z_p: pattern j on row h completes exactly
    when pattern j on row 1 does, with phi_h = h phi_1, at the same
    distance.  So each row adds row 1's counts, and the counts are those of
    the whole family: a completing pattern counts its weight once per row.
    Rows come in order, so the first minimizer lies in rows[0], at row 1's
    first minimizer.  A partner is always later than the pattern scored
    for it, and blocks come in order, so only a strictly smaller distance
    replaces the first minimizer."""
    positions, sources, weights = _pattern_table(p, m)
    enumerated = len(positions) * len(rows)
    scored = np.flatnonzero(weights)
    positions, sources, weights = positions[scored], sources[scored], weights[scored]
    cells = _distance_cells(p)
    completing = 0
    min_distance: Optional[int] = None
    witness: Optional[PatternMod] = None
    for start in range(0, len(positions), _BLOCK):
        block = slice(start, start + _BLOCK)
        phi, ok = _complete_block(p, 1, positions[block], sources[block])
        dvals = _phi_distances(p, phi[:, ok], cells)
        completing += int(weights[block][ok].sum())
        if len(dvals) and (min_distance is None or dvals.min() < min_distance):
            k = int(np.argmin(dvals))
            j = start + int(np.flatnonzero(ok)[k])
            nxt = REARRANGEMENTS[m][scored[j] % len(REARRANGEMENTS[m])]
            min_distance = int(dvals[k])
            witness = _pattern(p, rows[0], tuple(positions[j].tolist()), nxt)
    return MCase(
        m=m,
        candidates_enumerated=enumerated,
        candidates_completing=completing * len(rows),
        min_distance=min_distance,
        witness=witness,
    )


def prime_stability_verify(p: int, all_rows: bool = False) -> VerificationReport:
    """Verify stability 6p-18 for a prime 7 < p <= 31 by exhausting every
    single-row pattern not excluded by the analytic bounds; an open m with
    no pattern search is reported as not excluded, which fails the verdict.

    By default only the row h = 1 is modified; all_rows reports every row
    h = 1..p-1 at the cost of the fixed row (see _search_m).
    """
    if not is_prime(p) or not 7 < p <= 31:
        raise OutOfVerifiedRange(
            f"search regime is primes 7 < p <= 31 (analytic bounds take over "
            f"above 31), got {p}"
        )
    rows = list(range(1, p)) if all_rows else [1]
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
        rows_searched="all rows" if all_rows else "fixed h=1",
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
