"""Exhaustive verification engines.

Two kinds of machinery live here: the single-row pattern search that pins
down the stability of prime-order cyclic groups at every prime p > 7, and the
small-order brute-force oracle that lists every group table on {0..n-1}
as one permutation per coset of Aut(G) of a catalog group G, with its
distance to each canonical table.

Whether a pattern completes to a group depends on its rearrangement
alone (see _piece_order), so the search counts the family by formula and
scores only the completing rearrangements.  It scores one pattern of each
orbit of a Klein four-group: x -> -x is an automorphism of Z_p that maps a
pattern to a partner at the reflected positions, and a completion phi and
its inverse lie at the same distance from Z_p, where phi^-1 is the
completion of the pattern at the inverted positions (see _pattern_table).
x -> hx is an automorphism of Z_p that carries row 1's
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
    _isomorphism_array,
    check_element,
    check_integer,
    groups_of_order,
    is_prime,
    make_group,
    transport,
    validate_table,
)
from .metric import BoundReport, analytic_lower_bound, check_prime_above_7, min_transposition_mf

# Bytes per work array of the pattern search's distance kernel, which
# checks p(p-1)/2 cells of a block of position tuples in (cells, block)
# uint8 arrays.  _block_width makes each of them at most this size, below
# glibc's default 128 KiB mmap threshold, for every p <= 31, so a search
# reuses heap memory and takes no fresh pages from the operating system.
_WORK_BYTES = 126_000

# The largest p the pattern search takes.  Its uint8 positions and phi
# and the uint8/uint16 arithmetic of _phi_distances are exact up to it
# (2(p - 1) <= 255).
_MAX_SEARCH_P = 127

# Coset representatives per block of all_group_tables.  At n = 8 its tracemalloc
# peak exceeds what it keeps by about 0.74 MiB (1.18 MiB at 1024).
_TABLE_BLOCK = 512

Witnessed = tuple[int, tuple[GroupTable, GroupTable]]  # a least distance and a pair at it

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
# equals its own reflection rho nxt^-1 rho, rho(k) = m-1-k, and each
# completing row's piece order is (0, m-1, ..., 1, m), an involution that
# reverses the interior pieces; _pattern_table's quotient relies on both.
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
    orbit of _pattern_table (see _search_m).
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
        ends = np.add.accumulate(children)
        offset = np.arange(ends[-1]) - (ends - children).repeat(children)
        last = last.repeat(children) + 1 + offset
        combos = np.concatenate((combos.repeat(children, 0), last.astype(np.uint8)[:, None]), 1)
    return combos


def _pattern_table(p: int, m: int) -> np.ndarray:
    """The row-1 position tuples that the search scores, one of each orbit
    of {id, R, I, RI} below, as an (N, m) uint8 exponent array in
    lexicographic order: the rows of _combinations(p, m) that the rule
    below keeps, for m >= 2.  Only the kept tuples are built, from their
    gaps (see the last paragraph).

    R: x -> -x maps the row-1 pattern sigma at positions
    P = (i0, ..., i_{m-1}) to N sigma^-1 N, which moves the reflected
    positions (p-1-i_{m-1}, ..., p-1-i0) by the same rearrangement, since
    rho nxt^-1 rho = nxt for each row of REARRANGEMENTS with
    rho(k) = m-1-k.  Its completion is k -> -phi(-k), so it completes with
    sigma, at the same distance.  When p-1 is in P the partner moves
    position 0 and is no pattern.

    I: the transport of Z_p by phi^-1 is at the distance of phi's, by
    x = phi^-1(u), y = phi^-1(v).  phi lists the pieces of _piece_order in
    visit order, so phi^-1 lists pieces of the lengths in that order, in
    the inverse order.  For a completing row of REARRANGEMENTS the order is
    (0, m-1, ..., 1, m), its own inverse, so phi^-1 is the completion of
    the same rearrangement at the positions whose interior pieces come
    reversed: i_j -> i0 + i_{m-1} - i_{m-1-j}, i0 and i_{m-1} fixed.

    In gap form, a = i0, b = p-1-i_{m-1} and g = (i1 - i0, ...,
    i_{m-1} - i_{m-2}), I reverses g, and RI swaps a and b, a pattern only
    when b >= 1.  Tuples order as (a, g) does, since
    i_j = a + g_0 + ... + g_{j-1}.  So P is first of its orbit, and kept,
    iff g is at most its reverse, lexicographically, and b = 0 or a <= b.
    The search keeps the first minimizer, and that is first of its orbit
    too.  Scaling by h carries all this to every row.

    The partial sums c_j = g_0 + ... + g_{j-1} of a gap vector are an
    (m-1)-subset of 1..p-2, and _combinations(p - 1, m - 1) lists them in
    the lexicographic order of g.  With S = c_{m-1}, b = p-1-a-S, so the
    rule keeps (a, g) iff g <= reversed(g) and S = p-1-a or S <= p-1-2a.
    The (a, g) mask of the second half, read row by row, lists the kept
    tuples in (a, g) order, which is lexicographic order, and
    i_j = a + c_j.
    """
    sums = np.zeros((math.comb(p - 2, m - 1), m), dtype=np.uint8)  # c_0 = 0, then c
    sums[:, 1:] = _combinations(p - 1, m - 1)
    gaps = sums[:, 1:] - sums[:, :-1]
    # g <= reversed(g): decided at the first k from the left, k < (m-1)/2,
    # where g_k and g_{m-2-k} differ, so fold the comparison from the middle
    # out
    at_most = np.ones(len(sums), dtype=bool)
    for k in reversed(range((m - 1) // 2)):
        left, right = gaps[:, k], gaps[:, m - 2 - k]
        at_most = (left < right) | ((left == right) & at_most)
    kept = at_most.nonzero()[0]
    total = sums[kept, -1].astype(np.intp)
    a = np.arange(1, p - 1)[:, None]  # a + S <= p - 1 and S >= 1
    cut = ((total == p - 1 - a) | (total <= p - 1 - 2 * a)).ravel().nonzero()[0]
    a_index, row = np.divmod(cut, len(kept))
    table = sums.take(kept.take(row), 0)
    table += (a_index + 1).astype(np.uint8)[:, None]
    return table


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
    lengths = (bounds[:, 1:] - bounds[:, :-1]).take(order, 1)
    shifts = bounds.take(order, 1) - (np.add.accumulate(lengths, 1, np.uint8) - lengths)
    phi = shifts.ravel().repeat(lengths.ravel()).reshape(b, p)
    phi += np.arange(p, dtype=np.uint8)
    return np.ascontiguousarray(phi.T)


@lru_cache(maxsize=32)  # one entry for each prime up to _MAX_SEARCH_P
def _distance_cells(p: int) -> np.ndarray:
    """The cells (x, y, (x + y) % p) that _phi_distances checks, as the
    rows of a read-only (3, p(p-1)/2) intp index array: first the diagonal
    0 < x = y, then the pairs 0 < x < y in lexicographic order.  Every
    index is in 0..p-1, so the kernel's gathers may skip the bounds check.
    A search at p builds them once, for every block and every m."""
    cells = np.empty((3, p * (p - 1) // 2), dtype=np.intp)
    cells[:2, : p - 1] = np.arange(1, p)
    cells[:2, p - 1 :] = np.triu_indices(p - 1, k=1)
    cells[:2, p - 1 :] += 1
    np.add(cells[0], cells[1], out=cells[2])
    cells[2] %= p
    cells.setflags(write=False)  # shared by every caller of the cache
    return cells


def _block_width(cells: int) -> int:
    """Position tuples per block of the search, for a kernel that checks
    `cells` cells: _WORK_BYTES // cells, and at least 256, so a large p
    still scores wide blocks."""
    return max(_WORK_BYTES // cells, 256)


def _kernel_buffers(cells: int, width: int) -> tuple[np.ndarray, ...]:
    """Work buffers for _phi_distances over `cells` cells and blocks of at
    most `width` patterns: three flat uint8 gather buffers of
    cells * width entries, and a uint8 and a uint16 column sum of width
    entries."""
    gathers = tuple(np.empty(cells * width, dtype=np.uint8) for _ in range(3))
    return *gathers, np.empty(width, dtype=np.uint8), np.empty(width, dtype=np.uint16)


def _phi_distances(
    p: int,
    phi: np.ndarray,
    buffers: Optional[tuple[np.ndarray, ...]] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact distance from Z_p to its transport by each column of the
    (p, B) uint8 array phi: the number of cells (x, y) with
    phi(x + y) != phi(x) + phi(y) mod p, written to out, a (B,) integer
    array of at least 16 bits (by default a new intp array), and returned.

    Both sides are symmetric in x and y and agree when x or y is 0
    (phi(0) = 0), so only the cells of _distance_cells(p) are checked, and
    a pair x < y counts for two cells.  Each cell gathers whole rows of
    phi, so the work arrays are (cells, B) and the count of a pattern is a
    sum down its column.  Every step writes into buffers, the work arrays
    of _kernel_buffers for at least B patterns, which a search allocates
    once and reuses for every block; a call without buffers or out
    allocates its own.

    The arithmetic is exact for p <= 127.  s = phi(x) + phi(y) is at most
    2(p - 1) <= 255, so it does not wrap in uint8.  s - p wraps below 0 to
    s + 256 - p > s, so min(s, s - p) is s when s < p and s - p otherwise:
    it is s mod p, to compare with phi(x + y).  A chunk of at most 255
    rows sums its mismatches in uint8, and p(p - 1) < 2**16 bounds the
    uint16 total.
    """
    cells = _distance_cells(p)
    n, width = cells.shape[1], phi.shape[1]
    if buffers is None:
        buffers = _kernel_buffers(n, width)
    if out is None:
        out = np.empty(width, dtype=np.intp)
    *gathers, chunk, upper = buffers
    # contiguous (cells, B) views, so that take writes in place
    s, t, xy = (buf[: n * width].reshape(n, width) for buf in gathers)
    for idx, buf in zip(cells, (s, t, xy)):
        phi.take(idx, 0, buf, "clip")
    np.add(s, t, out=s)
    np.subtract(s, np.uint8(p), out=t)
    np.minimum(s, t, out=s)
    bad = np.not_equal(s, xy, out=t.view(np.bool_)).view(np.uint8)
    chunk, upper = chunk[:width], upper[:width]
    upper[:] = 0
    for lo in range(p - 1, n, 255):
        np.add(upper, np.add.reduce(bad[lo : lo + 255], 0, np.uint8, chunk), out=upper)
    upper <<= 1
    return np.add(upper, np.add.reduce(bad[: p - 1], 0, np.uint8, chunk), out=out)


def _search_m(p: int, m: int, rows: int) -> MCase:
    """Search every pattern of the rows h = 1..rows by scoring each
    completing rearrangement at row 1's kept position tuples (one of each
    orbit of _pattern_table) once, in enumeration order and in blocks of
    _block_width tuples.  m counts the cells where row 1 differs from
    Z_p's, which is the bounds' m by x -> kx (see prime_stability_verify).

    Whether a pattern completes depends on its rearrangement alone (see
    _piece_order), so C(p-1, m) patterns of each row complete per
    completing rearrangement.  x -> hx is an automorphism of Z_p: pattern j
    on row h completes exactly when pattern j on row 1 does, with
    phi_h = h phi_1, at the same distance.  So each row adds row 1's counts.
    Rows come in order, so the first minimizer is row 1's first minimizer.
    The kernel reuses one set of buffers, sized for the widest block, for
    every block and writes each distance into a (tuples, rearrangements)
    array, whose row-major order is enumeration order, so one argmin over
    it finds the first minimizer.
    The rest of an orbit is always later than the tuple scored for it, so
    that is the first minimizer of the whole family.  A p above
    _MAX_SEARCH_P is refused, since the search's arithmetic is exact only
    up to it."""
    if p > _MAX_SEARCH_P:
        raise InputError(f"the pattern search is exact only for p <= {_MAX_SEARCH_P}, got {p}")
    scored = [(nxt, o) for nxt in REARRANGEMENTS[m] if (o := _piece_order(nxt)) is not None]
    positions = _pattern_table(p, m) if scored else np.zeros((0, m), dtype=np.uint8)
    per_rearrangement = math.comb(p - 1, m) * rows
    n = _distance_cells(p).shape[1]
    width = _block_width(n)
    buffers = _kernel_buffers(n, min(width, len(positions)))
    dvals = np.empty((len(positions), len(scored)), dtype=np.uint16)
    for start in range(0, len(positions), width):
        block = positions[start : start + width]
        for r, (_, order) in enumerate(scored):
            phi = _phi_block(p, block, order)
            _phi_distances(p, phi, buffers, dvals[start : start + width, r])
    min_distance: Optional[int] = None
    witness: Optional[PatternMod] = None
    if dvals.size:
        j, r = divmod(int(dvals.argmin()), len(scored))
        min_distance = int(dvals[j, r])
        witness = _pattern(p, 1, tuple(positions[j].tolist()), scored[r][0])
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
    The bounds take m as the least, over rows h != 0, of the cells where
    row h of a table T differs from Z_p's; the search's m counts row 1's.
    If row h is least, x -> kx (k = h^-1 mod p) is an automorphism of Z_p,
    so T's transport T' by it is as far from Z_p, and T'[kx, ky] = k T[x, y],
    kx + ky = k(x + y): row kx of T' differs as row x of T, so row 1 is least
    and the search of row 1 at m covers T.
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


def _ordered_permutations(n: int, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """The permutations f of 0..n-1 with f(i) < f(j) for every pair i < j
    of pairs, as an (R, n) uint8 array in itertools.permutations order.
    Built from the right, a row being f's relative order on columns i..n-1:
    each first value v in turn, then the rest mapped by r -> r + [r >= v],
    which keeps its pairs.  f(i) < f(j) iff the rest is >= v at column j,
    so a row takes only the v up to its least at the columns paired with i."""
    perms = np.zeros((1, 0), dtype=np.uint8)
    for i in reversed(range(n)):
        paired = perms.take([b - i - 1 for a, b in pairs if a == i], 1)
        low = np.minimum.reduce(paired, 1, initial=n - i)
        # by first value, then row
        first, row = (low >= np.arange(n - i, dtype=np.uint8)[:, None]).nonzero()
        grown = np.empty((len(row), n - i), dtype=np.uint8)
        grown[:, 0] = first
        rest = perms.take(row, 0)
        rest += rest >= grown[:, :1]
        grown[:, 1:] = rest
        perms = grown
    return perms


def _mismatch_lookup(bases: Sequence[np.ndarray]) -> np.ndarray:
    """The n**3 uint64 entries L[u n^2 + v n + w] whose byte k is
    [bases[k][u, v] != w], for (n, n) tables bases.  Entries summed over
    the n^2 cells of a table add byte by byte, whatever the byte order, as
    long as no byte's count (at most n^2) carries: so for at most 8 tables
    with n^2 <= 255.  Beyond either it raises rather than let counts wrap."""
    n = len(bases[0])
    if len(bases) > 8 or n * n > 255:
        raise OrderTooLarge(f"at most 8 kinds of order n with n^2 <= 255, got {len(bases)} at {n}")
    packed = np.zeros((n, n, n, 8), dtype=np.uint8)
    for k, base in enumerate(bases):
        packed[..., k] = base[:, :, None] != np.arange(n)
    return packed.reshape(-1).view(np.uint64)


@lru_cache(maxsize=4)
def all_group_tables(
    n: int,
) -> tuple[np.ndarray, np.ndarray, tuple[GroupKind, ...], np.ndarray, tuple[GroupTable, ...]]:
    """Every group table on {0..n-1}, each once, as the permutation that
    makes it from its canonical table, with iso-class labels, its
    distance from each canonical table, and the canonical tables
    themselves, all in one cache entry.

    Returns (reps (N, n) uint8, labels (N,) int, kinds, dists
    (len(kinds), N) uint8, bases), the arrays read-only, since every caller
    shares them through the cache; bases[k] is make_group(kinds[k]), the
    table the build reads, kept so that _stability builds its witnesses
    from it rather than anew.  Table i is the transport T[f x, f y] =
    f(G[x, y]) of G = bases[labels[i]] by f = reps[i].  Tables come kind
    by kind in catalog order and within a kind in the lexicographic order
    of f.  Two f give one table iff they lie in one coset f Aut(G), so each
    kind has n! / |Aut(G)| tables, and reps[i] is the first f of table i's
    coset: its n bytes stand for the n * n cells.  f is before f.alpha iff
    f(i) < f(alpha(i)) at the first point i that alpha moves (alpha(i) > i,
    as alpha fixes the points below i), so _ordered_permutations builds
    just the reps from those pairs (i, alpha(i)).

    No table is built.  Substituting a = f x, b = f y in the count over the
    cells (a, b), dists[k, i] = #{(x, y) : B_k[f x, f y] != f(G[x, y])} for
    B_k = bases[k]: a sum over the n^2 cells (x, y) of byte k
    of _mismatch_lookup's L[f(x) n^2 + f(y) n + f(G[x, y])], so one gather
    and one sum count every kind.  Only the cells with x, y != 0 are
    gathered: G and B_k have identity 0, so the 2n - 1 others compare
    B_k[f 0, f y] with f y, or B_k[f x, f 0] with f x, which agree iff
    f 0 = 0, B_k being a Latin square.  Blocks of _TABLE_BLOCK reps, held
    as (n, block) so that each gather takes whole rows, go through buffers
    allocated once.
    """
    kinds = tuple(groups_of_order(n))
    bases = tuple(make_group(kind) for kind in kinds)
    reps_of = []
    for g in bases:
        aut = _isomorphism_array(g, g)
        first = (aut != np.arange(n)).argmax(1)  # 0 for alpha = id, which has no pair
        second = aut[np.arange(len(aut)), first]
        moved = first != second
        pairs = list(zip(first[moved].tolist(), second[moved].tolist()))
        reps_of.append(_ordered_permutations(n, pairs))
    counts = [len(r) for r in reps_of]
    labels = np.arange(len(kinds)).repeat(counts)
    reps = np.concatenate(reps_of)
    dists = np.empty((len(kinds), len(labels)), dtype=np.uint8)
    lookup = _mismatch_lookup([g.array for g in bases])
    width = min(_TABLE_BLOCK, len(labels))
    # f as (n, block), f n at x != 0 as (n - 1, block); the lookup index
    # and its hits, which first hold f n^2, as ((n - 1)^2, block)
    bufs = [np.empty(r * width, dtype=np.intp) for r in (n, n - 1, (n - 1) ** 2, (n - 1) ** 2)]
    sums = np.empty(width, dtype=np.uint64)
    ends = list(itertools.accumulate(counts))
    for g, lo, hi in zip(bases, [0] + ends, ends):
        cells = g.array[1:, 1:].ravel()
        for start in range(lo, hi, _TABLE_BLOCK):
            b = min(_TABLE_BLOCK, hi - start)
            f, fn, idx, hits = (buf[: len(buf) // width * b].reshape(-1, b) for buf in bufs)
            np.copyto(f, reps[start : start + b].T)
            np.multiply(f[1:], n, out=fn)
            fnn = np.multiply(fn, n, out=hits[: n - 1])
            np.add(fnn[:, None], fn, out=idx.reshape(n - 1, n - 1, b))
            np.add(idx, f.take(cells, 0, hits, "clip"), out=idx)
            hits = lookup.take(idx, 0, hits.view(np.uint64), "clip")
            total = np.add.reduce(hits, 0, None, sums[:b])
            dists[:, start : start + b] = total.view(np.uint8).reshape(b, 8)[:, : len(kinds)].T
    dists += np.uint8(2 * n - 1) * (reps[:, 0] != 0)  # row 0 and column 0
    for arr in (reps, labels, dists):
        arr.setflags(write=False)  # shared by every caller of the cache
    return reps, labels, kinds, dists, bases


def distinct_table_counts(n: int) -> dict[str, int]:
    """Number of distinct tables per isomorphism class, n! / |Aut G|."""
    _, labels, kinds, _, _ = all_group_tables(n)
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


def _stability(n: int, scope: str, kind: Optional[GroupKind] = None) -> Witnessed:
    """The least distance from the canonical table of `kind` (by default,
    of the first kind at the least over the kinds of order n) to a table of
    the scope, and its witness pair, by one argmin over those kinds' rows of
    dists less 1 in uint8: 255 for the canonical table and each table out of
    scope, above any other (n^2 - 1 < 255).  The witness's first table is
    that kind's canonical table from the cache entry's bases, and its other
    table the one table built: the transport of its kind's base by its coset
    representative, checked by validate_table."""
    reps, labels, kinds, dists, bases = all_group_tables(n)
    if kind is not None and kind not in kinds:
        raise InputError(f"{kind} is not a group of order {n} in the catalog")
    ks = range(len(kinds)) if kind is None else [kinds.index(kind)]
    ends = np.searchsorted(labels, range(len(kinds) + 1))  # kind k is ends[k]:ends[k + 1]
    less = dists[ks] - np.uint8(1)
    for row, k in zip(less, ks):
        if scope == "mu":
            row[: ends[k]] = row[ends[k + 1] :] = 255
        elif scope == "nu":
            row[ends[k] : ends[k + 1]] = 255
    first, least = less.argmin(1), np.minimum.reduce(less, 1)
    r = int(least.argmin())  # the first kind at the least
    if least[r] == 255:
        raise InputError(f"no table satisfies scope {scope!r} at order {n}")
    j = first[r]
    moved = transport(bases[labels[j]], Permutation(tuple(reps[j].tolist())))
    return int(least[r]) + 1, (bases[ks[r]], validate_table(moved.array))


def kind_stability(kind: GroupKind, scope: str = "all", allow_slow: bool = False) -> Witnessed:
    """Minimum distance from the canonical table of `kind` to any other
    table on the same set, restricted by scope (all / mu / nu), with a
    witness pair (see _stability).  allow_slow does nothing; it stays only
    because the benchmark workloads pass it."""
    return _stability(kind.order, _scope(kind.order, scope), kind)


def brute_delta(n: int, scope: str = "all", allow_slow: bool = False) -> Witnessed:
    """Exact minimum distance over all pairs of distinct group tables on
    {0..n-1}, restricted by scope: all pairs, isomorphic-only (mu), or
    non-isomorphic-only (nu).  Every pair is a transport of a pair whose
    first table is canonical, and transport keeps distance, so this is the
    least kind_stability over the kinds of order n, with the first kind's
    witness at the least (see _stability).  allow_slow does nothing."""
    return _stability(n, _scope(n, scope))
