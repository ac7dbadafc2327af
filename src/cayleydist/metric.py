"""Distance quantities for pairs of group tables.

Covers the pointwise Hamming distance with its per-row profile, the
distance-from-homomorphism count for arbitrary maps, the closed-form
stability ceiling delta0, the light-row isomorphism reconstruction, the
transposition minimum, and the analytic lower-bound machinery used to
exclude large per-row minima from the exhaustive search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    HypothesisNotMet,
    InconsistentFactorizations,
    InputError,
    MTooSmall,
    NotPrime,
    OrderTooSmall,
)
from .group_core import (
    MAX_BRUTE_ORDER,
    GroupTable,
    Permutation,
    are_isomorphic,
    is_dihedral_twice_odd,
    is_prime,
)

MapLike = Union[Permutation, Sequence[int]]


def _images(f: MapLike) -> Sequence[int]:
    return f.image if isinstance(f, Permutation) else f


@dataclass(frozen=True)
class DistanceProfile:
    """Hamming distance between two tables, broken down by row.

    m (the minimum row distance over non-identity rows) is only defined
    when the two identities coincide; it is None otherwise.
    """

    total: int
    row: tuple[int, ...]
    m: Optional[int]
    agreement: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.row)


def _mismatches(a: GroupTable, b: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """The (n, n) mask of the cells where the two tables differ, and its
    row sums (by np.add.reduce, which skips ndarray.sum's Python layer)."""
    if a.n != b.n:
        raise DimensionMismatch(f"orders differ: {a.n} vs {b.n}")
    mismatch = a.array != b.array
    return mismatch, np.add.reduce(mismatch, 1)


def dist(a: GroupTable, b: GroupTable) -> DistanceProfile:
    row = _mismatches(a, b)[1].tolist()
    e = a.identity
    # The least non-identity row; 0 at n = 1, which has no other row.
    m = min(row[:e] + row[e + 1 :], default=0) if e == b.identity else None
    agreement = tuple(g for g, d in enumerate(row) if d == 0)
    return DistanceProfile(total=sum(row), row=tuple(row), m=m, agreement=agreement)


def hom_distance(f: MapLike, h: GroupTable, k: GroupTable) -> int:
    """Number of pairs (a, b) with f(a.b) != f(a)*f(b); f need not be bijective."""
    img = _images(f)
    if len(img) != h.n:
        raise DimensionMismatch(f"map has {len(img)} entries, table order {h.n}")
    # A permutation's images lie in 0..h.n-1 already.
    if not (isinstance(f, Permutation) and h.n <= k.n):
        for v in img:
            if not 0 <= v < k.n:
                raise InputError(f"map image {v} outside 0..{k.n - 1}")
    fi = np.asarray(img, dtype=np.intp)
    # k.array[fi[:, None], fi] holds f(a)*f(b); two takes build it faster.
    return int(np.count_nonzero(fi[h.array] != k.array.take(fi, 0).take(fi, 1)))


def delta0(t: GroupTable) -> int:
    """The closed-form stability ceiling: 6n-18 / 6n-20 / 6n-24 by structure."""
    if t.n < 5:
        raise OrderTooSmall(f"delta0 requires order >= 5, got {t.n}")
    if t.n % 2 == 1:
        return 6 * t.n - 18
    if is_dihedral_twice_odd(t):
        return 6 * t.n - 20
    return 6 * t.n - 24


def light_set(a: GroupTable, b: GroupTable) -> list[int]:
    """Rows where the tables nearly agree: {g : d(g) < n/3}, strict."""
    return _light_rows(dist(a, b))


def _light_rows(prof: DistanceProfile) -> list[int]:
    return [g for g, d in enumerate(prof.row) if 3 * d < prof.n]


def reconstruct_isomorphism(a: GroupTable, b: GroupTable) -> Permutation:
    """Rebuild the isomorphism fixing the light set pointwise.

    Requires |K| > 3n/4 for K = {g : d(g) < n/3}.  Every factorization
    g = x.y with x, y in K is checked for consistency rather than trusted;
    an inconsistency on valid group inputs indicates a bug.
    """
    n = a.n
    prof = dist(a, b)
    K = _light_rows(prof)
    if 4 * len(K) <= 3 * n:
        raise HypothesisNotMet(f"|K| = {len(K)} <= 3n/4 = {3 * n / 4:g}")
    f = [-1] * n
    for x in K:
        arow, brow = a.cells[x], b.cells[x]
        for y in K:
            g, v = arow[y], brow[y]
            if f[g] == -1:
                f[g] = v
            elif f[g] != v:
                raise InconsistentFactorizations(
                    f"element {g}: factorizations disagree ({f[g]} vs {v})"
                )
    for g in range(n):
        if f[g] == -1:
            raise InconsistentFactorizations(
                f"element {g} has no factorization inside the light set"
            )
    for x in K:
        if f[x] != x:
            raise InconsistentFactorizations(f"light element {x} moved to {f[x]}")
    if sorted(f) != list(range(n)):
        raise InconsistentFactorizations("reconstructed map is not a bijection")
    perm = Permutation(tuple(f))
    if hom_distance(perm, a, b) != 0:
        raise InconsistentFactorizations("reconstructed map is not an isomorphism")
    for g, d in enumerate(prof.row):
        if 3 * d > 2 * n and f[g] == g:
            raise InconsistentFactorizations(f"heavy row {g} (d={d}) is fixed")
    return perm


# Transpositions are scored in blocks of this many (u, v) pairs, so the
# kernel's (B, n) arrays stay small; orders up to 32 take a single block.
_PAIR_BLOCK = 512


def min_transposition_mf(t: GroupTable) -> tuple[int, Permutation]:
    """Exhaustive minimum of the hom-distance over all transpositions.

    For tau = (u v), a cell (a, b) can disagree only when a, b or ab lies
    in {u, v}, and a cell with a, b outside {u, v} and ab inside always
    disagrees: tau moves ab and fixes a and b.  So m_f(tau) is the sum of
    three regions:

    - the mismatches in rows u and v (2n cells);
    - the mismatches in columns u and v outside those rows (2(n - 2) cells);
    - #{(a, b) : a, b not in {u, v}, ab in {u, v}}, which is the number of
      cells holding u or v in the whole table minus those in the first two
      regions.

    That is O(n) per transposition and O(n^3) in total.  The pairs run in
    (u, v) lexicographic order, in blocks of _PAIR_BLOCK, and the witness is
    the first minimizer.
    """
    n = t.n
    if n < 5:
        raise OrderTooSmall(f"need order >= 5, got {n}")
    # The narrowest unsigned dtype holding 0..n-1 keeps every pass small.
    dtype = np.min_scalar_type(n - 1)
    cells = t.array.astype(dtype)
    cols = np.ascontiguousarray(cells.T)
    holding = np.bincount(cells.ravel(), minlength=n)
    us, vs = (idx.astype(dtype) for idx in np.triu_indices(n, k=1))
    best: Optional[int] = None
    witness: Optional[tuple[int, int]] = None
    for start in range(0, len(us), _PAIR_BLOCK):
        u, v = us[start : start + _PAIR_BLOCK], vs[start : start + _PAIR_BLOCK]
        mf = _transposition_mf(cells, cols, holding, u, v)
        k = int(np.argmin(mf))
        if best is None or mf[k] < best:
            best, witness = int(mf[k]), (int(u[k]), int(v[k]))
    assert best is not None and witness is not None
    return best, Permutation.transposition(n, *witness)


def _transposition_mf(
    cells: np.ndarray,
    cols: np.ndarray,
    holding: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
) -> np.ndarray:
    """m_f of each transposition (u[i] v[i]) by the three-region count of
    min_transposition_mf; cols is the transposed table and holding[w] the
    number of cells holding w."""
    pair = np.arange(len(u))
    uu, vv = u[:, None], v[:, None]
    # Per cell of the (B, n) lines: +1 for a mismatch and -1 for a cell
    # holding u or v, so that holding[u] + holding[v] adds only the third
    # region.
    acc = np.zeros((len(u), len(cells)), dtype=np.int8)
    for lines in (cells, cols):
        for w, w2 in ((u, v), (v, u)):
            # Row w compares tau(w.b) with tau(w).tau(b) = w2.tau(b): row w2
            # with entries u and v swapped.  Column w likewise compares
            # tau(a.w) with tau(a).w2, read from the transposed table.
            # Both gathers copy, so the writes below leave the table intact.
            vals = lines[w]
            at_u, at_v = vals == uu, vals == vv
            other = lines[w2]
            other[pair, u], other[pair, v] = other[pair, v], other[pair, u]
            np.copyto(vals, vv, where=at_u)
            np.copyto(vals, uu, where=at_v)
            bad = vals != other
            held = at_u | at_v
            if lines is cols:  # the cells in rows u and v are counted above
                bad[pair, u] = bad[pair, v] = held[pair, u] = held[pair, v] = False
            acc += bad.view(np.int8)
            acc -= held.view(np.int8)
    return holding[u] + holding[v] + acc.sum(axis=1)


def estim2_bounds(n: int, m: int, l: int) -> tuple[int, Optional[int]]:
    """The two lower bounds from an l-element subset Y with Y and h.Y disjoint.

    The second bound only applies when ceil(n/4) - 2l >= 0; None otherwise.
    """
    if not 0 <= l <= m:
        raise InputError(f"need 0 <= l <= m, got l={l}, m={m}")
    bound1 = l * (n - m) + (n - 2 * l - 1) * m
    q4, q3 = math.ceil(n / 4), math.ceil(n / 3)
    bound2 = None
    if q4 - 2 * l >= 0:
        bound2 = l * (n - m) + (q4 - 2 * l) * q3 + (n - q4 - 1) * m
    return bound1, bound2


def max_disjoint_subset(
    t: GroupTable, h: int, disagree: Sequence[int]
) -> list[int]:
    """Largest Y within `disagree` with Y and h.Y disjoint; exhaustive."""
    elems = sorted(set(disagree))
    for x in elems:
        if not 0 <= x < t.n:
            raise InputError(f"element {x} outside 0..{t.n - 1}")
    hrow = t.cells[h]
    for size in range(len(elems), 0, -1):
        for sub in combinations(elems, size):
            shifted = {hrow[y] for y in sub}
            if shifted.isdisjoint(sub):
                return list(sub)
    return []


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the analytic exclusion arithmetic for one (order, m) pair."""

    p_or_n: int
    m: int
    bounds: tuple[tuple[str, int], ...]
    best: int
    excluded: bool

    def to_dict(self) -> dict:
        return {
            "p_or_n": self.p_or_n,
            "m": self.m,
            "bounds": [{"name": name, "value": value} for name, value in self.bounds],
            "best": self.best,
            "excluded": self.excluded,
            "threshold": 6 * self.p_or_n - 18,
        }


# Size of a disjoint subset Y per minimum row distance m, as used by the
# exclusion arithmetic: 2 for m = 3, and 3 asserted for m >= 4.  The value 3
# does not hold: max_disjoint_subset(Z_p, 1, (1, 2, 3, 4)) is 2 at every p,
# and with l = 2 the best bound at p = 23, m = 4 is 118 < 120 = 6p - 18.
# So m = 4 at p = 23 rests on test_m4_searched_directly_at_23 (the full
# search finds minimum 120), and at p = 29 and 31 on the l = 2 bounds
# (test_m4_excluded_with_two_disjoint), not on this constant.
_GUARANTEED_L = {3: 2, 4: 3}


def analytic_lower_bound(p: int, m: int) -> BoundReport:
    """Aggregate every applicable lower bound on dist for prime order p.

    excluded means the best bound already reaches 6p-18, so no exhaustive
    search is needed for this m.
    """
    if not is_prime(p) or p <= 7:
        raise NotPrime(f"need a prime greater than 7, got {p}")
    if m < 3:
        raise MTooSmall(f"m = {m} cannot occur (rows differ in 0 or >= 3 places)")
    if m > p - 1:
        raise InputError(f"m = {m} exceeds p - 1 = {p - 1} at p = {p}")
    l = _GUARANTEED_L.get(m, 3)
    bound1, bound2 = estim2_bounds(p, m, l)
    bounds: list[tuple[str, int]] = [("row_floor", m * (p - 1))]
    bounds.append((f"disjoint_pairs_l{l}", bound1))
    if bound2 is not None:
        bounds.append((f"disjoint_pairs_quarter_l{l}", bound2))
    best = max(v for _, v in bounds)
    return BoundReport(
        p_or_n=p,
        m=m,
        bounds=tuple(bounds),
        best=best,
        excluded=best >= 6 * p - 18,
    )


@dataclass(frozen=True)
class LemmaViolation:
    name: str
    witness: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "witness": self.witness}


def check_lemmas(a: GroupTable, b: GroupTable) -> list[LemmaViolation]:
    """Test the proved row statements on a concrete pair.

    Checks: the triple row-sum inequality at every disagreeing cell, the
    impossibility of row distance 2 at odd order (and 1 at any order), and
    identity coincidence for isomorphic pairs with total <= 6n-18 at n > 7.
    That last check runs only at prime n and at n = 8: at composite n >= 9
    isomorphism is not decided above MAX_BRUTE_ORDER, so it is skipped.
    A non-empty result on valid group inputs indicates an implementation bug.
    """
    mismatch, d = _mismatches(a, b)
    n = a.n
    rows = d.tolist()
    total = sum(rows)
    out: list[LemmaViolation] = []
    if 1 in rows or (n % 2 == 1 and 2 in rows):
        for g, dg in enumerate(rows):
            if dg == 1 or (dg == 2 and n % 2 == 1):
                name = "row_distance_one" if dg == 1 else "row_distance_two"
                out.append(LemmaViolation(name, {"g": g}))
    # The triple row sum d(a) + d(b) + d(ab) at every cell; a disagreeing
    # cell needs it to reach n.  argwhere runs row-major, so the violations
    # come in the order of a scan over (a, b).
    triple = d[:, None] + d + d[a.array]
    low = (triple < n) & mismatch
    if np.count_nonzero(low):
        for x, y in np.argwhere(low).tolist():
            w = {"a": x, "b": y, "ab": a.cells[x][y], "sum": int(triple[x, y])}
            out.append(LemmaViolation("row_triple_sum", w))
    if n > 7 and total <= 6 * n - 18 and a.identity != b.identity:
        isomorphic = False
        if is_prime(n):
            isomorphic = True
        elif n <= MAX_BRUTE_ORDER:
            isomorphic = are_isomorphic(a, b)[0]
        if isomorphic:
            out.append(
                LemmaViolation(
                    "identity_mismatch",
                    {
                        "identity_a": a.identity,
                        "identity_b": b.identity,
                        "total": total,
                    },
                )
            )
    return out
