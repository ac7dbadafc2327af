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
from typing import NamedTuple, Optional, Sequence, Union

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
    check_element,
    check_integer,
    is_dihedral_twice_odd,
    is_prime,
)

MapLike = Union[Permutation, Sequence[int]]


class DistanceProfile(NamedTuple):
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
    agreement = tuple([g for g, d in enumerate(row) if not d])
    return DistanceProfile(sum(row), tuple(row), m, agreement)


def hom_distance(f: MapLike, h: GroupTable, k: GroupTable) -> int:
    """Number of pairs (a, b) with f(a.b) != f(a)*f(b); f need not be bijective."""
    is_perm = isinstance(f, Permutation)
    img = f.image if is_perm else f
    if len(img) != h.n:
        raise DimensionMismatch(f"map has {len(img)} entries, table order {h.n}")
    # A permutation's images lie in 0..h.n-1 already.
    if not (is_perm and h.n <= k.n):
        for v in img:
            check_element(v, k.n, "map image")
    fi = np.array(img, dtype=np.intp)
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


def _light_rows(d: np.ndarray) -> np.ndarray:
    """The g with 3 d[g] < n, ascending, for the row distances d."""
    return np.flatnonzero(3 * d < len(d))


def reconstruct_isomorphism(a: GroupTable, b: GroupTable) -> Permutation:
    """Rebuild the isomorphism fixing the light set pointwise.

    Requires |K| > 3n/4 for K = {g : d(g) < n/3}.  f(xy) is read from
    b's cell (x, y) for x, y in K, as arrays over the K x K blocks of both
    tables.  Every factorization is checked rather than trusted, and an
    inconsistency on valid group inputs indicates a bug.  The checks run
    in this order, each naming its first offender:

    - factorizations that disagree: the first cell of a row-major scan of
      K x K whose value differs from that of its element's first cell;
    - an element with no factorization inside K: the least;
    - a light element that f moves: the least;
    - f not a bijection, then f not an isomorphism (hom_distance > 0);
    - a heavy row, d(g) > 2n/3, that f fixes: the least g.
    """
    n = a.n
    d = _mismatches(a, b)[1]
    K = _light_rows(d)
    if 4 * len(K) <= 3 * n:
        raise HypothesisNotMet(f"|K| = {len(K)} <= 3n/4 = {3 * n / 4:g}")
    g = a.array.take(K, 0).take(K, 1).ravel()
    v = b.array.take(K, 0).take(K, 1).ravel()
    # A fancy write with a repeated index leaves unspecified which value
    # wins, which matters only if the values differ.  Then each element
    # takes the value at its first cell in the scan (np.unique returns
    # first occurrences), and the first cell that differs is named.
    f = np.full(n, -1, dtype=np.intp)
    f[g] = v
    if (v != f[g]).any():
        elements, first = np.unique(g, return_index=True)
        f[elements] = v[first]
        i = int(np.argmax(v != f[g]))
        raise InconsistentFactorizations(
            f"element {g[i]}: factorizations disagree ({f[g[i]]} vs {v[i]})"
        )
    if (f < 0).any():
        raise InconsistentFactorizations(
            f"element {int(np.argmax(f < 0))} has no factorization inside the light set"
        )
    moved = f[K] != K
    if moved.any():
        x = K[np.argmax(moved)]
        raise InconsistentFactorizations(f"light element {x} moved to {f[x]}")
    if (np.bincount(f, minlength=n) != 1).any():
        raise InconsistentFactorizations("reconstructed map is not a bijection")
    perm = Permutation(tuple(f.tolist()))
    if hom_distance(perm, a, b) != 0:
        raise InconsistentFactorizations("reconstructed map is not an isomorphism")
    heavy_fixed = (3 * d > 2 * n) & (f == np.arange(n))
    if heavy_fixed.any():
        h = int(np.argmax(heavy_fixed))
        raise InconsistentFactorizations(f"heavy row {h} (d={d[h]}) is fixed")
    return perm


def min_transposition_mf(t: GroupTable) -> tuple[int, Permutation]:
    """Exhaustive minimum of the hom-distance over all transpositions.

    Every transposition (u v), u < v, is scored exactly by
    _transposition_mf, in O(1) numpy work per pair and O(n^2) in total.
    The pairs run in (u, v) lexicographic order and the witness is the
    first minimizer.  t must be a group table, as every table from
    make_group, transport or validate_table is; on a table that is not,
    the value is undefined.
    """
    n = t.n
    if n < 5:
        raise OrderTooSmall(f"need order >= 5, got {n}")
    us, vs = np.triu_indices(n, k=1)
    mf = _transposition_mf(t, us, vs)
    k = int(np.argmin(mf))
    return int(mf[k]), Permutation.transposition(n, int(us[k]), int(vs[k]))


def _transposition_mf(t: GroupTable, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m_f of each transposition tau = (u[i] v[i]), u[i] != v[i], on the
    group table t, from the group identities alone.

    Write S = {u, v}, w' for the inverse of w, out(w) = [w not in S] and
    eps = out(e).  A cell (a, b) can disagree only when a, b or ab lies in
    S.  By where a and b lie:

    - a, b outside S: the cell disagrees iff ab is in S.  Of the 2n cells
      with ab in S, 4 have a in S, and those with b in S and a outside have
      a in {e, vu'} (b = u) or {e, uv'} (b = v).  That leaves
      2n - 4 - 2 eps - out(uv') - out(vu').
    - a in S, b outside: (u, b) compares tau(ub) with vb.  They agree only
      at b = e and at b = u'v when v.u'v = u, each if it lies outside S;
      (v, b) likewise.  That leaves 2n - 4 - 2 eps
      - [out(u'v) and v.u'v = u] - [out(v'u) and u.v'u = v].
    - b in S, a outside: the mirror image, 2n - 4 - 2 eps
      - [out(vu') and vu'.v = u] - [out(uv') and uv'.u = v].
    - a, b in S: the four corner cells, compared directly.

    The derivation uses inverses and associativity, so t must be a group.
    The four products all say that u'v is an involution, I = [u'v = v'u].
    And u'v lies in S iff u = e or v = u^2, as does vu', so
    out(u'v) = out(vu') and out(v'u) = out(uv').  Summed:

        m_f = 3 (2n - 4 - 2 eps) - (1 + 2 I)(out(uv') + out(vu')) + corner.
    """
    M, e, n = t.array, t.identity, t.n
    inv = (M == e).argmax(1)
    iu, iv = inv[u], inv[v]
    flat = M.ravel()

    def at(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return flat.take(a * n + b)  # M[a, b]; a flat take beats the 2-D gather

    def out(w: np.ndarray) -> np.ndarray:
        return (w != u) & (w != v)

    def tau(w: np.ndarray) -> np.ndarray:
        return np.where(w == u, v, np.where(w == v, u, w))

    involution = at(iu, v) == at(iv, u)
    outs = out(at(u, iv)).astype(np.intp) + out(at(v, iu))
    uu, uv, vu, vv = at(u, u), at(u, v), at(v, u), at(v, v)
    corner = (
        (tau(uu) != vv).astype(np.intp)
        + (tau(uv) != vu)
        + (tau(vu) != uv)
        + (tau(vv) != uu)
    )
    return 3 * (2 * n - 4 - 2 * out(e)) - (1 + 2 * involution) * outs + corner


def estim2_bounds(n: int, m: int, l: int) -> tuple[int, Optional[int]]:
    """The two lower bounds from an l-element subset Y with Y and h.Y disjoint.

    The second bound only applies when ceil(n/4) - 2l >= 0; None otherwise.
    """
    for name, v in (("n", n), ("m", m), ("l", l)):
        check_integer(v, f"{name} =")
    if not 0 <= l <= m:
        raise InputError(f"need 0 <= l <= m, got l={l}, m={m}")
    bound1 = l * (n - m) + (n - 2 * l - 1) * m
    q4, q3 = math.ceil(n / 4), math.ceil(n / 3)
    bound2 = None
    if q4 - 2 * l >= 0:
        bound2 = l * (n - m) + (q4 - 2 * l) * q3 + (n - q4 - 1) * m
    return bound1, bound2


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


def check_prime_above_7(p: object) -> int:
    """p as a Python int, or raise NotPrime unless p is a prime greater than
    7, the primes for which delta(Z_p) = 6p - 18 is claimed."""
    if not is_prime(p) or p <= 7:
        raise NotPrime(f"need a prime greater than 7, got {p}")
    return int(p)


def analytic_lower_bound(p: int, m: int) -> BoundReport:
    """Aggregate every applicable lower bound on dist for prime order p.

    excluded means the best bound already reaches 6p-18, so no exhaustive
    search is needed for this m.

    The bounds take l = ceil(m/2), the size of a subset Y of the m
    disagreeing positions with Y and Y + 1 disjoint that every set of
    m < p positions has: there the links x -> x + 1 form paths, never a
    cycle, and every other point of each path gives such a Y.  Positions
    1..m show that no larger size is guaranteed.
    """
    p, m = check_prime_above_7(p), check_integer(m, "m =")
    if m < 3:
        raise MTooSmall(f"m = {m} cannot occur (rows differ in 0 or >= 3 places)")
    if m > p - 1:
        raise InputError(f"m = {m} exceeds p - 1 = {p - 1} at p = {p}")
    l = (m + 1) // 2
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
    # cell needs it to reach n.  Every triple sum is at least 3 min d, so
    # the scan is needed only when that is below n.  argwhere runs
    # row-major, so the violations come in the order of a scan over (a, b).
    if 3 * min(rows) < n:
        triple = d[:, None] + d + d[a.array]
        low = (triple < n) & mismatch
        if np.count_nonzero(low):
            for x, y in np.argwhere(low).tolist():
                w = {"a": x, "b": y, "ab": a.array.item(x, y), "sum": int(triple[x, y])}
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
