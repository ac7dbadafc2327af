import itertools
import math
import random
from functools import partial

import numpy as np
import pytest

import cayleydist as cd
from cayleydist.errors import (
    DimensionMismatch,
    HypothesisNotMet,
    InconsistentFactorizations,
    InputError,
    NoIdentity,
    NotLatin,
)
from cayleydist import metric
from cayleydist.group_core import check_element
from cayleydist.metric import LemmaViolation
from cayleydist import search
from cayleydist.search import all_group_tables


def cyclic(n: int) -> cd.GroupTable:
    return cd.make_group(cd.GroupKind.cyclic(n))


def dihedral(k: int) -> cd.GroupTable:
    return cd.make_group(cd.GroupKind.dihedral(k))


def random_permutation(n: int, rng: random.Random) -> cd.Permutation:
    img = list(range(n))
    rng.shuffle(img)
    return cd.Permutation(tuple(img))


def is_abelian(t: cd.GroupTable) -> bool:
    return bool((t.array == t.array.T).all())


def sign(f: cd.Permutation) -> int:
    """+1 for an even permutation, -1 for an odd one, from its cycles."""
    flips = sum(len(c) - 1 for c in f.cycles())
    return -1 if flips % 2 else 1


@pytest.fixture
def z5():
    return cyclic(5)


@pytest.fixture
def z7():
    return cyclic(7)


@pytest.fixture
def paper_f7():
    """The order-7 isomorphism witnessing distance 18 < 24."""
    return cd.Permutation((0, 1, 4, 5, 2, 3, 6))


@pytest.fixture
def m5_left_open(monkeypatch):
    """Weaken the search's m = 5 bound to 40, short of 6p - 18 at p >= 11,
    so that m, which has no pattern search, is left unproved."""
    real = search.analytic_lower_bound

    def weak_at_5(p, m):
        if m != 5:
            return real(p, m)
        return cd.BoundReport(p, m, (("row_floor", 40),), 40, False)

    monkeypatch.setattr(search, "analytic_lower_bound", weak_at_5)


# Independent oracles: plain double loops, kept deliberately separate from
# the library implementations they check.


def oracle_dist(a: cd.GroupTable, b: cd.GroupTable) -> int:
    return sum(
        a.cells[x][y] != b.cells[x][y] for x in range(a.n) for y in range(a.n)
    )


def oracle_row_dist(a: cd.GroupTable, b: cd.GroupTable, g: int) -> int:
    return sum(a.cells[g][y] != b.cells[g][y] for y in range(a.n))


def oracle_profile(a: cd.GroupTable, b: cd.GroupTable) -> tuple:
    """(total, row, m, agreement) of dist(a, b), cell by cell.  m is the
    least row distance over the rows other than the identity's when the
    identities coincide (0 at n = 1, which has no other row), else None."""
    row = tuple(oracle_row_dist(a, b, g) for g in range(a.n))
    m = None
    if a.identity == b.identity:
        others = [row[g] for g in range(a.n) if g != a.identity]
        m = min(others) if others else 0
    agreement = tuple(g for g in range(a.n) if row[g] == 0)
    return sum(row), row, m, agreement


def oracle_mf(f, h: cd.GroupTable, k: cd.GroupTable) -> int:
    img = f.image if isinstance(f, cd.Permutation) else f
    return sum(
        img[h.cells[a][b]] != k.cells[img[a]][img[b]]
        for a in range(h.n)
        for b in range(h.n)
    )


def oracle_min_transposition(t: cd.GroupTable) -> tuple[int, cd.Permutation]:
    """Minimum of oracle_mf over the transpositions (u v), u < v, in
    lexicographic order; the first minimizer is the witness."""
    best = None
    for u in range(t.n):
        for v in range(u + 1, t.n):
            tau = cd.Permutation.transposition(t.n, u, v)
            mf = oracle_mf(tau, t, t)
            if best is None or mf < best[0]:
                best = (mf, tau)
    return best


def oracle_first_nonassociative(cells) -> str | None:
    """The NotAssociative message for the lexicographically first (a, b, c)
    with (ab)c != a(bc), or None if the table is associative."""
    n = len(cells)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if cells[cells[a][b]][c] != cells[a][cells[b][c]]:
                    return f"(a,b,c)=({a},{b},{c}): ({a}*{b})*{c} != {a}*({b}*{c})"
    return None


def reduced_loops(n: int):
    """Every Latin square on 0..n-1 whose row 0 and column 0 read 0..n-1,
    that is every loop with identity 0, by backtracking over the cells."""
    cells = [[b if a == 0 else a if b == 0 else -1 for b in range(n)] for a in range(n)]
    rows = [set(r) - {-1} for r in cells]
    cols = [set(c) - {-1} for c in zip(*cells)]
    free = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(k):
        if k == len(free):
            yield [r[:] for r in cells]
            return
        a, b = free[k]
        for v in range(n):
            if v not in rows[a] and v not in cols[b]:
                cells[a][b] = v
                rows[a].add(v)
                cols[b].add(v)
                yield from fill(k + 1)
                rows[a].discard(v)
                cols[b].discard(v)
        cells[a][b] = -1

    yield from fill(0)


def switched_intercalate(k: int, rng: random.Random) -> list[list[int]]:
    """Z_2k with one intercalate switched: rows a, a+k and columns b, b+k
    hold a 2x2 Latin subsquare, and swapping it keeps the Latin property and
    the identity 0 but breaks associativity."""
    n = 2 * k
    cells = [[(x + y) % n for y in range(n)] for x in range(n)]
    a, b = rng.randrange(1, k), rng.randrange(1, k)
    for x in (a, a + k):
        cells[x][b], cells[x][b + k] = cells[x][b + k], cells[x][b]
    return cells


def _oracle_dihedral_mul(k: int, a: int, b: int) -> int:
    # 0..k-1 are rotations r^i, k..2k-1 are reflections r^i s.
    ai, ar = a % k, a >= k
    bi, br = b % k, b >= k
    ci = (ai - bi) % k if ar else (ai + bi) % k
    return ci + (k if ar != br else 0)


def _oracle_quaternion8_mul(_: int, a: int, b: int) -> int:
    # index = i + 4j for a^i b^j with a^4 = 1, b^2 = a^2, b a b^-1 = a^-1.
    i, j = a % 4, a // 4
    k2, l = b % 4, b // 4
    exp = (i + (-k2 if j else k2) + (2 if j and l else 0)) % 4
    return exp + 4 * ((j + l) % 2)


_ORACLE_MUL = {
    "cyclic": lambda n, a, b: (a + b) % n,
    "dihedral": _oracle_dihedral_mul,
    "elementary_abelian": lambda _, a, b: a ^ b,
    "quaternion8": _oracle_quaternion8_mul,
}


def oracle_make_group(kind: cd.GroupKind) -> cd.GroupTable:
    """make_group as a scalar mul(a, b) evaluated cell by cell."""
    if kind.family == "direct_product":
        t1, t2 = (oracle_make_group(f) for f in kind.factors)
        n2 = t2.n

        def mul(a: int, b: int) -> int:
            return t1.cells[a // n2][b // n2] * n2 + t2.cells[a % n2][b % n2]

    else:
        mul = partial(_ORACLE_MUL[kind.family], kind.param)
    n = kind.order
    cells = tuple(tuple(mul(a, b) for b in range(n)) for a in range(n))
    return cd.GroupTable(n=n, cells=cells, identity=0)


def oracle_transport(t: cd.GroupTable, f: cd.Permutation) -> cd.GroupTable:
    """The table with a * b = f(f^-1(a) . f^-1(b)), cell by cell."""
    finv = f.inverse().image
    img = f.image
    cells = tuple(
        tuple(img[t.cells[finv[a]][finv[b]]] for b in range(t.n)) for a in range(t.n)
    )
    return cd.GroupTable(n=t.n, cells=cells, identity=img[t.identity])


def oracle_check_lemmas(a: cd.GroupTable, b: cd.GroupTable) -> list:
    """check_lemmas as a scan over the rows and then the cells (a, b)."""
    n = a.n
    row = [oracle_row_dist(a, b, g) for g in range(n)]
    total = sum(row)
    out = []
    for g, d in enumerate(row):
        if d == 1:
            out.append(LemmaViolation("row_distance_one", {"g": g}))
        if d == 2 and n % 2 == 1:
            out.append(LemmaViolation("row_distance_two", {"g": g}))
    for x in range(n):
        if row[x] == 0:
            continue
        arow, brow = a.cells[x], b.cells[x]
        for y in range(n):
            if arow[y] != brow[y]:
                s = row[x] + row[y] + row[arow[y]]
                if s < n:
                    out.append(
                        LemmaViolation(
                            "row_triple_sum",
                            {"a": x, "b": y, "ab": arow[y], "sum": s},
                        )
                    )
    if n > 7 and total <= 6 * n - 18 and a.identity != b.identity:
        isomorphic = False
        if cd.is_prime(n):
            isomorphic = True
        elif n <= 8:
            isomorphic = cd.are_isomorphic(a, b)[0]
        if isomorphic:
            out.append(
                LemmaViolation(
                    "identity_mismatch",
                    {"identity_a": a.identity, "identity_b": b.identity, "total": total},
                )
            )
    return out


def oracle_isomorphisms(a: cd.GroupTable, b: cd.GroupTable) -> list[cd.Permutation]:
    """_isomorphisms as a per-candidate search: each tuple of same-order
    images of a's generating sequence, in itertools.product order, walked
    to a map one element at a time and kept if it is a bijection that
    respects every cell."""
    if a.order_profile() != b.order_profile():
        return []
    gens = cd.generating_sequence(a)
    candidates = [[x for x, o in enumerate(b.orders) if o == a.orders[g]] for g in gens]
    walk = cd.group_core._span(a, gens).items()
    out = []
    for images in itertools.product(*candidates):
        f = [-1] * a.n
        for y, (x, i) in walk:
            f[y] = b.identity if x < 0 else b.cells[f[x]][images[i]]
        if sorted(f) != list(range(a.n)):
            continue
        if all(
            f[a.cells[x][y]] == b.cells[f[x]][f[y]] for x in range(a.n) for y in range(a.n)
        ):
            out.append(cd.Permutation(tuple(f)))
    return out


def estim1_bound(n: int, m: int) -> int:
    """estim2's second bound at l = 0, in closed form:
    ceil(n/4)*ceil(n/3) + (n - ceil(n/4) - 1)*m."""
    q4 = -(-n // 4)
    return q4 * -(-n // 3) + (n - q4 - 1) * m


def max_disjoint_subset(t: cd.GroupTable, h: int, disagree) -> list[int]:
    """Largest Y within `disagree` with Y and h.Y disjoint, by trying every
    subset from the largest down: the exhaustive oracle for the l that
    analytic_lower_bound derives.  Its arguments are held to the element
    rule."""
    for x in (h, *disagree):
        check_element(x, t.n, "element")
    elems = sorted(set(disagree))
    hrow = t.array[h].tolist()
    for size in range(len(elems), 0, -1):
        for sub in itertools.combinations(elems, size):
            if {hrow[y] for y in sub}.isdisjoint(sub):
                return list(sub)
    return []


def oracle_first_invalid(cells) -> tuple[type, str] | None:
    """The error class and message for the first shape, range, Latin or
    identity offender of a row-by-row scan, or None if the table passes
    them all."""
    n = len(cells)
    for a, row in enumerate(cells):
        if not hasattr(row, "__len__"):
            return DimensionMismatch, f"row {a} = {row!r} is not a sequence"
        if len(row) != n:
            return DimensionMismatch, f"row {a} has {len(row)} entries, expected {n}"
        for b, v in enumerate(row):
            if not isinstance(v, (int, np.integer, np.bool_)):
                return InputError, f"cell ({a},{b}) = {v!r} is not an integer"
            if not 0 <= v < n:
                return InputError, f"cell ({a},{b}) = {v} outside 0..{n - 1}"
    for a, row in enumerate(cells):
        seen = [-1] * n
        for b, v in enumerate(row):
            if seen[v] >= 0:
                return NotLatin, f"row {a} repeats value {v} at columns {seen[v]} and {b}"
            seen[v] = b
    for b in range(n):
        seen = [-1] * n
        for a in range(n):
            v = cells[a][b]
            if seen[v] >= 0:
                return NotLatin, f"column {b} repeats value {v} at rows {seen[v]} and {a}"
            seen[v] = a
    ident = list(range(n))
    if not any(
        list(cells[a]) == ident and all(cells[b][a] == b for b in range(n)) for a in range(n)
    ):
        return NoIdentity, "no two-sided identity element"
    return None


def oracle_closure(t: cd.GroupTable, seed: set[int]) -> set[int]:
    """The subgroup generated by seed, closed under products both ways."""
    out = set(seed)
    frontier = list(seed)
    while frontier:
        x = frontier.pop()
        for y in tuple(out):
            for z in (t.cells[x][y], t.cells[y][x]):
                if z not in out:
                    out.add(z)
                    frontier.append(z)
    return out


def oracle_is_dihedral_twice_odd(t: cd.GroupTable) -> bool:
    """is_dihedral_twice_odd as a search for r of order k and a reflection
    s outside <r> with s^2 = e and srs = r^-1."""
    if t.n % 2 != 0:
        return False
    k = t.n // 2
    if k % 2 == 0 or k < 3:
        return False
    for r in range(t.n):
        if t.element_order(r) != k:
            continue
        rot = {cd.power(t, r, i) for i in range(k)}
        r_inv = t.inverse(r)
        for s in range(t.n):
            if s in rot:
                continue
            if t.cells[s][s] != t.identity:
                continue
            if t.cells[t.cells[s][r]][s] == r_inv:
                return True
        return False  # every order-k element generates the same subgroup
    return False


def oracle_all_group_tables(
    n: int,
) -> tuple[np.ndarray, np.ndarray, tuple[cd.GroupKind, ...], np.ndarray]:
    """Every group table of order n as a per-table dedupe loop over the
    transports of each catalog kind by every permutation f in
    itertools.permutations order, raising if two kinds produce the same
    table: (tables (N, n, n) uint8, labels (N,) int64, kinds, firsts
    (N, n) uint8), where firsts[i] is the first f that gave table i."""
    kinds = tuple(cd.groups_of_order(n))
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    pinv = np.argsort(perms, axis=1)
    seen: dict[bytes, int] = {}
    uniq: list[np.ndarray] = []
    labels: list[int] = []
    firsts: list[np.ndarray] = []
    rows_idx = np.arange(len(perms))[:, None, None]
    for label, kind in enumerate(kinds):
        cells = cd.make_group(kind).array
        inner = cells[pinv[:, :, None], pinv[:, None, :]]
        transported = perms[rows_idx, inner].astype(np.uint8)
        for f, t in zip(perms, transported):
            key = t.tobytes()
            prev = seen.get(key)
            if prev is None:
                seen[key] = label
                uniq.append(t)
                labels.append(label)
                firsts.append(f)
            elif prev != label:  # two catalog kinds produced the same table
                raise InputError(f"catalog overlap at order {n}: {kinds[prev]} vs {kind}")
    return (
        np.stack(uniq),
        np.array(labels, dtype=np.int64),
        kinds,
        np.array(firsts, dtype=np.uint8).reshape(-1, n),
    )


def expanded_tables(n: int) -> np.ndarray:
    """all_group_tables(n)'s tables as an (N, n, n) uint8 array: table i is
    the canonical table of its kind transported by reps[i], as a fancy
    gather f[G[f^-1, f^-1]] with f^-1 by argsort."""
    reps, labels, kinds, _ = all_group_tables(n)
    tables = np.empty((len(reps), n, n), dtype=np.uint8)
    for label, kind in enumerate(kinds):
        own = labels == label
        f = reps[own].astype(np.intp)
        finv = np.argsort(f, axis=1)
        inner = cd.make_group(kind).array[finv[:, :, None], finv[:, None, :]]
        tables[own] = f[np.arange(len(f))[:, None, None], inner]
    return tables


def oracle_pairwise_delta(n: int, scope: str) -> tuple[int, tuple[cd.GroupTable, cd.GroupTable]]:
    """brute_delta as the O(N^2) sweep over every pair (i < j) of the N
    tables of oracle_all_group_tables(n), returning the lexicographically
    first minimizing pair."""
    scope = {"isomorphic_only": "mu", "nonisomorphic_only": "nu"}.get(scope, scope)
    tables, labels, _, _ = oracle_all_group_tables(n)
    flat = tables.reshape(len(tables), -1)
    best_val = None
    best_pair = None
    for i in range(len(flat) - 1):
        diffs = np.count_nonzero(flat[i + 1 :] != flat[i], axis=1)
        if scope == "mu":
            mask = labels[i + 1 :] == labels[i]
        elif scope == "nu":
            mask = labels[i + 1 :] != labels[i]
        else:
            mask = np.ones(len(diffs), dtype=bool)
        mask &= diffs > 0
        if not mask.any():
            continue
        masked = np.where(mask, diffs, n * n + 1)
        j = int(np.argmin(masked))
        if best_val is None or int(masked[j]) < best_val:
            best_val = int(masked[j])
            best_pair = (i, i + 1 + j)
    assert best_val is not None and best_pair is not None
    return best_val, (
        cd.validate_table(tables[best_pair[0]]),
        cd.validate_table(tables[best_pair[1]]),
    )


def oracle_brute_delta_by_kinds(n: int, scope: str) -> tuple[int, tuple[cd.GroupTable, cd.GroupTable]]:
    """brute_delta as the minimum of kind_stability over the kinds of order
    n, each kind building and validating its own witness; the first kind
    at the minimum wins."""
    return min(
        (cd.kind_stability(kind, scope) for kind in cd.groups_of_order(n)),
        key=lambda result: result[0],
    )


def light_set(a: cd.GroupTable, b: cd.GroupTable) -> list[int]:
    """Rows where the tables nearly agree, {g : d(g) < n/3} strict: the set
    that reconstruct_isomorphism fixes, read through its own kernels."""
    return metric._light_rows(metric._mismatches(a, b)[1]).tolist()


def oracle_complete_block(
    p: int, h: int, positions: np.ndarray, sources: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """phi and the p-cycle mask for a block of B patterns over the
    canonical Z_p, each modifying the row of h, by walking sigma: phi is
    (p, B) uint8 with phi[k, j] the image of k under pattern j, and ok is
    (B,) bool.  positions and sources are (B, m) exponent arrays: slot j
    of pattern b takes the row value at exponent sources[b, j].

    The row of h maps x to x + h; the element at exponent i is i*h, so the
    pattern writes (source + 1)*h at column position*h.  phi(k) is
    sigma^k(0); sigma is a single p-cycle iff no phi(k), 0 < k < p, is 0,
    and then the completed table is the transport of Z_p by phi.
    """
    positions = np.asarray(positions, dtype=np.intp)
    sources = np.asarray(sources, dtype=np.intp)
    b = len(positions)
    sigma = np.tile(((np.arange(p) + h) % p).astype(np.uint8), (b, 1))
    sigma[np.arange(b)[:, None], positions * h % p] = (sources + 1) * h % p
    flat = sigma.ravel()
    offsets = np.arange(b) * p
    walk = np.zeros((p, b), dtype=np.uint8)  # walk[k] = sigma^k(0)
    for k in range(1, p):
        walk[k] = flat[offsets + walk[k - 1]]
    return walk, (walk[1:] != 0).all(axis=0)


def oracle_family(p: int, m: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Every pattern of one row in enumerate_patterns order, by
    itertools: (positions, sources) as (N, m) intp exponent arrays, and
    each pattern's next-slot row from search.REARRANGEMENTS."""
    family = [
        (pos, nxt)
        for pos in itertools.combinations(range(1, p), m)
        for nxt in search.REARRANGEMENTS[m]
    ]
    positions = np.array([pos for pos, _ in family], dtype=np.intp)
    sources = np.array([[pos[k] for k in nxt] for pos, nxt in family], dtype=np.intp)
    return positions, sources, [nxt for _, nxt in family]


def oracle_pattern_table(p: int, m: int) -> np.ndarray:
    """search._pattern_table by itertools: every position tuple, kept when
    it is at most its reflection R, its inversion I and RI, each compared
    at the first slot where the two differ; R and RI count only when p - 1
    is not a position."""
    count = math.comb(p - 1, m)
    flat = itertools.chain.from_iterable(itertools.combinations(range(1, p), m))
    combos = np.fromiter(flat, dtype=np.uint8, count=count * m).reshape(count, m)
    rows = np.arange(count)

    def at_most(other: np.ndarray) -> np.ndarray:
        first = (other != combos).argmax(axis=1)
        return other[rows, first] >= combos[rows, first]

    inverted = combos[:, :1] + combos[:, -1:] - combos[:, ::-1]
    reflected = p - 1 - combos[:, ::-1]
    both = p - 1 - inverted[:, ::-1]
    has_reflection = combos[:, -1] != p - 1
    keep = at_most(inverted) & (~has_reflection | (at_most(reflected) & at_most(both)))
    return combos[keep]


def oracle_search_m(p: int, m: int, rows) -> search.MCase:
    """search._search_m without the orbit quotient or the segment rule:
    every pattern of every row in rows is walked by oracle_complete_block,
    and each that completes is scored, in enumeration order."""
    positions, sources, nxts = oracle_family(p, m)
    completing = 0
    min_distance = None
    witness = None
    for h in rows:
        phi, ok = oracle_complete_block(p, h, positions, sources)
        dvals = search._phi_distances(p, phi[:, ok])
        completing += len(dvals)
        if len(dvals) and (min_distance is None or dvals.min() < min_distance):
            k = int(np.argmin(dvals))
            j = int(np.flatnonzero(ok)[k])
            min_distance = int(dvals[k])
            witness = search._pattern(p, h, tuple(positions[j].tolist()), nxts[j])
    return search.MCase(
        m=m,
        candidates_enumerated=len(positions) * len(rows),
        candidates_completing=completing,
        min_distance=min_distance,
        witness=witness,
    )


def oracle_span(t: cd.GroupTable, gens) -> dict[int, tuple[int, int]]:
    """group_core._span as a breadth-first walk over the cells tuple."""
    reached = {t.identity: (-1, -1)}
    walk = [t.identity]
    for x in walk:
        for i, g in enumerate(gens):
            y = t.cells[x][g]
            if y not in reached:
                reached[y] = (x, i)
                walk.append(y)
    return reached


def oracle_generating_sequence(t: cd.GroupTable) -> list[int]:
    """generating_sequence as the greedy loop that walks the span from the
    identity afresh, with group_core._span, after each new generator."""
    span = {t.identity}
    gens: list[int] = []
    for x in range(t.n):
        if x not in span:
            gens.append(x)
            span = cd.group_core._span(t, gens).keys()
    return gens


def oracle_reconstruct(a: cd.GroupTable, b: cd.GroupTable) -> cd.Permutation:
    """reconstruct_isomorphism as a loop over the cells (x, y) of K x K,
    row-major, setting f(xy) from the first factorization and checking
    every later one against it."""
    n = a.n
    prof = cd.dist(a, b)
    K = [g for g, d in enumerate(prof.row) if 3 * d < n]
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
    perm = cd.Permutation(tuple(f))
    if cd.hom_distance(perm, a, b) != 0:
        raise InconsistentFactorizations("reconstructed map is not an isomorphism")
    for g, d in enumerate(prof.row):
        if 3 * d > 2 * n and f[g] == g:
            raise InconsistentFactorizations(f"heavy row {g} (d={d}) is fixed")
    return perm


def outcome(call, *args):
    """call(*args), or the class and message of the InputError or
    ViolationError it raises."""
    try:
        return call(*args)
    except (InputError, cd.ViolationError) as exc:
        return type(exc), str(exc)


def _relabelled(cells: list[list[int]], phi) -> list[list[int]]:
    return [[phi(v) for v in row] for row in cells]


def reconstruct_branch_cases() -> dict[str, tuple[cd.GroupTable, cd.GroupTable, type, str]]:
    """Pairs (a, b) that reach each failure branch of reconstruct_isomorphism,
    with the class and message it raises there.  All but the first are built
    by the GroupTable constructor, which checks no group axioms: on groups,
    the branches after the hypothesis check cannot be reached."""
    z8 = [[(x + y) % 8 for y in range(8)] for x in range(8)]
    cases = {}

    # Z_7 and its transport by (2 4)(3 5): every row but 0 differs in 3 >= 7/3
    # cells.
    z7 = cyclic(7)
    moved = cd.transport(z7, cd.Permutation((0, 1, 4, 5, 2, 3, 6)))
    cases["hypothesis"] = (z7, moved, HypothesisNotMet, "|K| = 1 <= 3n/4 = 5.25")

    # One cell of Z_8 changed: 1*1 reads 5, while 0*2 already sent 2 to 2.
    b = [row[:] for row in z8]
    b[1][1] = 5
    cases["disagree"] = (
        cd.GroupTable(8, z8, 0),
        cd.GroupTable(8, b, 0),
        InconsistentFactorizations,
        "element 2: factorizations disagree (2 vs 5)",
    )

    # Two changed cells: the row-major scan over K x K meets (1, 4), where 5
    # reads 1, before (2, 1), where the smaller element 3 reads 7.
    b = [row[:] for row in z8]
    b[1][4], b[2][1] = 1, 7
    cases["disagree_scan_order"] = (
        cd.GroupTable(8, z8, 0),
        cd.GroupTable(8, b, 0),
        InconsistentFactorizations,
        "element 5: factorizations disagree (5 vs 1)",
    )

    # 0*2 reads 5, so the first factorization sets f(2) = 5, and 1*1 = 2 is
    # the one that disagrees.
    b = [row[:] for row in z8]
    b[0][2] = 5
    cases["disagree_first_value"] = (
        cd.GroupTable(8, z8, 0),
        cd.GroupTable(8, b, 0),
        InconsistentFactorizations,
        "element 2: factorizations disagree (5 vs 2)",
    )

    # The all-zero table against itself: K is every row, and no product is
    # 1.  In a group, K.K = G whenever |K| > n/2, so this needs a non-group.
    zero = cd.GroupTable(4, [[0] * 4] * 4, 0)
    cases["no_factorization"] = (
        zero,
        zero,
        InconsistentFactorizations,
        "element 1 has no factorization inside the light set",
    )

    # Z_7 with 0 and 1 swapped in every cell: each row differs in 2 < 7/3
    # cells, so every element is light, and f = (0 1) moves 0.
    z7_cells = [list(r) for r in z7.cells]
    swap01 = _relabelled(z7_cells, lambda v: {0: 1, 1: 0}.get(v, v))
    cases["light_moved"] = (
        z7,
        cd.GroupTable(7, swap01, 1),
        InconsistentFactorizations,
        "light element 0 moved to 1",
    )

    # Z_8 with 7 read as 0 in rows 0..6 (one cell each) and row 7 all 0:
    # K = 0..6, and f sends both 0 and 7 to 0.
    b = _relabelled(z8[:7], lambda v: v % 7) + [[0] * 8]
    cases["not_bijection"] = (
        cd.GroupTable(8, z8, 0),
        cd.GroupTable(8, b, 0),
        InconsistentFactorizations,
        "reconstructed map is not a bijection",
    )

    # Z_8 with row 7 all 0: K = 0..6 rebuilds the identity map, which
    # disagrees with row 7.
    b = z8[:7] + [[0] * 8]
    cases["not_isomorphism"] = (
        cd.GroupTable(8, z8, 0),
        cd.GroupTable(8, b, 0),
        InconsistentFactorizations,
        "reconstructed map is not an isomorphism",
    )

    # Z_16 with row 3 all 1, transported by (1 2): rows 1 and 2 are heavy
    # and swapped, the other rows are light, and row 3, which (1 2) fixes,
    # reads 2 where it read 1 in every cell.
    z16 = [[(x + y) % 16 for y in range(16)] for x in range(16)]
    z16[3] = [1] * 16
    a = cd.GroupTable(16, z16, 0)
    cases["heavy_fixed"] = (
        a,
        cd.transport(a, cd.Permutation.transposition(16, 1, 2)),
        InconsistentFactorizations,
        "heavy row 3 (d=16) is fixed",
    )
    return cases
