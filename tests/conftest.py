import random

import pytest

import cayleydist as cd


def cyclic(n: int) -> cd.GroupTable:
    return cd.make_group(cd.GroupKind.cyclic(n))


def dihedral(k: int) -> cd.GroupTable:
    return cd.make_group(cd.GroupKind.dihedral(k))


def random_permutation(n: int, rng: random.Random) -> cd.Permutation:
    img = list(range(n))
    rng.shuffle(img)
    return cd.Permutation(tuple(img))


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


# Independent oracles: plain double loops, kept deliberately separate from
# the library implementations they check.


def oracle_dist(a: cd.GroupTable, b: cd.GroupTable) -> int:
    return sum(
        a.cells[x][y] != b.cells[x][y] for x in range(a.n) for y in range(a.n)
    )


def oracle_row_dist(a: cd.GroupTable, b: cd.GroupTable, g: int) -> int:
    return sum(a.cells[g][y] != b.cells[g][y] for y in range(a.n))


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
