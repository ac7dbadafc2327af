"""Finite-group Cayley tables on the element set {0, ..., n-1}.

Every GroupTable holds one form from construction, a read-only (n, n)
np.intp array with n >= 1 and values in 0..n-1, and the library reads
tables only through it.  make_group and transport build a group; the
constructor and validate_table read cells through one reader that names
the first shape or cell offender, and only validate_table checks the group
axioms.  Identity is located by scan -- ingested tables need not place it at 0.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InputError,
    InvalidPermutation,
    NoIdentity,
    NotAssociative,
    NotLatin,
    OrderTooLarge,
)


# The types that count as an integer input: ints, numpy integers and bools.
INTEGER_TYPES = (int, np.integer, np.bool_)


def check_integer(v: object, what: str, error: type[InputError] = InputError) -> int:
    """v as a Python int, or raise error if v is not an integer; the message
    leads with what, the name of v, and shows the offending value."""
    if not isinstance(v, INTEGER_TYPES):
        raise error(f"{what} {v!r} is not an integer")
    return int(v)


def check_element(v: object, n: int, what: str, error: type[InputError] = InputError) -> int:
    """v as check_integer returns it, raising error unless it lies in 0..n-1."""
    v = check_integer(v, what, error)
    if not 0 <= v < n:
        raise error(f"{what} {v} outside 0..{n - 1}")
    return v


def is_prime(n: int) -> bool:
    """False for anything but a prime integer, so every prime gate names a non-integer."""
    if not isinstance(n, INTEGER_TYPES) or n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0, ..., n-1}, stored as its image tuple of Python
    ints: bool and numpy integer entries are read as the ints they stand for."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.image)
        if not set(map(type, self.image)) <= {int}:
            image = tuple(
                check_element(v, n, "image entry", InvalidPermutation) for v in self.image
            )
            object.__setattr__(self, "image", image)
        if sorted(self.image) != list(range(n)):
            raise InvalidPermutation(f"not a bijection of 0..{n - 1}: {self.image}")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, x: int) -> int:
        check_element(x, self.n, "element")
        return self.image[x]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.image):
            inv[v] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self . other)(x) = self(other(x))."""
        if self.n != other.n:
            raise DimensionMismatch(f"compose: {self.n} vs {other.n}")
        return Permutation(tuple(self.image[v] for v in other.image))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.image[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.image[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.image))

    def cycle_notation(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        return cls.from_cycles(n, [(a, b)])

    @classmethod
    def from_cycles(cls, n: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        image = list(range(n))
        touched: set[int] = set()
        for cyc in cycles:
            for x in cyc:
                check_element(x, n, "cycle entry", InvalidPermutation)
                if x in touched:
                    raise InvalidPermutation(f"element {x} appears in two cycles")
                touched.add(x)
            for i, x in enumerate(cyc):
                image[x] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(image))

    @classmethod
    def parse(cls, text: str, n: Optional[int] = None) -> "Permutation":
        """Parse either an image line "0 1 4 5 2 3 6" or cycles "(2 3)(5 7)".

        Cycle entries may be separated by spaces or commas; cycle notation
        requires n to be given.
        """
        text = text.strip()
        if not text:
            raise InvalidPermutation("empty permutation")
        if text.startswith("("):
            if n is None:
                raise InvalidPermutation("cycle notation needs the order n")
            cycles = []
            for body in re.findall(r"\(([^()]*)\)", text):
                entries = [tok for tok in re.split(r"[,\s]+", body.strip()) if tok]
                if not entries:
                    raise InvalidPermutation(f"empty cycle in {text!r}")
                try:
                    cycles.append(tuple(int(tok) for tok in entries))
                except ValueError as exc:
                    raise InvalidPermutation(f"bad cycle entry in {text!r}") from exc
            leftover = re.sub(r"\([^()]*\)", "", text).strip()
            if leftover:
                raise InvalidPermutation(f"stray token {leftover!r} in cycles")
            return cls.from_cycles(n, cycles)
        if text == "id":
            if n is None:
                raise InvalidPermutation("'id' needs the order n")
            return cls.identity(n)
        try:
            image = tuple(int(tok) for tok in re.split(r"[,\s]+", text) if tok)
        except ValueError as exc:
            raise InvalidPermutation(f"bad image entry in {text!r}") from exc
        if n is not None and len(image) != n:
            raise InvalidPermutation(f"expected {n} entries, got {len(image)}")
        return cls(image)


class GroupTable:
    """An immutable n x n Cayley table; array[a, b] = a * b.

    Equality and hashing read (identity, array).  The constructor checks
    that identity is an element, not the group axioms.  cells, the rows as
    tuples of ints, is a view for callers outside the library.
    """

    def __init__(self, n: int, cells: Sequence[Sequence[int]], identity: int) -> None:
        arr = _cell_array(cells, n)
        identity = check_element(identity, n, "identity")
        arr.setflags(write=False)
        vars(self).update(n=n, identity=identity, array=arr)

    @classmethod
    def _from_array(cls, arr: np.ndarray, identity: int) -> "GroupTable":
        """The table holding arr, with arr (made read-only) as its array."""
        arr.setflags(write=False)
        t = cls.__new__(cls)
        vars(t).update(n=len(arr), identity=identity, array=arr)
        return t

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"GroupTable is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.identity == other.identity and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.identity, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"GroupTable(n={self.n!r}, cells={self.cells!r}, identity={self.identity!r})"

    @cached_property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples of Python ints, built from array on first read."""
        return tuple(map(tuple, self.array.tolist()))

    def inverse(self, a: int) -> int:
        a = check_element(a, self.n, "element")
        return self.array[a].tolist().index(self.identity)

    def element_order(self, g: int) -> int:
        g = check_element(g, self.n, "element")
        times_g = self.array[:, g].tolist()
        k, x = 1, g
        while x != self.identity:
            # In a group the walk returns to the identity within n steps.
            if k >= self.n:
                raise InputError(f"element {g} does not reach the identity in {self.n} steps")
            x = times_g[x]
            k += 1
        return k

    @cached_property
    def orders(self) -> tuple[int, ...]:
        """element_order of each element, built on first use."""
        return tuple(map(self.element_order, range(self.n)))

    def order_profile(self) -> tuple[int, ...]:
        return tuple(sorted(self.orders))

    def to_text(self) -> str:
        lines = [str(self.n)]
        lines.extend(" ".join(map(str, row)) for row in self.array.tolist())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GroupTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise InputError("empty table file")
        try:
            n = int(lines[0].strip())
        except ValueError as exc:
            raise InputError(f"first line must be the order n, got {lines[0]!r}") from exc
        if len(lines) != n + 1:
            raise InputError(f"expected {n} table rows, got {len(lines) - 1}")
        # A token that is not an integer stays a str, which validate_table
        # names as a non-integer cell in its row-major scan.
        return validate_table([[_int_or_token(tok) for tok in ln.split()] for ln in lines[1:]])


def _int_or_token(tok: str) -> int | str:
    try:
        return int(tok)
    except ValueError:
        return tok


def validate_table(cells: Sequence[Sequence[int]]) -> GroupTable:
    """Check the Latin property, a unique two-sided identity, associativity.

    Reads cells as the constructor does, then raises NotLatin / NoIdentity
    / NotAssociative naming the first offender.  Each pass runs on the whole
    array; Python walks only the offending row or column, to name the
    offender as a row-major scan would.
    """
    arr = _cell_array(cells)
    n = len(arr)
    # A line is Latin iff each value occurs once in it: count (line, value).
    line = np.arange(n)
    for lines, name, other in ((arr, "row", "columns"), (arr.T, "column", "rows")):
        counts = np.bincount((line[:, None] * n + lines).ravel(), minlength=n * n)
        if (counts != 1).any():
            a = int(np.argmax((counts != 1).reshape(n, n).any(axis=1)))
            seen: dict[int, int] = {}
            for b, v in enumerate(lines[a].tolist()):
                if v in seen:
                    raise NotLatin(f"{name} {a} repeats value {v} at {other} {seen[v]} and {b}")
                seen[v] = b
    # The first a whose row and column both read 0..n-1.
    is_identity = (arr == line).all(axis=1) & (arr.T == line).all(axis=1)
    if not is_identity.any():
        raise NoIdentity("no two-sided identity element")
    e = int(np.argmax(is_identity))
    t = GroupTable._from_array(arr, identity=e)
    # The c with (ab)c = a(bc) for every a, b include e and are closed under
    # products, so once they include a generating sequence they include all
    # its walk reaches: every element.  Checking the generators decides
    # associativity.  The full scan, one (n, n) slab per a whose [b, c] holds
    # (ab)c against a(bc), runs only to name the first offender: the first
    # True of a row-major slab is the lexicographically first (a, b, c).
    gens = generating_sequence(t)
    if not all((arr[:, c].take(arr) == arr.take(arr[:, c], 1)).all() for c in gens):
        for a in range(n):
            bad = arr.take(arr[a], 0) != arr[a].take(arr)
            if bad.any():
                b, c = divmod(int(np.argmax(bad)), n)
                raise NotAssociative(f"(a,b,c)=({a},{b},{c}): ({a}*{b})*{c} != {a}*({b}*{c})")
    return t


def _is_sequence(x: object) -> bool:
    """A Sequence other than str and bytes, or an array of rank >= 1."""
    return not isinstance(x, (str, bytes)) and (isinstance(x, Sequence) or np.ndim(x) > 0)


def _cell_array(cells: Sequence[Sequence[int]], n: Optional[int] = None) -> np.ndarray:
    """cells as an (n, n) np.intp array of values in 0..n-1; n defaults to
    the number of rows.

    Raises InputError for n = 0, then at the first offender of a row-major
    scan: DimensionMismatch for a table that is not a sequence of n rows or
    a row that is not a sequence of n entries, InputError for a cell that
    is not an integer (ints, numpy integers and bools are) or lies outside
    0..n-1.
    """
    if not _is_sequence(cells):
        raise DimensionMismatch(f"table {cells!r} is not a sequence of rows")
    n = len(cells) if n is None else n
    if n == 0:
        raise InputError("empty table")
    try:
        arr = np.array(cells)
    except ValueError:  # ragged rows, or a cell holds a sequence
        arr = np.empty(0)
    if arr.shape == (n, n) and np.can_cast(arr.dtype, np.intp):
        arr = arr.astype(np.intp, copy=False)
        if ((arr >= 0) & (arr < n)).all():
            return arr
    # The input values, not a converted array: numpy infers float64 for
    # [0, 2**63], and a cast to an integer dtype truncates floats and parses
    # digit strings.
    if len(cells) != n:
        raise DimensionMismatch(f"table has {len(cells)} rows, expected {n}")
    for a, row in enumerate(cells):
        if not _is_sequence(row):
            raise DimensionMismatch(f"row {a} = {row!r} is not a sequence")
        if len(row) != n:
            raise DimensionMismatch(f"row {a} has {len(row)} entries, expected {n}")
        for b, v in enumerate(row):
            check_element(v, n, f"cell ({a},{b}) =")
    return np.array(cells, dtype=np.intp)


def _dihedral_mul(k: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # 0..k-1 are rotations r^i, k..2k-1 are reflections r^i s.
    ar = a >= k
    return np.where(ar, a - b, a + b) % k + k * (ar != (b >= k))


def _xor(_: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a ^ b


def _quaternion8_mul(_: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # index = i + 4j for a^i b^j with a^4 = 1, b^2 = a^2, b a b^-1 = a^-1.
    i, j = a % 4, a // 4
    k2, l = b % 4, b // 4
    exp = (i + np.where(j, -k2, k2) + 2 * j * l) % 4
    return exp + 4 * ((j + l) % 2)


# family -> (label token, (param name, least param), order from param,
# mul(param, a, b)); identity 0.  mul runs once per table, on index arrays
# a[:, None] and a, for all cells.  Each family is named after its GroupKind
# constructor, and a token without "{}" names a family that takes no param
# (param 0).  direct_product, built from its factors, is the one family
# outside the table.
_Family = tuple[str, tuple[str, int], Callable[[int], int], Callable[..., np.ndarray]]
_FAMILIES: dict[str, _Family] = {
    "cyclic": ("cyclic:{}", ("cyclic order", 1), lambda n: n, lambda n, a, b: (a + b) % n),
    "dihedral": ("dihedral:{}", ("dihedral parameter", 1), lambda k: 2 * k, _dihedral_mul),
    "elementary_abelian": ("e2:{}", ("elementary-abelian exponent", 0), lambda k: 2**k, _xor),
    "quaternion8": ("q8", ("quaternion8 param", 0), lambda _: 8, _quaternion8_mul),
}
_FAMILY_OF_TOKEN = {token: family for family, (token, *_) in _FAMILIES.items()}


@dataclass(frozen=True)
class GroupKind:
    """Catalog tag for the group families used by the small-order tests;
    valid from construction, with an int param that meets its family's rule."""

    family: str
    param: int = 0
    factors: tuple["GroupKind", ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.factors, (tuple, list)):
            raise InputError(f"factors {self.factors!r} is not a sequence of GroupKind")
        # A tuple, so that the kind hashes and equals its catalog twin.
        object.__setattr__(self, "factors", tuple(self.factors))
        if self.family == "direct_product":
            if len(self.factors) != 2:
                raise InputError(f"direct_product needs 2 factors, got {len(self.factors)}")
            for factor in self.factors:
                if not isinstance(factor, GroupKind):
                    raise InputError(f"direct_product factor {factor!r} is not a GroupKind")
            if self.param:
                raise InputError(f"direct_product takes no param, got {self.param}")
            return
        if self.family not in _FAMILIES:
            raise InputError(f"unknown family {self.family!r}")
        if self.factors:
            raise InputError(f"{self.family} takes no factors, got {self.factors[0]}")
        token, (name, least) = _FAMILIES[self.family][:2]
        param = check_integer(self.param, name)
        if param < least:
            raise InputError(f"{name} must be >= {least}, got {param}")
        if param and "{}" not in token:
            raise InputError(f"{self.family} takes no param, got {param}")
        object.__setattr__(self, "param", param)

    @staticmethod
    def cyclic(n: int) -> "GroupKind":
        return GroupKind("cyclic", n)

    @staticmethod
    def dihedral(k: int) -> "GroupKind":
        return GroupKind("dihedral", k)

    @staticmethod
    def elementary_abelian(k: int) -> "GroupKind":
        return GroupKind("elementary_abelian", k)

    @staticmethod
    def quaternion8() -> "GroupKind":
        return GroupKind("quaternion8")

    @staticmethod
    def direct_product(a: "GroupKind", b: "GroupKind") -> "GroupKind":
        return GroupKind("direct_product", factors=(a, b))

    @property
    def order(self) -> int:
        if self.family == "direct_product":
            return self.factors[0].order * self.factors[1].order
        return _FAMILIES[self.family][2](self.param)

    def label(self) -> str:
        if self.family == "direct_product":
            return "*".join(f.label() for f in self.factors)
        return _FAMILIES[self.family][0].format(self.param)

    def __str__(self) -> str:
        return self.label()

    @classmethod
    def parse(cls, text: str) -> "GroupKind":
        parts = [p.strip() for p in text.strip().split("*")]
        kinds = [cls._parse_atom(p) for p in parts]
        return reduce(cls.direct_product, kinds)

    @classmethod
    def _parse_atom(cls, text: str) -> "GroupKind":
        m = re.fullmatch(r"([^:]*)(:(\d+))?", text)
        family = m and _FAMILY_OF_TOKEN.get(m[1] + (":{}" if m[2] else ""))
        if not family:
            raise InputError(f"unknown group kind {text!r} (want cyclic:N, dihedral:K, e2:K, q8)")
        make = getattr(cls, family)
        return make(int(m[3])) if m[2] else make()


def make_group(kind: GroupKind) -> GroupTable:
    """Canonical table for a catalog kind; identity is always element 0."""
    a = np.arange(kind.order, dtype=np.intp)
    if kind.family == "direct_product":
        # (a1, a2) * (b1, b2) = (a1 b1, a2 b2), with (x1, x2) = x1 * n2 + x2.
        t1, t2 = (make_group(f).array for f in kind.factors)
        q, r = divmod(a, len(t2))
        arr = t1[np.ix_(q, q)] * len(t2) + t2[np.ix_(r, r)]
    else:
        arr = _FAMILIES[kind.family][3](kind.param, a[:, None], a)
    return GroupTable._from_array(arr, identity=0)


def transport(t: GroupTable, f: Permutation) -> GroupTable:
    """The table with a * b = f(f^-1(a) . f^-1(b)); f becomes an isomorphism."""
    if f.n != t.n:
        raise DimensionMismatch(f"table order {t.n} vs permutation size {f.n}")
    img = np.asarray(f.image, dtype=np.intp)
    finv = img.argsort()
    # img[t.array[finv[:, None], finv]], with the inner gather built faster by takes.
    arr = img[t.array.take(finv, 0).take(finv, 1)]
    return GroupTable._from_array(arr, identity=img.item(t.identity))


def power(t: GroupTable, g: int, k: int) -> int:
    """g composed with itself k times; the identity for k = 0."""
    g = check_element(g, t.n, "element")
    k = check_integer(k, "exponent")
    if k < 0:
        raise InputError(f"exponent must be >= 0, got {k}")
    times_g = t.array[:, g].tolist()
    x = t.identity
    for _ in range(k):
        x = times_g[x]
    return x


def _span(t: GroupTable, gens: Sequence[int]) -> dict[int, tuple[int, int]]:
    """The elements reached from the identity by right multiplication by
    gens, walked breadth-first: in a group, the subgroup gens generate.
    Each y maps to the (x, i) that first reached it, y = x * gens[i], and
    the identity to (-1, -1); keys come in walk order, x before its y.
    Reads only the gens columns of t.array, O(n |gens|)."""
    times_gens = t.array[:, gens].tolist()
    reached = {t.identity: (-1, -1)}
    walk = [t.identity]
    for x in walk:
        for i, y in enumerate(times_gens[x]):
            if y not in reached:
                reached[y] = (x, i)
                walk.append(y)
    return reached


def generating_sequence(t: GroupTable) -> list[int]:
    """A greedy generating sequence: smallest element outside the span, repeat.

    The span is _span's set, grown in one walk: a new generator multiplies
    every element reached so far, and each element it reaches is then
    multiplied by every generator, so each (element, generator) product is
    read once.  Needs no group axiom, so validate_table can call it before
    associativity is known."""
    reached = [False] * t.n
    reached[t.identity] = True
    walk = [t.identity]
    columns: list[list[int]] = []
    gens: list[int] = []
    for g in range(t.n):
        if reached[g]:
            continue
        gens.append(g)
        columns.append(t.array[:, g].tolist())
        todo = [columns[-1][x] for x in walk]
        while todo:
            y = todo.pop()
            if not reached[y]:
                reached[y] = True
                walk.append(y)
                todo.extend(col[y] for col in columns)
    return gens


def _homs_from_generators(
    a: GroupTable, b: GroupTable, gens: Sequence[int], images: np.ndarray
) -> np.ndarray:
    """The isomorphisms from a to b among the maps that send gens to a row
    of images, a (K, len(gens)) array, and extend along the walk of _span:
    a (K', a.n) array, in the order of images.  An element the walk does
    not reach stays -1, so no map is kept unless gens span a."""
    f = np.full((len(images), a.n), -1, dtype=np.intp)
    for y, (x, i) in _span(a, gens).items():
        f[:, y] = b.identity if x < 0 else b.array[f[:, x], images[:, i]]
    hom = (f[:, a.array] == b.array[f[:, :, None], f[:, None, :]]).all(axis=(1, 2))
    # A homomorphism between groups of one order is bijective iff its kernel is trivial.
    return f[hom & (f >= 0).all(axis=1) & ((f == b.identity).sum(axis=1) == 1)]


def _isomorphisms(a: GroupTable, b: GroupTable) -> Iterator[Permutation]:
    """Every isomorphism from a to b, each once, by exhaustive search over
    the images of a's generating sequence: every tuple of same-order
    images, extended to a map in one array walk, in itertools.product
    order; none unless the order profiles agree.  Raises OrderTooLarge
    above MAX_BRUTE_ORDER."""
    if a.n > MAX_BRUTE_ORDER:
        raise OrderTooLarge(f"isomorphism search capped at order {MAX_BRUTE_ORDER}, got {a.n}")
    if a.order_profile() != b.order_profile():
        return
    gens = generating_sequence(a)
    candidates = [[x for x, o in enumerate(b.orders) if o == a.orders[g]] for g in gens]
    # Profiles agree, so each gen has a candidate: one row per product tuple.
    images = np.array(list(itertools.product(*candidates)), dtype=np.intp)
    for f in _homs_from_generators(a, b, gens, images).tolist():
        yield Permutation(tuple(f))


def are_isomorphic(a: GroupTable, b: GroupTable) -> tuple[bool, Optional[Permutation]]:
    """Exhaustive generator-image isomorphism search, up to MAX_BRUTE_ORDER."""
    if a.n != b.n:
        return False, None
    f = next(_isomorphisms(a, b), None)
    return f is not None, f


def automorphisms(t: GroupTable) -> list[Permutation]:
    """Aut(t), up to MAX_BRUTE_ORDER: the f with transport(t, f) == t."""
    return list(_isomorphisms(t, t))


def is_dihedral_twice_odd(t: GroupTable) -> bool:
    """True iff |G| = 2k with k odd >= 3 and G is dihedral of order 2k.

    An element r of order k spans an index-2 subgroup with no involutions
    (k is odd), so G has at most k involutions, all in the other coset.
    With exactly k, every s outside <r> has s^2 = (sr)^2 = e, so srs = r^-1.
    """
    k, rem = divmod(t.n, 2)
    if rem or k % 2 == 0 or k < 3:
        return False
    return k in t.orders and t.orders.count(2) == k


# Every isomorphism class of each order it lists, in oracle label order.
_CATALOG: dict[int, tuple[GroupKind, ...]] = {
    n: tuple(map(GroupKind.parse, labels.split()))
    for n, labels in {
        1: "cyclic:1",
        2: "cyclic:2",
        3: "cyclic:3",
        4: "cyclic:4 e2:2",
        5: "cyclic:5",
        6: "cyclic:6 dihedral:3",
        7: "cyclic:7",
        8: "cyclic:8 cyclic:4*cyclic:2 e2:3 dihedral:4 q8",
    }.items()
}

# Largest order the brute-force routines accept; adding a catalog row raises it.
MAX_BRUTE_ORDER = max(_CATALOG)


def groups_of_order(n: int) -> list[GroupKind]:
    """All isomorphism classes of order n, for n <= MAX_BRUTE_ORDER."""
    n = check_integer(n, "order")
    if n < 1:
        raise InputError(f"order must be >= 1, got {n}")
    if n not in _CATALOG:
        raise OrderTooLarge(f"catalog covers orders 1..{MAX_BRUTE_ORDER}, got {n}")
    return list(_CATALOG[n])
