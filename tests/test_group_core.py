import itertools
import json
import random
import re

import numpy as np
import pytest

import cayleydist as cd
from cayleydist.errors import (
    DimensionMismatch,
    InputError,
    InvalidPermutation,
    NoIdentity,
    NotAssociative,
    NotLatin,
    OrderTooLarge,
)
from cayleydist.cli import main
from cayleydist.group_core import _CATALOG, MAX_BRUTE_ORDER

from conftest import (
    cyclic,
    dihedral,
    is_abelian,
    oracle_closure,
    oracle_first_invalid,
    oracle_first_nonassociative,
    oracle_generating_sequence,
    oracle_is_dihedral_twice_odd,
    oracle_isomorphisms,
    oracle_make_group,
    oracle_span,
    oracle_transport,
    random_permutation,
    reduced_loops,
    sign,
    switched_intercalate,
)

# A quasigroup with identity that is not a group (order 5 loop).
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


class TestValidateTable:
    def test_canonical_z5_valid(self):
        cells = [[(a + b) % 5 for b in range(5)] for a in range(5)]
        t = cd.validate_table(cells)
        assert t.n == 5 and t.identity == 0

    def test_z2_table(self):
        t = cd.validate_table([[0, 1], [1, 0]])
        assert t.identity == 0

    def test_z5_with_swapped_rows_is_not_a_group(self):
        cells = [[(a + b) % 5 for b in range(5)] for a in range(5)]
        cells[1], cells[2] = cells[2], cells[1]
        with pytest.raises((NoIdentity, NotAssociative)):
            cd.validate_table(cells)

    def test_repeated_entry_is_not_latin(self):
        with pytest.raises(NotLatin):
            cd.validate_table([[0, 0], [1, 1]])

    def test_column_repeat_is_not_latin(self):
        with pytest.raises(NotLatin):
            cd.validate_table([[0, 1, 2], [2, 0, 1], [2, 0, 1]])

    def test_out_of_range_cell(self):
        with pytest.raises(InputError):
            cd.validate_table([[0, 1], [1, 5]])

    def test_latin_nonassociative_is_rejected(self):
        with pytest.raises(NotAssociative):
            cd.validate_table(LOOP5)

    def test_first_offender_of_loop(self):
        expected = oracle_first_nonassociative(LOOP5)
        with pytest.raises(NotAssociative) as exc:
            cd.validate_table(LOOP5)
        assert str(exc.value) == expected

    @pytest.mark.parametrize("k", range(3, 21))
    def test_first_offender_of_switched_intercalate(self, k):
        rng = random.Random(k)
        cells = switched_intercalate(k, rng)
        # relabelled by a random bijection, the offender moves off a = 1
        f = random_permutation(2 * k, rng).image
        relabelled = [[0] * (2 * k) for _ in range(2 * k)]
        for x, row in enumerate(cells):
            for y, v in enumerate(row):
                relabelled[f[x]][f[y]] = f[v]
        for table in (cells, relabelled):
            expected = oracle_first_nonassociative(table)
            assert expected is not None
            with pytest.raises(NotAssociative) as exc:
                cd.validate_table(table)
            assert str(exc.value) == expected

    @pytest.mark.parametrize("n, count, groups", [(4, 4, 4), (5, 56, 6), (6, 9408, 80)])
    def test_every_small_loop_against_full_scan(self, n, count, groups):
        # validate_table checks associativity on a generating sequence and
        # scans every triple only to name the offender; every loop of order
        # n, relabelled so the identity moves, gets the full scan's verdict
        rng = random.Random(n)
        seen = []
        for cells in reduced_loops(n):
            f = random_permutation(n, rng).image
            moved = [[0] * n for _ in range(n)]
            for x, row in enumerate(cells):
                for y, v in enumerate(row):
                    moved[f[x]][f[y]] = f[v]
            expected = oracle_first_nonassociative(moved)
            try:
                cd.validate_table(moved)
            except NotAssociative as exc:
                assert str(exc) == expected
            else:
                assert expected is None
            seen.append(expected is None)
        assert (len(seen), sum(seen)) == (count, groups)

    @pytest.mark.parametrize(
        "cell, shown",
        [(0.5, "0.5"), (1.9, "1.9"), (-0.5, "-0.5"), ("1", "'1'"), (None, "None"), ("a", "'a'")],
    )
    def test_non_integer_cell(self, cell, shown):
        message = f"cell (1,1) = {shown} is not an integer"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            cd.validate_table([[0, 1], [1, cell]])

    def test_integer_like_cells_pass(self):
        for cells in ([[False, True], [True, False]], np.array([[0, 1], [1, 0]], dtype=np.uint8)):
            assert cd.validate_table(cells) == cyclic(2)
        with pytest.raises(InputError, match=r"is not an integer"):
            cd.validate_table(np.array([[0.0, 1.0], [1.0, 0.0]]))
        # numpy reads [0, 2**63] as float64; the message keeps the exact int
        with pytest.raises(InputError, match=rf"^cell \(0,1\) = {2**63} outside 0..1$"):
            cd.validate_table([[0, 2**63], [1, 0]])

    @pytest.mark.parametrize(
        "cells, message",
        [
            ([[0, 1], 5], "row 1 = 5 is not a sequence"),
            ([0, 1], "row 0 = 0 is not a sequence"),
            ([[0, 2], None], "cell (0,1) = 2 outside 0..1"),
            ([[0, 1, 2], [0], 1.5], "row 1 has 1 entries, expected 3"),
        ],
    )
    def test_row_not_a_sequence(self, cells, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            cd.validate_table(cells)

    @pytest.mark.parametrize(
        "cells, message",
        [
            (5, "table 5 is not a sequence of rows"),
            (None, "table None is not a sequence of rows"),
            (np.array(5), "table array(5) is not a sequence of rows"),
            ("ab", "table 'ab' is not a sequence of rows"),
            (b"ab", "table b'ab' is not a sequence of rows"),
            ({0: [0]}, "table {0: [0]} is not a sequence of rows"),
            (np.arange(2), f"row 0 = {np.arange(2)[0]!r} is not a sequence"),
            ([[0, 1], "10"], "row 1 = '10' is not a sequence"),
            ([[0, 1], {0: 1, 1: 0}], "row 1 = {0: 1, 1: 0} is not a sequence"),
        ],
    )
    def test_table_not_a_sequence_of_rows(self, cells, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            cd.validate_table(cells)

    @pytest.mark.parametrize(
        "kind", ["range", "row", "column", "identity", "ragged", "noninteger", "notrow"]
    )
    def test_first_offender_matches_row_scan(self, kind):
        rng = random.Random(kind)
        raised = set()
        for _ in range(150):
            cells = _broken_table(kind, rng)
            expected = oracle_first_invalid(cells)
            if expected is None:  # the breakage kept a Latin table with an identity
                try:
                    cd.validate_table(cells)
                except NotAssociative:
                    pass
                continue
            with pytest.raises(InputError) as exc:
                cd.validate_table(cells)
            assert (type(exc.value), str(exc.value)) == expected
            raised.add(str(exc.value).split(" ")[0])
        # the error each kind of breakage is built for comes up
        first_word = {"range": "cell", "row": "row", "column": "column", "identity": "no", "ragged": "row"}
        first_word["noninteger"] = "cell"
        first_word["notrow"] = "row"
        assert first_word[kind] in raised

    def test_ingested_identity_need_not_be_zero(self):
        z3 = cyclic(3)
        moved = cd.transport(z3, cd.Permutation((1, 0, 2)))
        again = cd.validate_table([list(r) for r in moved.cells])
        assert again.identity == 1


def _broken_table(kind: str, rng: random.Random) -> list[list[int]]:
    """A relabelled cyclic or dihedral table broken in one way."""
    k = rng.randrange(2, 7)
    base = cd.make_group(rng.choice([cd.GroupKind.cyclic(2 * k), cd.GroupKind.dihedral(k), cd.GroupKind.cyclic(k)]))
    cells = [list(row) for row in cd.transport(base, random_permutation(base.n, rng)).cells]
    n = len(cells)
    a, b = rng.randrange(n), rng.randrange(n)
    if kind == "range":
        cells[a][b] = rng.choice([n, n + 3, -1, 10**30])
    elif kind == "row":  # breaks a row and a column, unless the value is kept
        cells[a][b] = rng.randrange(n)
    elif kind == "column":  # rows stay permutations
        c = rng.randrange(n)
        cells[a][b], cells[a][c] = cells[a][c], cells[a][b]
    elif kind == "identity":  # rows and columns stay Latin
        rng.shuffle(cells)
    elif kind == "ragged":  # a short row, maybe after an out-of-range cell
        del cells[a][b]
        if rng.random() < 0.5:
            cells[rng.randrange(n)][-1] = n
    elif kind == "noninteger":  # maybe after or before an out-of-range cell
        cells[a][b] = rng.choice([0.5, 1.9, -0.5, float(cells[a][b]), "1", "a", None, [1]])
        if rng.random() < 0.5:
            cells[rng.randrange(n)][rng.randrange(n)] = n
    elif kind == "notrow":  # a row that is a scalar, maybe after a bad cell
        if rng.random() < 0.5:
            cells[rng.randrange(n)][rng.randrange(n)] = n
        cells[a] = rng.choice([0, n, None, 1.5])
    return cells


class TestGroupTableArray:
    def test_equals_cells(self):
        for label in ("cyclic:7", "dihedral:5", "q8", "cyclic:4*cyclic:2"):
            t = cd.make_group(cd.GroupKind.parse(label))
            assert t.array.dtype == np.intp and t.array.shape == (t.n, t.n)
            assert np.array_equal(t.array, np.array(t.cells))

    def test_read_only(self, z5):
        with pytest.raises(ValueError):
            z5.array[0, 0] = 1
        moved = cd.transport(z5, cd.Permutation.transposition(5, 1, 2))
        with pytest.raises(ValueError):
            moved.array[1] = 0

    def test_not_part_of_equality_or_hash(self):
        built = cyclic(9)
        bare = cd.GroupTable(built.n, built.cells, built.identity)
        assert "array" in vars(built) and "array" in vars(bare)
        assert built == bare and hash(built) == hash(bare)
        assert {built: 1}[bare] == 1

    def test_set_by_validate_table_and_transport(self):
        # and by make_group
        rng = random.Random(5)
        for t in (cyclic(7), dihedral(4)):
            moved = cd.transport(t, random_permutation(t.n, rng))
            again = cd.validate_table([list(r) for r in moved.cells])
            for out in (t, moved, again):
                assert "array" in vars(out)
                assert not out.array.flags.writeable
                assert np.array_equal(out.array, np.array(out.cells))
                assert all(type(v) is int for row in out.cells for v in row)


class TestArrayFirstTable:
    """A table built from an array builds its cells tuple on first read."""

    def test_transport_builds_cells_on_first_read(self):
        rng = random.Random(13)
        for t in (cyclic(9), dihedral(5), cyclic(13)):
            f = random_permutation(t.n, rng)
            moved = cd.transport(t, f)
            assert "cells" not in vars(moved)
            cells = moved.cells
            assert "cells" in vars(moved) and moved.cells is cells
            assert type(cells) is tuple and all(type(row) is tuple for row in cells)
            assert all(type(v) is int for row in cells for v in row)
            assert cells == oracle_transport(t, f).cells

    def test_equal_and_hash_alike_with_constructor_tables(self):
        rng = random.Random(21)
        for t in (cyclic(7), dihedral(4)):
            built = cd.transport(t, random_permutation(t.n, rng))
            bare = cd.GroupTable(built.n, tuple(map(tuple, built.array.tolist())), built.identity)
            assert "cells" not in vars(built) and "array" in vars(bare)
            assert built == bare and bare == built
            assert hash(built) == hash(bare) and hash(bare) == hash(built)
            assert {built: 1}[bare] == 1 and {bare: 2}[built] == 2
            assert built != cd.GroupTable(built.n, bare.cells, (built.identity + 1) % t.n)

    @pytest.mark.parametrize("name", ["n", "cells", "identity", "array"])
    def test_immutable(self, name):
        built = cd.transport(cyclic(5), cd.Permutation.transposition(5, 1, 2))
        bare = cd.GroupTable(3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)), 0)
        for t in (built, bare):
            before = getattr(t, name)
            with pytest.raises(AttributeError):
                setattr(t, name, before)
            with pytest.raises(AttributeError):
                delattr(t, name)
            assert getattr(t, name) is before

    def test_repr(self):
        expected = "GroupTable(n=2, cells=((1, 0), (0, 1)), identity=1)"
        moved = cd.transport(cyclic(2), cd.Permutation((1, 0)))
        assert repr(moved) == expected
        assert repr(cd.GroupTable(2, ((1, 0), (0, 1)), 1)) == expected


class TestStoredArray:
    """Every table stores its read-only np.intp array from construction."""

    def test_list_rows_equal_catalog_table(self):
        bare = cd.GroupTable(2, [[0, 1], [1, 0]], 0)
        z2 = cyclic(2)
        assert bare == z2 and z2 == bare
        assert hash(bare) == hash(z2) and {z2: 1}[bare] == 1

    @pytest.mark.parametrize(
        "n,cells,message",
        [
            (3, ((0, 1), (1, 0)), "table has 2 rows, expected 3"),
            (2, ((0, 1, 2), (1, 2, 0)), "row 0 has 3 entries, expected 2"),
            (2, (0, 1), "row 0 = 0 is not a sequence"),
            (1, 0, "table 0 is not a sequence of rows"),
            (2, (), "table has 0 rows, expected 2"),
        ],
        ids=["rows_short", "rows_long", "flat", "scalar", "empty"],
    )
    def test_shape_other_than_n_by_n(self, n, cells, message):
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            cd.GroupTable(n, cells, 0)

    @pytest.mark.parametrize(
        "cells,message",
        [
            ([[0, 1], [1]], "row 1 has 1 entries, expected 2"),
            ([[0, 1], 1], "row 1 = 1 is not a sequence"),
            ([0, [1, 0]], "row 0 = 0 is not a sequence"),
        ],
        ids=["short_row", "scalar_row", "scalar_first"],
    )
    def test_ragged_rows_name_the_first_bad_row(self, cells, message):
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            cd.GroupTable(2, cells, 0)

    @pytest.mark.parametrize(
        "cells,message",
        [
            ([["1", "0"], ["0", "1"]], "cell (0,0) = '1' is not an integer"),
            ([[0, 1], [1, 0.0]], "cell (1,1) = 0.0 is not an integer"),
            (
                np.array([[0.0, 1.0], [1.0, 0.0]]),
                f"cell (0,0) = {np.float64(0.0)!r} is not an integer",
            ),
        ],
        ids=["digit_strings", "float_cell", "float_array"],
    )
    def test_cell_not_an_integer(self, cells, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            cd.GroupTable(2, cells, 0)

    @pytest.mark.parametrize("kind", ["range", "ragged", "noninteger", "notrow"])
    def test_constructor_reads_cells_as_validate_table(self, kind):
        # one reader: every shape or cell offender gets one class and message
        rng = random.Random(kind)
        tables = [_broken_table(kind, rng) for _ in range(150)]
        tables.append([[0, 1], [1, 2**70]])
        for cells in tables:
            with pytest.raises(InputError) as lib:
                cd.validate_table(cells)
            with pytest.raises(InputError) as bare:
                cd.GroupTable(len(cells), cells, 0)
            assert (type(bare.value), str(bare.value)) == (type(lib.value), str(lib.value))
        assert str(bare.value) == f"cell (1,1) = {2**70} outside 0..1"

    @pytest.mark.parametrize(
        "identity, message",
        [
            (7, "identity 7 outside 0..1"),
            (-1, "identity -1 outside 0..1"),
            (1.0, "identity 1.0 is not an integer"),
        ],
    )
    def test_identity_not_an_element(self, identity, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            cd.GroupTable(2, cyclic(2).cells, identity)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: cd.GroupTable(0, [], 0),
            lambda: cd.validate_table([]),
            lambda: cd.validate_table(np.empty((0, 0), dtype=np.intp)),
            lambda: cd.GroupTable.from_text("0\n"),
        ],
        ids=["constructor", "validate_table", "validate_table_array", "from_text"],
    )
    def test_empty_table(self, build):
        with pytest.raises(InputError) as info:
            build()
        assert (type(info.value), str(info.value)) == (InputError, "empty table")

    def test_equality_and_hash_leave_cells_unbuilt(self):
        rng = random.Random(8)
        t = dihedral(5)
        f = random_permutation(t.n, rng)
        a, b = cd.transport(t, f), cd.transport(t, f)
        other = cd.transport(t, cd.Permutation.transposition(t.n, 1, 2).compose(f))
        assert a == b and hash(a) == hash(b) and a != other
        assert len({a, b, other}) == 2
        assert all("cells" not in vars(x) for x in (a, b, other))

    def test_constructor_copies(self):
        rows = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        arr = np.array(rows)
        from_list, from_arr = cd.GroupTable(3, rows, 0), cd.GroupTable(3, arr, 0)
        rows[0][0], arr[0, 0] = 2, 2
        assert arr.flags.writeable
        for t in (from_list, from_arr):
            assert t == cyclic(3) and t.cells[0] == (0, 1, 2)
            assert not t.array.flags.writeable and t.array is not arr

    def test_every_path_stores_intp(self):
        z4 = cyclic(4)
        rows = z4.array.tolist()
        tables = [
            z4,
            cd.make_group(cd.GroupKind.parse("cyclic:4*cyclic:2")),
            cd.transport(z4, cd.Permutation((1, 0, 3, 2))),
            cd.validate_table(rows),
            cd.validate_table([[True, False], [False, True]]),
            cd.validate_table(np.array(rows, dtype=np.int8)),
            cd.GroupTable(4, rows, 0),
            cd.GroupTable(4, np.array(rows, dtype=np.uint8), 0),
            cd.GroupTable(2, [[False, True], [True, False]], 0),
        ]
        assert tables[-2] == z4 and tables[-1] == cyclic(2)
        # make_group over every catalog kind, and params 1, 0 and True
        # wherever the family allows them
        kinds = [kind for kinds in _CATALOG.values() for kind in kinds]
        for make in (cd.GroupKind.cyclic, cd.GroupKind.dihedral, cd.GroupKind.elementary_abelian):
            kinds += [make(1), make(True)]
        kinds.append(cd.GroupKind.elementary_abelian(0))
        tables += map(cd.make_group, kinds)
        for t in tables:
            assert "array" in vars(t) and t.array.dtype == np.intp
            assert t.n >= 1 and t.array.shape == (t.n, t.n) and not t.array.flags.writeable

    @pytest.mark.parametrize("name", ["array", "_key", "mul", "row"])
    def test_no_second_form_or_alias(self, name):
        assert name not in vars(cd.GroupTable)


FIRST_M3_PATTERN = next(cd.enumerate_patterns(11, 3))


def _lemma_witness_pair() -> tuple[cd.GroupTable, ...]:
    """Z_5 and a non-group copy with cell (1, 1) changed: the lone changed
    cell has triple row sum 2 < 5, so check_lemmas builds its witness."""
    a = cyclic(5)
    rows = a.array.tolist()
    rows[1][1] = 3
    b = cd.GroupTable(5, rows, 0)
    assert "row_triple_sum" in [v.name for v in cd.check_lemmas(a, b)]
    return a, b


def _complete_from_row_tables() -> tuple[cd.GroupTable, ...]:
    base = cyclic(11)
    row = cd.apply_pattern(FIRST_M3_PATTERN, base)
    return base, cd.complete_from_row(base, 1, row)


def _reconstruct_tables() -> tuple[cd.GroupTable, ...]:
    a = dihedral(10)
    b = cd.transport(a, cd.Permutation.transposition(20, 3, 12))
    assert cd.reconstruct_isomorphism(a, b) == cd.Permutation.transposition(20, 3, 12)
    return a, b


def _after(call, *tables: cd.GroupTable) -> tuple[cd.GroupTable, ...]:
    call(*tables)
    return tables


class TestOneTableForm:
    """No library call reads a table through anything but its array, so none
    builds the cells view (TestStoredArray checks that every path stores it)."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: _after(lambda t: t.inverse(3), cyclic(5)),
            lambda: _after(lambda t: cd.power(t, 2, 3), cyclic(5)),
            lambda: _after(lambda t: t.to_text(), cyclic(5)),
            _lemma_witness_pair,
            lambda: _after(lambda t: cd.apply_pattern(FIRST_M3_PATTERN, t), cyclic(11)),
            _complete_from_row_tables,
            lambda: _after(cd.dist, cyclic(7), cd.transport(cyclic(7), cd.Permutation.identity(7))),
            lambda: _after(lambda a, b: cd.hom_distance((0, 2, 1, 3, 4), a, b), cyclic(5), cyclic(5)),
            lambda: _after(cd.delta0, dihedral(5)),
            lambda: _after(cd.min_transposition_mf, dihedral(5)),
            _reconstruct_tables,
            lambda: (cd.validate_table(dihedral(5).array.tolist()),),
        ],
        ids=[
            "inverse",
            "power",
            "to_text",
            "check_lemmas_witness",
            "apply_pattern",
            "complete_from_row",
            "dist",
            "hom_distance",
            "delta0",
            "min_transposition_mf",
            "reconstruct_isomorphism",
            "validate_table",
        ],
    )
    def test_library_call_leaves_cells_unbuilt(self, build):
        for t in build():
            assert "cells" not in vars(t)

    def test_oracle_witness_reads_the_array(self, monkeypatch, capsys):
        def refuse(t):
            raise AssertionError("the library read cells")

        monkeypatch.setattr(cd.GroupTable, "cells", property(refuse))
        assert main(["oracle", "--order", "4", "--scope", "nu", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["witnesses"]["pair"][0] == cd.make_group(cd.GroupKind.cyclic(4)).array.tolist()


class TestMakeGroup:
    def test_cyclic_7_is_addition_mod_7(self):
        t = cyclic(7)
        assert all(t.cells[a][b] == (a + b) % 7 for a in range(7) for b in range(7))

    def test_dihedral_5_presentation(self):
        t = dihedral(5)
        assert t.n == 10
        r, s = 1, 5
        assert t.element_order(r) == 5
        assert t.cells[s][s] == t.identity
        assert t.cells[t.cells[s][r]][s] == t.inverse(r)

    def test_klein_four_is_xor(self):
        t = cd.make_group(cd.GroupKind.elementary_abelian(2))
        assert all(t.cells[a][b] == a ^ b for a in range(4) for b in range(4))

    def test_quaternion_order_profile(self):
        t = cd.make_group(cd.GroupKind.quaternion8())
        assert t.order_profile() == (1, 2, 4, 4, 4, 4, 4, 4)
        assert not is_abelian(t)

    def test_direct_product_z4_z2(self):
        kind = cd.GroupKind.direct_product(cd.GroupKind.cyclic(4), cd.GroupKind.cyclic(2))
        t = cd.make_group(kind)
        assert t.n == 8 and is_abelian(t)
        assert t.order_profile() == (1, 2, 2, 2, 4, 4, 4, 4)

    @pytest.mark.parametrize(
        "kind",
        [
            cd.GroupKind.cyclic(1),
            cd.GroupKind.cyclic(9),
            cd.GroupKind.dihedral(1),
            cd.GroupKind.dihedral(4),
            cd.GroupKind.elementary_abelian(3),
            cd.GroupKind.quaternion8(),
            cd.GroupKind.direct_product(cd.GroupKind.cyclic(3), cd.GroupKind.cyclic(3)),
        ],
    )
    def test_every_kind_revalidates(self, kind):
        t = cd.make_group(kind)
        again = cd.validate_table([list(r) for r in t.cells])
        assert again == t

    def test_matches_cell_by_cell_oracle(self):
        atoms = (
            [cd.GroupKind.cyclic(n) for n in range(1, 60)]
            + [cd.GroupKind.dihedral(k) for k in range(1, 40)]
            + [cd.GroupKind.elementary_abelian(k) for k in range(7)]
            + [cd.GroupKind.quaternion8()]
        )
        # every pair of catalog kinds of order 2..8, (c4*c2)*(c4*c2) included
        small = [kind for n in range(2, 9) for kind in cd.groups_of_order(n)]
        products = [cd.GroupKind.direct_product(a, b) for a in small for b in small]
        for kind in atoms + products:
            t, expected = cd.make_group(kind), oracle_make_group(kind)
            assert t == expected and t.n == kind.order, kind
            assert "array" in vars(t) and not t.array.flags.writeable, kind
            assert t.array.dtype == np.intp and np.array_equal(t.array, np.array(expected.cells))
            assert all(type(v) is int for row in t.cells for v in row), kind

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: cd.GroupKind.cyclic(5.0), "cyclic order 5.0 is not an integer"),
            (lambda: cd.GroupKind.dihedral(2.5), "dihedral parameter 2.5 is not an integer"),
            (
                lambda: cd.GroupKind.elementary_abelian(-1),
                "elementary-abelian exponent must be >= 0, got -1",
            ),
            (lambda: cd.GroupKind("cyclic", 0), "cyclic order must be >= 1, got 0"),
            (lambda: cd.GroupKind("cyclic", -3), "cyclic order must be >= 1, got -3"),
            (lambda: cd.GroupKind("nope"), "unknown family 'nope'"),
            (lambda: cd.GroupKind("quaternion8", 3), "quaternion8 takes no param, got 3"),
            (lambda: cd.GroupKind("direct_product"), "direct_product needs 2 factors, got 0"),
            (
                lambda: cd.GroupKind("cyclic", 3, factors=(cd.GroupKind.cyclic(2),)),
                "cyclic takes no factors, got cyclic:2",
            ),
            (
                lambda: cd.GroupKind("direct_product", 5, (cd.GroupKind.cyclic(2),) * 2),
                "direct_product takes no param, got 5",
            ),
            (
                lambda: cd.GroupKind("direct_product", factors=(cd.GroupKind.cyclic(2), 2)),
                "direct_product factor 2 is not a GroupKind",
            ),
            (
                lambda: cd.GroupKind("direct_product", factors=5),
                "factors 5 is not a sequence of GroupKind",
            ),
        ],
        ids=[
            "cyclic_float",
            "dihedral_float",
            "e2_negative",
            "cyclic_0",
            "cyclic_negative",
            "unknown_family",
            "q8_param",
            "product_without_factors",
            "cyclic_with_factors",
            "product_param",
            "product_factor_not_a_kind",
            "factors_not_a_sequence",
        ],
    )
    def test_kind_valid_from_construction(self, build, message):
        # make_group trusts its kind, so a bad param never reaches a table
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            build()

    def test_kind_factors_stored_as_tuple(self):
        a = cd.GroupKind.cyclic(4)
        b = cd.GroupKind.cyclic(2)
        kind = cd.GroupKind("direct_product", factors=[a, b])
        assert kind.factors == (a, b)
        assert kind == cd.GroupKind.direct_product(a, b)
        assert hash(kind) == hash(cd.GroupKind.direct_product(a, b))
        value, (base, other) = cd.kind_stability(kind, "nu")
        assert (value, base) == (16, cd.make_group(cd.GroupKind.direct_product(a, b)))
        assert cd.dist(base, other).total == value
        assert cd.GroupKind("cyclic", 3, factors=[]) == cd.GroupKind.cyclic(3)

    def test_kind_param_stored_as_int(self):
        for param in (5, np.int64(5), np.uint8(5)):
            kind = cd.GroupKind.cyclic(param)
            assert type(kind.param) is int and kind.label() == "cyclic:5"
            t, z5 = cd.make_group(kind), cd.make_group(cd.GroupKind.cyclic(5))
            assert kind == cd.GroupKind.cyclic(5) and t == z5 and hash(t) == hash(z5)
        assert cd.GroupKind.dihedral(True) == cd.GroupKind.dihedral(1)
        assert cd.GroupKind.quaternion8() == cd.GroupKind("quaternion8", np.int8(0))

    def test_catalog_order_not_an_integer(self):
        with pytest.raises(InputError, match=r"^order 3\.0 is not an integer$"):
            cd.groups_of_order(3.0)

    def test_is_prime_needs_an_integer(self):
        assert cd.is_prime(11) and cd.is_prime(np.int64(11))
        assert not any(map(cd.is_prime, (11.0, True, "11", None)))

    def test_kind_parsing_roundtrip(self):
        for text in ["cyclic:7", "dihedral:5", "e2:3", "q8", "cyclic:4*cyclic:2"]:
            kind = cd.GroupKind.parse(text)
            assert kind.label() == text
        with pytest.raises(InputError):
            cd.GroupKind.parse("sporadic:1")
        with pytest.raises(InputError) as exc:
            cd.GroupKind.parse("foo:3")
        assert str(exc.value) == "unknown group kind 'foo:3' (want cyclic:N, dihedral:K, e2:K, q8)"

    @pytest.mark.parametrize(
        "kind",
        [kind for n in range(1, 9) for kind in cd.groups_of_order(n)]
        + [cd.GroupKind.cyclic(13), cd.GroupKind.dihedral(5), cd.GroupKind.elementary_abelian(0)],
        ids=str,
    )
    def test_kind_label_round_trip(self, kind):
        assert cd.GroupKind.parse(kind.label()) == kind
        assert kind.order == cd.make_group(kind).n


class TestTransport:
    def test_identity_permutation_fixes_table(self, z7):
        assert cd.transport(z7, cd.Permutation.identity(7)) == z7

    def test_paper_isomorphism_distance_18(self, z7, paper_f7):
        moved = cd.transport(z7, paper_f7)
        assert cd.dist(z7, moved).total == 18

    def test_transport_is_group_action(self, z5):
        rng = random.Random(11)
        for _ in range(20):
            f = random_permutation(5, rng)
            g = random_permutation(5, rng)
            assert cd.transport(z5, f.compose(g)) == cd.transport(
                cd.transport(z5, g), f
            )

    def test_transport_result_is_isomorphic_group(self):
        rng = random.Random(3)
        for kind in [cd.GroupKind.dihedral(3), cd.GroupKind.cyclic(6)]:
            t = cd.make_group(kind)
            f = random_permutation(t.n, rng)
            moved = cd.transport(t, f)
            cd.validate_table([list(r) for r in moved.cells])
            assert cd.hom_distance(f, t, moved) == 0

    def test_dimension_mismatch(self, z5):
        with pytest.raises(DimensionMismatch, match=r"^table order 5 vs permutation size 6$"):
            cd.transport(z5, cd.Permutation.identity(6))


class TestIsomorphism:
    def test_z4_vs_klein(self):
        z4 = cyclic(4)
        klein = cd.make_group(cd.GroupKind.elementary_abelian(2))
        assert cd.are_isomorphic(z4, klein) == (False, None)

    def test_generator_images_must_give_a_homomorphism(self):
        # 1 -> 1, 2 -> 2 extends along the walk to a bijection from the
        # Klein group onto Z_4, but f(1 * 1) = f(0) = 0 while f(1) + f(1) = 2
        homs = cd.group_core._homs_from_generators
        klein = cd.make_group(cd.GroupKind.elementary_abelian(2))
        assert homs(klein, cyclic(4), [1, 2], np.array([[1, 2]])).shape == (0, 4)
        z4 = cyclic(4)
        assert homs(z4, z4, [1], np.array([[3]])).tolist() == [[0, 3, 2, 1]]

    @pytest.mark.parametrize("n", range(1, MAX_BRUTE_ORDER + 1))
    def test_isomorphisms_match_per_candidate_search(self, n):
        # every pair of catalog kinds of order n, then 50 seeded transports
        # of each kind; same isomorphisms, in the same order
        kinds = [cd.make_group(kind) for kind in cd.groups_of_order(n)]
        for a, b in itertools.product(kinds, repeat=2):
            assert list(cd.group_core._isomorphisms(a, b)) == oracle_isomorphisms(a, b)
        rng = random.Random(n)
        for g in kinds:
            for _ in range(50):
                moved = cd.transport(g, random_permutation(n, rng))
                assert list(cd.group_core._isomorphisms(g, moved)) == oracle_isomorphisms(g, moved)

    def test_z7_vs_transport(self, z7):
        rng = random.Random(7)
        moved = cd.transport(z7, random_permutation(7, rng))
        ok, f = cd.are_isomorphic(z7, moved)
        assert ok and cd.hom_distance(f, z7, moved) == 0

    def test_sym3_is_dihedral_3(self):
        d3 = dihedral(3)
        moved = cd.transport(d3, cd.Permutation((2, 0, 5, 1, 4, 3)))
        ok, f = cd.are_isomorphic(d3, moved)
        assert ok and cd.hom_distance(f, d3, moved) == 0

    def test_symmetry_via_inverse_witness(self):
        d3 = dihedral(3)
        moved = cd.transport(d3, cd.Permutation((2, 0, 5, 1, 4, 3)))
        _, f = cd.are_isomorphic(d3, moved)
        assert cd.hom_distance(f.inverse(), moved, d3) == 0

    def test_transitivity_via_composed_witness(self):
        z6 = cyclic(6)
        a = cd.transport(z6, cd.Permutation((1, 2, 0, 4, 5, 3)))
        b = cd.transport(z6, cd.Permutation((5, 4, 3, 2, 1, 0)))
        _, f1 = cd.are_isomorphic(z6, a)
        _, f2 = cd.are_isomorphic(a, b)
        assert cd.hom_distance(f2.compose(f1), z6, b) == 0

    def test_order_cap(self):
        z9 = cyclic(MAX_BRUTE_ORDER + 1)
        with pytest.raises(OrderTooLarge, match="^isomorphism search capped at order 8, got 9$"):
            cd.are_isomorphic(z9, z9)
        with pytest.raises(OrderTooLarge, match="^isomorphism search capped at order 8, got 9$"):
            cd.automorphisms(z9)

    def test_catalog_order_cap(self):
        with pytest.raises(OrderTooLarge, match="^catalog covers orders 1..8, got 9$"):
            cd.groups_of_order(9)

    def test_max_brute_order_is_largest_catalog_order(self):
        assert MAX_BRUTE_ORDER == max(kind.order for kinds in _CATALOG.values() for kind in kinds)

    @pytest.mark.parametrize("n", range(1, MAX_BRUTE_ORDER + 1))
    def test_automorphisms_match_brute_force(self, n):
        # transport(G, f) == G iff f(a * b) = f(a) * f(b) for every cell,
        # checked here for all n! permutations f at once
        perms = np.array(list(itertools.permutations(range(n))))
        for kind in cd.groups_of_order(n):
            g = cd.make_group(kind)
            fixed = (perms[:, g.array] == g.array[perms[:, :, None], perms[:, None, :]]).all(axis=(1, 2))
            auts = cd.automorphisms(g)
            assert len(auts) == np.count_nonzero(fixed)  # each automorphism once
            assert {f.image for f in auts} == set(map(tuple, perms[fixed].tolist()))
            assert all(cd.transport(g, f) == g for f in auts)

    @pytest.mark.parametrize("n", range(1, MAX_BRUTE_ORDER + 1))
    def test_automorphisms_wrap_the_array(self, n):
        # one implementation: the oracle's coset pairs read the array itself
        for kind in cd.groups_of_order(n):
            g = cd.make_group(kind)
            aut = cd.group_core._isomorphism_array(g, g)
            assert aut.dtype == np.intp and aut.shape == (len(cd.automorphisms(g)), n)
            assert cd.automorphisms(g) == [cd.Permutation(tuple(f)) for f in aut.tolist()]

    def test_prime_order_tables_are_cyclic(self):
        tables, labels, kinds, _ = cd.search.all_group_tables(5)
        assert len(tables) == 30
        assert set(labels.tolist()) == {0} and kinds[0].label() == "cyclic:5"


class TestDihedralTwiceOdd:
    def test_cases(self):
        assert cd.is_dihedral_twice_odd(dihedral(5))
        assert cd.is_dihedral_twice_odd(dihedral(3))
        assert not cd.is_dihedral_twice_odd(dihedral(4))
        assert not cd.is_dihedral_twice_odd(cyclic(10))
        assert not cd.is_dihedral_twice_odd(cyclic(6))

    def test_relabelled_dihedral_detected(self):
        moved = cd.transport(dihedral(5), cd.Permutation((9, 3, 7, 0, 5, 2, 8, 1, 6, 4)))
        assert cd.is_dihedral_twice_odd(moved)

    def test_matches_search_oracle(self):
        rng = random.Random(7)
        base = [cd.GroupKind.cyclic(i) for i in range(1, 16)]
        base += [cd.GroupKind.dihedral(k) for k in range(1, 16)]
        kinds = base + [
            cd.GroupKind.direct_product(a, b)
            for a, b in itertools.combinations_with_replacement(base, 2)
            if a.order * b.order <= 120
        ]
        kinds += map(cd.GroupKind.parse, ("cyclic:61", "cyclic:101", "dihedral:50", "dihedral:51"))
        found = []
        for kind in kinds:
            t = cd.make_group(kind)
            for table in (t, cd.transport(t, random_permutation(t.n, rng))):
                assert cd.is_dihedral_twice_odd(table) == oracle_is_dihedral_twice_odd(table), kind
            if cd.is_dihedral_twice_odd(t):
                found.append(kind.label())
        # D_k for odd k >= 3, alone and as a product with the trivial group
        odd = range(3, 16, 2)
        expected = [f"dihedral:{k}" for k in odd] + [f"cyclic:1*dihedral:{k}" for k in odd]
        assert found == expected + ["dihedral:51"]


class TestPower:
    def test_identity_exponent(self, z7):
        assert cd.power(z7, 3, 0) == 0

    def test_square_in_z7(self, z7):
        assert cd.power(z7, 3, 2) == 6

    def test_reflection_squares_to_identity(self):
        d3 = dihedral(3)
        for s in range(3, 6):
            assert cd.power(d3, s, 2) == d3.identity

    def test_matches_repeated_multiplication(self, z5):
        for g in range(5):
            x = z5.identity
            for k in range(8):
                assert cd.power(z5, g, k) == x
                x = z5.cells[x][g]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda t: t.element_order(-1), "element -1 outside 0..4"),
        (lambda t: t.inverse(-1), "element -1 outside 0..4"),
        (lambda t: cd.power(t, 1.5, 2), "element 1.5 is not an integer"),
        (lambda t: cd.power(t, 1, 2.0), "exponent 2.0 is not an integer"),
        (lambda t: cd.Permutation.identity(t.n)(-1), "element -1 outside 0..4"),
        (lambda t: cd.Permutation.identity(t.n)(5), "element 5 outside 0..4"),
        (lambda t: cd.Permutation.identity(t.n)(1.0), "element 1.0 is not an integer"),
    ],
    ids=[
        "element_order",
        "inverse",
        "power_element",
        "power_exponent",
        "permutation_negative",
        "permutation_past_end",
        "permutation_float",
    ],
)
def test_element_argument_checked(z5, call, message):
    # -1 would otherwise index the last row or column
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call(z5)


# Calls that take an integer argument, each with its arguments built by a
# type t from plain ints and returning plain data.  Those built from 1 and 0
# also take bools, those built from 11 only numpy integers.
_ROW_ONE_CALLS = {
    "element_order": lambda t: cyclic(5).element_order(t(1)),
    "inverse": lambda t: cyclic(5).inverse(t(1)),
    "power_element": lambda t: cd.power(cyclic(5), t(1), 3),
    "power_exponent": lambda t: cd.power(cyclic(5), 2, t(1)),
    "table_identity": lambda t: cd.GroupTable(2, [[1, 0], [0, 1]], t(1)).identity,
    "transport_identity": lambda t: cd.transport(
        cyclic(2), cd.Permutation((t(1), t(0)))
    ).identity,
    "enumerate_patterns": lambda t: next(cd.enumerate_patterns(11, 3, t(1))).to_dict(),
    "apply_pattern": lambda t: list(
        cd.apply_pattern(next(cd.enumerate_patterns(11, 3, t(1))), cyclic(11)).image
    ),
    "complete_from_row": lambda t: cd.complete_from_row(
        cyclic(11), t(1), cd.Permutation(cyclic(11).cells[1])
    ).cells,
    "permutation_call": lambda t: cd.Permutation((t(1), t(0)))(0),
    "permutation_compose": lambda t: cd.Permutation((t(1), t(0))).compose(
        cd.Permutation((t(1), t(0)))
    ).image,
}
_PRIME_CALLS = {
    "prime_stability_verify": lambda t: cd.prime_stability_verify(t(11)).to_dict(),
    "analytic_lower_bound": lambda t: cd.analytic_lower_bound(t(11), t(3)).to_dict(),
}


_TYPES = {"bool": bool, "np.bool_": np.bool_, "np.int64": np.int64}


@pytest.mark.parametrize(
    "call, t",
    [
        pytest.param(call, _TYPES[t], id=f"{name}-{t}")
        for calls, types in ((_ROW_ONE_CALLS, _TYPES), (_PRIME_CALLS, ["np.int64"]))
        for name, call in calls.items()
        for t in types
    ],
)
def test_integer_arguments_read_as_int(call, t):
    # a bool or numpy integer gives what the plain int gives, as Python ints:
    # numpy would read a bool index as a mask, and JSON takes no numpy scalar
    assert json.dumps(call(t)) == json.dumps(call(int))


class TestPermutation:
    def test_parse_image_line(self):
        p = cd.Permutation.parse("0 1 4 5 2 3 6")
        assert p.image == (0, 1, 4, 5, 2, 3, 6)

    def test_parse_cycles(self):
        p = cd.Permutation.parse("(2 3)(5 7)", n=8)
        assert p == cd.Permutation.from_cycles(8, [(2, 3), (5, 7)])
        assert cd.Permutation.parse("(2,3)", n=5) == cd.Permutation.transposition(5, 2, 3)

    def test_cycle_notation_roundtrip(self):
        rng = random.Random(5)
        for _ in range(30):
            p = random_permutation(8, rng)
            assert cd.Permutation.parse(p.cycle_notation(), n=8) == p

    def test_sign(self):
        assert sign(cd.Permutation.transposition(5, 1, 2)) == -1
        assert sign(cd.Permutation.from_cycles(5, [(0, 1, 2)])) == 1
        assert sign(cd.Permutation.identity(4)) == 1

    def test_compose_and_inverse(self):
        rng = random.Random(9)
        for _ in range(20):
            p = random_permutation(6, rng)
            assert p.compose(p.inverse()) == cd.Permutation.identity(6)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: cd.Permutation((1.0, 0.0, 2.0, 3.0, 4.0)), "image entry 1.0 is not an integer"),
            (lambda: cd.Permutation((0, "1")), "image entry '1' is not an integer"),
            (lambda: cd.Permutation.from_cycles(3, [(0.0, 1.0)]), "cycle entry 0.0 is not an integer"),
        ],
        ids=["float_image", "str_image", "float_cycle"],
    )
    def test_entry_not_an_integer(self, build, message):
        with pytest.raises(InvalidPermutation, match=f"^{re.escape(message)}$"):
            build()

    def test_invalid(self):
        with pytest.raises(InvalidPermutation):
            cd.Permutation((0, 0, 1))
        with pytest.raises(InvalidPermutation):
            cd.Permutation.parse("(1 2", n=3)
        with pytest.raises(InvalidPermutation):
            cd.Permutation.parse("(0 1)(1 2)", n=3)


class TestTableIO:
    def test_roundtrip(self, z7):
        assert cd.GroupTable.from_text(z7.to_text()) == z7

    def test_bad_row_count(self):
        with pytest.raises(InputError):
            cd.GroupTable.from_text("3\n0 1 2\n1 2 0\n")

    def test_non_integer(self):
        with pytest.raises(InputError):
            cd.GroupTable.from_text("2\n0 1\n1 x\n")


def test_element_order_of_a_non_group_is_bounded():
    t = cd.GroupTable(2, ((0, 0), (0, 1)), 1)
    assert t.element_order(1) == 1
    with pytest.raises(InputError, match="element 0 does not reach the identity"):
        t.element_order(0)
    with pytest.raises(InputError):
        t.order_profile()
    with pytest.raises(InputError, match="element 0 does not reach the identity"):
        t.orders


@pytest.mark.parametrize("label", ["cyclic:12", "dihedral:6", "q8", "e2:3", "dihedral:3*cyclic:2"])
def test_orders_are_element_orders(label):
    base = cd.make_group(cd.GroupKind.parse(label))
    t = cd.transport(base, random_permutation(base.n, random.Random(label)))
    assert t.orders == tuple(t.element_order(g) for g in range(t.n))


def test_span_matches_cell_walk():
    """_span gives the same dict, in the same key order, as a walk over the
    cells tuple: on every catalog table and a transport of it, for its
    generating sequence and for random sequences with repeats and the
    identity."""
    rng = random.Random(17)
    for n in range(1, MAX_BRUTE_ORDER + 1):
        for kind in cd.groups_of_order(n):
            t = cd.make_group(kind)
            for table in (t, cd.transport(t, random_permutation(n, rng))):
                seqs = [cd.generating_sequence(table), []]
                seqs += [[rng.randrange(n) for _ in range(rng.randint(1, 3))] for _ in range(4)]
                for gens in seqs:
                    got = cd.group_core._span(table, gens)
                    want = oracle_span(table, gens)
                    assert list(got.items()) == list(want.items()), (kind, gens)
                    assert all(type(v) is int for item in got.items() for v in (item[0], *item[1]))


def test_generating_sequence_spans():
    rng = random.Random(11)
    for n in range(1, MAX_BRUTE_ORDER + 1):
        for kind in cd.groups_of_order(n):
            t = cd.make_group(kind)
            for table in (t, cd.transport(t, random_permutation(n, rng))):
                gens = cd.generating_sequence(table)
                # each generator lies outside the span of those before it
                span = {table.identity}
                for g in gens:
                    assert g not in span
                    span = oracle_closure(table, span | {g})
                assert span == set(range(n))


@pytest.mark.parametrize(
    "label",
    [
        "cyclic:8", "cyclic:4*cyclic:2", "e2:3", "dihedral:4", "q8",
        "cyclic:101", "dihedral:50", "dihedral:51", "e2:4", "cyclic:6*cyclic:2",
    ],
)
def test_generating_sequence_matches_fresh_walks(label):
    # the one-walk closure against _span run afresh after each generator,
    # on the canonical table and 20 seeded relabellings
    base = cd.make_group(cd.GroupKind.parse(label))
    rng = random.Random(label)
    for table in [base] + [cd.transport(base, random_permutation(base.n, rng)) for _ in range(20)]:
        assert cd.generating_sequence(table) == oracle_generating_sequence(table)


def test_generating_sequence_matches_fresh_walks_off_groups():
    # validate_table calls generating_sequence before associativity is
    # known, so it must agree on Latin squares that are not groups too:
    # every loop of order 5 and switched intercalates up to order 100,
    # each as given (identity 0) and relabelled
    rng = random.Random(23)
    squares = [*reduced_loops(5), *(switched_intercalate(k, rng) for k in range(3, 51))]
    for cells in squares:
        n = len(cells)
        f = random_permutation(n, rng).image
        moved = [[0] * n for _ in range(n)]
        for x, row in enumerate(cells):
            for y, v in enumerate(row):
                moved[f[x]][f[y]] = f[v]
        for table in (cd.GroupTable(n, cells, 0), cd.GroupTable(n, moved, f[0])):
            assert cd.generating_sequence(table) == oracle_generating_sequence(table)
