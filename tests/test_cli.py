import dataclasses
import importlib.util
import json
import os
import random
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import cayleydist as cd
from cayleydist.cli import main

from conftest import (
    cyclic,
    oracle_first_nonassociative,
    oracle_pairwise_delta,
    random_permutation,
    switched_intercalate,
)

# min-transposition --json output of the exhaustive O(n^4) scan this command
# used to run, pinned byte for byte apart from runtime_ms.
MIN_TRANSPOSITION_D5 = """\
{
  "command": "min-transposition",
  "counts": {
    "transpositions": 45
  },
  "params": {
    "table": "d5.tbl"
  },
  "result": {
    "min_mf": 40
  },
  "runtime_ms": 0,
  "witnesses": {
    "transposition": {
      "cycles": "(1 5)",
      "image": [
        0,
        5,
        2,
        3,
        4,
        1,
        6,
        7,
        8,
        9
      ]
    }
  }
}
"""

MIN_TRANSPOSITION_Z13F = """\
{
  "command": "min-transposition",
  "counts": {
    "transpositions": 78
  },
  "params": {
    "table": "z13f.tbl"
  },
  "result": {
    "min_mf": 60
  },
  "runtime_ms": 0,
  "witnesses": {
    "transposition": {
      "cycles": "(0 1)",
      "image": [
        1,
        0,
        2,
        3,
        4,
        5,
        6,
        7,
        8,
        9,
        10,
        11,
        12
      ]
    }
  }
}
"""

# Output of the dist, mf, check-lemmas, reconstruct and transport commands
# when they ran cell-by-cell loops, pinned byte for byte apart from
# runtime_ms.  z13f is Z_13 transported by the permutation Random(13)
# draws, d5f is D_5 transported by the one Random(5) draws, and z13t is
# Z_13 transported by the transposition of two elements Random(13) samples.
DIST_Z13F = """\
{
  "command": "dist",
  "counts": {},
  "params": {
    "table_a": "z13.tbl",
    "table_b": "z13f.tbl"
  },
  "result": {
    "agreement": [],
    "m": null,
    "row": [
      13,
      12,
      11,
      12,
      12,
      13,
      12,
      11,
      13,
      11,
      12,
      11,
      12
    ],
    "total": 155
  },
  "runtime_ms": 0,
  "witnesses": {}
}
"""

MF_D5 = """\
{
  "command": "mf",
  "counts": {},
  "params": {
    "perm": [
      2,
      3,
      1,
      0,
      8,
      7,
      6,
      5,
      4,
      9
    ],
    "table": "d5.tbl"
  },
  "result": {
    "mf": 93
  },
  "runtime_ms": 0,
  "witnesses": {
    "perm": {
      "cycles": "(0 2 1 3)(4 8)(5 7)",
      "image": [
        2,
        3,
        1,
        0,
        8,
        7,
        6,
        5,
        4,
        9
      ]
    }
  }
}
"""

CHECK_LEMMAS_D5F = """\
{
  "command": "check-lemmas",
  "counts": {
    "violations": 0
  },
  "params": {
    "table_a": "d5.tbl",
    "table_b": "d5f.tbl"
  },
  "result": {
    "violations": []
  },
  "runtime_ms": 0,
  "witnesses": {}
}
"""

RECONSTRUCT_Z13T = """\
{
  "command": "reconstruct",
  "counts": {},
  "params": {
    "table_a": "z13.tbl",
    "table_b": "z13t.tbl"
  },
  "result": {
    "found": true
  },
  "runtime_ms": 0,
  "witnesses": {
    "isomorphism": {
      "cycles": "(4 12)",
      "image": [
        0,
        1,
        2,
        3,
        12,
        5,
        6,
        7,
        8,
        9,
        10,
        11,
        4
      ]
    }
  }
}
"""

TRANSPORT_Z13F = """\
13
5 9 12 10 7 6 3 11 0 2 4 1 8
9 10 7 8 5 2 12 6 1 4 0 3 11
12 7 1 5 3 8 0 10 2 11 6 4 9
10 8 5 11 9 4 7 2 3 0 1 12 6
7 5 3 9 12 11 1 8 4 6 2 0 10
6 2 8 4 11 3 10 1 5 12 7 9 0
3 12 0 7 1 10 4 9 6 8 11 2 5
11 6 10 2 8 1 9 0 7 3 12 5 4
0 1 2 3 4 5 6 7 8 9 10 11 12
2 4 11 0 6 12 8 3 9 7 5 10 1
4 0 6 1 2 7 11 12 10 5 9 8 3
1 3 4 12 0 9 2 5 11 10 8 6 7
8 11 9 6 10 0 5 4 12 1 3 7 2
"""


@pytest.fixture
def z7_file(tmp_path):
    path = tmp_path / "z7.tbl"
    path.write_text(cyclic(7).to_text())
    return str(path)


@pytest.fixture
def z7f_file(tmp_path):
    t = cd.transport(cyclic(7), cd.Permutation((0, 1, 4, 5, 2, 3, 6)))
    path = tmp_path / "z7f.tbl"
    path.write_text(t.to_text())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasicCommands:
    def test_validate(self, capsys, z7_file):
        code, out, _ = run(capsys, "validate", z7_file)
        assert code == 0 and "n=7" in out

    def test_validate_bad_table(self, capsys, tmp_path):
        bad = tmp_path / "bad.tbl"
        bad.write_text("2\n0 0\n1 1\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2 and "row 0" in err

    @pytest.mark.parametrize(
        "text,cells,message",
        [
            ("3\n0 1 2\n1 2\n2 0 1\n", [[0, 1, 2], [1, 2], [2, 0, 1]], "row 1 has 2 entries, expected 3"),
            ("2\n0 x\n1 0\n", [[0, "x"], [1, 0]], "cell (0,1) = 'x' is not an integer"),
            ("2\nx\n1 y\n", [["x"], [1, "y"]], "row 0 has 1 entries, expected 2"),
        ],
        ids=["short_row", "bad_token", "short_row_first"],
    )
    def test_table_file_fault_reads_as_validate_table(self, capsys, tmp_path, text, cells, message):
        with pytest.raises(cd.InputError) as lib:
            cd.validate_table(cells)
        assert str(lib.value) == message
        path = tmp_path / "bad.tbl"
        path.write_text(text)
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv,text,message",
        [
            (["mf", "TBL", "--perm", "   "], None, "empty permutation"),
            (["mf", "TBL", "--cycles", "()"], None, "empty cycle in '()'"),
            (["mf", "TBL", "--cycles", "(1 x)"], None, "bad cycle entry in '(1 x)'"),
            (["mf", "TBL", "--perm", "0 1 2 x 4 5 6"], None, "bad image entry in '0 1 2 x 4 5 6'"),
            (["mf", "TBL", "--perm", "0 1 2"], None, "expected 7 entries, got 3"),
            (["mf", "TBL", "--cycles", "(1 9)"], None, "cycle entry 9 outside 0..6"),
            (["make", "--kind", "cyclic:0"], None, "cyclic order must be >= 1, got 0"),
            (["make", "--kind", "dihedral:0"], None, "dihedral parameter must be >= 1, got 0"),
            (["validate", "TBL"], "", "empty table file"),
            (["validate", "TBL"], "x\n", "first line must be the order n, got 'x'"),
            (["validate", "TBL"], "2\n0 1\n", "expected 2 table rows, got 1"),
            (["oracle", "--order", "0"], None, "stability needs order >= 2, got 0"),
            (["oracle", "--order", "-3"], None, "stability needs order >= 2, got -3"),
        ],
        ids=[
            "blank_perm",
            "empty_cycle",
            "bad_cycle_entry",
            "bad_image_entry",
            "short_perm",
            "cycle_entry_outside",
            "cyclic_0",
            "dihedral_0",
            "empty_file",
            "order_not_int",
            "missing_rows",
            "oracle_order_0",
            "oracle_order_negative",
        ],
    )
    def test_malformed_input(self, capsys, tmp_path, argv, text, message):
        # TBL names a table file: Z_7, or the given text
        path = tmp_path / "t.tbl"
        path.write_text(cyclic(7).to_text() if text is None else text)
        code, out, err = run(capsys, *(str(path) if a == "TBL" else a for a in argv))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_cycles_without_parentheses_read_as_one_cycle(self, capsys, z7_file):
        for cycles in ("1 2 3", "(1 2 3)"):
            code, out, _ = run(capsys, "mf", z7_file, "--cycles", cycles)
            assert code == 0 and out == "m_f = 31\n"

    def test_dist_paper_pair(self, capsys, z7_file, z7f_file):
        code, out, _ = run(capsys, "dist", z7_file, z7f_file)
        assert code == 0 and "dist = 18" in out

    def test_dist_profile_json(self, capsys, z7_file, z7f_file):
        code, out, _ = run(capsys, "dist", z7_file, z7f_file, "--profile", "--json")
        doc = json.loads(out)
        assert doc["result"]["total"] == 18
        assert sum(doc["result"]["row"]) == 18

    def test_delta0(self, capsys, z7_file):
        code, out, _ = run(capsys, "delta0", z7_file)
        assert code == 0 and "24" in out

    def test_mf_image_and_cycles(self, capsys, tmp_path):
        path = tmp_path / "z5.tbl"
        path.write_text(cyclic(5).to_text())
        code, out, _ = run(capsys, "mf", str(path), "--cycles", "(2 3)")
        assert code == 0 and "m_f = 12" in out
        code, out, _ = run(capsys, "mf", str(path), "--perm", "0 1 3 2 4")
        assert code == 0 and "m_f = 12" in out

    def test_mf_missing_perm(self, capsys, z7_file):
        code, _, err = run(capsys, "mf", z7_file)
        assert code == 2 and "perm" in err

    @pytest.mark.parametrize("command", ["mf", "transport"])
    def test_perm_and_cycles_exclusive(self, capsys, z7_file, command):
        # each alone names the permutation; given both, neither is dropped
        code, out, err = run(
            capsys, command, z7_file, "--perm", "0 1 2 3 4 5 6", "--cycles", "(1 2)"
        )
        assert code == 2 and out == ""
        assert "argument --cycles: not allowed with argument --perm" in err

    def test_min_transposition(self, capsys, z7_file):
        code, out, _ = run(capsys, "min-transposition", z7_file, "--json")
        doc = json.loads(out)
        assert doc["result"]["min_mf"] == 24
        assert doc["counts"]["transpositions"] == 21

    @pytest.mark.parametrize(
        "name,table,expected",
        [
            (
                "d5.tbl",
                lambda: cd.make_group(cd.GroupKind.dihedral(5)),
                MIN_TRANSPOSITION_D5,
            ),
            (
                "z13f.tbl",
                lambda: cd.transport(cyclic(13), random_permutation(13, random.Random(13))),
                MIN_TRANSPOSITION_Z13F,
            ),
        ],
    )
    def test_min_transposition_json_pinned(self, capsys, tmp_path, monkeypatch, name, table, expected):
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(table().to_text())
        code, out, _ = run(capsys, "min-transposition", name, "--json")
        assert code == 0
        strip = lambda text: [ln for ln in text.splitlines() if '"runtime_ms"' not in ln]
        assert strip(out) == strip(expected)

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["dist", "z13.tbl", "z13f.tbl", "--profile", "--json"], DIST_Z13F),
            (["mf", "d5.tbl", "--perm", "2 3 1 0 8 7 6 5 4 9", "--json"], MF_D5),
            (["check-lemmas", "d5.tbl", "d5f.tbl", "--json"], CHECK_LEMMAS_D5F),
            (["reconstruct", "z13.tbl", "z13t.tbl", "--json"], RECONSTRUCT_Z13T),
            (["transport", "z13.tbl", "--perm", "8 7 0 11 5 1 6 9 3 2 10 12 4"], TRANSPORT_Z13F),
        ],
        ids=["dist", "mf", "check-lemmas", "reconstruct", "transport"],
    )
    def test_pair_commands_pinned(self, capsys, tmp_path, monkeypatch, argv, expected):
        monkeypatch.chdir(tmp_path)
        z13, d5 = cyclic(13), cd.make_group(cd.GroupKind.dihedral(5))
        u, v = random.Random(13).sample(range(13), 2)
        tables = {
            "z13.tbl": z13,
            "z13f.tbl": cd.transport(z13, random_permutation(13, random.Random(13))),
            "z13t.tbl": cd.transport(z13, cd.Permutation.transposition(13, u, v)),
            "d5.tbl": d5,
            "d5f.tbl": cd.transport(d5, random_permutation(10, random.Random(5))),
        }
        for name, table in tables.items():
            (tmp_path / name).write_text(table.to_text())
        code, out, _ = run(capsys, *argv)
        assert code == 0
        strip = lambda text: [ln for ln in text.splitlines() if '"runtime_ms"' not in ln]
        assert strip(out) == strip(expected)
        assert out.endswith("\n")

    def test_validate_nonassociative_first_offender(self, capsys, tmp_path):
        cells = switched_intercalate(10, random.Random(10))
        path = tmp_path / "switched.tbl"
        path.write_text(f"{len(cells)}\n" + "\n".join(" ".join(map(str, row)) for row in cells) + "\n")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {oracle_first_nonassociative(cells)}\n"

    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "bounds", "--p", "13", "--m", "5", "--json")
        doc = json.loads(out)
        assert doc["result"]["excluded"] is True and doc["result"]["best"] == 60

    def test_bounds_bad_p(self, capsys):
        code, _, err = run(capsys, "bounds", "--p", "15", "--m", "3")
        assert code == 2

    def test_bounds_m_above_p_minus_one(self, capsys):
        code, out, err = run(capsys, "bounds", "--p", "11", "--m", "40")
        assert code == 2 and out == ""
        assert err == "error: m = 40 exceeds p - 1 = 10 at p = 11\n"

    def test_table_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "binary.tbl"
        path.write_bytes(b"\xff\xfe\x00")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read table file {path}: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--order", "3", "--json", "{out}"],
            ["make", "--kind", "cyclic:3", "-o", "{out}"],
            ["transport", "{table}", "--cycles", "(1 2)", "-o", "{out}"],
        ],
        ids=["json", "make", "transport"],
    )
    def test_unwritable_output(self, capsys, tmp_path, z7_file, argv):
        out_path = tmp_path / "missing" / "out"
        argv = [a.format(out=out_path, table=z7_file) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert not out_path.exists()


class TestMakeTransportRoundTrip:
    def test_make_validate_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "d5.tbl"
        code, _, _ = run(capsys, "make", "--kind", "dihedral:5", "-o", str(out_path))
        assert code == 0
        code, out, _ = run(capsys, "validate", str(out_path))
        assert code == 0 and "n=10" in out
        code, out, _ = run(capsys, "delta0", str(out_path))
        assert "40" in out

    def test_make_to_stdout(self, capsys):
        code, out, _ = run(capsys, "make", "--kind", "cyclic:3")
        assert code == 0
        assert cd.GroupTable.from_text(out) == cyclic(3)

    def test_transport_then_dist(self, capsys, tmp_path, z7_file):
        moved = tmp_path / "moved.tbl"
        code, _, _ = run(
            capsys, "transport", z7_file, "--perm", "0 1 4 5 2 3 6", "-o", str(moved)
        )
        assert code == 0
        code, out, _ = run(capsys, "dist", z7_file, str(moved))
        assert "dist = 18" in out

    def test_unknown_kind(self, capsys):
        code, _, err = run(capsys, "make", "--kind", "monster:1")
        assert code == 2

    def test_make_into_closed_pipe(self):
        # the Z_300 table outgrows a pipe buffer, so the write always meets
        # the closed read end: the command ends quietly with its own status
        src = str(Path(__file__).parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.Popen(
            [sys.executable, "-m", "cayleydist.cli", "make", "--kind", "cyclic:300"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0 and err == b""


class TestReconstructAndLemmas:
    def test_reconstruct(self, capsys, tmp_path):
        z13 = cyclic(13)
        a = tmp_path / "a.tbl"
        b = tmp_path / "b.tbl"
        a.write_text(z13.to_text())
        b.write_text(cd.transport(z13, cd.Permutation.transposition(13, 2, 5)).to_text())
        code, out, _ = run(capsys, "reconstruct", str(a), str(b), "--json")
        doc = json.loads(out)
        assert code == 0 and doc["witnesses"]["isomorphism"]["cycles"] == "(2 5)"

    def test_reconstruct_hypothesis_not_met(self, capsys, z7_file, z7f_file):
        code, _, err = run(capsys, "reconstruct", z7_file, z7f_file)
        assert code == 2

    def test_check_lemmas_clean(self, capsys, z7_file, z7f_file):
        code, out, _ = run(capsys, "check-lemmas", z7_file, z7f_file)
        assert code == 0 and "hold" in out


class TestVerifyAndOracle:
    def test_verify_11(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--prime", "11", "--json", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["result"]["delta"] == 48
        assert doc["result"]["theorem_confirmed"] is True

    # "p-False" ids, from the (p, all_rows) form, keep each case's name in
    # test histories.
    @pytest.mark.parametrize(
        "p", [11, 13, 17, 19, 23, 29, 31, 37], ids=lambda p: f"{p}-False"
    )
    def test_verify_json_pinned(self, capsys, p):
        # verify --json output pinned byte for byte, apart from runtime_ms
        code, out, err = run(capsys, "verify", "--prime", str(p), "--json")
        assert code == 0 and err == ""
        expected = (Path(__file__).parent / "golden" / f"verify_p{p}.json").read_text()
        strip = lambda text: [ln for ln in text.splitlines() if '"runtime_ms"' not in ln]
        assert strip(out) == strip(expected)

    def test_verify_reports_unexcluded_m(self, capsys, m5_left_open):
        code, out, _ = run(capsys, "verify", "--prime", "11")
        assert code == 1
        assert "  m=5: NOT excluded, best bound 40 < 48" in out.splitlines()
        assert "NOT CONFIRMED" in out

    def test_verify_out_of_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--prime", "37", "--json")
        assert code == 0 and json.loads(out)["result"]["m_cases"] == []
        for p in ("7", "9"):
            code, _, err = run(capsys, "verify", "--prime", p)
            assert code == 2 and "need a prime greater than 7" in err

    def test_verify_header_names_rows_searched(self, capsys):
        # from p = 37 up the bounds decide alone, so no row is searched
        for p, rows in (("11", "fixed h=1"), ("37", "none")):
            code, out, _ = run(capsys, "verify", "--prime", p, "--json")
            assert code == 0 and json.loads(out)["result"]["rows_searched"] == rows
        code, out, _ = run(capsys, "verify", "--prime", "37")
        assert out.splitlines()[0] == "stability verification for p=37 (no row searched):"
        code, out, _ = run(capsys, "verify", "--prime", "11")
        assert out.splitlines()[0] == "stability verification for p=11 (fixed h=1):"

    def test_verify_json_stable_across_runs(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "verify", "--prime", "13", "--json", str(p1))
        run(capsys, "verify", "--prime", "13", "--json", str(p2))
        strip = lambda text: [ln for ln in text.splitlines() if "runtime_ms" not in ln]
        assert strip(p1.read_text()) == strip(p2.read_text())

    def test_oracle_order_3(self, capsys):
        code, out, _ = run(capsys, "oracle", "--order", "3")
        assert code == 0 and "delta(3) = 9" in out

    def test_oracle_nu(self, capsys):
        code, out, _ = run(capsys, "oracle", "--order", "4", "--scope", "nu", "--json")
        doc = json.loads(out)
        assert doc["result"]["nu"] == 4

    def test_oracle_nu_prime_rejected(self, capsys):
        code, _, err = run(capsys, "oracle", "--order", "5", "--scope", "nu")
        assert code == 2

    def test_oracle_rejects_allow_slow_flag(self, capsys):
        code, _, err = run(capsys, "oracle", "--order", "8", "--allow-slow")
        assert code == 2 and "unrecognized arguments" in err

    def test_verify_rejects_all_rows_flag(self, capsys):
        code, _, err = run(capsys, "verify", "--prime", "11", "--all-rows")
        assert code == 2 and "unrecognized arguments" in err

    def test_json_stable_across_runs(self, capsys, z7_file, z7f_file):
        strip = lambda text: [ln for ln in text.splitlines() if "runtime_ms" not in ln]
        _, out1, _ = run(capsys, "dist", z7_file, z7f_file, "--profile", "--json")
        _, out2, _ = run(capsys, "dist", z7_file, z7f_file, "--profile", "--json")
        assert strip(out1) == strip(out2)

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2


class TestOracle:
    @pytest.mark.parametrize(
        "n,scope",
        [(4, "all"), (4, "mu"), (4, "nu"), (6, "all"), (6, "mu"), (6, "nu"), (7, "all"), (7, "mu")],
    )
    def test_oracle_json_pinned(self, capsys, n, scope):
        code, out, err = run(capsys, "oracle", "--order", str(n), "--scope", scope, "--json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        del doc["runtime_ms"]
        value, (wa, wb) = oracle_pairwise_delta(n, scope)
        assert doc == {
            "command": "oracle",
            "counts": {},
            "params": {"order": n, "scope": scope},
            "result": {{"all": "delta"}.get(scope, scope): value},
            "witnesses": {"pair": [[list(r) for r in wa.cells], [list(r) for r in wb.cells]]},
        }

    @pytest.mark.parametrize("scope", ["all", "mu", "nu"])
    def test_oracle_order8_json_pinned(self, capsys, scope):
        # all_group_tables(8) and kind_stability read make_group's arrays;
        # the order-8 output is pinned byte for byte, apart from runtime_ms
        argv = ["oracle", "--order", "8", "--scope", scope, "--json"]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        expected = (Path(__file__).parent / "golden" / f"oracle_n8_{scope}.json").read_text()
        strip = lambda text: [ln for ln in text.splitlines() if '"runtime_ms"' not in ln]
        assert strip(out) == strip(expected)


def test_small_order_survey_pinned(capsys, monkeypatch):
    # the survey makes every brute_delta and kind_stability call of the
    # oracle in one process; its output is pinned byte for byte
    root = Path(__file__).parent
    monkeypatch.setattr("sys.argv", ["small_order_survey.py"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(root.parent / "scripts" / "small_order_survey.py"), run_name="__main__")
    out, err = capsys.readouterr()
    assert exit_info.value.code == 0 and err == ""
    assert out == (root / "golden" / "small_order_survey.txt").read_text()


def test_run_verification_fails_on_a_cross_check_below_the_threshold(capsys, monkeypatch):
    # the cross-check above 31 stays outside the verdict, but a minimum below
    # 6p - 18 would contradict the bounds, so the script exits 1 on it
    path = Path(__file__).parent.parent / "scripts" / "run_verification.py"
    spec = importlib.util.spec_from_file_location("run_verification", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr("sys.argv", ["run_verification.py"])
    monkeypatch.setattr(script, "PRIMES", (11,))
    monkeypatch.setattr(script, "CROSS_CHECKS", ((37, 3), (37, 4)))
    assert script.main() == 0
    real = script._search_m

    def below(p, m, rows):
        return dataclasses.replace(real(p, m, rows), min_distance=6 * p - 19)

    monkeypatch.setattr(script, "_search_m", below)
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "p=37  m=3: 14280 patterns, min 203, margin -1" in out
    assert out.splitlines()[-1] == "cross-check: FAILURE, a minimum below 6p-18 contradicts the bounds"
