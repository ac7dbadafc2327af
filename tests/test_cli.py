import json
import random

import pytest

import cayleydist as cd
from cayleydist.cli import main

from conftest import (
    cyclic,
    oracle_first_nonassociative,
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

    def test_verify_out_of_range(self, capsys):
        code, _, err = run(capsys, "verify", "--prime", "37")
        assert code == 2 and "31" in err

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

    def test_oracle_order8_needs_slow_flag(self, capsys):
        code, _, err = run(capsys, "oracle", "--order", "8")
        assert code == 2 and "allow" in err.lower()

    def test_json_stable_across_runs(self, capsys, z7_file, z7f_file):
        strip = lambda text: [ln for ln in text.splitlines() if "runtime_ms" not in ln]
        _, out1, _ = run(capsys, "dist", z7_file, z7f_file, "--profile", "--json")
        _, out2, _ = run(capsys, "dist", z7_file, z7f_file, "--profile", "--json")
        assert strip(out1) == strip(out2)

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
