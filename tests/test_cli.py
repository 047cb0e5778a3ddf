"""Command line interface: subcommands, exit codes, cap resolution."""

import json

import pytest

from dihedral.cli import main

TREFOIL = "{{-1,1},{0,-1}}"
SIX_ONE = "{{-1,1},{0,2}}"


class TestAnalyze:
    def test_json_output(self, capsys):
        assert main(["analyze", "--matrix", TREFOIL, "--name", "trefoil"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "trefoil"
        assert doc["determinant"] == "3"
        assert len(doc["quotients"]) == 1

    def test_text_output(self, capsys):
        assert main(["analyze", "--matrix", TREFOIL, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "n = 3" in out

    def test_explicit_n(self, capsys):
        assert main(["analyze", "--matrix", SIX_ONE, "--n", "3", "--n", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [b["n"] for b in doc["quotients"]] == [3]
        assert doc["skipped_n"] == [5]

    def test_even_n_fails(self, capsys):
        assert main(["analyze", "--matrix", SIX_ONE, "--n", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_bad_matrix_fails(self, capsys):
        assert main(["analyze", "--matrix", "{{1,1},{1,1}}"]) == 1
        assert "error:" in capsys.readouterr().err


class TestScan:
    def test_csv(self, tmp_path, capsys):
        p = tmp_path / "census.csv"
        p.write_text(f'name,seifert\ntrefoil,"{TREFOIL}"\n6_1,"{SIX_ONE}"\n')
        assert main(["scan", str(p)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in rows] == ["trefoil", "6_1"]

    def test_jobs_match_serial(self, tmp_path, capsys):
        p = tmp_path / "census.csv"
        p.write_text(f'name,seifert\na,"{TREFOIL}"\nb,"{SIX_ONE}"\nc,"{TREFOIL}"\n')
        assert main(["scan", str(p)]) == 0
        serial = capsys.readouterr().out
        assert main(["scan", str(p), "--jobs", "3"]) == 0
        assert capsys.readouterr().out == serial

    def test_missing_file(self, capsys):
        assert main(["scan", "/no/such/census.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_fails(self, tmp_path, capsys, jobs):
        p = tmp_path / "census.csv"
        p.write_text(f'name,seifert\ntrefoil,"{TREFOIL}"\n')
        assert main(["scan", str(p), "--jobs", jobs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --jobs must be >= 1" in captured.err


class TestTwist:
    def test_range(self, capsys):
        assert main(["twist", "--m-range=-1:2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["m"] for r in doc["rows"]] == [-1, 0, 1, 2]

    def test_negative_start_as_separate_token(self, capsys):
        # a range value starting with '-' must not be read as a flag
        assert main(["twist", "--m-range", "-3:3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["m"] for r in doc["rows"]] == list(range(-3, 4))

    def test_text(self, capsys):
        assert main(["twist", "--m-range=2:2", "--format", "text"]) == 0
        assert "consistent-with-ribbon" in capsys.readouterr().out

    def test_bad_range(self, capsys):
        assert main(["twist", "--m-range", "2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_reversed_range(self, capsys):
        assert main(["twist", "--m-range=5:1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCharknots:
    def test_listing(self, capsys):
        assert main(["charknots", "--matrix", TREFOIL, "--n", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 3
        assert {tuple(c["beta"]) for c in doc["classes"]} == {("1", "2"), ("2", "1")}
        assert doc["note"] is None

    def test_cap_note_still_succeeds(self, capsys):
        assert main(["charknots", "--matrix", TREFOIL, "--n", "3",
                     "--enum-cap", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classes"] == []
        assert "not enumerated" in doc["note"]

    def test_even_n(self, capsys):
        assert main(["charknots", "--matrix", TREFOIL, "--n", "4"]) == 1
        assert "error:" in capsys.readouterr().err


class TestEnumCapResolution:
    def test_env_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("DIHEDRAL_ENUM_CAP", "1")
        assert main(["charknots", "--matrix", TREFOIL, "--n", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "not enumerated" in doc["note"]

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DIHEDRAL_ENUM_CAP", "1")
        assert main(["charknots", "--matrix", TREFOIL, "--n", "3",
                     "--enum-cap", "100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["note"] is None
        assert len(doc["classes"]) == 2

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("DIHEDRAL_ENUM_CAP", "many")
        assert main(["analyze", "--matrix", TREFOIL]) == 1
        assert "DIHEDRAL_ENUM_CAP" in capsys.readouterr().err

    def test_nonpositive_cap(self, capsys):
        assert main(["analyze", "--matrix", TREFOIL, "--enum-cap", "0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "0 failed" in out


class TestParserShape:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "dihedral", "analyze", "--matrix", TREFOIL],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["determinant"] == "3"
