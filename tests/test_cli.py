"""Command line interface: subcommands, exit codes, cap resolution."""

import argparse
import ast
import json
import os
import subprocess
import sys
import time

import pytest

import dihedral
from dihedral.cli import main
from dihedral.errors import oversized_digits

TREFOIL = "{{-1,1},{0,-1}}"
SIX_ONE = "{{-1,1},{0,2}}"
NINE_37 = "{{1,0,0,0},{0,1,0,0},{1,0,-2,1},{-1,-1,0,-1}}"


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

    def test_n_max_stops_at_determinant(self):
        # no n above the determinant divides it, so auto mode stops there
        default = run_cli("analyze", "--matrix", NINE_37)
        huge = run_cli("analyze", "--matrix", NINE_37, "--n-max", "1000000000000000")
        assert default.returncode == huge.returncode == 0
        assert huge.stdout == default.stdout

    def test_n_max_search_stops_at_square_root(self):
        # d = 400000000013 = 36943 * 10827491: the divisors above sqrt(d) come
        # from those below it, so a huge --n-max costs no loop up to d
        big = "{{-1,1},{0,100000000003}}"
        auto = run_cli("analyze", "--matrix", big, "--n-max", "1000000000000000", timeout=10)
        picked = run_cli("analyze", "--matrix", big, "--n", "36943", "--n", "10827491",
                         "--n", "400000000013", timeout=10)
        assert auto.returncode == picked.returncode == 0
        assert auto.stdout == picked.stdout
        assert [b["n"] for b in json.loads(auto.stdout)["quotients"]] == [
            36943, 10827491, 400000000013]

    def test_n_max_search_past_its_bound_refused(self):
        # d = 4 * 10^29 + 1: trial division up to sqrt(d), about 6e14, would never end
        big = "{{-1,1},{0,100000000000000000000000000000}}"
        auto = run_cli("analyze", "--matrix", big, "--n-max", "10" * 10, timeout=10)
        assert auto.returncode == 1
        assert auto.stdout == ""
        assert len(auto.stderr.splitlines()) == 1
        assert auto.stderr.startswith("error: ") and "--n" in auto.stderr
        picked = run_cli("analyze", "--matrix", big, "--n", "3", timeout=10)
        assert picked.returncode == 0
        assert json.loads(picked.stdout)["skipped_n"] == [3]

    def test_n_max_search_past_its_bound_in_scan(self, tmp_path):
        # scan has no --n: the row's error names only the bound it can lower
        p = tmp_path / "census.csv"
        p.write_text(f'name,seifert\nbig,"{{{{-1,1}},{{0,{10 ** 29}}}}}"\ntrefoil,"{TREFOIL}"\n')
        out = run_cli("scan", str(p), "--n-max", "10" * 10, timeout=10)
        assert out.returncode == 0
        big, trefoil = json.loads(out.stdout)
        assert trefoil["name"] == "trefoil" and "error" not in trefoil
        assert big["row"] == 2 and "past the bound of 10000000" in big["error"]
        assert "n_max" in big["error"] and "--n" not in big["error"]


class TestScan:
    def test_csv(self, tmp_path, capsys):
        p = tmp_path / "census.csv"
        p.write_text(f'name,seifert\ntrefoil,"{TREFOIL}"\n6_1,"{SIX_ONE}"\n')
        assert main(["scan", str(p)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in rows] == ["trefoil", "6_1"]

    def test_missing_file(self, capsys):
        assert main(["scan", "/no/such/census.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_jobs_flag(self, tmp_path, capsys):
        # rows run one after another; there is no worker count to set
        p = tmp_path / "census.csv"
        p.write_text(f'name,seifert\ntrefoil,"{TREFOIL}"\n')
        with pytest.raises(SystemExit) as e:
            main(["scan", "--jobs", "2", str(p)])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --jobs" in captured.err


DEEP = "[" * 50_000
LONG = "1" * 5_000  # above Python's 4,300-digit str-to-int limit
SEVENS = "7" * 3_000
# entries under the limit, but the knot determinant (4M + 1)^2 has 6,001 digits
BIG_DET = f"{{{{-1,1,0,0}},{{0,{SEVENS},0,0}},{{0,0,-1,1}},{{0,0,0,{SEVENS}}}}}"
# m = 2 mod 9, so the class mod 3 passes the criterion, and its form value
# over 2 * 3^2 is a 21-digit sum of four squares no short search finds
FOUR_SQUARES = "{{-1,1},{0,900000000000000000065}}"


def run_cli(*argv, timeout=30):
    """`python -m dihedral argv` in a subprocess, so a search that never
    ends fails the test at its timeout instead of stalling the suite."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dihedral.__file__)))
    return subprocess.run([sys.executable, "-m", "dihedral", *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=timeout)


class TestHostileRows:
    """A hostile row becomes an error record; the rows around it still print."""

    def _scan(self, tmp_path, capsys, name, text, bad="bad"):
        p = tmp_path / name
        p.write_text(text)
        assert main(["scan", str(p)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in rows] == ["a", bad, "b"]
        assert "error" not in rows[0] and "error" not in rows[2]
        return rows[1]["error"]

    def test_deep_nesting_csv(self, tmp_path, capsys):
        error = self._scan(tmp_path, capsys, "census.csv",
                           f'name,seifert\na,"{TREFOIL}"\nbad,"{DEEP}"\nb,"{SIX_ONE}"\n')
        assert "nested" in error

    def test_deep_nesting_jsonl(self, tmp_path, capsys):
        lines = ['{"name": "a", "seifert": [[-1,1],[0,-1]]}',
                 '{"name": "bad", "seifert": ' + DEEP + "}",
                 '{"name": "b", "seifert": [[-1,1],[0,2]]}']
        # the line cannot be decoded, so its name is unknown
        error = self._scan(tmp_path, capsys, "census.jsonl", "\n".join(lines) + "\n",
                           bad="row 2")
        assert "nested" in error

    def test_deep_nesting_jsonl_string(self, tmp_path, capsys):
        lines = ['{"name": "a", "seifert": "{{-1,1},{0,-1}}"}',
                 '{"name": "bad", "seifert": "' + DEEP + '"}',
                 '{"name": "b", "seifert": "{{-1,1},{0,2}}"}']
        error = self._scan(tmp_path, capsys, "census.jsonl", "\n".join(lines) + "\n")
        assert "nested" in error

    def test_digit_limit_csv(self, tmp_path, capsys):
        error = self._scan(tmp_path, capsys, "census.csv",
                           f'name,seifert\na,"{TREFOIL}"\nbad,"{{{{-1,1}},{{0,{LONG}}}}}"\n'
                           f'b,"{SIX_ONE}"\n')
        assert "row 1, column 1" in error and "5000 digits" in error
        assert len(error) < 200

    def test_digit_limit_jsonl(self, tmp_path, capsys):
        lines = ['{"name": "a", "seifert": [[-1,1],[0,-1]]}',
                 '{"name": "bad", "seifert": [[-1,1],[0,' + LONG + "]]}",
                 '{"name": "b", "seifert": [[-1,1],[0,2]]}']
        error = self._scan(tmp_path, capsys, "census.jsonl", "\n".join(lines) + "\n")
        assert "row 1, column 1" in error and "5000 digits" in error
        assert len(error) < 200

    def test_digit_limit_analyze_json(self, capsys):
        assert main(["analyze", "--matrix", f"[[-1,1],[0,{LONG}]]"]) == 1
        err = capsys.readouterr().err
        assert "row 1, column 1" in err and "5000 digits" in err
        assert len(err) < 200

    def test_digit_limit_analyze_grid(self, capsys):
        assert main(["analyze", "--matrix", f"-1 1\n0 {LONG}"]) == 1
        err = capsys.readouterr().err
        assert "line 2, entry 2" in err and "5000 digits" in err
        assert len(err) < 200

    def test_oversized_determinant_csv(self, tmp_path, capsys):
        error = self._scan(tmp_path, capsys, "census.csv",
                           f'name,seifert\na,"{TREFOIL}"\nbad,"{BIG_DET}"\nb,"{SIX_ONE}"\n')
        assert error.startswith("knot determinant has 6001 digits, above the limit of 4300")
        assert len(error) < 200

    def test_oversized_determinant_text(self, tmp_path, capsys):
        p = tmp_path / "census.csv"
        p.write_text(f'name,seifert\na,"{TREFOIL}"\nbad,"{BIG_DET}"\nb,"{SIX_ONE}"\n')
        assert main(["scan", str(p), "--format", "text"]) == 0
        out = capsys.readouterr().out
        error = out.index("\n\nerror (row 3, bad): knot determinant has 6001 digits")
        assert out.startswith("knot: a") and out.index("\n\nknot: b") > error

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_oversized_determinant_analyze(self, capsys, fmt):
        assert main(["analyze", "--matrix", BIG_DET, "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: knot determinant has 6001 digits")
        assert len(captured.err) < 200

    def test_oversized_skew_determinant(self, capsys):
        assert main(["analyze", "--matrix", f"{{{{0,{SEVENS}}},{{0,0}}}}"]) == 1
        err = capsys.readouterr().err
        assert "det(V - V^T) must be 1, got a 6000-digit integer" in err
        assert len(err) < 200

    def test_oversized_form_value_charknots(self, capsys):
        # M = 10^4300 - 2 is within the limit, and 3 divides 4M + 1; both
        # characteristic classes mod 3 have form values of 4,301 digits
        m = "9" * 4299 + "8"
        assert main(["charknots", "--matrix", f"{{{{-1,1}},{{0,{m}}}}}", "--n", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: form value has 4301 digits, above the limit of 4300")
        assert len(err) < 200

    @pytest.mark.parametrize("extra", [-4000, -1, 0, 1, 2, 5000])
    def test_digit_count_at_the_limit(self, extra):
        k = sys.get_int_max_str_digits() + extra
        for x in (10 ** (k - 1), 10 ** k - 1, -(10 ** k - 1)):
            assert oversized_digits(x) == (k if extra > 0 else 0)

    def test_no_digit_limit(self):
        # the interpreter's limit 0 lets an integer of any length print
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert oversized_digits(10 ** 5000) == 0
        finally:
            sys.set_int_max_str_digits(limit)

    def test_unicode_line_boundaries_in_names_jsonl(self, tmp_path, capsys):
        # raw U+2028 and U+0085 are valid inside a JSON string; only a line
        # feed ends a census row
        names = ["a\u2028b", "c\x85d"]
        lines = [json.dumps({"name": names[0], "seifert": [[-1, 1], [0, -1]]}, ensure_ascii=False),
                 json.dumps({"name": names[1], "seifert": [[-1, 1], [0, 2]]}, ensure_ascii=False)]
        p = tmp_path / "census.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["scan", str(p)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in rows] == names
        assert all("error" not in r for r in rows)

    def test_four_squares_budget_analyze(self):
        out = run_cli("analyze", "--matrix", FOUR_SQUARES, "--n", "3")
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr == ("error: four-square search for a 21-digit integer "
                              "stopped after 1000000 steps\n")

    def test_four_squares_budget_scan(self, tmp_path):
        p = tmp_path / "census.csv"
        p.write_text(f'name,seifert\na,"{TREFOIL}"\nbad,"{FOUR_SQUARES}"\nb,"{SIX_ONE}"\n')
        out = run_cli("scan", str(p))
        assert out.returncode == 0
        rows = json.loads(out.stdout)
        assert [r["name"] for r in rows] == ["a", "bad", "b"]
        assert "error" not in rows[0] and "error" not in rows[2]
        assert rows[1]["error"].startswith("four-square search for a 21-digit integer")

    @pytest.mark.parametrize("second, line", [
        ("[[-1,1],[0,2]]", r"knot: \ud800"),
        ("[[-1,1],[0]]", r"error (row 2, \ud800): row 1 has 1 entries, expected 2"),
    ])
    def test_lone_surrogate_name_text(self, tmp_path, second, line):
        # the JSON-lines reader takes a \ud800 escape in a name; the text
        # layout writes it back as that escape, as the JSON writer does
        p = tmp_path / "census.jsonl"
        p.write_text('{"name": "ok", "seifert": [[-1,1],[0,2]]}\n'
                     f'{{"name": "\\ud800", "seifert": {second}}}\n')
        out = run_cli("scan", str(p), "--format", "text")
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert lines[0] == "knot: ok"
        assert line in lines

    def test_lone_surrogate_name_analyze_text(self):
        out = run_cli("analyze", "--matrix", SIX_ONE, "--name", "a\udcff", "--format", "text")
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("knot: a\\udcff\n")

    def test_bad_grid_token_truncated(self, capsys):
        assert main(["analyze", "--matrix", f"-1 1\n0 {'x' * 5000}"]) == 1
        err = capsys.readouterr().err
        assert "line 2, entry 2: not an integer: 'xxx" in err
        assert len(err) < 200


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
        assert "error: twist range must look like A:B, got '2'" in capsys.readouterr().err

    def test_reversed_range(self, capsys):
        assert main(["twist", "--m-range=5:1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_range_refuses_digit_separator(self, capsys):
        assert main(["twist", "--m-range", "1_0:12"]) == 1
        err = capsys.readouterr().err
        assert "--m-range start must be an integer, got '1_0'" in err

    def test_oversized_determinant(self, capsys):
        # m = 10^L - 1 is readable, but its determinant 4m + 1 has L + 1 digits
        limit = sys.get_int_max_str_digits()
        m = 10 ** limit - 1
        assert main(["twist", f"--m-range={m}:{m}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: knot determinant has {limit + 1} digits, above the "
                                f"limit of {limit} for integer string conversion\n")

    def test_determinant_at_the_digit_limit(self, capsys):
        # m = 2 followed by L - 1 fours: 4m + 1 = 9 followed by L - 1 sevens
        limit = sys.get_int_max_str_digits()
        m = 2 * 10 ** (limit - 1) + (4 * 10 ** (limit - 1) - 4) // 9
        assert main(["twist", f"--m-range={m}:{m}"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["determinant"] == "9" + "7" * (limit - 1)


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
        assert main(["charknots", "--matrix", TREFOIL, "--n", "3", "--enum-cap", "1",
                     "--format", "text"]) == 0
        assert capsys.readouterr().out == f"{doc['note']}\n"

    def test_even_n(self, capsys):
        assert main(["charknots", "--matrix", TREFOIL, "--n", "4"]) == 1
        assert "error:" in capsys.readouterr().err


def test_cap_below_the_group_in_every_command(tmp_path):
    # H[3] of 6_1 has 3 elements: analyze, charknots and scan note the cap,
    # and twist, which has no note to give, fails with a one-line error
    p = tmp_path / "census.csv"
    p.write_text(f'name,seifert\n6_1,"{SIX_ONE}"\n')
    cap = ("--enum-cap", "1")
    note = "not enumerated: n-torsion subgroup H[3] has 3 elements, above the enumeration cap 1"
    out = run_cli("analyze", "--matrix", SIX_ONE, *cap)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["quotients"][0]["character_note"] == note
    out = run_cli("scan", str(p), *cap)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)[0]["quotients"][0]["character_note"] == note
    out = run_cli("charknots", "--matrix", SIX_ONE, "--n", "3", *cap)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["note"] == ("not enumerated: kernel mod 3 has 3 elements, "
                                              "above the enumeration cap 1")
    out = run_cli("twist", "--m-range", "2:2", *cap)
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == "error: kernel mod 3 has 3 elements, above the enumeration cap 1\n"


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

    def test_env_refuses_digit_separator(self, capsys, monkeypatch):
        monkeypatch.setenv("DIHEDRAL_ENUM_CAP", "1_0")
        assert main(["analyze", "--matrix", TREFOIL]) == 1
        assert "DIHEDRAL_ENUM_CAP must be an integer, got '1_0'" in capsys.readouterr().err

    def test_env_names_itself_when_too_long_to_convert(self, capsys, monkeypatch):
        monkeypatch.setenv("DIHEDRAL_ENUM_CAP", "9" * 5000)
        assert main(["analyze", "--matrix", TREFOIL]) == 1
        assert "error: DIHEDRAL_ENUM_CAP: Exceeds the limit" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, token", [("--n", "1_5"), ("--n", "\uff19"),
                                             ("--n-max", " 9"), ("--enum-cap", "0_1")])
    def test_integer_flags_take_ascii_digits_only(self, capsys, flag, token):
        # argparse refuses with its usage error, exit 2, naming the flag
        # and the token
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--matrix", TREFOIL, flag, token])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid integer value: {token!r}" in err
        assert "_integer" not in err and "function" not in err

    def test_nonpositive_cap(self, capsys):
        assert main(["analyze", "--matrix", TREFOIL, "--enum-cap", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_cap_above_the_ceiling_refused_at_once(self):
        # a 20-trefoil sum at n = 3 has 3^20 characters: the cap is refused
        # before the matrix is read, let alone the block walked
        trefoils = dihedral.twist_knot(-1)
        for _ in range(19):
            trefoils = dihedral.connected_sum(trefoils, dihedral.twist_knot(-1))
        argv = [sys.executable, "-m", "dihedral", "analyze", "--matrix",
                dihedral.render_matrix(trefoils), "--n", "3", "--enum-cap", "1000000000000"]
        start = time.perf_counter()
        # a short timeout: without the ceiling the walk would grow for minutes
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=10)
        assert time.perf_counter() - start < 1
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == ("error: --enum-cap must be at most 4000000, got 1000000000000: "
                               "a walked element takes about 1 KB of memory\n")

    @pytest.mark.parametrize("raw, ok", [("4000000", True), ("4000001", False)])
    def test_env_cap_has_the_same_ceiling(self, capsys, monkeypatch, raw, ok):
        monkeypatch.setenv("DIHEDRAL_ENUM_CAP", raw)
        assert main(["analyze", "--matrix", TREFOIL]) == (0 if ok else 1)
        err = capsys.readouterr().err
        assert err == ("" if ok else "error: DIHEDRAL_ENUM_CAP must be at most 4000000, got "
                       "4000001: a walked element takes about 1 KB of memory\n")


class TestClosedPipe:
    """A reader that closes early stops the command mid-document: exit 1,
    with no traceback or "Exception ignored" on stderr."""

    def _close_after_ten_bytes(self, *argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(dihedral.__file__)))
        with subprocess.Popen([sys.executable, "-m", "dihedral", *argv],
                              env=dict(os.environ, PYTHONPATH=src),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                assert len(proc.stdout.read(10)) == 10
                proc.stdout.close()
                err = proc.communicate(timeout=60)[1]
            finally:
                proc.kill()
        assert proc.returncode == 1
        assert err == b""

    def test_analyze(self):
        # 9_37#9_37: 1.48 MB of JSON, far more than a pipe holds
        nine = dihedral.parse_matrix(NINE_37)
        summed = dihedral.render_matrix(dihedral.connected_sum(nine, nine))
        self._close_after_ten_bytes("analyze", "--matrix", summed)

    def test_scan(self, tmp_path, corpus, corpus_reports):
        # the 15 corpus knots with the longest reports, far more than a pipe holds
        longest = sorted(range(len(corpus)), key=lambda i: -len(corpus_reports[i].to_json()))
        p = tmp_path / "census.csv"
        p.write_text("name,seifert\n" + "".join(
            f'k{i},"{dihedral.render_matrix(corpus[i])}"\n' for i in longest[:15]))
        self._close_after_ten_bytes("scan", str(p))


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert out.splitlines()[-1] == "15 checks, 15 passed, 0 failed"


class TestStartup:
    # needed by no command: the version is a constant, scan runs its rows
    # one after another, records are plain slotted classes, and only the
    # selftest command loads the self-tests
    NOT_LOADED = ("importlib.metadata", "concurrent.futures", "email", "zipfile", "logging",
                  "dataclasses", "inspect", "dihedral.selftest", "fractions", "decimal",
                  "numbers", "json")
    # fractions and its imports, which only xi needs
    FRACTIONS = ("fractions", "decimal", "numbers")
    # json and its decoder, which only what reads JSON text needs: the
    # writer takes its one function from the C accelerator
    JSON = ("json", "json.decoder", "json.scanner")

    def test_cli_import_loads_only_what_every_command_needs(self):
        # measured against the modules the interpreter had before the import,
        # since a site hook may load some of these on its own
        src = os.path.dirname(os.path.dirname(os.path.abspath(dihedral.__file__)))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
                "import dihedral.cli; print(*sorted(set(sys.modules) - before))")
        out = subprocess.run([sys.executable, "-I", "-c", code, src], check=True,
                             capture_output=True, text=True, timeout=60)
        loaded = out.stdout.split()
        assert "dihedral.cli" in loaded
        assert [m for m in loaded
                if any(m == p or m.startswith(p + ".") for p in self.NOT_LOADED)] == []

    def test_only_xi_loads_fractions(self, tmp_path):
        # one interpreter runs the commands in turn: those on knots outside the
        # twist family first, then the two that print xi
        five_one = "{{-1,1,0,0},{0,-1,1,0},{0,0,-1,1},{0,0,0,-1}}"
        census = tmp_path / "knots.csv"
        census.write_text(f'name,seifert\n9_37,"{NINE_37}"\n5_1,"{five_one}"\n', encoding="utf-8")
        runs = [["analyze", "--matrix", NINE_37],
                ["analyze", "--matrix", NINE_37.replace("{", "[").replace("}", "]")],
                ["scan", str(census)], ["charknots", "--matrix", NINE_37, "--n", "3"],
                ["analyze", "--matrix", SIX_ONE], ["twist", "--m-range=-60:60"]]
        code = ("import contextlib, io, json, sys; sys.path.insert(0, sys.argv[1]); "
                "before = set(sys.modules); from dihedral.cli import main\n"
                "for argv in json.loads(sys.argv[2]):\n"
                "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
                "        assert main(argv) == 0, argv\n"
                "    print(json.dumps([sorted(set(sys.modules) - before), out.getvalue()]))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(dihedral.__file__)))
        proc = subprocess.run([sys.executable, "-I", "-c", code, src, json.dumps(runs)],
                              check=True, capture_output=True, text=True, timeout=120)
        (*plain, (member_loaded, member), (_, sweep)) = [
            json.loads(line) for line in proc.stdout.splitlines()]
        assert len(plain) == 4
        for loaded, _ in plain:
            assert [m for m in loaded if m in self.FRACTIONS] == []
        assert set(self.FRACTIONS) <= set(member_loaded)
        assert json.loads(member)["xi"]["candidates"] == [{"den": "1", "num": "-1"},
                                                          {"den": "1", "num": "1"}]
        rows = json.loads(sweep)["rows"]
        assert len(rows) == 121 and sum(r["xi_candidates"] is not None for r in rows) == 40

    def test_only_json_text_loads_json(self, tmp_path):
        # one interpreter runs the commands in turn, printing what each loaded;
        # runs are passed one per argument, their words split at line feeds
        census = tmp_path / "knots.csv"
        census.write_text(f'name,seifert\n9_37,"{NINE_37}"\n', encoding="utf-8")
        runs = [["analyze", "--matrix", NINE_37], ["scan", str(census)],
                ["analyze", "--matrix", NINE_37.replace("{", "[").replace("}", "]")]]
        code = ("import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); "
                "before = set(sys.modules); from dihedral.cli import main\n"
                "print(*sorted(set(sys.modules) - before))\n"
                "for argv in sys.argv[2:]:\n"
                "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
                "        assert main(argv.split('\\n')) == 0, argv\n"
                "    assert out.getvalue()[:1] in '[{', argv\n"
                "    print(*sorted(set(sys.modules) - before))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(dihedral.__file__)))
        proc = subprocess.run([sys.executable, "-I", "-c", code, src,
                               *["\n".join(argv) for argv in runs]],
                              check=True, capture_output=True, text=True, timeout=60)
        *plain, parsed = [line.split() for line in proc.stdout.splitlines()]
        assert len(plain) == 3 and "dihedral.cli" in plain[0]
        for loaded in plain:
            assert [m for m in loaded if m in self.JSON] == []
        assert set(self.JSON) <= set(parsed)

    def test_no_module_imports_dataclasses(self):
        src = os.path.dirname(os.path.abspath(dihedral.__file__))
        imported = set()
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), name)
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        imported.update((name, a.name.split(".")[0]) for a in node.names)
                    elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                        imported.add((name, node.module.split(".")[0]))
        assert ("cli.py", "argparse") in imported  # the scan sees imports
        assert [f for f, m in imported if m == "dataclasses"] == []

    def test_no_module_leaves_an_import_unused(self):
        # no linter runs in CI, so deletions can leave imports behind
        src = os.path.dirname(os.path.abspath(dihedral.__file__))
        unused, seen = [], 0
        for name in sorted(os.listdir(src)):
            if not name.endswith(".py") or name == "__init__.py":
                continue
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                text = fh.read()
            lines, tree = text.splitlines(), ast.parse(text, name)
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for a in node.names:
                        bound = a.asname or a.name.split(".")[0]
                        seen += 1
                        if bound not in read and "# noqa: F401" not in lines[a.lineno - 1]:
                            unused.append(f"{name}:{a.lineno} {bound}")
        assert seen > 50  # the scan sees imports
        assert unused == []


class TestParserShape:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_entry_point(self):
        import subprocess
        import sys

        for module in ("dihedral", "dihedral.cli"):
            proc = subprocess.run(
                [sys.executable, "-m", module, "analyze", "--matrix", TREFOIL],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0
            assert json.loads(proc.stdout)["determinant"] == "3"

    def test_one_parser_per_process(self, tmp_path, monkeypatch):
        # two calls of main build the top level and its five subcommands
        # once, and parse both with that one parser
        from dihedral.cli import build_parser

        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        build_parser.cache_clear()
        p = tmp_path / "census.csv"
        p.write_text(f'name,seifert\ntrefoil,"{TREFOIL}"\n')
        assert main(["analyze", "--matrix", TREFOIL]) == 0
        assert main(["scan", str(p)]) == 0
        assert build_parser() is build_parser()
        assert built == ["dihedral"] + [f"dihedral {c}" for c in
                                        ("analyze", "scan", "twist", "charknots", "selftest")]


class TestHelpText:
    """main prints the help and usage text of the parser of every
    subcommand, the one parser it builds per process."""

    ARGV = [["--help"], ["analyze", "--help"], ["scan", "--help"], ["twist", "--help"],
            ["charknots", "--help"], ["selftest", "--help"], ["-h", "analyze"], [], ["bogus"],
            ["analyze"], ["twist", "--m-range"], ["scan", "x.csv", "--bogus"]]

    @staticmethod
    def outcome(run, argv, capsys):
        try:
            code = run(argv)
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr()
        return code, out.out, out.err

    @pytest.mark.parametrize("argv", ARGV, ids=" ".join)
    def test_same_as_the_full_parser(self, argv, capsys, monkeypatch):
        from dihedral.cli import _normalize_argv, build_parser

        monkeypatch.setenv("COLUMNS", "80")
        full = self.outcome(lambda a: build_parser().parse_args(_normalize_argv(a)), argv, capsys)
        assert full[0] in (0, 2) and (full[1] or full[2])
        assert self.outcome(main, argv, capsys) == full
