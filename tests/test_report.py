"""Reports, parsing, census scanning, the twist-family sweep."""

import json

import pytest

from dihedral import (
    KnotRecord,
    MatrixParseError,
    Report,
    RowError,
    SeifertMatrix,
    SeifertMatrixError,
    analyze,
    knot_determinant,
    parse_matrix,
    render_matrix,
    render_report_text,
    render_twist_text,
    scan,
    twist_family,
    twist_knot,
)

NINE_37_TEXT = "{{1,0,0,0},{0,1,0,0},{1,0,-2,1},{-1,-1,0,-1}}"


class TestParseMatrix:
    def test_brace_form(self):
        assert parse_matrix("{{-1,1},{0,2}}") == twist_knot(2)

    def test_json_form(self):
        assert parse_matrix("[[-1,1],[0,2]]") == twist_knot(2)

    def test_whitespace_grid(self):
        assert parse_matrix("-1 1\n0 2") == twist_knot(2)

    def test_empty_brace_matrix(self):
        assert parse_matrix("{}").size == 0

    def test_whitespace_tolerant(self):
        assert parse_matrix(" { { -1 , 1 } , { 0 , 2 } } ") == twist_knot(2)

    def test_round_trip_corpus(self, corpus):
        for v in corpus:
            assert parse_matrix(render_matrix(v)) == v

    def test_unbalanced_reports_position(self):
        with pytest.raises(MatrixParseError, match="position"):
            parse_matrix("{{1,2},{3,4}")

    def test_bad_character_reports_position(self):
        with pytest.raises(MatrixParseError, match="position 4"):
            parse_matrix("{{1,a},{3,4}}")

    def test_non_square_distinct_error(self):
        with pytest.raises(SeifertMatrixError, match="square"):
            parse_matrix("{{1,2,3},{4,5,6}}")

    def test_odd_dimension_distinct_error(self):
        with pytest.raises(SeifertMatrixError, match="even"):
            parse_matrix("{{1}}")

    def test_skew_part_distinct_error(self):
        with pytest.raises(SeifertMatrixError, match="det"):
            parse_matrix("{{1,1},{1,1}}")

    def test_float_rejected_with_location(self):
        with pytest.raises(MatrixParseError, match="row 1, column 0"):
            parse_matrix("[[1,0],[0.5,1]]")

    def test_ragged_grid_rejected(self):
        with pytest.raises(MatrixParseError, match="row 1"):
            parse_matrix("1 2\n3")

    def test_empty_text(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("")


class TestAnalyze:
    def test_blocks_are_odd_divisors(self, corpus):
        for v in corpus[:15]:
            r = analyze(v)
            d = knot_determinant(v)
            want = [n for n in range(3, 100, 2) if d % n == 0]
            assert [b.n for b in r.blocks] == want

    def test_unknot_empty(self):
        r = analyze(SeifertMatrix([]))
        assert r.blocks == ()
        assert r.determinant == 1

    def test_counts_invariant(self, corpus):
        for v in corpus[:15]:
            for b in analyze(v).blocks:
                assert b.extendable_class_count <= b.quotient_class_count

    def test_trefoil_block(self):
        r = analyze(KnotRecord("trefoil", twist_knot(-1)))
        assert len(r.blocks) == 1
        b = r.blocks[0]
        assert b.n == 3
        assert b.quotient_class_count == 1
        assert b.extendable_class_count == 0

    def test_explicit_n_skips_non_divisors(self):
        r = analyze(twist_knot(-1), [3, 5])
        assert [b.n for b in r.blocks] == [3]
        assert r.skipped_n == (5,)

    def test_explicit_even_n_rejected(self):
        from dihedral.errors import EvenModulusError

        with pytest.raises(EvenModulusError):
            analyze(twist_knot(-1), [2])

    def test_n_max_bounds_auto_selection(self):
        v = twist_knot(2)  # determinant 9
        r = analyze(v, n_max=3)
        assert [b.n for b in r.blocks] == [3]

    def test_xi_only_on_twist_template(self):
        assert analyze(parse_matrix(NINE_37_TEXT)).xi is None
        assert analyze(twist_knot(2)).xi is not None
        assert analyze(twist_knot(0)).xi is None

    def test_enum_cap_becomes_note(self):
        r = analyze(twist_knot(2), enum_cap=2)
        b = r.blocks[0]
        assert not b.characters_enumerated
        assert "not enumerated" in b.character_note
        assert not b.char_classes_enumerated
        assert "not enumerated" in b.char_class_note

    def test_deterministic_json(self):
        a = analyze(KnotRecord("9_37", parse_matrix(NINE_37_TEXT))).to_json()
        b = analyze(KnotRecord("9_37", parse_matrix(NINE_37_TEXT))).to_json()
        assert a == b

    def test_schema_and_rational_encoding(self):
        doc = json.loads(analyze(KnotRecord("t", twist_knot(-1))).to_json())
        assert doc["schema"] == "dihedral-report/1"
        assert doc["determinant"] == "3"
        assert doc["invariant_factors"] == ["3"]
        block = doc["quotients"][0]
        lk = block["classes"][0]["self_linking"]
        assert lk == {"num": "1", "den": "3"}
        assert isinstance(block["n"], int)

    def test_no_floats_anywhere(self, corpus):
        def walk(x):
            assert not isinstance(x, float)
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)

        for v in corpus[:5]:
            walk(json.loads(analyze(v).to_json()))
        walk(json.loads(analyze(twist_knot(2)).to_json()))


class TestScan:
    def _write(self, tmp_path, text, name="census.csv"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    def test_csv_two_rows(self, tmp_path):
        path = self._write(
            tmp_path,
            'name,seifert\ntrefoil,"{{-1,1},{0,-1}}"\n6_1,"{{-1,1},{0,2}}"\n',
        )
        reports = list(scan(path))
        assert [r.name for r in reports] == ["trefoil", "6_1"]
        counts = [r.blocks[0].extendable_class_count for r in reports]
        assert counts == [0, 1]

    def test_jsonl(self, tmp_path):
        path = self._write(
            tmp_path,
            '{"name": "trefoil", "seifert": [[-1,1],[0,-1]]}\n'
            '{"name": "6_1", "seifert": [[-1,1],[0,2]]}\n',
            name="census.jsonl",
        )
        reports = list(scan(path))
        assert [r.name for r in reports] == ["trefoil", "6_1"]

    def test_bad_row_isolated(self, tmp_path):
        path = self._write(
            tmp_path,
            'name,seifert\nok,"{{-1,1},{0,2}}"\nbad,"{{1,1},{1,1}}"\nalso_ok,"{{-1,1},{0,-1}}"\n',
        )
        out = list(scan(path))
        assert isinstance(out[0], Report)
        assert isinstance(out[1], RowError)
        assert isinstance(out[2], Report)
        assert out[1].name == "bad"

    def test_empty_file(self, tmp_path):
        assert list(scan(self._write(tmp_path, ""))) == []

    def test_jobs_preserve_order(self, tmp_path):
        rows = ["name,seifert"]
        for m in range(-6, 7):
            rows.append(f'm{m},"{render_matrix(twist_knot(m))}"')
        path = self._write(tmp_path, "\n".join(rows) + "\n")
        seq = [r.to_json() for r in scan(path, jobs=1)]
        par = [r.to_json() for r in scan(path, jobs=4)]
        assert seq == par

    def test_missing_file(self):
        with pytest.raises(OSError):
            list(scan("/nonexistent/census.csv"))

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, tmp_path, jobs):
        path = self._write(tmp_path, 'name,seifert\ntrefoil,"{{-1,1},{0,-1}}"\n')
        with pytest.raises(ValueError, match="jobs"):
            list(scan(path, jobs=jobs))

    def test_bad_csv_header(self, tmp_path):
        path = self._write(tmp_path, "knot,matrix\nx,{{0}}\n")
        with pytest.raises(ValueError):
            list(scan(path))


class TestTwistFamily:
    def test_small_range(self):
        rows = twist_family(-1, 2)
        by_m = {r.m: r for r in rows}
        assert by_m[-1].quotient_exists and by_m[-1].extends is False
        assert by_m[0].quotient_exists is False
        assert by_m[0].determinant == 1
        assert by_m[1].quotient_exists is False
        assert by_m[2].extends is True
        assert by_m[2].ribbon == "consistent-with-ribbon"

    def test_m_eleven(self):
        row = twist_family(11, 11)[0]
        assert row.extends is True
        assert row.ribbon == "not-ribbon"
        assert sorted(row.xi_candidates) == [7, 9]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            twist_family(3, 2)


class TestTextRendering:
    def test_report_text_mentions_counts(self):
        text = render_report_text(analyze(KnotRecord("trefoil", twist_knot(-1))))
        assert "knot: trefoil" in text
        assert "n = 3" in text
        assert "0 extendable" in text
        assert "determinant: 3" in text

    def test_twist_text_table(self):
        text = render_twist_text(twist_family(-1, 2))
        lines = text.splitlines()
        assert lines[0].startswith("m ")
        assert len(lines) == 5
