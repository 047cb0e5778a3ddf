"""Reports, parsing, census scanning, the twist-family sweep."""

import functools
import hashlib
import json
import sys

import pytest

import dihedral
from dihedral import report
from dihedral import (
    RIBBON_OBSTRUCTED,
    DivisorSearchError,
    KnotRecord,
    LinkingForm,
    MatrixParseError,
    Report,
    RowError,
    SeifertMatrix,
    SeifertMatrixError,
    analyze,
    characteristic_knot_classes,
    connected_sum,
    double_cover_homology,
    knot_determinant,
    linking_form,
    parse_matrix,
    quotient_classes,
    render_matrix,
    render_report_text,
    render_twist_text,
    scan,
    stabilize_zero_framed,
    surjective_characters,
    twist_family,
    twist_knot,
)
from dihedral.exact import IntMatrix
from dihedral.report import CharEntry, ClassEntry, StabSummary

NINE_37_TEXT = "{{1,0,0,0},{0,1,0,0},{1,0,-2,1},{-1,-1,0,-1}}"


class TestParseMatrix:
    def test_brace_form(self):
        assert parse_matrix("{{-1,1},{0,2}}") == twist_knot(2)

    def test_json_form(self):
        assert parse_matrix("[[-1,1],[0,2]]") == twist_knot(2)

    def test_whitespace_grid(self):
        assert parse_matrix("-1 1\n0 2") == twist_knot(2)
        assert parse_matrix("-1 1\r\n0 2\r\n") == twist_knot(2)

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

    def test_plus_sign_reports_position(self):
        with pytest.raises(MatrixParseError, match=r"unexpected character '\+' at position 5"):
            parse_matrix("{{-1,+1},{0,+2}}")

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

    @pytest.mark.parametrize("text, error, message", [
        (b"{{0,1},{0,0}}", MatrixParseError, "matrix text must be a string, got bytes"),
        ("{{0,1}{0,0}}", MatrixParseError, "malformed matrix at position"),
        ("{{0,1},{0,0}{", MatrixParseError, "malformed matrix at position 12"),
        ("[[0, 1], 2]", MatrixParseError, "expected a list of rows"),
        ("[[[0], 1], [0, 0]]", MatrixParseError,
         r"row 0, column 0: nested deeper than a list of rows"),
        ("1 " + "x" * 24, MatrixParseError, "entry 2: not an integer: 'x{24}'$"),
        ("1 " + "x" * 25, MatrixParseError,
         r"entry 2: not an integer: 'x{24}'\.\.\. \(25 characters\)"),
    ], ids=["bytes", "rows-without-comma", "no-last-brace", "row-not-a-list", "nested", "token-24",
            "token-25"])
    def test_malformed_text(self, text, error, message):
        with pytest.raises(error, match=message):
            parse_matrix(text)

    def test_grid_skips_blank_lines(self):
        assert parse_matrix("-1 1\n\n  \n0 2\n") == twist_knot(2)

    def test_render_takes_a_seifert_matrix(self):
        with pytest.raises(TypeError, match="render_matrix expects a SeifertMatrix"):
            render_matrix(twist_knot(2).matrix)

    @pytest.mark.parametrize("digit", ["\u0663", "\uff12", "1_0"])
    def test_grid_refuses_non_ascii_digits(self, digit):
        # ARABIC-INDIC DIGIT THREE, FULLWIDTH DIGIT TWO and a digit group
        # separator: int() reads all three, the brace and JSON forms refuse them
        with pytest.raises(MatrixParseError, match=f"line 2, entry 2: not an integer: '{digit}'"):
            parse_matrix(f"-1 1\n0 {digit}")
        with pytest.raises(MatrixParseError, match="unexpected character"):
            parse_matrix(f"{{{{-1,1}},{{0,{digit}}}}}")
        with pytest.raises(MatrixParseError):
            parse_matrix(f"[[-1,1],[0,{digit}]]")
        assert parse_matrix("-1 1\n0 2") == twist_knot(2)

    def test_checked_rows_are_not_checked_again(self, corpus, monkeypatch):
        # every form is checked entry by entry once, in the parser
        texts = []
        for v in corpus:
            rows = v.matrix.to_lists()
            grid = "\n".join(" ".join(map(str, r)) for r in rows)
            texts.append((SeifertMatrix(IntMatrix(rows)),
                          (render_matrix(v), json.dumps(rows), grid)))

        def refuse(self, rows):
            raise AssertionError("IntMatrix(rows) checked parsed rows again")

        monkeypatch.setattr(IntMatrix, "__init__", refuse)
        for want, forms in texts:
            for text in forms:
                assert parse_matrix(text) == want

    @pytest.mark.parametrize("sep", ["\u2028", "\x85", "\x1c", "\x0b"])
    def test_grid_rows_end_only_at_line_feed(self, sep):
        # str.splitlines() would break here; str.split() reads it as a space
        with pytest.raises(SeifertMatrixError, match="square"):
            parse_matrix(f"-1 1{sep}0 2")


def public_classes(form, n):
    """The ClassEntry records of an n-block, from quotient_classes."""
    return tuple(ClassEntry(qc.representative.c, tuple(ch.c for ch in qc.members),
                            qc.verdict.self_linking, qc.extends, qc.verdict.surjective,
                            qc.verdict.scope_note)
                 for qc in quotient_classes(surjective_characters(form.group, form, n), n))


def public_char_classes(v, n):
    """The CharEntry records of an n-block, from characteristic_knot_classes,
    the form value mod n^2 and stabilize_zero_framed."""
    entries = []
    for ck in characteristic_knot_classes(v, n):
        passes = ck.form_value_mod_n2() == 0
        if passes:
            out = stabilize_zero_framed(v, ck.beta, n)
            status = "stabilized" if out.blocks_added else "already-zero-framed"
            stab = StabSummary(status, out.matrix.size, out.squares, out.flipped_sign, out.cls)
        else:
            stab = StabSummary("not-zero-framable", v.size, (), False, ())
        entries.append(CharEntry(ck.beta, ck.form_value_mod_n2(), passes, stab))
    return tuple(entries)


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

    @pytest.mark.parametrize("name, matrix, error, message", [
        ("", twist_knot(2), ValueError, "knot record needs a nonempty name"),
        (3, twist_knot(2), ValueError, "knot record needs a nonempty name"),
        ("k", twist_knot(2).matrix, TypeError, "knot record needs a SeifertMatrix"),
    ], ids=["empty-name", "name-not-str", "not-a-SeifertMatrix"])
    def test_knot_record_checks(self, name, matrix, error, message):
        with pytest.raises(error, match=message):
            KnotRecord(name, matrix)

    def test_takes_a_record_or_a_seifert_matrix(self):
        with pytest.raises(TypeError, match="analyze expects a KnotRecord or a SeifertMatrix"):
            analyze(twist_knot(2).matrix)

    def test_divisor_search_bound(self):
        # determinant 4 * 10^15 + 1: trial division to 10^7 + 1 is refused
        with pytest.raises(DivisorSearchError, match="up to 10000001, past the bound of 10000000"):
            analyze(twist_knot(10**15), n_max=10**7 + 1)

    def test_ribbon_verdict_at_rank_zero(self):
        # xi_3 of 5 twists is 5/3 or 11/3, both above the rank-0 bound 1
        # but not both above the rank-1 bound 2
        xi = analyze(twist_knot(5)).xi
        assert xi.rank_h1_cover == 0 and sorted(map(str, xi.candidates)) == ["11/3", "5/3"]
        assert xi.ribbon == RIBBON_OBSTRUCTED

    def test_text_layout_names_source_and_skipped_n(self):
        r = analyze(KnotRecord("trefoil", twist_knot(-1), "census.csv"), [3, 5])
        lines = render_report_text(r).splitlines()
        assert "source: census.csv" in lines
        assert "skipped n (not dividing the determinant): 5" in lines
        assert not any(ln.startswith(("source:", "skipped")) for ln in
                       render_report_text(analyze(twist_knot(-1), [3])).splitlines())

    def test_explicit_even_n_rejected(self):
        from dihedral.errors import EvenModulusError

        with pytest.raises(EvenModulusError):
            analyze(twist_knot(-1), [2])

    def test_n_max_must_be_an_integer(self, tmp_path):
        with pytest.raises(TypeError, match="n_max is not an integer: 3.0"):
            analyze(twist_knot(-1), n_max=3.0)
        # scan refuses before it opens the file
        with pytest.raises(TypeError, match="n_max is not an integer: True"):
            next(scan(tmp_path / "missing.csv", n_max=True))

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

    def test_cap_counts_n_torsion_on_both_routes(self):
        # genus 6, |H| = 1103855445 but |H[3]| = 729: both routes run under
        # the default cap, and _analyze_n cross-checks them
        v = functools.reduce(connected_sum, map(twist_knot, (2, 5, 8, 11, 14, 17)))
        r = analyze(v, [3])
        assert r.determinant == 1103855445
        b, = r.blocks
        assert (b.characters_enumerated, b.char_classes_enumerated) == (True, True)
        assert (b.quotient_class_count, b.extendable_class_count) == (364, 148)
        assert len(b.char_classes) == 728

    def test_stabilization_summary_matches_construction(self, corpus, corpus_reports):
        # the summary is read off the stored form value; stabilize_zero_framed
        # builds the stabilized matrix and checks the class on it
        nine = parse_matrix(NINE_37_TEXT)
        nine_sum = connected_sum(nine, nine)
        cases = list(zip(corpus, corpus_reports)) + [(nine_sum, analyze(nine_sum))]
        stabilized = 0
        for v, r in cases:
            for b in r.blocks:
                for e in b.char_classes:
                    s = e.stabilization
                    if not e.passes_criterion:
                        assert (s.status, s.new_size, s.squares, s.stabilized_class) == (
                            "not-zero-framable", v.size, (), ())
                        continue
                    out = stabilize_zero_framed(v, e.beta, b.n)
                    assert s.status == ("stabilized" if out.blocks_added
                                        else "already-zero-framed")
                    assert (s.new_size, s.squares, s.flipped_sign, s.stabilized_class) == (
                        out.matrix.size, out.squares, out.flipped_sign, out.cls)
                    stabilized += out.blocks_added > 0
        assert stabilized > 100

    def test_report_route_equals_public_route(self, corpus, corpus_reports):
        # analyze builds each entry straight from the walk; the public
        # functions, each with its own records, must give the same entries
        nine = parse_matrix(NINE_37_TEXT)
        sums = [functools.reduce(connected_sum, map(twist_knot, ms))
                for ms in ((2, 5, 8, -1), (2, 5, 8, 11, 14, 17))]
        cases = (list(zip(corpus, corpus_reports))
                 + [(connected_sum(nine, nine), analyze(connected_sum(nine, nine)))]
                 + [(v, analyze(v, [3])) for v in sums])
        blocks = 0
        for v, r in cases:
            form = linking_form(double_cover_homology(v))
            for b in r.blocks:
                assert b.classes == public_classes(form, b.n)
                assert b.char_classes == public_char_classes(v, b.n)
                blocks += 1
        assert blocks > 200

    def test_nine37_sum_report_bytes_pinned(self):
        # sha256 of the 9_37#9_37 auto-mode report without its version key:
        # a reference that work on speed must reproduce byte for byte
        nine = parse_matrix(NINE_37_TEXT)
        doc = analyze(KnotRecord("9_37#9_37", connected_sum(nine, nine))).to_dict()
        del doc["version"]
        got = hashlib.sha256(json.dumps(doc, indent=2, sort_keys=True).encode()).hexdigest()
        assert got == "9cbcde73a2981bff7377ca936958ba9087e0e3e7a97f01b77c27df64f6db5f33"

    def test_twist_sum_report_bytes_pinned(self):
        # sha256 of the n = 3 report on the genus-6 twist sum (364 quotient
        # classes, 728 characteristic classes) without its version key
        v = functools.reduce(connected_sum, map(twist_knot, (2, 5, 8, 11, 14, 17)))
        doc = analyze(KnotRecord("2#5#8#11#14#17", v), [3]).to_dict()
        del doc["version"]
        got = hashlib.sha256(json.dumps(doc, indent=2, sort_keys=True).encode()).hexdigest()
        assert got == "a1eed8d8a10972e1e3f4743af16df1b69e872ff1d36b406a6ca2246100858cca"

    def test_one_pairing_per_quotient_class(self, monkeypatch):
        # the walk checks image orders without the pairing, and each class
        # pairs its representative once, for the verdict the report reads;
        # the independent map, run once per nonempty block, pairs c with
        # each of the rank generators (the per-class check already paired
        # that c with itself)
        calls = []
        real = LinkingForm.pair

        def counted(self, x, y):
            calls.append(None)
            return real(self, x, y)

        monkeypatch.setattr(LinkingForm, "pair", counted)
        nine = parse_matrix(NINE_37_TEXT)
        r = analyze(KnotRecord("9_37#9_37", connected_sum(nine, nine)))
        classes = sum(b.quotient_class_count for b in r.blocks)
        assert classes == 286
        blocks = sum(1 for b in r.blocks if b.classes)
        assert (blocks, len(r.invariant_factors)) == (3, 4)
        assert len(calls) == classes + blocks * 4

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

    def test_blank_rows_skipped(self, tmp_path):
        path = self._write(tmp_path, 'name,seifert\n\n , \ntrefoil,"{{-1,1},{0,-1}}"\n')
        assert [r.name for r in scan(path)] == ["trefoil"]

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

    def test_missing_file(self):
        with pytest.raises(OSError):
            list(scan("/nonexistent/census.csv"))

    def test_no_jobs_parameter(self, tmp_path):
        path = self._write(tmp_path, 'name,seifert\ntrefoil,"{{-1,1},{0,-1}}"\n')
        with pytest.raises(TypeError, match="jobs"):
            scan(path, jobs=2)

    def test_quoted_grid_keeps_its_line_feeds(self, tmp_path):
        path = self._write(tmp_path, 'name,seifert\nt,"-1 1\n0 -1"\nu,"{{-1,1},\n{0,2}}"\n')
        assert [(r.name, r.determinant) for r in scan(path)] == [("t", 3), ("u", 9)]

    def test_row_not_utf8_isolated(self, tmp_path):
        p = tmp_path / "census.csv"
        p.write_bytes(b'name,seifert\na,"{{-1,1},{0,-1}}"\nb\xff,"{{-1,1},{0,2}}"\n'
                      b'c,"{{-1,\xc3}},{0,2}}"\nd,"{{-1,1},{0,2}}"\n')
        rows = list(scan(str(p)))
        assert [(type(r).__name__, r.name) for r in rows] == [
            ("Report", "a"), ("RowError", "row 3"), ("RowError", "c"), ("Report", "d")]
        assert rows[1].error == "name is not valid UTF-8 at character 1"
        assert rows[2].error == "seifert field is not valid UTF-8 at character 5"

    def test_jsonl_not_utf8_isolated(self, tmp_path):
        p = tmp_path / "census.jsonl"
        p.write_bytes(b'{"name": "a", "seifert": [[-1,1],[0,-1]]}\n'
                      b'{"name": "b\xff", "seifert": [[-1,1],[0,2]]}\n'
                      b'{"name": "c", "seifert": [[-1,1],[0,2]]}\n')
        rows = list(scan(str(p)))
        assert [(type(r).__name__, r.name) for r in rows] == [
            ("Report", "a"), ("RowError", "row 2"), ("Report", "c")]
        assert rows[1].error == "census line is not valid UTF-8 at character 11"

    def test_field_above_csv_limit_isolated(self, tmp_path):
        deep = "{" * 70_000 + "}" * 70_000
        path = self._write(tmp_path, f'name,seifert\na,"{{{{-1,1}},{{0,-1}}}}"\nbad,"{deep}"\n'
                                     'b,"{{-1,1},{0,2}}"\n')
        rows = list(scan(path))
        assert [(type(r).__name__, r.name) for r in rows] == [
            ("Report", "a"), ("RowError", "row 3"), ("Report", "b")]
        assert rows[1].error.startswith("malformed CSV: field larger than field limit")

    def test_csv_with_byte_order_mark(self, tmp_path):
        p = tmp_path / "census.csv"
        p.write_text('name,seifert\nt,"{{-1,1},{0,-1}}"\n', encoding="utf-8-sig")
        assert p.read_bytes().startswith(b"\xef\xbb\xbf")
        assert [r.name for r in scan(str(p))] == ["t"]

    def test_jsonl_with_byte_order_mark(self, tmp_path):
        p = tmp_path / "census.jsonl"
        p.write_text('{"name": "t", "seifert": [[-1,1],[0,-1]]}\n', encoding="utf-8-sig")
        rows = list(scan(str(p)))
        assert [(type(r).__name__, r.name) for r in rows] == [("Report", "t")]

    def test_header_above_csv_limit_rejected(self, tmp_path):
        path = self._write(tmp_path, f'name,"{"x" * 200_000}"\nt,"{{{{-1,1}},{{0,-1}}}}"\n')
        with pytest.raises(MatrixParseError, match="malformed census header: field larger"):
            list(scan(path))

    def test_bad_csv_header(self, tmp_path):
        path = self._write(tmp_path, "knot,matrix\nx,{{0}}\n")
        with pytest.raises(ValueError):
            list(scan(path))


def test_report_version_is_the_package_version():
    assert Report("k", "", 0, 1, (), (), (), None).version == dihedral.__version__
    assert analyze(twist_knot(-1)).version == dihedral.__version__


def _cap_takers(tmp_path):
    """Every entry point that walks, on the trefoil (H[3] has 3 elements)
    or, for analyze, the unknot, which walks nothing."""
    census = tmp_path / "census.csv"
    census.write_text('name,seifert\ntrefoil,"{{-1,1},{0,-1}}"\n')
    form = linking_form(double_cover_homology(twist_knot(-1)))
    return {
        "analyze": lambda cap: analyze(twist_knot(0), enum_cap=cap),
        "scan": lambda cap: list(scan(str(census), enum_cap=cap)),
        "twist_family": lambda cap: twist_family(-1, -1, enum_cap=cap),
        "surjective_characters": lambda cap: surjective_characters(form.group, form, 3,
                                                                   enum_cap=cap),
        "characteristic_knot_classes": lambda cap: characteristic_knot_classes(
            twist_knot(-1), 3, enum_cap=cap),
    }


CAP_TAKERS = ("analyze", "characteristic_knot_classes", "scan", "surjective_characters",
              "twist_family")


@pytest.mark.parametrize("taker", CAP_TAKERS)
class TestEnumCapValidated:
    @pytest.mark.parametrize("cap", [None, 3, 4_000_000])
    def test_accepted(self, tmp_path, taker, cap):
        _cap_takers(tmp_path)[taker](cap)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_below_one(self, tmp_path, taker, cap):
        with pytest.raises(ValueError, match=f"enumeration cap must be >= 1, got {cap}"):
            _cap_takers(tmp_path)[taker](cap)

    @pytest.mark.parametrize("cap", [4_000_001, 10**12])
    def test_above_the_ceiling(self, tmp_path, taker, cap):
        with pytest.raises(ValueError, match=f"enumeration cap must be at most 4000000, got {cap}"):
            _cap_takers(tmp_path)[taker](cap)

    @pytest.mark.parametrize("cap", [True, 2.5, "3"], ids=["bool", "float", "str"])
    def test_not_int(self, tmp_path, taker, cap):
        with pytest.raises(TypeError, match="enumeration cap is not an integer"):
            _cap_takers(tmp_path)[taker](cap)


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

    def test_oversized_determinant_rejected(self):
        # m = 10^L - 1 has L digits, and its determinant 4m + 1 has L + 1
        m = 10 ** sys.get_int_max_str_digits() - 1
        with pytest.raises(ValueError, match="knot determinant has"):
            twist_family(m, m)

    def test_bool_endpoints_rejected(self):
        with pytest.raises(TypeError, match="twist range start is not an integer: True"):
            twist_family(True, 2)
        with pytest.raises(TypeError, match="twist range end is not an integer: False"):
            twist_family(-1, False)


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
