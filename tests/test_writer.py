"""The JSON writer: its output must equal json.dumps(indent=2, sort_keys=True)
of what it wrote, byte for byte, on every document the CLI prints."""

import hashlib
import importlib.util
import json
import os
import pathlib
import tracemalloc
from fractions import Fraction

import pytest

import dihedral
from dihedral import (
    KnotRecord,
    RowError,
    analyze,
    connected_sum,
    parse_matrix,
    render_matrix,
    twist_knot,
)
from dihedral.cli import main
from dihedral.exact import ResidueQZ
from dihedral.report import (_NUMBER_KEYS, _PART, _RECORDS, _SHORT, _SLICE, SCHEMA, CharEntry,
                             ClassEntry, NBlock, Report, StabSummary, TwistRow, XiBlock, _Record,
                             _rows, _to_json, _write_json, scan, twist_family)

NINE_37_TEXT = "{{1,0,0,0},{0,1,0,0},{1,0,-2,1},{-1,-1,0,-1}}"


def assert_round_trip(out):
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) == out


def twist_sum(ms):
    v = twist_knot(ms[0])
    for m in ms[1:]:
        v = connected_sum(v, twist_knot(m))
    return v


def shard_csv(corpus):
    """Every fifteenth corpus knot, with one malformed row among them."""
    lines = ["name,seifert"]
    for i in range(0, len(corpus), 15):
        lines.append(f'k{i:03d},"{render_matrix(corpus[i])}"')
        if i == 60:
            lines.append('bad,"{{1,0},{0,1}}"')
    return "\n".join(lines) + "\n"


def cli_stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


class TestPinnedBytes:
    """Stdout pinned before a change to the writer or to a command's code."""

    def test_census_shard(self, tmp_path, capsys, corpus, monkeypatch):
        # a relative path, because each report names its source file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "census.csv").write_text(shard_csv(corpus), encoding="utf-8")
        out = cli_stdout(capsys, ["scan", "census.csv"])
        # the version key is the only other part that can vary between installs
        doc = json.loads(out)
        assert {r.get("version") for r in doc} - {None} == {doc[0]["version"]}
        version = '"version": ' + json.dumps(doc[0]["version"])
        got = hashlib.sha256(out.replace(version, '"version": "V"').encode()).hexdigest()
        assert got == "604492e363735acd2ba5b8e4e94222a0bc4093ce04fa092b931bfc49c7b83148"

    def test_twist_sweep(self, capsys):
        out = cli_stdout(capsys, ["twist", "--m-range=-60:60"])
        got = hashlib.sha256(out.encode()).hexdigest()
        assert got == "07ef656bb35c27b71f9856dacaf104c80e3338633e9a71477f33c26de32b221a"

    @pytest.mark.parametrize("fmt, xi, want", [
        ("json", '"xi": {', "bfbc4f9f0591e209c9f74f09582e4faf17bd67ed1f7c412089404acbed8b9a27"),
        ("text", "xi_3 (twist m = 2)",
         "6db4f7d9a2d1a54f8fc35c446ba72c6284151aebf8107ded58a84d7935c52f68"),
    ])
    def test_twist_member(self, capsys, fmt, xi, want):
        # m = 2 mod 3, so the report carries xi
        out = cli_stdout(capsys, ["analyze", "--matrix", "{{-1,1},{0,2}}", "--format", fmt])
        assert xi in out
        out = out.replace(json.dumps(dihedral.__version__), '"V"')
        assert hashlib.sha256(out.encode()).hexdigest() == want

    @pytest.mark.parametrize("knot, want", [
        ("trefoils", "90f6a24e4acb6d99a6ecb6510f0e591eb3ecbe2289599516b0b6c37a2b3e606f"),
        ("scrambled", "95fee033485fc27d4c504002c54c7c54e955a1e2730311eb493c3cb8242fb133"),
    ])
    def test_walked_blocks(self, capsys, scrambled_genus4, knot, want):
        # analyze --n 3 on the 8-trefoil sum (sparse V + V^T, 6,560
        # characteristic classes, 8.3 MB) and on a scrambled genus-4 twist
        # sum (dense V + V^T): every walked leaf and passing value is written
        v = twist_sum((-1,) * 8) if knot == "trefoils" else scrambled_genus4
        out = cli_stdout(capsys, ["analyze", "--matrix", render_matrix(v), "--n", "3"])
        out = out.replace(json.dumps(dihedral.__version__), '"V"')
        assert hashlib.sha256(out.encode()).hexdigest() == want

    @pytest.mark.parametrize("n, fmt, want", [
        ("3", "json", "fc4db09a2079702dceeece3d2dc47fc12e2e73b00e96ccb12d2bae88df9d49d0"),
        ("5", "json", "a20c6dc733574612d05ed20177162687f6964001c6885a0ec2fe650ec05e9df0"),
        ("3", "text", "59c2dee3b39533c576b4fbd6d8606786ef215d26170a88ee59a9df9e179bbe3a"),
        ("5", "text", "46cba8be42c9672690bf4079f5ad429b8086fdd7e8b561bccbf7520cbfc760fe"),
    ], ids=["3-json", "5-json", "3-text", "5-text"])
    def test_charknots(self, capsys, n, fmt, want):
        out = cli_stdout(capsys, ["charknots", "--matrix", NINE_37_TEXT, "--n", n,
                                  "--format", fmt])
        assert hashlib.sha256(out.encode()).hexdigest() == want


class TestRoundTrip:
    def test_corpus_reports(self, corpus_reports):
        for r in corpus_reports:
            assert_round_trip(r.to_json())

    @pytest.mark.parametrize("ms, ns", [((2, 5, 8, -1), [3]), ((2, 5, 8, 11, 14, 17), [3])])
    def test_large_group_reports(self, ms, ns):
        assert_round_trip(analyze(KnotRecord("sum", twist_sum(ms)), ns).to_json())

    def test_nine37_sum_report(self):
        nine = parse_matrix(NINE_37_TEXT)
        assert_round_trip(analyze(KnotRecord("9_37#9_37", connected_sum(nine, nine))).to_json())

    def test_scan(self, tmp_path, capsys, corpus):
        p = tmp_path / "census.csv"
        p.write_text(shard_csv(corpus), encoding="utf-8")
        assert_round_trip(cli_stdout(capsys, ["scan", str(p)])[:-1])

    def test_empty_census(self, tmp_path, capsys):
        p = tmp_path / "census.csv"
        p.write_text("name,seifert\n", encoding="utf-8")
        out = cli_stdout(capsys, ["scan", str(p)])
        assert out == "[]\n"
        assert_round_trip(out[:-1])

    def test_twist(self, capsys):
        assert_round_trip(cli_stdout(capsys, ["twist", "--m-range=-8:8"])[:-1])

    @pytest.mark.parametrize("argv, classes, note", [
        (["--matrix", NINE_37_TEXT, "--n", "3"], 8, None),
        (["--matrix", "{{-1,1},{0,-1}}", "--n", "5"], 0, None),
        (["--matrix", NINE_37_TEXT, "--n", "3", "--enum-cap", "2"], 0, "not enumerated"),
    ])
    def test_charknots(self, capsys, argv, classes, note):
        out = cli_stdout(capsys, ["charknots"] + argv)[:-1]
        assert_round_trip(out)
        doc = json.loads(out)
        assert len(doc["classes"]) == classes
        assert doc["note"] is None if note is None else note in doc["note"]

    @pytest.mark.parametrize("name", [
        "knot é ∑ 九", 'say "hi"', "back\\slash", "tab\there\nnewline\x1f\x7f",
        "nul\x00byte", "lone \ud800 surrogate", "",
    ])
    def test_row_error_names(self, name):
        e = RowError(name, 7, f"error about {name}")
        assert_round_trip(e.to_json())
        assert e.to_dict() == {"schema": "dihedral-report/1", "name": name, "row": 7,
                               "error": f"error about {name}"}

    def test_row_error_names_through_jsonl(self, tmp_path, capsys):
        names = ["\\u00e9\\\"\\\\", "\\u0000\\u0007", "\\ud800", "\\udfff x"]
        lines = ['{"name": "%s", "seifert": "{{1,0},{0,1}}"}' % n for n in names]
        p = tmp_path / "census.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = cli_stdout(capsys, ["scan", str(p)])[:-1]
        assert out.isascii()
        assert_round_trip(out)
        assert [r["name"] for r in json.loads(out)] == [json.loads(f'"{n}"') for n in names]

    def test_to_dict_matches_to_json(self):
        r = analyze(KnotRecord("9_37", parse_matrix(NINE_37_TEXT)))
        assert json.dumps(r.to_dict(), indent=2, sort_keys=True) == r.to_json()


def decimal_strings(x):
    """x with every int (not bool) as its decimal string, as the writer
    prints integers outside the number keys."""
    if type(x) is int:
        return str(x)
    if isinstance(x, (tuple, list)):
        return [decimal_strings(v) for v in x]
    return x


class TestIntLeaves:
    """Sequences of ints, and tuples of nonempty int tuples, are written in
    one join; the layout must not move, and other items take the general path."""

    @pytest.mark.parametrize("value", [
        (), [], (7,), [0], (0, -3, 12345678901234567890), ((),), ((1, 2), (), (3,)),
        [(-1,), [2, [3, 4]], ()], (1, True), (None, 2), ("a", 3),
        ((1, 2), (3,)), ((), (1,)), ((1, True), (2,)), ((1,), [2]), ((1,), "a"),
    ])
    @pytest.mark.parametrize("key, numeric", [("skipped_n", True), ("beta", False)])
    def test_matches_json_dumps(self, value, key, numeric):
        want = {key: value if numeric else decimal_strings(value)}
        assert _to_json({key: value}) == json.dumps(want, indent=2, sort_keys=True)


class TestStringLeaves:
    """Sequences of strings are written in one join, and only sequences
    whose items are all ints or all strs take a join."""

    @pytest.mark.parametrize("value", [
        ("a", "b"), ("é", "lone \ud800", 'q"'), ("a", None), (("a",), "b"), ("a", 3),
        [True, 1],
    ])
    @pytest.mark.parametrize("key, numeric", [("skipped_n", True), ("scope", False)])
    def test_matches_json_dumps(self, value, key, numeric):
        want = {key: value if numeric else decimal_strings(value)}
        assert _to_json({key: value}) == json.dumps(want, indent=2, sort_keys=True)


class TestMemberLists:
    """A tuple of int tuples, a class's members, is written with one join
    per slice of _PART members; TestIntLeaves has its other item types."""

    @pytest.mark.parametrize("count", [_PART - 1, _PART, _PART + 1, 2 * _PART + 1])
    def test_slice_boundaries(self, count):
        value = tuple((i, -i) for i in range(count))
        want = {"members": decimal_strings(value)}
        assert _to_json({"members": value}) == json.dumps(want, indent=2, sort_keys=True)

    def test_long_member_list_in_parts(self):
        value = tuple((i, i + 1) for i in range(50_000))
        parts = []
        _write_json({"members": value}, parts.append)
        doc = "".join(parts)
        want = {"members": decimal_strings(value)}
        assert doc == json.dumps(want, indent=2, sort_keys=True)
        assert len(parts) > 1
        assert max(map(len, parts)) < len(doc) / 8


def fraction_dict(q):
    return {"num": str(q.numerator), "den": str(q.denominator)}


class TestSharedRecords:
    """A record object held in several fields is written each time as
    json.dumps would write it, whatever its depth, and also when a part
    ends inside it: the record path writes it where it stands."""

    STAB = StabSummary("stabilized", 10, (2, 1, 0, 0), True, (1, 2, 6, 6, 3, 3, 0, 0, 0, 0))

    def entry_dict(self, beta):
        stab = {"status": "stabilized", "new_size": 10, "squares": ["2", "1", "0", "0"],
                "flipped_sign": True,
                "stabilized_class": decimal_strings(self.STAB.stabilized_class)}
        return {"beta": decimal_strings(beta), "form_value_mod_n2": "0",
                "passes_criterion": True, "zero_framed_exists": True, "stabilization": stab}

    def test_at_two_depths_and_in_two_list_items(self):
        entries = [CharEntry(b, 0, True, self.STAB) for b in ((1, 2), (2, 1), (1, 1))]
        doc = {"a": entries[0], "b": [entries[1], entries[2]],
               "c": {"d": {"e": entries[0]}}}
        want = {"a": self.entry_dict((1, 2)),
                "b": [self.entry_dict((2, 1)), self.entry_dict((1, 1))],
                "c": {"d": {"e": self.entry_dict((1, 2))}}}
        assert _to_json(doc) == json.dumps(want, indent=2, sort_keys=True)

    def test_part_ending_inside_a_shared_record(self):
        terms = tuple(Fraction(i, 7) for i in range(2 * _PART))
        xi = XiBlock(3, 2, terms, Fraction(1, 7), 0, (-1, 1), 0, "consistent")
        reports = [Report(name, "", 1, 9, (9,), (), (), xi) for name in ("a", "b")]
        parts = []
        _write_json([reports[0], xi, reports[1]], parts.append)
        assert len(parts) > 2
        xi_dict = {"n": 3, "twist_parameter": "2", "candidates": list(map(fraction_dict, terms)),
                   "linking_term": fraction_dict(Fraction(1, 7)), "signature_sum": 0,
                   "sigma_w_range": [-1, 1], "rank_h1_cover": 0, "ribbon": "consistent"}
        docs = [json.loads(r.to_json()) for r in reports]
        assert [d.pop("xi") for d in docs] == [xi_dict, xi_dict]
        want = [{**docs[0], "xi": xi_dict}, xi_dict, {**docs[1], "xi": xi_dict}]
        assert "".join(parts) == json.dumps(want, indent=2, sort_keys=True)


def plain(x, numeric=False):
    """x as the JSON layout states it, built without the writer: records
    as dicts of their fields (a CharEntry also under zero_framed_exists),
    ints as numbers only under a number key, rationals as num/den strings."""
    if type(x) is int:
        return x if numeric else str(x)
    if isinstance(x, (Fraction, ResidueQZ)):
        return fraction_dict(x)
    if isinstance(x, (tuple, list)):
        return [plain(v, numeric) for v in x]
    if isinstance(x, dict):
        return {k: plain(v, k in _NUMBER_KEYS) for k, v in x.items()}
    if isinstance(x, (CharEntry, ClassEntry, StabSummary, TwistRow)):
        doc = {f: plain(getattr(x, f), f in _NUMBER_KEYS) for f in x._fields}
        if isinstance(x, CharEntry):
            doc["zero_framed_exists"] = x.passes_criterion
        return doc
    return x


def assert_like_json_dumps(x):
    assert _to_json(x) == json.dumps(plain(x), indent=2, sort_keys=True)


FAILS = StabSummary("not-zero-framable", 8, (), False, ())


def char_entries(count):
    """Failing entries share FAILS across slices; every seventh passes with
    a summary of its own, every eleventh is already zero-framed."""
    out = []
    for i in range(count):
        beta = (i % 5, -i, 3 * i, 1)
        if i % 11 == 10:
            out.append(CharEntry(beta, 0, True, StabSummary("already-zero-framed", 8, (), False,
                                                            beta)))
        elif i % 7 == 6:
            squares = (i % 4, 1, 0, 0)
            out.append(CharEntry(beta, 0, True, StabSummary("stabilized", 16, squares, i % 2 == 0,
                                                            beta + (15 * i,) * 8)))
        else:
            out.append(CharEntry(beta, 9 * i + 2 ** 70 * (i % 3), False, FAILS))
    return out


def class_entries(count, members=4):
    return [ClassEntry((i, 1), tuple((i, j) for j in range(members)),
                       ResidueQZ._reduced(i, 15), i % 2 == 0, True,
                       ("orientable-B4",) if i % 2 else ("orientable-B4", "also-nonorientable"))
            for i in range(count)]


def twist_rows(count):
    """A member without an order-3 quotient has None in its last three
    fields, so those columns mix None with values."""
    out = []
    for m in range(count):
        if m % 3 == 2:
            out.append(TwistRow(m, 4 * m + 1, True, m % 2 == 0,
                                (Fraction(-1, 3 * m + 1), Fraction(1, 3)), "consistent"))
        else:
            out.append(TwistRow(m, 4 * m + 1, False, None, None, None))
    return out


class TestRecordBatches:
    """A list of at least _SHORT records of one class in _SLICED is
    written _SLICE records at a time from its class's template; a slice
    holding what only the record path writes goes record by record.
    Either way the text is json.dumps's."""

    SIZES = [_SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE + 1]

    @pytest.mark.parametrize("count", SIZES)
    @pytest.mark.parametrize("make", [char_entries, class_entries, twist_rows])
    def test_slice_boundaries(self, make, count):
        entries = make(count)
        assert_like_json_dumps(entries)
        assert_like_json_dumps(tuple(entries))
        assert_like_json_dumps({"a": {"b": entries}, "n": 3})

    @pytest.mark.parametrize("make", [char_entries, class_entries, twist_rows])
    def test_lists_around_the_shortest_sliced(self, make):
        for count in (1, _SHORT - 1, _SHORT, _SHORT + 1):
            assert_like_json_dumps(make(count))
            assert_like_json_dumps({"a": [make(count)], "n": 3})

    def test_templates_fill_slices(self):
        for entries in (char_entries(_SLICE), class_entries(_SLICE), twist_rows(_SLICE)):
            texts = _rows(entries, "\n  ")
            assert texts is not None and len(texts) == _SLICE
            assert [json.loads(t) for t in texts] == [plain(e) for e in entries]

    @pytest.mark.parametrize("where", [0, _SLICE - 1, _SLICE, 2 * _SLICE - 1])
    def test_none_mixed_into_a_column(self, where):
        # a column mixing None with values is written value by value
        entries = char_entries(2 * _SLICE + 1)
        e = entries[where]
        entries[where] = CharEntry(e.beta, None, e.passes_criterion, e.stabilization)
        assert _rows(entries[where // _SLICE * _SLICE:][:_SLICE], "\n  ") is not None
        assert_like_json_dumps(entries)
        rows = twist_rows(2 * _SLICE + 1)
        rows[where] = TwistRow(where, 1, True, None, (), "consistent")
        assert_like_json_dumps(rows)
        classes = class_entries(2 * _SLICE + 1)
        c = classes[where]
        classes[where] = ClassEntry(c.representative, c.members, None, c.extends, c.surjective,
                                    c.scope)
        assert_like_json_dumps(classes)

    @pytest.mark.parametrize("where", [0, _SLICE - 1, _SLICE])
    def test_record_column_mixed_with_none(self, where):
        # a record among other values goes record by record
        entries = char_entries(2 * _SLICE + 1)
        e = entries[where]
        entries[where] = CharEntry(e.beta, e.form_value_mod_n2, e.passes_criterion, None)
        assert _rows(entries[where // _SLICE * _SLICE:][:_SLICE], "\n  ") is None
        assert_like_json_dumps(entries)

    @pytest.mark.parametrize("where", [1, _SLICE - 1])
    def test_list_mixing_record_classes(self, where):
        # a list a caller builds may mix record classes: the slice path
        # declines it, and each record is written by its own layout
        entries = class_entries(_SLICE)
        entries[where] = char_entries(1)[0]
        assert _rows(entries, "\n  ") is None
        assert_like_json_dumps(entries)

    def test_long_members_of_a_record_in_parts(self):
        # over _PART members, a ClassEntry's members go item by item, in parts
        entry = class_entries(1, members=50_000)[0]
        parts = []
        _write_json(entry, parts.append)
        doc = "".join(parts)
        assert doc == json.dumps(plain(entry), indent=2, sort_keys=True)
        assert max(map(len, parts)) < len(doc) / 8

    def test_none_inside_a_shared_summary(self):
        odd = StabSummary("not-zero-framable", None, (), False, ())
        entries = char_entries(2 * _SLICE + 1)
        entries[_SLICE + 3] = CharEntry((1, 2, 3, 4), 5, False, odd)
        assert_like_json_dumps(entries)

    def test_empty_tuples(self):
        classes = class_entries(_SLICE + 1)
        classes[3] = ClassEntry((), (), ResidueQZ._reduced(0, 1), True, True, ())
        classes[_SLICE] = ClassEntry((), ((1, 2),), ResidueQZ._reduced(2, 3), False, True, ())
        assert_like_json_dumps(classes)
        empty = [ClassEntry((), (), ResidueQZ._reduced(0, 1), True, False, ())] * _SLICE
        assert_like_json_dumps(empty)
        stabs = [StabSummary("already-zero-framed", 2, (), False, ())] * (_SLICE + 2)
        assert_like_json_dumps(stabs)
        assert_like_json_dumps([CharEntry((), 0, True, s) for s in stabs])

    def test_one_summary_shared_across_slices(self):
        entries = [CharEntry((i, 1), 3 * i, False, FAILS) for i in range(3 * _SLICE)]
        parts = []
        _write_json({"x": entries, "y": FAILS}, parts.append)
        want = {"x": [plain(e) for e in entries], "y": plain(FAILS)}
        assert "".join(parts) == json.dumps(want, indent=2, sort_keys=True)

    @pytest.mark.parametrize("members", [_PART // _SLICE + 1, _PART + 1])
    def test_members_column_over_part(self, members):
        # (_PART // _SLICE + 1) members each make a full slice hold over _PART
        classes = class_entries(_SLICE + 1, members)
        assert _rows(classes[:_SLICE], "\n  ") is None
        assert_like_json_dumps(classes)

    def test_parts_bound_across_slices(self):
        entries = char_entries(40 * _SLICE)
        parts = []
        _write_json(entries, parts.append)
        doc = "".join(parts)
        assert doc == json.dumps(plain(entries), indent=2, sort_keys=True)
        assert len(parts) > 8
        assert max(map(len, parts)) < len(doc) / 8


def nine37_sum_report():
    nine = parse_matrix(NINE_37_TEXT)
    return analyze(KnotRecord("9_37#9_37", connected_sum(nine, nine)))


def genus6_twist_sum_report():
    return analyze(KnotRecord("sum", twist_sum((2, 5, 8, 11, 14, 17))), [3])


class TestBoundedWrites:
    """_write_json hands the document to write in parts, so the text held
    at once stays well below the document."""

    @pytest.fixture(scope="class", params=[nine37_sum_report, genus6_twist_sum_report])
    def report(self, request):
        return request.param()

    def test_parts_make_the_document(self, report):
        parts = []
        _write_json(report, parts.append)
        doc = "".join(parts)
        assert doc == _to_json(report)
        assert_round_trip(doc)
        assert len(parts) > 1
        assert max(map(len, parts)) < len(doc) / 8

    def test_peak_memory_below_the_document(self, report):
        size = len(_to_json(report))
        _write_json(report, lambda part: None)  # fill the layout caches first
        tracemalloc.start()
        try:
            _write_json(report, lambda part: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size


# The keys of a layout that are not fields of their class, after the fields
ADDED_KEYS = {Report: {"schema"}, RowError: {"schema"}, CharEntry: {"zero_framed_exists"}}


def int_tuple(x):
    return type(x) is tuple and all(type(i) is int for i in x)


def rational(x):
    return type(x) in (Fraction, ResidueQZ)


# Each leaf kind, read item by item: deeper than the writer's own check,
# which reads only a field's top-level type
OF_KIND = {
    "bool": lambda v: type(v) is bool,
    "number": lambda v: type(v) is int,
    "decimal": lambda v: type(v) is int,
    "str": lambda v: type(v) is str,
    "rational": rational,
    "ints": int_tuple,
    "numbers": int_tuple,
    "strs": lambda v: type(v) is tuple and all(type(s) is str for s in v),
    "members": lambda v: type(v) is tuple and all(m and int_tuple(m) for m in v),
    "rationals": lambda v: type(v) is tuple and all(map(rational, v)),
}


def of_kind(v, kind):
    if type(kind) is list:
        return type(v) is tuple and all(type(r) is kind[0] for r in v)
    if isinstance(kind, type):
        return type(v) is kind
    return OF_KIND[kind](v)


def census_scan(tmp_path, seed):
    """The reports and error records of the benchmark's census at seed."""
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_gen", root / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    out = []
    for i, (text, _) in enumerate(gen.census(seed)):
        path = tmp_path / f"census-{i:02d}.csv"
        path.write_text(text, encoding="utf-8")
        out.extend(scan(os.fspath(path)))
    return out


class TestDeclaredLayouts:
    """Each record class the writer meets declares its JSON layout once,
    in _json: per key, the field it reads and the field's kind."""

    @pytest.mark.parametrize("cls", _RECORDS, ids=lambda c: c.__name__)
    def test_names_the_fields_and_the_added_keys(self, cls):
        fields = len(cls._fields)
        assert [field for _, field, _ in cls._json[:fields]] == list(cls._fields)
        assert {key for key, _, _ in cls._json[fields:]} == ADDED_KEYS.get(cls, set())
        assert len({key for key, _, _ in cls._json}) == len(cls._json)

    def test_every_record_class_written_has_a_layout(self):
        written = {c for c in vars(dihedral.report).values()
                   if isinstance(c, type) and issubclass(c, _Record) and c.__module__ ==
                   "dihedral.report" and c.__name__ != "KnotRecord"}
        assert written == set(_RECORDS)

    def test_values_are_of_their_declared_kinds(self, tmp_path, corpus_reports):
        nine = parse_matrix(NINE_37_TEXT)
        docs = [*corpus_reports, analyze(KnotRecord("9_37#9_37", connected_sum(nine, nine))),
                *twist_family(-60, 60), *census_scan(tmp_path, 1), analyze(twist_knot(2))]
        seen, stack = set(), list(docs)
        while stack:
            r = stack.pop()
            for key, field, kind in type(r)._json:
                v = getattr(r, field)
                assert v is None or of_kind(v, kind), (type(r).__name__, field, v)
                if v is not None:
                    seen.add((type(r), key))
                    stack.extend(v if type(kind) is list else [v] if isinstance(kind, type) else [])
        # every key of every class held a value somewhere, so each kind was checked
        assert seen == {(cls, key) for cls in _RECORDS for key, _, _ in cls._json}
        assert any(type(r) is RowError for r in docs)

    def test_values_outside_records_by_their_types(self):
        # a ResidueQZ is a record class too, but has no layout: it is a rational
        doc = {"q": ResidueQZ._reduced(1, 3), "qs": [Fraction(-2, 5), ResidueQZ._reduced(0, 1)],
               "n": (1, True, None, "s", ()), "beta": [(1, -2), []], "x": {}}
        assert _to_json(doc) == json.dumps(plain(doc), indent=2, sort_keys=True)

    @pytest.mark.parametrize("cls", _RECORDS, ids=lambda c: c.__name__)
    def test_none_is_null_in_any_field(self, cls):
        want = {key: SCHEMA if key == "schema" else None for key, _, _ in cls._json}
        blank = cls(*[None] * len(cls._fields))
        assert json.loads(_to_json(blank)) == want
        assert json.loads(_to_json([blank] * (_SLICE + 1))) == [want] * (_SLICE + 1)

    WRONG = [
        (lambda: Report("k", "", True, 3, (3,), (), (), None), "Report.genus holds bool, not number"),
        (lambda: Report("k", "", 1, 3, [3], (), (), None),
         "Report.invariant_factors holds list, not ints"),
        (lambda: Report("k", "", 1, 3, (3,), [], (), None),
         "Report.blocks holds list, not a tuple of NBlock"),
        (lambda: Report("k", "", 1, 3, (3,), (), (), "xi"), "Report.xi holds str, not XiBlock"),
        (lambda: NBlock(3, 1, "", 0, 0, (), True, "", ()),
         "NBlock.characters_enumerated holds int, not bool"),
        (lambda: RowError("k", "2", "bad"), "RowError.row holds str, not number"),
        (lambda: ClassEntry((1,), ((1,),), 0.5, True, True, ()),
         "ClassEntry.self_linking holds float, not rational"),
        (lambda: ClassEntry((1,), ((1,),), 1, True, True, ()),
         "ClassEntry.self_linking holds int, not rational"),
        (lambda: CharEntry((1, 2), "0", True, FAILS),
         "CharEntry.form_value_mod_n2 holds str, not decimal"),
        (lambda: CharEntry((1, 2), 0, True, ()), "CharEntry.stabilization holds tuple, not StabSummary"),
        (lambda: CharEntry((1, 2), 0, True, StabSummary("s", "8", (), False, ())),
         "StabSummary.new_size holds str, not number"),
        (lambda: XiBlock(3, 2, [Fraction(1, 3)], Fraction(1, 3), 0, (-1, 1), 0, "x"),
         "XiBlock.candidates holds list, not rationals"),
        (lambda: TwistRow(2, 9, True, 1, None, None), "TwistRow.extends holds int, not bool"),
    ]

    @pytest.mark.parametrize("make, message", WRONG, ids=[m.split(" holds")[0] for _, m in WRONG])
    def test_a_value_of_another_kind_is_refused(self, make, message):
        # one record goes down the record path, a long list of them down the slice path
        bad = make()
        for doc in (bad, [bad], {"rows": [bad] * (2 * _SLICE + 1)}):
            with pytest.raises(TypeError) as exc:
                _to_json(doc)
            assert str(exc.value) == message
