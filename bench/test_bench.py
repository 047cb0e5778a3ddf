"""Tests of the benchmark itself: span arithmetic, input determinism, and
that the output checks reject corrupted results.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import copy
import hashlib
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(id, parent, name, layer, start, end, cpu):
    s = spans.Span(id, parent, 1, name, layer)
    s.start, s.end, s.cpu = start, end, cpu
    return s


class TestSpanArithmetic:
    def tree(self):
        # analyze [0, 100] -> homology [10, 40] -> snf [15, 25]
        #                  -> enum [50, 90]
        root = _span(1, 0, "report.analyze", "report", 0, 100, 60)
        hom = _span(2, 1, "cover.double_cover_homology", "cover", 10, 40, 30)
        snf = _span(3, 2, "exact.snf", "exact", 15, 25, 10)
        enum = _span(4, 1, "obstruction.surjective_characters", "obstruction", 50, 90, 20)
        enum.extra = {"group_order": 81, "characters": 27}
        root.child = (40 - 10) + (90 - 50)
        hom.child = 25 - 15
        return [snf, hom, enum, root]

    def test_self_and_wait(self):
        m = spans.layer_metrics(self.tree(), {})
        assert m["report.self_s"][0] == pytest.approx(30e-9)
        assert m["cover.self_s"][0] == pytest.approx(20e-9)
        assert m["exact.self_s"][0] == pytest.approx(10e-9)
        assert m["obstruction.self_s"][0] == pytest.approx(40e-9)
        assert m["report.analyze.wait_s"][0] == pytest.approx(40e-9)
        assert m["cover.homology_s"][0] == pytest.approx(30e-9)
        assert m["obstruction.enum.yield"][0] == pytest.approx(27 / 81)
        # self times add up to the root's wall time
        total = sum(m[f"{layer}.self_s"][0] for layer in spans.LAYERS)
        assert total == pytest.approx(100e-9)

    def test_nested_calls_count_once(self):
        outer = _span(1, 0, "exact.scaled_inverse", "exact", 0, 50, 50)
        inner = _span(2, 1, "exact.rational_inverse", "exact", 10, 40, 30)
        outer.child = 30
        m = spans.layer_metrics([inner, outer], {})
        assert m["exact.inverse.calls"][0] == 1
        assert m["exact.inverse_s"][0] == pytest.approx(50e-9)

    def test_recorded_spans(self):
        tracer = spans.Tracer()

        def leaf():
            time.sleep(0.02)

        def parent():
            for _ in range(2):
                wrapped_leaf()

        wrapped_leaf = tracer._span_wrapper(leaf, "cover.leaf", "cover")
        tracer._span_wrapper(parent, "report.parent", "report")()
        recorded, _ = tracer.take()
        leaves = [s for s in recorded if s.name == "cover.leaf"]
        root = next(s for s in recorded if s.name == "report.parent")
        assert [s.parent for s in leaves] == [root.id, root.id]
        assert root.child == sum(s.wall_ns for s in leaves)
        assert root.self_ns == root.wall_ns - root.child
        # sleeping costs wall time but no CPU time
        assert all(s.wait_ns > 0.015e9 for s in leaves)

    def test_install_covers_every_binding_and_restores(self):
        import dihedral
        import dihedral.cli  # noqa: F401
        from dihedral import cover, obstruction, report

        before = (report.surjective_characters, obstruction.surjective_characters,
                  cover.snf, dihedral.snf)
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert report.surjective_characters is obstruction.surjective_characters
            assert report.surjective_characters is not before[0]
            assert cover.snf is dihedral.snf is not before[2]
        finally:
            tracer.uninstall()
        assert (report.surjective_characters, obstruction.surjective_characters,
                cover.snf, dihedral.snf) == before


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestGenerators:
    def test_corpus_is_the_test_corpus(self):
        # digest of tests/conftest.py's build_corpus(), as lists of rows
        rows = gen.sample_corpus(gen.CORPUS_SEED, gen.CORPUS_SIZE)
        assert _digest(rows) == TEST_CORPUS_SHA256

    @pytest.mark.parametrize("make", [gen.census, gen.large_groups, gen.signature_set])
    def test_same_seed_same_inputs(self, make):
        assert repr(make(3)) == repr(make(3))
        assert repr(make(3)) != repr(make(4))

    def test_census_rows(self):
        shards = gen.census(5)
        assert len(shards) == gen.CENSUS_SHARDS
        for text, shard in shards:
            assert text.count("\n") == len(shard) + 1
        rows = [r for _, shard in shards for r in shard]
        knots = sorted(n for n, _, k in rows if not k)
        assert knots == [f"k{i:03d}" for i in range(gen.CORPUS_SIZE)]
        # every seed puts the same knots in each shard
        assert [{n for n, _, k in shard if not k} for _, shard in shards] == \
               [{n for n, _, k in shard if not k} for _, shard in gen.census(6)]
        bad = [r for r in rows if r[2]]
        assert len(bad) == gen.MALFORMED_ROWS
        assert {k for _, _, k in bad} >= set(gen.MALFORMED_KINDS)
        for name, v, kind in rows:
            if kind is None:
                assert gen.is_seifert(v) and gen.knot_determinant(v) <= gen.MAX_DETERMINANT
                assert max(abs(x) for r in v for x in r) <= 2

    def test_scrambling_keeps_the_knot(self):
        for name, v, tail in gen.large_groups(7)[1:]:
            ms = gen.MID_TWISTS if name == "twist-2-5-8-m1" else gen.BIG_TWISTS
            assert gen.is_seifert(v)
            assert gen.knot_determinant(v) == gen.knot_determinant(gen.twist_sum(ms))


NINE_37 = "{{1,0,0,0},{0,1,0,0},{1,0,-2,1},{-1,-1,0,-1}}"


@pytest.fixture(scope="module")
def nine37_report():
    from dihedral.cli import main

    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["analyze", "--name", "9_37", "--matrix", NINE_37]) == 0
    return json.loads(buf.getvalue())


NINE_37_ROWS = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, -2, 1], [-1, -1, 0, -1]]


class TestChecks:
    def test_good_report_passes(self, nine37_report):
        assert checks.check_report(nine37_report, NINE_37_ROWS) == []

    def test_flipped_extends_fails(self, nine37_report):
        doc = copy.deepcopy(nine37_report)
        doc["quotients"][0]["classes"][0]["extends"] ^= True
        assert checks.check_report(doc, NINE_37_ROWS)

    def test_dropped_member_fails(self, nine37_report):
        doc = copy.deepcopy(nine37_report)
        doc["quotients"][0]["classes"][0]["members"].pop()
        assert checks.check_report(doc, NINE_37_ROWS)

    def test_wrong_determinant_fails(self, nine37_report):
        doc = copy.deepcopy(nine37_report)
        doc["determinant"] = "47"
        assert checks.check_report(doc, NINE_37_ROWS)

    def test_malformed_row_without_error_fails(self, nine37_report):
        rows = [("9_37", NINE_37_ROWS, None), ("bad0", None, "ragged")]
        good = [dict(nine37_report), {"name": "bad0", "row": 3, "error": "ragged"}]
        assert checks.check_census(good, rows) == {}
        assert list(checks.check_census([good[0], dict(nine37_report, name="bad0")], rows)) == ["bad0"]
        assert list(checks.check_census([dict(good[1], name="9_37"), good[1]], rows)) == ["9_37"]

    def test_signature_checks(self):
        matrices = [("t", gen.twist_sum((-1, 2)), (-1, 2))]
        values = {("t", 1, 3): -2, ("t", 2, 3): -2}
        assert checks.check_signatures(values, values, matrices) == {}
        assert checks.check_signatures({("t", 1, 3): 0, ("t", 2, 3): -2}, {}, matrices)
        assert checks.check_signatures(values, {("t", 1, 3): None}, matrices)


def test_calls_scaled_by_the_probes_of_their_segment(monkeypatch):
    class TwoSegments:
        def run_pass(self, tick):
            tick()
            time.sleep(0.25)  # the timer probes once in here
            first = [1.0, 2.0]
            tick()
            return "out", [first, [3.0]]

    ref = run.Calibration.REFERENCE_S
    # a tick settles the median of PER_TICK probes
    probes = iter([ref] * 4 + [4 * ref] + [2 * ref] * 4 + [5 * ref] * 4)
    monkeypatch.setattr(run.Calibration, "probe", lambda self: next(probes))
    r = run.Run(TwoSegments())
    raw, scaled = r.run_pass()
    assert r.probes == [[ref, 4 * ref, 2 * ref], [2 * ref, 5 * ref]]
    assert raw == [1.0, 2.0, 3.0]
    assert scaled == pytest.approx([1.0 / 2, 2.0 / 2, 3.0 / 3.5])


@pytest.fixture
def small_census(monkeypatch, tmp_path):
    """Run the census workload on 12 knots, with one setup probe."""
    monkeypatch.chdir(os.path.dirname(HERE))
    monkeypatch.setattr(gen, "CORPUS_SIZE", 12)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "WORK_ROOT", str(tmp_path))
    return ["--workload", "census", "--seed", "1", "--seconds", "0"]


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_metrics_match_benchmark_json(small_census, capsys, trace, key):
    assert run.main(small_census + ["--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_corrupted_output_exits_nonzero(small_census, monkeypatch, capsys):
    real = workloads._cli

    def corrupt(argv):
        rc, out, dt = real(argv)
        docs = json.loads(out)
        for doc in docs:
            if doc.get("quotients"):
                doc["quotients"][0]["extendable_class_count"] += 1
        return rc, json.dumps(docs), dt

    monkeypatch.setattr(workloads, "_cli", corrupt)
    assert run.main(small_census) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


TEST_CORPUS_SHA256 = "18fd774ed58dec5c5544dd56171ba14f5ddaeb5cca27baef5167590ee5037f08"
