"""The three workloads. Each drives `dihedral` only through a public entry
point: `dihedral.cli.main` in-process with stdout captured, or
`dihedral.tristram_levine`.

A workload is built from a seed and a work directory. `run_pass(tick)`
runs every call once in segments, calling `tick()` (the run's speed
probe) before each segment, and returns (output, call times in seconds
as one list per segment);
`check(output)` returns (problems per failed item, failed items,
refused items) for one pass. `items` is the number of items per pass.
"""

import contextlib
import io
import json
import os
import time

import checks
import gen


def _cli(argv):
    """Run `dihedral <argv>` in-process; (exit code, stdout, seconds)."""
    from dihedral.cli import main

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue(), time.perf_counter() - start


class Census:
    """`dihedral scan` of the test corpus in seeded bases, with seeded
    malformed rows, one call per shard of about 15 rows (`gen.census`).
    Items are census rows. Many calls make `call_p95_ms` a percentile
    rather than the slowest of a few passes. The scans are serial: with
    `--jobs 2` on two shared cores the pass time follows the host's
    scheduling of the two GIL-sharing threads, not the program."""

    def __init__(self, seed, workdir):
        self.paths, self.rows = [], []
        for i, (text, rows) in enumerate(gen.census(seed)):
            path = os.path.join(workdir, f"census-{i:02d}.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            self.paths.append(path)
            self.rows.extend(rows)
        self.items = len(self.rows)

    def run_pass(self, tick):
        outputs, times = [], []
        for path in self.paths:
            tick()
            rc, out, dt = _cli(["scan", path])
            outputs.append((rc, out))
            times.append([dt])
        return outputs, times

    def check(self, output):
        docs = []
        for path, (rc, out) in zip(self.paths, output):
            if rc != 0:
                return {"*": [f"scan {os.path.basename(path)} exited with {rc}"]}, self.items, 0
            docs.extend(json.loads(out))
        problems = checks.check_census(docs, self.rows)
        failed = self.items if "*" in problems else len(problems)
        return problems, failed, 0


class LargeGroups:
    """`dihedral analyze` on three knots with big groups. Items are n-blocks."""

    def __init__(self, seed, workdir):
        self.knots = gen.large_groups(seed)
        self.argvs = [["analyze", "--name", name, "--matrix", gen.render(v)] + tail
                      for name, v, tail in self.knots]
        self.blocks = [len(checks.expected_ns(gen.knot_determinant(v),
                                              [int(x) for x in tail[1::2]] or None))
                       for _, v, tail in self.knots]
        self.items = sum(self.blocks)

    def run_pass(self, tick):
        outputs, times = [], []
        for argv in self.argvs:
            tick()
            rc, out, dt = _cli(argv)
            outputs.append((rc, out))
            times.append([dt])
        return outputs, times

    def check(self, output):
        problems, docs = {}, []
        for knot, (rc, out) in zip(self.knots, output):
            if rc != 0:
                problems[knot[0]] = [f"analyze exited with {rc}"]
            else:
                docs.append((json.loads(out), knot))
        if docs:
            problems.update(checks.check_large_groups(*zip(*docs)))
        failed = sum(b for (name, _, _), b in zip(self.knots, self.blocks) if name in problems)
        refused = sum(1 for doc, _ in docs for b in doc["quotients"]
                      if not b["characters_enumerated"])
        return problems, failed, refused


class SignatureSweep:
    """`tristram_levine(v, (k, n))` for every odd n <= 15 and 0 < k < n, on
    sixty small census knots and four scrambled twist sums of genus 3 to 6.
    Items are evaluations."""

    def __init__(self, seed, workdir):
        from dihedral import SeifertMatrix

        self.matrices = gen.signature_set(seed)
        self.calls = [(name, SeifertMatrix(v), omega)
                      for name, v, _ in self.matrices for omega in gen.signature_omegas()]
        self.items = len(self.calls)

    def _sweep(self, calls, tick=lambda: None, **kwargs):
        from dihedral import SignatureIndeterminateError, tristram_levine

        values, times, last = {}, [], None
        for name, v, (k, n) in calls:
            if name != last:  # one segment per matrix
                tick()
                times.append([])
                last = name
            start = time.perf_counter()
            try:
                sig = tristram_levine(v, (k, n), **kwargs)
            except SignatureIndeterminateError:
                sig = None
            except Exception as e:  # an unexpected failure is an output the check rejects
                sig = f"raised {type(e).__name__}: {e}"
            times[-1].append(time.perf_counter() - start)
            values[(name, k, n)] = sig
        return values, times

    def run_pass(self, tick):
        return self._sweep(self.calls, tick)

    def check(self, output):
        from dihedral.signatures import DEFAULT_PRECISION_BITS

        # sigma(k, n) = sigma(n - k, n) is checked on every pair, so the
        # rerun covers only k < n / 2
        rerun, _ = self._sweep([c for c in self.calls if 2 * c[2][0] < c[2][1]],
                               precision_bits=2 * DEFAULT_PRECISION_BITS)
        problems = checks.check_signatures(output, rerun, self.matrices)
        refused = sum(1 for sig in output.values() if sig is None)
        return problems, len(problems), refused


WORKLOADS = {"census": Census, "large-groups": LargeGroups, "signature-sweep": SignatureSweep}
