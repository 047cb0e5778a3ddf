"""Benchmark for dihedral: one workload per invocation.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports `dihedral` from
`src/`. With `--trace 0` it measures the end-to-end metrics; with
`--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every output check passed. Generated inputs and the span file go
to `.bench_work/` under the checkout.
"""

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

import gen
import spans
from workloads import WORKLOADS

WORK_ROOT = ".bench_work"
SETUP_REPEATS = 11
SETUP_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
               "import dihedral.cli; t = time.perf_counter() - t; "
               "sys.path.insert(0, sys.argv[2]); import run; print(t, run.Calibration().settle())")


def setup_sample(src):
    """(Seconds for a fresh interpreter to import dihedral.cli, and the
    speed probe that interpreter took just after the import)."""
    here = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run([sys.executable, "-I", "-c", SETUP_PROBE, src, here],
                         check=True, capture_output=True, text=True, timeout=60)
    return tuple(map(float, out.stdout.split()))


class Calibration:
    """Probes of the machine's current speed, taken around and during
    every segment of calls.

    A probe is the benchmark's own Fraction elimination on two fixed 8x8
    matrices. It shares no code with dihedral, so a change to the program
    does not move it, and it allocates small objects the way dihedral's
    exact arithmetic does. On a shared machine both run in a fast or a
    slow state (about 1.7x apart) that switches every few seconds: the
    mean of the probes just before and just after a census shard call
    correlated 0.94 with the call's own speed over 840 calls, while the
    median probe of a whole run does not follow the switches. Calls that
    last seconds switch state inside, so while `sampling()` is on, a
    timer also probes every INTERVAL_S seconds in the middle of a call.
    Each probe runs with the garbage collector off, so that a collection
    of the program's heap does not land in it.
    """

    REFERENCE_S = 0.0015  # about one probe in the fast state
    PER_TICK = 4
    INTERVAL_S = 0.2

    def __init__(self):
        rng = random.Random("calibration")
        self.matrices = [[[rng.randint(-3, 3) for _ in range(8)] for _ in range(8)]
                         for _ in range(2)]
        self.samples = []
        self.sink = None  # where timer probes go while sampling is on

    def probe(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for m in self.matrices:
                gen.det(m)
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        return self.samples[-1]

    def settle(self):
        """The median of PER_TICK probes in a row."""
        return statistics.median(self.probe() for _ in range(self.PER_TICK))

    def scale(self, probes):
        return self.REFERENCE_S / statistics.median(probes)

    def setup_scale(self, probe):
        """Set-up samples move with about the square root of the probe (a
        least-squares fit over 150 samples gave an exponent of 0.42): part
        of an import is file system and start-up work that the machine's
        slow state does not slow."""
        return (self.REFERENCE_S / probe) ** 0.5

    def _alarm(self, signum, frame):
        sink, self.sink = self.sink, None
        if sink is not None:
            sink(self.probe())
            self.sink = sink

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sink = None


class Run:
    """Passes of one workload. The first pass's output is the reference:
    later passes must repeat it exactly, and `check()` examines it after
    the timed passes are over.

    The workload calls `tick()` before each segment of calls. A tick
    settles a probe that closes the last segment and opens the next, and
    the timer adds probes inside the segment; each call time is scaled by
    the median probe of its segment. With `setup_src` set, a tick at
    least SETUP_INTERVAL_S after the last set-up sample also takes one
    first, so set-up is timed throughout the run. The set-up interpreter
    may run on the other core, in another state, so it probes itself."""

    SETUP_INTERVAL_S = 1.0

    def __init__(self, workload, setup_src=None):
        self.workload = workload
        self.calibration = Calibration()
        self.setup_src = setup_src
        self.setup = []  # (unscaled, scaled) seconds
        self._last_setup = -float("inf")
        self.probes = []  # per segment of the current pass
        self.reference = None
        self.passes = self.mismatched = 0

    def _setup_sample(self):
        t, probe = setup_sample(self.setup_src)
        self.setup.append((t, t * self.calibration.setup_scale(probe)))
        self._last_setup = time.perf_counter()

    def _close(self):
        """Stop timer probes and settle one for the segment that ends."""
        self.calibration.sink = None
        probe = self.calibration.settle()
        if self.probes:
            self.probes[-1].append(probe)
        return probe

    def tick(self):
        self.calibration.sink = None  # no timer probes in a set-up sample
        if self.setup_src and time.perf_counter() - self._last_setup >= self.SETUP_INTERVAL_S:
            self._setup_sample()
        self.probes.append([self._close()])
        self.calibration.sink = self.probes[-1].append

    def setup_s(self):
        """Median (unscaled, scaled) set-up sample, topped up to
        SETUP_REPEATS samples after a short run."""
        while len(self.setup) < SETUP_REPEATS:
            self._setup_sample()
        return tuple(statistics.median(s[i] for s in self.setup) for i in (0, 1))

    def run_pass(self):
        """One pass; returns (unscaled, scaled) call times."""
        self.probes = []
        with self.calibration.sampling():
            output, segments = self.workload.run_pass(self.tick)
            self._close()
        assert len(self.probes) == len(segments), "one tick() per segment"
        self.passes += 1
        if self.reference is None:
            self.reference = output
        elif output != self.reference:
            self.mismatched += 1
        raw, scaled = [], []
        for seg, probes in zip(segments, self.probes):
            k = self.calibration.scale(probes)
            raw.extend(seg)
            scaled.extend(t * k for t in seg)
        return raw, scaled

    def check(self):
        self.problems, self.failed_items, self.refused = self.workload.check(self.reference)

    def result(self, metrics):
        items = self.workload.items
        attempted = items * self.passes
        failed = min(attempted, self.failed_items * self.passes + items * self.mismatched)
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def end_to_end(run, seconds):
    deadline = time.perf_counter() + seconds
    raw_walls, walls, passes = [], [], []
    while not walls or time.perf_counter() < deadline:
        raw, scaled = run.run_pass()
        raw_walls.append(sum(raw))
        walls.append(sum(scaled))
        passes.append(scaled)
    # Each call's median over the passes, so that the percentiles do not
    # depend on how many passes fit: on large-groups, with three different
    # calls, an even count of passes moved the median call to another knot.
    calls = [statistics.median(times) for times in zip(*passes)]
    raw_setup, setup = run.setup_s()
    wall = statistics.median(walls)
    print(f"unscaled: setup_s={raw_setup} wall_s={statistics.median(raw_walls)} "
          f"passes={len(walls)} setups={len(run.setup)} "
          f"probe_p50_ms={statistics.median(run.calibration.samples) * 1e3}", file=sys.stderr)
    return {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (run.workload.items / wall, "1/s"),
        "call_p50_ms": (statistics.median(calls) * 1e3, "ms"),
        "call_p95_ms": (spans.percentile(calls, 95) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run, seconds, span_path):
    tracer = spans.Tracer()
    deadline = time.perf_counter() + seconds
    untraced, traced, per_pass = [], [], []
    last = []
    while not traced or time.perf_counter() < deadline:
        untraced.append(sum(run.run_pass()[1]))
        tracer.install()
        try:
            traced.append(sum(run.run_pass()[1]))
        finally:
            tracer.uninstall()
        last, counts = tracer.take()
        per_pass.append(spans.layer_metrics(last, counts))
    spans.write_jsonl(span_path, last)
    metrics = {k: (statistics.median(p[k][0] for p in per_pass), unit)
               for k, (_, unit) in per_pass[0].items()}
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1,
                                      "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "dihedral", "cli.py")):
        print("error: run from the root of a dihedral checkout (no src/dihedral here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)

    if not args.trace:
        setup_sample(src)  # untimed: writes the bytecode cache, which users also keep
    run = Run(WORKLOADS[args.workload](args.seed, workdir), None if args.trace else src)
    if args.trace:
        metrics = per_layer(run, args.seconds, os.path.join(workdir, "spans.jsonl"))
    else:
        metrics = end_to_end(run, args.seconds)
    run.check()
    if args.trace:
        metrics["refused_frac"] = (run.refused / run.workload.items, "ratio")
    for name, problems in run.problems.items():
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
    if run.mismatched:
        print(f"check failed: {run.mismatched} passes differ from the first", file=sys.stderr)
    result = run.result(metrics)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
