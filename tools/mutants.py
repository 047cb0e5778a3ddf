"""Mutation census of src/dihedral: which one-site changes can tier-1 see?

    python tools/mutants.py cover seifert

Each argument names a module of src/dihedral. A mutant changes one site
with one operator: flip a comparison (< to >=, == to !=, in to not in,
is to is not), swap + with - or * with // (also in augmented
assignments), add 1 to an int constant, swap and with or, drop a not, or
set an if test to False. Sites inside f-strings are skipped: they only
shape messages.

Each mutant runs in a fresh copy of the tree with no __pycache__,
so no stale bytecode is read, and the bytecode its test subprocesses
write goes away with the copy. The unmodified tree runs first and must
pass. Then for each mutant the module's own test files run, then the
rest of tier-1, each with -x and -W error. A failure kills the mutant,
and so does a timeout: a stage still running after 5 times its
unmodified time, pytest's start-up included (a loop that never ends). A
failure of a wall-clock budget(...) test in tests/test_acceptance.py
alone does not: that mutant is run again, up to twice, and is reported as
"budget" if only budgets ever fail. The survivors of the parallel pass
are then rerun one at a time, and those still alive are listed with
their line. Exit status 1 when any survives. The address space of this
process and of every pytest it starts is capped at MEMORY_LIMIT. Tier-1
and CI do not run this: a module takes from minutes to about an hour on
2 cores.
"""

import ast
import copy
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dihedral"
# each module's own test files, which run first
TESTS = {
    "__init__": ("test_api.py",),
    "cli": ("test_cli.py", "test_api.py"),
    "cover": ("test_cover.py",),
    "errors": ("test_api.py", "test_cli.py"),
    "exact": ("test_exact.py",),
    "obstruction": ("test_obstruction.py", "test_acceptance.py"),
    "report": ("test_report.py", "test_records.py", "test_writer.py"),
    "seifert": ("test_seifert.py",),
    "signatures": ("test_signatures.py",),
}
WORKERS = min(2, os.cpu_count() or 1)
TIMEOUT = 600  # seconds per pytest stage without a mutant; tier-1 takes about 15 s
# bytes of address space for this process and each pytest it starts: a
# mutant can grow an integer without end, and must fail (a MemoryError, a
# kill) instead of taking the machine's memory
MEMORY_LIMIT = 2 << 30
PYTEST = (sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-W", "error",
          "-p", "no:cacheprovider")

FLIP = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
        ast.Is: ast.IsNot, ast.IsNot: ast.Is}
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
        ast.And: ast.Or, ast.Or: ast.And}


def _with(node, **fields):
    new = copy.copy(node)
    for name, value in fields.items():
        setattr(new, name, value)
    return new


def sites(tree):
    """(node, replacement source, label) for every mutant of a module."""
    skip = {id(n) for s in ast.walk(tree) if isinstance(s, ast.JoinedStr) for n in ast.walk(s)}
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                ops = list(node.ops)
                ops[k] = FLIP[type(op)]()
                yield node, f"({ast.unparse(_with(node, ops=ops))})", \
                    f"{type(op).__name__} -> {type(ops[k]).__name__}"
        elif isinstance(node, (ast.BinOp, ast.BoolOp, ast.AugAssign)) and type(node.op) in SWAP:
            new = ast.unparse(_with(node, op=SWAP[type(node.op)]()))
            yield node, new if isinstance(node, ast.stmt) else f"({new})", \
                f"{type(node.op).__name__} -> {SWAP[type(node.op)].__name__}"
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, f"({node.value + 1})", f"{node.value} -> {node.value + 1}"
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, f"({ast.unparse(node.operand)})", "drop not"
        elif isinstance(node, ast.If) and not isinstance(node.test, ast.Constant):
            yield node.test, "False", "if test -> False"


def mutants(module):
    """[("line:column", label, mutated source bytes)] in source order."""
    source = (PACKAGE / f"{module}.py").read_bytes()
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    out = []
    for node, text, label in sites(ast.parse(source)):
        a = starts[node.lineno - 1] + node.col_offset  # offsets count UTF-8 bytes
        b = starts[node.end_lineno - 1] + node.end_col_offset
        out.append((node.lineno, node.col_offset, label, source[:a] + text.encode() + source[b:]))
    out.sort(key=lambda m: m[:3])
    return [(f"{line}:{col}", label, src) for line, col, label, src in out]


def _pytest(args, cwd, env, timeout):
    """(status, detail) of one pytest stage."""
    with subprocess.Popen([*PYTEST, *args], cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the CLI subprocesses of a test too
            proc.communicate()
            return "timeout", " ".join(args)
    if proc.returncode == 0:
        return "survived", ""
    failed = [ln for ln in out.splitlines() if ln.startswith(("FAILED", "ERROR"))]
    if failed and all("test_acceptance.py" in ln and ", budget " in ln for ln in failed):
        return "budget", failed[0]
    return "killed", (failed or out.strip().splitlines() or [f"exit {proc.returncode}"])[-1]


def run(module, source, timeouts):
    """Run tier-1 on one mutant in a fresh copy of the tree: (status,
    detail), and the seconds each stage took."""
    for _ in range(3):
        with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
            tmp = Path(scratch, "tree")  # tests also read README.md and bench/
            shutil.copytree(ROOT, tmp, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", "*.egg-info", ".bench_work"))
            Path(tmp, "src", "dihedral", f"{module}.py").write_bytes(source)
            env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")))
            own = [f"tests/{name}" for name in TESTS[module]]
            status, times = ("survived", ""), []
            for args, timeout in zip((own, ["tests", *(f"--ignore={t}" for t in own)]), timeouts):
                start = time.perf_counter()
                status = _pytest(args, tmp, env, timeout)
                times.append(time.perf_counter() - start)
                if status[0] != "survived":
                    break
        if status[0] != "budget":
            break
    return status, times


def census(module):
    found = mutants(module)
    lines = (PACKAGE / f"{module}.py").read_text().splitlines()
    print(f"{module}.py: {len(found)} mutants", flush=True)

    # the unmutated tree must pass; then a stage times out at 5 times its
    # time here, which is timed around the whole pytest process, so each
    # timeout holds pytest's start-up five times over
    status, times = run(module, (PACKAGE / f"{module}.py").read_bytes(), (TIMEOUT, TIMEOUT))
    if status[0] != "survived":
        sys.exit(f"{module}.py: tier-1 fails without a mutant: {status[1]}")
    timeouts = [5 * t for t in times]

    def one(m):
        return run(module, m[2], timeouts)[0]

    results = []
    with ThreadPoolExecutor(WORKERS) as pool:
        for m, (status, detail) in zip(found, pool.map(one, found)):
            results.append(status)
            print(f"  {module}.py:{m[0]} {m[1]}: {status} {detail}", flush=True)
    alive = [k for k, s in enumerate(results) if s in ("survived", "budget")]
    print(f"  rerunning {len(alive)} survivors alone", flush=True)
    still = []
    for k in alive:
        m = found[k]
        status, detail = run(module, m[2], timeouts)[0]
        results[k] = status
        print(f"  {module}.py:{m[0]} {m[1]}: {status} {detail}", flush=True)
        if status in ("survived", "budget"):
            still.append((m, status))
    counts = {s: results.count(s) for s in ("killed", "timeout")}
    print(f"{module}.py: {len(found)} mutants, {counts['killed']} killed, {counts['timeout']} "
          f"timed out, {len(alive)} survived the first pass, {len(still)} survive alone",
          flush=True)
    for (site, label, _), status in still:
        line = lines[int(site.split(":")[0]) - 1].strip()
        print(f"  SURVIVOR {module}.py:{site} {label} [{status}]  {line}")
    return len(still)


def main(argv):
    unknown = [m for m in argv if m not in TESTS]
    if not argv or unknown:
        print(f"usage: mutants.py MODULE...  (modules: {', '.join(sorted(TESTS))})",
              file=sys.stderr)
        return 2
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))  # children inherit it
    return 1 if sum(census(m) for m in argv) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
