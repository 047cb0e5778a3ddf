"""The public surface: every exported name resolves, and the README's
library example and CLI examples run as shown."""

import contextlib
import importlib
import importlib.util
import io
import pathlib
import pkgutil
import re
import shlex
import types

import pytest

import dihedral
from dihedral.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent

MODULES = sorted(m.name for m in pkgutil.iter_modules(dihedral.__path__)
                 if not m.name.startswith("_"))


def test_package_all_resolves():
    missing = [n for n in dihedral.__all__ if not hasattr(dihedral, n)]
    assert missing == []
    # public names only: neither a private name nor a submodule
    assert "analyze" in dihedral.__all__
    assert [n for n in dihedral.__all__
            if n.startswith("_") or isinstance(getattr(dihedral, n), types.ModuleType)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"dihedral.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_readme_library_example_runs():
    readme = ROOT / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    # 9_37 at n = 3: four quotient classes, two of them extendable
    lines = out.getvalue().splitlines()
    assert len(lines) == 4
    assert sum(line.endswith("True") for line in lines) == 2


def _readme_cli_examples():
    """{subcommand: (argv, shown output lines)} for each README `sh` block
    that runs dihedral and is followed by a block of its output."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    pairs = re.findall(r"```sh\n(dihedral .*?)```\n\n```\n(.*?)```", text, re.S)
    examples = {}
    for command, shown in pairs:
        argv = shlex.split(command.replace("\\\n", " "))[1:]
        examples[argv[0]] = (argv, shown.splitlines())
    return examples


@pytest.mark.parametrize("command", ["analyze", "twist"])
def test_readme_cli_example_output(command):
    # every shown line matches; a "..." line ends what is shown
    argv, shown = _readme_cli_examples()[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    got = out.getvalue().splitlines()
    cut = next((i for i, line in enumerate(shown) if line.strip() == "..."), None)
    if cut is None:
        assert got == shown
    else:
        assert got[:cut] == shown[:cut]


def test_benchmark_tracer_methods_exist():
    # bench/spans.py wraps these through vars(cls)[meth]; a method that
    # moves off its class breaks `bench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wanted = spans.SPAN_METHODS + spans.COUNT_METHODS
    assert wanted
    missing = [(layer, cls, meth) for layer, cls, meth in wanted
               if meth not in vars(getattr(importlib.import_module(f"dihedral.{layer}"), cls))]
    assert missing == []
