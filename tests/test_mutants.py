"""The mutation driver's sites: tools/mutants.py, loaded by path, lists
one mutant per site and operator of a small module, with the label and
the replacement text its docstring promises, in source order."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# One site of each operator, and sites inside an f-string
SOURCE = '''\
def f(a, b):
    if a:
        a += b
    c = (a < b, a >= b, a > b, a <= b)
    d = (a == b, a != b, a in b, a not in b, a is b, a is not b)
    e = (a - b, a * b, a // b)
    g = (a and b, a or b, not a)
    return f"{a + 1} {a < b}", 7
'''

# (line, text at the site, label, the site's replacement), in line and column order
EXPECTED = [
    (2, "a", "if test -> False", "False"),
    (3, "a += b", "Add -> Sub", "a -= b"),
    (4, "a < b", "Lt -> GtE", "(a >= b)"),
    (4, "a >= b", "GtE -> Lt", "(a < b)"),
    (4, "a > b", "Gt -> LtE", "(a <= b)"),
    (4, "a <= b", "LtE -> Gt", "(a > b)"),
    (5, "a == b", "Eq -> NotEq", "(a != b)"),
    (5, "a != b", "NotEq -> Eq", "(a == b)"),
    (5, "a in b", "In -> NotIn", "(a not in b)"),
    (5, "a not in b", "NotIn -> In", "(a in b)"),
    (5, "a is b", "Is -> IsNot", "(a is not b)"),
    (5, "a is not b", "IsNot -> Is", "(a is b)"),
    (6, "a - b", "Sub -> Add", "(a + b)"),
    (6, "a * b", "Mult -> FloorDiv", "(a // b)"),
    (6, "a // b", "FloorDiv -> Mult", "(a * b)"),
    (7, "a and b", "And -> Or", "(a or b)"),
    (7, "a or b", "Or -> And", "(a and b)"),
    (7, "not a", "drop not", "(a)"),
    (8, "7", "7 -> 8", "(8)"),
]


@pytest.fixture
def found(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    (tmp_path / "small.py").write_text(SOURCE)
    monkeypatch.setattr(mutants, "PACKAGE", tmp_path)
    return mutants.mutants("small")


def test_each_operator_has_its_label_and_replacement(found):
    lines = SOURCE.splitlines(keepends=True)
    want = []
    for line, text, label, new in EXPECTED:
        col = lines[line - 1].index(text)
        mutated = lines[:line - 1] + [lines[line - 1][:col] + new
                                      + lines[line - 1][col + len(text):]] + lines[line:]
        want.append((f"{line}:{col}", label, "".join(mutated).encode()))
    assert found == want


def test_sites_in_order_and_none_inside_the_f_string(found):
    at = [tuple(map(int, site.split(":"))) for site, _, _ in found]
    assert at == sorted(at)
    last = SOURCE.splitlines()[7]
    start, end = last.index('f"'), last.index('",') + 1
    assert [col for line, col in at if line == 8] == [last.index("7")]
    assert not any(start <= col < end for line, col in at if line == 8)
