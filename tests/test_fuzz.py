"""Seeded fuzz of the census readers.

Corpus rows are mutated by bit flips, deep nesting, huge integers,
non-ASCII text, NUL, bare CR and CRLF, and fed to parse_matrix and to
scan. parse_matrix returns a SeifertMatrix or raises ValueError. scan
raises nothing: each row comes back, in input order, as a Report or a
RowError, the same one it gives in a file of its own, and every
unmutated row still gives its Report.
"""

import json
import random
import re

from dihedral import Report, RowError, SeifertMatrix, parse_matrix, render_matrix, scan

FUZZ_SEED = 20261018
PARSE_CASES = 1_500
SCAN_FILES = 24
ROWS_PER_FILE = 12

NON_ASCII = ("\u00e9", "\u00a0", "\u2028", "\x85", "\ufeff", "\ufffd", "\u0663", "\uff11", "\U0001f600")


def _forms(v):
    """The brace, JSON and whitespace-grid texts of v."""
    rows = [list(v.matrix.row(i)) for i in range(v.size)]
    return render_matrix(v), json.dumps(rows), "\n".join(" ".join(map(str, r)) for r in rows)


def _insert(rng, b, piece):
    i = rng.randrange(len(b) + 1)
    return b[:i] + piece + b[i:]


def _flip(rng, b):
    """One to three bits flipped, so that bytes may stop being UTF-8."""
    b = bytearray(b)
    for _ in range(rng.randint(1, 3)):
        b[rng.randrange(len(b))] ^= 1 << rng.randrange(8)
    return bytes(b)


def _nest(rng, b):
    k = rng.choice((2, 64, 5_000, 100_000))
    opening, closing = rng.choice(((b"[", b"]"), (b"{", b"}")))
    return opening * k + b + closing * k


def _huge(rng, b):
    """One integer replaced by one of up to 20,000 digits, on either side
    of the 4,300-digit limit of int()."""
    found = list(re.finditer(rb"\d+", b))
    if not found:
        return b + b"9" * 5_000
    m = rng.choice(found)
    k = rng.choice((40, 4_299, 4_301, 20_000))
    digits = rng.choice("123456789") + "".join(rng.choices("0123456789", k=k - 1))
    return b[:m.start()] + digits.encode() + b[m.end():]


def _non_ascii(rng, b):
    return _insert(rng, b, rng.choice(NON_ASCII).encode())


def _nul(rng, b):
    return _insert(rng, b, b"\0")


def _cr(rng, b):
    return _insert(rng, b, b"\r")


def _crlf(rng, b):
    return b.replace(b"\n", b"\r\n") + b"\r\n"


MUTATIONS = (_flip, _nest, _huge, _non_ascii, _nul, _cr, _crlf)


def _mutate(rng, b, mutations=MUTATIONS):
    for _ in range(rng.randint(1, 2)):
        b = rng.choice(mutations)(rng, b)
    return b


def test_parse_matrix_fuzz(corpus):
    rng = random.Random(FUZZ_SEED)
    for _ in range(PARSE_CASES):
        v = rng.choice(corpus)
        text = rng.choice(_forms(v))
        assert parse_matrix(text) == v
        mutated = _mutate(rng, text.encode()).decode("utf-8", "surrogateescape")
        try:
            got = parse_matrix(mutated)
        except ValueError:  # MatrixParseError or SeifertMatrixError
            continue
        assert isinstance(got, SeifertMatrix)


def _csv_field(b):
    return b'"' + b.replace(b'"', b'""') + b'"'


def _csv_record(rng, name, v, mutated):
    """One CSV record. The quoted fields may hold any bytes; a name left
    unquoted only gains inserted text, so the record stays one record."""
    text = rng.choice(_forms(v)).encode()
    if not mutated:
        return name.encode() + b"," + _csv_field(text)
    if rng.random() < 0.3:
        raw = _mutate(rng, name.encode(), (_non_ascii, _nul, _cr))
        return raw + b"," + _csv_field(text)
    if rng.random() < 0.3:
        return _csv_field(_mutate(rng, name.encode())) + b"," + _csv_field(text)
    return name.encode() + b"," + _csv_field(_mutate(rng, text))


def _jsonl_record(rng, name, v, mutated):
    seifert = rng.choice(_forms(v) + ([list(v.matrix.row(i)) for i in range(v.size)],))
    line = json.dumps({"name": name, "seifert": seifert}, ensure_ascii=rng.random() < 0.5)
    line = line.encode()
    return _mutate(rng, line) if mutated else line


def _scan_bytes(path, data):
    path.write_bytes(data)
    out = list(scan(str(path)))
    assert all(type(r) in (Report, RowError) for r in out)
    return out


def _unnumbered(results):
    """results without row numbers, which depend on the rows above: a
    RowError's row, and the name "row N" of a row that names no knot."""
    out = []
    for r in results:
        name = re.sub(r"^row \d+$", "row", r.name)
        if type(r) is RowError:
            out.append(RowError(name, 0, r.error))
        else:
            out.append(Report(name, r.source, r.genus, r.determinant, r.invariant_factors,
                              r.blocks, r.skipped_n, r.xi, r.version, r.conventions))
    return out


def test_scan_fuzz(corpus, tmp_path):
    rng = random.Random(FUZZ_SEED)
    path = tmp_path / "census"
    for f in range(SCAN_FILES):
        csv_format = f % 2 == 0
        knots = rng.sample(range(len(corpus)), ROWS_PER_FILE)
        names = [f"k{j:03d}" for j in knots]
        mutated = [False] + [rng.random() < 0.6 for _ in knots[1:]]
        make = _csv_record if csv_format else _jsonl_record
        records = [make(rng, name, corpus[j], m) for name, j, m in zip(names, knots, mutated)]
        # the header, or the first JSON line, stays intact: it decides the format
        head = b"\xef\xbb\xbf" * rng.randint(0, 1) + (b"name,seifert\n" if csv_format else b"")
        head += records[0] + b"\n"
        if rng.random() < 0.3:
            records = [r.replace(b"\n", b"\r\n") for r in records]
            head = head.replace(b"\n", b"\r\n")
        whole = _scan_bytes(path, head + b"".join(r + b"\n" for r in records[1:]))

        # each row alone after the intact first row: the same results, in order
        alone = _scan_bytes(path, head)
        for r in records[1:]:
            alone += _scan_bytes(path, head + r + b"\n")[1:]
        assert _unnumbered(whole) == _unnumbered(alone)
        rows = [r.row for r in whole if type(r) is RowError]
        assert rows == sorted(set(rows))

        # every row gives at least one result; an unmutated row gives its report
        assert len(whole) >= ROWS_PER_FILE
        reports = {r.name: r for r in whole if type(r) is Report}
        for name, m in zip(names, mutated):
            if not m:
                assert name in reports
