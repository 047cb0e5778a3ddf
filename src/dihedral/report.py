"""End-to-end analysis: reports, census scans, serialization.

A report gathers, per knot, the cover homology, the dihedral quotient
classes with extension verdicts for every odd n > 1 dividing the
determinant, the characteristic classes with their criterion results
and stabilization summaries, and (on the twist family) the xi values
and ribbon verdict.

JSON layout: rationals are {"num": "...", "den": "..."} with decimal
strings; unbounded integers (determinants, invariant factors,
coordinates, form values) are decimal strings; structurally small
integers (n, counts, sizes) are plain numbers. Output is sorted and
fully deterministic.
"""

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata

from .cover import double_cover_homology, linking_form, self_linking
from .errors import EnumerationCapError, MatrixParseError, require_odd
from .exact import ResidueQZ
from .obstruction import (
    DEFAULT_ENUM_CAP,
    characteristic_knot_classes,
    char_knot_to_character,
    quotient_classes,
    seifert_criterion,
    surjective_characters,
    verdict,
)
from .seifert import SeifertMatrix, knot_determinant, stabilize_zero_framed
from .signatures import ribbon_test, twist_xi3

__all__ = [
    "SCHEMA",
    "DEFAULT_N_MAX",
    "KnotRecord",
    "ClassEntry",
    "StabSummary",
    "CharEntry",
    "NBlock",
    "XiBlock",
    "Report",
    "RowError",
    "TwistRow",
    "parse_matrix",
    "render_matrix",
    "analyze",
    "scan",
    "twist_family",
    "render_report_text",
    "render_twist_text",
]

SCHEMA = "dihedral-report/1"
DEFAULT_N_MAX = 99

try:
    VERSION = metadata.version("dihedral")
except metadata.PackageNotFoundError:
    VERSION = "0+unknown"

CONVENTIONS = (
    "linking values are u^T (V + V^T)^{-1} v reduced into [0,1)",
    "torsion generators come from the Smith normal form and are basis-dependent; "
    "counts and verdicts are basis-invariant",
    "a characteristic class is primitive mod n: gcd(entries, n) = 1",
    "stabilization adds four band pairs, mirrored when the form value is negative",
    "xi carries the unresolved sign of sigma(W) as a two-candidate range",
)


@dataclass(frozen=True)
class KnotRecord:
    """A named knot given by a Seifert matrix."""

    name: str
    matrix: SeifertMatrix
    source: str = ""

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("knot record needs a nonempty name")
        if not isinstance(self.matrix, SeifertMatrix):
            raise TypeError("knot record needs a SeifertMatrix")


@dataclass(frozen=True)
class ClassEntry:
    """One dihedral quotient class in a report."""

    representative: tuple
    members: tuple
    self_linking: ResidueQZ
    extends: bool
    surjective: bool
    scope: tuple


@dataclass(frozen=True)
class StabSummary:
    """How a characteristic class was (or was not) zero-framed."""

    status: str  # "already-zero-framed" | "stabilized" | "not-zero-framable"
    new_size: int
    squares: tuple
    flipped_sign: bool
    stabilized_class: tuple


@dataclass(frozen=True)
class CharEntry:
    """One characteristic class in a report."""

    beta: tuple
    form_value_mod_n2: int
    passes_criterion: bool
    zero_framed_exists: bool
    stabilization: StabSummary


@dataclass(frozen=True)
class NBlock:
    """Everything the report says about one dihedral order n."""

    n: int
    characters_enumerated: bool
    character_note: str
    quotient_class_count: object
    extendable_class_count: object
    classes: tuple
    char_classes_enumerated: bool
    char_class_note: str
    char_classes: tuple


@dataclass(frozen=True)
class XiBlock:
    """xi and ribbon data, attached when the knot is a twist-family member."""

    n: int
    twist_parameter: int
    candidates: tuple
    linking_term: Fraction
    signature_sum: int
    sigma_w_range: tuple
    rank_h1_cover: int
    ribbon: str


@dataclass(frozen=True)
class Report:
    """The full analysis of one knot."""

    name: str
    source: str
    genus: int
    determinant: int
    invariant_factors: tuple
    blocks: tuple
    skipped_n: tuple
    xi: object
    version: str = VERSION
    conventions: tuple = CONVENTIONS

    def to_dict(self):
        return {
            "schema": SCHEMA,
            "version": self.version,
            "name": self.name,
            "source": self.source,
            "genus": self.genus,
            "determinant": str(self.determinant),
            "invariant_factors": [str(x) for x in self.invariant_factors],
            "conventions": list(self.conventions),
            "skipped_n": list(self.skipped_n),
            "quotients": [_nblock_dict(b) for b in self.blocks],
            "xi": _xi_dict(self.xi) if self.xi is not None else None,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class RowError:
    """A census row that could not be processed; scanning continues."""

    name: str
    row: int
    error: str

    def to_dict(self):
        return {"schema": SCHEMA, "name": self.name, "row": self.row, "error": self.error}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class TwistRow:
    """One twist-family member in a family sweep."""

    m: int
    determinant: int
    quotient_exists: bool
    extends: object
    xi_candidates: object
    ribbon: object

    def to_dict(self):
        return {
            "m": self.m,
            "determinant": str(self.determinant),
            "quotient_exists": self.quotient_exists,
            "extends": self.extends,
            "xi_candidates": None if self.xi_candidates is None
            else [_fraction_dict(c) for c in self.xi_candidates],
            "ribbon": self.ribbon,
        }


def _fraction_dict(q):
    f = Fraction(q)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _residue_dict(r):
    return _fraction_dict(r.value)


def _nblock_dict(b):
    return {
        "n": b.n,
        "characters_enumerated": b.characters_enumerated,
        "character_note": b.character_note,
        "quotient_class_count": b.quotient_class_count,
        "extendable_class_count": b.extendable_class_count,
        "classes": [
            {
                "representative": [str(x) for x in c.representative],
                "members": [[str(x) for x in m] for m in c.members],
                "self_linking": _residue_dict(c.self_linking),
                "extends": c.extends,
                "surjective": c.surjective,
                "scope": list(c.scope),
            }
            for c in b.classes
        ],
        "characteristic_classes_enumerated": b.char_classes_enumerated,
        "characteristic_class_note": b.char_class_note,
        "characteristic_classes": [
            {
                "beta": [str(x) for x in e.beta],
                "form_value_mod_n2": str(e.form_value_mod_n2),
                "passes_criterion": e.passes_criterion,
                "zero_framed_exists": e.zero_framed_exists,
                "stabilization": {
                    "status": e.stabilization.status,
                    "new_size": e.stabilization.new_size,
                    "squares": [str(x) for x in e.stabilization.squares],
                    "flipped_sign": e.stabilization.flipped_sign,
                    "stabilized_class": [str(x) for x in e.stabilization.stabilized_class],
                },
            }
            for e in b.char_classes
        ],
    }


def _xi_dict(x):
    return {
        "n": x.n,
        "twist_parameter": str(x.twist_parameter),
        "candidates": [_fraction_dict(c) for c in x.candidates],
        "linking_term": _fraction_dict(x.linking_term),
        "signature_sum": x.signature_sum,
        "sigma_w_range": list(x.sigma_w_range),
        "rank_h1_cover": x.rank_h1_cover,
        "ribbon": x.ribbon,
    }


def parse_matrix(text):
    """Parse matrix text in brace, JSON, or whitespace-grid form.

    Accepted: {{-1,1},{0,2}}, [[-1,1],[0,2]], or one row per line with
    whitespace-separated integers. Errors carry position information.
    """
    if not isinstance(text, str):
        raise MatrixParseError(f"matrix text must be a string, got {type(text).__name__}")
    s = text.strip()
    if not s:
        raise MatrixParseError("empty matrix text")
    if s.startswith("{"):
        allowed = set("{},+-0123456789 \t\r\n")
        for pos, ch in enumerate(s):
            if ch not in allowed:
                raise MatrixParseError(f"unexpected character {ch!r} at position {pos}")
        data = _load_json_matrix(s.replace("{", "[").replace("}", "]"))
    elif s.startswith("["):
        data = _load_json_matrix(s)
    else:
        data = []
        for ln, line in enumerate(s.splitlines(), start=1):
            if not line.strip():
                continue
            row = []
            for col, tok in enumerate(line.split(), start=1):
                try:
                    row.append(int(tok, 10))
                except ValueError:
                    raise MatrixParseError(
                        f"line {ln}, entry {col}: not an integer: {tok!r}"
                    ) from None
            data.append(row)
    return SeifertMatrix(_validated_rows(data))


def _load_json_matrix(s):
    try:
        return json.loads(s)
    except json.JSONDecodeError as e:
        raise MatrixParseError(f"malformed matrix at position {e.pos}: {e.msg}") from None


def _validated_rows(data):
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise MatrixParseError("expected a list of rows")
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, int):
                raise MatrixParseError(f"row {i}, column {j}: not an integer: {x!r}")
    widths = {len(r) for r in data}
    if len(widths) > 1:
        for i, row in enumerate(data):
            if len(row) != len(data[0]):
                raise MatrixParseError(
                    f"row {i} has {len(row)} entries, expected {len(data[0])}"
                )
    return data


def render_matrix(v):
    """Brace form of a Seifert matrix; inverse of parse_matrix."""
    if not isinstance(v, SeifertMatrix):
        raise TypeError("render_matrix expects a SeifertMatrix")
    if v.size == 0:
        return "{}"
    rows = ",".join("{" + ",".join(str(x) for x in v.matrix.row(i)) + "}"
                    for i in range(v.size))
    return "{" + rows + "}"


def _class_entry(form, qc):
    rep = qc.representative
    vd = verdict(form, rep)
    return ClassEntry(
        representative=rep.c.coords,
        members=tuple(ch.c.coords for ch in qc.members),
        self_linking=vd.self_linking,
        extends=vd.extends,
        surjective=vd.surjective,
        scope=vd.scope_note,
    )


def _char_entry(v, ck):
    n = ck.n
    value = ck.form_value()
    passes = seifert_criterion(v, ck)
    if passes:
        stab = stabilize_zero_framed(v, ck.as_surface_class(), n)
        if stab.blocks_added == 0:
            summary = StabSummary("already-zero-framed", v.size, (), False, ck.beta)
        else:
            summary = StabSummary("stabilized", stab.matrix.size, stab.squares,
                                  stab.flipped_sign, stab.cls.coords)
    else:
        summary = StabSummary("not-zero-framable", v.size, (), False, ())
    return CharEntry(
        beta=ck.beta,
        form_value_mod_n2=value % (n * n),
        passes_criterion=passes,
        zero_framed_exists=passes,  # the same criterion as seifert_criterion
        stabilization=summary,
    )


def _analyze_n(v, group, form, n, enum_cap):
    try:
        chars = surjective_characters(group, form, n, enum_cap=enum_cap)
        classes = quotient_classes(chars, n)
        entries = tuple(_class_entry(form, qc) for qc in classes)
        class_count = len(classes)
        extendable = sum(1 for qc in classes if qc.extends)
        enumerated = True
        note = ""
    except EnumerationCapError as e:
        chars = None
        entries = ()
        class_count = None
        extendable = None
        enumerated = False
        note = f"not enumerated: {e}"

    try:
        cks = characteristic_knot_classes(v, n, enum_cap=enum_cap)
        ck_entries = tuple(_char_entry(v, ck) for ck in cks)
        ck_enumerated = True
        ck_note = ""
    except EnumerationCapError as e:
        cks = None
        ck_entries = ()
        ck_enumerated = False
        ck_note = f"not enumerated: {e}"

    # the two routes must agree whenever both ran to completion
    if chars is not None and cks is not None:
        if len(cks) != len(chars):
            raise ArithmeticError(
                f"{len(cks)} characteristic classes but {len(chars)} characters at n={n}"
            )
        if any(e.passes_criterion for e in ck_entries) != any(e.extends for e in entries):
            raise ArithmeticError(f"extension routes disagree at n={n}")

    return NBlock(
        n=n,
        characters_enumerated=enumerated,
        character_note=note,
        quotient_class_count=class_count,
        extendable_class_count=extendable,
        classes=entries,
        char_classes_enumerated=ck_enumerated,
        char_class_note=ck_note,
        char_classes=ck_entries,
    )


def _twist_parameter(v):
    """The twist parameter when the matrix is literally the family template."""
    if v.size != 2:
        return None
    m = v.matrix
    if m.row(0) == (-1, 1) and m[1, 0] == 0:
        return m[1, 1]
    return None


def analyze(record, n_values=None, *, n_max=DEFAULT_N_MAX, enum_cap=DEFAULT_ENUM_CAP):
    """Full report for one knot.

    Without n_values, every odd n with 1 < n <= n_max dividing the
    determinant gets a block. With an explicit list, even entries are
    rejected outright and odd entries not dividing the determinant are
    recorded under skipped_n.
    """
    if isinstance(record, SeifertMatrix):
        record = KnotRecord("knot", record)
    if not isinstance(record, KnotRecord):
        raise TypeError("analyze expects a KnotRecord or a SeifertMatrix")
    v = record.matrix
    d = knot_determinant(v)
    group = double_cover_homology(v)
    form = linking_form(group)

    skipped = ()
    if n_values is None:
        ns = [n for n in range(3, n_max + 1, 2) if d % n == 0]
    else:
        wanted = []
        for n in n_values:
            require_odd(n)
            if n <= 1:
                raise ValueError(f"dihedral order must be > 1, got {n}")
            wanted.append(n)
        wanted = sorted(set(wanted))
        ns = [n for n in wanted if d % n == 0]
        skipped = tuple(n for n in wanted if d % n != 0)

    blocks = tuple(_analyze_n(v, group, form, n, enum_cap) for n in ns)

    xi = None
    m = _twist_parameter(v)
    if m is not None and m % 3 == 2:
        val = twist_xi3(m)
        xi = XiBlock(
            n=3,
            twist_parameter=m,
            candidates=val.candidates,
            linking_term=val.linking_term,
            signature_sum=val.signature_sum,
            sigma_w_range=val.sigma_w_range,
            rank_h1_cover=0,
            ribbon=ribbon_test(val, 0, 3),
        )

    return Report(
        name=record.name,
        source=record.source,
        genus=v.genus,
        determinant=d,
        invariant_factors=group.invariant_factors,
        blocks=blocks,
        skipped_n=skipped,
        xi=xi,
    )


def _census_rows(text, source):
    """Parse census text into (row_number, name, matrix-or-RowError)."""
    lines = text.splitlines()
    first = next((ln for ln in lines if ln.strip()), "")
    rows = []
    if not first:
        return rows
    if first.lstrip().startswith("{"):
        for i, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            name = f"row {i}"
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise MatrixParseError("census line is not a JSON object")
                name = obj.get("name") or name
                if "seifert" not in obj:
                    raise MatrixParseError("census line has no seifert field")
                raw = obj["seifert"]
                if isinstance(raw, str):
                    v = parse_matrix(raw)
                elif isinstance(raw, list):
                    v = SeifertMatrix(_validated_rows(raw))
                else:
                    raise MatrixParseError("seifert field must be a string or a list")
                rows.append((i, name, KnotRecord(str(name), v, source=source)))
            except json.JSONDecodeError as e:
                rows.append((i, name, RowError(str(name), i, f"malformed JSON: {e.msg}")))
            except (MatrixParseError, ValueError, TypeError) as e:
                rows.append((i, name, RowError(str(name), i, str(e))))
        return rows

    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise MatrixParseError("census file is empty") from None
    if [h.strip().lower() for h in header] != ["name", "seifert"]:
        raise MatrixParseError(
            f"census header must be name,seifert; got {','.join(header)!r}"
        )
    for i, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        name = row[0].strip() if row and row[0].strip() else f"row {i}"
        try:
            if len(row) != 2:
                raise MatrixParseError(f"expected 2 columns, got {len(row)}")
            v = parse_matrix(row[1])
            rows.append((i, name, KnotRecord(name, v, source=source)))
        except (MatrixParseError, ValueError, TypeError) as e:
            rows.append((i, name, RowError(name, i, str(e))))
    return rows


def scan(path, *, jobs=1, n_max=DEFAULT_N_MAX, enum_cap=DEFAULT_ENUM_CAP):
    """Analyze a census file (CSV with a name,seifert header, or JSON
    lines with name and seifert fields), yielding one Report or
    RowError per row in input order. A bad row never stops the scan.
    jobs below 1 is rejected with ValueError.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    rows = _census_rows(text, source=str(path))

    def run(item):
        i, name, payload = item
        if isinstance(payload, RowError):
            return payload
        try:
            return analyze(payload, n_max=n_max, enum_cap=enum_cap)
        except Exception as e:  # isolate the row, keep scanning
            return RowError(name, i, str(e))

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(run, rows)
    else:
        yield from map(run, rows)


def twist_family(m_first, m_last, *, enum_cap=DEFAULT_ENUM_CAP):
    """Sweep the twist family over an inclusive parameter range.

    Each row records the determinant, whether an order-3 dihedral
    quotient exists, whether it extends, and the xi candidates with
    the ribbon verdict. Both extension routes are run and must agree.
    """
    if not isinstance(m_first, int) or not isinstance(m_last, int):
        raise TypeError("twist range endpoints must be integers")
    if m_first > m_last:
        raise ValueError(f"empty twist range: {m_first} > {m_last}")
    from .seifert import twist_knot

    out = []
    for m in range(m_first, m_last + 1):
        v = twist_knot(m)
        d = knot_determinant(v)
        cks = characteristic_knot_classes(v, 3, enum_cap=enum_cap)
        exists = bool(cks)
        extends = None
        candidates = None
        ribbon = None
        if exists:
            extends = any(seifert_criterion(v, ck) for ck in cks)
            group = double_cover_homology(v)
            form = linking_form(group)
            by_chars = any(
                self_linking(form, char_knot_to_character(v, ck, form).c).is_zero
                for ck in cks
            )
            if by_chars != extends:
                raise ArithmeticError(f"extension routes disagree at m={m}")
            val = twist_xi3(m)
            candidates = val.candidates
            ribbon = ribbon_test(val, 0, 3)
        out.append(TwistRow(m, d, exists, extends, candidates, ribbon))
    return tuple(out)


def render_report_text(r):
    """Plain-text layout of a report."""
    lines = [f"knot: {r.name}"]
    if r.source:
        lines.append(f"source: {r.source}")
    lines.append(f"genus: {r.genus}")
    lines.append(f"determinant: {r.determinant}")
    if r.invariant_factors:
        lines.append("torsion: " + " x ".join(f"Z{d}" for d in r.invariant_factors))
    else:
        lines.append("torsion: trivial")
    if r.skipped_n:
        lines.append("skipped n (not dividing the determinant): "
                     + ", ".join(str(n) for n in r.skipped_n))
    for b in r.blocks:
        lines.append("")
        if b.characters_enumerated:
            lines.append(f"n = {b.n}: {b.quotient_class_count} quotient classes, "
                         f"{b.extendable_class_count} extendable")
            for idx, c in enumerate(b.classes, start=1):
                rep = ", ".join(str(x) for x in c.representative)
                lines.append(f"  class {idx}: rep ({rep})  lk = {c.self_linking}  "
                             f"extends: {'yes' if c.extends else 'no'}")
                lines.append(f"    scope: {', '.join(c.scope)}")
        else:
            lines.append(f"n = {b.n}: {b.character_note}")
        if b.char_classes_enumerated:
            lines.append(f"  characteristic classes mod {b.n}: {len(b.char_classes)}")
            for e in b.char_classes:
                beta = ", ".join(str(x) for x in e.beta)
                lines.append(f"    beta ({beta})  value mod n^2 = {e.form_value_mod_n2}  "
                             f"criterion: {'pass' if e.passes_criterion else 'fail'}  "
                             f"stabilization: {e.stabilization.status}")
        else:
            lines.append(f"  characteristic classes mod {b.n}: {b.char_class_note}")
    if r.xi is not None:
        x = r.xi
        lines.append("")
        cand = " or ".join(str(c) for c in x.candidates)
        lines.append(f"xi_{x.n} (twist m = {x.twist_parameter}): {cand}")
        lines.append(f"  linking term {x.linking_term}, signatures {x.signature_sum}, "
                     f"sigma(W) in {list(x.sigma_w_range)}")
        lines.append(f"  ribbon: {x.ribbon}")
    return "\n".join(lines)


def render_twist_text(rows):
    """Plain-text table of a twist-family sweep."""
    lines = ["m  determinant  quotient  extends  xi  ribbon"]
    for r in rows:
        cand = "-" if r.xi_candidates is None else " or ".join(str(c) for c in r.xi_candidates)
        lines.append(
            f"{r.m}  {r.determinant}  "
            f"{'yes' if r.quotient_exists else 'no'}  "
            f"{'-' if r.extends is None else ('yes' if r.extends else 'no')}  "
            f"{cand}  {r.ribbon or '-'}"
        )
    return "\n".join(lines)
