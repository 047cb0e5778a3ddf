"""End-to-end analysis: reports, census scans, serialization.

A report gathers, per knot, the cover homology, the dihedral quotient
classes with extension verdicts for every odd n > 1 dividing the
determinant, the characteristic classes with their criterion results
and stabilization summaries, and (on the twist family) the xi values
and ribbon verdict.

JSON layout: one writer, _write_json, writes every JSON document in the
json.dumps(indent=2, sort_keys=True) layout. Each report record class
declares its layout once, in _json: per key, the field it reads and its
kind (bool, number, decimal, str, rational, ints, numbers, strs,
members, rationals, a record class, or a list of one), which picks the
function that writes it; nothing about a value is inferred but None,
written as null. A record in a field is written where it stands; a long
list of per-class records or twist rows goes in slices of _SLICE, each
key's column at once into a class template (a record once per distinct
object). Other dicts and lists are written by their values' types. The
text goes to a write function in parts of bounded size. A number is a
JSON number, a decimal a decimal string, a rational {"num": "...",
"den": "..."} with decimal strings. Output is fully deterministic.
"""

import functools
import itertools
import math
import sys
from operator import attrgetter

try:  # the C function json.encoder uses, without loading json's decoder
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without the accelerator
    from json.encoder import encode_basestring_ascii

from . import __version__
from .cover import double_cover_homology, linking_form
from .errors import (DivisorSearchError, EnumerationCapError, MatrixParseError, _check_int,
                     _Record, _setattr, integer, require_dihedral_order, require_printable)
from .exact import ResidueQZ, _derived
from .obstruction import DEFAULT_ENUM_CAP, _SCOPES, _enum_cap, _extension_walk, _form_value
from .obstruction import surjective_characters  # noqa: F401  (bench/spans.py rebinds it here)
from .seifert import SeifertMatrix, _zero_framing, knot_determinant, twist_knot
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
# The largest trial divisor of the determinant auto mode tries (about 0.3 s)
_DIVISOR_SEARCH = 10**7

CONVENTIONS = (
    "linking values are u^T (V + V^T)^{-1} v reduced into [0,1)",
    "torsion generators come from the Smith normal form and are basis-dependent; "
    "counts and verdicts are basis-invariant",
    "a characteristic class is primitive mod n: gcd(entries, n) = 1",
    "stabilization adds four band pairs, mirrored when the form value is negative",
    "xi carries the unresolved sign of sigma(W) as a two-candidate range",
)


def _keys(**keys):
    """A record class's JSON layout, stated in its body: (key, field, kind)
    per JSON key, from key=kind where the key is the field's name, and
    key=(field, kind) where it is not (a renamed field, or a key that is
    no field of its own). A kind is one of _TYPES, a record class, or
    [cls] for a sequence of records of class cls."""
    return tuple((k, *v) if type(v) is tuple else (k, k, v) for k, v in keys.items())


class KnotRecord(_Record):
    """A named knot given by a Seifert matrix."""

    __slots__ = _fields = ("name", "matrix", "source")

    def __init__(self, name, matrix, source=""):  # checks its fields, so not shared
        _setattr(self, "name", name)
        _setattr(self, "matrix", matrix)
        _setattr(self, "source", source)
        if not isinstance(name, str) or not name:
            raise ValueError("knot record needs a nonempty name")
        if not isinstance(matrix, SeifertMatrix):
            raise TypeError("knot record needs a SeifertMatrix")


class ClassEntry(_Record):
    """One dihedral quotient class in a report."""

    __slots__ = _fields = ("representative", "members", "self_linking", "extends",
                           "surjective", "scope")
    _json = _keys(representative="ints", members="members", self_linking="rational",
                  extends="bool", surjective="bool", scope="strs")

    # built once per class on the report path, where a per-class __init__ is quicker
    def __init__(self, representative, members, self_linking, extends, surjective, scope):
        _setattr(self, "representative", representative)
        _setattr(self, "members", members)
        _setattr(self, "self_linking", self_linking)
        _setattr(self, "extends", extends)
        _setattr(self, "surjective", surjective)
        _setattr(self, "scope", scope)


class StabSummary(_Record):
    """How a characteristic class was (or was not) zero-framed; status is
    "already-zero-framed", "stabilized" or "not-zero-framable"."""

    __slots__ = _fields = ("status", "new_size", "squares", "flipped_sign", "stabilized_class")
    _json = _keys(status="str", new_size="number", squares="ints", flipped_sign="bool",
                  stabilized_class="ints")

    # built once per class on the report path, where a per-class __init__ is quicker
    def __init__(self, status, new_size, squares, flipped_sign, stabilized_class):
        _setattr(self, "status", status)
        _setattr(self, "new_size", new_size)
        _setattr(self, "squares", squares)
        _setattr(self, "flipped_sign", flipped_sign)
        _setattr(self, "stabilized_class", stabilized_class)


class CharEntry(_Record):
    """One characteristic class in a report."""

    __slots__ = _fields = ("beta", "form_value_mod_n2", "passes_criterion", "stabilization")
    # a class is zero-framable after stabilization exactly when it passes the criterion
    _json = _keys(beta="ints", form_value_mod_n2="decimal", passes_criterion="bool",
                  stabilization=StabSummary, zero_framed_exists=("passes_criterion", "bool"))

    # built once per class on the report path, where a per-class __init__ is quicker
    def __init__(self, beta, form_value_mod_n2, passes_criterion, stabilization):
        _setattr(self, "beta", beta)
        _setattr(self, "form_value_mod_n2", form_value_mod_n2)
        _setattr(self, "passes_criterion", passes_criterion)
        _setattr(self, "stabilization", stabilization)


class NBlock(_Record):
    """Everything the report says about one dihedral order n."""

    __slots__ = _fields = ("n", "characters_enumerated", "character_note",
                           "quotient_class_count", "extendable_class_count", "classes",
                           "char_classes_enumerated", "char_class_note", "char_classes")
    _json = _keys(n="number", characters_enumerated="bool", character_note="str",
                  quotient_class_count="number", extendable_class_count="number",
                  classes=[ClassEntry],
                  characteristic_classes_enumerated=("char_classes_enumerated", "bool"),
                  characteristic_class_note=("char_class_note", "str"),
                  characteristic_classes=("char_classes", [CharEntry]))


class XiBlock(_Record):
    """xi and ribbon data, attached when the knot is a twist-family member."""

    __slots__ = _fields = ("n", "twist_parameter", "candidates", "linking_term",
                           "signature_sum", "sigma_w_range", "rank_h1_cover", "ribbon")
    _json = _keys(n="number", twist_parameter="decimal", candidates="rationals",
                  linking_term="rational", signature_sum="number", sigma_w_range="numbers",
                  rank_h1_cover="number", ribbon="str")


class Report(_Record):
    """The full analysis of one knot."""

    __slots__ = _fields = ("name", "source", "genus", "determinant", "invariant_factors",
                           "blocks", "skipped_n", "xi", "version", "conventions")
    _json = _keys(name="str", source="str", genus="number", determinant="decimal",
                  invariant_factors="ints", quotients=("blocks", [NBlock]),
                  skipped_n="numbers", xi=XiBlock, version="str", conventions="strs",
                  schema=("schema", "str"))

    _defaults = {"version": __version__, "conventions": CONVENTIONS}
    schema = SCHEMA

    def to_dict(self):
        import json  # only what reads JSON text loads it

        return json.loads(self.to_json())

    def to_json(self):
        return _to_json(self)


class RowError(_Record):
    """A census row that could not be processed; scanning continues."""

    __slots__ = _fields = ("name", "row", "error")
    _json = _keys(name="str", row="number", error="str", schema=("schema", "str"))

    schema = SCHEMA
    # in the class body, so that bench/spans.py can wrap each one in vars(RowError)
    __init__ = _Record.__init__
    to_dict = Report.to_dict
    to_json = Report.to_json


class TwistRow(_Record):
    """One twist-family member in a family sweep."""

    __slots__ = _fields = ("m", "determinant", "quotient_exists", "extends", "xi_candidates",
                           "ribbon")
    _json = _keys(m="number", determinant="decimal", quotient_exists="bool", extends="bool",
                  xi_candidates="rationals", ribbon="str")


# The types a value of each leaf kind has: "ints" are written as decimal
# strings, "numbers" as numbers. _off_kind takes a Fraction as a rational.
_TYPES = {"bool": frozenset({bool}), "number": frozenset({int}), "decimal": frozenset({int}),
          "str": frozenset({str}), "rational": frozenset({ResidueQZ}),
          **dict.fromkeys(("ints", "numbers", "strs", "members", "rationals"), frozenset({tuple}))}
# The kinds whose leaf declines past _PART items, which go one by one
_LONG = ("members", "rationals")
# The record classes with a layout; a dict (the twist and charknots
# documents) writes the integers under their number keys as numbers too
_RECORDS = (Report, RowError, NBlock, ClassEntry, CharEntry, StabSummary, XiBlock, TwistRow)
_NUMBER_KEYS = frozenset(key for cls in _RECORDS for key, _, kind in cls._json
                         if kind in ("number", "numbers"))
# The leaf kind of a value outside any record, by its type: an int under
# a number key is a number, and a type not here a rational
_GENERIC = {bool: "bool", int: "decimal", str: "str"}

# Fragments _write_json gathers before it hands them to write as one part.
_PART = 1024
# Records per slice of a list written from its class's template.
_SLICE = 64
# The record classes whose lists are written from templates: the per-class
# records and the twist sweep's rows, whose fields hold leaves or one
# StabSummary, never a list of records. _SHORT is the shortest list written
# in slices: the slice path pays a fixed cost per column, and from this
# length it writes a list of each class about as fast as the record path
# or faster. A shorter list goes record by record.
_SHORT = 6
_SLICED = frozenset({ClassEntry, CharEntry, TwistRow})


def _off_kind(cls, field, kind, odd):
    """Whether None is among odd, the types of the values of cls's field
    that are not its kind's. TypeError naming cls and field for any other
    type, unless the kind is rational and the type has a denominator and
    is not an int (Fraction)."""
    bad = odd - {type(None)}
    if kind == "rational":
        bad = {t for t in bad if issubclass(t, int) or not hasattr(t, "denominator")}
    if bad:
        want = f"a tuple of {kind[0].__name__}" if type(kind) is list else getattr(
            kind, "__name__", kind)
        raise TypeError(f"{cls.__qualname__}.{field} holds {min(t.__name__ for t in bad)}, "
                        f"not {want}")
    return type(None) in odd


class _Decimals(dict):
    """The decimal text of an int, in quotes or not. The text of an int
    in [-1024, 1024) is kept once made: a lookup takes about a fifth of
    the time of str(), and over 96% of the ints a report or census
    document holds lie there (all but one of 9_37#9_37's 34,125)."""

    def __init__(self, quote):
        self.quote = quote

    def __missing__(self, i):
        text = f"{self.quote}{i}{self.quote}"
        if -1024 <= i < 1024:
            self[i] = text
        return text


_DIGITS, _QUOTED = _Decimals(""), _Decimals('"')


@functools.cache
def _layout(cls, nl):
    """(head, getter, types, leaf, kind, field) per JSON key of a record
    of cls whose closing brace starts with nl, in key order, from
    cls._json. A head holds the brace or comma, the line break and
    indent, and the quoted key with its colon; types are those of the
    key's kind, and leaf is its _leaves function (None for a record)."""
    inner = nl + "  "
    return tuple((("," if i else "{") + inner + encode_basestring_ascii(key) + ": ",
                  attrgetter(field),
                  _TYPES[kind] if type(kind) is str else frozenset(
                      {tuple if type(kind) is list else kind}),
                  _leaves(inner)[kind] if type(kind) is str else None, kind, field)
                 for i, (key, field, kind) in enumerate(sorted(cls._json)))


@functools.cache
def _template(cls, nl):
    """The text of a record of cls whose closing brace starts with nl,
    given the tuple of the texts of its keys' values in key order (a
    %-format: about 0.6 of the time of str.format on these records)."""
    text = "".join(head + "\0" for head, *_ in _layout(cls, nl)) + nl + "}"
    return text.replace("%", "%%").replace("\0", "%s").__mod__


@functools.cache
def _leaves(nl):
    """The function writing a value of each leaf kind (the keys of
    _TYPES) whose closing bracket starts with nl. The record path takes
    one value through these and the slice path a column, so each kind is
    written in one place. "members" and "rationals" give None past _PART
    items."""
    inner, digits, comma = nl + "  ", _DIGITS.__getitem__, "," + nl + "  "

    def bounds(at, q):  # open, separator, close of a nonempty list of ints ending at at
        return f"[{at}  {q}", f"{q},{at}  {q}", f"{q}{at}]"

    def ints(q):
        head, sep, tail = bounds(nl, q)
        return lambda x: head + sep.join(map(digits, x)) + tail if x else "[]"

    def rational(x):
        return f'{{{inner}"den": "{x.denominator}",{inner}"num": "{x.numerator}"{nl}}}'

    def strs(x):
        return "[" + inner + comma.join(map(encode_basestring_ascii, x)) + nl + "]" if x else "[]"

    scopes = {id(x): strs(x) for x in _SCOPES.values()}  # a ClassEntry's scope is one of these

    head, sep, tail = bounds(inner, '"')
    between = f"{tail},{inner}{head}"

    def members(x):
        if len(x) > _PART:
            return None
        rows = between.join([sep.join(map(digits, m)) for m in x])
        return "[" + inner + head + rows + tail + nl + "]" if x else "[]"

    def rationals(x):
        if len(x) > _PART:
            return None
        item = _leaves(inner)["rational"]
        return "[" + inner + comma.join(map(item, x)) + nl + "]" if x else "[]"

    return {"bool": {True: "true", False: "false"}.__getitem__, "number": digits,
            "decimal": _QUOTED.__getitem__, "str": encode_basestring_ascii, "rational": rational,
            "ints": ints('"'), "numbers": ints(""), "members": members,
            "strs": lambda x: scopes.get(id(x)) or strs(x),
            "rationals": rationals}


def _rows(recs, nl):
    """The text of each record of recs, all of one class in _SLICED or
    StabSummary, whose closing braces start with nl: each key's column is
    taken in one map, its type set checked against the key's kind, written
    by the kind's leaf (a column mixing None with values value by value, a
    column of records once per distinct object), and the columns fill the
    class's _template. None when a column holds records among None, or
    over _PART members or rationals: the record path writes those."""
    cls = type(recs[0])
    if {*map(type, recs)} != {cls}:
        return None
    cols = []
    for _, get, types, leaf, kind, field in _layout(cls, nl):
        col = [*map(get, recs)]
        got = {*map(type, col)}
        mixed = not got <= types and _off_kind(cls, field, kind, got - types)  # None among values
        if mixed and leaf is None or kind in _LONG and sum(map(len, filter(None, col))) > _PART:
            return None
        if mixed:
            cols.append(["null" if v is None else leaf(v) for v in col])
        elif leaf is None:
            distinct = dict(zip(map(id, col), col))
            # StabSummary, the one record a field holds, has only short leaves
            texts = _rows([*distinct.values()], nl + "  ")
            cols.append(map(dict(zip(distinct, texts)).__getitem__, map(id, col)))
        else:
            cols.append(map(leaf, col))
    return [*map(_template(cls, nl), zip(*cols))]


def _write_json(x, write):
    """Write the text json.dumps(doc, indent=2, sort_keys=True) gives for
    the document of x, in parts. A record's fields are written by the
    leaves of their declared kinds, None as null; dicts, lists and tuples
    outside records, and their items, by their types: an int is a number
    under _NUMBER_KEYS, and a type outside _GENERIC a rational.

    A list of at least _SHORT records of one class in _SLICED is written
    in slices of _SLICE records by _rows, a part ending after each full
    slice; a slice _rows declines goes record by record. Elsewhere a part
    ends at a list item once _PART fragments are waiting, so the text
    held at once stays bounded. The record path writes a record held in
    a field where it stands; _rows writes it once per slice for each
    distinct object (a block's failing classes share one StabSummary)."""
    out = []
    put = out.append

    def flush():
        write("".join(out))
        out.clear()

    def value(x, nl, numeric):  # a value outside any record's fields
        t = type(x)
        if t in _RECORDS:
            record(x, nl)
        elif x is None:
            put("null")
        elif t is dict:
            inner, sep = nl + "  ", "{"
            for k, v in sorted(x.items()):
                put(sep + inner + encode_basestring_ascii(k) + ": ")
                value(v, inner, k in _NUMBER_KEYS)
                sep = ","
            put(nl + "}" if x else "{}")
        elif (t is tuple or t is list) and x:
            sequence(x, nl, numeric)
        elif t is tuple or t is list:
            put("[]")
        else:
            put(_leaves(nl)["number" if numeric and t is int else _GENERIC.get(t, "rational")](x))

    def sequence(x, nl, numeric):  # a nonempty list
        inner = nl + "  "
        if len(x) >= _SHORT and type(x[0]) in _SLICED:
            for i in range(0, len(x), _SLICE):
                chunk = x[i:i + _SLICE]
                texts = _rows(chunk, inner)
                if texts is None:
                    items(chunk, "," if i else "[", inner, numeric)
                    continue
                put(("," if i else "[") + inner + f",{inner}".join(texts))
                if len(chunk) == _SLICE:
                    flush()
        else:
            items(x, "[", inner, numeric)
        put(nl + "]")

    def items(x, sep, nl, numeric):  # list items one by one, the first after sep
        for v in x:
            put(sep + nl)
            value(v, nl, numeric)
            sep = ","
            if len(out) > _PART:
                flush()

    def record(x, nl):
        inner = nl + "  "
        for head, get, types, leaf, kind, field in _layout(type(x), nl):
            v = get(x)
            if type(v) not in types and _off_kind(type(x), field, kind, {type(v)}):
                put(head + "null")
            elif leaf is not None and (text := leaf(v)) is not None:
                put(head + text)
            else:  # a long sequence, a record or a list of records
                put(head)
                value(v, inner, False)
        put(nl + "}")

    value(x, "\n", False)
    write("".join(out))


def _to_json(x):
    """The JSON text of x, as _write_json writes it, in one string."""
    parts = []
    _write_json(x, parts.append)
    return "".join(parts)


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
        allowed = set("{},-0123456789 \t\r\n")
        for pos, ch in enumerate(s):
            if ch not in allowed:
                raise MatrixParseError(f"unexpected character {ch!r} at position {pos}")
        data = _brace_rows(s)
        if data is not None:
            return SeifertMatrix(_validated_matrix(data))
        s = s.replace("{", "[").replace("}", "]")  # malformed: the JSON decoder says where
    if s.startswith("["):
        data = _json_loads(s, lambda e: f"malformed matrix at position {e.pos}: {e.msg}")
    else:
        data = []
        for ln, line in enumerate(s.split("\n"), start=1):
            if not line.strip():
                continue
            row = []
            for col, tok in enumerate(line.split(), start=1):
                try:
                    row.append(integer(tok))
                except ValueError:
                    raise MatrixParseError(f"line {ln}, entry {col}: {_bad_token(tok)}") from None
            data.append(row)
    return SeifertMatrix(_validated_matrix(data))


# Brace matrix text with every mark that can end an integer made a comma
_ENDS = str.maketrans(dict.fromkeys("{} \t\r\n-", ","))


def _brace_rows(s):
    """The rows of brace text that has the shape of a JSON list of lists
    of JSON integers once its braces are brackets, read without the JSON
    decoder; else None. s holds only braces, commas, signs, digits and
    whitespace, starting with a brace."""
    *rows, rest = s[1:-1].split("}")
    marked = s.translate(_ENDS)
    if s[-1] != "}" or rest.strip() or any(f",0{d}" in marked for d in "0123456789"):
        return None  # a JSON integer has no leading zero
    data = []
    try:
        for i, row in enumerate(rows):
            lead, brace, entries = row.partition("{")
            if not brace or lead.strip() != ("," if i else ""):
                return None
            data.append([int(t) for t in entries.split(",")] if entries.strip() else [])
    except ValueError:  # not one integer, or more digits than int() converts
        return None
    return data


def _json_int(tok):
    """The integer of a JSON literal, or the literal itself when it has more
    digits than int() converts, for _validated_matrix to report by row and
    column."""
    try:
        return integer(tok)
    except ValueError:
        return tok


def _json_loads(s, malformed):
    """json.loads for matrix and census text. A decoding error e becomes a
    MatrixParseError saying malformed(e), and nesting too deep for the
    decoder one of its own."""
    import json  # only what reads JSON text loads it

    try:
        return json.loads(s, parse_int=_json_int)
    except json.JSONDecodeError as e:
        raise MatrixParseError(malformed(e)) from None
    except RecursionError:
        raise MatrixParseError("nested too deeply: a matrix is a list of rows of integers") from None


def _bad_token(tok):
    """Why a text token is not a matrix entry: more digits than int()
    converts, or not an integer (echoing at most 24 characters)."""
    digits, limit = tok.lstrip("+-"), sys.get_int_max_str_digits()
    if digits.isascii() and digits.isdecimal() and 0 < limit < len(digits):
        return f"integer has {len(digits)} digits, above the limit of {limit}"
    shown = repr(tok) if len(tok) <= 24 else f"{tok[:24]!r}... ({len(tok)} characters)"
    return f"not an integer: {shown}"


def _validated_matrix(data):
    """The IntMatrix of parsed rows, each entry checked to be an int (not
    a bool) and every row of one width; built from them without
    IntMatrix(rows) checking them again."""
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise MatrixParseError("expected a list of rows")
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            if isinstance(x, (list, dict)):
                raise MatrixParseError(f"row {i}, column {j}: nested deeper than a list of rows")
            if isinstance(x, bool) or not isinstance(x, int):
                why = _bad_token(x) if isinstance(x, str) else f"not an integer: {x!r}"
                raise MatrixParseError(f"row {i}, column {j}: {why}")
    widths = {len(r) for r in data}
    if len(widths) > 1:
        for i, row in enumerate(data):
            if len(row) != len(data[0]):
                raise MatrixParseError(
                    f"row {i} has {len(row)} entries, expected {len(data[0])}"
                )
    return _derived(data)


def render_matrix(v):
    """Brace form of a Seifert matrix; inverse of parse_matrix."""
    if not isinstance(v, SeifertMatrix):
        raise TypeError("render_matrix expects a SeifertMatrix")
    rows = ",".join("{" + ",".join(str(x) for x in v.matrix.row(i)) + "}"
                    for i in range(v.size))
    return "{" + rows + "}"


def _passing_entry(v, n, beta, framings):
    """A class with f = 0 mod n^2: only its squares need the exact form
    value. framings holds the block's _zero_framing per exact value: a
    block's passing classes share a few values, and each distinct one is
    framed, and its stabilized value checked, once."""
    value = _form_value(v, beta, 0, n)
    if value == 0:
        summary = StabSummary("already-zero-framed", v.size, (), False, beta)
    else:
        if value not in framings:
            framings[value] = _zero_framing(value, n)
        squares, flipped, tail = framings[value]
        summary = StabSummary("stabilized", v.size + len(tail), squares, flipped, beta + tail)
    return CharEntry(beta, 0, True, summary)


def _analyze_n(v, form, n, enum_cap):
    # one walk gives both routes, checked per class and per block; it is
    # H[n] and the kernel mod n at once, so a cap stops both, by one size
    try:
        classes, leaves = _extension_walk(v, form, n, enum_cap)
    except EnumerationCapError as e:
        ck_note = f"not enumerated: {e}"
        note = ck_note.replace(f"kernel mod {n}", f"n-torsion subgroup H[{n}]", 1)
        return NBlock(n, False, note, None, None, (), False, ck_note, ())
    e, three = form.exponent, n % 3 == 0
    entries = tuple(ClassEntry(m[0], m, ResidueQZ._reduced(got, e), not got, True,
                               _SCOPES[not got, three]) for m, got in classes)
    fails, framings = StabSummary("not-zero-framable", v.size, (), False, ()), {}
    return NBlock(n, True, "", len(entries), sum(not got for _, got in classes), entries,
                  True, "", tuple(CharEntry(beta, f, False, fails) if f else
                                  _passing_entry(v, n, beta, framings) for _, beta, f in leaves))


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
    determinant d gets a block. Each is k or d // k for an odd divisor
    k <= min(n_max, sqrt(d)) of d, so the search stops there; past
    _DIVISOR_SEARCH it is refused with DivisorSearchError, which names
    the explicit list as the way out. With an explicit list, even entries
    are rejected outright and odd entries not dividing the determinant
    are recorded under skipped_n.
    """
    if isinstance(record, SeifertMatrix):
        record = KnotRecord("knot", record)
    if not isinstance(record, KnotRecord):
        raise TypeError("analyze expects a KnotRecord or a SeifertMatrix")
    _check_int(n_max, "n_max")
    _enum_cap(enum_cap)
    v = record.matrix
    # every other integer a report prints is bounded by the determinant
    d = require_printable(knot_determinant(v), "knot determinant")
    group = double_cover_homology(v)
    form = linking_form(group)

    skipped = ()
    if n_values is None:
        limit = min(n_max, math.isqrt(d))
        if limit > _DIVISOR_SEARCH:
            raise DivisorSearchError(f"finding the orders n dividing the determinant {d} needs "
                                     f"trial division up to {limit}, past the bound of "
                                     f"{_DIVISOR_SEARCH}")
        low = [k for k in range(1, limit + 1, 2) if d % k == 0]
        ns = sorted({m for k in low for m in (k, d // k) if 3 <= m <= n_max})
    else:
        wanted = sorted({require_dihedral_order(n) for n in n_values})
        ns = [n for n in wanted if d % n == 0]
        skipped = tuple(n for n in wanted if d % n != 0)

    blocks = tuple(_analyze_n(v, form, n, enum_cap) for n in ns)

    xi = None
    m = _twist_parameter(v)
    if m is not None and m % 3 == 2:
        val = twist_xi3(m)
        xi = XiBlock(3, m, val.candidates, val.linking_term, val.signature_sum,
                     val.sigma_w_range, 0, ribbon_test(val, 0, 3))
    # every field by position, the two defaults too: the shared constructor binds
    # a call by keyword, or one with fields left out, at about twice the cost
    return Report(record.name, record.source, v.genus, d, group.invariant_factors, blocks,
                  skipped, xi, __version__, CONVENTIONS)


def _utf8(s, what):
    """s, or MatrixParseError when s holds a lone surrogate, which is how
    scan reads a byte that is not UTF-8."""
    try:
        s.encode("utf-8")
    except UnicodeEncodeError as e:
        raise MatrixParseError(f"{what} is not valid UTF-8 at character {e.start}") from None
    return s


def _escaped(s):
    """s with every lone surrogate written as its \\udXXX escape, as the
    JSON writer writes it, so that a text layout always prints."""
    return s.encode("utf-8", "backslashreplace").decode("utf-8")


def _census_rows(text, source):
    """Parse census text into (row_number, name, matrix-or-RowError).
    Only a line feed ends a row: a JSON string may hold U+2028, U+0085
    and the other line boundaries str.splitlines() also breaks at. A row
    that is not UTF-8, or that the csv module cannot read, is a RowError."""
    lines = text.split("\n")
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
                obj = _json_loads(_utf8(line, "census line"), lambda e: f"malformed JSON: {e.msg}")
                if not isinstance(obj, dict):
                    raise MatrixParseError("census line is not a JSON object")
                name = obj.get("name") or name
                if "seifert" not in obj:
                    raise MatrixParseError("census line has no seifert field")
                raw = obj["seifert"]
                if isinstance(raw, str):
                    v = parse_matrix(raw)
                elif isinstance(raw, list):
                    v = SeifertMatrix(_validated_matrix(raw))
                else:
                    raise MatrixParseError("seifert field must be a string or a list")
                rows.append((i, name, KnotRecord(str(name), v, source=source)))
            except (MatrixParseError, ValueError, TypeError) as e:
                rows.append((i, name, RowError(str(name), i, str(e))))
        return rows

    import csv

    # each line keeps its line feed, so a quoted field spanning lines keeps it too
    reader = csv.reader(ln + "\n" for ln in lines)
    try:
        header = next(reader)
    except csv.Error as e:
        raise MatrixParseError(f"malformed census header: {e}") from None
    if [h.strip().lower() for h in header] != ["name", "seifert"]:
        raise MatrixParseError(
            f"census header must be name,seifert; got {','.join(header)!r}"
        )
    for i in itertools.count(2):
        name = f"row {i}"
        try:
            row = next(reader, None)
        except csv.Error as e:  # a field above csv.field_size_limit()
            rows.append((i, name, RowError(name, i, f"malformed CSV: {e}")))
            continue
        if row is None:
            return rows
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            name = _utf8(row[0], "name").strip() or name
            if len(row) != 2:
                raise MatrixParseError(f"expected 2 columns, got {len(row)}")
            v = parse_matrix(_utf8(row[1], "seifert field"))
            rows.append((i, name, KnotRecord(name, v, source=source)))
        except (MatrixParseError, ValueError, TypeError) as e:
            rows.append((i, name, RowError(name, i, str(e))))


def scan(path, *, n_max=DEFAULT_N_MAX, enum_cap=DEFAULT_ENUM_CAP):
    """Analyze a census file (CSV with a name,seifert header, or JSON
    lines with name and seifert fields), yielding one Report or
    RowError per row in input order. A bad row never stops the scan.
    n_max must be an int and enum_cap None or an int >= 1 (TypeError
    or ValueError before any row is read).
    """
    _check_int(n_max, "n_max")
    _enum_cap(enum_cap)
    # a byte that is not UTF-8 becomes a lone surrogate, and its row a RowError
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        text = fh.read()
    for i, name, payload in _census_rows(text, source=str(path)):
        if not isinstance(payload, RowError):
            try:
                payload = analyze(payload, n_max=n_max, enum_cap=enum_cap)
            except Exception as e:  # isolate the row, keep scanning
                payload = RowError(name, i, str(e))
        yield payload


def twist_family(m_first, m_last, *, enum_cap=DEFAULT_ENUM_CAP):
    """Sweep the twist family over an inclusive parameter range.

    Each row records the determinant, whether an order-3 dihedral
    quotient exists, whether it extends, and the xi candidates with
    the ribbon verdict. Both extension routes come from the one walk at
    n = 3, with its checks.
    """
    if _check_int(m_first, "twist range start") > _check_int(m_last, "twist range end"):
        raise ValueError(f"empty twist range: {m_first} > {m_last}")
    _enum_cap(enum_cap)
    out = []
    for m in range(m_first, m_last + 1):
        v = twist_knot(m)
        d = require_printable(knot_determinant(v), "knot determinant")
        classes = ()
        if d % 3 == 0:  # only then can an order-3 quotient exist
            classes, _ = _extension_walk(v, linking_form(double_cover_homology(v)), 3, enum_cap)
        exists = bool(classes)
        extends = candidates = ribbon = None
        if exists:
            extends = any(not got for _, got in classes)
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
    return _escaped("\n".join(lines))


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
