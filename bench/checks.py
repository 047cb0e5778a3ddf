"""Output checks, run outside the timed body.

They pin only facts that do not depend on the torsion basis the
program picks, so a different Smith normal form or a faster
enumeration does not trip them: determinants, invariant factors, which
n get a block, orbit sizes, the count of characteristic classes, how
verdicts relate to self-linking and form values, and signature
symmetries. Each function returns a list of problems; empty means the
output passed.
"""

import math

from gen import knot_determinant, symmetrized

AUTO_N_MAX = 99  # the CLI's default --n-max


def euler_phi(n):
    return sum(1 for u in range(1, n) if math.gcd(u, n) == 1)


def expected_ns(d, ns=None):
    """The n that get a block: odd divisors of d up to AUTO_N_MAX in auto
    mode, else the requested odd n that divide d."""
    if ns is None:
        return [n for n in range(3, AUTO_N_MAX + 1, 2) if d % n == 0]
    return sorted(n for n in set(ns) if d % n == 0)


def _residue_is_zero(r):
    return int(r["num"]) == 0


def check_block(block, a, where):
    """Problems in one n-block of a report; `a` is V + V^T."""
    out = []
    n = block["n"]
    classes = block["classes"]
    chars = block["characteristic_classes"]
    if block["characters_enumerated"]:
        if block["quotient_class_count"] != len(classes):
            out.append(f"{where}: quotient_class_count {block['quotient_class_count']} "
                       f"but {len(classes)} classes")
        for i, c in enumerate(classes):
            members = [tuple(m) for m in c["members"]]
            if len(members) != euler_phi(n) or len(set(members)) != len(members):
                out.append(f"{where}: class {i} has {len(members)} members, expected "
                           f"phi({n}) = {euler_phi(n)} distinct ones")
            if c["extends"] != _residue_is_zero(c["self_linking"]):
                out.append(f"{where}: class {i} extends={c['extends']} contradicts its "
                           f"self-linking {c['self_linking']}")
        extendable = sum(1 for c in classes if c["extends"])
        if block["extendable_class_count"] != extendable:
            out.append(f"{where}: extendable_class_count {block['extendable_class_count']} "
                       f"but {extendable} classes extend")
    elif classes or not block["character_note"]:
        out.append(f"{where}: characters not enumerated but classes listed or no note")

    if block["characteristic_classes_enumerated"]:
        for i, e in enumerate(chars):
            beta = [int(x) for x in e["beta"]]
            image = [sum(x * y for x, y in zip(row, beta)) for row in a]
            if any(x % n for x in image) or math.gcd(*beta, n) != 1:
                out.append(f"{where}: class {beta} is not characteristic and primitive mod {n}")
            value = sum(x * y for x, y in zip(beta, image)) % (n * n)
            if int(e["form_value_mod_n2"]) != value:
                out.append(f"{where}: form value of {beta} is {value} mod n^2, "
                           f"report says {e['form_value_mod_n2']}")
            if e["passes_criterion"] != (value == 0):
                out.append(f"{where}: criterion verdict of {beta} contradicts its form value")
        if block["characters_enumerated"]:
            members = sum(len(c["members"]) for c in classes)
            if members != len(chars):
                out.append(f"{where}: {members} characters but {len(chars)} characteristic classes")
            if any(c["extends"] for c in classes) != any(e["passes_criterion"] for e in chars):
                out.append(f"{where}: the two extension routes disagree")
    elif chars or not block["characteristic_class_note"]:
        out.append(f"{where}: characteristic classes not enumerated but listed or no note")
    return out


def check_report(doc, v, ns=None):
    """Problems in one analyze report for the Seifert matrix v."""
    where = doc.get("name", "?")
    if "error" in doc:
        return [f"{where}: unexpected error record: {doc['error']}"]
    out = []
    d = knot_determinant(v)
    if int(doc["determinant"]) != d:
        out.append(f"{where}: determinant {doc['determinant']}, expected {d}")
    factors = [int(x) for x in doc["invariant_factors"]]
    if math.prod(factors) != d or any(f <= 1 for f in factors) or any(
            b % a for a, b in zip(factors, factors[1:])):
        out.append(f"{where}: invariant factors {factors} are not a divisor chain "
                   f"multiplying to {d}")
    if doc["genus"] != len(v) // 2:
        out.append(f"{where}: genus {doc['genus']}, expected {len(v) // 2}")
    got_ns = [b["n"] for b in doc["quotients"]]
    if got_ns != expected_ns(d, ns):
        out.append(f"{where}: blocks for n = {got_ns}, expected {expected_ns(d, ns)}")
    a = symmetrized(v)
    for block in doc["quotients"]:
        out.extend(check_block(block, a, f"{where} n={block['n']}"))
    return out


def check_census(docs, rows):
    """Problems per census row; `rows` is gen.census()'s rows, in shard order."""
    if len(docs) != len(rows):
        return {"*": [f"{len(docs)} records for {len(rows)} rows"]}
    problems = {}
    for doc, (name, v, kind) in zip(docs, rows):
        if doc.get("name") != name:
            out = [f"record for {doc.get('name')!r} where {name!r} was expected"]
        elif kind is not None:
            out = [] if doc.get("error") else [f"{name}: malformed row ({kind}) gave no error"]
        else:
            out = check_report(doc, v)
        if out:
            problems[name] = out
    return problems


# Basis-invariant counts per block, for every seed:
# n -> (quotient classes, extendable classes, characteristic classes).
LARGE_GROUPS_PINNED = {
    "9_37#9_37": {3: (40, 16, 80), 5: (6, 2, 24), 9: (0, 0, 0), 15: (240, 32, 1920),
                  25: (0, 0, 0), 27: (0, 0, 0), 45: (0, 0, 0), 75: (0, 0, 0), 81: (0, 0, 0)},
    "twist-2-5-8-m1": {3: (40, 13, 80)},
}
BIG_CHAR_CLASSES = 728  # characteristic classes mod 3 of the genus-6 knot


def check_large_groups(docs, knots):
    """Problems per knot of the large-groups reports."""
    problems = {}
    for doc, (name, v, argv) in zip(docs, knots):
        out = check_report(doc, v, [int(x) for x in argv[1::2]] or None)
        pinned = LARGE_GROUPS_PINNED.get(name)
        for block in doc.get("quotients", ()):
            n, chars = block["n"], len(block["characteristic_classes"])
            if pinned is not None:
                got = (block["quotient_class_count"], block["extendable_class_count"], chars)
                if got != pinned.get(n):
                    out.append(f"{name} n={n}: counts {got}, pinned {pinned.get(n)}")
            elif chars != BIG_CHAR_CLASSES or not (
                    block["character_note"]
                    or block["quotient_class_count"] * euler_phi(n) == BIG_CHAR_CLASSES):
                out.append(f"{name} n={n}: expected {BIG_CHAR_CLASSES} characteristic classes "
                           f"and either a capped character block or as many characters")
        if out:
            problems[name] = out
    return problems


def twist_signature(m, k, n):
    """Signature of the twist knot [[-1, 1], [0, m]] at exp(2 pi i k/n), or
    None too close to a root of its Alexander polynomial. The 2x2 form has
    determinant -c (m c + 1) and trace c (m - 1) with c = |1 - w|^2 > 0."""
    c = 2 - 2 * math.cos(2 * math.pi * k / n)
    x = m * c + 1
    if abs(x) < 1e-6:
        return None
    return -2 if x < 0 else 0


def check_signatures(values, rerun, matrices):
    """Problems per evaluation. `values` and `rerun` map (name, k, n) to a
    signature, or None when indeterminate, at the default and at doubled
    precision; `rerun` may cover only some keys. `matrices` is
    gen.signature_set()'s list."""
    by_name = {name: (v, twists) for name, v, twists in matrices}
    problems = {}
    for key, sig in values.items():
        name, k, n = key
        v, twists = by_name[name]
        if isinstance(sig, str):
            problems[key] = [f"{name} ({k},{n}): {sig}"]
            continue
        out = []
        if key in rerun and rerun[key] != sig:
            out.append(f"doubled precision gave {rerun[key]}, not {sig}")
        if sig is not None:
            if sig % 2 or abs(sig) > len(v):
                out.append(f"signature {sig} is odd or exceeds the size {len(v)}")
            mirror = values.get((name, n - k, n), "missing")
            if mirror != sig:
                out.append(f"sigma({k},{n}) = {sig} but sigma({n - k},{n}) = {mirror}")
            if twists is not None:
                parts = [twist_signature(m, k, n) for m in twists]
                if None not in parts and sum(parts) != sig:
                    out.append(f"signature {sig} but the twist terms sum to {sum(parts)}")
        if out:
            problems[key] = [f"{name} ({k},{n}): {p}" for p in out]
    return problems
