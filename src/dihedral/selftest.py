"""Built-in regression suite over published reference values.

Each check recomputes a known quantity for a standard knot (9_37, the
trefoil, the twist family) and compares exactly. The CLI selftest
subcommand runs them all and reports pass/fail per check.
"""

from fractions import Fraction

from .cover import TorsionGroup, double_cover_homology, evaluate_linking, linking_form
from .errors import SignatureIndeterminateError
from .exact import ResidueQZ, four_squares, snf
from .obstruction import (
    characteristic_knot_classes,
    char_knot_to_character,
    cyclic_criterion,
    quotient_classes,
    surjective_characters,
    verdict,
)
from .report import analyze, parse_matrix, render_matrix
from .seifert import (
    SeifertMatrix,
    connected_sum,
    knot_determinant,
    stabilize_zero_framed,
    symmetrize,
    twist_knot,
)
from .signatures import (
    RIBBON_CONSISTENT,
    RIBBON_OBSTRUCTED,
    ribbon_test,
    tristram_levine,
    twist_xi3,
)

REFERENCE_9_37 = SeifertMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, -2, 1], [-1, -1, 0, -1]])
GEN_3 = (-1, -1, 0, 0)
GEN_15 = (-1, 0, 0, 0)


def _want(got, expected, label):
    if got != expected:
        raise AssertionError(f"{label}: got {got!r}, expected {expected!r}")


def _residue(num, den):
    return ResidueQZ.of(Fraction(num, den))


def _group_9_37():
    return TorsionGroup((3, 15), (GEN_3, GEN_15), symmetrize(REFERENCE_9_37))


def check_smith_form():
    res = snf(symmetrize(REFERENCE_9_37))
    _want(res.diagonal(), (1, 1, 3, 15), "9_37 elementary divisors")
    _want(res.invariant_factors, (3, 15), "9_37 invariant factors")


def check_determinants():
    _want(knot_determinant(REFERENCE_9_37), 45, "9_37 determinant")
    _want(knot_determinant(twist_knot(-1)), 3, "trefoil determinant")
    _want(knot_determinant(twist_knot(2)), 9, "twist m=2 determinant")
    _want(knot_determinant(SeifertMatrix(())), 1, "unknot determinant")


def check_linking_values():
    a = symmetrize(REFERENCE_9_37)
    _want(evaluate_linking(a, GEN_3, GEN_3), _residue(2, 3), "lk(g3, g3)")
    _want(evaluate_linking(a, GEN_3, GEN_15), _residue(1, 3), "lk(g3, g15)")
    _want(evaluate_linking(a, GEN_15, GEN_15), _residue(2, 5), "lk(g15, g15)")


def check_isotropic_set():
    group = _group_9_37()
    form = linking_form(group)
    got = tuple(c for c in group.elements() if form.pair(c, c) == 0)
    _want(got, ((0, 0), (0, 5), (0, 10), (1, 5), (2, 10)), "9_37 isotropic set")


def check_quotient_classes():
    group = _group_9_37()
    form = linking_form(group)
    chars = surjective_characters(group, form, 3)
    _want(len(chars), 8, "9_37 surjective character count")
    classes = quotient_classes(chars, 3)
    _want(len(classes), 4, "9_37 quotient class count")
    _want(sum(qc.extends for qc in classes), 2, "9_37 extendable class count")
    for qc in classes:  # the representative's verdict holds for the whole orbit
        for ch in qc.members:
            _want(verdict(form, ch), qc.verdict, f"9_37 verdict of {ch.c}")
    iso = tuple(c for c in chars if c.self_linking().is_zero)
    iso_classes = quotient_classes(iso, 3)
    _want(len(iso_classes), 2, "9_37 isotropic class count")
    _want(tuple(qc.extends for qc in iso_classes), (True, True), "9_37 extendability")


def check_trefoil_verdict():
    group = double_cover_homology(twist_knot(-1))
    form = linking_form(group)
    chars = surjective_characters(group, form, 3)
    classes = quotient_classes(chars, 3)
    _want(len(classes), 1, "trefoil quotient class count")
    vd = verdict(form, classes[0].representative)
    _want(vd.extends, False, "trefoil extension verdict")
    for tag in ("also-nonorientable", "also-any-ambient-4-manifold"):
        if tag not in vd.scope_note:
            raise AssertionError(f"trefoil scope note is missing {tag}")


def check_twist_laws():
    for m in range(-12, 13):
        v = twist_knot(m)
        cks = characteristic_knot_classes(v, 3)
        _want(bool(cks), m % 3 == 2, f"twist m={m} quotient existence")
        if cks:
            ext = any(ck.form_value_mod_n2() == 0 for ck in cks)
            _want(ext, m % 9 == 2, f"twist m={m} extendability")


def check_character_route():
    v = twist_knot(-1)
    form = linking_form(double_cover_homology(v))
    cks = characteristic_knot_classes(v, 3)
    _want(len(cks), 2, "trefoil characteristic class count")
    ch = char_knot_to_character(v, cks[0], form)
    _want(ch.self_linking(), _residue(1, 3), "trefoil character self-linking")


def check_route_bijection():
    # each characteristic class of 9_37 maps to its own character, with the
    # verdict of that character's class; analyze runs the walk's own checks
    v = REFERENCE_9_37
    form = linking_form(double_cover_homology(v))
    for n in (3, 5, 15):
        classes = quotient_classes(surjective_characters(form.group, form, n), n)
        verdicts = {ch.c: qc.extends for qc in classes for ch in qc.members}
        cks = characteristic_knot_classes(v, n)
        hit = {char_knot_to_character(v, ck, form).c: ck.form_value_mod_n2() == 0
               for ck in cks}
        _want((len(cks), hit), (len(verdicts), verdicts), f"9_37 classes to characters at n={n}")
    _want(tuple(b.n for b in analyze(v, [3, 5, 15]).blocks), (3, 5, 15), "9_37 checked blocks")


def check_cyclic_shortcut():
    v = SeifertMatrix([[-10, 1], [0, 2]])
    group = double_cover_homology(v)
    _want(group.invariant_factors, (81,), "synthetic order-81 torsion")
    form = linking_form(group)
    for n in (3, 9, 27, 81):
        by_order = cyclic_criterion(group, n)
        chars = surjective_characters(group, form, n)
        by_chars = any(ch.self_linking().is_zero for ch in chars)
        _want(by_order, n in (3, 9), f"cyclic shortcut at n={n}")
        _want(by_chars, by_order, f"route agreement at n={n}")


def check_stabilization():
    v = twist_knot(11)
    result = stabilize_zero_framed(v, (-1, 1), 3)
    v2, b2 = result
    _want(b2, (-1, 1, 3, 3, 0, 0, 0, 0, 0, 0), "stabilized class layout")
    _want(v2.size, 10, "stabilized matrix size")
    a2 = symmetrize(v2)
    _want(sum(x * y for x, y in zip(b2, a2.apply(b2))), 0,
          "stabilized form value")
    _want(result.flipped_sign, False, "stabilization sign for positive value")
    flipped = stabilize_zero_framed(twist_knot(-7), (-1, 1), 3)
    _want(flipped.flipped_sign, True, "stabilization sign for negative value")


def check_four_squares():
    _want(four_squares(0), (0, 0, 0, 0), "four_squares(0)")
    _want(four_squares(7), (1, 1, 1, 2), "four_squares(7)")
    _want(four_squares(12), (0, 2, 2, 2), "four_squares(12)")
    _want(four_squares(31), (1, 1, 2, 5), "four_squares(31)")


def check_signature():
    trefoil = twist_knot(-1)
    _want(tristram_levine(trefoil, (1, 2)), -2, "trefoil signature at -1")
    granny = connected_sum(trefoil, trefoil)
    _want(tristram_levine(granny, (1, 2)), -4, "granny signature at -1")
    _want(tristram_levine(SeifertMatrix(()), (1, 2)), 0, "unknot signature")
    _want(tristram_levine(trefoil, (1, 3)), -2, "trefoil signature at a cube root of unity")
    try:
        tristram_levine(trefoil, (1, 6))
    except SignatureIndeterminateError:
        pass
    else:
        raise AssertionError("trefoil signature at a root of its Alexander polynomial: "
                             "answered instead of refusing")


def check_xi_and_ribbon():
    val = twist_xi3(2)
    _want(val.candidates, (Fraction(-1), Fraction(1)), "twist m=2 xi candidates")
    _want(ribbon_test(val, 0, 3), RIBBON_CONSISTENT, "twist m=2 ribbon verdict")
    val11 = twist_xi3(11)
    _want(val11.candidates, (Fraction(7), Fraction(9)), "twist m=11 xi candidates")
    _want(ribbon_test(val11, 0, 3), RIBBON_OBSTRUCTED, "twist m=11 ribbon verdict")


def check_matrix_round_trip():
    text = render_matrix(REFERENCE_9_37)
    _want(parse_matrix(text), REFERENCE_9_37, "matrix render round trip")
    _want(parse_matrix("{{-1,1},{0,2}}"), twist_knot(2), "brace matrix parsing")


CHECKS = (
    ("smith normal form of 9_37", check_smith_form),
    ("knot determinants", check_determinants),
    ("linking form values of 9_37", check_linking_values),
    ("isotropic elements of 9_37", check_isotropic_set),
    ("quotient classes of 9_37", check_quotient_classes),
    ("trefoil verdict and scope", check_trefoil_verdict),
    ("twist family laws", check_twist_laws),
    ("characteristic-class character route", check_character_route),
    ("class-to-character bijection of 9_37", check_route_bijection),
    ("cyclic-order shortcut", check_cyclic_shortcut),
    ("zero-framed stabilization", check_stabilization),
    ("four-square decompositions", check_four_squares),
    ("Tristram-Levine signatures", check_signature),
    ("xi candidates and ribbon verdicts", check_xi_and_ribbon),
    ("matrix parsing round trip", check_matrix_round_trip),
)


def run(out=print):
    """Run every check; return 0 when all pass, 2 otherwise."""
    failed = 0
    for label, fn in CHECKS:
        try:
            fn()
        except Exception as e:
            failed += 1
            out(f"FAIL {label}: {e}")
        else:
            out(f"PASS {label}")
    out(f"{len(CHECKS)} checks, {len(CHECKS) - failed} passed, {failed} failed")
    return 0 if failed == 0 else 2
