"""The value semantics of every record class: equality over its fields
and only with its own class, hashing, immutability, repr, pickling and
copying, and the few per-class behaviours callers rely on."""

import copy
import pickle
from fractions import Fraction

import pytest

import dihedral
from dihedral import (
    Character,
    CharKnotClass,
    ExtensionVerdict,
    IntMatrix,
    KnotRecord,
    LinkingForm,
    QuotientClass,
    Report,
    ResidueQZ,
    RowError,
    SigmaWBound,
    SNFResult,
    TorsionGroup,
    TwistRow,
    XiValue,
    ZeroFramedStabilization,
    characteristic_knot_classes,
    double_cover_homology,
    stabilize_zero_framed,
    twist_knot,
)
from dihedral.errors import _Record
from dihedral.report import CharEntry, ClassEntry, NBlock, StabSummary, XiBlock

V = twist_knot(2)  # determinant 9, H = Z9
GROUP = double_cover_homology(V)
FORM = LinkingForm(GROUP)
THIRD = ResidueQZ(Fraction(1, 3))
VERDICT = ExtensionVerdict(THIRD, ("orientable-B4",), True)
CH3, CH6 = Character(FORM, (3,), 3), Character(FORM, (6,), 3)
STAB = StabSummary("stabilized", 10, (1, 1, 0, 0), True, (1, 2, 3, 3, 3, 3, 0, 0, 0, 0))
ENTRY = ClassEntry((3,), ((3,), (6,)), THIRD, False, True, ("orientable-B4",))
CHAR_ENTRY = CharEntry((1, 2), 9, True, STAB)
XI_BLOCK = XiBlock(3, 2, (Fraction(1, 2), Fraction(5, 2)), Fraction(1, 2), 0, (-1, 1), 0, "c")

# (class, its field values by keyword, in constructor order)
SAMPLES = [
    (KnotRecord, dict(name="k", matrix=V, source="s.csv")),
    (ClassEntry, dict(representative=(3,), members=((3,), (6,)), self_linking=THIRD,
                      extends=False, surjective=True, scope=("orientable-B4",))),
    (StabSummary, dict(status="stabilized", new_size=10, squares=(1, 1, 0, 0),
                       flipped_sign=True, stabilized_class=(1, 2, 3, 3, 3, 3, 0, 0, 0, 0))),
    (CharEntry, dict(beta=(1, 2), form_value_mod_n2=9, passes_criterion=True,
                     stabilization=STAB)),
    (NBlock, dict(n=3, characters_enumerated=True, character_note="",
                  quotient_class_count=1, extendable_class_count=0, classes=(ENTRY,),
                  char_classes_enumerated=True, char_class_note="", char_classes=(CHAR_ENTRY,))),
    (XiBlock, dict(n=3, twist_parameter=2, candidates=(Fraction(1, 2), Fraction(5, 2)),
                   linking_term=Fraction(1, 2), signature_sum=0, sigma_w_range=(-1, 1),
                   rank_h1_cover=0, ribbon="c")),
    (Report, dict(name="k", source="", genus=1, determinant=9, invariant_factors=(9,),
                  blocks=(), skipped_n=(5,), xi=XI_BLOCK, version="V", conventions=("c",))),
    (RowError, dict(name="bad", row=2, error="oops")),
    (TwistRow, dict(m=2, determinant=9, quotient_exists=True, extends=False,
                    xi_candidates=(Fraction(1, 2),), ribbon="c")),
    (ResidueQZ, dict(value=Fraction(1, 3))),
    (SNFResult, dict(P=IntMatrix([[1]]), Q=IntMatrix([[1]]), D=IntMatrix([[3]]))),
    (TorsionGroup, dict(invariant_factors=(9,), generators=GROUP.generators,
                        ambient=GROUP.ambient)),
    (LinkingForm, dict(group=GROUP)),
    (Character, dict(form=FORM, c=(3,), n=3)),
    (ExtensionVerdict, dict(self_linking=THIRD, scope_note=("orientable-B4",), surjective=False)),
    (QuotientClass, dict(members=(CH3, CH6), n=3, verdict=VERDICT)),
    (CharKnotClass, dict(V=V, beta=(1, 2), n=3)),
    (ZeroFramedStabilization, dict(matrix=V, cls=(1, 2), blocks_added=4, flipped_sign=True,
                                   squares=(1, 1, 0, 0))),
    (SigmaWBound, dict(magnitude=2)),
    (XiValue, dict(linking_term=Fraction(1, 3), sigma_w_range=(-1, 1), signature_sum=2)),
]

_FORM = "LinkingForm([['2/9']])"
_CH = f"Character(form={_FORM}, c=(3,), n=3), Character(form={_FORM}, c=(6,), n=3)"
_STAB = ("StabSummary(status='stabilized', new_size=10, squares=(1, 1, 0, 0), "
         "flipped_sign=True, stabilized_class=(1, 2, 3, 3, 3, 3, 0, 0, 0, 0))")
_THIRD = "ResidueQZ(value=Fraction(1, 3))"
_XI = ("XiBlock(n=3, twist_parameter=2, candidates=(Fraction(1, 2), Fraction(5, 2)), "
       "linking_term=Fraction(1, 2), signature_sum=0, sigma_w_range=(-1, 1), "
       "rank_h1_cover=0, ribbon='c')")
_ENTRY = ("ClassEntry(representative=(3,), members=((3,), (6,)), "
          f"self_linking={_THIRD}, extends=False, surjective=True, scope=('orientable-B4',))")
# pinned from the dataclass records these classes used to be
REPRS = {
    KnotRecord: "KnotRecord(name='k', matrix=SeifertMatrix([[-1, 1], [0, 2]]), source='s.csv')",
    ClassEntry: _ENTRY,
    StabSummary: _STAB,
    CharEntry: f"CharEntry(beta=(1, 2), form_value_mod_n2=9, passes_criterion=True, "
               f"stabilization={_STAB})",
    NBlock: f"NBlock(n=3, characters_enumerated=True, character_note='', "
            f"quotient_class_count=1, extendable_class_count=0, classes=({_ENTRY},), "
            f"char_classes_enumerated=True, char_class_note='', char_classes=(CharEntry("
            f"beta=(1, 2), form_value_mod_n2=9, passes_criterion=True, stabilization={_STAB}),))",
    XiBlock: _XI,
    Report: f"Report(name='k', source='', genus=1, determinant=9, invariant_factors=(9,), "
            f"blocks=(), skipped_n=(5,), xi={_XI}, version='V', conventions=('c',))",
    RowError: "RowError(name='bad', row=2, error='oops')",
    TwistRow: "TwistRow(m=2, determinant=9, quotient_exists=True, extends=False, "
              "xi_candidates=(Fraction(1, 2),), ribbon='c')",
    ResidueQZ: _THIRD,
    SNFResult: "SNFResult(P=IntMatrix([[1]]), Q=IntMatrix([[1]]), D=IntMatrix([[3]]))",
    TorsionGroup: "TorsionGroup(factors=[9])",
    LinkingForm: _FORM,
    Character: f"Character(form={_FORM}, c=(3,), n=3)",
    ExtensionVerdict: f"ExtensionVerdict(self_linking={_THIRD}, "
                      f"scope_note=('orientable-B4',), surjective=False)",
    QuotientClass: f"QuotientClass(members=({_CH}), n=3, verdict=ExtensionVerdict("
                   f"self_linking={_THIRD}, scope_note=('orientable-B4',), surjective=True))",
    CharKnotClass: "CharKnotClass(V=SeifertMatrix([[-1, 1], [0, 2]]), beta=(1, 2), n=3)",
    ZeroFramedStabilization: "ZeroFramedStabilization(matrix=SeifertMatrix([[-1, 1], [0, 2]]), "
                             "cls=(1, 2), blocks_added=4, flipped_sign=True, squares=(1, 1, 0, 0))",
    SigmaWBound: "SigmaWBound(magnitude=2)",
    XiValue: "XiValue(linking_term=Fraction(1, 3), sigma_w_range=(-1, 1), signature_sum=2)",
}

params = pytest.mark.parametrize("cls, fields", SAMPLES, ids=[c.__name__ for c, _ in SAMPLES])


def unchecked(cls, fields):
    """A record holding these field values, built without its constructor
    or its checks. A ResidueQZ compares its int slots, so they are set
    from its value (to the value itself when that has no such parts)."""
    x = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(x, name, value)
    if cls is ResidueQZ:
        for part in ("numerator", "denominator"):
            object.__setattr__(x, part, getattr(fields["value"], part, fields["value"]))
    return x


def test_every_record_class_sampled():
    assert len(SAMPLES) == len({cls for cls, _ in SAMPLES}) == len(REPRS) == 20


@params
def test_equal_constructions_are_equal(cls, fields):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a == unchecked(cls, fields)


@params
def test_any_changed_field_is_unequal(cls, fields):
    a = cls(**fields)
    for name in fields:
        other = unchecked(cls, {**fields, name: object()})
        assert a != other and other != a, name


@params
def test_unequal_to_a_tuple_of_its_values(cls, fields):
    a, values = cls(**fields), tuple(fields.values())
    assert a != values and values != a
    assert a != list(values)


@params
def test_unequal_to_another_class_with_its_values(cls, fields):
    a = cls(**fields)
    others = [(c, f) for c, f in SAMPLES if c is not cls and len(f) == len(fields)]
    for other_cls, other_fields in others:
        other = unchecked(other_cls, dict(zip(other_fields, fields.values())))
        assert a != other and other != a, other_cls.__name__


@params
def test_immutable(cls, fields):
    a = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == value
    with pytest.raises(AttributeError):
        a.not_a_field = 1


@params
def test_repr(cls, fields):
    assert repr(cls(**fields)) == REPRS[cls]


@params
def test_pickle_and_copy(cls, fields):
    a = cls(**fields)
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is cls
        assert b == a and hash(b) == hash(a)
        assert repr(b) == repr(a)


def test_constructor_defaults():
    r = Report("k", "", 0, 1, (), (), (), None)
    assert r.version == dihedral.__version__
    assert r.conventions == dihedral.report.CONVENTIONS
    assert KnotRecord("k", V).source == ""
    assert ExtensionVerdict(THIRD, ()).surjective is True
    z = ZeroFramedStabilization(V, (1, 2))
    assert (z.blocks_added, z.flipped_sign, z.squares) == (0, False, ())


def test_residue_order():
    third, half = ResidueQZ(Fraction(1, 3)), ResidueQZ(Fraction(1, 2))
    assert third < half and third <= half and half > third and half >= third
    assert third <= ResidueQZ(Fraction(1, 3)) and third >= ResidueQZ(Fraction(1, 3))
    assert not half < third and not half <= third
    assert sorted([half, ResidueQZ(Fraction(0)), third]) == [ResidueQZ(Fraction(0)), third, half]
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(third, op)(Fraction(1, 2)) is NotImplemented
    with pytest.raises(TypeError):
        third < Fraction(1, 2)


def test_walked_characteristic_class_equals_constructed():
    walked = characteristic_knot_classes(V, 3)
    assert walked
    for ck in walked:
        built = CharKnotClass(V, ck.beta, 3)
        assert ck == built and hash(ck) == hash(built) and repr(ck) == repr(built)
        assert ck.form_value() == built.form_value()
        assert ck.form_value_mod_n2() == built.form_value_mod_n2()


def test_stabilization_unpacks_as_a_pair():
    matrix, cls = ZeroFramedStabilization(V, (1, 2), 4, True, (1, 1, 0, 0))
    assert (matrix, cls) == (V, (1, 2))
    v5 = twist_knot(-7)  # determinant 27; its class mod 3 needs four band pairs
    beta = next(ck.beta for ck in characteristic_knot_classes(v5, 3)
                if ck.form_value_mod_n2() == 0 and ck.form_value())
    z = stabilize_zero_framed(v5, beta, 3)
    matrix, cls = z
    assert (matrix, cls) == (z.matrix, z.cls) and z.blocks_added == 4


def test_quotient_class_length():
    assert len(QuotientClass((CH3, CH6), 3, VERDICT)) == 2


# the classes whose only constructor is the shared _Record.__init__
SHARED = [(cls, fields) for cls, fields in SAMPLES if cls.__init__ is _Record.__init__]


def test_shared_constructor_classes():
    assert sorted(cls.__name__ for cls, _ in SHARED) == [
        "ExtensionVerdict", "NBlock", "QuotientClass", "Report", "RowError", "TwistRow",
        "XiBlock", "ZeroFramedStabilization"]
    # bench/spans.py wraps these three in the class's own namespace
    assert {"__init__", "to_dict", "to_json"} <= set(vars(RowError))


shared = pytest.mark.parametrize("cls, fields", SHARED, ids=[c.__name__ for c, _ in SHARED])


@shared
def test_shared_constructor_missing_field(cls, fields):
    for name in fields:
        if name not in cls._defaults:
            with pytest.raises(TypeError, match=f"{cls.__name__}.*missing field '{name}'"):
                cls(**{f: v for f, v in fields.items() if f != name})
    required = [f for f in fields if f not in cls._defaults]
    with pytest.raises(TypeError, match=f"missing field '{required[-1]}'"):
        cls(*list(fields.values())[:len(required) - 1])


@shared
def test_shared_constructor_extra_positional(cls, fields):
    values = list(fields.values())
    with pytest.raises(TypeError, match=f"{cls.__name__}.*'{next(iter(fields))}'.*"
                                        f"got {len(values) + 1} values"):
        cls(*values, None)


@shared
def test_shared_constructor_field_given_twice(cls, fields):
    first, *_ = fields
    values = list(fields.values())
    with pytest.raises(TypeError, match=f"{cls.__name__}.*field '{first}' twice"):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError, match=f"field '{first}' twice"):
        cls(values[0], **fields)


@shared
def test_shared_constructor_unknown_keyword(cls, fields):
    with pytest.raises(TypeError, match=f"{cls.__name__}.*unknown field 'colour'"):
        cls(*fields.values(), colour=1)
    with pytest.raises(TypeError, match="unknown field 'colour'"):
        cls(colour=1, **fields)


@shared
def test_make_skips_the_constructor(cls, fields):
    a = cls._make(*fields.values())
    assert a == cls(**fields) and repr(a) == REPRS[cls]


def record_classes(base=_Record):
    for cls in base.__subclasses__():
        yield cls
        yield from record_classes(cls)


def test_every_record_class_declares_its_slots():
    classes = list(record_classes())
    assert {cls for cls, _ in SAMPLES} <= set(classes)
    for cls in classes:
        # a subclass without its own __slots__ would bind no slot at all
        assert cls.__slots__[:len(cls._fields)] == cls._fields, cls.__name__
        assert len(cls._put) == len(cls.__slots__), cls.__name__
        trailing = cls._fields[len(cls._fields) - len(cls._defaults):]
        assert set(cls._defaults) == set(trailing), cls.__name__
