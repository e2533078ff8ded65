"""Constructors reject inexact entries instead of coercing them with int()."""

import importlib
import pkgutil
import sys
from fractions import Fraction

import pytest

import modtopo
from modtopo.abgroup import FgAbGroup, FrozenValue, IntMatrix, SnfResult
from test_values import sample_args


def test_int_matrix_rejects_float_and_bool_entries():
    with pytest.raises(TypeError):
        IntMatrix(1, 2, (2.7, True))
    with pytest.raises(TypeError):
        IntMatrix(1, 2, (2, True))
    with pytest.raises(TypeError):
        IntMatrix(1, 1, (1.0,))
    with pytest.raises(TypeError):
        IntMatrix(1.0, 1, (1,))


def test_fg_ab_group_rejects_float_factors_and_rank():
    with pytest.raises(TypeError):
        FgAbGroup(1, (2.0, 4.9))
    with pytest.raises(TypeError):
        FgAbGroup(1.0, ())
    with pytest.raises(TypeError):
        FgAbGroup(True, ())
    with pytest.raises(TypeError):
        FgAbGroup.from_divisors(2.0)


def test_exact_inputs_still_accepted():
    assert IntMatrix(1, 2, [2, 1]).entries == (2, 1)
    assert str(FgAbGroup(1, [2, 4])) == "Z + Z/2 + Z/4"


def test_cohomology_element_rejects_float_and_bool_coordinates():
    from modtopo.anomaly import CohomologyElement

    ambient = FgAbGroup(1, (2,))
    with pytest.raises(TypeError):
        CohomologyElement(ambient, (1.0,), (1,))
    with pytest.raises(TypeError):
        CohomologyElement(ambient, (1,), (True,))
    assert CohomologyElement(ambient, [3], [5]).coords == (3, 1)


def test_specs_reject_float_and_bool_fields():
    from modtopo.hilbert import CompactHilbertSpec, CuspidalHilbertSpec
    from modtopo.ktheory import CircleBundleSpec

    with pytest.raises(TypeError):
        CompactHilbertSpec(2.0, 1)
    with pytest.raises(TypeError):
        CompactHilbertSpec(2, True)
    with pytest.raises(TypeError):
        CuspidalHilbertSpec(1, 1, {0: 1.5, 1: 1})
    with pytest.raises(TypeError):
        CuspidalHilbertSpec(1, True, {0: 1, 1: 1})
    with pytest.raises(TypeError):
        CircleBundleSpec(1, 2.0, 0)
    with pytest.raises(TypeError):
        CircleBundleSpec(False, 0, 0)
    assert CircleBundleSpec(1, 2, 3).chern == 2


def test_json_readers_reject_inexact_numbers_with_value_error():
    from modtopo.hilbert import spec_from_json

    with pytest.raises(ValueError):
        spec_from_json({"n": 2.5, "compact": True})
    assert spec_from_json({"n": "2", "compact": True}).n == 2


def test_rational_class_rejects_float_and_bool_coordinates():
    from fractions import Fraction

    from modtopo.anomaly import RationalClass

    with pytest.raises(TypeError):
        RationalClass((0.1,))
    with pytest.raises(TypeError):
        RationalClass((Fraction(1, 2), True))
    assert RationalClass((1, Fraction(1, 2))).coords == (1, Fraction(1, 2))


def test_rational_strings_reject_float_and_bool_with_value_error():
    from fractions import Fraction

    from modtopo.anomaly import RationalClass

    with pytest.raises(ValueError):
        RationalClass.from_strings([0.1])
    with pytest.raises(ValueError):
        RationalClass.from_strings(["1/2", True])
    assert RationalClass.from_strings(["1/2", 3]).coords == (Fraction(1, 2), 3)


def test_json_readers_reject_misshapen_documents():
    from modtopo.errors import InvalidInput
    from modtopo.graded import GradedCohomology

    for read, doc in [
        (IntMatrix.from_json, [1, 2]),
        (IntMatrix.from_json, {"rows": 1, "cols": 1, "entries": 7}),
        (FgAbGroup.from_json, 5),
        (FgAbGroup.from_json, {"rank": 0, "torsion": "24"}),
        (GradedCohomology.from_json, {"top_degree": 0, "groups": {"rank": 1}}),
        (GradedCohomology.from_json, {"top_degree": 0, "groups": [3]}),
    ]:
        with pytest.raises(InvalidInput):
            read(doc)


def test_ring_presentation_rejects_float_and_bool_degrees_and_indices():
    from modtopo.steenrod import ModPRingPresentation

    with pytest.raises(TypeError):
        ModPRingPresentation(2, [("x", 1.9)])
    with pytest.raises(TypeError):
        ModPRingPresentation(2, [("x", True)])
    with pytest.raises(TypeError):
        ModPRingPresentation(2, [("x", 2)], operations={("Sq", 1.7, "x"): 0})
    with pytest.raises(TypeError):
        ModPRingPresentation(2, [("x", 2)], operations={("Sq", True, "x"): 0})
    assert ModPRingPresentation(2, [("x", 2)], operations={("Sq", 1, "x"): 0}).degrees == (2,)


def test_ring_presentation_rejects_float_coefficients_and_exponents():
    from modtopo.steenrod import ModPRingPresentation

    pres = ModPRingPresentation(2, [("x", 1)])
    with pytest.raises(TypeError):
        pres.element([(3.5, {"x": 2})])
    with pytest.raises(TypeError):
        pres.element([(1, {"x": 2.9})])
    with pytest.raises(TypeError):
        pres.element([(1, {"x": True})])
    with pytest.raises(TypeError):
        ModPRingPresentation(2, [("x", 1)], [[(1.0, {"x": 3})]])
    with pytest.raises(TypeError):
        ModPRingPresentation(2, [("x", 2)], operations={("Sq", 1, "x"): [(1, {"x": 1.5})]})
    assert str(pres.element([(3, {"x": 2})])) == "x^2"


def test_betti_table_rejects_float_and_bool_values():
    from modtopo.graded import BettiTable

    with pytest.raises(TypeError):
        BettiTable((1.5, True))
    with pytest.raises(TypeError):
        BettiTable((1, 2.0))
    assert BettiTable([1, 0, 1]).values == (1, 0, 1)


def test_ring_presentation_rejects_float_and_bool_zero_polynomials():
    from modtopo.steenrod import ModPRingPresentation

    pres = ModPRingPresentation(2, [("x", 1)])
    for zero in (0.0, False, 0.5):
        with pytest.raises(TypeError):
            pres.element(zero)
        with pytest.raises(TypeError):
            ModPRingPresentation(2, [("x", 1)], [zero])
        with pytest.raises(TypeError):
            ModPRingPresentation(2, [("x", 2)], operations={("Sq", 1, "x"): zero})
    assert pres.element(0).poly == {} and pres.element("0").poly == {} and pres.element(None).poly == {}
    assert ModPRingPresentation(2, [("x", 1)], [0]).raw_relations == ({},)


# -- one check in FrozenValue, walked over every value type ------------------


def value_classes():
    """Every FrozenValue subclass the package defines, after importing all of
    its modules, by class name."""
    for module in pkgutil.iter_modules(modtopo.__path__):
        importlib.import_module(f"modtopo.{module.name}")
    found, todo = {}, [FrozenValue]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("modtopo."):
                found[cls.__name__] = cls
    return found


def int_dict(kind):
    return kind.startswith("dict[") and kind.endswith(", int]")


def inexact_values(cls):
    """(field index, field, wrong value) for each field annotated int, bool,
    str, dict[K, int], a value class, a union of one with None or a class its
    module names, or a tuple of one of those: a float and a bool where an int
    belongs, a plain int where only a bool, a str, a dict or a value class
    does, and a dict holding a float or a bool where a dict[K, int] does."""
    scope = vars(sys.modules[cls.__module__])
    for i, (name, note) in enumerate(cls.__annotations__.items()):
        many = note.startswith("tuple[") and note.endswith(", ...]")
        kinds = (note[6:-6] if many else note).split(" | ")
        if not all(k in ("int", "bool", "str", "None") or int_dict(k) or isinstance(scope.get(k), type) for k in kinds):
            continue
        if "int" in kinds:
            wrong = [1.0, True]
        elif any(k in ("bool", "str") or int_dict(k) or issubclass(scope.get(k, type(None)), FrozenValue) for k in kinds):
            wrong = [1]
        else:
            continue
        if any(map(int_dict, kinds)):
            wrong += [{0: 1.0}, {0: True}]
        for value in wrong:
            yield i, name, (value,) if many else value


VALUE_CLASSES = value_classes()


def test_the_walk_reaches_every_value_type():
    assert set(VALUE_CLASSES) == set(sample_args()) | {"SweepReport"}
    checked = {(name, field) for name, cls in VALUE_CLASSES.items() for _, field, _ in inexact_values(cls)}
    assert {("SweepReport", "cases"), ("KPair", "k0"), ("RationalClass", "coords")} <= checked
    assert {("SweepReport", "name"), ("MmsVerdict", "unstable"), ("HodgeSlice", "entries")} <= checked
    assert {("AxiomReport", "checked"), ("CuspidalHilbertSpec", "cusp_dims"), ("HodgeSlice", "flags")} <= checked
    assert len(checked) >= 55


@pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
def test_every_value_type_refuses_floats_bools_and_wrong_classes(name):
    cls = VALUE_CLASSES[name]
    args = {**sample_args(), "SweepReport": ("sweep", 3, ((1, 2),))}[name]
    cls(*args)
    for i, field, value in inexact_values(cls):
        with pytest.raises(TypeError, match=rf"^{name}\.{field} takes "):
            cls(*args[:i], value, *args[i + 1 :])


def test_the_public_types_that_took_floats_refuse_them():
    from modtopo.anomaly import CohomologyElement, HilbertAnomalyReport
    from modtopo.graded import GradedCohomology
    from modtopo.hilbert import CuspidalBetti, FiltrationDims, HodgeSlice
    from modtopo.ktheory import KPair

    eye = IntMatrix.identity(1)
    for build in (
        lambda: SnfResult((2.0,), eye, eye, eye, eye),
        lambda: CuspidalBetti(1.5, 0, 0, 1.5, False),
        lambda: FiltrationDims(0.5, 1),
        lambda: HilbertAnomalyReport(1.5, None, "x"),
        lambda: HodgeSlice(1.0, {(0, 0, "u"): 0.5}, ()),
        lambda: KPair(1.0, 2.0),
        lambda: GradedCohomology((1.0,)),
        lambda: CohomologyElement(3, (), ()),
    ):
        with pytest.raises(TypeError):
            build()


def test_dict_values_and_str_and_bool_fields_are_checked():
    from modtopo.anomaly import HilbertAnomalyReport, MmsVerdict
    from modtopo.graded import CoefficientSpec, GradedCohomology
    from modtopo.hilbert import HodgeSlice

    with pytest.raises(TypeError, match=r"^HodgeSlice\.entries takes dict\[tuple\[int, int, str\], int\], not a float value$"):
        HodgeSlice(1, {(0, 0, "u"): 0.5})
    with pytest.raises(TypeError, match=r"^HilbertAnomalyReport\.cusp_h3_dims takes .*, not a float value$"):
        HilbertAnomalyReport(1, {(1, 2): 0.5}, "x")
    with pytest.raises(TypeError, match=r"^MmsVerdict\.unstable takes bool, not int$"):
        MmsVerdict(1)
    with pytest.raises(TypeError, match=r"^CoefficientSpec\.kind takes str, not int$"):
        CoefficientSpec(3)
    assert HilbertAnomalyReport(1, {(1, 2): 3}, "x").cusp_h3_dims == {(1, 2): 3}
    assert HilbertAnomalyReport(1, None, "x").cusp_h3_dims is None
    # a JSON label that is not a string is a usage error, not a TypeError
    with pytest.raises(ValueError, match="label must be a string"):
        GradedCohomology.from_json({"top_degree": 0, "groups": [{"rank": 1}], "label": 5})


def test_tuple_fields_are_made_tuples_and_checked_before_post_init():
    from modtopo.anomaly import RationalClass
    from modtopo.graded import GradedCohomology

    with pytest.raises(TypeError, match=r"^RationalClass\.coords takes tuple\[int \| Fraction, \.\.\.\], not str$"):
        RationalClass(("1/2",))  # exact, but a string is read by from_strings

    assert GradedCohomology([FgAbGroup(1)]).groups == (FgAbGroup(1),)
    assert IntMatrix(1, 2, iter([3, 4])).entries == (3, 4)
    # a negative float rank would fail __post_init__'s ValueError; the type check comes first
    with pytest.raises(TypeError, match=r"^FgAbGroup\.rank takes int, not float$"):
        FgAbGroup(-1.0)
    with pytest.raises(TypeError, match=r"^IntMatrix\.entries takes tuple\[int, \.\.\.\], not str$"):
        IntMatrix(1, 1, "7")


def test_a_class_named_like_a_library_class_does_not_shadow_it():
    from modtopo.ktheory import KPair

    impostor = type("FgAbGroup", (FrozenValue,), {"__annotations__": {"rank": "int"}})
    with pytest.raises(TypeError, match=r"^KPair\.k0 takes FgAbGroup"):
        KPair(impostor(1), FgAbGroup())
    assert KPair(FgAbGroup(1), FgAbGroup()).k0 == FgAbGroup(1)
    # a value class defined here reads its annotations in this module
    pair = type("Pair", (FrozenValue,), {"__annotations__": {"a": "FgAbGroup", "b": "Fraction"}})
    assert pair(FgAbGroup(), Fraction(1, 2)).b == Fraction(1, 2)
    with pytest.raises(TypeError, match=r"^Pair\.a takes FgAbGroup"):
        pair(impostor(1), Fraction(1, 2))
    with pytest.raises(TypeError, match=r"^Pair\.b takes Fraction, not int$"):
        pair(FgAbGroup(), 1)
