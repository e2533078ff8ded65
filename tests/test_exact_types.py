"""Constructors reject inexact entries instead of coercing them with int()."""

import pytest

from modtopo.abgroup import FgAbGroup, IntMatrix


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
