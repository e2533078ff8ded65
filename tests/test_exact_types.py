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
