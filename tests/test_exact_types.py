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
