"""The stable error codes that the CLI prints as ``error[CODE]``."""

from modtopo import errors
from modtopo.errors import DomainError

CODES = {
    "DomainError": "DOMAIN_ERROR",
    "DimensionMismatch": "DIMENSION_MISMATCH",
    "NotAComplex": "NOT_A_COMPLEX",
    "DegreeOutOfRange": "DEGREE_OUT_OF_RANGE",
    "AmbientMismatch": "AMBIENT_MISMATCH",
    "ShapeMismatch": "SHAPE_MISMATCH",
    "LengthMismatch": "LENGTH_MISMATCH",
    "NoUnitSummand": "NO_UNIT_SUMMAND",
    "InvalidDimension": "INVALID_DIMENSION",
    "NotModTwo": "NOT_MOD_TWO",
    "NotOddPrime": "NOT_ODD_PRIME",
    "Inhomogeneous": "INHOMOGENEOUS",
    "Undetermined": "UNDETERMINED",
    "WrongDegree": "WRONG_DEGREE",
    "InvalidInput": "INVALID_INPUT",
    "NotASublattice": "NOT_A_SUBLATTICE",
}


def test_every_domain_error_keeps_its_public_code():
    # a code is derived from its class name, so renaming a class would
    # change what the CLI prints; this table pins all of them
    classes = {name: cls for name, cls in vars(errors).items() if isinstance(cls, type)}
    assert {name: cls.code for name, cls in classes.items() if issubclass(cls, DomainError)} == CODES
    assert errors.InvalidInput("a raised error").code == "INVALID_INPUT"


def test_a_new_domain_error_takes_its_class_name_in_upper_snake_case():
    class NotAVeryLongNameForAFailure(errors.NotAComplex):
        pass

    assert NotAVeryLongNameForAFailure.code == "NOT_A_VERY_LONG_NAME_FOR_A_FAILURE"
    assert errors.NotAComplex.code == "NOT_A_COMPLEX"
