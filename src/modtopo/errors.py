"""Exception hierarchy.

Every domain-level failure raises a subclass of :class:`DomainError`
carrying a stable ``code`` string; the command-line front end maps these
to exit code 1 (usage problems exit with 2).
"""


class DomainError(Exception):
    """Base class for all mathematical/domain failures."""

    code = "DOMAIN_ERROR"


class DimensionMismatch(DomainError):
    """Matrices in a complex do not compose."""

    code = "DIMENSION_MISMATCH"


class NotAComplex(DomainError):
    """Consecutive boundary maps do not square to zero."""

    code = "NOT_A_COMPLEX"


class DegreeOutOfRange(DomainError):
    """Requested cohomological degree lies outside 0..2n."""

    code = "DEGREE_OUT_OF_RANGE"


class AmbientMismatch(DomainError):
    """Cohomology elements live in different ambient groups."""

    code = "AMBIENT_MISMATCH"


class ShapeMismatch(DomainError):
    """A supplied linear map does not match source/target coordinates."""

    code = "SHAPE_MISMATCH"


class LengthMismatch(DomainError):
    """Coordinate lists of unequal length."""

    code = "LENGTH_MISMATCH"


class NoUnitSummand(DomainError):
    """Reduced K-theory requires a free Z summand to split off."""

    code = "NO_UNIT_SUMMAND"


class InvalidDimension(DomainError):
    """Torus dimension must be at least 1."""

    code = "INVALID_DIMENSION"


class NotModTwo(DomainError):
    """Steenrod squares require characteristic 2."""

    code = "NOT_MOD_TWO"


class NotOddPrime(DomainError):
    """Steenrod powers require an odd prime characteristic."""

    code = "NOT_ODD_PRIME"


class Inhomogeneous(DomainError):
    """Operation requires a homogeneous ring element."""

    code = "INHOMOGENEOUS"


class Undetermined(DomainError):
    """A generator value is neither axiom-forced nor supplied."""

    code = "UNDETERMINED"


class WrongDegree(DomainError):
    """Ring element has the wrong degree for this operation."""

    code = "WRONG_DEGREE"


class InvalidInput(DomainError):
    """A document or value without a meaning: a JSON document that is not
    an object, a rational with a zero denominator."""

    code = "INVALID_INPUT"


class NotASublattice(DomainError):
    """Quotient requested by generators that do not lie in the lattice."""

    code = "NOT_A_SUBLATTICE"
