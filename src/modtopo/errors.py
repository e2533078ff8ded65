"""Exception hierarchy.

Every domain-level failure raises a subclass of :class:`DomainError`
whose stable ``code`` is its class name in upper snake case
(``NotASublattice`` -> ``NOT_A_SUBLATTICE``); the command-line front end
maps these to exit code 1 (usage problems exit with 2).
"""


class DomainError(Exception):
    """Base class for all mathematical/domain failures."""

    code = "DOMAIN_ERROR"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = "".join(f"_{c}" if c.isupper() and i else c for i, c in enumerate(cls.__name__)).upper()


class DimensionMismatch(DomainError):
    """Matrices in a complex do not compose."""


class NotAComplex(DomainError):
    """Consecutive boundary maps do not square to zero."""


class DegreeOutOfRange(DomainError):
    """Requested cohomological degree lies outside 0..2n."""


class AmbientMismatch(DomainError):
    """Cohomology elements live in different ambient groups."""


class ShapeMismatch(DomainError):
    """A supplied linear map does not match source/target coordinates."""


class LengthMismatch(DomainError):
    """Coordinate lists of unequal length."""


class NoUnitSummand(DomainError):
    """Reduced K-theory requires a free Z summand to split off."""


class InvalidDimension(DomainError):
    """Torus dimension must be at least 1."""


class NotModTwo(DomainError):
    """Steenrod squares require characteristic 2."""


class NotOddPrime(DomainError):
    """Steenrod powers require an odd prime characteristic."""


class Inhomogeneous(DomainError):
    """Operation requires a homogeneous ring element."""


class Undetermined(DomainError):
    """A generator value is neither axiom-forced nor supplied."""


class WrongDegree(DomainError):
    """Ring element has the wrong degree for this operation."""


class InvalidInput(DomainError):
    """A document or value without a meaning: a JSON document that is not
    an object, a rational with a zero denominator."""


class NotASublattice(DomainError):
    """Quotient requested by generators that do not lie in the lattice."""
