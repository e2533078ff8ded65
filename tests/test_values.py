"""The contract every exported immutable value type keeps.

The value types share one base, :class:`modtopo.abgroup.FrozenValue`.
These checks pin what callers rely on: equality and hashing by class and
field values, refused assignment, the ``Name(field=value, ...)`` repr, and
the same instance from positional and keyword construction.
"""

from fractions import Fraction

import pytest

import modtopo
from modtopo.abgroup import FgAbGroup, FrozenValue, IntMatrix
from modtopo.anomaly import CohomologyElement, RationalClass
from modtopo.hilbert import CuspidalHilbertSpec
from modtopo.selftest import SweepReport
from modtopo.steenrod import AxiomViolation


def sample_args():
    """Constructor arguments for one instance of each exported value type,
    built afresh on every call so that two calls give equal, distinct values."""
    eye = IntMatrix.identity(2)
    ambient = FgAbGroup(1, (2,))
    return {
        "IntMatrix": (2, 2, (1, 2, 3, 4)),
        "FgAbGroup": (1, (2, 4)),
        "SnfResult": ((1, 2), eye, eye, eye, eye),
        "CohomologyElement": (ambient, (3,), (1,)),
        "FluxVerdict": (False, RationalClass((Fraction(1, 2),))),
        "FreedWittenVerdict": (True, CohomologyElement(ambient, (0,), (0,))),
        "HilbertAnomalyReport": (2, {(1, 2): 3}, "verdict"),
        "MmsVerdict": (False,),
        "RationalClass": ((Fraction(1, 2), Fraction(3)),),
        "BettiTable": ((1, 0, 1),),
        "CoefficientSpec": ("mod_p", 3),
        "GradedCohomology": ((FgAbGroup(1), FgAbGroup(0, (2,))), "label"),
        "CompactHilbertSpec": (2, 5),
        "CuspidalBetti": (1, 2, 3, 6, True),
        "CuspidalHilbertSpec": (1, 2, {0: 1, 1: 4}),
        "FiltrationDims": (1, 2),
        "HodgeSlice": (2, {(1, 1, "univ"): 1}, ("FLAG",)),
        "CircleBundleSpec": (1, 2, 3),
        "KPair": (FgAbGroup(1), FgAbGroup(0, (2,))),
        "AxiomReport": ([AxiomViolation("CARTAN", "x")], {"CARTAN": 1}, {"CARTAN": 0}),
        "AxiomViolation": ("CARTAN", "detail", "x", "y"),
    }


CLASSES = {
    name: obj
    for name in modtopo.__all__
    if isinstance(obj := getattr(modtopo, name), type) and issubclass(obj, FrozenValue)
}


def fields(cls):
    return [n for n in cls.__annotations__ if not n.startswith("_")]


def test_every_exported_value_type_has_a_sample():
    assert len(CLASSES) == 21
    assert set(CLASSES) == set(sample_args())


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_value_type_contract(name):
    cls, args, again = CLASSES[name], sample_args()[name], sample_args()[name]
    a, b = cls(*args), cls(*again)
    assert a is not b and a == b and not a != b
    try:
        code = hash(a)
    except TypeError:  # a field holds a dict or a list
        pass
    else:
        assert code == hash(b)

    names = fields(cls)
    assert cls(**dict(zip(names, again))) == a
    twin = type("Twin", (FrozenValue,), {"__annotations__": dict.fromkeys(names, "object")})
    assert a != twin(*(getattr(a, n) for n in names))
    assert a != tuple(getattr(a, n) for n in names)
    for other, other_args in sample_args().items():
        if other != name:
            assert a != CLASSES[other](*other_args)

    for n in names:
        with pytest.raises(AttributeError):
            setattr(a, n, getattr(a, n))
        with pytest.raises(AttributeError):
            delattr(a, n)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a == b

    shown = ", ".join(f"{n}={getattr(a, n)!r}" for n in names)
    assert repr(a) == f"{name}({shown})"


def test_repr_and_equality_leave_out_private_fields():
    assert repr(IntMatrix(1, 2, [3, 4])) == "IntMatrix(rows=1, cols=2, entries=(3, 4))"
    spec = CuspidalHilbertSpec(1, 2, {0: 1, 1: 4})
    assert spec._by_size == (1, 4)
    assert repr(spec) == "CuspidalHilbertSpec(n=1, num_cusps=2, cusp_dims={0: 1, 1: 4})"
    assert SweepReport("s", 3, ()) == SweepReport("s", 3, ())


def test_defaults_and_bad_arguments():
    assert FgAbGroup() == FgAbGroup(0, ()) == FgAbGroup(invariant_factors=())
    assert CohomologyElement(FgAbGroup()).free_coords == ()
    for bad in (
        lambda: IntMatrix(1, 1),  # missing entries
        lambda: IntMatrix(1, 1, (0,), 5),  # one too many
        lambda: IntMatrix(1, 1, (0,), cols=1),  # cols twice
        lambda: FgAbGroup(rank=1, torsion=()),  # unknown name
        lambda: CuspidalHilbertSpec(1, 1, {0: 1, 1: 1}, _by_size=(2,)),  # not an init field
    ):
        with pytest.raises(TypeError):
            bad()


def test_post_init_still_validates():
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FgAbGroup(invariant_factors=(1,))
