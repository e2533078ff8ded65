import random
from fractions import Fraction
from math import gcd

import pytest

from modtopo.abgroup import FgAbGroup, IntMatrix
from modtopo.anomaly import (
    CohomologyElement,
    RationalClass,
    d3_action,
    flux_quantization_check,
    freed_witten_check,
    hilbert_anomaly_report,
    mms_instability_check,
)
from modtopo.errors import AmbientMismatch, InvalidInput, LengthMismatch, ShapeMismatch
from modtopo.hilbert import CompactHilbertSpec, CuspidalHilbertSpec


def elem(ambient, free=(), torsion=()):
    return CohomologyElement(ambient, tuple(free), tuple(torsion))


def random_ambient(rng, max_rank=2, max_factors=3):
    divs = [0] * rng.randint(0, max_rank)
    divs += [rng.randint(2, 9) for _ in range(rng.randint(0, max_factors))]
    g = FgAbGroup.from_divisors(*divs)
    return g if not g.is_trivial else FgAbGroup.cyclic(2)


def random_element(rng, ambient):
    return CohomologyElement(
        ambient,
        tuple(rng.randint(-9, 9) for _ in range(ambient.rank)),
        tuple(rng.randint(0, 20) for _ in ambient.invariant_factors),
    )


def random_hom_matrix(rng, src: FgAbGroup, tgt: FgAbGroup) -> IntMatrix:
    """Matrix of a genuine homomorphism on (free, torsion) coordinates."""
    rows_n = tgt.rank + len(tgt.invariant_factors)
    cols = []
    for _ in range(src.rank):
        col = [rng.randint(-3, 3) for _ in range(rows_n)]
        cols.append(col)
    for d in src.invariant_factors:
        col = [0] * tgt.rank
        for e in tgt.invariant_factors:
            step = e // gcd(d, e)
            col.append(step * rng.randint(0, gcd(d, e) - 1))
        cols.append(col)
    rows = [[c[i] for c in cols] for i in range(rows_n)]
    return IntMatrix.from_rows(rows, cols=len(cols))


# -- elements ------------------------------------------------------------


def test_element_torsion_reduction():
    g = FgAbGroup(1, (4,))
    e = elem(g, (3,), (7,))
    assert e.torsion_coords == (3,)
    assert (e + e).torsion_coords == (2,)


def test_element_shape_validation():
    g = FgAbGroup(1, (4,))
    with pytest.raises(ShapeMismatch):
        elem(g, (1, 2), (0,))
    with pytest.raises(ShapeMismatch):
        elem(g, (1,), ())


def test_element_ambient_mismatch():
    a = elem(FgAbGroup.cyclic(2), (), (1,))
    b = elem(FgAbGroup.cyclic(3), (), (1,))
    with pytest.raises(AmbientMismatch):
        freed_witten_check(a, b)


# -- freed-witten ---------------------------------------------------------


def test_freed_witten_zero_sum():
    g = FgAbGroup(0, (2,))
    z = CohomologyElement.zero(g)
    assert freed_witten_check(z, z).anomaly_free


def test_freed_witten_order_two_cancellation():
    g = FgAbGroup.cyclic(2)
    t = elem(g, (), (1,))
    verdict = freed_witten_check(t, t)
    assert verdict.anomaly_free
    assert verdict.obstruction.is_zero


def test_freed_witten_nonzero_obstruction():
    g = FgAbGroup.cyclic(2)
    t = elem(g, (), (1,))
    verdict = freed_witten_check(t, CohomologyElement.zero(g))
    assert not verdict.anomaly_free
    assert verdict.obstruction == t


def test_freed_witten_commutative_sweep():
    rng = random.Random(90210)
    for _ in range(200):
        g = random_ambient(rng)
        w3, h = random_element(rng, g), random_element(rng, g)
        assert (
            freed_witten_check(w3, h).anomaly_free
            == freed_witten_check(h, w3).anomaly_free
        )


def test_freed_witten_all_order_two_elements_cancel():
    # every order-2 element t satisfies t + t = 0
    for g in (FgAbGroup.cyclic(2), FgAbGroup(0, (2, 4)), FgAbGroup(1, (2, 6))):
        n = len(g.invariant_factors)
        for mask in range(2**n):
            tors = [
                (d // 2 if (mask >> i) & 1 and d % 2 == 0 else 0)
                for i, d in enumerate(g.invariant_factors)
            ]
            t = elem(g, (0,) * g.rank, tors)
            if (t + t).is_zero:
                assert freed_witten_check(t, t).anomaly_free


# -- mms ---------------------------------------------------------------------


def test_mms_degenerate_equality():
    g = FgAbGroup.cyclic(2)
    z = CohomologyElement.zero(g)
    assert mms_instability_check(z, z, z).unstable


def test_mms_examples():
    g = FgAbGroup.from_divisors(2, 0)
    pd = elem(g, (0,), (1,))
    w3 = elem(g, (0,), (1,))
    h = CohomologyElement.zero(g)
    assert mms_instability_check(pd, w3, h).unstable
    pd2 = elem(g, (1,), (0,))
    assert not mms_instability_check(pd2, w3, h).unstable


# -- d3 -----------------------------------------------------------------------


def test_d3_defaults_to_zero_without_maps():
    g = FgAbGroup.free(2)
    x = elem(g, (1, 2), ())
    out = d3_action(x, degree_x=2)
    assert out.is_zero and out.ambient.is_trivial


def test_d3_cup_multiplication_by_k():
    # H^0 = Z mapping into H^3 = Z by multiplication by k
    src, tgt = FgAbGroup.free(1), FgAbGroup.free(1)
    k = 5
    cup = IntMatrix.from_rows([[k]])
    out = d3_action(elem(src, (1,), ()), 0, cup_by_h=cup, target=tgt)
    assert out.free_coords == (5,)


def test_d3_zero_element_maps_to_zero():
    src = FgAbGroup(1, (4,))
    tgt = FgAbGroup(0, (2,))
    rng = random.Random(3)
    mat = random_hom_matrix(rng, src, tgt)
    out = d3_action(CohomologyElement.zero(src), 3, cup_by_h=mat, target=tgt)
    assert out.is_zero


def test_d3_shape_mismatch():
    src, tgt = FgAbGroup.free(2), FgAbGroup.free(1)
    bad = IntMatrix.from_rows([[1]])
    with pytest.raises(ShapeMismatch):
        d3_action(elem(src, (1, 0), ()), 3, cup_by_h=bad, target=tgt)
    with pytest.raises(ShapeMismatch):
        d3_action(elem(src, (1, 0), ()), 3, cup_by_h=IntMatrix.identity(2))


def test_d3_rejects_negative_degrees_and_sq3_below_degree_three():
    z = FgAbGroup.free(1)
    x = elem(z, (1,))
    sq3 = IntMatrix(1, 1, (7,))
    for degree in (2, 0, -4):
        with pytest.raises(InvalidInput):
            d3_action(x, degree, sq3=sq3, target=z)
    with pytest.raises(InvalidInput):
        d3_action(x, -1)
    # a zero Sq^3 map is allowed in any degree; from degree 3 on Sq^3 acts
    assert d3_action(x, 2, sq3=IntMatrix.zeros(1, 1), target=z).is_zero
    assert d3_action(x, 3, sq3=sq3, target=z).free_coords == (7,)


def test_d3_additivity_sweep():
    rng = random.Random(60606)
    for _ in range(200):
        src = random_ambient(rng)
        tgt = random_ambient(rng)
        cup = random_hom_matrix(rng, src, tgt)
        sq3 = random_hom_matrix(rng, src, tgt)
        x, y = random_element(rng, src), random_element(rng, src)
        lhs = d3_action(x + y, 3, cup_by_h=cup, sq3=sq3, target=tgt)
        rhs = d3_action(x, 3, cup_by_h=cup, sq3=sq3, target=tgt) + d3_action(
            y, 3, cup_by_h=cup, sq3=sq3, target=tgt
        )
        assert lhs == rhs


# -- flux quantization -----------------------------------------------------------


def test_flux_zero_case():
    v = flux_quantization_check(RationalClass((0, 0)), [0, 0])
    assert v.quantized


def test_flux_half_integral_cancellation():
    v = flux_quantization_check(RationalClass((Fraction(1, 2),)), [2])
    assert v.quantized
    assert v.defect.coords == (Fraction(0),)


def test_flux_violation():
    v = flux_quantization_check(RationalClass((Fraction(1),)), [2])
    assert not v.quantized
    assert v.defect.coords == (Fraction(1, 2),)


def test_flux_length_mismatch():
    with pytest.raises(LengthMismatch):
        flux_quantization_check(RationalClass((1,)), [1, 2])


def test_flux_invariant_under_integer_shifts():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 4)
        g4 = RationalClass(
            tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(n))
        )
        p1 = [rng.randint(-6, 6) for _ in range(n)]
        base = flux_quantization_check(g4, p1).quantized
        shifted = RationalClass(
            tuple(c + rng.randint(-5, 5) for c in g4.coords)
        )
        assert flux_quantization_check(shifted, p1).quantized == base


# -- hilbert report ----------------------------------------------------------------


def test_report_compact_away_from_three():
    for n in (1, 2, 4, 5):
        rep = hilbert_anomaly_report(CompactHilbertSpec(n, 7))
        assert rep.free_h3_rank == 0
        assert rep.cusp_h3_dims is None
        assert "trivial" in rep.verdict
        assert "torsion" in rep.verdict


def test_report_compact_n3():
    rep = hilbert_anomaly_report(CompactHilbertSpec(3, 2))
    assert rep.free_h3_rank == 16
    assert "torsion" in rep.verdict


def test_report_cuspidal_n3_uniform():
    rep = hilbert_anomaly_report(CuspidalHilbertSpec.uniform(3, 1, 1))
    assert rep.cusp_h3_dims == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    assert sum(rep.cusp_h3_dims.values()) == 8
    assert "anomaly condition" in rep.verdict


def test_report_cuspidal_wrong_degree():
    rep = hilbert_anomaly_report(CuspidalHilbertSpec.uniform(2, 2, 1))
    assert rep.cusp_h3_dims is None


def test_report_consistent_with_variety_cohomology():
    from modtopo.hilbert import variety_cohomology

    for n in range(2, 6):
        for d in range(3):
            spec = CompactHilbertSpec(n, d)
            rep = hilbert_anomaly_report(spec)
            assert rep.free_h3_rank == variety_cohomology(spec).group_at(3).rank


def test_report_serialization():
    rep = hilbert_anomaly_report(CuspidalHilbertSpec.uniform(3, 2, 1))
    doc = rep.to_json()
    assert doc["free_h3_rank"] == rep.free_h3_rank
    assert len(doc["cusp_h3_dims"]) == 4
