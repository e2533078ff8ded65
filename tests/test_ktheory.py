import random

import pytest

from helpers import allocation_cap, deadline
from modtopo.abgroup import MAX_INVARIANT_FACTORS, FgAbGroup, IntMatrix, dual_complex
from modtopo.errors import InvalidDimension, InvalidInput, NoUnitSummand
from modtopo.graded import betti, tensor_product_complex
from modtopo.ktheory import (
    MAX_D3_GENUS,
    CircleBundleSpec,
    KPair,
    k_groups,
    k_groups_via_d3,
    product_with_torus,
    reduced_k,
    surface_k_groups,
    t_duality_check,
    torus_k_groups,
    total_space_cohomology,
)
from modtopo.ktheory import _twisted_k_of_dim3

Z = FgAbGroup.free


def free_and(j, *tors):
    return FgAbGroup.from_divisors(*([0] * j), *tors)


# -- cohomology lists ---------------------------------------------------


def test_total_space_trivial_bundle():
    h = total_space_cohomology(CircleBundleSpec(1, 0))
    assert tuple(h.groups) == (Z(1), Z(3), Z(3), Z(1))


def test_total_space_nonzero_chern():
    h = total_space_cohomology(CircleBundleSpec(2, 3))
    assert tuple(h.groups) == (Z(1), Z(4), free_and(4, 3), Z(1))


def test_total_space_three_sphere():
    # genus 0, chern 1: the unit torsion drops and H^1 = H^2 = 0
    h = total_space_cohomology(CircleBundleSpec(0, 1))
    assert tuple(h.groups) == (Z(1), Z(0), Z(0), Z(1))


def test_total_space_chern_sign_irrelevant():
    a = total_space_cohomology(CircleBundleSpec(2, 3))
    b = total_space_cohomology(CircleBundleSpec(2, -3))
    assert a.groups == b.groups


def test_betti_lists_sweep():
    for g in range(5):
        for j in (0, 1, -1, 3, -3):
            h = total_space_cohomology(CircleBundleSpec(g, j))
            if j == 0:
                assert betti(h).values == (1, 2 * g + 1, 2 * g + 1, 1)
            else:
                assert betti(h).values == (1, 2 * g, 2 * g, 1)


# -- closed-form K-groups -------------------------------------------------


def test_k_groups_untwisted_trivial():
    assert k_groups(CircleBundleSpec(1, 0, 0)) == KPair(Z(4), Z(4))


def test_k_groups_untwisted_chern_two():
    assert k_groups(CircleBundleSpec(1, 2, 0)) == KPair(free_and(3, 2), Z(3))


def test_k_groups_twisted_trivial_bundle():
    assert k_groups(CircleBundleSpec(1, 0, 3)) == KPair(Z(3), free_and(3, 3))


def test_k_groups_four_case_table():
    for g in range(5):
        for j in range(-5, 6):
            for k in range(6):
                got = k_groups(CircleBundleSpec(g, j, k))
                if k == 0 and j == 0:
                    want = KPair(Z(2 * g + 2), Z(2 * g + 2))
                elif k == 0:
                    want = KPair(free_and(2 * g + 1, abs(j)), Z(2 * g + 1))
                elif j == 0:
                    want = KPair(Z(2 * g + 1), free_and(2 * g + 1, k))
                else:
                    want = KPair(free_and(2 * g, abs(j)), free_and(2 * g, k))
                assert got == want, (g, j, k)


# -- differential path ------------------------------------------------------


def test_d3_path_zero_twist_matches_untwisted():
    for g in range(3):
        for j in (0, 2, -4):
            spec = CircleBundleSpec(g, j, 0)
            assert k_groups_via_d3(spec) == k_groups(spec)


def test_d3_path_example():
    spec = CircleBundleSpec(1, 0, 3)
    assert k_groups_via_d3(spec).k1 == free_and(3, 3)


def test_d3_path_equivalence_sweep():
    for g in range(5):
        for j in range(-5, 6):
            for k in range(6):
                spec = CircleBundleSpec(g, j, k)
                assert k_groups_via_d3(spec) == k_groups(spec), (g, j, k)


@pytest.mark.parametrize("genus", [MAX_D3_GENUS + 1, 10**12])
def test_d3_path_refuses_a_large_genus_before_building_anything(genus):
    with deadline(2, "the d3 path built its cochains"), allocation_cap(2**20, "the d3 path"):
        with pytest.raises(InvalidInput, match=f"genus <= {MAX_D3_GENUS}"):
            k_groups_via_d3(CircleBundleSpec(genus, 3, 4))


def test_closed_form_costs_nothing_per_unit_of_genus():
    # a list per unit of genus would hold 2 * 10**6 entries here, far past the cap
    with deadline(1, "the closed form grew with the genus"), allocation_cap(2**20, "the closed form"):
        pair = k_groups(CircleBundleSpec(10**6, 3, 4))
    assert pair == KPair(FgAbGroup(2 * 10**6, (3,)), FgAbGroup(2 * 10**6, (4,)))


@pytest.mark.parametrize("p", [1, -1, 2, 3, 5, -4])
@pytest.mark.parametrize("k", range(5))
def test_d3_path_lens_spaces(p, k):
    # L(|p|, 1) has H^* = Z, 0, Z/|p|, Z; p = +-1 is S^3, with K^0 = 0 and
    # K^1 = Z/k once twisted
    want = KPair(free_and(int(k == 0), abs(p)), free_and(0, k))
    assert k_groups_via_d3(CircleBundleSpec(0, p, k)) == want


@pytest.mark.parametrize(
    "circle",
    [[IntMatrix.zeros(1, 1)], [IntMatrix.from_rows([[-1, 1], [1, -1]])]],
    ids=["two-cell", "two-vertex"],
)
@pytest.mark.parametrize("k", range(4))
def test_cellular_three_torus(circle, k):
    # T^3 twisted by k times a generator of H^3 (Bouwknegt, Evslin, Mathai 2004)
    torus = tensor_product_complex(tensor_product_complex(circle, circle), circle)
    top = torus[2].cols
    h = IntMatrix(top, 1, (k,) + (0,) * (top - 1))
    got = _twisted_k_of_dim3(dual_complex(torus), h)
    assert got == KPair(Z(3 + (k == 0)), free_and(3, k))


# -- t-duality ---------------------------------------------------------------


def test_t_duality_symmetric_input():
    assert t_duality_check(CircleBundleSpec(1, 0, 0))


def test_t_duality_examples():
    assert t_duality_check(CircleBundleSpec(1, 2, 3))
    assert t_duality_check(CircleBundleSpec(3, 4, 0))


def test_t_duality_sweep():
    for g in range(5):
        for j in range(-5, 6):
            for k in range(6):
                assert t_duality_check(CircleBundleSpec(g, j, k)), (g, j, k)


# -- torus products ------------------------------------------------------------


def test_surface_k_groups():
    for g in range(7):
        pair = surface_k_groups(g)
        assert pair.k0 == Z(2)
        assert pair.k1 == Z(2 * g)
        h = total_space_cohomology(CircleBundleSpec(g, 0))
        # degenerate-fiber statement: K^0(surface) = H^0 + H^2 of the surface
        assert pair.k0 == FgAbGroup.free(1 + 1)


def test_torus_k_groups():
    assert torus_k_groups(1) == KPair(Z(1), Z(1))
    assert torus_k_groups(2) == KPair(Z(2), Z(2))
    assert torus_k_groups(3) == KPair(Z(4), Z(4))
    with pytest.raises(InvalidDimension):
        torus_k_groups(0)


def test_reduced_k():
    assert reduced_k(Z(1)) == FgAbGroup.trivial()
    assert reduced_k(Z(2)) == Z(1)
    assert reduced_k(free_and(3, 2)) == free_and(2, 2)
    with pytest.raises(NoUnitSummand):
        reduced_k(FgAbGroup.cyclic(2))


def test_product_with_torus_surface_base():
    for g in range(4):
        out = product_with_torus(surface_k_groups(g), 1)
        assert out.k0 == Z(2 * g + 2)
        assert out.k0 == out.k1


def test_product_with_torus_point_base_matches_torus():
    point = KPair(Z(1), FgAbGroup.trivial())
    for k in range(1, 5):
        out = product_with_torus(point, k)
        assert out == torus_k_groups(k)


@pytest.mark.parametrize(
    "torsion,k",
    [((2,), 22), ((2, 2), 21), ((6,), 10**9)],
    ids=["one factor", "two factors", "a billion-torus"],
)
def test_product_with_torus_refuses_torsion_past_the_cap_before_building_it(torsion, k):
    base = KPair(free_and(1, *torsion), FgAbGroup.trivial())
    with deadline(1, "the torus product was built"), allocation_cap(2**20, "a refused torus product"):
        with pytest.raises(InvalidInput, match=f"past {MAX_INVARIANT_FACTORS}$"):
            product_with_torus(base, k)


def test_product_with_torus_without_torsion_has_no_cap():
    out = product_with_torus(KPair(Z(3), Z(1)), 200)
    assert out.k0 == out.k1 == Z(2**199 * 4)


def test_product_with_torus_outputs_isomorphic_and_double():
    rng = random.Random(1234)
    for _ in range(50):
        base = KPair(
            FgAbGroup.from_divisors(
                *([0] * rng.randint(1, 3)),
                *[rng.randint(2, 9) for _ in range(rng.randint(0, 2))],
            ),
            FgAbGroup.from_divisors(
                *([0] * rng.randint(0, 3)),
                *[rng.randint(2, 9) for _ in range(rng.randint(0, 2))],
            ),
        )
        prev = None
        for k in range(1, 5):
            out = product_with_torus(base, k)
            assert out.k0.is_isomorphic(out.k1)
            expected_rank = 2 ** (k - 1) * (
                (base.k0.rank - 1) + base.k1.rank + 1
            )
            assert out.k0.rank == expected_rank
            if prev is not None:
                assert out.k0.rank == 2 * prev
            prev = out.k0.rank


def test_product_with_torus_needs_unit():
    with pytest.raises(NoUnitSummand):
        product_with_torus(KPair(FgAbGroup.cyclic(2), Z(1)), 2)
    with pytest.raises(InvalidDimension):
        product_with_torus(KPair(Z(1), Z(1)), 0)


def test_kpair_serialization():
    pair = k_groups(CircleBundleSpec(1, 0, 3))
    assert KPair.from_json(pair.to_json()) == pair


def test_a_negative_genus_or_twist_is_refused():
    with pytest.raises(ValueError, match="genus must be nonnegative"):
        CircleBundleSpec(-1)
    with pytest.raises(ValueError, match="twist level must be nonnegative"):
        CircleBundleSpec(1, 2, -3)
    with pytest.raises(ValueError, match="genus must be nonnegative"):
        surface_k_groups(-1)
