import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modtopo.abgroup import FgAbGroup, IntMatrix, homology_of_complex
from modtopo.graded import (
    BettiTable,
    CoefficientSpec,
    GradedCohomology,
    betti,
    cohomology_with_coefficients,
    euler_characteristic,
    homology_with_coefficients,
    kunneth_product,
    tensor_product_complex,
)
from modtopo.errors import InvalidInput

from helpers import (
    allocation_cap,
    deadline,
    mod_p_rank,
    random_alternating_complex,
    random_composable_complex,
)

Z = FgAbGroup.free(1)
T = FgAbGroup.trivial()


def surface(g: int) -> GradedCohomology:
    return GradedCohomology((Z, FgAbGroup.free(2 * g), Z), f"genus-{g} surface")


def point() -> GradedCohomology:
    return GradedCohomology((Z,), "point")


def pad(groups, n):
    return list(groups) + [T] * (n - len(groups))


def graded_eq(a: list[FgAbGroup], b: list[FgAbGroup]) -> bool:
    n = max(len(a), len(b))
    return pad(a, n) == pad(b, n)


# -- kunneth ------------------------------------------------------------


def test_kunneth_unit():
    y = surface(2)
    prod = kunneth_product(point(), y)
    assert prod.groups == y.groups
    assert kunneth_product(y, point()).groups == y.groups


def test_kunneth_torus_betti_convolution():
    prod = kunneth_product(surface(1), surface(1))
    assert betti(prod).values == (1, 4, 6, 4, 1)


def test_kunneth_tor_term_lands_one_above_sources():
    x = GradedCohomology((Z, FgAbGroup.cyclic(2)))
    prod = kunneth_product(x, x)
    # Tor(H^1, H^1) = Z/2 shows up in degree 3
    assert prod.group_at(3) == FgAbGroup.cyclic(2)
    assert prod.top_degree == 3


def test_kunneth_euler_multiplicative():
    x, y = surface(2), surface(3)
    prod = kunneth_product(x, y)
    assert euler_characteristic(x) == -2
    assert euler_characteristic(y) == -4
    assert euler_characteristic(prod) == 8


def test_kunneth_euler_multiplicative_with_torsion():
    rng = random.Random(5150)
    for _ in range(30):
        gx = tuple(
            FgAbGroup.from_divisors(*[rng.randint(0, 6) for _ in range(rng.randint(0, 3))])
            for _ in range(rng.randint(1, 4))
        )
        gy = tuple(
            FgAbGroup.from_divisors(*[rng.randint(0, 6) for _ in range(rng.randint(0, 3))])
            for _ in range(rng.randint(1, 4))
        )
        x, y = GradedCohomology(gx), GradedCohomology(gy)
        assert euler_characteristic(kunneth_product(x, y)) == euler_characteristic(
            x
        ) * euler_characteristic(y)


def test_kunneth_betti_convolution_torsion_free():
    rng = random.Random(303)
    for _ in range(30):
        x = GradedCohomology(
            tuple(FgAbGroup.free(rng.randint(0, 4)) for _ in range(rng.randint(1, 4)))
        )
        y = GradedCohomology(
            tuple(FgAbGroup.free(rng.randint(0, 4)) for _ in range(rng.randint(1, 4)))
        )
        prod = kunneth_product(x, y)
        bx, by = betti(x).values, betti(y).values
        for k in range(x.top_degree + y.top_degree + 1):
            conv = sum(
                bx[p] * by[k - p]
                for p in range(k + 1)
                if p < len(bx) and 0 <= k - p < len(by)
            )
            assert prod.group_at(k).rank == conv


def test_kunneth_matches_tensor_complex_homology():
    rng = random.Random(777)
    for _ in range(25):
        bx = random_alternating_complex(rng, degrees=3, max_cells=4)
        by = random_alternating_complex(rng, degrees=3, max_cells=4)
        hx = homology_of_complex(bx)
        hy = homology_of_complex(by)
        prod = kunneth_product(GradedCohomology(tuple(hx)), GradedCohomology(tuple(hy)))
        direct = homology_of_complex(tensor_product_complex(bx, by))
        assert graded_eq(list(prod.groups), direct)


# -- betti / euler ------------------------------------------------------


def test_betti_reads_ranks():
    assert betti(surface(3)).values == (1, 6, 1)
    assert betti(GradedCohomology((T, T))).values == (0, 0)


def test_betti_circle_bundle_shape():
    x = GradedCohomology((Z, FgAbGroup.free(3), FgAbGroup.free(3), Z))
    assert betti(x).values == (1, 3, 3, 1)


def test_euler_point_and_surfaces():
    assert euler_characteristic(point()) == 1
    for g in range(5):
        assert euler_characteristic(surface(g)) == 2 - 2 * g


# -- coefficients --------------------------------------------------------


def test_cohomology_with_integer_coefficients():
    h = [Z, FgAbGroup.cyclic(2)]
    out = cohomology_with_coefficients(h, CoefficientSpec.integers())
    assert out == [Z, T, FgAbGroup.cyclic(2)]


def test_cohomology_with_rational_coefficients():
    h = [Z, FgAbGroup.cyclic(2)]
    out = cohomology_with_coefficients(h, CoefficientSpec.rationals())
    assert [g.rank for g in out] == [1, 0, 0]
    assert all(not g.invariant_factors for g in out)


def test_cohomology_free_case_identity():
    h = [Z, FgAbGroup.free(2), Z]
    out = cohomology_with_coefficients(h, CoefficientSpec.integers())
    assert graded_eq(out, h)


def test_homology_with_mod_two_coefficients():
    h = [Z, FgAbGroup.cyclic(2)]
    out = homology_with_coefficients(h, CoefficientSpec.mod_p(2))
    two = FgAbGroup.cyclic(2)
    assert out == [two, two, two]


def test_homology_with_integer_coefficients_is_identity():
    h = [Z, FgAbGroup.cyclic(2), T]
    out = homology_with_coefficients(h, CoefficientSpec.integers())
    assert graded_eq(out, h)


def test_homology_free_mod_three():
    assert homology_with_coefficients([Z], CoefficientSpec.mod_p(3)) == [
        FgAbGroup.cyclic(3),
        T,
    ]


def test_kunneth_product_refuses_a_torsion_list_past_the_cap_across_parts_and_degrees():
    # each tensor part lists 10^6 + 2 factors and each Tor part one, all under
    # the cap; the 441 tensor and 441 Tor parts over 42 degrees list 441,001,323
    x = GradedCohomology((FgAbGroup(10**6, (2,)),) * 21)
    y = GradedCohomology((FgAbGroup(1, (3,)),) * 21)
    with deadline(1, "the Kunneth parts were built"), allocation_cap(2**20, "a refused Kunneth product"):
        with pytest.raises(InvalidInput, match=f"^the Kunneth product lists 441001323 torsion factors, past {2**20}$"):
            kunneth_product(x, y)
    # a product whose parts list no more than the cap together is built
    small = GradedCohomology((FgAbGroup(1, (2,)),) * 21)
    assert kunneth_product(small, y).group_at(40) == FgAbGroup(1, (6,))


def test_coefficient_spec_validation():
    with pytest.raises(ValueError):
        CoefficientSpec.mod_p(6)
    with pytest.raises(ValueError):
        CoefficientSpec("mod_p")
    with pytest.raises(ValueError):
        CoefficientSpec("integers", 3)
    with pytest.raises(ValueError):
        CoefficientSpec.rationals().as_group()


def test_uct_against_direct_mod_p_homology():
    rng = random.Random(24601)
    for trial in range(40):
        bnds = (
            random_alternating_complex(rng, degrees=4)
            if trial % 2
            else random_composable_complex(rng, degrees=4)
        )
        h = homology_of_complex(bnds)
        for p in (2, 3, 5):
            dims = [bnds[0].rows] + [b.cols for b in bnds]
            ranks = [mod_p_rank(b, p) for b in bnds]
            direct = []
            for m in range(len(dims)):
                out_rank = ranks[m - 1] if m >= 1 else 0
                in_rank = ranks[m] if m < len(bnds) else 0
                direct.append(
                    FgAbGroup.from_divisors(*([p] * (dims[m] - out_rank - in_rank)))
                )
            uct = homology_with_coefficients(h, CoefficientSpec.mod_p(p))
            assert graded_eq(uct, direct), (bnds, p)


def test_rational_ranks_equal_integral_ranks():
    rng = random.Random(8)
    for _ in range(20):
        bnds = random_alternating_complex(rng, degrees=4)
        h = homology_of_complex(bnds)
        out = cohomology_with_coefficients(h, CoefficientSpec.rationals())
        assert [g.rank for g in out[: len(h)]] == [g.rank for g in h]


# -- serialization -------------------------------------------------------


def test_graded_serialization_round_trip():
    x = GradedCohomology((Z, FgAbGroup(0, (2, 4))), "demo")
    assert GradedCohomology.from_json(x.to_json()) == x
    doc = x.to_json()
    doc["top_degree"] = 5
    with pytest.raises(ValueError):
        GradedCohomology.from_json(doc)


def test_betti_table_json():
    assert BettiTable((1, 0, 22, 0, 1)).to_json() == [1, 0, 22, 0, 1]


# -- order invariance ----------------------------------------------------

groups = st.builds(
    lambda rank, orders: FgAbGroup.from_divisors(*[0] * rank, *orders),
    st.integers(0, 2),
    st.lists(st.integers(2, 12), max_size=2),
)
graded = st.lists(groups, min_size=1, max_size=4).map(lambda gs: GradedCohomology(tuple(gs)))


@st.composite
def alternating_complexes(draw):
    """Chain complexes whose every other boundary is zero, so d o d = 0."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    boundaries = []
    for m, (r, c) in enumerate(zip(dims, dims[1:])):
        entries = draw(st.lists(st.integers(-3, 3), min_size=r * c, max_size=r * c))
        boundaries.append(IntMatrix(r, c, entries if m % 2 == 0 else (0,) * (r * c)))
    return boundaries


@settings(max_examples=200, deadline=None)
@given(graded, graded)
def test_kunneth_product_does_not_depend_on_factor_order(x, y):
    assert kunneth_product(x, y) == kunneth_product(y, x)


@settings(max_examples=60, deadline=None)
@given(alternating_complexes(), alternating_complexes())
def test_tensor_product_complex_homology_does_not_depend_on_factor_order(bx, by):
    xy = homology_of_complex(tensor_product_complex(bx, by))
    assert xy == homology_of_complex(tensor_product_complex(by, bx))
