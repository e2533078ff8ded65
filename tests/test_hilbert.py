import json
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from helpers import deadline
from modtopo.errors import DegreeOutOfRange, InvalidInput
from modtopo.graded import betti, euler_characteristic
from modtopo.hilbert import (
    BOUNDARY_DEGREE_ZEROED,
    EIS_INCLUDED_AT_MIDDLE_DEGREE,
    CompactHilbertSpec,
    CuspidalHilbertSpec,
    betti_total,
    compact_betti,
    compact_implied_volume,
    cusp_dims_from_json,
    cuspidal_betti,
    hodge_filtration_dims,
    hodge_slice,
    spec_from_json,
    variety_cohomology,
)


def subsets_of_size(n, k):
    return comb(n, k)


# -- compact case --------------------------------------------------------


def test_compact_betti_examples():
    assert compact_betti(CompactHilbertSpec(2, 5), 2) == 4 * 5 + 2
    assert compact_betti(CompactHilbertSpec(2, 5), 1) == 0
    assert compact_betti(CompactHilbertSpec(3, 0), 3) == 0


def test_compact_betti_degree_range():
    with pytest.raises(DegreeOutOfRange):
        compact_betti(CompactHilbertSpec(2, 1), 5)
    with pytest.raises(DegreeOutOfRange):
        compact_betti(CompactHilbertSpec(2, 1), -1)


def test_compact_poincare_symmetry_and_odd_vanishing():
    for n in range(1, 6):
        for d in range(5):
            spec = CompactHilbertSpec(n, d)
            for m in range(2 * n + 1):
                assert compact_betti(spec, m) == compact_betti(spec, 2 * n - m)
                if m % 2 and m != n:
                    assert compact_betti(spec, m) == 0


def test_compact_implied_volume_examples():
    assert compact_implied_volume(CompactHilbertSpec(2, 5)) == Fraction(24, 4)
    assert compact_implied_volume(CompactHilbertSpec(1, 0)) == Fraction(-1)
    assert compact_implied_volume(CompactHilbertSpec(2, 0)) == Fraction(1)


def test_compact_euler_identity_via_hodge():
    for n in range(1, 6):
        for d in range(4):
            spec = CompactHilbertSpec(n, d)
            chi_hodge = sum(
                (-1) ** m * hodge_slice(spec, m).total() for m in range(2 * n + 1)
            )
            assert chi_hodge == (-2) ** n * compact_implied_volume(spec)


def test_compact_variety_cohomology():
    assert betti(variety_cohomology(CompactHilbertSpec(2, 5))).values == (
        1,
        0,
        22,
        0,
        1,
    )
    # n=1 has b^1 = 2d
    assert betti(variety_cohomology(CompactHilbertSpec(1, 3))).values == (1, 6, 1)


# -- cuspidal case ---------------------------------------------------------


def test_cuspidal_eis_values():
    spec = CuspidalHilbertSpec.uniform(3, 2, 1)
    assert cuspidal_betti(spec, 5).eis == 1  # h - 1 at m = 2n - 1
    assert cuspidal_betti(spec, 2).eis == 0  # 0 < m < n
    assert cuspidal_betti(spec, 3).eis == 2  # h * C(2, 0) at m = n
    assert cuspidal_betti(spec, 4).eis == 2 * comb(2, 1)


def test_cuspidal_cusp_counts_all_subsets():
    spec = CuspidalHilbertSpec.uniform(3, 2, 1)
    assert cuspidal_betti(spec, 3).cusp == 8
    for m in (0, 1, 2, 4, 5, 6):
        assert cuspidal_betti(spec, m).cusp == 0


def test_cuspidal_boundary_override():
    spec = CuspidalHilbertSpec.uniform(2, 1, 0)
    b0 = cuspidal_betti(spec, 0)
    assert b0.univ == 1 and b0.total == 0 and b0.boundary_overridden
    b4 = cuspidal_betti(spec, 4)
    assert b4.univ == 1 and b4.total == 0 and b4.boundary_overridden
    b2 = cuspidal_betti(spec, 2)
    assert not b2.boundary_overridden


def test_cuspidal_example_h1_delta0():
    spec = CuspidalHilbertSpec.uniform(3, 1, 0)
    assert cuspidal_betti(spec, 3).total == 1  # univ 0 + eis 1*C(2,0) + cusp 0


def test_cuspidal_n1_edge():
    # for n=1 the only Eisenstein degree is m = 1 = 2n-1 with value h-1
    spec = CuspidalHilbertSpec.uniform(1, 3, 2)
    assert cuspidal_betti(spec, 1).eis == 2
    assert cuspidal_betti(spec, 1).cusp == 4  # both subsets, dim 2 each
    assert cuspidal_betti(spec, 0).total == 0


def test_nonuniform_cusp_dims():
    dims = {0: 1, 1: 2, 2: 3, 3: 4}  # bitmask -> dim, n = 2
    spec = CuspidalHilbertSpec(2, 2, dims)
    assert cuspidal_betti(spec, 2).cusp == 10
    sl = hodge_slice(spec, 2)
    # q = #b: q=0 -> 1, q=1 -> 2+3, q=2 -> 4
    assert sl.entries[(2, 0, "cusp")] == 1
    assert sl.entries[(1, 1, "cusp")] == 5
    assert sl.entries[(0, 2, "cusp")] == 4


def test_cusp_dims_must_cover_all_subsets():
    with pytest.raises(ValueError):
        CuspidalHilbertSpec(2, 1, {0: 1})


# -- hodge slices ------------------------------------------------------------


def test_hodge_slice_degree_zero_compact():
    sl = hodge_slice(CompactHilbertSpec(2, 3), 0)
    assert sl.entries == {(0, 0, "univ"): 1}
    assert not sl.flags


def test_hodge_slice_cusp_singletons():
    spec = CuspidalHilbertSpec.uniform(3, 1, 2)
    sl = hodge_slice(spec, 3)
    assert sl.entries[(2, 1, "cusp")] == 3 * 2  # singleton subsets
    assert sl.entries[(3, 0, "cusp")] == 2
    assert sl.entries[(0, 3, "cusp")] == 2


def test_hodge_slice_compact_univ():
    sl = hodge_slice(CompactHilbertSpec(2, 0), 2)
    assert sl.entries[(1, 1, "univ")] == comb(2, 1)


def test_hodge_slice_flags():
    spec = CuspidalHilbertSpec.uniform(2, 2, 1)
    assert BOUNDARY_DEGREE_ZEROED in hodge_slice(spec, 0).flags
    assert BOUNDARY_DEGREE_ZEROED in hodge_slice(spec, 4).flags
    assert hodge_slice(spec, 0).entries == {}
    # middle-degree Eisenstein value is included and flagged
    mid = hodge_slice(spec, 2)
    assert mid.entries[(2, 2, "eis")] == 2
    assert EIS_INCLUDED_AT_MIDDLE_DEGREE in mid.flags


def test_hodge_sum_equals_betti_sweep():
    for n in range(1, 6):
        for delta in range(4):
            spec = CompactHilbertSpec(n, delta)
            for m in range(2 * n + 1):
                assert hodge_slice(spec, m).total() == compact_betti(spec, m)
    for n in range(1, 5):
        for h, delta in product(range(1, 4), range(4)):
            spec = CuspidalHilbertSpec.uniform(n, h, delta)
            for m in range(2 * n + 1):
                assert hodge_slice(spec, m).total() == cuspidal_betti(spec, m).total


def test_cusp_hodge_symmetry_uniform():
    for n in range(1, 5):
        spec = CuspidalHilbertSpec.uniform(n, 2, 3)
        sl = hodge_slice(spec, n)
        for (p, q, part), v in sl.entries.items():
            if part == "cusp":
                assert sl.entries[(q, p, "cusp")] == v


# -- filtration ---------------------------------------------------------------


def test_filtration_zero_step_is_everything():
    spec = CuspidalHilbertSpec.uniform(3, 2, 1)
    f0 = hodge_filtration_dims(spec, 3, 0)
    assert f0.cusp_dim == spec.total_cusp_dim()
    f0c = hodge_filtration_dims(CompactHilbertSpec(2, 5), 2, 0)
    assert f0c.univ_dim == comb(2, 1)


def test_filtration_exhausted():
    spec = CuspidalHilbertSpec.uniform(3, 2, 1)
    f = hodge_filtration_dims(spec, 2, 3)
    assert (f.univ_dim, f.cusp_dim) == (0, 0)


def test_filtration_cusp_example():
    spec = CuspidalHilbertSpec.uniform(3, 1, 1)
    f = hodge_filtration_dims(spec, 3, 2)
    assert f.cusp_dim == 1 + 3  # subsets of size <= 1


def test_filtration_monotone():
    spec = CuspidalHilbertSpec.uniform(3, 2, 2)
    for m in range(7):
        dims = [hodge_filtration_dims(spec, m, p) for p in range(5)]
        for a, b in zip(dims, dims[1:]):
            assert a.univ_dim >= b.univ_dim
            assert a.cusp_dim >= b.cusp_dim


def test_filtration_compact_middle():
    spec = CompactHilbertSpec(2, 3)
    f = hodge_filtration_dims(spec, 2, 1)
    # univ survives (p <= m/2); cusp keeps subsets with n - #b >= 1
    assert f.univ_dim == 2
    assert f.cusp_dim == (comb(2, 1) + comb(2, 2)) * 3


# -- misc ---------------------------------------------------------------------


def test_variety_cohomology_cuspidal():
    spec = CuspidalHilbertSpec.uniform(3, 1, 0)
    ranks = betti(variety_cohomology(spec)).values
    assert ranks[3] == 1
    assert ranks[0] == 0 and ranks[6] == 0


def test_euler_multiplicativity_of_products_of_varieties():
    from modtopo.graded import kunneth_product

    x = variety_cohomology(CompactHilbertSpec(1, 2))
    y = variety_cohomology(CompactHilbertSpec(2, 1))
    assert euler_characteristic(kunneth_product(x, y)) == euler_characteristic(
        x
    ) * euler_characteristic(y)


def test_spec_serialization_round_trip():
    c = CompactHilbertSpec(2, 5)
    assert spec_from_json(c.to_json()) == c
    k = CuspidalHilbertSpec(2, 3, {0: 1, 1: 2, 2: 2, 3: 0})
    assert spec_from_json(k.to_json()) == k


def test_betti_total_dispatch():
    assert betti_total(CompactHilbertSpec(2, 5), 2) == 22
    assert betti_total(CuspidalHilbertSpec.uniform(2, 1, 0), 0) == 0


# -- the cusp table, folded by cardinality --------------------------------------------


@settings(max_examples=60, deadline=None)
@given(hs.integers(1, 6).flatmap(lambda n: hs.lists(hs.integers(0, 9), min_size=2**n, max_size=2**n)))
def test_dims_by_cardinality_matches_popcount_sums(values):
    assume(len(set(values)) > 1)  # a uniform table hides a wrong fold less well
    n = len(values).bit_length() - 1
    dims = dict(enumerate(values))
    spec = CuspidalHilbertSpec(n, 1, dims)
    for q in range(n + 1):
        assert spec.dims_by_cardinality(q) == sum(v for b, v in dims.items() if bin(b).count("1") == q)
    assert spec.total_cusp_dim() == sum(values)


@settings(max_examples=30, deadline=None)
@given(hs.integers(1, 12), hs.integers(0, 50))
def test_compact_dims_by_cardinality_is_binomial_times_form_dimension(n, d):
    spec = CompactHilbertSpec(n, d)
    assert [spec.dims_by_cardinality(q) for q in range(n + 1)] == [comb(n, q) * d for q in range(n + 1)]


def test_cusp_table_size_is_checked_before_any_table_exists():
    with deadline(2, "a 2^n table was built before n was checked"):
        for build in (
            lambda: CuspidalHilbertSpec(40, 1, {0: 1}),
            lambda: CuspidalHilbertSpec.uniform(40, 1, 0).to_json(),  # the echo needs the table
            lambda: spec_from_json({"n": 21, "h": 1, "cusp_dims": {"0": 1}}),
        ):
            with pytest.raises(InvalidInput):
                build()
        # a shared dimension is folded without a table, so it answers
        assert CuspidalHilbertSpec.uniform(40, 1, 2).total_cusp_dim() == 2**41
        # n = 20 passes the size check and fails only the coverage check
        with pytest.raises(ValueError, match="cover all"):
            CuspidalHilbertSpec(20, 1, {0: 1})


# -- relabelling the half-planes ------------------------------------------------------


def _hilbert_tables(spec):
    degrees = range(2 * spec.n + 1)
    return (
        [betti_total(spec, m) for m in degrees],
        [hodge_slice(spec, m) for m in degrees],
        [[hodge_filtration_dims(spec, m, p) for p in range(spec.n + 2)] for m in degrees],
    )


TABLE_AND_RELABELLING = hs.integers(1, 6).flatmap(
    lambda n: hs.tuples(hs.lists(hs.integers(0, 9), min_size=2**n, max_size=2**n), hs.permutations(range(n)))
)


@settings(max_examples=60, deadline=None)
@given(TABLE_AND_RELABELLING, hs.integers(1, 3))
def test_permuting_the_half_planes_leaves_every_table_unchanged(case, h):
    values, perm = case
    n = len(perm)

    def relabel(b):
        return sum(1 << perm[i] for i in range(n) if b >> i & 1)

    spec = CuspidalHilbertSpec(n, h, dict(enumerate(values)))
    relabelled = CuspidalHilbertSpec(n, h, {relabel(b): v for b, v in enumerate(values)})
    assert _hilbert_tables(relabelled) == _hilbert_tables(spec)


@settings(max_examples=40, deadline=None)
@given(hs.integers(1, 6), hs.integers(1, 3), hs.integers(0, 9))
def test_a_constant_table_reads_as_the_shared_dimension(n, h, d):
    table = CuspidalHilbertSpec(n, h, dict.fromkeys(range(2**n), d))
    shared = CuspidalHilbertSpec(n, h, d)
    assert _hilbert_tables(table) == _hilbert_tables(shared)
    assert json.dumps(table.to_json()) == json.dumps(shared.to_json())
    # a spec compares by the form it was given; only the shared form hashes
    assert table != shared and hash(shared) == hash(CuspidalHilbertSpec.uniform(n, h, d))
    with pytest.raises(TypeError):
        hash(table)


@pytest.mark.parametrize("key", ["01", " 1", "1 ", "+1", "1_0", "\u0661"])
def test_a_cusp_bitmask_is_read_only_in_its_canonical_spelling(key):
    with pytest.raises(ValueError, match="canonical"):
        cusp_dims_from_json({"0": 1, key: 2})
