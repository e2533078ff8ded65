import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modtopo.abgroup import (
    FgAbGroup,
    IntMatrix,
    cohomology_of_cochain_complex,
    determinant,
    dual_complex,
    homology_of_complex,
    image_lattice_basis,
    integer_kernel_basis,
    lattice_quotient,
    matrix_rank,
    smith_normal_form,
    solve_integer,
)
from modtopo.errors import DimensionMismatch, NotAComplex

from helpers import (
    cofactor_det,
    ext_via_presentation,
    gcd_of_k_minors,
    hom_via_presentation,
    random_alternating_complex,
    random_matrix,
    tensor_and_tor_via_resolutions,
)

Z = FgAbGroup.free(1)


def check_snf(m: IntMatrix):
    s = smith_normal_form(m)
    # reconstruction
    assert s.left @ s.diag_matrix() @ s.right == m
    assert s.left_inv @ m @ s.right_inv == s.diag_matrix()
    # unimodularity
    assert determinant(s.left) in (1, -1)
    assert determinant(s.right) in (1, -1)
    # divisibility chain, zeros trailing
    nz = [d for d in s.diagonal if d != 0]
    assert all(d > 0 for d in nz)
    assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
    assert list(s.diagonal) == nz + [0] * (len(s.diagonal) - len(nz))
    return s


def test_snf_zero_matrix():
    s = check_snf(IntMatrix.from_rows([[0]]))
    assert s.diagonal == (0,)


def test_snf_identity():
    s = check_snf(IntMatrix.identity(2))
    assert s.diagonal == (1, 1)


def test_snf_worked_example():
    # d1 = gcd of entries = 2, d1*d2 = gcd of 2x2 minors = |det| = 8
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    s = check_snf(m)
    assert s.diagonal == (2, 4)


def test_snf_empty_shapes():
    for r, c in [(0, 0), (0, 3), (3, 0)]:
        s = check_snf(IntMatrix.zeros(r, c))
        assert s.diagonal == ()


def test_snf_minors_oracle_sweep():
    rng = random.Random(20260809)
    for _ in range(120):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = random_matrix(rng, r, c, -9, 9)
        s = check_snf(m)
        prod = 1
        for k in range(1, min(r, c) + 1):
            prod *= s.diagonal[k - 1]
            assert abs(prod) == abs(gcd_of_k_minors(m, k)), (m, s.diagonal, k)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_reconstruction_property(r, c, data):
    ents = data.draw(st.lists(st.integers(-30, 30), min_size=r * c, max_size=r * c))
    check_snf(IntMatrix(r, c, tuple(ents)))


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(0, 4)
        m = random_matrix(rng, n, n, -9, 9)
        rows = [list(m.row(i)) for i in range(n)]
        assert determinant(m) == cofactor_det(rows)


def test_integer_kernel_and_image():
    rng = random.Random(99)
    for _ in range(80):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -6, 6)
        ker = integer_kernel_basis(m)
        assert ker.cols == m.cols - matrix_rank(m)
        for j in range(ker.cols):
            assert all(v == 0 for v in m.apply(ker.column(j)))
        img = image_lattice_basis(m)
        # every image basis vector is attained, every column solves back
        for j in range(img.cols):
            assert solve_integer(m, img.column(j)) is not None
        for j in range(m.cols):
            assert solve_integer(img, m.column(j)) is not None


def test_solve_integer_no_solution():
    m = IntMatrix.from_rows([[2]])
    assert solve_integer(m, [3]) is None
    assert solve_integer(m, [4]) == [2]


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: IntMatrix(-1, 0, ()), "nonnegative"),
        (lambda: IntMatrix(0, -2, ()), "nonnegative"),
        (lambda: IntMatrix(2, 2, (1, 2, 3)), "entry count"),
        (lambda: IntMatrix.from_rows([[1, 2], [3]]), "ragged"),
    ],
    ids=["negative rows", "negative cols", "entry count", "ragged rows"],
)
def test_malformed_matrix_is_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_shapes_that_do_not_fit_are_dimension_mismatches():
    m = IntMatrix.zeros(2, 3)
    for bad in (
        lambda: m @ m,
        lambda: m.apply([1, 2]),
        lambda: m.hstack(IntMatrix.zeros(3, 1)),
        lambda: solve_integer(m, [1, 2, 3]),
        lambda: lattice_quotient(m, IntMatrix.zeros(3, 1)),
    ):
        with pytest.raises(DimensionMismatch):
            bad()
    with pytest.raises(ValueError, match="square"):
        determinant(m)


def test_lattice_quotient_basic():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6
    span = IntMatrix.identity(2)
    sub = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert lattice_quotient(span, sub) == FgAbGroup.cyclic(6)
    # quotient by nothing
    assert lattice_quotient(span, IntMatrix.zeros(2, 0)) == FgAbGroup.free(2)


# -- canonical form ---------------------------------------------------------


def test_canonical_form_rejects_bad_chains():
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbGroup(-1, ())


def test_from_divisors_crt():
    assert FgAbGroup.from_divisors(2, 3) == FgAbGroup.cyclic(6)
    assert FgAbGroup.from_divisors(2, 4) == FgAbGroup(0, (2, 4))
    assert FgAbGroup.from_divisors(0, 1, 0) == FgAbGroup.free(2)
    assert FgAbGroup.from_divisors(12, 60) == FgAbGroup(0, (12, 60))
    assert FgAbGroup.from_divisors(4, 6) == FgAbGroup(0, (2, 12))
    assert FgAbGroup.from_divisors(-5) == FgAbGroup.cyclic(5)


def test_primary_decomposition_display():
    assert FgAbGroup.cyclic(12).primary_decomposition() == (3, 4)
    assert FgAbGroup(1, (2, 6)).primary_decomposition() == (2, 2, 3)


def test_str_forms():
    assert str(FgAbGroup.trivial()) == "0"
    assert str(FgAbGroup(3, (2, 4))) == "Z^3 + Z/2 + Z/4"
    assert str(FgAbGroup(1, ())) == "Z"


def test_serialization_round_trip():
    g = FgAbGroup(3, (2, 4))
    assert FgAbGroup.from_json(g.to_json()) == g
    big = FgAbGroup(0, (2**60,))
    doc = big.to_json()
    assert doc["torsion"] == [str(2**60)]
    assert FgAbGroup.from_json(doc) == big


# -- group operations -------------------------------------------------------


def test_direct_sum_examples():
    zc = FgAbGroup.free(1)
    assert zc.direct_sum(FgAbGroup.trivial()) == zc
    assert FgAbGroup.cyclic(2).direct_sum(FgAbGroup.cyclic(3)) == FgAbGroup.cyclic(6)
    assert FgAbGroup.cyclic(2).direct_sum(FgAbGroup.cyclic(4)) == FgAbGroup(0, (2, 4))


def test_tensor_examples():
    a = FgAbGroup(2, (6,))
    assert Z.tensor(a) == a
    assert FgAbGroup.cyclic(4).tensor(FgAbGroup.cyclic(6)) == FgAbGroup.cyclic(2)
    assert FgAbGroup(1, (2,)).tensor(FgAbGroup.cyclic(2)) == FgAbGroup(0, (2, 2))


def test_tor_examples():
    assert Z.tor(FgAbGroup(3, (9,))) == FgAbGroup.trivial()
    assert FgAbGroup.cyclic(4).tor(FgAbGroup.cyclic(6)) == FgAbGroup.cyclic(2)
    assert FgAbGroup(1, (2,)).tor(FgAbGroup.cyclic(2)) == FgAbGroup.cyclic(2)


def test_hom_examples():
    a = FgAbGroup(2, (8,))
    assert Z.hom(a) == a
    assert FgAbGroup.cyclic(2).hom(Z) == FgAbGroup.trivial()
    assert FgAbGroup.cyclic(4).hom(FgAbGroup.cyclic(6)) == FgAbGroup.cyclic(2)


def test_hom_by_brute_force_enumeration():
    # maps Z/m -> Z/n are exactly the n/gcd multiples in Z/n
    for m in range(2, 13):
        for n in range(2, 13):
            images = [x for x in range(n) if (m * x) % n == 0]
            assert len(images) == gcd(m, n)
            assert FgAbGroup.cyclic(m).hom(FgAbGroup.cyclic(n)) == FgAbGroup.cyclic(
                len(images)
            )


def test_ext_examples():
    assert Z.ext(FgAbGroup(1, (2, 4))) == FgAbGroup.trivial()
    for m in (2, 5, 12):
        assert FgAbGroup.cyclic(m).ext(Z) == FgAbGroup.cyclic(m)
    assert FgAbGroup.cyclic(4).ext(FgAbGroup.cyclic(6)) == FgAbGroup.cyclic(2)


def test_is_isomorphic():
    assert FgAbGroup.free(2).is_isomorphic(FgAbGroup.free(2))
    assert FgAbGroup.from_divisors(2, 3).is_isomorphic(FgAbGroup.cyclic(6))
    assert not FgAbGroup.cyclic(4).is_isomorphic(FgAbGroup(0, (2, 2)))


def random_group(rng, max_rank=2, max_factors=2, max_order=12):
    divs = [0] * rng.randint(0, max_rank)
    divs += [rng.randint(2, max_order) for _ in range(rng.randint(0, max_factors))]
    return FgAbGroup.from_divisors(*divs)


def test_bifunctors_against_resolution_oracles():
    rng = random.Random(4242)
    for _ in range(40):
        a, b = random_group(rng), random_group(rng)
        tens, tor = tensor_and_tor_via_resolutions(a, b)
        assert a.tensor(b) == tens, (a, b)
        assert a.tor(b) == tor, (a, b)
        assert a.ext(b) == ext_via_presentation(a, b), (a, b)
        assert a.hom(b) == hom_via_presentation(a, b), (a, b)


def test_algebraic_identities():
    rng = random.Random(11)
    for _ in range(30):
        a, b, c = (random_group(rng) for _ in range(3))
        assert a.direct_sum(b) == b.direct_sum(a)
        assert a.direct_sum(b).direct_sum(c) == a.direct_sum(b.direct_sum(c))
        assert a.tensor(b) == b.tensor(a)
        assert a.tensor(b).tensor(c) == a.tensor(b.tensor(c))
        assert a.tensor(b.direct_sum(c)) == a.tensor(b).direct_sum(a.tensor(c))
        assert a.tor(b) == b.tor(a)
        if not a.invariant_factors or not b.invariant_factors:
            assert a.tor(b).is_trivial


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 16), max_size=4),
    st.lists(st.integers(0, 16), max_size=4),
)
def test_gcd_identity_on_cyclic_pairs(da, db):
    a = FgAbGroup.from_divisors(*da)
    b = FgAbGroup.from_divisors(*db)
    if a.rank == 0 and b.rank == 0:
        assert a.tensor(b) == a.tor(b) == a.hom(b) == a.ext(b)


def test_cyclic_gcd_identity_sweep():
    for m in range(2, 13):
        for n in range(2, 13):
            g = FgAbGroup.cyclic(gcd(m, n))
            a, b = FgAbGroup.cyclic(m), FgAbGroup.cyclic(n)
            assert a.hom(b) == g
            assert a.ext(b) == g
            assert a.tensor(b) == g
            assert a.tor(b) == g


# -- homology ---------------------------------------------------------------


def test_homology_circle():
    circle = [IntMatrix.from_rows([[0]])]
    assert homology_of_complex(circle) == [Z, Z]


def test_homology_disk_glued_by_degree_two():
    # one 2-cell attached to the circle with degree 2 (projective-plane style)
    bnds = [IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[2]])]
    assert homology_of_complex(bnds) == [Z, FgAbGroup.cyclic(2), FgAbGroup.trivial()]


def test_homology_torus_zero_boundaries():
    bnds = [IntMatrix.zeros(1, 2), IntMatrix.zeros(2, 1)]
    assert homology_of_complex(bnds) == [Z, FgAbGroup.free(2), Z]


def test_homology_single_degree_complex():
    # a k x 0 boundary declares an empty degree above the cells
    assert homology_of_complex([IntMatrix.zeros(3, 0)]) == [
        FgAbGroup.free(3),
        FgAbGroup.trivial(),
    ]


def test_homology_errors():
    with pytest.raises(DimensionMismatch):
        homology_of_complex([IntMatrix.zeros(1, 2), IntMatrix.zeros(3, 1)])
    with pytest.raises(NotAComplex):
        homology_of_complex(
            [IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])]
        )


def test_homology_invariant_under_cell_reordering():
    rng = random.Random(31337)
    for _ in range(25):
        bnds = random_alternating_complex(rng, degrees=4)
        hs = homology_of_complex(bnds)
        dims = [bnds[0].rows] + [b.cols for b in bnds]
        perms = [rng.sample(range(d), d) for d in dims]
        permuted = []
        for m, b in enumerate(bnds):
            rows = [[b.at(perms[m][i], perms[m + 1][j]) for j in range(b.cols)] for i in range(b.rows)]
            permuted.append(IntMatrix.from_rows(rows, cols=b.cols))
        assert homology_of_complex(permuted) == hs


def test_cochain_cohomology_matches_reversal():
    # cochain 0 -> Z^2 -> Z -> 0 with delta = [1 1]
    deltas = [IntMatrix.from_rows([[1, 1]])]
    h = cohomology_of_cochain_complex(deltas)
    assert h == [Z, FgAbGroup.trivial()]


def test_dual_complex_shapes():
    bnds = [IntMatrix.zeros(1, 2), IntMatrix.zeros(2, 3)]
    duals = dual_complex(bnds)
    assert [(d.rows, d.cols) for d in duals] == [(2, 1), (3, 2)]
