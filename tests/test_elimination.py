"""The sparse elimination core behind SNF, homology and the lattice helpers.

SNF results are checked against the gcd-of-minors oracle and by exact
reconstruction; homology of scrambled tensor-product complexes is checked
against the Kunneth formula on the factors; the sparse d o d check is
probed on composites with a single nonzero entry and on composites whose
terms cancel.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modtopo.abgroup import (
    FgAbGroup,
    IntMatrix,
    determinant,
    homology_of_complex,
    integer_kernel_basis,
    matrix_rank,
    smith_normal_form,
)
from modtopo.errors import NotAComplex
from modtopo.graded import GradedCohomology, kunneth_product, tensor_product_complex

from helpers import gcd_of_k_minors


def check_snf(m: IntMatrix, minors: bool = True):
    s = smith_normal_form(m)
    d = s.diag_matrix()
    assert s.left @ d @ s.right == m
    assert s.left_inv @ m @ s.right_inv == d
    assert s.left @ s.left_inv == IntMatrix.identity(m.rows)
    assert s.right @ s.right_inv == IntMatrix.identity(m.cols)
    nz = [v for v in s.diagonal if v]
    assert all(v > 0 for v in nz)
    assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
    assert list(s.diagonal) == nz + [0] * (len(s.diagonal) - len(nz))
    assert matrix_rank(m) == len(nz)
    # the transform-free path must read the same factors
    assert homology_of_complex([m])[0] == s.cokernel()
    if minors:
        prod = 1
        for k in range(1, min(m.rows, m.cols) + 1):
            prod *= s.diagonal[k - 1]
            assert prod == gcd_of_k_minors(m, k), (m, s.diagonal, k)
    return s


def matrices(values, max_side=5):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: st.lists(values, min_size=r * c, max_size=r * c).map(
                lambda e: IntMatrix(r, c, tuple(e))
            )
        )
    )


SPARSE_UNITS = st.sampled_from([0, 0, 0, 0, 1, -1, 1, -1, 2, -3])


@settings(max_examples=150, deadline=None)
@given(matrices(SPARSE_UNITS))
def test_snf_sparse_unit_heavy(m):
    check_snf(m)


@settings(max_examples=100, deadline=None)
@given(matrices(st.integers(-9, 9)))
def test_snf_dense(m):
    check_snf(m)


@pytest.mark.parametrize("r,c", [(0, 0), (0, 4), (4, 0), (1, 1), (3, 5), (5, 3)])
def test_snf_empty_and_zero_shapes(r, c):
    s = check_snf(IntMatrix.zeros(r, c))
    assert s.diagonal == (0,) * min(r, c)
    assert s.cokernel() == FgAbGroup.free(r)


def test_snf_larger_sparse_and_dense_reconstruct():
    rng = random.Random(41)
    for n in (12, 30):
        sparse = [rng.choice([0] * 8 + [1, -1, 2]) for _ in range(n * n)]
        check_snf(IntMatrix(n, n, tuple(sparse)), minors=False)
        dense = IntMatrix(n, n, tuple(rng.randint(-9, 9) for _ in range(n * n)))
        s = check_snf(dense, minors=False)
        prod = 1
        for v in s.diagonal:
            prod *= v
        assert prod == abs(determinant(dense))


def test_zero_rounded_quotient_leaves_no_stored_zero():
    # A column Euclid step turns the pivot into -2 at (0, 1); row 1 holds 1
    # there, so its rounded quotient is 0.  Subtracting 0 times the pivot row
    # must not store zeros, or a zero is later picked as a pivot.
    a = IntMatrix.from_rows([[4, 6, 10], [4, 7, 10], [4, 9, 12]])
    s = check_snf(a)
    assert s.diagonal == (1, 2, 4)
    assert matrix_rank(a) == 3
    assert homology_of_complex([a]) == [FgAbGroup(0, (2, 4)), FgAbGroup.trivial()]


# -- homology of scrambled tensor-product complexes ------------------------


def m(rows):
    return IntMatrix.from_rows(rows)


FACTORS = {
    "circle": [m([[-1, 1], [1, -1]])],
    "rp2": [m([[0]]), m([[2]])],
    "lens5": [m([[0]]), m([[5]]), m([[0]])],
    "lens6": [m([[0]]), m([[6]]), m([[0]])],
    "disk2": [m([[1, -1], [-1, 1]]), m([[1], [1]])],
}


def scramble(boundaries, draw):
    """Change basis in every degree by elementary and signed-permutation moves.

    A move on C_k with U = I + c e_ij changes d_k to d_k U^-1 (column j
    minus c times column i) and d_(k+1) to U d_(k+1) (row i plus c times
    row j), so d o d = 0 and the homology are preserved.
    """
    rows = [[list(b.row(i)) for i in range(b.rows)] for b in boundaries]
    dims = [boundaries[0].rows] + [b.cols for b in boundaries]
    for _ in range(draw(st.integers(0, 12))):
        k = draw(st.integers(0, len(dims) - 1))
        if dims[k] < 2:
            continue
        i, j = draw(st.lists(st.integers(0, dims[k] - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        if k >= 1:  # d_k maps out of C_k: columns of rows[k - 1]
            for row in rows[k - 1]:
                row[j] -= c * row[i]
        if k < len(boundaries):  # d_(k+1) maps into C_k: rows of rows[k]
            rows[k][i] = [a + c * b for a, b in zip(rows[k][i], rows[k][j])]
    for k in range(len(dims)):
        perm = draw(st.permutations(range(dims[k])))
        signs = [draw(st.sampled_from([1, -1])) for _ in range(dims[k])]
        if k >= 1:
            rows[k - 1] = [[row[p] * s for p, s in zip(perm, signs)] for row in rows[k - 1]]
        if k < len(boundaries):
            rows[k] = [[v * s for v in rows[k][p]] for p, s in zip(perm, signs)]
    return [IntMatrix.from_rows(r, cols=b.cols) for r, b in zip(rows, boundaries)]


def padded_equal(a, b):
    n = max(len(a), len(b))
    t = FgAbGroup.trivial()
    return list(a) + [t] * (n - len(a)) == list(b) + [t] * (n - len(b))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(sorted(FACTORS)), min_size=2, max_size=3), st.data())
def test_scrambled_tensor_homology_matches_kunneth(names, data):
    complex_ = FACTORS[names[0]]
    expected = GradedCohomology(tuple(homology_of_complex(complex_)))
    for name in names[1:]:
        factor = FACTORS[name]
        complex_ = tensor_product_complex(complex_, factor)
        expected = kunneth_product(expected, GradedCohomology(tuple(homology_of_complex(factor))))
    got = homology_of_complex(scramble(complex_, data.draw))
    assert padded_equal(got, expected.groups), (names, got, expected.groups)


# -- the sparse d o d check -------------------------------------------------


def test_dd_check_accepts_cancelling_terms():
    # (1)(1) + (1)(-1) = 0: every term is nonzero, the sum vanishes
    h = homology_of_complex([m([[1, 1]]), m([[1], [-1]])])
    assert h == [FgAbGroup.trivial(), FgAbGroup.trivial(), FgAbGroup.trivial()]


@settings(max_examples=60, deadline=None)
@given(matrices(st.integers(-3, 3)))
def test_dd_check_accepts_kernel_composites(a):
    ker = integer_kernel_basis(a)
    if ker.cols:
        homology_of_complex([a, ker])


@settings(max_examples=60, deadline=None)
@given(matrices(st.integers(-3, 3)), st.data())
def test_dd_check_rejects_a_single_nonzero_entry(a, data):
    """A | v e_i against [K ; w e_j] composes to v*w at (i, j) and zero elsewhere."""
    ker = integer_kernel_basis(a)
    p = max(ker.cols, 1)
    i = data.draw(st.integers(0, a.rows - 1))
    j = data.draw(st.integers(0, p - 1))
    v = data.draw(st.sampled_from([-2, -1, 1, 3]))
    w = data.draw(st.sampled_from([-1, 1, 2]))
    left = a.hstack(IntMatrix(a.rows, 1, tuple(v if r == i else 0 for r in range(a.rows))))
    kernel_rows = [list(ker.row(r)) if ker.cols else [0] for r in range(a.cols)]
    right = IntMatrix.from_rows(kernel_rows + [[w if c == j else 0 for c in range(p)]])
    composite = left @ right
    assert sum(1 for x in composite.entries if x) == 1
    with pytest.raises(NotAComplex):
        homology_of_complex([left, right])
