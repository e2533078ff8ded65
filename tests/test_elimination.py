"""The sparse elimination core behind SNF, homology and the lattice helpers.

SNF results are checked against the gcd-of-minors oracle and by exact
reconstruction; homology of scrambled tensor-product complexes is checked
against the Kunneth formula on the factors; the sparse d o d check is
probed on composites with a single nonzero entry and on composites whose
terms cancel.  The lattice helpers, which replay the elimination's
operation log onto just the vectors they read, are checked entry for
entry against the same formulas evaluated on the full SNF transforms.
``left`` and the image basis, read off M V, are checked against the
transforms replayed from the log, and the log itself is pinned.  The
matrix product is checked against a plain triple loop.
Torsion canonicalization and the primality test get oracles of their own.
"""

import json
import random
import signal
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modtopo.abgroup import (
    FgAbGroup,
    IntMatrix,
    _eliminate,
    _sparse_rows,
    determinant,
    homology_of_complex,
    image_lattice_basis,
    integer_kernel_basis,
    is_prime,
    lattice_quotient,
    matrix_rank,
    smith_normal_form,
    solve_integer,
)
from modtopo.cli import run
from modtopo.errors import InvalidInput, NotAComplex, NotASublattice
from modtopo.graded import GradedCohomology, kunneth_product, tensor_product_complex

from helpers import (
    deadline,
    gcd_of_k_minors,
    reference_image_lattice_basis,
    reference_matmul,
    reference_smith_normal_form,
)


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


def pinned_matrices():
    """40 seeded matrices: dense ones of sides 0-12, sparse unit-heavy ones
    of sides 4-24, and every fourth a product through a smaller rank."""
    for seed in range(40):
        rng = random.Random(seed)
        sides, values = ((4, 24), [0] * 8 + [1, -1, 2, -3]) if seed % 2 else ((0, 12), range(-9, 10))
        r, c = rng.randint(*sides), rng.randint(*sides)
        k = rng.randint(0, min(r, c)) if seed % 4 == 3 else c
        a = IntMatrix(r, k, tuple(rng.choice(values) for _ in range(r * k)))
        yield seed, a @ IntMatrix(k, c, tuple(rng.choice(values) for _ in range(k * c))) if k < c else a


PINNED_ELIMINATIONS = Path(__file__).with_name("eliminate_pinned.json")


def test_the_pivot_choice_and_its_logs_are_pinned():
    # the reference transforms replay the same logs, so only a pinned log
    # sees a change to the pivot key or to the order of the operations
    pinned = json.loads(PINNED_ELIMINATIONS.read_text(encoding="utf-8"))
    assert len(pinned) == 40
    for seed, a in pinned_matrices():
        diag, pivots, rops, cops = _eliminate(_sparse_rows(a), a.cols)
        got = [list(diag), *([list(t) for t in log] for log in (pivots, rops, cops))]
        assert got == pinned[str(seed)], seed


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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lattice_quotient_matches_the_minors_of_the_coordinates(data):
    k = data.draw(st.integers(1, 3))
    n, m = data.draw(st.integers(k, 4)), data.draw(st.integers(0, 3))
    span = IntMatrix(n, k, tuple(data.draw(st.lists(st.integers(-4, 4), min_size=n * k, max_size=n * k))))
    assume(matrix_rank(span) == k)
    coords = IntMatrix(k, m, tuple(data.draw(st.lists(st.integers(-6, 6), min_size=k * m, max_size=k * m))))
    # the columns of span are a basis of L, so L / (span C) is Z^k / (C Z^m)
    g = [1] + [gcd_of_k_minors(coords, i) for i in range(1, min(k, m) + 1)]
    r = max(i for i, gi in enumerate(g) if gi)
    want = FgAbGroup.from_divisors(*(g[i] // g[i - 1] for i in range(1, r + 1)), *[0] * (k - r))
    assert lattice_quotient(span, span @ coords) == want


def test_lattice_quotient_rejects_generators_outside_the_lattice():
    even = IntMatrix.from_rows([[2, 0], [0, 2]])
    assert lattice_quotient(even, IntMatrix.from_rows([[2], [2]])) == FgAbGroup.free(1)
    with pytest.raises(NotASublattice):  # in the rational span, not in the lattice
        lattice_quotient(even, IntMatrix.from_rows([[1], [0]]))
    line = IntMatrix.from_rows([[2], [4]])
    assert lattice_quotient(line, IntMatrix.from_rows([[6], [12]])) == FgAbGroup.cyclic(3)
    for outside in ([[1], [0]], [[0], [1]]):  # outside the rational span
        with pytest.raises(NotASublattice):
            lattice_quotient(line, IntMatrix.from_rows(outside))
    with pytest.raises(NotASublattice):
        lattice_quotient(IntMatrix.from_rows([[1], [0]]), IntMatrix.from_rows([[0], [1]]))


# -- lattice helpers against formulas on the full SNF transforms ------------


def kernel_from_snf(m):
    s = smith_normal_form(m)
    rows = [row[s.rank :] for row in map(s.right_inv.row, range(m.cols))]
    return IntMatrix.from_rows(rows, cols=m.cols - s.rank)


def image_from_snf(m):
    s = smith_normal_form(m)
    cols = [j for j, d in enumerate(s.diagonal) if d != 0]
    rows = [[s.diagonal[j] * row[j] for j in cols] for row in map(s.left.row, range(m.rows))]
    return IntMatrix.from_rows(rows, cols=len(cols))


def solve_from_snf(m, b):
    s = smith_normal_form(m)
    y = s.left_inv.apply(list(b))
    z = [0] * m.cols
    for i, yi in enumerate(y):
        d = s.diagonal[i] if i < len(s.diagonal) else 0
        if (yi if d == 0 else yi % d) != 0:
            return None
        if d:
            z[i] = yi // d
    return s.right_inv.apply(z)


def quotient_from_snf(span, sub):
    s = smith_normal_form(span)
    r = s.rank
    coords = []
    for j in range(sub.cols):
        y = s.left_inv.apply(sub.column(j))
        if any(y[r:]) or any(yi % d for yi, d in zip(y, s.diagonal[:r])):
            raise NotASublattice("generator not contained in the ambient lattice")
        coords.append([yi // d for yi, d in zip(y, s.diagonal[:r])])
    rows = [list(row) for row in zip(*coords)] if coords else [[] for _ in range(r)]
    return smith_normal_form(IntMatrix.from_rows(rows, cols=sub.cols)).cokernel()


def outcome(f, *args):
    try:
        return f(*args)
    except NotASublattice as exc:
        return ("NotASublattice", str(exc))


def sized(values, r, c):
    return st.lists(values, min_size=r * c, max_size=r * c).map(lambda e: IntMatrix(r, c, tuple(e)))


@st.composite
def lattice_cases(draw):
    """A matrix (possibly 0 x n, n x 0 or rank-deficient), a right-hand side
    in its image or at random, and sub-lattice generators inside its
    column lattice or at random (then mostly outside it)."""
    values = draw(st.sampled_from([SPARSE_UNITS, st.integers(-9, 9), st.integers(-300, 300)]))
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(r, c)))
        m = draw(sized(values, r, k)) @ draw(sized(values, k, c))
    else:
        m = draw(sized(values, r, c))
    x = draw(st.lists(st.integers(-3, 3), min_size=c, max_size=c))
    b = m.apply(x) if draw(st.booleans()) else draw(st.lists(st.integers(-5, 5), min_size=r, max_size=r))
    w = draw(st.integers(0, 3))
    sub = m @ draw(sized(st.integers(-4, 4), c, w)) if draw(st.booleans()) else draw(sized(st.integers(-4, 4), r, w))
    return m, b, sub


@settings(max_examples=300, deadline=None)
@given(lattice_cases())
def test_replayed_lattice_helpers_match_the_full_transforms(case):
    m, b, sub = case
    assert integer_kernel_basis(m) == kernel_from_snf(m)
    assert image_lattice_basis(m) == image_from_snf(m)
    assert solve_integer(m, b) == solve_from_snf(m, b)
    assert outcome(lattice_quotient, m, sub) == outcome(quotient_from_snf, m, sub)


def test_replayed_lattice_helpers_on_negative_pivots():
    # every pivot is negative, and Euclid steps leave signed remainders
    for rows in ([[-2, 0], [0, -4]], [[-3, -5], [-7, -11]], [[-6, 4, -10], [4, -6, 8]]):
        a = IntMatrix.from_rows(rows)
        assert integer_kernel_basis(a) == kernel_from_snf(a)
        assert image_lattice_basis(a) == image_from_snf(a)
        for b in ([0] * a.rows, [a.at(i, 0) for i in range(a.rows)], [1] + [0] * (a.rows - 1)):
            assert solve_integer(a, b) == solve_from_snf(a, b)
        for sub in (a, IntMatrix(a.rows, 1, (1,) + (0,) * (a.rows - 1))):
            assert outcome(lattice_quotient, a, sub) == outcome(quotient_from_snf, a, sub)


@st.composite
def snf_cases(draw):
    """Sides 0-10: dense, sparse, zero or all-negative entries (negative
    pivots), and half of them through a smaller rank."""
    negative = st.integers(-9, -1)
    values = draw(st.sampled_from([SPARSE_UNITS, st.integers(-9, 9), st.integers(-300, 300), st.just(0), negative]))
    r, c = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(r, c)))
        return draw(sized(values, r, k)) @ draw(sized(values, k, c))
    return draw(sized(values, r, c))


@settings(max_examples=200, deadline=None)
@given(snf_cases())
@example(IntMatrix.from_rows([[-3, -5], [-7, -11]]))
@example(IntMatrix.from_rows([[-6, 4, -10], [4, -6, 8]]))
@example(IntMatrix.zeros(3, 0))
def test_left_and_the_image_read_off_m_v_equal_the_replayed_ones(m):
    assert smith_normal_form(m) == reference_smith_normal_form(m)
    assert image_lattice_basis(m) == reference_image_lattice_basis(m)


@pytest.mark.parametrize("kind", ["path boundary", "diagonal"])
def test_reading_off_m_v_costs_the_nonzeros_of_a_sparse_matrix(kind):
    # a dense M V product would take 600 * 600 * 601 multiplications here,
    # many seconds; summed over the nonzeros of M and of V it takes 600 or so
    n = 600
    if kind == "path boundary":
        m = IntMatrix(n + 1, n, tuple(int(i == j + 1) - int(i == j) for i in range(n + 1) for j in range(n)))
    else:
        m = IntMatrix(n, n, tuple((i % 7 + 1) * (i == j) for i in range(n) for j in range(n)))
    with deadline(5, f"the Smith form and image basis of an {m.rows} x {m.cols} {kind}"):
        snf, image = smith_normal_form(m), image_lattice_basis(m)
    assert snf == reference_smith_normal_form(m)
    assert image == reference_image_lattice_basis(m)


# -- the matrix product -------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matmul_and_apply_equal_the_triple_loop(data):
    # the reconstruction checks multiply through the same product as Smith
    # ``left``, so the product is checked here against every index, zeros included
    kinds = [SPARSE_UNITS, st.integers(-9, 9), st.integers(-300, 300), st.just(0)]
    r, k, c = (data.draw(st.integers(0, 10)) for _ in range(3))
    a = data.draw(sized(data.draw(st.sampled_from(kinds)), r, k))
    b = data.draw(sized(data.draw(st.sampled_from(kinds)), k, c))
    assert a @ b == reference_matmul(a, b)
    x = data.draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k))
    assert a.apply(x) == list(reference_matmul(a, IntMatrix(k, 1, tuple(x))).entries)


def test_a_sparse_product_costs_its_nonzeros():
    # T^6 from a circle of two vertices and two edges: its 384 x 960 and
    # 960 x 1280 boundaries would take 472 M multiplications densely
    t6 = FACTORS["circle"]
    for _ in range(5):
        t6 = tensor_product_complex(t6, FACTORS["circle"])
    with deadline(2, "the product of the second and third boundaries of T^6"):
        assert (t6[1] @ t6[2]).is_zero()


# -- torsion canonicalization ------------------------------------------------


def pairwise_exchange(orders):
    """Invariant factors by repeated (gcd, lcm) exchanges until each divides the next."""
    tors = [d for d in orders if d > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(tors)):
            for j in range(i + 1, len(tors)):
                a, b = tors[i], tors[j]
                if b % a:
                    g = gcd(a, b)
                    tors[i], tors[j] = g, a // g * b
                    changed = True
    return tuple(t for t in tors if t > 1)


BIG = 2**89 - 1  # a prime: orders are never factored, so size must not matter


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 3),
    st.lists(
        st.builds(
            lambda a, b, c, e: 2**a * 3**b * 35**c * BIG**e,
            st.integers(0, 4), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2),
        )
        | st.integers(1, 400),
        max_size=12,
    ),
)
def test_canonical_matches_pairwise_exchange(rank, orders):
    g = FgAbGroup._canonical(rank, orders)
    assert g == FgAbGroup(rank, pairwise_exchange(orders))
    assert g == FgAbGroup.from_divisors(*orders, *[0] * rank)


def test_large_tensor_is_one_merge():
    # (Z^r + Z/2) (x) (Z^r + Z/3): r copies each of Z/2 and Z/3 merge into Z/6
    g = FgAbGroup(4000, (2,)).tensor(FgAbGroup(4000, (3,)))
    assert g == FgAbGroup(4000 * 4000, (6,) * 4000)


# -- primality ----------------------------------------------------------------


def trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 20000) if is_prime(n)] == [n for n in range(-3, 20000) if trial_division(n)]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2; 2, 3, 5, 7; 2..31; and 2..37, the
    # last (399165290221 * 798330580441) caught only by the 13th base, 41
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)


def test_is_prime_is_fast_on_a_61_bit_prime():
    def timeout(signum, frame):
        raise TimeoutError("is_prime(2**61 - 1) took over 2 s")

    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(2)
    try:
        assert is_prime(2**61 - 1)
        assert not is_prime((2**61 - 1) * 1_000_003)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_is_prime_refuses_above_the_proven_bound():
    assert not is_prime(3_317_044_064_679_887_385_961_979)  # odd, below the bound
    with pytest.raises(InvalidInput):
        is_prime(3_317_044_064_679_887_385_961_981)


def test_is_prime_takes_only_ints():
    for n in (43.0, 7.0, True):
        with pytest.raises(TypeError):
            is_prime(n)


def steenrod_doc(tmp_path, p):
    path = tmp_path / "in.json"
    doc = {"presentation": {"p": p, "generators": [{"name": "x", "degree": 2}]}, "verify_to_degree": 2}
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_steenrod_with_a_61_bit_prime(capsys, tmp_path):
    assert run(["steenrod", "--json", steenrod_doc(tmp_path, 2**61 - 1)]) == 0
    assert json.loads(capsys.readouterr().out)["violations"] == []
    # the least prime above the bound where 13 Miller-Rabin bases are proven
    assert run(["steenrod", "--json", steenrod_doc(tmp_path, 3_317_044_064_679_887_385_962_123)]) == 1
    assert "INVALID_INPUT" in capsys.readouterr().err
