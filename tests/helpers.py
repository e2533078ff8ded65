"""Shared oracle helpers for the test suite.

Everything here is deliberately independent of the library code paths it
cross-checks: determinants are expanded by cofactors, mod-p ranks come
from a local Gaussian elimination, and Tor/Ext/Hom oracles go through
free-resolution complexes rather than the per-factor gcd formulas.
"""

import signal
from contextlib import contextmanager
from itertools import combinations

from modtopo.abgroup import (
    FgAbGroup,
    IntMatrix,
    homology_of_complex,
    integer_kernel_basis,
    lattice_quotient,
)


def cofactor_det(rows):
    """Determinant by cofactor expansion (small matrices only)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def gcd_of_k_minors(m: IntMatrix, k: int) -> int:
    """gcd of all k x k minors (0 when every minor vanishes)."""
    from math import gcd

    g = 0
    for ri in combinations(range(m.rows), k):
        for ci in combinations(range(m.cols), k):
            sub = [[m.at(i, j) for j in ci] for i in ri]
            g = gcd(g, cofactor_det(sub))
    return g


def mod_p_rank(m: IntMatrix, p: int) -> int:
    """Rank over the field Z/p by local Gaussian elimination."""
    a = [[m.at(i, j) % p for j in range(m.cols)] for i in range(m.rows)]
    rank = 0
    row = 0
    for col in range(m.cols):
        piv = next((i for i in range(row, m.rows) if a[i][col] % p), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [(v * inv) % p for v in a[row]]
        for i in range(m.rows):
            if i != row and a[i][col]:
                c = a[i][col]
                a[i] = [(u - c * v) % p for u, v in zip(a[i], a[row])]
        rank += 1
        row += 1
    return rank


def presentation_matrix(g: FgAbGroup) -> IntMatrix:
    """A presents Z^(r+t) -> g: columns scale the torsion generators."""
    n = g.rank + len(g.invariant_factors)
    cols = len(g.invariant_factors)
    rows = [[0] * cols for _ in range(n)]
    for k, d in enumerate(g.invariant_factors):
        rows[g.rank + k][k] = d
    return IntMatrix.from_rows(rows, cols=cols)


def kronecker(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows = []
    for i in range(a.rows):
        for k in range(b.rows):
            rows.append(
                [a.at(i, j) * b.at(k, l) for j in range(a.cols) for l in range(b.cols)]
            )
    return IntMatrix.from_rows(rows, cols=a.cols * b.cols)


def tensor_and_tor_via_resolutions(a: FgAbGroup, b: FgAbGroup):
    """(A (x) B, Tor(A, B)) as H_0, H_1 of the tensor of free resolutions."""
    ra, rb = presentation_matrix(a), presentation_matrix(b)
    ga, ta = ra.rows, ra.cols
    gb, tb = rb.rows, rb.cols
    ia = IntMatrix.identity(ga)
    ib = IntMatrix.identity(gb)
    # degree 1 -> 0:  [ Ra (x) I  |  I (x) Rb ]
    d1 = kronecker(ra, ib).hstack(kronecker(ia, rb))
    # degree 2 -> 1:  stacked [ -I (x) Rb ; Ra (x) I ]
    top = kronecker(IntMatrix.identity(ta), rb)
    bot = kronecker(ra, IntMatrix.identity(tb))
    rows = [[-v for v in top.row(i)] for i in range(top.rows)]
    rows += [list(bot.row(i)) for i in range(bot.rows)]
    d2 = IntMatrix.from_rows(rows, cols=ta * tb)
    h = homology_of_complex([d1, d2])
    return h[0], h[1]


def ext_via_presentation(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Ext^1(A, B) = coker(Hom(Z^ga, B) -> Hom(Z^ta, B)) via presentations."""
    ra, rb = presentation_matrix(a), presentation_matrix(b)
    ga, ta = ra.rows, ra.cols
    gb = rb.rows
    if ta == 0:
        return FgAbGroup.trivial()
    # target free cover Z^(ta*gb); mod out the map image and B's relations
    gens = kronecker(ra.transpose(), IntMatrix.identity(gb)).hstack(
        kronecker(IntMatrix.identity(ta), rb)
    )
    from modtopo.abgroup import smith_normal_form

    return smith_normal_form(gens).cokernel()


def hom_via_presentation(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Hom(A, B) by lattice algebra on vectorized matrices."""
    ra, rb = presentation_matrix(a), presentation_matrix(b)
    ga, ta = ra.rows, ra.cols
    gb, tb = rb.rows, rb.cols
    # M (gb x ga) is a hom iff M @ Ra factors through Rb:
    #   (Ra^T (x) I_gb) vec(M) = (I_ta (x) Rb) vec(X)
    cond = kronecker(ra.transpose(), IntMatrix.identity(gb))
    lift = kronecker(IntMatrix.identity(ta), rb)
    minus = IntMatrix(lift.rows, lift.cols, tuple(-v for v in lift.entries))
    ker = integer_kernel_basis(cond.hstack(minus))
    span_rows = [[ker.at(i, j) for j in range(ker.cols)] for i in range(ga * gb)]
    span = IntMatrix.from_rows(span_rows, cols=ker.cols)
    trivial_homs = kronecker(IntMatrix.identity(ga), rb)
    return lattice_quotient(span, trivial_homs)


def random_matrix(rng, rows, cols, lo=-4, hi=4) -> IntMatrix:
    return IntMatrix(
        rows, cols, tuple(rng.randint(lo, hi) for _ in range(rows * cols))
    )


def random_alternating_complex(rng, degrees=4, max_cells=6, lo=-4, hi=4):
    """Chain complex with every other boundary zero (d o d = 0 for free)."""
    dims = [rng.randint(1, max_cells) for _ in range(degrees)]
    boundaries = []
    for m in range(degrees - 1):
        if m % 2 == 0:
            boundaries.append(random_matrix(rng, dims[m], dims[m + 1], lo, hi))
        else:
            boundaries.append(IntMatrix.zeros(dims[m], dims[m + 1]))
    return boundaries


def random_composable_complex(rng, degrees=3, max_cells=5, lo=-3, hi=3):
    """Chain complex built by factoring each boundary through a kernel."""
    dims = [rng.randint(1, max_cells) for _ in range(degrees)]
    boundaries = [random_matrix(rng, dims[0], dims[1], lo, hi)]
    for m in range(1, degrees - 1):
        ker = integer_kernel_basis(boundaries[-1])
        mix = random_matrix(rng, ker.cols, dims[m + 1], -2, 2)
        boundaries.append(ker @ mix if ker.cols else IntMatrix.zeros(dims[m], dims[m + 1]))
    return boundaries


@contextmanager
def deadline(seconds: int, what: str):
    """Raise TimeoutError inside the block once ``seconds`` have passed, so
    a guard that should fire before any allocation cannot hang the suite."""

    def expired(signum, frame):
        raise TimeoutError(what)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
