"""Shared oracle helpers for the test suite.

Everything here is deliberately independent of the library code paths it
cross-checks: determinants are expanded by cofactors, mod-p ranks come
from a local Gaussian elimination, and Tor/Ext/Hom oracles go through
free-resolution complexes rather than the per-factor gcd formulas.
"""

import signal
import tracemalloc
from contextlib import contextmanager
from itertools import combinations

from modtopo.abgroup import (
    FgAbGroup,
    IntMatrix,
    SnfResult,
    _eliminate,
    _replay,
    _sparse_rows,
    homology_of_complex,
    integer_kernel_basis,
    lattice_quotient,
    smith_normal_form,
)
from modtopo.errors import DimensionMismatch, NotAComplex


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


def reference_matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """A B by the plain triple loop over every index, zeros included."""
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                out[i][j] += a.at(i, k) * b.at(k, j)
    return IntMatrix.from_rows(out, cols=b.cols)


def reference_homology(boundaries):
    """Homology by the two-pass route: every d o d product is checked first,
    each row accumulated over the nonzeros, and then

        H_m = Z^(dim_m - rank d_m - rank d_(m+1))  (+)  torsion(d_(m+1))

    from each boundary's own Smith diagonal."""
    if not boundaries:
        return []
    sparse = [[{j: v for j, v in enumerate(b.row(i)) if v} for i in range(b.rows)] for b in boundaries]
    for i in range(len(boundaries) - 1):
        if boundaries[i].cols != boundaries[i + 1].rows:
            raise DimensionMismatch(
                f"boundary {i + 2} has {boundaries[i + 1].rows} rows but boundary "
                f"{i + 1} has {boundaries[i].cols} columns"
            )
        inner = sparse[i + 1]
        for row in sparse[i]:
            acc = {}
            for k, a in row.items():
                for j, b in inner[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            if any(acc.values()):
                raise NotAComplex(f"boundary {i + 1} o boundary {i + 2} is nonzero")
    dims = [boundaries[0].rows] + [b.cols for b in boundaries]
    diags = [smith_normal_form(b).diagonal for b in boundaries] + [()]
    ranks = [0] + [sum(1 for d in dg if d) for dg in diags]
    return [
        FgAbGroup.from_divisors(*(d for d in diags[m] if d > 1), *[0] * (dim - ranks[m] - ranks[m + 1]))
        for m, dim in enumerate(dims)
    ]


def _eye(n: int) -> list[list[int]]:
    return [[int(r == c) for c in range(n)] for r in range(n)]


def reference_smith_normal_form(m: IntMatrix) -> SnfResult:
    """Smith normal form with all four transforms replayed from the
    elimination's logs onto identities: left^T by the inverse row
    operations, in order, rather than read off M V."""
    diag, pivots, rops, cops = _eliminate(_sparse_rows(m), m.cols)
    # rows of left_inv, left^T, right and right_inv^T
    li = _replay(rops, _eye(m.rows))
    lt = _replay([(i, k, -q) for k, i, q in rops], _eye(m.rows))
    rr = _replay([(j, l, -q) for l, j, q in cops], _eye(m.cols))
    rv = _replay(cops, _eye(m.cols))
    for i, _, p in pivots:
        if p < 0:
            li[i] = [-a for a in li[i]]
            lt[i] = [-a for a in lt[i]]
    rperm = dict.fromkeys([*(i for i, _, _ in pivots), *range(m.rows)])
    cperm = dict.fromkeys([*(j for _, j, _ in pivots), *range(m.cols)])
    return SnfResult(
        diagonal=diag,
        left=IntMatrix.from_rows(list(zip(*(lt[i] for i in rperm))), cols=m.rows),
        right=IntMatrix.from_rows([rr[j] for j in cperm], cols=m.cols),
        left_inv=IntMatrix.from_rows([li[i] for i in rperm], cols=m.rows),
        right_inv=IntMatrix.from_rows(list(zip(*(rv[j] for j in cperm))), cols=m.cols),
    )


def reference_image_lattice_basis(m: IntMatrix) -> IntMatrix:
    """The image basis U^-1 (p e_i) over the pivots (i, j, p), by replaying
    the inverse row operations, last first, rather than multiplying M V."""
    _, pivots, rops, _ = _eliminate(_sparse_rows(m), m.cols)
    scaled = [[p if r == i else 0 for i, _, p in pivots] for r in range(m.rows)]
    basis = _replay([(k, i, -q) for k, i, q in reversed(rops)], scaled)
    return IntMatrix.from_rows(basis, cols=len(pivots))


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


@contextmanager
def allocation_cap(limit: int, what: str):
    """Fail if the Python allocations made in the block peak above ``limit``
    bytes, so a size guard is seen to fire before anything is built."""
    tracemalloc.start()
    try:
        yield
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= limit, f"{what}: {peak} bytes allocated"


def reference_axiom_report(pres, max_degree: int):
    """The axiom sweep evaluated one identity at a time, each through its own
    closure, as (violation strings, checked, skipped).  It shares the table
    check with :func:`modtopo.steenrod.axiom_report` and recomputes every
    Cartan and Leibniz side on its own."""
    from itertools import combinations_with_replacement

    from modtopo.errors import Inhomogeneous, Undetermined
    from modtopo.steenrod import (
        AxiomViolation,
        RingElement,
        _apply,
        _check_table_entries,
    )

    def unary_identities(m):
        name = pres.mono_str(m)
        two = pres.p == 2
        d = pres.mono_degree(m)
        top = d // pres.weight
        beta = 1 if two else None  # Sq^1 is the Bockstein at p = 2

        def instability(k):
            bound = "the degree" if two else "half the degree"
            return pres.op_mono(k, m), {}, f"{pres.op_name}^{k}({name}) should vanish above {bound}"

        def squaring():
            power = (RingElement(pres, {m: 1}) ** pres.p).poly
            what = "square" if two else "p-th power"
            return pres.op_mono(top, m), power, f"{pres.op_name}^{top}({name}) != {what}"

        def beta_beta():
            bb = _apply(pres, beta, _apply(pres, beta, {m: 1}))
            return bb, {}, ("Sq^1 Sq^1" if two else "beta beta") + f" ({name}) != 0"

        out = [("INSTABILITY", lambda k=k: instability(k)) for k in (top + 1, top + 2)]
        if d % pres.weight == 0:
            out.append(("SQUARING", squaring))
        return out + [("BOCKSTEIN", beta_beta)]

    def pair_identities(ma, mb):
        na, nb = pres.mono_str(ma), pres.mono_str(mb)
        w = pres.weight
        top_a, top_b = pres.mono_degree(ma) // w, pres.mono_degree(mb) // w
        prod = pres.poly_mul({ma: 1}, {mb: 1})

        def cartan(k):
            lhs = _apply(pres, k, prod)
            rhs = {}
            for i in range(max(0, k - top_b), min(k, top_a) + 1):
                pres._mul_into(rhs, pres.op_mono(i, ma), pres.op_mono(k - i, mb))
            return lhs, pres.reduce(rhs), f"{pres.op_name}^{k}({na} * {nb})"

        def leibniz():
            lhs = _apply(pres, None, prod)
            sign = -1 if pres.mono_degree(ma) % 2 else 1
            rhs = pres._mul_into({}, pres.beta_mono(ma), {mb: 1})
            pres._mul_into(rhs, {ma: 1}, pres.beta_mono(mb), sign)
            return lhs, pres.reduce(rhs), f"Leibniz fails on {na} * {nb}"

        total = (pres.mono_degree(ma) + pres.mono_degree(mb)) // w
        out = [("CARTAN", lambda k=k: cartan(k)) for k in range(total + 2)]
        if pres.p != 2:
            out.append(("BOCKSTEIN", leibniz))
        return out

    out = []
    _check_table_entries(pres, out)
    kinds = ("INSTABILITY", "SQUARING", "BOCKSTEIN", "CARTAN")
    checked = dict.fromkeys(kinds, 0)
    skipped = dict.fromkeys(kinds, 0)

    def run(identities):
        for pos, (kind, evaluate) in enumerate(identities):
            try:
                lhs, rhs, detail = evaluate()
            except (Undetermined, Inhomogeneous):
                for later, _ in identities[pos:]:
                    skipped[later] += 1
                return
            checked[kind] += 1
            if lhs != rhs:
                out.append(AxiomViolation(kind, detail, pres.poly_str(lhs), pres.poly_str(rhs)))

    monos = list(pres.monomials_up_to(max_degree))
    for m in monos:
        if pres.reduce({m: 1}):
            run(unary_identities(m))
    for ma, mb in combinations_with_replacement(monos, 2):
        if pres.mono_degree(ma) + pres.mono_degree(mb) <= max_degree:
            run(pair_identities(ma, mb))
    return [str(v) for v in out], checked, skipped


def reference_op_mono(pres, k, mono, memo):
    """Sq^k or St^k of a monomial, or beta for k = None, by plain recursion
    that peels one factor of the first generator per level: Cartan with the
    generator's values, or Leibniz.  A generator value is read only where
    its Cartan partner is not 0, and a beta value always.  One level per
    factor, so for small exponents only; ``memo`` holds the values found."""
    key = (k, mono)
    if key in memo:
        return memo[key]
    if k == 0:
        value = pres.reduce({mono: 1})
    elif not any(mono):
        value = {}
    else:
        idx = next(i for i, e in enumerate(mono) if e)
        rest = mono[:idx] + (mono[idx] - 1,) + mono[idx + 1 :]
        gen = pres.reduce({pres._power_mono(idx, 1): 1})
        acc = {}
        if k is None:
            pres._mul_into(acc, pres._free_value(None, idx), pres.reduce({rest: 1}))
            sign = -1 if pres.degrees[idx] % 2 else 1
            pres._mul_into(acc, gen, reference_op_mono(pres, None, rest, memo), sign)
        else:
            for i in range(min(k, pres.degrees[idx] // pres.weight) + 1):
                partner = reference_op_mono(pres, k - i, rest, memo)
                if partner:
                    pres._mul_into(acc, gen if i == 0 else pres._free_value(i, idx), partner)
        value = pres.reduce(acc)
    memo[key] = value
    return value
