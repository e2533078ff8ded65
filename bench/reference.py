"""Expected values computed without modtopo, used to check its outputs.

Everything here is written from the closed forms and textbook algorithms
(Kunneth by hand, universal coefficients, rational elimination, binomial
Cartan formulas), never by calling modtopo, so a wrong answer from the
library cannot agree with its own check by construction.

A group is handled in two forms:

* raw: ``(rank, [cyclic orders])`` with orders >= 1, used for arithmetic;
* canonical: ``(rank, sorted prime powers)``, used for comparison.  Two
  finitely generated abelian groups are isomorphic exactly when these agree.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

# -- abelian groups -------------------------------------------------------


def prime_powers(n: int) -> list[int]:
    """Prime-power factors of n >= 1 (empty for 1)."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            q = 1
            while n % f == 0:
                n //= f
                q *= f
            out.append(q)
        f += 1
    if n > 1:
        out.append(n)
    return out


def canon(raw) -> tuple[int, tuple[int, ...]]:
    rank, orders = raw
    powers = []
    for d in orders:
        d = abs(d)
        if d == 0:
            rank += 1
        else:
            powers += prime_powers(d)
    return rank, tuple(sorted(powers))


def of_group(g) -> tuple[int, tuple[int, ...]]:
    """Canonical form of a modtopo group; rejects a broken factor chain."""
    facs = tuple(g.invariant_factors)
    for a, b in zip(facs, facs[1:]):
        if a < 2 or b % a:
            raise ValueError(f"invariant factors {facs} are not a divisibility chain")
    if facs and facs[0] < 2:
        raise ValueError(f"invariant factors {facs} contain a unit")
    return canon((g.rank, facs))


def of_json(doc) -> tuple[int, tuple[int, ...]]:
    """Canonical form of a CLI group document."""
    facs = [int(d) for d in doc["torsion"]]
    for a, b in zip(facs, facs[1:]):
        if b % a:
            raise ValueError(f"torsion {facs} is not a divisibility chain")
    return canon((int(doc["rank"]), facs))


TRIVIAL = (0, [])


def dsum(*parts):
    rank, orders = 0, []
    for r, o in parts:
        rank += r
        orders += o
    return rank, orders


def tensor(a, b):
    (ra, ta), (rb, tb) = a, b
    return ra * rb, ta * rb + tb * ra + [gcd(x, y) for x in ta for y in tb]


def tor(a, b):
    return 0, [gcd(x, y) for x in a[1] for y in b[1]]


def hom(a, b):
    (ra, ta), (rb, tb) = a, b
    return ra * rb, tb * ra + [gcd(x, y) for x in ta for y in tb]


def ext(a, b):
    (ra, ta), (rb, tb) = a, b
    return 0, ta * rb + [gcd(x, y) for x in ta for y in tb]


def _at(h, m):
    return h[m] if 0 <= m < len(h) else TRIVIAL


def kunneth_homology(hx, hy):
    """H_k(X x Y) over the degrees of the product complex."""
    out = []
    for k in range(len(hx) + len(hy) - 1):
        parts = [tensor(_at(hx, i), _at(hy, k - i)) for i in range(k + 1)]
        parts += [tor(_at(hx, i), _at(hy, k - 1 - i)) for i in range(k)]
        out.append(dsum(*parts))
    return out


def kunneth_graded(x, y):
    """Graded product in modtopo's convention: the Tor term of p + q = k - 1
    sits in degree k, one extra degree is kept only when nontrivial."""
    top = len(x) + len(y) - 2
    out = []
    for k in range(top + 2):
        parts = [tensor(_at(x, p), _at(y, k - p)) for p in range(k + 1)]
        parts += [tor(_at(x, p), _at(y, k - 1 - p)) for p in range(k)]
        out.append(dsum(*parts))
    if canon(out[-1]) == (0, ()):
        out.pop()
    return out


def cohomology_from_homology(h):
    """Universal coefficients over Z: H^m = Z^rank(H_m) + torsion(H_(m-1))."""
    return [dsum((h[m][0], []), (0, list(_at(h, m - 1)[1]))) for m in range(len(h))]


def with_coefficients(h, kind: str, p: int | None, cohomology: bool):
    """H_m (x) G + Tor(H_(m-1), G), or Hom(H_m, G) + Ext(H_(m-1), G)."""
    if kind == "rationals":
        return [(g[0], []) for g in h] + [TRIVIAL]
    g = (1, []) if kind == "integers" else (0, [p])
    first, second = (hom, ext) if cohomology else (tensor, tor)
    return [dsum(first(_at(h, m), g), second(_at(h, m - 1), g)) for m in range(len(h) + 1)]


# -- integer matrices (lists of rows) -----------------------------------------


def matmul(a, b):
    if not a:
        return []
    cols = len(b[0]) if b else 0
    bt = list(zip(*b)) if b else [()] * cols
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def rank_rational(rows) -> int:
    """Rank over Q by fraction-free Gaussian elimination."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [x * p[c] - f * y for x, y in zip(m[i], p)]
                g = 0
                for v in m[i]:
                    g = gcd(g, v)
                if g > 1:
                    m[i] = [v // g for v in m[i]]
        rank += 1
    return rank


def det_rational(rows) -> int:
    """Determinant by Gaussian elimination over Fraction."""
    m = [[Fraction(v) for v in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        p = m[c][c]
        det *= p
        for i in range(c + 1, n):
            f = m[i][c] / p
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return int(det)


def solve_rational(a, rhs_cols):
    """Unique rational solutions x of A x = b for a full-column-rank A.

    Returns one list of Fractions per right-hand side, or None for a side
    that is inconsistent."""
    n, m = len(a), len(a[0])
    k = len(rhs_cols)
    aug = [[Fraction(v) for v in a[i]] + [Fraction(b[i]) for b in rhs_cols] for i in range(n)]
    row = 0
    for c in range(m):
        piv = next((i for i in range(row, n) if aug[i][c]), None)
        if piv is None:
            raise ValueError("matrix is not of full column rank")
        aug[row], aug[piv] = aug[piv], aug[row]
        p = aug[row][c]
        aug[row] = [v / p for v in aug[row]]
        for i in range(n):
            if i != row and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
        row += 1
    out = []
    for j in range(k):
        consistent = all(aug[i][m + j] == 0 for i in range(m, n))
        out.append([aug[i][m + j] for i in range(m)] if consistent else None)
    return out


def in_lattice(basis_rows, vec_cols) -> bool:
    """Every vector is an integer combination of the basis columns."""
    if not vec_cols:
        return True
    sols = solve_rational(basis_rows, vec_cols)
    return all(s is not None and all(v.denominator == 1 for v in s) for s in sols)


def columns(rows, ncols):
    return [[r[j] for r in rows] for j in range(ncols)]


# -- circle bundles (closed forms of the K-group table) ------------------------


def circle_bundle_k(genus: int, chern: int, twist: int):
    """K^0, K^1 of the circle bundle over a genus-g surface with Euler
    number j, twisted at level k: untwisted K^0 = H^0+H^2, K^1 = H^1+H^3;
    twisted K^0 = H^2, K^1 = H^1 + H^3/kH^3."""
    j = abs(chern)
    h1 = (2 * genus + (0 if j else 1), [])
    h2 = (2 * genus + (0 if j else 1), [j] if j else [])
    z = (1, [])
    if twist == 0:
        return dsum(z, h2), dsum(h1, z)
    return h2, dsum(h1, (0, [twist]))


# -- Hilbert modular varieties ------------------------------------------------


def _binom(a, b):
    return comb(a, b) if 0 <= b <= a else 0


def compact_betti(n: int, dim_weight2: int, m: int) -> int:
    if m == n:
        return 2**n * dim_weight2 + (_binom(n, n // 2) if n % 2 == 0 else 0)
    return _binom(n, m // 2) if m % 2 == 0 else 0


def cuspidal_betti(n: int, cusps: int, cusp_dim: int, m: int) -> int:
    """Universal + Eisenstein + cuspidal parts, zero in degrees 0 and 2n."""
    if m in (0, 2 * n):
        return 0
    univ = _binom(n, m // 2) if m % 2 == 0 else 0
    if m == 2 * n - 1:
        eis = cusps - 1
    elif n <= m < 2 * n - 1:
        eis = cusps * _binom(n - 1, m - n)
    else:
        eis = 0
    cusp = 2**n * cusp_dim if m == n else 0
    return univ + eis + cusp


def compact_hodge(n: int, dim_weight2: int, m: int):
    """Sorted (p, q, part, value) entries of a compact degree-m slice."""
    entries = {}
    if m % 2 == 0 and _binom(n, m // 2):
        entries[(m // 2, m // 2, "univ")] = _binom(n, m // 2)
    if m == n and dim_weight2:
        for q in range(n + 1):
            entries[(n - q, q, "cusp")] = _binom(n, q) * dim_weight2
    return [(p, q, part, v) for (p, q, part), v in sorted(entries.items())]


# -- Steenrod operations -------------------------------------------------------


def cartan_closed(p: int, gens, k: int, exps):
    """Total operation of index k on a monomial, by the binomial formula.

    ``gens`` lists (step, growth, truncation, exterior) per generator: the
    generator's i-th operation has index step*i and multiplies it by
    C(a, i) times a growth*i higher power; powers above ``truncation``
    vanish (None: no relation), and an exterior generator admits i = 0
    only.  Returns {exponents: coefficient mod p}."""
    out = {}

    def walk(g, left, coeff, acc):
        if g == len(gens):
            if left == 0:
                key = tuple(acc)
                out[key] = (out.get(key, 0) + coeff) % p
            return
        step, growth, trunc, exterior = gens[g]
        a = exps[g]
        top = 0 if exterior else a
        for i in range(top + 1):
            if step * i > left:
                break
            c = comb(a, i) % p
            e = a + growth * i
            if c == 0 or (trunc is not None and e > trunc):
                continue
            walk(g + 1, left - step * i, coeff * c % p, acc + [e])

    walk(0, k, 1, [])
    return {m: c for m, c in out.items() if c}
