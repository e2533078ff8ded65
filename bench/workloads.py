"""The workloads: seeded problem lists, how each problem runs, and how its
output is checked.  ``library`` interleaves the homology, lattice and
steenrod parts in one pass; ``cli`` runs the command-line front end.

A problem is one operation of a pass.  ``run`` is the timed call into
modtopo and returns its raw output; ``digest`` turns that output into a
value that every pass must reproduce exactly; ``verify`` checks the
last pass's output against :mod:`reference` and raises ``Wrong`` on a
mismatch.  Library names are looked up on the ``modtopo`` module at call
time, so the tracer's wrappers see every call.

Sizes are fixed per workload and the seed draws only values (entries,
orders, exponents, parameters), so that every seed costs about the same.
"""

from __future__ import annotations

import importlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

import modtopo as mt

import reference as ref


class Wrong(Exception):
    """An output that disagrees with the independent computation."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Wrong(what)


@dataclass
class Problem:
    label: str
    run: Callable[[], object]
    digest: Callable[[object], object]
    verify: Callable[[object], None]


def interleave(*groups: list[Problem]) -> list[Problem]:
    """Round-robin over the problem kinds, so a pass mixes them."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out += [g[i] for g in groups if i < len(g)]
    return out


def _groups(gs):
    return tuple((g.rank, tuple(g.invariant_factors)) for g in gs)


def _expect_groups(got, want, what: str) -> None:
    try:
        canon_got = [ref.of_group(g) for g in got]
    except ValueError as exc:
        raise Wrong(f"{what}: {exc}") from None
    expect(canon_got == [ref.canon(w) for w in want], f"{what}: {canon_got}")


# ---------------------------------------------------------------------------
# homology: cellular complexes, Kunneth and universal coefficients

CIRCLE = ([[-1, 1], [1, -1]],)  # two vertices, two edges
CIRCLE_H = [(1, []), (1, [])]


def _rp2():
    return ([[0]], [[2]]), [(1, []), (0, [2]), (0, [])]


def _lens(p):
    return ([[0]], [[p]], [[0]]), [(1, []), (0, [p]), (0, []), (1, [])]


def _scramble(rng, boundaries):
    """Relabel and reorient the cells of every degree at random.

    A signed permutation of each chain group is a chain isomorphism, so the
    homology is unchanged while the matrices, and the pivots they offer,
    differ from seed to seed."""
    dims = [len(boundaries[0])] + [len(b[0]) for b in boundaries]
    perms = [rng.sample(range(n), n) for n in dims]
    signs = [[rng.choice((-1, 1)) for _ in range(n)] for n in dims]
    out = []
    for k, b in enumerate(boundaries):
        rp, cp, rs, cs = perms[k], perms[k + 1], signs[k], signs[k + 1]
        out.append(
            [[rs[i] * cs[j] * b[rp[i]][cp[j]] for j in range(dims[k + 1])] for i in range(dims[k])]
        )
    return out


def _space(rng, label, factors):
    complexes = [
        [mt.IntMatrix.from_rows(b, cols=len(b[0])) for b in _scramble(rng, f[0])] for f in factors
    ]
    want_h = factors[0][1]
    for f in factors[1:]:
        want_h = ref.kunneth_homology(want_h, f[1])
    want_dims = [1]
    for f in factors:
        fd = [len(f[0][0])] + [len(b[0]) for b in f[0]]
        want_dims = [
            sum(want_dims[i] * fd[k - i] for i in range(len(want_dims)) if 0 <= k - i < len(fd))
            for k in range(len(want_dims) + len(fd) - 1)
        ]

    def run():
        b = complexes[0]
        for other in complexes[1:]:
            b = mt.tensor_product_complex(b, other)
        h = mt.homology_of_complex(b)
        c = mt.cohomology_of_cochain_complex(mt.dual_complex(b))
        return [b[0].rows] + [m.cols for m in b], h, c

    def digest(out):
        dims, h, c = out
        return tuple(dims), _groups(h), _groups(c)

    def verify(out):
        dims, h, c = out
        expect(dims == want_dims, f"{label}: chain ranks {dims} != {want_dims}")
        _expect_groups(h, want_h, f"{label} homology")
        _expect_groups(c, ref.cohomology_from_homology(want_h), f"{label} cohomology")
        chi_chain = sum((-1) ** k * d for k, d in enumerate(dims))
        chi_h = sum((-1) ** k * g.rank for k, g in enumerate(h))
        expect(chi_chain == chi_h, f"{label}: Euler characteristic {chi_h} != {chi_chain}")

    return Problem(f"homology {label}", run, digest, verify)


def _graded_raw(rng, ranks, torsion_counts):
    orders = (2, 3, 4, 6, 8, 9, 12, 16, 18, 27)
    return [(r, [rng.choice(orders) for _ in range(t)]) for r, t in zip(ranks, torsion_counts)]


def _as_graded(raw):
    return mt.GradedCohomology(tuple(mt.FgAbGroup.from_divisors(*([0] * r), *t) for r, t in raw))


def _kunneth(rng, label, shape_x, shape_y):
    x_raw, y_raw = _graded_raw(rng, *shape_x), _graded_raw(rng, *shape_y)
    x, y = _as_graded(x_raw), _as_graded(y_raw)
    want = ref.kunneth_graded(x_raw, y_raw)

    def verify(out):
        _expect_groups(out.groups, want, f"kunneth {label}")

    return Problem(
        f"kunneth {label}", lambda: mt.kunneth_product(x, y), lambda out: _groups(out.groups), verify
    )


def _coefficients(rng, label, shape, kind, p, cohomology):
    h_raw = _graded_raw(rng, *shape)
    h = list(_as_graded(h_raw).groups)
    spec = {
        "integers": mt.CoefficientSpec.integers,
        "rationals": mt.CoefficientSpec.rationals,
        "mod_p": lambda: mt.CoefficientSpec.mod_p(p),
    }[kind]()
    want = ref.with_coefficients(h_raw, kind, p, cohomology)
    name = "cohomology_with_coefficients" if cohomology else "homology_with_coefficients"

    def run():
        return getattr(mt, name)(h, spec)

    def verify(out):
        _expect_groups(out, want, f"{name} {label}")

    return Problem(f"{name} {label}", run, _groups, verify)


def homology(rng) -> list[Problem]:
    def lens():
        return _lens(rng.randint(3, 12))

    circle = (CIRCLE, CIRCLE_H)
    spaces = [
        _space(rng, "T^2", [circle] * 2),
        _space(rng, "T^3", [circle] * 3),
        _space(rng, "T^4", [circle] * 4),
        _space(rng, "RP^2 x T^2", [_rp2()] + [circle] * 2),
        _space(rng, "RP^2 x T^3", [_rp2()] + [circle] * 3),
        _space(rng, "L x T^2", [lens()] + [circle] * 2),
        _space(rng, "L x T^3", [lens()] + [circle] * 3),
        _space(rng, "L x RP^2 x T^2", [lens(), _rp2()] + [circle] * 2),
        _space(rng, "L x L x S^1", [lens(), lens(), circle]),
        _space(rng, "RP^2 x RP^2 x T^2", [_rp2(), _rp2()] + [circle] * 2),
    ]
    big = ([24, 30, 28, 20], [6, 8, 7, 5])
    small = ([6, 4, 5], [4, 3, 3])
    groups = [
        _kunneth(rng, "4x3", big, small),
        _kunneth(rng, "3x3", small, small),
    ]
    p = rng.choice((2, 3, 5, 7))
    coefficients = [
        _coefficients(rng, f"mod {p}", big, "mod_p", p, False),
        _coefficients(rng, f"mod {p}", big, "mod_p", p, True),
        _coefficients(rng, "Z", big, "integers", None, True),
        _coefficients(rng, "Q", big, "rationals", None, False),
    ]
    return interleave(spaces, groups, coefficients)


# ---------------------------------------------------------------------------
# lattice: dense integer matrices and the circle-bundle differential


def _dense(rng, n, m):
    return [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]


def _deficient(rng, n, m, r):
    """n x m of rank at most r: the last m - r columns are sums of two
    earlier ones."""
    rows = _dense(rng, n, r)
    for _ in range(m - r):
        a, b = rng.randrange(r), rng.randrange(r)
        for row in rows:
            row.append(row[a] + row[b])
    return rows


def _imat(rows):
    return mt.IntMatrix.from_rows(rows, cols=len(rows[0]))


def _to_rows(m):
    return [list(m.row(i)) for i in range(m.rows)]


def _snf(rng, n):
    rows = _dense(rng, n, n)
    m = _imat(rows)

    def verify(s):
        diag = list(s.diagonal)
        nz = [d for d in diag if d]
        expect(all(d > 0 for d in nz), f"snf {n}: negative invariant factor")
        expect(all(b % a == 0 for a, b in zip(nz, nz[1:])), f"snf {n}: broken chain {nz}")
        expect(diag[: len(nz)] == nz, f"snf {n}: zeros before factors")
        g = 0
        for v in m.entries:
            g = gcd(g, v)
        expect(nz[0] == g, f"snf {n}: first factor {nz[0]} != gcd {g}")
        expect(len(nz) == ref.rank_rational(rows), f"snf {n}: rank")
        left, right = _to_rows(s.left), _to_rows(s.right)
        d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        expect(ref.matmul(ref.matmul(left, d), right) == rows, f"snf {n}: left diag right != M")
        expect(ref.matmul(left, _to_rows(s.left_inv)) == ref.identity(n), f"snf {n}: left inverse")
        expect(ref.matmul(right, _to_rows(s.right_inv)) == ref.identity(n), f"snf {n}: right inverse")

    return Problem(f"snf {n}x{n}", lambda: mt.smith_normal_form(m), lambda s: s, verify)


def _determinant(rng, n):
    rows = _dense(rng, n, n)
    m = _imat(rows)

    def verify(d):
        expect(d == ref.det_rational(rows), f"determinant {n}")

    return Problem(f"determinant {n}x{n}", lambda: mt.determinant(m), lambda d: d, verify)


def _kernel(rng, n, m, r):
    rows = _deficient(rng, n, m, r)
    mat = _imat(rows)

    def verify(k):
        nullity = m - ref.rank_rational(rows)
        expect(k.rows == m and k.cols == nullity, f"kernel: {k.cols} columns, want {nullity}")
        k_rows = _to_rows(k)
        expect(all(v == 0 for row in ref.matmul(rows, k_rows) for v in row), "kernel: M K != 0")
        expect(ref.rank_rational(k_rows) == nullity, "kernel: dependent columns")

    return Problem(
        f"kernel {n}x{m}", lambda: mt.integer_kernel_basis(mat), lambda k: k, verify
    )


def _image(rng, n, m):
    rows = _dense(rng, n, m)
    mat = _imat(rows)

    def verify(b):
        expect(b.cols == ref.rank_rational(rows), "image: basis size != rank")
        b_rows = _to_rows(b)
        expect(ref.in_lattice(rows, ref.columns(b_rows, b.cols)), "image: basis outside lattice")
        expect(ref.in_lattice(b_rows, ref.columns(rows, m)), "image: lattice outside basis span")

    return Problem(f"image {n}x{m}", lambda: mt.image_lattice_basis(mat), lambda b: b, verify)


def _solve(rng, n, r):
    rows = _deficient(rng, n, n, r)
    mat = _imat(rows)
    x0 = [rng.randint(-5, 5) for _ in range(n)]
    b = [sum(a * x for a, x in zip(row, x0)) for row in rows]

    def verify(x):
        expect(x is not None, "solve: no solution for b = M x0")
        expect([sum(a * v for a, v in zip(row, x)) for row in rows] == b, "solve: M x != b")

    return Problem(
        f"solve {n}x{n}", lambda: mt.solve_integer(mat, b), lambda x: tuple(x or ()), verify
    )


def _quotient(rng, n, m):
    """L = column lattice of a full-rank M, S = M D V with D diagonal and V
    unimodular, so L/S is the sum of Z/d over the diagonal of D."""
    rows = _dense(rng, n, m)
    ds = [rng.randint(1, 6) for _ in range(m)]
    v = ref.identity(m)
    for _ in range(m):
        i, j = rng.sample(range(m), 2)
        c = rng.choice((-1, 1))
        v[i] = [a + c * b for a, b in zip(v[i], v[j])]
    sub = ref.matmul(ref.matmul(rows, [[ds[i] if i == j else 0 for j in range(m)] for i in range(m)]), v)
    span_m, sub_m = _imat(rows), _imat(sub)

    def verify(q):
        expect(ref.rank_rational(rows) == m, "quotient: generator matrix lost rank")
        _expect_groups([q], [(0, ds)], "quotient")

    return Problem(
        f"quotient {n}x{m}",
        lambda: mt.lattice_quotient(span_m, sub_m),
        lambda q: _groups([q]),
        verify,
    )


def _k_via_d3(rng, genus):
    chern, twist = rng.randint(-9, 9), rng.randint(0, 9)
    spec = mt.CircleBundleSpec(genus, chern, twist)
    want = ref.circle_bundle_k(genus, chern, twist)

    def verify(pair):
        _expect_groups([pair.k0, pair.k1], list(want), f"K-groups g={genus} j={chern} k={twist}")

    return Problem(
        f"k_groups_via_d3 g={genus}",
        lambda: mt.k_groups_via_d3(spec),
        lambda pair: _groups([pair.k0, pair.k1]),
        verify,
    )


def lattice(rng) -> list[Problem]:
    # several mid-size matrices per kind rather than one large one: the cost
    # of a dense elimination depends on its entries, and more matrices
    # average that out across seeds
    return interleave(
        [_snf(rng, n) for n in (20, 24, 28, 32)],
        [_determinant(rng, n) for n in (24, 32, 40)],
        [_kernel(rng, 26, 26, 22), _solve(rng, 24, 20), _kernel(rng, 26, 26, 22), _solve(rng, 24, 20)],
        [_image(rng, 26, 22), _quotient(rng, 20, 16), _image(rng, 26, 22), _quotient(rng, 20, 16)],
        [_quotient(rng, 20, 16)],
        [_k_via_d3(rng, g) for g in (10, 12, 14, 16)],
    )


# ---------------------------------------------------------------------------
# steenrod: presented mod-p rings, cold evaluation and warm verification

# Each ring: prime, generators, relations, table, and per generator the
# (index step, power growth, truncation, exterior) of its binomial formula.
RINGS = {
    "(RP^inf)^3": (2, [("x1", 1), ("x2", 1), ("x3", 1)], [], {}, [(1, 1, None, False)] * 3),
    "(CP^inf)^2 mod 2": (
        2,
        [("y1", 2), ("y2", 2)],
        [],
        {("Sq", 1, "y1"): 0, ("Sq", 1, "y2"): 0},
        [(2, 1, None, False)] * 2,
    ),
    "RP^8 x RP^6": (
        2,
        [("a", 1), ("b", 1)],
        [[(1, {"a": 9})], [(1, {"b": 7})]],
        {},
        [(1, 1, 8, False), (1, 1, 6, False)],
    ),
    "CP^4 x RP^inf": (
        2,
        [("y", 2), ("x", 1)],
        [[(1, {"y": 5})]],
        {("Sq", 1, "y"): 0},
        [(2, 1, 4, False), (1, 1, None, False)],
    ),
    "(CP^inf)^2 mod 3": (
        3,
        [("y1", 2), ("y2", 2)],
        [],
        {("beta", "y1"): 0, ("beta", "y2"): 0},
        [(1, 2, None, False)] * 2,
    ),
    "CP^6 x CP^inf mod 3": (
        3,
        [("v", 2), ("w", 2)],
        [[(1, {"v": 7})]],
        {("beta", "v"): 0, ("beta", "w"): 0},
        [(1, 2, 6, False), (1, 2, None, False)],
    ),
    "L^inf(3)": (
        3,
        [("u", 1), ("v", 2)],
        [],
        {("beta", "u"): [(1, {"v": 1})], ("beta", "v"): 0},
        [(1, 0, None, True), (1, 2, None, False)],
    ),
}


def _ring(spec):
    p, gens, rels, table, _ = spec
    return mt.ModPRingPresentation(p, gens, rels, table)


def _evaluation(rng, name, op):
    spec = RINGS[name]
    p, gens, _, _, closed = spec
    exps = []
    for (_, _, trunc, exterior), (_, deg) in zip(closed, gens):
        exps.append(rng.randint(0, 1) if exterior else rng.randint(0, trunc or 8 // deg + 2))
    degree = sum(e * d for e, (_, d) in zip(exps, gens))
    if op == "beta":
        k = 1
        u, b = exps
        want = {(0, b + 1): 1} if u else {}
    else:
        k = rng.randint(1, max(1, degree if p == 2 else degree // 2))
        want = ref.cartan_closed(p, closed, k, exps)
    monomial = [(1, {g: e for (g, _), e in zip(gens, exps)})]

    def run():
        # a fresh presentation per call: cold memo caches, as in one CLI call
        x = _ring(spec).element(monomial)
        return mt.bockstein(x) if op == "beta" else getattr(mt, op.lower())(k, x)

    def verify(out):
        expect(out.poly == want, f"{op}^{k} on {exps} in {name}: {out.poly} != {want}")

    return Problem(f"{op}^{k} {name}", run, lambda out: out.poly, verify)


def _verify(label, pres, degree, want_cartan=False):
    """verify_axioms on one presentation.  A presentation object is kept
    across passes (warm caches); a callable builds a fresh one per call."""

    def run():
        return mt.verify_axioms(pres() if callable(pres) else pres, degree)

    def verify(out):
        if want_cartan:
            expect(any(v.kind == "CARTAN" for v in out), f"{label}: perturbed table not caught")
        else:
            expect(out == [], f"{label}: {[str(v) for v in out]}")

    return Problem(f"verify_axioms {label} to {degree}", run, lambda out: tuple(map(str, out)), verify)


def _perturbed():
    # Sq^1 u = x u contradicts u = x^2 through the Cartan formula
    return mt.ModPRingPresentation(
        2,
        [("x", 1), ("u", 2)],
        [[(1, {"x": 2}), (1, {"u": 1})]],
        operations={("Sq", 1, "u"): [(1, {"x": 1, "u": 1})]},
    )


def steenrod(rng) -> list[Problem]:
    plan = [
        ("(RP^inf)^3", "Sq", 12),
        ("(CP^inf)^2 mod 2", "Sq", 8),
        ("RP^8 x RP^6", "Sq", 8),
        ("CP^4 x RP^inf", "Sq", 8),
        ("(CP^inf)^2 mod 3", "St", 8),
        ("CP^6 x CP^inf mod 3", "St", 8),
        ("L^inf(3)", "St", 6),
        ("L^inf(3)", "beta", 6),
    ]
    evaluations = [[_evaluation(rng, name, op) for _ in range(n)] for name, op, n in plan]
    trunc = rng.randint(5, 7)
    verifies = [
        _verify("(RP^inf)^3", _ring(RINGS["(RP^inf)^3"]), 6),
        _verify("(CP^inf)^2 mod 3", _ring(RINGS["(CP^inf)^2 mod 3"]), 12),
        _verify(f"RP^{trunc}", mt.ModPRingPresentation(2, [("x", 1)], [[(1, {"x": trunc + 1})]]), 10),
        _verify("perturbed table", _perturbed, 6, want_cartan=True),
    ]
    return interleave(*evaluations, verifies)


# ---------------------------------------------------------------------------
# cli: one process per subcommand, as a user runs them


def _json_doc(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise Wrong(f"stdout is not exactly one JSON document: {exc}") from None


def _canon_group_list(docs):
    return [ref.of_json(d) for d in docs]


def _cli_cases(rng):
    """(label, argv, stdin document or None, check of the parsed output)."""
    cases = []

    g, j, k = rng.randint(0, 6), rng.randint(-5, 5), rng.randint(0, 5)
    for path in ("closed", "d3"):
        want = ref.circle_bundle_k(g, j, k)

        def check(doc, want=want, path=path):
            expect(doc["path"] == ("d3" if path == "d3" else "closed_form"), "kcircle path")
            got = [ref.of_json(doc["K0"]), ref.of_json(doc["K1"])]
            expect(got == [ref.canon(w) for w in want], f"kcircle: {got}")

        argv = ["kcircle", "--genus", str(g), "--chern", str(j), "--twist", str(k), "--path", path]
        cases.append((f"kcircle {path}", argv, None, check))
        g, j, k = rng.randint(0, 6), rng.randint(-5, 5), rng.randint(0, 5)

    n, h, c = rng.randint(2, 5), rng.randint(1, 4), rng.randint(0, 3)
    want_betti = [ref.cuspidal_betti(n, h, c, m) for m in range(2 * n + 1)]
    cases.append(
        (
            "hilbert betti",
            ["hilbert", "--n", str(n), "--h", str(h), "--uniform-cusp-dim", str(c), "--betti"],
            None,
            lambda doc, want=want_betti: expect(doc == want, f"hilbert betti: {doc}"),
        )
    )
    n, d = rng.randint(1, 5), rng.randint(0, 4)

    def hodge_check(doc, n=n, d=d):
        got = [
            [(e["p"], e["q"], e["part"], e["value"]) for e in s["entries"]] for s in doc["hodge"]
        ]
        want = [ref.compact_hodge(n, d, m) for m in range(2 * n + 1)]
        expect(got == want, f"hilbert hodge: {got}")
        totals = [sum(e[3] for e in s) for s in got]
        expect(totals == [ref.compact_betti(n, d, m) for m in range(2 * n + 1)], "hodge sums")

    cases.append(
        (
            "hilbert hodge",
            ["hilbert", "--n", str(n), "--compact", "--dim-weight2", str(d), "--hodge"],
            None,
            hodge_check,
        )
    )

    rows = _dense(rng, 5, 5)

    def smith_check(doc, rows=rows):
        diag = [int(v) for v in doc["diagonal"]]
        nz = [v for v in diag if v]
        expect(all(b % a == 0 for a, b in zip(nz, nz[1:])), "smith chain")
        g = 0
        for row in rows:
            for v in row:
                g = gcd(g, v)
        expect(nz[0] == g, "smith first factor != gcd")
        left = [[int(v) for v in doc["left"]["entries"][i * 5 : i * 5 + 5]] for i in range(5)]
        right = [[int(v) for v in doc["right"]["entries"][i * 5 : i * 5 + 5]] for i in range(5)]
        dm = [[diag[i] if i == j else 0 for j in range(5)] for i in range(5)]
        expect(ref.matmul(ref.matmul(left, dm), right) == rows, "smith: left diag right != M")

    smith_doc = {"op": "smith", "matrix": {"rows": 5, "cols": 5, "entries": sum(rows, [])}}
    cases.append(("group smith", ["group"], smith_doc, smith_check))

    # L(p) and RP^2 side by side: dims 2, 2, 2, 1
    p = rng.randint(3, 12)
    bounds = [
        {"rows": 2, "cols": 2, "entries": [0, 0, 0, 0]},
        {"rows": 2, "cols": 2, "entries": [p, 0, 0, 2]},
        {"rows": 2, "cols": 1, "entries": [0, 0]},
    ]
    want_h = [(2, []), (0, [p, 2]), (0, []), (1, [])]
    cases.append(
        (
            "group homology",
            ["group"],
            {"op": "homology", "boundaries": bounds},
            lambda doc, want=want_h: expect(
                _canon_group_list(doc["groups"]) == [ref.canon(w) for w in want], "group homology"
            ),
        )
    )

    a = (rng.randint(0, 3), [rng.randint(2, 30) for _ in range(3)])
    b = (rng.randint(0, 3), [rng.randint(2, 30) for _ in range(3)])
    tensor_doc = {
        "op": "tensor",
        "a": {"rank": a[0], "torsion": _chain(a[1])},
        "b": {"rank": b[0], "torsion": _chain(b[1])},
    }
    cases.append(
        (
            "group tensor",
            ["group"],
            tensor_doc,
            lambda doc, a=a, b=b: expect(
                ref.of_json(doc["result"]) == ref.canon(ref.tensor(a, b)), "group tensor"
            ),
        )
    )

    x_raw = _graded_raw(rng, [1, 3, 2], [0, 2, 2])
    y_raw = _graded_raw(rng, [1, 2, 1], [0, 1, 1])
    kdoc = {"x": _graded_json(x_raw), "y": _graded_json(y_raw)}
    want_k = ref.kunneth_graded(x_raw, y_raw)

    def kunneth_check(doc, want=want_k):
        got = _canon_group_list(doc["product"]["groups"])
        expect(got == [ref.canon(w) for w in want], f"kunneth: {got}")
        expect(doc["betti"] == [w[0] for w in want], "kunneth betti")
        expect(doc["euler"] == sum((-1) ** m * w[0] for m, w in enumerate(want)), "kunneth euler")

    cases.append(("kunneth", ["kunneth"], kdoc, kunneth_check))

    g4 = [Fraction(rng.randint(-20, 20), rng.choice((1, 2, 4))) for _ in range(4)]
    p1 = [rng.randint(-10, 10) for _ in range(4)]
    defect = [c - Fraction(v, 4) for c, v in zip(g4, p1)]
    want_flux = {
        "quantized": all(c.denominator == 1 for c in defect),
        "defect": [str(c) for c in defect],
    }
    cases.append(
        (
            "anomaly flux",
            ["anomaly"],
            {"check": "flux", "g4": [str(c) for c in g4], "p1": p1},
            lambda doc, want=want_flux: expect(doc == want, f"anomaly flux: {doc}"),
        )
    )

    torsion = _chain([rng.choice((2, 3, 4, 6)) for _ in range(2)])
    rank = rng.randint(0, 2)
    w3 = {"free": [rng.randint(-3, 3) for _ in range(rank)], "torsion": [rng.randrange(d) for d in torsion]}
    h = {"free": [rng.randint(-3, 3) for _ in range(rank)], "torsion": [rng.randrange(d) for d in torsion]}
    if rng.random() < 0.5:  # an anomaly-free pair: h = -w3
        h = {"free": [-v for v in w3["free"]], "torsion": [(-v) % d for v, d in zip(w3["torsion"], torsion)]}
    obstruction = {
        "free": [a + b for a, b in zip(w3["free"], h["free"])],
        "torsion": [(a + b) % d for a, b, d in zip(w3["torsion"], h["torsion"], torsion)],
    }
    want_fw = {
        "anomaly_free": not any(obstruction["free"]) and not any(obstruction["torsion"]),
        "obstruction": obstruction,
    }
    fw_doc = {
        "check": "freed_witten",
        "ambient": {"rank": rank, "torsion": torsion},
        "w3": w3,
        "h": h,
    }
    cases.append(
        (
            "anomaly freed_witten",
            ["anomaly"],
            fw_doc,
            lambda doc, want=want_fw: expect(doc == want, f"anomaly freed_witten: {doc}"),
        )
    )

    exps = [rng.randint(0, 5), rng.randint(0, 5)]
    k = rng.randint(1, max(1, sum(exps)))
    want_sq = ref.cartan_closed(2, [(1, 1, None, False)] * 2, k, exps)
    steenrod_doc = {
        "presentation": {
            "p": 2,
            "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}],
        },
        "evaluate": {"op": f"Sq{k}", "element": [{"coeff": 1, "monomial": {"x": exps[0], "y": exps[1]}}]},
    }

    def steenrod_check(doc, want=want_sq):
        got = {
            (t["monomial"].get("x", 0), t["monomial"].get("y", 0)): t["coeff"] % 2
            for t in doc["value"]
        }
        expect(got == want, f"steenrod Sq{k}: {got} != {want}")

    cases.append(("steenrod evaluate", ["steenrod"], steenrod_doc, steenrod_check))

    max_genus = 2
    # the sweeps' own grids: genus 0..g x chern -5..5 x twist 0..5, and
    # n = 1..4 x (1 compact + 3 cusp counts) x dims 0..3 x degrees 0..2n
    want_cases = {
        "k-groups closed-form vs d3": {"cases": (max_genus + 1) * 11 * 6, "ok": True},
        "hilbert hodge sums vs betti": {
            "cases": sum(16 * (2 * n + 1) for n in range(1, 5)),
            "ok": True,
        },
    }
    cases.append(
        (
            "self-test",
            ["self-test", "--max-genus", str(max_genus)],
            None,
            lambda doc, want=want_cases: expect(doc == want, f"self-test: {doc}"),
        )
    )
    return cases


def _chain(orders):
    """Invariant factors of the given cyclic orders, computed here."""
    prime_powers = {}
    for d in orders:
        for q in ref.prime_powers(d):
            p = next(f for f in range(2, q + 1) if q % f == 0)
            prime_powers.setdefault(p, []).append(q)
    for qs in prime_powers.values():
        qs.sort(reverse=True)
    out = []
    for i in range(max((len(qs) for qs in prime_powers.values()), default=0)):
        f = 1
        for qs in prime_powers.values():
            if i < len(qs):
                f *= qs[i]
        out.append(f)
    return sorted(out)


def _graded_json(raw):
    return {
        "top_degree": len(raw) - 1,
        "groups": [{"rank": r, "torsion": _chain(t)} for r, t in raw],
    }


def cli(rng, in_process: bool = False) -> list[Problem]:
    if in_process:
        importlib.import_module("modtopo.cli")
    problems = []
    for label, argv, doc, check in _cli_cases(rng):
        stdin = json.dumps(doc) if doc is not None else ""

        if in_process:

            def run(argv=argv, stdin=stdin):
                out, err = io.StringIO(), io.StringIO()
                saved = sys.stdin
                sys.stdin = io.StringIO(stdin)
                try:
                    with redirect_stdout(out), redirect_stderr(err):
                        code = mt.cli.run(list(argv))
                finally:
                    sys.stdin = saved
                return code, out.getvalue(), err.getvalue()

        else:

            def run(argv=argv, stdin=stdin):
                proc = subprocess.run(
                    [sys.executable, "-m", "modtopo.cli", *argv],
                    input=stdin,
                    capture_output=True,
                    text=True,
                    timeout=120,
                )
                return proc.returncode, proc.stdout, proc.stderr

        def verify(out, label=label, check=check):
            code, stdout, stderr = out
            expect(code == 0, f"{label}: exit {code}: {stderr.strip()[-200:]}")
            try:
                check(_json_doc(stdout))
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                raise Wrong(f"{label}: malformed output ({exc!r})") from None

        problems.append(Problem(f"cli {label}", run, lambda out: out[:2], verify))
    return problems


def library(rng) -> list[Problem]:
    """The homology, lattice and steenrod problems in one interleaved pass."""
    return interleave(homology(rng), lattice(rng), steenrod(rng))

