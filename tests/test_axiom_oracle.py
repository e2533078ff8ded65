"""axiom_report against a sweep that evaluates one identity at a time.

The reference in ``helpers.reference_axiom_report`` checks every
instability, squaring, Cartan, Leibniz and beta beta identity on every
monomial and pair of monomials up to the degree bound.  The library checks
beta beta on the generators and whether the operations of each relation
and each completed rule lie in the ideal, which is what those identities
rest on.  So whenever the sweep reports a violation the library reports
one too, or skips an identity that needs a missing table value, with the
same DEGREE and TABLE entries, on presentations with missing, zero and
random table entries.  Relations are homogeneous: the presentation refuses
any other.

The same presentations check the library's monomial recursion, which splits
a monomial in two, against ``helpers.reference_op_mono``, which peels one
generator factor per level: wherever the reference answers, the library
gives the same value.
"""

import random
from itertools import product

from hypothesis import assume, example, given, settings
from hypothesis import strategies as hs

from helpers import reference_axiom_report, reference_op_mono
from modtopo.errors import Undetermined
from modtopo.steenrod import ModPRingPresentation, axiom_report, bockstein, sq, st


def _term(draw, p, gens, degree):
    """(coefficient, monomial) of the given degree with exponents below 4,
    or None if there is none."""
    choices = [
        exps
        for exps in product(range(4), repeat=len(gens))
        if sum(e * d for e, (_, d) in zip(exps, gens)) == degree
    ]
    if not choices:
        return None
    exps = draw(hs.sampled_from(choices))
    mono = {name: e for e, (name, _) in zip(exps, gens) if e}
    return (draw(hs.integers(1, p - 1)), mono)


def _polynomial(draw, p, gens, degrees):
    terms = (_term(draw, p, gens, d) for d in degrees)
    return [t for t in terms if t is not None]


@hs.composite
def presentations(draw, complete=False):
    """(p, generators, relations, operations, max degree); with ``complete``,
    the table supplies every value the axioms do not force."""
    p = draw(hs.sampled_from((2, 3, 5)))
    gens = [(name, draw(hs.integers(1, 3))) for name in ("x", "y", "z")[: draw(hs.integers(1, 3))]]
    relations = []
    for _ in range(draw(hs.integers(0, 2))):
        relation = _polynomial(draw, p, gens, [draw(hs.integers(2, 4))] * 2)
        if relation:
            relations.append(relation)
    kind = "Sq" if p == 2 else "St"
    weight, step = (1, 1) if p == 2 else (2, 2 * (p - 1))
    operations = {}
    for name, d in gens:
        keys = [(kind, k, name) for k in range(1, d // weight + 1)] + [("beta", name)]
        for key in keys:
            choice = draw(hs.sampled_from(("missing", "zero", "random", "random", "random", "random")[complete:]))
            if choice == "zero":
                operations[key] = 0
            elif choice == "random":
                want = d + (1 if key[0] == "beta" else key[1] * step)
                # a value of another degree, or of two, is a DEGREE violation
                degrees = [draw(hs.sampled_from((want, want, want + 1))) for _ in range(draw(hs.integers(1, 2)))]
                operations[key] = _polynomial(draw, p, gens, degrees)
    return p, gens, relations, operations, draw(hs.integers(1, 7))


@settings(max_examples=80, deadline=None)
@given(presentations())
# a table inconsistent with x^2 = u: CARTAN and BOCKSTEIN violations
@example((2, [("x", 1), ("u", 2)], [[(1, {"x": 2}), (1, {"u": 1})]], {("Sq", 1, "u"): [(1, {"x": 1, "u": 1})]}, 6))
# St^1 v disagrees with u^2 = v at p = 3, and beta v is missing
@example((3, [("u", 2), ("v", 4)], [[(1, {"u": 2}), (2, {"v": 1})]], {("St", 1, "v"): [(1, {"v": 2})], ("beta", "u"): 0}, 7))
# Sq^1 and Sq^2 of y are missing: the pairs through y skip from the first gap on
@example((2, [("x", 2), ("y", 3)], [], {}, 7))
# x^2 reduces to xy + y^2, and Sq^1 y is missing: the left sides of a
# product of several monomials stop at the first undetermined value
@example((2, [("x", 2), ("y", 2)], [[(1, {"x": 2}), (1, {"x": 1, "y": 1}), (1, {"y": 2})]], {("Sq", 1, "x"): 0}, 6))
# the sweep's only finding is Leibniz on x * x, as beta beta x is
# undetermined: beta of the relation x^2 is 2*x*beta(x) = 3*x*z
@example((5, [("x", 2), ("z", 3)], [[(1, {"x": 2})]], {("beta", "x"): [(4, {"z": 1})]}, 6))
# the sweep's only finding is Sq^1 Sq^1 (x*y) = y*z, which passes through
# a relation of degree 3, one above the bound
@example((2, [("x", 1), ("y", 1), ("z", 3)], [[(1, {"x": 2, "y": 1}), (1, {"z": 1})]], {("Sq", 1, "z"): 0, ("Sq", 2, "z"): 0}, 2))
# Sq^1 of both relations needs the missing Sq^1 y, but the rule x^2 -> z
# that they complete to does not: Sq^1(x^2 + z) = x*z is not in the ideal
@example((2, [("x", 1), ("y", 2), ("z", 2)], [[(1, {"x": 2}), (1, {"y": 1})], [(1, {"y": 1}), (1, {"z": 1})]], {("Sq", 1, "z"): [(1, {"x": 1, "z": 1})]}, 3))
# the sweep's Leibniz on x * x*y meets beta(3*x^2 + 4*y*z) * y, where the
# missing beta z is multiplied by y^2 = 0; the library checks beta of the
# relation itself, which needs beta z, and skips it
@example((5, [("x", 2), ("y", 1), ("z", 3)], [[(3, {"x": 2}), (4, {"y": 1, "z": 1})]], {("beta", "x"): 0, ("beta", "y"): [(3, {"x": 1})], ("St", 1, "z"): 0}, 5))
def test_axiom_report_flags_or_skips_what_the_identity_by_identity_sweep_flags(case):
    p, gens, relations, operations, max_degree = case
    report = axiom_report(ModPRingPresentation(p, gens, relations, operations), max_degree)
    want, _, _ = reference_axiom_report(ModPRingPresentation(p, gens, relations, operations), max_degree)
    got = [str(v) for v in report.violations]
    assert _table(got) == _table(want)
    # a clean report that skipped nothing holds whatever values the missing
    # entries take, and the sweep's identities follow from it
    assert got or any(report.skipped.values()) or not want


def _table(violations: list[str]) -> list[str]:
    return [v for v in violations if v.startswith(("DEGREE:", "TABLE:"))]


@settings(max_examples=80, deadline=None)
@given(presentations(complete=True), hs.randoms(use_true_random=False))
# Sq^1 u = u*x contradicts u = x^2; with u listed first the relation's lead
# is u, through which no product reduces
@example((2, [("x", 1), ("u", 2)], [[(1, {"x": 2}), (1, {"u": 1})]], {("Sq", 1, "u"): [(1, {"x": 1, "u": 1})]}, 8), random.Random(1))
def test_permuting_the_generators_keeps_the_verdict_and_its_kinds(case, rng):
    # with a value missing, whether an operation needs it can depend on the
    # order in which the Cartan recursion splits a monomial, so an identity
    # can be skipped in one order and evaluated in the other
    p, gens, relations, operations, max_degree = case
    permuted = list(gens)
    rng.shuffle(permuted)
    if p != 2:
        # a monomial {name: exponent} is read in generator order, so the
        # odd-degree generators, which anticommute, keep their order
        odd = iter([g for g in gens if g[1] % 2])
        permuted = [next(odd) if d % 2 else (n, d) for n, d in permuted]
    one, other = (
        {v.kind for v in axiom_report(ModPRingPresentation(p, order, relations, operations), max_degree).violations}
        for order in (gens, permuted)
    )
    assert bool(one) == bool(other)
    # a value of the wrong degree breaks the graded signs that the Cartan and
    # Leibniz extensions rest on, so what follows from it may depend on the order
    if "DEGREE" not in one:
        assert one == other


@settings(max_examples=80, deadline=None)
@given(presentations(complete=True), hs.randoms(use_true_random=False))
def test_renaming_the_generators_maps_sq_st_and_bockstein_by_the_renaming(case, rng):
    # where the table passes to the quotient (a clean report to the degree of
    # every relation), the operations are maps of the ring, so renaming and
    # reordering the generators maps their answers by the renaming; normal
    # forms follow the order, so answers are compared by equality in the ring
    p, gens, relations, operations, max_degree = case
    pres = ModPRingPresentation(p, gens, relations, operations)
    report = axiom_report(pres, 4)  # relations have degree <= 4
    assume(not report.violations and not any(report.skipped.values()))
    order = list(gens)
    rng.shuffle(order)
    if p != 2:  # the odd-degree generators keep their order, as above
        in_order = iter([g for g in gens if g[1] % 2])
        order = [next(in_order) if d % 2 else (n, d) for n, d in order]
    labels = [f"g{i}" for i in range(len(gens))]
    rng.shuffle(labels)
    new = {name: label for (name, _), label in zip(order, labels)}

    def rename(raw):
        return raw and [(c, {new[n]: e for n, e in mono.items()}) for c, mono in raw]

    renamed = ModPRingPresentation(
        p,
        [(new[n], d) for n, d in order],
        [rename(r) for r in relations],
        {(*key[:-1], new[key[-1]]): rename(value) for key, value in operations.items()},
    )

    def image(x):
        raw = [(c, {pres.names[i]: e for i, e in enumerate(m) if e}) for m, c in x.poly.items()]
        return renamed.element(rename(raw) or 0)

    op = sq if p == 2 else st
    odd = [d % 2 and p != 2 for _, d in gens]
    for exps in product(range(4), repeat=len(gens)):
        degree = sum(e * d for e, (_, d) in zip(exps, gens))
        if degree > max_degree or any(e > 1 and o for e, o in zip(exps, odd)):
            continue
        mono = {name: e for e, (name, _) in zip(exps, gens) if e}
        x, y = pres.element([(1, mono)]), renamed.element(rename([(1, mono)]))
        assert image(x) == y
        assert image(bockstein(x)) == bockstein(y)
        for k in range(degree // pres.weight + 2):
            assert image(op(k, x)) == op(k, y)


@settings(max_examples=80, deadline=None)
@given(presentations(complete=False) | presentations(complete=True))
# Sq^1 x is missing and Sq^1 z = 0, so Sq^2(x z) needs neither; the
# reference raises when z is listed first, and the library answers in both orders
@example((2, [("z", 2), ("x", 2)], [], {("Sq", 1, "z"): 0}, 4))
@example((2, [("x", 2), ("z", 2)], [], {("Sq", 1, "z"): 0}, 4))
def test_the_split_recursion_answers_as_the_one_factor_recursion(case):
    p, gens, relations, operations, max_degree = case
    pres = ModPRingPresentation(p, gens, relations, operations)
    memo = {}
    odd = [d % 2 and p != 2 for _, d in gens]
    for exps in product(range(4), repeat=len(gens)):
        degree = sum(e * d for e, (_, d) in zip(exps, gens))
        if degree > max_degree or any(e > 1 and o for e, o in zip(exps, odd)):
            continue
        for k in [None, *range(degree // pres.weight + 2)]:
            try:
                want = reference_op_mono(pres, k, exps, memo)
            except Undetermined:
                continue
            assert pres.op_mono(k, exps) == want
            if k is None:
                assert pres.beta_mono(exps) == want
