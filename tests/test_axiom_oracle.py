"""axiom_report against a sweep that evaluates one identity at a time.

The reference in ``helpers.reference_axiom_report`` builds every Cartan and
Leibniz identity as its own closure and runs them in order; the library
checks each monomial pair in one pass.  Both must report the same
violations in the same order and count the same identities as checked
and as skipped, on presentations with missing, zero and random table
entries.  Relations are homogeneous: the presentation refuses any other.
"""

from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as hs

from helpers import reference_axiom_report
from modtopo.steenrod import ModPRingPresentation, axiom_report


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
def presentations(draw):
    """(p, generators, relations, operations, max degree)."""
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
            choice = draw(hs.sampled_from(("missing", "zero", "random", "random", "random", "random")))
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
def test_axiom_report_equals_the_identity_by_identity_sweep(case):
    p, gens, relations, operations, max_degree = case
    report = axiom_report(ModPRingPresentation(p, gens, relations, operations), max_degree)
    want = reference_axiom_report(ModPRingPresentation(p, gens, relations, operations), max_degree)
    assert ([str(v) for v in report.violations], report.checked, report.skipped) == want
