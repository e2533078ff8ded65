"""Normal forms of presented rings are unique, whatever the relation order.

The relation rules are completed up to the degree each computation
touches, so a polynomial has one normal form.  These properties check it
on random rings at p = 2, 3 and 5 with up to three homogeneous relations:
permuting the relations changes no normal form, no operation value and no
axiom violation; products associate; and equal elements, built by
different products in differently ordered presentations, have equal
operation values.
"""

import random
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as hs

from modtopo.steenrod import ModPRingPresentation, axiom_report, sq, st

NAMES = ("x", "y", "z")


def _monomials(p, gens, degree, factors):
    """Every monomial of the given degree with at least ``factors``
    generator factors; at odd p, odd-degree generators at most once."""
    ranges = [range(degree // d + 1 if p == 2 or d % 2 == 0 else 2) for _, d in gens]
    return [
        {name: e for e, (name, _) in zip(exps, gens) if e}
        for exps in product(*ranges)
        if sum(e * d for e, (_, d) in zip(exps, gens)) == degree and sum(exps) >= factors
    ]


def _polynomial(draw, p, gens, degree, max_terms, factors=1):
    """Up to ``max_terms`` distinct monomials of one degree, with coefficients."""
    choices = _monomials(p, gens, degree, factors)
    if not choices:
        return []
    picks = draw(hs.lists(hs.integers(0, len(choices) - 1), min_size=1, max_size=max_terms, unique=True))
    return [(draw(hs.integers(1, p - 1)), choices[i]) for i in picks]


@hs.composite
def rings(draw):
    """(p, generators, relations, a full table of operation values)."""
    p = draw(hs.sampled_from((2, 3, 5)))
    gens = [(name, draw(hs.integers(1, 3))) for name in NAMES[: draw(hs.integers(1, 3))]]
    # decomposable relations: each monomial has two generator factors or more
    relations = [
        _polynomial(draw, p, gens, draw(hs.integers(2, 4)), 3, 2) for _ in range(draw(hs.integers(0, 3)))
    ]
    kind, weight, step = ("Sq", 1, 1) if p == 2 else ("St", 2, 2 * (p - 1))
    table = {}
    for name, d in gens:
        for k in range(1, (d - 1) // weight + 1):
            table[(kind, k, name)] = _polynomial(draw, p, gens, d + k * step, 2)
        table[("beta", name)] = _polynomial(draw, p, gens, d + 1, 2)
    return p, gens, relations, table


def _op(pres):
    return sq if pres.p == 2 else st


def _all_monomials(pres, bound):
    """Every monomial of degree <= bound, normal or not; at odd p an
    odd-degree generator appears at most once."""
    ranges = [range(bound // d + 1 if pres.p == 2 or d % 2 == 0 else 2) for d in pres.degrees]
    return [exps for exps in product(*ranges) if pres.mono_degree(exps) <= bound]


# x*y = z^2 and x^2 = 0 overlap on x^2*y, which puts x*z^2 in the ideal
OVERLAP = (2, [("x", 1), ("y", 1), ("z", 1)], [[(1, {"x": 1, "y": 1}), (1, {"z": 2})], [(1, {"x": 2})]], {})
# at p = 5 the lead x*y of z^2 + 3xy holds an odd generator: x times the
# relation puts x*z^2 in the ideal, though x*y does not divide it
ODD_LEAD = (5, [("x", 1), ("y", 3), ("z", 2)], [[(1, {"z": 2}), (3, {"x": 1, "y": 1})]], {})
# two rules for x^2, x^2 = u and x^2 = 0, which together give u = 0
SAME_LEAD = (2, [("x", 1), ("u", 2)], [[(1, {"x": 2}), (1, {"u": 1})], [(1, {"x": 2})]], {("Sq", 1, "u"): 0})


@settings(max_examples=60, deadline=None)
@given(rings(), hs.randoms(use_true_random=False))
@example(OVERLAP, random.Random(0))
@example(SAME_LEAD, random.Random(1))  # a shuffle that swaps the two relations
def test_permuting_relations_changes_no_normal_form_operation_or_violation(ring, rng):
    p, gens, relations, table = ring
    permuted = list(relations)
    rng.shuffle(permuted)
    one = ModPRingPresentation(p, gens, relations, table)
    other = ModPRingPresentation(p, gens, permuted, table)
    for exps in _all_monomials(one, 6):
        assert one.reduce({exps: 1}) == other.reduce({exps: 1})
    op = _op(one)
    for exps in one.monomials_up_to(4):
        for k in range(one.mono_degree(exps) // one.weight + 1):
            assert op(k, one.element([(1, dict(zip(one.names, exps)))])).poly == (
                op(k, other.element([(1, dict(zip(other.names, exps)))])).poly
            )
    assert list(map(str, axiom_report(one, 4).violations)) == list(map(str, axiom_report(other, 4).violations))


@hs.composite
def factors(draw):
    """A ring and three monomial factors with coefficients."""
    p, gens, relations, table = draw(rings())
    picks = []
    for _ in range(3):
        exps = {name: draw(hs.integers(0, 2)) for name, _ in gens}
        picks.append([(draw(hs.integers(1, p - 1)), exps)])
    return (p, gens, relations, table), picks


@settings(max_examples=150, deadline=None)
@given(factors())
@example((OVERLAP, [[(1, {"x": 1})], [(1, {"x": 1})], [(1, {"y": 1})]]))
@example((ODD_LEAD, [[(1, {"x": 1})], [(1, {"x": 1})], [(1, {"y": 1})]]))
def test_products_associate(case):
    (p, gens, relations, table), picks = case
    pres = ModPRingPresentation(p, gens, relations, table)
    a, b, c = (pres.element(f) for f in picks)
    assert (a * b) * c == a * (b * c)
    # and every normal monomial up to degree 6 times two generators
    gens = [pres.gen(name) for name in pres.names]
    for exps in pres.monomials_up_to(6):
        m = pres.element([(1, dict(zip(pres.names, exps)))])
        for g, h in product(gens, repeat=2):
            assert (g * h) * m == g * (h * m)


@settings(max_examples=60, deadline=None)
@given(factors(), hs.randoms(use_true_random=False))
@example((OVERLAP, [[(1, {"x": 1})], [(1, {"x": 1})], [(1, {"y": 1})]]), random.Random(0))
@example((ODD_LEAD, [[(1, {"x": 1})], [(1, {"x": 1})], [(1, {"y": 1})]]), random.Random(0))
def test_equal_elements_have_equal_operations(case, rng):
    (p, gens, relations, table), picks = case
    permuted = list(relations)
    rng.shuffle(permuted)
    one = ModPRingPresentation(p, gens, relations, table)
    other = ModPRingPresentation(p, gens, permuted, table)
    a = one.element(picks[0]) * one.element(picks[1]) * one.element(picks[2])
    b = other.element(picks[0]) * (other.element(picks[1]) * other.element(picks[2]))
    assert a.poly == b.poly
    op = _op(one)
    top = min((a.degree or 0) // one.weight, 2 if p == 2 else 1)
    # the second presentation fills its memo in the other order
    want = [op(k, a).poly for k in range(top + 1)]
    assert [op(k, b).poly for k in reversed(range(top + 1))] == want[::-1]
