import itertools
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from helpers import allocation_cap, deadline
from modtopo.errors import (
    Inhomogeneous,
    InvalidInput,
    NotModTwo,
    NotOddPrime,
    Undetermined,
    WrongDegree,
)
from modtopo.steenrod import (
    MAX_EVALUATION_DEPTH,
    ModPRingPresentation,
    axiom_report,
    bockstein,
    parse_op_label,
    sq,
    st,
    verify_axioms,
    w3_from_w2,
)


def poly_ring_p2(*gens):
    return ModPRingPresentation(2, list(gens))


def exterior_p2(*gens):
    rels = [[(1, {name: 2})] for name, _ in gens]
    return ModPRingPresentation(2, list(gens), rels)


# -- construction -------------------------------------------------------


def test_p_must_be_prime():
    with pytest.raises(ValueError):
        ModPRingPresentation(6, [("x", 1)])


def test_generator_degrees_positive():
    with pytest.raises(ValueError):
        ModPRingPresentation(2, [("x", 0)])


@pytest.mark.parametrize(
    "build",
    [
        lambda: ModPRingPresentation(2, [("x", 1)], [[(1, {"x": -2})]]),
        lambda: ModPRingPresentation(2, [("x", 1)], operations={("Sq", 1, "x"): [(1, {"x": -1})]}),
        lambda: ModPRingPresentation(2, [("x", 1)]).element([(1, {"x": -1})]),
    ],
    ids=["relation", "table value", "element"],
)
def test_negative_exponents_are_refused(build):
    # x^-2 = 0 would make every monomial, x included, reduce to 0
    with pytest.raises(ValueError, match=r"the monomial \{'x': -[12]\} has a negative exponent"):
        build()


def test_wrong_kind_entries_rejected():
    with pytest.raises(NotOddPrime):
        ModPRingPresentation(2, [("x", 2)], operations={("St", 1, "x"): 0})
    with pytest.raises(NotModTwo):
        ModPRingPresentation(3, [("x", 2)], operations={("Sq", 1, "x"): 0})


def test_normal_forms_unique():
    pres = ModPRingPresentation(2, [("x", 1)], [[(1, {"x": 3})]])
    x = pres.gen("x")
    assert (x * x * x).is_zero
    assert x * x == pres.element([(1, {"x": 2})])


# -- squares -------------------------------------------------------------


def test_sq0_is_identity():
    pres = poly_ring_p2(("x", 1), ("y", 2))
    el = pres.gen("x") * pres.gen("y") + pres.gen("x") ** 3
    assert sq(0, el) == el


def test_sq_top_is_square():
    pres = poly_ring_p2(("u", 2))
    u = pres.gen("u")
    assert sq(2, u) == u * u


def test_sq_above_degree_vanishes():
    pres = poly_ring_p2(("x", 1))
    assert sq(2, pres.gen("x")).is_zero
    assert sq(5, pres.gen("x") ** 3).is_zero


def test_sq1_cartan_on_product_of_lines():
    pres = poly_ring_p2(("x", 1), ("y", 1))
    x, y = pres.gen("x"), pres.gen("y")
    assert sq(1, x * y) == x * x * y + x * y * y


def test_sq_on_powers_of_line_class():
    # Sq^k(x^n) = C(n, k) x^(n+k) mod 2; spot-check a few
    pres = poly_ring_p2(("x", 1))
    x = pres.gen("x")
    assert sq(1, x**2).is_zero  # C(2,1) = 2 = 0
    assert sq(1, x**3) == x**4  # C(3,1) = 3 = 1
    assert sq(2, x**2) == x**4  # C(2,2) = 1
    assert sq(2, x**5) == 2 * x**7 + 10 * 0 * x or sq(2, x**5) == pres.element(
        [(10 % 2, {"x": 7})]
    )


def test_sq_needs_mod_two():
    pres = ModPRingPresentation(3, [("x", 2)])
    with pytest.raises(NotModTwo):
        sq(1, pres.gen("x"))


def test_sq_needs_homogeneous():
    pres = poly_ring_p2(("x", 1), ("u", 2))
    mixed = pres.gen("x") + pres.gen("u")
    with pytest.raises(Inhomogeneous):
        sq(1, mixed)


def test_sq_undetermined_without_table():
    pres = poly_ring_p2(("u", 3))
    with pytest.raises(Undetermined):
        sq(1, pres.gen("u"))


def test_sq_uses_supplied_table():
    pres = ModPRingPresentation(
        2,
        [("x", 1), ("u", 2)],
        operations={("Sq", 1, "u"): [(1, {"x": 1, "u": 1})]},
    )
    x, u = pres.gen("x"), pres.gen("u")
    assert sq(1, u) == x * u
    # Cartan then gives Sq^1(u^2) = 2 x u^2 = 0
    assert sq(1, u * u).is_zero


@pytest.mark.parametrize("gens", [[("x", 2), ("z", 2)], [("z", 2), ("x", 2)]], ids=["x first", "z first"])
def test_a_missing_value_that_meets_a_zero_factor_is_not_needed_in_either_generator_order(gens):
    # Sq^2(xz) = x^2 z + Sq^1 x Sq^1 z + x z^2, and Sq^1 z = 0 makes the
    # missing Sq^1 x irrelevant, whichever factor is evaluated first
    pres = ModPRingPresentation(2, gens, operations={("Sq", 1, "z"): 0})
    x, z = pres.gen("x"), pres.gen("z")
    assert sq(2, x * z) == x * x * z + x * z * z
    with pytest.raises(Undetermined):
        sq(1, x * z)


@pytest.mark.parametrize("order", list(itertools.permutations("xzy")), ids="".join)
def test_a_relation_the_table_contradicts_is_flagged_in_every_generator_order_with_a_value_missing(order):
    # Sq^1 x is missing and meets only Sq^1 z = 0, so Sq^2(y^2 + xz) =
    # x^2 z + x z^2, which is not in the ideal, is evaluated in every order
    ops = {("Sq", 1, "z"): 0, ("Sq", 1, "y"): 0}
    pres = ModPRingPresentation(2, [(n, 2) for n in order], [[(1, {"y": 2}), (1, {"x": 1, "z": 1})]], ops)
    report = axiom_report(pres, 4)
    assert [v.kind for v in report.violations] == ["CARTAN"]
    assert report.skipped == {"BOCKSTEIN": 1, "CARTAN": 2}


# -- odd-prime powers ------------------------------------------------------


def test_st0_identity_and_top_power():
    pres = ModPRingPresentation(3, [("u", 2)])
    u = pres.gen("u")
    assert st(0, u) == u
    assert st(1, u) == u**3


def test_st_below_degree_vanishes():
    pres = ModPRingPresentation(3, [("x", 1)])
    assert st(1, pres.gen("x")).is_zero


def test_st_needs_odd_prime():
    pres = poly_ring_p2(("x", 1))
    with pytest.raises(NotOddPrime):
        st(1, pres.gen("x"))


def test_odd_degree_generators_anticommute():
    pres = ModPRingPresentation(3, [("a", 1), ("b", 1)])
    a, b = pres.gen("a"), pres.gen("b")
    assert (a * a).is_zero
    assert a * b + b * a == pres.zero()
    assert a * b == -1 * (b * a)


# -- bockstein --------------------------------------------------------------


def test_bockstein_is_sq1_at_two():
    pres = poly_ring_p2(("x", 1))
    x = pres.gen("x")
    assert bockstein(x) == x * x


def test_a_beta_entry_gives_sq1_at_two():
    pres = ModPRingPresentation(2, [("x", 1), ("w", 2)], [], {("beta", "w"): [(1, {"x": 1, "w": 1})]})
    x, w = pres.gen("x"), pres.gen("w")
    assert bockstein(w) == sq(1, w) == x * w
    assert axiom_report(pres, 4).violations == []


def test_a_beta_entry_that_contradicts_sq1_is_a_table_violation():
    # beta w disagrees with the supplied Sq^1 w, and beta x with the forced x^2
    ops = {("Sq", 1, "w"): 0, ("beta", "w"): [(1, {"x": 1, "w": 1})], ("beta", "x"): [(1, {"w": 1})]}
    pres = ModPRingPresentation(2, [("x", 1), ("w", 2)], [], ops)
    assert bockstein(pres.gen("w")).is_zero
    assert [str(v) for v in verify_axioms(pres, 4)] == [
        "TABLE: beta(x) is Sq^1 but the table disagrees [w != x^2]",
        "TABLE: beta(w) is Sq^1 but the table disagrees [x*w != 0]",
    ]


def test_bockstein_unit_is_zero():
    pres = poly_ring_p2(("x", 1))
    assert bockstein(pres.unit()).is_zero
    p3 = ModPRingPresentation(3, [("a", 1)], operations={("beta", "a"): 0})
    assert bockstein(p3.unit()).is_zero


def test_bockstein_odd_p_leibniz_extension():
    pres = ModPRingPresentation(
        3,
        [("a", 1), ("u", 2)],
        operations={("beta", "a"): [(1, {"u": 1})], ("beta", "u"): 0},
    )
    a, u = pres.gen("a"), pres.gen("u")
    assert bockstein(a) == u
    assert bockstein(a + a) == u + u
    # Leibniz: beta(a*u) = beta(a) u - a beta(u) = u^2
    assert bockstein(a * u) == u * u


def test_cartan_and_bockstein_depth_does_not_grow_with_the_exponent():
    # each level of the recursion splits a monomial in halves, by generators
    # and then a power x^e into x^(e//2) times x^(e - e//2), so these exponents,
    # far beyond the interpreter's frame limit, need about 13 levels
    x = poly_ring_p2(("x", 1)).gen("x")
    assert sq(1, x**5001) == x**5002  # C(5001, 1) is odd
    assert sq(2, x**5002) == x**5004  # C(5002, 2) is odd
    assert sq(2, x**5001).is_zero  # C(5001, 2) is even
    lens = ModPRingPresentation(
        3, [("u", 1), ("v", 2)], operations={("beta", "u"): [(1, {"v": 1})], ("beta", "v"): 0}
    )
    u, v = lens.gen("u"), lens.gen("v")
    assert bockstein(u * v**5000) == v**5001
    assert bockstein(v**5000).is_zero


def test_high_powers_cost_what_the_answer_costs():
    # Sq^k(x^n) = C(n, k) x^(n + k) at p = 2 and St^k(v^n) = C(n, k) v^(n + 2k)
    # at p = 3 for deg v = 2; both binomials are 1 mod p by Lucas
    x = poly_ring_p2(("x", 1)).gen("x")
    v = ModPRingPresentation(3, [("v", 2)]).gen("v")
    with deadline(2, "the recursion grew with the exponent"):
        assert sq(1024, x**3072) == x**4096
        assert st(300, v**1200) == v**1800


def _wide_monomial():
    pres = ModPRingPresentation(2, [(f"g{i}", 1) for i in range(2000)])
    return pres.element([(1, {f"g{i}": 1 for i in range(2000)})]), 2001


def _tall_monomial():
    return poly_ring_p2(("x", 1)).element([(1, {"x": 2**600})]), 602


@pytest.mark.parametrize("make", [_wide_monomial, _tall_monomial], ids=["2,000 generators", "x^(2^600)"])
def test_a_monomial_past_the_evaluation_depth_is_refused_before_anything_is_built(make):
    element, depth = make()
    with deadline(1, "the recursion started"), allocation_cap(2**20, "a refused evaluation"):
        for op in (sq, lambda k, x: bockstein(x)):
            with pytest.raises(InvalidInput, match=f"^a monomial needs evaluation depth {depth} .*; the limit is 512$"):
                op(1, element)
    # at the bound the recursion still answers
    x = poly_ring_p2(("x", 1)).gen("x")
    top = x ** (2 ** (MAX_EVALUATION_DEPTH - 1) - 1)
    assert sq(1, top) == top * x


def _product_of_lines(n, degree=1):
    pres = ModPRingPresentation(2, [(f"g{i}", degree) for i in range(n)])
    return pres, pres.element([(1, {f"g{i}": 1 for i in range(n)})])


def test_a_monomial_of_many_generators_costs_what_the_answer_costs():
    # Sq^1 of g0*...*g499 is the sum of its 500 terms g0*...*gi^2*...*g499;
    # halving the generators keeps the products as short as the answer,
    # where peeling one generator per level multiplies 500-long tuples
    # at each of 500 levels
    pres, x = _product_of_lines(500)
    want = pres.element([(1, {f"g{j}": 2 if j == i else 1 for j in range(500)}) for i in range(500)])
    with deadline(2, "Sq^1 of 500 generators"), allocation_cap(100 * 2**20, "Sq^1 of 500 generators"):
        assert sq(1, x) == want


def test_a_missing_value_under_many_generators_raises_without_retrying_each_split():
    # every Sq^1 is missing, so each split of Sq^2 raises; the raise is
    # memoized, so the fallback to peeling one generator does not redo the halves
    _, x = _product_of_lines(200, degree=2)
    with deadline(1, "Sq^2 of 200 generators with Sq^1 missing"), pytest.raises(Undetermined):
        sq(2, x)


def test_w3_from_w2():
    pres = ModPRingPresentation(
        2,
        [("w2", 2), ("v", 3)],
        operations={("Sq", 1, "w2"): [(1, {"v": 1})]},
    )
    assert w3_from_w2(pres.zero()).is_zero
    assert w3_from_w2(pres.gen("w2")) == pres.gen("v")
    w2a = pres.gen("w2")
    assert w3_from_w2(w2a + w2a).is_zero  # additivity over Z/2
    with pytest.raises(WrongDegree):
        w3_from_w2(pres.gen("v"))
    odd = ModPRingPresentation(3, [("x", 2)])
    with pytest.raises(NotModTwo):
        w3_from_w2(odd.gen("x"))


# -- axiom verification ----------------------------------------------------


def test_verify_axioms_clean_exterior_ring():
    pres = exterior_p2(("a", 1), ("b", 1))
    assert verify_axioms(pres, 6) == []


def test_verify_axioms_clean_polynomial_ring():
    pres = ModPRingPresentation(
        2,
        [("x", 1), ("u", 2), ("v", 3)],
        operations={
            ("Sq", 1, "u"): 0,
            ("Sq", 1, "v"): 0,
            ("Sq", 2, "v"): 0,
        },
    )
    assert verify_axioms(pres, 8) == []


def test_verify_axioms_clean_truncated_ring():
    # mod-2 cohomology of the real projective plane: Z/2[x]/(x^3)
    pres = ModPRingPresentation(2, [("x", 1)], [[(1, {"x": 3})]])
    assert verify_axioms(pres, 8) == []


def test_verify_axioms_flags_wrong_degree_value():
    pres = ModPRingPresentation(
        2,
        [("x", 1), ("u", 2)],
        operations={("Sq", 1, "u"): [(1, {"x": 1})]},  # degree 1, want 3
    )
    violations = verify_axioms(pres, 4)
    assert any(v.kind == "DEGREE" for v in violations)


def test_verify_axioms_catches_cartan_inconsistency():
    # x^2 = u forces Sq^1(u) = 0; a perturbed table breaks Cartan on x*x
    consistent = ModPRingPresentation(
        2,
        [("x", 1), ("u", 2)],
        [[(1, {"x": 2}), (1, {"u": 1})]],
        operations={("Sq", 1, "u"): 0},
    )
    assert verify_axioms(consistent, 6) == []
    perturbed = ModPRingPresentation(
        2,
        [("x", 1), ("u", 2)],
        [[(1, {"x": 2}), (1, {"u": 1})]],
        operations={("Sq", 1, "u"): [(1, {"x": 1, "u": 1})]},
    )
    violations = verify_axioms(perturbed, 6)
    assert any(v.kind == "CARTAN" for v in violations)
    named = [v for v in violations if "x" in v.detail]
    assert named, "violation should name the monomial"


def test_verify_axioms_flags_forced_table_conflict():
    pres = ModPRingPresentation(
        2,
        [("x", 1), ("u", 2)],
        operations={("Sq", 2, "u"): [(1, {"x": 2, "u": 1})]},  # forced: u^2
    )
    violations = verify_axioms(pres, 4)
    assert any(v.kind == "TABLE" for v in violations)


def test_overlapping_relations_complete_to_one_normal_form():
    pres = ModPRingPresentation(
        2,
        [("x", 1), ("u", 2)],
        [
            [(1, {"x": 2}), (1, {"u": 1})],  # x^2 = u
            [(1, {"x": 2})],  # x^2 = 0
        ],
    )
    # the two rules for x^2 meet, and completing them adds u = 0
    x, u = pres.gen("x"), pres.gen("u")
    assert (x * x).is_zero and u.is_zero
    assert x * u == (x * x) * x == x * (x * x) == 0
    assert verify_axioms(pres, 4) == []


def test_relations_that_overlap_on_a_product_give_one_normal_form():
    # x*y = z^2 and x^2 = 0 overlap on x^2*y: x*z^2 = 0, and then z^4 = 0
    pres = ModPRingPresentation(
        2, [("x", 1), ("y", 1), ("z", 1)], [[(1, {"x": 1, "y": 1}), (1, {"z": 2})], [(1, {"x": 2})]]
    )
    x, y, z = map(pres.gen, "xyz")
    assert x * (x * y) == (x * x) * y == x * z * z == z**4 == 0
    assert sq(2, x * (x * y)) == sq(2, (x * x) * y) == 0
    report = axiom_report(pres, 4)
    # a real one: Sq^1 does not descend, as Sq^1(x*y + z^2) = x*y^2 = y*z^2 is not 0
    assert sq(1, x * y) == 0 and sq(1, x) * y + x * sq(1, y) == y * z * z != 0
    assert list(map(str, report.violations)) == ["CARTAN: Sq^1(x*y + z^2) is not in the ideal [y*z^2 != 0]"]


@pytest.mark.parametrize(
    "gens,want",
    [
        ([("u", 2), ("x", 1)], "CARTAN: Sq^1(u + x^2) is not in the ideal [x^3 != 0]"),
        ([("x", 1), ("u", 2)], "CARTAN: Sq^1(x^2 + u) is not in the ideal [x*u != 0]"),
    ],
    ids=["u first", "x first"],
)
def test_a_table_the_relation_contradicts_is_flagged_in_either_generator_order(gens, want):
    # u = x^2 forces Sq^1 u = Sq^1(x^2) = 0.  With u first the relation's
    # lead is u, so no product of normal monomials reduces through it.
    pres = ModPRingPresentation(2, gens, [[(1, {"u": 1}), (1, {"x": 2})]], {("Sq", 1, "u"): [(1, {"u": 1, "x": 1})]})
    assert [str(v) for v in verify_axioms(pres, 8)] == [want]


@pytest.mark.parametrize(
    "pres,degree,want",
    [
        # beta(x^2) = 2*x*beta(x) = 8*x*z, and only x^2 is in the ideal
        (
            ModPRingPresentation(5, [("x", 2), ("z", 3)], [[(1, {"x": 2})]], {("beta", "x"): [(4, {"z": 1})], ("beta", "z"): 0}),
            6,
            "BOCKSTEIN: beta(x^2) is not in the ideal [3*x*z != 0]",
        ),
        # x^2 = 0 leaves beta y = 4*y*z, whose beta is 4*(beta(y)*z - y*beta(z))
        # = -8*x*y; the given value 3*x^2 + 4*y*z needs the missing beta x
        (
            ModPRingPresentation(
                5,
                [("x", 2), ("y", 3), ("z", 1)],
                [[(1, {"x": 2})], [(1, {"x": 1, "z": 1})]],
                {("beta", "y"): [(3, {"x": 2}), (4, {"y": 1, "z": 1})], ("beta", "z"): [(2, {"x": 1})]},
            ),
            3,
            "BOCKSTEIN: beta beta (y) != 0 [2*x*y != 0]",
        ),
        # Sq^1 of x^2 + y and of y + z needs the missing Sq^1 y; the rule
        # x^2 -> z that they complete to gives Sq^1(x^2 + z) = Sq^1 z = x*z
        (
            ModPRingPresentation(
                2,
                [("x", 1), ("y", 2), ("z", 2)],
                [[(1, {"x": 2}), (1, {"y": 1})], [(1, {"y": 1}), (1, {"z": 1})]],
                {("Sq", 1, "z"): [(1, {"x": 1, "z": 1})]},
            ),
            3,
            "CARTAN: Sq^1(x^2 + z) is not in the ideal [x*z != 0]",
        ),
    ],
    ids=["beta of a relation", "beta beta from the normal form", "a completed rule"],
)
def test_each_descent_check_finds_what_only_it_can(pres, degree, want):
    assert [str(v) for v in verify_axioms(pres, degree)] == [want]


def test_verify_axioms_odd_prime_clean():
    pres = ModPRingPresentation(
        3,
        [("a", 1), ("u", 2)],
        operations={("beta", "a"): [(1, {"u": 1})], ("beta", "u"): 0, ("St", 1, "a"): 0},
    )
    assert verify_axioms(pres, 7) == []


def test_degree_bookkeeping():
    pres = poly_ring_p2(("x", 1), ("u", 2))
    x, u = pres.gen("x"), pres.gen("u")
    assert sq(1, x).degree == 2
    assert sq(2, u).degree == 4
    p3 = ModPRingPresentation(3, [("u", 2)])
    assert st(1, p3.gen("u")).degree == 2 + 2 * 1 * (3 - 1)


def test_ring_element_arithmetic_lifts_ints():
    pres = ModPRingPresentation(3, [("u", 2)])
    u, one = pres.gen("u"), pres.unit()
    assert u - u == 0 and 0 == u - u
    assert u - 2 * u == 2 * u  # -u is 2u mod 3
    assert u + 1 == 1 + u == u + one
    assert one == 1 and one == 4 and u != 1
    assert u + 3 == u
    assert hash(u + 1) == hash(one + u)
    assert len({u, u * 1, u + 0, 1 * u}) == 1
    with pytest.raises(ValueError, match="negative"):
        u**-1


def test_serialization_round_trip():
    pres = ModPRingPresentation(
        2,
        [("x", 1), ("u", 2)],
        [[(1, {"x": 2}), (1, {"u": 1})]],
        operations={("Sq", 1, "u"): 0},
    )
    doc = pres.to_json()
    back = ModPRingPresentation.from_json(doc)
    assert back.to_json() == doc
    # equality is per-presentation; compare normal-form polynomials
    assert (
        sq(1, back.gen("u") * back.gen("x")).poly
        == sq(1, pres.gen("u") * pres.gen("x")).poly
    )


# -- the Cartan core against closed forms ------------------------------------------

# (prime, generator degree): Sq^i x^a = C(a, i) x^(a+i) for deg x = 1, and
# Sq^2i y^a = C(a, i) y^(a+i), St^i y^a = C(a, i) y^(a+i(p-1)) for deg y = 2
FAMILIES = [(2, 1), (2, 2), (3, 2), (5, 2)]


def closed_form(p, degree, exps, truncs, k):
    """The operation of index k on prod x_i^a_i, truncated at x_i^(t_i+1)."""
    if p == 2 and degree == 2:
        if k % 2:
            return {}
        k //= 2
    growth = 1 if p == 2 else p - 1
    out = {}
    for split in itertools.product(*(range(a + 1) for a in exps)):
        if sum(split) != k:
            continue
        c = prod(comb(a, i) for a, i in zip(exps, split)) % p
        mono = tuple(a + i * growth for a, i in zip(exps, split))
        if c and all(t is None or e <= t for e, t in zip(mono, truncs)):
            out[mono] = c
    return out


@settings(max_examples=150, deadline=None)
@given(hs.data())
def test_operations_match_binomial_closed_form(data):
    p, degree = data.draw(hs.sampled_from(FAMILIES))
    n = data.draw(hs.integers(1, 3))
    truncs = data.draw(hs.lists(hs.none() | hs.integers(1, 7), min_size=n, max_size=n))
    exps = [data.draw(hs.integers(0, 6 if t is None else t)) for t in truncs]
    names = [f"g{i}" for i in range(n)]
    relations = [[(1, {g: t + 1})] for g, t in zip(names, truncs) if t is not None]
    table = {("Sq", 1, g): 0 for g in names} if (p, degree) == (2, 2) else {}
    pres = ModPRingPresentation(p, [(g, degree) for g in names], relations, table)
    x = pres.element([(1, dict(zip(names, exps)))])
    top = sum(exps) * degree // (1 if p == 2 else 2)
    k = data.draw(hs.integers(0, top + 2))
    got = (sq if p == 2 else st)(k, x)
    assert got.poly == closed_form(p, degree, exps, truncs, k)


# -- pinned verifier output ----------------------------------------------------------

PINNED = [
    (
        "x^2 = u with a perturbed Sq^1 u",
        ModPRingPresentation(
            2,
            [("x", 1), ("u", 2)],
            [[(1, {"x": 2}), (1, {"u": 1})]],
            operations={("Sq", 1, "u"): [(1, {"x": 1, "u": 1})]},
        ),
        6,
        # Sq^1 u = x*u, and the ideal in degree 3 is spanned by x^3 + x*u
        ["CARTAN: Sq^1(x^2 + u) is not in the ideal [x*u != 0]"],
    ),
    (
        "Sq^1 u of the wrong degree",
        ModPRingPresentation(2, [("x", 1), ("u", 2)], operations={("Sq", 1, "u"): [(1, {"x": 1})]}),
        4,
        [
            "DEGREE: Sq^1(u) must be homogeneous of degree 3, got degrees [1]",
            "BOCKSTEIN: Sq^1 Sq^1 (u) != 0 [x^2 != 0]",
        ],
    ),
    (
        "u^3 = v mod 3 with St^1 v = u^5",
        ModPRingPresentation(
            3,
            [("u", 2), ("v", 6)],
            [[(1, {"u": 3}), (2, {"v": 1})]],
            operations={("St", 1, "v"): [(1, {"u": 5})], ("beta", "u"): 0, ("beta", "v"): 0},
        ),
        14,
        # St^1(u^3) = 3*u^5 = 0 and St^1(2*v) = 2*u^5 = 2*u^2*v; St^2 v is
        # undetermined, and St^3 of the relation is its cube
        ["CARTAN: St^1(u^3 + 2*v) is not in the ideal [2*u^2*v != 0]"],
    ),
    (
        "a perturbed beta u mod 3",
        ModPRingPresentation(
            3,
            [("a", 1), ("u", 2)],
            operations={
                ("beta", "a"): [(1, {"u": 1})],
                ("beta", "u"): [(1, {"a": 1, "u": 1})],
                ("St", 1, "a"): 0,
            },
        ),
        7,
        [
            "BOCKSTEIN: beta beta (a) != 0 [a*u != 0]",
            # beta(a*u) = beta(a)*u - a*beta(u) = u^2 - a^2*u, and a^2 = 0
            "BOCKSTEIN: beta beta (u) != 0 [u^2 != 0]",
        ],
    ),
]


@pytest.mark.parametrize("label,pres,degree,want", PINNED, ids=[p[0] for p in PINNED])
def test_verify_axioms_pinned_violations(label, pres, degree, want):
    assert [str(v) for v in verify_axioms(pres, degree)] == want


def test_axiom_report_counts_skipped_identities():
    pres = ModPRingPresentation(2, [("x", 2), ("y", 3)], [[(1, {"x": 3}), (1, {"y": 2})]], {("Sq", 1, "y"): 0})
    with pytest.raises(Undetermined):
        sq(1, pres.gen("x"))
    report = axiom_report(pres, 10)
    assert report.violations == verify_axioms(pres, 10) == []
    # Sq^1 Sq^1 x, and Sq^1 to Sq^5 of x^3 + y^2, need the missing Sq^1 x;
    # Sq^6 of the relation is its square, which is not checked
    assert report.skipped == {"BOCKSTEIN": 1, "CARTAN": 5}
    assert report.checked == {"BOCKSTEIN": 1, "CARTAN": 0}


def test_inhomogeneous_relation_is_refused_at_construction():
    # x^3 = y + x mixes the degrees 3, 2 and 1
    with pytest.raises(Inhomogeneous, match=r"^relation x\^3 \+ y \+ x is not homogeneous \(degrees \[1, 2, 3\]\)$"):
        ModPRingPresentation(2, [("x", 1), ("y", 2)], [[(1, {"x": 3}), (1, {"y": 1}), (1, {"x": 1})]])


def test_axiom_report_clean_ring_skips_nothing():
    report = axiom_report(ModPRingPresentation(2, [("x", 1)], [[(1, {"x": 3})]]), 8)
    assert report.violations == []
    assert sum(report.skipped.values()) == 0
    # Sq^1 Sq^1 x, and Sq^1 and Sq^2 of x^3 (Sq^3 of it is its square)
    assert report.checked == {"BOCKSTEIN": 1, "CARTAN": 2}


# -- one evaluation path over the presentation's memo --------------------------------


def _undetermined_pair():
    return ModPRingPresentation(2, [("x", 2), ("y", 3)])


def _perturbed_square():
    return ModPRingPresentation(
        2,
        [("x", 1), ("u", 2)],
        [[(1, {"x": 2}), (1, {"u": 1})]],
        operations={("Sq", 1, "u"): [(1, {"x": 1, "u": 1})]},
    )


@pytest.mark.parametrize(
    "make,degree", [(_undetermined_pair, 10), (_perturbed_square, 6)], ids=["undetermined", "x^2 = u"]
)
def test_axiom_report_on_a_warm_memo_equals_a_fresh_presentation(make, degree):
    warm = make()
    first = axiom_report(warm, degree)
    again = axiom_report(warm, degree)
    fresh = axiom_report(make(), degree)
    assert first == again == fresh
    assert sum(fresh.skipped.values()) > 0 or fresh.violations


@pytest.mark.parametrize(
    "p,gens,ops,kinds",
    [
        (
            2,
            [("x", 1), ("u", 2)],
            {("Sq", 1, "u"): [(1, {"x": 1, "u": 1})], ("beta", "x"): [(1, {"x": 2})]},
            {"sq", "beta"},
        ),
        (
            3,
            [("a", 1), ("u", 2), ("v", 6)],
            {("St", 1, "v"): [(1, {"u": 5})], ("beta", "a"): [(1, {"u": 1})], ("beta", "u"): 0},
            {"st", "beta"},
        ),
    ],
)
def test_json_round_trip_keeps_the_operation_table(p, gens, ops, kinds):
    pres = ModPRingPresentation(p, gens, operations=ops)
    back = ModPRingPresentation.from_json(pres.to_json())
    assert back.ops == pres.ops
    assert {kind for kind, _, _ in back.ops} == kinds
    assert back.to_json() == pres.to_json()


def test_parse_op_label():
    from modtopo.steenrod import parse_op_label

    assert parse_op_label("beta") == ("beta", 1)
    assert parse_op_label("Sq2") == parse_op_label("sq2") == ("sq", 2)
    assert parse_op_label("sT10") == ("st", 10)
    for label in ("Xq1", "Sq", "Beta", 5, None):
        with pytest.raises(ValueError):
            parse_op_label(label)


# -- input checks -------------------------------------------------------------------


@pytest.mark.parametrize(
    "key, message",
    [
        (("Pq", 1, "x"), "unknown operation kind 'pq'"),
        (("Sq", 0, "x"), "operation index must be >= 1 in the table"),
        (("Sq", 1, "y"), "unknown generator 'y'"),
    ],
)
def test_a_bad_table_key_is_refused(key, message):
    with pytest.raises(ValueError, match=message):
        ModPRingPresentation(2, [("x", 1)], operations={key: 0})


def test_a_table_entry_for_a_generator_that_is_not_a_name_is_refused():
    doc = {"p": 2, "generators": [{"name": "x", "degree": 1}], "ops": [{"op": "Sq1", "gen": 1, "value": []}]}
    with pytest.raises(ValueError, match="unknown generator 1"):
        ModPRingPresentation.from_json(doc)


@pytest.mark.parametrize("label", ["Sq02", "Sq1_0", "St+1", "sq 1", "Sq\u0661"])
def test_an_operation_index_is_read_only_in_its_canonical_spelling(label):
    with pytest.raises(ValueError, match="canonical"):
        parse_op_label(label)


def test_element_operations_refuse_mixed_input():
    pres = poly_ring_p2(("x", 1))
    x = pres.gen("x")
    with pytest.raises(Inhomogeneous, match="mixed degrees"):
        (x + x * x).degree
    with pytest.raises(ValueError, match="elements from different presentations"):
        x + poly_ring_p2(("x", 1)).gen("x")
    with pytest.raises(ValueError, match="operation index must be nonnegative"):
        sq(-1, x)
