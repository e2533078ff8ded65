import itertools
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from modtopo.errors import (
    Inhomogeneous,
    NotModTwo,
    NotOddPrime,
    Undetermined,
    WrongDegree,
)
from modtopo.steenrod import (
    ModPRingPresentation,
    axiom_report,
    bockstein,
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
    # each level of the recursions peels one generator factor, and these
    # exponents lie far beyond the interpreter's frame limit
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


def test_verify_axioms_flags_nonconfluent_rules():
    pres = ModPRingPresentation(
        2,
        [("x", 1), ("u", 2)],
        [
            [(1, {"x": 2}), (1, {"u": 1})],  # x^2 = u
            [(1, {"x": 2})],  # x^2 = 0
        ],
    )
    violations = verify_axioms(pres, 4)
    assert any(v.kind == "CONFLUENCE" for v in violations)


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
        [
            "BOCKSTEIN: Sq^1 Sq^1 (x) != 0 [x*u != 0]",
            "BOCKSTEIN: Sq^1 Sq^1 (x*u^2) != 0 [x*u^3 != 0]",
            "CARTAN: Sq^1(x * x) [x*u != 0]",
            "CARTAN: Sq^1(x * x*u) [0 != x*u^2]",
            "CARTAN: Sq^2(x * x*u) [u^3 != 0]",
            "CARTAN: Sq^3(x * x*u) [0 != x*u^3]",
            "CARTAN: Sq^1(x * x*u^2) [x*u^3 != 0]",
            "CARTAN: Sq^3(x * x*u^2) [x*u^4 != 0]",
            "CARTAN: Sq^5(x * x*u^2) [x*u^5 != 0]",
            "CARTAN: Sq^1(x*u * x*u) [x*u^3 != 0]",
            "CARTAN: Sq^3(x*u * x*u) [x*u^4 != 0]",
            "CARTAN: Sq^5(x*u * x*u) [x*u^5 != 0]",
        ],
    ),
    (
        "Sq^1 u of the wrong degree",
        ModPRingPresentation(2, [("x", 1), ("u", 2)], operations={("Sq", 1, "u"): [(1, {"x": 1})]}),
        4,
        [
            "DEGREE: Sq^1(u) must be homogeneous of degree 3, got degrees [1]",
            "BOCKSTEIN: Sq^1 Sq^1 (u) != 0 [x^2 != 0]",
            "BOCKSTEIN: Sq^1 Sq^1 (x^2*u) != 0 [x^4 != 0]",
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
        [
            "CARTAN: St^1(u * u^2) [u^2*v != 0]",
            "CARTAN: St^1(u * u^2*v) [2*u^2*v^2 != u^2*v^2]",
            "CARTAN: St^1(u*v * u^2) [2*u^2*v^2 != u^2*v^2]",
            "CARTAN: St^1(u^2 * u^2) [2*v^2 != v^2]",
            "CARTAN: St^1(u^2 * u^2*v) [0 != 2*v^3]",
        ],
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
            "BOCKSTEIN: beta beta (u) != 0 [u^2 != 0]",
            "BOCKSTEIN: beta beta (u^2) != 0 [2*u^3 != 0]",
            "BOCKSTEIN: beta beta (a) != 0 [a*u != 0]",
            "BOCKSTEIN: beta beta (a*u) != 0 [2*a*u^2 != 0]",
            "BOCKSTEIN: beta beta (a*u^3) != 0 [a*u^4 != 0]",
        ],
    ),
]


@pytest.mark.parametrize("label,pres,degree,want", PINNED, ids=[p[0] for p in PINNED])
def test_verify_axioms_pinned_violations(label, pres, degree, want):
    assert [str(v) for v in verify_axioms(pres, degree)] == want


def test_axiom_report_counts_skipped_identities():
    pres = ModPRingPresentation(2, [("x", 2), ("y", 3)])
    with pytest.raises(Undetermined):
        sq(1, pres.gen("x"))
    report = axiom_report(pres, 10)
    assert report.violations == verify_axioms(pres, 10) == []
    assert sum(report.skipped.values()) > 0
    assert report.skipped["CARTAN"] > 0
    assert sum(report.checked.values()) > 0


def test_inhomogeneous_relation_is_reported_and_its_cartan_identities_skipped():
    # x^3 = y + x mixes the degrees 3, 2 and 1
    pres = ModPRingPresentation(
        2, [("x", 1), ("y", 2)], [[(1, {"x": 3}), (1, {"y": 1}), (1, {"x": 1})]]
    )
    report = axiom_report(pres, 4)
    assert [v.kind for v in report.violations] == ["DEGREE"]
    assert "not homogeneous" in report.violations[0].detail
    assert report.skipped["CARTAN"] == 47


def test_axiom_report_clean_ring_skips_nothing():
    report = axiom_report(ModPRingPresentation(2, [("x", 1)], [[(1, {"x": 3})]]), 8)
    assert report.violations == []
    assert sum(report.skipped.values()) == 0
    # x, x^2 and the unit: 2 instability, 1 squaring, 1 Bockstein each
    assert report.checked["INSTABILITY"] == 6
    assert report.checked["SQUARING"] == 3


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
