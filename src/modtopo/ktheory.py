"""K-groups of circle bundles over surfaces and of torus products.

A circle bundle over a genus-g surface is classified by an integer Chern
class j; its total space X has

    H^0 = Z,  H^1 = Z^(2g+1), H^2 = Z^(2g+1), H^3 = Z        (j = 0)
    H^0 = Z,  H^1 = Z^(2g),   H^2 = Z^(2g) + Z/|j|, H^3 = Z  (j != 0).

The complex K-groups, untwisted and twisted by a degree-3 class of level
k, are computed along two independent routes:

* :func:`k_groups` evaluates the closed forms: untwisted K^0/K^1 are the
  even/odd cohomology sums, twisted K^0 is H^2 and twisted K^1 is
  H^1 (+) H^3/kH^3.
* :func:`k_groups_via_d3` runs the degree-3 differential d3 = Sq^3 + H-cup
  on a presentation of H^even and H^odd and takes kernel mod image with
  exact lattice arithmetic.  On these 3-manifolds the cup product with the
  twist class is multiplication by k from H^0 into H^3 and zero elsewhere
  (degree reasons), and Sq^3 acts as zero: it vanishes below degree 3 and
  only ever hits 2-torsion, of which the relevant targets have none.

Interchanging j and k swaps the two K-groups (T-duality); associated
graded groups are assembled as direct sums, which matches the closed
forms but is an assumption in general (extension problems are not
solved here).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .abgroup import (
    FgAbGroup,
    IntMatrix,
    as_int,
    integer_kernel_basis,
    lattice_quotient,
    require_ints,
)
from .errors import InvalidDimension, NoUnitSummand
from .graded import GradedCohomology


@dataclass(frozen=True)
class CircleBundleSpec:
    """Genus of the base, Chern class of the bundle, twist level k >= 0.

    j and -j give isomorphic total spaces (orientation reversal), so
    torsion coefficients use |j|; twist 0 means untwisted.
    """

    genus: int
    chern: int = 0
    twist: int = 0

    def __post_init__(self):
        require_ints("genus, chern and twist", self.genus, self.chern, self.twist)
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if self.twist < 0:
            raise ValueError("twist level must be nonnegative")

    def to_json(self) -> dict:
        return {"genus": self.genus, "chern": self.chern, "twist": self.twist}

    @classmethod
    def from_json(cls, doc: dict) -> "CircleBundleSpec":
        return cls(as_int(doc["genus"]), as_int(doc.get("chern", 0)), as_int(doc.get("twist", 0)))


@dataclass(frozen=True)
class KPair:
    """Even/odd K-groups in canonical form."""

    k0: FgAbGroup
    k1: FgAbGroup

    def is_isomorphic(self, other: "KPair") -> bool:
        return self == other

    def to_json(self) -> dict:
        return {"K0": self.k0.to_json(), "K1": self.k1.to_json()}

    @classmethod
    def from_json(cls, doc: dict) -> "KPair":
        return cls(FgAbGroup.from_json(doc["K0"]), FgAbGroup.from_json(doc["K1"]))

    def __str__(self) -> str:
        return f"K^0 = {self.k0},  K^1 = {self.k1}"


def total_space_cohomology(spec: CircleBundleSpec) -> GradedCohomology:
    """Integral cohomology of the circle-bundle total space (degrees 0..3)."""
    g, j = spec.genus, abs(spec.chern)
    z = FgAbGroup.free(1)
    if j == 0:
        mid = FgAbGroup.free(2 * g + 1)
        groups = (z, mid, mid, z)
    else:
        groups = (
            z,
            FgAbGroup.free(2 * g),
            FgAbGroup.from_divisors(*([0] * (2 * g)), j),
            z,
        )
    return GradedCohomology(groups, f"circle bundle g={g} j={spec.chern}")


def k_groups(spec: CircleBundleSpec) -> KPair:
    """Closed-form K-groups, selected by (twist = 0 or not) x (j = 0 or not).

    Untwisted: K^0 = H^0 (+) H^2 and K^1 = H^1 (+) H^3.  Twisted by level
    k > 0: K^0 = H^2 and K^1 = H^1 (+) H^3/kH^3.
    """
    h = total_space_cohomology(spec)
    if spec.twist == 0:
        return KPair(
            h.group_at(0).direct_sum(h.group_at(2)),
            h.group_at(1).direct_sum(h.group_at(3)),
        )
    return KPair(
        h.group_at(2),
        h.group_at(1).direct_sum(FgAbGroup.cyclic(spec.twist)),
    )


def _even_odd_presentations(spec: CircleBundleSpec):
    """Generator counts, relation matrices and the cup-with-twist maps.

    H^even = H^0 (+) H^2 and H^odd = H^1 (+) H^3 are presented on free
    generators with one relation |j| * t when the bundle is nontrivial.
    The differential carries the H^0 generator onto k times the H^3
    generator and kills everything else.
    """
    g, j, k = spec.genus, abs(spec.chern), spec.twist
    h2_free = 2 * g + 1 if j == 0 else 2 * g
    ge = 1 + h2_free + (1 if j != 0 else 0)  # x0, H^2 free gens, torsion gen
    rel_e = (
        IntMatrix.from_rows([[j] if i == ge - 1 else [0] for i in range(ge)], cols=1)
        if j != 0
        else IntMatrix.zeros(ge, 0)
    )
    h1_free = 2 * g + 1 if j == 0 else 2 * g
    go = h1_free + 1  # H^1 free gens, then the H^3 generator
    rel_o = IntMatrix.zeros(go, 0)
    d_eo = IntMatrix.from_rows(
        [[k if (r == go - 1 and c == 0) else 0 for c in range(ge)] for r in range(go)],
        cols=ge,
    )
    d_oe = IntMatrix.zeros(ge, go)
    return rel_e, rel_o, d_eo, d_oe


def _subquotient(
    d_fwd: IntMatrix, rel_tgt: IntMatrix, d_back: IntMatrix, rel_src: IntMatrix
) -> FgAbGroup:
    """ker(d_fwd mod rel_tgt) / (im d_back + rel_src), by lattice algebra."""
    lifted = integer_kernel_basis(d_fwd.hstack(rel_tgt))
    span_rows = [list(lifted.row(i)) for i in range(d_fwd.cols)]
    span = IntMatrix.from_rows(span_rows, cols=lifted.cols)
    # zero columns generate nothing, so only the others are solved for
    both = d_back.hstack(rel_src)
    sub_cols = [col for col in map(both.column, range(both.cols)) if any(col)]
    sub = IntMatrix(len(sub_cols), both.rows, tuple(chain.from_iterable(sub_cols)))
    return lattice_quotient(span, sub.transpose())


def k_groups_via_d3(spec: CircleBundleSpec) -> KPair:
    """K-groups from the degree-3 differential, computed by kernel/image.

    K^0 = Ker(d: H^even -> H^odd) / d(H^odd) and symmetrically for K^1,
    with d the cup product by the twist class (multiplication by k from
    H^0 to H^3) and a vanishing Sq^3 contribution.  The twist-0 case is
    the zero differential and reproduces the untwisted sums; no case split
    on k or j happens here, which is what makes this an independent check
    of :func:`k_groups`.
    """
    rel_e, rel_o, d_eo, d_oe = _even_odd_presentations(spec)
    k0 = _subquotient(d_eo, rel_o, d_oe, rel_e)
    k1 = _subquotient(d_oe, rel_e, d_eo, rel_o)
    return KPair(k0, k1)


def t_duality_check(spec: CircleBundleSpec) -> bool:
    """True when swapping Chern class and twist interchanges K^0 and K^1."""
    mirror = CircleBundleSpec(spec.genus, spec.twist, abs(spec.chern))
    ours = k_groups(spec)
    theirs = k_groups(mirror)
    return ours.k0.is_isomorphic(theirs.k1) and ours.k1.is_isomorphic(theirs.k0)


def surface_k_groups(genus: int) -> KPair:
    """K-theory of the bare surface: K^0 = H^0 (+) H^2, K^1 = H^1."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    return KPair(FgAbGroup.free(2), FgAbGroup.free(2 * genus))


def torus_k_groups(k: int) -> KPair:
    """Both K-groups of the k-torus are Z^(2^(k-1)) for k >= 1."""
    if k < 1:
        raise InvalidDimension(
            "torus dimension must be >= 1; a point has K^0 = Z, K^1 = 0"
        )
    return KPair(FgAbGroup.free(2 ** (k - 1)), FgAbGroup.free(2 ** (k - 1)))


def reduced_k(group: FgAbGroup) -> FgAbGroup:
    """Split off the distinguished unit copy of Z: K = Z (+) reduced K."""
    if group.rank < 1:
        raise NoUnitSummand("rank 0 group has no unit Z summand to reduce by")
    return FgAbGroup(group.rank - 1, group.invariant_factors)


def product_with_torus(base: KPair, k: int) -> KPair:
    """K-groups of (base space) x T^k from the base K-groups.

    Both outputs are (reduced K^0 (+) K^1 (+) Z) repeated 2^(k-1) times, so
    crossing with a torus always lands the two K-groups in the same
    isomorphism class; the multiplicity 2^(k-1) counts the ways branes wrap
    torus cycles.
    """
    if k < 1:
        raise InvalidDimension("torus factor dimension must be >= 1")
    red = reduced_k(base.k0)
    cell = red.direct_sum(base.k1).direct_sum(FgAbGroup.free(1))
    total = cell.repeated_sum(2 ** (k - 1))
    return KPair(total, total)
