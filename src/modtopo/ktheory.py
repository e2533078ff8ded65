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
* :func:`k_groups_via_d3` builds the cellular cochains of X from its
  cells, reads H^* through the homology core, and runs the one
  differential left on a complex of dimension <= 3: d3 = Sq^3 + H-cup,
  which sends the unit of H^0 to the twist class in H^3 and is zero from
  every other degree (its target lies above 3; Sq^3 vanishes below
  degree 3).  It shares no formula with the closed forms.

Interchanging j and k swaps the two K-groups (T-duality).  The groups are
assembled as direct sums; on these spaces both extensions split, since
the kernel inside H^0 and H^1 are free.
"""

from __future__ import annotations

from .abgroup import (
    FgAbGroup,
    FrozenValue,
    IntMatrix,
    cohomology_of_cochain_complex,
    homology_of_complex,
)
from .errors import InvalidDimension, InvalidInput, NoUnitSummand
from .graded import GradedCohomology


class CircleBundleSpec(FrozenValue):
    """Genus of the base, Chern class of the bundle, twist level k >= 0.

    j and -j give isomorphic total spaces (orientation reversal), so
    torsion coefficients use |j|; twist 0 means untwisted.
    """

    genus: int
    chern: int = 0
    twist: int = 0

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if self.twist < 0:
            raise ValueError("twist level must be nonnegative")

    def to_json(self) -> dict:
        return {"genus": self.genus, "chern": self.chern, "twist": self.twist}


class KPair(FrozenValue):
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
        h1 = FgAbGroup.free(2 * g)
        groups = (z, h1, h1.direct_sum(FgAbGroup.cyclic(j)), z)
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


# delta^1 is a dense (2g + 1)^2 matrix; this genus keeps it within 2^24 entries
MAX_D3_GENUS = 2047


def _circle_bundle_cochains(spec: CircleBundleSpec) -> list[IntMatrix]:
    """Cellular coboundaries of the total space, degrees 0 -> 1 -> 2 -> 3.

    Cells: one 0-cell; the 1-cells a_i, b_i and the fibre f (last); the
    2-cells a_i x f, b_i x f and the lifted base cell D (last), whose
    boundary is j * f; one 3-cell.  Every other boundary is zero, so
    delta^1 has the single entry j, from f to D.
    """
    n = 2 * spec.genus + 1
    delta1 = [0] * (n * n)
    delta1[-1] = spec.chern
    return [IntMatrix.zeros(n, 1), IntMatrix(n, n, tuple(delta1)), IntMatrix.zeros(1, n)]


def _twisted_k_of_dim3(coboundaries: list[IntMatrix], h: IntMatrix) -> KPair:
    """K-groups of a connected cochain complex of dimension <= 3, twisted by
    the 3-cocycle ``h`` (one column over the 3-cells).

    Here the Atiyah-Hirzebruch spectral sequence has only d3, which sends
    the unit of H^0 to [h] and is zero elsewhere (Rosenberg 1989).  So
    K^0 = ker(d3 on H^0) (+) H^2 and K^1 = H^1 (+) C^3 / (im delta^2 + <h>);
    both extensions split, as the kernel in H^0 and H^1 are free.  The
    kernel is Z when n * h lies in im delta^2 for some n != 0, that is when
    dividing H^3 by [h] leaves its rank unchanged, and 0 otherwise.
    """
    h_star = cohomology_of_cochain_complex(coboundaries)
    quotient = homology_of_complex([coboundaries[2].hstack(h)])[0]  # the cokernel
    unit = FgAbGroup.free(int(quotient.rank == h_star[3].rank))
    return KPair(unit.direct_sum(h_star[2]), h_star[1].direct_sum(quotient))


def k_groups_via_d3(spec: CircleBundleSpec) -> KPair:
    """K-groups from the cellular cochains of the total space and d3.

    The cochains are built from the cells (:func:`_circle_bundle_cochains`),
    their cohomology goes through the homology core, and the twist class is
    k times the dual of the 3-cell.  Nothing here reads the closed form of
    :func:`total_space_cohomology`, which is what makes this an independent
    check of :func:`k_groups`.  A genus above ``MAX_D3_GENUS`` is refused
    before anything is built.
    """
    if spec.genus > MAX_D3_GENUS:
        raise InvalidInput(f"the d3 path takes genus <= {MAX_D3_GENUS}; got {spec.genus}")
    twist = IntMatrix(1, 1, (spec.twist,))
    return _twisted_k_of_dim3(_circle_bundle_cochains(spec), twist)


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
    torus cycles.  An output that lists more than ``MAX_INVARIANT_FACTORS``
    torsion factors is refused (InvalidInput) before it is built.
    """
    if k < 1:
        raise InvalidDimension("torus factor dimension must be >= 1")
    red = reduced_k(base.k0)
    cell = red.direct_sum(base.k1).direct_sum(FgAbGroup.free(1))
    # 2^64 copies of any torsion pass the cap, so a huge k builds no huge count
    total = cell.repeated_sum(2 ** (min(k - 1, 64) if cell.invariant_factors else k - 1))
    return KPair(total, total)
