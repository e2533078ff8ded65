"""Degree-indexed cohomology with Kunneth products and coefficient changes.

A :class:`GradedCohomology` is a finite family of finitely generated
abelian groups indexed by degree; degrees above ``top_degree`` are
implicitly trivial rather than errors, because products and differentials
naturally probe out-of-range degrees.

Coefficient systems are described by :class:`CoefficientSpec`.  Rational
coefficients are handled as rank-only groups (the free part survives,
torsion is annihilated); field coefficients Z/p are the torsion groups
(Z/p)^k, so one value type covers every coefficient system.
"""

from __future__ import annotations

from .abgroup import FgAbGroup, FrozenValue, IntMatrix, as_int, check_listed, is_prime, json_list, json_record


class GradedCohomology(FrozenValue):
    """Groups indexed by degree 0..top_degree, plus a free-form label."""

    groups: tuple[FgAbGroup, ...]
    label: str = ""

    def __post_init__(self):
        if not self.groups:
            raise ValueError("a graded value needs at least degree 0")

    @property
    def top_degree(self) -> int:
        return len(self.groups) - 1

    def group_at(self, degree: int) -> FgAbGroup:
        """Trivial outside 0..top_degree by convention."""
        if 0 <= degree <= self.top_degree:
            return self.groups[degree]
        return FgAbGroup.trivial()

    def to_json(self) -> dict:
        doc = {
            "top_degree": self.top_degree,
            "groups": [g.to_json() for g in self.groups],
        }
        if self.label:
            doc["label"] = self.label
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "GradedCohomology":
        groups = json_list(FgAbGroup.from_json, "graded groups")
        top, groups, label = json_record(doc, "a graded value", top_degree=as_int, groups=groups, label=(None, ""))
        if top != len(groups) - 1:
            raise ValueError("top_degree does not match the group list")
        if type(label) is not str:
            raise ValueError(f"a graded value's label must be a string, not {label!r}")
        return cls(groups, label)

    def __str__(self) -> str:
        head = f"{self.label}: " if self.label else ""
        return head + ", ".join(
            f"H^{m} = {g}" for m, g in enumerate(self.groups)
        )


class BettiTable(FrozenValue):
    """Ranks by degree (torsion ignored)."""

    values: tuple[int, ...]

    def to_json(self) -> list[int]:
        return list(self.values)


class CoefficientSpec(FrozenValue):
    """One of integer, mod-p (p prime), or rational coefficients."""

    kind: str
    p: int | None = None

    _KINDS = ("integers", "mod_p", "rationals")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "mod_p":
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"mod_p coefficients need a prime, got {self.p!r}")
        elif self.p is not None:
            raise ValueError(f"{self.kind} coefficients take no modulus")

    @classmethod
    def integers(cls) -> "CoefficientSpec":
        return cls("integers")

    @classmethod
    def mod_p(cls, p: int) -> "CoefficientSpec":
        return cls("mod_p", p)

    @classmethod
    def rationals(cls) -> "CoefficientSpec":
        return cls("rationals")

    def as_group(self) -> FgAbGroup:
        if self.kind == "integers":
            return FgAbGroup.free(1)
        if self.kind == "mod_p":
            return FgAbGroup.cyclic(self.p)
        raise ValueError("rational coefficients have no finitely generated model")


def kunneth_product(x: GradedCohomology, y: GradedCohomology) -> GradedCohomology:
    """Graded groups of a product space from the groups of its factors.

    Degree k collects the tensor terms over p + q = k together with the
    torsion correction Tor(H^p, H^q) over p + q = k - 1 (one degree below
    its sources, where the tensor-product complex places it).  On
    torsion-free values the Tor terms vanish and the Betti numbers are the
    convolution b^k = sum_(p+q=k) b^p b^q; the Euler characteristic is
    multiplicative even with torsion because the Tor terms cancel in the
    alternating sum.

    Each pair (p, q) gives a tensor part in degree p + q and a Tor part in
    degree p + q + 1, so the torsion all parts list, counted from the
    factors' summed ranks and torsion lengths, bounds what any one degree
    lists; past MAX_INVARIANT_FACTORS it raises InvalidInput before any
    part is built.
    """
    rx, ry = (sum(g.rank for g in h.groups) for h in (x, y))
    tx, ty = (sum(len(g.invariant_factors) for g in h.groups) for h in (x, y))
    check_listed("the Kunneth product", ("tensor", "tor"), rx, tx, ry, ty)
    parts: list[list[FgAbGroup]] = [[] for _ in range(x.top_degree + y.top_degree + 2)]
    for p, a in enumerate(x.groups):
        for q, b in enumerate(y.groups):
            parts[p + q].append(a.tensor(b))
            parts[p + q + 1].append(a.tor(b))
    tors = ([d for g in gs for d in g.invariant_factors] for gs in parts)
    out = [FgAbGroup._canonical(sum(g.rank for g in gs), t) for gs, t in zip(parts, tors)]
    if out[-1].is_trivial:
        out.pop()
    label = ""
    if x.label and y.label:
        label = f"{x.label} x {y.label}"
    return GradedCohomology(tuple(out), label)


def betti(x: GradedCohomology) -> BettiTable:
    """Ranks of the graded groups; torsion does not contribute."""
    return BettiTable(tuple(g.rank for g in x.groups))


def euler_characteristic(x: GradedCohomology) -> int:
    """Alternating sum of the Betti numbers."""
    return sum((-1) ** m * g.rank for m, g in enumerate(x.groups))


def _change_coefficients(h_integral, coefficients, first, second) -> list[FgAbGroup]:
    """first(H_m, G)  (+)  second(H_(m-1), G) for m = 0..len(h_integral)."""
    h = list(h_integral)
    if coefficients.kind == "rationals":
        return [FgAbGroup.free(g.rank) for g in h] + [FgAbGroup.trivial()]
    g = coefficients.as_group()
    zero = FgAbGroup.trivial()
    return [first(a, g).direct_sum(second(b, g)) for a, b in zip(h + [zero], [zero] + h)]


def homology_with_coefficients(
    h_integral: list[FgAbGroup], coefficients: CoefficientSpec
) -> list[FgAbGroup]:
    """Change of coefficients on homology: H_m (x) G  (+)  Tor(H_(m-1), G).

    The output has one more degree than the input because the Tor term can
    reach one degree above the top.  With rational coefficients only the
    ranks survive (returned as free groups).
    """
    return _change_coefficients(h_integral, coefficients, FgAbGroup.tensor, FgAbGroup.tor)


def cohomology_with_coefficients(
    h_integral: list[FgAbGroup], coefficients: CoefficientSpec
) -> list[FgAbGroup]:
    """Cohomology from homology: Hom(H_m, G)  (+)  Ext(H_(m-1), G).

    Same length convention as :func:`homology_with_coefficients`; with
    rational coefficients the degree-m rank equals the rank of H_m, which
    is the fact that lets rank arguments conclude vanishing of free parts.
    """
    return _change_coefficients(h_integral, coefficients, FgAbGroup.hom, FgAbGroup.ext)


def tensor_product_complex(
    boundaries_x: list[IntMatrix], boundaries_y: list[IntMatrix]
) -> list[IntMatrix]:
    """Boundary maps of the tensor product of two chain complexes.

    Basis of degree n is e^p_i (x) f^q_j over p + q = n, ordered by
    (p, i, j); the boundary is d(x (x) y) = dx (x) y + (-1)^p x (x) dy.
    This is the brute-force cross-check partner of
    :func:`kunneth_product`: homology of the tensor complex must agree
    with the product of the homologies.
    """
    if not boundaries_x or not boundaries_y:
        raise ValueError("both complexes need at least one boundary matrix")
    dx = [boundaries_x[0].rows] + [b.cols for b in boundaries_x]
    dy = [boundaries_y[0].rows] + [b.cols for b in boundaries_y]
    top_x, top_y = len(dx) - 1, len(dy) - 1

    def basis(n: int) -> list[tuple[int, int, int]]:
        out = []
        for p in range(max(0, n - top_y), min(n, top_x) + 1):
            q = n - p
            out += [(p, i, j) for i in range(dx[p]) for j in range(dy[q])]
        return out

    def columns(b: IntMatrix) -> list[list[tuple[int, int]]]:
        """The (row, value) nonzeros of each column of ``b``."""
        return [[(r, v) for r, v in enumerate(b.column(j)) if v] for j in range(b.cols)]

    cols_x = [columns(b) for b in boundaries_x]
    cols_y = [columns(b) for b in boundaries_y]
    boundaries: list[IntMatrix] = []
    for n in range(1, top_x + top_y + 1):
        src = basis(n)
        tgt = basis(n - 1)
        index = {key: pos for pos, key in enumerate(tgt)}
        width = len(src)
        entries = [0] * (len(tgt) * width)
        for col, (p, i, j) in enumerate(src):
            q = n - p
            if p >= 1:
                for r, v in cols_x[p - 1][i]:
                    entries[index[(p - 1, r, j)] * width + col] += v
            if q >= 1:
                sign = -1 if p % 2 else 1
                for s, v in cols_y[q - 1][j]:
                    entries[index[(p, i, s)] * width + col] += sign * v
        boundaries.append(IntMatrix(len(tgt), width, tuple(entries)))
    return boundaries
