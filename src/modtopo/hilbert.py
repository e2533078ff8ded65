"""Closed-form Betti numbers and Hodge data of Hilbert modular varieties.

Two kinds of quotient are covered.  For a co-compact group acting on a
product of n upper half-planes the Betti numbers are

    b^m = C(n, m/2)                      for even m != n,
    b^m = 0                              for odd m != n,
    b^n = 2^n * dim_weight2 + U(n),      U(n) = C(n, n/2) for even n else 0,

where dim_weight2 is the dimension of the weight-(2,...,2) form space (a
user input; no dimension formula is computed here).  For a congruence
subgroup with h cusps the graded pieces split into universal, Eisenstein
and cuspidal parts; the cuspidal part lives only in middle degree n, where
a subset b of {1..n} has bidegree (n - #b, #b) and enters only by #b.

Every C(a, b) is the binomial coefficient, zero outside 0 <= b <= a; that
is the only reading under which the closed forms are nonnegative integers
with Poincare symmetry.

Boundary quirks of the congruence tables are reproduced literally and
flagged rather than hidden: degrees 0 and 2n are forced to zero even
though the universal term alone would contribute 1 (flag
BOUNDARY_DEGREE_ZEROED), and the Eisenstein value in middle degree m = n
is included so that Hodge sums match the Betti totals, with flag
EIS_INCLUDED_AT_MIDDLE_DEGREE marking that the Hodge table's strict
degree range would omit it.
"""

from __future__ import annotations

from math import comb

from .abgroup import FgAbGroup, FrozenValue, as_int, json_record, json_shape, require_ints
from .errors import DegreeOutOfRange, InvalidInput

BOUNDARY_DEGREE_ZEROED = "BOUNDARY_DEGREE_ZEROED"
EIS_INCLUDED_AT_MIDDLE_DEGREE = "EIS_INCLUDED_AT_MIDDLE_DEGREE"


def _binom(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


class CompactHilbertSpec(FrozenValue):
    """Co-compact quotient of n upper half-planes.

    dim_weight2 is dim of the weight-(2,...,2) modular form space.
    """

    n: int
    dim_weight2: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one half-plane factor")
        if self.dim_weight2 < 0:
            raise ValueError("form space dimension must be nonnegative")

    def dims_by_cardinality(self, size: int) -> int:
        """The form mass of the subsets of cardinality ``size``: every one
        of the C(n, size) subsets carries dim_weight2."""
        return _binom(self.n, size) * self.dim_weight2

    def to_json(self) -> dict:
        return {"n": self.n, "compact": True, "dim_weight2": self.dim_weight2}


MAX_CUSP_TABLE_N = 20


def _subsets(n: int) -> range:
    """The bitmasks of the subsets of {1..n}.  A cusp table has one entry
    per subset, so n is capped before any table is read or printed."""
    if n > MAX_CUSP_TABLE_N:
        raise InvalidInput(f"cusp tables cover 2^n subsets; n = {n} exceeds {MAX_CUSP_TABLE_N}")
    return range(2**n)


class CuspidalHilbertSpec(FrozenValue):
    """Congruence quotient with cusps.

    ``num_cusps`` is the cusp number h; ``cusp_dims`` gives each subset b of
    {1..n} the dimension of its weight-(2,...,2) cusp form space: one int
    shared by all 2^n subsets, or a table keyed by bitmask 0..2^n-1, which
    compares unequal to the shared int it repeats.  The formulas read only
    the sums by cardinality #b, C(n, #b) times a shared int or a table's.
    """

    n: int
    num_cusps: int
    cusp_dims: int | dict[int, int]

    def __post_init__(self):
        shared = type(self.cusp_dims) is int
        dims = {0: self.cusp_dims} if shared else dict(self.cusp_dims)
        require_ints("cusp dimensions", *dims)  # FrozenValue checked the values
        if self.n < 1:
            raise ValueError("need at least one half-plane factor")
        if self.num_cusps < 1:
            raise ValueError("a congruence quotient has at least one cusp")
        if any(v < 0 for v in dims.values()):
            raise ValueError("cusp form dimensions must be nonnegative")
        if not shared:  # the size cap comes before any list sized by n
            if len(dims) != len(subsets := _subsets(self.n)) or any(b not in subsets for b in dims):
                raise ValueError(f"cusp_dims must cover all {2**self.n} subsets of {{1..{self.n}}}")
            by_size = [0] * (self.n + 1)
            for b, v in dims.items():
                by_size[b.bit_count()] += v
            object.__setattr__(self, "cusp_dims", dims)
            object.__setattr__(self, "_by_size", tuple(by_size))

    @classmethod
    def uniform(cls, n: int, num_cusps: int, dim: int) -> "CuspidalHilbertSpec":
        return cls(n, num_cusps, dim)

    def dims_by_cardinality(self, size: int) -> int:
        if type(self.cusp_dims) is int:
            return _binom(self.n, size) * self.cusp_dims
        return self._by_size[size] if 0 <= size <= self.n else 0

    def total_cusp_dim(self) -> int:
        return 2**self.n * self.cusp_dims if type(self.cusp_dims) is int else sum(self._by_size)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "compact": False,
            "h": self.num_cusps,
            "cusp_dims": {str(b): d if type(d := self.cusp_dims) is int else d[b] for b in _subsets(self.n)},
        }


HilbertSpec = CompactHilbertSpec | CuspidalHilbertSpec


def cusp_dims_from_json(doc: dict) -> dict[int, int]:
    """A {bitmask-string: dimension} object, keyed by canonical decimals."""
    return {as_int(k): as_int(v) for k, v in json_shape(doc, dict, "cusp dimensions").items()}


def spec_from_json(doc: dict) -> HilbertSpec:
    """A congruence spec if the document gives the cusp count "h", else a
    co-compact one, each read with its own keys; "compact" must agree."""
    cusped = "h" in json_shape(doc, dict, "a Hilbert spec")
    what = f"a Hilbert spec with{'' if cusped else ' no'} 'h'"

    def compact(v):
        if json_shape(v, bool, "compact") is cusped:
            raise ValueError(f"{what} is {'not ' if cusped else ''}compact")

    kind = {"h": as_int, "cusp_dims": cusp_dims_from_json} if cusped else {"dim_weight2": (as_int, 0)}
    n, _, *rest = json_record(doc, what, n=as_int, compact=(compact, None), **kind)
    return CuspidalHilbertSpec(n, *rest) if cusped else CompactHilbertSpec(n, *rest)


def _check_degree(spec: HilbertSpec, m: int) -> None:
    if not 0 <= m <= 2 * spec.n:
        raise DegreeOutOfRange(f"degree {m} outside 0..{2 * spec.n}")


# ---------------------------------------------------------------------------
# Betti numbers


def compact_betti(spec: CompactHilbertSpec, m: int) -> int:
    _check_degree(spec, m)
    univ = _binom(spec.n, m // 2) if m % 2 == 0 else 0
    return univ + (2**spec.n * spec.dim_weight2 if m == spec.n else 0)


def compact_implied_volume(spec: CompactHilbertSpec) -> Fraction:
    """chi / (-2)^n; no normalization of the volume is claimed beyond this."""
    from fractions import Fraction

    chi = sum((-1) ** m * compact_betti(spec, m) for m in range(2 * spec.n + 1))
    return Fraction(chi, (-2) ** spec.n)


class CuspidalBetti(FrozenValue):
    """Degree-m Betti contribution split into its three parts.

    ``total`` applies the table's boundary rule b^0 = b^(2n) = 0; when the
    rule suppressed a nonzero sum, ``boundary_overridden`` is set.
    """

    univ: int
    eis: int
    cusp: int
    total: int
    boundary_overridden: bool = False


def _eis_betti(n: int, h: int, m: int) -> int:
    if m == 2 * n - 1:
        return h - 1
    if n <= m < 2 * n - 1:
        return h * _binom(n - 1, m - n)
    return 0


def cuspidal_betti(spec: CuspidalHilbertSpec, m: int) -> CuspidalBetti:
    _check_degree(spec, m)
    n = spec.n
    univ = _binom(n, m // 2) if m % 2 == 0 else 0
    eis = _eis_betti(n, spec.num_cusps, m)
    cusp = spec.total_cusp_dim() if m == n else 0
    raw = univ + eis + cusp
    if m in (0, 2 * n):
        return CuspidalBetti(univ, eis, cusp, 0, boundary_overridden=raw != 0)
    return CuspidalBetti(univ, eis, cusp, raw)


def betti_total(spec: HilbertSpec, m: int) -> int:
    if isinstance(spec, CompactHilbertSpec):
        return compact_betti(spec, m)
    return cuspidal_betti(spec, m).total


# ---------------------------------------------------------------------------
# Hodge decomposition


class HodgeSlice(FrozenValue):
    """Hodge numbers of one degree, keyed by (p, q, part).

    Parts are "univ", "eis", "cusp"; only nonzero entries are stored.
    ``flags`` surfaces the table quirks documented in the module docstring.
    """

    m: int
    entries: dict[tuple[int, int, str], int]
    flags: tuple[str, ...] = ()

    def total(self) -> int:
        return sum(self.entries.values())

    def to_json(self) -> dict:
        items = [
            {"p": p, "q": q, "part": part, "value": v}
            for (p, q, part), v in sorted(self.entries.items())
        ]
        doc = {"m": self.m, "entries": items}
        if self.flags:
            doc["flags"] = sorted(self.flags)
        return doc


def hodge_slice(spec: HilbertSpec, m: int) -> HodgeSlice:
    """Hodge decomposition of degree m.

    The universal part sits at (m/2, m/2), the Eisenstein part at (n, n),
    and the cuspidal part along p + q = n with h^(p,q) summing the form
    dimensions over subsets of cardinality q.  For a co-compact quotient
    the middle-degree form mass 2^n * dim_weight2 is distributed the same
    way with the constant dimension for every subset (and there is no
    Eisenstein part).  Entries always sum to the degree-m Betti total,
    boundary rules included.
    """
    _check_degree(spec, m)
    n = spec.n
    entries: dict[tuple[int, int, str], int] = {}
    flags: list[str] = []

    if m % 2 == 0:
        u = _binom(n, m // 2)
        if u:
            entries[(m // 2, m // 2, "univ")] = u

    if m == n:
        for q in range(n + 1):
            v = spec.dims_by_cardinality(q)
            if v:
                entries[(n - q, q, "cusp")] = v
    if isinstance(spec, CompactHilbertSpec):
        return HodgeSlice(m, entries)

    eis = _eis_betti(n, spec.num_cusps, m)
    if eis:
        entries[(n, n, "eis")] = eis
        if m == n:
            flags.append(EIS_INCLUDED_AT_MIDDLE_DEGREE)
    if m in (0, 2 * n):
        if entries:
            flags.append(BOUNDARY_DEGREE_ZEROED)
        entries = {}
    return HodgeSlice(m, entries, tuple(flags))


class FiltrationDims(FrozenValue):
    """Dimensions of one step of the decreasing Hodge filtration."""

    univ_dim: int
    cusp_dim: int


def hodge_filtration_dims(spec: HilbertSpec, m: int, p: int) -> FiltrationDims:
    """Dimension of F^p on the square-integrable part of degree m.

    The universal piece survives in full for p <= m/2 and dies above; the
    cuspidal piece (middle degree only) keeps the subsets b with
    n - #b >= p.  Step 0 is everything and the dims decrease in p.
    """
    _check_degree(spec, m)
    n = spec.n
    univ_total = _binom(n, m // 2) if m % 2 == 0 else 0
    univ = univ_total if 2 * p <= m else 0
    cusp = 0
    if m == n:
        cusp = sum(spec.dims_by_cardinality(n - pp) for pp in range(max(p, 0), n + 1))
    return FiltrationDims(univ, cusp)


def variety_cohomology(spec: HilbertSpec) -> GradedCohomology:
    """Rank-only graded value over degrees 0..2n.

    The closed forms determine complex dimensions only, so torsion is
    reported as absent.
    """
    from .graded import GradedCohomology

    if isinstance(spec, CompactHilbertSpec):
        label = f"compact Hilbert variety n={spec.n}"
    else:
        label = f"cuspidal Hilbert variety n={spec.n} h={spec.num_cusps}"
    ranks = [betti_total(spec, m) for m in range(2 * spec.n + 1)]
    return GradedCohomology(tuple(FgAbGroup.free(r) for r in ranks), label)
