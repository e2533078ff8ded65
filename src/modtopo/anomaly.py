"""Wrapped-brane consistency checks in exact cohomological arithmetic.

Elements of a degree-3 (or any) cohomology group are coordinates over a
declared ambient :class:`FgAbGroup`: integer coordinates on the free
generators plus residues on the torsion generators.  The checks follow
the group-level statements:

* a brane wrapping X is anomaly-free when W3(X) + H|_X = 0,
* a brane on a cycle Y inside Y' is unstable when the class dual to Y
  equals W3(Y') + H|_Y',
* the level-3 differential acts as Sq^3 + (cup with H), supplied here as
  explicit linear maps because a bare class does not determine its cup
  action on a presented group,
* a 4-form flux is properly quantized when flux - p1/4 has integer
  coordinates over a chosen integral basis.

Finally, :func:`hilbert_anomaly_report` collects what the closed-form
tables say about the degree-3 cohomology of a Hilbert modular variety:
the free part vanishes for co-compact groups away from n = 3, while a
congruence quotient with n = 3 carries cuspidal classes that can be
pushed to the boundary and may enter the anomaly condition.  The tables
are rank-only, so torsion is always reported as undetermined.
"""

from __future__ import annotations

from fractions import Fraction

from .abgroup import FgAbGroup, FrozenValue, IntMatrix, as_int, json_shape
from .errors import AmbientMismatch, InvalidInput, LengthMismatch, ShapeMismatch


class CohomologyElement(FrozenValue):
    """Coordinates of a class over its ambient group.

    Free coordinates are plain integers; torsion coordinate i is stored in
    the canonical residue range [0, d_i).
    """

    ambient: FgAbGroup
    free_coords: tuple[int, ...] = ()
    torsion_coords: tuple[int, ...] = ()

    def __post_init__(self):
        free, tors = self.free_coords, self.torsion_coords
        if len(free) != self.ambient.rank:
            raise ShapeMismatch(
                f"{len(free)} free coordinates for rank {self.ambient.rank}"
            )
        if len(tors) != len(self.ambient.invariant_factors):
            raise ShapeMismatch(
                f"{len(tors)} torsion coordinates for "
                f"{len(self.ambient.invariant_factors)} factors"
            )
        tors = tuple(v % d for v, d in zip(tors, self.ambient.invariant_factors))
        object.__setattr__(self, "torsion_coords", tors)

    @classmethod
    def zero(cls, ambient: FgAbGroup) -> "CohomologyElement":
        return cls(
            ambient,
            (0,) * ambient.rank,
            (0,) * len(ambient.invariant_factors),
        )

    @property
    def coords(self) -> tuple[int, ...]:
        return self.free_coords + self.torsion_coords

    @property
    def is_zero(self) -> bool:
        return not any(self.free_coords) and not any(self.torsion_coords)

    def _same_ambient(self, other: "CohomologyElement") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch(
                f"elements live in {self.ambient} and {other.ambient}"
            )

    def __add__(self, other: "CohomologyElement") -> "CohomologyElement":
        self._same_ambient(other)
        return CohomologyElement(
            self.ambient,
            tuple(a + b for a, b in zip(self.free_coords, other.free_coords)),
            tuple(a + b for a, b in zip(self.torsion_coords, other.torsion_coords)),
        )

    def __neg__(self) -> "CohomologyElement":
        return CohomologyElement(
            self.ambient,
            tuple(-v for v in self.free_coords),
            tuple(-v for v in self.torsion_coords),
        )

    def to_json(self) -> dict:
        return {
            "free": list(self.free_coords),
            "torsion": list(self.torsion_coords),
        }

    @classmethod
    def from_json(cls, ambient: FgAbGroup, doc: dict) -> "CohomologyElement":
        json_shape(doc, dict, "a cohomology element")
        free = json_shape(doc.get("free", ()), list, "free coordinates")
        torsion = json_shape(doc.get("torsion", ()), list, "torsion coordinates")
        return cls(ambient, tuple(map(as_int, free)), tuple(map(as_int, torsion)))


class FreedWittenVerdict(FrozenValue):
    anomaly_free: bool
    obstruction: CohomologyElement

    def to_json(self) -> dict:
        return {
            "anomaly_free": self.anomaly_free,
            "obstruction": self.obstruction.to_json(),
        }


def freed_witten_check(
    w3: CohomologyElement, h: CohomologyElement
) -> FreedWittenVerdict:
    """Anomaly-free exactly when w3 + h vanishes in the ambient group."""
    obstruction = w3 + h
    return FreedWittenVerdict(obstruction.is_zero, obstruction)


class MmsVerdict(FrozenValue):
    unstable: bool

    def to_json(self) -> dict:
        return {"unstable": self.unstable}


def mms_instability_check(
    pd: CohomologyElement, w3: CohomologyElement, h: CohomologyElement
) -> MmsVerdict:
    """Unstable exactly when the dual class equals w3 + h."""
    pd._same_ambient(w3)
    return MmsVerdict((pd + (-(w3 + h))).is_zero)


def d3_action(
    x: CohomologyElement,
    degree_x: int,
    cup_by_h: IntMatrix | None = None,
    sq3: IntMatrix | None = None,
    target: FgAbGroup | None = None,
) -> CohomologyElement:
    """Apply d3 = Sq^3 + (cup with h) to coordinates of a degree-d class.

    Both maps act on the concatenated (free, torsion) coordinates and must
    be well-defined homomorphisms into ``target``: a class h does not
    determine its cup action on a presented group, the matrix does.  An
    absent map is the zero map (for the cup map, a trivial twist).  Sq^3
    vanishes below its own degree, so a nonzero ``sq3`` for degree_x < 3
    is InvalidInput, and so is a negative degree.
    """
    if degree_x < 0:
        raise InvalidInput(f"degree {degree_x} is negative")
    if degree_x < 3 and sq3 is not None and not sq3.is_zero():
        raise InvalidInput(f"Sq^3 vanishes in degree {degree_x}, but sq3 is nonzero")
    if target is None:
        if cup_by_h is not None or sq3 is not None:
            raise ShapeMismatch("maps were supplied without a target group")
        target = FgAbGroup.trivial()
    n_src = len(x.coords)
    n_tgt = target.rank + len(target.invariant_factors)
    out = [0] * n_tgt
    for name, mat in (("cup_by_h", cup_by_h), ("sq3", sq3)):
        if mat is None:
            continue
        if mat.rows != n_tgt or mat.cols != n_src:
            raise ShapeMismatch(
                f"{name} is {mat.rows}x{mat.cols}, need {n_tgt}x{n_src}"
            )
        img = mat.apply(list(x.coords))
        out = [a + b for a, b in zip(out, img)]
    return CohomologyElement(
        target, tuple(out[: target.rank]), tuple(out[target.rank :])
    )


class RationalClass(FrozenValue):
    """Rational coordinates over a chosen integral basis of H^4."""

    coords: tuple[int | Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(map(Fraction, self.coords)))

    @classmethod
    def from_strings(cls, items) -> "RationalClass":
        """Coordinates read from JSON: strings such as "1/2", or integers."""
        json_shape(items, list, "rational coordinates")
        if not all(type(s) in (str, int) for s in items):
            raise ValueError(f"expected rational strings or integers, got {items!r}")
        try:
            return cls(tuple(Fraction(s) for s in items))
        except ZeroDivisionError:
            raise InvalidInput(f"zero denominator in {items!r}") from None

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coords]


class FluxVerdict(FrozenValue):
    quantized: bool
    defect: RationalClass

    def to_json(self) -> dict:
        return {"quantized": self.quantized, "defect": self.defect.to_json()}


def flux_quantization_check(
    g4_over_2pi3: RationalClass, p1: list[int]
) -> FluxVerdict:
    """Quantized when every coordinate of flux - p1/4 is an integer.

    Integrality is tested coordinatewise over the caller's basis of the
    integral lattice; torsion in H^4 is outside the scope of the test.
    """
    if len(g4_over_2pi3.coords) != len(p1):
        raise LengthMismatch(
            f"{len(g4_over_2pi3.coords)} flux coordinates vs {len(p1)} for p1"
        )
    defect = RationalClass(
        tuple(c - Fraction(v, 4) for c, v in zip(g4_over_2pi3.coords, p1))
    )
    return FluxVerdict(all(c.denominator == 1 for c in defect.coords), defect)


class HilbertAnomalyReport(FrozenValue):
    """Degree-3 summary for a Hilbert modular variety.

    ``cusp_h3_dims`` maps (p, q) with p + q = 3 to the cuspidal Hodge
    numbers when the cuspidal part lives in degree 3 (n = 3), else None.
    """

    free_h3_rank: int
    cusp_h3_dims: dict[tuple[int, int], int] | None
    verdict: str

    def to_json(self) -> dict:
        doc: dict = {"free_h3_rank": self.free_h3_rank, "verdict": self.verdict}
        if self.cusp_h3_dims is not None:
            doc["cusp_h3_dims"] = [
                {"p": p, "q": q, "value": v}
                for (p, q), v in sorted(self.cusp_h3_dims.items())
            ]
        return doc


_TORSION_NOTE = "torsion in H^3 is undetermined by the rank-only tables"


def hilbert_anomaly_report(spec: HilbertSpec) -> HilbertAnomalyReport:
    """What the closed forms say about the restriction class in degree 3."""
    from .hilbert import CompactHilbertSpec, betti_total, hodge_slice

    n = spec.n
    rank = betti_total(spec, 3) if 2 * n >= 3 else 0
    if isinstance(spec, CompactHilbertSpec):
        if rank == 0:
            verdict = f"free part of [H]|_X trivial; {_TORSION_NOTE}"
        else:
            verdict = (
                f"free part of H^3 has rank {rank} (middle degree of n=3); "
                f"{_TORSION_NOTE}"
            )
        return HilbertAnomalyReport(rank, None, verdict)

    if n == 3:
        cusp = {
            (p, q): v
            for (p, q, part), v in hodge_slice(spec, 3).entries.items()
            if part == "cusp"
        }
        verdict = (
            "cuspidal contribution may enter the global anomaly condition; "
            f"{_TORSION_NOTE}"
        )
        return HilbertAnomalyReport(rank, cusp, verdict)
    verdict = (
        f"cuspidal part lives only in degree n = {n}, not 3; {_TORSION_NOTE}"
    )
    return HilbertAnomalyReport(rank, None, verdict)
