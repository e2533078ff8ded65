"""Built-in cross-check sweeps behind the ``self-test`` command.

Two suites: the circle-bundle sweep compares the closed-form K-groups
against the differential path and checks T-duality on a grid of
(genus, chern, twist); the Hodge sweep checks that every Hodge slice sums
to its Betti total for compact and congruence quotients.
"""

from __future__ import annotations

from itertools import product

from .abgroup import FrozenValue
from .errors import InvalidInput
from .hilbert import (
    CompactHilbertSpec,
    CuspidalHilbertSpec,
    compact_betti,
    cuspidal_betti,
    hodge_slice,
)
from .ktheory import MAX_D3_GENUS, CircleBundleSpec, k_groups, k_groups_via_d3, t_duality_check

CHERNS, TWISTS = range(-5, 6), range(6)
HALF_PLANES, CUSPS, DIMS = range(1, 5), range(1, 4), range(4)


class SweepReport(FrozenValue):
    name: str
    cases: int
    failures: tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        failed = ", ".join(map(str, self.failures))
        status = f"FAILED {len(self.failures)}: {failed}" if failed else "ok"
        return f"{self.name}: {self.cases} cases, {status}"


def k_path_sweep(max_genus: int = 4) -> SweepReport:
    if max_genus > MAX_D3_GENUS:
        raise InvalidInput(f"the d3 path takes genus <= {MAX_D3_GENUS}; the sweep reaches {max_genus}")
    failures: list[tuple] = []
    cases = 0
    for g, j, k in product(range(max_genus + 1), CHERNS, TWISTS):
        cases += 1
        spec = CircleBundleSpec(g, j, k)
        if k_groups(spec) != k_groups_via_d3(spec) or not t_duality_check(spec):
            failures.append((g, j, k))
    return SweepReport("k-groups closed-form vs d3", cases, tuple(failures))


def hodge_sum_sweep() -> SweepReport:
    failures: list[tuple] = []
    cases = 0
    for n in HALF_PLANES:
        for d in DIMS:
            spec = CompactHilbertSpec(n, d)
            for m in range(2 * n + 1):
                cases += 1
                if hodge_slice(spec, m).total() != compact_betti(spec, m):
                    failures.append(("compact", n, d, m))
        for h, d in product(CUSPS, DIMS):
            spec = CuspidalHilbertSpec.uniform(n, h, d)
            for m in range(2 * n + 1):
                cases += 1
                if hodge_slice(spec, m).total() != cuspidal_betti(spec, m).total:
                    failures.append(("cuspidal", n, h, d, m))
    return SweepReport("hilbert hodge sums vs betti", cases, tuple(failures))
