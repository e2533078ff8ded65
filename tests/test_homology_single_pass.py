"""homology_of_complex, one elimination pass along the complex, against the
two-pass reference in ``helpers.reference_homology``.

The pass replays each boundary's column operations onto the next boundary
and reads d o d = 0 off the rows at the previous pivots, so its exceptions
must come in the reference's order with the reference's messages: shapes
that do not compose, random matrices that are not complexes, and complexes
with one entry perturbed, besides true complexes with torsion.  A complex
with its cells renumbered must cost about what the ordered one costs.
"""

import random
import time

from hypothesis import given, settings
from hypothesis import strategies as hs

from helpers import random_alternating_complex, random_composable_complex, reference_homology
from modtopo.abgroup import (
    IntMatrix,
    cohomology_of_cochain_complex,
    dual_complex,
    homology_of_complex,
)
from modtopo.graded import tensor_product_complex

CIRCLE = [IntMatrix.from_rows([[-1, 1], [1, -1]])]
RP2 = [IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[2]])]


def outcome(compute, boundaries):
    """The groups, or the exception's type and message."""
    try:
        return compute(boundaries)
    except Exception as exc:  # noqa: BLE001 - the comparison is the test
        return type(exc), str(exc)


@hs.composite
def chains(draw):
    kind = draw(hs.sampled_from(("alternating", "composable", "tensor", "perturbed", "random")))
    rng = random.Random(draw(hs.integers(0, 2**32 - 1)))
    if kind == "alternating":
        return random_alternating_complex(rng, degrees=rng.randint(2, 5), max_cells=5)
    if kind == "composable":
        return random_composable_complex(rng, degrees=rng.randint(2, 5), max_cells=5)
    if kind == "tensor":
        base = random_composable_complex(rng, degrees=rng.randint(2, 4), max_cells=4, lo=-2, hi=2)
        return tensor_product_complex(base, rng.choice([CIRCLE, RP2]))
    if kind == "perturbed":
        boundaries = random_composable_complex(rng, degrees=rng.randint(3, 5), max_cells=5)
        m = rng.randrange(len(boundaries))
        b = boundaries[m]
        if b.rows * b.cols:
            entries = list(b.entries)
            entries[rng.randrange(len(entries))] += rng.choice((-2, -1, 1, 2))
            boundaries[m] = IntMatrix(b.rows, b.cols, tuple(entries))
        return boundaries
    dims = [rng.randint(0, 4) for _ in range(rng.randint(2, 5))]
    boundaries = []
    for m in range(len(dims) - 1):
        rows = dims[m] if rng.random() < 0.85 else rng.randint(0, 4)  # sometimes not composable
        density = rng.random()
        entries = [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(rows * dims[m + 1])]
        boundaries.append(IntMatrix(rows, dims[m + 1], tuple(entries)))
    return boundaries


@settings(max_examples=300, deadline=None)
@given(chains())
def test_homology_and_cohomology_equal_the_two_pass_reference(boundaries):
    assert outcome(homology_of_complex, boundaries) == outcome(reference_homology, boundaries)
    cochains = dual_complex(boundaries)
    want = outcome(reference_homology, list(reversed(cochains)))
    if isinstance(want, list):
        want = list(reversed(want))
    assert outcome(cohomology_of_cochain_complex, cochains) == want


def relabelled(boundaries, rng):
    """The same complex with each chain group's cells permuted and their
    signs flipped at random: a chain isomorphism."""
    dims = [boundaries[0].rows] + [b.cols for b in boundaries]
    perms = [rng.sample(range(d), d) for d in dims]
    signs = [[rng.choice((-1, 1)) for _ in range(d)] for d in dims]
    out = []
    for m, b in enumerate(boundaries):
        entries = [0] * (b.rows * b.cols)
        for k, v in enumerate(b.entries):
            if v:
                i, j = divmod(k, b.cols)
                entries[perms[m][i] * b.cols + perms[m + 1][j]] = v * signs[m][i] * signs[m + 1][j]
        out.append(IntMatrix(b.rows, b.cols, tuple(entries)))
    return out


def best_time(boundaries, repeats=2):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        groups = homology_of_complex(boundaries)
        times.append(time.perf_counter() - start)
    return groups, min(times)


def test_renumbering_the_cells_of_t6_keeps_its_homology_and_its_cost():
    torus = CIRCLE
    for _ in range(5):
        torus = tensor_product_complex(torus, CIRCLE)
    shuffled = relabelled(torus, random.Random(6))
    ordered_groups, ordered = best_time(torus)
    shuffled_groups, cost = best_time(shuffled)
    assert [g.rank for g in ordered_groups] == [1, 6, 15, 20, 15, 6, 1]
    assert shuffled_groups == ordered_groups
    assert cost <= 4 * ordered, (cost, ordered)
