"""homology_of_complex, one elimination pass along the complex, against
the homology formula applied to every boundary's own Smith diagonal.

Random complexes, and their tensor products with a lens space, RP^2 and a
two-cell circle, give unit pivots, non-unit pivots and column operations
that the pass replays onto the next boundary.
"""

import random

import pytest

from helpers import random_alternating_complex, random_composable_complex
from modtopo.abgroup import (
    FgAbGroup,
    IntMatrix,
    cohomology_of_cochain_complex,
    dual_complex,
    homology_of_complex,
    smith_normal_form,
)
from modtopo.graded import tensor_product_complex

CIRCLE = [IntMatrix.from_rows([[-1, 1], [1, -1]])]
RP2 = [IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[2]])]


def lens(p):
    return [IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[p]]), IntMatrix.from_rows([[0]])]


def snf_homology(boundaries):
    """H_m = Z^(dim_m - rank out - rank in) + torsion(in), from each
    boundary's Smith diagonal with no reduction first."""
    dims = [boundaries[0].rows] + [b.cols for b in boundaries]
    diags = [smith_normal_form(b).diagonal for b in boundaries] + [()]
    ranks = [0] + [sum(1 for d in dg if d) for dg in diags]
    return [
        FgAbGroup.from_divisors(*(d for d in diags[m] if d > 1), *[0] * (dim - ranks[m] - ranks[m + 1]))
        for m, dim in enumerate(dims)
    ]


def complexes(seed, count):
    rng = random.Random(seed)
    for n in range(count):
        if n % 2:
            base = random_composable_complex(rng, degrees=rng.randint(2, 4), max_cells=4, lo=-2, hi=2)
        else:
            base = random_alternating_complex(rng, degrees=rng.randint(2, 4), max_cells=4, lo=-2, hi=2)
        yield base
        yield tensor_product_complex(base, rng.choice([CIRCLE, RP2, lens(rng.randint(3, 6))]))


@pytest.mark.parametrize("seed", range(4))
def test_homology_equals_the_smith_diagonal_formula(seed):
    for boundaries in complexes(seed, 40):
        assert homology_of_complex(boundaries) == snf_homology(boundaries)


@pytest.mark.parametrize("seed", range(4, 6))
def test_cohomology_equals_the_formula_on_the_reversed_dual(seed):
    for boundaries in complexes(seed, 30):
        cochains = dual_complex(boundaries)
        want = list(reversed(snf_homology(list(reversed(cochains)))))
        assert cohomology_of_cochain_complex(cochains) == want
