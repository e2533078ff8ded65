"""One-off timings of single large problems, for bench/README.md.

    PYTHONPATH=src python3 bench/figures.py

Each problem runs once; the numbers are orientation, not a gate, and no
run of ``bench/run.py`` reads them.
"""

import random
import time

import modtopo as mt


def timed(label, fn):
    start = time.perf_counter()
    fn()
    print(f"{label}: {time.perf_counter() - start:.2f} s", flush=True)


def torus(n):
    circle = [mt.IntMatrix.from_rows([[-1, 1], [1, -1]])]
    b = circle
    for _ in range(n - 1):
        b = mt.tensor_product_complex(b, circle)
    return b


def dd_check(b):
    for d, e in zip(b, b[1:]):
        (d @ e).is_zero()


def main():
    t5 = torus(5)
    timed("T^5 homology_of_complex", lambda: mt.homology_of_complex(t5))
    timed("T^5 d o d check alone", lambda: dd_check(t5))
    rng = random.Random(1)
    m = mt.IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(60)] for _ in range(60)])
    timed("60x60 dense smith_normal_form", lambda: mt.smith_normal_form(m))
    timed("k_groups_via_d3 genus 40", lambda: mt.k_groups_via_d3(mt.CircleBundleSpec(40, 3, 4)))
    rp3 = mt.ModPRingPresentation(2, [("x1", 1), ("x2", 1), ("x3", 1)])
    timed("verify_axioms (RP^inf)^3 to degree 10", lambda: mt.verify_axioms(rp3, 10))
    timed(
        "FgAbGroup.free(2000).tensor(FgAbGroup.free(2000))",
        lambda: mt.FgAbGroup.free(2000).tensor(mt.FgAbGroup.free(2000)),
    )


if __name__ == "__main__":
    main()
