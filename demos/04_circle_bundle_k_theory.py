"""Walk-through: twisted K-groups of circle bundles and T-duality.

The closed-form table and the differential path (the cellular cochains
of the total space, read through the homology core, then the degree-3
differential) are computed side by side; swapping the Chern class with
the twist level swaps the two K-groups.
"""

from modtopo import (
    CircleBundleSpec,
    betti,
    k_groups,
    k_groups_via_d3,
    product_with_torus,
    reduced_k,
    surface_k_groups,
    t_duality_check,
    torus_k_groups,
    total_space_cohomology,
)

print("=== Cohomology of the total space ===")
for g, j in [(1, 0), (2, 3), (0, 1)]:
    h = total_space_cohomology(CircleBundleSpec(g, j))
    print(f"g={g} j={j}:", ", ".join(f"H^{m}={grp}" for m, grp in enumerate(h.groups)))

print()
print("=== K-groups, closed form vs differential path ===")
for g, j, k in [(1, 0, 0), (1, 2, 0), (1, 0, 3), (2, 5, 4)]:
    spec = CircleBundleSpec(g, j, k)
    closed = k_groups(spec)
    via = k_groups_via_d3(spec)
    print(f"g={g} j={j} k={k}:  {closed}   [paths agree: {closed == via}]")

print()
print("=== T-duality: swap chern and twist ===")
for g, j, k in [(1, 2, 3), (3, 4, 0), (2, 0, 5)]:
    spec = CircleBundleSpec(g, j, k)
    print(f"g={g} j={j} k={k}: duality holds = {t_duality_check(spec)}")

print()
print("=== Torus products ===")
print("K-groups of T^3:", torus_k_groups(3))
base = surface_k_groups(2)
print("surface of genus 2:", base)
print("reduced K^0 of the surface:", reduced_k(base.k0))
for k in range(1, 4):
    print(f"surface x T^{k}:", product_with_torus(base, k))
