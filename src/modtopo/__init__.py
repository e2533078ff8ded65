"""Exact-arithmetic computational topology toolkit.

Finitely generated abelian groups in canonical form, Smith normal form
with transforms, homology of integer chain complexes, Kunneth products
and universal-coefficient machinery, closed-form Betti/Hodge tables of
Hilbert modular varieties, twisted K-groups of circle bundles over
surfaces (with an independent differential-based cross-check), Steenrod
operations on presented mod-p rings, and wrapped-brane anomaly checks.
Every computation is exact; there is no floating point anywhere.
"""

from .abgroup import (
    FgAbGroup,
    IntMatrix,
    SnfResult,
    cohomology_of_cochain_complex,
    determinant,
    dual_complex,
    homology_of_complex,
    image_lattice_basis,
    integer_kernel_basis,
    is_prime,
    lattice_quotient,
    matrix_rank,
    smith_normal_form,
    solve_integer,
)
from .anomaly import (
    CohomologyElement,
    FluxVerdict,
    FreedWittenVerdict,
    HilbertAnomalyReport,
    MmsVerdict,
    RationalClass,
    d3_action,
    flux_quantization_check,
    freed_witten_check,
    hilbert_anomaly_report,
    mms_instability_check,
)
from .errors import (
    AmbientMismatch,
    DegreeOutOfRange,
    DimensionMismatch,
    DomainError,
    Inhomogeneous,
    InvalidDimension,
    LengthMismatch,
    NoUnitSummand,
    NotAComplex,
    NotASublattice,
    NotModTwo,
    NotOddPrime,
    ShapeMismatch,
    Undetermined,
    WrongDegree,
)
from .graded import (
    BettiTable,
    CoefficientSpec,
    GradedCohomology,
    betti,
    cohomology_with_coefficients,
    euler_characteristic,
    homology_with_coefficients,
    kunneth_product,
    tensor_product_complex,
)
from .hilbert import (
    CompactHilbertSpec,
    CuspidalBetti,
    CuspidalHilbertSpec,
    FiltrationDims,
    HodgeSlice,
    betti_total,
    compact_betti,
    compact_implied_volume,
    cuspidal_betti,
    hodge_filtration_dims,
    hodge_slice,
    variety_cohomology,
)
from .ktheory import (
    CircleBundleSpec,
    KPair,
    k_groups,
    k_groups_via_d3,
    product_with_torus,
    reduced_k,
    surface_k_groups,
    t_duality_check,
    torus_k_groups,
    total_space_cohomology,
)
from .selftest import hodge_sum_sweep, k_path_sweep
from .steenrod import (
    AxiomReport,
    AxiomViolation,
    ModPRingPresentation,
    RingElement,
    axiom_report,
    bockstein,
    sq,
    st,
    verify_axioms,
    w3_from_w2,
)

__version__ = "0.1.0"
