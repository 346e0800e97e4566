"""floercas: exact computer algebra for the instanton cohomology rings of a
surface times a circle, their t-deformations, and the resulting
Donaldson-series calculators.

All arithmetic is exact: over Q for the rings, their matrices and
characteristic polynomials, and over Q(i) for the spectra and the series.
Every structural claim the package implements can be re-verified with
`floercas check` or the claim suite in floercas.checks.
"""

from .exactalg import (
    DEFAULT_ORDER,
    GaussianRational,
    TruncatedSeries,
    rational,
)
from .poly import (
    ALPHA,
    BETA,
    GAMMA,
    Monomial,
    SparsePoly,
    grlex_key,
)
from .linalg import Matrix, UniPoly, EigenReport, factor_over_candidates
from .groebner import (
    GroebnerBasis,
    InfiniteStaircaseError,
    QuotientRing,
    buchberger,
    normal_form,
    staircase_basis,
)
from .floer import (
    FalsificationError,
    FloerRing,
    RelationTriple,
    SubquotientModule,
    alpha_eigenvalue,
    beta_eigenvalue,
    default_candidates,
    eigen_reports,
    filtration_step,
    floer_cohomology,
    gamma_kernel_dims,
    gamma_quotient_ring,
    classical_ring,
    invariant_ring,
    primitive_dim,
    primitive_dim_exact,
    psi1_block,
    psi1_homology_dims,
    relations,
    socle_quotient_charpoly,
)
from .fukaya import (
    DeltaHffModule,
    RhffModule,
    YHomologyClass,
    delta_module,
    effective_eigenvalues,
    mu_action,
    reduced_module,
)
from .donaldson import (
    CongruenceReport,
    DonaldsonSeries,
    FiberSumInput,
    congruence_check,
    evaluate,
    fiber_sum,
    finite_type_order,
    product_series,
    product_sum_input,
)

__version__ = "0.1.0"
