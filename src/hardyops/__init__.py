"""Numerical toolkit for fractional Hardy operators |p|^alpha + a|x|^{-alpha}:
sharp constants, kernel comparison profiles, integral identities, and a
radial spectral discretization for desk-scale verification of the
associated inequalities."""

from .errors import ConstructionError, ConvergenceError, DomainError
from .specfun import (
    HardyParams,
    a_star,
    a_star_star,
    hardy_constant,
    log_abs_gamma,
    log_gamma,
    make_params,
    psi,
    psi_inv,
    sphere_area,
)
from .kernels import (
    KernelTriple,
    angular_average,
    hardy_heat_profile,
    l_envelope,
    m_envelope,
    poisson_kernel_exact,
    poisson_radial_average,
    riesz_exponent_window,
    riesz_profile,
    stable_heat_profile,
)
from .quadrature import (
    QuadResult,
    SchurIntegral,
    integrate_semiinfinite,
    riesz_time_integral,
    schur_weight_integral,
)
from .operators import (
    PotentialSpec,
    RadialGrid,
    SpectralOperator,
    build_fractional_laplacian,
    build_hardy_operator,
    build_log_grid,
    build_potential_operator,
    heat_kernel_matrix,
    jump_profile,
)
from .verify import (
    FAMILY_TAGS,
    SWEEP_COLUMNS,
    TestFamily,
    VerificationReport,
    difference_envelope_check,
    generalized_hardy_constant,
    heat_sandwich_by_time,
    reverse_hardy_constant,
    riesz_equivalence_check,
    sweep_by_power,
)

__version__ = "0.1.0"
