"""Point-interaction Laplacian in 2D: spectral data, Krein resolvent,
contour heat semigroup, and a Picard solver for the convection-diffusion
equation on the absolutely continuous subspace."""

from .fields import (
    Field,
    Grid,
    gaussian_field,
    gradient,
    inner_product,
    load_field,
    lp_norm,
    save_field,
)
from .spectral import (
    AlphaParams,
    DecomposedField,
    c_lambda,
    eigenvalue,
    green_field,
    green_lp_norm,
    h1_alpha_norm,
    load_state,
    reference_lambda,
)
from .semigroup import (
    ContourSpec,
    SemigroupResult,
    backward_euler_oracle,
    krein_resolvent,
    project_d,
    psi_alpha_field,
    semigroup_full,
    semigroup_gradient_pac,
    semigroup_pac,
)
from .solver import (
    total_field,
    SolverConfig,
    Trajectory,
    lagrange_multiplier,
    nonlinearity,
    residual_check,
    solve_global_projected,
    solve_local,
    state_fields,
)
from .decay import (
    RateFit,
    admissible_exponents,
    critical_datum,
    fit_rate,
    run_gradient_decay,
    run_nonlinear_decay,
    run_semigroup_decay,
    verify_convolution_lemma,
)
from .special import bessel_k0, bessel_k1, euler_gamma

__version__ = "0.1.0"
