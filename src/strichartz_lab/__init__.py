"""Numerical laboratory for the sharp 1D Strichartz inequality.

Computes the sharp constant 12^{-1/12} of || e^{it Delta} f ||_6 <= C ||f||_2
on the line, finds extremizers by normalized Euler-Lagrange fixed-point
iteration, certifies them as Gaussians through the multiplicative functional
equation on the balanced-sum constraint set, and validates the
frequency-separated bilinear estimate and the Fourier-tail decay bootstrap
that underpin the theory.
"""

from .lattice import (
    AliasingWarning,
    FrequencyGrid,
    GridMismatchError,
    UniformGrid,
    WaveFunction,
    forward_transform,
    inner_product,
    inverse_transform,
    load_wavefunction,
    lp_norm,
    make_gaussian,
    sample_offgrid,
    save_wavefunction,
)
from .propagator import (
    TimeQuadrature,
    default_grid,
    default_time_quadrature,
    evolve,
    fourier_symmetry_check,
    gaussian_l6_sixth_exact,
    sharp_ratio_exact,
    strichartz_ratio,
    switch_time,
)
from .sextic_form import (
    KAPPA,
    WeightParams,
    calibrate_kappa,
    m_weighted,
    q_quadrature,
    q_spacetime,
    weight,
)
from .extremizer import (
    IterationState,
    PicardResult,
    gauge_fix,
    lambda_apply,
    omega_of,
    picard_iterate,
    save_trajectory,
)
from .bilinear import (
    BandSpec,
    SweepResult,
    bilinear_l3,
    hausdorff_young_density,
    make_band_limited,
    pair_time_quadrature,
    save_sweep,
    separation_sweep,
)
from .functional_equation import (
    ConstraintSextuple,
    PhaseUnwrapWarning,
    PowerSumRow,
    QuadraticFit,
    constraint_circle,
    golden_power_sums,
    product_residual,
    quadratic_log_fit,
    residual_statistic,
)
from .decay import (
    BandDecomposition,
    BootstrapReport,
    GScanResult,
    MuSlopeFit,
    analytic_extension_probe,
    band_decompose,
    bootstrap_smallness,
    g_polynomial_scan,
    mu_slope_fit,
    tail_norm_H,
)
from .experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    default_config,
    run,
)

__version__ = "0.1.0"
