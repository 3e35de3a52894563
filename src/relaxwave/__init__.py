"""Soliton analysis, verification and simulation toolkit for nonlinear
waves in relaxing barotropic media.

The package constructs the exact traveling-wave candidates of the reduced
model equations, classifies their loop/cusp/kink shape as a function of the
dissipative parameter, measures every closed form by independent residual
evaluation, and integrates the model systems numerically.
"""

from .dispersion import (
    ComplexWave,
    RealWave,
    alpha_critical,
    complex_dispersion_residual,
    make_complex_wave,
    real_dispersion_residual,
    solve_complex_omega,
    solve_real,
)
from .errors import DomainError, NumericalError, ToolkitError
from .hirota import (
    VARIANTS,
    BilinearReport,
    ExpAtom,
    TauFunction,
    TauPair,
    bilinear_residual,
    d_op,
    tau_pair,
)
from .medium import (
    HighFreqCoeffs,
    LowFreqCoeffs,
    MediumParams,
    ReducedParams,
    high_freq_coeffs,
    low_freq_coeffs,
    reduce_combined,
    reduce_swsp,
)
from .sim import (
    MKdVBCoeffs,
    SimState19,
    SimStateMKdVB,
    Trajectory19,
    TrajectoryMKdVB,
    boundary_from_wave,
    compare_to_exact,
    evolve_mkdvb,
    evolve_system19,
    soliton_state19,
)
from .soliton import (
    ProfileSamples,
    ShapeClass,
    classify,
    eval_complex_Q,
    eval_uZ,
    profile,
    singular_thetas,
)
from .verify import (
    GridSpec,
    ResidualReport,
    SelftestReport,
    complex_residual_reports,
    eq11_residual_physical,
    exactness_forcing,
    manufactured_selftest,
    real_residual_reports,
    system19_point_residual,
)

__version__ = "0.1.0"

__all__ = [
    "ToolkitError",
    "DomainError",
    "NumericalError",
    "MediumParams",
    "HighFreqCoeffs",
    "LowFreqCoeffs",
    "ReducedParams",
    "high_freq_coeffs",
    "low_freq_coeffs",
    "reduce_swsp",
    "reduce_combined",
    "RealWave",
    "ComplexWave",
    "alpha_critical",
    "solve_real",
    "solve_complex_omega",
    "make_complex_wave",
    "real_dispersion_residual",
    "complex_dispersion_residual",
    "ExpAtom",
    "TauFunction",
    "BilinearReport",
    "VARIANTS",
    "d_op",
    "bilinear_residual",
    "TauPair",
    "ProfileSamples",
    "ShapeClass",
    "eval_uZ",
    "eval_complex_Q",
    "tau_pair",
    "singular_thetas",
    "classify",
    "profile",
    "GridSpec",
    "ResidualReport",
    "SelftestReport",
    "system19_point_residual",
    "real_residual_reports",
    "complex_residual_reports",
    "eq11_residual_physical",
    "exactness_forcing",
    "manufactured_selftest",
    "SimState19",
    "SimStateMKdVB",
    "MKdVBCoeffs",
    "Trajectory19",
    "TrajectoryMKdVB",
    "soliton_state19",
    "boundary_from_wave",
    "evolve_system19",
    "evolve_mkdvb",
    "compare_to_exact",
    "__version__",
]
