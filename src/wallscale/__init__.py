"""Desk-scale numerical laboratory for the energy scaling of 180-degree
domain walls in thin rectangular magnetic films.

Modules:
    quad            adaptive quadrature on GK15, no scipy (public API); the GK15 and Gauss-Laguerre tables
    kernels         magnetostatic kernels a_c, b_c, I, K and bounds on I
    walls           closed-form transverse walls, the discrete reduced energies, the table format
    minimize        sphere-constrained descent and ansatz-family search
    magnetostatics  spectral/boundary-integral surface and volume energies
    lab             sweeps, verification tables, report files
    cli             command-line entry point
"""

from .errors import (
    NonFiniteIntegrandError,
    QuadratureError,
    StallError,
    SubdivisionLimitError,
    TailNonconvergenceError,
    VerificationError,
    WallscaleError,
)
from .kernels import (
    CrossSection,
    KernelBoundTriple,
    Lemma32Report,
    a_c,
    a_c_scaling_ratio,
    b_c,
    i_kernel,
    lemma32_bounds,
    verify_lemma32,
)
from .lab import CorollaryReport, SweepRecord, corollary33_report, emit_report, rate_sweep
from .magnetostatics import (
    EnergyBreakdown,
    GAMMA_LIMIT,
    KernelCache,
    RescalingParams,
    SpectrumProfile,
    e_s_boundary_oracle,
    e_s_spectral,
    e_v_spectral,
    e_v_upper_bound,
    emag_lipschitz_check,
    full_energy,
    spectrum,
)
from .minimize import (
    AnsatzSearchResult,
    arc_profile,
    minimize_full_ansatz,
    minimize_reduced,
)
from .quad import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    QuadratureResult,
    integrate_finite,
    integrate_semi_infinite,
)
from .walls import (
    ClosedFormWall,
    Profile1D,
    ReducedEnergyWeights,
    eval_wall,
    reduced_energy_E0,
    reduced_energy_alpha,
    sample_wall,
)

__version__ = "0.1.0"
