"""Monge-Ampere equations for (n-1)-plurisubharmonic potentials on flat
complex tori: Hermitian form algebra, spectral discretization, Newton-
continuity solvers, and Calabi-Yau / prescribed-Ricci pipelines."""

from .equations import (
    Linearization,
    ProblemSpec,
    RhsVolume,
    SolveState,
    Variant,
    e_term,
    eta_tensor,
    ma_residual,
    tilde_metric,
)
from .errors import (
    CohomologyError,
    PositivityError,
    SolverError,
    TormaError,
    ValidationError,
)
from .geometry import chern_connection, chern_ricci, metric_defects
from .grid import (
    TorusGrid,
    d_antiholo,
    d_holo,
    grad_norm_sq,
    hessian_complex,
    laplacian,
    mean,
    sup_norm,
)
from .hermitian import nm1_root, star_power, star_wedge
from .manufacture import manufacture_problem
from .pipelines import calabi_yau_gauduchon, phi_pipeline, prescribed_ricci
from .solver import (
    AdjointKernel,
    SolveReport,
    SolverConfig,
    adjoint_kernel,
    continuity_solve,
    gauduchon_factor,
    newton_step,
)

__version__ = "0.1.0"

__all__ = [
    "AdjointKernel",
    "CohomologyError",
    "Linearization",
    "PositivityError",
    "ProblemSpec",
    "RhsVolume",
    "SolveReport",
    "SolveState",
    "SolverConfig",
    "SolverError",
    "TormaError",
    "TorusGrid",
    "ValidationError",
    "Variant",
    "adjoint_kernel",
    "calabi_yau_gauduchon",
    "chern_connection",
    "chern_ricci",
    "continuity_solve",
    "d_antiholo",
    "d_holo",
    "e_term",
    "eta_tensor",
    "gauduchon_factor",
    "grad_norm_sq",
    "hessian_complex",
    "laplacian",
    "ma_residual",
    "manufacture_problem",
    "mean",
    "metric_defects",
    "newton_step",
    "nm1_root",
    "phi_pipeline",
    "prescribed_ricci",
    "star_power",
    "star_wedge",
    "sup_norm",
    "tilde_metric",
]
