"""bubblelab: numerical laboratory for bubble concentration on perforated domains.

Modules
-------
bubbles      standard bubble family, derivative kernels, residual certification
greens       ball Green function regular part, Robin function, perforated domains
coupling     amplitude systems, coupling matrices, nondegeneracy verdicts
energy       reduced-energy constants, interaction kernel, critical points
asymptotics  radial bubble projection and integral scaling laws
solver       radial Newton-continuation solver and concentration-rate sweeps
cli          batch front-end (JSON configs in, JSON/CSV reports out)
"""

from .asymptotics import (
    Annulus,
    RadialProjection,
    ScalingFit,
    project_bubble_radial,
    remainder_check,
    scaling_law_pair,
    scaling_law_single,
    scaling_law_weighted,
)
from .bubbles import (
    DIMS3,
    DIMS4,
    BubbleParams,
    DimensionConstants,
    bubble_deriv,
    bubble_eval,
    bubble_laplacian,
    bubble_residual,
    dims_for,
    linearized_residual,
)
from .coupling import (
    CouplingSpec,
    CVector,
    SpectrumReport,
    build_spectrum,
    solve_c_vector,
)
from .energy import (
    ReducedEnergyModel,
    ReducedPoint,
    critical_point,
    energy_expansion,
    psi_grad,
    psi_value,
)
from .greens import Ball, HoleSpec, PerforatedDomain, kernel_regular_part, kernel_robin
from .solver import (
    ConcentrationMetrics,
    RadialGrid,
    compose_group_solution,
    energy_of_solution,
    rate_sweep,
    solve_radial,
)

__version__ = "0.1.0"

__all__ = [
    "Annulus",
    "Ball",
    "BubbleParams",
    "ConcentrationMetrics",
    "CouplingSpec",
    "CVector",
    "DIMS3",
    "DIMS4",
    "DimensionConstants",
    "PerforatedDomain",
    "RadialGrid",
    "RadialProjection",
    "ReducedEnergyModel",
    "ReducedPoint",
    "ScalingFit",
    "SpectrumReport",
    "bubble_deriv",
    "bubble_eval",
    "bubble_laplacian",
    "bubble_residual",
    "build_spectrum",
    "compose_group_solution",
    "critical_point",
    "dims_for",
    "energy_expansion",
    "energy_of_solution",
    "HoleSpec",
    "kernel_regular_part",
    "kernel_robin",
    "linearized_residual",
    "project_bubble_radial",
    "psi_grad",
    "psi_value",
    "rate_sweep",
    "remainder_check",
    "scaling_law_pair",
    "scaling_law_single",
    "scaling_law_weighted",
    "solve_c_vector",
    "solve_radial",
    "__version__",
]
