"""bubblelab: numerical laboratory for bubble concentration on perforated domains.

Modules
-------
bubbles      standard bubble family and dimension constants
greens       ball Robin function of the plain kernel, perforated domains
coupling     amplitude systems, coupling matrices, nondegeneracy verdicts
energy       reduced-energy constants, interaction kernel, critical points
asymptotics  radial bubble projection and integral scaling laws
solver       radial Newton-continuation solver and concentration-rate sweeps
cli          batch front-end (JSON configs in, JSON/CSV reports out)

``__all__`` holds what ``bubblelab run`` executes, ``bubble_eval`` (which
the benchmark tracer counts) and two names that await a task:
``energy_expansion`` and ``compose_group_solution``.  Closed forms and
finite-difference checks that no task runs are oracles in the tests.
"""

from .asymptotics import (
    Annulus,
    RadialProjection,
    ScalingFit,
    project_bubble_radial,
    scaling_law_pair,
    scaling_law_single,
    scaling_law_weighted,
)
from .bubbles import (
    DIMS3,
    DIMS4,
    BubbleParams,
    DimensionConstants,
    bubble_eval,
    dims_for,
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
from .greens import Ball, HoleSpec, PerforatedDomain, kernel_robin
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
    "bubble_eval",
    "build_spectrum",
    "compose_group_solution",
    "critical_point",
    "dims_for",
    "energy_expansion",
    "energy_of_solution",
    "HoleSpec",
    "kernel_robin",
    "project_bubble_radial",
    "psi_grad",
    "psi_value",
    "rate_sweep",
    "scaling_law_pair",
    "scaling_law_single",
    "scaling_law_weighted",
    "solve_c_vector",
    "solve_radial",
    "__version__",
]
