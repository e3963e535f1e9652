"""solvbie: solvation free energies from boundary-integral electrostatics.

Exact Kirkwood series for charges in a spherical cavity, diagonal
boundary-integral approximations (CFA, P, generic-lambda, hybrid M),
Generalized Born / GB-epsilon estimators, and a desk-scale BEM reference
solver for triangulated surfaces.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DomainError,
    EmptyInputError,
    GeometryError,
    ParseError,
    SolvbieError,
    TopologyError,
)
from .model import (
    COULOMB_KCAL,
    ChargeDistribution,
    DielectricPair,
    EnergyResult,
    SphereModel,
    load_pqr,
    make_distribution,
)
from .harmonics import (
    pair_spectrum,
    solid_spectrum,
    source_moments,
    truncation_tail_estimate,
)
from .sphere import (
    BibeeVariant,
    kirkwood_energy,
    pairwise_kirkwood_energy,
    reaction_potential,
    sphere_energies,
)
from .mesh import PanelSurface, icosphere, load_mesh, load_msms, load_off, write_off
from .bem import (
    SurfaceCharge,
    assemble_dstar,
    bem_energy,
    bibee_surface_charge,
    exact_surface_charge,
)
from .experiments import (
    ComparisonReport,
    ExperimentConfig,
    lambda_sweep,
    run_comparison,
)
