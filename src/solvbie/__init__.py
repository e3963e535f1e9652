"""solvbie: solvation free energies from boundary-integral electrostatics.

Exact Kirkwood series for charges in a spherical cavity, diagonal
boundary-integral approximations (CFA, P, generic-lambda, hybrid M),
Generalized Born / GB-epsilon estimators, and a desk-scale BEM reference
solver for triangulated surfaces.
"""

__version__ = "0.1.0"

from .errors import (
    ConsistencyError,
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
    net_charge,
)
from .harmonics import (
    MultipoleCoefficients,
    legendre_table,
    mode_spectrum,
    source_moments,
    truncation_tail_estimate,
)
from .sphere import (
    BibeeVariant,
    GBParameters,
    kirkwood_energy,
    pair_interaction_kirkwood,
    pairwise_kirkwood_energy,
    reaction_coefficients,
    sphere_energies,
    sphere_gb_parameters,
)
from .mesh import PanelSurface, icosphere, load_mesh, load_msms, load_off, write_off
from .bem import (
    SurfaceCharge,
    SurfaceField,
    assemble_dstar,
    bem_energy,
    bibee_surface_charge,
    coulomb_field_rhs,
    exact_surface_charge,
    reaction_energy,
)
from .experiments import (
    ComparisonReport,
    ExperimentConfig,
    lambda_sweep,
    random_sphere_config,
    run_comparison,
)
