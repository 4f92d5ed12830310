"""Mesh-based compartment thermal models and their EM identification.

Build a compartment mesh of a power module, turn it into a linear
state-space thermal model with shared parameters, simulate it, and identify
the parameters and the process-noise covariance from incomplete temperature
measurements with a steady-state-smoother EM algorithm.
"""

__version__ = "0.1.0"

from thermem.errors import (
    ConfigurationError,
    ConvergenceError,
    DivergenceError,
    IdentifiabilityError,
    NumericalError,
    StabilityError,
    ThermemError,
)
from thermem.mesh import Compartment, CompartmentMesh, build_grid
from thermem.graph import GraphOperators, SharingScheme, build_operators
from thermem.model import (
    StateSpaceModel,
    ThetaParams,
    Trajectory,
    assemble,
    initial_state_from_observation,
    predict,
    simulate,
)
from thermem.solvers import DareProblem, solve_dare, solve_dlyap
from thermem.smoother import (
    SmootherOutput,
    SmootherStats,
    accumulate_stats,
    rtss_steady,
)
from thermem.estimation import (
    CovarianceConstraint,
    EmConfig,
    EmTrace,
    build_L,
    project_constraint,
    run_em,
    update_Q_full,
    update_theta,
)
from thermem.datagen import (
    NoiseSpec,
    ToySpec,
    build_toy,
    generate_dataset,
    strong_scheme,
    strong_theta,
    toy_inputs,
    weak_scheme,
    weak_theta,
)
