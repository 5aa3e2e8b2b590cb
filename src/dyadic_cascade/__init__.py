"""Tree and classic dyadic models of turbulent energy cascade: Galerkin
time integration with energy/flux diagnostics, stationary-profile shooting
solvers with regime classification, self-similar solutions, and the
classic -> tree lifting map."""

from .core import (
    ModelParams,
    NodeId,
    TreeState,
    children,
    generation,
    generation_offsets,
    node_count,
    parent,
    pow2,
)
from .dynamics import (
    EnergyReport,
    SolverOptions,
    Trajectory,
    balance_residual,
    dissipation_time_bound,
    energy_report,
    flux_budget_check,
    integrate,
    rhs_tree,
)
from .lift import (
    LiftSpec,
    lift_params,
    lift_state,
    project_params,
    project_state,
    verify_lift_equivariance,
)
from .selfsimilar import (
    GraftedTreeState,
    SelfSimilarProfile,
    graft_selfsimilar,
    lift_residual,
    lift_selfsimilar,
    shifted_profile,
    solve_selfsimilar_classic,
    tree_coefficient_energy,
)
from .stationary import (
    RegimeInfo,
    StationaryProfile,
    asymptotic_flux,
    classify_regime,
    inviscid_classic_profile,
    inviscid_tree_profile,
    solve_viscous_stationary,
    stationary_tree_profile,
    z_step_sequence,
)
from .stateio import dump_state, load_state
from . import errors

__all__ = [
    "ModelParams", "NodeId", "TreeState",
    "children", "generation", "generation_offsets", "node_count", "parent", "pow2",
    "EnergyReport", "SolverOptions", "Trajectory",
    "balance_residual", "dissipation_time_bound", "energy_report",
    "flux_budget_check", "integrate", "rhs_tree",
    "LiftSpec", "lift_params", "lift_state", "project_params",
    "project_state", "verify_lift_equivariance",
    "GraftedTreeState", "SelfSimilarProfile", "graft_selfsimilar",
    "lift_residual", "lift_selfsimilar", "shifted_profile",
    "solve_selfsimilar_classic", "tree_coefficient_energy",
    "RegimeInfo", "StationaryProfile", "asymptotic_flux", "classify_regime",
    "inviscid_classic_profile", "inviscid_tree_profile",
    "solve_viscous_stationary", "stationary_tree_profile", "z_step_sequence",
    "dump_state", "load_state",
    "errors",
]

__version__ = "0.1.0"
