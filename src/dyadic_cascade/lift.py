"""Classic -> tree correspondence.

A classic solution Y lifts to the generation-symmetric tree solution

    X_j = 2^{-(|j|+2) * alpha_tilde} * Y_{|j|},   alpha = beta + alpha_tilde.

The forcing alias lifts by the same formula read at |j| = -1, so a classic
system with forcing f corresponds to a tree system with forcing
2^{-alpha_tilde} * f; lift_params applies that map.  The inverse
(project_state) is defined on states that are constant within every
generation up to rounding drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, TreeState, pow2
from .errors import DomainError, ParameterMismatch, SymmetryError
from .kernels import make_kernel

#: Relative spread below which a generation counts as constant: accepts
#: rounding drift of evolved symmetric data, rejects structural asymmetry.
SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class LiftSpec:
    """Exponent bookkeeping of the correspondence: alpha = beta + alpha_tilde,
    branching = 2^{2*alpha_tilde} (must be a whole number of children)."""

    alpha_tilde: float
    beta: float

    def __post_init__(self):
        if not 0 <= self.alpha_tilde < math.inf:
            raise DomainError(
                f"alpha_tilde must be finite and >= 0, got {self.alpha_tilde}")
        if not 0 < self.beta < math.inf:
            raise DomainError(
                f"beta = alpha - alpha_tilde must be finite and > 0, got {self.beta}")
        n = pow2(2.0 * self.alpha_tilde)
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise DomainError(
                f"2^(2*alpha_tilde) = {n} is not a whole branching number")

    @property
    def alpha(self) -> float:
        return self.beta + self.alpha_tilde

    @property
    def branching(self) -> int:
        return round(pow2(2.0 * self.alpha_tilde))

    @classmethod
    def for_branching(cls, branching: int, beta: float) -> "LiftSpec":
        return cls(alpha_tilde=0.5 * math.log2(branching), beta=beta)


def scale_factor(spec: LiftSpec, gen: int) -> float:
    """Per-generation lift factor 2^{-(gen+2) * alpha_tilde}; gen = -1 gives
    the forcing map."""
    return pow2(-(gen + 2) * spec.alpha_tilde)


def lift_params(classic: ModelParams, spec: LiftSpec) -> ModelParams:
    """Tree-side parameters corresponding to a classic system, to the same
    depth."""
    if classic.branching != 1:
        raise ParameterMismatch("lift_params expects classic params (branching 1)")
    if abs(classic.alpha - spec.beta) > 1e-12 * max(1.0, abs(spec.beta)):
        raise ParameterMismatch(
            f"classic exponent {classic.alpha} does not match spec beta {spec.beta}")
    return ModelParams(
        alpha=spec.alpha,
        gamma=classic.gamma,
        nu=classic.nu,
        f=scale_factor(spec, -1) * classic.f,
        branching=spec.branching,
        depth=classic.depth,
        max_nodes=classic.max_nodes,
    )


def project_params(tree: ModelParams) -> ModelParams:
    """Classic-side parameters corresponding to a tree system."""
    spec = LiftSpec.for_branching(tree.branching, tree.beta)
    return ModelParams(
        alpha=tree.beta,
        gamma=tree.gamma,
        nu=tree.nu,
        f=tree.f / scale_factor(spec, -1),
        branching=1,
        depth=tree.depth,
        max_nodes=tree.max_nodes,
    )


def lift_state(y: TreeState, spec: LiftSpec) -> TreeState:
    """Materialize the lifted tree state of a chain state (branching 1), one
    generation per shell, with the parameters lift_params gives y.params."""
    tree_params = lift_params(y.params, spec)
    offs = tree_params.offsets
    values = np.empty(tree_params.n_nodes)
    for g in range(tree_params.depth + 1):
        values[offs[g]:offs[g + 1]] = scale_factor(spec, g) * y.values[g]
    return TreeState(values, tree_params)


def project_state(x: TreeState) -> TreeState:
    """Inverse of lift_state on generation-symmetric states.

    Divides by the same per-generation factor the lift multiplies by (rather
    than evaluating the reciprocal power), which keeps round trips exact
    whenever the factor is a power of two.
    """
    params = x.params
    spec = LiftSpec.for_branching(params.branching, params.beta)
    offs = params.offsets
    y = np.empty(params.depth + 1)
    for g in range(params.depth + 1):
        block = x.values[offs[g]:offs[g + 1]]
        hi = float(block.max())
        lo = float(block.min())
        scale = max(abs(hi), abs(lo))
        if scale != 0.0 and (hi - lo) > SYMMETRY_RTOL * scale:
            raise SymmetryError(g)
        y[g] = block[0] / scale_factor(spec, g) if scale != 0.0 else 0.0
    return TreeState(y, project_params(params))


def verify_lift_equivariance(y: TreeState, spec: LiftSpec) -> float:
    """Max-norm defect between the two routes classic -> tree derivative.

    y is a chain state of the classic system y.params; lift_params raises
    ParameterMismatch unless that system has branching 1 and alpha =
    spec.beta.  Route one evaluates the tree right-hand side on the lifted state; route two
    lifts the classic right-hand side (same per-generation factors).
    Double-precision inputs give a defect of rounding size, <= 1e-12 times
    the term scale.
    """
    params = y.params
    lifted = lift_state(y, spec)
    with np.errstate(over="ignore", invalid="ignore"):  # as in rhs_tree
        tree_deriv = make_kernel(lifted.params).rhs(lifted.values)
        classic_deriv = make_kernel(params).rhs(y.values)
    offs = lifted.params.offsets
    lifted_deriv = np.empty_like(tree_deriv)
    for g in range(params.depth + 1):
        lifted_deriv[offs[g]:offs[g + 1]] = scale_factor(spec, g) * classic_deriv[g]
    return float(np.max(np.abs(tree_deriv - lifted_deriv)))
