"""The self-similar tree oracles: the algebraic residual of a lifted
profile, its energy constant, and grafting of lifted profiles onto disjoint
subtrees with the errors only grafting raises.

A lifted profile a_j / (t - t0) is an exact solution of the tree model, so
these check lift_selfsimilar and integrate against the paper's algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dyadic_cascade import LiftSpec, NodeId, SelfSimilarProfile, TreeState, generation, pow2
from dyadic_cascade.errors import (
    CascadeError,
    DepthMismatch,
    DomainError,
    ParameterMismatch,
)


class OverlapError(CascadeError):
    """Grafted subtrees overlap."""


class GenerationMismatch(CascadeError):
    """Graft target generation is incompatible with the profile's first
    nonzero generation."""


class PoleMismatch(CascadeError):
    """Grafts with different pole times combined in one state."""


def lift_residual(profile: SelfSimilarProfile) -> float:
    """Max relative defect of the algebraic self-similar condition

        a_j + c_j a_parent^2 = sum over children of c_child a_j a_child

    evaluated per generation on the lifted coefficients (interior
    generations only)."""
    if profile.a is None:
        raise ParameterMismatch("profile has no lifted coefficients; call "
                                "lift_selfsimilar first")
    spec = LiftSpec(alpha_tilde=profile.alpha_tilde, beta=profile.beta)
    alpha, branching = spec.alpha, spec.branching
    a = profile.a
    worst = 0.0
    for n in range(profile.n_max):
        parent_sq = a[n - 1] ** 2 if n > 0 else 0.0
        gain = pow2(alpha * n) * parent_sq
        loss = branching * pow2(alpha * (n + 1)) * a[n] * a[n + 1]
        res = a[n] + gain - loss
        scale = max(abs(a[n]), abs(gain), abs(loss), 1e-300)
        worst = max(worst, abs(res) / scale)
    return worst


def tree_coefficient_energy(profile: SelfSimilarProfile, depth: int) -> float:
    """Sum of a_j^2 over all tree nodes to ``depth``: the constant in
    E(t) = (sum a_j^2) / (t - t0)^2."""
    if profile.a is None:
        raise ParameterMismatch("profile has no lifted coefficients")
    spec = LiftSpec(alpha_tilde=profile.alpha_tilde, beta=profile.beta)
    total = 0.0
    for n in range(depth + 1):
        total += spec.branching ** n * profile.a[n] ** 2
    return total


@dataclass(frozen=True)
class GraftedTreeState(TreeState):
    """Tree of self-similar coefficients assembled from grafts.

    Carries the common pole time and the grafted subtree roots so that later
    grafts can be checked for pole consistency; at_time(t) evaluates the
    actual state a_j / (t - t0)."""

    t0: float = 0.0
    graft_roots: tuple = ()

    def at_time(self, t: float) -> TreeState:
        if t <= self.t0:
            raise DomainError(f"t = {t} not above the pole t0 = {self.t0}")
        return TreeState(self.values / (t - self.t0), self.params)


def _subtree_slices(root: NodeId, branching: int, depth: int, offsets):
    """Contiguous (start, width, generation) slices of the subtree below
    ``root``, one per generation."""
    g0 = generation(root, branching)
    start = root
    width = 1
    out = []
    for g in range(g0, depth + 1):
        out.append((start, width, g))
        start = branching * start + 1
        width *= branching
    return out


def graft_selfsimilar(base: TreeState, profile: SelfSimilarProfile,
                      subtree_root: NodeId) -> GraftedTreeState:
    """Place the lifted coefficients on one subtree, zero elsewhere.

    The subtree root's generation must not exceed the profile's first
    nonzero index n0 (values above are zero, so the node at generation n0
    inside the subtree sees a zero parent exactly as the full lifted
    solution does).  Repeated grafts must target pairwise disjoint subtrees
    and share the pole time.
    """
    if profile.a is None:
        raise ParameterMismatch("graft requires a lifted profile "
                                "(call lift_selfsimilar)")
    params = base.params
    spec = LiftSpec(alpha_tilde=profile.alpha_tilde, beta=profile.beta)
    if params.branching != spec.branching:
        raise ParameterMismatch(
            f"base branching {params.branching} != profile branching {spec.branching}")
    if abs(params.alpha - spec.alpha) > 1e-12 * max(1.0, abs(spec.alpha)):
        raise ParameterMismatch(
            f"base alpha {params.alpha} != beta + alpha_tilde {spec.alpha}")
    if params.depth > profile.n_max:
        raise DepthMismatch(f"profile covers {profile.n_max + 1} generations, "
                            f"tree needs {params.depth + 1}")
    if not 0 <= subtree_root < params.n_nodes:
        raise DomainError(f"subtree root {subtree_root} outside the tree")
    g0 = generation(subtree_root, params.branching)
    if g0 > profile.n0:
        raise GenerationMismatch(
            f"subtree root at generation {g0} but first nonzero coefficient "
            f"is at {profile.n0}")
    if isinstance(base, GraftedTreeState):
        if base.t0 != profile.t0:
            raise PoleMismatch(f"existing grafts have t0 = {base.t0}, "
                               f"profile has t0 = {profile.t0}")
        roots = base.graft_roots
    else:
        roots = ()

    values = np.array(base.values, dtype=np.float64)
    slices = _subtree_slices(subtree_root, params.branching, params.depth,
                             params.offsets)
    for start, width, g in slices:
        if np.any(values[start:start + width] != 0.0):
            raise OverlapError(
                f"subtree at {subtree_root} overlaps an existing graft "
                f"(generation {g})")
    for start, width, g in slices:
        values[start:start + width] = profile.a[g]
    return GraftedTreeState(values=values, params=params, t0=profile.t0,
                            graft_roots=roots + ((int(subtree_root), profile.n0),))
