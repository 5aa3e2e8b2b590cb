"""The flux budget of an unforced run, the oracle for the integrated
boundary fluxes.

With f = 0 no energy enters the tree, so what crosses the n -> n+1 boundary
up to any time is at most what generations 0..n held at t = 0.
"""

from __future__ import annotations

import numpy as np

from dyadic_cascade.errors import CascadeError, RangeError


class ForcedRun(CascadeError):
    """The flux budget needs an unforced (f = 0) trajectory."""


def flux_budget_check(traj, n: int) -> tuple[float, float]:
    """Accumulated flux through the n -> n+1 boundary over the computed
    horizon, paired with E_n(0).  Contract (f = 0): flux <= E_n(0)."""
    params = traj.params
    if params.f != 0.0:
        raise ForcedRun("flux budget inequality requires f = 0")
    if n < -1 or n > params.depth:
        raise RangeError(f"boundary index {n} outside -1..{params.depth}")
    if n == -1:
        return 0.0, 0.0
    e_n0 = float(np.add.reduce(traj.energies[0, : n + 1]))
    if n == params.depth:
        return 0.0, e_n0  # no stored generation beyond the truncation
    return float(traj.work_flux[-1, n]), e_n0
