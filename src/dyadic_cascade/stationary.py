"""Stationary solutions: explicit inviscid profiles, the viscous shell
recurrence with its nested-interval shooting solver, regime classification,
and the limiting border flux.

The viscous stationary classic profile is found through the rescaled
variables Z_n = nu^{-1} 2^{beta (n+2)/3} Y_n, which obey

    Z_{-1} = g := nu^{-1} 2^{beta/3} f,
    Z_{n+1} = Z_{n-1}^2 / Z_n - 2^{mu n},      mu = gamma - (2/3) beta.

Shooting on Z_0: the first index where the sequence goes non-positive
classifies the trial (Z_n is increasing in Z_0 for even n, decreasing for
odd n, so an even first failure means Z_0 was too small, odd means too
large).  Relative error in Z_0 roughly doubles per level, so the recurrence
is iterated in extended precision with a classification horizon well past
n_max.  For mu >= 0 the true sequence decays doubly exponentially and no
finite precision can keep the forward recurrence positive for 60 levels;
past the well-conditioned head the sequence is completed with the same
recurrence solved in its contracting direction,
Z_m = Z_{m-1}^2 / (2^{mu m} + Z_{m+1}).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np

from .core import ModelParams, TreeState, pow2
from .errors import BracketFailure, DomainError, NoConvergence
from .lift import LiftSpec, lift_state

REGIME_INVISCID = "InviscidExplicit"
REGIME_REGULAR = "ViscousRegular"
REGIME_ANOMALOUS = "ViscousAnomalous"
REGIME_SMALL_FORCING = "ViscousSmallForcingRegular"

#: classification horizon slack and digits-per-level for the shooting solver
_HORIZON_FACTOR = 2
_HORIZON_SLACK = 20
_DPS_PER_LEVEL = 0.35
_DPS_BASE = 60


@dataclass(frozen=True)
class RegimeInfo:
    regime: str
    mu: float
    g: float | None
    threshold: float | None
    certificate: str


def classify_regime(beta: float, gamma: float, g: float | None) -> RegimeInfo:
    """Regime of the viscous stationary solution from (beta, gamma, g).

    mu >= 0 (equivalently 3*gamma >= 2*beta, boundary included) is regular
    and conservative; mu < 0 with g above 1/(1 - 2^mu) is anomalous; mu < 0
    below the threshold is reported as inconclusive (the anomaly is only
    established for large forcing).
    """
    mu = gamma - 2.0 * beta / 3.0
    if mu >= 0.0:
        return RegimeInfo(
            regime=REGIME_REGULAR, mu=mu, g=g, threshold=None,
            certificate="Z_n < Z_{n-1}^2 eventually; doubly exponential decay",
        )
    threshold = 1.0 / (1.0 - pow2(mu))
    if g is not None and g > threshold:
        return RegimeInfo(
            regime=REGIME_ANOMALOUS, mu=mu, g=g, threshold=threshold,
            certificate="Z non-increasing with strictly positive limit; "
                        "border flux -> 2^{-4 beta/3} nu^3 z^3",
        )
    return RegimeInfo(
        regime=REGIME_SMALL_FORCING, mu=mu, g=g, threshold=threshold,
        certificate="below the forcing threshold; behavior inconclusive "
                    "in this range",
    )


def inviscid_classic_profile(f: float, beta: float, n_max: int,
                             gamma: float = 1.0) -> TreeState:
    """Explicit inviscid stationary chain profile Y_n = f * 2^{-beta (n+1)/3}."""
    if not f > 0:
        raise DomainError("inviscid profile requires f > 0 (f = 0 gives the zero state)")
    if not beta > 0:
        raise DomainError(f"beta must be > 0, got {beta}")
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    values = np.array([f * pow2(-beta * (n + 1) / 3.0) for n in range(n_max + 1)])
    params = ModelParams(alpha=beta, gamma=gamma, nu=0.0, f=f,
                         branching=1, depth=n_max)
    return TreeState(values, params)


def inviscid_tree_profile(f: float, alpha: float, alpha_tilde: float,
                          depth: int, gamma: float = 1.0) -> TreeState:
    """Explicit inviscid stationary tree profile
    X_j = f * 2^{-(|j|+1)(2 alpha_tilde + alpha)/3}.

    Square-summability over the infinite tree requires alpha > alpha_tilde;
    otherwise the profile is still returned but flagged with a warning.
    """
    if not f > 0:
        raise DomainError("inviscid profile requires f > 0")
    branching = round(pow2(2.0 * alpha_tilde))
    if abs(pow2(2.0 * alpha_tilde) - branching) > 1e-9 or branching < 1:
        raise DomainError(f"2^(2*alpha_tilde) = {pow2(2 * alpha_tilde)} "
                          "is not a whole branching number")
    if alpha <= alpha_tilde:
        warnings.warn(
            "alpha <= alpha_tilde: profile is not square-summable on the "
            "infinite tree (constructed anyway)", stacklevel=2)
    params = ModelParams(alpha=alpha, gamma=gamma, nu=0.0, f=f,
                         branching=branching, depth=depth)
    offs = params.offsets
    s = (2.0 * alpha_tilde + alpha) / 3.0
    values = np.empty(params.n_nodes)
    for g in range(depth + 1):
        values[offs[g]:offs[g + 1]] = f * pow2(-(g + 1) * s)
    return TreeState(values, params)


def z_step_sequence(g: float, a: float, mu: float, n_max: int):
    """Iterate the rescaled stationary recurrence in double precision.

    Returns (z, failure_index): z[i] holds Z_{i-1} starting from Z_{-1} = g,
    Z_0 = a; iteration stops at n_max or at the first non-positive value,
    whose subscript is returned (None if the whole sequence stays positive).
    Failure is data here, not an error.
    """
    if not (g > 0 and a > 0):
        raise DomainError("g and a must be > 0")
    z = [float(g), float(a)]
    for n in range(n_max):
        nxt = z[-2] ** 2 / z[-1] - pow2(mu * n)
        z.append(nxt)
        if nxt <= 0.0:
            return np.array(z), n + 1
    return np.array(z), None


@dataclass(frozen=True)
class StationaryProfile:
    """Solved stationary profile in rescaled and physical variables.

    z[i] = Z_{i-1} for i = 0..n_max+1 (so z[0] = g); z_log2 carries log2 of
    the same values and stays informative where the doubly exponential tail
    underflows float64.  y is the recovered classic profile
    Y_n = nu 2^{-beta(n+2)/3} Z_n.  tail_start is the first Z index produced
    by the stabilized closure (None if the forward head covered everything).
    """

    z: np.ndarray
    z_log2: np.ndarray
    y: np.ndarray
    g: float
    mu: float
    regime: str
    z_limit: float | None
    z_limit_last: float | None
    bracket: tuple[float, float]
    params: ModelParams
    tail_start: int | None
    regime_info: RegimeInfo

    @property
    def state(self) -> TreeState:
        return TreeState(self.y, self.params)


def _classify_parity(g, a, mu, n_levels):
    """Forward recurrence classification: ('survive', None) or
    ('raise'|'lower', first_nonpositive_index)."""
    zm1, zn = g, a
    for n in range(n_levels):
        nxt = zm1 ** 2 / zn - mp.mpf(2) ** (mu * n)
        if nxt <= 0:
            k = n + 1
            return ("raise" if k % 2 == 0 else "lower"), k
        zm1, zn = zn, nxt
    return "survive", None


def bisect_shooting(classify, start, *, max_iter=600, width_floor=None,
                    bracket=None, what="shooting parameter"):
    """Generic parity-rule bisection used by the stationary and self-similar
    solvers.

    classify(a) -> ('raise'|'lower'|'survive', info).  Probes geometrically
    from ``start`` (factor 2) until both directions are seen, then bisects;
    a trial surviving the full classification horizon is accepted as the
    root.  width_floor (relative) stops refinement when precision is
    exhausted; reaching it without a survivor returns survived=False.
    """
    lo = hi = None
    if bracket is not None:
        lo_c, _ = classify(mp.mpf(bracket[0]))
        hi_c, _ = classify(mp.mpf(bracket[1]))
        if lo_c == "survive":
            return mp.mpf(bracket[0]), (mp.mpf(bracket[0]),) * 2, True
        if hi_c == "survive":
            return mp.mpf(bracket[1]), (mp.mpf(bracket[1]),) * 2, True
        if lo_c != "raise" or hi_c != "lower":
            raise BracketFailure(
                f"supplied bracket {bracket} classifies as ({lo_c}, {hi_c}); "
                "expected (raise, lower)")
        lo, hi = mp.mpf(bracket[0]), mp.mpf(bracket[1])
    else:
        a = mp.mpf(start)
        c, _ = classify(a)
        if c == "survive":
            return a, (a, a), True
        if c == "raise":
            lo = a
            for _ in range(400):
                a = a * 2
                c2, _ = classify(a)
                if c2 == "lower":
                    hi = a
                    break
                if c2 == "survive":
                    return a, (lo, a), True
                lo = a
            else:
                raise BracketFailure(f"no upper bracket for {what} after 400 probes")
        else:
            hi = a
            for _ in range(400):
                a = a / 2
                c2, _ = classify(a)
                if c2 == "raise":
                    lo = a
                    break
                if c2 == "survive":
                    return a, (a, hi), True
                hi = a
            else:
                raise BracketFailure(f"no lower bracket for {what} after 400 probes")

    floor = mp.mpf(width_floor) if width_floor is not None else mp.mpf(0)
    for _ in range(max_iter):
        mid = (lo + hi) / 2
        c, _ = classify(mid)
        if c == "survive":
            return mid, (lo, hi), True
        if c == "raise":
            lo = mid
        else:
            hi = mid
        if (hi - lo) < floor * mid:
            return (lo + hi) / 2, (lo, hi), False
    raise NoConvergence(f"bisection on {what} did not find a survivor "
                        f"in {max_iter} iterations")


def _build_sequence(g, root, mu, n_max, dps):
    """Forward head while conditioned, stabilized closure for the rest.

    Returns (z list of mpf, Z_{-1}..Z_{n_max}, tail_start or None).
    """
    z = [g, root]
    cond = mp.mpf(1)
    cond_cap = mp.mpf(10) ** (dps - 15)
    switch = None
    for n in range(n_max):
        A = z[-2] ** 2 / z[-1]
        B = mp.mpf(2) ** (mu * n)
        nxt = A - B
        if nxt <= 0:
            switch = n + 1
            break
        cond *= max(A / nxt, mp.mpf(2))
        if cond > cond_cap:
            z.append(nxt)
            switch = n + 2
            break
        z.append(nxt)
    if switch is None:
        return z, None
    # closure Z_m = Z_{m-1}^2 / (2^{mu m} + Z_{m+1}), relaxed twice
    tail = {}
    for _ in range(3):
        prev = z[-1]
        for m in range(switch, n_max + 2):
            corr = tail.get(m + 1, mp.mpf(0))
            tail[m] = prev ** 2 / (mp.mpf(2) ** (mu * m) + corr)
            prev = tail[m]
    for m in range(switch, n_max + 2):
        z.append(tail[m])
    return z[: n_max + 2], switch


def solve_viscous_stationary(f: float, nu: float, beta: float, gamma: float,
                             n_max: int = 60, bisection_tol: float = 1e-12,
                             *, bracket=None, max_iter: int = 600) -> StationaryProfile:
    """Shoot the rescaled recurrence for the viscous stationary classic
    profile and classify its regime.

    bracket optionally overrides the automatic (geometric-probe) bracket
    initialization with (lo, hi); both ends must straddle the root.
    """
    if not (f > 0 and nu > 0 and beta > 0 and gamma > 0):
        raise DomainError("solve_viscous_stationary requires f, nu, beta, gamma > 0")
    if n_max < 2:
        raise DomainError(f"n_max must be >= 2, got {n_max}")
    if not bisection_tol > 0:
        raise DomainError(f"bisection_tol must be > 0, got {bisection_tol}")
    mu_f = gamma - 2.0 * beta / 3.0
    g_f = pow2(beta / 3.0) * f / nu
    n_class = _HORIZON_FACTOR * n_max + _HORIZON_SLACK
    dps = _DPS_BASE + int(_DPS_PER_LEVEL * n_class)

    with mp.workdps(dps):
        g = mp.mpf(2) ** (mp.mpf(beta) / 3) * mp.mpf(f) / mp.mpf(nu)
        mu = mp.mpf(gamma) - 2 * mp.mpf(beta) / 3

        def classify(a):
            return _classify_parity(g, a, mu, n_class)

        width_floor = mp.mpf(10) ** (-(dps - 15))
        root, (lo, hi), survived = bisect_shooting(
            classify, g, max_iter=max_iter, width_floor=width_floor,
            bracket=bracket, what="Z_0")
        if not survived and mu < 0:
            raise NoConvergence(
                "no full-horizon survivor found for mu < 0; the parity rule "
                "or precision budget is broken")
        if not survived and (hi - lo) > mp.mpf(bisection_tol) * root:
            raise NoConvergence(
                f"bracket width {float((hi - lo) / root):.3e} above "
                f"bisection_tol {bisection_tol}")
        z_mp, tail_start = _build_sequence(g, root, mu, n_max, dps)
        z = np.array([float(v) for v in z_mp])
        z_log2 = np.array([float(mp.log(v, 2)) for v in z_mp])
        y_mp = [mp.mpf(nu) * mp.mpf(2) ** (-mp.mpf(beta) * (n + 2) / 3) * z_mp[n + 1]
                for n in range(n_max + 1)]
        y = np.array([float(v) for v in y_mp])

        info = classify_regime(beta, gamma, g_f)
        z_limit = z_limit_last = None
        if info.mu < 0:
            t0, t1, t2 = z_mp[-3], z_mp[-2], z_mp[-1]
            denom = (t2 - t1) - (t1 - t0)
            aitken = t2 - (t2 - t1) ** 2 / denom if denom != 0 else t2
            z_limit_last = float(t2)
            if info.regime == REGIME_ANOMALOUS:
                z_limit = float(aitken)
        bracket_out = (float(lo), float(hi))

    params = ModelParams(alpha=beta, gamma=gamma, nu=nu, f=f,
                         branching=1, depth=n_max)
    return StationaryProfile(
        z=z, z_log2=z_log2, y=y, g=g_f, mu=mu_f, regime=info.regime,
        z_limit=z_limit, z_limit_last=z_limit_last, bracket=bracket_out,
        params=params, tail_start=tail_start, regime_info=info,
    )


def asymptotic_flux(z: float, beta: float, nu: float) -> float:
    """Limiting border flux 2^{-4 beta/3} nu^3 z^3 of an anomalous profile."""
    if z < 0:
        raise DomainError("z must be >= 0")
    return pow2(-4.0 * beta / 3.0) * nu ** 3 * z ** 3


def stationary_tree_profile(f: float, nu: float, alpha: float,
                            alpha_tilde: float, depth: int, gamma: float = 1.0,
                            n_max: int | None = None,
                            bisection_tol: float = 1e-12) -> TreeState:
    """Unique stationary positive tree profile.

    Inviscid: the explicit formula.  Viscous: solve the classic profile with
    beta = alpha - alpha_tilde and forcing 2^{alpha_tilde} f, then lift
    (the lift maps that classic system onto the tree system with forcing f).
    """
    if not f > 0:
        raise DomainError("stationary profile requires f > 0")
    if not alpha > alpha_tilde:
        raise DomainError("requires alpha > alpha_tilde")
    if nu == 0.0:
        return inviscid_tree_profile(f, alpha, alpha_tilde, depth, gamma=gamma)
    beta = alpha - alpha_tilde
    f_classic = pow2(alpha_tilde) * f
    horizon = max(depth, 60) if n_max is None else n_max
    if horizon < depth:
        raise DomainError("n_max must cover the requested depth")
    profile = solve_viscous_stationary(f_classic, nu, beta, gamma,
                                       n_max=horizon, bisection_tol=bisection_tol)
    classic_params = ModelParams(alpha=beta, gamma=gamma, nu=nu, f=f_classic,
                                 branching=1, depth=depth)
    classic = TreeState(profile.y[: depth + 1], classic_params)
    lifted = lift_state(classic, LiftSpec(alpha_tilde=alpha_tilde, beta=beta))
    # pin the requested forcing exactly (the round trip through the scale
    # factor 2^{+-alpha_tilde} can be one ulp off for irrational scales)
    return TreeState(lifted.values, replace(lifted.params, f=f))
