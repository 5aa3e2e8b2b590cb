"""Stationary solutions: explicit inviscid profiles, the viscous shell
recurrence with its Newton solver and parity certificate, regime
classification, and the limiting border flux.

The viscous stationary classic profile is found through the rescaled
variables Z_n = nu^{-1} 2^{beta (n+2)/3} Y_n, which obey

    Z_{-1} = g := nu^{-1} 2^{beta/3} f,
    Z_{n+1} = Z_{n-1}^2 / Z_n - 2^{mu n},      mu = gamma - (2/3) beta.

Exactly one Z_0 keeps the sequence positive, and shooting forward from it is
unstable: relative error in Z_0 roughly doubles per level.  The sequence is
therefore solved as one boundary-value problem in u_n = ln Z_n, n = 0..M with
M = n_max + _PAD:

    logaddexp(u_{n+1}, mu n ln 2) = 2 u_{n-1} - u_n,      u_{-1} = ln g,

closed by Z_{M+1} = Z_M for mu < 0 (the plateau) and Z_{M+1} = 0 for mu >= 0
(doubly exponential decay).  Each equation couples n-1, n and n+1, so the
Jacobian is tridiagonal with positive pivots and a damped Newton step
(Deuflhard's natural monotonicity test) is one O(M) Thomas solve.  The
window starts at _WINDOW_STEP levels and grows by as many at a time; each new
level is seeded with the contracting form of the recurrence,
Z_m = Z_{m-1}^2 / (2^{mu m} + Z_{m+1}), taking Z_{m+1} ~ Z_{m-1}.  Log
variables keep the doubly exponential tail informative where Z underflows
float64.

The Newton root is certified by the parity rule of the forward recurrence:
Z_n is increasing in Z_0 for even n and decreasing for odd n, so a trial whose
first non-positive value has an even index lies below the root, odd above.
bisect_shooting classifies the two ends of the bracket Z_0 (1 -+ _CERT_HALF_WIDTH)
in decimal, on the float g and mu; they must read (raise, lower), so the parity
root lies within _CERT_HALF_WIDTH of the Newton root, or BracketFailure is raised.
"""

from __future__ import annotations

import contextlib
import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import ModelParams, TreeState, pow2
from .errors import BracketFailure, DomainError, NoConvergence
from .lift import LiftSpec, lift_state

REGIME_INVISCID = "InviscidExplicit"
REGIME_REGULAR = "ViscousRegular"
REGIME_ANOMALOUS = "ViscousAnomalous"
REGIME_SMALL_FORCING = "ViscousSmallForcingRegular"

#: levels solved past n_max, so that the closure's error dies out before n_max
_PAD = 40
#: levels of the first Newton window and of each extension
_WINDOW_STEP = 20
#: Newton stops when no step component exceeds this, relative to max(1, |x|);
#: that last step is still taken, so the result is accurate to rounding
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 100
#: smallest damping factor before Newton gives up
_LAMBDA_MIN = 1e-10
#: half-width h of the certified bracket root (1 -+ h), relative to the
#: Newton root, so the bracket is narrower than 1e-12 of it
_CERT_HALF_WIDTH = 4e-13
#: a trial at relative distance h departs within about 2 log2(1/h) levels and
#: each level costs 0.35 digits: 20 + 2 ceil(log2(1/h)) levels, 60 + 0.35 of them
_CERT_LEVELS = 104
_CERT_DPS = 96
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class RegimeInfo:
    regime: str
    mu: float
    g: float | None
    threshold: float | None


def classify_regime(beta: float, gamma: float, g: float | None) -> RegimeInfo:
    """Regime of the viscous stationary solution from (beta, gamma, g).

    mu >= 0 (equivalently 3*gamma >= 2*beta, boundary included) is regular
    and conservative; mu < 0 with g above 1/(1 - 2^mu) is anomalous; mu < 0
    below the threshold is reported as inconclusive (the anomaly is only
    established for large forcing).
    """
    mu = gamma - 2.0 * beta / 3.0
    if mu >= 0.0:
        return RegimeInfo(regime=REGIME_REGULAR, mu=mu, g=g, threshold=None)
    threshold = 1.0 / (1.0 - pow2(mu))
    if g is not None and g > threshold:
        return RegimeInfo(regime=REGIME_ANOMALOUS, mu=mu, g=g, threshold=threshold)
    return RegimeInfo(regime=REGIME_SMALL_FORCING, mu=mu, g=g, threshold=threshold)


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


@dataclass(frozen=True)
class StationaryProfile:
    """Solved stationary profile in rescaled and physical variables.

    z[i] = Z_{i-1} for i = 0..n_max+1 (so z[0] = g); z_log2 carries log2 of
    the same values and stays informative where the doubly exponential tail
    underflows float64.  y is the recovered classic profile
    Y_n = nu 2^{-beta(n+2)/3} Z_n.  bracket is the parity-certified bracket
    on Z_0; newton_iterations counts the Newton steps over every window, and
    newton_residual is the largest final residual, each relative to
    max(1, |ln Z_n|).
    """

    z: np.ndarray
    z_log2: np.ndarray
    y: np.ndarray
    g: float
    mu: float
    regime: str
    z_limit: float | None
    bracket: tuple[float, float]
    params: ModelParams
    regime_info: RegimeInfo
    newton_iterations: int
    newton_residual: float

    @property
    def state(self) -> TreeState:
        return TreeState(self.y, self.params)


def thomas(sub, diag, sup, rhs) -> np.ndarray:
    """Solve a tridiagonal system by elimination without pivoting.

    Row i reads sub[i] x[i-1] + diag[i] x[i] + sup[i] x[i+1] = rhs[i];
    sub[0] and sup[-1] meet zeros and drop out.  The callers' pivots never
    vanish.  The sweep is sequential, so it runs on Python floats; numpy
    would pay one call per row."""
    n = len(diag)
    c = [0.0] * n
    d = [0.0] * n
    c_prev = d_prev = 0.0
    for i in range(n):
        p = diag[i] - sub[i] * c_prev
        c_prev = c[i] = sup[i] / p
        d_prev = d[i] = (rhs[i] - sub[i] * d_prev) / p
    x_next = 0.0
    for i in range(n - 1, -1, -1):
        x_next = d[i] = d[i] - c[i] * x_next
    return np.array(d)


def damped_newton(system, x, what):
    """Solve system(x) = 0 by Newton with Deuflhard's natural monotonicity
    test: a step of length lam is accepted when the simplified correction at
    the trial point, solved with the old Jacobian, is at most (1 - lam/2)
    times the full one.  Sizes are max-norms relative to max(1, |x|).

    system(x) -> (r, sub, diag, sup), the residual and tridiagonal Jacobian,
    or None where x leaves the system's domain.
    Returns (x, iterations, largest relative residual).
    """
    lam = 1.0
    for it in range(_NEWTON_MAX_ITER + 1):
        r, *band = system(x)
        band = [v.tolist() for v in band]
        weight = np.maximum(1.0, np.abs(x))
        dx = thomas(*band, (-r).tolist())
        size = float(np.max(np.abs(dx) / weight))
        if not math.isfinite(size):
            break
        if size <= _NEWTON_TOL:
            x = x + dx
            r = system(x)[0]
            return x, it, float(np.max(np.abs(r) / np.maximum(1.0, np.abs(x))))
        lam = min(1.0, 2.0 * lam)
        while True:
            trial = x + lam * dx
            out = system(trial)
            if out is not None:
                bar = thomas(*band, (-out[0]).tolist())
                if np.max(np.abs(bar) / weight) <= (1.0 - lam / 2.0) * size:
                    break
            lam /= 2.0
            if lam < _LAMBDA_MIN:
                raise NoConvergence(f"damped Newton for {what} stalled at "
                                    f"iteration {it}")
        x = trial
    raise NoConvergence(f"Newton for {what} did not converge in "
                        f"{_NEWTON_MAX_ITER} iterations")


@functools.cache
def _certificate_setup():
    """decimal, the certificate's context and ln 2 in it, on first use."""
    import decimal as dec

    traps = [dec.Overflow, dec.Underflow, dec.DivisionByZero, dec.InvalidOperation]
    ctx = dec.Context(prec=_CERT_DPS, Emax=dec.MAX_EMAX, Emin=dec.MIN_EMIN, traps=traps)
    return dec, ctx, ctx.ln(2)


@contextlib.contextmanager
def _certificate_context():
    """Yield (Decimal, ln 2) in a copy of the certificate's context; overflow,
    underflow, division by zero and invalid operations raise BracketFailure."""
    dec, ctx, ln2 = _certificate_setup()
    try:
        with dec.localcontext(ctx):
            yield dec.Decimal, ln2
    except dec.DecimalException as e:
        raise BracketFailure(f"certificate arithmetic failed: {type(e).__name__}") from e


def _classify_parity(g, a, mu, n_levels):
    """Forward recurrence classification: ('survive', None) or
    ('raise'|'lower', first_nonpositive_index).  Floats are converted
    exactly; 2^mu is formed once and 2^{mu n} multiplied up level by level."""
    with _certificate_context() as (D, ln2):
        zm1, zn, power = D(g), D(a), D(1)
        step = (D(mu) * ln2).exp()
        for n in range(n_levels):
            nxt = zm1 * zm1 / zn - power
            if nxt <= 0:
                k = n + 1
                return ("raise" if k % 2 == 0 else "lower"), k
            zm1, zn = zn, nxt
            power *= step
    return "survive", None


def bisect_shooting(classify, root, *, what="shooting parameter"):
    """Certify the bracket root (1 -+ _CERT_HALF_WIDTH) by the parity rule
    and return it: classify(a) -> ('raise'|'lower'|'survive', info) must read
    raise at its lower end and lower at its upper end, or BracketFailure is
    raised.  Nothing is narrowed; bench/spans.py wraps this function by name."""
    lo, hi = root * (1 - _CERT_HALF_WIDTH), root * (1 + _CERT_HALF_WIDTH)
    lo_c, _ = classify(lo)
    hi_c, _ = classify(hi)
    if lo_c != "raise" or hi_c != "lower":
        raise BracketFailure(
            f"bracket ({lo!r}, {hi!r}) on {what} classifies as "
            f"({lo_c}, {hi_c}); expected (raise, lower)")
    return lo, hi


def _stationary_system(u, ln_g, c, plateau):
    """Residual logaddexp(u_{n+1}, c_n) - 2 u_{n-1} + u_n and its Jacobian,
    n = 0..M, with u_{-1} = ln_g and the closure u_{M+1} = u_M (plateau) or
    Z_{M+1} = 0."""
    prev = np.concatenate(([ln_g], u[:-1]))
    nxt = np.concatenate((u[1:], [u[-1] if plateau else -np.inf]))
    lse = np.logaddexp(nxt, c)
    sup = np.exp(nxt - lse)
    diag = np.ones(len(u))
    if plateau:
        diag[-1] += sup[-1]
    return lse - 2.0 * prev + u, np.full(len(u), -2.0), diag, sup


def _seed(u, ln_g, mu, stop):
    """Extend u to levels 0..stop-1 with u_m = 2 u_{m-1} -
    logaddexp(mu m ln 2, u_{m-1}), the contracting closure with
    Z_{m+1} ~ Z_{m-1}."""
    out = u.tolist()
    prev = out[-1] if out else ln_g
    for m in range(len(out), stop):
        c = mu * m * _LN2
        top = max(c, prev)
        prev = 2.0 * prev - top - math.log1p(math.exp(min(c, prev) - top))
        out.append(prev)
    if not math.isfinite(prev):
        raise NoConvergence(f"ln Z leaves the float64 range before level {stop}; "
                            "lower n_max")
    return np.array(out)


def solve_viscous_stationary(f: float, nu: float, beta: float, gamma: float,
                             n_max: int = 60) -> StationaryProfile:
    """Solve the rescaled recurrence for the viscous stationary classic
    profile, certify Z_0 by the parity rule, and classify the regime."""
    if not (f > 0 and nu > 0 and beta > 0 and gamma > 0):
        raise DomainError("solve_viscous_stationary requires f, nu, beta, gamma > 0")
    if n_max < 2:
        raise DomainError(f"n_max must be >= 2, got {n_max}")
    mu_f = gamma - 2.0 * beta / 3.0
    g_f = pow2(beta / 3.0) * f / nu
    ln_g = beta / 3.0 * _LN2 + math.log(f) - math.log(nu)
    levels = n_max + 1 + _PAD
    plateau = mu_f < 0

    u = np.empty(0)
    iterations = 0
    while len(u) < levels:
        u = _seed(u, ln_g, mu_f, min(len(u) + _WINDOW_STEP, levels))
        c = mu_f * _LN2 * np.arange(len(u))
        u, its, residual = damped_newton(
            lambda x: _stationary_system(x, ln_g, c, plateau), u, "ln Z")
        iterations += its
    u = u[: n_max + 1]
    z = np.concatenate(([g_f], np.exp(u)))
    bracket = bisect_shooting(lambda a: _classify_parity(g_f, a, mu_f, _CERT_LEVELS),
                              float(z[1]), what="Z_0")

    z_log2 = np.concatenate(([math.log2(g_f)], u / _LN2))
    n = np.arange(n_max + 1)
    y = np.exp(math.log(nu) - beta * _LN2 / 3.0 * (n + 2) + u)

    info = classify_regime(beta, gamma, g_f)
    z_limit = None
    if info.regime == REGIME_ANOMALOUS:
        t0, t1, t2 = z[-3:]
        denom = (t2 - t1) - (t1 - t0)
        z_limit = float(t2 - (t2 - t1) ** 2 / denom if denom != 0 else t2)

    params = ModelParams(alpha=beta, gamma=gamma, nu=nu, f=f,
                         branching=1, depth=n_max)
    return StationaryProfile(
        z=z, z_log2=z_log2, y=y, g=g_f, mu=mu_f, regime=info.regime,
        z_limit=z_limit, bracket=bracket,
        params=params, regime_info=info, newton_iterations=iterations,
        newton_residual=residual,
    )


def asymptotic_flux(z: float, beta: float, nu: float) -> float:
    """Limiting border flux 2^{-4 beta/3} nu^3 z^3 of an anomalous profile.

    This is c_{n+1} Y_n^2 Y_{n+1} in the limit, the flux of d(X^2/2)/dt.
    boundary_fluxes and the energy balance carry the factor 2 of d(X^2)/dt,
    so a run's deep boundary_fluxes level off at twice this value."""
    if z < 0:
        raise DomainError("z must be >= 0")
    return pow2(-4.0 * beta / 3.0) * nu ** 3 * z ** 3


def stationary_tree_profile(f: float, nu: float, alpha: float,
                            alpha_tilde: float, depth: int, gamma: float = 1.0,
                            n_max: int | None = None) -> TreeState:
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
    profile = solve_viscous_stationary(f_classic, nu, beta, gamma, n_max=horizon)
    classic_params = ModelParams(alpha=beta, gamma=gamma, nu=nu, f=f_classic,
                                 branching=1, depth=depth)
    classic = TreeState(profile.y[: depth + 1], classic_params)
    lifted = lift_state(classic, LiftSpec(alpha_tilde=alpha_tilde, beta=beta))
    # pin the requested forcing exactly (the round trip through the scale
    # factor 2^{+-alpha_tilde} can be one ulp off for irrational scales)
    return TreeState(lifted.values, replace(lifted.params, f=f))
