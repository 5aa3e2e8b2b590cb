"""Self-similar decaying solutions X_j(t) = a_j / (t - t0), t0 < 0.

On the chain model the coefficients obey

    -b_n = 2^{beta n} b_{n-1}^2 - 2^{beta (n+1)} b_n b_{n+1},   b_{-1} = 0,

a one-parameter recurrence in b_0; only one b_0 yields the positive,
square-summable decaying branch.  In the scaled variables
w_n = 2^{beta n / 3} b_n the recurrence reads

    w_{n+1} = w_{n-1}^2 / w_n + q^{n+1},      q = 2^{-2 beta / 3},

so w_1 = q whatever b_0 is, and the wanted branch settles on a strictly
positive plateau.  It is solved as one boundary-value problem: the unknowns
are (w_0, w_2, ..., w_M), M = n_max + _PAD, the equations are the recurrence
for n = 1..M, and the plateau closure w_{M+1} = w_M ends it.  In this order
the Jacobian is tridiagonal, so each damped Newton step (started from
w = 1) is one O(M) Thomas solve.

The root is certified as in the stationary solver.  Off the root a
perturbation mode of ratio -2 takes over the forward recurrence and produces
dips (and rebound spikes) whose index parity tells the direction: w_n is
increasing in w_0 for even n >= 2 and decreasing for odd n, so a dip at an
even index means w_0 was too small.  _DIP_RATIO holds the dip/spike
threshold.  bisect_shooting classifies the two ends of the certified bracket
around the Newton w_0 with that rule; ends that do not read (raise, lower)
raise BracketFailure.  The trials run in decimal, on the float q.

The solution whose first nonzero coefficient sits at index n0 >= 1 is the
base solution shifted and scaled: b'_{n0+m} = 2^{-beta n0} b_m (the
recurrence is invariant under that map), so shifted_profile never
re-solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ModelParams, TreeState, pow2
from .errors import DomainError, ParameterMismatch
from .lift import LiftSpec, scale_factor
from .stationary import (
    _CERT_LEVELS,
    _PAD,
    _certificate_context,
    bisect_shooting,
    damped_newton,
)

#: Ratio between consecutive scaled coefficients that counts as a dip/spike.
_DIP_RATIO = 8.0


@dataclass(frozen=True)
class SelfSimilarProfile:
    """Coefficients of one self-similar solution.

    b holds the classic coefficients b_0..b_{n_max} (leading zeros when
    n0 >= 1).  After lift_selfsimilar, a[n] carries the per-generation tree
    coefficient a_j = 2^{-(n+2) alpha_tilde} b_n (constant within each
    generation; materialized on demand).  w_limit is the plateau of the
    scaled recurrence, a conditioning diagnostic.  bracket is the
    parity-certified bracket on b_0 = w_0.  newton_iterations counts the
    accepted damped Newton steps of the one solve, without the final
    correction below the tolerance; newton_residual is the largest final
    residual, relative to max(1, |x_n|).
    """

    t0: float
    beta: float
    b: np.ndarray
    n0: int = 0
    alpha_tilde: float | None = None
    a: np.ndarray | None = None
    w_limit: float | None = None
    bracket: tuple[float, float] | None = None
    newton_iterations: int | None = None
    newton_residual: float | None = None

    @property
    def n_max(self) -> int:
        return len(self.b) - 1

    def classic_state(self, t: float = 0.0) -> TreeState:
        """Y_n(t) = b_n / (t - t0) for n = 0..n_max, a state of the
        unforced inviscid chain with alpha = beta."""
        if t <= self.t0:
            raise DomainError(f"t = {t} not above the pole t0 = {self.t0}")
        return TreeState(self.b / (t - self.t0),
                         ModelParams(alpha=self.beta, branching=1, depth=self.n_max))


def _classify_dips(w0, q_eps, n_levels):
    """Classify a trial w_0 by the parity of the first dip of the scaled
    recurrence; spikes are rebounds of a dip one index earlier.  Floats are
    converted exactly, and q^{n+1} is multiplied up level by level."""
    with _certificate_context() as (D, _):
        dip, spike = 1 / D(_DIP_RATIO), D(_DIP_RATIO)
        wm1, wn, q, power = D(0), D(w0), D(q_eps), D(1)
        for n in range(n_levels):
            power *= q
            nxt = wm1 * wm1 / wn + power
            m = n + 1
            if m >= 2:
                r = nxt / wn
                if r < dip:
                    return ("raise" if m % 2 == 0 else "lower"), m
                if r > spike:
                    return ("raise" if (m - 1) % 2 == 0 else "lower"), m
            wm1, wn = wn, nxt
    return "survive", None


def _selfsimilar_system(x, q, q_pow):
    """Residual w_{n+1} - q^{n+1} - w_{n-1}^2 / w_n, n = 1..M, and its
    Jacobian in the unknowns x = (w_0, w_2, ..., w_M); w_1 = q and the
    closure w_{M+1} = w_M.  None unless every w_n > 0."""
    w = np.concatenate((x[:1], [q], x[1:]))
    if not (w > 0).all():
        return None
    nxt = np.append(w[2:], w[-1])
    ratio = w[:-1] / w[1:]                  # w_{n-1} / w_n
    diag = ratio ** 2
    diag[0] = -2.0 * ratio[0]               # d/dw_0 of the n = 1 row
    diag[-1] += 1.0
    sub = -2.0 * ratio
    sub[1] = 0.0                            # w_1 is not an unknown
    return nxt - q_pow - w[:-1] * ratio, sub, diag, np.ones(len(x))


def solve_selfsimilar_classic(t0: float, beta: float, n_max: int, *,
                              n0: int = 0) -> SelfSimilarProfile:
    """Solve for the positive decaying coefficient sequence and certify b_0
    by the parity rule.

    The algebraic system for b does not involve t0; the pole time only enters
    when the profile is evaluated, Y_n(t) = b_n/(t - t0).
    """
    if not -math.inf < t0 < 0:
        raise DomainError(f"t0 must be finite and negative, got {t0}")
    if not 0 < beta < math.inf:
        raise DomainError(f"beta must be finite and > 0, got {beta}")
    if n_max < 2:
        raise DomainError(f"n_max must be >= 2, got {n_max}")
    if not 0 <= n0 < n_max:
        raise DomainError(f"n0 must satisfy 0 <= n0 < n_max = {n_max}, got {n0}")

    top = n_max + _PAD
    q = pow2(-2.0 * beta / 3.0)
    q_pow = q ** np.arange(2.0, top + 2)
    x, iterations, residual = damped_newton(
        lambda x: _selfsimilar_system(x, q, q_pow), np.ones(top), "w")
    w = np.concatenate((x[:1], [q], x[1:]))
    bracket = bisect_shooting(lambda a: _classify_dips(a, q, _CERT_LEVELS),
                              float(w[0]), what="b_0")

    b = w[: n_max + 1] * np.exp2(-beta / 3.0 * np.arange(n_max + 1))
    profile = SelfSimilarProfile(t0=float(t0), beta=float(beta), b=b,
                                 w_limit=float(w[n_max]),
                                 bracket=bracket,
                                 newton_iterations=iterations,
                                 newton_residual=residual)
    return shifted_profile(profile, n0) if n0 > 0 else profile


def shifted_profile(profile: SelfSimilarProfile, n0: int) -> SelfSimilarProfile:
    """Solution whose first nonzero coefficient sits at index n0:
    b'_{n0+m} = 2^{-beta n0} b_m, zeros below."""
    if n0 == 0:
        return profile
    if profile.n0 != 0:
        raise DomainError("shift from the base (n0 = 0) profile")
    scale = pow2(-profile.beta * n0)
    b = np.zeros(profile.n_max + 1)
    b[n0:] = scale * profile.b[: profile.n_max + 1 - n0]
    shifted = replace(profile, b=b, n0=n0, a=None)
    if profile.alpha_tilde is not None:
        return lift_selfsimilar(shifted, profile.alpha_tilde)
    return shifted


def lift_selfsimilar(profile: SelfSimilarProfile, alpha_tilde: float) -> SelfSimilarProfile:
    """Fill the per-generation tree coefficients a_n = 2^{-(n+2) alpha_tilde} b_n
    for n = 0..n_max (tree exponent alpha = beta + alpha_tilde).

    The profile stays in formula form; a caller materializes it per
    generation (cli.build_initial does).
    """
    if alpha_tilde < 0:
        raise ParameterMismatch("alpha_tilde must be >= 0")
    spec = LiftSpec(alpha_tilde=alpha_tilde, beta=profile.beta)
    a = np.array([scale_factor(spec, n) * profile.b[n]
                  for n in range(profile.n_max + 1)])
    return replace(profile, alpha_tilde=float(alpha_tilde), a=a)
