"""Time integration under Galerkin truncation and energy/flux diagnostics.

The integrator is an embedded Dormand-Prince 5(4) pair with FSAL.  Positivity
is enforced by step rejection (default): any step that would produce a
negative component is retried with half the step, so the balance diagnostics
are never polluted by clamping.  The work integrals entering the energy
balance (forcing input, per-generation viscous work, per-boundary flux) are
advanced with the same stage values and weights as the solution, so the
balance residual is consistent to the solver's order.

A run records a row of reductions per output time, not a state: full states
are kept only at t_end and at the times the caller names.

Overflow is part of the control flow: a step whose stages overflow is
rejected, not reported.  integrate therefore runs under one
np.errstate(over="ignore", invalid="ignore"), entered once per call by its
decorator; rhs_tree and lift.verify_lift_equivariance enter the same state
around their kernel calls.  The kernel itself never touches the
floating-point error state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, TreeState, pow2
from .errors import (
    DomainError,
    ForcedRun,
    MaxRejections,
    NonFiniteState,
    RangeError,
    StepSizeUnderflow,
)
from .kernels import boundary_fluxes, generation_energies, make_kernel

# Dormand-Prince 5(4) tableau (autonomous form; no c column needed).
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_A_ROWS = tuple(np.array(row) for row in _A)
_B = np.array((35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0))
_E = np.array((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40))
_ORDER = 5
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class SolverOptions:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-14
    max_step: float = math.inf
    initial_step: float | None = None
    positivity_mode: str = "reject-and-halve"  # or "clamp-to-zero"
    max_rejections: int = 64

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise DomainError("tolerances must be > 0")
        if not (self.max_step > 0):
            raise DomainError("max_step must be > 0")
        if self.initial_step is not None and not (self.initial_step > 0):
            raise DomainError("initial_step must be > 0")
        if self.positivity_mode not in ("reject-and-halve", "clamp-to-zero"):
            raise DomainError(f"unknown positivity_mode {self.positivity_mode!r}")
        if self.max_rejections < 1:
            raise DomainError("max_rejections must be >= 1")


@dataclass(frozen=True)
class EnergyReport:
    """Energy bookkeeping of one state.

    per_generation[n] is the energy of generation n; cumulative[n] the energy
    of generations 0..n; boundary_flux[n] the instantaneous flux through the
    n -> n+1 boundary (n < depth).
    """

    per_generation: np.ndarray
    cumulative: np.ndarray
    total: float
    boundary_flux: np.ndarray


@dataclass
class Trajectory:
    """Per-output reductions of one run, plus the states it kept.

    Row i of every array belongs to times[i] (t = 0, then each output time):
    energies[i, g] is the energy of generation g, fluxes[i, n] the flux
    through the n -> n+1 boundary and min_value[i] the smallest component.
    work_x0 is the integral of the root intensity; work_visc[:, g] the
    integral of d_g * (generation-g energy); work_flux[:, n] the integral of
    the n -> n+1 boundary flux (factor 2 included).  final is the state at
    t_end; kept maps the row index of each kept time, and of t_end, to its
    state.  Every state is read-only and holds its own copy.
    """

    params: ModelParams
    times: np.ndarray
    energies: np.ndarray
    fluxes: np.ndarray
    min_value: np.ndarray
    work_x0: np.ndarray
    work_visc: np.ndarray
    work_flux: np.ndarray
    n_accepted: int
    n_rejected: int
    final: TreeState
    kept: dict

    def state_at(self, t: float) -> TreeState:
        """The state kept at time t (the final state at t_end)."""
        if (state := self.kept.get(self._index_of(t))) is None:
            raise RangeError(f"state at time {t} was not kept")
        return state

    def _index_of(self, t: float) -> int:
        times = self.times
        if t < times[0] or t > times[-1]:
            raise RangeError(f"time {t} outside trajectory range [{times[0]}, {times[-1]}]")
        i = int(np.searchsorted(times, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(times) and abs(times[j] - t) <= 1e-9 * max(1.0, abs(t)):
                return j
        raise RangeError(f"time {t} not among recorded output times")


def rhs_tree(state: TreeState, params: ModelParams | None = None) -> np.ndarray:
    """Time derivative of a state under Galerkin truncation.

    The root's parent value is the forcing f; children beyond the stored
    depth are zero.  For the chain (branching 1) shell -1 aliases f and
    shell depth+1 is zero.
    """
    params = params or state.params
    if not state.is_finite:
        raise NonFiniteState("rhs: state contains non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        return make_kernel(params).rhs(state.values)


def _step_factor(err_norm: float) -> float:
    """Step-size multiplier for an error norm: below 1 after a rejection
    (err_norm > 1), at most 5 after an acceptance."""
    if err_norm == 0.0:
        return 5.0
    return min(5.0, max(0.2, 0.9 * err_norm ** (-1.0 / _ORDER)))


def _rounding_gap(t: float) -> float:
    """Times closer than this to t are t up to rounding: a step ending that
    close to an output time lands on it, and a shorter step underflows."""
    return 16.0 * _EPS * max(abs(t), 1.0)


def _error_norm(err, y, y5, rtol, atol, scratch) -> float:
    """RMS of err / (atol + rtol * max(|y|, |y5|)) for y >= 0, computed in
    scratch without temporaries; bit-equal to the np.mean form."""
    sc = np.abs(y5, out=scratch)
    np.maximum(sc, y, out=sc)
    sc *= rtol
    sc += atol
    np.divide(err, sc, out=sc)
    np.square(sc, out=sc)
    return math.sqrt(float(np.add.reduce(sc)) / sc.size)


def _initial_step(y, f0, rel_tol, abs_tol, t_end, max_step):
    sc = abs_tol + rel_tol * np.abs(y)
    d0 = math.sqrt(float(np.mean(np.square(y / sc))))
    d1 = math.sqrt(float(np.mean(np.square(f0 / sc))))
    if not (math.isfinite(d0) and math.isfinite(d1)) or d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    return min(h0, 0.1 * t_end, max_step)


def held_values(params: ModelParams, n_outputs: float, n_keep: int) -> float:
    """Values integrate holds: 11 work arrays (y, 7 stages, stage input, error,
    scratch), n_keep kept states, the final state and a row of 4 * depth + 5
    values at t = 0 and each output time.  n_outputs may be an inf float."""
    return (12 + n_keep) * params.n_nodes + (n_outputs + 1) * (4 * params.depth + 5)


@np.errstate(over="ignore", invalid="ignore")
def integrate(
    initial: TreeState,
    params: ModelParams | None = None,
    t_end: float = 1.0,
    opts: SolverOptions = SolverOptions(),
    output_times=(),
    keep=(),
) -> Trajectory:
    """Integrate from t = 0 to t_end with the embedded 5(4) pair.

    A row of reductions is recorded at t = 0 and at each output time in
    (0, t_end]; t_end always is one.  The solver lands on each output time
    exactly, stretching the last step onto it when that step ends within
    rounding of it; times within rounding of each other share a row (0.3 and
    3 * 0.1).  keep names output times in [0, t_end] whose state is kept
    besides the final one.
    """
    params = params or initial.params
    y = np.array(initial.values, dtype=np.float64)
    if y.shape[0] != params.n_nodes:
        raise DomainError("initial state length does not match params")
    if not np.isfinite(y).all():
        raise NonFiniteState("integrate: initial state contains non-finite entries")
    if y.min() < 0.0:
        raise DomainError("integrate: initial state has negative entries "
                          "(positive-solution mode)")
    if not t_end > 0:
        raise DomainError("t_end must be > 0")
    keep = {float(t) for t in keep}
    if not all(0.0 <= t <= t_end for t in keep):
        raise DomainError(f"keep times must lie in [0, {t_end!r}]")

    kernel = make_kernel(params)
    depth = params.depth
    nq_v = depth + 1

    targets = []
    for t in sorted({float(t) for t in output_times if 0.0 < float(t) <= t_end}
                    | keep - {0.0} | {t_end}):
        if targets and t - targets[-1] <= _rounding_gap(t):
            targets.pop()  # one row serves both (0.3 and 3 * 0.1)
        targets.append(t)

    n = y.size
    nw = 1 + nq_v + depth  # packed work-rate layout: [x0, visc..., flux...]
    q = np.zeros(nw)       # running quadratures, same layout

    times = np.array([0.0] + targets)
    # a time merged into a later one shares its row; the final state is kept
    kept_rows = {int(np.searchsorted(times, t)) for t in keep} | {len(targets)}
    energies, fluxes, work = (np.empty((times.size, k)) for k in (nq_v, depth, nw))
    min_value = np.empty(times.size)
    kept = {}

    def record(i, y):
        energies[i] = generation_energies(params, y)
        fluxes[i] = boundary_fluxes(params, y)
        min_value[i] = y.min()
        work[i] = q
        if i in kept_rows:
            kept[i] = TreeState(y, params)

    record(0, y)

    reject_halve = opts.positivity_mode == "reject-and-halve"
    rtol, atol = opts.rel_tol, opts.abs_tol

    K = np.zeros((7, n))
    W = np.zeros((7, nw))  # row 1 stays zero: stage 2 has zero b and e weights
    yy = np.empty(n)   # stage input; after the last stage, the new solution
    err = np.empty(n)
    scratch = np.empty(n)

    kernel.rhs_work(y, out=K[0], work_out=W[0])
    if not np.isfinite(K[0]).all():
        raise NonFiniteState("integrate: derivative non-finite at initial state")
    h = opts.initial_step or _initial_step(y, K[0], rtol, atol, t_end, opts.max_step)
    h = min(h, t_end, opts.max_step)

    t = 0.0
    ti = 0  # next output target index
    n_acc = 0
    n_rej = 0
    consecutive_rej = 0
    just_rejected = False

    while t < t_end:
        target = targets[ti]
        # a step ending within rounding of the target is stretched onto it,
        # so the target is neither skipped nor followed by a vanishing step
        lands = t + h >= target - _rounding_gap(target)
        if lands:
            h = target - t
        if h <= _rounding_gap(t):
            raise StepSizeUnderflow(f"step {h:.3e} underflowed at t = {t!r}")

        for s in range(6):
            np.matmul(_A_ROWS[s], K[: s + 1], out=yy)
            yy *= h
            yy += y
            if s == 0:
                kernel.rhs(yy, out=K[1])  # b and e weights are zero: no work
            else:
                kernel.rhs_work(yy, out=K[s + 1], work_out=W[s + 1])
        # the last A row is the b row (FSAL), so yy is now the 5th-order
        # solution and K[6] its derivative: a finite K[6] means a finite y5
        y5 = yy
        finite = bool(np.isfinite(K[1:]).all())
        if finite:
            np.matmul(_E, K, out=err)
            err *= h
            err_norm = _error_norm(err, y, y5, rtol, atol, scratch)
            finite = math.isfinite(err_norm)

        if not finite:
            cause, shrink = "non-finite", 0.5
        elif err_norm > 1.0:
            cause, shrink = "error norm", _step_factor(err_norm)
        elif (y5_min := y5.min()) < -atol and reject_halve:
            # components leaving exact zero receive high-order-small updates
            # of mixed sign that no halving makes positive; negativity inside
            # abs_tol is integration noise and is flattened below, anything
            # larger is a genuine overshoot and the step is retried
            cause, shrink = "positivity", 0.5
        else:
            cause = None
        if cause is not None:
            n_rej += 1
            consecutive_rej += 1
            just_rejected = True
            if consecutive_rej > opts.max_rejections:
                raise MaxRejections(
                    f"{consecutive_rej} consecutive rejections ({cause}) at t = {t}")
            h *= shrink
            continue

        # accept
        consecutive_rej = 0
        n_acc += 1
        q += h * (_B @ W)
        t = target if lands else t + h
        if y5_min < 0.0:  # a component was flattened; FSAL derivative is stale
            np.maximum(y5, 0.0, out=y)
            kernel.rhs_work(y, out=K[0], work_out=W[0])
        else:
            y, yy = y5, y  # the old y buffer takes the next stage inputs
            K[0] = K[6]
            W[0] = W[6]
        if t == target:
            ti += 1
            record(ti, y)

        grow = _step_factor(err_norm)
        if just_rejected:
            grow = min(grow, 1.0)  # no growth right after a rejection
            just_rejected = False
        h = min(opts.max_step, h * grow)

    return Trajectory(
        params=params, times=times, energies=energies, fluxes=fluxes,
        min_value=min_value, work_x0=work[:, 0], work_visc=work[:, 1:1 + nq_v],
        work_flux=work[:, 1 + nq_v:], n_accepted=n_acc, n_rejected=n_rej,
        final=kept[ti], kept=kept)


def energy_report(state: TreeState, params: ModelParams | None = None) -> EnergyReport:
    """Per-generation energies, cumulative energies and boundary fluxes.

    All sums are fixed-order pairwise reductions.
    """
    params = params or state.params
    per_gen = generation_energies(params, state.values)
    cumulative = np.cumsum(per_gen)
    return EnergyReport(
        per_generation=per_gen,
        cumulative=cumulative,
        total=float(cumulative[-1]),
        boundary_flux=boundary_fluxes(params, state.values),
    )


def balance_residual(traj: Trajectory, s: float, t: float,
                     generation: int | None = None) -> float:
    """Energy balance defect over [s, t]:

        E_m(t) - E_m(s) - 2 f^2 int X_0 + 2 nu sum_{g<=m} d_g int E_gen_g

    with m = generation (default: the truncation depth).  For the truncated
    system at m = depth this is ~0 up to integrator error (the truncated
    border term vanishes identically); at m < depth it equals minus the
    integrated flux through the m -> m+1 boundary.
    """
    if not s < t:
        raise RangeError(f"need s < t, got s = {s}, t = {t}")
    i = traj._index_of(s)
    j = traj._index_of(t)
    params = traj.params
    m = params.depth if generation is None else generation
    if not 0 <= m <= params.depth:
        raise RangeError(f"observation generation {m} outside 0..{params.depth}")
    e_t = float(np.add.reduce(traj.energies[j, : m + 1]))
    e_s = float(np.add.reduce(traj.energies[i, : m + 1]))
    forcing = 2.0 * params.f ** 2 * (traj.work_x0[j] - traj.work_x0[i])
    viscous = 2.0 * params.nu * float(
        np.add.reduce(traj.work_visc[j, : m + 1] - traj.work_visc[i, : m + 1]))
    return e_t - e_s - forcing + viscous


def flux_budget_check(traj: Trajectory, n: int) -> tuple[float, float]:
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


def dissipation_time_bound(epsilon: float, eta: float,
                           alpha: float, alpha_tilde: float) -> float:
    """Horizon T by which any positive solution with E(0) <= eta has
    E(T) <= epsilon (inviscid, unforced, alpha > alpha_tilde):

        T = 2 sqrt(2) eta^{3/2} epsilon^{-2} (1 - q)^{-3},  q = 2^{-(alpha-alpha_tilde)/3}
    """
    if not (epsilon > 0 and eta > 0):
        raise DomainError("epsilon and eta must be > 0")
    if not alpha > alpha_tilde:
        raise DomainError(
            f"requires alpha > alpha_tilde, got {alpha} <= {alpha_tilde}")
    q = pow2(-(alpha - alpha_tilde) / 3.0)
    return 2.0 * math.sqrt(2.0) * eta ** 1.5 / (epsilon ** 2 * (1.0 - q) ** 3)
