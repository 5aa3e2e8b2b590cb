"""Time integration under Galerkin truncation and energy/flux diagnostics.

The integrator is an embedded Dormand-Prince 5(4) pair with FSAL.  Since
c_n = 2^{alpha n}, the Jacobian's spectral radius grows like 2^{alpha depth},
and on deep forced runs DP5's step is bounded by stability, not accuracy.
Every run therefore runs DOPRI5's stiffness test with matrix-free
Jacobian-vector products, and once it fires switches for good to RODAS4, a
stiffly accurate linearly implicit Rosenbrock step of order 4.  The
Jacobian's sparsity graph is the tree, so RODAS4 solves its stage matrix by
an O(n) leaves-to-root elimination (Kernel.factor); no dense matrix is ever
formed.  Both steps share one loop: landing on output times, rejection
causes, the positivity rule and the recording are the same.  Positivity
is enforced by step rejection (default): any step that would produce a
negative component is retried with half the step, so the balance diagnostics
are never polluted by clamping.  The work integrals entering the energy
balance (forcing input, per-generation viscous work, per-boundary flux) are
advanced with the same stage values and weights as the solution (under
RODAS4 as extra components whose Jacobian rows are the work rates'), so the
balance residual is consistent to the solver's order.

A run records a row of reductions per output time, not a state: full states
are kept only at t_end and at the times the caller names.  A row's energies
and fluxes are by-products of f at the recorded state, which the run
evaluates anyway (FSAL, or the re-evaluation after a flattening or a RODAS4
step): rhs_work hands out the generation energies before it scales them.

On trees a DP5 attempt costs memory traffic more than arithmetic, so it
makes as few passes over the state as it can: h is folded into the tableau
rows (a stage input is one matmul and one add, stage 2's one multiply), and
the error norm is also the attempt's finiteness check (see the stage loop).
The RODAS4 step keeps an explicit scan of its stages and its new solution,
since that solution is never an input of f before it is accepted.

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
    CapacityExceeded,
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
_A_LOWER = np.array([row + (0.0,) * (6 - len(row)) for row in _A])
_B = np.array((35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0))
_E = np.array((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40))
_ORDER = 5
_EPS = float(np.finfo(np.float64).eps)
#: why a step attempt was rejected, in the order Trajectory.rejected lists them
REJECTION_CAUSES = ("error norm", "non-finite", "positivity")

# DOPRI5's stiffness test (Hairer & Wanner II, IV.2): h lambda estimated
# every _STIFF_EVERY accepted steps, on every step while a verdict is
# pending and after every error-norm rejection; _STIFF_VERDICTS estimates
# above _STIFF_H_LAMBDA switch to RODAS4 for the rest of the run,
# _NONSTIFF_RESET below in a row clear the count.  Every run tests: an
# estimate costs two Jacobian-vector products, each about one RHS, and the
# RODAS4 step solves by an O(n) tree elimination.  DP5's stability boundary
# on the negative real axis is at h lambda = 3.3, and on stiff runs it
# settles at 3.14-3.2, so the threshold sits below that.
_STIFF_EVERY = 100
_STIFF_H_LAMBDA = 3.0
_STIFF_VERDICTS = 15
_NONSTIFF_RESET = 6

# RODAS4 (Hairer & Wanner II, IV.7; rodas.f, METH = 1), in the form with
# stage increments k_i: (1/(h gamma) I - J) k_i = F(Y_i) + sum_j C_ij/h k_j,
# Y_i = y + sum_j A_ij k_j for i <= 5, Y_6 = Y_5 + k_5, y_new = Y_6 + k_6.
# The method is stiffly accurate and k_6 is the error of its embedded
# order-3 solution Y_6.
_RODAS_GAMMA = 0.25
_RODAS_ORDER = 4
_RODAS_A = tuple(np.array(row) for row in (
    (),
    (1.544,),
    (0.9466785280815826, 0.2557011698983284),
    (3.314825187068521, 2.896124015972201, 0.9986419139977817),
    (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950),
))
_RODAS_C = tuple(np.array(row) for row in (
    (),
    (-5.6688,),
    (-2.430093356833875, -0.2063599157091915),
    (-0.1073529058151375, -9.594562251023355, -20.47028614809616),
    (7.496443313967647, -10.24680431464352, -33.99990352819905, 11.70890893206160),
    (8.083246795921522, -7.981132988064893, -31.52159432874371, 16.31930543123136,
     -6.058818238834054),
))


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
    the n -> n+1 boundary flux (factor 2 included).

    The solver statistics are deterministic, so identical inputs give
    identical counts.  rejected counts the rejected step attempts by cause,
    in the order of REJECTION_CAUSES, and n_stiffness_tests the stiffness
    estimates.  n_rhs counts the evaluations of f (Kernel.rhs and rhs_work
    calls; the Jacobian-vector products of the stiffness test and RODAS4's
    work_jvp are not among them), h_min and h_max are the smallest and the
    largest accepted step, and n_flattened counts the accepted steps whose
    negative components were set to 0.  stiff_from is the time the run
    switched from DP5 to RODAS4, None if it never did.  final is the state
    at t_end; kept maps the row index of each kept time, and of t_end, to
    its state.  Every state is read-only and holds its own copy.
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
    rejected: dict
    n_stiffness_tests: int
    n_rhs: int
    h_min: float
    h_max: float
    n_flattened: int
    stiff_from: float | None
    final: TreeState
    kept: dict

    @property
    def n_rejected(self) -> int:
        return sum(self.rejected.values())

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


def _step_factor(err_norm: float, order: int) -> float:
    """Step-size multiplier for an error norm of a method of this order:
    below 1 after a rejection (err_norm > 1), at most 5 after an
    acceptance."""
    if err_norm == 0.0:
        return 5.0
    return min(5.0, max(0.2, 0.9 * err_norm ** (-1.0 / order)))


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


def _stiffness_estimate(kernel, y, K, h, u, ju) -> float:
    """h rho(J) for DOPRI5's stiffness test, computed in the scratch arrays
    u and ju.  K[6] - K[5] = f(y5) - f(Y6), Y6 the input of stage 6, is
    about J (y5 - Y6): DOPRI5's quotient ||K[6] - K[5]|| / ||y5 - Y6|| is
    one power step from y5 - Y6.  That difference is mostly non-stiff
    error, so the quotient reads far below rho(J); two more power steps with
    the Jacobian at y give h sqrt(||J^2 u|| / ||u||), u = K[6] - K[5].

    At a bitwise fixed point u is 0, and the probe is y + 1 instead, after
    one more round of two steps: on stiff chains two steps from y + 1 read
    about 0.4 rho(J), four within 7%.  u is scaled to a largest entry of 1
    before each round, so that J^2 u cannot overflow where u is large (the
    stages of a rejected attempt)."""
    np.subtract(K[6], K[5], out=u)
    rounds = 1
    if not np.abs(u, out=ju).max() > 0.0:
        np.add(y, 1.0, out=u)
        rounds = 2
    for _ in range(rounds):
        largest = np.abs(u, out=ju).max()
        if not largest > 0.0:  # J^2 (y + 1) = 0
            return 0.0
        u /= largest
        norm_u = float(np.linalg.norm(u))
        kernel.jvp(y, u, out=ju)
        kernel.jvp(y, ju, out=u)
    return h * math.sqrt(float(np.linalg.norm(u)) / norm_u)


class _Rodas4:
    """Workspace and attempt of the RODAS4 step.  The work rates ride along
    as extra components whose Jacobian has the rows W_y and zero columns, so
    their stage increments k_q,i = h gamma (w(Y_i) + sum_j C_ij/h k_q,j +
    W_y(y) k_i) need no solve.  k and kq are the (6, n) and (6, nw) arrays
    of stage increments; integrate lends it the rows DP5 no longer uses."""

    def __init__(self, kernel, k, kq):
        self.kernel = kernel
        self.k = k
        self.kq = kq
        self.f = np.empty(k.shape[1])
        self.w = np.empty(kq.shape[1])

    def attempt(self, y, f0, w0, h, out):
        """One attempt over h from y >= 0, whose derivative and work rates
        are f0 and w0.  Writes the new solution to out and returns the
        increment of the work quadratures; the error estimate is self.k[5].
        The stage matrix is factored once, so each stage costs two sweeps
        over the tree."""
        kernel, k, kq = self.kernel, self.k, self.kq
        hg = h * _RODAS_GAMMA
        solve = kernel.factor(y, 1.0 / hg)
        f, w = f0, w0
        for i in range(6):
            if i == 5:
                out += k[4]  # Y_6 = Y_5 + k_5
            elif i:
                np.matmul(_RODAS_A[i], k[:i], out=out)
                out += y
            if i:
                f, w = kernel.rhs_work(out, out=self.f, work_out=self.w)
            c = _RODAS_C[i] / h
            solve(f + c @ k[:i], out=k[i])
            kq[i] = w + c @ kq[:i] + kernel.work_jvp(y, k[i])
            kq[i] *= hg
        out += k[5]
        return _RODAS_A[4] @ kq[:4] + kq[4] + kq[5]


def held_values(params: ModelParams, n_outputs: float, n_keep: int) -> float:
    """Values integrate holds: 11 work arrays (y, 7 stages, stage input, error,
    scratch), n_keep kept states, the final state and a row of 4 * depth + 5
    values at t = 0 and each output time, plus what RODAS4 adds once a run
    switches.  Its stage increments reuse DP5's stage rows; it adds its
    derivative and work rates, the factored stage matrix (a_p and the
    pivots: 2 n), up to 2 stage temporaries of n and 2 of the
    nw = 2 * depth + 2 work rates.  On a chain the factor and the sweep's
    copy of r are lists of Python floats, 32 bytes or 4 values per entry:
    12 n instead of 2 n.  n_outputs may be an inf float."""
    n = params.n_nodes
    nw = 2 * params.depth + 2
    stiff = (15 if params.branching == 1 else 5) * n + 3 * nw
    return (12 + n_keep) * n + stiff + (n_outputs + 1) * (4 * params.depth + 5)


@np.errstate(over="ignore", invalid="ignore")
def integrate(
    initial: TreeState,
    params: ModelParams | None = None,
    t_end: float = 1.0,
    opts: SolverOptions = SolverOptions(),
    output_times=(),
    keep=(),
) -> Trajectory:
    """Integrate from t = 0 to t_end with the embedded 5(4) pair, switching
    for good to RODAS4 once DOPRI5's stiffness test fires.  Any run may
    switch: the test costs two Jacobian-vector products every _STIFF_EVERY
    accepted steps and after each error-norm rejection, and never changes
    the steps of a run that does not switch.

    A row of reductions is recorded at t = 0 and at each output time in
    (0, t_end]; t_end always is one.  The solver lands on each output time
    exactly, stretching the last step onto it when that step ends within
    rounding of it; times within rounding of each other share a row (0.3 and
    3 * 0.1).  keep names output times in [0, t_end] whose state is kept
    besides the final one.  Raises CapacityExceeded before allocating when
    held_values exceeds params.max_nodes.
    """
    params = params or initial.params
    values = initial.values
    if values.shape[0] != params.n_nodes:
        raise DomainError("initial state length does not match params")
    if not np.isfinite(values).all():
        raise NonFiniteState("integrate: initial state contains non-finite entries")
    if values.min() < 0.0:
        raise DomainError("integrate: initial state has negative entries "
                          "(positive-solution mode)")
    if not t_end > 0:
        raise DomainError("t_end must be > 0")
    keep = {float(t) for t in keep}
    if not all(0.0 <= t <= t_end for t in keep):
        raise DomainError(f"keep times must lie in [0, {t_end!r}]")

    targets = []
    for t in sorted({float(t) for t in output_times if 0.0 < float(t) <= t_end}
                    | keep - {0.0} | {t_end}):
        if targets and t - targets[-1] <= _rounding_gap(t):
            targets.pop()  # one row serves both (0.3 and 3 * 0.1)
        targets.append(t)
    held = held_values(params, len(targets), len(keep))
    if held > params.max_nodes:
        raise CapacityExceeded(f"the run would hold {held:.3g} values, over "
                               f"the budget of {params.max_nodes}")

    y = np.array(values, dtype=np.float64)
    kernel = make_kernel(params)
    depth = params.depth
    nq_v = depth + 1

    n = y.size
    nw = 1 + nq_v + depth  # packed work-rate layout: [x0, visc..., flux...]
    q = np.zeros(nw)       # running quadratures, same layout

    times = np.array([0.0] + targets)
    # a time merged into a later one shares its row; the final state is kept
    kept_rows = {int(np.searchsorted(times, t)) for t in keep} | {len(targets)}
    energies, fluxes, work = (np.empty((times.size, k)) for k in (nq_v, depth, nw))
    min_value = np.empty(times.size)
    kept = {}

    K = np.zeros((7, n))
    W = np.zeros((7, nw))  # row 1 stays zero: stage 2 has zero b and e weights
    e_last = np.empty(nq_v)  # generation energies of the last rhs_work input
    yy = np.empty(n)   # stage input; after the last stage, the new solution
    err = np.empty(n)
    scratch = np.empty(n)

    def record(i, y, y_min):
        # K[0], W[0] and e_last always belong to y (the initial evaluation,
        # FSAL or a re-evaluation), so energies and fluxes need no pass over y
        energies[i] = e_last
        fluxes[i] = W[0, 1 + nq_v:]
        min_value[i] = y_min
        work[i] = q
        if i in kept_rows:
            kept[i] = TreeState(y, params)

    kernel.rhs_work(y, out=K[0], work_out=W[0], energies_out=e_last)
    if not np.isfinite(K[0]).all():
        raise NonFiniteState("integrate: derivative non-finite at initial state")
    record(0, y, y.min())

    reject_halve = opts.positivity_mode == "reject-and-halve"
    rtol, atol = opts.rel_tol, opts.abs_tol
    h = opts.initial_step or _initial_step(y, K[0], rtol, atol, t_end, opts.max_step)
    h = min(h, t_end, opts.max_step)

    t = 0.0
    ti = 0  # next output target index
    n_acc = 0
    rejected = dict.fromkeys(REJECTION_CAUSES, 0)
    consecutive_rej = 0
    just_rejected = False
    n_tests = 0
    n_rhs = 1  # f(y0) above
    n_flattened = 0
    h_min, h_max = math.inf, 0.0
    n_stiff = n_nonstiff = 0  # stiffness verdicts pending, non-stiff in a row
    rodas = None  # the RODAS4 workspace once the run has switched
    stiff_from = None
    order = _ORDER

    while t < t_end:
        target = targets[ti]
        # a step ending within rounding of the target is stretched onto it,
        # so the target is neither skipped nor followed by a vanishing step
        lands = t + h >= target - _rounding_gap(target)
        if lands:
            h = target - t
        if h <= _rounding_gap(t):
            raise StepSizeUnderflow(f"step {h:.3e} underflowed at t = {t!r}")

        if rodas is None:
            ha = h * _A_LOWER  # h folded into the weights saves a pass per stage
            for s in range(6):
                if s == 0:  # one weight: a multiply takes a third of a matmul's time
                    np.multiply(K[0], ha[0, 0], out=yy)
                else:
                    np.matmul(ha[s, :s + 1], K[: s + 1], out=yy)
                yy += y
                if s == 0:
                    kernel.rhs(yy, out=K[1])  # b and e weights are zero: no work
                else:
                    kernel.rhs_work(yy, out=K[s + 1], work_out=W[s + 1],
                                    energies_out=e_last)
            # the last A row is the b row (FSAL), so yy is now the 5th-order
            # solution y5 and K[6] = f(y5).  A finite error norm is the whole
            # finiteness check of the attempt:
            # - f of a state with a non-finite entry is non-finite, at that
            #   node or at its parent;
            # - every stage but K[1] has a nonzero e weight, so a non-finite
            #   stage makes err non-finite (inf - inf and 0 * inf are NaN);
            # - K[1] enters K[2]'s input with weight 9/40, and y5 is K[6]'s.
            # Only on a lone undamped node, whose f is constant, can y5
            # overflow with finite stages: there y5 is one value to check.
            n_rhs += 6
            np.matmul(h * _E, K, out=err)
            err_norm = _error_norm(err, y, yy, rtol, atol, scratch)
            finite = math.isfinite(err_norm) and (n > 1 or math.isfinite(yy[0]))
        else:
            dq = rodas.attempt(y, K[0], W[0], h, out=yy)
            n_rhs += 5
            # y_new = Y_6 + k_6 reaches f only after it is accepted: scan it
            finite = bool(np.isfinite(rodas.k).all() and np.isfinite(yy).all())
            if finite:
                err_norm = _error_norm(rodas.k[5], y, yy, rtol, atol, scratch)
                finite = math.isfinite(err_norm)
        y_new = yy

        if not finite:
            cause, shrink = "non-finite", 0.5
        elif err_norm > 1.0:
            cause, shrink = "error norm", _step_factor(err_norm, order)
        elif (y_min := y_new.min()) < -atol and reject_halve:
            # components leaving exact zero receive high-order-small updates
            # of mixed sign that no halving makes positive; negativity inside
            # abs_tol is integration noise and is flattened below, anything
            # larger is a genuine overshoot and the step is retried
            cause, shrink = "positivity", 0.5
        else:
            cause = None
        if cause is not None:
            rejected[cause] += 1
            consecutive_rej += 1
            just_rejected = True
            if consecutive_rej > opts.max_rejections:
                raise MaxRejections(
                    f"{consecutive_rej} consecutive rejections ({cause}) at t = {t}")
            # an error-norm rejection is where a stability-bound DP5 shows,
            # and its stages are those of a whole attempt
            tests = cause == "error norm"
            h_taken, h = h, h * shrink
        else:
            consecutive_rej = 0
            n_acc += 1
            h_min, h_max = min(h_min, h), max(h_max, h)
            q += h * (_B @ W) if rodas is None else dq
            t = target if lands else t + h
            if y_min < 0.0:  # a component was flattened; its derivative is stale
                np.maximum(y_new, 0.0, out=y)
                n_flattened += 1
            else:
                y, yy = y_new, y  # the old y buffer takes the next stage inputs
            if y_min < 0.0 or rodas is not None:
                kernel.rhs_work(y, out=K[0], work_out=W[0], energies_out=e_last)
                n_rhs += 1
            else:
                K[0] = K[6]  # e_last came with K[6]
                W[0] = W[6]
            if t == target:
                ti += 1
                record(ti, y, y.min() if y_min < 0.0 else y_min)

            grow = _step_factor(err_norm, order)
            if just_rejected:
                grow = min(grow, 1.0)  # no growth right after a rejection
                just_rejected = False
            tests = n_acc % _STIFF_EVERY == 0 or n_stiff > 0
            h_taken, h = h, min(opts.max_step, h * grow)

        if tests and rodas is None:
            n_tests += 1
            if _stiffness_estimate(kernel, y, K, h_taken, err, scratch) > _STIFF_H_LAMBDA:
                n_stiff += 1
                n_nonstiff = 0
                if n_stiff == _STIFF_VERDICTS:
                    rodas = _Rodas4(kernel, K[1:], W[1:])
                    stiff_from = t
                    order = _RODAS_ORDER
            else:
                n_nonstiff += 1
                if n_nonstiff == _NONSTIFF_RESET:
                    n_stiff = 0

    return Trajectory(
        params=params, times=times, energies=energies, fluxes=fluxes,
        min_value=min_value, work_x0=work[:, 0], work_visc=work[:, 1:1 + nq_v],
        work_flux=work[:, 1 + nq_v:], n_accepted=n_acc, rejected=rejected,
        n_stiffness_tests=n_tests, n_rhs=n_rhs, h_min=h_min, h_max=h_max,
        n_flattened=n_flattened, stiff_from=stiff_from, final=kept[ti], kept=kept)


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
