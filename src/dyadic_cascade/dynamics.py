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
is enforced by step rejection: any step that would produce a negative
component is retried with half the step, so the balance diagnostics are
never polluted by clamping.  The work integrals entering the energy
balance (forcing input, per-generation viscous work, per-boundary flux) are
advanced with the same stage values and weights as the solution (under
RODAS4 as extra components whose Jacobian rows are the work rates'), so the
balance residual is consistent to the solver's order.

A run records a row of reductions per output time, not a state: the only
state it returns is the one at t_end.  At each row the caller names it
hands the caller's callable a read-only view of its own state, so a caller
that writes that state out holds no copy of it.  A row's energies
and fluxes are by-products of f at the recorded state, which the run
evaluates anyway (FSAL, or the re-evaluation after a flattening or a RODAS4
step): rhs_work hands out the generation energies before it scales them.

The loop owns y, the stage input, the 7 rows of stage work rates W and the
last generation energies; its stepper, a _Dp5 or _Rodas4 workspace, owns
its stage rows.  Both offer attempt, which writes a candidate solution to
the stage input and returns whether it is finite, its error norm and its
work increment, and accept, which leaves f, W[0] and the energies at the
accepted state.  A DP5 run holds 7 arrays of the state's size, a RODAS4 run
10.  The initial state is not among them (integrate copies and drops it),
and the final state is copied once the work arrays are gone.

Overflow is part of the control flow: a step whose stages overflow is
rejected, not reported.  integrate therefore runs its loop under one
np.errstate(over="ignore", invalid="ignore"), entered once per call by the
loop's decorator; rhs_tree and lift.verify_lift_equivariance enter the
same state around their kernel calls.  The kernel itself never touches the
floating-point error state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, TreeState, one_minus_pow2
from .errors import (
    CapacityExceeded,
    DomainError,
    MaxRejections,
    NonFiniteResult,
    NonFiniteState,
    RangeError,
    StepSizeUnderflow,
)
from .kernels import boundary_fluxes, generation_energies, make_kernel

# Dormand-Prince 5(4) tableau (autonomous form; no c column needed) over
# the rows of _Dp5's K: stages 1-5, then f(Y6) in stage 2's row once Y6
# is formed, since stage 2 has zero solution and error weights (b_2 = e_2 =
# 0).  Rows 0-4 are the inputs of stages 2-6; rows 5 and 6 the solution and
# error weights of stages 1, 6, 3, 4 and 5, in that row order, and _E7 the
# error weight of f(y5), the 7th stage (FSAL: its input is the b row's).
_TABLEAU = np.array((
    (1 / 5, 0.0, 0.0, 0.0, 0.0),
    (3 / 40, 9 / 40, 0.0, 0.0, 0.0),
    (44 / 45, -56 / 15, 32 / 9, 0.0, 0.0),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 11 / 84, 500 / 1113, 125 / 192, -2187 / 6784),
    (71 / 57600, 22 / 525, -71 / 16695, 71 / 1920, -17253 / 339200),
))
_E7 = -1 / 40
# the solution weights of the 7 rows of stage work rates W: stages 1-6, then
# f(y5)'s, whose weight is zero; row 1, stage 2's, stays zero
_B = np.array((35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0))
# columns of DP5's solution and error estimate formed at a time on larger
# states: blocks of this size gave the bytes of one BLAS thread under 1 and
# 2 threads
_NORM_BLOCK = 16384
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
# on the negative real axis is at h lambda = 3.3.  Where a stiff run's DP5
# settles varies: the viscous chains of the tests read 3.14-3.2, but
# chain_stiff's estimates, after one reading of 3.31, sit at 2.82-2.98 for
# eight tests.  At a threshold of 3.0 that verdict lapsed, the switch came
# at the 39th test, and about 800 DP5 steps were stability-bound; at 2.7
# the verdicts run from the 15th test, the switch comes at the 29th, and
# the run takes 1,711 step attempts, 296 of them RODAS4's (1,964 at 3.0
# when that was measured).  Lower is not better:
# at 2.0, a binary tree of depth 10 (alpha 2, unforced, inviscid) switches
# inside its fast transient, where RODAS4 needs small steps too, and takes
# 816 + 2,072 DP5 + RODAS4 attempts instead of 1,516 + 1,384, about 25%
# more CPU time.
_STIFF_EVERY = 100
_STIFF_H_LAMBDA = 2.7
_STIFF_VERDICTS = 15
_NONSTIFF_RESET = 6

# RODAS4 (Hairer & Wanner II, IV.7; rodas.f, METH = 1), in the form with
# stage increments k_i: (1/(h gamma) I - J) k_i = F(Y_i) + sum_j C_ij/h k_j,
# Y_i = y + sum_j A_ij k_j for i <= 5, Y_6 = Y_5 + k_5, y_new = Y_6 + k_6.
# The method is stiffly accurate and k_6 is the error of its embedded
# order-3 solution Y_6.
_RODAS_GAMMA = 0.25
_RODAS_A = tuple(np.array(row) for row in (
    (),
    (1.544,),
    (0.9466785280815826, 0.2557011698983284),
    (3.314825187068521, 2.896124015972201, 0.9986419139977817),
    (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950),
))
_RODAS_C = np.array((
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (-5.6688, 0.0, 0.0, 0.0, 0.0, 0.0),
    (-2.430093356833875, -0.2063599157091915, 0.0, 0.0, 0.0, 0.0),
    (-0.1073529058151375, -9.594562251023355, -20.47028614809616, 0.0, 0.0, 0.0),
    (7.496443313967647, -10.24680431464352, -33.99990352819905, 11.70890893206160,
     0.0, 0.0),
    (8.083246795921522, -7.981132988064893, -31.52159432874371, 16.31930543123136,
     -6.058818238834054, 0.0),
))
# The work quadratures' increment is A_4 . kq[:4] + kq[4] + kq[5] = v . kq,
# and their stage increments solve (I - gamma C) kq = h gamma (w + W_y K)
# row by row, w and K the (6, nw) and (6, n) work rates and stage
# increments.  So it is h gamma u . (w + W_y K) with u = v (I - gamma C)^-1,
# and since W_y is linear, u . W_y K = W_y (u . K): one work_jvp per attempt.


def _work_weights() -> np.ndarray:
    """u = v (I - gamma C)^-1, from u_j = v_j + gamma sum_{i>j} u_i C_ij back
    to front (numpy.linalg would add about 0.4 MB to the peak RSS of every
    process that imports this module)."""
    v = (*_RODAS_A[4], 1.0, 1.0)
    u = [0.0] * 6
    for j in reversed(range(6)):
        u[j] = v[j] + _RODAS_GAMMA * sum(u[i] * _RODAS_C[i, j] for i in range(j + 1, 6))
    return np.array(u)


_RODAS_U = _work_weights()


@dataclass(frozen=True)
class SolverOptions:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-14
    max_step: float = math.inf
    initial_step: float | None = None
    max_rejections: int = 64

    def __post_init__(self):
        # an infinite tolerance turns error control off; max_step's default
        # is inf, no bound
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise DomainError("tolerances must be finite and > 0")
        if not (self.max_step > 0):
            raise DomainError("max_step must be > 0")
        if self.initial_step is not None and not 0 < self.initial_step < math.inf:
            raise DomainError("initial_step must be finite and > 0")
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
    """Per-output reductions of one run, plus its final state.

    Row i of every array belongs to times[i] (t = 0, then each output time):
    energies[i, g] is the energy of generation g, fluxes[i, n] the flux
    through the n -> n+1 boundary and min_value[i] the smallest component.
    work_x0 is the integral of the root intensity; work_visc[:, g] the
    integral of d_g * (generation-g energy); work_flux[:, n] the integral of
    the n -> n+1 boundary flux (factor 2 included).

    The solver statistics are deterministic, so identical inputs give
    identical counts.  rejected counts the rejected step attempts by cause,
    in the order of REJECTION_CAUSES, attempts all step attempts by method,
    DP5 and RODAS4, and n_stiffness_tests the stiffness estimates.  n_rhs
    counts the evaluations of f (Kernel.rhs and rhs_work calls; the
    Jacobian-vector products of the stiffness test and RODAS4's work_jvp
    are not among them), h_min and h_max are the smallest and the
    largest accepted step, and n_flattened counts the accepted steps whose
    negative components were set to 0.  stiff_from is the time the run
    switched from DP5 to RODAS4, None if it never did.  final is the state
    at t_end, read-only, copied once the run has dropped its work arrays.
    The states at other rows went to the callables of integrate's keep.
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
    attempts: dict
    n_stiffness_tests: int
    n_rhs: int
    h_min: float
    h_max: float
    n_flattened: int
    stiff_from: float | None
    final: TreeState

    @property
    def n_rejected(self) -> int:
        return sum(self.rejected.values())

    def _index_of(self, t: float) -> int:
        return _row_of(self.times, t)


def _row_of(times, t: float) -> int:
    """Index of the time in times, sorted, that t names: the nearest one
    within rounding (see _rounding_gap).  Raises RangeError when there is
    none."""
    if not times[0] <= t <= times[-1] + _rounding_gap(times[-1]):
        raise RangeError(f"time {t} outside trajectory range [{times[0]}, {times[-1]}]")
    i = min(int(np.searchsorted(times, t)), len(times) - 1)
    if i > 0 and t - times[i - 1] < times[i] - t:
        i -= 1
    if abs(times[i] - t) > _rounding_gap(t):
        raise RangeError(f"time {t} not among recorded output times")
    return i


def rhs_tree(state: TreeState) -> np.ndarray:
    """Time derivative of a state under Galerkin truncation.

    The root's parent value is the forcing f; children beyond the stored
    depth are zero.  For the chain (branching 1) shell -1 aliases f and
    shell depth+1 is zero.
    """
    if not state.is_finite:
        raise NonFiniteState("rhs: state contains non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        return make_kernel(state.params).rhs(state.values)


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


def _landing_times(times, t_end: float) -> list:
    """The times after 0 at which a run to t_end records a row: those of
    times in (0, t_end], and t_end.  Times within rounding of each other
    share one row, at the later time (0.3 and 3 * 0.1)."""
    targets = []
    for t in sorted({float(t) for t in times if 0.0 < float(t) <= t_end} | {t_end}):
        if targets and t - targets[-1] <= _rounding_gap(t):
            targets.pop()
        targets.append(t)
    return targets


def _error_norm(err, y, y5, rtol, atol, scratch) -> float:
    """RMS of err / (atol + rtol * max(|y|, |y5|)) for y >= 0, bit-equal to
    the np.mean form.  The squares are formed in scratch, one np.add.reduce
    sums them.  RODAS4 passes its k[5] and its stage derivative; DP5's
    estimate has a norm of its own, _Dp5.error_norm."""
    _scaled_squares(err, y, y5, rtol, atol, scratch)
    return math.sqrt(float(np.add.reduce(scratch)) / y.size)


def _column_blocks(n: int) -> list:
    """The (lo, hi) column ranges in which DP5 forms its solution and error
    estimate: _NORM_BLOCK columns each.  A last block of one column would be
    a dot product, which sums in another order than gemv: that column joins
    the block before it."""
    bounds = [0, *range(_NORM_BLOCK, n - 1, _NORM_BLOCK), n]
    return list(zip(bounds, bounds[1:]))


def _estimate_squares(p, f7, he7, y, y5, rtol, atol, err, out):
    """err = p + he7 f7 and out its _scaled_squares."""
    np.multiply(f7, he7, out=err)
    err += p
    _scaled_squares(err, y, y5, rtol, atol, out)


def _scaled_squares(err, y, y5, rtol, atol, out):
    """out = (err / (atol + rtol * max(|y|, |y5|)))^2, without temporaries."""
    np.abs(y5, out=out)
    np.maximum(out, y, out=out)
    out *= rtol
    out += atol
    np.divide(err, out, out=out)
    np.square(out, out=out)


def _stiffness_estimate(kernel, y, f_y5, f_y6, h, u, ju, scratch=None) -> float:
    """h rho(J) for DOPRI5's stiffness test from f_y5 = f(y5) and f_y6 =
    f(Y6), Y6 the input of stage 6, computed in the scratch arrays u and ju
    (_Dp5.stiffness passes K[2] and the stage input).  scratch goes to
    Kernel.jvp: _Dp5.stiffness passes K[3:5], and K[3], f(y5), is read only
    to form u; the estimate is bit-equal without it.  f(y5) - f(Y6) is about
    J (y5 - Y6): DOPRI5's quotient ||f(y5) - f(Y6)|| / ||y5 - Y6|| is one
    power step from y5 - Y6.  That difference is mostly non-stiff error, so
    the quotient reads far below rho(J); two more power steps with the
    Jacobian at y give h sqrt(||J^2 u|| / ||u||), u = f(y5) - f(Y6).

    At a bitwise fixed point u is 0, and the probe is y + 1 instead, after
    one more round of two steps: on stiff chains two steps from y + 1 read
    about 0.4 rho(J), four within 7%.  u is scaled to a largest entry of 1
    before each round, so that J^2 u cannot overflow where u is large (the
    stages of a rejected attempt).  The norms are np.add.reduce of squares
    formed in ju, not np.linalg.norm: that is a BLAS dot, whose summation
    order depends on the BLAS thread count above about 10,000 values."""
    np.subtract(f_y5, f_y6, out=u)
    rounds = 1
    if not np.maximum.reduce(np.abs(u, out=ju)) > 0.0:
        np.add(y, 1.0, out=u)
        rounds = 2
    for _ in range(rounds):
        largest = np.maximum.reduce(np.abs(u, out=ju))
        if not largest > 0.0:  # J^2 (y + 1) = 0
            return 0.0
        u /= largest
        norm_u = math.sqrt(float(np.add.reduce(np.square(u, out=ju))))
        kernel.jvp(y, u, out=ju, scratch=scratch)
        kernel.jvp(y, ju, out=u, scratch=scratch)
    return h * math.sqrt(math.sqrt(float(np.add.reduce(np.square(u, out=ju)))) / norm_u)


class _Dp5:
    """Workspace and attempt of the Dormand-Prince 5(4) step.

    On trees an attempt costs memory traffic more than arithmetic: h is
    folded into the tableau rows (a stage input is one matmul and one add,
    stage 2's one multiply), and the error norm is the attempt's finiteness
    check.  On chains a numpy call costs more than its arithmetic, so the
    rows, stage blocks and h times the tableau are bound once per run.

    K's 5 rows hold stages 1-5; stage 2 has zero solution and error weights
    (b_2 = e_2 = 0), so f(Y6) takes its row once Y6 is formed.  y5 then goes
    to the stage input and P, the error estimate without its 7th stage, to
    K[2], both in column blocks of _NORM_BLOCK, so that each block of K is
    read from memory once; each block of P is formed in a buffer of the
    widest block, which lives only while P is formed (a state of one block
    has an array of P of its own).  K[3] and K[4] are then dead: f(y5) goes
    to K[3] (and to K[0], f(y), on acceptance: FSAL), and the norm forms P +
    h e_7 f(y5) in K[4] and its squares in K[2].  Other scratch holds
    nothing the run still needs: the initial step uses K[1] and the stage
    input, the stiffness estimate K[2] and the stage input, with its jvp
    temporaries in K[3:5], all written by the next attempt before it reads
    them.  W is the run's (7, nw) stage work rates: W[0] those at y, W[6]
    f(y5)'s, and W[1], stage 2's, stays zero."""

    # its key in Trajectory.attempts, its order and its f evaluations per attempt
    name, order, evals = "DP5", 5, 6

    def __init__(self, kernel, n, W, energies, rtol, atol):
        self.kernel, self.energies, self.rtol, self.atol = kernel, energies, rtol, atol
        self.K = K = np.zeros((5, n))
        self.rows, self.fy = tuple(K), K[0]
        self.W, self.w0, self.w6 = W, W[0], W[6]
        self.ht = ht = np.empty_like(_TABLEAU)  # h times the tableau
        self.hb, self.he = ht[5], ht[6]
        # stages 3-6: the weights of their inputs, the rows of K these
        # combine, and the rows their f and work rates go to
        self.inputs = [(ht[s, :s + 1], K[:s + 1], K[s + 1] if s < 4 else K[1], W[s + 1])
                       for s in range(1, 5)]
        self.blocks = _column_blocks(n)
        self.estimate = np.empty(n) if len(self.blocks) == 1 else None

    def initial_step(self, y, t_end, max_step, quotient):
        """The first step from y, whose derivative is self.fy, formed in K[1]
        and quotient, which no attempt has written yet; the operations are
        those of sc = abs_tol + rel_tol * |y| and mean((y / sc)^2), in that
        order, so h0 is bit-equal to that form."""
        sc, fy = self.rows[1], self.fy
        np.abs(y, out=sc)
        sc *= self.rtol
        sc += self.atol
        d0 = math.sqrt(float(np.mean(np.square(np.divide(y, sc, out=quotient), out=quotient))))
        d1 = math.sqrt(float(np.mean(np.square(np.divide(fy, sc, out=quotient), out=quotient))))
        if not (math.isfinite(d0) and math.isfinite(d1)) or d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        return min(h0, 0.1 * t_end, max_step)

    def attempt(self, y, h, out):
        """One attempt over h from y >= 0, whose derivative is self.fy: y5 to
        out; returns whether it is finite, the error norm and the work
        increment.  A finite error norm is the whole finiteness check: f of
        a non-finite entry is non-finite at that node or its parent; each of
        K's rows and f(y5) has a nonzero e weight (inf - inf and 0 * inf are
        NaN); stage 2 enters stage 3's input with weight 9/40, and y5 is
        f(y5)'s.  Only on a lone undamped node, whose f is constant, can y5
        overflow with finite stages: one value to check."""
        kernel, ht, e = self.kernel, self.ht, self.energies
        _, f6, _, f7, _ = self.rows
        # h folded into the weights saves a pass per stage; stage 1 has one
        # weight, and a multiply takes a third of a matmul's time
        np.multiply(_TABLEAU, h, out=ht)
        np.multiply(self.fy, ht[0, 0], out=out)
        out += y
        kernel.rhs(out, out=f6)  # b and e weights are zero: no work
        for weights, block, k_out, w_out in self.inputs:
            np.matmul(weights, block, out=out)
            out += y
            # stage 2 has served its last stage input once out is Y6
            kernel.rhs_work(out, out=k_out, work_out=w_out, energies_out=e)
        p = self.solution_and_estimate(y, out)
        kernel.rhs_work(out, out=f7, work_out=self.w6, energies_out=e)
        err_norm = self.error_norm(p, h, y, out)
        finite = math.isfinite(err_norm) and (out.size > 1 or math.isfinite(out[0]))
        return finite, err_norm, h * (_B @ self.W)

    def solution_and_estimate(self, y, y5):
        """y5 = y + h b . K and P = h e . K, from the b and e rows of
        self.ht.  Returns P: self.estimate when the state is one block, else
        K[2], copied block by block from a buffer that lives in this call."""
        K, hb, he, blocks = self.K, self.hb, self.he, self.blocks
        if len(blocks) == 1:
            np.matmul(hb, K, out=y5)
            y5 += y
            return np.matmul(he, K, out=self.estimate)
        buffer = np.empty(max(hi - lo for lo, hi in blocks))
        for lo, hi in blocks:
            columns, y5_block = K[:, lo:hi], y5[lo:hi]
            np.matmul(hb, columns, out=y5_block)
            y5_block += y[lo:hi]
            K[2, lo:hi] = np.matmul(he, columns, out=buffer[:hi - lo])
        return K[2]

    def error_norm(self, p, h, y, y5) -> float:
        """_error_norm of p + h e_7 f(y5), f(y5) in K[3], formed in K[4] and
        its squares in K[2] block by block: p may be K[2]."""
        _, _, squares, f7, err = self.rows
        he7, rtol, atol = h * _E7, self.rtol, self.atol
        if len(self.blocks) == 1:
            _estimate_squares(p, f7, he7, y, y5, rtol, atol, err, squares)
        else:
            for lo, hi in self.blocks:
                _estimate_squares(p[lo:hi], f7[lo:hi], he7, y[lo:hi], y5[lo:hi], rtol, atol,
                                  err[lo:hi], squares[lo:hi])
        return math.sqrt(float(np.add.reduce(squares)) / y.size)

    def accept(self, y, flattened) -> int:
        """f and the work rates at the accepted y to self.fy and W[0]: f(y5)'s
        (FSAL), or a new evaluation once y was flattened.  Returns the
        evaluations made."""
        if flattened:
            self.kernel.rhs_work(y, out=self.fy, work_out=self.w0, energies_out=self.energies)
            return 1
        # slice assignment, not np.copyto, whose dispatcher is a Python call
        self.fy[...] = self.rows[3]
        self.w0[...] = self.w6
        return 0

    def stiffness(self, y, h, scratch) -> float:
        """_stiffness_estimate of the last attempt, over h, in K[2], scratch
        and K[3:5]."""
        _, f6, u, f7, _ = self.rows
        return _stiffness_estimate(self.kernel, y, f7, f6, h, u, scratch, self.K[3:5])

    def release(self) -> np.ndarray:
        """f(y) in an array of its own; drops every array and view held, so
        the workspace cannot be used again."""
        fy = self.fy.copy()
        vars(self).clear()
        return fy


class _Rodas4:
    """Workspace and attempt of the RODAS4 step.  The work rates ride along
    as extra components whose Jacobian has the rows W_y and zero columns, so
    their stage increments need no solve, and the attempt's increment of the
    work quadratures is one combination of the stage work rates and one
    work_jvp (see _RODAS_U).

    fy is f at the current solution, which no attempt writes, and W the
    run's (7, nw) work-rate rows: W[0] the work rates at y and the first
    stage's, W[1:6] the others (w = W[:6]).  Besides fy and W it holds its
    own 6 stage increments k, the stage derivative f and the kernel's
    factor, made once _Dp5.release has dropped DP5's stage rows."""

    name, order, evals = "RODAS4", 4, 5

    def __init__(self, kernel, fy, W, energies, rtol, atol):
        self.kernel, self.energies, self.rtol, self.atol = kernel, energies, rtol, atol
        self.k = k = np.empty((6, fy.size))
        self.w = W[:6]
        self.fy = fy
        self.f = np.empty(fy.size)
        self.c = c = np.empty_like(_RODAS_C)  # C / h of the current attempt
        # stages 1..5: input weights, C_i / h, k[:i], k_i and the work rates
        self.stages = [(_RODAS_A[i] if i < 5 else None, c[i, :i], k[:i], k[i], W[i])
                       for i in range(1, 6)]

    def attempt(self, y, h, out):
        """One attempt over h from y >= 0, whose derivative and work rates
        are self.fy and self.w[0]: the new solution to out; returns whether
        it is finite, the norm of the error estimate k[5] and the work
        increment.  The stage matrix is factored once, so each stage costs
        two sweeps over the tree.  A stage's right-hand side f + (C_i/h) k
        is formed in k_i, which its solve then overwrites."""
        kernel, k, f = self.kernel, self.k, self.f
        hg = h * _RODAS_GAMMA
        solve = kernel.factor(y, 1.0 / hg)
        np.divide(_RODAS_C, h, out=self.c)
        # stage 1 adds the empty product C_0 k[:0], +0.0, which turns -0.0 to +0.0
        solve(np.add(self.fy, 0.0, out=k[0]), out=k[0])
        for a, c, earlier, k_i, w_i in self.stages:
            if a is None:
                out += k[4]  # Y_6 = Y_5 + k_5
            else:
                np.matmul(a, earlier, out=out)
                out += y
            kernel.rhs_work(out, out=f, work_out=w_i)
            np.matmul(c, earlier, out=k_i)
            solve(np.add(f, k_i, out=k_i), out=k_i)
        out += k[5]
        dq = _RODAS_U @ self.w
        dq += kernel.work_jvp(y, _RODAS_U @ k)
        dq *= hg
        # the new solution reaches f only after it is accepted: scan it
        if not (np.isfinite(k).all() and np.isfinite(out).all()):
            return False, math.nan, dq
        err_norm = _error_norm(k[5], y, out, self.rtol, self.atol, f)
        return math.isfinite(err_norm), err_norm, dq

    def accept(self, y, flattened) -> int:
        """f and the work rates at the accepted y to self.fy and W[0]: the
        new solution was never an input of f.  Returns 1, the evaluation."""
        self.kernel.rhs_work(y, out=self.fy, work_out=self.w[0], energies_out=self.energies)
        return 1


# Values of 8 bytes that held_values allows for Python objects: the array
# headers, locals and closures of a run (measured at most 8 KB, plus up to
# 5.2 KB of the views that _Dp5 and _Rodas4 bind once per run) and, per
# generation, the tree elimination's bound numpy calls (3-6 KB for N = 2 to
# 1024)
_OBJECT_VALUES = 2048
_BOUND_CALL_VALUES = 1024


def held_values(params: ModelParams, n_outputs: float) -> float:
    """Values of 8 bytes integrate holds at its peak, a bound of its
    tracemalloc peak.  The initial state is not counted: integrate drops it
    once it has copied it, so it is held only by a caller that keeps it.
    Nor are kept states: integrate hands each to keep's callable as a view
    of its own state, and the final state is copied once the work arrays
    are dropped.
    - the arrays of the state's size n once a run switches to RODAS4: y,
      the stage input, f(y), _Rodas4's own 6 stage increments, its stage
      derivative and up to 2 stage temporaries, 12 n, plus 2 stage
      temporaries of nw and the factored stage matrix.  On a tree that is
      the kernel's elimination workspace: 1/pivot, a_p/pivot_k per child,
      the sweep buffer and its per-child scratch (4 n), 2 a_p and a
      per-parent scratch (2 n_int), and _BOUND_CALL_VALUES per generation.
      On a chain the factor (a_p and 1/pivot) and the sweep's copy of r are
      lists of Python floats, 32 bytes or 4 values per entry: 12 n;
    - DP5's error estimate without its 7th stage, min(n, _NORM_BLOCK + 1)
      values: _Dp5's array of it when the state is one block, else the
      buffer of a block, which lives while the estimate is formed;
    - the kernel's 2 coefficient arrays of n_int values, n_int the internal
      nodes;
    - the 7 rows of stage work rates and the running quadratures, 8 nw
      values with nw = 2 * depth + 2, and the generation energies of the
      last evaluation;
    - a row of 4 * depth + 5 values at t = 0 and each output time, and each
      output time as a Python float (32 bytes);
    - _OBJECT_VALUES for Python objects.
    A DP5 run holds 7 arrays of n: y, the stage input and _Dp5's 5 stage
    rows.  With the kernel's temporaries in a DP5 step, at most 3 n_int + 6
    min(n_int, kernels._COLUMN_CHUNK) values (N = 8; on trees the stiffness
    estimate's jvp keeps its n_int-sized ones in _Dp5's rows), that is below
    RODAS4's 12 n, and _Dp5.release drops the stage rows and the estimate's
    array before _Rodas4 makes its own.  n_outputs may be an inf float."""
    n, depth, n_int = params.n_nodes, params.depth, params.offsets[-2]
    nw = 2 * depth + 2
    if params.branching == 1:
        factor = 12 * n
    else:
        factor = 4 * n + 2 * n_int + _BOUND_CALL_VALUES * depth
    stiff = 12 * n + factor + 2 * nw
    fixed = 2 * n_int + 8 * nw + depth + 1 + _OBJECT_VALUES
    rows = (n_outputs + 1) * (4 * depth + 5) + 4 * n_outputs
    return stiff + min(n, _NORM_BLOCK + 1) + fixed + rows


def check_capacity(params: ModelParams, n_outputs: float) -> None:
    """Raise CapacityExceeded when held_values exceeds params.max_nodes."""
    held = held_values(params, n_outputs)
    if held > params.max_nodes:
        raise CapacityExceeded(
            f"the run would hold {held:.3g} values ({8 * held:.3g} bytes), over "
            f"the budget of {params.max_nodes} ({8 * params.max_nodes:.3g} bytes)")


def integrate(
    initial: TreeState,
    t_end: float = 1.0,
    opts: SolverOptions = SolverOptions(),
    output_times=(),
    keep=None,
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
    3 * 0.1).  The model is initial.params.  Raises CapacityExceeded before
    allocating when held_values exceeds params.max_nodes, and
    NonFiniteResult when a recorded row's energies are finite and its work
    integrals are not.

    keep maps times to callables f(t_row, values) and only observes: the
    run records the same rows, bit for bit, with or without it.  Each time
    must name a row the run records anyway, at 0, an output time or t_end,
    by the rule of balance_residual's lookups: the nearest recorded time
    within rounding, a time within rounding above t_end naming the t_end
    row.  Any other time, NaN included, raises DomainError before the run
    allocates.  At its row the run calls f with the row's time and a
    read-only view of its state.  The view is valid only during the call:
    integrate copies nothing for it, and the array beneath is the run's
    own, which the next step overwrites.  Times that share a row have their
    callables called there in keep's order.  The t_end row's are called
    after the loop with final.values, once the work arrays are dropped.  A
    callable's exception ends the run.

    integrate copies the initial state and drops its references to it
    before it allocates the run's arrays, so a caller that holds the state
    nowhere else, as cli.run_simulate does, frees it for the whole run.
    """
    params = initial.params
    values = initial.values
    if not np.isfinite(values).all():
        raise NonFiniteState("integrate: initial state contains non-finite entries")
    if values.min() < 0.0:
        raise DomainError("integrate: initial state has negative entries "
                          "(positive-solution mode)")
    if not 0 < t_end < math.inf:
        raise DomainError("t_end must be finite and > 0")
    targets = _landing_times(output_times, t_end)
    times = np.array([0.0] + targets)
    handed = {}  # the callables of each row, by its index
    for t, f in (keep or {}).items():
        try:
            handed.setdefault(_row_of(times, t := float(t)), []).append(f)
        except RangeError:
            raise DomainError(f"keep time {t!r} is not a recorded time of the run: "
                              f"0, an output time or t_end {t_end!r}") from None
    check_capacity(params, len(targets))
    y = np.array(values, dtype=np.float64)
    del initial, values
    return _integrate(y, params, t_end, opts, times, handed)


# np.errstate's decorator holds the call's arguments until the call returns,
# so it wraps the loop, whose arguments hold no initial state
@np.errstate(over="ignore", invalid="ignore")
def _integrate(y, params, t_end, opts, times, handed) -> Trajectory:
    """integrate's run from y, a copy of the initial state that it owns;
    handed maps row indices of times to their keep callables."""
    kernel = make_kernel(params)
    depth = params.depth
    nq_v = depth + 1
    nw = 1 + nq_v + depth  # packed work-rate layout: [x0, visc..., flux...]
    q = np.zeros(nw)       # running quadratures, same layout

    targets = times[1:].tolist()
    # the last row's callables are served with the final state after the loop
    at_end = handed.pop(len(targets), ())
    energies, fluxes, work = (np.empty((times.size, k)) for k in (nq_v, depth, nw))
    min_value = np.empty(times.size)

    rtol, atol = opts.rel_tol, opts.abs_tol
    W = np.zeros((7, nw))  # the stage work rates, those at y in row 0
    e_last = np.empty(nq_v)  # generation energies of the last rhs_work input
    stepper = _Dp5(kernel, y.size, W, e_last, rtol, atol)
    yy = np.empty(y.size)  # stage input; after the last stage, the new solution

    def record(i, y, y_min):
        # energies beyond the float range show in the row itself; work
        # integrals beyond it under finite energies would show only as a
        # nan balance residual
        if np.isfinite(e_last).all() and not np.isfinite(q).all():
            raise NonFiniteResult(
                f"integrate: the work integrals are not finite at t = {float(times[i])!r}")
        # f(y), W[0] and e_last always belong to y (the initial evaluation,
        # or the stepper's accept), so energies and fluxes need no pass over y
        energies[i] = e_last
        fluxes[i] = W[0, 1 + nq_v:]
        min_value[i] = y_min
        work[i] = q
        if i in handed:
            view = y.view()
            view.flags.writeable = False
            for f in handed[i]:
                f(float(times[i]), view)

    kernel.rhs_work(y, out=stepper.fy, work_out=W[0], energies_out=e_last)
    if not np.isfinite(stepper.fy).all():
        raise NonFiniteState("integrate: derivative non-finite at initial state")
    record(0, y, y.min())
    h = opts.initial_step or stepper.initial_step(y, t_end, opts.max_step, yy)
    h = min(h, t_end, opts.max_step)

    t = 0.0
    ti = 0  # next output target index
    n_acc = 0
    rejected = dict.fromkeys(REJECTION_CAUSES, 0)
    attempts = dict.fromkeys((_Dp5.name, _Rodas4.name), 0)
    consecutive_rej = 0
    just_rejected = False
    n_tests = 0
    n_rhs = 1  # f(y0) above
    n_flattened = 0
    h_min, h_max = math.inf, 0.0
    n_stiff = n_nonstiff = 0  # stiffness verdicts pending, non-stiff in a row
    stiff_from = None
    target = targets[0]
    land_at = target - _rounding_gap(target)
    while t < t_end:
        # a step ending within rounding of the target is stretched onto it,
        # so the target is neither skipped nor followed by a vanishing step
        lands = t + h >= land_at
        if lands:
            h = target - t
        if h <= _rounding_gap(t):
            raise StepSizeUnderflow(f"step {h:.3e} underflowed at t = {t!r}")

        finite, err_norm, dq = stepper.attempt(y, h, yy)
        attempts[stepper.name] += 1
        n_rhs += stepper.evals
        y_new = yy

        if not finite:
            cause, shrink = "non-finite", 0.5
        elif err_norm > 1.0:
            cause, shrink = "error norm", _step_factor(err_norm, stepper.order)
        elif (y_min := np.minimum.reduce(y_new)) < -atol:
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
            q += dq
            t = target if lands else t + h
            flattened = y_min < 0.0
            if flattened:  # a component was flattened; its derivative is stale
                np.maximum(y_new, 0.0, out=y)
                n_flattened += 1
            else:
                y, yy = y_new, y  # the old y buffer takes the next stage inputs
            n_rhs += stepper.accept(y, flattened)
            if t == target:
                ti += 1
                record(ti, y, np.minimum.reduce(y) if flattened else y_min)
                if ti < len(targets):
                    target = targets[ti]
                    land_at = target - _rounding_gap(target)

            grow = _step_factor(err_norm, stepper.order)
            if just_rejected:
                grow = min(grow, 1.0)  # no growth right after a rejection
                just_rejected = False
            tests = n_acc % _STIFF_EVERY == 0 or n_stiff > 0
            h_taken, h = h, min(opts.max_step, h * grow)

        # the switch is one-way: only a run that has not switched tests
        if tests and stiff_from is None:
            n_tests += 1
            # the stage input holds nothing the next attempt reads
            if stepper.stiffness(y, h_taken, yy) > _STIFF_H_LAMBDA:
                n_stiff += 1
                n_nonstiff = 0
                if n_stiff == _STIFF_VERDICTS:
                    # DP5's rows are dropped before RODAS4 makes its own
                    stepper = _Rodas4(kernel, stepper.release(), W, e_last, rtol, atol)
                    stiff_from = t
            else:
                n_nonstiff += 1
                if n_nonstiff == _NONSTIFF_RESET:
                    n_stiff = 0

    # the work arrays are dropped before the final state is copied, and y
    # once it is, before the callables of t_end run
    del yy, y_new, stepper, kernel
    final = TreeState(y, params)
    del y
    for f in at_end:
        f(float(times[-1]), final.values)
    return Trajectory(
        params=params, times=times, energies=energies, fluxes=fluxes,
        min_value=min_value, work_x0=work[:, 0], work_visc=work[:, 1:1 + nq_v],
        work_flux=work[:, 1 + nq_v:], n_accepted=n_acc, rejected=rejected,
        attempts=attempts, n_stiffness_tests=n_tests, n_rhs=n_rhs, h_min=h_min,
        h_max=h_max, n_flattened=n_flattened, stiff_from=stiff_from, final=final)


def energy_report(state: TreeState) -> EnergyReport:
    """Per-generation energies, cumulative energies and boundary fluxes.

    The energies and the fluxes are one np.add.reduceat each over the
    generations, in the fixed order the kernels module describes, so they
    equal rhs_work's bit for bit.
    """
    params = state.params
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


def dissipation_time_bound(epsilon: float, eta: float,
                           alpha: float, alpha_tilde: float) -> float:
    """Horizon T by which any positive solution with E(0) <= eta has
    E(T) <= epsilon (inviscid, unforced, alpha > alpha_tilde):

        T = 2 sqrt(2) eta^{3/2} epsilon^{-2} (1 - q)^{-3},  q = 2^{-(alpha-alpha_tilde)/3}
    """
    if not (0 < epsilon < math.inf and 0 < eta < math.inf):
        raise DomainError("epsilon and eta must be finite and > 0")
    if not (math.isfinite(alpha) and math.isfinite(alpha_tilde)):
        raise DomainError(f"alpha and alpha_tilde must be finite, got {alpha} and "
                          f"{alpha_tilde}")
    if not alpha > alpha_tilde:
        raise DomainError(
            f"requires alpha > alpha_tilde, got {alpha} <= {alpha_tilde}")
    gap = one_minus_pow2(-(alpha - alpha_tilde) / 3.0)  # 1 - q
    # mantissas and binary exponents apart, so that no intermediate over- or
    # underflows unless T itself is beyond the float range
    m_eta, e_eta = math.frexp(eta)
    if e_eta % 2:
        m_eta, e_eta = 2.0 * m_eta, e_eta - 1
    m_eps, e_eps = math.frexp(epsilon)
    m_gap, e_gap = math.frexp(gap)
    try:  # gap is 0 where (alpha - alpha_tilde) / 3 underflows
        mantissa = 2.0 * math.sqrt(2.0) * m_eta ** 1.5 / (m_eps ** 2 * m_gap ** 3)
        return math.ldexp(mantissa, 3 * e_eta // 2 - 2 * e_eps - 3 * e_gap)
    except (OverflowError, ZeroDivisionError):
        raise NonFiniteResult(
            f"the dissipation time bound for epsilon {epsilon!r}, eta {eta!r}, "
            f"alpha - alpha_tilde {alpha - alpha_tilde!r} is beyond the float "
            "range") from None
