import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from dyadic_cascade import (
    ModelParams,
    SolverOptions,
    TreeState,
    balance_residual,
    dump_state,
    energy_report,
    asymptotic_flux,
    integrate,
    inviscid_tree_profile,
    load_state,
    solve_selfsimilar_classic,
    solve_viscous_stationary,
)
from dyadic_cascade import dynamics
from dyadic_cascade.dynamics import _NORM_BLOCK, _Dp5, _error_norm, _Rodas4, held_values
from dyadic_cascade.kernels import Kernel, boundary_fluxes, generation_energies
from dyadic_cascade.errors import (
    CapacityExceeded,
    DomainError,
    MaxRejections,
    NonFiniteResult,
    NonFiniteState,
    RangeError,
    StepSizeUnderflow,
)
from jacobian_oracle import dense_jacobian
from kept_states import Kept
import dp5_oracle
import rodas_oracle


class TestBasics:
    def test_zero_initial_unforced_stays_zero(self):
        p = ModelParams(alpha=1.0, branching=2, depth=4, f=0.0)
        traj = integrate(TreeState.zeros(p), t_end=1.0,
                         output_times=np.linspace(0.01, 1.0, 100))
        assert len(traj.times) == 101
        assert (traj.energies == 0.0).all()
        assert (traj.fluxes == 0.0).all()
        assert (traj.min_value == 0.0).all()
        assert (traj.final.values == 0.0).all()

    def test_output_times_are_recorded_exactly(self):
        p = ModelParams(alpha=1.0, branching=2, depth=3, f=0.3)
        traj = integrate(TreeState.zeros(p), t_end=1.0,
                         output_times=[0.25, 0.5, 1.0])
        assert list(traj.times) == [0.0, 0.25, 0.5, 1.0]

    @pytest.mark.parametrize("h", [0.02777777777777777, 0.014705882352941166])
    def test_fixed_step_lands_on_every_output_time(self, h):
        # 0.0277...: a step that rounds onto 0.5 without being cut to it used
        # to skip the 0.5 snapshot; 0.0147...: a step ending 1.8e-15 short of
        # t_end used to leave a vanishing last step (StepSizeUnderflow)
        p = ModelParams(alpha=1.0, branching=2, depth=3)
        traj = integrate(TreeState.zeros(p), t_end=1.0,
                         opts=SolverOptions(initial_step=h, max_step=h),
                         output_times=[0.5, 1.0])
        assert list(traj.times) == [0.0, 0.5, 1.0]
        assert traj.times[-1] == 1.0

    def test_output_times_within_rounding_share_a_snapshot(self):
        # 3 * 0.1 = 0.30000000000000004 is one ulp above 0.3; landing on both
        # used to need a vanishing step (StepSizeUnderflow)
        p = ModelParams(alpha=1.0, branching=2, depth=3, f=0.5)
        kept = Kept()
        traj = integrate(TreeState.zeros(p), t_end=1.0,
                         output_times=[0.3, 3 * 0.1, 1.0 - 1e-16],
                         keep=kept.keep(0.3, 3 * 0.1, 1.0 - 1e-16))
        assert list(traj.times) == [0.0, 3 * 0.1, 1.0]
        assert kept.row == {0.3: 3 * 0.1, 3 * 0.1: 3 * 0.1, 1.0 - 1e-16: 1.0}
        assert kept.passed[0.3] is kept.passed[3 * 0.1]
        assert kept.passed[1.0 - 1e-16] is traj.final.values

    def test_lookups_find_the_row_integrate_recorded(self):
        # 1e-10 apart is far beyond rounding: the run records two rows, and
        # a lookup of either time finds its own row, not the first one near it
        p = ModelParams(alpha=1.0, nu=0.1, f=0.5, branching=2, depth=3)
        t1 = 0.5 + 1e-10
        kept = Kept()
        traj = integrate(TreeState.zeros(p), t_end=1.0, output_times=[0.5, t1],
                         keep=kept.keep(0.5, t1))
        assert list(traj.times) == [0.0, 0.5, t1, 1.0]
        assert kept.row == {0.5: 0.5, t1: t1}
        assert kept.values[0.5].tobytes() != kept.values[t1].tobytes()
        e, wx, wv = traj.energies, traj.work_x0, traj.work_visc
        row_2 = (float(np.add.reduce(e[2])) - float(np.add.reduce(e[0]))
                 - 2.0 * p.f ** 2 * (wx[2] - wx[0])
                 + 2.0 * p.nu * float(np.add.reduce(wv[2] - wv[0])))
        assert balance_residual(traj, 0.0, t1) == row_2

    def test_snapshots_are_separate_read_only_states(self):
        # every row's state is handed over as a read-only view of the run's
        # own state, the t_end row's as final.values, in the order of the
        # rows; writing to a view raises
        writes = []

        def write(t, values):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0
            writes.append(t)

        for branching in (1, 2):
            p = ModelParams(alpha=1.0, f=0.5, branching=branching, depth=4)
            kept = Kept()
            traj = integrate(TreeState.zeros(p), t_end=0.3, output_times=[0.1, 0.15, 0.2],
                             keep={**kept.keep(0.2, 0.0, 0.3, 0.1), 0.15: write})
            assert kept.order == [0.0, 0.1, 0.2, 0.3]
            assert writes.pop() == 0.15
            assert kept.passed[0.3] is traj.final.values
            for t in (0.0, 0.1, 0.2):
                assert kept.passed[t].base is not None  # a view, not a copy
            assert kept.values[0.0].tobytes() == bytes(8 * p.n_nodes)
            assert len({v.tobytes() for v in kept.values.values()}) == 4

    def test_only_final_and_kept_states_are_held(self):
        # the trajectory holds the final state only: the kept ones went to
        # the callables at their rows, and to no others
        p = ModelParams(alpha=1.0, f=0.5, branching=2, depth=4)
        outputs = [i / 100 for i in range(1, 101)]
        kept = Kept()
        traj = integrate(TreeState.zeros(p), t_end=1.0,
                         output_times=outputs, keep=kept.keep(0.25, 0.5))
        assert len(traj.times) == 101
        assert kept.row == {0.25: 0.25, 0.5: 0.5}
        states = [name for name, value in vars(traj).items() if isinstance(value, TreeState)]
        assert states == ["final"]
        assert not hasattr(traj, "kept") and not hasattr(traj, "state_at")

    @pytest.mark.parametrize("t", [-0.1, 0.25, 0.5 + 1e-10, 1.5, math.nan])
    def test_keep_time_of_no_row_rejected_before_the_run(self, t, monkeypatch):
        # a keep time names a row the run records anyway; one between the
        # rows, or outside the run, is rejected before the kernel is made
        p = ModelParams(alpha=1.0, branching=2, depth=2)
        monkeypatch.setattr(dynamics, "make_kernel", None)
        with pytest.raises(DomainError, match=rf"keep time {t!r} is not a recorded time"):
            integrate(TreeState.zeros(p), t_end=1.0, output_times=[0.5],
                      keep=Kept().keep(0.5, t))

    @pytest.mark.parametrize("times", [
        (0.0,), tuple(i * 0.1 for i in range(1, 7)), (0.6,), (0.3,),
        (0.6 + dynamics._rounding_gap(0.6) / 2,)],
        ids=["zero", "every_output_time", "t_end", "0.3_for_3x0.1", "above_t_end"])
    def test_a_kept_run_records_the_rows_of_a_plain_run(self, times):
        # keep only observes: each time names a row the run records anyway
        # (3 * 0.1 is one ulp above 0.3, 6 * 0.1 one above t_end), so the
        # rows, the work integrals and the final state are a plain run's
        p = ModelParams(alpha=1.0, nu=0.1, f=1.0, branching=2, depth=3)
        x = TreeState(np.where(np.arange(p.n_nodes) == 0, 0.1, 0.0), p)
        outputs = [i * 0.1 for i in range(1, 7)]
        plain = integrate(x, 0.6, output_times=outputs)
        kept = Kept()
        run = integrate(x, 0.6, output_times=outputs, keep=kept.keep(*times))
        for name in ("times", "energies", "fluxes", "min_value", "work_x0",
                     "work_visc", "work_flux"):
            assert getattr(run, name).tobytes() == getattr(plain, name).tobytes()
        assert run.final.values.tobytes() == plain.final.values.tobytes()
        assert (run.n_accepted, run.rejected, run.n_rhs) == \
            (plain.n_accepted, plain.rejected, plain.n_rhs)
        assert kept.row == {t: float(plain.times[plain._index_of(t)]) for t in times}

    def test_time_within_rounding_above_t_end_names_the_t_end_row(self):
        # 3 * 0.1 = 0.30000000000000004 is one ulp above t_end = 0.3; it names
        # the t_end row as it names the 0.3 row of a longer run, and the run
        # still ends at t_end
        p = ModelParams(alpha=1.0, f=1.0, branching=2, depth=3)
        x = TreeState(np.where(np.arange(p.n_nodes) == 0, 0.1, 0.0), p)
        plain = integrate(x, 0.3, output_times=[0.1, 0.2])
        kept = Kept()
        run = integrate(x, 0.3, output_times=[0.1, 0.2], keep=kept.keep(3 * 0.1))
        assert list(run.times) == [0.0, 0.1, 0.2, 0.3]
        assert run.final.values.tobytes() == plain.final.values.tobytes()
        assert kept.row == {3 * 0.1: 0.3}
        assert kept.passed[3 * 0.1] is run.final.values
        assert plain._index_of(3 * 0.1) == 3
        longer_kept = Kept()
        longer = integrate(x, 0.6, output_times=[0.3, 0.6], keep=longer_kept.keep(0.3, 3 * 0.1))
        assert list(longer.times) == [0.0, 0.3, 0.6]
        assert longer_kept.row == {0.3: 0.3, 3 * 0.1: 0.3}
        assert longer_kept.passed[0.3] is longer_kept.passed[3 * 0.1]

    def test_time_beyond_rounding_above_t_end_is_outside(self):
        p = ModelParams(alpha=1.0, f=1.0, branching=2, depth=3)
        x = TreeState(np.where(np.arange(p.n_nodes) == 0, 0.1, 0.0), p)
        beyond = math.nextafter(0.3 + dynamics._rounding_gap(0.3), 1.0)
        with pytest.raises(DomainError, match="is not a recorded time"):
            integrate(x, 0.3, keep=Kept().keep(beyond))
        traj = integrate(x, 0.3, output_times=[0.1, 0.2])
        with pytest.raises(RangeError, match="outside trajectory range"):
            balance_residual(traj, 0.0, beyond)

    def test_t_end_always_recorded(self):
        p = ModelParams(alpha=1.0, branching=2, depth=3, f=0.3)
        traj = integrate(TreeState.zeros(p), t_end=0.7, output_times=[0.5])
        assert traj.times[-1] == 0.7

    def test_negative_initial_rejected(self):
        p = ModelParams(alpha=1.0, branching=2, depth=2)
        vals = np.zeros(p.n_nodes)
        vals[3] = -0.1
        with pytest.raises(ValueError):
            integrate(TreeState(vals, p), 1.0)

    def test_nonfinite_initial_rejected(self):
        p = ModelParams(alpha=1.0, branching=2, depth=2)
        vals = np.zeros(p.n_nodes)
        vals[3] = np.nan
        with pytest.raises(NonFiniteState):
            integrate(TreeState(vals, p), 1.0)


class TestStationarity:
    def test_inviscid_profile_stays_put(self):
        # The truncated forced system drifts on the turnover time scale
        # ~1/(f 2^s 2^{2(alpha-alpha_tilde)g/3}); with a small forcing the
        # stated horizon t_end = 1 sits far inside the stationary window and
        # every generation below the truncation holds to 10*rel_tol.
        f = 1e-6
        rel_tol = 1e-8
        prof = inviscid_tree_profile(f, 2.5, 1.5, depth=5)
        p = prof.params
        traj = integrate(prof, t_end=1.0,
                         opts=SolverOptions(rel_tol=rel_tol, abs_tol=1e-30),
                         output_times=[1.0])
        final = traj.final.values
        offs = p.offsets
        interior = slice(0, offs[5])
        rel = np.abs(final[interior] - prof.values[interior]) / prof.values[interior]
        assert rel.max() <= 10 * rel_tol


class TestSelfSimilarTracking:
    def test_tracks_formula_above_truncation_layer(self):
        # Galerkin truncation contaminates the deepest shells immediately
        # (the last shell has no loss channel); shells well above it track
        # b_n/(t - t0).  Envelope measured at depth 10, t <= 0.1.
        ss = solve_selfsimilar_classic(-1.0, 2.0, 10)
        y0 = ss.classic_state(0.0)
        kept = Kept()
        traj = integrate(y0, t_end=0.1,
                         opts=SolverOptions(rel_tol=1e-10, abs_tol=1e-16),
                         output_times=[0.05, 0.1], keep=kept.keep(0.05, 0.1))
        worst = np.zeros(3)
        for t in traj.times[1:]:
            exact = ss.b[:3] / (t + 1.0)
            worst = np.maximum(worst, np.abs(kept.values[t][:3] - exact) / exact)
        assert worst[0] <= 1e-4
        assert worst[1] <= 5e-3
        assert worst[2] <= 5e-2

    def test_depth_refinement_shrinks_tracking_error(self):
        errs = {}
        for depth in (8, 10):
            ss = solve_selfsimilar_classic(-1.0, 2.0, depth)
            y0 = ss.classic_state(0.0)
            traj = integrate(y0, t_end=0.1,
                             opts=SolverOptions(rel_tol=1e-10, abs_tol=1e-16),
                             output_times=[0.1])
            exact = ss.b[0] / 1.1
            errs[depth] = abs(traj.final.values[0] - exact) / exact
        assert errs[10] < errs[8]


class TestInvariants:
    def test_conservation_and_monotonicity(self):
        p = ModelParams(alpha=1.0, branching=2, depth=8, f=0.0, nu=0.0)
        rng = np.random.default_rng(5)
        x = TreeState(rng.uniform(0.0, 0.1, p.n_nodes), p)
        traj = integrate(x, 1.0, SolverOptions(rel_tol=1e-10, abs_tol=1e-16),
                         output_times=np.linspace(0.01, 1.0, 100))
        E0 = energy_report(x).total
        E1 = energy_report(traj.final).total
        assert abs(E1 - E0) / E0 <= 100 * 1e-10
        totals = traj.energies.sum(axis=1)
        assert len(totals) == 101
        assert (np.diff(totals) <= 1e-12 * totals[:-1]).all()

    def test_growth_bound_and_strict_positivity(self):
        p = ModelParams(alpha=1.0, gamma=1.0, nu=0.1, f=1.0, branching=2, depth=6)
        vals = np.zeros(p.n_nodes)
        vals[0] = 0.5
        traj = integrate(TreeState(vals, p), 2.0,
                         SolverOptions(rel_tol=1e-8, abs_tol=1e-14),
                         output_times=np.linspace(0.02, 2.0, 100))
        E0 = energy_report(TreeState(vals, p)).total
        assert len(traj.times) == 101
        for t, E in zip(traj.times, traj.energies.sum(axis=1)):
            assert E <= (E0 + 1.0) * math.exp(2.0 * p.f ** 2 * t) * (1 + 1e-12)
        # forcing + positive root data make every component strictly positive
        final = traj.final.values
        assert (final > 0.0).all()
        assert (traj.min_value >= 0.0).all()

    def test_determinism_bitwise(self):
        p = ModelParams(alpha=1.3, gamma=1.1, nu=0.05, f=0.4, branching=2, depth=5)
        rng = np.random.Generator(np.random.Philox(9))
        x = TreeState(rng.uniform(0, 0.5, p.n_nodes), p)
        opts = SolverOptions(rel_tol=1e-9, abs_tol=1e-15)
        k1, k2 = Kept(), Kept()
        t1 = integrate(x, 0.8, opts, output_times=[0.4, 0.8], keep=k1.keep(0.4, 0.8))
        t2 = integrate(x, 0.8, opts, output_times=[0.4, 0.8], keep=k2.keep(0.4, 0.8))
        assert (t1.times == t2.times).all()
        for t in (0.4, 0.8):
            assert (k1.values[t] == k2.values[t]).all()
        assert (t1.final.values == t2.final.values).all()
        assert (t1.energies == t2.energies).all()
        assert (t1.fluxes == t2.fluxes).all()
        assert (t1.min_value == t2.min_value).all()
        assert (t1.work_visc == t2.work_visc).all()
        assert (t1.work_flux == t2.work_flux).all()
        assert t1.work_x0.tolist() == t2.work_x0.tolist()


class TestFailureModes:
    def test_step_size_underflow_on_blowup_scale(self):
        p = ModelParams(alpha=1.0, branching=2, depth=2, f=0.0)
        vals = np.full(p.n_nodes, 1e150)
        with pytest.raises(StepSizeUnderflow):
            integrate(TreeState(vals, p), 1.0)

    def test_overflowing_stages_reject_as_non_finite(self):
        # the stages overflow; the one finiteness check after the stage loop
        # must see it, and no RuntimeWarning may escape
        p = ModelParams(alpha=1.0, branching=2, depth=2, f=0.0)
        vals = np.full(p.n_nodes, 1e150)
        with pytest.raises(MaxRejections, match="non-finite"):
            integrate(TreeState(vals, p), 1.0, SolverOptions(max_rejections=3))

    def test_lone_undamped_node_never_accepts_an_overflow(self):
        # f is the constant c_0 f^2 = 1e308, so the state reaches the float
        # limit at t = 1.7977; every stage and the error norm stay finite
        p = ModelParams(alpha=1.0, branching=1, depth=0, f=1e154)
        x = TreeState(np.array([1e150]), p)
        with pytest.raises(StepSizeUnderflow, match="at t = 1.797"):
            integrate(x, 2.0)
        traj = integrate(x, 1.7)
        assert traj.final.values[0] == pytest.approx(1.7e308, rel=1e-12)
        assert traj.n_rejected == 0

    def test_work_integrals_beyond_the_float_range_raise(self):
        # the root settles at f^2 / nu = 1e5, so E_0 = 1e10 stays finite,
        # while its viscous work integral passes the float range before the
        # first output time
        p = ModelParams(alpha=1.0, nu=1e-3, f=10.0, branching=1, depth=0)
        with pytest.raises(NonFiniteResult, match=r"work integrals .* t = 1e\+299$"):
            integrate(TreeState.zeros(p), 1e300, output_times=[1e299, 1e300])

    def test_max_rejections(self):
        p = ModelParams(alpha=1.0, gamma=3.0, nu=1e6, branching=2, depth=6, f=0.0)
        rng = np.random.default_rng(2)
        x = TreeState(rng.uniform(0.1, 1.0, p.n_nodes), p)
        with pytest.raises(MaxRejections):
            integrate(x, 1.0, SolverOptions(rel_tol=1e-10, abs_tol=1e-14,
                                            initial_step=1.0, max_rejections=3))

    def test_range_error_outside_trajectory(self):
        p = ModelParams(alpha=1.0, branching=2, depth=2, f=0.2)
        traj = integrate(TreeState.zeros(p), 0.5, output_times=[0.5])
        with pytest.raises(RangeError):
            balance_residual(traj, 0.0, 0.7)
        with pytest.raises(RangeError):
            balance_residual(traj, 0.0, 0.123)  # not a recorded snapshot


class TestPositivity:
    def test_run_stays_nonnegative(self):
        # a coarse tolerance on decaying random data: every rejection is an
        # error-norm one, and no row reaches zero
        p = ModelParams(alpha=2.0, branching=2, depth=6, f=0.0)
        rng = np.random.default_rng(8)
        x = TreeState(rng.uniform(0.0, 1.0, p.n_nodes), p)
        traj = integrate(x, 0.2, SolverOptions(rel_tol=1e-6, abs_tol=1e-12),
                         output_times=np.linspace(0.002, 0.2, 100))
        assert len(traj.times) == 101
        assert traj.n_accepted == 342
        assert traj.rejected == {"error norm": 6, "non-finite": 0, "positivity": 0}
        assert traj.n_flattened == 0
        assert traj.min_value.min() == pytest.approx(3.086e-4, rel=1e-3)
        assert traj.final.values.min() >= 0.0


class TestErrorNorm:
    """The scratch-array error norm is bit-equal to the plain formula for
    y >= 0 (including -0.0 entries) and y5 with small negatives."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("rtol,atol", [(1e-8, 1e-14), (1e-3, 1e-6), (1e-12, 1e-30)])
    def test_bit_equal_to_mean_form(self, seed, rtol, atol):
        rng = np.random.default_rng(seed)
        n = 1000 + seed
        y = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-30, 3, n)
        y[::7] = 0.0
        y[3::11] = -0.0
        y5 = y * (1.0 + rng.normal(0.0, 1e-6, n))
        y5[::13] = -rng.uniform(0.0, 1e-15, len(y5[::13]))
        err = rng.normal(0.0, 1e-9, n) * 10.0 ** rng.integers(-8, 2, n)
        expected = math.sqrt(float(np.mean(np.square(
            err / (atol + rtol * np.maximum(np.abs(y), np.abs(y5)))))))
        assert _error_norm(err, y, y5, rtol, atol, np.empty(n)) == expected

    @pytest.mark.parametrize("n", [1, _NORM_BLOCK - 1, _NORM_BLOCK, _NORM_BLOCK + 1,
                                   2 * _NORM_BLOCK + 1, 3 * _NORM_BLOCK + 5])
    def test_blocked_estimate_is_bit_equal_to_the_whole_product(self, n):
        # DP5's solution y + h b . K and estimate P + h e_7 f(y5), P = h e .
        # K over the 5 stage rows formed block by block into K[2] (or in an
        # array of its own when there is one block), f(y5) in K[3], the
        # estimate in K[4] and its squares in K[2], against the same
        # expressions formed whole in those rows.  The norm is taken with a
        # y5 of its own, which has -0.0 entries and small negatives
        rng = np.random.default_rng(n)
        K = rng.normal(0.0, 1.0, (5, n)) * 10.0 ** rng.integers(-12, 3, (5, n))
        K[:, ::19] = 0.0
        K[:, 4::23] = -0.0
        f7 = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-12, 3, n)
        f7[1::29] = -0.0
        y = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-30, 3, n)
        y[::7] = 0.0
        y[3::11] = -0.0
        y5 = y * (1.0 + rng.normal(0.0, 1e-6, n))
        y5[::13] = -rng.uniform(0.0, 1e-15, len(y5[::13]))
        y5[5::17] = -0.0
        for h in (1e-3, 0.37):
            whole, blocked = K.copy(), K.copy()
            solution = y + np.matmul(h * dynamics._TABLEAU[5], whole)
            p = np.matmul(h * dynamics._TABLEAU[6], whole)
            whole[3] = f7
            np.add(p, h * dynamics._E7 * f7, out=whole[4])
            expected = whole_error_norm(whole[4], y, y5, 1e-8, 1e-14, whole[2])
            got, blocked_solution = dp5_error_norm(blocked, f7, h, y, y5)
            assert got.hex() == expected.hex()
            assert blocked.tobytes() == whole.tobytes()
            assert blocked_solution.tobytes() == solution.tobytes()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("at", [0, _NORM_BLOCK - 1, _NORM_BLOCK, 2 * _NORM_BLOCK + 4])
    def test_blocked_estimate_of_a_non_finite_stage_is_not_finite(self, bad, at):
        # the norm is the finiteness check of a DP5 attempt: every stage row
        # and f(y5) has a nonzero error weight
        n = 2 * _NORM_BLOCK + 5
        rng = np.random.default_rng(at)
        y = rng.uniform(0.0, 1.0, n)
        for row in range(6):
            K = rng.normal(0.0, 1.0, (5, n))
            f7 = rng.normal(0.0, 1.0, n)
            (f7 if row == 5 else K[row])[at] = bad
            assert not math.isfinite(dp5_error_norm(K, f7, 1e-3, y, y)[0])

    def test_blocks_are_those_of_norm_block_and_a_one_column_tail_joins(self):
        b = _NORM_BLOCK
        assert dynamics._column_blocks(1) == [(0, 1)]
        assert dynamics._column_blocks(b) == [(0, b)]
        assert dynamics._column_blocks(b + 1) == [(0, b + 1)]
        assert dynamics._column_blocks(b + 2) == [(0, b), (b, b + 2)]
        assert dynamics._column_blocks(2 * b + 1) == [(0, b), (b, 2 * b + 1)]


def dp5_error_norm(K, f7, h, y, y5):
    """The error norm of a DP5 attempt over h from y, and its solution,
    formed as a _Dp5 workspace forms them from its 5 stage rows, here K: the
    solution and P, P in an array of its own when the state is one block,
    else in K[2], then f(y5) = f7 written to K[3], the estimate in K[4] and
    its squares in K[2], which are copied back to K.  The norm is taken with
    y5, not with the solution."""
    n = K.shape[1]
    dp5 = _Dp5(None, n, np.zeros((7, 1)), None, 1e-8, 1e-14)
    dp5.K[...] = K
    np.multiply(dynamics._TABLEAU, h, out=dp5.ht)
    solution = np.empty(n)
    p = dp5.solution_and_estimate(y, solution)
    dp5.K[3] = f7
    norm = dp5.error_norm(p, h, y, y5)
    K[...] = dp5.K
    return norm, solution


def whole_error_norm(err, y, y5, rtol, atol, scratch) -> float:
    """The norm of an estimate err formed whole, in the stage row scratch:
    the oracle of the blocked form."""
    sc = np.abs(y5, out=scratch)
    np.maximum(sc, y, out=sc)
    sc *= rtol
    sc += atol
    np.divide(err, sc, out=sc)
    np.square(sc, out=sc)
    return math.sqrt(float(np.add.reduce(sc)) / sc.size)


class TestDp5Attempt:
    """One _Dp5.attempt against the textbook step of dp5_oracle."""

    # the embedded error is a sum of terms that cancel like (h rho(J))^4, so
    # the relative rounding of either form grows like that; these steps
    # resolve the estimate to 1e-15 and have error norms of 1e4 to 1e47 (a
    # step the norm accepts cancels to 1e-8 and was 1e-11 apart)
    @pytest.mark.parametrize("branching,depth,h", [(2, 6, 1e-2), (2, 6, 3e-2),
                                                   (1, 12, 1e-3), (1, 12, 1e-2)])
    def test_one_attempt_is_the_textbook_step(self, branching, depth, h):
        p = ModelParams(alpha=1.0, gamma=1.0, nu=0.1, f=1.0, branching=branching,
                        depth=depth)
        kernel = dynamics.make_kernel(p)
        y = np.random.default_rng(depth).uniform(0.0, 1.0, p.n_nodes)
        W, e = np.zeros((7, 2 * depth + 2)), np.empty(depth + 1)
        dp5 = _Dp5(kernel, p.n_nodes, W, e, 1e-8, 1e-14)
        kernel.rhs_work(y, out=dp5.fy, work_out=W[0], energies_out=e)
        before, fy = y.copy(), dp5.fy.copy()
        out = np.empty(p.n_nodes)
        finite, err_norm, _ = dp5.attempt(y, h, out)
        y5, err = dp5_oracle.step(kernel.rhs, y, h)
        assert finite and err_norm > 1.0
        assert np.abs(out - y5).max() <= 1e-13 * np.abs(y5).max()
        expected = dp5_oracle.error_norm(err, y, y5, 1e-8, 1e-14)
        assert abs(err_norm - expected) <= 1e-12 * expected
        # y and f(y) are left for the retry
        assert y.tobytes() == before.tobytes()
        assert dp5.fy.tobytes() == fy.tobytes()


class TestInitialStep:
    def test_step_in_a_stage_row_is_the_separate_scratch_one(self):
        # _Dp5's scratch is K[1] and the stage input, with f0 = K[0]; the
        # step equals the one formed with temporaries of its own, bit for bit
        p = ModelParams(alpha=2.0, gamma=1.0, nu=1e-3, f=1.0, branching=8, depth=5)
        rng = np.random.default_rng(2)
        y = rng.uniform(0.0, 0.01, p.n_nodes)
        dp5 = _Dp5(None, p.n_nodes, np.zeros((7, 1)), None, 1e-8, 1e-14)
        dp5.K[...] = rng.uniform(-1.0, 1.0, (5, p.n_nodes))
        sc = 1e-14 + 1e-8 * np.abs(y)
        d0 = math.sqrt(float(np.mean(np.square(y / sc))))
        d1 = math.sqrt(float(np.mean(np.square(dp5.K[0] / sc))))
        separate = 0.01 * d0 / d1
        in_rows = dp5.initial_step(y, math.inf, math.inf, np.empty(p.n_nodes))
        assert 0.0 < in_rows < 1e-3
        assert in_rows.hex() == separate.hex()


def forced_chain(depth, t_end=1.0, keep=None):
    """The forced inviscid chain from root_only 1 with 100 outputs: at depth
    18 DP5 is stability-limited from t = 0.74 on."""
    p = ModelParams(alpha=1.0, gamma=1.0, nu=0.0, f=1.0, branching=1, depth=depth)
    y = np.zeros(p.n_nodes)
    y[0] = 1.0
    return integrate(TreeState(y, p), t_end,
                     output_times=[i * t_end / 100 for i in range(1, 101)], keep=keep)


def dp5_only(run, *args, **kwargs):
    """run with a stiffness threshold no estimate passes: the DP5 oracle.
    It computes no estimate either, so that a run that tests and never
    switches can be compared with one that never tests."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dynamics, "_STIFF_H_LAMBDA", math.inf)
        m.setattr(dynamics, "_stiffness_estimate", lambda *estimate_args: 0.0)
        return run(*args, **kwargs)


def worst_residual(traj):
    return max(abs(balance_residual(traj, 0.0, t)) for t in traj.times[1:])


def rodas4_at(kernel, y):
    """A RODAS4 workspace made as integrate makes it at the switch: from
    f(y) and the run's 7 work-rate rows, the work rates at y in row 0."""
    fy, W = np.empty(y.size), np.empty((7, 2 * kernel.params.depth + 2))
    kernel.rhs_work(y, out=fy, work_out=W[0])
    return _Rodas4(kernel, fy, W, np.empty(kernel.params.depth + 1), 1e-8, 1e-14)


@pytest.fixture(scope="module")
def chain18_run():
    """forced_chain(18), and its state at 0.8 kept"""
    kept = Kept()
    return forced_chain(18, keep=kept.keep(0.8)), kept


@pytest.fixture(scope="module")
def chain18(chain18_run):
    return chain18_run[0]


@pytest.fixture(scope="module")
def chain18_dp5():
    return dp5_only(forced_chain, 18)


class TestStiffSwitch:
    def test_rodas4_is_fourth_order(self):
        # fixed steps from t = 0 to 0.5: halving h divides the error of the
        # solution and of the work quadratures by about 2^4
        p = ModelParams(alpha=1.0, gamma=1.0, nu=0.1, f=1.0, branching=1, depth=5)
        y0 = np.zeros(p.n_nodes)
        y0[0] = 1.0
        ref = integrate(TreeState(y0, p), 0.5, SolverOptions(rel_tol=1e-13, abs_tol=1e-16))
        q_ref = np.concatenate(([ref.work_x0[-1]], ref.work_visc[-1], ref.work_flux[-1]))
        kernel = dynamics.make_kernel(p)

        def errors(steps):
            y, q, out = y0.copy(), np.zeros(q_ref.size), np.empty(p.n_nodes)
            rodas = rodas4_at(kernel, y)
            for _ in range(steps):
                kernel.rhs_work(y, out=rodas.fy, work_out=rodas.w[0])
                q += rodas.attempt(y, 0.5 / steps, out)[2]
                y = out.copy()
            return np.abs(y - ref.final.values).max(), np.abs(q - q_ref).max()

        coarse, fine = errors(64), errors(128)
        for c, f in zip(coarse, fine):
            assert 14.0 <= c / f <= 18.0

    @pytest.mark.parametrize("branching,depth", [(1, 8), (1, 18), (2, 5), (2, 9),
                                                 (4, 3), (8, 2)])
    def test_work_increment_matches_the_stage_recurrence(self, branching, depth):
        # one work_jvp on u . k replaces the six of the stage recurrence;
        # the solution stages do not depend on it
        p = ModelParams(alpha=1.3, gamma=2.0, nu=0.05, f=1.2, branching=branching,
                        depth=depth)
        kernel = dynamics.make_kernel(p)
        rng = np.random.default_rng(100 * branching + depth)
        for h in (1e-1, 1e-3, 1e-5):
            y = rng.uniform(0.0, 1.0, p.n_nodes)
            f, w = (a.copy() for a in kernel.rhs_work(y))
            rodas = rodas4_at(kernel, y)
            out = np.empty(p.n_nodes)
            _, _, dq = rodas.attempt(y, h, out)
            y_ref, k_ref, dq_ref = rodas_oracle.attempt(kernel, y, f, w, h)
            assert out.tobytes() == y_ref.tobytes()
            assert rodas.k.tobytes() == k_ref.tobytes()
            assert np.abs(dq - dq_ref).max() <= 1e-14 * np.abs(dq_ref).max()

    @pytest.mark.parametrize("branching,depth", [(1, 18), (2, 7), (8, 3)])
    def test_a_rejected_attempt_leaves_f_of_y_intact(self, branching, depth):
        # a rejected attempt leaves the stage increments written; the
        # retry from the same y must start from f(y) and the work rates at y
        p = ModelParams(alpha=2.0, gamma=1.0, nu=0.01, f=1.0, branching=branching,
                        depth=depth)
        kernel = dynamics.make_kernel(p)
        y = np.random.default_rng(depth).uniform(0.0, 1.0, p.n_nodes)
        rodas, fresh = rodas4_at(kernel, y), rodas4_at(kernel, y)
        out, out_fresh = np.empty(p.n_nodes), np.empty(p.n_nodes)
        finite, err_norm, _ = rodas.attempt(y, 1.0, out)
        # an error norm above 1, or not a number: rejected either way
        assert not (finite and err_norm <= 1.0)
        _, _, dq = rodas.attempt(y, 1e-4, out)
        _, _, dq_fresh = fresh.attempt(y, 1e-4, out_fresh)
        assert out.tobytes() == out_fresh.tobytes()
        assert rodas.k.tobytes() == fresh.k.tobytes()
        assert dq.tobytes() == dq_fresh.tobytes()

    def test_chain_stiff_switches_and_matches_dp5(self, chain18, chain18_dp5):
        # the switch comes at the 29th stiffness test, after 1,705 accepted
        # and 1 rejected steps (the benchmark's chain, whose output times
        # are i * 0.01, not i / 100, takes 1,710 and 1); a switch that lags
        # to 3.0's 39th test took 1,962 steps, one at 2.8 1,769
        assert chain18_dp5.stiff_from is None
        assert 0.7 < chain18.stiff_from < 0.9
        assert chain18.n_accepted <= 1750 < chain18_dp5.n_accepted
        assert chain18.n_rejected <= 5
        e, e_dp5 = chain18.energies[-1].sum(), chain18_dp5.energies[-1].sum()
        assert abs(e - e_dp5) <= 1e-9 * e_dp5
        assert worst_residual(chain18) <= 1e-9 * e
        assert chain18.min_value.min() >= 0.0

    @pytest.mark.parametrize("branching,depth,alpha,t_end", [
        (1, 4, 1.0, 1.0), (1, 10, 1.0, 1.0), (2, 6, 2.0, 1.0), (2, 7, 2.0, 0.5)])
    def test_runs_that_never_switch_are_bit_identical(self, branching, depth, alpha, t_end):
        # every run tests its stiffness at least once (100 accepted steps)
        # without switching; the test must not touch the DP5 path
        p = ModelParams(alpha=alpha, gamma=1.0, nu=0.0, f=1.0, branching=branching,
                        depth=depth)
        y = np.zeros(p.n_nodes)
        y[0] = 1.0
        args = (TreeState(y, p), t_end, SolverOptions(), np.linspace(t_end / 100, t_end, 100))
        kept, oracle_kept = Kept(), Kept()
        traj = integrate(*args, keep=kept.keep(t_end / 2))
        oracle = dp5_only(integrate, *args, keep=oracle_kept.keep(t_end / 2))
        assert kept.values[t_end / 2].tobytes() == oracle_kept.values[t_end / 2].tobytes()
        assert traj.stiff_from is None
        assert traj.n_accepted >= 100
        assert (traj.n_accepted, traj.n_rejected) == (oracle.n_accepted, oracle.n_rejected)
        for name in ("times", "energies", "fluxes", "min_value", "work_x0",
                     "work_visc", "work_flux"):
            assert getattr(traj, name).tobytes() == getattr(oracle, name).tobytes()
        assert traj.final.values.tobytes() == oracle.final.values.tobytes()

    def test_switched_run_at_the_size_bound_matches_dp5(self):
        # 255 values, the largest tree the dense stage matrix used to serve;
        # it switches well before t_end and then solves by tree elimination
        p = ModelParams(alpha=2.0, gamma=1.0, nu=0.0, f=1.0, branching=2, depth=7)
        y = np.zeros(p.n_nodes)
        y[0] = 1.0
        args = (TreeState(y, p), 2.5, SolverOptions(), np.linspace(0.025, 2.5, 100))
        traj, oracle = integrate(*args), dp5_only(integrate, *args)
        assert oracle.stiff_from is None
        assert 0.0 < traj.stiff_from < 2.0
        assert traj.n_accepted + traj.n_rejected < oracle.n_accepted + oracle.n_rejected
        e, e_dp5 = traj.energies[-1].sum(), oracle.energies[-1].sum()
        assert abs(e - e_dp5) <= 1e-9 * e_dp5
        assert worst_residual(traj) <= 1e-9 * e
        assert traj.min_value.min() >= 0.0

    def test_depth_40_chain_finishes(self):
        traj = forced_chain(40)
        assert traj.stiff_from is not None
        assert traj.n_accepted <= 6000
        assert worst_residual(traj) <= 1e-8 * traj.energies[-1].sum()
        assert traj.min_value.min() >= 0.0

    def test_switched_chain_matches_radau(self, chain18_run):
        integrate_ivp = pytest.importorskip("scipy.integrate")
        chain18, kept = chain18_run
        p = chain18.params
        kernel = dynamics.make_kernel(p)
        sol = integrate_ivp.solve_ivp(
            lambda t, y: kernel.rhs(y), (0.8, 1.0), kept.values[0.8],
            method="Radau", rtol=1e-11, atol=1e-14, jac=lambda t, y: dense_jacobian(p, y))
        assert sol.status == 0
        expected = sol.y[:, -1]
        assert (np.abs(chain18.final.values - expected) <= 1e-8 * expected).all()


def viscous_chain(f, nu, beta, gamma, depth, t_end):
    """A forced viscous chain from the zero state, with no output times."""
    p = ModelParams(alpha=beta, gamma=gamma, nu=nu, f=f, branching=1, depth=depth)
    return integrate(TreeState.zeros(p), t_end)


class TestStiffDetection:
    """Runs the test used to miss: each switches and finishes in well under
    a second."""

    def test_estimate_at_a_bitwise_fixed_point(self):
        # f(y5) == f(Y6) gives u = 0; the probe y + 1 still sees rho(J) at
        # the step where DP5 settles (h rho = 3.2)
        p = ModelParams(alpha=3.0, gamma=1.0, nu=0.01, f=10.0, branching=1, depth=12)
        y = solve_viscous_stationary(10.0, 0.01, 3.0, 1.0, n_max=40).y[:p.n_nodes]
        kernel = dynamics.make_kernel(p)
        f = kernel.rhs(y)
        h = 3.2 / np.abs(np.linalg.eigvals(dense_jacobian(p, y))).max()
        scratch = np.empty((2, p.n_nodes))
        estimate = dynamics._stiffness_estimate(kernel, y, f, f.copy(), h, *scratch)
        assert dynamics._STIFF_H_LAMBDA < estimate <= 1.1 * 3.2

    @pytest.mark.parametrize("branching,depth", [(2, 12), (8, 5)])
    @pytest.mark.parametrize("fixed_point", [False, True])
    def test_estimate_in_stage_rows_is_the_separate_scratch_one(self, branching, depth,
                                                               fixed_point):
        # _Dp5.stiffness's u is K[2] and its ju the stage input: the estimate reads
        # f(y5) = K[3] and f(Y6) = K[1] before it writes u, so it equals the
        # estimate in separate arrays bit for bit, on the power steps from
        # K[3] - K[1] and on those from y + 1 at a bitwise fixed point
        p = ModelParams(alpha=2.0, gamma=1.0, nu=1e-3, f=1.0, branching=branching,
                        depth=depth)
        kernel = dynamics.make_kernel(p)
        rng = np.random.default_rng(depth)
        y = rng.uniform(0.0, 0.01, p.n_nodes)
        K = rng.uniform(-1.0, 1.0, (5, p.n_nodes))
        if fixed_point:
            K[3] = K[1]
        separate = dynamics._stiffness_estimate(kernel, y, K[3].copy(), K[1].copy(), 1e-3,
                                                *np.empty((2, p.n_nodes)))
        in_rows = dynamics._stiffness_estimate(kernel, y, K[3], K[1], 1e-3, K[2],
                                               np.empty(p.n_nodes))
        assert in_rows.hex() == separate.hex()

    @pytest.mark.parametrize("branching,depth", [(1, 18), (2, 12), (4, 6), (8, 6), (16, 4)])
    @pytest.mark.parametrize("fixed_point", [False, True])
    def test_estimate_with_jvp_scratch_in_stage_rows_is_bit_equal(self, branching, depth,
                                                                 fixed_point):
        # _Dp5.stiffness passes K[3:5] to jvp once u is formed from K[3] and
        # K[1], and jvp's temporaries on trees then take no memory of their
        # own (chains ignore it): the estimate equals the one without them,
        # bit for bit, and K[0] and K[1] are left as they were (8-ary depth
        # 6 runs the column sum in chunks)
        p = ModelParams(alpha=2.0, gamma=1.0, nu=1e-3, f=1.0, branching=branching,
                        depth=depth)
        kernel = dynamics.make_kernel(p)
        rng = np.random.default_rng(depth)
        y = rng.uniform(0.0, 0.01, p.n_nodes)
        K = rng.uniform(-1.0, 1.0, (5, p.n_nodes))
        if fixed_point:
            K[3] = K[1]
        before = K.copy()
        plain = dynamics._stiffness_estimate(kernel, y, K[3].copy(), K[1].copy(), 1e-3,
                                             *np.empty((2, p.n_nodes)))
        in_rows = dynamics._stiffness_estimate(kernel, y, K[3], K[1], 1e-3, K[2],
                                               np.empty(p.n_nodes), K[3:5])
        assert in_rows.hex() == plain.hex()
        assert 0.0 < in_rows < math.inf
        for row in (0, 1):
            assert K[row].tobytes() == before[row].tobytes()

    ESTIMATE_PROBE = """
import numpy as np
from dyadic_cascade import ModelParams, dynamics
p = ModelParams(alpha=2.0, gamma=1.0, nu=1e-3, f=1.0, branching=2, depth=14)
kernel = dynamics.make_kernel(p)
rng = np.random.default_rng(3)
scratch = np.empty((2, p.n_nodes))
for _ in range(8):
    y = rng.uniform(0.0, 0.01, p.n_nodes)
    f_y5, f_y6 = rng.uniform(-1.0, 1.0, (2, p.n_nodes))
    print(dynamics._stiffness_estimate(kernel, y, f_y5, f_y6, 1e-3, *scratch).hex())
"""

    def test_estimate_does_not_depend_on_the_blas_threads(self):
        # a BLAS dot sums in an order that depends on its thread count on
        # states of more than about 10,000 values (here 32,767); the
        # verdict, and so a whole run, must not
        src = os.path.dirname(os.path.dirname(dynamics.__file__))
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
            runs.append(subprocess.run(
                [sys.executable, "-c", self.ESTIMATE_PROBE], capture_output=True,
                text=True, env=env, timeout=120, check=True).stdout.split())
        assert len(runs[0]) == 8
        assert runs[0] == runs[1]

    def test_forced_chain_switches_where_dp5_settles(self):
        # DP5 alone settles at h rho = 3.14-3.2 from t = 0.03 on and needs
        # about 146k steps and 8 s for t = 0.5 alone
        traj = viscous_chain(50.0, 0.1, 1.0, 1.0, 20, 10.0)
        assert traj.stiff_from < 0.1
        assert traj.n_accepted + traj.n_rejected < 2000
        assert worst_residual(traj) <= 1e-8 * traj.energies[-1].sum()
        assert traj.min_value.min() >= 0.0

    def test_fast_transient_switches_instead_of_underflowing(self):
        # DP5's estimates jump from 1.4 to 324 within about 20 steps near
        # t = 0.032; it used to raise StepSizeUnderflow at t = 0.03245
        traj = viscous_chain(10.0, 0.01, 3.0, 1.0, 32, 10.0)
        assert traj.stiff_from < 0.04
        head = solve_viscous_stationary(10.0, 0.01, 3.0, 1.0, n_max=80).y[0]
        assert abs(traj.final.values[0] - head) <= 1e-8 * head


def binary_decay(alpha):
    """The unforced inviscid binary tree of depth 10, random on its top 7
    nodes, to t = 20 with no output times."""
    p = ModelParams(alpha=alpha, gamma=1.0, nu=0.0, f=0.0, branching=2, depth=10)
    y = np.zeros(p.n_nodes)
    y[:7] = np.random.default_rng(1).uniform(0.0, 1.0, 7)
    return integrate(TreeState(y, p), 20.0)


def forced_binary7():
    """The forced inviscid binary tree of depth 7 (alpha 2) from root_only 1,
    to t = 2.5 with 100 output times."""
    p = ModelParams(alpha=2.0, gamma=1.0, nu=0.0, f=1.0, branching=2, depth=7)
    y = np.zeros(p.n_nodes)
    y[0] = 1.0
    return integrate(TreeState(y, p), 2.5, output_times=np.linspace(0.025, 2.5, 100))


def chain_stiff():
    """The benchmark's chain_stiff run: forced_chain(18), but with the
    output times i * 0.01, not i / 100."""
    p = ModelParams(alpha=1.0, gamma=1.0, nu=0.0, f=1.0, branching=1, depth=18)
    y = np.zeros(p.n_nodes)
    y[0] = 1.0
    return integrate(TreeState(y, p), 1.0, output_times=[i * 0.01 for i in range(1, 101)])


class TestStiffSequences:
    """The step sequences of the runs that switch, pinned exactly: no
    benchmark workload runs RODAS4 on a tree, so a change of the stiff path
    that moves a step shows here first."""

    @pytest.mark.parametrize("run,counts", [
        pytest.param(lambda: binary_decay(1.5), (2843, 1, 1815, 1029), id="binary10_alpha1.5"),
        pytest.param(lambda: binary_decay(2.0), (2898, 2, 1516, 1384), id="binary10_alpha2"),
        pytest.param(forced_binary7, (1629, 2, 1417, 214), id="forced_binary7_alpha2"),
        pytest.param(lambda: viscous_chain(50.0, 0.1, 1.0, 1.0, 20, 10.0), (901, 10, 802, 109),
                     id="chain20_50_0.1_1_1"),
        pytest.param(lambda: viscous_chain(10.0, 0.01, 3.0, 1.0, 32, 10.0), (979, 80, 227, 832),
                     id="chain32_10_0.01_3_1"),
        pytest.param(chain_stiff, (1710, 1, 1415, 296), id="chain_stiff"),
    ])
    def test_steps_and_attempts_per_method(self, run, counts):
        # accepted and rejected steps, then the DP5 and RODAS4 attempts
        traj = run()
        assert traj.stiff_from is not None
        attempts = traj.attempts
        assert (traj.n_accepted, traj.n_rejected, attempts["DP5"], attempts["RODAS4"]) == counts
        assert tuple(attempts) == ("DP5", "RODAS4")
        assert sum(attempts.values()) == traj.n_accepted + traj.n_rejected


class TestSolverStats:
    def test_rejections_by_cause_sum_to_the_total(self):
        traj = viscous_chain(10.0, 0.01, 3.0, 1.0, 32, 0.1)
        assert tuple(traj.rejected) == dynamics.REJECTION_CAUSES
        assert sum(traj.rejected.values()) == traj.n_rejected
        assert traj.rejected["error norm"] > 0 and traj.rejected["positivity"] > 0
        assert traj.n_stiffness_tests > 0

    @pytest.mark.parametrize("nu", [0.0, 0.1])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_a_non_finite_stage_2_rejects_as_non_finite(self, monkeypatch, nu, bad):
        # no finiteness scan runs over the stages: K[1], the only stage that
        # Kernel.rhs computes, has no e weight and must reach the error norm
        # through stage 3's input
        p = ModelParams(alpha=1.0, gamma=1.0, nu=nu, f=1.0, branching=2, depth=6)
        y = np.zeros(p.n_nodes)
        y[0] = 1.0
        rhs, calls = Kernel.rhs, []

        def spoiled(self, y, out=None):
            deriv = rhs(self, y, out)
            calls.append(None)
            if len(calls) == 30:
                deriv[-1] = bad  # a leaf
            return deriv

        monkeypatch.setattr(Kernel, "rhs", spoiled)
        traj = integrate(TreeState(y, p), 1.0, output_times=np.linspace(0.01, 1.0, 100))
        assert len(calls) > 30
        assert traj.rejected == {"error norm": 0, "non-finite": 1, "positivity": 0}
        assert np.isfinite(traj.energies).all() and np.isfinite(traj.fluxes).all()

    def test_non_finite_rejections_are_counted(self):
        # the stages of a first step of 1000 overflow; halving recovers
        p = ModelParams(alpha=1.0, branching=2, depth=2, f=0.0)
        traj = integrate(TreeState(np.ones(p.n_nodes), p), 1e3,
                         SolverOptions(initial_step=1e3))
        assert traj.rejected["non-finite"] > 0
        assert sum(traj.rejected.values()) == traj.n_rejected

    def test_stats_are_unchanged_by_wrapped_kernel_methods(self, chain18, monkeypatch):
        # a tracer (bench/spans.py) wraps the kernel's methods; the run and
        # its statistics must not notice
        make_kernel = dynamics.make_kernel

        f_calls = []

        def traced(params):
            kernel = make_kernel(params)
            for name in ("rhs", "rhs_work", "jvp"):
                method = getattr(kernel, name)

                def wrapped(*a, _m=method, _name=name, **k):
                    if _name != "jvp":
                        f_calls.append(_name)
                    return _m(*a, **k)

                setattr(kernel, name, wrapped)
            return kernel

        monkeypatch.setattr(dynamics, "make_kernel", traced)
        again = forced_chain(18, keep=Kept().keep(0.8))
        for name in ("n_accepted", "n_rejected", "rejected", "n_stiffness_tests",
                     "n_rhs", "h_min", "h_max", "n_flattened", "stiff_from"):
            assert getattr(again, name) == getattr(chain18, name)
        assert again.energies.tobytes() == chain18.energies.tobytes()
        assert again.n_rhs == len(f_calls)  # both DP5 and RODAS4 steps
        assert 0.0 < again.h_min < again.h_max < 1.0

    def test_dp5_counts(self):
        # on DP5, f(y0) plus 6 evaluations per attempt plus one re-evaluation
        # per flattening; no step spans more than one output interval
        p = ModelParams(alpha=1.0, gamma=1.0, nu=1e-3, f=1.0, branching=2, depth=6)
        traj = integrate(TreeState.zeros(p), 1.0,
                         output_times=np.linspace(0.01, 1.0, 100))
        assert traj.stiff_from is None and traj.n_flattened == 15
        assert traj.rejected["positivity"] == 0
        attempts = traj.n_accepted + traj.n_rejected
        assert traj.attempts == {"DP5": attempts, "RODAS4": 0}
        assert traj.n_rhs == 1 + 6 * attempts + traj.n_flattened
        assert 0.0 < traj.h_min < traj.h_max <= np.diff(traj.times).max()


class TestRecordedRows:
    """A row is taken from the evaluation of f that the run makes anyway at
    the recorded state; it must equal the reductions of that state computed
    afresh, bit for bit, on every branch: DP5's FSAL, the re-evaluation
    after a flattening and RODAS4's re-evaluation."""

    @staticmethod
    def assert_rows_are_fresh(traj, kept):
        p = traj.params
        states = kept.by_row()
        assert sorted(states) == list(traj.times)
        for i, t in enumerate(traj.times):
            y = states[t]
            assert traj.energies[i].tobytes() == generation_energies(p, y).tobytes()
            assert traj.fluxes[i].tobytes() == boundary_fluxes(p, y).tobytes()
            assert traj.min_value[i].tobytes() == y.min().tobytes()

    @staticmethod
    def run(p, y, t_end, opts=SolverOptions()):
        outputs = np.linspace(t_end / 100, t_end, 100)
        kept = Kept()
        return integrate(TreeState(y, p), t_end, opts, output_times=outputs,
                         keep=kept.keep(0.0, *outputs)), kept

    def test_dp5_tree_run(self):
        p = ModelParams(alpha=1.0, gamma=1.0, nu=1e-3, f=1.0, branching=2, depth=8)
        y = np.random.Generator(np.random.Philox(1)).uniform(0.0, 0.01, p.n_nodes)
        traj, kept = self.run(p, y, 1.5)
        assert traj.stiff_from is None
        self.assert_rows_are_fresh(traj, kept)

    def test_dp5_run_that_flattens(self):
        # components leaving exact zero go slightly negative, inside
        # abs_tol, and are flattened, on steps that land on 0.01, ..., 0.09
        p = ModelParams(alpha=1.0, gamma=1.0, nu=1e-3, f=1.0, branching=2, depth=6)
        traj, kept = self.run(p, np.zeros(p.n_nodes), 1.0)
        assert traj.stiff_from is None and traj.n_flattened == 15
        assert traj.rejected["positivity"] == 0
        self.assert_rows_are_fresh(traj, kept)

    def test_run_that_switches_to_rodas4(self):
        kept = Kept()
        traj = forced_chain(18, keep=kept.keep(0.0, *(i / 100 for i in range(1, 101))))
        assert traj.stiff_from is not None
        self.assert_rows_are_fresh(traj, kept)


class TestSteadyFlux:
    def test_deep_flux_is_twice_the_asymptotic_flux(self):
        # asymptotic_flux is c_{n+1} Y_n^2 Y_{n+1}, without the factor 2 of
        # d(X^2)/dt that boundary_fluxes carries: at steady state the flux
        # over boundaries 12-23 is 998.8016 against 2 x 499.4003
        traj = viscous_chain(10.0, 0.01, 3.0, 1.0, 24, 20.0)
        profile = solve_viscous_stationary(10.0, 0.01, 3.0, 1.0)
        expected = 2.0 * asymptotic_flux(profile.z_limit, 3.0, 0.01)
        deep = boundary_fluxes(traj.params, traj.final.values)[12:24]
        assert np.abs(deep - expected).max() <= 1e-5 * expected


def traced_run(initial, t_end, output_times=(), keep=None):
    """integrate's run and its tracemalloc peak in bytes, above what was
    traced when it started: the initial state is not in it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        traj = integrate(initial, t_end, output_times=output_times, keep=keep)
        return traj, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestCapacity:
    def test_an_8_ary_run_holds_7_states_at_its_peak(self):
        # the 7 work arrays; besides them the kernel's 2 coefficient arrays
        # of n_int values, the rows and Python objects, and the temporaries
        # of rhs: its gain and child sum and the column sum's 6 rows (n_int
        # = 4,681 is below the column-sum chunk), 10 n_int in all, more than
        # the buffer of a block of DP5's error estimate, which is gone by
        # the next rhs.  The stiffness estimate's jvp keeps its own in
        # K[3:5].  An 8th state-sized array does not fit
        p = ModelParams(alpha=2.0, gamma=1.0, nu=1e-3, f=1.0, branching=8, depth=5)
        initial = TreeState(np.random.default_rng(1).uniform(0.0, 0.01, p.n_nodes), p)
        traj, peak = traced_run(initial, 0.05, np.linspace(0.0005, 0.05, 100))
        assert traj.stiff_from is None and traj.n_stiffness_tests > 0
        assert peak <= 8 * held_values(p, 100)
        rows = 101 * (4 * p.depth + 5) + 4 * 100
        arrays = 7 * p.n_nodes + 10 * p.offsets[-2]
        assert peak <= 8 * (arrays + rows + dynamics._OBJECT_VALUES)

    def test_a_16_ary_run_holds_no_state_sized_error_estimate(self):
        # n = 69,905 is about 16 n_int, so the kernel's temporaries stay far
        # below a state, and DP5's error estimate sets the peak: the 7 work
        # arrays, the kernel's 2 n_int and the buffer of a block of the
        # estimate
        p = ModelParams(alpha=2.0, gamma=1.0, nu=1e-3, f=1.0, branching=16, depth=4)
        initial = TreeState(np.random.default_rng(1).uniform(0.0, 0.01, p.n_nodes), p)
        traj, peak = traced_run(initial, 0.05, np.linspace(0.0005, 0.05, 100))
        assert traj.stiff_from is None and traj.n_stiffness_tests > 0
        rows = 101 * (4 * p.depth + 5) + 4 * 100
        arrays = 7 * p.n_nodes + 2 * p.offsets[-2] + _NORM_BLOCK
        assert peak <= 8 * (arrays + rows + dynamics._OBJECT_VALUES)
        assert peak <= 8 * held_values(p, 100)

    def test_a_switched_run_frees_dp5s_rows_before_rodas4_makes_its_own(self, monkeypatch):
        # the binary tree of depth 11 switches at t = 0.225.  When RODAS4
        # makes its workspace the run holds 3 states, y, the stage input
        # and f(y): K's 5 rows and P's array are gone.  Its peak is then
        # RODAS4's: 10 states (its own 6 rows among them), a temporary of
        # the attempt and the factor of 4 n + 2 n_int and 1024 values per
        # generation, with the kernel's 2 n_int, the rows and Python objects
        p = ModelParams(alpha=2.0, gamma=1.0, nu=0.0, f=1.0, branching=2, depth=11)
        initial = TreeState(np.where(np.arange(p.n_nodes) == 0, 1.0, 0.0), p)
        n, n_int = p.n_nodes, p.offsets[-2]
        made = []
        make = _Rodas4.__init__

        def traced_make(self, *args):
            made.append(tracemalloc.get_traced_memory()[0])
            make(self, *args)

        monkeypatch.setattr(_Rodas4, "__init__", traced_make)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            traj = integrate(initial, 0.3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert 0.2 < traj.stiff_from < 0.25 and len(made) == 1
        small = 2 * (4 * p.depth + 5) + 4 + dynamics._OBJECT_VALUES
        assert made[0] - before <= 8 * (3 * n + 2 * n_int + small)
        factor = 4 * n + 2 * n_int + 1024 * p.depth
        assert peak <= 8 * (11 * n + factor + 2 * n_int + small)
        assert peak <= 8 * held_values(p, 1)

    def test_a_run_that_hands_over_4_states_holds_none_of_them(self, tmp_path):
        # the binary tree of depth 11 switches to RODAS4 at t = 0.225, and
        # its peak then comes within 3 states of held_values, which counts no
        # kept state.  Each state is written out at its row through
        # dump_state, as simulate --dump-state does; holding a copy of each
        # would pass the bound by more than a state
        p = ModelParams(alpha=2.0, gamma=1.0, nu=0.0, f=1.0, branching=2, depth=11)
        initial = TreeState(np.where(np.arange(p.n_nodes) == 0, 1.0, 0.0), p)
        times = (0.06, 0.12, 0.18, 0.24)
        keep = {t: lambda t_row, values: dump_state(values, p, tmp_path / f"{t_row!r}.bin")
                for t in times}
        traj, peak = traced_run(initial, 0.3, times, keep=keep)
        assert 0.18 < traj.stiff_from < 0.24
        assert peak <= 8 * held_values(p, len(times) + 1)
        for i, t in enumerate(times, 1):
            y = load_state(tmp_path / f"{t!r}.bin", p).values
            assert generation_energies(p, y).tobytes() == traj.energies[i].tobytes()

    def test_integrate_frees_an_initial_state_that_only_it_holds(self, monkeypatch):
        # the state is copied and dropped before the run allocates, and no
        # wrapper of integrate holds it: it is gone by the first rhs_work
        p = ModelParams(alpha=2.0, gamma=1.0, nu=1e-3, f=1.0, branching=2, depth=5)
        refs, alive = [], []
        rhs_work = Kernel.rhs_work

        def first_rhs_work(self, *args, **kwargs):
            if not alive:
                alive.append(refs[0]() is not None)
            return rhs_work(self, *args, **kwargs)

        def state():
            s = TreeState(np.random.default_rng(1).uniform(0.0, 0.01, p.n_nodes), p)
            refs.append(weakref.ref(s.values))
            return s

        monkeypatch.setattr(Kernel, "rhs_work", first_rhs_work)
        traj = integrate(state(), 0.01)
        assert alive == [False]
        assert traj.n_accepted > 0

    @pytest.mark.parametrize("branching,depth,alpha,nu,f,root,t_end", [
        (2, 7, 2.0, 0.0, 1.0, 1.0, 1.0),     # switches at t = 0.95
        (1, 10, 1.0, 0.1, 50.0, 0.0, 0.3)])  # switches at t = 0.05
    def test_a_switched_run_stays_within_held_values(self, branching, depth, alpha, nu,
                                                     f, root, t_end):
        p = ModelParams(alpha=alpha, gamma=1.0, nu=nu, f=f, branching=branching,
                        depth=depth)
        initial = TreeState(np.where(np.arange(p.n_nodes) == 0, root, 0.0), p)
        traj, peak = traced_run(initial, t_end, [t_end / 2],
                                keep={t_end / 2: lambda t, values: None})
        assert traj.stiff_from is not None
        assert peak <= 8 * held_values(p, 2)  # rows at t_end / 2 and t_end

    def test_held_values_counts_the_stiff_workspace(self):
        # every run may switch, and a switched run holds 12 n of its own
        # (y, the stage input, f(y), RODAS4's 6 rows, its stage derivative
        # and 2 temporaries) besides the factor: 8 n + stiff below is 24 n
        # + 2 nw on a chain (its factor is lists of Python floats), 16 n +
        # 2 n_int + 2 nw and 1024 values per generation on a tree, n_int
        # internal nodes and nw = 2 depth + 2 work rates.  DP5 holds 7 n
        # and its error estimate without the 7th stage, min(n, 16,385), the
        # kernel 2 n_int, the work rates and energies 8 nw + depth + 1, and
        # Python objects 2048 values; a kept state is handed over, not held
        for p, stiff in ((ModelParams(alpha=1.0, branching=1, depth=18), 16 * 19 + 2 * 38),
                         (ModelParams(alpha=1.0, branching=2, depth=8),
                          8 * 511 + 2 * 255 + 1024 * 8 + 2 * 18),
                         (ModelParams(alpha=1.0, branching=2, depth=17),
                          8 * 262143 + 2 * 131071 + 1024 * 17 + 2 * 36)):
            nw = 2 * p.depth + 2
            fixed = 2 * p.offsets[-2] + 8 * nw + p.depth + 1 + 2048
            rows = 101 * (4 * p.depth + 5) + 4 * 100
            block = min(p.n_nodes, 16385)
            assert held_values(p, 100) == 8 * p.n_nodes + block + stiff + fixed + rows

    def test_integrate_checks_the_budget_before_allocating(self, monkeypatch):
        p = ModelParams(alpha=1.0, f=0.5, branching=2, depth=4)
        outputs = [0.25, 0.5, 0.75, 1.0]
        held = held_values(p, len(outputs))
        keep = {0.5: lambda t, values: None}
        for budget in (p.n_nodes, held - 1):
            tight = ModelParams(alpha=1.0, f=0.5, branching=2, depth=4, max_nodes=budget)
            with monkeypatch.context() as m:
                m.setattr(dynamics, "make_kernel", None)  # raised before it runs
                with pytest.raises(CapacityExceeded, match="would hold") as e:
                    integrate(TreeState.zeros(tight), 1.0, output_times=outputs, keep=keep)
            assert f"({8 * held:.3g} bytes), over the budget of {budget} " \
                   f"({8 * budget:.3g} bytes)" in str(e.value)
        fits = ModelParams(alpha=1.0, f=0.5, branching=2, depth=4, max_nodes=held)
        traj = integrate(TreeState.zeros(fits), 1.0, output_times=outputs, keep=keep)
        assert traj.n_accepted > 0
