import math

import numpy as np
import pytest

from dyadic_cascade import (
    ModelParams,
    SolverOptions,
    TreeState,
    energy_report,
    integrate,
    inviscid_tree_profile,
    solve_selfsimilar_classic,
)
from dyadic_cascade.dynamics import _error_norm
from dyadic_cascade.errors import MaxRejections, NonFiniteState, RangeError, StepSizeUnderflow


class TestBasics:
    def test_zero_initial_unforced_stays_zero(self):
        p = ModelParams(alpha=1.0, branching=2, depth=4, f=0.0)
        traj = integrate(TreeState.zeros(p), p, t_end=1.0)
        for s in traj.states:
            assert (s.values == 0.0).all()
        assert (traj.step_energies == 0.0).all()

    def test_output_times_are_recorded_exactly(self):
        p = ModelParams(alpha=1.0, branching=2, depth=3, f=0.3)
        traj = integrate(TreeState.zeros(p), p, t_end=1.0,
                         output_times=[0.25, 0.5, 1.0])
        assert list(traj.times) == [0.0, 0.25, 0.5, 1.0]

    @pytest.mark.parametrize("h", [0.02777777777777777, 0.014705882352941166])
    def test_fixed_step_lands_on_every_output_time(self, h):
        # 0.0277...: a step that rounds onto 0.5 without being cut to it used
        # to skip the 0.5 snapshot; 0.0147...: a step ending 1.8e-15 short of
        # t_end used to leave a vanishing last step (StepSizeUnderflow)
        p = ModelParams(alpha=1.0, branching=2, depth=3)
        traj = integrate(TreeState.zeros(p), p, t_end=1.0,
                         opts=SolverOptions(initial_step=h, max_step=h),
                         output_times=[0.5, 1.0])
        assert list(traj.times) == [0.0, 0.5, 1.0]
        assert traj.step_times[-1] == 1.0

    def test_output_times_within_rounding_share_a_snapshot(self):
        # 3 * 0.1 = 0.30000000000000004 is one ulp above 0.3; landing on both
        # used to need a vanishing step (StepSizeUnderflow)
        p = ModelParams(alpha=1.0, branching=2, depth=3, f=0.5)
        traj = integrate(TreeState.zeros(p), p, t_end=1.0,
                         output_times=[0.3, 3 * 0.1, 1.0 - 1e-16])
        assert list(traj.times) == [0.0, 3 * 0.1, 1.0]
        assert traj.state_at(0.3) is traj.states[1]

    def test_snapshots_are_separate_read_only_states(self):
        for branching in (1, 2):
            p = ModelParams(alpha=1.0, f=0.5, branching=branching, depth=4)
            traj = integrate(TreeState.zeros(p), p, t_end=0.3,
                             output_times=[0.1, 0.2])
            assert len(traj.states) == 4
            for i, s in enumerate(traj.states):
                assert type(s) is TreeState
                assert s.params is p
                assert not s.values.flags.writeable
                for other in traj.states[:i]:
                    assert not np.shares_memory(s.values, other.values)

    def test_t_end_always_recorded(self):
        p = ModelParams(alpha=1.0, branching=2, depth=3, f=0.3)
        traj = integrate(TreeState.zeros(p), p, t_end=0.7, output_times=[0.5])
        assert traj.times[-1] == 0.7

    def test_negative_initial_rejected(self):
        p = ModelParams(alpha=1.0, branching=2, depth=2)
        vals = np.zeros(p.n_nodes)
        vals[3] = -0.1
        with pytest.raises(ValueError):
            integrate(TreeState(vals, p), p, 1.0)

    def test_nonfinite_initial_rejected(self):
        p = ModelParams(alpha=1.0, branching=2, depth=2)
        vals = np.zeros(p.n_nodes)
        vals[3] = np.nan
        with pytest.raises(NonFiniteState):
            integrate(TreeState(vals, p), p, 1.0)


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
        traj = integrate(prof, p, t_end=1.0,
                         opts=SolverOptions(rel_tol=rel_tol, abs_tol=1e-30),
                         output_times=[1.0])
        final = traj.states[-1].values
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
        traj = integrate(y0, y0.params, t_end=0.1,
                         opts=SolverOptions(rel_tol=1e-10, abs_tol=1e-16),
                         output_times=[0.05, 0.1])
        worst = np.zeros(3)
        for i, t in enumerate(traj.times):
            if t == 0.0:
                continue
            exact = ss.b[:3] / (t + 1.0)
            worst = np.maximum(worst, np.abs(traj.states[i].values[:3] - exact) / exact)
        assert worst[0] <= 1e-4
        assert worst[1] <= 5e-3
        assert worst[2] <= 5e-2

    def test_depth_refinement_shrinks_tracking_error(self):
        errs = {}
        for depth in (8, 10):
            ss = solve_selfsimilar_classic(-1.0, 2.0, depth)
            y0 = ss.classic_state(0.0)
            traj = integrate(y0, y0.params, t_end=0.1,
                             opts=SolverOptions(rel_tol=1e-10, abs_tol=1e-16),
                             output_times=[0.1])
            exact = ss.b[0] / 1.1
            errs[depth] = abs(traj.states[-1].values[0] - exact) / exact
        assert errs[10] < errs[8]


class TestInvariants:
    def test_conservation_and_monotonicity(self):
        p = ModelParams(alpha=1.0, branching=2, depth=8, f=0.0, nu=0.0)
        rng = np.random.default_rng(5)
        x = TreeState(rng.uniform(0.0, 0.1, p.n_nodes), p)
        traj = integrate(x, p, 1.0, SolverOptions(rel_tol=1e-10, abs_tol=1e-16),
                         output_times=[1.0])
        E0 = energy_report(traj.states[0]).total
        E1 = energy_report(traj.states[-1]).total
        assert abs(E1 - E0) / E0 <= 100 * 1e-10
        steps = traj.step_energies
        assert (np.diff(steps) <= 1e-12 * steps[:-1]).all()

    def test_growth_bound_and_strict_positivity(self):
        p = ModelParams(alpha=1.0, gamma=1.0, nu=0.1, f=1.0, branching=2, depth=6)
        vals = np.zeros(p.n_nodes)
        vals[0] = 0.5
        traj = integrate(TreeState(vals, p), p, 2.0,
                         SolverOptions(rel_tol=1e-8, abs_tol=1e-14))
        E0 = energy_report(traj.states[0]).total
        for t, E in zip(traj.step_times, traj.step_energies):
            assert E <= (E0 + 1.0) * math.exp(2.0 * p.f ** 2 * t) * (1 + 1e-12)
        # forcing + positive root data make every component strictly positive
        final = traj.states[-1].values
        assert (final > 0.0).all()
        for s in traj.states:
            assert s.values.min() >= 0.0

    def test_determinism_bitwise(self):
        p = ModelParams(alpha=1.3, gamma=1.1, nu=0.05, f=0.4, branching=2, depth=5)
        rng = np.random.Generator(np.random.Philox(9))
        x = TreeState(rng.uniform(0, 0.5, p.n_nodes), p)
        opts = SolverOptions(rel_tol=1e-9, abs_tol=1e-15)
        t1 = integrate(x, p, 0.8, opts, output_times=[0.4, 0.8])
        t2 = integrate(x, p, 0.8, opts, output_times=[0.4, 0.8])
        assert (t1.times == t2.times).all()
        for a, b in zip(t1.states, t2.states):
            assert (a.values == b.values).all()
        assert (t1.work_visc == t2.work_visc).all()
        assert (t1.work_flux == t2.work_flux).all()
        assert t1.work_x0.tolist() == t2.work_x0.tolist()


class TestFailureModes:
    def test_step_size_underflow_on_blowup_scale(self):
        p = ModelParams(alpha=1.0, branching=2, depth=2, f=0.0)
        vals = np.full(p.n_nodes, 1e150)
        with pytest.raises(StepSizeUnderflow):
            integrate(TreeState(vals, p), p, 1.0)

    def test_overflowing_stages_reject_as_non_finite(self):
        # the stages overflow; the one finiteness check after the stage loop
        # must see it, and no RuntimeWarning may escape
        p = ModelParams(alpha=1.0, branching=2, depth=2, f=0.0)
        vals = np.full(p.n_nodes, 1e150)
        with pytest.raises(MaxRejections, match="non-finite"):
            integrate(TreeState(vals, p), p, 1.0, SolverOptions(max_rejections=3))

    def test_max_rejections(self):
        p = ModelParams(alpha=1.0, gamma=3.0, nu=1e6, branching=2, depth=6, f=0.0)
        rng = np.random.default_rng(2)
        x = TreeState(rng.uniform(0.1, 1.0, p.n_nodes), p)
        with pytest.raises(MaxRejections):
            integrate(x, p, 1.0, SolverOptions(rel_tol=1e-10, abs_tol=1e-14,
                                               initial_step=1.0, max_rejections=3))

    def test_range_error_outside_trajectory(self):
        p = ModelParams(alpha=1.0, branching=2, depth=2, f=0.2)
        traj = integrate(TreeState.zeros(p), p, 0.5, output_times=[0.5])
        with pytest.raises(RangeError):
            traj.state_at(0.7)
        with pytest.raises(RangeError):
            traj.state_at(0.123)  # not a recorded snapshot


class TestPositivityModes:
    def test_modes_validated(self):
        with pytest.raises(ValueError):
            SolverOptions(positivity_mode="null-out")

    def test_clamp_mode_runs_and_stays_nonnegative(self):
        p = ModelParams(alpha=2.0, branching=2, depth=6, f=0.0)
        rng = np.random.default_rng(8)
        x = TreeState(rng.uniform(0.0, 1.0, p.n_nodes), p)
        traj = integrate(x, p, 0.2,
                         SolverOptions(rel_tol=1e-6, abs_tol=1e-12,
                                       positivity_mode="clamp-to-zero"))
        for s in traj.states:
            assert s.values.min() >= 0.0


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
