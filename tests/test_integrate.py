import math

import numpy as np
import pytest

from dyadic_cascade import (
    ModelParams,
    SolverOptions,
    TreeState,
    balance_residual,
    energy_report,
    asymptotic_flux,
    integrate,
    inviscid_tree_profile,
    solve_selfsimilar_classic,
    solve_viscous_stationary,
)
from dyadic_cascade import dynamics
from dyadic_cascade.dynamics import _error_norm, _Rodas4, held_values
from dyadic_cascade.kernels import Kernel, boundary_fluxes, generation_energies
from dyadic_cascade.errors import (
    CapacityExceeded,
    DomainError,
    MaxRejections,
    NonFiniteState,
    RangeError,
    StepSizeUnderflow,
)
from jacobian_oracle import dense_jacobian


class TestBasics:
    def test_zero_initial_unforced_stays_zero(self):
        p = ModelParams(alpha=1.0, branching=2, depth=4, f=0.0)
        traj = integrate(TreeState.zeros(p), p, t_end=1.0,
                         output_times=np.linspace(0.01, 1.0, 100))
        assert len(traj.times) == 101
        assert (traj.energies == 0.0).all()
        assert (traj.fluxes == 0.0).all()
        assert (traj.min_value == 0.0).all()
        assert (traj.final.values == 0.0).all()

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
        assert traj.times[-1] == 1.0

    def test_output_times_within_rounding_share_a_snapshot(self):
        # 3 * 0.1 = 0.30000000000000004 is one ulp above 0.3; landing on both
        # used to need a vanishing step (StepSizeUnderflow)
        p = ModelParams(alpha=1.0, branching=2, depth=3, f=0.5)
        traj = integrate(TreeState.zeros(p), p, t_end=1.0,
                         output_times=[0.3, 3 * 0.1, 1.0 - 1e-16], keep=[0.3])
        assert list(traj.times) == [0.0, 3 * 0.1, 1.0]
        assert traj.state_at(0.3) is traj.state_at(3 * 0.1) is traj.kept[1]
        assert traj.state_at(1.0 - 1e-16) is traj.final

    def test_snapshots_are_separate_read_only_states(self):
        for branching in (1, 2):
            p = ModelParams(alpha=1.0, f=0.5, branching=branching, depth=4)
            traj = integrate(TreeState.zeros(p), p, t_end=0.3,
                             output_times=[0.1, 0.2], keep=[0.0, 0.1, 0.2])
            states = [traj.state_at(t) for t in traj.times]
            assert len(states) == 4
            assert states[-1] is traj.final
            for i, s in enumerate(states):
                assert type(s) is TreeState
                assert s.params is p
                assert not s.values.flags.writeable
                for other in states[:i]:
                    assert not np.shares_memory(s.values, other.values)

    def test_only_final_and_kept_states_are_held(self):
        p = ModelParams(alpha=1.0, f=0.5, branching=2, depth=4)
        outputs = [i / 100 for i in range(1, 101)]
        traj = integrate(TreeState.zeros(p), p, t_end=1.0,
                         output_times=outputs, keep=[0.25, 0.5])
        assert len(traj.times) == 101
        held = [traj.state_at(0.25), traj.state_at(0.5), traj.final]
        assert sorted(traj.kept) == [25, 50, 100]
        assert all(traj.kept[i] is s for i, s in zip((25, 50, 100), held))
        for i, s in enumerate(held):
            assert not s.values.flags.writeable
            for other in held[:i]:
                assert not np.shares_memory(s.values, other.values)
        with pytest.raises(RangeError, match="not kept"):
            traj.state_at(0.3)
        with pytest.raises(RangeError, match="not kept"):
            traj.state_at(0.0)

    @pytest.mark.parametrize("t", [-0.1, 1.5, math.nan])
    def test_keep_time_outside_run_rejected(self, t):
        p = ModelParams(alpha=1.0, branching=2, depth=2)
        with pytest.raises(DomainError, match="keep times"):
            integrate(TreeState.zeros(p), p, t_end=1.0, keep=[t])

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
        traj = integrate(y0, y0.params, t_end=0.1,
                         opts=SolverOptions(rel_tol=1e-10, abs_tol=1e-16),
                         output_times=[0.05, 0.1], keep=[0.05, 0.1])
        worst = np.zeros(3)
        for t in traj.times[1:]:
            exact = ss.b[:3] / (t + 1.0)
            worst = np.maximum(worst, np.abs(traj.state_at(t).values[:3] - exact) / exact)
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
            errs[depth] = abs(traj.final.values[0] - exact) / exact
        assert errs[10] < errs[8]


class TestInvariants:
    def test_conservation_and_monotonicity(self):
        p = ModelParams(alpha=1.0, branching=2, depth=8, f=0.0, nu=0.0)
        rng = np.random.default_rng(5)
        x = TreeState(rng.uniform(0.0, 0.1, p.n_nodes), p)
        traj = integrate(x, p, 1.0, SolverOptions(rel_tol=1e-10, abs_tol=1e-16),
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
        traj = integrate(TreeState(vals, p), p, 2.0,
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
        t1 = integrate(x, p, 0.8, opts, output_times=[0.4, 0.8], keep=[0.4])
        t2 = integrate(x, p, 0.8, opts, output_times=[0.4, 0.8], keep=[0.4])
        assert (t1.times == t2.times).all()
        for t in (0.4, 0.8):
            assert (t1.state_at(t).values == t2.state_at(t).values).all()
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
            integrate(TreeState(vals, p), p, 1.0)

    def test_overflowing_stages_reject_as_non_finite(self):
        # the stages overflow; the one finiteness check after the stage loop
        # must see it, and no RuntimeWarning may escape
        p = ModelParams(alpha=1.0, branching=2, depth=2, f=0.0)
        vals = np.full(p.n_nodes, 1e150)
        with pytest.raises(MaxRejections, match="non-finite"):
            integrate(TreeState(vals, p), p, 1.0, SolverOptions(max_rejections=3))

    def test_lone_undamped_node_never_accepts_an_overflow(self):
        # f is the constant c_0 f^2 = 1e308, so the state reaches the float
        # limit at t = 1.7977; every stage and the error norm stay finite
        p = ModelParams(alpha=1.0, branching=1, depth=0, f=1e154)
        x = TreeState(np.array([1e150]), p)
        with pytest.raises(StepSizeUnderflow, match="at t = 1.797"):
            integrate(x, p, 2.0)
        traj = integrate(x, p, 1.7)
        assert traj.final.values[0] == pytest.approx(1.7e308, rel=1e-12)
        assert traj.n_rejected == 0

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
                                       positivity_mode="clamp-to-zero"),
                         output_times=np.linspace(0.002, 0.2, 100))
        assert len(traj.times) == 101
        assert (traj.min_value >= 0.0).all()
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


def forced_chain(depth, t_end=1.0, keep=()):
    """The forced inviscid chain from root_only 1 with 100 outputs: at depth
    18 DP5 is stability-limited from t = 0.74 on."""
    p = ModelParams(alpha=1.0, gamma=1.0, nu=0.0, f=1.0, branching=1, depth=depth)
    y = np.zeros(p.n_nodes)
    y[0] = 1.0
    return integrate(TreeState(y, p), p, t_end,
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


@pytest.fixture(scope="module")
def chain18():
    return forced_chain(18, keep=[0.8])


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
        ref = integrate(TreeState(y0, p), p, 0.5, SolverOptions(rel_tol=1e-13, abs_tol=1e-16))
        q_ref = np.concatenate(([ref.work_x0[-1]], ref.work_visc[-1], ref.work_flux[-1]))
        kernel = dynamics.make_kernel(p)

        def errors(steps):
            rodas = _Rodas4(kernel, np.empty((6, p.n_nodes)), np.empty((6, q_ref.size)))
            y, q, out = y0.copy(), np.zeros(q_ref.size), np.empty(p.n_nodes)
            for _ in range(steps):
                f, w = kernel.rhs_work(y)
                q += rodas.attempt(y, f, w, 0.5 / steps, out)
                y = out.copy()
            return np.abs(y - ref.final.values).max(), np.abs(q - q_ref).max()

        coarse, fine = errors(64), errors(128)
        for c, f in zip(coarse, fine):
            assert 14.0 <= c / f <= 18.0

    def test_chain_stiff_switches_and_matches_dp5(self, chain18, chain18_dp5):
        assert chain18_dp5.stiff_from is None
        assert 0.7 < chain18.stiff_from < 0.9
        assert chain18.n_accepted <= 4000 < chain18_dp5.n_accepted
        assert chain18.n_rejected < 50
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
        args = (TreeState(y, p), p, t_end, SolverOptions(),
                np.linspace(t_end / 100, t_end, 100), [t_end / 2])
        traj, oracle = integrate(*args), dp5_only(integrate, *args)
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
        args = (TreeState(y, p), p, 2.5, SolverOptions(), np.linspace(0.025, 2.5, 100))
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

    def test_switched_chain_matches_radau(self, chain18):
        integrate_ivp = pytest.importorskip("scipy.integrate")
        p = chain18.params
        kernel = dynamics.make_kernel(p)
        sol = integrate_ivp.solve_ivp(
            lambda t, y: kernel.rhs(y), (0.8, 1.0), chain18.state_at(0.8).values,
            method="Radau", rtol=1e-11, atol=1e-14, jac=lambda t, y: dense_jacobian(p, y))
        assert sol.status == 0
        expected = sol.y[:, -1]
        assert (np.abs(chain18.final.values - expected) <= 1e-8 * expected).all()


def viscous_chain(f, nu, beta, gamma, depth, t_end):
    """A forced viscous chain from the zero state, with no output times."""
    p = ModelParams(alpha=beta, gamma=gamma, nu=nu, f=f, branching=1, depth=depth)
    return integrate(TreeState.zeros(p), p, t_end)


class TestStiffDetection:
    """Runs the test used to miss: each switches and finishes in well under
    a second."""

    def test_estimate_at_a_bitwise_fixed_point(self):
        # K[6] == K[5] gives u = 0; the probe y + 1 still sees rho(J) at the
        # step where DP5 settles (h rho = 3.2)
        p = ModelParams(alpha=3.0, gamma=1.0, nu=0.01, f=10.0, branching=1, depth=12)
        y = solve_viscous_stationary(10.0, 0.01, 3.0, 1.0, n_max=40).y[:p.n_nodes]
        kernel = dynamics.make_kernel(p)
        K = np.tile(kernel.rhs(y), (7, 1))
        h = 3.2 / np.abs(np.linalg.eigvals(dense_jacobian(p, y))).max()
        scratch = np.empty((2, p.n_nodes))
        estimate = dynamics._stiffness_estimate(kernel, y, K, h, *scratch)
        assert dynamics._STIFF_H_LAMBDA < estimate <= 1.1 * 3.2

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
        traj = integrate(TreeState(y, p), p, 1.0, output_times=np.linspace(0.01, 1.0, 100))
        assert len(calls) > 30
        assert traj.rejected == {"error norm": 0, "non-finite": 1, "positivity": 0}
        assert np.isfinite(traj.energies).all() and np.isfinite(traj.fluxes).all()

    def test_non_finite_rejections_are_counted(self):
        # the stages of a first step of 1000 overflow; halving recovers
        p = ModelParams(alpha=1.0, branching=2, depth=2, f=0.0)
        traj = integrate(TreeState(np.ones(p.n_nodes), p), p, 1e3,
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
        again = forced_chain(18, keep=[0.8])
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
        traj = integrate(TreeState.zeros(p), p, 1.0,
                         SolverOptions(positivity_mode="clamp-to-zero"),
                         output_times=np.linspace(0.01, 1.0, 100))
        assert traj.stiff_from is None and traj.n_flattened > 0
        attempts = traj.n_accepted + traj.n_rejected
        assert traj.n_rhs == 1 + 6 * attempts + traj.n_flattened
        assert 0.0 < traj.h_min < traj.h_max <= np.diff(traj.times).max()


class TestRecordedRows:
    """A row is taken from the evaluation of f that the run makes anyway at
    the recorded state; it must equal the reductions of that state computed
    afresh, bit for bit, on every branch: DP5's FSAL, the re-evaluation
    after a flattening and RODAS4's re-evaluation."""

    @staticmethod
    def assert_rows_are_fresh(traj):
        p = traj.params
        assert sorted(traj.kept) == list(range(len(traj.times)))
        for i, state in traj.kept.items():
            y = state.values
            assert traj.energies[i].tobytes() == generation_energies(p, y).tobytes()
            assert traj.fluxes[i].tobytes() == boundary_fluxes(p, y).tobytes()
            assert traj.min_value[i].tobytes() == y.min().tobytes()

    @staticmethod
    def run(p, y, t_end, opts=SolverOptions()):
        outputs = np.linspace(t_end / 100, t_end, 100)
        return integrate(TreeState(y, p), p, t_end, opts, output_times=outputs,
                         keep=[0.0, *outputs])

    def test_dp5_tree_run(self):
        p = ModelParams(alpha=1.0, gamma=1.0, nu=1e-3, f=1.0, branching=2, depth=8)
        y = np.random.Generator(np.random.Philox(1)).uniform(0.0, 0.01, p.n_nodes)
        traj = self.run(p, y, 1.5)
        assert traj.stiff_from is None
        self.assert_rows_are_fresh(traj)

    def test_clamp_mode_run_that_flattens(self):
        # components leaving exact zero go slightly negative and are
        # flattened, on steps that land on 0.01, ..., 0.09
        p = ModelParams(alpha=1.0, gamma=1.0, nu=1e-3, f=1.0, branching=2, depth=6)
        traj = self.run(p, np.zeros(p.n_nodes), 1.0,
                        SolverOptions(positivity_mode="clamp-to-zero"))
        assert traj.stiff_from is None and traj.n_flattened > 0
        self.assert_rows_are_fresh(traj)

    def test_run_that_switches_to_rodas4(self):
        traj = forced_chain(18, keep=[0.0, *(i / 100 for i in range(1, 101))])
        assert traj.stiff_from is not None
        self.assert_rows_are_fresh(traj)


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


class TestCapacity:
    def test_held_values_counts_the_stiff_workspace(self):
        # every run may switch, and RODAS4's workspace is O(n): 15 n + 3 nw
        # on a chain (its factor is lists of Python floats), 5 n + 3 nw on
        # a tree, nw = 2 depth + 2 work rates
        for p, stiff in ((ModelParams(alpha=1.0, branching=1, depth=18), 15 * 19 + 3 * 38),
                         (ModelParams(alpha=1.0, branching=2, depth=8), 5 * 511 + 3 * 18),
                         (ModelParams(alpha=1.0, branching=2, depth=17), 5 * 262143 + 3 * 36)):
            rows = 101 * (4 * p.depth + 5)
            assert held_values(p, 100, 1) == 13 * p.n_nodes + stiff + rows

    def test_integrate_checks_the_budget_before_allocating(self, monkeypatch):
        p = ModelParams(alpha=1.0, f=0.5, branching=2, depth=4)
        outputs = [0.25, 0.5, 0.75, 1.0]
        held = held_values(p, len(outputs), 1)
        x = TreeState.zeros(p)
        for budget in (p.n_nodes, held - 1):
            tight = ModelParams(alpha=1.0, f=0.5, branching=2, depth=4, max_nodes=budget)
            with monkeypatch.context() as m:
                m.setattr(dynamics, "make_kernel", None)  # raised before it runs
                with pytest.raises(CapacityExceeded, match="would hold"):
                    integrate(x, tight, 1.0, output_times=outputs, keep=[0.5])
        fits = ModelParams(alpha=1.0, f=0.5, branching=2, depth=4, max_nodes=held)
        assert integrate(x, fits, 1.0, output_times=outputs, keep=[0.5]).n_accepted > 0
