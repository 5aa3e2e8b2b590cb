import numpy as np
import pytest

from dyadic_cascade import (
    LiftSpec,
    ModelParams,
    SolverOptions,
    TreeState,
    balance_residual,
    energy_report,
    flux_budget_check,
    integrate,
    lift_state,
    pow2,
    solve_viscous_stationary,
)
from dyadic_cascade.errors import ForcedRun, RangeError
from dyadic_cascade.kernels import generation_energies


class TestEnergyReport:
    def test_root_only(self):
        p = ModelParams(alpha=1.0, branching=2, depth=3)
        vals = np.zeros(p.n_nodes)
        vals[0] = 1.0
        rep = energy_report(TreeState(vals, p))
        assert (rep.cumulative == 1.0).all()
        assert rep.total == 1.0
        assert (rep.boundary_flux == 0.0).all()
        assert rep.balance_residual is None

    def test_generation_one_halves(self):
        p = ModelParams(alpha=1.0, branching=2, depth=2)
        vals = np.zeros(p.n_nodes)
        vals[1] = vals[2] = 0.5
        rep = energy_report(TreeState(vals, p))
        assert rep.cumulative[1] - rep.cumulative[0] == 0.5
        assert rep.per_generation[1] == 0.5

    def test_lifted_state_generation_energy(self):
        # direct summation: generation-n energy of a lifted state is
        # 2^{-4 alpha_tilde} Y_n^2 (the paper's proof display prints the
        # reciprocal constant; the substitution itself forces this one)
        p_cl = ModelParams(alpha=1.0, branching=1, depth=5)
        rng = np.random.default_rng(0)
        y = rng.uniform(0.2, 1.0, 6)
        spec = LiftSpec(alpha_tilde=1.0, beta=1.0)
        lifted = lift_state(TreeState(y, p_cl), spec)
        rep = energy_report(lifted)
        offs = lifted.params.offsets
        for n in range(6):
            direct = float(np.sum(lifted.values[offs[n]:offs[n + 1]] ** 2))
            assert direct == pytest.approx(pow2(-4.0) * y[n] ** 2, rel=1e-14)
            assert rep.per_generation[n] == pytest.approx(direct, rel=1e-14)

    def test_flux_matches_brute_force(self):
        p = ModelParams(alpha=1.3, branching=2, depth=3)
        rng = np.random.default_rng(1)
        vals = rng.uniform(0, 1, p.n_nodes)
        rep = energy_report(TreeState(vals, p))
        # brute force over explicit parent-child pairs
        for n in range(3):
            total = 0.0
            for k in range(p.offsets[n + 1], p.offsets[n + 2]):
                total += 2.0 * pow2(p.alpha * (n + 1)) * vals[(k - 1) // 2] ** 2 * vals[k]
            assert rep.boundary_flux[n] == pytest.approx(total, rel=1e-12)


class TestBalanceResidual:
    def test_truncated_unforced_inviscid_is_conservative(self):
        p = ModelParams(alpha=1.0, branching=2, depth=6, f=0.0, nu=0.0)
        rng = np.random.default_rng(2)
        x = TreeState(rng.uniform(0, 0.5, p.n_nodes), p)
        traj = integrate(x, p, 1.0, SolverOptions(rel_tol=1e-10, abs_tol=1e-16),
                         output_times=[0.5, 1.0])
        r = balance_residual(traj, 0.0, 1.0)
        E0 = traj.step_energies[0]
        assert abs(r) <= 1e-8 * E0

    def test_forced_viscous_balances(self):
        p = ModelParams(alpha=1.0, gamma=1.0, nu=0.2, f=0.8, branching=2, depth=5)
        vals = np.zeros(p.n_nodes)
        vals[0] = 0.3
        traj = integrate(TreeState(vals, p), p, 1.5,
                         SolverOptions(rel_tol=1e-10, abs_tol=1e-16),
                         output_times=[0.5, 1.5])
        r = balance_residual(traj, 0.5, 1.5)
        assert abs(r) <= 1e-8

    def test_stationary_viscous_residual_zero(self):
        # input power balances viscous work along the stationary profile;
        # shallow truncation suffices: the regular-regime tail decays doubly
        # exponentially (Z_6 ~ 1e-12 here), and the explicit integrator's
        # step is bounded by the deepest viscous rate nu 2^{gamma n}
        prof = solve_viscous_stationary(1.0, 1.0, 2.0, 2.0, n_max=6)
        state = prof.state
        traj = integrate(state, state.params, 0.5,
                         SolverOptions(rel_tol=1e-10, abs_tol=1e-18),
                         output_times=[0.5])
        r = balance_residual(traj, 0.0, 0.5)
        scale = max(1.0, traj.step_energies[0])
        assert abs(r) <= 1e-8 * scale
        # and the two work terms individually nearly cancel
        forcing = 2 * state.params.f ** 2 * traj.work_x0[-1]
        viscous = 2 * state.params.nu * traj.work_visc[-1].sum()
        assert forcing == pytest.approx(viscous, rel=1e-4)

    def test_restricted_residual_equals_minus_flux_integral(self):
        ss_depth = 8
        p = ModelParams(alpha=1.0, branching=2, depth=ss_depth, f=0.0, nu=0.0)
        rng = np.random.default_rng(3)
        x = TreeState(rng.uniform(0, 0.3, p.n_nodes), p)
        traj = integrate(x, p, 1.0, SolverOptions(rel_tol=1e-10, abs_tol=1e-16),
                         output_times=[1.0])
        for m in (2, 5):
            r = balance_residual(traj, 0.0, 1.0, generation=m)
            assert r <= 0.0
            assert r == pytest.approx(-traj.work_flux[-1, m], abs=1e-10)

    def test_snapshot_energies_are_computed_once(self):
        p = ModelParams(alpha=1.0, gamma=1.0, nu=0.1, f=0.5, branching=4, depth=3)
        rng = np.random.default_rng(9)
        x = TreeState(rng.uniform(0, 0.5, p.n_nodes), p)
        traj = integrate(x, p, 0.4, output_times=[0.1, 0.2, 0.3])
        for i, t in enumerate(traj.times):
            state = traj.states[i]
            assert energy_report(state, p).per_generation is state.generation_energies
            assert not state.generation_energies.flags.writeable
            if i == 0:
                continue
            # the shared sums are the plain per-slice reductions, bit for bit
            e = [generation_energies(p, traj.states[k].values) for k in (0, i)]
            expected = (float(np.add.reduce(e[1])) - float(np.add.reduce(e[0]))
                        - 2.0 * p.f ** 2 * (traj.work_x0[i] - traj.work_x0[0])
                        + 2.0 * p.nu * float(np.add.reduce(
                            traj.work_visc[i] - traj.work_visc[0])))
            assert balance_residual(traj, 0.0, t) == expected

    def test_range_errors(self):
        p = ModelParams(alpha=1.0, branching=2, depth=2, f=0.0)
        rng = np.random.default_rng(4)
        x = TreeState(rng.uniform(0, 0.5, p.n_nodes), p)
        traj = integrate(x, p, 1.0, output_times=[1.0])
        with pytest.raises(RangeError):
            balance_residual(traj, 0.5, 0.2)
        with pytest.raises(RangeError):
            balance_residual(traj, 0.0, 2.0)


class TestFluxBudget:
    def test_zero_data(self):
        p = ModelParams(alpha=1.0, branching=2, depth=3, f=0.0)
        traj = integrate(TreeState.zeros(p), p, 1.0, output_times=[1.0])
        assert flux_budget_check(traj, 1) == (0.0, 0.0)

    def test_boundary_minus_one_is_trivial(self):
        p = ModelParams(alpha=1.0, branching=2, depth=3, f=0.0)
        rng = np.random.default_rng(5)
        traj = integrate(TreeState(rng.uniform(0, 0.5, p.n_nodes), p), p, 1.0,
                         output_times=[1.0])
        assert flux_budget_check(traj, -1) == (0.0, 0.0)

    def test_root_only_budget(self):
        p = ModelParams(alpha=1.0, branching=2, depth=5, f=0.0)
        vals = np.zeros(p.n_nodes)
        vals[0] = 1.0
        traj = integrate(TreeState(vals, p), p, 3.0,
                         SolverOptions(rel_tol=1e-10, abs_tol=1e-16),
                         output_times=[3.0])
        acc, e0 = flux_budget_check(traj, 0)
        assert e0 == 1.0
        assert 0.0 < acc < e0

    def test_budget_inequality_all_boundaries(self):
        p = ModelParams(alpha=1.2, branching=2, depth=6, f=0.0)
        rng = np.random.default_rng(6)
        traj = integrate(TreeState(rng.uniform(0, 0.4, p.n_nodes), p), p, 2.0,
                         SolverOptions(rel_tol=1e-9, abs_tol=1e-15),
                         output_times=[2.0])
        for n in range(-1, 7):
            acc, e_n0 = flux_budget_check(traj, n)
            assert acc <= e_n0 + 1e-9

    def test_forced_run_rejected(self):
        p = ModelParams(alpha=1.0, branching=2, depth=3, f=0.5)
        traj = integrate(TreeState.zeros(p), p, 1.0, output_times=[1.0])
        with pytest.raises(ForcedRun):
            flux_budget_check(traj, 0)
