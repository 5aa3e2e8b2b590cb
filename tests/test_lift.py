import numpy as np
import pytest

from dyadic_cascade import (
    LiftSpec,
    ModelParams,
    SolverOptions,
    TreeState,
    integrate,
    lift_params,
    lift_state,
    pow2,
    project_params,
    project_state,
    rhs_tree,
    verify_lift_equivariance,
)
from dyadic_cascade.errors import DomainError, ParameterMismatch, SymmetryError


def classic_params(depth=5, **kw):
    kw.setdefault("alpha", 1.0)
    return ModelParams(branching=1, depth=depth, **kw)


class TestLiftSpec:
    def test_derived(self):
        spec = LiftSpec(alpha_tilde=1.0, beta=1.0)
        assert spec.alpha == 2.0
        assert spec.branching == 4
        assert LiftSpec.for_branching(8, 1.0).alpha_tilde == 1.5

    def test_non_whole_branching_rejected(self):
        with pytest.raises(ValueError):
            LiftSpec(alpha_tilde=0.3, beta=1.0)

    @pytest.mark.parametrize("beta", [0.0, -0.1, float("nan")])
    def test_beta_must_be_positive(self, beta):
        with pytest.raises(DomainError, match="beta = alpha - alpha_tilde"):
            LiftSpec(alpha_tilde=0.5, beta=beta)

    @pytest.mark.parametrize("alpha_tilde", [-0.5, float("inf"), float("nan")])
    def test_alpha_tilde_must_be_finite_nonnegative(self, alpha_tilde):
        with pytest.raises(DomainError, match="alpha_tilde must be finite"):
            LiftSpec(alpha_tilde=alpha_tilde, beta=1.0)

    def test_subcritical_tree_has_no_classic_projection(self):
        with pytest.raises(DomainError, match="beta = alpha - alpha_tilde"):
            project_params(ModelParams(alpha=0.4, branching=2, depth=3))


class TestLiftState:
    def test_degenerate_tree_is_identity(self):
        y = TreeState(np.arange(1.0, 7.0), classic_params())
        x = lift_state(y, LiftSpec(alpha_tilde=0.0, beta=1.0))
        assert (x.values == y.values).all()

    def test_root_scale_example(self):
        # Y_0 = 1 at alpha_tilde = 1: root value 2^{-2} = 0.25
        vals = np.zeros(6)
        vals[0] = 1.0
        y = TreeState(vals, classic_params())
        x = lift_state(y, LiftSpec(alpha_tilde=1.0, beta=1.0))
        assert x.values[0] == 0.25

    def test_generation_scaling(self):
        y_vals = np.array([pow2(-n) for n in range(6)])
        y = TreeState(y_vals, classic_params())
        x = lift_state(y, LiftSpec(alpha_tilde=0.5, beta=1.0))
        for n in range(6):
            expected = pow2(-n) * pow2(-(n + 2) / 2.0)
            assert x.generation_slice(n)[0] == pytest.approx(expected, rel=1e-15)
            assert (x.generation_slice(n) == x.generation_slice(n)[0]).all()

    def test_forcing_map(self):
        p = classic_params(f=0.8, nu=0.1, gamma=1.3)
        tree = lift_params(p, LiftSpec(alpha_tilde=1.0, beta=1.0))
        assert tree.f == pow2(-1.0) * 0.8
        assert tree.nu == p.nu and tree.gamma == p.gamma
        assert tree.alpha == 2.0 and tree.branching == 4

    def test_positivity_preserved(self):
        rng = np.random.default_rng(0)
        y = TreeState(rng.uniform(0, 1, 6), classic_params())
        x = lift_state(y, LiftSpec(alpha_tilde=1.5, beta=1.0))
        assert (x.values >= 0).all()

    def test_l2_identity(self):
        rng = np.random.default_rng(1)
        y = TreeState(rng.uniform(0.1, 1, 6), classic_params())
        for at in (0.0, 0.5, 1.0, 1.5):
            x = lift_state(y, LiftSpec(alpha_tilde=at, beta=1.0))
            norm_sq = float(np.sum(x.values ** 2))
            expected = pow2(-4 * at) * float(np.sum(y.values ** 2))
            assert norm_sq == pytest.approx(expected, rel=1e-13)
            assert norm_sq <= float(np.sum(y.values ** 2)) + 1e-15


class TestProjectState:
    @pytest.mark.parametrize("branching", [1, 4])
    def test_round_trip_bit_exact_for_integer_scale_exponents(self, branching):
        # 2^{-(n+2) alpha_tilde} is an exact power of two here
        rng = np.random.default_rng(2)
        y = TreeState(rng.uniform(0.1, 1, 7), classic_params(depth=6))
        spec = LiftSpec.for_branching(branching, beta=1.0)
        back = project_state(lift_state(y, spec))
        assert (back.values == y.values).all()

    def test_round_trip_within_ulp_for_half_integer_exponents(self):
        rng = np.random.default_rng(3)
        y = TreeState(rng.uniform(0.1, 1, 7), classic_params(depth=6))
        spec = LiftSpec.for_branching(2, beta=1.0)
        back = project_state(lift_state(y, spec))
        ulp = np.spacing(y.values)
        assert (np.abs(back.values - y.values) <= ulp).all()

    def test_symmetry_error_reports_generation(self):
        p = ModelParams(alpha=1.5, branching=2, depth=3)
        vals = np.zeros(p.n_nodes)
        vals[1], vals[2] = 0.5, 0.6
        with pytest.raises(SymmetryError) as exc:
            project_state(TreeState(vals, p))
        assert exc.value.generation == 1

    def test_zero_tree_projects_to_zero(self):
        p = ModelParams(alpha=1.5, branching=2, depth=3)
        back = project_state(TreeState.zeros(p))
        assert (back.values == 0.0).all()


class TestEquivariance:
    def test_unforced_inviscid_random(self):
        p = classic_params(depth=8, nu=0.0, f=0.0)
        rng = np.random.default_rng(4)
        y = TreeState(rng.uniform(0.05, 1.0, 9), p)
        for at in (0.5, 1.0, 1.5):
            spec = LiftSpec(alpha_tilde=at, beta=1.0)
            defect = verify_lift_equivariance(y, spec)
            scale = np.abs(rhs_tree(lift_state(y, spec))).max()
            assert defect <= 1e-12 * scale

    def test_zero_state_forced_is_exact(self):
        p = classic_params(depth=4, f=0.9)
        y = TreeState(np.zeros(5), p)
        assert verify_lift_equivariance(y, LiftSpec(alpha_tilde=1.0, beta=1.0)) == 0.0

    def test_full_parameters_random(self):
        p = classic_params(depth=7, nu=0.3, f=0.6, gamma=1.4)
        rng = np.random.default_rng(5)
        y = TreeState(rng.uniform(0.05, 1.0, 8), p)
        spec = LiftSpec(alpha_tilde=0.5, beta=1.0)
        defect = verify_lift_equivariance(y, spec)
        scale = np.abs(rhs_tree(lift_state(y, spec))).max()
        assert defect <= 1e-12 * scale

    def test_parameter_mismatch(self):
        p = classic_params(depth=4)
        y = TreeState(np.ones(5), p)
        with pytest.raises(ParameterMismatch):
            verify_lift_equivariance(y, LiftSpec(alpha_tilde=1.0, beta=2.0))


class TestFlowCommutation:
    def test_integrate_then_lift_equals_lift_then_integrate(self):
        rel_tol = 1e-10
        p = classic_params(depth=6, nu=0.05, f=0.2, gamma=1.0)
        rng = np.random.default_rng(7)
        y0 = TreeState(rng.uniform(0.05, 1.0, 7), p)
        spec = LiftSpec(alpha_tilde=1.0, beta=1.0)
        opts = SolverOptions(rel_tol=rel_tol, abs_tol=1e-16)
        traj_cl = integrate(y0, 0.5, opts, output_times=[0.5])
        x0 = lift_state(y0, spec)
        traj_tr = integrate(x0, 0.5, opts, output_times=[0.5])
        lifted_final = lift_state(traj_cl.final, spec)
        sup = np.abs(lifted_final.values - traj_tr.final.values).max()
        assert sup <= 10 * rel_tol
