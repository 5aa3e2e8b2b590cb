import mpmath as mp
import numpy as np
import pytest

import shooting_oracle as oracle

from dyadic_cascade import (
    ModelParams,
    SolverOptions,
    TreeState,
    energy_report,
    graft_selfsimilar,
    integrate,
    lift_residual,
    lift_selfsimilar,
    pow2,
    shifted_profile,
    solve_selfsimilar_classic,
    tree_coefficient_energy,
)
from dyadic_cascade.errors import (
    DomainError,
    GenerationMismatch,
    OverlapError,
    ParameterMismatch,
    PoleMismatch,
)


@pytest.fixture(scope="module")
def beta_two_profile():
    return solve_selfsimilar_classic(-1.0, 2.0, 25)


@pytest.fixture(scope="module")
def lifted_profile():
    return lift_selfsimilar(solve_selfsimilar_classic(-1.0, 2.0, 12), 0.5)


class TestShooting:
    @pytest.fixture
    def profile(self, beta_two_profile):
        return beta_two_profile

    def test_b_independent_of_t0(self, profile):
        other = solve_selfsimilar_classic(-2.0, 2.0, 25)
        assert (other.b == profile.b).all()
        # only the evaluation scales: Y(0) = b/(-t0)
        assert other.classic_state(0.0).values == pytest.approx(
            profile.classic_state(0.0).values / 2.0, rel=1e-15)

    def test_forced_second_coefficient(self, profile):
        # b_1 = 2^{-beta} regardless of b_0
        assert profile.b[1] == pytest.approx(pow2(-2.0), rel=1e-12)

    def test_tail_ratio_settles_to_geometric(self, profile):
        ratio = profile.b[25] / profile.b[24]
        assert ratio == pytest.approx(pow2(-2.0 / 3.0), rel=1e-8)

    def test_algebraic_relation_everywhere(self, profile):
        b = profile.b
        beta = profile.beta
        for n in range(25):
            prev = b[n - 1] if n else 0.0
            res = b[n] + pow2(beta * n) * prev ** 2 \
                - pow2(beta * (n + 1)) * b[n] * b[n + 1]
            scale = max(b[n], pow2(beta * (n + 1)) * b[n] * b[n + 1])
            assert abs(res) <= 1e-11 * scale

    def test_root_against_scan_oracle(self, profile):
        with mp.workdps(70):
            q_eps = mp.mpf(2) ** (-mp.mpf(4) / 3)
            lo, hi = mp.mpf("0.1"), mp.mpf("2.0")
            for _ in range(5):
                grid = [lo + (hi - lo) * i / 24 for i in range(25)]
                labels = [oracle.classify_dips(a, q_eps, 60, oracle.DIP_RATIO)[0]
                          for a in grid]
                bracket = None
                for (a1, l1), (a2, l2) in zip(zip(grid, labels),
                                              zip(grid[1:], labels[1:])):
                    if l1 == "raise" and l2 != "raise":
                        bracket = (a1, a2)
                        break
                assert bracket is not None, labels
                lo, hi = bracket
            assert float(lo) <= profile.b[0] <= float(hi)

    def test_positive_pole_rejected(self):
        with pytest.raises(DomainError):
            solve_selfsimilar_classic(0.5, 2.0, 10)

    @pytest.mark.parametrize("n0", [-1, 5, 9])
    def test_n0_must_lie_below_n_max(self, n0):
        with pytest.raises(DomainError, match="n0 must satisfy"):
            solve_selfsimilar_classic(-1.0, 1.0, 5, n0=n0)

    def test_evaluation_below_pole_rejected(self, profile):
        with pytest.raises(DomainError):
            profile.classic_state(-1.5)


class TestLift:
    @pytest.fixture
    def lifted(self, lifted_profile):
        return lifted_profile

    def test_degenerate_lift_is_identity(self):
        prof = solve_selfsimilar_classic(-1.0, 2.0, 10)
        lifted = lift_selfsimilar(prof, 0.0)
        assert (lifted.a == lifted.b).all()

    def test_algebraic_residual_small(self, lifted):
        assert lift_residual(lifted) <= 1e-10

    def test_residual_at_generation_one(self, lifted):
        # spot check of the node condition a_j + c_j a_parent^2 =
        # sum_children c_k a_j a_k at generation 1 (beta = 2, at = 1/2)
        spec_alpha = lifted.beta + lifted.alpha_tilde
        branching = 2
        a = lifted.a
        res = a[1] + pow2(spec_alpha) * a[0] ** 2 \
            - branching * pow2(2 * spec_alpha) * a[1] * a[2]
        assert abs(res) <= 1e-12 * max(a[1], 1e-300)

    def test_energy_constant(self, lifted):
        # E(t) = (sum a_j^2) / (t - t0)^2 for the materialized tree state
        const = tree_coefficient_energy(lifted, depth=6)
        direct = sum(pow2(-4 * lifted.alpha_tilde) * lifted.b[n] ** 2
                     for n in range(7))
        assert const == pytest.approx(direct, rel=1e-12)

    def test_lift_requires_nonnegative_alpha_tilde(self):
        prof = solve_selfsimilar_classic(-1.0, 2.0, 8)
        with pytest.raises(ParameterMismatch):
            lift_selfsimilar(prof, -0.5)


class TestShiftedProfiles:
    def test_shift_scale_identity(self):
        base = solve_selfsimilar_classic(-1.0, 1.5, 20)
        sh = shifted_profile(base, 3)
        assert (sh.b[:3] == 0.0).all()
        assert sh.b[3:] == pytest.approx(pow2(-1.5 * 3) * base.b[:18], rel=1e-14)
        assert sh.n0 == 3

    def test_shifted_satisfies_recurrence(self):
        # oracle: the defining algebraic relation holds at every index of the
        # shifted sequence (leading zeros included), and the decay matches
        base = solve_selfsimilar_classic(-1.0, 2.0, 20)
        sh = shifted_profile(base, 2)
        b, beta = sh.b, sh.beta
        for n in range(20):
            prev = b[n - 1] if n else 0.0
            res = b[n] + pow2(beta * n) * prev ** 2 \
                - pow2(beta * (n + 1)) * b[n] * b[n + 1]
            scale = max(b[n], pow2(beta * (n + 1)) * b[n] * b[n + 1], 1e-300)
            assert abs(res) <= 1e-11 * scale
        assert b[2] > 0
        ratio = b[20] / b[19]
        assert ratio == pytest.approx(pow2(-2.0 / 3.0), rel=1e-6)


def make_base(depth=4, beta=2.0, alpha_tilde=0.5):
    params = ModelParams(alpha=beta + alpha_tilde, gamma=1.0, nu=0.0, f=0.0,
                         branching=round(pow2(2 * alpha_tilde)), depth=depth)
    return TreeState.zeros(params)


class TestGraft:
    def test_root_graft_of_shifted_profile_is_plain_lift(self):
        base = make_base()
        prof = lift_selfsimilar(solve_selfsimilar_classic(-1.0, 2.0, 6, n0=1), 0.5)
        grafted = graft_selfsimilar(base, prof, 0)
        offs = base.params.offsets
        assert (grafted.values[offs[0]:offs[1]] == 0.0).all()
        for g in range(1, 5):
            assert (grafted.values[offs[g]:offs[g + 1]] == prof.a[g]).all()
        assert grafted.t0 == -1.0

    def test_disjoint_grafts_and_zero_complement_under_integration(self):
        base = make_base(depth=5)
        prof = lift_selfsimilar(solve_selfsimilar_classic(-1.0, 2.0, 8, n0=2), 0.5)
        # two disjoint generation-2 subtrees: nodes 3 and 6
        g1 = graft_selfsimilar(base, prof, 3)
        g2 = graft_selfsimilar(g1, prof, 6)
        state0 = g2.at_time(0.0)
        traj = integrate(state0, state0.params, 0.2,
                         SolverOptions(rel_tol=1e-9, abs_tol=1e-16),
                         output_times=[0.2])
        final = traj.final.values
        # untouched complement stays exactly zero
        touched = np.zeros(base.params.n_nodes, dtype=bool)
        for root in (3, 6):
            start, width = root, 1
            for g in range(2, 6):
                touched[start:start + width] = True
                start = 2 * start + 1
                width *= 2
        assert (final[~touched] == 0.0).all()
        assert (final[touched] > 0).any()

    def test_overlap_rejected(self):
        base = make_base(depth=5)
        prof = lift_selfsimilar(solve_selfsimilar_classic(-1.0, 2.0, 8, n0=2), 0.5)
        g1 = graft_selfsimilar(base, prof, 3)
        with pytest.raises(OverlapError):
            graft_selfsimilar(g1, prof, 3)   # same subtree
        prof1 = lift_selfsimilar(solve_selfsimilar_classic(-1.0, 2.0, 8, n0=1), 0.5)
        with pytest.raises(OverlapError):
            graft_selfsimilar(g1, prof1, 1)  # ancestor of node 3

    def test_generation_mismatch(self):
        base = make_base(depth=5)
        prof = lift_selfsimilar(solve_selfsimilar_classic(-1.0, 2.0, 8, n0=1), 0.5)
        with pytest.raises(GenerationMismatch):
            graft_selfsimilar(base, prof, 3)  # node 3 sits at generation 2 > n0

    def test_pole_mismatch(self):
        base = make_base(depth=5)
        prof_a = lift_selfsimilar(solve_selfsimilar_classic(-1.0, 2.0, 8, n0=2), 0.5)
        prof_b = lift_selfsimilar(solve_selfsimilar_classic(-2.0, 2.0, 8, n0=2), 0.5)
        g1 = graft_selfsimilar(base, prof_a, 3)
        with pytest.raises(PoleMismatch):
            graft_selfsimilar(g1, prof_b, 6)

    def test_unlifted_profile_rejected(self):
        base = make_base()
        prof = solve_selfsimilar_classic(-1.0, 2.0, 6, n0=1)
        with pytest.raises(ParameterMismatch):
            graft_selfsimilar(base, prof, 0)

    def test_branching_mismatch_rejected(self):
        base = make_base(alpha_tilde=0.5)
        prof = lift_selfsimilar(solve_selfsimilar_classic(-1.0, 2.0, 6, n0=1), 1.0)
        with pytest.raises(ParameterMismatch):
            graft_selfsimilar(base, prof, 0)


class TestPoleTranslation:
    def test_evaluate_integrate_translate(self):
        # integrating the evaluated profile forward by s lands on the
        # evaluation at t + s; the truncation boundary layer contaminates
        # roughly one order of magnitude per generation upward, so the
        # comparison tightens toward the root (envelope measured at depth 8)
        prof = lift_selfsimilar(solve_selfsimilar_classic(-1.0, 2.0, 10), 0.5)
        base = make_base(depth=8)
        grafted = graft_selfsimilar(base, prof, 0)
        state0 = grafted.at_time(0.0)
        s = 0.1
        traj = integrate(state0, state0.params, s,
                         SolverOptions(rel_tol=1e-10, abs_tol=1e-18),
                         output_times=[s])
        expected = grafted.at_time(s).values
        got = traj.final.values
        offs = state0.params.offsets
        for g, tol in ((0, 2e-4), (1, 1e-2), (2, 1e-1)):
            sl = slice(offs[g], offs[g + 1])
            rel = np.abs(got[sl] - expected[sl]).max() / expected[offs[g]]
            assert rel <= tol
        assert np.abs(got[:offs[3]] - state0.values[:offs[3]]).max() > 1e-3  # moved


class TestDecayLaw:
    def test_energy_decays_like_t_minus_two(self):
        prof = lift_selfsimilar(solve_selfsimilar_classic(-1.0, 2.0, 9), 0.5)
        base = make_base(depth=6)
        grafted = graft_selfsimilar(base, prof, 0)
        const = tree_coefficient_energy(prof, depth=6)
        for t in (0.0, 0.5, 2.0):
            E = energy_report(grafted.at_time(t)).total
            assert E == pytest.approx(const / (t + 1.0) ** 2, rel=1e-12)
