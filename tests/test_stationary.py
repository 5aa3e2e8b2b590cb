import mpmath as mp
import numpy as np
import pytest

import shooting_oracle as oracle

from dyadic_cascade import (
    ModelParams,
    TreeState,
    asymptotic_flux,
    classify_regime,
    energy_report,
    inviscid_classic_profile,
    inviscid_tree_profile,
    pow2,
    rhs_tree,
    solve_viscous_stationary,
    stationary_tree_profile,
)
from dyadic_cascade.cli import fit_spectrum
from dyadic_cascade.errors import BracketFailure, DomainError
from dyadic_cascade.stationary import (
    REGIME_ANOMALOUS,
    REGIME_REGULAR,
    REGIME_SMALL_FORCING,
    bisect_shooting,
)


class TestInviscidProfiles:
    def test_classic_halving_sequence(self):
        prof = inviscid_classic_profile(1.0, 3.0, 5)
        assert prof.values[0] == 0.5
        assert prof.values[1] == 0.25
        assert prof.values[2] == 0.125

    def test_classic_scale(self):
        prof = inviscid_classic_profile(2.0, 3.0, 3)
        assert prof.values[0] == 1.0

    def test_zero_forcing_rejected(self):
        with pytest.raises(DomainError):
            inviscid_classic_profile(0.0, 2.0, 5)

    def test_tree_k41_exponent(self):
        # alpha = 5/2, N = 8: decay exponent (2 at + a)/3 = 11/6 per generation
        prof = inviscid_tree_profile(1.0, 2.5, 1.5, depth=4)
        assert prof.values[0] == pow2(-11.0 / 6.0)
        fit = fit_spectrum(prof)
        assert abs(fit.eta_hat - 11.0 / 6.0) <= 1e-10

    def test_tree_root_value(self):
        prof = inviscid_tree_profile(1.0, 2.0, 0.5, depth=2)
        assert prof.values[0] == 0.5  # 2^{-(2*0.5+2)/3} = 2^{-1}

    def test_flat_energy_at_marginal_exponent(self):
        with pytest.warns(UserWarning):
            prof = inviscid_tree_profile(1.0, 1.5, 1.5, depth=4)
        rep = energy_report(prof)
        ratios = rep.per_generation[1:] / rep.per_generation[:-1]
        assert ratios == pytest.approx(np.ones(4), rel=1e-12)

    def test_generation_energy_ratio(self):
        prof = inviscid_tree_profile(1.0, 2.5, 1.5, depth=4)
        rep = energy_report(prof)
        expected = pow2((2.0 / 3.0) * (1.5 - 2.5))
        ratios = rep.per_generation[1:] / rep.per_generation[:-1]
        assert ratios == pytest.approx(np.full(4, expected), rel=1e-12)


class TestZStepSequence:
    def test_inviscid_limit_sanity(self):
        # with the corrective term formally removed, the rescaled inviscid
        # profile is the constant sequence: Z_{n+1} Z_n = Z_{n-1}^2
        prof = inviscid_classic_profile(1.3, 2.0, 8)
        z = np.array([pow2(2.0 * (n + 2) / 3.0) * prof.values[n] for n in range(9)])
        assert z == pytest.approx(np.full(9, z[0]), rel=1e-13)
        for n in range(1, 8):
            assert z[n + 1] * z[n] == pytest.approx(z[n - 1] ** 2, rel=1e-12)

    def test_parity_rule_orientation(self):
        """Trials below the root fail first at an even index, above at an odd
        index (Z_n is increasing in Z_0 for even n, decreasing for odd)."""
        prof = solve_viscous_stationary(1.5, 1.0, 3.0, 1.0, n_max=20)
        root = prof.z[1]
        g, mu = mp.mpf(prof.g), mp.mpf(prof.mu)
        for a, expected in ((root * 0.7, "raise"), (root * 0.95, "raise"),
                            (root * 1.05, "lower"), (root * 1.4, "lower")):
            label, fail = oracle.classify_parity(g, mp.mpf(a), mu, 40)
            assert label == expected
            assert fail % 2 == (0 if expected == "raise" else 1)


def scan_oracle(g, mu, n_levels, lo, hi, rounds=5, steps=24):
    """Independent fine-grid scan for the survivor transition of Z_0."""
    with mp.workdps(80):
        g, mu, lo, hi = map(mp.mpf, (g, mu, lo, hi))
        for _ in range(rounds):
            grid = [lo + (hi - lo) * i / steps for i in range(steps + 1)]
            labels = [oracle.classify_parity(g, a, mu, n_levels)[0] for a in grid]
            bracket = None
            for (a1, l1), (a2, l2) in zip(zip(grid, labels), zip(grid[1:], labels[1:])):
                if l1 == "raise" and l2 != "raise":
                    bracket = (a1, a2)
                    break
            assert bracket is not None, labels
            lo, hi = bracket
        return float(lo), float(hi)


@pytest.fixture(scope="module")
def regular_profile():
    return solve_viscous_stationary(1.0, 1.0, 2.0, 2.0, n_max=60)


@pytest.fixture(scope="module")
def anomalous_profile():
    # g = nu^{-1} 2^{beta/3} f = 2 * 1.5 = 3 > 1/(1 - 2^{-1}) = 2
    return solve_viscous_stationary(1.5, 1.0, 3.0, 1.0, n_max=60)


class TestRegularRegime:
    @pytest.fixture
    def profile(self, regular_profile):
        return regular_profile

    def test_regime_tag(self, profile):
        assert profile.regime == REGIME_REGULAR
        assert profile.mu == pytest.approx(2.0 / 3.0)

    def test_root_against_scan_oracle(self, profile):
        lo, hi = scan_oracle(profile.g, profile.mu, 40, 0.5, 3.0)
        assert lo <= profile.z[1] <= hi

    def test_flux_identity(self, profile):
        scale = profile.g ** 2 * profile.z[1]
        acc = 0.0
        for n in range(60):
            acc += pow2(profile.mu * n) * profile.z[n + 1] ** 2
            rhs = scale - profile.z[n + 1] ** 2 * profile.z[n + 2]
            assert abs(acc - rhs) <= 1e-9 * scale

    def test_super_exponential_certificate(self, profile):
        logs = profile.z_log2[1:]
        nbar = int(np.argmax(profile.z[1:] < 1.0))
        assert profile.z[1 + nbar] < 1.0
        for m in range(1, 61 - nbar):
            assert logs[nbar + m] <= 2.0 ** m * logs[nbar] + 1e-9

    def test_weighted_tails_summable(self, profile):
        # sum (2^{s n} Y_n)^2 converges for every tested weight: the log2
        # terms fall below any line, checked far past double-precision range
        log2_y = np.array([np.log2(profile.params.nu)
                           - profile.params.beta * (n + 2) / 3.0
                           + profile.z_log2[n + 1] for n in range(61)])
        for s in (1.0, 4.0, 16.0):
            log_terms = 2.0 * (s * np.arange(61) + log2_y)
            assert log_terms[-1] < -200.0
            assert (np.diff(log_terms[40:]) < 0).all()

    def test_recovered_profile_is_stationary(self, profile):
        d = rhs_tree(profile.state)
        scale = float(np.abs(profile.y).max())
        assert np.abs(d[:60]).max() <= 1e-9 * scale

    def test_energy_bound(self, profile):
        p = profile.params
        bound = p.f ** 2 * profile.y[0] / p.nu
        cumulative = np.cumsum(profile.y ** 2)
        assert (cumulative <= bound * (1 + 1e-12)).all()

    def test_border_flux_vanishes(self, profile):
        log2_flux = (profile.params.beta * np.arange(1, 60)
                     + 2 * np.log2(np.maximum(profile.y[:59], 1e-320))
                     + np.log2(np.maximum(profile.y[1:60], 1e-320)))
        assert log2_flux[-1] < -500


class TestAnomalousRegime:
    @pytest.fixture
    def profile(self, anomalous_profile):
        return anomalous_profile

    def test_regime_and_g(self, profile):
        assert profile.regime == REGIME_ANOMALOUS
        assert profile.g == pytest.approx(3.0)
        assert profile.regime_info.threshold == pytest.approx(2.0)

    def test_monotone_nonincreasing(self, profile):
        assert (np.diff(profile.z[1:]) <= 0).all()

    def test_z_limit_positive_and_cube_bound(self, profile):
        assert profile.z_limit is not None and profile.z_limit > 0
        lower = profile.g * profile.z[1] * (profile.g - 2.0)
        assert (profile.z[1:] ** 3 >= lower * (1 - 1e-12)).all()

    def test_tail_flux_converges(self, profile):
        beta, nu = 3.0, 1.0
        tail = pow2(-4 * beta / 3) * nu ** 3 * profile.z[-2] ** 2 * profile.z[-1]
        limit = asymptotic_flux(profile.z_limit, beta, nu)
        assert abs(tail - limit) <= 1e-6 * limit

    def test_horizon_stability(self, profile):
        p40 = solve_viscous_stationary(1.5, 1.0, 3.0, 1.0, n_max=40)
        assert abs(p40.z[1] - profile.z[1]) <= 10 * 1e-12 * profile.z[1]

    def test_bracket_invariance(self, profile):
        """The certified bracket is centred on the Newton root and no wider
        than 1e-12 of it."""
        root = profile.z[1]
        lo, hi = profile.bracket
        assert lo < root < hi
        assert (lo + hi) / 2 == pytest.approx(root, rel=1e-15)
        assert hi - lo <= 1e-12 * root

    def test_bad_bracket_rejected(self, profile):
        def classify(a):
            return oracle.classify_parity(mp.mpf(3), mp.mpf(a), mp.mpf(-1), 60)

        with mp.workdps(60):
            with pytest.raises(BracketFailure):
                bisect_shooting(classify, 0.015)
            lo, hi = oracle.narrow(classify, (1.0, 5.0), width_floor=1e-12)
        assert float(lo) <= profile.z[1] <= float(hi)

    def test_root_against_scan_oracle(self, profile):
        lo, hi = scan_oracle(3.0, -1.0, 50, 1.0, 5.0)
        assert lo <= profile.z[1] <= hi


class TestSmallForcingRegime:
    def test_below_threshold_inconclusive_tag(self):
        # mu = -1, threshold 2; g = 1.5 below it
        prof = solve_viscous_stationary(0.75, 1.0, 3.0, 1.0, n_max=40)
        assert prof.g == pytest.approx(1.5)
        assert prof.regime == REGIME_SMALL_FORCING
        assert prof.z_limit is None
        assert (np.diff(prof.z[1:]) <= 0).all()  # monotone for mu < 0 regardless


class TestClassifyRegime:
    def test_regular(self):
        assert classify_regime(2.0, 2.0, None).regime == REGIME_REGULAR

    def test_anomalous(self):
        info = classify_regime(3.0, 1.0, 3.0)
        assert info.regime == REGIME_ANOMALOUS
        assert info.threshold == pytest.approx(2.0)

    def test_boundary_is_regular(self):
        # 3 gamma = 2 beta exactly: inclusive boundary
        assert classify_regime(3.0, 2.0, 10.0).regime == REGIME_REGULAR


class TestAsymptoticFlux:
    def test_closed_form(self):
        assert asymptotic_flux(2.0, 3.0, 1.0) == 0.5  # 2^{-4} * 8

    def test_zero_is_conservative(self):
        assert asymptotic_flux(0.0, 2.0, 1.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_flux(-1.0, 2.0, 1.0)


class TestStationaryTreeProfile:
    def test_inviscid_matches_explicit(self):
        a = stationary_tree_profile(1.0, 0.0, 2.5, 1.5, depth=3)
        b = inviscid_tree_profile(1.0, 2.5, 1.5, depth=3)
        assert (a.values == b.values).all()

    def test_viscous_profile_is_stationary(self):
        # regular translated regime: beta = alpha - at = 1 <= 1.5 gamma
        x = stationary_tree_profile(0.7, 0.5, 1.5, 0.5, depth=6, gamma=1.0)
        assert x.params.f == 0.7
        d = rhs_tree(x)
        offs = x.params.offsets
        scale = float(np.abs(x.values).max())
        assert np.abs(d[: offs[6]]).max() <= 1e-9 * scale
        # deepest generation carries the truncation defect only
        assert np.abs(d[offs[6]:]).max() <= 1e-2 * scale

    def test_regime_translation(self):
        # alpha - alpha_tilde > (3/2) gamma: anomalous side
        info = classify_regime(3.0, 1.0, pow2(1.0) * 3.0)
        assert info.regime == REGIME_ANOMALOUS

    def test_requires_supercritical_alpha(self):
        with pytest.raises(DomainError):
            stationary_tree_profile(1.0, 0.1, 1.0, 1.5, depth=3)


class TestSolverValidation:
    def test_domain(self):
        with pytest.raises(DomainError):
            solve_viscous_stationary(0.0, 1.0, 2.0, 2.0)
        with pytest.raises(DomainError):
            solve_viscous_stationary(1.0, 0.0, 2.0, 2.0)

    def test_inviscid_n_max_must_be_nonnegative(self):
        with pytest.raises(DomainError, match="n_max"):
            inviscid_classic_profile(1.0, 2.0, -1)
