import mpmath as mp
import pytest

from dyadic_cascade import dissipation_time_bound
from dyadic_cascade.errors import DomainError, NonFiniteResult


def oracle(epsilon, eta, delta):
    """Independent high-precision evaluation of
    2 sqrt(2) eta^{3/2} eps^{-2} (1 - 2^{-delta/3})^{-3}."""
    with mp.workdps(60):
        q = mp.mpf(2) ** (-mp.mpf(delta) / 3)
        val = 2 * mp.sqrt(2) * mp.mpf(eta) ** mp.mpf("1.5") \
            / (mp.mpf(epsilon) ** 2 * (1 - q) ** 3)
        return float(val)


def test_reference_value():
    t = dissipation_time_bound(1.0, 1.0, alpha=2.0, alpha_tilde=1.0)
    assert t == pytest.approx(oracle(1, 1, 1), rel=1e-14)
    assert abs(t - 322.1) < 0.5


def test_monotone_in_eta():
    ts = [dissipation_time_bound(1.0, eta, 2.0, 1.0)
          for eta in (1e-6, 1e-3, 0.1, 1.0, 10.0)]
    assert all(a < b for a, b in zip(ts, ts[1:]))
    assert ts[0] < 1e-6  # eta -> 0 drives T -> 0


def test_epsilon_scaling():
    t1 = dissipation_time_bound(1.0, 1.0, 2.5, 1.5)
    t2 = dissipation_time_bound(2.0, 1.0, 2.5, 1.5)
    assert t2 == pytest.approx(t1 / 4.0, rel=1e-14)


def test_domain():
    with pytest.raises(DomainError):
        dissipation_time_bound(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        dissipation_time_bound(1.0, 1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        dissipation_time_bound(0.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        dissipation_time_bound(1.0, -1.0, 2.0, 1.0)


@pytest.mark.parametrize("eps,eta,delta", [(0.5, 2.0, 1.0), (1.0, 1.0, 3.0),
                                           (0.1, 0.3, 0.5)])
def test_matches_oracle(eps, eta, delta):
    t = dissipation_time_bound(eps, eta, alpha=1.0 + delta, alpha_tilde=1.0)
    assert t == pytest.approx(oracle(eps, eta, delta), rel=1e-13)


@pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-12, 2.0 ** -52])
def test_small_gap_matches_oracle(delta):
    """1 - 2^{-delta/3} is formed without cancellation: a few ulps even
    where 1 - q would keep no correct digit."""
    alpha = 1.0 + delta
    t = dissipation_time_bound(0.1, 1.0, alpha, alpha_tilde=1.0)
    assert t == pytest.approx(oracle(0.1, 1.0, alpha - 1.0), rel=4e-15)


@pytest.mark.parametrize("eps,eta", [(1e-200, 1e-200), (1e300, 1e300), (1e-170, 1e-150)])
def test_range_of_intermediates(eps, eta):
    """eps^2 or eta^{3/2} alone leave the float range, T does not."""
    t = dissipation_time_bound(eps, eta, alpha=2.0, alpha_tilde=1.0)
    assert t == pytest.approx(oracle(eps, eta, 1.0), rel=4e-15)


@pytest.mark.parametrize("eps,eta,alpha", [(1e-300, 1e300, 2.0), (1.0, 1.0, 5e-324)])
def test_beyond_float_range_is_typed(eps, eta, alpha):
    with pytest.raises(NonFiniteResult, match="beyond the float range"):
        dissipation_time_bound(eps, eta, alpha, alpha_tilde=0.0)
