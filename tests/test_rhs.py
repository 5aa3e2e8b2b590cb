import numpy as np
import pytest

from dyadic_cascade import (
    ClassicState,
    ModelParams,
    TreeState,
    children,
    energy_report,
    generation,
    inviscid_classic_profile,
    inviscid_tree_profile,
    parent,
    pow2,
    rhs_classic,
    rhs_tree,
)
from dyadic_cascade.errors import NonFiniteState
from dyadic_cascade.kernels import make_kernel


def tree_params(**kw):
    kw.setdefault("alpha", 1.0)
    kw.setdefault("branching", 2)
    kw.setdefault("depth", 3)
    return ModelParams(**kw)


class TestTreeRhs:
    def test_zero_state_unforced_is_fixed_point(self):
        p = tree_params(f=0.0)
        d = rhs_tree(TreeState.zeros(p))
        assert (d == 0.0).all()

    def test_zero_state_forced_drives_root_only(self):
        p = tree_params(f=1.0, alpha=1.0)
        d = rhs_tree(TreeState.zeros(p))
        assert d[0] == 1.0  # c_0 f^2 = 2^0
        assert (d[1:] == 0.0).all()

    def test_inviscid_profile_is_stationary_below_truncation(self):
        prof = inviscid_tree_profile(1.0, 2.5, 1.5, depth=5)
        d = rhs_tree(prof)
        offs = prof.params.offsets
        interior = d[: offs[5]]
        scale = np.abs(prof.values).max()
        assert np.abs(interior).max() <= 1e-14 * max(1.0, scale)
        # deepest generation grows: its children are truncated away
        assert (d[offs[5]:] > 0).all()

    def test_nonfinite_rejected(self):
        p = tree_params()
        vals = np.zeros(p.n_nodes)
        vals[3] = np.inf
        with pytest.raises(NonFiniteState):
            rhs_tree(TreeState(vals, p))


class TestClassicRhs:
    def test_zero_unforced(self):
        p = ModelParams(alpha=1.0, branching=1, depth=4)
        assert (rhs_classic(ClassicState.zeros(p)) == 0.0).all()

    def test_inviscid_profile_stationary(self):
        prof = inviscid_classic_profile(1.0, 2.0, 10)
        d = rhs_classic(prof)
        # cancellation is exact up to rounding of the local terms k_n Y_{n-1}^2
        terms = np.array([prof.params.k(n) * (prof.values[n - 1] if n else 1.0) ** 2
                          for n in range(11)])
        assert (np.abs(d[:10]) <= 1e-14 * terms[:10]).all()
        assert d[10] > 0

    def test_single_term_cascade(self):
        # Y = (1, 0, 0, ...), f = 0, nu = 0, beta = 1:
        # dY_0 = -k_1 Y_0 Y_1 = 0, dY_1 = k_1 Y_0^2 = 2, rest 0
        p = ModelParams(alpha=1.0, branching=1, depth=3, nu=0.0, f=0.0)
        y = np.zeros(4)
        y[0] = 1.0
        d = rhs_classic(ClassicState(y, p))
        assert d[0] == 0.0
        assert d[1] == 2.0
        assert (d[2:] == 0.0).all()

    def test_viscous_term(self):
        p = ModelParams(alpha=1.0, gamma=2.0, nu=0.5, branching=1, depth=2)
        y = np.array([0.0, 1.0, 0.0])
        d = rhs_classic(ClassicState(y, p))
        # shell 1: -nu l_1 Y_1 = -0.5 * 4; shell 2 gains k_2 Y_1^2 = 4
        assert d[1] == -2.0
        assert d[2] == 4.0


def node_reference(p, y):
    """The model equation evaluated node by node from the tree topology:
    derivative, viscous work rate per generation, energy per generation and
    flux per boundary.  Each node's derivative is ((gain + visc) - loss)."""
    N, depth = p.branching, p.depth
    deriv = np.empty(p.n_nodes)
    energy = np.zeros(depth + 1)
    flux = np.zeros(depth)
    for i in range(p.n_nodes):
        g = generation(i, N)
        x = y[i]
        up = p.f if i == 0 else y[parent(i, N)]
        gain = p.c(g) * (up * up)
        visc = (-p.nu * p.d(g)) * x
        kids = sum(y[j] for j in children(i, N, depth))
        deriv[i] = (gain + visc) - (p.c(g + 1) * x) * kids
        energy[g] += x * x
        if g < depth:
            flux[g] += 2.0 * p.c(g + 1) * ((x * x) * kids)
    visc_rate = np.array([p.d(g) * energy[g] for g in range(depth + 1)])
    return deriv, visc_rate, energy, flux


def assert_close(actual, expected, ulps=8):
    """Agreement to a few ulps of the largest expected entry."""
    scale = max(np.abs(expected).max(initial=0.0), np.finfo(float).tiny)
    assert np.abs(actual - expected).max(initial=0.0) <= ulps * np.spacing(scale)


class TestBitEquivalence:
    """The chain is the heap with one child per node: with N = 1 the kernel
    reproduces the per-shell model equation bit for bit."""

    @pytest.mark.parametrize("nu,f", [(0.0, 0.0), (0.0, 0.7), (0.3, 0.0), (0.25, 1.3)])
    @pytest.mark.parametrize("alpha,gamma", [(1.0, 1.0), (1.7, 2.3), (0.4, 0.9)])
    def test_random_states(self, nu, f, alpha, gamma):
        p = ModelParams(alpha=alpha, gamma=gamma, nu=nu, f=f, branching=1, depth=12)
        rng = np.random.default_rng(42)
        for _ in range(5):
            y = rng.uniform(0.0, 2.0, 13)
            deriv, visc_rate, energy, flux = node_reference(p, y)
            assert (rhs_classic(ClassicState(y, p)) == deriv).all()
            d, work = make_kernel(p).rhs_work(y)
            assert (d == deriv).all()
            assert work[0] == y[0]
            assert (work[1:14] == visc_rate).all()
            assert (work[14:] == flux).all()
            rep = energy_report(ClassicState(y, p))
            assert (rep.per_generation == energy).all()
            assert (rep.boundary_flux == flux).all()

    def test_profile_values(self):
        p = ModelParams(alpha=2.5, gamma=1.0, nu=0.1, f=1.0, branching=1, depth=20)
        y = np.array([pow2(-0.83 * n) for n in range(21)])
        assert (rhs_classic(ClassicState(y, p)) == node_reference(p, y)[0]).all()


class TestNodeReference:
    """Kernel, work rates and reductions against the per-node reference for
    every branching; sibling sums may associate differently, so agreement is
    to a few ulps of the largest entry."""

    @pytest.mark.parametrize("nu,f", [(0.0, 0.0), (0.0, 0.7), (0.3, 0.0), (0.25, 1.3)])
    @pytest.mark.parametrize("branching,depth", [(1, 12), (2, 6), (3, 4), (4, 4), (8, 3)])
    def test_random_states(self, branching, depth, nu, f):
        p = ModelParams(alpha=1.7, gamma=2.3, nu=nu, f=f, branching=branching,
                        depth=depth, strict=False)
        kernel = make_kernel(p)
        rng = np.random.default_rng(7)
        for _ in range(3):
            y = rng.uniform(0.0, 2.0, p.n_nodes)
            deriv, visc_rate, energy, flux = node_reference(p, y)
            assert_close(kernel.rhs(y), deriv)
            d, work = kernel.rhs_work(y)
            assert_close(d, deriv)
            assert work[0] == y[0]
            assert_close(work[1:depth + 2], visc_rate)
            assert_close(work[depth + 2:], flux)
            state = ClassicState(y, p) if branching == 1 else TreeState(y, p)
            rep = energy_report(state)
            assert_close(rep.per_generation, energy)
            assert_close(rep.boundary_flux, flux)
