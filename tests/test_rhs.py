import math
import tracemalloc

import numpy as np
import pytest

from dyadic_cascade import (
    ModelParams,
    TreeState,
    energy_report,
    generation,
    inviscid_classic_profile,
    inviscid_tree_profile,
    pow2,
    rhs_tree,
)
from dyadic_cascade.errors import NonFiniteState
from dyadic_cascade.kernels import (
    _COLUMN_CHUNK,
    _child_sums,
    _column_sum,
    boundary_fluxes,
    generation_energies,
    make_kernel,
)
from heap_oracle import children, parent
import kernel_oracle
from jacobian_oracle import dense_jacobian


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

    def test_overflowing_derivative_is_silent(self):
        # the squares of a finite 1e200 state overflow; under the repo's
        # filterwarnings = error a RuntimeWarning would fail this test
        p = tree_params(f=1.0)
        d = rhs_tree(TreeState(np.full(p.n_nodes, 1e200), p))
        assert not np.isfinite(d).all()


class TestClassicRhs:
    def test_zero_unforced(self):
        p = ModelParams(alpha=1.0, branching=1, depth=4)
        assert (rhs_tree(TreeState.zeros(p)) == 0.0).all()

    def test_inviscid_profile_stationary(self):
        prof = inviscid_classic_profile(1.0, 2.0, 10)
        d = rhs_tree(prof)
        # cancellation is exact up to rounding of the local terms c_n Y_{n-1}^2
        terms = np.array([prof.params.c(n) * (prof.values[n - 1] if n else 1.0) ** 2
                          for n in range(11)])
        assert (np.abs(d[:10]) <= 1e-14 * terms[:10]).all()
        assert d[10] > 0

    def test_single_term_cascade(self):
        # Y = (1, 0, 0, ...), f = 0, nu = 0, beta = 1:
        # dY_0 = -k_1 Y_0 Y_1 = 0, dY_1 = k_1 Y_0^2 = 2, rest 0
        p = ModelParams(alpha=1.0, branching=1, depth=3, nu=0.0, f=0.0)
        y = np.zeros(4)
        y[0] = 1.0
        d = rhs_tree(TreeState(y, p))
        assert d[0] == 0.0
        assert d[1] == 2.0
        assert (d[2:] == 0.0).all()

    def test_viscous_term(self):
        p = ModelParams(alpha=1.0, gamma=2.0, nu=0.5, branching=1, depth=2)
        y = np.array([0.0, 1.0, 0.0])
        d = rhs_tree(TreeState(y, p))
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
            assert (rhs_tree(TreeState(y, p)) == deriv).all()
            d, work = make_kernel(p).rhs_work(y)
            assert (d == deriv).all()
            assert work[0] == y[0]
            assert (work[1:14] == visc_rate).all()
            assert (work[14:] == flux).all()
            rep = energy_report(TreeState(y, p))
            assert (rep.per_generation == energy).all()
            assert (rep.boundary_flux == flux).all()

    def test_profile_values(self):
        p = ModelParams(alpha=2.5, gamma=1.0, nu=0.1, f=1.0, branching=1, depth=20)
        y = np.array([pow2(-0.83 * n) for n in range(21)])
        assert (rhs_tree(TreeState(y, p)) == node_reference(p, y)[0]).all()


class TestInlinedKernel:
    """rhs and rhs_work equal the helper-based kernel of kernel_oracle bit
    for bit: derivative, work rates and energies, with and without the
    output buffers, and on states whose squares overflow (the same inf and
    nan positions).  Given buffers start filled with junk, so a path that
    adds to a buffer it did not fill, or skips the root's gain, shows."""

    @staticmethod
    def states(p):
        rng = np.random.default_rng(p.branching * 100 + p.depth)
        y = rng.uniform(0.0, 2.0, p.n_nodes)
        huge = y.copy()
        # squares overflow; node 1 gains inf from the root and loses inf to
        # its first child, which gives nan
        huge[[0, 1, p.branching + 1]] = 1e200
        huge[rng.integers(0, p.n_nodes, 3)] = 1e300
        return y, huge, np.zeros(p.n_nodes)

    @pytest.mark.parametrize("nu,f", [(0.0, 0.0), (0.0, 0.7), (0.3, 0.0), (0.25, 1.3)])
    @pytest.mark.parametrize("branching,depth", [(1, 12), (2, 6), (4, 4), (8, 3), (16, 2)])
    def test_bit_equal_to_the_oracle(self, branching, depth, nu, f):
        p = ModelParams(alpha=1.7, gamma=2.3, nu=nu, f=f, branching=branching,
                        depth=depth)
        kernel = make_kernel(p)
        n, nw = p.n_nodes, 2 * depth + 2
        with np.errstate(over="ignore", invalid="ignore"):
            for y in self.states(p):
                want = kernel_oracle.rhs(kernel, y)
                assert kernel.rhs(y).tobytes() == want.tobytes()
                assert kernel.rhs(y, out=np.full(n, 3.0)).tobytes() == want.tobytes()
                energies = np.empty(depth + 1)
                want_d, want_w = kernel_oracle.rhs_work(kernel, y, energies_out=energies)
                for given in (False, True):
                    e_out = np.full(depth + 1, 5.0) if given else None
                    d, w = kernel.rhs_work(
                        y, out=np.full(n, 3.0) if given else None,
                        work_out=np.full(nw, 4.0) if given else None, energies_out=e_out)
                    assert d.tobytes() == want_d.tobytes()
                    assert w.tobytes() == want_w.tobytes()
                    if given:
                        assert e_out.tobytes() == energies.tobytes()


class TestNodeReference:
    """Kernel, work rates and reductions against the per-node reference for
    every branching; sibling sums may associate differently, so agreement is
    to a few ulps of the largest entry."""

    @pytest.mark.parametrize("nu,f", [(0.0, 0.0), (0.0, 0.7), (0.3, 0.0), (0.25, 1.3)])
    @pytest.mark.parametrize("branching,depth", [(1, 12), (2, 6), (4, 4), (8, 3), (16, 2)])
    def test_random_states(self, branching, depth, nu, f):
        p = ModelParams(alpha=1.7, gamma=2.3, nu=nu, f=f, branching=branching,
                        depth=depth)
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
            state = TreeState(y, p)
            rep = energy_report(state)
            assert_close(rep.per_generation, energy)
            assert_close(rep.boundary_flux, flux)


class TestChildSums:
    """The column child sum adds the siblings in the order of numpy's
    pairwise row sum, so it equals the reshape sum bit for bit."""

    @pytest.mark.parametrize("branching", [2, 3, 4, 5, 7, 8, 9, 16, 130])
    @pytest.mark.parametrize("kind", ["random", "zero", "subnormal"])
    def test_bit_equal_to_row_sum(self, branching, kind):
        rng = np.random.default_rng(branching)
        n = 1 + branching * 301
        # mixed signs over many decades: any other association order rounds
        # differently somewhere
        y = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-40, 40, n)
        if kind == "zero":
            y[rng.random(n) < 0.5] = 0.0
            y[1:1 + 7 * branching] = 0.0  # whole rows of zeros
        elif kind == "subnormal":
            y = rng.uniform(-1.0, 1.0, n) * 2.0 ** rng.integers(-1074, -1000, n)
        expected = y[1:].reshape(-1, branching).sum(axis=1)
        assert _child_sums(y, branching).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("parents", [1, _COLUMN_CHUNK - 1, _COLUMN_CHUNK,
                                         _COLUMN_CHUNK + 1, 3 * _COLUMN_CHUNK + 5])
    def test_chunked_8_ary_sum_is_the_whole_array_sum(self, parents):
        # the 8-ary sum runs _COLUMN_CHUNK parents at a time in the same
        # association as the whole-array form of kernel_oracle, zero sums and
        # their signs included: rows of -0.0 give -0.0, rows of x and -x +0.0
        rng = np.random.default_rng(parents)
        x = rng.uniform(-1.0, 1.0, 8 * parents) * 10.0 ** rng.integers(-40, 40, 8 * parents)
        rows = x.reshape(-1, 8)
        rows[::3] = -0.0
        rows[1::5, 1::2] = -rows[1::5, 0::2]
        cols = rows.T
        expected = kernel_oracle._column_sum(cols)
        zero_signs = np.signbit(expected[expected == 0.0])
        assert zero_signs[0] and (parents == 1 or not zero_signs.all())
        assert _column_sum(cols).tobytes() == expected.tobytes()


class TestKernelTemporaries:
    """On an 8-ary tree beyond the column-sum chunk, rhs, rhs_work and jvp
    with their outputs given allocate at most 3 arrays of n_int values
    (n_int = 37,449 internal nodes) and one chunk's pairs and quads (6
    rows of _COLUMN_CHUNK), besides a few array headers."""

    P = ModelParams(alpha=2.0, gamma=1.0, nu=1e-3, f=1.0, branching=8, depth=6)

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("method", ["rhs", "rhs_work", "jvp"])
    def test_peak_is_bounded_by_the_chunk(self, method):
        p = self.P
        kernel = make_kernel(p)
        rng = np.random.default_rng(1)
        y = rng.uniform(0.0, 0.01, p.n_nodes)
        v = rng.normal(0.0, 1.0, p.n_nodes)
        out = np.empty(p.n_nodes)
        work, energies = np.empty(2 * p.depth + 2), np.empty(p.depth + 1)
        call = {"rhs": lambda: kernel.rhs(y, out=out),
                "rhs_work": lambda: kernel.rhs_work(y, out=out, work_out=work,
                                                    energies_out=energies),
                "jvp": lambda: kernel.jvp(y, v, out=out)}[method]
        peak = self.traced_peak(call)
        assert peak <= 8 * (3 * kernel.n_internal + 6 * _COLUMN_CHUNK) + 4096

    def test_jvp_with_scratch_allocates_only_the_chunk(self):
        # a, the gain and both child sums go to the scratch rows; the
        # column sum's pairs and quads of one chunk remain
        p = self.P
        kernel = make_kernel(p)
        rng = np.random.default_rng(1)
        y = rng.uniform(0.0, 0.01, p.n_nodes)
        v = rng.normal(0.0, 1.0, p.n_nodes)
        out, scratch = np.empty(p.n_nodes), np.empty((2, p.n_nodes))
        peak = self.traced_peak(lambda: kernel.jvp(y, v, out=out, scratch=scratch))
        assert peak <= 8 * 6 * _COLUMN_CHUNK + 4096
        assert out.tobytes() == kernel.jvp(y, v).tobytes()


def split_pairwise_sums(values, offsets):
    """Per-generation v[0] + np.add.reduce(v[1:]), one generation at a time:
    the order of a segment of np.add.reduceat."""
    out = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        v = values[lo:hi]
        out.append(v[0] + np.add.reduce(v[1:]))
    return np.array(out)


class TestGenerationSums:
    """Every per-generation reduction sums each generation in one fixed
    order: bit-equal to an independent per-generation split pairwise sum,
    and within a few ulps of the exactly rounded sum."""

    @pytest.mark.parametrize("branching,depth", [(1, 40), (2, 13), (4, 8), (8, 5), (16, 4)])
    def test_bit_equal_to_split_pairwise_sum(self, branching, depth):
        p = ModelParams(alpha=1.3, gamma=1.1, nu=0.2, f=0.5, branching=branching,
                        depth=depth)
        offs = p.offsets
        n_int = offs[-2]
        rng = np.random.default_rng(branching)
        y = rng.uniform(0.0, 1.0, p.n_nodes) * 10.0 ** rng.integers(-8, 8, p.n_nodes)
        csum = (y[1:].reshape(-1, branching).sum(axis=1) if branching > 1
                else y[1:])
        energies = split_pairwise_sums(np.square(y), offs)
        coefficients = np.array([2.0 * pow2(p.alpha * (n + 1)) for n in range(depth)])
        fluxes = split_pairwise_sums(np.square(y[:n_int]) * csum, offs[:-1]) * coefficients

        assert generation_energies(p, y).tobytes() == energies.tobytes()
        assert boundary_fluxes(p, y).tobytes() == fluxes.tobytes()
        got = np.empty(depth + 1)
        _, work = make_kernel(p).rhs_work(y, energies_out=got)
        assert got.tobytes() == energies.tobytes()
        assert work[depth + 2:].tobytes() == fluxes.tobytes()

        sq = np.square(y)
        for g in range(depth + 1):
            exact = math.fsum(sq[offs[g]:offs[g + 1]])
            assert abs(energies[g] - exact) <= 4 * np.spacing(exact)
        products = np.square(y[:n_int]) * csum
        for n in range(depth):
            exact = math.fsum(products[offs[n]:offs[n + 1]]) * coefficients[n]
            assert abs(fluxes[n] - exact) <= 4 * np.spacing(exact)


class TestJacobian:
    """jvp and work_jvp against central differences of rhs and rhs_work
    along random directions.  rhs is quadratic, so its central difference
    is exact up to rounding; the flux rates are cubic and leave an O(eps^2)
    term."""

    @pytest.mark.parametrize("nu,f", [(0.0, 0.0), (0.0, 0.7), (0.3, 0.0), (0.25, 1.3)])
    @pytest.mark.parametrize("branching,depth", [(1, 6), (2, 4), (4, 3), (16, 2)])
    def test_jacobian_matches_central_differences(self, branching, depth, nu, f):
        p = ModelParams(alpha=1.7, gamma=2.3, nu=nu, f=f, branching=branching,
                        depth=depth)
        kernel = make_kernel(p)
        rng = np.random.default_rng(3)
        y = rng.uniform(0.1, 2.0, p.n_nodes)
        oracle = dense_jacobian(p, y)
        eps = 1e-3
        for _ in range(4):
            v = rng.normal(0.0, 1.0, p.n_nodes)
            numeric = (kernel.rhs(y + eps * v) - kernel.rhs(y - eps * v)) / (2 * eps)
            jv = kernel.jvp(y, v)
            assert jv.shape == (p.n_nodes,)
            scale = np.abs(numeric).max()
            assert np.abs(jv - numeric).max() <= 1e-10 * scale
            assert np.abs(oracle @ v - numeric).max() <= 1e-10 * scale

    @pytest.mark.parametrize("nu,f", [(0.0, 0.0), (0.0, 0.7), (0.3, 0.0), (0.25, 1.3)])
    @pytest.mark.parametrize("branching,depth", [(1, 6), (2, 4), (4, 3), (16, 2)])
    def test_work_jvp_matches_central_differences(self, branching, depth, nu, f):
        p = ModelParams(alpha=1.7, gamma=2.3, nu=nu, f=f, branching=branching,
                        depth=depth)
        kernel = make_kernel(p)
        rng = np.random.default_rng(4)
        y = rng.uniform(0.1, 2.0, p.n_nodes)
        v = rng.normal(0.0, 1.0, p.n_nodes)
        eps = 1e-5
        numeric = (kernel.rhs_work(y + eps * v)[1]
                   - kernel.rhs_work(y - eps * v)[1]) / (2 * eps)
        jvp = kernel.work_jvp(y, v)
        assert jvp.shape == (2 * depth + 2,)
        assert jvp[0] == v[0]
        assert np.abs(jvp - numeric).max() <= 1e-8 * np.abs(numeric).max()


class TestElimination:
    """Kernel.factor solves fac I - J(y) against the dense oracle."""

    @pytest.mark.parametrize("nu", [0.0, 0.3])
    @pytest.mark.parametrize("branching,depth", [(1, 1), (1, 6), (2, 4), (4, 3), (8, 2),
                                                 (16, 2)])
    def test_residual_against_dense_matrix(self, branching, depth, nu):
        p = ModelParams(alpha=1.7, gamma=2.3, nu=nu, f=1.3, branching=branching,
                        depth=depth)
        rng = np.random.default_rng(7)
        for zeros in (False, True):
            y = rng.uniform(0.1, 2.0, p.n_nodes)
            if zeros:  # a zero parent decouples its children; zero leaves too
                y[rng.random(p.n_nodes) < 0.3] = 0.0
            for fac in (7.5, 1e4):
                m = fac * np.eye(p.n_nodes) - dense_jacobian(p, y)
                r = rng.normal(0.0, 1.0, p.n_nodes)
                x = make_kernel(p).factor(y, fac)(r, np.empty(p.n_nodes))
                assert np.abs(m @ x - r).max() <= 1e-13 * np.abs(r).max()

    @pytest.mark.parametrize("branching,depth", [(2, 6), (4, 4), (8, 3), (16, 2)])
    def test_tree_solve_matches_dense_solve(self, branching, depth):
        p = ModelParams(alpha=1.2, gamma=1.5, nu=0.2, f=1.3, branching=branching,
                        depth=depth)
        rng = np.random.default_rng(9)
        y = rng.uniform(0.0, 1.0, p.n_nodes)
        for fac in (2.0, 50.0):
            m = fac * np.eye(p.n_nodes) - dense_jacobian(p, y)
            r = rng.normal(0.0, 1.0, p.n_nodes)
            x = make_kernel(p).factor(y, fac)(r, np.empty(p.n_nodes))
            expected = np.linalg.solve(m, r)
            assert np.abs(x - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("branching,depth", [(1, 12), (2, 5), (4, 3), (16, 2)])
    def test_solves_carry_no_state(self, branching, depth):
        # the sweep buffer and scratch are the kernel's, reused by every
        # solve: a solve's bytes must not depend on what was solved before
        # or on what out held
        p = ModelParams(alpha=1.5, nu=0.1, f=1.0, branching=branching, depth=depth)
        rng = np.random.default_rng(10)
        kernel = make_kernel(p)
        y = rng.uniform(0.0, 1.0, p.n_nodes)
        solve = kernel.factor(y, 5.0)
        r = rng.normal(0.0, 1.0, p.n_nodes)
        r_bytes = r.tobytes()
        first = solve(r, np.empty(p.n_nodes)).tobytes()
        for other in (rng.normal(0.0, 1e6, p.n_nodes), np.full(p.n_nodes, np.nan), r):
            solve(other, np.empty(p.n_nodes))
            assert solve(r, np.full(p.n_nodes, np.inf)).tobytes() == first
        assert r.tobytes() == r_bytes
        in_place = r.copy()
        assert solve(in_place, in_place).tobytes() == first  # r may be out

    def test_a_later_factor_retires_the_earlier_solve(self):
        p = ModelParams(alpha=1.0, f=1.0, branching=2, depth=3)
        kernel = make_kernel(p)
        y = np.full(p.n_nodes, 0.5)
        old = kernel.factor(y, 2.0)
        kernel.factor(y, 3.0)
        with pytest.raises(RuntimeError, match="later factor"):
            old(y, np.empty(p.n_nodes))

    @pytest.mark.parametrize("branching,depth", [(1, 30), (2, 9)])
    def test_stiff_solve_matches_refined_lu(self, branching, depth):
        # inviscid and deep, so rho(J) / fac is up to 1e15: the residual of
        # any solution rounded to float64 is then eps ||M|| ||x||, far above
        # ||r||, so the elimination is held to the solution instead: LAPACK's
        # LU, refined twice with residuals in long double (the unrefined LU is
        # 7e-13 off on the binary tree, the elimination 4e-16)
        p = ModelParams(alpha=1.7, gamma=2.3, nu=0.0, f=1.3, branching=branching,
                        depth=depth)
        rng = np.random.default_rng(8)
        y = rng.uniform(0.0, 2.0, p.n_nodes)
        fac = 3.7
        m = fac * np.eye(p.n_nodes) - dense_jacobian(p, y)
        r = rng.normal(0.0, 1.0, p.n_nodes)
        x = make_kernel(p).factor(y, fac)(r, np.empty(p.n_nodes))
        expected = np.linalg.solve(m, r).astype(np.longdouble)
        for _ in range(2):
            residual = r - m.astype(np.longdouble) @ expected
            expected += np.linalg.solve(m, residual.astype(np.float64))
        assert np.abs(x - expected).max() <= 1e-14 * np.abs(expected).max()
