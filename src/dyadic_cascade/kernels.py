"""Right-hand-side kernel and energy reductions on the heap array.

One kernel serves every branching N >= 1.  In the implicit-heap layout the
children of the internal nodes 0..n_int-1 are exactly y[1:], in parent
order, N per parent.  The gain each node receives from its parent, the
viscous term and the loss each internal node sends to its children are
therefore one whole-array operation each, with per-node coefficients built
once per kernel.  The classic (chain) model is this same array with N = 1:
node n is shell n, its only child is shell n+1, and c_n = 2^{alpha n} with
alpha = beta because alpha_tilde = log2(1)/2 = 0.

Pinned association orders (changing one changes the bytes of every output
file):

- every coefficient goes through core.pow2;
- a node's derivative is ((visc + gain) - loss), with visc = (-nu d_g) * X
  (0.0 when nu = 0), gain = c_g * X_p^2 and loss = (c_{g+1} * X) * (sum of
  children);
- the child sum is y[1:] for N = 1, and numpy's own row sum
  y[1:].reshape(-1, N).sum(1) for N > 8.  For 2 <= N <= 8 it adds whole
  columns of the (N, n_int) view y[1:].reshape(-1, N).T in the order that
  row sum adds the N siblings of one row: sequentially for N < 8, as
  ((0+1)+(2+3)) + ((4+5)+(6+7)) for N = 8.  It therefore equals the row
  sum bit for bit, apart from the sign of a zero sum (numpy starts each row
  from +0.0), and is 3-8x faster for 3 <= N <= 8, because reducing short
  rows pays numpy's per-row overhead on every parent.  Wider rows amortize
  that overhead: at N = 16 the two are within 15%, and from N = 32 the row
  sum is 2-7x faster than adding columns.  The cut-off costs N = 9..15,
  which only ModelParams(strict=False) allows: at N = 9 on 66k nodes the
  row sum takes 0.17-0.29 ms, about 2x the 0.09 ms of a column loop.  Adding
  columns in numpy's order there needs its 8-accumulator loop (pairs of
  pairs over the first 8 columns, then the rest one by one), and a
  prototype of that order took 0.18 ms against the row sum's 0.21 ms (2-core
  VM, numpy 2.4), so the cut-off stays at 8;
- per-generation sums (energies, viscous work, boundary fluxes) are numpy's
  pairwise np.add.reduce over each generation slice, then scaled by the
  generation's coefficient, so a boundary flux is (2 c_{n+1}) * sum(X^2 *
  child sum).  np.add.reduceat would be one call but sums sequentially,
  which changes the last bits at N >= 2.  With N = 1 each slice is one
  node and the values are used as they are.

All of this is fixed-order and deterministic, so identical inputs give
identical bytes.

The stiff integrator never forms the Jacobian: Kernel.jvp applies it with
the same whole-array operations, and Kernel.factor solves its stage matrix
by eliminating the tree leaves to root, in O(n).
"""

from __future__ import annotations

import numpy as np

from .core import ModelParams, pow2


def _powers(exponent: float, count: int) -> np.ndarray:
    """2^{exponent * g} for g = 0..count-1."""
    return np.array([pow2(exponent * g) for g in range(count)])


def _flux_coefficients(params: ModelParams) -> np.ndarray:
    """2 c_{n+1} for the boundaries n = 0..depth-1."""
    return 2.0 * _powers(params.alpha, params.depth + 1)[1:]


def _child_sums(y: np.ndarray, branching: int) -> np.ndarray:
    """Sum over the children of each internal node, in heap order.  For
    N = 1 this is a view of y."""
    if branching == 1:
        return y[1:]
    return _row_sums(y[1:], branching)


def _row_sums(x: np.ndarray, branching: int) -> np.ndarray:
    """Sum of each run of N consecutive values of x, N = branching >= 2."""
    rows = x.reshape(-1, branching)
    if branching > 8:
        return rows.sum(1)
    return _column_sum(rows.T)


def _column_sum(cols: np.ndarray) -> np.ndarray:
    """Sum of the rows of cols, a (k, m) array with 2 <= k <= 8, in the
    order of numpy's pairwise sum of k values (numpy's pairwise_sum in
    loops_utils): sequential below 8, pairs of pairs at 8."""
    if len(cols) < 8:
        s = cols[0] + cols[1]
        for c in cols[2:]:
            s += c
        return s
    pairs = cols[0::2] + cols[1::2]
    quads = pairs[0::2] + pairs[1::2]
    return quads[0] + quads[1]


def _add_to_children(values: np.ndarray, dst: np.ndarray, branching: int) -> None:
    """Add each internal node's value to all of its children; dst is the
    derivative without the root, a contiguous view.  Rows of N <= 2 are
    strided slices, because broadcasting into short rows pays a per-row
    overhead."""
    if branching <= 2:
        for j in range(branching):
            dst[j::branching] += values
    else:
        rows = dst.reshape(-1, branching)
        rows += values[:, None]


def _generation_sums(params: ModelParams, values: np.ndarray, n_gen: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Pairwise sum of values over each of the generations 0..n_gen-1."""
    if out is None:
        out = np.empty(n_gen)
    if params.branching == 1:
        out[:] = values
        return out
    offs = params.offsets
    for g in range(n_gen):
        out[g] = np.add.reduce(values[offs[g]:offs[g + 1]])
    return out


def _fluxes(params: ModelParams, sq_internal: np.ndarray, csum: np.ndarray,
            coefficients: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    flux = _generation_sums(params, sq_internal * csum, params.depth, out)
    flux *= coefficients
    return flux


def generation_energies(params: ModelParams, y: np.ndarray) -> np.ndarray:
    """Energy of each generation 0..depth."""
    return _generation_sums(params, np.square(y), params.depth + 1)


def boundary_fluxes(params: ModelParams, y: np.ndarray) -> np.ndarray:
    """2 c_{n+1} * sum over generation-n nodes of X^2 (sum of children),
    the flux through the n -> n+1 boundary, for n = 0..depth-1."""
    n_int = params.offsets[-2]
    return _fluxes(params, np.square(y[:n_int]), _child_sums(y, params.branching),
                   _flux_coefficients(params))


class Kernel:
    """Whole-array evaluation of the model equation on the heap array."""

    def __init__(self, params: ModelParams):
        self.params = params
        offs = params.offsets
        depth = params.depth
        self.n_internal = offs[-2]
        widths = np.diff(offs)
        c = _powers(params.alpha, depth + 2)
        self.d = _powers(params.gamma, depth + 1)
        self.flux_coefficients = _flux_coefficients(params)
        # c_{g+1} of each internal node: its loss coefficient and the gain
        # coefficient of its children
        self.c_next = np.repeat(c[1:-1], widths[:-1])
        # -nu d_g of the internal nodes only: every leaf has -nu d_depth
        neg_nu_d = -params.nu * self.d
        self.neg_nu_d = (np.repeat(neg_nu_d[:-1], widths[:-1])
                         if params.nu != 0.0 else None)
        self.neg_nu_d_leaf = neg_nu_d[-1]
        self.gain0 = c[0] * np.square(np.float64(params.f))

    def rhs(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Time derivative of y.  A state near the overflow threshold gives
        a non-finite derivative; whether numpy warns about it is the
        caller's np.errstate (integrate and rhs_tree silence it)."""
        deriv = np.empty_like(y) if out is None else out
        gain = np.square(y[:self.n_internal])
        gain *= self.c_next
        self._deriv(y, gain, _child_sums(y, self.params.branching), deriv)
        return deriv

    def rhs_work(self, y, out=None, work_out=None, energies_out=None):
        """Derivative plus instantaneous work rates packed as
        [x0, visc rate per generation, flux rate per boundary].  The flux
        rates are boundary_fluxes(y); the viscous rates are the generation
        energies scaled by d_g, and energies_out, if given, receives the
        energies before that scaling, bit-equal to generation_energies(y).
        Overflow is handled as in rhs."""
        p = self.params
        depth, n_int = p.depth, self.n_internal
        deriv = np.empty_like(y) if out is None else out
        if work_out is None:
            work_out = np.empty(2 * depth + 2)
        # the squares live in deriv until _deriv overwrites it
        sq = np.square(y, out=deriv)
        csum = _child_sums(y, p.branching)
        work_out[0] = y[0]
        energies = _generation_sums(p, sq, depth + 1, energies_out)
        np.multiply(energies, self.d, out=work_out[1:depth + 2])
        _fluxes(p, sq[:n_int], csum, self.flux_coefficients, work_out[depth + 2:])
        gain = np.multiply(self.c_next, sq[:n_int])
        self._deriv(y, gain, csum, deriv)
        return deriv, work_out

    def jvp(self, y, v, out=None):
        """J(y) v, J the Jacobian of rhs: -nu d_g v, plus 2 c_{g+1} X_p v_p
        on each child of p, minus c_{g+1} (v S + X S(v)) on each internal
        node, S the child sum.  Overflow is handled as in rhs."""
        n_int, branching = self.n_internal, self.params.branching
        jv = np.empty_like(v) if out is None else out
        self._viscous(v, jv)
        a = np.multiply(self.c_next, y[:n_int])
        gain = np.multiply(a, v[:n_int])
        gain *= 2.0
        _add_to_children(gain, jv[1:], branching)
        loss = np.multiply(v[:n_int], _child_sums(y, branching), out=gain)
        loss *= self.c_next
        a *= _child_sums(v, branching)
        loss += a
        jv[:n_int] -= loss
        return jv

    def factor(self, y, fac):
        """Factor M = fac I - J(y) for y >= 0 and fac > 0, and return a
        function solving M x = r into out.

        M has D = fac + nu d_g + c_{g+1} S on the diagonal, a_p = c_{g+1}
        X_p at (p, child) and -2 a_p at (child, p); its graph is the tree,
        so eliminating each generation into its parents, leaves to root,
        leaves no fill-in.  The pivot of p is D_p + 2 a_p^2 sum_k 1/pivot_k
        >= fac > 0, so no pivoting is needed.  The forward sweep takes r_p
        -= a_p sum_k r_k/pivot_k, the back sweep x_k = (r_k + 2 a_p x_p) /
        pivot_k.  Chains sweep on Python floats (numpy would pay one call per
        node), trees one generation per numpy operation."""
        n_int, branching = self.n_internal, self.params.branching
        a = np.multiply(self.c_next, y[:n_int])
        diag = np.full(y.size, float(fac))
        if self.neg_nu_d is not None:
            diag[:n_int] -= self.neg_nu_d
            diag[n_int:] -= self.neg_nu_d_leaf
        diag[:n_int] += self.c_next * _child_sums(y, branching)
        if branching == 1:
            return _chain_solver(a.tolist(), diag.tolist())
        return _tree_solver(a, diag, self.params.offsets, branching)

    def work_jvp(self, y, v):
        """The Jacobian of rhs_work's work rates at y applied to v:
        [v_0, 2 d_g * sum_g X v, 2 c_{n+1} * sum_n (2 X v csum + X^2 csum(v))]."""
        p = self.params
        depth, n_int = p.depth, self.n_internal
        out = np.empty(2 * depth + 2)
        out[0] = v[0]
        visc = _generation_sums(p, y * v, depth + 1, out[1:depth + 2])
        visc *= 2.0 * self.d
        # 2 X v csum + X^2 csum(v) = X (2 v csum + X csum(v))
        inner = 2.0 * v[:n_int] * _child_sums(y, p.branching)
        inner += y[:n_int] * _child_sums(v, p.branching)
        _fluxes(p, y[:n_int], inner, self.flux_coefficients, out[depth + 2:])
        return out

    def _deriv(self, y, gain, csum, deriv):
        """deriv = (visc + gain) - loss per node, where gain[p] = c_{g+1} X_p^2
        is what each child of internal node p receives.  gain is reused as
        scratch."""
        self._viscous(y, deriv)
        deriv[0] += self.gain0
        _add_to_children(gain, deriv[1:], self.params.branching)
        loss = np.multiply(self.c_next, y[:self.n_internal], out=gain)
        loss *= csum
        deriv[:self.n_internal] -= loss

    def _viscous(self, v, out):
        """out = -nu d_g v node by node (0 when nu = 0)."""
        if self.neg_nu_d is None:
            out.fill(0.0)
            return
        n_int = self.n_internal
        np.multiply(self.neg_nu_d, v[:n_int], out=out[:n_int])
        np.multiply(v[n_int:], self.neg_nu_d_leaf, out=out[n_int:])


def _chain_solver(a, diag):
    """Kernel.factor for N = 1: a and diag are lists, node i's child is
    node i + 1."""
    n = len(diag)
    inv = diag  # diag[i] is read once, before inv[i] replaces it
    inv_next = inv[n - 1] = 1.0 / diag[n - 1]
    for i in range(n - 2, -1, -1):
        inv_next = inv[i] = 1.0 / (diag[i] + 2.0 * a[i] * a[i] * inv_next)

    def solve(r, out):
        r = r.tolist()
        for i in range(n - 1, 0, -1):
            r[i - 1] -= a[i - 1] * (r[i] * inv[i])
        x = r[0] = r[0] * inv[0]
        for i in range(1, n):
            x = r[i] = (r[i] + 2.0 * a[i - 1] * x) * inv[i]
        out[:] = r
        return out

    return solve


def _tree_solver(a, diag, offs, branching):
    """Kernel.factor for N >= 2: a and diag are arrays, and the children of
    generation g are generation g + 1 in parent order."""
    depth = len(offs) - 2
    gens = [(slice(offs[g], offs[g + 1]), slice(offs[g + 1], offs[g + 2]))
            for g in range(depth)]
    inv = diag
    leaves = inv[offs[depth]:]
    np.divide(1.0, leaves, out=leaves)
    for par, kids in reversed(gens):
        s = _row_sums(inv[kids], branching)
        s *= a[par]
        s *= a[par]
        s *= 2.0
        s += inv[par]
        np.divide(1.0, s, out=inv[par])

    def solve(r, out):
        z = out
        z[:] = r
        for par, kids in reversed(gens):
            s = _row_sums(z[kids] * inv[kids], branching)
            s *= a[par]
            z[par] -= s
        z[0] *= inv[0]
        for par, kids in gens:
            ax = np.multiply(a[par], z[par])
            ax *= 2.0
            _add_to_children(ax, z[kids], branching)
            z[kids] *= inv[kids]
        return z

    return solve


def make_kernel(params: ModelParams) -> Kernel:
    return Kernel(params)
