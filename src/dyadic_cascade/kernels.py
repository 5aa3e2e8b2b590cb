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
- the child sum is y[1:] for N = 1.  For N >= 2 it adds whole columns of
  the (N, n_int) view y[1:].reshape(-1, N).T, in the order numpy's pairwise
  reduction adds the N siblings of one row: sequentially for N < 8, into
  eight accumulators for 8 <= N <= 128 (combined as ((0+1)+(2+3)) +
  ((4+5)+(6+7)), then the remainder sequentially), and split in halves
  beyond that.  It therefore equals reshape(-1, N).sum(1) bit for bit,
  apart from the sign of a zero sum (numpy starts each row from +0.0).  For
  3 <= N <= 8 it is 3-8x faster, because reducing short rows pays numpy's
  per-row reduction overhead on every parent; at N = 16 the two are even,
  and for N > 128 the column adds are slower;
- per-generation sums (energies, viscous work, boundary fluxes) are numpy's
  pairwise np.add.reduce over each generation slice, then scaled by the
  generation's coefficient, so a boundary flux is (2 c_{n+1}) * sum(X^2 *
  child sum).  np.add.reduceat would be one call but sums sequentially,
  which changes the last bits at N >= 2.  With N = 1 each slice is one
  node and the values are used as they are.

All of this is fixed-order and deterministic, so identical inputs give
identical bytes.
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
    return _column_sum(y[1:].reshape(-1, branching).T)


def _column_sum(cols: np.ndarray) -> np.ndarray:
    """Sum of the rows of cols, a (k, m) array, in the order of numpy's
    pairwise sum of k values (numpy's pairwise_sum in loops_utils)."""
    k = len(cols)
    if k < 8:
        s = cols[0] + cols[1]
        for c in cols[2:]:
            s += c
        return s
    if k <= 128:
        m = k - k % 8
        acc = cols[:8]
        if m > 8:
            acc = acc.copy()
            for i in range(8, m, 8):
                acc += cols[i:i + 8]
        pairs = acc[0::2] + acc[1::2]
        quads = pairs[0::2] + pairs[1::2]
        s = quads[0] + quads[1]
        for c in cols[m:]:
            s += c
        return s
    half = k // 2
    half -= half % 8
    return _column_sum(cols[:half]) + _column_sum(cols[half:])


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
        self.neg_nu_d = (np.repeat(-params.nu * self.d, widths)
                         if params.nu != 0.0 else None)
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

    def rhs_work(self, y, out=None, work_out=None):
        """Derivative plus instantaneous work rates packed as
        [x0, visc rate per generation, flux rate per boundary].  Overflow
        is handled as in rhs."""
        p = self.params
        depth, n_int = p.depth, self.n_internal
        deriv = np.empty_like(y) if out is None else out
        if work_out is None:
            work_out = np.empty(2 * depth + 2)
        # the squares live in deriv until _deriv overwrites it
        sq = np.square(y, out=deriv)
        csum = _child_sums(y, p.branching)
        work_out[0] = y[0]
        visc = _generation_sums(p, sq, depth + 1, work_out[1:depth + 2])
        visc *= self.d
        _fluxes(p, sq[:n_int], csum, self.flux_coefficients, work_out[depth + 2:])
        gain = np.multiply(self.c_next, sq[:n_int])
        self._deriv(y, gain, csum, deriv)
        return deriv, work_out

    def _deriv(self, y, gain, csum, deriv):
        """deriv = (visc + gain) - loss per node, where gain[p] = c_{g+1} X_p^2
        is what each child of internal node p receives.  gain is reused as
        scratch."""
        if self.neg_nu_d is None:
            deriv.fill(0.0)
        else:
            np.multiply(self.neg_nu_d, y, out=deriv)
        deriv[0] += self.gain0
        _add_to_children(gain, deriv[1:], self.params.branching)
        loss = np.multiply(self.c_next, y[:self.n_internal], out=gain)
        loss *= csum
        deriv[:self.n_internal] -= loss


def make_kernel(params: ModelParams) -> Kernel:
    return Kernel(params)
