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
  sum is 2-7x faster than adding columns.  ModelParams admits only powers
  of two, so the cut-off falls between N = 8 and N = 16.  For N = 8 the
  columns are added _COLUMN_CHUNK parents at a time, each chunk in the same
  order, into one result: every parent's sum keeps its bits, and the
  temporary pairs and quads are 6 rows of the chunk, not 6 n_int values.
  At n_int = 37,449 the chunked sum read 5-10% faster than the whole-array
  one (timeit, 2-core VM);
- per-generation sums (energies, viscous work, boundary fluxes) are one
  np.add.reduceat over the generation starts, then scaled by the
  generation's coefficient, so a boundary flux is (2 c_{n+1}) * sum(X^2 *
  child sum).  A reduceat segment v is v[0] + np.add.reduce(v[1:]) (numpy
  2.4), pairwise like np.add.reduce(v) but split differently, so the two
  differ in the last bits.  With N = 1 each generation is one node and the
  values are used as they are.

All of this is fixed-order and deterministic, so identical inputs give
identical bytes.

On a chain a numpy call costs more than its arithmetic, so rhs and
rhs_work form their squares, sums and fluxes in their own frame and share
only the derivative's tail (Kernel._deriv).  A chain without viscosity
(N = 1, nu = 0) writes its gains straight into the children's slots and
assigns gain0 to the root instead of adding them to a zero fill: the same
bits, since 0.0 + g == g for every g = c X^2 >= +0.

The stiff integrator never forms the Jacobian: Kernel.jvp applies it with
the same whole-array operations, and Kernel.factor solves its stage matrix
by eliminating the tree leaves to root, in O(n).  Its orders, with a_p the
coupling of parent p, D the diagonal and S_k a sum over the children k of
p (sibling after sibling up to N = 8, numpy's row sum above):

- pivots, leaves to root: 1/pivot_p = 1 / (S_k(1/pivot_k) * ((a_p a_p) 2)
  + D_p), and then m_k = a_p (1/pivot_k) per child;
- forward sweep, leaves to root: r_p - S_k(m_k r_k);
- back sweep, root to leaves: x_k = (r_k + (2 a_p) x_p) (1/pivot_k).

A chain sweeps the same recurrences on Python floats, except 1/pivot_p =
1 / (D_p + ((2 a_p) a_p) (1/pivot_k)) and the forward step r_p - a_p (r_k
(1/pivot_k)).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .core import ModelParams, pow2


def _powers(exponent: float, count: int) -> np.ndarray:
    """2^{exponent * g} for g = 0..count-1."""
    return np.array([pow2(exponent * g) for g in range(count)])


def _flux_coefficients(params: ModelParams) -> np.ndarray:
    """2 c_{n+1} for the boundaries n = 0..depth-1."""
    return 2.0 * _powers(params.alpha, params.depth + 1)[1:]


def _child_sums(y: np.ndarray, branching: int, out=None) -> np.ndarray:
    """Sum over the children of each internal node, in heap order, into out
    if given.  For N = 1 this is a view of y, and out is not used."""
    if branching == 1:
        return y[1:]
    return _row_sums(y[1:], branching, out)


def _row_sums(x: np.ndarray, branching: int, out=None) -> np.ndarray:
    """Sum of each run of N consecutive values of x, N = branching >= 2."""
    rows = x.reshape(-1, branching)
    if branching > 8:
        return rows.sum(1, out=out)
    return _column_sum(rows.T, out)


#: parents per chunk of the 8-ary column sum: its pairs and quads are 6 such
#: rows, whatever the tree's size
_COLUMN_CHUNK = 8192


def _column_sum(cols: np.ndarray, out=None) -> np.ndarray:
    """Sum of the rows of cols, a (k, m) array with 2 <= k <= 8, into out if
    given, in the order of numpy's pairwise sum of k values (numpy's
    pairwise_sum in loops_utils): sequential below 8, pairs of pairs at 8,
    _COLUMN_CHUNK columns at a time into one result."""
    if len(cols) < 8:
        s = np.add(cols[0], cols[1], out=out)
        for c in cols[2:]:
            s += c
        return s
    s = np.empty(cols.shape[1]) if out is None else out
    for start in range(0, cols.shape[1], _COLUMN_CHUNK):
        chunk = cols[:, start:start + _COLUMN_CHUNK]
        pairs = chunk[0::2] + chunk[1::2]
        quads = pairs[0::2] + pairs[1::2]
        np.add(quads[0], quads[1], out=s[start:start + _COLUMN_CHUNK])
        # dropped before the next chunk's pairs exist, and faster than adding
        # into preallocated rows, whose C order is not the columns' order
        del pairs, quads
    return s


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
    """Sum of values over each of the generations 0..n_gen-1, which values
    holds and nothing else."""
    if params.branching > 1:
        return np.add.reduceat(values, params.generation_starts[:n_gen], out=out)
    if out is None:
        out = np.empty(n_gen)
    out[:] = values
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
        self._elimination = None  # the tree's factor workspace, made by factor

    def rhs(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Time derivative of y.  A state near the overflow threshold gives
        a non-finite derivative; whether numpy warns about it is the
        caller's np.errstate (integrate and rhs_tree silence it)."""
        branching = self.params.branching
        deriv = np.empty_like(y) if out is None else out
        direct = branching == 1 and self.neg_nu_d is None
        gain = np.square(y[:self.n_internal], out=deriv[1:] if direct else None)
        gain *= self.c_next
        self._deriv(y, gain, _child_sums(y, branching), deriv, direct)
        return deriv

    def rhs_work(self, y, out=None, work_out=None, energies_out=None):
        """Derivative plus instantaneous work rates packed as
        [x0, visc rate per generation, flux rate per boundary].  The flux
        rates are boundary_fluxes(y); the viscous rates are the generation
        energies scaled by d_g, and energies_out, if given, receives the
        energies before that scaling, bit-equal to generation_energies(y).
        Overflow is handled as in rhs.  For N = 1 each generation is one
        node, so the squares are the energies and go straight to
        energies_out, and the flux products straight to the flux rates.  A
        chain without viscosity writes its gains straight into the
        children's slots (see the module docstring)."""
        p = self.params
        depth, n_int, branching = p.depth, self.n_internal, p.branching
        deriv = np.empty_like(y) if out is None else out
        if work_out is None:
            work_out = np.empty(2 * depth + 2)
        work_out[0] = y[0]
        flux = work_out[depth + 2:]
        csum = _child_sums(y, branching)
        if branching == 1:
            sq = energies = np.square(y, out=energies_out)
            np.multiply(sq[:n_int], csum, out=flux)
        else:
            # the squares live in deriv until the derivative overwrites it
            sq = np.square(y, out=deriv)
            starts = p.generation_starts
            energies = np.add.reduceat(sq, starts, out=energies_out)
            np.add.reduceat(sq[:n_int] * csum, starts[:depth], out=flux)
        np.multiply(energies, self.d, out=work_out[1:depth + 2])
        flux *= self.flux_coefficients
        direct = branching == 1 and self.neg_nu_d is None
        gain = np.multiply(self.c_next, sq[:n_int], out=deriv[1:] if direct else None)
        self._deriv(y, gain, csum, deriv, direct)
        return deriv, work_out

    def jvp(self, y, v, out=None, scratch=None):
        """J(y) v, J the Jacobian of rhs: -nu d_g v, plus 2 c_{g+1} X_p v_p
        on each child of p, minus c_{g+1} (v S + X S(v)) on each internal
        node, S the child sum.  Overflow is handled as in rhs.

        scratch, two arrays of y's size that hold nothing the caller needs,
        takes the 4 temporaries of n_int values on trees, where n >= 2 n_int
        + 1: a and the gain in the first, the child sums of y and v in the
        second.  Chains ignore it, since their child sums are views and a
        and the gain would not fit one array.  The result is the same bits
        either way."""
        n_int, branching = self.n_internal, self.params.branching
        jv = np.empty_like(v) if out is None else out
        if scratch is None or branching == 1:
            a_out = gain_out = y_sums = v_sums = None
        else:
            (a_out, gain_out), (y_sums, v_sums) = (
                (row[:n_int], row[n_int:2 * n_int]) for row in scratch)
        self._viscous(v, jv)
        a = np.multiply(self.c_next, y[:n_int], out=a_out)
        gain = np.multiply(a, v[:n_int], out=gain_out)
        gain *= 2.0
        _add_to_children(gain, jv[1:], branching)
        loss = np.multiply(v[:n_int], _child_sums(y, branching, y_sums), out=gain)
        loss *= self.c_next
        a *= _child_sums(v, branching, v_sums)
        loss += a
        jv[:n_int] -= loss
        return jv

    def factor(self, y, fac):
        """Factor M = fac I - J(y) for y >= 0 and fac > 0, and return a
        function solving M x = r into out; r may be out.

        M has D = fac + nu d_g + c_{g+1} S on the diagonal, a_p = c_{g+1}
        X_p at (p, child) and -2 a_p at (child, p); its graph is the tree,
        so eliminating each generation into its parents, leaves to root,
        leaves no fill-in.  The pivot of p is D_p + 2 a_p^2 sum_k 1/pivot_k
        >= fac > 0, so no pivoting is needed.  The forward sweep takes r_p
        -= sum_k (a_p/pivot_k) r_k, the back sweep x_k = (r_k + 2 a_p x_p) /
        pivot_k.  Chains sweep on Python floats (numpy would pay one call per
        node), trees one generation per few numpy calls (_TreeElimination).
        A tree's solve reads the kernel's factor workspace, so it serves
        until the kernel's next factor."""
        n_int, branching = self.n_internal, self.params.branching
        if branching > 1 and self._elimination is None:
            self._elimination = _TreeElimination(self.params.offsets, branching)
        a = np.multiply(self.c_next, y[:n_int])
        diag = np.empty(y.size) if branching == 1 else self._elimination.inv
        diag.fill(fac)
        if self.neg_nu_d is not None:
            diag[:n_int] -= self.neg_nu_d
            diag[n_int:] -= self.neg_nu_d_leaf
        diag[:n_int] += self.c_next * _child_sums(y, branching)
        if branching == 1:
            return _chain_solver(a.tolist(), diag.tolist())
        return self._elimination.factor(a)

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

    def _deriv(self, y, gain, csum, deriv, direct):
        """deriv = (visc + gain) - loss per node, where gain[p] = c_{g+1} X_p^2
        is what each child of internal node p receives.  With direct (N = 1,
        nu = 0) gain already is deriv[1:]; otherwise it is reused as
        scratch."""
        n_int = self.n_internal
        if direct:
            deriv[0] = self.gain0
            loss = np.multiply(self.c_next, y[:n_int])
        else:
            self._viscous(y, deriv)
            deriv[0] += self.gain0
            _add_to_children(gain, deriv[1:], self.params.branching)
            loss = np.multiply(self.c_next, y[:n_int], out=gain)
        loss *= csum
        deriv[:n_int] -= loss

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


class _TreeElimination:
    """Kernel.factor for N >= 2.  The children of generation g are
    generation g + 1 in parent order, so child k of p is entry k - 1 of the
    per-child arrays.  The workspace is made once per kernel, and the pivot
    loop and both sweeps are lists of numpy calls bound once to
    per-generation views of it, so a solve is those calls and two copies.
    Per generation the forward sweep makes N + 1 calls up to N = 8 and 3
    above, the back sweep 4 for N = 2 and 3 above.  Each solve starts by
    copying r into the sweep buffer, so no solve depends on the one before
    it."""

    def __init__(self, offs, branching):
        n, n_int, depth = offs[-1], offs[-2], len(offs) - 2
        self.branching = branching
        self.inv = inv = np.empty(n)        # D, then 1/pivot, per node
        self.m = np.empty(n - 1)            # a_p/pivot_k per child k of p
        self.two_a = np.empty(n_int)        # 2 a_p^2 for the pivots, then 2 a_p
        self.z = z = np.empty(n)            # the sweep buffer
        t, s = np.empty(n - 1), np.empty(n_int)  # per-child, per-parent scratch
        self.token = None
        pivots, up, down = [], [], []
        for g in range(depth):
            par, kids = slice(offs[g], offs[g + 1]), slice(offs[g + 1], offs[g + 2])
            per_child = slice(kids.start - 1, kids.stop - 1)
            sp, zp, zk, ik, two_a = s[par], z[par], z[kids], inv[kids], self.two_a[par]
            pivots.append(_row_sum_calls(ik, branching, sp) + [
                partial(np.multiply, sp, two_a, sp), partial(np.add, sp, inv[par], sp),
                partial(np.divide, 1.0, sp, inv[par])])
            tk = t[per_child]
            up.append([partial(np.multiply, self.m[per_child], zk, tk)]
                      + _row_sum_calls(tk, branching, sp)
                      + [partial(np.subtract, zp, sp, zp)])
            down.append([partial(np.multiply, two_a, zp, sp)]
                        + _add_to_children_calls(sp, zk, branching)
                        + [partial(np.multiply, zk, ik, zk)])
        leaves = inv[offs[depth]:]
        self.pivots = [partial(np.divide, 1.0, leaves, leaves)] + _flat(reversed(pivots))
        # the forward sweep leaves to root, the root's 1/pivot, the back sweep
        self.sweeps = (_flat(reversed(up)) + [partial(np.multiply, z[:1], inv[:1], z[:1])]
                       + _flat(down))

    def factor(self, a):
        """The solve of M, with self.inv holding its diagonal D and a the
        a_p of the internal nodes."""
        np.square(a, out=self.two_a)
        self.two_a *= 2.0
        for call in self.pivots:
            call()
        np.multiply(np.repeat(a, self.branching), self.inv[1:], out=self.m)
        np.multiply(a, 2.0, out=self.two_a)
        self.token = token = object()

        def solve(r, out):
            if self.token is not token:
                raise RuntimeError("a later factor of this kernel replaced this one")
            np.copyto(self.z, r)
            for call in self.sweeps:
                call()
            np.copyto(out, self.z)
            return out

        return solve


def _flat(lists):
    return [item for items in lists for item in items]


def _row_sum_calls(x, branching, out):
    """numpy calls that write the sum of each run of N consecutive values of
    x to out: strided adds up to N = 8, one row reduction above."""
    if branching > 8:
        return [partial(np.add.reduce, x.reshape(-1, branching), 1, None, out)]
    slots = [x[j::branching] for j in range(branching)]
    return ([partial(np.add, slots[0], slots[1], out)]
            + [partial(np.add, out, slot, out) for slot in slots[2:]])


def _add_to_children_calls(values, dst, branching):
    """numpy calls that add each parent's value to each of its children in
    dst, in the forms _add_to_children chooses."""
    if branching <= 2:
        return [partial(np.add, slot, values, slot)
                for slot in (dst[j::branching] for j in range(branching))]
    rows = dst.reshape(-1, branching)
    return [partial(np.add, rows, values[:, None], rows)]


def make_kernel(params: ModelParams) -> Kernel:
    return Kernel(params)
