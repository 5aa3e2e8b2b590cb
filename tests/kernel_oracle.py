"""Helper-based evaluation of f and its work rates, the oracle for the inlined
Kernel.rhs and Kernel.rhs_work.

This is the kernel as it was written before its per-call helpers were
inlined: the squares and gains go through _child_sums, _generation_sums and
_fluxes, and the derivative starts from the viscous term (a zero fill when
nu = 0) before the gains are added to it.  It reads only the kernel's
coefficient arrays, so the inlined versions must agree with it bit for bit
in the derivative, the work rates and the energies.
"""

from __future__ import annotations

import numpy as np


def _column_sum(cols):
    if len(cols) < 8:
        s = cols[0] + cols[1]
        for c in cols[2:]:
            s += c
        return s
    pairs = cols[0::2] + cols[1::2]
    quads = pairs[0::2] + pairs[1::2]
    return quads[0] + quads[1]


def _child_sums(y, branching):
    if branching == 1:
        return y[1:]
    rows = y[1:].reshape(-1, branching)
    if branching > 8:
        return rows.sum(1)
    return _column_sum(rows.T)


def _add_to_children(values, dst, branching):
    if branching <= 2:
        for j in range(branching):
            dst[j::branching] += values
    else:
        rows = dst.reshape(-1, branching)
        rows += values[:, None]


def _generation_sums(params, values, n_gen, out=None):
    if params.branching > 1:
        return np.add.reduceat(values, params.generation_starts[:n_gen], out=out)
    if out is None:
        out = np.empty(n_gen)
    out[:] = values
    return out


def _fluxes(params, sq_internal, csum, coefficients, out=None):
    flux = _generation_sums(params, sq_internal * csum, params.depth, out)
    flux *= coefficients
    return flux


def _viscous(kernel, v, out):
    if kernel.neg_nu_d is None:
        out.fill(0.0)
        return
    n_int = kernel.n_internal
    np.multiply(kernel.neg_nu_d, v[:n_int], out=out[:n_int])
    np.multiply(v[n_int:], kernel.neg_nu_d_leaf, out=out[n_int:])


def _deriv(kernel, y, gain, csum, deriv):
    _viscous(kernel, y, deriv)
    deriv[0] += kernel.gain0
    _add_to_children(gain, deriv[1:], kernel.params.branching)
    loss = np.multiply(kernel.c_next, y[:kernel.n_internal], out=gain)
    loss *= csum
    deriv[:kernel.n_internal] -= loss


def rhs(kernel, y, out=None):
    deriv = np.empty_like(y) if out is None else out
    gain = np.square(y[:kernel.n_internal])
    gain *= kernel.c_next
    _deriv(kernel, y, gain, _child_sums(y, kernel.params.branching), deriv)
    return deriv


def rhs_work(kernel, y, out=None, work_out=None, energies_out=None):
    p = kernel.params
    depth, n_int = p.depth, kernel.n_internal
    deriv = np.empty_like(y) if out is None else out
    if work_out is None:
        work_out = np.empty(2 * depth + 2)
    sq = np.square(y, out=deriv)
    csum = _child_sums(y, p.branching)
    work_out[0] = y[0]
    energies = _generation_sums(p, sq, depth + 1, energies_out)
    np.multiply(energies, kernel.d, out=work_out[1:depth + 2])
    _fluxes(p, sq[:n_int], csum, kernel.flux_coefficients, work_out[depth + 2:])
    gain = np.multiply(kernel.c_next, sq[:n_int])
    _deriv(kernel, y, gain, csum, deriv)
    return deriv, work_out
