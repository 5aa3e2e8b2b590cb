"""Sequential stage recurrence of the RODAS4 work quadratures, the oracle
for the one-product form of dynamics._Rodas4.attempt.

The work rates ride along RODAS4 as extra components with Jacobian rows
W_y and zero columns, so their stage increments are

    kq_i = h gamma (w(Y_i) + sum_j C_ij/h kq_j + W_y(y) k_i)

and the attempt's increment is A_4 . kq[:4] + kq[4] + kq[5].  This is that
recurrence stage by stage, one work_jvp per stage, as the library computed
it before it folded the six products into one.  The solution stages are
the library's, so the two must agree in the solution bit for bit and in the
work increment to rounding.
"""

from __future__ import annotations

import numpy as np

from dyadic_cascade.dynamics import _RODAS_A, _RODAS_C, _RODAS_GAMMA


def attempt(kernel, y, f0, w0, h):
    """One RODAS4 attempt over h from y: (new solution, stage increments k,
    work increment)."""
    n, nw = y.size, w0.size
    k, kq = np.empty((6, n)), np.empty((6, nw))
    hg = h * _RODAS_GAMMA
    solve = kernel.factor(y, 1.0 / hg)
    stage = np.empty(n)
    f, w = f0, w0
    for i in range(6):
        if i == 5:
            stage += k[4]
        elif i:
            stage = _RODAS_A[i] @ k[:i] + y
        if i:
            f, w = kernel.rhs_work(stage)
        c = _RODAS_C[i, :i] / h
        solve(f + c @ k[:i], out=k[i])
        kq[i] = w + c @ kq[:i] + kernel.work_jvp(y, k[i])
        kq[i] *= hg
    return stage + k[5], k, _RODAS_A[4] @ kq[:4] + kq[4] + kq[5]
