"""Dense Jacobian oracle for the matrix-free Jacobian products and the tree
elimination of the stage matrix.

The library never forms the Jacobian: Kernel.jvp applies it and
Kernel.factor eliminates fac I - J leaves to root.  This module builds the
dense n x n matrix from the model equation node by node,

    dX_i/dt = -nu d_g X_i + c_g X_p^2 - c_{g+1} X_i sum_k X_k,

for node i of generation g with parent p (the root's parent is f) and
children k, and shares no code with the kernel.
"""

from __future__ import annotations

import numpy as np


def dense_jacobian(params, y):
    """The dense Jacobian J(y) of the right-hand side at y."""
    n, branching = params.n_nodes, params.branching
    offs = params.offsets
    gen = np.searchsorted(offs, np.arange(n), side="right") - 1
    c = np.array([2.0 ** (params.alpha * g) for g in range(params.depth + 2)])
    jac = np.zeros((n, n))
    for i in range(n):
        g = gen[i]
        jac[i, i] = -params.nu * 2.0 ** (params.gamma * g)
        kids = range(branching * i + 1, min(branching * i + branching + 1, n))
        for k in kids:
            jac[i, i] -= c[g + 1] * y[k]
            jac[i, k] = -c[g + 1] * y[i]
        if i:
            p = (i - 1) // branching
            jac[i, p] = 2.0 * c[g] * y[p]
    return jac
