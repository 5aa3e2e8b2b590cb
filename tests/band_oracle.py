"""One-call tridiagonal elimination, the oracle for the factored band solves
of the Newton solvers.

The library factors each Jacobian once (stationary.factor_band) and solves
every right-hand side with the factors (stationary.solve_band).  This is the
elimination they replaced, which factors and solves in one sweep; the two
must agree bit for bit.
"""

from __future__ import annotations

import numpy as np


def thomas(sub, diag, sup, rhs) -> np.ndarray:
    """Solve a tridiagonal system by elimination without pivoting.

    Row i reads sub[i] x[i-1] + diag[i] x[i] + sup[i] x[i+1] = rhs[i];
    sub[0] and sup[-1] meet zeros and drop out."""
    n = len(diag)
    c = [0.0] * n
    d = [0.0] * n
    c_prev = d_prev = 0.0
    for i in range(n):
        p = diag[i] - sub[i] * c_prev
        c_prev = c[i] = sup[i] / p
        d_prev = d[i] = (rhs[i] - sub[i] * d_prev) / p
    x_next = 0.0
    for i in range(n - 1, -1, -1):
        x_next = d[i] = d[i] - c[i] * x_next
    return np.array(d)
