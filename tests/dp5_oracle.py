"""A textbook Dormand-Prince 5(4) step: the oracle of dynamics._Dp5.attempt.

The standard 7-stage Butcher tableau (Dormand & Prince 1980; Hairer,
Norsett & Wanner I, Table II.5.2) in exact fractions.  Every stage is
formed from its full row of A, in the tableau's own order, with no FSAL and
no stage in another's row: k_1 = f(y), k_i = f(y + h sum_j a_ij k_j).  The
5th-order solution is y5 = y + h sum_i b_i k_i, also the input of the 7th
stage, and the embedded error h sum_i (b_i - b*_i) k_i, each weight's
difference taken exactly before it is rounded, so that the estimate is not
the difference of two solutions that agree to most of their digits.
"""

import math
from fractions import Fraction as F

import numpy as np

#: rows 2-7 of A; row 7 is b, the 7th stage's input being y5
A = (
    (F(1, 5),),
    (F(3, 40), F(9, 40)),
    (F(44, 45), F(-56, 15), F(32, 9)),
    (F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)),
    (F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)),
    (F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)),
)
C = (F(1, 5), F(3, 10), F(4, 5), F(8, 9), F(1), F(1))
B = A[-1] + (F(0),)
B_STAR = (F(5179, 57600), F(0), F(7571, 16695), F(393, 640), F(-92097, 339200),
          F(187, 2100), F(1, 40))
# a consistent tableau of two methods of order at least 1
assert all(sum(row) == c for row, c in zip(A, C))
assert sum(B) == sum(B_STAR) == 1


def step(f, y, h):
    """(y5, err): the 5th-order solution and the embedded error of one step
    over h from y, f the derivative.  y is only read."""
    k = [f(y)]
    for row in A:
        k.append(f(y + h * sum(float(a) * k_j for a, k_j in zip(row, k))))
    y5 = y + h * sum(float(b) * k_i for b, k_i in zip(B, k))
    err = h * sum(float(b - b_star) * k_i for b, b_star, k_i in zip(B, B_STAR, k))
    return y5, err


def error_norm(err, y, y5, rtol, atol) -> float:
    """RMS of err / (atol + rtol max(|y|, |y5|))."""
    return math.sqrt(float(np.mean(np.square(
        err / (atol + rtol * np.maximum(np.abs(y), np.abs(y5)))))))
