"""Forward-shooting oracle for the stationary and self-similar solvers.

This is the solver the library used before its Newton boundary-value solve:
bisection on Z_0 (or b_0) by the parity rule, with the forward recurrence
iterated in extended precision over a horizon of 2 n_max + 20 levels.  It
is slow (its cost grows like n_max^2 x precision) and only its head is
trustworthy, so tests call it at n_max <= 60 and compare heads:

* stationary: Z_0..Z_k, the forward levels whose error bound (root width
  times the accumulated condition number) stays below 1e-15.  Past its own
  conditioning cap this solver appended a value that had lost every digit;
* self-similar: every b_n, which it rebuilt forward from the root.

It shares no code with the library.
"""

from __future__ import annotations

import mpmath as mp

HORIZON_FACTOR = 2
HORIZON_SLACK = 20
DPS_PER_LEVEL = 0.35
DPS_BASE = 60
DIP_RATIO = 8.0


def _precision(n_max):
    n_class = HORIZON_FACTOR * n_max + HORIZON_SLACK
    return n_class, DPS_BASE + int(DPS_PER_LEVEL * n_class)


def classify_parity(g, a, mu, n_levels):
    zm1, zn = g, a
    for n in range(n_levels):
        nxt = zm1 ** 2 / zn - mp.mpf(2) ** (mu * n)
        if nxt <= 0:
            k = n + 1
            return ("raise" if k % 2 == 0 else "lower"), k
        zm1, zn = zn, nxt
    return "survive", None


def classify_dips(w0, q_eps, n_levels, ratio):
    wm1, wn = mp.mpf(0), w0
    for n in range(n_levels):
        nxt = wm1 ** 2 / wn + q_eps ** (n + 1)
        m = n + 1
        if m >= 2:
            r = nxt / wn
            if r < 1.0 / ratio:
                return ("raise" if m % 2 == 0 else "lower"), m
            if r > ratio:
                return ("raise" if (m - 1) % 2 == 0 else "lower"), m
        wm1, wn = wn, nxt
    return "survive", None


def narrow(classify, bracket, width_floor, max_iter=600):
    """Halve bracket = (lo, hi), which must classify as (raise, lower), until
    hi - lo <= width_floor * lo.  A midpoint that survives the whole horizon
    cannot be told from the root and collapses the bracket onto itself.
    Returns (lo, hi) as mpf."""
    lo, hi = mp.mpf(bracket[0]), mp.mpf(bracket[1])
    assert (classify(lo)[0], classify(hi)[0]) == ("raise", "lower")
    floor = mp.mpf(width_floor)
    for _ in range(max_iter):
        if hi - lo <= floor * lo:
            return lo, hi
        mid = (lo + hi) / 2
        c, _ = classify(mid)
        if c == "survive":
            return mid, mid
        if c == "raise":
            lo = mid
        else:
            hi = mid
    raise AssertionError("oracle narrowing did not converge")


def bisect(classify, start, width_floor, max_iter=600):
    """Probe geometrically from start until both directions are seen, then
    bisect; a survivor of the whole horizon is the root.  Returns
    (root, survived)."""
    a = mp.mpf(start)
    c, _ = classify(a)
    if c == "survive":
        return a, True
    lo = hi = None
    step = 2 if c == "raise" else mp.mpf(1) / 2
    want = "lower" if c == "raise" else "raise"
    for _ in range(400):
        prev, a = a, a * step
        c2, _ = classify(a)
        if c2 == "survive":
            return a, True
        if c2 == want:
            lo, hi = (prev, a) if c == "raise" else (a, prev)
            break
    else:
        raise AssertionError("oracle found no bracket")
    for _ in range(max_iter):
        mid = (lo + hi) / 2
        c, _ = classify(mid)
        if c == "survive":
            return mid, True
        if c == "raise":
            lo = mid
        else:
            hi = mid
        if (hi - lo) < width_floor * mid:
            return (lo + hi) / 2, False
    raise AssertionError("oracle bisection did not converge")


def stationary_head(f, nu, beta, gamma, n_max):
    """Z_0..Z_k (floats) of the forward solve, up to the last level before
    its conditioning cap."""
    n_class, dps = _precision(n_max)
    with mp.workdps(dps):
        g = mp.mpf(2) ** (mp.mpf(beta) / 3) * mp.mpf(f) / mp.mpf(nu)
        mu = mp.mpf(gamma) - 2 * mp.mpf(beta) / 3
        root, survived = bisect(lambda a: classify_parity(g, a, mu, n_class),
                                g, mp.mpf(10) ** (-(dps - 15)))
        assert survived or mu >= 0, "oracle found no survivor for mu < 0"
        z = [g, root]
        # the root is known to 10^-(dps-15) relative and the forward error
        # grows by cond: keep the levels it leaves 15 good digits
        cond, cap = mp.mpf(1), mp.mpf(10) ** (dps - 30)
        for n in range(n_max):
            gain = z[-2] ** 2 / z[-1]
            nxt = gain - mp.mpf(2) ** (mu * n)
            if nxt <= 0:
                break
            cond *= max(gain / nxt, mp.mpf(2))
            if cond > cap:
                break
            z.append(nxt)
        return [float(v) for v in z[1:]]


def selfsimilar_b(beta, n_max):
    """b_0..b_{n_max} of the forward solve."""
    n_class, dps = _precision(n_max)
    with mp.workdps(dps):
        q_eps = mp.mpf(2) ** (-2 * mp.mpf(beta) / 3)
        root, survived = bisect(
            lambda a: classify_dips(a, q_eps, n_class, DIP_RATIO),
            mp.mpf(1), mp.mpf(10) ** (-(dps - 15)))
        assert survived, "oracle found no plateau-stable b_0"
        w = [mp.mpf(0), root]
        for n in range(n_max):
            w.append(w[-2] ** 2 / w[-1] + q_eps ** (n + 1))
        qb = mp.mpf(2) ** (-mp.mpf(beta) / 3)
        return [float(w[n + 1] * qb ** n) for n in range(n_max + 1)]
