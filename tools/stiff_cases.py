#!/usr/bin/env python3
"""Wall time and step attempts of the stiff runs no benchmark workload covers.

    python3 tools/stiff_cases.py --src src [--case NAME ...]

Imports dyadic_cascade from --src, so that two checkouts can be compared run
by run.  Prints one JSON object per case: the case, the wall and process CPU
time of integrate, the CPU microseconds per step attempt (DP5 and RODAS4
together), the DP5 and RODAS4 step attempts, accepted and rejected steps,
the switch time, the final energy and integrate's tracemalloc peak in MB.
The attempts per method are the run's Trajectory.attempts, null on a
checkout from before that field.  The peak comes from a second, untimed run
of the case, since tracing every allocation slows the run; the initial
state is made before tracing starts and is not in it.

The case chain_stiff is the integrate call of the benchmark workload of that
name (classic, depth 18, alpha 1, nu 0, f 1, root 1, t_end 1, 100 output
times), so the per-attempt cost of chains has a number of its own.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc

import numpy as np


def _cases(core):
    ModelParams, TreeState = core.ModelParams, core.TreeState

    def binary_decay(alpha):
        # unforced inviscid binary tree of depth 10, random on the top 7 nodes
        p = ModelParams(alpha=alpha, gamma=1.0, nu=0.0, f=0.0, branching=2, depth=10)
        y = np.zeros(p.n_nodes)
        y[:7] = np.random.default_rng(1).uniform(0.0, 1.0, 7)
        return TreeState(y, p), 20.0, ()

    def forced_binary():
        p = ModelParams(alpha=2.0, gamma=1.0, nu=0.0, f=1.0, branching=2, depth=7)
        y = np.zeros(p.n_nodes)
        y[0] = 1.0
        return TreeState(y, p), 2.5, np.linspace(0.025, 2.5, 100)

    def viscous_chain(f, nu, beta, gamma, depth):
        p = ModelParams(alpha=beta, gamma=gamma, nu=nu, f=f, branching=1, depth=depth)
        return TreeState.zeros(p), 10.0, ()

    def chain_stiff():
        p = ModelParams(alpha=1.0, gamma=1.0, nu=0.0, f=1.0, branching=1, depth=18)
        y = np.zeros(p.n_nodes)
        y[0] = 1.0
        return TreeState(y, p), 1.0, [i * 0.01 for i in range(1, 101)]

    return {
        "binary10_alpha1.5": lambda: binary_decay(1.5),
        "binary10_alpha2": lambda: binary_decay(2.0),
        "forced_binary7_alpha2": forced_binary,
        "chain20_50_0.1_1_1": lambda: viscous_chain(50.0, 0.1, 1.0, 1.0, 20),
        "chain32_10_0.01_3_1": lambda: viscous_chain(10.0, 0.01, 3.0, 1.0, 32),
        "chain_stiff": chain_stiff,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding dyadic_cascade")
    parser.add_argument("--case", action="append", help="default: every case")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from dyadic_cascade import core, dynamics

    try:
        cases = _cases(core)
        for name in args.case or cases:
            initial, t_end, outputs = cases[name]()
            start, cpu = time.perf_counter(), time.process_time()
            traj = dynamics.integrate(initial, t_end, output_times=outputs)
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu
            tracemalloc.start()
            dynamics.integrate(initial, t_end, output_times=outputs)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            attempts = traj.n_accepted + traj.n_rejected
            by_method = getattr(traj, "attempts", {})
            print(json.dumps({
                "case": name, "wall_s": round(wall, 4), "cpu_s": round(cpu, 4),
                "us_per_attempt": round(1e6 * cpu / attempts, 2),
                "dp5_attempts": by_method.get("DP5"),
                "rodas4_attempts": by_method.get("RODAS4"),
                "accepted": traj.n_accepted, "rejected": traj.n_rejected,
                "stiff_from": traj.stiff_from,
                "final_energy": float(traj.energies[-1].sum()),
                "peak_mb": round(peak / 1e6, 4)}), flush=True)
    finally:
        sys.path.remove(args.src)
    return 0


if __name__ == "__main__":
    sys.exit(main())
