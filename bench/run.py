#!/usr/bin/env python3
"""Benchmark of the `dyadic_cascade` CLI.

    python3 bench/run.py --workload tree_binary --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from ./src
and nowhere else.  One process runs one workload as a closed loop with a
single client: jobs (`dyadic_cascade.cli.main` calls) run back to back until
--seconds have passed, and every job's outputs are checked against the
paper's identities.  --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run (traced and untraced jobs alternate, so the
tracing overhead is measured too).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import layers
import probe
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120
#: end-to-end metrics (name -> unit) printed with --trace 0
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "passed_frac": "fraction"}

#: what one fresh CLI process pays before its first job: interpreter start,
#: library import (numpy, mpmath) and config parsing
SETUP_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from dyadic_cascade import cli
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if "model" in cfg:
        cli.RunConfig.from_dict(cfg)
"""


def load_cli(root: Path):
    """Import dyadic_cascade.cli from root/src, refusing any other copy."""
    pkg = root / "src" / "dyadic_cascade" / "__init__.py"
    sys.path.insert(0, str(root / "src"))
    cli = importlib.import_module("dyadic_cascade.cli")
    if Path(sys.modules["dyadic_cascade"].__file__).resolve() != pkg.resolve():
        raise RuntimeError("dyadic_cascade was imported from outside the checkout")
    return cli


def measure_setup(root: Path, workload) -> float:
    """Median wall seconds of SETUP_REPEATS fresh processes running SETUP_PROBE."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(root / "src")]
    argv += [str(call.config_path) for call in workload.calls]
    times = []
    for _ in range(SETUP_REPEATS):
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would round every time up to that grid
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root)
        guard = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        guard.start()
        try:
            code = proc.wait()
        finally:
            guard.cancel()
            guard.join()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
    return statistics.median(times)


def trimmed_mean(values: list) -> float:
    """Mean without the smallest and the largest value (the median of up
    to 4 values): it uses more of the jobs than the median, and one job
    hit by a stall cannot pull it far."""
    values = sorted(values)
    return statistics.fmean(values[1:-1]) if len(values) > 4 else statistics.median(values)


def run_job(cli, workload, tracer=None):
    """One job: every call of the workload, then its checks.

    Returns (wall seconds, problems, facts, marks); marks slice the tracer's
    spans and counters per call when a tracer is given.
    """
    workload.clear_outputs()
    codes, marks = [], []
    t0 = time.perf_counter_ns()
    for call in workload.calls:
        before = tracer.mark() if tracer else None
        try:
            codes.append(cli.main(call.argv))
        except Exception:  # a crash is a failed job, not a failed benchmark
            traceback.print_exc()
            codes.append(None)
        if tracer:
            marks.append((call.case, before, tracer.mark()))
    wall_ns = time.perf_counter_ns() - t0
    problems, facts = [], {}
    for call, code in zip(workload.calls, codes):
        if code != 0:
            problems.append(f"{call.case}: exit code {code}")
            continue
        try:
            found, got = call.check(call)
        except Exception as e:  # missing or malformed outputs fail the job
            traceback.print_exc()
            found, got = [f"outputs unreadable: {type(e).__name__}: {e}"], {}
        problems += [f"{call.case}: {p}" for p in found]
        for k, v in got.items():
            facts[k] = facts.get(k, 0) + v
    return wall_ns, problems, facts, marks


def memcpy_ns_per_node(nodes: int, repeats: int = 200) -> float:
    """Median ns per node of np.copyto on a state-sized array."""
    if not nodes:
        return 0.0
    src = np.random.default_rng(0).random(nodes)
    dst = np.empty_like(src)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        np.copyto(dst, src)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / nodes


def _cache_bytes() -> dict:
    out = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and size.endswith("K"):
            out[f"l{level}_bytes"] = int(size[:-1]) * 1024
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Threads of the OpenBLAS numpy loaded, as it runs (not overridden)."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int, workload) -> dict:
    import mpmath
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **_cache_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": _blas_threads(),
        "seed": seed,
        "seed_used": workload.seed_used,
        "nodes": workload.nodes,
        "state_bytes": 8 * workload.nodes,
        # K (7 rows), yy, y5, err and y of the 5(4) integrator; computed
        "integrator_bytes_computed": 8 * 11 * workload.nodes,
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path = ROOT,
        tiny: bool = False, work: Path | None = None) -> dict:
    """Measure one workload; returns the result object (see module doc).

    Jobs start while the time left is at least the last job's wall time, so
    a run ends close to `seconds`; there is always at least one job (with
    trace, one untraced and one traced).  Scratch files go to `work`.
    """
    if not (root / "src" / "dyadic_cascade" / "__init__.py").is_file():
        raise RuntimeError(f"no library source under {root / 'src'}; "
                           "run from the root of a source checkout")
    work = work or root / ".bench_out" / name
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.build(name, seed, work / "jobs", tiny=tiny)
    workload.write_configs()
    setup_s = measure_setup(root, workload)
    cli = load_cli(root)
    tracer = spans.Tracer()
    memcpy = memcpy_ns_per_node(workload.nodes) if trace else 0.0

    walls, traced_walls, per_job, absent = [], [], [], set()
    attempted = failed = 0
    start = time.perf_counter()
    slowdowns = [] if trace else [probe.slowdown(workload.probe)]  # around each job
    while True:
        traced = trace and attempted % 2 == 1
        if traced:
            undo = spans.install(tracer)
            try:
                wall_ns, problems, facts, marks = run_job(cli, workload, tracer)
            finally:
                spans.uninstall(undo)
        else:
            wall_ns, problems, facts, marks = run_job(cli, workload)
        attempted += 1
        if problems:
            failed += 1
            print(f"job {attempted} failed: " + "; ".join(problems), file=sys.stderr)
        if traced:
            traced_walls.append(wall_ns * 1e-9)
            job = layers.JobTrace.from_tracer(tracer, marks, wall_ns, facts,
                                              workload.nodes, memcpy)
            values, missing = layers.job_metrics(job)
            per_job.append(values)
            absent.update(missing)
        else:
            walls.append(wall_ns * 1e-9)
        if not trace:
            slowdowns.append(probe.slowdown(workload.probe))
        if time.perf_counter() - start + wall_ns * 1e-9 > seconds \
                and (traced_walls or not trace):
            break

    env = environment(seed, workload)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"jobs {attempted} (untraced {len(walls)}, traced {len(traced_walls)}), "
          f"wall_s per untraced job: " + " ".join(f"{w:.4f}" for w in walls))
    if slowdowns:
        print(f"host slowdown ({'+'.join(workload.probe) or 'no probe'}) around the jobs: "
              + " ".join(f"{s:.4f}" for s in slowdowns))
    if trace:
        metrics = {}
        for metric, unit, _better, _hooks, _fn in layers.METRICS:
            vals = [v[metric] for v in per_job if metric in v]
            if metric not in absent and vals:
                metrics[metric] = {"value": statistics.median(vals), "unit": unit}
        metric, unit, _ = layers.OVERHEAD
        metrics[metric] = {"value": statistics.median(traced_walls)
                           / statistics.median(walls) - 1.0, "unit": unit}
        if absent:
            print("absent metrics (hook missing): " + " ".join(sorted(absent)))
        tracer.write(work / "spans.npz")
    else:
        values = {
            "wall_ref_s": trimmed_mean(probe.scaled(walls, slowdowns)),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_frac": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    (work / "environment.json").write_text(json.dumps(env, indent=1, sort_keys=True) + "\n")
    workload.clear_outputs()
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, ImportError, subprocess.SubprocessError) as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
