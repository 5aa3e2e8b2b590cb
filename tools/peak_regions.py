#!/usr/bin/env python3
"""Traced memory peak of one benchmark workload's simulate job, by region.

    python3 tools/peak_regions.py --src src --workload tree_wide [--tiny]

Imports dyadic_cascade from --src, so that two checkouts can be compared, and
the workload's configs with seed 1 from bench/workloads.py next to this tool
(--tiny takes their seconds-long versions).  Runs the job's simulate call
once through cli.main, in a temporary directory, with tracemalloc started
before the call, and prints one JSON object: the workload, the state's size n, the
job's peak in MB and in state arrays (8 n bytes), and the peak inside each
region, also in state arrays: Kernel.rhs, Kernel.rhs_work, Kernel.jvp and
dynamics._Dp5.error_norm, the norm of DP5's error estimate.  A region's peak
counts all the memory the job has traced at that moment, not only the
region's own.  A region whose callable the library does not have (a
checkout from before it was named so) is listed under "absent" instead.
The wrappers are put back when the job ends.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
#: (module of dyadic_cascade, path of the region's callable in it)
REGIONS = (("kernels", "Kernel.rhs"), ("kernels", "Kernel.rhs_work"),
           ("kernels", "Kernel.jvp"), ("dynamics", "_Dp5.error_norm"))


def _workloads():
    """bench/workloads.py as a module.  Its dataclasses look their module up
    in sys.modules while they are made, so it is there while it runs."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _hook(module, path):
    """(owner, name) of the callable at the dotted path in module, or None
    when the module has no callable there."""
    *owners, name = path.split(".")
    owner = module
    for step in owners:
        owner = getattr(owner, step, None)
    return (owner, name) if callable(getattr(owner, name, None)) else None


class _Peaks:
    """The traced peak of the whole job and of each region.  Entering or
    leaving a region folds tracemalloc's peak so far into the job's and
    resets it, so the peak read when a region is left is the region's."""

    def __init__(self, regions):
        self.job = 0
        self.regions = dict.fromkeys(regions, 0)
        self.depth = 0

    def fold(self) -> int:
        peak = tracemalloc.get_traced_memory()[1]
        self.job = max(self.job, peak)
        tracemalloc.reset_peak()
        return peak

    def wrap(self, name, fn):
        def wrapped(*args, **kwargs):
            self.depth += 1
            if self.depth == 1:
                self.fold()
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                if self.depth == 0:
                    self.regions[name] = max(self.regions[name], self.fold())

        return wrapped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding dyadic_cascade")
    parser.add_argument("--workload", required=True,
                        choices=("tree_binary", "tree_wide", "chain_stiff"))
    parser.add_argument("--tiny", action="store_true",
                        help="the workload's seconds-long version")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from dyadic_cascade import cli

    hooks = {path: _hook(importlib.import_module(f"dyadic_cascade.{module}"), path)
             for module, path in REGIONS}
    absent = [path for path, hook in hooks.items() if hook is None]
    hooks = {path: hook for path, hook in hooks.items() if hook is not None}
    originals = {path: getattr(owner, name) for path, (owner, name) in hooks.items()}
    peaks = _Peaks(hooks)
    for path, (owner, name) in hooks.items():
        setattr(owner, name, peaks.wrap(path, originals[path]))
    try:
        with tempfile.TemporaryDirectory() as work:
            workload = _workloads().build(args.workload, 1, work, tiny=args.tiny)
            workload.write_configs()
            (call,) = workload.calls
            tracemalloc.start()
            try:
                code = cli.main(call.argv)
                peaks.fold()
            finally:
                tracemalloc.stop()
    finally:
        for path, (owner, name) in hooks.items():
            setattr(owner, name, originals[path])
        sys.path.remove(args.src)
    if code != 0:
        return code
    state = 8 * workload.nodes
    print(json.dumps({
        "workload": args.workload, "tiny": args.tiny, "n": workload.nodes,
        "peak_mb": round(peaks.job / 1e6, 3),
        "peak_states": round(peaks.job / state, 2),
        "region_states": {name: round(peak / state, 2)
                          for name, peak in peaks.regions.items()},
        "absent": absent}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
