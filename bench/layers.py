"""Per-layer metrics of one traced job, computed from its spans and counts.

Each metric names the hooks it needs; when one of them is missing from the
library (a later change removed or renamed it) the metric is absent rather
than wrong.  A layer the workload does not use reads 0.  Times are self times
from spans; the rhs call count is the number of `kernels.rhs`/`rhs_work`
spans, steps come from summary.json, and classify calls from the counter
around the classify callable handed to `bisect_shooting`.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field

from spans import KERNEL_METHODS_HOOK, Tracer, self_times

STATIONARY_CASES = ("regular_60", "regular_120", "anomalous_60", "anomalous_120")
SELFSIMILAR_CASES = ("n60", "n120")


@dataclass
class JobTrace:
    """Self times, durations and counts of one traced job, overall and per
    case (one CLI call)."""

    wall_ns: int
    facts: dict                      # merged facts of the job's output checks
    nodes: int
    memcpy_ns_per_node: float
    missing: set
    self_ns: collections.Counter = field(default_factory=collections.Counter)
    calls: collections.Counter = field(default_factory=collections.Counter)
    covered_ns: int = 0              # wall time inside some top-level span
    case_total_ns: dict = field(default_factory=dict)   # case -> name -> ns
    case_counts: dict = field(default_factory=dict)     # case -> name -> n

    @classmethod
    def from_tracer(cls, tracer: Tracer, marks, wall_ns, facts, nodes,
                    memcpy_ns_per_node):
        """marks: [(case, (first, counts_before), (last, counts_after))]."""
        job = cls(wall_ns, facts, nodes, memcpy_ns_per_node, set(tracer.missing))
        first, last = marks[0][1][0], marks[-1][2][0]
        selfs = self_times(tracer.starts, tracer.ends, tracer.parents, first, last)
        for i in range(first, last):
            name = tracer.names[i]
            job.self_ns[name] += selfs[i - first]
            job.calls[name] += 1
            if tracer.parents[i] < first:
                job.covered_ns += tracer.ends[i] - tracer.starts[i]
        for case, (a, before), (b, after) in marks:
            totals = collections.Counter()
            for i in range(a, b):
                totals[tracer.names[i]] += tracer.ends[i] - tracer.starts[i]
            job.case_total_ns[case] = totals
            job.case_counts[case] = {k: after.get(k, 0) - before.get(k, 0)
                                     for k in after}
        return job

    def s(self, *names) -> float:
        return sum(self.self_ns[n] for n in names) * 1e-9

    def n(self, *names) -> int:
        return sum(self.calls[n] for n in names)

    def case_s(self, case, name) -> float:
        return self.case_total_ns.get(case, {}).get(name, 0) * 1e-9

    def case_n(self, case, name) -> int:
        return self.case_counts.get(case, {}).get(name, 0)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


RHS = ("kernels.rhs", "kernels.rhs_work")
KERNEL_HOOKS = ("dynamics.make_kernel", KERNEL_METHODS_HOOK)


def _rhs_calls(j):
    return j.n(*RHS)


def _rhs_s(j):
    return j.s(*RHS)


def _steps(j):
    return j.facts.get("steps_accepted", 0) + j.facts.get("steps_rejected", 0)


def _classify_us(j, layer):
    calls = sum(j.case_n(c, f"{layer}.classify") for c in j.case_counts)
    return _ratio(j.s(f"{layer}.bisect_shooting"), calls) * 1e6


#: (name, unit, better, hooks needed, value(job)); the order is that of
#: BENCHMARK.json's per_layer list, minus the trace.* entries added by run.py
METRICS = [
    ("kernels.rhs_calls", "count", "lower", KERNEL_HOOKS, _rhs_calls),
    ("kernels.rhs_s", "s", "lower", KERNEL_HOOKS, _rhs_s),
    ("kernels.rhs_us_per_call", "us", "lower", KERNEL_HOOKS,
     lambda j: _ratio(_rhs_s(j), _rhs_calls(j)) * 1e6),
    ("kernels.rhs_ns_per_node", "ns", "lower", KERNEL_HOOKS,
     lambda j: _ratio(_rhs_s(j), _rhs_calls(j) * j.nodes) * 1e9),
    ("kernels.memcpy_ns_per_node", "ns", "lower", (),
     lambda j: j.memcpy_ns_per_node),
    ("kernels.rhs_memcpy_ratio", "ratio", "lower", KERNEL_HOOKS,
     lambda j: _ratio(_ratio(_rhs_s(j), _rhs_calls(j) * j.nodes) * 1e9,
                      j.memcpy_ns_per_node)),
    ("kernels.rhs_share", "fraction", "lower", KERNEL_HOOKS + ("cli.integrate",),
     lambda j: _ratio(_rhs_s(j), j.s("dynamics.integrate") + _rhs_s(j))),
    ("dynamics.integrate_s", "s", "lower", KERNEL_HOOKS + ("cli.integrate",),
     lambda j: j.s("dynamics.integrate")),
    ("dynamics.overhead_us_per_step", "us", "lower", KERNEL_HOOKS + ("cli.integrate",),
     lambda j: _ratio(j.s("dynamics.integrate"), _steps(j)) * 1e6),
    ("dynamics.steps_accepted", "count", "lower", (),
     lambda j: j.facts.get("steps_accepted", 0)),
    ("dynamics.steps_rejected", "count", "lower", (),
     lambda j: j.facts.get("steps_rejected", 0)),
    ("dynamics.accept_ratio", "fraction", "higher", (),
     lambda j: _ratio(j.facts.get("steps_accepted", 0), _steps(j))),
    ("dynamics.rhs_evals_per_step", "count", "lower", KERNEL_HOOKS,
     lambda j: _ratio(_rhs_calls(j), _steps(j))),
    ("dynamics.snapshot_mb_computed", "MB", "lower", (),
     lambda j: 2 * j.facts.get("outputs", 0) * j.nodes * 8 / 1e6),
    ("cli.report_s", "s", "lower", ("cli.energy_report", "cli.balance_residual"),
     lambda j: j.s("cli.energy_report", "cli.balance_residual")),
    ("cli.report_us_per_output", "us", "lower",
     ("cli.energy_report", "cli.balance_residual"),
     lambda j: _ratio(j.s("cli.energy_report", "cli.balance_residual"),
                      j.facts.get("outputs", 0)) * 1e6),
    ("cli.write_bytes", "bytes", "lower", (), lambda j: j.facts.get("write_bytes", 0)),
    ("cli.write_s", "s", "lower", ("cli.main",), lambda j: j.s("cli.main")),
    ("stateio.dump_bytes", "bytes", "lower", (), lambda j: j.facts.get("dump_bytes", 0)),
    ("stateio.dump_s", "s", "lower", ("cli.dump_state",), lambda j: j.s("stateio.dump_state")),
]
for _case in STATIONARY_CASES:
    METRICS += [
        (f"stationary.solve_s.{_case}", "s", "lower", ("cli.solve_viscous_stationary",),
         lambda j, c=_case: j.case_s(c, "stationary.solve_viscous_stationary")),
        (f"stationary.classify_calls.{_case}", "count", "lower",
         ("stationary.bisect_shooting",),
         lambda j, c=_case: j.case_n(c, "stationary.classify")),
    ]
METRICS.append(("stationary.us_per_classify", "us", "lower", ("stationary.bisect_shooting",),
                lambda j: _classify_us(j, "stationary")))
for _case in SELFSIMILAR_CASES:
    METRICS += [
        (f"selfsimilar.solve_s.{_case}", "s", "lower", ("cli.solve_selfsimilar_classic",),
         lambda j, c=_case: j.case_s(c, "selfsimilar.solve_selfsimilar_classic")),
        (f"selfsimilar.classify_calls.{_case}", "count", "lower",
         ("selfsimilar.bisect_shooting",),
         lambda j, c=_case: j.case_n(c, "selfsimilar.classify")),
    ]
METRICS.append(("selfsimilar.us_per_classify", "us", "lower", ("selfsimilar.bisect_shooting",),
                lambda j: _classify_us(j, "selfsimilar")))
METRICS.append(("trace.unattributed_frac", "fraction", "lower", ("cli.main",),
                lambda j: _ratio(j.wall_ns - j.covered_ns, j.wall_ns)))

#: computed in run.py from traced against untraced job walls
OVERHEAD = ("trace.overhead_frac", "fraction", "lower")


def job_metrics(job: JobTrace) -> tuple[dict, list]:
    """(values of the present metrics, names of the absent ones)."""
    values, absent = {}, []
    for name, _unit, _better, hooks, fn in METRICS:
        if any(h in job.missing for h in hooks):
            absent.append(name)
        elif name.startswith("kernels.rhs") and job.n("dynamics.integrate") \
                and not _rhs_calls(job):
            absent.append(name)  # integrate ran but no kernel hook fired
        else:
            values[name] = float(fn(job))
    return values, absent


def per_layer_spec() -> list:
    """BENCHMARK.json's per_layer entries."""
    return [{"name": m[0], "unit": m[1], "better": m[2]}
            for m in METRICS + [OVERHEAD]]
