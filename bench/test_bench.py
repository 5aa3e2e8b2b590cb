"""Tests of the benchmark itself: tiny workloads through the same code path,
failure counting, self-time arithmetic and absent metrics.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import probe
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}


@pytest.fixture(scope="module")
def cli():
    return run.load_cli(run.ROOT)


def tiny(tmp_path, name, trace, seed=7):
    return run.run(name, seed, 0, trace, tiny=True, work=tmp_path / name)


def test_spec_lists_what_the_benchmark_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["per_layer"] == layers.per_layer_spec()
    assert END_TO_END == set(run.END_TO_END)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_traced(tmp_path, cli, name):
    result = tiny(tmp_path, name, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2  # one untraced, one traced job
    assert set(result["metrics"]) == PER_LAYER
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "shooting":
        assert m["kernels.rhs_calls"] == 0
        assert m["stationary.classify_calls.anomalous_120"] > 0
        assert m["selfsimilar.classify_calls.n60"] > 0
    else:
        assert m["kernels.rhs_calls"] > 0 and m["dynamics.steps_accepted"] > 0
        assert 0 < m["kernels.rhs_share"] < 1
        assert m["stationary.solve_s.regular_60"] == 0
    assert (m["stateio.dump_bytes"] > 0) == (name == "tree_wide")
    assert 0 <= m["trace.unattributed_frac"] < 0.5


def test_tiny_workload_untraced(tmp_path, cli):
    result = tiny(tmp_path, "tree_binary", trace=False)
    assert result["correct"] and result["attempted"] == 1
    assert set(result["metrics"]) == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_reference_counts_as_failed(tmp_path, cli, monkeypatch):
    monkeypatch.setitem(workloads.CHAIN_REFERENCE, True,
                        workloads.CHAIN_REFERENCE[True] * 1.001)
    result = tiny(tmp_path, "chain_stiff", trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert result["metrics"]["passed_frac"]["value"] == 0.0


def test_nonzero_exit_counts_as_failed(tmp_path, cli, monkeypatch):
    build = workloads.build

    def broken(*args, **kwargs):
        workload = build(*args, **kwargs)
        workload.calls[0].config["f"] = -1.0  # stationary rejects f <= 0
        return workload

    monkeypatch.setattr(workloads, "build", broken)
    result = tiny(tmp_path, "shooting", trace=False)
    assert not result["correct"] and result["failed"] == 1


def test_probe_scales_each_job_by_the_slowdowns_around_it():
    got = probe.scaled([2.0, 3.0], [1.0, 1.0, 2.0])
    assert got == pytest.approx([2.0, 3.0 / math.sqrt(2)])


def test_trimmed_mean_drops_one_value_at_each_end():
    assert run.trimmed_mean([9.0, 1.0, 2.0, 3.0, 4.0]) == 3.0
    assert run.trimmed_mean([1.0, 2.0, 4.0, 100.0]) == 3.0
    assert run.trimmed_mean([5.0]) == 5.0


def test_probe_parts_exist_and_leave_the_library_precision_alone():
    import mpmath
    dps = mpmath.mp.dps
    for name in workloads.WORKLOADS:
        parts = workloads.build(name, 1, "unused", tiny=True).probe
        assert set(parts) <= set(probe.PARTS)
        assert probe.slowdown(parts) > 0
    assert probe.slowdown(()) == 1.0
    assert mpmath.mp.dps == dps


def test_self_times_of_a_synthetic_span_tree():
    # 0: root [0, 100]; 1: [10, 40] and 2: [30, 60] overlap; 3: [15, 20]
    # inside 1; 4: [90, 120] sticks out of the root and is clipped there
    starts = [0, 10, 15, 30, 90]
    ends = [100, 40, 20, 60, 120]
    parents = [-1, 0, 1, 0, 0]
    assert spans.self_times(starts, ends, parents) == [100 - 50 - 10, 25, 5, 30, 30]
    # a slice ignores parents outside it
    assert spans.self_times(starts, ends, parents, first=1) == [25, 5, 30, 30]


def test_tracer_records_nesting_and_closes_spans_on_error():
    tracer = spans.Tracer()

    def fail():
        raise ValueError

    inner = tracer.span("inner", fail)

    def outer():
        with pytest.raises(ValueError):
            inner()

    tracer.span("outer", outer)()
    assert tracer.names == ["outer", "inner"]
    assert tracer.parents == [-1, 0]
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))


def test_missing_hook_is_reported_not_fatal(cli, monkeypatch):
    monkeypatch.setattr(spans, "HOOKS", spans.HOOKS + (
        ("cli", "no_such_function", "cli.no_such_function", "span"),))
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    spans.uninstall(undo)
    assert tracer.missing == {"cli.no_such_function"}
    assert cli.main.__module__ == "dyadic_cascade.cli"  # originals restored


def test_missing_hook_makes_its_metric_absent(tmp_path, cli, monkeypatch):
    # tree_binary writes no dumps, so the CLI runs fine without dump_state
    monkeypatch.delattr(cli, "dump_state")
    result = tiny(tmp_path, "tree_binary", trace=True)
    assert result["correct"]
    assert set(result["metrics"]) == PER_LAYER - {"stateio.dump_s"}


def test_without_library_source_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shooting", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
