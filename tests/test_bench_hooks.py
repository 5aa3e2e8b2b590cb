"""The benchmark's view of the library still matches the library.

bench/spans.py looks its hooks up by name and records an absent one as a
missing metric instead of failing, so a renamed solver or CLI function would
only show as a gap in a traced benchmark run.  A workload config that the CLI
no longer accepts would only show as a broken setup_s.  The bench modules are
loaded from their paths and nothing is written next to them."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from dyadic_cascade import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: the parse of each command's config, as main runs it
PARSERS = {
    "simulate": cli.RunConfig.from_dict,
    "stationary": cli._STATIONARY,
    "selfsimilar": cli._SELFSIMILAR,
    "lift": cli._LIFT,
    "dissipation-bound": cli._DISSIPATION,
    "fit-spectrum": cli._FIT,
}


def load_bench(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves_to_a_callable(monkeypatch):
    spans = load_bench(monkeypatch, "spans")
    assert spans.HOOKS
    for mod_name, attr, name, _ in spans.HOOKS:
        module = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        assert callable(getattr(module, attr, None)), (mod_name, attr, name)


@pytest.mark.parametrize("workload", ["tree_binary", "tree_wide", "chain_stiff",
                                      "shooting"])
def test_every_workload_config_parses(monkeypatch, tmp_path, workload):
    workloads = load_bench(monkeypatch, "workloads")
    assert workload in workloads.WORKLOADS
    calls = workloads.build(workload, 1, tmp_path).calls
    assert calls
    for call in calls:
        PARSERS[call.command](call.config)
