"""Every name the benchmark's tracer wraps exists in the library.

bench/spans.py looks its hooks up by name and records an absent one as a
missing metric instead of failing, so a renamed solver or CLI function would
only show as a gap in a traced benchmark run.  The module is loaded from its
path and nothing is written next to it."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves_to_a_callable(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.HOOKS
    for mod_name, attr, name, _ in spans.HOOKS:
        module = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        assert callable(getattr(module, attr, None)), (mod_name, attr, name)

