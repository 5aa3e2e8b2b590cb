"""The package's public names: every name in __all__ resolves, so a star
import works; and what importing the CLI loads."""

import json
import os
import subprocess
import sys

import dyadic_cascade


def test_every_exported_name_resolves():
    missing = [name for name in dyadic_cascade.__all__
               if not hasattr(dyadic_cascade, name)]
    assert missing == []
    assert len(set(dyadic_cascade.__all__)) == len(dyadic_cascade.__all__)


def test_star_import():
    namespace = {}
    exec("from dyadic_cascade import *", namespace)
    assert set(dyadic_cascade.__all__) <= namespace.keys()


IMPORT_PROBE = """
import sys
from dyadic_cascade import cli

def loaded():
    return sorted({"mpmath", "decimal"} & sys.modules.keys())

print(loaded(), cli._parser.cache_info().currsize)
cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[3]])
print(loaded())
cli.main(["stationary", "--config", sys.argv[2], "--out", sys.argv[3]])
print(loaded())
"""


def test_cli_import_and_simulate_load_neither_mpmath_nor_decimal(tmp_path):
    """mpmath is a test dependency only, and decimal is imported when a
    certificate runs: a fresh process that imports the CLI, and one that
    simulates, loads neither.  The import builds no argument parser."""
    simulate = tmp_path / "simulate.json"
    simulate.write_text(json.dumps({
        "model": "tree", "params": {"alpha": 1.0, "f": 0.5, "branching": 2, "depth": 3},
        "initial": {"kind": "zero"}, "t_end": 0.1, "output_interval": 0.1}))
    stationary = tmp_path / "stationary.json"
    stationary.write_text(json.dumps({"f": 1.0, "nu": 1.0, "beta": 1.0, "n_max": 10}))
    src = os.path.dirname(os.path.dirname(dyadic_cascade.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(simulate), str(stationary),
         str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert out.stdout.splitlines() == ["[] 0", "[]", "['decimal']"]
