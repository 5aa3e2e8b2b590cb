"""The package's public names: every name in __all__ resolves, so a star
import works; what importing the CLI loads; the signatures of the
functions that take a state; and the argument checks of the public
functions on infinities and NaN."""

import inspect
import json
import math
import os
import subprocess
import sys

import pytest

import dyadic_cascade
from dyadic_cascade import cli, errors


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


def test_state_taking_functions_read_the_params_of_the_state():
    """A state carries its model parameters: no function that takes a state
    accepts a second set that could disagree with them."""
    for fn in (dyadic_cascade.integrate, dyadic_cascade.rhs_tree,
               dyadic_cascade.energy_report, cli.fit_spectrum,
               dyadic_cascade.verify_lift_equivariance):
        assert "params" not in inspect.signature(fn).parameters, fn.__name__


INF, NAN = math.inf, math.nan


def _zeros(t_end):
    p = dyadic_cascade.ModelParams(alpha=1.0, f=0.5, branching=2, depth=3)
    return dyadic_cascade.integrate(dyadic_cascade.TreeState.zeros(p), t_end)


@pytest.mark.parametrize("call,args", [
    ("SolverOptions", {"rel_tol": INF}), ("SolverOptions", {"abs_tol": INF}),
    ("SolverOptions", {"rel_tol": NAN}), ("SolverOptions", {"initial_step": INF}),
    (_zeros, (INF,)), (_zeros, (NAN,)),
    ("inviscid_tree_profile", (1.0, 2.0, INF, 3)),
    ("inviscid_tree_profile", (1.0, 2.0, NAN, 3)),
    ("solve_viscous_stationary", (INF, 1.0, 1.0, 1.0)),
    ("solve_viscous_stationary", (1.0, INF, 1.0, 1.0)),
    ("solve_viscous_stationary", (1.0, 1.0, INF, 1.0)),
    ("solve_viscous_stationary", (1.0, 1.0, 1.0, INF)),
    ("solve_viscous_stationary", (1.0, 1.0, NAN, 1.0)),
    ("solve_selfsimilar_classic", (-1.0, INF, 10)),
    ("solve_selfsimilar_classic", (-1.0, NAN, 10)),
    ("solve_selfsimilar_classic", (-INF, 1.0, 10)),
    ("dissipation_time_bound", (INF, 1.0, 2.0, 1.0)),
    ("dissipation_time_bound", (0.1, INF, 2.0, 1.0)),
    ("dissipation_time_bound", (0.1, 1.0, INF, 1.0)),
    ("dissipation_time_bound", (0.1, 1.0, 2.0, -INF)),
    ("asymptotic_flux", (INF, 3.0, 1.0)), ("asymptotic_flux", (NAN, 3.0, 1.0)),
    ("asymptotic_flux", (1.0, INF, 1.0)), ("asymptotic_flux", (1.0, NAN, 1.0)),
    ("asymptotic_flux", (1.0, 3.0, INF)), ("asymptotic_flux", (1.0, 3.0, NAN)),
    ("LiftSpec", (0.5, INF)), ("LiftSpec", (0.5, NAN)),
], ids=lambda v: getattr(v, "__name__", None) or repr(v).replace(" ", ""))
def test_argument_checks_reject_infinities_and_nan(call, args):
    # every library argument check raises DomainError, the CLI's bad input,
    # for an infinite or NaN argument, before any work
    f = call if callable(call) else getattr(dyadic_cascade, call)
    with pytest.raises(errors.DomainError):
        f(**args) if isinstance(args, dict) else f(*args)


def test_an_unbounded_max_step_is_the_default():
    assert dyadic_cascade.SolverOptions().max_step == math.inf
    assert dyadic_cascade.SolverOptions(max_step=INF).max_step == math.inf
