"""Workloads of the benchmark and the checks on their outputs.

A workload is a list of CLI calls; one job runs all of them once, back to
back.  Every call carries a check that re-derives one of the paper's
identities from the files the CLI wrote, independently of the library, and
returns the problems it found plus a few facts (step counts, bytes written)
that the per-layer metrics use.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: balance residual allowed, relative to the largest total energy of the run
RESIDUAL_RTOL = 1e-5
#: final energy of chain_stiff allowed off its reference, relative
ENERGY_RTOL = 1e-5
#: defect allowed in the shooting recurrences, relative to their largest term
RECURRENCE_RTOL = 1e-9
#: a head step of the stationary recurrence is well conditioned while its
#: result keeps at least this share of the larger of its two terms
HEAD_MIN_SHARE = 1e-6
#: bytes of the stateio snapshot header
DUMP_HEADER = 16

WORKLOADS = ("tree_binary", "tree_wide", "chain_stiff", "shooting")

#: final energies of the deterministic chain_stiff run, full and tiny
CHAIN_REFERENCE = {False: 2.9211759094289915, True: 2.9231114247411334}


@dataclass
class Call:
    case: str
    command: str
    config: dict
    out: Path
    check: object  # check(call) -> (problems: list[str], facts: dict)
    extra: list = field(default_factory=list)
    expect: dict = field(default_factory=dict)

    @property
    def config_path(self) -> Path:
        return self.out.parent / f"{self.case}.json"

    @property
    def argv(self) -> list:
        return [self.command, "--config", str(self.config_path),
                "--out", str(self.out)] + self.extra


@dataclass
class Workload:
    name: str
    calls: list
    nodes: int            # state length of the simulated model (0: none)
    seed_used: bool
    probe: tuple          # probe.PARTS that match the work of one job

    def write_configs(self) -> None:
        for call in self.calls:
            call.config_path.parent.mkdir(parents=True, exist_ok=True)
            call.config_path.write_text(json.dumps(call.config, indent=1) + "\n")

    def clear_outputs(self) -> None:
        for call in self.calls:
            shutil.rmtree(call.out, ignore_errors=True)


def _tree_nodes(branching: int, depth: int) -> int:
    return (branching ** (depth + 1) - 1) // (branching - 1)


def _simulate(model, params, initial, t_end, outputs=100):
    return {"model": model, "params": params, "initial": initial,
            "t_end": t_end, "output_interval": t_end / outputs}


def build(name: str, seed: int, work_dir, tiny: bool = False) -> Workload:
    """Calls of one workload.  The seed only reaches random initial states;
    tiny=True gives a seconds-long version through the same code path."""
    work_dir = Path(work_dir)
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (one of {WORKLOADS})")
    random_initial = {"kind": "random_positive", "seed": seed, "scale": 0.01}
    if name == "tree_binary":
        depth = 4 if tiny else 15
        cfg = _simulate("tree", {"alpha": 1.0, "gamma": 1.0, "nu": 1e-3, "f": 1.0,
                                 "branching": 2, "depth": depth},
                        random_initial, 0.1 if tiny else 1.5)
        call = Call("simulate", "simulate", cfg, work_dir / "simulate", check_simulate)
        # numpy-bound like tree_wide: a numpy probe steadied some sets of runs
        # and unsteadied others, so it was left out
        return Workload(name, [call], _tree_nodes(2, depth), True, ())
    if name == "tree_wide":
        depth = 2 if tiny else 6
        t_end = 0.01 if tiny else 0.05
        cfg = _simulate("tree", {"alpha": 2.0, "gamma": 1.0, "nu": 1e-3, "f": 1.0,
                                 "branching": 8, "depth": depth},
                        random_initial, t_end)
        dumps = [t_end / 2, t_end]
        extra = [a for t in dumps for a in ("--dump-state", repr(t))]
        call = Call("simulate", "simulate", cfg, work_dir / "simulate",
                    check_simulate, extra, {"dumps": dumps})
        # memory-bound numpy beyond L2: the host drift barely reaches it, and
        # every probe tried added more noise than it took away
        return Workload(name, [call], _tree_nodes(8, depth), True, ())
    if name == "chain_stiff":
        depth = 4 if tiny else 18
        cfg = _simulate("classic", {"alpha": 1.0, "gamma": 1.0, "nu": 0.0, "f": 1.0,
                                    "depth": depth},
                        {"kind": "root_only", "value": 1.0}, 1.0)
        call = Call("simulate", "simulate", cfg, work_dir / "simulate",
                    check_simulate, expect={"final_energy": CHAIN_REFERENCE[tiny]})
        return Workload(name, [call], depth + 1, False, ("interpreter", "numpy"))
    small, large = (8, 12) if tiny else (60, 120)
    calls = []
    for regime, (f, nu, beta), expected in (
            ("regular", (1.0, 1.0, 1.0), "ViscousRegular"),
            ("anomalous", (10.0, 0.01, 3.0), "ViscousAnomalous")):
        for n_max, size in ((small, 60), (large, 120)):
            case = f"{regime}_{size}"
            cfg = {"f": f, "nu": nu, "beta": beta, "gamma": 1.0, "n_max": n_max}
            calls.append(Call(case, "stationary", cfg, work_dir / case,
                              check_stationary, expect={"regime": expected}))
    for n_max, size in ((small, 60), (large, 120)):
        case = f"n{size}"
        cfg = {"t0": -1.0, "beta": 1.0, "alpha_tilde": 0.5, "n_max": n_max}
        calls.append(Call(case, "selfsimilar", cfg, work_dir / case,
                          check_selfsimilar))
    return Workload(name, calls, 0, False, ("interpreter", "mpmath"))


def _read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def _bytes_written(call: Call) -> int:
    return sum(p.stat().st_size for p in call.out.iterdir())


def check_simulate(call: Call):
    """Finite CSV, no positivity violation, energy balance closed, dumps
    consistent with the CSV, and the final energy against its reference."""
    problems = []
    header, rows = _read_csv(call.out / "trajectory.csv")
    summary = json.loads((call.out / "summary.json").read_text())["summary"]
    if not rows or not all(math.isfinite(v) for row in rows for v in row):
        problems.append("trajectory.csv is empty or holds a non-finite value")
    if summary["max_positivity_violation"] != 0.0:
        problems.append(f"positivity violated by {summary['max_positivity_violation']}")
    col_t, col_e, col_r = (header.index(c) for c in ("t", "E_total", "residual"))
    scale = max(abs(row[col_e]) for row in rows)
    worst = max(abs(row[col_r]) for row in rows)
    if not worst <= RESIDUAL_RTOL * scale:
        problems.append(f"energy balance residual {worst:.3e} above "
                        f"{RESIDUAL_RTOL} x {scale:.3e}")
    ref = call.expect.get("final_energy")
    if ref is not None and not abs(summary["final_energy"] - ref) <= ENERGY_RTOL * abs(ref):
        problems.append(f"final energy {summary['final_energy']!r} off reference {ref!r}")
    dump_bytes = 0
    for t in call.expect.get("dumps", ()):
        path = call.out / f"state_t{float(t)!r}.bin"
        raw = path.read_bytes()
        dump_bytes += len(raw)
        values = np.frombuffer(raw, dtype="<f8", offset=DUMP_HEADER)
        energy = math.fsum(np.square(values))
        row = min(rows, key=lambda r: abs(r[col_t] - t))
        if not abs(energy - row[col_e]) <= 1e-12 * abs(row[col_e]):
            problems.append(f"{path.name}: energy {energy!r} differs from "
                            f"E_total {row[col_e]!r} at t = {row[col_t]!r}")
    facts = {
        "outputs": len(rows),
        "steps_accepted": summary["n_accepted"],
        "steps_rejected": summary["n_rejected"],
        "write_bytes": _bytes_written(call) - dump_bytes,
        "dump_bytes": dump_bytes,
    }
    return problems, facts


def check_stationary(call: Call):
    """Regime as expected, and Z_{n+1} = Z_{n-1}^2 / Z_n - 2^{mu n} on the
    well-conditioned head of profile.csv (Z_{-1} = g)."""
    problems = []
    regime = json.loads((call.out / "regime.json").read_text())
    if regime["regime"] != call.expect["regime"]:
        problems.append(f"regime {regime['regime']!r}, expected {call.expect['regime']!r}")
    _, rows = _read_csv(call.out / "profile.csv")
    z = [regime["g"]] + [row[1] for row in rows]  # z[i] = Z_{i-1}
    checked = 0
    for n in range(len(z) - 2):
        if not (z[n] > 0 and z[n + 1] > 0):
            break
        gain, loss = z[n] ** 2 / z[n + 1], 2.0 ** (regime["mu"] * n)
        largest = max(gain, loss)
        if not z[n + 2] >= HEAD_MIN_SHARE * largest:
            break
        if not abs(z[n + 2] - (gain - loss)) <= RECURRENCE_RTOL * largest:
            problems.append(f"stationary recurrence fails at n = {n}")
            break
        checked += 1
    if checked < 3:
        problems.append(f"well-conditioned head holds only {checked} steps")
    return problems, {"write_bytes": _bytes_written(call)}


def check_selfsimilar(call: Call):
    """-b_n = 2^{beta n} b_{n-1}^2 - 2^{beta(n+1)} b_n b_{n+1}, b_{-1} = 0,
    on every row of selfsimilar.csv."""
    problems = []
    beta = call.config["beta"]
    _, rows = _read_csv(call.out / "selfsimilar.csv")
    b = [row[1] for row in rows]
    if len(b) != call.config["n_max"] + 1 or not all(v > 0 for v in b):
        problems.append("selfsimilar.csv does not hold n_max + 1 positive b_n")
        return problems, {"write_bytes": _bytes_written(call)}
    for n in range(len(b) - 1):
        prev = b[n - 1] if n > 0 else 0.0
        gain = 2.0 ** (beta * n) * prev ** 2
        loss = 2.0 ** (beta * (n + 1)) * b[n] * b[n + 1]
        if not abs(-b[n] - (gain - loss)) <= RECURRENCE_RTOL * max(b[n], gain, loss):
            problems.append(f"self-similar recurrence fails at n = {n}")
            break
    return problems, {"write_bytes": _bytes_written(call)}
