"""Configuration ingestion, experiment orchestration and CSV/JSON emission.

Subcommands: simulate, stationary, selfsimilar, lift, dissipation-bound,
fit-spectrum.  All take --config <json> and --out <dir>.  Config parsing
rejects unknown fields with their path (a typo'd exponent name must not
silently invalidate an experiment).  Output files are byte-reproducible:
floats are written with repr (shortest round-trip decimal), LF endings,
UTF-8; identical config and seed give identical bytes (the kernel uses
fixed-order reductions).

Exit codes: 0 success; 1 bad input, any errors.DomainError (ConfigError,
StateFileError, SymmetryError, ParameterMismatch, DegenerateWindow,
CapacityExceeded, ...), reported as "config error:"; 2 numerical failure,
every other errors.CascadeError.  The library's own argument checks decide
what is bad input; this module adds only the checks of the JSON shape and
of rules the library has no twin for.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .core import ModelParams, TreeState, pow2
from .dynamics import (SolverOptions, balance_residual, dissipation_time_bound,
                       energy_report, held_values, integrate)
from .errors import (
    CapacityExceeded,
    CascadeError,
    ConfigError,
    DegenerateWindow,
    DomainError,
)
from .kernels import generation_energies
from .lift import LiftSpec, lift_state, project_params, project_state, scale_factor
from .selfsimilar import lift_selfsimilar, solve_selfsimilar_classic
from .stateio import dump_state, load_state
from .stationary import (
    REGIME_INVISCID,
    asymptotic_flux,
    inviscid_classic_profile,
    inviscid_tree_profile,
    solve_viscous_stationary,
)


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the IEEE double."""
    return repr(float(x))


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"missing required field {path}.{key}".lstrip("."))
    return d[key]


def _check_unknown(d: dict, allowed, path: str):
    for k in d:
        if k not in allowed:
            raise ConfigError(f"unknown field {path + '.' if path else ''}{k}")


def _number(v, path: str) -> float:
    """A finite JSON number as a float."""
    if not isinstance(v, bool) and isinstance(v, (int, float)):
        try:
            if math.isfinite(x := float(v)):
                return x
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"{path} must be a finite number, got {v!r}")


def _integer(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path} must be an integer, got {v!r}")
    return v


_INITIAL_KINDS = {
    "zero": (),
    "root_only": ("value",),
    "stationary_inviscid": (),
    "selfsimilar": ("t0",),
    "file": ("path",),
    "random_positive": ("seed", "scale"),
}


@dataclass(frozen=True)
class InitialSpec:
    kind: str
    value: float | None = None
    t0: float | None = None
    path: str | None = None
    seed: int | None = None
    scale: float | None = None

    @classmethod
    def from_dict(cls, d: dict, path: str = "initial") -> "InitialSpec":
        if not isinstance(d, dict):
            raise ConfigError(f"{path} must be an object")
        kind = _require(d, "kind", path)
        if kind not in _INITIAL_KINDS:
            raise ConfigError(f"{path}.kind: unknown kind {kind!r} "
                              f"(one of {sorted(_INITIAL_KINDS)})")
        _check_unknown(d, ("kind",) + _INITIAL_KINDS[kind], path)
        out = {"kind": kind}
        if kind == "root_only":
            out["value"] = _number(_require(d, "value", path), f"{path}.value")
        elif kind == "selfsimilar":
            out["t0"] = _number(_require(d, "t0", path), f"{path}.t0")
        elif kind == "file":
            p = _require(d, "path", path)
            if not isinstance(p, str):
                raise ConfigError(f"{path}.path must be a string")
            out["path"] = p
        elif kind == "random_positive":
            out["seed"] = _integer(_require(d, "seed", path), f"{path}.seed")
            scale = _number(_require(d, "scale", path), f"{path}.scale")
            # build_initial draws from this module's own generator: no
            # library call checks the scale
            if scale < 0:
                raise ConfigError(f"{path}.scale must be >= 0, got {scale!r}")
            out["scale"] = scale
        return cls(**out)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for k in _INITIAL_KINDS[self.kind]:
            d[k] = getattr(self, k)
        return d

    @property
    def generation_symmetric(self) -> bool:
        return self.kind in ("zero", "root_only", "stationary_inviscid", "selfsimilar")


_SOLVER_FIELDS = ("rel_tol", "abs_tol", "max_step", "initial_step",
                  "positivity_mode", "max_rejections")


def _solver_from_dict(d: dict, path: str = "solver") -> SolverOptions:
    if not isinstance(d, dict):
        raise ConfigError(f"{path} must be an object")
    _check_unknown(d, _SOLVER_FIELDS, path)
    kwargs = {}
    for k in ("rel_tol", "abs_tol", "max_step", "initial_step"):
        if k in d and d[k] is not None:
            kwargs[k] = _number(d[k], f"{path}.{k}")
    if "positivity_mode" in d:
        kwargs["positivity_mode"] = d["positivity_mode"]
    if "max_rejections" in d:
        kwargs["max_rejections"] = _integer(d["max_rejections"], f"{path}.max_rejections")
    return SolverOptions(**kwargs)


_PARAM_FIELDS = ("alpha", "gamma", "nu", "f", "branching", "depth")


def _params_from_dict(pd, model: str = "tree") -> ModelParams:
    """Parse the params block shared by simulate and fit-spectrum."""
    if not isinstance(pd, dict):
        raise ConfigError("params must be an object")
    _check_unknown(pd, _PARAM_FIELDS, "params")
    branching = _integer(pd.get("branching", 1 if model == "classic" else 2),
                         "params.branching")
    if model == "classic" and branching != 1:
        raise ConfigError("params.branching must be 1 for the classic model")
    return ModelParams(
        alpha=_number(_require(pd, "alpha", "params"), "params.alpha"),
        gamma=_number(pd.get("gamma", 1.0), "params.gamma"),
        nu=_number(pd.get("nu", 0.0), "params.nu"),
        f=_number(pd.get("f", 0.0), "params.f"),
        branching=branching,
        depth=_integer(_require(pd, "depth", "params"), "params.depth"),
    )


def _window(w, path: str) -> tuple[int, int] | None:
    if w is None:
        return None
    if not isinstance(w, (list, tuple)) or len(w) != 2:
        raise ConfigError(f"{path} must be [lo, hi]")
    return _integer(w[0], f"{path}[0]"), _integer(w[1], f"{path}[1]")


def _load_state(path, params: ModelParams, field_path: str):
    """load_state with an unreadable file reported as bad input."""
    try:
        return load_state(path, params)
    except OSError as e:
        raise ConfigError(f"{field_path}: {e}") from e


@dataclass(frozen=True)
class RunConfig:
    """Parsed simulate configuration."""

    model: str
    params: ModelParams
    initial: InitialSpec
    t_end: float
    output_interval: float
    mode: str = "full"
    solver: SolverOptions = field(default_factory=SolverOptions)
    fit_window: tuple[int, int] | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be an object")
        _check_unknown(d, ("model", "mode", "params", "initial", "t_end",
                           "output_interval", "solver", "fit_window"), "")
        model = _require(d, "model", "")
        if model not in ("tree", "classic"):
            raise ConfigError(f"model must be 'tree' or 'classic', got {model!r}")
        mode = d.get("mode", "full")
        if mode not in ("full", "symmetric"):
            raise ConfigError(f"mode must be 'full' or 'symmetric', got {mode!r}")
        if mode == "symmetric" and model != "tree":
            raise ConfigError("mode.symmetric only applies to the tree model")
        params = _params_from_dict(_require(d, "params", ""), model)
        initial = InitialSpec.from_dict(_require(d, "initial", ""))
        if mode == "symmetric" and not initial.generation_symmetric \
                and initial.kind != "file":
            raise ConfigError(
                f"initial.kind {initial.kind!r} is not generation-symmetric; "
                "symmetric mode requires a symmetric initial spec")
        t_end = _number(_require(d, "t_end", ""), "t_end")
        out_iv = _number(_require(d, "output_interval", ""), "output_interval")
        if out_iv <= 0:
            raise ConfigError("output_interval must be > 0")
        solver = _solver_from_dict(d.get("solver", {}))
        window = _window(d.get("fit_window"), "fit_window")
        return cls(model=model, mode=mode, params=params, initial=initial,
                   t_end=t_end, output_interval=out_iv, solver=solver,
                   fit_window=window)

    def to_dict(self) -> dict:
        p = self.params
        d = {
            "model": self.model,
            "mode": self.mode,
            "params": {"alpha": p.alpha, "gamma": p.gamma, "nu": p.nu, "f": p.f,
                       "branching": p.branching, "depth": p.depth},
            "initial": self.initial.to_dict(),
            "t_end": self.t_end,
            "output_interval": self.output_interval,
            "solver": {
                "rel_tol": self.solver.rel_tol,
                "abs_tol": self.solver.abs_tol,
                "max_step": self.solver.max_step if math.isfinite(self.solver.max_step) else None,
                "initial_step": self.solver.initial_step,
                "positivity_mode": self.solver.positivity_mode,
                "max_rejections": self.solver.max_rejections,
            },
        }
        if self.fit_window is not None:
            d["fit_window"] = list(self.fit_window)
        return d


def build_initial(config: RunConfig) -> TreeState:
    """Materialize the initial state for a full-mode run."""
    params = config.params
    spec = config.initial
    n = params.n_nodes
    if spec.kind == "zero":
        values = np.zeros(n)
    elif spec.kind == "root_only":
        values = np.zeros(n)
        values[0] = spec.value
    elif spec.kind == "stationary_inviscid":
        # the chain formula rounds differently from the tree one at N = 1
        if params.branching == 1:
            values = inviscid_classic_profile(params.f, params.alpha,
                                              params.depth, params.gamma).values
        else:
            values = inviscid_tree_profile(params.f, params.alpha,
                                           params.alpha_tilde, params.depth,
                                           params.gamma).values
    elif spec.kind == "selfsimilar":
        profile = solve_selfsimilar_classic(spec.t0, params.beta, params.depth)
        lifted = lift_selfsimilar(profile, params.alpha_tilde)
        offs = params.offsets
        values = np.empty(params.n_nodes)
        for g in range(params.depth + 1):
            values[offs[g]:offs[g + 1]] = lifted.a[g] / (0.0 - spec.t0)
    elif spec.kind == "file":
        values = _load_state(spec.path, params, "initial.path").values
        if not np.isfinite(values).all():
            raise ConfigError(f"initial.path: {spec.path} holds non-finite entries")
    elif spec.kind == "random_positive":
        # counter-based generator: full-mode and oracle reruns match exactly
        rng = np.random.Generator(np.random.Philox(spec.seed))
        values = rng.uniform(0.0, spec.scale, n)
    else:  # pragma: no cover
        raise ConfigError(f"unhandled initial kind {spec.kind}")
    return TreeState(values, params)


def _symmetric_classic_initial(config: RunConfig, classic_params: ModelParams,
                               spec: LiftSpec) -> TreeState:
    """Classic-side initial state of a symmetric-mode run, built without
    materializing the tree (except for file input, which must be checked
    for generation symmetry anyway)."""
    if config.initial.kind == "root_only":
        values = np.zeros(classic_params.depth + 1)
        values[0] = config.initial.value / scale_factor(spec, 0)
        return TreeState(values, classic_params)
    if config.initial.kind == "file":
        return project_state(build_initial(config))  # SymmetryError if asymmetric
    return build_initial(replace(config, params=classic_params))


@dataclass(frozen=True)
class FitResult:
    eta_hat: float
    residual: float


def fit_spectrum(state: TreeState, params: ModelParams | None = None,
                 window: tuple[int, int] | None = None) -> FitResult:
    """Least-squares decay exponent of the per-node RMS intensity.

    Fits log2(RMS per node at generation n) against n over the window
    (inclusive) and returns the negated slope with the max absolute fit
    residual.  RMS must be strictly positive across the window.
    """
    params = params or state.params
    per_gen = generation_energies(params, state.values)
    depth = len(per_gen) - 1
    lo, hi = window if window is not None else (0, depth)
    if not (0 <= lo < hi <= depth):
        raise DegenerateWindow(f"window [{lo}, {hi}] needs at least two "
                               f"generations inside 0..{depth}")
    gens = np.arange(lo, hi + 1)
    counts = np.array([float(params.branching) ** g for g in gens])
    rms = np.sqrt(per_gen[lo:hi + 1] / counts)
    if not (rms > 0).all():
        raise DegenerateWindow("per-node RMS must be strictly positive "
                               "across the fit window")
    logs = np.log2(rms)
    slope, intercept = np.polyfit(gens, logs, 1)
    fit = slope * gens + intercept
    return FitResult(eta_hat=float(-slope), residual=float(np.max(np.abs(fit - logs))))


def _write_text(path, text: str):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def run_simulate(config: RunConfig, out_dir, dump_times=()):
    """Integrate per config and emit trajectory.csv + summary.json.

    Returns the trajectory (full mode) or the classic-side trajectory
    (symmetric mode)."""
    for t in dump_times:
        if not 0.0 <= t <= config.t_end:
            raise ConfigError(f"--dump-state {t!r} is outside the run "
                              f"[0, {config.t_end!r}]")
    params = run_params = config.params
    scale = 1.0
    if config.mode == "symmetric":
        # evolve the classic system the lifted dynamics projects onto;
        # tree-equivalent energies/fluxes are the classic ones times 2^{-4at}
        spec = LiftSpec.for_branching(params.branching, params.beta)
        run_params = project_params(params)
        scale = pow2(-4.0 * spec.alpha_tilde)
    n_out = config.t_end / config.output_interval
    held = held_values(run_params, n_out, len(dump_times))
    if held > params.max_nodes:
        raise CapacityExceeded(f"the run would hold {held:.3g} values, over "
                               f"the budget of {params.max_nodes}")
    outputs = [i * config.output_interval for i in range(1, int(round(n_out)) + 1)]

    initial = (_symmetric_classic_initial(config, run_params, spec)
               if config.mode == "symmetric" else build_initial(config))
    traj = integrate(initial, run_params, config.t_end, config.solver,
                     output_times=outputs, keep=dump_times)

    depth = run_params.depth
    header = (["t", "E_total"] + [f"E_{n}" for n in range(depth + 1)]
              + [f"flux_{n}" for n in range(depth)] + ["residual"])
    lines = [",".join(header)]
    for i, t in enumerate(traj.times):
        cumulative = np.cumsum(traj.energies[i])
        resid = 0.0 if i == 0 else balance_residual(traj, traj.times[0], t)
        row = ([t, scale * cumulative[-1]]
               + [scale * v for v in cumulative]
               + [scale * v for v in traj.fluxes[i]]
               + [scale * resid])
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(os.path.join(out_dir, "trajectory.csv"), "\n".join(lines) + "\n")

    for t in dump_times:
        dump_state(traj.state_at(float(t)),
                   os.path.join(out_dir, f"state_t{_fmt(float(t))}.bin"))

    try:
        window = config.fit_window
        fitted = fit_spectrum(traj.final, run_params, window).eta_hat
    except DegenerateWindow:
        fitted = None
    summary = {
        "config": config.to_dict(),
        "summary": {
            "final_energy": scale * energy_report(traj.final, run_params).total,
            "fitted_decay_exponent": fitted,
            "max_positivity_violation": max(0.0, -float(traj.min_value.min())),
            "n_accepted": traj.n_accepted,
            "n_rejected": traj.n_rejected,
            "n_rejected_by_cause": traj.rejected,
            "n_stiffness_tests": traj.n_stiffness_tests,
            "n_rhs_evals": traj.n_rhs,
            "h_min": traj.h_min,
            "h_max": traj.h_max,
            "n_flattened": traj.n_flattened,
            "stiff_from": traj.stiff_from,
        },
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return traj


_STATIONARY_FIELDS = ("f", "nu", "beta", "gamma", "n_max")


def run_stationary(cfg: dict, out_dir):
    """Solve the classic stationary profile and emit profile.csv (n,Z_n,Y_n)
    plus regime.json.  regime.json's asymptotic_flux is c_{n+1} Y_n^2
    Y_{n+1} in the limit, half of what boundary_fluxes and the flux_n
    columns of simulate's trajectory.csv report."""
    _check_unknown(cfg, _STATIONARY_FIELDS, "")
    f = _number(_require(cfg, "f", ""), "f")
    nu = _number(_require(cfg, "nu", ""), "nu")
    beta = _number(_require(cfg, "beta", ""), "beta")
    gamma = _number(cfg.get("gamma", 1.0), "gamma")
    n_max = _integer(cfg.get("n_max", 60), "n_max")

    if nu == 0.0:
        state = inviscid_classic_profile(f, beta, n_max, gamma)
        y = state.values
        # nu-free rescaling 2^{beta(n+2)/3} Y_n, constant across shells
        z = np.array([pow2(beta * (n + 2) / 3.0) * y[n] for n in range(n_max + 1)])
        regime = {
            "regime": REGIME_INVISCID, "mu": gamma - 2 * beta / 3, "g": None,
            "threshold": None, "z_limit": None, "asymptotic_flux": None,
            "z0": float(z[0]),
        }
        rows = [(n, z[n], y[n]) for n in range(n_max + 1)]
    else:
        profile = solve_viscous_stationary(f, nu, beta, gamma, n_max=n_max)
        info = profile.regime_info
        flux = asymptotic_flux(profile.z_limit, beta, nu) if profile.z_limit else None
        regime = {
            "regime": profile.regime, "mu": profile.mu, "g": profile.g,
            "threshold": info.threshold, "z_limit": profile.z_limit,
            "asymptotic_flux": flux, "z0": float(profile.z[1]),
            "bracket": list(profile.bracket),
            "newton_iterations": profile.newton_iterations,
            "newton_residual": profile.newton_residual,
        }
        rows = [(n, profile.z[n + 1], profile.y[n]) for n in range(n_max + 1)]

    lines = ["n,Z_n,Y_n"] + [f"{n},{_fmt(z)},{_fmt(y)}" for n, z, y in rows]
    _write_text(os.path.join(out_dir, "profile.csv"), "\n".join(lines) + "\n")
    _write_json(os.path.join(out_dir, "regime.json"), regime)
    return regime


_SELFSIMILAR_FIELDS = ("t0", "beta", "n_max", "alpha_tilde", "n0")


def run_selfsimilar(cfg: dict, out_dir):
    _check_unknown(cfg, _SELFSIMILAR_FIELDS, "")
    t0 = _number(_require(cfg, "t0", ""), "t0")
    beta = _number(_require(cfg, "beta", ""), "beta")
    n_max = _integer(cfg.get("n_max", 25), "n_max")
    n0 = _integer(cfg.get("n0", 0), "n0")
    alpha_tilde = cfg.get("alpha_tilde")
    if alpha_tilde is not None:
        alpha_tilde = _number(alpha_tilde, "alpha_tilde")

    profile = solve_selfsimilar_classic(t0, beta, n_max, n0=n0)
    if alpha_tilde is not None:
        profile = lift_selfsimilar(profile, alpha_tilde)
        header = "n,b_n,a_n"
        rows = [f"{n},{_fmt(profile.b[n])},{_fmt(profile.a[n])}"
                for n in range(n_max + 1)]
    else:
        header = "n,b_n"
        rows = [f"{n},{_fmt(profile.b[n])}" for n in range(n_max + 1)]
    _write_text(os.path.join(out_dir, "selfsimilar.csv"),
                "\n".join([header] + rows) + "\n")
    nz = profile.n0
    summary = {
        "t0": profile.t0, "beta": profile.beta, "n0": nz,
        "b_first_nonzero": float(profile.b[nz]),
        "w_limit": profile.w_limit,
        "bracket": list(profile.bracket),
        "newton_iterations": profile.newton_iterations,
        "newton_residual": profile.newton_residual,
        "tail_ratio": float(profile.b[n_max] / profile.b[n_max - 1]),
    }
    _write_json(os.path.join(out_dir, "selfsimilar.json"), summary)
    return summary


_LIFT_FIELDS = ("alpha_tilde", "beta", "depth", "gamma", "nu", "f",
                "classic_values", "classic_file")


def run_lift(cfg: dict, out_dir):
    """Lift a classic state onto the tree; emits per-generation lift.csv and
    lift.json with the energy identities."""
    _check_unknown(cfg, _LIFT_FIELDS, "")
    beta = _number(_require(cfg, "beta", ""), "beta")
    # LiftSpec first, so that a bad beta is reported as beta, not as the
    # classic alpha
    spec = LiftSpec(alpha_tilde=_number(_require(cfg, "alpha_tilde", ""), "alpha_tilde"),
                    beta=beta)
    depth = _integer(_require(cfg, "depth", ""), "depth")
    classic_params = ModelParams(
        alpha=beta, gamma=_number(cfg.get("gamma", 1.0), "gamma"),
        nu=_number(cfg.get("nu", 0.0), "nu"), f=_number(cfg.get("f", 0.0), "f"),
        branching=1, depth=depth)
    if "classic_values" in cfg:
        vals = cfg["classic_values"]
        if not isinstance(vals, list) or len(vals) != depth + 1:
            raise ConfigError(f"classic_values must hold {depth + 1} shells")
        y = TreeState([_number(v, f"classic_values[{i}]") for i, v in enumerate(vals)],
                      classic_params)
    elif "classic_file" in cfg:
        y = _load_state(cfg["classic_file"], classic_params, "classic_file")
    else:
        raise ConfigError("one of classic_values/classic_file is required")

    x = lift_state(y, spec)
    lines = ["generation,classic_value,tree_value,generation_energy"]
    per_gen = generation_energies(x.params, x.values)
    for g in range(depth + 1):
        lines.append(f"{g},{_fmt(y.values[g])},{_fmt(x.generation_slice(g)[0])},"
                     f"{_fmt(per_gen[g])}")
    _write_text(os.path.join(out_dir, "lift.csv"), "\n".join(lines) + "\n")
    summary = {
        "alpha": spec.alpha, "branching": spec.branching,
        "f_tree": x.params.f,
        "classic_norm_sq": float(np.add.reduce(np.square(y.values))),
        "tree_norm_sq": float(np.add.reduce(per_gen)),
        "norm_ratio_expected": pow2(-4 * spec.alpha_tilde),
    }
    _write_json(os.path.join(out_dir, "lift.json"), summary)
    return summary


_DISSIPATION_FIELDS = ("epsilon", "eta", "alpha", "alpha_tilde")


def run_dissipation_bound(cfg: dict, out_dir):
    _check_unknown(cfg, _DISSIPATION_FIELDS, "")
    eps = _number(_require(cfg, "epsilon", ""), "epsilon")
    eta = _number(_require(cfg, "eta", ""), "eta")
    alpha = _number(_require(cfg, "alpha", ""), "alpha")
    alpha_tilde = _number(_require(cfg, "alpha_tilde", ""), "alpha_tilde")
    t_bound = dissipation_time_bound(eps, eta, alpha, alpha_tilde)
    out = {"epsilon": eps, "eta": eta, "alpha": alpha,
           "alpha_tilde": alpha_tilde, "T": t_bound}
    _write_json(os.path.join(out_dir, "dissipation_bound.json"), out)
    return out


_FIT_FIELDS = ("params", "state_file", "window")


def run_fit_spectrum(cfg: dict, out_dir):
    _check_unknown(cfg, _FIT_FIELDS, "")
    params = _params_from_dict(_require(cfg, "params", ""))
    window = _window(cfg.get("window"), "window")
    state = _load_state(_require(cfg, "state_file", ""), params, "state_file")
    fit = fit_spectrum(state, params, window)
    out = {"eta_hat": fit.eta_hat, "residual": fit.residual}
    _write_json(os.path.join(out_dir, "fit_spectrum.json"), out)
    return out


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from e
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError, digit limit
        raise ConfigError(f"config is not valid JSON: {e}") from e
    except RecursionError as e:
        raise ConfigError("config nests too deeply to parse") from e


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built by the first main call, not at import."""
    parser = argparse.ArgumentParser(
        prog="dyadic-cascade",
        description="Tree/classic dyadic cascade simulator and solvers")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "stationary", "selfsimilar", "lift",
                 "dissipation-bound", "fit-spectrum"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        if name == "simulate":
            p.add_argument("--dump-state", type=float, action="append",
                           default=[], metavar="T",
                           help="write a binary node-level snapshot at time T")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = _load_config(args.config)
        if args.command == "simulate":
            run_simulate(RunConfig.from_dict(cfg), args.out,
                         dump_times=args.dump_state)
        elif args.command == "stationary":
            run_stationary(cfg, args.out)
        elif args.command == "selfsimilar":
            run_selfsimilar(cfg, args.out)
        elif args.command == "lift":
            run_lift(cfg, args.out)
        elif args.command == "dissipation-bound":
            run_dissipation_bound(cfg, args.out)
        elif args.command == "fit-spectrum":
            run_fit_spectrum(cfg, args.out)
    except DomainError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except CascadeError as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
