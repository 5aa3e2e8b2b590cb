"""Configuration ingestion, experiment orchestration and CSV/JSON emission.

Subcommands: simulate, stationary, selfsimilar, lift, dissipation-bound,
fit-spectrum.  All take --config <json> and --out <dir>; an --out that is
empty or names an existing file is bad input, rejected before any work.
Each command reads its config through one table of fields, each with its
kind and its default; simulate's initial block is a table keyed by its
kind.  The table rejects unknown and missing fields by their path (a
typo'd exponent name must not silently invalidate an experiment) and
echoes simulate's config into summary.json.  Short checks after the parse
keep the rules the library has no twin for: model, mode and branching,
output_interval > 0, the classic_values length and one lift source, the
random_positive scale, symmetric-mode initial kinds and finite state-file
entries.  Output files are byte-reproducible: floats are written with repr
(shortest round-trip decimal), LF endings, UTF-8; identical config and seed
give identical bytes (the kernel uses fixed-order reductions).

simulate --dump-state T writes state_tT.bin, with T as given, the state at
the row T names.  T goes to integrate's keep as it is, so it must name a
row the run records anyway (0, an output time or t_end, up to rounding);
integrate rejects any other T as bad input before the run, and a dump adds
no row.  integrate hands the state over at that row, and it is written
then, with no copy, to state_tT.bin.tmp in --out; the file takes its name
once trajectory.csv is written, before summary.json.  A run that fails
before that leaves no dump, and no directory made only for the dumps: like
a run without the flag, a run that fails in integrate or at trajectory.csv
leaves no output directory it made.  A run that fails at summary.json
leaves trajectory.csv and the dumps.

Exit codes: 0 success; 1 bad input, any errors.DomainError (ConfigError,
StateFileError, SymmetryError, ParameterMismatch, DegenerateWindow,
CapacityExceeded, ...), reported as "config error:"; 2 numerical failure,
every other errors.CascadeError, among them NonFiniteResult for a NaN or an
infinity bound for an output file, which is then not written.  The
library's own argument checks decide what is bad input; this module adds
only the checks of the JSON shape and of rules the library has no twin for.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .core import ModelParams, TreeState, pow2
from .dynamics import (SolverOptions, balance_residual, check_capacity,
                       dissipation_time_bound, energy_report, integrate)
from .errors import (
    CascadeError,
    ConfigError,
    DegenerateWindow,
    DomainError,
    NonFiniteResult,
)
from .kernels import generation_energies
from .lift import LiftSpec, lift_state, project_params, project_state, scale_factor
from .selfsimilar import lift_selfsimilar, solve_selfsimilar_classic
from .stateio import dump_state, load_state
from .stationary import (
    _CERT_DPS,
    _CERT_LEVELS,
    REGIME_INVISCID,
    asymptotic_flux,
    inviscid_classic_profile,
    inviscid_tree_profile,
    solve_viscous_stationary,
)


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the IEEE double."""
    return repr(float(x))


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


def _path(v, path: str) -> str:
    """A file name; never a number, which open() would take for a descriptor."""
    if not isinstance(v, str):
        raise ConfigError(f"{path} must be a string, got {v!r}")
    return v


def _window(v, path: str) -> tuple[int, int]:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ConfigError(f"{path} must be [lo, hi]")
    return _integer(v[0], f"{path}[0]"), _integer(v[1], f"{path}[1]")


def _numbers(v, path: str) -> list[float]:
    if not isinstance(v, list):
        raise ConfigError(f"{path} must be a list of numbers")
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _one_of(*values):
    def kind(v, path: str):
        if v not in values:
            raise ConfigError(
                f"{path} must be one of {', '.join(map(repr, values))}, got {v!r}")
        return v
    return kind


#: the default of a field that must be given
_REQUIRED = object()


class _Table:
    """The fields of a JSON object, itself the kind of a nested object.

    Each keyword names a field and gives (kind, default): kind(value, path)
    converts a value or raises ConfigError.  An absent or null field takes
    its default, converted like a given value; None leaves it unset, at the
    library's default.  Calling the table on an object returns a namespace
    of every field's value.
    """

    def __init__(self, **rows):
        self.rows = rows

    def __call__(self, d, path: str = "") -> argparse.Namespace:
        if not isinstance(d, dict):
            raise ConfigError(f"{path or 'config'} must be an object")
        prefix = f"{path}." if path else ""
        for name in d:
            if name not in self.rows:
                raise ConfigError(f"unknown field {prefix}{name}")
        values = argparse.Namespace()
        for name, (kind, default) in self.rows.items():
            v = d.get(name)
            if v is None:
                if default is _REQUIRED:
                    raise ConfigError(f"missing required field {prefix}{name}")
                v = default
            setattr(values, name, None if v is None else kind(v, prefix + name))
        return values

    def echo(self, obj) -> dict:
        """The config that obj was built from, every default filled in:
        obj's value of each field, a nested object echoed by its own table.
        An unset window is left out, and an infinite number, which only
        SolverOptions' unbounded max_step holds, is written null."""
        d = {}
        for name, (kind, _) in self.rows.items():
            v = getattr(obj, name)
            if isinstance(kind, (_Table, _Keyed)):
                v = kind.echo(v)
            elif v == math.inf:
                v = None
            elif v is None and kind is _window:
                continue
            d[name] = v
        return d


class _Keyed:
    """A JSON object whose field kind, one of the keywords, names the table
    of its other fields."""

    def __init__(self, **tables: _Table):
        kind = (_one_of(*tables), _REQUIRED)
        self.kind = _Table(kind=kind)
        self.tables = {name: _Table(kind=kind, **table.rows)
                       for name, table in tables.items()}

    def __call__(self, d, path: str) -> argparse.Namespace:
        head = {"kind": d.get("kind")} if isinstance(d, dict) else d
        return self.tables[self.kind(head, path).kind](d, path)

    def echo(self, obj) -> dict:
        return self.tables[obj.kind].echo(obj)


def _build(cls, values: argparse.Namespace):
    """cls of the parsed values, the unset ones left at cls's defaults."""
    return cls(**{k: v for k, v in vars(values).items() if v is not None})


_INITIAL = _Keyed(
    zero=_Table(),
    root_only=_Table(value=(_number, _REQUIRED)),
    stationary_inviscid=_Table(),
    selfsimilar=_Table(t0=(_number, _REQUIRED)),
    file=_Table(path=(_path, _REQUIRED)),
    random_positive=_Table(seed=(_integer, _REQUIRED), scale=(_number, _REQUIRED)),
)

#: the model's own block of simulate and fit-spectrum; an unset branching
#: is the model's, 1 for the classic model and 2 for the tree
_PARAMS = _Table(alpha=(_number, _REQUIRED), gamma=(_number, None), nu=(_number, None),
                 f=(_number, None), branching=(_integer, None),
                 depth=(_integer, _REQUIRED))

_SIMULATE = _Table(
    model=(_one_of("tree", "classic"), _REQUIRED),
    mode=(_one_of("full", "symmetric"), "full"),
    params=(_PARAMS, _REQUIRED),
    initial=(_INITIAL, _REQUIRED),
    t_end=(_number, _REQUIRED),
    output_interval=(_number, _REQUIRED),
    solver=(_Table(rel_tol=(_number, None), abs_tol=(_number, None),
                   max_step=(_number, None), initial_step=(_number, None),
                   max_rejections=(_integer, None)), {}),
    fit_window=(_window, None),
)


@dataclass(frozen=True)
class InitialSpec:
    kind: str
    value: float | None = None
    t0: float | None = None
    path: str | None = None
    seed: int | None = None
    scale: float | None = None

    def __post_init__(self):
        # build_initial draws from this module's own generator: no library
        # call checks the scale
        if self.kind == "random_positive" and self.scale < 0:
            raise ConfigError(f"initial.scale must be >= 0, got {self.scale!r}")

    @classmethod
    def from_dict(cls, d: dict, path: str = "initial") -> "InitialSpec":
        return cls(**vars(_INITIAL(d, path)))

    @property
    def generation_symmetric(self) -> bool:
        return self.kind in ("zero", "root_only", "stationary_inviscid", "selfsimilar")


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
        c = _SIMULATE(d)
        if c.mode == "symmetric" and c.model != "tree":
            raise ConfigError("mode.symmetric only applies to the tree model")
        if c.model == "classic":
            if c.params.branching not in (None, 1):
                raise ConfigError("params.branching must be 1 for the classic model")
            c.params.branching = 1
        if c.output_interval <= 0:
            raise ConfigError("output_interval must be > 0")
        c.initial = InitialSpec(**vars(c.initial))
        if c.mode == "symmetric" and not c.initial.generation_symmetric \
                and c.initial.kind != "file":
            raise ConfigError(
                f"initial.kind {c.initial.kind!r} is not generation-symmetric; "
                "symmetric mode requires a symmetric initial spec")
        c.params = _build(ModelParams, c.params)
        c.solver = _build(SolverOptions, c.solver)
        return cls(**vars(c))

    def to_dict(self) -> dict:
        """The config echoed in summary.json."""
        return _SIMULATE.echo(self)


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


def fit_spectrum(state: TreeState, window: tuple[int, int] | None = None) -> FitResult:
    """Least-squares decay exponent of the per-node RMS intensity.

    Fits log2(RMS per node at generation n) against n over the window
    (inclusive) and returns the negated slope with the max absolute fit
    residual.  RMS must be strictly positive across the window.
    """
    params = state.params
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


def _write_csv(path, header: list[str], lines: list[str]) -> None:
    """Write a table whose rows are formatted with _fmt.  A row holding nan
    or inf, the reprs of the non-finite floats, raises NonFiniteResult
    naming the file, the column and the row (counted from 1 below the
    header), and the file is not written.  The check scans the text, which
    costs far less than testing each value before it is formatted."""
    for i, line in enumerate(lines, 1):
        if "nan" in line or "inf" in line:
            cells = line.split(",")
            j = next(j for j, c in enumerate(cells) if c in ("nan", "inf", "-inf"))
            raise NonFiniteResult(f"{path}: {header[j]} is {cells[j]} in row {i}")
    _write_text(path, "\n".join([",".join(header)] + lines) + "\n")


def _write_json(path, obj):
    """Write obj as JSON.  A NaN or an infinity, which JSON cannot hold,
    raises NonFiniteResult naming the file and the field, and the file is
    not written."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        found = _non_finite_field(obj)
        if found is None:
            raise
        raise NonFiniteResult(f"{path}: {found[0]} is {_fmt(found[1])}") from None
    _write_text(path, text + "\n")


def _non_finite_field(obj, where: str = ""):
    """(field path, value) of the first NaN or infinity in obj, a tree of
    dicts, lists and scalars, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (where, obj)
    if isinstance(obj, dict):
        items = ((f"{where}.{k}".lstrip("."), v) for k, v in obj.items())
    elif isinstance(obj, list):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for w, v in items:
        if found := _non_finite_field(v, w):
            return found
    return None


class _StateDumps:
    """The --dump-state files of one simulate run.  keep, integrate's keep,
    maps each dump time T to a callable that writes the state integrate
    hands it at the row T names through dump_state, with no copy, to a
    temporary file state_tT.bin.tmp in out_dir, made if missing.  integrate
    rejects a T that names no row.  publish gives the files their names;
    discard removes what publish has not renamed, and the directories made
    for it, so that a failing run leaves the files it would leave without
    the flag."""

    def __init__(self, out_dir, params: ModelParams, times):
        self.out_dir, self.params = out_dir, params
        self.keep = {t: functools.partial(self._write, f"state_t{_fmt(t)}.bin")
                     for t in map(float, times)}
        self.staged = []  # (temporary, final) paths
        self.made = []    # directories made for them, deepest first

    def _write(self, name, t_row, values):
        if not self.staged:
            d = os.path.abspath(self.out_dir)
            while not os.path.isdir(d):
                self.made.append(d)
                d = os.path.dirname(d)
            os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        self.staged.append((path + ".tmp", path))
        dump_state(values, self.params, path + ".tmp")

    def publish(self):
        for temporary, path in self.staged:
            os.replace(temporary, path)
        self.staged, self.made = [], []

    def discard(self):
        for temporary, _ in self.staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temporary)
        for d in self.made:
            with contextlib.suppress(OSError):
                os.rmdir(d)


def run_simulate(config: RunConfig, out_dir, dump_times=()):
    """Integrate per config and emit trajectory.csv + summary.json, and a
    state file per dump time.

    Returns the trajectory (full mode) or the classic-side trajectory
    (symmetric mode)."""
    params = run_params = config.params
    scale = 1.0
    if config.mode == "symmetric":
        # evolve the classic system the lifted dynamics projects onto;
        # tree-equivalent energies/fluxes are the classic ones times 2^{-4at}
        spec = LiftSpec.for_branching(params.branching, params.beta)
        run_params = project_params(params)
        scale = pow2(-4.0 * spec.alpha_tilde)
    n_out = config.t_end / config.output_interval
    check_capacity(run_params, n_out)
    outputs = [i * config.output_interval for i in range(1, int(round(n_out)) + 1)]
    dumps = _StateDumps(out_dir, run_params, dump_times)

    try:
        # integrate gets the only reference to the initial state, so the
        # state is freed once integrate has copied it
        traj = integrate(_symmetric_classic_initial(config, run_params, spec)
                         if config.mode == "symmetric" else build_initial(config),
                         config.t_end, config.solver, output_times=outputs,
                         keep=dumps.keep)

        depth = run_params.depth
        header = (["t", "E_total"] + [f"E_{n}" for n in range(depth + 1)]
                  + [f"flux_{n}" for n in range(depth)] + ["residual"])
        lines = []
        for i, t in enumerate(traj.times):
            cumulative = np.cumsum(traj.energies[i])
            resid = 0.0 if i == 0 else balance_residual(traj, traj.times[0], t)
            row = ([t, scale * cumulative[-1]]
                   + [scale * v for v in cumulative]
                   + [scale * v for v in traj.fluxes[i]]
                   + [scale * resid])
            lines.append(",".join(_fmt(v) for v in row))
        _write_csv(os.path.join(out_dir, "trajectory.csv"), header, lines)
        dumps.publish()
    finally:
        dumps.discard()

    try:
        window = config.fit_window
        fitted = fit_spectrum(traj.final, window).eta_hat
    except DegenerateWindow:
        fitted = None
    summary = {
        "config": config.to_dict(),
        "summary": {
            "final_energy": scale * energy_report(traj.final).total,
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


_STATIONARY = _Table(f=(_number, _REQUIRED), nu=(_number, _REQUIRED),
                     beta=(_number, _REQUIRED), gamma=(_number, 1.0),
                     n_max=(_integer, 60))


def run_stationary(cfg: dict, out_dir):
    """Solve the classic stationary profile and emit profile.csv (n,Z_n,Y_n)
    plus regime.json.  regime.json's asymptotic_flux is c_{n+1} Y_n^2
    Y_{n+1} in the limit, half of what boundary_fluxes and the flux_n
    columns of simulate's trajectory.csv report."""
    c = _STATIONARY(cfg)
    f, nu, beta, gamma, n_max = c.f, c.nu, c.beta, c.gamma, c.n_max

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
            "certificate_digits": _CERT_DPS,
            "certificate_levels": _CERT_LEVELS,
            "newton_iterations": profile.newton_iterations,
            "newton_residual": profile.newton_residual,
        }
        rows = [(n, profile.z[n + 1], profile.y[n]) for n in range(n_max + 1)]

    lines = [f"{n},{_fmt(z)},{_fmt(y)}" for n, z, y in rows]
    _write_csv(os.path.join(out_dir, "profile.csv"), ["n", "Z_n", "Y_n"], lines)
    _write_json(os.path.join(out_dir, "regime.json"), regime)
    return regime


_SELFSIMILAR = _Table(t0=(_number, _REQUIRED), beta=(_number, _REQUIRED),
                      n_max=(_integer, 25), alpha_tilde=(_number, None),
                      n0=(_integer, 0))


def run_selfsimilar(cfg: dict, out_dir):
    c = _SELFSIMILAR(cfg)
    n_max = c.n_max
    profile = solve_selfsimilar_classic(c.t0, c.beta, n_max, n0=c.n0)
    if c.alpha_tilde is not None:
        profile = lift_selfsimilar(profile, c.alpha_tilde)
        header = ["n", "b_n", "a_n"]
        rows = [f"{n},{_fmt(profile.b[n])},{_fmt(profile.a[n])}"
                for n in range(n_max + 1)]
    else:
        header = ["n", "b_n"]
        rows = [f"{n},{_fmt(profile.b[n])}" for n in range(n_max + 1)]
    _write_csv(os.path.join(out_dir, "selfsimilar.csv"), header, rows)
    nz = profile.n0
    summary = {
        "t0": profile.t0, "beta": profile.beta, "n0": nz,
        "b_first_nonzero": float(profile.b[nz]),
        "w_limit": profile.w_limit,
        "bracket": list(profile.bracket),
        "certificate_digits": _CERT_DPS,
        "certificate_levels": _CERT_LEVELS,
        "newton_iterations": profile.newton_iterations,
        "newton_residual": profile.newton_residual,
        "tail_ratio": float(profile.b[n_max] / profile.b[n_max - 1]),
    }
    _write_json(os.path.join(out_dir, "selfsimilar.json"), summary)
    return summary


_LIFT = _Table(alpha_tilde=(_number, _REQUIRED), beta=(_number, _REQUIRED),
               depth=(_integer, _REQUIRED), gamma=(_number, 1.0), nu=(_number, 0.0),
               f=(_number, 0.0), classic_values=(_numbers, None),
               classic_file=(_path, None))


def run_lift(cfg: dict, out_dir):
    """Lift a classic state onto the tree; emits per-generation lift.csv and
    lift.json with the energy identities."""
    c = _LIFT(cfg)
    depth = c.depth
    if (c.classic_values is None) == (c.classic_file is None):
        raise ConfigError("exactly one of classic_values/classic_file must be given")
    if c.classic_values is not None and len(c.classic_values) != depth + 1:
        raise ConfigError(f"classic_values must hold {depth + 1} shells")
    # LiftSpec first, so that a bad beta is reported as beta, not as the
    # classic alpha
    spec = LiftSpec(alpha_tilde=c.alpha_tilde, beta=c.beta)
    classic_params = ModelParams(alpha=c.beta, gamma=c.gamma, nu=c.nu, f=c.f,
                                 branching=1, depth=depth)
    if c.classic_values is not None:
        y = TreeState(c.classic_values, classic_params)
    else:
        y = _load_state(c.classic_file, classic_params, "classic_file")

    x = lift_state(y, spec)
    per_gen = generation_energies(x.params, x.values)
    lines = [f"{g},{_fmt(y.values[g])},{_fmt(x.generation_slice(g)[0])},"
             f"{_fmt(per_gen[g])}" for g in range(depth + 1)]
    _write_csv(os.path.join(out_dir, "lift.csv"),
               ["generation", "classic_value", "tree_value", "generation_energy"],
               lines)
    summary = {
        "alpha": spec.alpha, "branching": spec.branching,
        "f_tree": x.params.f,
        "classic_norm_sq": float(np.add.reduce(np.square(y.values))),
        "tree_norm_sq": float(np.add.reduce(per_gen)),
        "norm_ratio_expected": pow2(-4 * spec.alpha_tilde),
    }
    _write_json(os.path.join(out_dir, "lift.json"), summary)
    return summary


_DISSIPATION = _Table(epsilon=(_number, _REQUIRED), eta=(_number, _REQUIRED),
                      alpha=(_number, _REQUIRED), alpha_tilde=(_number, _REQUIRED))


def run_dissipation_bound(cfg: dict, out_dir):
    c = vars(_DISSIPATION(cfg))
    out = {**c, "T": dissipation_time_bound(**c)}
    _write_json(os.path.join(out_dir, "dissipation_bound.json"), out)
    return out


_FIT = _Table(params=(_PARAMS, _REQUIRED), state_file=(_path, _REQUIRED),
              window=(_window, None))


def run_fit_spectrum(cfg: dict, out_dir):
    c = _FIT(cfg)
    state = _load_state(c.state_file, _build(ModelParams, c.params), "state_file")
    fit = fit_spectrum(state, c.window)
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


def _check_out(out: str) -> None:
    """--out names the output directory, made if it is missing: an empty
    name, or one of a file or anything else that is not a directory, is bad
    input, rejected before any work."""
    if not out:
        raise ConfigError("--out must name a directory, got an empty name")
    if os.path.exists(out) and not os.path.isdir(out):
        raise ConfigError(f"--out {out} exists and is not a directory")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        # numpy's overflow warnings are off: a NaN or an infinity that
        # reaches an output file is a numerical failure of its own
        # (_write_csv, _write_json)
        with np.errstate(over="ignore", invalid="ignore"):
            _check_out(args.out)
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
