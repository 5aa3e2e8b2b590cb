import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from dyadic_cascade import (
    ModelParams,
    TreeState,
    dump_state,
    inviscid_classic_profile,
    inviscid_tree_profile,
    load_state,
    pow2,
)
from dyadic_cascade import cli, errors
from dyadic_cascade.cli import (
    InitialSpec,
    RunConfig,
    build_initial,
    fit_spectrum,
    main,
    run_simulate,
)
from dyadic_cascade.errors import (
    CapacityExceeded,
    ConfigError,
    DegenerateWindow,
    StateFileError,
)


def base_config(**overrides):
    cfg = {
        "model": "tree",
        "params": {"alpha": 1.0, "gamma": 1.0, "nu": 0.0, "f": 0.0,
                   "branching": 2, "depth": 4},
        "initial": {"kind": "zero"},
        "t_end": 0.5,
        "output_interval": 0.25,
    }
    cfg.update(overrides)
    return cfg


def raw_config(cfg, literal: str) -> bytes:
    """cfg as JSON bytes with the string "<>" replaced by literal."""
    return json.dumps(cfg).replace('"<>"', literal).encode()


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = RunConfig.from_dict(base_config())
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_paths(self):
        with pytest.raises(ConfigError, match="paramz"):
            RunConfig.from_dict(base_config(paramz={}))
        bad = base_config()
        bad["params"]["alpa"] = 1.0
        with pytest.raises(ConfigError, match="params.alpa"):
            RunConfig.from_dict(bad)
        bad2 = base_config(initial={"kind": "zero", "seed": 1})
        with pytest.raises(ConfigError, match="initial.seed"):
            RunConfig.from_dict(bad2)

    def test_missing_required(self):
        cfg = base_config()
        del cfg["t_end"]
        with pytest.raises(ConfigError, match="t_end"):
            RunConfig.from_dict(cfg)

    def test_classic_branching_forced(self):
        cfg = base_config(model="classic")
        cfg["params"]["branching"] = 2
        with pytest.raises(ConfigError, match="branching"):
            RunConfig.from_dict(cfg)

    def test_symmetric_requires_symmetric_initial(self):
        cfg = base_config(mode="symmetric",
                          initial={"kind": "random_positive", "seed": 1, "scale": 1.0})
        with pytest.raises(ConfigError, match="symmetric"):
            RunConfig.from_dict(cfg)

    def test_initial_specs(self):
        spec = InitialSpec.from_dict({"kind": "random_positive", "seed": 3, "scale": 0.5})
        assert spec.generation_symmetric is False
        assert InitialSpec.from_dict({"kind": "selfsimilar", "t0": -1.0}).t0 == -1.0
        with pytest.raises(ConfigError):
            InitialSpec.from_dict({"kind": "bogus"})


class TestBuildInitial:
    def test_random_positive_counter_based_reproducible(self):
        cfg = RunConfig.from_dict(base_config(
            initial={"kind": "random_positive", "seed": 7, "scale": 0.25}))
        a = build_initial(cfg)
        b = build_initial(cfg)
        assert (a.values == b.values).all()
        assert a.values.max() <= 0.25
        assert a.values.min() >= 0.0

    def test_file_round_trip(self, tmp_path):
        p = ModelParams(alpha=1.0, branching=2, depth=3)
        rng = np.random.default_rng(0)
        state = TreeState(rng.uniform(0, 1, p.n_nodes), p)
        path = tmp_path / "state.bin"
        dump_state(state, path)
        loaded = load_state(path, p)
        assert (loaded.values == state.values).all()
        cfg_dict = base_config(initial={"kind": "file", "path": str(path)})
        cfg_dict["params"]["depth"] = 3
        rebuilt = build_initial(RunConfig.from_dict(cfg_dict))
        assert (rebuilt.values == state.values).all()

    def test_file_header_mismatch(self, tmp_path):
        p = ModelParams(alpha=1.0, branching=2, depth=3)
        state = TreeState.zeros(p)
        path = tmp_path / "state.bin"
        dump_state(state, path)
        other = ModelParams(alpha=1.0, branching=2, depth=4)
        with pytest.raises(ValueError, match="does not match"):
            load_state(path, other)

    @pytest.mark.parametrize("match,corrupt", [
        ("truncated header", lambda raw: raw[:10]),
        ("bad magic", lambda raw: b"DYAX" + raw[4:]),
        ("unsupported version", lambda raw: raw[:4] + (2).to_bytes(4, "little") + raw[8:]),
        ("does not match", lambda raw: raw[:12] + (4).to_bytes(4, "little") + raw[16:]),
        ("expected 120 data bytes, got 117", lambda raw: raw[:-3]),
        ("bytes after the 120 data bytes", lambda raw: raw + bytes(32)),
    ], ids=["truncated_header", "bad_magic", "unsupported_version",
            "header_params_mismatch", "short_data", "trailing_data"])
    def test_malformed_file_raises_state_file_error(self, tmp_path, match, corrupt):
        p = ModelParams(alpha=1.0, branching=2, depth=3)
        path = tmp_path / "state.bin"
        dump_state(TreeState(np.full(p.n_nodes, 0.5), p), path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(StateFileError, match=match):
            load_state(path, p)

    def test_dump_format_layout(self, tmp_path):
        p = ModelParams(alpha=1.0, branching=4, depth=1)
        state = TreeState(np.arange(5, dtype=float), p)
        path = tmp_path / "s.bin"
        dump_state(state, path)
        raw = path.read_bytes()
        assert raw[:4] == b"DYAD"
        assert int.from_bytes(raw[4:8], "little") == 1   # version
        assert int.from_bytes(raw[8:12], "little") == 4  # branching
        assert int.from_bytes(raw[12:16], "little") == 1  # depth
        assert np.frombuffer(raw[16:], dtype="<f8").tolist() == [0, 1, 2, 3, 4]


class TestFitSpectrum:
    def test_tree_exact_geometric(self):
        prof = inviscid_tree_profile(1.0, 2.5, 1.5, depth=6)
        fit = fit_spectrum(prof)
        assert abs(fit.eta_hat - 11.0 / 6.0) <= 1e-10
        assert fit.residual <= 1e-10

    def test_classic_exponent(self):
        prof = inviscid_classic_profile(1.0, 3.0, 8)
        fit = fit_spectrum(prof)
        assert abs(fit.eta_hat - 1.0) <= 1e-10  # beta/3

    def test_constant_profile(self):
        p = ModelParams(alpha=1.0, branching=2, depth=4)
        vals = np.empty(p.n_nodes)
        offs = p.offsets
        for g in range(5):
            vals[offs[g]:offs[g + 1]] = 0.7
        fit = fit_spectrum(TreeState(vals, p))
        assert abs(fit.eta_hat) <= 1e-12

    def test_degenerate_window(self):
        p = ModelParams(alpha=1.0, branching=2, depth=4)
        with pytest.raises(DegenerateWindow):
            fit_spectrum(TreeState.zeros(p))
        prof = inviscid_tree_profile(1.0, 2.5, 1.5, depth=4)
        with pytest.raises(DegenerateWindow):
            fit_spectrum(prof, window=(2, 2))


class TestSimulateCommand:
    def test_zero_run_writes_zero_columns(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t" and header[1] == "E_total"
        assert header[-1] == "residual"
        assert len(header) == 2 + 5 + 4 + 1
        for line in lines[1:]:
            assert all(float(v) == 0.0 for v in line.split(",")[1:])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["summary"]["max_positivity_violation"] == 0.0
        assert summary["summary"]["stiff_from"] is None
        assert summary["summary"]["n_rejected_by_cause"] == {
            "error norm": 0, "non-finite": 0, "positivity": 0}

    def test_summary_records_the_stiff_switch(self, tmp_path):
        # the forced inviscid chain of depth 18 switches to RODAS4 near t = 0.748
        cfg = write_config(tmp_path, base_config(
            model="classic", initial={"kind": "root_only", "value": 1.0},
            params={"alpha": 1.0, "f": 1.0, "depth": 18},
            t_end=1.0, output_interval=0.01))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        summary = json.loads((out1 / "summary.json").read_text())["summary"]
        assert 0.7 < summary["stiff_from"] < 0.9
        by_cause = summary["n_rejected_by_cause"]
        assert list(by_cause) == ["error norm", "non-finite", "positivity"]
        assert sum(by_cause.values()) == summary["n_rejected"]
        assert summary["n_stiffness_tests"] >= 15  # the verdicts that switched
        assert summary["n_rhs_evals"] > 6 * summary["n_accepted"] // 2
        assert 0.0 < summary["h_min"] < summary["h_max"] <= 0.01 * (1 + 1e-12)
        assert summary["n_flattened"] >= 0
        for name in ("trajectory.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_exit_codes(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1
        bad = write_config(tmp_path, base_config(paramz=1))
        assert main(["simulate", "--config", bad, "--out", str(tmp_path / "o")]) == 1
        # numerical failure: blow-up scale initial data
        p = ModelParams(alpha=1.0, branching=2, depth=4)
        sp = tmp_path / "huge.bin"
        dump_state(TreeState(np.full(p.n_nodes, 1e150), p), sp)
        cfg = write_config(tmp_path, base_config(
            initial={"kind": "file", "path": str(sp)}), name="c2.json")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o2")]) == 2

    def test_dump_state_flag(self, tmp_path):
        cfg = write_config(tmp_path, base_config(
            initial={"kind": "root_only", "value": 0.5},
            params={"alpha": 1.0, "f": 0.4, "branching": 2, "depth": 4}))
        out = tmp_path / "out"
        rc = main(["simulate", "--config", cfg, "--out", str(out),
                   "--dump-state", "0.25"])
        assert rc == 0
        dumped = out / "state_t0.25.bin"
        assert dumped.exists()
        p = ModelParams(alpha=1.0, f=0.4, branching=2, depth=4)
        state = load_state(dumped, p)
        assert state.values[0] > 0

    def test_capacity_counts_what_the_run_holds(self, tmp_path, monkeypatch):
        # binary depth 8 has 511 nodes.  Two outputs of 511 values fit in
        # 4000, but the 11 integrator arrays, the final state, RODAS4's
        # 5 n + 3 (2 * 8 + 2) values and a row of 4 * 8 + 5 values at each of
        # the 2 recorded times do not
        config = RunConfig.from_dict(base_config(
            params={"alpha": 1.0, "f": 0.5, "branching": 2, "depth": 8},
            t_end=0.5, output_interval=0.5))
        for dumps in ((), (0.0, 0.5)):
            out = tmp_path / f"o{len(dumps)}"
            held = (11 + len(dumps) + 1 + 5) * 511 + 3 * 18 + 2 * (4 * 8 + 5)
            for budget in (4000, held - 1):
                cfg = replace(config, params=replace(config.params, max_nodes=budget))
                with monkeypatch.context() as m:
                    m.setattr(cli, "build_initial", None)  # raised before it runs
                    with pytest.raises(CapacityExceeded):
                        run_simulate(cfg, out, dump_times=dumps)
                assert not out.exists()
            cfg = replace(config, params=replace(config.params, max_nodes=held))
            assert run_simulate(cfg, out, dump_times=dumps).n_accepted > 0
        # symmetric mode holds the 9-shell classic run, not the tree
        sym = replace(config, mode="symmetric", initial=InitialSpec("root_only", 0.5),
                      params=replace(config.params, max_nodes=4000))
        assert run_simulate(sym, tmp_path / "s").n_accepted > 0

    def test_outputs_deterministic_across_runs(self, tmp_path):
        cfg = write_config(tmp_path, base_config(
            initial={"kind": "random_positive", "seed": 5, "scale": 0.3}))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("trajectory.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestSymmetricMode:
    def test_matches_full_mode_per_generation(self, tmp_path):
        params = {"alpha": 1.5, "gamma": 1.0, "nu": 0.1, "f": 0.6,
                  "branching": 2, "depth": 5}
        rel_tol = 1e-10
        common = dict(params=params,
                      initial={"kind": "root_only", "value": 0.4},
                      t_end=0.5, output_interval=0.25,
                      solver={"rel_tol": rel_tol, "abs_tol": 1e-16})
        cfg_full = write_config(tmp_path, base_config(mode="full", **common),
                                name="full.json")
        cfg_sym = write_config(tmp_path, base_config(mode="symmetric", **common),
                               name="sym.json")
        out_f, out_s = tmp_path / "f", tmp_path / "s"
        assert main(["simulate", "--config", cfg_full, "--out", str(out_f)]) == 0
        assert main(["simulate", "--config", cfg_sym, "--out", str(out_s)]) == 0
        rows_f = (out_f / "trajectory.csv").read_text().splitlines()[1:]
        rows_s = (out_s / "trajectory.csv").read_text().splitlines()[1:]
        assert len(rows_f) == len(rows_s)
        for rf, rs in zip(rows_f, rows_s):
            vf = np.array([float(x) for x in rf.split(",")])
            vs = np.array([float(x) for x in rs.split(",")])
            assert vf[0] == vs[0]  # time grid identical
            scale = max(1e-12, np.abs(vf[1:]).max())
            assert np.abs(vf[1:] - vs[1:]).max() <= 100 * rel_tol * scale


class TestOtherCommands:
    def test_stationary_regular(self, tmp_path):
        cfg = write_config(tmp_path, {"f": 1.0, "nu": 1.0, "beta": 2.0,
                                      "gamma": 2.0, "n_max": 30})
        out = tmp_path / "out"
        assert main(["stationary", "--config", cfg, "--out", str(out)]) == 0
        regime = json.loads((out / "regime.json").read_text())
        assert regime["regime"] == "ViscousRegular"
        lines = (out / "profile.csv").read_text().splitlines()
        assert lines[0] == "n,Z_n,Y_n"
        assert len(lines) == 32

    def test_stationary_inviscid(self, tmp_path):
        cfg = write_config(tmp_path, {"f": 1.0, "nu": 0.0, "beta": 2.0, "n_max": 10})
        out = tmp_path / "out"
        assert main(["stationary", "--config", cfg, "--out", str(out)]) == 0
        regime = json.loads((out / "regime.json").read_text())
        assert regime["regime"] == "InviscidExplicit"
        # nu-free rescaled column is constant f 2^{beta/3}
        rows = (out / "profile.csv").read_text().splitlines()[1:]
        zs = [float(r.split(",")[1]) for r in rows]
        assert zs == pytest.approx([pow2(2.0 / 3.0)] * 11, rel=1e-12)

    def test_stationary_anomalous(self, tmp_path):
        cfg = write_config(tmp_path, {"f": 1.5, "nu": 1.0, "beta": 3.0,
                                      "gamma": 1.0, "n_max": 40})
        out = tmp_path / "out"
        assert main(["stationary", "--config", cfg, "--out", str(out)]) == 0
        regime = json.loads((out / "regime.json").read_text())
        assert regime["regime"] == "ViscousAnomalous"
        assert regime["asymptotic_flux"] == pytest.approx(
            pow2(-4.0) * regime["z_limit"] ** 3, rel=1e-9)

    def test_selfsimilar_command(self, tmp_path):
        cfg = write_config(tmp_path, {"t0": -1.0, "beta": 2.0, "n_max": 12,
                                      "alpha_tilde": 0.5})
        out = tmp_path / "out"
        assert main(["selfsimilar", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "selfsimilar.csv").read_text().splitlines()
        assert lines[0] == "n,b_n,a_n"
        summary = json.loads((out / "selfsimilar.json").read_text())
        assert summary["b_first_nonzero"] > 0
        assert summary["tail_ratio"] == pytest.approx(pow2(-2 / 3), rel=1e-4)

    def test_lift_command(self, tmp_path):
        y = inviscid_classic_profile(1.0, 1.0, 4)
        cfg = write_config(tmp_path, {
            "alpha_tilde": 1.0, "beta": 1.0, "depth": 4,
            "classic_values": y.values.tolist()})
        out = tmp_path / "out"
        assert main(["lift", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "lift.json").read_text())
        assert summary["alpha"] == 2.0
        assert summary["branching"] == 4
        assert summary["tree_norm_sq"] == pytest.approx(
            summary["norm_ratio_expected"] * summary["classic_norm_sq"], rel=1e-12)

    def test_dissipation_bound_command(self, tmp_path):
        cfg = write_config(tmp_path, {"epsilon": 1.0, "eta": 1.0,
                                      "alpha": 2.0, "alpha_tilde": 1.0})
        out = tmp_path / "out"
        assert main(["dissipation-bound", "--config", cfg, "--out", str(out)]) == 0
        result = json.loads((out / "dissipation_bound.json").read_text())
        assert abs(result["T"] - 322.14443355489574) < 1e-9

    def test_fit_spectrum_command(self, tmp_path):
        prof = inviscid_tree_profile(1.0, 2.5, 1.5, depth=5)
        sp = tmp_path / "state.bin"
        dump_state(prof, sp)
        cfg = write_config(tmp_path, {
            "params": {"alpha": 2.5, "branching": 8, "depth": 5, "f": 1.0},
            "state_file": str(sp)})
        out = tmp_path / "out"
        assert main(["fit-spectrum", "--config", cfg, "--out", str(out)]) == 0
        result = json.loads((out / "fit_spectrum.json").read_text())
        assert abs(result["eta_hat"] - 11 / 6) <= 1e-10


#: CascadeError types that are not bad input: the CLI reports them as a
#: numerical failure.  Every other type must be a DomainError.
EXIT_2_ERRORS = (
    errors.CascadeError, errors.RootHasNoParent, errors.NonFiniteState,
    errors.StepSizeUnderflow, errors.MaxRejections, errors.ForcedRun,
    errors.RangeError, errors.DepthMismatch, errors.BracketFailure,
    errors.NoConvergence, errors.OverlapError, errors.GenerationMismatch,
    errors.PoleMismatch,
)
CASCADE_ERRORS = [c for c in vars(errors).values()
                  if isinstance(c, type) and issubclass(c, errors.CascadeError)]


class TestExitCodeContract:
    @pytest.mark.parametrize("error", CASCADE_ERRORS, ids=lambda c: c.__name__)
    def test_error_type_sets_exit_code(self, tmp_path, monkeypatch, capsys, error):
        bad_input = issubclass(error, errors.DomainError)
        assert bad_input != (error in EXIT_2_ERRORS), \
            f"{error.__name__} must be a DomainError or listed in EXIT_2_ERRORS"

        def run(cfg, out_dir):
            raise error("boom")

        monkeypatch.setattr(cli, "run_stationary", run)
        path = write_config(tmp_path, {})
        rc = main(["stationary", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == (1 if bad_input else 2)
        prefix = "config error:" if bad_input else "numerical failure:"
        assert capsys.readouterr().err.startswith(prefix)


class TestRepeatedCalls:
    """main builds its parser once per process; one call leaves nothing
    behind for the next."""

    def test_dump_state_values_do_not_carry_over(self, tmp_path):
        cfg = write_config(tmp_path, base_config(
            initial={"kind": "root_only", "value": 0.5},
            params={"alpha": 1.0, "f": 0.4, "branching": 2, "depth": 4}))
        runs = ((["--dump-state", "0.25"], ["state_t0.25.bin"]),
                ([], []),
                (["--dump-state", "0.5"], ["state_t0.5.bin"]))
        for i, (extra, dumps) in enumerate(runs):
            out = tmp_path / f"o{i}"
            assert main(["simulate", "--config", cfg, "--out", str(out)] + extra) == 0
            assert sorted(p.name for p in out.iterdir()) == \
                dumps + ["summary.json", "trajectory.csv"]

    def test_a_call_that_exits_2_leaves_the_next_intact(self, tmp_path, capsys):
        good = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as exc:  # argparse: no such command
            main(["simulate-all", "--config", good])
        assert exc.value.code == 2
        sp = tmp_path / "big.bin"
        p = ModelParams(alpha=1.0, branching=2, depth=4)
        dump_state(TreeState(np.full(p.n_nodes, 1e150), p), sp)
        blowup = write_config(tmp_path, base_config(
            initial={"kind": "file", "path": str(sp)}), name="blowup.json")
        assert main(["simulate", "--config", blowup, "--out", str(tmp_path / "b")]) == 2
        capsys.readouterr()
        out = tmp_path / "good"
        assert main(["simulate", "--config", good, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "summary.json").exists()


class TestBadInput:
    """Bad input exits 1 with a message, never a traceback, and writes no
    output directory.  Relative file names resolve in a directory holding
    s.bin, a valid binary depth-3 state, neg.bin, the same state with one
    negative entry, short.bin, s.bin without its last three bytes, and
    zero.bin, the all-zero state.  A command may carry extra arguments
    after its name."""

    @pytest.mark.parametrize("command,cfg", [
        pytest.param("fit-spectrum",
                     {"params": {"alpha": 0.0, "depth": 3}, "state_file": "s.bin"},
                     id="fit_spectrum_alpha_not_positive"),
        pytest.param("fit-spectrum",
                     {"params": {"alpha": 1.0, "depth": 3}, "state_file": "s.bin",
                      "window": 5},
                     id="fit_spectrum_window_not_pair"),
        pytest.param("fit-spectrum",
                     {"params": {"alpha": 1.0, "depth": 3}, "state_file": "none.bin"},
                     id="fit_spectrum_missing_state_file"),
        pytest.param("lift",
                     {"alpha_tilde": 0.5, "beta": 1.0, "depth": 3,
                      "classic_file": "none.bin"},
                     id="lift_missing_classic_file"),
        pytest.param("selfsimilar", {"t0": -1.0, "beta": 2.0, "n_max": 1},
                     id="selfsimilar_n_max_below_two"),
        pytest.param("selfsimilar", {"t0": -1.0, "beta": 2.0, "n_max": 8, "tol": 1e-9},
                     id="selfsimilar_tol_is_unknown"),
        pytest.param("simulate",
                     base_config(initial={"kind": "root_only", "value": -0.5}),
                     id="simulate_negative_root_value"),
        pytest.param("stationary", {"f": 0.0, "nu": 1.0, "beta": 2.0},
                     id="stationary_f_not_positive"),
        pytest.param("lift",
                     {"alpha_tilde": 0.5, "beta": 0.0, "depth": 3,
                      "classic_values": [1.0, 0.5, 0.25, 0.125]},
                     id="lift_beta_not_positive"),
        pytest.param("lift",
                     {"alpha_tilde": 0.3, "beta": 1.0, "depth": 3,
                      "classic_values": [1.0, 0.5, 0.25, 0.125]},
                     id="lift_alpha_tilde_not_whole_branching"),
        pytest.param("lift",
                     {"alpha_tilde": 0.5, "beta": 1.0, "depth": 1,
                      "classic_values": ["a", 1.0]},
                     id="lift_classic_value_not_number"),
        pytest.param("dissipation-bound",
                     {"epsilon": 0.0, "eta": 1.0, "alpha": 1.0, "alpha_tilde": 0.5},
                     id="dissipation_bound_epsilon_not_positive"),
        pytest.param("dissipation-bound",
                     {"epsilon": 0.1, "eta": 1.0, "alpha": 0.4, "alpha_tilde": 0.5},
                     id="dissipation_bound_alpha_not_above_alpha_tilde"),
        pytest.param("simulate",
                     base_config(params={"alpha": 1.0, "branching": 2, "depth": 3},
                                 initial={"kind": "file", "path": "neg.bin"}),
                     id="simulate_negative_file_entry"),
        pytest.param("simulate",
                     base_config(initial={"kind": "selfsimilar", "t0": 1.0}),
                     id="simulate_selfsimilar_t0_not_negative"),
        pytest.param("simulate",
                     base_config(initial={"kind": "stationary_inviscid"}),
                     id="simulate_stationary_inviscid_unforced"),
        pytest.param("stationary", {"f": 1.0, "nu": -1.0, "beta": 2.0},
                     id="stationary_nu_negative"),
        pytest.param("stationary", {"f": 1.0, "nu": 1.0, "beta": 0.0},
                     id="stationary_beta_not_positive"),
        # bisection_tol is not a field: the certificate has one fixed width
        pytest.param("stationary",
                     {"f": 1.0, "nu": 1.0, "beta": 1.0, "bisection_tol": 0.0},
                     id="stationary_bisection_tol_not_positive"),
        pytest.param("stationary", {"f": 1.0, "nu": 1.0, "beta": 1.0, "n_max": 1},
                     id="stationary_viscous_n_max_below_two"),
        pytest.param("selfsimilar", {"t0": 1.0, "beta": 2.0},
                     id="selfsimilar_t0_not_negative"),
        pytest.param("selfsimilar", {"t0": -1.0, "beta": 2.0, "alpha_tilde": -0.5},
                     id="selfsimilar_alpha_tilde_negative"),
        pytest.param("fit-spectrum",
                     {"params": {"alpha": 1.0, "depth": 3}, "state_file": "s.bin",
                      "window": [0, 9]},
                     id="fit_spectrum_window_outside_depth"),
        pytest.param("selfsimilar", {"t0": -1.0, "beta": 1.0, "n_max": 5, "n0": 9},
                     id="selfsimilar_n0_above_n_max"),
        pytest.param("selfsimilar", {"t0": -1.0, "beta": 1.0, "n_max": 5, "n0": 5},
                     id="selfsimilar_n0_equals_n_max"),
        pytest.param("simulate",
                     base_config(params={"alpha": 1.0, "branching": 2, "depth": 1},
                                 initial={"kind": "selfsimilar", "t0": -1.0}),
                     id="simulate_selfsimilar_depth_below_two"),
        pytest.param("simulate",
                     base_config(params={"alpha": 1.0, "branching": 2, "depth": 3},
                                 initial={"kind": "file", "path": "short.bin"}),
                     id="simulate_short_state_file"),
        pytest.param("simulate",
                     base_config(params={"alpha": 1.0, "nu": math.nan,
                                         "branching": 2, "depth": 3}),
                     id="simulate_nu_nan"),
        pytest.param("simulate",
                     base_config(params={"alpha": 1.0, "f": math.nan,
                                         "branching": 2, "depth": 3}),
                     id="simulate_f_nan"),
        pytest.param("simulate", base_config(t_end=math.nan), id="simulate_t_end_nan"),
        pytest.param("simulate",
                     base_config(mode="symmetric",
                                 params={"alpha": 0.4, "branching": 2, "depth": 3},
                                 initial={"kind": "root_only", "value": 0.5}),
                     id="simulate_symmetric_alpha_not_above_alpha_tilde"),
        pytest.param("fit-spectrum",
                     {"params": {"alpha": 1.0, "depth": 3}, "state_file": "zero.bin"},
                     id="fit_spectrum_zero_state"),
        pytest.param("stationary",  # an unknown field on the inviscid path too
                     {"f": 1.0, "nu": 0.0, "beta": 1.0, "bisection_tol": 0.0},
                     id="stationary_inviscid_bisection_tol_not_positive"),
        pytest.param("simulate --dump-state 5", base_config(),
                     id="simulate_dump_time_after_t_end"),
        pytest.param("simulate --dump-state -1", base_config(),
                     id="simulate_dump_time_negative"),
        pytest.param("simulate",
                     base_config(params={"alpha": 1.0, "branching": 2, "depth": 3},
                                 output_interval=1e-320),
                     id="simulate_output_interval_overflows"),
        pytest.param("simulate",
                     base_config(params={"alpha": 1.0, "branching": 2, "depth": 3},
                                 output_interval=1e-9),
                     id="simulate_output_interval_tiny"),
        pytest.param("simulate",
                     base_config(initial={"kind": "random_positive", "seed": 1,
                                          "scale": -1.0}),
                     id="simulate_random_scale_negative"),
        pytest.param("simulate",
                     base_config(initial={"kind": "random_positive", "seed": 1,
                                          "scale": math.inf}),
                     id="simulate_random_scale_infinite"),
    ])
    def test_exits_1(self, tmp_path, monkeypatch, capsys, command, cfg):
        monkeypatch.chdir(tmp_path)
        p = ModelParams(alpha=1.0, branching=2, depth=3)
        values = np.full(p.n_nodes, 0.5)
        dump_state(TreeState(values, p), tmp_path / "s.bin")
        values[2] = -0.5
        dump_state(TreeState(values, p), tmp_path / "neg.bin")
        (tmp_path / "short.bin").write_bytes((tmp_path / "s.bin").read_bytes()[:-3])
        dump_state(TreeState.zeros(p), tmp_path / "zero.bin")
        path = write_config(tmp_path, cfg)
        argv = command.split() + ["--config", path, "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content", [
        pytest.param(raw_config(base_config(params={"alpha": "<>", "depth": 3}),
                                "1e999"),
                     id="simulate_alpha_1e999"),
        pytest.param(raw_config(base_config(params={"alpha": 1.0, "gamma": "<>",
                                                    "depth": 3}), "1e999"),
                     id="simulate_gamma_1e999"),
        pytest.param(raw_config(base_config(initial={"kind": "root_only",
                                                     "value": "<>"}), "1e999"),
                     id="simulate_root_value_1e999"),
        pytest.param(raw_config(base_config(t_end="<>"), "1" + "0" * 400),
                     id="simulate_t_end_beyond_float_range"),
        pytest.param(raw_config(base_config(t_end="<>"), "1" + "0" * 5000),
                     id="simulate_t_end_beyond_int_digit_limit"),
        pytest.param(json.dumps(base_config()).encode("utf-16"),
                     id="config_not_utf8"),
        pytest.param(None, id="config_is_directory"),
        pytest.param(b"[" * 100000 + b"]" * 100000, id="config_nested_too_deeply"),
        pytest.param(json.dumps(base_config(params={"alpha": 1.0, "branching": 2,
                                                    "depth": 20000})).encode(),
                     id="simulate_depth_20000"),
    ])
    def test_config_file_exits_1(self, tmp_path, capsys, content):
        """The same contract for config files that a dict cannot express:
        raw JSON literals, bytes that are not UTF-8, and a directory
        (content None)."""
        path = tmp_path / "config.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_bisection_tol_is_rejected_before_any_solve(tmp_path, monkeypatch, capsys):
    """bisection_tol is not a config field: even a value no certificate
    could reach exits 1 before any solve starts."""
    def solve(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(cli, "solve_viscous_stationary", solve)
    path = write_config(tmp_path, {"f": 10, "nu": 0.01, "beta": 3, "gamma": 1,
                                   "n_max": 60, "bisection_tol": 1e-200})
    assert main(["stationary", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "unknown field bisection_tol" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
