import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from dyadic_cascade import (
    ModelParams,
    TreeState,
    dump_state,
    integrate,
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
from dyadic_cascade.kernels import Kernel
from dyadic_cascade.errors import (
    CapacityExceeded,
    ConfigError,
    DegenerateWindow,
    StateFileError,
)
from kept_states import Kept


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
        with pytest.raises(ConfigError) as info:
            RunConfig.from_dict(cfg)
        assert str(info.value) == "missing required field t_end"

    def test_null_is_an_absent_field(self):
        cfg = base_config(mode=None, solver={"rel_tol": None, "max_step": None,
                                             "max_rejections": None},
                          fit_window=None)
        cfg["params"]["gamma"] = None
        plain = base_config()
        del plain["params"]["gamma"]
        assert RunConfig.from_dict(cfg) == RunConfig.from_dict(plain)

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
        dump_state(state.values, p, path)
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
        dump_state(state.values, p, path)
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
        dump_state(np.full(p.n_nodes, 0.5), p, path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(StateFileError, match=match):
            load_state(path, p)

    def test_dump_format_layout(self, tmp_path):
        p = ModelParams(alpha=1.0, branching=4, depth=1)
        state = TreeState(np.arange(5, dtype=float), p)
        path = tmp_path / "s.bin"
        dump_state(state.values, p, path)
        raw = path.read_bytes()
        assert raw[:4] == b"DYAD"
        assert int.from_bytes(raw[4:8], "little") == 1   # version
        assert int.from_bytes(raw[8:12], "little") == 4  # branching
        assert int.from_bytes(raw[12:16], "little") == 1  # depth
        assert np.frombuffer(raw[16:], dtype="<f8").tolist() == [0, 1, 2, 3, 4]

    def test_dump_writes_a_read_only_view_without_a_copy(self, tmp_path):
        # the view integrate hands over, 131,071 values, is written as it
        # is: the traced peak of the write is far below the state's 1 MB
        p = ModelParams(alpha=1.0, branching=2, depth=16)
        values = np.random.default_rng(2).uniform(0.0, 1.0, p.n_nodes)
        view = values.view()
        view.flags.writeable = False
        path = tmp_path / "s.bin"
        tracemalloc.start()
        try:
            dump_state(view, p, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024
        assert load_state(path, p).values.tobytes() == values.tobytes()

    def test_dump_of_the_wrong_length_raises(self, tmp_path):
        p = ModelParams(alpha=1.0, branching=2, depth=3)
        with pytest.raises(errors.DepthMismatch, match="expects 15 values"):
            dump_state(np.zeros(14), p, tmp_path / "s.bin")
        assert not (tmp_path / "s.bin").exists()


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

    @pytest.mark.parametrize("mode", ["full", "symmetric"])
    def test_the_initial_state_is_freed_while_the_run_goes(self, tmp_path, monkeypatch,
                                                           mode):
        # run_simulate hands its initial state to integrate without keeping
        # it, so the state is gone by the run's first rhs_work
        refs, alive = [], []
        build, rhs_work = cli.build_initial, Kernel.rhs_work

        def traced_build(config):
            state = build(config)
            refs.append(weakref.ref(state.values))
            return state

        def first_rhs_work(self, *args, **kwargs):
            if not alive:
                alive.append(refs[0]() is not None)
            return rhs_work(self, *args, **kwargs)

        monkeypatch.setattr(cli, "build_initial", traced_build)
        monkeypatch.setattr(Kernel, "rhs_work", first_rhs_work)
        cfg = write_config(tmp_path, base_config(
            mode=mode, initial={"kind": "stationary_inviscid"},
            params={"alpha": 1.0, "f": 0.4, "branching": 2, "depth": 4}))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(refs) == 1 and alive == [False]

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
        dump_state(np.full(p.n_nodes, 1e150), p, sp)
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

    @pytest.mark.parametrize("t", ["0.3", "0.3000000000000001"])
    def test_dump_state_within_rounding_of_an_output_time(self, tmp_path, t):
        # one ulp below and above the output time 3 * 0.1: each names that
        # row, the run keeps the state there, and the trajectory stays that
        # of a run without the flag
        params = {"alpha": 1, "branching": 2, "depth": 3, "f": 1}
        cfg = write_config(tmp_path, base_config(
            params=params, initial={"kind": "root_only", "value": 0.1},
            t_end=0.5, output_interval=0.1))
        plain, dumped = tmp_path / "plain", tmp_path / "dumped"
        assert main(["simulate", "--config", cfg, "--out", str(plain)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(dumped),
                     "--dump-state", t]) == 0
        assert ((plain / "trajectory.csv").read_bytes()
                == (dumped / "trajectory.csv").read_bytes())
        p = ModelParams(**params)
        x = TreeState(np.where(np.arange(p.n_nodes) == 0, 0.1, 0.0), p)
        outputs = [i * 0.1 for i in range(1, 6)]
        kept = Kept()
        integrate(x, 0.5, output_times=outputs, keep=kept.keep(3 * 0.1))
        state = load_state(dumped / f"state_t{t}.bin", p)
        assert state.values.tobytes() == kept.values[3 * 0.1].tobytes()

    def test_dump_state_within_rounding_above_t_end(self, tmp_path):
        # 3 * 0.1 is one ulp above t_end = 0.3: it names the t_end row, and
        # the run and its trajectory stay those of a run without the flag
        params = {"alpha": 1, "branching": 2, "depth": 3, "f": 1}
        cfg = write_config(tmp_path, base_config(
            params=params, initial={"kind": "root_only", "value": 0.1},
            t_end=0.3, output_interval=0.1))
        plain, dumped = tmp_path / "plain", tmp_path / "dumped"
        assert main(["simulate", "--config", cfg, "--out", str(plain)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(dumped),
                     "--dump-state", repr(3 * 0.1)]) == 0
        assert ((plain / "trajectory.csv").read_bytes()
                == (dumped / "trajectory.csv").read_bytes())
        p = ModelParams(**params)
        x = TreeState(np.where(np.arange(p.n_nodes) == 0, 0.1, 0.0), p)
        final = integrate(x, 0.3, output_times=[0.1, 0.2]).final
        state = load_state(dumped / "state_t0.30000000000000004.bin", p)
        assert state.values.tobytes() == final.values.tobytes()

    def test_capacity_counts_what_the_run_holds(self, tmp_path, monkeypatch):
        # binary depth 8 has 511 nodes, 255 of them internal.  Two outputs
        # of 511 values fit in 4000, but the 8 integrator arrays and a block
        # of the error estimate, RODAS4's 8 n + 2 * 255 + 1024 * 8 + 2 (2 *
        # 8 + 2) values, the kernel's 2 * 255, the work rates' 8 (2 * 8 + 2)
        # + 9, 2048 for Python objects and a row of 4 * 8 + 5 values at each
        # of the 2 recorded times, with 4 for the output time, do not.  The
        # dumps add nothing: each is written from the run's own state
        config = RunConfig.from_dict(base_config(
            params={"alpha": 1.0, "f": 0.5, "branching": 2, "depth": 8},
            t_end=0.5, output_interval=0.5))
        for dumps in ((), (0.0, 0.5)):
            out = tmp_path / f"o{len(dumps)}"
            held = ((9 + 8) * 511 + 2 * 255 + 1024 * 8 + 2 * 18
                    + 2 * 255 + 8 * 18 + 9 + 2048 + 2 * (4 * 8 + 5) + 4)
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

    def test_summary_echoes_every_field(self, tmp_path):
        # a config that sets every field, each where it differs from the
        # default; the echo is pinned byte for byte
        cfg = write_config(tmp_path, {
            "model": "tree", "mode": "full",
            "params": {"alpha": 1.5, "gamma": 2, "nu": 0.01, "f": 0.5,
                       "branching": 2, "depth": 4},
            "initial": {"kind": "random_positive", "seed": 3, "scale": 0.1},
            "t_end": 0.5, "output_interval": 0.25,
            "solver": {"rel_tol": 1e-9, "abs_tol": 1e-15, "max_step": 0.1,
                       "initial_step": 0.001, "max_rejections": 50},
            "fit_window": [1, 3]})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "summary.json").read_text()
        assert text.startswith(SUMMARY_CONFIG_ECHO + '  "summary": {\n')

    def test_outputs_deterministic_across_runs(self, tmp_path):
        cfg = write_config(tmp_path, base_config(
            initial={"kind": "random_positive", "seed": 5, "scale": 0.3}))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("trajectory.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


#: the head of summary.json for TestSimulateCommand's config that sets
#: every field
SUMMARY_CONFIG_ECHO = """{
  "config": {
    "fit_window": [
      1,
      3
    ],
    "initial": {
      "kind": "random_positive",
      "scale": 0.1,
      "seed": 3
    },
    "mode": "full",
    "model": "tree",
    "output_interval": 0.25,
    "params": {
      "alpha": 1.5,
      "branching": 2,
      "depth": 4,
      "f": 0.5,
      "gamma": 2.0,
      "nu": 0.01
    },
    "solver": {
      "abs_tol": 1e-15,
      "initial_step": 0.001,
      "max_rejections": 50,
      "max_step": 0.1,
      "rel_tol": 1e-09
    },
    "t_end": 0.5
  },
"""


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
        dump_state(prof.values, prof.params, sp)
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
    errors.CascadeError, errors.NonFiniteState,
    errors.NonFiniteResult,
    errors.StepSizeUnderflow, errors.MaxRejections, errors.RangeError,
    errors.DepthMismatch, errors.BracketFailure,
    errors.NoConvergence,
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
        dump_state(np.full(p.n_nodes, 1e150), p, sp)
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
        pytest.param("simulate --dump-state 0.5000000000001", base_config(),
                     id="simulate_dump_time_beyond_rounding_of_t_end"),
        # a time off the recorded rows names no row
        pytest.param("simulate --dump-state 0.2500000001", base_config(),
                     id="simulate_dump_time_just_after_an_output_time"),
        pytest.param("simulate --dump-state 0.1", base_config(),
                     id="simulate_dump_time_between_output_times"),
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
        dump_state(values, p, tmp_path / "s.bin")
        values[2] = -0.5
        dump_state(values, p, tmp_path / "neg.bin")
        (tmp_path / "short.bin").write_bytes((tmp_path / "s.bin").read_bytes()[:-3])
        dump_state(np.zeros(p.n_nodes), p, tmp_path / "zero.bin")
        path = write_config(tmp_path, cfg)
        argv = command.split() + ["--config", path, "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,cfg,message", [
        *(pytest.param(command, cfg, "config must be an object",
                       id=f"{command}_config_{json.dumps(cfg)}")
          for command in ("stationary", "selfsimilar", "lift",
                          "dissipation-bound", "fit-spectrum")
          for cfg in (5, None)),
        pytest.param("stationary", "f", "config must be an object",
                     id="stationary_config_string"),
        pytest.param("simulate", base_config(initial={"kind": []}),
                     "initial.kind must be one of", id="simulate_initial_kind_list"),
        pytest.param("fit-spectrum",
                     {"params": {"alpha": 1.0, "depth": 3}, "state_file": None},
                     "missing required field state_file",
                     id="fit_spectrum_state_file_null"),
        pytest.param("lift",
                     {"alpha_tilde": 0.5, "beta": 1.0, "depth": 3, "classic_file": []},
                     "classic_file must be a string", id="lift_classic_file_list"),
        pytest.param("lift",
                     {"alpha_tilde": 0.5, "beta": 1.0, "depth": 3,
                      "classic_values": [1.0, 0.5, 0.25, 0.125],
                      "classic_file": "s.bin"},
                     "exactly one of classic_values/classic_file",
                     id="lift_classic_values_and_file"),
        pytest.param("simulate",
                     base_config(solver={"positivity_mode": "reject-and-halve"}),
                     "unknown field solver.positivity_mode",
                     id="simulate_positivity_mode_is_unknown"),
        pytest.param("simulate --dump-state 0.1", base_config(),
                     "keep time 0.1 is not a recorded time",
                     id="simulate_dump_time_between_output_times"),
    ])
    def test_exits_1_with_message(self, tmp_path, monkeypatch, capsys, command,
                                  cfg, message):
        monkeypatch.chdir(tmp_path)
        p = ModelParams(alpha=1.0, branching=2, depth=3)
        dump_state(np.full(p.n_nodes, 0.5), p, tmp_path / "s.bin")
        path = write_config(tmp_path, cfg)
        argv = command.split() + ["--config", path, "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ") and message in line
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,cfg,name", [
        pytest.param("fit-spectrum", {"params": {"alpha": 1.0, "depth": 3}},
                     "state_file", id="fit_spectrum_state_file"),
        pytest.param("lift", {"alpha_tilde": 0.5, "beta": 1.0, "depth": 3},
                     "classic_file", id="lift_classic_file"),
    ])
    @pytest.mark.parametrize("fd", [0, 1, 2])
    def test_file_name_that_is_a_descriptor(self, tmp_path, monkeypatch, capsys,
                                            command, cfg, name, fd):
        """A number is not a file name: open() would read or close that
        descriptor.  The config is rejected before any state is loaded."""
        def load(*args, **kwargs):
            raise AssertionError("load_state ran")

        monkeypatch.setattr(cli, "load_state", load)
        path = write_config(tmp_path, {**cfg, name: fd})
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {name} must be a string, got {fd}\n"
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


@pytest.mark.parametrize("command,cfg,solver", [
    pytest.param("simulate", base_config(), "integrate", id="simulate"),
    pytest.param("stationary", {"f": 10, "nu": 0.01, "beta": 3, "gamma": 1, "n_max": 60},
                 "solve_viscous_stationary", id="stationary"),
])
@pytest.mark.parametrize("out", ["", "file"])
def test_out_that_cannot_be_a_directory_exits_1_before_any_work(
        tmp_path, monkeypatch, capsys, command, cfg, solver, out):
    """An empty --out, or one that names an existing file, is bad input: the
    run stops before its solver starts, with a message and no traceback."""
    def solve(*args, **kwargs):
        raise AssertionError(f"{solver} ran")

    monkeypatch.setattr(cli, solver, solve)
    if out:
        out = tmp_path / "c.json"
        out.write_text("{}")
    path = write_config(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: --out ")
    if out:
        assert out.read_text() == "{}"


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


class TestNonFiniteOutput:
    """Cases at the edge of the float range, each run as a fresh CLI
    process: the exit code the contract gives, at most a one-line message
    naming what failed, no traceback, and no nan or infinity in any file
    written.  A command that exits 2 writes none of the files it failed
    on."""

    NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
    # X_0 = t: E_0 and the forcing work overflow, and the residual is
    # inf - inf (at depth 3 the same run takes 26,804 steps)
    ENERGY_OVERFLOWS = {"model": "tree", "params": {"alpha": 1, "branching": 2, "depth": 0,
                                                    "f": 1},
                        "initial": {"kind": "zero"}, "t_end": 1e300, "output_interval": 1e299}
    # E_0 settles at 1e10, and its viscous work integral passes the float
    # range before the first output time: integrate itself raises
    WORK_OVERFLOWS = {"model": "classic", "params": {"alpha": 1, "depth": 0, "f": 10,
                                                     "nu": 1e-3},
                      "initial": {"kind": "zero"}, "t_end": 1e300, "output_interval": 5e299}

    @pytest.mark.parametrize("command,cfg,code,names", [
        pytest.param("stationary", {"f": 1, "nu": 1, "beta": 1.5000001e-20,
                                    "gamma": 1e-20, "n_max": 10},
                     0, (), id="stationary_mu_near_zero"),
        # z^3 overflows, but not the flux: 2^(-8000/3) z^3 is about 2e-201
        pytest.param("stationary", {"f": 1, "nu": 1, "beta": 2000, "n_max": 10},
                     0, (), id="stationary_flux_of_an_overflowing_z_cubed"),
        pytest.param("stationary", {"f": 1e120, "nu": 1, "beta": 3, "n_max": 10},
                     2, ("asymptotic flux", "beyond the float range"),
                     id="stationary_flux_overflows"),
        pytest.param("dissipation-bound", {"epsilon": 0.1, "eta": 1,
                                           "alpha": 1.0000000000000002,
                                           "alpha_tilde": 1},
                     0, (), id="dissipation_bound_gap_near_zero"),
        pytest.param("dissipation-bound", {"epsilon": 1e-300, "eta": 1e300,
                                           "alpha": 2, "alpha_tilde": 1},
                     2, ("beyond the float range",), id="dissipation_bound_overflows"),
        pytest.param("simulate", ENERGY_OVERFLOWS,
                     2, ("trajectory.csv", "E_total"), id="simulate_energy_overflows"),
        pytest.param("simulate", WORK_OVERFLOWS,
                     2, ("work integrals", "t = 5e+299"), id="simulate_work_overflows"),
        pytest.param("lift", {"alpha_tilde": 0.5, "beta": 1, "depth": 3,
                              "classic_values": [1e300] * 4},
                     2, ("lift.csv", "generation_energy"), id="lift_energy_overflows"),
        pytest.param("lift", {"alpha_tilde": 0.5, "beta": 1, "depth": 3,
                              "classic_values": [1e154] * 4},
                     2, ("lift.json", "classic_norm_sq"), id="lift_norm_overflows"),
    ])
    def test_exit_code_message_and_files(self, tmp_path, command, cfg, code, names):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = tmp_path / "o"
        run = subprocess.run(
            [sys.executable, "-m", "dyadic_cascade.cli", command,
             "--config", write_config(tmp_path, cfg), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == code
        assert "Traceback" not in run.stderr
        if code == 0:
            assert run.stderr == ""
        else:
            (line,) = run.stderr.splitlines()
            assert line.startswith("numerical failure: NonFiniteResult: ")
            assert all(name in line for name in names)
            if names[0].endswith((".csv", ".json")):
                assert not (out / names[0]).exists()
            else:
                assert not out.exists()
        written = list(out.iterdir()) if out.exists() else []
        assert (code == 0) <= bool(written)
        for path in written:
            assert not self.NON_FINITE.search(path.read_text()), path.name

    @pytest.mark.parametrize("cfg,failure", [
        (WORK_OVERFLOWS, "work integrals"),  # in integrate, after the t = 0 row
        (ENERGY_OVERFLOWS, "trajectory.csv")], ids=["in_integrate", "at_trajectory_csv"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new_dir", "existing_dir"])
    def test_a_failing_run_leaves_no_dump(self, tmp_path, monkeypatch, capsys, cfg,
                                          failure, existing):
        # the dump at t = 0 is written while the run goes on, and removed
        # when it fails before trajectory.csv is written, with the
        # directories made for it; a directory that was there stays as it was
        dumped, write = [], cli.dump_state

        def dump_state(values, params, path):
            dumped.append(os.path.basename(path))
            return write(values, params, path)

        monkeypatch.setattr(cli, "dump_state", dump_state)
        out = tmp_path / "o" / "p"
        if existing:
            out.mkdir(parents=True)
            (out / "other.txt").write_text("x")
        argv = ["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out),
                "--dump-state", "0"]
        assert main(argv) == 2
        assert failure in capsys.readouterr().err
        assert dumped == ["state_t0.0.bin.tmp"]
        if existing:
            assert [p.name for p in out.iterdir()] == ["other.txt"]
        else:
            assert not (tmp_path / "o").exists()
