"""The Newton solves of the stationary and self-similar recurrences: agreement
with the forward-shooting oracle, the recurrence defect of the CLI output,
the parity certificate, head stability across n_max and solver statistics."""

import decimal
import json

import mpmath as mp
import numpy as np
import pytest

import shooting_oracle as oracle
from dyadic_cascade import (
    solve_selfsimilar_classic,
    solve_viscous_stationary,
    stationary,
    selfsimilar,
)
from dyadic_cascade.cli import main
from dyadic_cascade.errors import BracketFailure, NoConvergence
from dyadic_cascade.selfsimilar import _classify_dips
from dyadic_cascade.stationary import (
    _CERT_DPS,
    _CERT_LEVELS,
    REGIME_REGULAR,
    REGIME_SMALL_FORCING,
    _classify_parity,
)


def near_threshold(beta, gamma, scale):
    """(f, nu, beta, gamma) with g = scale * 1/(1 - 2^mu)."""
    mu = gamma - 2.0 * beta / 3.0
    g = scale / (1.0 - 2.0 ** mu)
    return (g / 2.0 ** (beta / 3.0), 1.0, beta, gamma)


REGULAR = [(1.0, 1.0, 1.0, 1.0), (50.0, 0.1, 1.0, 1.0), (1.0, 1.0, 2.0, 2.0),
           (1.0, 1.0, 3.0, 2.0), (1.0, 1.0, 0.5, 1.0)]
ANOMALOUS = [(10.0, 0.01, 3.0, 1.0), (1.5, 1.0, 3.0, 1.0)]
SMALL_FORCING = [(0.75, 1.0, 3.0, 1.0), (1.0, 10.0, 1.0, 0.1)]
THRESHOLD = [near_threshold(beta, gamma, s)
             for beta, gamma in ((0.5, 0.2), (1.0, 0.5), (2.0, 1.0), (3.0, 1.0))
             for s in (1 - 1e-3, 1 + 1e-3)]
ORACLE_N_MAX = 40


def rel(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


class TestOracleAgreement:
    @pytest.mark.parametrize("cfg", REGULAR + ANOMALOUS + SMALL_FORCING[:1] + THRESHOLD)
    def test_stationary_head(self, cfg):
        head = oracle.stationary_head(*cfg, ORACLE_N_MAX)
        assert len(head) >= 6
        for n_max in (ORACLE_N_MAX, 120):
            prof = solve_viscous_stationary(*cfg, n_max=n_max)
            k = len(head)
            assert rel(prof.z[1:k + 1], head) <= 1e-12
            assert rel(prof.z_log2[1:k + 1], np.log2(head)) <= 1e-12

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0])
    def test_selfsimilar_coefficients(self, beta):
        b = oracle.selfsimilar_b(beta, ORACLE_N_MAX)
        for n_max in (ORACLE_N_MAX, 120):
            prof = solve_selfsimilar_classic(-1.0, beta, n_max)
            assert rel(prof.b[:ORACLE_N_MAX + 1], b) <= 1e-12


def run_cli(tmp_path, command, cfg, name="o"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    code = main([command, "--config", str(path), "--out", str(out)])
    return code, out


def read_column(path, col=1):
    lines = path.read_text().splitlines()[1:]
    return [float(line.split(",")[col]) for line in lines]


class TestRecurrenceDefect:
    """The defect as the benchmark's checks compute it from the CLI files:
    relative to the largest term, on the well-conditioned stationary head
    (the result keeps >= 1e-6 of the larger term) and on every self-similar
    row."""

    # the second small-forcing case decays too fast for a 3-step head
    @pytest.mark.parametrize("cfg", REGULAR + ANOMALOUS + SMALL_FORCING[:1])
    def test_stationary(self, tmp_path, cfg):
        f, nu, beta, gamma = cfg
        code, out = run_cli(tmp_path, "stationary",
                            {"f": f, "nu": nu, "beta": beta, "gamma": gamma,
                             "n_max": 60})
        assert code == 0
        regime = json.loads((out / "regime.json").read_text())
        z = [regime["g"]] + read_column(out / "profile.csv")
        checked = 0
        for n in range(len(z) - 2):
            if not (z[n] > 0 and z[n + 1] > 0):
                break
            gain, loss = z[n] ** 2 / z[n + 1], 2.0 ** (regime["mu"] * n)
            largest = max(gain, loss)
            if not z[n + 2] >= 1e-6 * largest:
                break
            assert abs(z[n + 2] - (gain - loss)) <= 1e-12 * largest, n
            checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 5.0])
    def test_selfsimilar(self, tmp_path, beta):
        code, out = run_cli(tmp_path, "selfsimilar",
                            {"t0": -1.0, "beta": beta, "n_max": 60})
        assert code == 0
        b = read_column(out / "selfsimilar.csv")
        assert len(b) == 61 and min(b) > 0
        for n in range(60):
            prev = b[n - 1] if n else 0.0
            gain = 2.0 ** (beta * n) * prev ** 2
            loss = 2.0 ** (beta * (n + 1)) * b[n] * b[n + 1]
            assert abs(-b[n] - (gain - loss)) <= 1e-12 * max(b[n], gain, loss), n


class TestFormerDefects:
    """Cases the forward-shooting solver got wrong."""

    def test_regular_n_max_200_solves(self, tmp_path):
        # the width floor 10^-(dps-15) needed more halvings than the cap
        code, out = run_cli(tmp_path, "stationary",
                            {"f": 1, "nu": 1, "beta": 1, "gamma": 1, "n_max": 200})
        assert code == 0
        assert json.loads((out / "regime.json").read_text())["regime"] == REGIME_REGULAR

    def test_small_forcing_without_survivor_solves(self, tmp_path):
        # g = 0.126, mu < 0: no trial survived the full horizon
        code, out = run_cli(tmp_path, "stationary",
                            {"f": 1, "nu": 10, "beta": 1, "gamma": 0.1, "n_max": 60})
        assert code == 0
        regime = json.loads((out / "regime.json").read_text())
        assert regime["regime"] == REGIME_SMALL_FORCING

    def test_stationary_head_independent_of_n_max(self):
        # at n_max = 60 the value appended after the conditioning cap had lost
        # every digit: Z_8 = 1.2e-16 > Z_7 = 3.2e-40
        short = solve_viscous_stationary(1.0, 1.0, 2.0, 2.0, n_max=60)
        long = solve_viscous_stationary(1.0, 1.0, 2.0, 2.0, n_max=120)
        assert rel(short.z_log2, long.z_log2[:62]) <= 1e-12
        assert short.z_log2[9] == pytest.approx(np.log2(2.57e-81), rel=1e-2)
        assert (np.diff(short.z_log2[1:]) < 0).all()

    def test_selfsimilar_head_independent_of_n_max(self):
        # b at n_max 2, 6, 12 differed from the n_max = 200 head by 5e-7,
        # 4e-9 and 8e-11
        ref = solve_selfsimilar_classic(-1.0, 1.0, 200).b
        for n_max in (2, 6, 12):
            b = solve_selfsimilar_classic(-1.0, 1.0, n_max).b
            assert rel(b, ref[:n_max + 1]) <= 1e-12


GRID = REGULAR + ANOMALOUS + SMALL_FORCING + THRESHOLD


class TestCertificate:
    @pytest.mark.parametrize("cfg", GRID)
    @pytest.mark.parametrize("n_max", [2, 6, 20, 60, 120, 200, 300])
    def test_grid_solves_and_certifies(self, cfg, n_max):
        prof = solve_viscous_stationary(*cfg, n_max=n_max)
        lo, hi = prof.bracket
        root = prof.z[1]
        assert lo <= root <= hi
        assert hi - lo <= 1e-12 * root
        assert 0 < prof.newton_iterations <= 60
        assert prof.newton_residual <= 1e-14

    @pytest.mark.parametrize("beta", [0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("n_max", [2, 6, 12, 25, 60, 120, 200])
    def test_selfsimilar_grid_certifies(self, beta, n_max):
        prof = solve_selfsimilar_classic(-1.0, beta, n_max)
        lo, hi = prof.bracket
        assert lo <= prof.b[0] <= hi
        assert hi - lo <= 1e-12 * prof.b[0]
        assert 0 < prof.newton_iterations <= 20
        assert prof.newton_residual <= 1e-14

    @pytest.mark.parametrize("module, solve", [
        (stationary, lambda: solve_viscous_stationary(10.0, 0.01, 3.0, 1.0, n_max=60)),
        (selfsimilar, lambda: solve_selfsimilar_classic(-1.0, 1.0, 60)),
    ])
    def test_certificate_calls_its_module_bisect(self, monkeypatch, module, solve):
        """Each solver calls bisect_shooting through its own module global,
        classify first, and classifies only the two ends of the bracket."""
        calls = []
        original = module.bisect_shooting

        def counting(classify, *args, **kwargs):
            def counted(a):
                calls.append(a)
                return classify(a)
            return original(counted, *args, **kwargs)

        monkeypatch.setattr(module, "bisect_shooting", counting)
        solve()
        assert len(calls) == 2

    def test_wrong_newton_root_is_caught(self, monkeypatch):
        original = stationary.damped_newton

        def off_by(shift):
            def perturbed(system, x, what):
                x, its, res = original(system, x, what)
                x = x.copy()
                x[0] += shift
                return x, its, res
            return perturbed

        # u_0 = ln Z_0, so a shift of u_0 is a relative shift of Z_0; the
        # bracket's half-width is 4e-13, so 1e-12 and more are caught
        for shift in (1e-8, 1e-10, 1e-12):
            monkeypatch.setattr(stationary, "damped_newton", off_by(shift))
            with pytest.raises(BracketFailure, match="expected \\(raise, lower\\)"):
                solve_viscous_stationary(1.5, 1.0, 3.0, 1.0, n_max=30)
        monkeypatch.setattr(stationary, "damped_newton", off_by(1e-14))
        prof = solve_viscous_stationary(1.5, 1.0, 3.0, 1.0, n_max=30)
        lo, hi = prof.bracket
        assert lo <= prof.z[1] <= hi

    def test_wrong_selfsimilar_root_is_caught(self, monkeypatch):
        original = selfsimilar.damped_newton

        def off_by(factor):
            def perturbed(system, x, what):
                x, its, res = original(system, x, what)
                x = x.copy()
                x[0] *= factor
                return x, its, res
            return perturbed

        monkeypatch.setattr(selfsimilar, "damped_newton", off_by(1 + 1e-12))
        with pytest.raises(BracketFailure, match="on b_0"):
            solve_selfsimilar_classic(-1.0, 1.0, 30)
        monkeypatch.setattr(selfsimilar, "damped_newton", off_by(1 - 1e-14))
        prof = solve_selfsimilar_classic(-1.0, 1.0, 30)
        lo, hi = prof.bracket
        assert lo <= prof.b[0] <= hi

    def test_wrong_newton_root_exits_2(self, tmp_path, monkeypatch, capsys):
        original = selfsimilar.damped_newton

        def perturbed(system, x, what):
            x, its, res = original(system, x, what)
            return x * (1 + 1e-8), its, res

        monkeypatch.setattr(selfsimilar, "damped_newton", perturbed)
        code, _ = run_cli(tmp_path, "selfsimilar", {"t0": -1.0, "beta": 1.0})
        assert code == 2
        assert "BracketFailure" in capsys.readouterr().err

    def test_overflowing_tail_is_a_numerical_failure(self):
        with pytest.raises(NoConvergence, match="float64 range"):
            solve_viscous_stationary(1.0, 1.0, 1.0, 1.0, n_max=1100)


def certificate_verdicts(monkeypatch, module, solve):
    """The trials a solver's certificate classifies and its verdicts."""
    trials, verdicts = [], []
    original = module.bisect_shooting

    def recording(classify, *args, **kwargs):
        def recorded(a):
            trials.append(a)
            verdicts.append(classify(a))
            return verdicts[-1]
        return original(recorded, *args, **kwargs)

    monkeypatch.setattr(module, "bisect_shooting", recording)
    solve()
    return trials, verdicts


class TestDecimalCertificate:
    """The decimal certificate reads, as (class, index) at both ends, what
    the mpmath certificate it replaced read: 96 digits, 104 levels, and g, mu
    or q formed in mpmath from the model parameters."""

    @pytest.mark.parametrize("cfg", [(1.0, 1.0, 1.0, 1.0), (10.0, 0.01, 3.0, 1.0),
                                     (1.0, 10.0, 1.0, 0.1), (1.0, 1.0, 2.0, 2.0),
                                     (50.0, 0.1, 1.0, 1.0)])
    @pytest.mark.parametrize("n_max", [60, 200])
    def test_stationary_verdicts_match_mpmath(self, monkeypatch, cfg, n_max):
        f, nu, beta, gamma = cfg
        trials, verdicts = certificate_verdicts(
            monkeypatch, stationary,
            lambda: solve_viscous_stationary(*cfg, n_max=n_max))
        with mp.workdps(_CERT_DPS):
            g = mp.mpf(2) ** (mp.mpf(beta) / 3) * mp.mpf(f) / mp.mpf(nu)
            mu = mp.mpf(gamma) - 2 * mp.mpf(beta) / 3
            expected = [oracle.classify_parity(g, mp.mpf(a), mu, _CERT_LEVELS)
                        for a in trials]
        assert verdicts == expected
        assert [c for c, _ in verdicts] == ["raise", "lower"]

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0])
    def test_selfsimilar_verdicts_match_mpmath(self, monkeypatch, beta):
        trials, verdicts = certificate_verdicts(
            monkeypatch, selfsimilar,
            lambda: solve_selfsimilar_classic(-1.0, beta, 120))
        with mp.workdps(_CERT_DPS):
            q_eps = mp.mpf(2) ** (-2 * mp.mpf(beta) / 3)
            expected = [oracle.classify_dips(mp.mpf(a), q_eps, _CERT_LEVELS,
                                             oracle.DIP_RATIO)
                        for a in trials]
        assert verdicts == expected
        assert [c for c, _ in verdicts] == ["raise", "lower"]

    @pytest.mark.parametrize("classify, args, signal", [
        (_classify_parity, (3.0, 1.0, 1e300, 10), "Overflow"),  # 2^mu
        (_classify_parity, (decimal.Decimal("1e999999999999999990"), 1.0, 0.0, 10),
         "Overflow"),                                            # g^2
        (_classify_parity, (3.0, 0.0, -1.0, 10), "DivisionByZero"),
        (_classify_dips, (decimal.Decimal("1e-999999999999999990"), 0.5, 10),
         "Underflow"),
        (_classify_parity, (3.0, float("nan"), -1.0, 10), "InvalidOperation"),
    ])
    def test_decimal_signals_are_bracket_failures(self, classify, args, signal):
        with decimal.localcontext() as ctx:
            ctx.prec = 7
            before = (ctx.prec, ctx.Emax, ctx.Emin, dict(ctx.traps), dict(ctx.flags))
            with pytest.raises(BracketFailure, match=signal):
                classify(*args)
            assert decimal.getcontext() is ctx
            assert (ctx.prec, ctx.Emax, ctx.Emin, dict(ctx.traps),
                    dict(ctx.flags)) == before


class TestSolverStatistics:
    @pytest.mark.parametrize("command, cfg, name", [
        ("stationary", {"f": 10.0, "nu": 0.01, "beta": 3.0, "gamma": 1.0,
                        "n_max": 60}, "regime.json"),
        ("stationary", {"f": 1.0, "nu": 1.0, "beta": 1.0, "n_max": 120},
         "regime.json"),
        ("selfsimilar", {"t0": -1.0, "beta": 1.0, "alpha_tilde": 0.5,
                         "n_max": 60}, "selfsimilar.json"),
    ])
    def test_keys_and_byte_identical_reruns(self, tmp_path, command, cfg, name):
        outs = [run_cli(tmp_path, command, cfg, f"run{i}") for i in range(2)]
        assert [code for code, _ in outs] == [0, 0]
        first, second = (out / name for _, out in outs)
        assert first.read_bytes() == second.read_bytes()
        summary = json.loads(first.read_text())
        assert isinstance(summary["newton_iterations"], int)
        assert summary["newton_iterations"] > 0
        assert 0.0 <= summary["newton_residual"] <= 1e-14
        lo, hi = summary["bracket"]
        assert lo < hi
        for csv in ("profile.csv", "selfsimilar.csv"):
            if (outs[0][1] / csv).exists():
                assert (outs[0][1] / csv).read_bytes() == (outs[1][1] / csv).read_bytes()
