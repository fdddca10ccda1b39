"""Tests for the command-line front end: parsing, emission, exit codes."""

import hashlib
import json
import math

import numpy as np
import pytest

from scipy.integrate import quad

from cdwring import cli, decoherence, oracle, dynamics, ring
from cdwring.bath import BathSpec
from cdwring.errors import EvaluationError


def run(argv):
    """Invoke the CLI in-process, normalizing SystemExit to an exit code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def read_csv(path):
    comments, columns, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return comments, columns, np.array(rows)


class TestGfun:
    def test_basic_output(self, tmp_path):
        out = tmp_path / "gfun.csv"
        code = run(["gfun", "--s", "0.8,1.0,1.2", "--g", "1", "--mu", "1e-8",
                    "--t-max-periods", "20", "--points", "50",
                    "--out", str(out)])
        assert code == 0
        comments, columns, rows = read_csv(out)
        assert columns == ["s", "t", "t_over_P", "G", "Gdot"]
        assert rows.shape == (150, 5)
        # Gdot(0) = 1 for every exponent
        starts = rows[rows[:, 1] == 0.0]
        assert np.allclose(starts[:, 4], 1.0)

    def test_header_records_config_and_version(self, tmp_path):
        out = tmp_path / "gfun.csv"
        run(["gfun", "--mu", "1e-8", "--points", "2", "--out", str(out)])
        comments, _, _ = read_csv(out)
        header = json.loads(comments[0][1:].strip())
        assert header["tool"] == "cdwring"
        assert "version" in header
        assert header["config"]["mu"] == 1e-8
        assert header["config"]["points"] == 2

    def test_ohmic_column_matches_closed_form(self, tmp_path):
        out = tmp_path / "gfun.csv"
        run(["gfun", "--s", "1.0", "--g", "1", "--mu", "1e-8",
             "--t-max-periods", "10", "--points", "40", "--out", str(out)])
        _, _, rows = read_csv(out)
        t = rows[:, 1]
        assert np.allclose(rows[:, 3], (1.0 - np.exp(-t)), rtol=1e-8,
                           atol=1e-20)
        assert np.allclose(rows[:, 4], np.exp(-t), rtol=1e-8)

    def test_minimal_grid(self, tmp_path):
        out = tmp_path / "gfun.csv"
        assert run(["gfun", "--mu", "1e-8", "--points", "2",
                    "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert rows.shape[0] == 2
        assert columns is not None

    def test_deterministic_output(self, capsys):
        args = ["gfun", "--s", "1.2", "--mu", "1e-8", "--points", "20"]
        run(args)
        first = capsys.readouterr().out
        run(args)
        second = capsys.readouterr().out
        assert first == second

    def test_full_precision_floats(self, tmp_path):
        out = tmp_path / "gfun.csv"
        run(["gfun", "--s", "1.2", "--mu", "1e-8", "--points", "5",
             "--out", str(out)])
        for line in out.read_text().splitlines():
            if line.startswith("#") or line.startswith("s,"):
                continue
            for token in line.split(","):
                assert token == f"{float(token):.17g}"

    def test_json_format(self, tmp_path):
        out = tmp_path / "gfun.json"
        run(["gfun", "--mu", "1e-8", "--points", "3", "--format", "json",
             "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["s", "t", "t_over_P", "G", "Gdot"]
        assert len(doc["rows"]) == 3


class TestAmplitude:
    def test_fig4_style_output(self, tmp_path):
        out = tmp_path / "amp.csv"
        code = run(["amplitude", "--s", "1.2", "--g", "1", "--mu", "1e-8",
                    "--t-max-periods", "10", "--points", "80",
                    "--out", str(out)])
        assert code == 0
        _, columns, rows = read_csv(out)
        assert columns == ["t", "t_over_P", "n1_osc", "Gamma"]
        assert rows[0, 2] == 0.0                      # n1_osc(0) = 0 exactly
        gam = rows[:, 3]
        assert np.all(np.diff(gam) >= -1e-12)         # Gamma non-decreasing
        # the signal oscillates: multiple sign changes across the window
        signs = np.sign(rows[1:, 2])
        assert np.sum(np.abs(np.diff(signs)) > 0) >= 5


class TestWexp:
    def test_no_damping_null(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run(["wexp", "--s", "1.2", "--g", "1e-12", "--mu", "1e-8",
                    "--state", "ground", "--t-max-periods", "3",
                    "--points", "4", "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        assert np.all(rows[:, 4] < 1e-6)

    def test_isolated_periodicity(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run(["wexp", "--mu", "1e-8", "--state", "gaussian:0,0.3",
                    "--isolated", "--t-max-periods", "1", "--points", "3",
                    "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        w0 = complex(rows[0, 2], rows[0, 3])
        w1 = complex(rows[2, 2], rows[2, 3])
        assert abs(w1 - w0) < 1e-9

    def test_early_flag(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run(["wexp", "--s", "1.2", "--g", "1", "--mu", "1e-8",
                    "--state", "ground", "--early", "--t-max-periods", "2",
                    "--points", "5", "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        spec = BathSpec(s=1.2, g_s=1.0, Omega=1e8, T=0.0)
        for t, _, re_w, im_w, _ in rows[1:]:
            ref = ring.w_early(ring.RingState.ground(), spec, 1e-8, t)
            assert complex(re_w, im_w) == pytest.approx(ref, abs=1e-12)

    def test_momentum_state_descriptor(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["wexp", "--mu", "1e-8", "--state", "momentum:2",
                    "--isolated", "--points", "2", "--out", str(out)]) == 0

    def test_bad_state_descriptor(self):
        assert run(["wexp", "--mu", "1e-8", "--state", "bogus"]) == 1


class TestParams:
    def test_json_report(self, capsys):
        code = run(["params", "--s", "1.2", "--g", "1", "--mu", "1e-8"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mu"]["value"] == 1e-8
        assert doc["P"]["value"] == pytest.approx(4.0 * math.pi * 1e-8)
        assert doc["omega_s"]["unit"] == "Hz"
        assert doc["tau_Q"]["value"] == pytest.approx(
            min(doc["tau_damp"]["value"], doc["tau_decoh"]["value"]))
        assert doc["N"]["value"] == pytest.approx(
            doc["tau_Q"]["value"] / (4.0 * math.pi * 1e-8))

    def test_ohmic_weak_coupling_lifetime_is_decoherence(self, capsys):
        # mu gamma << 1: decoherence wins over damping
        code = run(["params", "--s", "1.0", "--g", "1", "--mu", "1e-8"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tau_Q"]["value"] == pytest.approx(
            doc["tau_decoh"]["value"], rel=1e-9)
        assert doc["tau_decoh"]["value"] < doc["tau_damp"]["value"]

    def test_missing_timescale_reported_with_reason(self, capsys):
        code = run(["params", "--s", "1.2", "--g", "1e-30", "--mu", "1e-8"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tau_decoh"]["value"] is None
        assert doc["tau_decoh"]["reason"]
        assert doc["tau_Q"]["value"] == doc["tau_damp"]["value"]


class TestOracleCommand:
    def test_quick_suite_passes(self, capsys):
        code = run(["oracle", "--quick", "--s", "1.2", "--g", "1",
                    "--mu", "1e-8"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_fault_injection_detected(self, capsys, monkeypatch):
        true_discretize = oracle.discretize_bath

        def tampered(spec, inertia, n_modes, mass=1.0):
            bath = true_discretize(spec, inertia, n_modes, mass)
            return oracle.DiscreteBath(omegas=bath.omegas,
                                       couplings=1.05 * bath.couplings,
                                       mass=bath.mass, inertia=bath.inertia)

        monkeypatch.setattr(oracle, "discretize_bath", tampered)
        code = run(["oracle", "--quick", "--s", "1.2", "--g", "1",
                    "--mu", "1e-8"])
        out = capsys.readouterr().out
        assert code == 3
        assert "FAIL" in out
        assert "noise_kernel_direct_vs_quadrature" in out


class TestConfigAndExitCodes:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"s": 1.2, "g": 1.0, "mu": 1e-8,
                                   "points": 3}))
        out = tmp_path / "g.csv"
        code = run(["gfun", "--config", str(cfg), "--points", "5",
                    "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        assert rows.shape[0] == 5  # flag overrides config

    def test_unknown_config_field(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mu": 1e-8, "wavelength": 3}))
        assert run(["gfun", "--config", str(cfg)]) == 1

    def test_missing_config_file(self):
        assert run(["gfun", "--config", "/nonexistent/run.json"]) == 1

    def test_malformed_config_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        assert run(["gfun", "--config", str(cfg)]) == 1

    def test_unknown_flag(self):
        assert run(["gfun", "--bogus-flag", "1"]) == 1

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    def test_too_few_points(self):
        assert run(["gfun", "--mu", "1e-8", "--points", "1"]) == 1

    def test_numerical_failure_exit_code(self, monkeypatch):
        def broken(spec, t):
            raise EvaluationError("forced failure", t=t)

        monkeypatch.setattr(dynamics, "g_fun", broken)
        assert run(["gfun", "--mu", "1e-8", "--points", "3"]) == 2

    def test_early_quadrature_error_exit_code(self, monkeypatch, capsys):
        # an error estimate above 1e-6 of the early-time integral raises
        def inaccurate(*args, **kwargs):
            value, _ = quad(*args, **kwargs)
            return value, 1e-3 * abs(value) + 1e-300

        monkeypatch.setattr(decoherence, "quad", inaccurate)
        assert run(["amplitude", "--mu", "1e-8", "--points", "3"]) == 2
        assert "early-time quadrature" in capsys.readouterr().err

    def test_noise_action_node_cap_exit_code(self, capsys):
        # 500 P at Omega = 1/mu needs more Gauss nodes than noise_action allows
        assert run(["wexp", "--s", "1.2", "--g", "1", "--mu", "1e-8",
                    "--t-max-periods", "500", "--points", "2"]) == 2
        assert "Gauss nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("command, g", [
        pytest.param(["wexp"], "1e9", id="1e9"),
        pytest.param(["wexp"], "1e7", id="1e7"),
        pytest.param(["amplitude"], "1e9", id="amplitude-1e9"),
        pytest.param(["amplitude"], "1e7", id="amplitude-1e7"),
        pytest.param(["wexp", "--early"], "1e9", id="early-1e9"),
        pytest.param(["wexp", "--early"], "1e7", id="early-1e7"),
    ])
    def test_vanishing_gdot_exit_code(self, command, g, capsys):
        # ohmic Gdot = e^-g t at 48 P: 0.0 for g = 1e9, 6.4e-27 for g = 1e7,
        # both far past the winding bound of w_general, which amplitude and
        # wexp --early share
        assert run([*command, "--s", "1", "--g", g, "--mu", "1e-8",
                    "--t-max-periods", "48", "--points", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "windings per sector" in err

    def test_stdout_emission(self, capsys):
        code = run(["gfun", "--mu", "1e-8", "--points", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("#")
        assert "s,t,t_over_P,G,Gdot" in out


# One short command of each kind and the SHA-256 of its stdout, recorded
# with numpy 2.4.6, scipy 1.17.1 and mpmath 1.3.0 on x86-64.  A refactor
# that keeps the numbers must keep these digests; a change that moves them
# on purpose records the new digests and says why.
BYTE_IDENTITY = {
    "gfun": (["gfun", "--s", "0.8,1.0,1.2", "--g", "1", "--mu", "1e-8",
              "--t-max-periods", "20", "--points", "12"],
             "7c09b5a5d7e821f342ce1c9a768cd13635196ae85ca2b6f97a2b36525d886955"),
    "amplitude": (["amplitude", "--s", "1.2", "--g", "1", "--mu", "1e-8",
                   "--temperature", "0.005", "--t-max-periods", "10",
                   "--points", "8"],
                  "79e69a0d56f534f2c757a58e94338c62e3ec340b6ad8aeaa6076f152f976096f"),
    "wexp": (["wexp", "--s", "1.2", "--g", "1", "--mu", "1e-8",
              "--state", "gaussian:0.9,0.4", "--t-max-periods", "3",
              "--points", "4"],
             "aed7a3339a478e710992fc5ed50c0c5e18679526ed8dc6e512de7101b70d1cf7"),
    "wexp_early": (["wexp", "--s", "1.2", "--g", "1", "--mu", "1e-8",
                    "--state", "ground", "--early", "--t-max-periods", "2",
                    "--points", "5"],
                   "6d3c16d6302604d37da34e7e0659e894682201536dc847d542e874ada480b2a2"),
    "wexp_isolated": (["wexp", "--mu", "1e-8", "--state", "gaussian:0,0.3",
                       "--isolated", "--t-max-periods", "1", "--points", "5"],
                      "e370fc8d415796a7622b3775abb1a9bbeaee5ac4c93eddff155829cc39052a6a"),
    "params": (["params", "--s", "1.2", "--g", "1", "--mu", "1e-8"],
               "c99778e07151e475ed0396ef60a221e23c094df26e63247c19091ae8fdd330c6"),
    "oracle": (["oracle", "--quick", "--s", "1.2", "--g", "1", "--mu", "1e-8"],
               "4171c0fa0134a9963c93a8cd1eaaa3c167b77bbad6397fcbbf8eea8e5e4c9a1f"),
    "oracle_full": (["oracle", "--s", "1.0", "--g", "1", "--mu", "1e-8"],
                    "58d71fb9c57945a20c0478ac009162cb5e6d33e0050195064ccc28ad7a72ffc7"),
}


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(BYTE_IDENTITY))
    def test_output_digest(self, name, capsys):
        argv, digest = BYTE_IDENTITY[name]
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
