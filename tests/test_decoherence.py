"""Tests for the noise action, its closed form, and the decoherence timescales."""

import json
import math

import numpy as np
import pytest

from cdwring.bath import BathSpec
from cdwring.constants import HBAR
from cdwring.decoherence import (
    _gamma_early_rate,
    noise_action,
    gamma_early,
    gamma_early_lowT,
    tau_decoh,
)
from cdwring.errors import EvaluationError, RootNotFoundError
from cdwring.specfun import hyp1f2
from cdwring import cli, dynamics, ring

MU = 1e-8
PERIOD = 4.0 * math.pi * MU
FIG4 = BathSpec(s=1.2, g_s=1.0, Omega=1.0 / MU, T=0.0)


class TestNoiseAction:
    def test_zero_path_gives_zero(self):
        assert noise_action(0.0, 0.0, 1.0, FIG4, HBAR * MU) == 0.0

    def test_vanishing_coupling(self):
        weak = BathSpec(s=1.2, g_s=1e-12, Omega=1.0 / MU, T=0.0)
        val = noise_action(2.0 * math.pi, 1.0, PERIOD, weak, HBAR * MU)
        assert 0.0 <= val < 1e-12

    def test_early_time_reduction(self):
        # with the winding-sector boundary substitution, the exact noise
        # action reduces to the early-time quadrature form at small t
        # the dominant path climbs by G(t)/mu ~ t/mu; with boundaries
        # (0, G(t)/mu) the classical path is the linear ramp u/mu
        inertia = HBAR * MU
        for t in (0.25 * PERIOD, PERIOD, 2.0 * PERIOD):
            G, _ = dynamics.g_fun(FIG4, t)
            exact = noise_action(G / MU, 0.0, t, FIG4, inertia)
            approx = gamma_early(FIG4, MU, t)
            assert exact == pytest.approx(approx, rel=1e-2)

    def test_requires_positive_time(self):
        with pytest.raises(ValueError):
            noise_action(1.0, 0.0, 0.0, FIG4, HBAR * MU)

    def test_array_matches_scalar(self):
        t = 7.3 * PERIOD
        phi_f = 2.0 * math.pi * np.array([[94.0, 95.0, 96.0], [0.0, 1.0, -3.0]])
        phi_i = np.array([0.3, -1.2, 2.0])
        vals = noise_action(phi_f, phi_i, t, FIG4, HBAR * MU)
        assert vals.shape == (2, 3)
        for k in np.ndindex(vals.shape):
            one = noise_action(float(phi_f[k]), float(phi_i[k[1]]), t, FIG4,
                               HBAR * MU)
            assert type(one) is float
            assert vals[k] == pytest.approx(one, rel=1e-13)

    @pytest.mark.parametrize("spec", [
        FIG4,
        BathSpec(s=0.8, g_s=1.0, Omega=1.0 / MU, T=1e-3),
    ])
    @pytest.mark.parametrize("periods", [0.37, 7.3, 48.0])
    def test_quadratic_form_positive_semidefinite(self, spec, periods):
        # Gamma = A phi_f^2 + 2 B phi_f phi_i + C phi_i^2 is |Phi|^2 weighted
        # by a non-negative spectrum, so the form is positive semidefinite
        A, C, both = noise_action(np.array([1.0, 0.0, 1.0]),
                                  np.array([0.0, 1.0, 1.0]),
                                  periods * PERIOD, spec, HBAR * MU)
        B = 0.5 * (both - A - C)
        assert A >= 0.0
        assert C >= 0.0
        assert A * C - B * B >= -1e-10 * A * C

    @pytest.mark.parametrize("periods, expected", [
        # Gamma(1, 0), Gamma(0, 1), Gamma(1, 1) from the per-winding scalar
        # quadrature that the quadratic form replaced
        (0.37, (8.64130478427238e-08, 8.64131487380216e-08,
                2.5233482547971167e-07)),
        (7.3, (1.9228226984214808e-07, 1.9228307360970692e-07,
               4.10308614949539e-07)),
        (48.0, (2.3137671418853483e-07, 2.3137926122109655e-07,
                4.798407173255151e-07)),
    ])
    def test_pinned_values(self, periods, expected):
        vals = noise_action(np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0]),
                            periods * PERIOD, FIG4, HBAR * MU)
        np.testing.assert_allclose(vals, expected, rtol=1e-10, atol=0.0)

    def test_node_cap_raises(self):
        # Omega t = 2000 pi needs 4776 Gauss nodes, beyond the 4000 allowed
        with pytest.raises(EvaluationError) as info:
            noise_action(2.0 * math.pi, 1.0, 500.0 * PERIOD, FIG4, HBAR * MU)
        diag = info.value.diagnostics
        assert diag["n_nodes"] == 4776
        assert diag["omega_t"] == pytest.approx(2000.0 * math.pi)


class TestGammaEarly:
    def test_zero_at_origin(self):
        assert gamma_early(FIG4, MU, 0.0) == 0.0

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.2])
    def test_monotone_in_time(self, s):
        spec = BathSpec(s=s, g_s=1.0, Omega=1.0 / MU, T=0.0)
        grid = np.linspace(0.0, 10.0 * PERIOD, 200)
        vals = [gamma_early(spec, MU, float(t)) for t in grid]
        assert all(v >= 0.0 for v in vals)
        assert all(b >= a * (1.0 - 1e-10) for a, b in zip(vals, vals[1:]))

    def test_monotone_in_temperature(self):
        t = PERIOD
        vals = [gamma_early(BathSpec(s=1.2, g_s=1.0, Omega=1.0 / MU, T=T),
                            MU, t)
                for T in (0.0, 1e-4, 1e-2, 1.0)]
        assert all(b >= a * (1.0 - 1e-12) for a, b in zip(vals, vals[1:]))

    def test_matches_closed_form_fig4_scale(self):
        assert gamma_early(FIG4, MU, PERIOD) == pytest.approx(
            gamma_early_lowT(FIG4, MU, PERIOD), rel=1e-6)

    def test_matches_closed_form_random_pairs(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            s = rng.uniform(0.3, 1.8)
            t = rng.uniform(0.05, 20.0) * PERIOD
            spec = BathSpec(s=s, g_s=1.0, Omega=1.0 / MU, T=0.0)
            a = gamma_early(spec, MU, t)
            b = gamma_early_lowT(spec, MU, t)
            assert a == pytest.approx(b, rel=1e-6)

    @pytest.mark.parametrize("s", [0.5, 0.8, 1.2, 1.5])
    def test_rate_matches_closed_form(self, s):
        # at T = 0, int_0^Omega w^(s-2) (1 - cos wt) dw
        #   = Omega^(s-1) (1 - 1F2((s-1)/2; 1/2, (s+1)/2; -Omega^2 t^2 / 4)) / (s-1)
        spec = BathSpec(s=s, g_s=1.0, Omega=1.0 / MU, T=0.0)
        for t in np.geomspace(0.05, 40.0, 9) * PERIOD:
            f = hyp1f2(0.5 * (s - 1.0), 0.5, 0.5 * (s + 1.0),
                       -0.25 * (spec.Omega * t) ** 2)
            closed = (spec.g_s * t / (math.pi * MU) * spec.Omega ** (s - 1.0)
                      * (1.0 - f) / (s - 1.0))
            assert _gamma_early_rate(spec, MU, float(t)) == pytest.approx(
                closed, rel=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gamma_early(FIG4, MU, -1.0)
        with pytest.raises(ValueError):
            gamma_early(FIG4, 0.0, 1.0)


class TestGammaEarlyLowT:
    def test_zero_at_origin(self):
        assert gamma_early_lowT(FIG4, MU, 0.0) == 0.0

    def test_s1_removable_singularity(self):
        spec = BathSpec(s=1.0, g_s=1.0, Omega=1.0 / MU, T=0.0)
        for t in (0.3 * PERIOD, PERIOD, 5.0 * PERIOD):
            closed = gamma_early_lowT(spec, MU, t)
            quad = gamma_early(spec, MU, t)
            assert closed == pytest.approx(quad, rel=1e-6)

    def test_linear_in_coupling(self):
        strong = BathSpec(s=1.2, g_s=3.0, Omega=1.0 / MU, T=0.0)
        assert gamma_early_lowT(strong, MU, PERIOD) == pytest.approx(
            3.0 * gamma_early_lowT(FIG4, MU, PERIOD), rel=1e-12)


class TestTauDecoh:
    def test_fig4_value_stable(self):
        coarse = tau_decoh(FIG4, MU, rel_tol=1e-6)
        fine = tau_decoh(FIG4, MU, rel_tol=5e-7)
        assert coarse == pytest.approx(fine, rel=1e-5)
        # a few periods' worth of visible oscillations before decoherence
        n_periods = coarse / PERIOD
        assert 10.0 < n_periods < 1e4

    def test_doubling_coupling_decreases(self):
        strong = BathSpec(s=1.2, g_s=2.0, Omega=1.0 / MU, T=0.0)
        assert tau_decoh(strong, MU) < tau_decoh(FIG4, MU)

    def test_no_coupling_not_found(self):
        weak = BathSpec(s=1.2, g_s=1e-30, Omega=1.0 / MU, T=0.0)
        with pytest.raises(RootNotFoundError):
            tau_decoh(weak, MU, horizon_factor=1e3)


def _params_report(capsys, g="1"):
    """tau_damp, tau_decoh, tau_Q and N as ``cdwring params`` reports them."""
    assert cli.main(["params", "--s", "1.2", "--g", g, "--mu", "1e-8"]) == 0
    return json.loads(capsys.readouterr().out)


def _no_damping_time(spec):
    raise RootNotFoundError("forced miss")


class TestTauQ:
    # tau_Q = min(tau_damp, tau_decoh) and N = tau_Q / P are formed by the
    # params command, which keeps the reason of a timescale it cannot find

    def test_min_rule(self, capsys):
        # super-ohmic at these scales: damping is far slower than decoherence
        td = dynamics.tau_damp(FIG4)
        tdec = tau_decoh(FIG4, MU)
        doc = _params_report(capsys)
        assert doc["tau_Q"]["value"] == pytest.approx(min(td, tdec), rel=1e-9)
        assert tdec < td

    def test_falls_back_when_damping_missing(self, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "tau_damp", _no_damping_time)
        doc = _params_report(capsys)
        assert doc["tau_damp"] == {"value": None, "reason": "forced miss"}
        assert doc["tau_Q"]["value"] == doc["tau_decoh"]["value"]
        assert doc["tau_Q"]["value"] == pytest.approx(tau_decoh(FIG4, MU),
                                                      rel=1e-6)
        assert doc["N"]["value"] == pytest.approx(
            doc["tau_Q"]["value"] / PERIOD, rel=1e-15)

    def test_both_missing_propagates(self, capsys, monkeypatch):
        # the weak bath of TestTauDecoh: neither timescale is found, so tau_Q
        # and N are reported as null with a reason
        monkeypatch.setattr(dynamics, "tau_damp", _no_damping_time)
        doc = _params_report(capsys, g="1e-30")
        for key in ("tau_Q", "N"):
            assert doc[key]["value"] is None
            assert doc[key]["reason"]

    def test_lattice_points(self, capsys):
        doc = _params_report(capsys)
        assert doc["N"]["value"] == pytest.approx(
            doc["tau_Q"]["value"] / PERIOD, rel=1e-12)
