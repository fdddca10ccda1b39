"""End-to-end acceptance gate.

Each test evaluates one numbered criterion at its stated tolerance, prints a
single machine-readable pass/fail line, and asserts.  Run with ``-s`` (or rely
on captured output of failures) to see the lines.

Notes on two criteria:

* Criterion 3 runs the discrete-bath oracle, which carries the spectral
  weight above the cutoff as a tail inertia; without it a hard-cutoff bath
  leaves the ring with the effective inertia I (1 - delta),
  delta = 2 g Omega^(s-2) / ((2 - s) pi).

* Criterion 8: for the flat (fully delocalized) initial state the leading
  contributions to the expectation value cancel, so the signal is of order
  1 - Gdot and every winding matters.  ``w_early`` and ``w_general`` are the
  same winding sum (``ring.w_general``).  They differ only in the path whose
  noise action damps each winding: the free path
  phi-(u) = (u/t) phi_f + (1 - u/t) phi_i for ``w_early``, the damped
  classical path for ``w_general``.  At the FIG4 bath the gap grows from
  5.6e-11 at 0.05 tau_Q to 3.85e-9 at 0.3 tau_Q, against an allowance of 2%
  of the signal (1.06e-5).  ``TestWGeneral::test_flat_state_closed_form`` in
  ``tests/test_ring.py`` checks both routes against the winding sum in
  closed form.
"""

import math
import time

import numpy as np
import pytest

from cdwring import cli, decoherence, dynamics, oracle, ring, specfun
from cdwring.bath import BathSpec, omega_s
from cdwring.constants import HBAR

MU = 1e-8
PERIOD = 4.0 * math.pi * MU
FIG4 = BathSpec(s=1.2, g_s=1.0, Omega=1.0 / MU, T=0.0)


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:2d}] {status}  {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_01_ohmic_exactness():
    spec = BathSpec(s=1.0, g_s=1.0, Omega=1e3, T=0.0)
    worst = 0.0
    for t in np.linspace(0.0, 10.0, 200):
        G, Gdot = dynamics.g_fun(spec, float(t))
        G_ref = 1.0 - math.exp(-t)
        Gdot_ref = math.exp(-t)
        if t > 0:
            worst = max(worst, abs(G - G_ref) / G_ref,
                        abs(Gdot - Gdot_ref) / Gdot_ref)
        else:
            worst = max(worst, abs(G), abs(Gdot - 1.0))
    report(1, worst <= 1e-8,
           f"ohmic G/Gdot vs closed form: max rel err {worst:.2e} (tol 1e-8)")


def test_02_cross_oracle_G():
    worst = 0.0
    for s in (0.8, 1.2):
        spec = BathSpec(s=s, g_s=1.0, Omega=1e3, T=0.0)
        ws = omega_s(spec)

        def image(z):
            return 1.0 / (z * z + z * ws ** (2.0 - s) * z ** (s - 1.0))

        for t in np.geomspace(1e-3 / ws, 1e2 / ws, 50):
            G, _ = dynamics.g_fun(spec, float(t))
            ref = specfun.inverse_laplace(image, float(t))
            worst = max(worst, abs(G - ref) / abs(ref))
    report(2, worst <= 1e-6,
           f"Mittag-Leffler vs Talbot inversion: max rel err {worst:.2e} "
           f"(tol 1e-6)")


def test_03_discrete_bath_ode():
    # cutoffs per exponent, shared with ``cdwring oracle``; scaled units
    n_modes = 4096
    details = []
    worst = 0.0
    for s, Om in oracle.ODE_CUTOFFS.items():
        spec = BathSpec(s=s, g_s=1.0, Omega=Om, T=0.0)
        recurrence = 2.0 * math.pi * n_modes / Om
        t_end = min(dynamics.tau_damp(spec), 0.5 * recurrence)
        t_grid = np.linspace(0.25 * t_end, t_end, 4)
        bath = oracle.discretize_bath(spec, 1.0, n_modes)
        traj = oracle.simulate_bath_ode(bath, 0.0, 1.0, t_grid)
        ref = np.array([dynamics.g_fun(spec, float(t))[0] for t in t_grid])
        err = float(np.max(np.abs(traj - ref) / np.abs(ref)))
        worst = max(worst, err)
        details.append(f"s={s}: {err:.2e}")
    report(3, worst <= 1e-3,
           "bath ODE vs fundamental solution (tol 1e-3): "
           + ", ".join(details))


def test_04_gamma_closed_form():
    worst = 0.0
    for s in (0.5, 1.2):
        spec = BathSpec(s=s, g_s=1.0, Omega=1.0 / MU, T=0.0)
        for t in np.linspace(0.0, 10.0 * PERIOD, 25):
            a = decoherence.gamma_early(spec, MU, float(t))
            b = decoherence.gamma_early_lowT(spec, MU, float(t))
            if a != 0.0:
                worst = max(worst, abs(a - b) / abs(a))
            else:
                worst = max(worst, abs(b))
    report(4, worst <= 1e-6,
           f"closed-form vs quadrature noise action: max rel err {worst:.2e} "
           f"(tol 1e-6)")


def test_05_amplitude_reproduction(tmp_path):
    out = tmp_path / "amplitude.csv"
    code = cli.main(["amplitude", "--s", "1.2", "--g", "1", "--mu", "1e-8",
                     "--t-max-periods", "6", "--points", "1200",
                     "--out", str(out)])
    assert code == 0
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in out.read_text().splitlines()
                     if line and not line.startswith("#")
                     and not line.startswith("t,")])
    t, amp, gam = rows[:, 0], rows[:, 2], rows[:, 3]
    zero_exact = amp[0] == 0.0
    # zero crossings of the oscillating factor: the sign flips twice per
    # period, so alternate crossings are one full period apart
    idx = np.nonzero(np.diff(np.sign(amp[1:])) != 0)[0] + 1
    crossings = t[idx] - amp[idx] * (t[idx + 1] - t[idx]) / (amp[idx + 1]
                                                             - amp[idx])
    early = crossings[:8]
    spacings = early[2:] - early[:-2]
    spacing_ok = bool(np.all(np.abs(spacings - PERIOD) <= 0.01 * PERIOD))
    envelope_ok = bool(np.all(np.diff(np.exp(-gam)) <= 1e-12))
    ok = zero_exact and spacing_ok and envelope_ok
    report(5, ok,
           f"amplitude curve: n1_osc(0)=0 {zero_exact}, period spacing "
           f"within 1% {spacing_ok}, monotone envelope {envelope_ok}")


def test_06_no_damping_null():
    weak = BathSpec(s=1.2, g_s=1e-12, Omega=1.0 / MU, T=0.0)
    inertia = HBAR * MU
    worst = 0.0
    for t in np.linspace(0.25 * PERIOD, 5.0 * PERIOD, 20):
        w = ring.w_general(ring.RingState.ground(), weak, MU, inertia,
                           float(t))
        worst = max(worst, abs(w))
    report(6, worst < 1e-6,
           f"no-damping flat-state null: max |<W>| {worst:.2e} (tol 1e-6)")


def test_07_isolated_periodicity():
    state = ring.RingState.wrapped_gaussian(0.0, 0.3)
    worst = 0.0
    for t in np.linspace(0.0, PERIOD, 10):
        w0 = ring.w_isolated(state, MU, float(t))
        w1 = ring.w_isolated(state, MU, float(t) + PERIOD)
        worst = max(worst, abs(w1 - w0))
    report(7, worst < 1e-9,
           f"isolated periodicity: max |<W(t+P)> - <W(t)>| {worst:.2e} "
           f"(tol 1e-9)")


def test_08_early_general_consistency():
    state = ring.RingState.ground()
    inertia = HBAR * MU
    tau_q = min(dynamics.tau_damp(FIG4), decoherence.tau_decoh(FIG4, MU))
    fractions = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    w_early_vals, gaps = [], []
    for frac in fractions:
        t = frac * tau_q
        we = ring.w_early(state, FIG4, MU, t)
        wg = ring.w_general(state, FIG4, MU, inertia, t)
        w_early_vals.append(abs(we))
        gaps.append(abs(we - wg))
    scale = max(w_early_vals)
    worst = max(gaps)
    report(8, worst <= 0.02 * scale,
           f"early vs general, flat state, t <= 0.3 tau_Q: max gap "
           f"{worst:.2e} vs allowance {0.02 * scale:.2e}")


def test_09_monotonicity_suite():
    checks = []
    # noise action monotone in t and in T
    grid = np.linspace(0.0, 8.0 * PERIOD, 60)
    gam_t = [decoherence.gamma_early(FIG4, MU, float(t)) for t in grid]
    checks.append(all(b >= a * (1 - 1e-10) for a, b in zip(gam_t, gam_t[1:])))
    gam_T = [decoherence.gamma_early(
        BathSpec(s=1.2, g_s=1.0, Omega=1.0 / MU, T=T), MU, PERIOD)
        for T in (0.0, 1e-4, 1e-2, 1.0)]
    checks.append(all(b >= a * (1 - 1e-12) for a, b in zip(gam_T, gam_T[1:])))
    # fundamental solution initial data
    G0, Gdot0 = dynamics.g_fun(FIG4, 0.0)
    checks.append(G0 == 0.0 and Gdot0 == 1.0)
    # amplitude bound
    n1 = 0.7
    checks.append(all(
        abs(ring.charge_density_amplitude(FIG4, MU, n1, float(t))[0]) <= n1
        for t in np.linspace(0.0, 10.0 * PERIOD, 40)))
    # expectation-value bound across the implemented paths
    state = ring.RingState.wrapped_gaussian(0.0, 0.4)
    inertia = HBAR * MU
    ws = []
    for t in (0.3 * PERIOD, PERIOD, 2.5 * PERIOD):
        ws.append(abs(ring.w_isolated(state, MU, t)))
        ws.append(abs(ring.w_early(state, FIG4, MU, t)))
        ws.append(abs(ring.w_general(state, FIG4, MU, inertia, t)))
    checks.append(all(w <= 1.0 + 1e-6 for w in ws))
    report(9, all(checks),
           f"monotonicity/bound properties: {sum(checks)}/{len(checks)} "
           f"sub-checks passed")


def test_10_cutoff_sensitivity():
    # quartic-onset regime: strong sub-ohmic coupling decoheres the ring
    # before the noise action saturates, exposing the cutoff dependence
    g = 4.65e15
    taus = {}
    for factor in (0.1, 0.5, 5.0):
        spec = BathSpec(s=0.5, g_s=g, Omega=factor / MU, T=0.0)
        taus[factor] = decoherence.tau_decoh(spec, MU)
    plateau_ratio = taus[0.1] / taus[0.5]
    drop_ratio = taus[0.5] / taus[5.0]
    ok = plateau_ratio < 2.0 and drop_ratio > 2.0
    report(10, ok,
           f"cutoff sensitivity of tau_decoh: plateau ratio "
           f"{plateau_ratio:.3f} (< 2), high-cutoff drop {drop_ratio:.3f} "
           f"(> 2)")
