"""Tests for ring states and expectation values of the sliding operator."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdwring.bath import BathSpec
from cdwring.constants import HBAR
from cdwring.decoherence import gamma_early, noise_action
from cdwring.dynamics import g_fun, g_ddot
from cdwring import decoherence
from cdwring.ring import (
    RingState,
    _periodic_integral,
    _windings,
    w_isolated,
    w_general,
    w_early,
    charge_density_amplitude,
    charge_density,
)
from cdwring.errors import EvaluationError

MU = 1e-8
PERIOD = 4.0 * math.pi * MU
FIG4 = BathSpec(s=1.2, g_s=1.0, Omega=1.0 / MU, T=0.0)
NO_DAMPING = BathSpec(s=1.2, g_s=1e-12, Omega=1.0 / MU, T=0.0)


class TestRingState:
    @pytest.mark.parametrize("state", [
        RingState.ground(),
        RingState.momentum(3),
        RingState.wrapped_gaussian(0.0, 0.3),
        RingState.wrapped_gaussian(1.2, 0.7),
    ])
    def test_normalized(self, state):
        assert state.trace() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("state", [
        RingState.momentum(2),
        RingState.wrapped_gaussian(0.4, 0.5),
    ])
    def test_hermitian_kernel(self, state):
        a = np.linspace(-3.0, 3.0, 7)
        b = np.linspace(-2.5, 2.5, 7)
        assert np.allclose(state.rho(a, b), np.conj(state.rho(b, a)))

    def test_periodicity(self):
        state = RingState.wrapped_gaussian(0.3, 0.4)
        a, b = 0.7, -0.2
        two_pi = 2.0 * math.pi
        assert state.rho(a + two_pi, b) == pytest.approx(state.rho(a, b),
                                                         rel=1e-12)
        assert state.rho(a, b - two_pi) == pytest.approx(state.rho(a, b),
                                                         rel=1e-12)

    def test_gaussian_requires_positive_width(self):
        with pytest.raises(ValueError):
            RingState.wrapped_gaussian(0.0, 0.0)

class TestWIsolated:
    def test_ground_state_silent(self):
        for t in (0.0, 0.3 * PERIOD, PERIOD):
            assert abs(w_isolated(RingState.ground(), MU, t)) < 1e-12

    @pytest.mark.parametrize("state", [
        RingState.ground(),
        RingState.momentum(3),
        RingState.wrapped_gaussian(0.0, 0.3),
    ])
    def test_periodicity(self, state):
        for t in np.linspace(0.0, PERIOD, 5):
            w0 = w_isolated(state, MU, float(t))
            w1 = w_isolated(state, MU, float(t) + PERIOD)
            assert abs(w1 - w0) < 1e-9

    def test_gaussian_evolves(self):
        state = RingState.wrapped_gaussian(0.0, 0.3)
        w0 = w_isolated(state, MU, 0.0)
        w_half = w_isolated(state, MU, 0.5 * PERIOD)
        assert abs(w0) > 0.9  # localized state has a strong signal
        assert abs(w_half - w0) > 1e-3

    def test_resolution_stability(self):
        # the periodic trapezoid result must be stable under grid doubling
        state = RingState.wrapped_gaussian(0.5, 0.4)
        t = 0.37 * PERIOD
        coarse = w_isolated(state, MU, t)
        shift = t / MU
        phase = np.exp(0.5j * t / MU)
        th = np.linspace(-math.pi, math.pi, 16384, endpoint=False)
        fine = np.mean(0.5 * np.exp(1j * th) * (
            phase * state.rho(th + shift, th)
            + state.rho(th, th - shift) * np.conj(phase))) * 2.0 * math.pi
        assert abs(coarse - fine) < 1e-9

    def test_reflection_symmetry(self):
        # theta -> -theta maps mirrored states onto each other and turns
        # <W> into its complex conjugate
        t = 0.21 * PERIOD
        w_pos = w_isolated(RingState.wrapped_gaussian(0.7, 0.5), MU, t)
        w_neg = w_isolated(RingState.wrapped_gaussian(-0.7, 0.5), MU, t)
        assert w_pos == pytest.approx(np.conj(w_neg), abs=1e-12)

    def test_bounded(self):
        state = RingState.wrapped_gaussian(0.0, 0.3)
        for t in np.linspace(0.0, 2.0 * PERIOD, 9):
            assert abs(w_isolated(state, MU, float(t))) <= 1.0 + 1e-9

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            w_isolated(RingState.ground(), 0.0, 1.0)

    def test_unconverged_trapezoid_raises(self):
        # e^{i theta / 2} is not 2 pi periodic, so doubling the grid keeps
        # moving the trapezoid sum
        with pytest.raises(EvaluationError) as info:
            _periodic_integral(lambda th: np.exp(0.5j * th))
        assert set(info.value.diagnostics) == {"points", "value", "change"}
        assert info.value.diagnostics["points"] == 16384
        assert info.value.diagnostics["change"] > 1e-8


class TestWindingShifts:
    # f_n = 2 pi n Gdot - c with c = G/mu in sector 1 and c = 0 in sector 2

    def test_zero_winding(self):
        t = 0.5 * PERIOD
        G, Gdot = g_fun(FIG4, t)
        f1 = {n: f for n, f, _ in _windings(G / MU, Gdot)}
        f2 = {n: f for n, f, _ in _windings(0.0, Gdot)}
        assert f1[0] == pytest.approx(-G / MU, rel=1e-12)
        assert f2[0] == 0.0

    def test_no_damping_limit(self):
        t = 0.25 * PERIOD
        G, Gdot = g_fun(NO_DAMPING, t)
        f1 = {n: f for n, f, _ in _windings(G / MU, Gdot)}
        assert f1[0] == pytest.approx(-t / MU, rel=1e-9)
        assert f1[1] == pytest.approx(2.0 * math.pi - t / MU, rel=1e-9)

    def test_ohmic_arithmetic(self):
        ohmic = BathSpec(s=1.0, g_s=1.0, Omega=1e3)
        G, Gdot = g_fun(ohmic, 1.0)
        f1 = {n: f for n, f, _ in _windings(G, Gdot)}
        f2 = {n: f for n, f, _ in _windings(0.0, Gdot)}
        G_ref = 1.0 - math.exp(-1.0)
        Gdot_ref = math.exp(-1.0)
        assert f1[1] == pytest.approx(2.0 * math.pi * Gdot_ref - G_ref, rel=1e-12)
        assert f2[1] == pytest.approx(2.0 * math.pi * Gdot_ref, rel=1e-12)


def _minus_windows(c, Gdot):
    """Winding -> (a_minus, b_minus), the theta range of rho(th, th + f_n)."""
    return {n: (w[2], w[3]) for n, _, w in _windings(c, Gdot)}


class TestWindingSets:
    # _windings collects the union over theta in (-pi, pi) of the admissible
    # windings, so a winding that is admissible on a sliver of the circle
    # only is collected too

    def test_origin_of_time(self):
        t = 1e-3 * MU
        G, Gdot = g_fun(FIG4, t)
        s1 = _minus_windows(G / MU, Gdot)
        s2 = _minus_windows(0.0, Gdot)
        assert set(s1) == {0, 1}
        assert set(s2) == {-1, 0, 1}
        # winding 0 covers all of the circle but a sliver of width |f_0|
        for windows in (s1, s2):
            for n, (a, b) in windows.items():
                if n == 0:
                    assert b - a > 2.0 * math.pi - 1e-2
                else:
                    assert 0.0 < b - a < 1e-2

    def test_early_time_split(self):
        # at t = 2 pi mu (m + a) the admissible winding jumps from m to m+1
        # as theta crosses -2 a pi
        m, a = 3, 0.25
        t = 2.0 * math.pi * MU * (m + a)
        G, Gdot = g_fun(NO_DAMPING, t)
        s1 = _minus_windows(G / MU, Gdot)
        assert set(s1) == {m, m + 1}
        assert s1[m][0] == pytest.approx(-2.0 * a * math.pi, rel=1e-9)
        assert s1[m][1] == math.pi
        assert s1[m + 1][0] == -math.pi
        assert s1[m + 1][1] == pytest.approx(-2.0 * a * math.pi, rel=1e-9)

    def test_window_width(self):
        # Gdot = 0.5 spaces the shifted windows by pi, so one or two windings
        # are admissible at every theta
        ohmic = BathSpec(s=1.0, g_s=1.0, Omega=1e3)
        G, Gdot = g_fun(ohmic, math.log(2.0))  # Gdot = e^-t = 0.5
        assert Gdot == 0.5
        s1 = _minus_windows(G, Gdot)
        s2 = _minus_windows(0.0, Gdot)
        assert set(s1) == {-1, 0, 1, 2}
        assert set(s2) == {-1, 0, 1}
        for theta in np.linspace(-math.pi, math.pi, 17, endpoint=False):
            for windows in (s1, s2):
                covering = [n for n, (a, b) in windows.items() if a <= theta < b]
                assert len(covering) in (1, 2)

    def test_empty_window_not_collected(self):
        # f_n = +-2 pi leaves an empty window: at Gdot = 0.5 and c = 0 the
        # windings n = +-2 are not collected, and for c just below pi the
        # range of n reaches n = -1, whose shift rounds to -2 pi exactly
        assert set(_minus_windows(0.0, 0.5)) == {-1, 0, 1}
        c = math.nextafter(math.pi, 0.0)
        assert -math.pi - c == -2.0 * math.pi  # f_{-1} = 2 pi (-1)(0.5) - c
        assert set(_minus_windows(c, 0.5)) == {0, 1, 2}


class TestWGeneral:
    def test_no_damping_ground_state_null(self):
        inertia = HBAR * MU
        for t in np.linspace(0.3 * PERIOD, 5.0 * PERIOD, 6):
            w = w_general(RingState.ground(), NO_DAMPING, MU, inertia,
                          float(t))
            assert abs(w) < 1e-10

    def test_small_time_limit(self):
        state = RingState.wrapped_gaussian(0.0, 0.3)
        inertia = HBAR * MU
        t = 1e-3 * MU
        w = w_general(state, FIG4, MU, inertia, t)
        assert abs(w - w_isolated(state, MU, 0.0)) < 1e-3

    def test_matches_isolated_with_weak_coupling(self):
        state = RingState.wrapped_gaussian(0.0, 0.4)
        inertia = HBAR * MU
        t = 0.4 * PERIOD
        w = w_general(state, NO_DAMPING, MU, inertia, t)
        assert abs(w - w_isolated(state, MU, t)) < 1e-6

    def test_bounded(self):
        state = RingState.wrapped_gaussian(0.0, 0.4)
        inertia = HBAR * MU
        for t in (0.3 * PERIOD, PERIOD, 3.0 * PERIOD):
            assert abs(w_general(state, FIG4, MU, inertia, t)) <= 1.0 + 1e-6

    def test_requires_positive_time(self):
        with pytest.raises(ValueError):
            w_general(RingState.ground(), FIG4, MU, HBAR * MU, 0.0)

    def test_degenerate_denominator_raises(self, monkeypatch):
        # e^-Gamma underflows to 0 for every winding, so the denominator
        # of the ratio vanishes
        def huge(phi_f, phi_i, t, spec, inertia):
            return np.full(np.shape(phi_f), 1e4)

        monkeypatch.setattr(decoherence, "noise_action", huge)
        with pytest.raises(EvaluationError) as info:
            w_general(RingState.ground(), FIG4, MU, HBAR * MU, PERIOD)
        assert info.value.diagnostics["denominator"] == 0.0

    @pytest.mark.parametrize("spec, free_path", [
        pytest.param(FIG4, False, id="spec0"),
        pytest.param(BathSpec(s=0.8, g_s=1.0, Omega=1.0 / MU, T=1e-3), False,
                     id="spec1"),
        pytest.param(FIG4, True, id="spec0-free"),
        pytest.param(BathSpec(s=0.8, g_s=1.0, Omega=1.0 / MU, T=1e-3), True,
                     id="spec1-free"),
    ])
    @pytest.mark.parametrize("periods", [0.3, 7.3])
    def test_flat_state_closed_form(self, spec, free_path, periods):
        # for rho = 1/2pi each half of winding n integrates e^{i A_n theta}
        # over a window of half-length L_n = pi - |f_n|/2; the window-centre
        # phase cancels phase_half, leaving sin(A_n L_n) / (pi A_n)
        inertia = HBAR * MU
        t = periods * PERIOD
        if free_path:
            # free path (u/t) phi_f + (1 - u/t) phi_i: A0 = C0 = Gamma (mu/t)^2
            # and A0 + B0 = (mu^2 / 2t) dGamma/dt
            a0 = gamma_early(spec, MU, t) * (MU / t) ** 2
            b0 = 0.5 * MU**2 / t * decoherence._gamma_early_rate(spec, MU, t) - a0

            def action(phi_f, phi_i):
                return a0 * (phi_f**2 + phi_i**2) + 2.0 * b0 * phi_f * phi_i
        else:
            def action(phi_f, phi_i):
                return noise_action(phi_f, phi_i, t, spec, inertia)
        G, Gdot = g_fun(spec, t)
        Gddot = g_ddot(spec, t)
        sums = []
        for j, c in ((1, G / MU), (2, 0.0)):
            n_lo, n_hi = sorted(((c - 2.0 * math.pi) / (2.0 * math.pi * Gdot),
                                 (c + 2.0 * math.pi) / (2.0 * math.pi * Gdot)))
            total = 0.0
            for n in range(math.floor(n_lo), math.ceil(n_hi) + 1):
                f_n = 2.0 * math.pi * n * Gdot - c
                if abs(f_n) >= 2.0 * math.pi:
                    continue
                A = (Gdot if j == 1 else 0.0) - 2.0 * math.pi * n * MU * Gddot
                L = math.pi - 0.5 * abs(f_n)
                term = L / math.pi if A == 0.0 else math.sin(A * L) / (
                    math.pi * A)
                sign = (-1.0) ** n if j == 1 else 1.0
                gam = action(2.0 * math.pi * n, f_n)
                total += sign * math.exp(-gam) * term
            sums.append(total)
        expected = sums[0] / sums[1]
        w = (w_early(RingState.ground(), spec, MU, t) if free_path
             else w_general(RingState.ground(), spec, MU, inertia, t))
        # the signal is a cancellation between O(1) terms, so the tolerance
        # is absolute
        assert abs(w - expected) <= 1e-12

    def test_reflection_symmetry(self):
        # theta -> -theta maps the model onto itself, so mirrored states give
        # complex-conjugate expectation values
        inertia = HBAR * MU
        t = 0.37 * PERIOD
        w_pos = w_general(RingState.wrapped_gaussian(0.9, 0.4), FIG4, MU,
                          inertia, t)
        w_neg = w_general(RingState.wrapped_gaussian(-0.9, 0.4), FIG4, MU,
                          inertia, t)
        assert abs(w_pos - np.conj(w_neg)) <= 1e-12 * abs(w_pos)

    def test_one_noise_action_call(self, monkeypatch):
        # every winding's Gamma comes out of one evaluation of the form
        calls = []

        def counted(*args, **kwargs):
            calls.append(np.size(args[0]))
            return noise_action(*args, **kwargs)

        monkeypatch.setattr(decoherence, "noise_action", counted)
        w_general(RingState.ground(), FIG4, MU, HBAR * MU, 48.0 * PERIOD)
        assert len(calls) == 1
        assert calls[0] > 1


class TestWEarly:
    def test_ground_state_zero_at_origin(self):
        assert abs(w_early(RingState.ground(), FIG4, MU, 0.0)) < 1e-12

    def test_no_damping_ground_state(self):
        for t in (0.5 * PERIOD, 2.0 * PERIOD):
            assert abs(w_early(RingState.ground(), NO_DAMPING, MU, t)) < 1e-9

    def test_matches_general_for_localized_state(self):
        state = RingState.wrapped_gaussian(0.0, 0.3)
        inertia = HBAR * MU
        t = PERIOD
        we = w_early(state, FIG4, MU, t)
        wg = w_general(state, FIG4, MU, inertia, t)
        assert abs(we - wg) < 2e-2 * abs(we)


class TestChargeDensity:
    def test_amplitude_zero_at_origin(self):
        assert charge_density_amplitude(FIG4, MU, 1.0, 0.0) == (0.0, 0.0)

    def test_amplitude_weak_coupling_null(self):
        for t in (0.0, 0.3 * PERIOD, PERIOD):
            amp, _ = charge_density_amplitude(NO_DAMPING, MU, 1.0, t)
            assert abs(amp) < 1e-9

    @given(st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=30, deadline=None)
    def test_amplitude_bounded(self, t_over_period):
        n1 = 0.7
        amp, _ = charge_density_amplitude(FIG4, MU, n1, t_over_period * PERIOD)
        assert abs(amp) <= n1

    def test_density_flat_at_origin_of_time(self):
        for x in (0.0, 1e-7, 3e-7):
            assert charge_density(x, 0.0, 2.0, 0.5, 1e7, FIG4, MU) == 2.0

    def test_density_nodes_fixed(self):
        kF = 1e7
        x_node = math.pi / (4.0 * kF)  # cos(2 kF x) = 0
        for t in (0.0, 0.4 * PERIOD, PERIOD):
            assert charge_density(x_node, t, 2.0, 0.5, kF, FIG4, MU) == (
                pytest.approx(2.0, rel=1e-12))

    def test_peak_positions_time_independent(self):
        # the spatial profile is |cos(2 kF x)| up to an overall amplitude,
        # so the normalized modulation is identical at different times
        kF = 1e7
        xs = np.linspace(0.0, math.pi / (2.0 * kF), 64, endpoint=False)
        profiles = []
        for t in (0.35 * PERIOD, 0.85 * PERIOD):
            n = np.array([charge_density(float(x), t, 2.0, 0.5, kF, FIG4, MU)
                          for x in xs])
            mod = np.abs(n - 2.0)
            assert np.argmax(mod) == 0
            profiles.append(mod / mod[0])
        assert np.allclose(profiles[0], profiles[1], atol=1e-10)

    @pytest.mark.parametrize("t", [1e-164, 1e-100, 1e-82])
    def test_amplitude_at_underflowing_t_is_silent(self, t):
        # the kernel underflows and QUADPACK reports roundoff; the split
        # quadrature checks its own error estimate instead
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            amp, gam = charge_density_amplitude(FIG4, MU, 1.0, t)
        assert abs(amp) < 1e-12 and 0.0 <= gam < 1e-200

    def test_amplitude_gamma_is_early_time_gamma(self):
        for t in (0.3 * PERIOD, PERIOD, 4.0 * PERIOD):
            amp, gam = charge_density_amplitude(FIG4, MU, 0.7, t)
            assert gam == gamma_early(FIG4, MU, t)
            w = w_early(RingState.ground(), FIG4, MU, t)
            assert amp == pytest.approx(0.7 * w.real, abs=1e-8)
