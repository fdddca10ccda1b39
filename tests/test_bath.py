"""Tests for the power-law bath and its noise kernel."""

import math

import numpy as np
import pytest

from cdwring.bath import (
    BathSpec,
    omega_s,
    noise_kernel,
    coth_thermal,
)
from cdwring import oracle
from cdwring.constants import HBAR, K_B


class TestBathSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BathSpec(s=0.0, g_s=1.0, Omega=1.0)
        with pytest.raises(ValueError):
            BathSpec(s=2.0, g_s=1.0, Omega=1.0)
        with pytest.raises(ValueError):
            BathSpec(s=1.0, g_s=0.0, Omega=1.0)
        with pytest.raises(ValueError):
            BathSpec(s=1.0, g_s=1.0, Omega=-1.0)
        with pytest.raises(ValueError):
            BathSpec(s=1.0, g_s=1.0, Omega=1.0, T=-0.1)


class TestOmegaS:
    def test_ohmic(self):
        assert omega_s(BathSpec(s=1.0, g_s=1.0, Omega=1.0)) == pytest.approx(1.0)

    def test_ohmic_equals_coupling(self):
        # for s = 1 the characteristic frequency is the (constant) memory
        # function itself, g_1 = 2 gamma
        two_gamma = 3.7
        assert omega_s(BathSpec(s=1.0, g_s=two_gamma, Omega=1.0)) == (
            pytest.approx(two_gamma))

    def test_subohmic_value(self):
        # (1/sin(pi/4))^(2/3) = 2^(1/3), frozen high-precision arithmetic
        assert omega_s(BathSpec(s=0.5, g_s=1.0, Omega=1.0)) == pytest.approx(
            1.2599210498948731648, rel=1e-14)


class TestCothThermal:
    def test_zero_temperature_branch(self):
        spec = BathSpec(s=1.0, g_s=1.0, Omega=1.0, T=0.0)
        assert coth_thermal(spec, 1e-30) == 1.0
        assert coth_thermal(spec, 1e30) == 1.0

    def test_monotone_in_temperature(self):
        omega = 1e8
        vals = [coth_thermal(BathSpec(s=1.0, g_s=1.0, Omega=1e9, T=T), omega)
                for T in (0.0, 0.01, 1.0, 100.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestNoiseKernel:
    def test_t0_ohmic_closed_form(self):
        spec = BathSpec(s=1.0, g_s=1.0, Omega=1.0, T=0.0)
        assert noise_kernel(spec, 1.0, 0.0) == pytest.approx(
            1.0 / (2.0 * math.pi), rel=1e-9)

    @pytest.mark.parametrize("s", [0.5, 1.2, 1.7])
    def test_t0_general_closed_form(self, s):
        spec = BathSpec(s=s, g_s=2.0, Omega=3.0, T=0.0)
        expected = 1.5 * spec.g_s * spec.Omega ** (s + 1) / (math.pi * (s + 1))
        assert noise_kernel(spec, 1.5, 0.0) == pytest.approx(expected, rel=1e-9)

    def test_matches_discrete_sum(self):
        # direct mode sum over 2^16 modes as an independent reference
        spec = BathSpec(s=1.2, g_s=1.0, Omega=1e8, T=0.0)
        inertia = HBAR * 1e-8
        bath_d = oracle.discretize_bath(spec, inertia, 2**16)
        val = noise_kernel(spec, inertia, 1e-8)
        ref = oracle.noise_kernel_direct(bath_d, 0.0, 1e-8)
        assert val == pytest.approx(ref, rel=1e-4)

    def test_matches_discrete_sum_random_pairs(self):
        rng = np.random.default_rng(3)
        inertia = 1.0
        for _ in range(10):
            s = rng.uniform(0.3, 1.8)
            t = rng.uniform(0.0, 5.0)
            spec = BathSpec(s=s, g_s=1.0, Omega=1.0, T=0.0)
            bath_d = oracle.discretize_bath(spec, inertia, 2**16)
            val = noise_kernel(spec, inertia, t)
            ref = oracle.noise_kernel_direct(bath_d, 0.0, t)
            assert val == pytest.approx(ref, rel=1e-4, abs=1e-10)

    def test_t0_lower_bound_with_temperature(self):
        # coth >= 1 pointwise, so alpha_R(0) can only exceed its T=0 value
        for T in (0.0, 1e-4, 1e-2):
            spec = BathSpec(s=1.2, g_s=1.0, Omega=1e8, T=T)
            floor = spec.g_s * spec.Omega ** (spec.s + 1) / (
                math.pi * (spec.s + 1))
            assert noise_kernel(spec, 1.0, 0.0) >= floor * (1.0 - 1e-9)

    def test_t0_monotone_in_temperature(self):
        vals = []
        for T in (0.0, 5e-4, 5e-2, 5.0):
            spec = BathSpec(s=1.2, g_s=1.0, Omega=1e8, T=T)
            vals.append(noise_kernel(spec, 1.0, 0.0))
        assert all(b > a * (1.0 - 1e-12) for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_time(self):
        spec = BathSpec(s=1.0, g_s=1.0, Omega=1.0)
        with pytest.raises(ValueError):
            noise_kernel(spec, 1.0, -1.0)
