"""Tests for the physical-parameter derivations."""

import math

import pytest

from cdwring.constants import HBAR
from cdwring.params import (
    RingSpec,
    derived_scales,
)

RING = RingSpec(R=0.5e-6, vF=1e5, c0=100.0, n0=1e28, n1=1e26, kF=1e10)


class TestRingSpec:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RingSpec(R=0.0, vF=1e5, c0=100.0, n0=1.0, n1=1.0, kF=1.0)

    def test_rejects_superluminal_phason(self):
        with pytest.raises(ValueError):
            RingSpec(R=1e-6, vF=100.0, c0=1e5, n0=1.0, n1=1.0, kF=1.0)


class TestDerivedScales:
    def test_reference_fixture(self):
        # R = 0.5 um, vF/c0 = 1e3: mu = R vF / c0^2 = 5e-6 s
        scales = derived_scales(RING)
        assert scales.mu == pytest.approx(5e-6, rel=1e-12)
        assert scales.P == pytest.approx(4.0 * math.pi * 5e-6, rel=1e-12)
        assert scales.I == pytest.approx(HBAR * 5e-6, rel=1e-12)

    def test_equal_velocities(self):
        ring = RingSpec(R=1e-6, vF=1e5, c0=1e5, n0=1.0, n1=1.0, kF=1e10)
        assert derived_scales(ring).mu == pytest.approx(1e-6 / 1e5, rel=1e-12)

    def test_linear_in_radius(self):
        doubled = RingSpec(R=1e-6, vF=1e5, c0=100.0, n0=1e28, n1=1e26,
                           kF=1e10)
        assert derived_scales(doubled).mu == pytest.approx(
            2.0 * derived_scales(RING).mu, rel=1e-12)
        assert derived_scales(doubled).P == pytest.approx(
            2.0 * derived_scales(RING).P, rel=1e-12)

    def test_round_trip(self):
        scales = derived_scales(RING)
        assert scales.P / (4.0 * math.pi) == pytest.approx(scales.mu,
                                                           rel=1e-14)
        assert scales.I / HBAR == pytest.approx(scales.mu, rel=1e-14)

    def test_power_law_scaling(self):
        # mu ~ R vF / c0^2
        base = derived_scales(RING).mu
        faster = RingSpec(R=0.5e-6, vF=2e5, c0=100.0, n0=1e28, n1=1e26,
                          kF=1e10)
        slower_phason = RingSpec(R=0.5e-6, vF=1e5, c0=50.0, n0=1e28, n1=1e26,
                                 kF=1e10)
        assert derived_scales(faster).mu == pytest.approx(2.0 * base,
                                                          rel=1e-12)
        assert derived_scales(slower_phason).mu == pytest.approx(4.0 * base,
                                                                 rel=1e-12)
