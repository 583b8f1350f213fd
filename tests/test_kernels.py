"""Dipole-dipole kernels: closed-form points, limits, and invariants."""

import math

import mpmath
import numpy as np
import pytest

from chiralchain.errors import DomainError
from chiralchain.kernels import (DipoleGeometry, KernelValue, _chiral_fg_columns,
                                 _kernel_1d_columns, _kernel_2d_columns,
                                 _kernel_3d_columns, chiral_fg,
                                 kernel_1d_reciprocal, kernel_2d, kernel_3d)
from chiralchain.specfun import bessel_j, bessel_y


def test_chiral_fg_zero_separation():
    f, g = chiral_fg(0.0, 1.0, 1.0)
    assert f == pytest.approx(1.0, abs=1e-15)
    assert abs(g) < 1e-15


def test_chiral_fg_cascaded_at_pi():
    # gamma_L = 0: F = gamma e^{i pi}/2, G = -i gamma e^{i pi}/2
    f, g = chiral_fg(math.pi, 0.0, 1.0)
    assert f == pytest.approx(0.5 * complex(math.cos(math.pi), math.sin(math.pi)),
                              abs=1e-15)
    assert g == pytest.approx(-0.5j * complex(math.cos(math.pi), math.sin(math.pi)),
                              abs=1e-15)


@pytest.mark.parametrize("xi", np.linspace(0.0, 7.0, 17).tolist())
def test_chiral_fg_reciprocal_reduction(xi):
    # equal rates recombine into the 1D kernel with Gamma_1D = 2 gamma
    f, g = chiral_fg(xi, 0.5, 0.5)
    kv = kernel_1d_reciprocal(xi)
    assert f.real == pytest.approx(kv.decay_part, abs=1e-14)
    assert g.real == pytest.approx(kv.shift_part, abs=1e-14)
    assert abs(f.imag) < 1e-14 and abs(g.imag) < 1e-14


def test_chiral_fg_rate_validation():
    with pytest.raises(DomainError):
        chiral_fg(1.0, -0.1, 1.0)
    with pytest.raises(DomainError):
        chiral_fg(1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        chiral_fg(-1.0, 0.5, 0.5)


def test_1d_reciprocal_special_points():
    dicke = kernel_1d_reciprocal(0.0)
    assert (dicke.decay_part, dicke.shift_part) == (0.5, 0.0)
    exchange = kernel_1d_reciprocal(math.pi / 2.0)
    assert exchange.decay_part == pytest.approx(0.0, abs=1e-15)
    assert exchange.shift_part == pytest.approx(0.5, abs=1e-15)
    period = kernel_1d_reciprocal(2.0 * math.pi)
    assert period.decay_part == pytest.approx(0.5, abs=1e-14)
    assert period.shift_part == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("xi", np.linspace(0.0, 12.0, 25).tolist())
def test_1d_circle_invariant(xi):
    kv = kernel_1d_reciprocal(xi)
    assert kv.decay_part ** 2 + kv.shift_part ** 2 == pytest.approx(0.25,
                                                                    abs=1e-15)
    assert not kv.shift_divergent


@pytest.mark.parametrize("alignment", [0.0, 0.5, 1.0, -0.7])
def test_3d_dicke_limit(alignment):
    # decay -> Gamma as xi -> 0 for every alignment (deviation is O(xi^2),
    # so 1e-3 sits well inside the 1e-6 band); shift diverges
    for xi in (1e-4, 1e-3):
        kv = kernel_3d(DipoleGeometry(xi, alignment))
        assert abs(kv.collective_decay - 1.0) < 1e-6
    contact = kernel_3d(DipoleGeometry(0.0, alignment))
    assert contact.collective_decay == pytest.approx(1.0, abs=1e-12)
    assert contact.shift_divergent
    assert math.isnan(contact.shift_part)


def test_3d_perpendicular_at_pi():
    # gamma = (3/2) * (cos(pi)/pi^2) = -(3/2)/pi^2 at alignment 0
    kv = kernel_3d(DipoleGeometry(math.pi, 0.0))
    assert kv.collective_decay == pytest.approx(-1.5 / math.pi ** 2, abs=1e-12)


@pytest.mark.parametrize("alignment", [0.0, 0.5, 1.0])
def test_3d_far_field_falloff(alignment):
    # both parts fall off at least as 1/xi
    small = kernel_3d(DipoleGeometry(40.0, alignment))
    assert abs(small.collective_decay) < 3.0 / 40.0
    assert abs(small.shift_part) < 3.0 / 40.0


def test_2d_contact_limit():
    kv = kernel_2d(DipoleGeometry(0.0, 0.3))
    # f(0+) = 1, i.e. decay_part = f/2
    assert kv.decay_part == pytest.approx(0.5, abs=1e-12)
    assert kv.shift_divergent
    assert math.isnan(kv.shift_part)


def test_2d_perpendicular_at_one():
    kv = kernel_2d(DipoleGeometry(1.0, 0.0))
    f = 2.0 * (bessel_j(0, 1.0) - bessel_j(1, 1.0))
    assert kv.decay_part == pytest.approx(0.5 * f, abs=1e-12)


@pytest.mark.parametrize("xi", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("alignment", [0.0, 0.6, 1.0])
def test_2d_closed_forms(xi, alignment):
    kv = kernel_2d(DipoleGeometry(xi, alignment))
    a2 = alignment * alignment
    f = 2.0 * (bessel_j(0, xi) - bessel_j(1, xi) / xi + a2 * bessel_j(2, xi))
    g = (2.0 * bessel_y(0, xi) - 2.0 * bessel_y(1, xi) / xi
         + 2.0 * a2 * bessel_y(2, xi)
         - 4.0 / (math.pi * xi * xi) * (1.0 - 2.0 * a2))
    assert kv.decay_part == pytest.approx(0.5 * f, abs=1e-12)
    assert kv.shift_part == pytest.approx(0.5 * g, abs=1e-10)


def mpmath_shift_2d(xi, alignment, dps):
    """g/2 of the defining form, at dps digits: its 1/xi^2 terms cancel."""
    with mpmath.workdps(dps):
        x, a2 = mpmath.mpf(xi), mpmath.mpf(alignment) ** 2
        g = (2 * mpmath.bessely(0, x) - 2 * mpmath.bessely(1, x) / x
             + 2 * a2 * mpmath.bessely(2, x) - 4 / (mpmath.pi * x * x) * (1 - 2 * a2))
        return float(g / 2)


@pytest.mark.parametrize("xi,dps", [(1e-10, 40), (1e-5, 40), (0.05, 40),
                                    (1e-50, 120)])
@pytest.mark.parametrize("alignment", [0.0, 0.5, 0.9])
def test_2d_shift_at_small_separations(xi, dps, alignment):
    # -7.2866806648 at (1e-10, 0.5) and -3.62200267028 at (1e-5, 0.5)
    kv = kernel_2d(DipoleGeometry(xi, alignment))
    expected = mpmath_shift_2d(xi, alignment, dps)
    assert not kv.shift_divergent
    assert kv.shift_part == pytest.approx(expected, rel=1e-14)


def mpmath_kernel_3d(xi, alignment):
    """(decay_part, shift_part) of the closed form at 40 digits."""
    with mpmath.workdps(40):
        x, a2 = mpmath.mpf(xi), mpmath.mpf(alignment) ** 2
        s, c = mpmath.sin(x), mpmath.cos(x)
        gamma = 1.5 * ((1 - a2) * s / x + (1 - 3 * a2) * (c / x**2 - s / x**3))
        omega = 0.75 * (-(1 - a2) * c / x + (1 - 3 * a2) * (s / x**2 + c / x**3))
        return float(gamma / 2), float(omega)


@pytest.mark.parametrize("alignment", [0.0, 0.5, 1.0])
def test_3d_against_mpmath_at_small_separations(alignment):
    # cos/xi^2 - sin/xi^3 cancels terms of order 1/xi^2: the decay must
    # hold on both sides of the series crossover, the old one at 0.01 too
    xi = np.concatenate([np.arange(0.005, 2.0, 0.005), [0.0103, 1.1999, 1.2]])
    decay, shift, divergent = _kernel_3d_columns(xi, alignment)
    expected = np.array([mpmath_kernel_3d(x, alignment) for x in xi.tolist()])
    assert not divergent.any()
    assert np.max(np.abs(decay - expected[:, 0])) < 1e-15
    assert np.all(np.abs(shift - expected[:, 1])
                  < 2e-15 * np.maximum(np.abs(expected[:, 1]), 1.0))


def test_geometry_validation():
    with pytest.raises(DomainError):
        DipoleGeometry(-0.1, 0.0)
    with pytest.raises(DomainError):
        DipoleGeometry(1.0, 1.5)
    with pytest.raises(DomainError):
        DipoleGeometry(math.inf, 0.0)


def test_kernel_value_accessors():
    kv = KernelValue(0.25, -0.1)
    assert kv.collective_decay == 0.5
    assert kv.as_complex == complex(0.25, -0.1)


def test_kernel_columns_equal_pointwise_calls():
    # one array core per kernel: the table is the scalar kernels, bit for
    # bit (every 14th point of the 0.01:0.005:50 sweep, a few tiny ones)
    xi = np.concatenate([[0.0, 1e-200, 1e-160, 1e-3], 0.01 + 0.07 * np.arange(715)])
    for core, scalar in ((_kernel_2d_columns, kernel_2d), (_kernel_3d_columns, kernel_3d)):
        decay, shift, divergent = core(xi, 0.5)
        values = [scalar(DipoleGeometry(x, 0.5)) for x in xi.tolist()]
        assert np.array_equal(decay, [v.decay_part for v in values])
        assert np.array_equal(shift, [v.shift_part for v in values], equal_nan=True)
        assert np.array_equal(divergent, [v.shift_divergent for v in values])
    decay, shift, divergent = _kernel_1d_columns(xi)
    values = [kernel_1d_reciprocal(x) for x in xi.tolist()]
    assert np.array_equal(decay, [v.decay_part for v in values])
    assert np.array_equal(shift, [v.shift_part for v in values])
    assert not divergent.any()
    f, g = _chiral_fg_columns(xi, 0.2, 0.8)
    assert np.array_equal(np.stack([f, g], axis=1),
                          [chiral_fg(x, 0.2, 0.8) for x in xi.tolist()])


@pytest.mark.parametrize("build", [kernel_2d, kernel_3d])
def test_tiny_separation_flags_shift_keeps_decay(build):
    # xi*xi (and xi**3) underflow here; the shift is flagged, not an error
    for xi in (1e-200, 1e-160):
        kv = build(DipoleGeometry(xi, 0.3))
        assert kv.shift_divergent and math.isnan(kv.shift_part)
        assert kv.decay_part == pytest.approx(0.5, abs=1e-12)


def test_kernel_columns_validate_every_separation():
    xi = np.array([0.5, 1.0, -0.1, 2.0])
    for core in (_kernel_2d_columns, _kernel_3d_columns):
        with pytest.raises(DomainError):
            core(xi, 0.0)
        with pytest.raises(DomainError):
            core(np.abs(xi), 1.5)
    with pytest.raises(DomainError):
        _kernel_1d_columns(np.append(xi, math.nan))
    with pytest.raises(DomainError):
        _chiral_fg_columns(xi, 0.5, 0.5)
