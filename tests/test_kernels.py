"""Dipole-dipole kernels: closed-form points, limits, and invariants."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from bessel import bessel
from chiralchain.errors import DomainError
from chiralchain import kernels
from chiralchain.kernels import chiral_fg, kernel_1d_reciprocal, kernel_2d, kernel_3d


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
    decay, shift = kernel_1d_reciprocal(xi)
    assert f.real == decay and g.real == shift
    # exactly real, and no negative zero
    assert f.imag == g.imag == 0.0
    assert not np.signbit(f.imag) and not np.signbit(g.imag)


def test_chiral_fg_rate_validation():
    with pytest.raises(DomainError):
        chiral_fg(1.0, -0.1, 1.0)
    with pytest.raises(DomainError):
        chiral_fg(1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        chiral_fg(-1.0, 0.5, 0.5)


def test_1d_reciprocal_special_points():
    assert kernel_1d_reciprocal(0.0) == (0.5, 0.0)
    decay, shift = kernel_1d_reciprocal(math.pi / 2.0)
    assert decay == pytest.approx(0.0, abs=1e-15)
    assert shift == pytest.approx(0.5, abs=1e-15)
    decay, shift = kernel_1d_reciprocal(2.0 * math.pi)
    assert decay == pytest.approx(0.5, abs=1e-14)
    assert shift == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("xi", np.linspace(0.0, 12.0, 25).tolist())
def test_1d_circle_invariant(xi):
    decay, shift = kernel_1d_reciprocal(xi)
    assert decay ** 2 + shift ** 2 == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("alignment", [0.0, 0.5, 1.0, -0.7])
def test_3d_dicke_limit(alignment):
    # decay -> Gamma as xi -> 0 for every alignment (deviation is O(xi^2),
    # so 1e-3 sits well inside the 1e-6 band); shift diverges
    for xi in (1e-4, 1e-3):
        decay, _, _ = kernel_3d(xi, alignment)
        assert abs(2.0 * decay - 1.0) < 1e-6
    decay, shift, divergent = kernel_3d(0.0, alignment)
    assert 2.0 * decay == pytest.approx(1.0, abs=1e-12)
    assert divergent
    assert math.isnan(shift)


def test_3d_perpendicular_at_pi():
    # gamma = (3/2) * (cos(pi)/pi^2) = -(3/2)/pi^2 at alignment 0
    decay, _, _ = kernel_3d(math.pi)
    assert 2.0 * decay == pytest.approx(-1.5 / math.pi ** 2, abs=1e-12)


@pytest.mark.parametrize("alignment", [0.0, 0.5, 1.0])
def test_3d_far_field_falloff(alignment):
    # both parts fall off at least as 1/xi
    decay, shift, _ = kernel_3d(40.0, alignment)
    assert abs(2.0 * decay) < 3.0 / 40.0
    assert abs(shift) < 3.0 / 40.0


def test_2d_contact_limit():
    decay, shift, divergent = kernel_2d(0.0, 0.3)
    # f(0+) = 1, i.e. decay = f/2
    assert decay == pytest.approx(0.5, abs=1e-12)
    assert divergent
    assert math.isnan(shift)


def test_2d_perpendicular_at_one():
    decay, _, _ = kernel_2d(1.0)
    f = 2.0 * (bessel("J0", 1.0) - bessel("J1", 1.0))
    assert decay == pytest.approx(0.5 * f, abs=1e-12)


@pytest.mark.parametrize("xi", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("alignment", [0.0, 0.6, 1.0])
def test_2d_closed_forms(xi, alignment):
    decay, shift, _ = kernel_2d(xi, alignment)
    a2 = alignment * alignment
    f = 2.0 * (bessel("J0", xi) - bessel("J1", xi) / xi + a2 * bessel("J2", xi))
    g = (2.0 * bessel("Y0", xi) - 2.0 * bessel("Y1", xi) / xi
         + 2.0 * a2 * bessel("Y2", xi)
         - 4.0 / (math.pi * xi * xi) * (1.0 - 2.0 * a2))
    assert decay == pytest.approx(0.5 * f, abs=1e-12)
    assert shift == pytest.approx(0.5 * g, abs=1e-10)


def mpmath_shift_2d(xi, alignment, dps):
    """g/2 of the defining form, at dps digits: its 1/xi^2 terms cancel."""
    with mpmath.workdps(dps):
        x, a2 = mpmath.mpf(xi), mpmath.mpf(alignment) ** 2
        g = (2 * mpmath.bessely(0, x) - 2 * mpmath.bessely(1, x) / x
             + 2 * a2 * mpmath.bessely(2, x) - 4 / (mpmath.pi * x * x) * (1 - 2 * a2))
        return float(g / 2)


# mpmath_shift_2d(xi, alignment, dps), the defining form at 360 and 440
# digits, where 1/xi^2 has left the double range: stored, since mpmath
# takes 10 to 20 s per precision to compute them
STORED_SHIFTS_2D = {
    (1e-160, 360, 0.0): -117.14744302517089,
    (1e-160, 360, 0.3): -117.17609091492743,
    (1e-160, 360, 0.5): -117.22702049671683,
    (1e-160, 360, 0.9): -117.40527403297976,
    (1e-200, 440, 0.0): -146.464866980348,
    (1e-200, 440, 0.3): -146.49351487010455,
    (1e-200, 440, 0.5): -146.54444445189395,
    (1e-200, 440, 0.9): -146.72269798815688,
}


@pytest.mark.parametrize("xi,dps", [(1e-10, 40), (1e-5, 40), (0.05, 40),
                                    (1e-50, 120), (1e-160, 360), (1e-200, 440)])
@pytest.mark.parametrize("alignment", [0.0, 0.3, 0.5, 0.9])
def test_2d_shift_at_small_separations(xi, dps, alignment):
    # -7.2866806648 at (1e-10, 0.5) and -3.62200267028 at (1e-5, 0.5)
    _, shift, divergent = kernel_2d(xi, alignment)
    expected = STORED_SHIFTS_2D.get((xi, dps, alignment))
    if expected is None:
        expected = mpmath_shift_2d(xi, alignment, dps)
    assert not divergent
    assert shift == pytest.approx(expected, rel=1e-14)


def mpmath_kernel_3d(xi, alignment):
    """(decay, shift) of the closed form at 40 digits."""
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
    decay, shift, divergent = kernel_3d(xi, alignment)
    expected = np.array([mpmath_kernel_3d(x, alignment) for x in xi.tolist()])
    assert not divergent.any()
    assert np.max(np.abs(decay - expected[:, 0])) < 1e-15
    assert np.all(np.abs(shift - expected[:, 1])
                  < 2e-15 * np.maximum(np.abs(expected[:, 1]), 1.0))


def test_geometry_validation():
    for kernel in (kernel_2d, kernel_3d):
        with pytest.raises(DomainError):
            kernel(-0.1)
        with pytest.raises(DomainError):
            kernel(1.0, 1.5)
        with pytest.raises(DomainError):
            kernel(math.inf)


def test_kernel_columns_equal_pointwise_calls():
    # one function per kernel: a table is its points called one by one,
    # bit for bit (every 14th point of the 0.01:0.005:50 sweep, a few tiny
    # ones), and a float gives numpy scalars
    xi = np.concatenate([[0.0, 1e-320, 1e-200, 1e-160, 1e-3],
                         0.01 + 0.07 * np.arange(715)])
    for kernel, args in ((kernel_2d, (0.5,)), (kernel_3d, (0.5,)),
                         (kernel_1d_reciprocal, ()), (chiral_fg, (0.2, 0.8))):
        columns = kernel(xi, *args)
        points = [kernel(x, *args) for x in xi.tolist()]
        assert all(isinstance(value, np.generic) for point in points for value in point)
        for column, values in zip(columns, zip(*points)):
            assert np.array_equal(column, values, equal_nan=True)


@pytest.mark.parametrize("kernel", [kernel_2d, kernel_3d])
def test_kernel_value_does_not_depend_on_its_chunk(kernel):
    # the table takes its points in chunks, so shifting it moves points
    # across chunk boundaries; small separations take the series branches
    xi = np.concatenate([np.linspace(0.0, 1.5, 2 * kernels._CHUNK + 100),
                         0.01 + 0.07 * np.arange(715)])
    # as a 2D array, whose values come out in its shape
    xi = xi[:xi.size // 8 * 8].reshape(-1, 8)
    columns = kernel(xi, 0.5)
    assert all(column.shape == xi.shape for column in columns)
    for offset in (1, 3):
        shifted = kernel(xi.ravel()[offset:], 0.5)
        for column, values in zip(columns, shifted):
            assert np.array_equal(column.ravel()[offset:], values, equal_nan=True)


def test_kernel_table_memory_is_a_few_columns_per_point():
    # the 2D and 3D kernels hand their points to the Bessel core and their
    # series in chunks of fixed size, so a table's peak is a few of its
    # columns plus a fixed allowance, however many points it has: over the
    # series branches of small separations as well as beyond them
    n = 2**17
    for kernel, hi in ((kernel_2d, 0.1), (kernel_3d, 1.2),
                       (kernel_2d, 50.0), (kernel_3d, 50.0)):
        xi = np.linspace(0.0, hi, n)
        tracemalloc.start()
        try:
            kernel(xi, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * n + 12e6, (kernel.__name__, hi, peak)


@pytest.mark.parametrize("build", [kernel_2d, kernel_3d])
def test_tiny_separation_flags_shift_keeps_decay(build):
    # xi*xi and xi**3 underflow here: the 3D shift is flagged, not an
    # error, while the pole-free 2D form stays finite down to the Y cutoff
    for xi in (1e-200, 1e-160):
        decay, shift, divergent = build(xi, 0.3)
        if build is kernel_2d:
            assert not divergent and math.isfinite(shift)
        else:
            assert divergent and math.isnan(shift)
        assert decay == pytest.approx(0.5, abs=1e-12)
    decay, shift, divergent = build(1e-320, 0.3)
    assert divergent and math.isnan(shift)
    assert decay == pytest.approx(0.5, abs=1e-12)


def test_kernel_columns_validate_every_separation():
    xi = np.array([0.5, 1.0, -0.1, 2.0])
    for kernel in (kernel_2d, kernel_3d):
        with pytest.raises(DomainError):
            kernel(xi, 0.0)
        with pytest.raises(DomainError):
            kernel(np.abs(xi), 1.5)
    with pytest.raises(DomainError):
        kernel_1d_reciprocal(np.append(xi, math.nan))
    with pytest.raises(DomainError):
        chiral_fg(xi, 0.5, 0.5)
