"""The closed-form references must satisfy their own defining equations."""

import math

import mpmath
import numpy as np
import pytest

from chiralchain.errors import DomainError
from oracles import (DarkModesN3, cascaded, dark_modes_n3, geometric,
                     geometric_modes)

XI_VALUES = [0.0, math.pi / 4.0, math.pi / 2.0, math.pi, 2.37]


def cascaded_n2(xi, t):
    return cascaded(xi * np.arange(2), t)


def cascaded_n3(xi, t):
    return cascaded(xi * np.arange(3), t)


@pytest.mark.parametrize("xi", XI_VALUES)
def test_cascaded_n2_initial_state(xi):
    c1, c2 = cascaded_n2(xi, 0.0)
    assert c1 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert c2 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)


@pytest.mark.parametrize("xi", XI_VALUES)
def test_cascaded_n3_initial_state(xi):
    amps = cascaded_n3(xi, 0.0)
    for c in amps:
        assert c == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)


def test_cascaded_n2_closed_form():
    # c2 = e^{-t/2} (1 - t e^{-i xi}) / sqrt(2)
    t = np.linspace(0.0, 8.0, 33)
    c1, c2 = cascaded_n2(2.37, t)
    envelope = np.exp(-0.5 * t) / math.sqrt(2.0)
    assert np.max(np.abs(c1 - envelope)) < 1e-16
    assert np.max(np.abs(c2 - envelope * (1.0 - t * np.exp(-2.37j)))) < 1e-15


def test_cascaded_n3_closed_form():
    # c3 = e^{-t/2} [t^2 e^{-2 i xi} - 2 t (e^{-i xi} + e^{-2 i xi}) + 2]
    #      / (2 sqrt(3))
    t = np.linspace(0.0, 8.0, 33)
    p1, p2 = np.exp(-2.37j), np.exp(-4.74j)
    c3 = cascaded_n3(2.37, t)[2]
    expected = (np.exp(-0.5 * t) * (t * t * p2 - 2.0 * t * (p1 + p2) + 2.0)
                / (2.0 * math.sqrt(3.0)))
    assert np.max(np.abs(c3 - expected)) < 1e-15


@pytest.mark.parametrize("xi", XI_VALUES)
def test_cascaded_n2_satisfies_equations_of_motion(xi):
    # dc1/dt = -c1/2,  dc2/dt = -c2/2 - e^{-i xi} c1, checked by central
    # differences
    h = 1e-6
    for t in (0.1, 0.7, 2.0, 6.3):
        c1, c2 = cascaded_n2(xi, t)
        c1p, c2p = cascaded_n2(xi, t + h)
        c1m, c2m = cascaded_n2(xi, t - h)
        d1 = (c1p - c1m) / (2.0 * h)
        d2 = (c2p - c2m) / (2.0 * h)
        assert abs(d1 - (-0.5 * c1)) < 1e-9
        assert abs(d2 - (-0.5 * c2 - np.exp(-1j * xi) * c1)) < 1e-9


@pytest.mark.parametrize("xi", XI_VALUES)
def test_cascaded_n3_satisfies_equations_of_motion(xi):
    # row m feeds from every atom to its left with phase e^{-i (m-k) xi}
    h = 1e-6
    p1 = np.exp(-1j * xi)
    p2 = np.exp(-2j * xi)
    for t in (0.1, 0.7, 2.0, 6.3):
        c = np.array(cascaded_n3(xi, t))
        cp = np.array(cascaded_n3(xi, t + h))
        cm = np.array(cascaded_n3(xi, t - h))
        deriv = (cp - cm) / (2.0 * h)
        assert abs(deriv[0] - (-0.5 * c[0])) < 1e-9
        assert abs(deriv[1] - (-0.5 * c[1] - p1 * c[0])) < 1e-9
        assert abs(deriv[2] - (-0.5 * c[2] - p1 * c[1] - p2 * c[0])) < 1e-9


def test_cascaded_accepts_arrays():
    t = np.linspace(0.0, 5.0, 11)
    c1, c2 = cascaded_n2(0.5, t)
    assert c1.shape == t.shape and c2.shape == t.shape
    # population never exceeds the initial value
    total = np.abs(c1) ** 2 + np.abs(c2) ** 2
    assert np.all(total <= 1.0 + 1e-12)
    assert np.all(np.diff(total) <= 1e-12)


def test_cascaded_argument_validation():
    with pytest.raises(DomainError):
        cascaded_n2(-1.0, 0.5)
    with pytest.raises(DomainError):
        cascaded_n2(1.0, -0.5)
    with pytest.raises(DomainError):
        cascaded_n3(math.nan, 0.5)
    with pytest.raises(DomainError):
        cascaded(np.array([]), 0.5)


def test_cascaded_matches_mpmath_expm_at_n20():
    # 20 irregular positions at t = 30, where the Laguerre terms reach
    # 1.3e6 before the envelope e^{-15}: exp(V t) c(0) at 50 digits
    n, t = 20, 30.0
    phases = np.cumsum(np.random.default_rng(20).uniform(0.0, 3.0, n))
    with mpmath.workdps(50):
        v = mpmath.matrix(n, n)
        for m in range(n):
            v[m, m] = -0.5
            for j in range(m):
                v[m, j] = -mpmath.expj(mpmath.mpf(phases[j]) - mpmath.mpf(phases[m]))
        exact = mpmath.expm(v * t) * mpmath.matrix([1 / mpmath.sqrt(n)] * n)
        exact = np.array([complex(value) for value in exact])
    assert np.max(np.abs(cascaded(phases, t) - exact)) <= 1e-12


def test_dark_modes_n3_eigensystem():
    modes = dark_modes_n3(gamma=1.0)
    assert isinstance(modes, DarkModesN3)
    v = np.array([[-1.0, 1.0, -1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]])
    for dark in modes.dark_vectors:
        assert np.allclose(v @ dark, 0.0, atol=1e-15)
    bright = modes.bright_vector
    assert np.allclose(v @ bright, modes.bright_eigenvalue * bright, atol=1e-15)
    assert modes.bright_eigenvalue == -3.0 + 0.0j


def test_dark_modes_steady_populations_from_projection():
    # project the uniform state off the bright mode and square
    modes = dark_modes_n3()
    uniform = np.full(3, 1.0 / math.sqrt(3.0))
    bright = modes.bright_vector / np.linalg.norm(modes.bright_vector)
    residual = uniform - (bright @ uniform) * bright
    assert np.allclose(np.abs(residual) ** 2, modes.steady_populations,
                       atol=1e-15)
    assert modes.steady_populations == (4.0 / 27.0, 16.0 / 27.0, 4.0 / 27.0)


def test_dark_modes_gamma_validation():
    with pytest.raises(DomainError):
        dark_modes_n3(gamma=0.0)
    with pytest.raises(DomainError):
        dark_modes_n3(gamma=-1.0)


def sign_gauge_generator(n, xi, gamma_left, gamma_right):
    """V at xi = 0 or pi with exact phases: exp(-i xi |u - v|) = s_u s_v."""
    s = (-1.0) ** np.arange(1, n + 1) if xi == math.pi else np.ones(n)
    v = np.where(np.triu(np.ones((n, n), dtype=bool), 1),
                 -gamma_left, -gamma_right) * np.outer(s, s)
    np.fill_diagonal(v, -0.5 * (gamma_left + gamma_right))
    return v


@pytest.mark.parametrize("gamma_left", [0.3, 0.9, 1.5])
@pytest.mark.parametrize("xi", [0.0, math.pi])
@pytest.mark.parametrize("n", [1, 2, 5, 11, 40, 200])
def test_geometric_modes_are_the_eigensystem(n, xi, gamma_left):
    v = sign_gauge_generator(n, xi, gamma_left, 1.0)
    lam, x, y = geometric_modes(n, xi, gamma_left, 1.0)
    # residuals of V x_k = lambda_k x_k and y_k V = lambda_k y_k; the
    # worst, 3.9e-14, is at N = 200, gamma_L = 0.9, where r_k - 1 ~ 5e-4
    scale = np.abs(v).sum(axis=1).max() * max(np.abs(x).max(), np.abs(y).max())
    assert np.abs(v @ x.T - x.T * lam).max() <= 1e-13 * scale
    assert np.abs(y @ v - lam[:, None] * y).max() <= 1e-13 * scale
    assert np.abs(y @ x.T - n * np.eye(n)).max() <= 1e-14 * n
    # every eigenvalue numpy finds is the nearest of exactly one lambda_k
    mu = np.linalg.eigvals(v)
    distance = np.abs(lam[:, None] - mu[None, :])
    assert sorted(distance.argmin(axis=1).tolist()) == list(range(n))
    assert distance.min(axis=1).max() <= 1e-13 * np.abs(mu).max()


def test_geometric_starts_from_its_initial_state():
    c0 = np.array([0.6, -0.8j, 0.0])
    assert np.allclose(geometric(3, math.pi, 0.5, 1.0, 0.0, c0), c0,
                       rtol=0.0, atol=1e-15)
    uniform = geometric(4, 0.0, 1.5, 1.0, np.zeros(2))
    assert uniform.shape == (4, 2)
    assert np.allclose(uniform, 0.5, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("args", [(3, 1.0, 0.5, 1.0), (3, math.pi, 1.0, 1.0),
                                  (3, math.pi, 0.0, 1.0), (0, 0.0, 0.5, 1.0),
                                  (3, 0.0, math.inf, 1.0)])
def test_geometric_argument_validation(args):
    with pytest.raises(DomainError):
        geometric_modes(*args)
