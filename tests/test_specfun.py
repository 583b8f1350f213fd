"""Bessel/Struve values against frozen references, plus the PV integrator."""

import math

import numpy as np
import pytest

from chiralchain.errors import DomainError, NumericsError
from chiralchain.specfun import (PVIntegrand, bessel_j, bessel_y,
                                 oscillatory_integral, principal_value,
                                 struve_h)

# reference values frozen from standard tables (A&S 9/12, DLMF 10/11)
BESSEL_J_REFERENCE = [
    (0, 0.5, 0.938469807240813),
    (0, 1.0, 0.7651976865579666),
    (0, 2.5, -0.04838377646819792),
    (0, 5.0, -0.17759677131433835),
    (0, 7.0, 0.30007927051955563),
    (0, 12.0, 0.04768931079683349),
    (0, 25.0, 0.09626678327595811),
    (0, 50.0, 0.0558123276692518),
    (1, 0.5, 0.2422684576748739),
    (1, 1.0, 0.44005058574493355),
    (1, 2.5, 0.4970941024642741),
    (1, 5.0, -0.3275791375914652),
    (1, 7.0, -0.0046828234823457346),
    (1, 12.0, -0.22344710449062757),
    (1, 25.0, -0.1253502495802899),
    (1, 50.0, -0.09751182812517514),
    (2, 0.5, 0.030604023458682638),
    (2, 1.0, 0.1149034849319005),
    (2, 2.5, 0.44605905843961724),
    (2, 5.0, 0.04656511627775229),
    (2, 7.0, -0.3014172200859401),
    (2, 12.0, -0.08493049487860475),
    (2, 25.0, -0.10629480324238133),
    (2, 50.0, -0.05971280079425882),
]

BESSEL_Y_REFERENCE = [
    (0, 0.1, -1.5342386513503667),
    (0, 0.5, -0.44451873350670656),
    (0, 1.0, 0.088256964215677),
    (0, 2.5, 0.49807035961523194),
    (0, 5.0, -0.3085176252490338),
    (0, 7.0, -0.02594974396720925),
    (0, 12.0, -0.2252373126343615),
    (0, 25.0, -0.12724943226800617),
    (0, 50.0, -0.0980649954700771),
    (1, 0.1, -6.4589510947020266),
    (1, 0.5, -1.4714723926702433),
    (1, 1.0, -0.7812128213002889),
    (1, 2.5, 0.1459181379667858),
    (1, 5.0, 0.14786314339122694),
    (1, 7.0, -0.30266723702418485),
    (1, 12.0, -0.05709921826089657),
    (1, 25.0, -0.09882996478323747),
    (1, 50.0, -0.05679566856201478),
    (2, 0.1, -127.64478324269017),
    (2, 0.5, -5.441370837174266),
    (2, 1.0, -1.6506826068162548),
    (2, 2.5, -0.38133584924180336),
    (2, 5.0, 0.3676628826055246),
    (2, 7.0, -0.060526609468272125),
    (2, 12.0, 0.21572077625754543),
    (2, 25.0, 0.11934303508534717),
    (2, 50.0, 0.09579316872759651),
]

STRUVE_REFERENCE = [
    (0, 0.5, 0.3095559145837547),
    (0, 1.0, 0.5686566270482881),
    (0, 2.0, 0.7908588495080958),
    (0, 5.0, -0.1852168157766849),
    (0, 12.0, -0.1725341351199887),
    (0, 20.0, 0.09439369808132349),
    (0, 21.0, 0.20044957457730717),
    (0, 30.0, -0.09609842155416415),
    (0, 50.0, -0.08533767482611902),
    (1, 0.5, 0.05217374424234107),
    (1, 1.0, 0.19845733620194442),
    (1, 2.0, 0.6467637282835622),
    (1, 5.0, 0.8078119457940645),
    (1, 12.0, 0.5838573246424438),
    (1, 20.0, 0.4726881842910433),
    (1, 21.0, 0.6055145842210958),
    (1, 30.0, 0.7217503783469918),
    (1, 50.0, 0.5800784479454417),
]

rng = np.random.default_rng(20240817)
SWEEP_X = np.sort(rng.uniform(0.05, 50.0, size=40))


@pytest.mark.parametrize("order,x,expected", BESSEL_J_REFERENCE)
def test_bessel_j_reference(order, x, expected):
    assert abs(bessel_j(order, x) - expected) < 1e-12


@pytest.mark.parametrize("order,x,expected", BESSEL_Y_REFERENCE)
def test_bessel_y_reference(order, x, expected):
    assert abs(bessel_y(order, x) - expected) < 1e-10


@pytest.mark.parametrize("order,x,expected", STRUVE_REFERENCE)
def test_struve_reference(order, x, expected):
    assert abs(struve_h(order, x) - expected) < 1e-8


def test_bessel_j_at_origin():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(2, 0.0) == 0.0


def test_struve_at_origin():
    assert struve_h(0, 0.0) == 0.0
    assert struve_h(1, 0.0) == 0.0


@pytest.mark.parametrize("x", [0.3, 1.7, 4.9, 6.1, 13.0, 37.5])
def test_bessel_j_parity(x):
    # J_n(-x) = (-1)^n J_n(x)
    assert bessel_j(0, -x) == pytest.approx(bessel_j(0, x), abs=1e-14)
    assert bessel_j(1, -x) == pytest.approx(-bessel_j(1, x), abs=1e-14)
    assert bessel_j(2, -x) == pytest.approx(bessel_j(2, x), abs=1e-14)


@pytest.mark.parametrize("x", [0.3, 1.1, 4.0, 9.5, 26.0])
def test_struve_parity(x):
    # H0 odd, H1 even
    assert struve_h(0, -x) == pytest.approx(-struve_h(0, x), abs=1e-14)
    assert struve_h(1, -x) == pytest.approx(struve_h(1, x), abs=1e-14)


@pytest.mark.parametrize("x", SWEEP_X.tolist())
def test_bessel_recurrences(x):
    # X_2 = (2/x) X_1 - X_0 for both kinds
    assert abs(bessel_j(2, x)
               - (2.0 / x * bessel_j(1, x) - bessel_j(0, x))) < 1e-10
    assert abs(bessel_y(2, x)
               - (2.0 / x * bessel_y(1, x) - bessel_y(0, x))) < 1e-10


@pytest.mark.parametrize("x", SWEEP_X[SWEEP_X >= 0.1].tolist())
def test_bessel_wronskian(x):
    wronskian = bessel_j(1, x) * bessel_y(0, x) - bessel_j(0, x) * bessel_y(1, x)
    assert abs(wronskian - 2.0 / (math.pi * x)) < 1e-9


def test_branch_crossover_continuity():
    # both evaluation strategies must agree at the handover argument
    from chiralchain.specfun import (_bessel_j_integral, _bessel_j_series,
                                     _bessel_y_integral, _bessel_y_series,
                                     _struve_large, _struve_series)
    for order in (0, 1, 2):
        assert abs(_bessel_j_series(order, 6.0)
                   - _bessel_j_integral(order, 6.0)) < 1e-12
    for order in (0, 1):
        assert abs(_bessel_y_series(order, 6.0)
                   - _bessel_y_integral(order, 6.0)) < 1e-10
        assert abs(_struve_series(order, 20.0)
                   - _struve_large(order, 20.0)) < 1e-8


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(3, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, math.nan)
    with pytest.raises(DomainError):
        bessel_y(0, 0.0)
    with pytest.raises(DomainError):
        bessel_y(1, -2.0)
    with pytest.raises(DomainError):
        struve_h(2, 1.0)


def test_bessel_y_reports_divergence_below_cutoff():
    assert bessel_y(0, 1e-306) == -math.inf


# dense grid crossing the J1/x handover (0.1) and the series/quadrature
# handover (6.0)
DENSE_X = np.linspace(0.01, 50.0, 4001)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_bessel_arrays_against_scipy(order):
    from scipy import special
    assert DENSE_X.min() < 0.1 and DENSE_X.max() > 6.0
    j = bessel_j(order, DENSE_X)
    y = bessel_y(order, DENSE_X)
    assert j.shape == y.shape == DENSE_X.shape
    assert np.max(np.abs(j - special.jv(order, DENSE_X))) < 1e-12
    assert np.max(np.abs(y - special.yv(order, DENSE_X))) < 1e-10


def test_bessel_scalar_in_float_out():
    for fn in (bessel_j, bessel_y):
        for x in (0.5, 13.0, np.float64(2.0)):
            assert type(fn(1, x)) is float
    assert bessel_j(0, np.array([3.0])).shape == (1,)


def test_bessel_array_with_one_bad_element_raises():
    good = np.linspace(0.5, 20.0, 300)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            bessel_j(0, np.append(good, bad))
        with pytest.raises(DomainError):
            bessel_y(2, np.append(good, bad))
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            bessel_y(1, np.insert(good, 150, bad))
    # J is defined on the whole axis
    assert np.all(np.isfinite(bessel_j(1, np.append(good, -1.0))))


def test_bessel_y_divergence_cutoff_per_element():
    x = np.array([1e-306, 1.0, 1e-310, 7.0])
    for order in (0, 1, 2):
        y = bessel_y(order, x)
        assert y[0] == y[2] == -math.inf
        assert y[1] == bessel_y(order, 1.0) and y[3] == bessel_y(order, 7.0)


# the kernel-table sweep, 0.01:0.005:50
TABLE_X = 0.01 + 0.005 * np.arange(9999)


def test_bessel_value_does_not_depend_on_its_block():
    # shifting a table by an offset puts every point in another block
    # position, next to other points
    x = TABLE_X[::4]
    for order in (0, 1, 2):
        for fn, x in ((bessel_j, np.concatenate([-x[::-1], x])), (bessel_y, x)):
            table = fn(order, x)
            for offset in (1, 100, 255):
                assert np.array_equal(fn(order, x[offset:]), table[offset:])


def test_bessel_table_equals_pointwise_calls():
    # J1 at -x takes both J branches and the sign; Y2 takes every Y branch
    assert np.array_equal(bessel_j(1, -TABLE_X),
                          [bessel_j(1, -x) for x in TABLE_X.tolist()])
    assert np.array_equal(bessel_y(2, TABLE_X),
                          [bessel_y(2, x) for x in TABLE_X.tolist()])


# the series/quadrature handover 6 and its neighbouring floats
CROSSOVER_X = np.array([np.nextafter(6.0, 0.0), 6.0, np.nextafter(6.0, 7.0)])


def test_bessel_columns_against_scipy():
    from scipy import special

    from chiralchain.specfun import _bessel_columns
    x = np.sort(np.concatenate([DENSE_X, CROSSOVER_X]))
    columns = _bessel_columns(x)
    assert columns.shape == (x.size, 5)
    for order in (0, 1, 2):
        assert np.max(np.abs(columns[:, order] - special.jv(order, x))) < 1e-12
    for order in (0, 1):
        assert np.max(np.abs(columns[:, 3 + order] - special.yv(order, x))) < 1e-10
    # every block position, next to other points
    for offset in (1, 100, 255):
        assert np.array_equal(_bessel_columns(x[offset:]), columns[offset:])


def test_bessel_functions_are_columns_of_one_core():
    from chiralchain.specfun import _bessel_columns
    x = np.concatenate([TABLE_X[::20], CROSSOVER_X, [1e-306, 1e-200]])
    columns = _bessel_columns(x)
    for order in (0, 1, 2):
        assert np.array_equal(bessel_j(order, x), columns[:, order])
    for order in (0, 1):
        assert np.array_equal(bessel_y(order, x), columns[:, 3 + order])
    assert np.all(columns[-2, 3:] == -math.inf)


def test_pv_odd_integrand_vanishes():
    integrand = PVIntegrand(lambda x: 1.0 / x, 0.0, (-1.0, 1.0))
    assert abs(principal_value(integrand, tol=1e-9)) < 1e-9


def test_pv_shifted_pole_closed_form():
    # PV int_0^2 dx/(x-1) = 0; with a smooth factor e^x the value is
    # e * Ei-difference, easier frozen: PV int_-1^1 e^x/x dx = 2*Shi(1)
    integrand = PVIntegrand(lambda x: math.exp(x) / x, 0.0, (-1.0, 1.0))
    shi_1 = 1.0572508753757285  # sinh-integral Shi(1)
    assert abs(principal_value(integrand, tol=1e-9) - 2.0 * shi_1) < 1e-8


@pytest.mark.parametrize("b", [0.5, 2.0])
def test_pv_bessel_identity_j0(b):
    # PV int_0^inf J0(a)/(a-b) da = -(pi/2)[Y0(b) + H0(b)]
    integrand = PVIntegrand(
        lambda a: bessel_j(0, a) / (a - b), b, (0.0, math.inf))
    value = principal_value(integrand, tol=1e-7)
    expected = -(math.pi / 2.0) * (bessel_y(0, b) + struve_h(0, b))
    assert abs(value - expected) < 1e-6


def test_pv_rejects_pole_outside_bounds():
    with pytest.raises(DomainError):
        PVIntegrand(lambda x: 1.0 / (x - 3.0), 3.0, (0.0, 2.0))
    with pytest.raises(DomainError):
        principal_value(
            PVIntegrand(lambda x: 1.0 / x, 0.0, (-1.0, 1.0)), tol=-1.0)


def test_oscillatory_tail_matches_dirichlet():
    # int_1^inf sin(x)/x dx = pi/2 - Si(1)
    si_1 = 0.9460830703671830
    value = oscillatory_integral(lambda x: math.sin(x) / x, 1.0, tol=1e-9)
    assert abs(value - (math.pi / 2.0 - si_1)) < 1e-8


def test_oscillatory_tail_nonconvergence_raises():
    # too few segments to even form two accelerated estimates
    with pytest.raises(NumericsError) as info:
        oscillatory_integral(lambda x: math.sin(x) / x, 1.0, tol=1e-12,
                             max_segments=5)
    assert info.value.estimate is not None
