"""Bessel values against frozen references, and the test-side references.

The Bessel values are the columns of specfun._bessel_columns, read
through tests/bessel.py.  The Kramers-Kronig identities of acceptance
criteria 12 and 13 take the Struve functions from scipy.special and
their principal values and tails from tests/quadrature.py; those are
pinned here against frozen tables and closed forms, so an identity
failure points at the package's code.
"""

import math

import numpy as np
import pytest
from scipy.special import struve

from bessel import bessel
from chiralchain.errors import NumericsError
from chiralchain.specfun import _bessel_columns
from quadrature import oscillatory_integral, principal_value

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
    assert abs(bessel(f"J{order}", x) - expected) < 1e-12


@pytest.mark.parametrize("order,x,expected", BESSEL_Y_REFERENCE)
def test_bessel_y_reference(order, x, expected):
    assert abs(bessel(f"Y{order}", x) - expected) < 1e-10


@pytest.mark.parametrize("order,x,expected", STRUVE_REFERENCE)
def test_struve_reference(order, x, expected):
    assert abs(struve(order, x) - expected) < 1e-8


def test_bessel_j_at_origin():
    assert bessel("J0", 0.0) == 1.0
    assert bessel("J1", 0.0) == 0.0
    assert bessel("J2", 0.0) == 0.0


def test_struve_at_origin():
    assert struve(0, 0.0) == 0.0
    assert struve(1, 0.0) == 0.0


@pytest.mark.parametrize("x", [0.3, 1.1, 4.0, 9.5, 26.0])
def test_struve_parity(x):
    # H0 odd, H1 even
    assert struve(0, -x) == pytest.approx(-struve(0, x), abs=1e-14)
    assert struve(1, -x) == pytest.approx(struve(1, x), abs=1e-14)


@pytest.mark.parametrize("x", SWEEP_X.tolist())
def test_bessel_recurrences(x):
    # J2 = (2/x) J1 - J0; Y2 is defined by the same recurrence
    assert abs(bessel("J2", x)
               - (2.0 / x * bessel("J1", x) - bessel("J0", x))) < 1e-10


@pytest.mark.parametrize("x", SWEEP_X[SWEEP_X >= 0.1].tolist())
def test_bessel_wronskian(x):
    wronskian = bessel("J1", x) * bessel("Y0", x) - bessel("J0", x) * bessel("Y1", x)
    assert abs(wronskian - 2.0 / (math.pi * x)) < 1e-9


def test_branch_crossover_continuity():
    # each pair of neighbouring branches agrees at its handover: the series
    # and Miller's recurrence at 1, the recurrence and Hankel's expansion at
    # 17, both evaluated at the last float below the handover
    from chiralchain.specfun import (_HANKEL_LIMIT, _SERIES_LIMIT, _hankel_columns,
                                     _miller_columns, _series_columns)
    for below, above, limit in ((_series_columns, _miller_columns, _SERIES_LIMIT),
                                (_miller_columns, _hankel_columns, _HANKEL_LIMIT)):
        x = np.array([np.nextafter(limit, 0.0)])
        gap = np.abs(below(x)[0] - above(x)[0])
        # columns J0, J1, J2, Y0, Y1
        assert np.all(gap[:3] < 1e-12)
        assert np.all(gap[3:] < 1e-10)


def test_bessel_y_reports_divergence_below_cutoff():
    assert bessel("Y0", 1e-306) == -math.inf


# dense grid crossing the J1/x handover (0.1) and the branch handovers
# (1 and 17)
DENSE_X = np.linspace(0.01, 50.0, 4001)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_bessel_arrays_against_scipy(order):
    from scipy import special
    assert DENSE_X.min() < 0.1 and DENSE_X.max() > 17.0
    j = bessel(f"J{order}", DENSE_X)
    y = bessel(f"Y{order}", DENSE_X)
    assert j.shape == y.shape == DENSE_X.shape
    assert np.max(np.abs(j - special.jv(order, DENSE_X))) < 1e-12
    assert np.max(np.abs(y - special.yv(order, DENSE_X))) < 1e-10


def test_bessel_y_divergence_cutoff_per_element():
    x = np.array([1e-306, 1.0, 1e-310, 7.0])
    for name in ("Y0", "Y1"):
        y = bessel(name, x)
        assert y[0] == y[2] == -math.inf
        assert y[1] == bessel(name, 1.0) and y[3] == bessel(name, 7.0)


# the kernel-table sweep, 0.01:0.005:50
TABLE_X = 0.01 + 0.005 * np.arange(9999)


def test_bessel_value_does_not_depend_on_its_block():
    # shifting a table by an offset puts every point in another position,
    # next to other points
    x = TABLE_X[::4]
    table = _bessel_columns(x)
    for offset in (1, 100, 255):
        assert np.array_equal(_bessel_columns(x[offset:]), table[offset:])
    # and the points of one branch on their own
    middle = (x >= 1.0) & (x < 17.0)
    assert np.array_equal(_bessel_columns(x[middle]), table[middle])
    # and the points of the series branch, each next to others
    x = np.linspace(0.0, 1.0, 3000, endpoint=False)
    table = _bessel_columns(x)
    for offset in (1, 500):
        assert np.array_equal(_bessel_columns(x[offset:]), table[offset:])


def test_bessel_value_does_not_depend_on_the_order_of_its_points():
    # shuffled points interleave the three branches, so each branch's
    # points are gathered from all over the call and put back
    x = np.concatenate([TABLE_X, [0.0, 1e-310, 1.0, 17.0, 3.0, 3.0]])
    table = _bessel_columns(x)
    order = np.random.default_rng(17).permutation(x.size)
    assert np.array_equal(_bessel_columns(x[order]), table[order])
    assert np.array_equal(_bessel_columns(x[::-1]), table[::-1])


def test_bessel_table_equals_pointwise_calls():
    # the table takes all three branches of every column
    assert np.array_equal(_bessel_columns(TABLE_X), np.concatenate(
        [_bessel_columns(np.array([x])) for x in TABLE_X.tolist()]))


# the branch handovers 1 and 17 and their neighbouring floats
CROSSOVER_X = np.array([np.nextafter(limit, direction) for limit in (1.0, 17.0)
                        for direction in (0.0, limit, math.inf)])


def test_bessel_columns_against_scipy():
    from scipy import special

    x = np.sort(np.concatenate([DENSE_X, CROSSOVER_X]))
    columns = _bessel_columns(x)
    assert columns.shape == (x.size, 5)
    for order in (0, 1, 2):
        assert np.max(np.abs(columns[:, order] - special.jv(order, x))) < 1e-12
    for order in (0, 1):
        assert np.max(np.abs(columns[:, 3 + order] - special.yv(order, x))) < 1e-10
    # every position, next to other points
    for offset in (1, 100, 255):
        assert np.array_equal(_bessel_columns(x[offset:]), columns[offset:])


def test_bessel_columns_against_scipy_at_large_arguments():
    # far beyond the kernel tables' 50: Hankel's expansion only gets more
    # accurate as x grows
    from scipy import special

    x = np.linspace(6.0, 1000.0, 20001)
    columns = _bessel_columns(x)
    for order in (0, 1, 2):
        assert np.max(np.abs(columns[:, order] - special.jv(order, x))) < 1e-12
    for order in (0, 1):
        assert np.max(np.abs(columns[:, 3 + order] - special.yv(order, x))) < 1e-10


@pytest.mark.parametrize("b", [0.5, 2.0])
def test_pv_bessel_identity_j0(b):
    # PV int_0^inf J0(a)/(a-b) da = -(pi/2)[Y0(b) + H0(b)]
    value = principal_value(lambda a: bessel("J0", a), b, tol=1e-7)
    expected = -(math.pi / 2.0) * (bessel("Y0", b) + struve(0, b))
    assert abs(value - expected) < 1e-6


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
