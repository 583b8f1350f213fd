"""Bessel values for the tests, read off the package's one Bessel core.

bessel(name, x) is J0, J1, J2, Y0, Y1 or Y2 of x >= 0 (x > 0 for Y2),
from the columns of specfun._bessel_columns; Y2 is (2/x) Y1 - Y0, as the
kernels fold it in.  A float gives a float, an array an array of its
shape.
"""

import numpy as np

from chiralchain.specfun import _bessel_columns

COLUMNS = ("J0", "J1", "J2", "Y0", "Y1")


def bessel(name, x):
    points = np.asarray(x, dtype=float)
    flat = points.ravel()
    columns = _bessel_columns(flat)
    if name == "Y2":
        values = 2.0 / flat * columns[:, 4] - columns[:, 3]
    else:
        values = columns[:, COLUMNS.index(name)]
    return float(values[0]) if points.ndim == 0 else values.reshape(points.shape)
