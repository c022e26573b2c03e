"""Pointwise oracle for the tests: the residual functional U_f sampled at
points of the disk, against which the coefficient-based checks of
:mod:`merobounds.criteria` are compared."""

import numpy as np
from numpy.polynomial.polynomial import polyder

from merobounds.functions import PoleFunction
from merobounds.series import TruncatedSeries


def u_functional(f: PoleFunction, z):
    """Evaluate (z/f(z))**2 * f'(z) - 1 at scalar or array ``z``.

    Computed through the z/f series as inv(z) - z*inv'(z) - 1, which is
    the same quantity without forming f itself.
    """
    inv = f.inv_series
    d_inv = TruncatedSeries(polyder(inv.coefficients))
    zz = np.asarray(z, dtype=np.complex128)
    u = inv.evaluate(zz) - zz * d_inv.evaluate(zz) - 1.0
    return complex(u) if zz.ndim == 0 else u
