"""Pointwise oracle for the tests: the residual functional U_f sampled at
points of the disk, against which the coefficient-based checks of
:mod:`merobounds.criteria` are compared."""

import numpy as np

from merobounds.functions import PoleFunction


def u_functional(f: PoleFunction, z):
    """Evaluate (z/f(z))**2 * f'(z) - 1 at scalar or array ``z``.

    Computed through the z/f series as inv(z) - z*inv'(z) - 1, which is
    the same quantity without forming f itself.
    """
    inv = f.inv_series
    zz = np.asarray(z, dtype=np.complex128)
    if inv.order == 0:  # z/f = 1, so U vanishes
        u = np.zeros(zz.shape, dtype=np.complex128)
    else:
        u = inv.evaluate(zz) - zz * inv.differentiate().evaluate(zz) - 1.0
    return complex(u) if zz.ndim == 0 else u
