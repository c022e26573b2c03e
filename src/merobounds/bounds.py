"""The paper's sharp maxima, coefficient inequalities and bound reports.

:func:`sharp_maximum` is the one public source of a sharp bound: the largest
Dirichlet integral of z/f, f or f/z, or L1 mean, over a class of
:mod:`merobounds.functions` at radius r, read from ``_SHARP_MAXIMA``, with r
checked once.  :func:`check_bounds` compares series-route values at a
sequence of radii with it, and :func:`check_bound` is its one-radius case.
Each check produces a BoundReport whose slack is ``bound - computed``; the
canonical extremal functions land on zero slack up to roundoff.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (BadParameter, NoPole, check_count, check_inside_pole, check_lambda,
                     check_open_radius, check_pole, check_radius)
from .functions import ClassKind, ClassSpec, PoleFunction, mu
from .integrals import (dirichlet_f_over_z_values, dirichlet_f_values, dirichlet_values,
                        l1_mean_values)

#: Absolute slack below which a bound still counts as satisfied.
SATISFACTION_TOL = 1e-9

#: Relative slack below which a satisfied bound counts as attained.
SHARPNESS_RTOL = 1e-9


class BoundQuantity(str, Enum):
    DIRICHLET_ZF = "DIRICHLET_ZF"
    DIRICHLET_F = "DIRICHLET_F"
    DIRICHLET_F_OVER_Z = "DIRICHLET_F_OVER_Z"
    L1 = "L1"


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound check.

    ``satisfied`` tolerates slack down to -SATISFACTION_TOL; ``sharp`` means
    satisfied with |slack| within SHARPNESS_RTOL of the bound itself, so a
    sharp report is always a satisfied one.
    """

    quantity: str
    computed: float
    bound: float
    slack: float
    satisfied: bool
    sharp: bool
    r: float
    class_spec: Optional[ClassSpec] = None


def build_report(
    quantity: str,
    computed: float,
    bound: float,
    r: float,
    class_spec: Optional[ClassSpec] = None,
) -> BoundReport:
    slack = bound - computed
    satisfied = slack >= -SATISFACTION_TOL
    sharp = satisfied and abs(slack) <= SHARPNESS_RTOL * abs(bound)
    return BoundReport(quantity, computed, bound, slack, satisfied, sharp, r, class_spec)


# ---- coefficient inequalities ------------------------------------------------

def jenkins_bound(n: int, p: float) -> float:
    """Largest |a_n| over univalent functions with a pole at p:
    (1 - p**(2n)) / ((1 - p**2) p**(n-1)), the geometric sum
    (1 + p**2 + ... + p**(2n-2)) / p**(n-1) in closed form."""
    check_count(n, 2, "coefficient bounds start at n = 2")
    check_pole(p)
    denominator = (1.0 - p * p) * p ** (n - 1)
    bound = (1.0 - p ** (2 * n)) / denominator if denominator > 0.0 else math.inf
    if bound == math.inf:
        raise BadParameter(f"coefficient bound at n = {n}, p = {p!r} exceeds the float range")
    return bound


def gronwall_check(f: PoleFunction) -> BoundReport:
    """Area-theorem consequence sum_{n>=2} (n-1) |b_n|**2 <= 1 on the z/f
    coefficients (the empty sum 0 below order 2).  A violation certifies
    that f is not univalent on the disk, whatever its pole situation."""
    coeffs = f.inv_series.coefficients
    weights = np.arange(1, len(coeffs) - 1, dtype=np.float64)
    computed = float(np.sum(weights * np.abs(coeffs[2:]) ** 2))
    return build_report("GRONWALL", computed, 1.0, r=1.0)


def lemma1_check(f: PoleFunction, lam: float, t: float, r: float) -> BoundReport:
    """Weighted tail inequality sum_{n>=2} n**t |b_n|**2 r**(2n) <= 2**t
    (lam*mu)**2 r**4, valid for t <= 2 whenever the residual functional of
    f stays below lam*mu on the disk."""
    if not t <= 2.0:
        raise BadParameter("the weighted tail bound only holds for t <= 2")
    check_lambda(lam)
    check_radius(r)
    if f.pole is None:
        raise NoPole("the weighted tail bound needs the pole to set its scale")
    computed = f.inv_series.weighted_coefficient_sum(t, r, start_index=2)
    bound = 2.0**t * (lam * mu(f.pole)) ** 2 * r**4
    return build_report("LEMMA_TAIL", computed, bound, r=r)


# ---- the paper's sharp maxima -------------------------------------------------------

def _inside_pole(p: float, r: float, near: float, far: float) -> float:
    """Largest Dirichlet integral of f (near = far = p**2) or f/z (near = 1,
    far = p**4) over univalent f with pole p, at radius r < p.  NaN once the
    lead or (p**2 - r**2)**2 falls below the normal float range, where
    their digits are lost and the lead could round to 0."""
    lead = math.pi * p * p * r * r / (1.0 - p * p) ** 2
    gap = (p * p - r * r) ** 2
    if min(lead, gap) < sys.float_info.min:
        return math.nan
    return lead * (near / gap - 2.0 / (1.0 - r * r) ** 2 + far / (1.0 - p * p * r * r) ** 2)


def _residual_zf(c: ClassSpec, r: float) -> float:
    """pi r**2 ((1/p + lam*mu*p)**2 + 2 (lam*mu)**2 r**2)."""
    m = c.lam * mu(c.p)
    return math.pi * r * r * ((1.0 / c.p + m * c.p) ** 2 + 2.0 * m * m * r * r)


def _residual_l1(c: ClassSpec, r: float) -> float:
    """1 + (1/p + lam*mu*p)**2 r**2 + (lam*mu)**2 r**4."""
    m = c.lam * mu(c.p)
    return 1.0 + (1.0 / c.p + m * c.p) ** 2 * r * r + m * m * r**4


#: Sharp maximum of each (class, quantity) pair the paper gives, as a
#: function of (class_spec, r).  Each class's form is written out on its
#: own, so the p -> 1 limit and class-nesting checks of ``verify`` compare
#: independent expressions.
_SHARP_MAXIMA = {
    (ClassKind.SIGMA_P, BoundQuantity.DIRICHLET_ZF):  # pi r**2 ((1/p + p)**2 + 2 r**2)
        lambda c, r: math.pi * r * r * ((1.0 / c.p + c.p) ** 2 + 2.0 * r * r),
    (ClassKind.U_P_LAMBDA, BoundQuantity.DIRICHLET_ZF): _residual_zf,
    (ClassKind.S, BoundQuantity.DIRICHLET_ZF):  # 2 pi r**2 (r**2 + 2)
        lambda c, r: 2.0 * math.pi * r * r * (r * r + 2.0),
    (ClassKind.SIGMA_P, BoundQuantity.DIRICHLET_F):
        lambda c, r: _inside_pole(c.p, r, c.p * c.p, c.p * c.p),
    (ClassKind.S, BoundQuantity.DIRICHLET_F):  # pi r**2 (r**4 + 4 r**2 + 1) / (1 - r**2)**4
        lambda c, r: math.pi * r * r * (r**4 + 4.0 * r * r + 1.0) / (1.0 - r * r) ** 4,
    (ClassKind.SIGMA_P, BoundQuantity.DIRICHLET_F_OVER_Z):
        lambda c, r: _inside_pole(c.p, r, 1.0, c.p**4),
    (ClassKind.S, BoundQuantity.DIRICHLET_F_OVER_Z):  # 2 pi r**2 (r**2 + 2) / (1 - r**2)**4
        lambda c, r: 2.0 * math.pi * r * r * (r * r + 2.0) / (1.0 - r * r) ** 4,
    (ClassKind.SIGMA_P, BoundQuantity.L1):
        lambda c, r: 1.0 + (1.0 / c.p + c.p) ** 2 * r * r + r**4,
    (ClassKind.U_P_LAMBDA, BoundQuantity.L1): _residual_l1,
    (ClassKind.S, BoundQuantity.L1): lambda c, r: 1.0 + 4.0 * r * r + r**4,
}


def sharp_maximum(class_spec: ClassSpec, quantity: BoundQuantity, r: float) -> float:
    """The paper's sharp maximum of a quantity over a class at radius r.

    r lies in (0, 1] for DIRICHLET_ZF and L1; the f and f/z maxima need
    0 < r < p over a pole class and 0 < r < 1 over S.

    Raises BadParameter where the paper gives none (Dirichlet integrals of
    f and f/z over U_P_LAMBDA), and where the closed form leaves the float
    range; BadRadius or RadiusBeyondPole for r outside its domain.
    """
    quantity = BoundQuantity(quantity)
    maximum = _SHARP_MAXIMA.get((class_spec.kind, quantity))
    if maximum is None:
        raise BadParameter(
            f"no sharp bound for {quantity.value} over class {class_spec.kind.value}")
    if quantity in (BoundQuantity.DIRICHLET_ZF, BoundQuantity.L1):
        check_radius(r)
    elif class_spec.p is None:
        check_open_radius(r)
    else:
        check_inside_pole(r, class_spec.p)
    try:
        value = maximum(class_spec, r)
    except ArithmeticError:  # (1/p + p)**2 overflows at a tiny pole
        value = math.nan
    if not math.isfinite(value):
        raise BadParameter(
            f"sharp maximum of {quantity.value} over class {class_spec.kind.value} at "
            f"p = {class_spec.p!r}, r = {r!r} exceeds the float range")
    return value


# ---- dispatching check ---------------------------------------------------------------

#: Series-route values of each quantity at a sequence of radii.  The routes
#: are looked up by name at call time, so a wrapper installed on this module
#: sees every call.
_SERIES_VALUES = {
    BoundQuantity.DIRICHLET_ZF: lambda f, radii: dirichlet_values(f.inv_series, radii),
    BoundQuantity.DIRICHLET_F: lambda f, radii: dirichlet_f_values(f, radii),
    BoundQuantity.DIRICHLET_F_OVER_Z: lambda f, radii: dirichlet_f_over_z_values(f, radii),
    BoundQuantity.L1: lambda f, radii: l1_mean_values(f, radii),
}


def check_bounds(
    f: PoleFunction, class_spec: ClassSpec, quantity: BoundQuantity, radii
) -> list[BoundReport]:
    """Compute a quantity for f via its series route at each of a sequence
    of radii and compare it against the sharp maximum of the asserted class.

    Every radius is checked, and its sharp maximum found, before the series
    route runs once over all of them.  The reports, in the order of radii,
    equal those of :func:`check_bound` at each radius.

    Raises:
        ClassMismatch: when the function's pole and the class's pole differ
            (or one has a pole where the other forbids it).
        BadParameter: from :func:`sharp_maximum`, and when the series route
            overflows.
        RadiusBeyondPole: for the f and f/z integrals at r >= p.
    """
    quantity = BoundQuantity(quantity)
    class_spec.match(f)
    radii = list(radii)
    bounds = [sharp_maximum(class_spec, quantity, r) for r in radii]
    if not radii:
        return []
    computed = _SERIES_VALUES[quantity](f, radii).tolist()
    return [build_report(quantity.value, value, bound, r=r, class_spec=class_spec)
            for value, bound, r in zip(computed, bounds, radii)]


def check_bound(
    f: PoleFunction, class_spec: ClassSpec, quantity: BoundQuantity, r: float
) -> BoundReport:
    """:func:`check_bounds` at the one radius r."""
    return check_bounds(f, class_spec, quantity, (r,))[0]
