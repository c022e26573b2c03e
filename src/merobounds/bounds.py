"""Sharp bounds and coefficient inequalities, with slack reporting.

The closed forms collected here are the extremal values of Dirichlet
integrals, integral means and coefficient moduli over the function classes
in :mod:`merobounds.functions`.  Each check produces a BoundReport whose
slack is ``bound - computed``; the canonical extremal functions must land
on zero slack up to roundoff, everything else strictly inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (BadParameter, NoPole, check_inside_pole, check_lambda, check_open_radius,
                     check_pole, check_radius)
from .functions import ClassKind, ClassSpec, PoleFunction, mu
from .integrals import (dirichlet_f_over_z_series, dirichlet_f_series, dirichlet_series,
                        l1_mean_series)

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
    if n < 2:
        raise BadParameter("coefficient bounds start at n = 2")
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


# ---- closed-form maxima --------------------------------------------------------

def max_dirichlet_zf_sigma_p(r: float, p: float) -> float:
    """Largest Dirichlet integral of z/f over univalent f with pole p:
    pi r**2 ((1/p + p)**2 + 2 r**2)."""
    check_pole(p)
    check_radius(r)
    return math.pi * r * r * ((1.0 / p + p) ** 2 + 2.0 * r * r)


def max_dirichlet_zf_up_lambda(r: float, p: float, lam: float) -> float:
    """Largest Dirichlet integral of z/f over the residual-functional class:
    pi r**2 ((1/p + lam*mu*p)**2 + 2 (lam*mu)**2 r**2)."""
    check_lambda(lam)
    check_pole(p)
    check_radius(r)
    m = lam * mu(p)
    return math.pi * r * r * ((1.0 / p + m * p) ** 2 + 2.0 * m * m * r * r)


def max_dirichlet_f_over_z(r: float, p: float) -> float:
    """Largest Dirichlet integral of f/z over univalent f with pole p,
    for radii strictly inside the pole."""
    check_inside_pole(r, p)
    lead = math.pi * p * p * r * r / (1.0 - p * p) ** 2
    return lead * (
        1.0 / (p * p - r * r) ** 2
        - 2.0 / (1.0 - r * r) ** 2
        + p**4 / (1.0 - p * p * r * r) ** 2
    )


def max_dirichlet_f(r: float, p: float) -> float:
    """Largest Dirichlet integral of f itself over univalent f with pole p,
    for radii strictly inside the pole."""
    check_inside_pole(r, p)
    lead = math.pi * p * p * r * r / (1.0 - p * p) ** 2
    return lead * (
        p * p / (p * p - r * r) ** 2
        - 2.0 / (1.0 - r * r) ** 2
        + p * p / (1.0 - p * p * r * r) ** 2
    )


# ---- pole-free (analytic class) reference values ---------------------------------

def s_class_dirichlet_zf_max(r: float) -> float:
    """Largest Dirichlet integral of z/f over the analytic univalent class:
    2 pi r**2 (r**2 + 2), the limit of the pole-class bound as p -> 1."""
    check_radius(r)
    return 2.0 * math.pi * r * r * (r * r + 2.0)


def s_class_dirichlet_f_over_z_max(r: float) -> float:
    """Largest Dirichlet integral of f/z over the analytic univalent class:
    2 pi r**2 (r**2 + 2) / (1 - r**2)**4."""
    check_open_radius(r)
    return 2.0 * math.pi * r * r * (r * r + 2.0) / (1.0 - r * r) ** 4


def s_class_dirichlet_f_max(r: float) -> float:
    """Largest Dirichlet integral of f over the analytic univalent class:
    pi r**2 (r**4 + 4 r**2 + 1) / (1 - r**2)**4."""
    check_open_radius(r)
    return math.pi * r * r * (r**4 + 4.0 * r * r + 1.0) / (1.0 - r * r) ** 4


# ---- integral-mean bounds ----------------------------------------------------------

def l1_bound(class_spec: ClassSpec, r: float) -> float:
    """Sharp upper bound for the quadratic integral mean at radius r."""
    check_radius(r)
    kind = class_spec.kind
    if kind is ClassKind.S:
        return 1.0 + 4.0 * r * r + r**4
    if kind is ClassKind.U_P_LAMBDA:
        m = class_spec.lam * mu(class_spec.p)
        return 1.0 + (1.0 / class_spec.p + m * class_spec.p) ** 2 * r * r + m * m * r**4
    return 1.0 + (1.0 / class_spec.p + class_spec.p) ** 2 * r * r + r**4


# ---- dispatching check ---------------------------------------------------------------

#: Series route of each quantity.  The routes are looked up by name at call
#: time, so a wrapper installed on this module sees every call.
_SERIES_ROUTES = {
    BoundQuantity.DIRICHLET_ZF: lambda f, r: dirichlet_series(f.inv_series, r),
    BoundQuantity.DIRICHLET_F: lambda f, r: dirichlet_f_series(f, r),
    BoundQuantity.DIRICHLET_F_OVER_Z: lambda f, r: dirichlet_f_over_z_series(f, r),
    BoundQuantity.L1: lambda f, r: l1_mean_series(f, r),
}

#: Sharp maximum of each (class, quantity) pair the paper gives, as a
#: function of (class_spec, r).
_SHARP_MAXIMA = {
    (ClassKind.SIGMA_P, BoundQuantity.DIRICHLET_ZF):
        lambda c, r: max_dirichlet_zf_sigma_p(r, c.p),
    (ClassKind.U_P_LAMBDA, BoundQuantity.DIRICHLET_ZF):
        lambda c, r: max_dirichlet_zf_up_lambda(r, c.p, c.lam),
    (ClassKind.S, BoundQuantity.DIRICHLET_ZF): lambda c, r: s_class_dirichlet_zf_max(r),
    (ClassKind.SIGMA_P, BoundQuantity.DIRICHLET_F): lambda c, r: max_dirichlet_f(r, c.p),
    (ClassKind.S, BoundQuantity.DIRICHLET_F): lambda c, r: s_class_dirichlet_f_max(r),
    (ClassKind.SIGMA_P, BoundQuantity.DIRICHLET_F_OVER_Z):
        lambda c, r: max_dirichlet_f_over_z(r, c.p),
    (ClassKind.S, BoundQuantity.DIRICHLET_F_OVER_Z):
        lambda c, r: s_class_dirichlet_f_over_z_max(r),
    **{(kind, BoundQuantity.L1): l1_bound for kind in ClassKind},
}


def sharp_maximum(class_spec: ClassSpec, quantity: BoundQuantity, r: float) -> float:
    """The paper's sharp maximum of a quantity over a class at radius r.

    Raises BadParameter where the paper gives none (Dirichlet integrals of
    f and f/z over U_P_LAMBDA) and for r outside the closed form's domain,
    RadiusBeyondPole for the f and f/z maxima of a pole class at r >= p.
    """
    quantity = BoundQuantity(quantity)
    maximum = _SHARP_MAXIMA.get((class_spec.kind, quantity))
    if maximum is None:
        raise BadParameter(
            f"no sharp bound for {quantity.value} over class {class_spec.kind.value}")
    return maximum(class_spec, r)


def check_bound(
    f: PoleFunction, class_spec: ClassSpec, quantity: BoundQuantity, r: float
) -> BoundReport:
    """Compute a quantity for f via its series route and compare it against
    the sharp maximum of the asserted class.

    Raises:
        ClassMismatch: when the function's pole and the class's pole differ
            (or one has a pole where the other forbids it).
        BadParameter: from :func:`sharp_maximum`, and when the series route
            overflows.
        RadiusBeyondPole: for the f and f/z integrals at r >= p.
    """
    quantity = BoundQuantity(quantity)
    class_spec.match(f)
    bound = sharp_maximum(class_spec, quantity, r)
    computed = _SERIES_ROUTES[quantity](f, r).value
    return build_report(quantity.value, computed, bound, r=r, class_spec=class_spec)
