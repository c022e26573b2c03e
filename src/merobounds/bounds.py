"""The paper's sharp maxima, coefficient inequalities and bound reports.

:func:`sharp_maxima` is the one public source of a sharp bound: the largest
Dirichlet integral of z/f, f or f/z, or L1 mean, over a class of
:mod:`merobounds.functions` at each of a sequence of radii, by a closed
form of ``_SHARP_MAXIMA`` in Python floats, the radii checked in one pass.
``_judge`` judges several quantities of several functions at a sequence of
radii at once: the (M, Q, R) values of one call of ``integrals._values``,
by the series routes of its ``_ROUTES`` table, against the maxima of
:func:`sharp_maxima`.  :func:`check_quantities` is its one-function case.

Each check produces a BoundReport, an immutable named tuple whose slack is
``bound - computed``; ``_verdict`` is the one rule for slack, satisfied and
sharp, on floats in :func:`build_report` and on arrays in ``_judge``.  The
canonical extremal functions land on zero slack up to roundoff.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .errors import (BadParameter, NoPole, check_count, check_lambda, check_pole, check_radii,
                     check_radius)
from .functions import ClassKind, ClassSpec, PoleFunction, mu
from .integrals import INSIDE_POLE, BoundQuantity, _values
from .series import _parseval

#: Absolute slack below which a bound still counts as satisfied.
SATISFACTION_TOL = 1e-9

#: Relative slack below which a satisfied bound counts as attained.
SHARPNESS_RTOL = 1e-9


class BoundReport(NamedTuple):
    """Outcome of one bound check, an immutable named tuple.

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


def _verdict(computed, bound):
    """(slack, satisfied, sharp) of computed values against their bounds, as
    the rule of :class:`BoundReport` reads them: floats give floats and
    bools, arrays give arrays of the same shape."""
    slack = bound - computed
    satisfied = slack >= -SATISFACTION_TOL
    return slack, satisfied, satisfied & (abs(slack) <= SHARPNESS_RTOL * abs(bound))


def build_report(quantity: str, computed: float, bound: float, r: float) -> BoundReport:
    return BoundReport(quantity, computed, bound, *_verdict(computed, bound), r)


# ---- coefficient inequalities ------------------------------------------------

def jenkins_bound(n: int, p: float) -> float:
    """Largest |a_n| over univalent functions with a pole at p:
    (1 - p**(2n)) / ((1 - p**2) p**(n-1)), the geometric sum
    (1 + p**2 + ... + p**(2n-2)) / p**(n-1) in closed form."""
    check_count(n, 2, "coefficient bounds start at n = 2")
    check_pole(p)
    n, p = int(n), float(p)
    denominator = (1.0 - p * p) * p ** (n - 1)
    bound = (1.0 - p ** (2 * n)) / denominator if denominator > 0.0 else math.inf
    if bound == math.inf:
        raise BadParameter(f"coefficient bound at n = {n}, p = {p!r} exceeds the float range")
    return bound


def gronwall_check(f: PoleFunction) -> BoundReport:
    """Area-theorem consequence sum_{n>=2} (n-1) |b_n|**2 <= 1 on the z/f
    coefficients (the empty sum 0 below order 2).  A violation certifies
    that f is not univalent on the disk, whatever its pole situation; a sum
    that overflows reads inf, which exceeds 1 as the true sum does."""
    computed = float(_parseval(f.inv_series.coefficients[1:], 1.0, 1.0, 1))
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
    if t == -math.inf:
        raise BadParameter(f"exponent t {t!r} is not finite")
    t, lam, r = float(t), float(lam), float(r)
    computed = float(_parseval(f.inv_series.coefficients, t, r, 2))
    bound = 2.0**t * (lam * mu(f.pole)) ** 2 * r**4
    return build_report("LEMMA_TAIL", computed, bound, r=r)


# ---- the paper's sharp maxima -------------------------------------------------------

def _inside_pole(p, r, numerator):
    """Largest Dirichlet integral of f or f/z over univalent f with pole p,
    at radius r < p.

    With P = p**2, R = r**2 and e = (p - r)(p + r), both maxima are
    pi P R N / (e (1 - R) (1 - P R))**2, N the ``numerator`` of (R, e).
    The paper's form, a lead of 1 / (1 - P)**2 times a bracket that
    cancels as p -> 1, loses digits there (1.7e-4 relative at
    p = 0.999999); this one has the (1 - P)**2 cancelled symbolically and
    agrees with 60-digit mpmath to about 1e-14 up to p = 1 - 1e-12.  NaN
    once pi P R / ((1 - R) (1 - P R))**2 or e**2 falls below the normal
    float range, where their digits are lost and the value could round to
    0.  e keeps the digits that P - R would cancel as r nears p."""
    pp, rr = p * p, r * r
    e = (p - r) * (p + r)
    lead = math.pi * pp * rr / ((1.0 - rr) * (1.0 - pp * rr)) ** 2
    gap = e * e
    if lead < sys.float_info.min or gap < sys.float_info.min:
        return math.nan
    return lead * (numerator(rr, e) / gap)


def _numerator_f(rr, e):
    """R (1 - R**2)**2 + e (1 + 2R - 2R**2 - 2R**3 + R**4) - 2 R**2 e**2."""
    return (rr * (1.0 - rr * rr) ** 2
            + e * (1.0 + rr * (2.0 + rr * (-2.0 + rr * (-2.0 + rr))))
            - 2.0 * rr * rr * e * e)


def _numerator_f_over_z(rr, e):
    """(1 - R**2)**2 + 2e (1 - R**2) + e**2 (1 - 2R - R**2)."""
    return (1.0 - rr * rr) ** 2 + 2.0 * e * (1.0 - rr * rr) + e * e * (1.0 - 2.0 * rr - rr * rr)


#: Sharp maximum of each (class, quantity) pair the paper gives, as a closed
#: form of three Python floats: the class constants p and m = lam * mu(p)
#: and a radius r.  Each class's form is written out on its own, so the
#: p -> 1 limit and class-nesting checks of ``verify`` compare independent
#: expressions.  A form whose ``**`` overflows or that divides by zero
#: raises ArithmeticError, which ``_maximum`` reads as inf.
_SHARP_MAXIMA = {
    (ClassKind.SIGMA_P, BoundQuantity.DIRICHLET_ZF):  # pi r**2 ((1/p + p)**2 + 2 r**2)
        lambda p, m, r: math.pi * r * r * ((1.0 / p + p) ** 2 + 2.0 * r * r),
    (ClassKind.U_P_LAMBDA, BoundQuantity.DIRICHLET_ZF):  # pi r**2 ((1/p + m p)**2 + 2 m**2 r**2)
        lambda p, m, r: math.pi * r * r * ((1.0 / p + m * p) ** 2 + 2.0 * m * m * r * r),
    (ClassKind.S, BoundQuantity.DIRICHLET_ZF):  # 2 pi r**2 (r**2 + 2)
        lambda p, m, r: 2.0 * math.pi * r * r * (r * r + 2.0),
    (ClassKind.SIGMA_P, BoundQuantity.DIRICHLET_F):
        lambda p, m, r: _inside_pole(p, r, _numerator_f),
    (ClassKind.S, BoundQuantity.DIRICHLET_F):  # pi r**2 (r**4 + 4 r**2 + 1) / (1 - r**2)**4
        lambda p, m, r: math.pi * r * r * (r**4 + 4.0 * r * r + 1.0) / (1.0 - r * r) ** 4,
    (ClassKind.SIGMA_P, BoundQuantity.DIRICHLET_F_OVER_Z):
        lambda p, m, r: _inside_pole(p, r, _numerator_f_over_z),
    (ClassKind.S, BoundQuantity.DIRICHLET_F_OVER_Z):  # 2 pi r**2 (r**2 + 2) / (1 - r**2)**4
        lambda p, m, r: 2.0 * math.pi * r * r * (r * r + 2.0) / (1.0 - r * r) ** 4,
    (ClassKind.SIGMA_P, BoundQuantity.L1):  # 1 + (1/p + p)**2 r**2 + r**4
        lambda p, m, r: 1.0 + (1.0 / p + p) ** 2 * r * r + r**4,
    (ClassKind.U_P_LAMBDA, BoundQuantity.L1):  # 1 + (1/p + m p)**2 r**2 + m**2 r**4
        lambda p, m, r: 1.0 + (1.0 / p + m * p) ** 2 * r * r + m * m * r**4,
    (ClassKind.S, BoundQuantity.L1):
        lambda p, m, r: 1.0 + 4.0 * r * r + r**4,
}


def _maximum(form, p, m, r):
    """``form(p, m, r)``, or inf where a Python float ``**`` overflows or a
    division by zero raises."""
    try:
        return form(p, m, r)
    except ArithmeticError:
        return math.inf


def sharp_maxima(class_spec: ClassSpec, quantity: BoundQuantity, radii) -> list[float]:
    """The paper's sharp maximum of a quantity over a class at each of a
    sequence of radii, in their order.

    r lies in (0, 1], or below p for ``integrals.INSIDE_POLE`` (below 1
    over S).  The closed form runs at every radius, and the radii up to
    the first maximum that is not finite are then checked in one pass, so
    the first radius that fails either way decides the error.

    Raises BadParameter where the paper gives none (Dirichlet integrals of
    f and f/z over U_P_LAMBDA), and where the closed form leaves the float
    range; BadRadius or RadiusBeyondPole for r outside its domain.
    """
    quantity = BoundQuantity(quantity)
    form = _SHARP_MAXIMA.get((class_spec.kind, quantity))
    if form is None:
        raise BadParameter(
            f"no sharp bound for {quantity.value} over class {class_spec.kind.value}")
    m = class_spec.lam * mu(class_spec.p) if class_spec.lam else math.nan
    radii = np.asarray(radii, dtype=np.float64)  # check_radii refuses any but one dimension
    rs = radii.tolist() if radii.ndim == 1 else []
    maxima = [_maximum(form, class_spec.p, m, r) for r in rs]
    for k, maximum in enumerate(maxima):
        if not math.isfinite(maximum):
            check_radii(radii[: k + 1], quantity in INSIDE_POLE, class_spec.p)
            raise BadParameter(
                f"sharp maximum of {quantity.value} over class {class_spec.kind.value} at "
                f"p = {class_spec.p!r}, r = {rs[k]!r} exceeds the float range")
    check_radii(radii, quantity in INSIDE_POLE, class_spec.p)
    return maxima


# ---- dispatching check ---------------------------------------------------------------

def _judge(fs, specs, quantities, radii):
    """The stacked check: the series-route value of each quantity of each
    function ``fs[i]`` at each radius against the sharp maximum of its
    class ``specs[i]``, as (M, Q, R) arrays of computed, bound, slack,
    satisfied and sharp.  The z/f vectors share one length, so each
    function gets the bits it gets alone.  Every class is matched, and every
    maximum taken from :func:`sharp_maxima`, class by class and quantity by
    quantity, before one ``integrals._values`` call runs each route once;
    the first step that fails raises."""
    quantities = [BoundQuantity(quantity) for quantity in quantities]
    for f, spec in zip(fs, specs):
        spec.match(f)
    radii = np.asarray(radii, dtype=np.float64)
    computed = bounds = np.zeros((len(fs), len(quantities), radii.size))
    if quantities and radii.size:
        bounds = np.array([[sharp_maxima(spec, quantity, radii) for quantity in quantities]
                           for spec in specs])
        computed = _values(fs, quantities, radii)[0]
    return (computed, bounds, *_verdict(computed, bounds))


def check_quantities(
    f: PoleFunction, class_spec: ClassSpec, quantities, radii
) -> list[list[BoundReport]]:
    """The series-route value of each of several quantities of f at each of
    a sequence of radii against the sharp maximum of the asserted class:
    one list of reports per quantity, in their order, with one report per
    radius, in theirs; every field a plain Python float or bool.

    The one-function case of ``_judge``.  Raises ClassMismatch when f and
    the class disagree on the pole; BadParameter, BadRadius or
    RadiusBeyondPole from :func:`sharp_maxima`, for the first quantity that
    fails; BadParameter for a route that overflows, and RadiusBeyondPole
    past a root of z/f.
    """
    quantities = [BoundQuantity(quantity) for quantity in quantities]
    # plain floats and bools, row by row: (computed, bound, slack, satisfied, sharp)
    blocks = [block[0].tolist() for block in _judge([f], [class_spec], quantities, radii)]
    r = np.asarray(radii, dtype=np.float64).ravel().tolist()
    return [list(map(BoundReport, repeat(quantity.value), *rows, r, repeat(class_spec)))
            for quantity, *rows in zip(quantities, *blocks)]
