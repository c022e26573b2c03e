"""Dirichlet integrals and quadratic integral means on disks.

Every quantity has two independent routes: a coefficient-sum route built on
Parseval's identity, and a quadrature route that samples the function on the
disk or circle directly.  The two must agree, and the test suite holds them
to that.

For g(z) = sum a_n z**n the Dirichlet integral of g over |z| < r is

    D(r, g) = integral of |g'|^2 over the disk = pi * sum_n n |a_n|^2 r^(2n),

the area of the image counted with multiplicity.  The quadratic integral
mean of a normalized function f is carried through its z/f series:

    L1(r, f) = r^2 * (circle mean of 1/|f|^2) = sum_n |b_n|^2 r^(2n),

where b_n are the z/f coefficients (b_0 = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    BadParameter,
    CircleThroughPole,
    PoleInDomain,
    check_inside_pole,
    check_pole,
    check_radius,
)
from .functions import PoleFunction, f_over_z_series
from .series import TruncatedSeries


class Method(str, Enum):
    SERIES = "SERIES"
    QUADRATURE = "QUADRATURE"


class IntegralKind(str, Enum):
    DIRICHLET = "DIRICHLET"
    L1_MEAN = "L1_MEAN"


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts for disk quadrature: Gauss-Legendre radially, a uniform
    trapezoid rule in angle, plus a guard band kept around any pole."""

    radial_nodes: int = 64
    angular_nodes: int = 256
    pole_exclusion_radius: float = 0.02

    def __post_init__(self):
        if self.radial_nodes < 8:
            raise BadParameter("at least 8 radial nodes are required")
        if self.angular_nodes < 16:
            raise BadParameter("at least 16 angular nodes are required")
        if self.pole_exclusion_radius < 0.0:
            raise BadParameter("pole exclusion radius must be nonnegative")


@dataclass(frozen=True)
class IntegralResult:
    """A computed integral together with how it was computed.

    ``truncation_tail_estimate`` is present for series evaluations only: a
    geometric estimate of the mass past the truncation order, infinite when
    the estimate diverges at r = 1, and 0 when the stored tail coefficient
    is exactly zero (polynomial data).
    """

    value: float
    method: Method
    r: float
    kind: IntegralKind
    truncation_tail_estimate: Optional[float] = None


@lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per count
    and returned read-only because every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _dirichlet_tail(coeffs: np.ndarray, r: float, ratio: float) -> float:
    """pi * (N+1) |c_N|^2 r^(2N+2) / (1 - ratio), the geometric-decay tail
    scale for sum n |c_n|^2 r^(2n); ratio is the term-to-term factor."""
    n = len(coeffs) - 1
    top = abs(coeffs[-1]) ** 2
    if top == 0.0:
        return 0.0
    if ratio >= 1.0:
        return math.inf
    return math.pi * (n + 1) * top * r ** (2 * n + 2) / (1.0 - ratio)


# ---- Dirichlet integral ------------------------------------------------------

def dirichlet_series(g: TruncatedSeries, r: float) -> IntegralResult:
    """Coefficient-sum route: pi * sum n |c_n|^2 r^(2n)."""
    check_radius(r)
    value = 0.0 if g.order == 0 else math.pi * g.weighted_coefficient_sum(1.0, r, start_index=1)
    tail = _dirichlet_tail(g.coefficients, r, r * r)
    return IntegralResult(value, Method.SERIES, r, IntegralKind.DIRICHLET, tail)


def dirichlet_quadrature(
    g: Union[TruncatedSeries, Callable],
    r: float,
    config: Optional[QuadratureConfig] = None,
    *,
    gprime: Optional[Callable] = None,
    pole: Optional[float] = None,
) -> IntegralResult:
    """Disk quadrature of |g'|^2.

    ``g`` is either a TruncatedSeries (differentiated internally) or any
    callable, in which case ``gprime`` must supply the derivative.  A pole
    location may be declared; the integration disk of radius r plus the
    configured guard band must not reach it.
    """
    check_radius(r)
    if config is None:
        config = QuadratureConfig()
    if pole is not None:
        check_pole(pole)
        if r + config.pole_exclusion_radius > pole:
            raise PoleInDomain(
                f"disk of radius {r!r} plus guard {config.pole_exclusion_radius!r} "
                f"reaches the pole at {pole!r}"
            )
    if isinstance(g, TruncatedSeries):
        if g.order == 0:
            return IntegralResult(0.0, Method.QUADRATURE, r, IntegralKind.DIRICHLET)
        dg = g.differentiate().evaluate
    elif callable(g):
        if gprime is None:
            raise BadParameter("a callable integrand needs an explicit derivative")
        dg = gprime
    else:
        raise BadParameter("integrand must be a TruncatedSeries or a callable")

    x, w = _gauss_legendre(config.radial_nodes)
    rho = 0.5 * r * (x + 1.0)
    radial_weights = 0.5 * r * w
    theta = 2.0 * np.pi * np.arange(config.angular_nodes) / config.angular_nodes
    pts = rho[:, None] * np.exp(1j * theta)[None, :]
    sq = np.abs(dg(pts)) ** 2
    angular_means = sq.mean(axis=1)
    value = float(2.0 * np.pi * np.sum(radial_weights * rho * angular_means))
    return IntegralResult(value, Method.QUADRATURE, r, IntegralKind.DIRICHLET)


def _dirichlet_f_route(
    f: PoleFunction, r: float, order: Optional[int], shift: int
) -> IntegralResult:
    """Dirichlet integral of z**shift * (f/z) via its Taylor coefficients:
    shift 0 gives f/z, shift 1 gives f = z * (f/z).  For functions with a
    pole the radius must stay strictly below it, where the expansion of f
    converges."""
    if f.pole is None:
        check_radius(r)
        ratio = r * r
    else:
        check_inside_pole(r, f.pole)
        ratio = (r / f.pole) ** 2
    g = f_over_z_series(f, order)
    if shift:
        g = TruncatedSeries(np.concatenate((np.zeros(shift), g.coefficients)))
    value = math.pi * g.weighted_coefficient_sum(1.0, r, start_index=1)
    tail = _dirichlet_tail(g.coefficients, r, ratio)
    return IntegralResult(value, Method.SERIES, r, IntegralKind.DIRICHLET, tail)


def dirichlet_f_over_z_series(
    f: PoleFunction, r: float, order: Optional[int] = None
) -> IntegralResult:
    """Dirichlet integral of f/z via its Taylor coefficients.

    For functions with a pole the radius must stay strictly below it.
    """
    return _dirichlet_f_route(f, r, order, shift=0)


def dirichlet_f_series(f: PoleFunction, r: float, order: Optional[int] = None) -> IntegralResult:
    """Dirichlet integral of f itself via its Taylor coefficients."""
    return _dirichlet_f_route(f, r, order, shift=1)


# ---- quadratic integral mean ---------------------------------------------------

def l1_mean_series(f: PoleFunction, r: float) -> IntegralResult:
    """Parseval route: 1 + sum_{n>=1} |b_n|^2 r^(2n) over the z/f coefficients."""
    check_radius(r)
    value = 1.0 + f.inv_series.weighted_coefficient_sum(0.0, r, start_index=1)
    coeffs = f.inv_series.coefficients
    n = len(coeffs) - 1
    top = abs(coeffs[-1]) ** 2
    if top == 0.0:
        tail = 0.0
    elif r == 1.0:
        tail = math.inf
    else:
        tail = top * r ** (2 * n + 2) / (1.0 - r * r)
    return IntegralResult(value, Method.SERIES, r, IntegralKind.L1_MEAN, tail)


def l1_mean_quadrature(
    f: PoleFunction,
    r: float,
    config: Optional[QuadratureConfig] = None,
    *,
    through_f: bool = False,
) -> IntegralResult:
    """Circle-average route.

    The default evaluates the z/f series on the circle and averages its
    squared modulus, which is stable at every radius.  With ``through_f``
    the mean of r^2/|f|^2 is formed from f directly; that diagnostic route
    refuses circles inside the guard band around the pole.
    """
    check_radius(r)
    if config is None:
        config = QuadratureConfig()
    theta = 2.0 * np.pi * np.arange(config.angular_nodes) / config.angular_nodes
    pts = r * np.exp(1j * theta)
    inv_vals = f.inv_series.evaluate(pts)
    if through_f:
        if f.pole is not None and abs(r - f.pole) < config.pole_exclusion_radius:
            raise CircleThroughPole(
                f"circle of radius {r!r} passes within {config.pole_exclusion_radius!r} "
                f"of the pole at {f.pole!r}"
            )
        f_vals = pts / inv_vals
        value = float(np.mean(r * r / np.abs(f_vals) ** 2))
    else:
        value = float(np.mean(np.abs(inv_vals) ** 2))
    return IntegralResult(value, Method.QUADRATURE, r, IntegralKind.L1_MEAN)
