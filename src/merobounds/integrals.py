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
from typing import Optional

import numpy as np

from .errors import (BadParameter, check_count, check_inside_pole, check_open_radius,
                     check_radius)
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
    """Node counts for disk quadrature: Gauss-Legendre radially and a
    uniform trapezoid rule in angle.  The defaults are the floor that the
    quadrature routes raise to the order of their data."""

    radial_nodes: int = 64
    angular_nodes: int = 256

    def __post_init__(self):
        check_count(self.radial_nodes, 8, "at least 8 radial nodes are required")
        check_count(self.angular_nodes, 16, "at least 16 angular nodes are required")


#: The coarsest rule; the quadrature routes raise it to the order of their data.
_FLOOR = QuadratureConfig()


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


def _tail(coeffs: np.ndarray, r: float, ratio: float, weight: float) -> float:
    """weight * |c_N|^2 r^(2N+2) / (1 - ratio), the geometric-decay estimate
    of the Parseval terms past the truncation order N; ratio is the
    term-to-term factor and weight the term's factor at index N + 1."""
    top = abs(coeffs[-1]) ** 2
    if top == 0.0:
        return 0.0
    if ratio >= 1.0:
        return math.inf
    return weight * top * r ** (2 * len(coeffs)) / (1.0 - ratio)


def _dirichlet(g: TruncatedSeries, r: float, ratio: float) -> IntegralResult:
    """pi * sum_{n>=1} n |c_n|^2 r^(2n) with its tail (an order-0 series
    gives the empty sum 0); the caller validates r and supplies the ratio."""
    value = math.pi * g.weighted_coefficient_sum(1.0, r, start_index=1)
    tail = _tail(g.coefficients, r, ratio, math.pi * len(g))
    return IntegralResult(value, Method.SERIES, r, IntegralKind.DIRICHLET, tail)


# ---- Dirichlet integral ------------------------------------------------------

def dirichlet_series(g: TruncatedSeries, r: float) -> IntegralResult:
    """Coefficient-sum route: pi * sum n |c_n|^2 r^(2n)."""
    check_radius(r)
    return _dirichlet(g, r, r * r)


def dirichlet_quadrature(
    g: TruncatedSeries, r: float, config: Optional[QuadratureConfig] = None
) -> IntegralResult:
    """Disk quadrature of |g'|^2 for a series g of order N.

    Without a config, g' is sampled on max(64, N) Gauss-Legendre radii times
    max(256, N) uniform angles, the default ``QuadratureConfig`` raised to
    the order.  The angular mean of |g'|^2 is a trigonometric polynomial of
    degree N - 1 and, times rho, a polynomial of degree 2N - 1 in rho, so
    both rules are exact for every order.
    """
    check_radius(r)
    if not isinstance(g, TruncatedSeries):
        raise BadParameter("integrand must be a TruncatedSeries")
    if g.order == 0:
        return IntegralResult(0.0, Method.QUADRATURE, r, IntegralKind.DIRICHLET)
    if config is None:
        config = QuadratureConfig(max(_FLOOR.radial_nodes, g.order),
                                  max(_FLOOR.angular_nodes, g.order))
    x, w = _gauss_legendre(config.radial_nodes)
    rho = 0.5 * r * (x + 1.0)
    radial_weights = 0.5 * r * w
    theta = 2.0 * np.pi * np.arange(config.angular_nodes) / config.angular_nodes
    pts = rho[:, None] * np.exp(1j * theta)[None, :]
    sq = np.abs(g.differentiate().evaluate(pts)) ** 2
    angular_means = sq.mean(axis=1)
    value = float(2.0 * np.pi * np.sum(radial_weights * rho * angular_means))
    return IntegralResult(value, Method.QUADRATURE, r, IntegralKind.DIRICHLET)


def _dirichlet_f_route(f: PoleFunction, r: float, shift: int) -> IntegralResult:
    """Dirichlet integral of z**shift * (f/z) via its Taylor coefficients:
    shift 0 gives f/z, shift 1 gives f = z * (f/z).  The radius must stay
    below the pole, or below 1 without one unless f = z, where the
    integral converges."""
    if f.pole is None:
        if f.inv_series.coefficients[1:].any():
            check_open_radius(r)
        check_radius(r)
        ratio = r * r
    else:
        check_inside_pole(r, f.pole)
        ratio = (r / f.pole) ** 2
    g = f_over_z_series(f)
    if shift:
        g = TruncatedSeries(np.concatenate((np.zeros(shift), g.coefficients)))
    return _dirichlet(g, r, ratio)


def dirichlet_f_over_z_series(f: PoleFunction, r: float) -> IntegralResult:
    """Dirichlet integral of f/z via its Taylor coefficients.

    The radius must stay below the pole, or below 1 without one unless f = z.
    """
    return _dirichlet_f_route(f, r, shift=0)


def dirichlet_f_series(f: PoleFunction, r: float) -> IntegralResult:
    """Dirichlet integral of f itself via its Taylor coefficients."""
    return _dirichlet_f_route(f, r, shift=1)


# ---- quadratic integral mean ---------------------------------------------------

def l1_mean_series(f: PoleFunction, r: float) -> IntegralResult:
    """Parseval route: 1 + sum_{n>=1} |b_n|^2 r^(2n) over the z/f coefficients."""
    check_radius(r)
    inv = f.inv_series
    value = 1.0 + inv.weighted_coefficient_sum(0.0, r, start_index=1)
    tail = _tail(inv.coefficients, r, r * r, 1.0)
    return IntegralResult(value, Method.SERIES, r, IntegralKind.L1_MEAN, tail)


def l1_mean_quadrature(f: PoleFunction, r: float) -> IntegralResult:
    """Circle-average route: evaluates the z/f series, of order d, at
    max(256, d + 1) equally spaced points on the circle and averages its
    squared modulus.  |z/f|^2 is a trigonometric polynomial of degree d, so
    the average is exact; it is stable at every radius, the pole's included."""
    check_radius(r)
    inv = f.inv_series
    count = max(_FLOOR.angular_nodes, inv.order + 1)
    theta = 2.0 * np.pi * np.arange(count) / count
    pts = r * np.exp(1j * theta)
    value = float(np.mean(np.abs(inv.evaluate(pts)) ** 2))
    return IntegralResult(value, Method.QUADRATURE, r, IntegralKind.L1_MEAN)
