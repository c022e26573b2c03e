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

    ``truncation_tail_estimate`` is present for series evaluations only, as
    a float: 0 over exact z/f coefficients and for f = z, whose f/z = 1 is
    exact; for the other truncated f and f/z series, a geometric estimate
    of the mass past the order, inf where it diverges and 0 when the last
    d coefficients, d the z/f degree, are exactly zero.
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


def _tail(coeffs: np.ndarray, degree: int, r: float, ratio: float) -> float:
    """Geometric estimate of the Dirichlet terms pi n |c_n|^2 r^(2n) past
    the last index M of the summed coefficients c.

    Each |c_n|^2 r^(2n) past M is taken as the one before times ratio = x,
    the term-to-term factor: (r/p)^2 with a pole, r^2 without.  Summing
    pi (M + k) |c_M|^2 r^(2M) x^k over k >= 1 gives

        pi |c_M|^2 r^(2M) (M x / (1 - x) + x / (1 - x)^2).

    The coefficients obey the recurrence of z/f, of the given degree d, so
    a zero c_M does not end the series: each of the last d terms
    |c_(M-j)|^2 r^(2M-2j) is carried forward j steps by x, and the largest
    stands for |c_M|^2 r^(2M).  The estimate is 0 only when all d
    coefficients are zero."""
    last = coeffs[: -degree - 1 : -1].tolist()  # c_M, c_(M-1), ...
    if not any(last):
        return 0.0
    if ratio >= 1.0:
        return math.inf
    m = len(coeffs) - 1
    top = max(abs(c) * abs(c) * r ** (2 * (m - j)) * ratio ** j for j, c in enumerate(last))
    return float(math.pi * top * (m * ratio / (1.0 - ratio) + ratio / (1.0 - ratio) ** 2))


def _circle_values(c: np.ndarray, rho: np.ndarray, m: int) -> np.ndarray:
    """Values of sum_n c_n z^n at the nodes rho_j e^(2 pi i k / m), as a
    (len(rho), m) array with k along the second axis.

    On circle j these are the m-point DFT, with positive exponent, of the
    sequence c_n rho_j^n, so one inverse FFT without normalisation gives a
    whole circle.  e^(2 pi i k n / m) depends on n only modulo m, so a
    series longer than m is folded modulo m first and samples the same
    nodes as direct evaluation, aliasing included.
    """
    n = len(c)
    x = c[None, :] * rho[:, None] ** np.arange(n)
    if n > m:
        x = np.pad(x, ((0, 0), (0, -n % m))).reshape(len(rho), -1, m).sum(axis=1)
    return np.fft.ifft(x, m, axis=1, norm="forward")


# ---- Dirichlet integral ------------------------------------------------------

def dirichlet_values(g: TruncatedSeries, radii):
    """pi * sum n |c_n|^2 r^(2n) (0 at order 0) at a radius, as a float, or at
    each of a one-dimensional array of radii, as an array."""
    return math.pi * g.weighted_coefficient_sum(1.0, radii, start_index=1)


def dirichlet_series(g: TruncatedSeries, r: float) -> IntegralResult:
    """Coefficient-sum route over exact coefficients: ``dirichlet_values`` at r."""
    check_radius(r)
    return IntegralResult(dirichlet_values(g, r), Method.SERIES, r, IntegralKind.DIRICHLET, 0.0)


def dirichlet_quadrature(
    g: TruncatedSeries, r: float, config: Optional[QuadratureConfig] = None
) -> IntegralResult:
    """Disk quadrature of |g'|^2 for a series g of order N.

    Without a config, g' is sampled on max(64, N) Gauss-Legendre radii times
    max(256, N) uniform angles, the default ``QuadratureConfig`` raised to
    the order.  The angular mean of |g'|^2 is a trigonometric polynomial of
    degree N - 1 and, times rho, a polynomial of degree 2N - 1 in rho, so
    both rules are exact for every order.  Each Gauss-Legendre circle is
    sampled at all its angles by one FFT of the g' coefficients scaled by
    the circle's radius (``_circle_values``).
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
    values = _circle_values(g.differentiate().coefficients, rho, config.angular_nodes)
    angular_means = np.mean(np.abs(values) ** 2, axis=1)
    value = float(2.0 * np.pi * np.sum(radial_weights * rho * angular_means))
    return IntegralResult(value, Method.QUADRATURE, r, IntegralKind.DIRICHLET)


def _is_identity(f: PoleFunction) -> bool:
    """f = z, whose f/z = 1 is exact at every order."""
    return not np.count_nonzero(f.inv_series.coefficients[1:])


def _f_series(f: PoleFunction, radii, shift: int) -> TruncatedSeries:
    """Taylor series of z**shift * (f/z), shift 0 for f/z and 1 for
    f = z * (f/z), once each of the radii has been checked to lie below the
    pole, or below 1 without one unless f = z, where the integral converges."""
    exact = _is_identity(f)
    for r in radii:
        if f.pole is None:
            if not exact:
                check_open_radius(r)
            check_radius(r)
        else:
            check_inside_pole(r, f.pole)
    g = f_over_z_series(f)
    if shift:
        g = TruncatedSeries(np.concatenate((np.zeros(shift), g.coefficients)))
    return g


def dirichlet_f_over_z_values(f: PoleFunction, radii) -> np.ndarray:
    """Dirichlet integral of f/z via its Taylor coefficients at each of a
    sequence of radii, which must stay below the pole, or below 1 without
    one unless f = z."""
    return dirichlet_values(_f_series(f, radii, shift=0), radii)


def dirichlet_f_values(f: PoleFunction, radii) -> np.ndarray:
    """Dirichlet integral of f itself via its Taylor coefficients at each of
    a sequence of radii, as for ``dirichlet_f_over_z_values``."""
    return dirichlet_values(_f_series(f, radii, shift=1), radii)


def _dirichlet_f_route(f: PoleFunction, r: float, shift: int) -> IntegralResult:
    """Dirichlet integral of z**shift * (f/z) at one radius, with the tail
    estimate of its truncated coefficients."""
    g = _f_series(f, (r,), shift)
    value = dirichlet_values(g, r)
    if _is_identity(f):
        tail = 0.0
    else:
        ratio = r * r if f.pole is None else (r / f.pole) ** 2
        tail = _tail(g.coefficients, f.inv_series.order, r, ratio)
    return IntegralResult(value, Method.SERIES, r, IntegralKind.DIRICHLET, tail)


def dirichlet_f_over_z_series(f: PoleFunction, r: float) -> IntegralResult:
    """Dirichlet integral of f/z via its Taylor coefficients.

    The radius must stay below the pole, or below 1 without one unless f = z.
    """
    return _dirichlet_f_route(f, r, shift=0)


def dirichlet_f_series(f: PoleFunction, r: float) -> IntegralResult:
    """Dirichlet integral of f itself via its Taylor coefficients."""
    return _dirichlet_f_route(f, r, shift=1)


# ---- quadratic integral mean ---------------------------------------------------

def l1_mean_values(f: PoleFunction, radii):
    """1 + sum_{n>=1} |b_n|^2 r^(2n) over the exact z/f coefficients, at a
    radius or at each of a one-dimensional array of radii."""
    return 1.0 + f.inv_series.weighted_coefficient_sum(0.0, radii, start_index=1)


def l1_mean_series(f: PoleFunction, r: float) -> IntegralResult:
    """Parseval route: ``l1_mean_values`` at r."""
    check_radius(r)
    return IntegralResult(l1_mean_values(f, r), Method.SERIES, r, IntegralKind.L1_MEAN, 0.0)


def l1_mean_quadrature(f: PoleFunction, r: float) -> IntegralResult:
    """Circle-average route: samples the z/f series, of order d, at
    max(256, d + 1) equally spaced points on the circle, all by one FFT of
    its coefficients scaled by r (``_circle_values``), and averages its
    squared modulus.  |z/f|^2 is a trigonometric polynomial of degree d, so
    the average is exact; it is stable at every radius, the pole's included."""
    check_radius(r)
    inv = f.inv_series
    count = max(_FLOOR.angular_nodes, inv.order + 1)
    values = _circle_values(inv.coefficients, np.array([r]), count)
    value = float(np.mean(np.abs(values) ** 2))
    return IntegralResult(value, Method.QUADRATURE, r, IntegralKind.L1_MEAN)
