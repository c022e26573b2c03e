"""Dirichlet integrals and quadratic integral means on disks.

Every quantity has two independent routes: a coefficient-sum route built on
Parseval's identity, and a quadrature route that samples the function on
the circle directly.  The two must agree, and the test suite holds them
to that.

For g(z) = sum a_n z**n the Dirichlet integral of g over |z| < r is

    D(r, g) = integral of |g'|^2 over the disk = pi * sum_n n |a_n|^2 r^(2n),

the area of the image counted with multiplicity.  By Green's theorem that
area is a boundary integral, (1/2i) times the integral of conj(g) dg round
|z| = r, so with h = g - g(0)

    D(r, g) = pi * (circle mean of Re(conj(h) z h')),

which the quadrature route samples.  The quadratic integral mean of a
normalized function f is carried through its z/f series:

    L1(r, f) = r^2 * (circle mean of 1/|f|^2) = sum_n |b_n|^2 r^(2n),

where b_n are the z/f coefficients (b_0 = 1).

Both z/f Parseval sums use ``series._parseval``, which forms each term
scaled, as (n^(t/2) |c_n| r^n)^2, and sums by one reduction shared by every
radius: z/f = 1 + 1e200 z^2 at r = 1e-100 gives 2 pi and 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (BadParameter, RadiusBeyondPole, check_count, check_inside_pole,
                     check_open_radius, check_radius)
from .functions import PoleFunction
from .series import TruncatedSeries, _parseval, degree


class Method(str, Enum):
    SERIES = "SERIES"
    QUADRATURE = "QUADRATURE"


class IntegralKind(str, Enum):
    DIRICHLET = "DIRICHLET"
    L1_MEAN = "L1_MEAN"


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts for quadrature.  ``dirichlet_quadrature`` samples its
    circle at ``angular_nodes`` equally spaced points when given a config;
    without one it sizes an exact rule to its data.  ``radial_nodes`` is
    still validated but read by no route: the circle rule has no radial
    nodes."""

    radial_nodes: int = 64
    angular_nodes: int = 256

    def __post_init__(self):
        check_count(self.radial_nodes, 8, "at least 8 radial nodes are required")
        check_count(self.angular_nodes, 16, "at least 16 angular nodes are required")


#: Doublings (2**64 terms) after which a Stein sum that has not settled
#: is refused.
_MAX_DOUBLINGS = 64

#: A failed Stein sum is put down to a root of z/f when r times the largest
#: companion eigenvalue reaches 1 within this, the rounding error of a
#: double root's eigenvalue.
_ROOT_RTOL = 2.0**-26


@dataclass(frozen=True)
class IntegralResult:
    """A computed integral together with how it was computed.

    ``truncation_tail_estimate`` is present for series evaluations only, as
    a float: 0 over exact z/f coefficients and for f = z, whose f/z = 1 is
    exact; for the f and f/z integrals, the bound on the remainder of their
    Stein sums at the doubling that stopped them (``_stein_sums``), at most
    2^-52 of the sums.
    """

    value: float
    method: Method
    r: float
    kind: IntegralKind
    truncation_tail_estimate: Optional[float] = None


def _exact_count(n: int) -> int:
    """The smallest power of two that is at least 16 and at least n.

    An m-point trapezoid rule integrates e^(ik theta) exactly for |k| < m,
    so m >= n nodes are exact for a trigonometric polynomial of degree
    below n.  Powers of two are the sizes the FFT is fastest at.
    """
    return max(16, 1 << (n - 1).bit_length())


def _circle_values(c: np.ndarray, r: float, m: int) -> np.ndarray:
    """Values of sum_n c_n z^n at the nodes r e^(2 pi i k / m), k along the
    last axis, for each row of coefficients along the last axis of c.

    These are the m-point DFT, with positive exponent, of the sequence
    c_n r^n, so one inverse FFT without normalisation gives the whole
    circle.  e^(2 pi i k n / m) depends on n only modulo m, so a series
    longer than m is folded modulo m first and samples the same nodes as
    direct evaluation, aliasing included.
    """
    n = c.shape[-1]
    x = c * r ** np.arange(n)
    for k in range(m, n, m):
        width = min(m, n - k)
        x[..., :width] += x[..., k : k + width]
    return np.fft.ifft(x[..., :m], m, norm="forward")


def _finite(values, quantity: str):
    """``values``, a float or an array formed with overflow silenced, unless
    any of them is infinite or NaN: then BadParameter, so an overflowed sum
    never reads as a result."""
    if not (np.isfinite(values).all() if isinstance(values, np.ndarray)
            else math.isfinite(values)):
        raise BadParameter(f"the {quantity} exceeds the float range")
    return values


# ---- Dirichlet integral ------------------------------------------------------

def dirichlet_values(g: TruncatedSeries, radii):
    """pi * sum n |c_n|^2 r^(2n) (0 at order 0) at a radius, as a float, or at
    each of a one-dimensional array of radii, as an array; BadParameter
    when a sum leaves the float range."""
    values = math.pi * g.weighted_coefficient_sum(1.0, radii, start_index=1)
    return _finite(values, "Dirichlet integral")


def dirichlet_series(g: TruncatedSeries, r: float) -> IntegralResult:
    """Coefficient-sum route over exact coefficients: ``dirichlet_values`` at r."""
    check_radius(r)
    value = _finite(math.pi * float(_parseval(g.coefficients, 1.0, r, 1)), "Dirichlet integral")
    return IntegralResult(value, Method.SERIES, r, IntegralKind.DIRICHLET, 0.0)


def dirichlet_quadrature(
    g: TruncatedSeries, r: float, config: Optional[QuadratureConfig] = None
) -> IntegralResult:
    """Circle quadrature of the area D(r, g) for a series g of degree d, the
    index of its last nonzero coefficient.

    With h = g - g(0), D(r, g) = pi * (mean of Re(conj(h) z h') over
    |z| = r), Green's theorem for the area.  h and z h' = sum n c_n z^n are
    sampled at m equally spaced points of the circle by one two-row FFT
    (``_circle_values``), m the smallest power of two at least 16 and at
    least d (``_exact_count``), or ``config.angular_nodes``.
    conj(h) z h' is a trigonometric polynomial of degree d - 1 < m, so the
    rule is exact for every degree.  Dropping g(0) keeps it well
    conditioned: the mean of |conj(h) z h'| is at most sqrt(d) D / pi.
    Raises BadParameter when the integral leaves the float range.
    """
    check_radius(r)
    if not isinstance(g, TruncatedSeries):
        raise BadParameter("integrand must be a TruncatedSeries")
    c = g.coefficients
    d = degree(c)
    if d <= 0:
        return IntegralResult(0.0, Method.QUADRATURE, r, IntegralKind.DIRICHLET)
    m = _exact_count(d) if config is None else config.angular_nodes
    h = np.zeros((2, d + 1), dtype=c.dtype)
    h[0, 1:] = c[1 : d + 1]
    h[1] = np.arange(d + 1) * h[0]
    with np.errstate(over="ignore", invalid="ignore"):
        values = _circle_values(h, r, m)
        value = math.pi * float(np.vdot(values[0], values[1]).real) / m
    return IntegralResult(_finite(value, "Dirichlet integral"), Method.QUADRATURE, r,
                          IntegralKind.DIRICHLET)


def _check_f_radii(f: PoleFunction, radii) -> None:
    """Each radius lies below the pole, or below 1 without one unless f = z,
    whose f/z = 1 has zero area at every radius."""
    identity = degree(f.inv_series.coefficients) == 0
    for r in radii:
        if f.pole is not None:
            check_inside_pole(r, f.pole)
        elif identity:
            check_radius(r)
        else:
            check_open_radius(r)


def _stein_sums(f: PoleFunction, radii) -> tuple[np.ndarray, np.ndarray]:
    """S0 = sum |a_n|^2 r^(2n) and S1 = sum n |a_n|^2 r^(2n) over the f/z
    coefficients a_n, as the columns of an (R, 2) array over R radii, and
    a bound on what each sum leaves out, likewise.

    z/f = 1 + b_1 z + ... + b_d z^d, trimmed to its last nonzero b_d, so
    a_n = e_1' C^n e_1 for the companion matrix C of z/f.  With B = rC,
    S0 and S1 are the (1, 1) entries of the Stein sums
    P0 = sum B^n e_1 e_1' B*^n and P1 = sum n B^n e_1 e_1' B*^n.  Smith's
    doubling holds the sums over n < N with A = B^N and, per step,

        P1 <- P1 + A P1 A* + N A P0 A*,  P0 <- P0 + A P0 A*,  A <- A^2,

    which doubles N; all radii run as one (R, 2, d, d) stack.  Past N the
    sums leave out A (Q1 + N Q0) A* and A Q0 A*, where, over blocks of N
    terms, Q0 = sum_j A^j P0 A*^j and Q1 = sum_j A^j (P1 + j N P0) A*^j are
    the full sums.  With q = |A|_F^2 < 1 and s = q / (1 - q), the two
    remainders are at most s (|P1| + N (1 + s) |P0|) and s |P0| in
    Frobenius norm.  A radius stops once both bounds are at most 2^-52 of
    its sums, so its values do not depend on the other radii.

    Raises:
        RadiusBeyondPole: when r reaches a root of z/f, where the sums diverge.
        BadParameter: when a sum below every root does not settle: it leaves
            the float range, or clustered roots of z/f cost A its digits.
    """
    radii = np.asarray(radii, dtype=np.float64)
    sums = np.zeros((len(radii), 2))
    tails = np.zeros((len(radii), 2))
    b = f.inv_series.coefficients
    d = degree(b)
    if d == 0 or not len(radii):  # f = z, whose f/z = 1, or no radius at all
        sums[:, 0] = 1.0
        return sums, tails
    if not np.any(b.imag):  # real arithmetic, about twice as fast, where it suffices
        b = b.real
    c = np.eye(d, k=-1, dtype=b.dtype)
    c[0] = -b[1 : d + 1]
    a = radii[:, None, None] * c
    p = np.zeros((len(radii), 2, d, d), dtype=b.dtype)
    p[:, 0, 0, 0] = 1.0
    left = np.arange(len(radii))
    terms = 1.0
    with np.errstate(all="ignore"):  # an overflowed sum never reads as done
        for _ in range(_MAX_DOUBLINGS):
            q = a[:, None] @ p @ a.conj().swapaxes(1, 2)[:, None]
            q[:, 1] += terms * q[:, 0]
            p += q
            a = a @ a
            terms *= 2.0
            norm_a = np.square(a.view(np.float64)).sum(axis=(1, 2))
            norm_p = np.sqrt(np.square(p.view(np.float64)).sum(axis=(2, 3)))
            s = norm_a / (1.0 - norm_a)
            bound = s[:, None] * norm_p
            bound[:, 1] += terms * (1.0 + s) * bound[:, 0]
            value = p[:, :, 0, 0].real
            done = (norm_a < 1.0) & (bound <= 2.0**-52 * value).all(axis=1)
            if done.any():
                sums[left[done]] = value[done]
                tails[left[done]] = bound[done]
                left, a, p = left[~done], a[~done], p[~done]
                if not len(left):
                    return sums, tails
    r = float(radii[left[0]])
    if r * np.max(np.abs(np.linalg.eigvals(c))) < 1.0 - _ROOT_RTOL:
        raise BadParameter(f"the f/z coefficient sums at radius {r!r} do not settle in floats")
    raise RadiusBeyondPole(f"radius {r!r} reaches a root of z/f, where the f/z series diverges")


def _dirichlet_f(f: PoleFunction, radii) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet integrals of f, pi r^2 (S0 + S1), and of f/z, pi S1, at
    each radius, as the rows of a (2, R) array, and the bounds on their
    remainders (``_stein_sums``) likewise, once each radius has been
    checked.  Both come from one Stein pass."""
    _check_f_radii(f, radii)
    sums, tails = _stein_sums(f, radii)
    scale = math.pi * np.asarray(radii, dtype=np.float64) ** 2
    return (np.stack((scale * sums.sum(axis=1), math.pi * sums[:, 1])),
            np.stack((scale * tails.sum(axis=1), math.pi * tails[:, 1])))


def dirichlet_f_pair_values(f: PoleFunction, radii) -> np.ndarray:
    """Dirichlet integrals of f (row 0) and of f/z (row 1) at each of a
    sequence of radii, from one Stein pass; the radii must stay below the
    pole, or below 1 without one unless f = z."""
    return _dirichlet_f(f, radii)[0]


def _dirichlet_f_route(f: PoleFunction, r: float, row: int) -> IntegralResult:
    values, tails = _dirichlet_f(f, (r,))
    return IntegralResult(float(values[row, 0]), Method.SERIES, r, IntegralKind.DIRICHLET,
                          float(tails[row, 0]))


def dirichlet_f_over_z_series(f: PoleFunction, r: float) -> IntegralResult:
    """Dirichlet integral of f/z from its Taylor coefficients, with the
    remainder bound of its Stein sum as the tail estimate.

    The radius must stay below the pole, or below 1 without one unless f = z.
    """
    return _dirichlet_f_route(f, r, row=1)


def dirichlet_f_series(f: PoleFunction, r: float) -> IntegralResult:
    """Dirichlet integral of f itself from its Taylor coefficients, as for
    ``dirichlet_f_over_z_series``."""
    return _dirichlet_f_route(f, r, row=0)


# ---- quadratic integral mean ---------------------------------------------------

def l1_mean_values(f: PoleFunction, radii):
    """1 + sum_{n>=1} |b_n|^2 r^(2n) over the exact z/f coefficients, at a
    radius or at each of a one-dimensional array of radii; BadParameter
    when a sum leaves the float range."""
    values = 1.0 + f.inv_series.weighted_coefficient_sum(0.0, radii, start_index=1)
    return _finite(values, "L1 mean")


def l1_mean_series(f: PoleFunction, r: float) -> IntegralResult:
    """Parseval route: ``l1_mean_values`` at r."""
    check_radius(r)
    value = 1.0 + float(_parseval(f.inv_series.coefficients, 0.0, r, 1))
    return IntegralResult(_finite(value, "L1 mean"), Method.SERIES, r, IntegralKind.L1_MEAN, 0.0)


def l1_mean_quadrature(f: PoleFunction, r: float) -> IntegralResult:
    """Circle-average route: samples the z/f series, of degree d, at the
    smallest power of two at least 16 and at least d + 1 of equally spaced
    points on the circle (``_exact_count``), all by one FFT of its
    coefficients scaled by r (``_circle_values``), and averages its squared
    modulus as the dot product of the samples with themselves over their
    number.  |z/f|^2 is a trigonometric polynomial of degree d, so the
    average is exact; it is stable at every radius, the pole's included.
    Raises BadParameter when the mean leaves the float range."""
    check_radius(r)
    b = f.inv_series.coefficients
    d = degree(b)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _circle_values(b[: d + 1], r, _exact_count(d + 1))
        value = float(np.vdot(values, values).real) / len(values)
    return IntegralResult(_finite(value, "L1 mean"), Method.QUADRATURE, r,
                          IntegralKind.L1_MEAN)
