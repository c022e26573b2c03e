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

:func:`values` is the one path from (f, quantities, radii, method) to values
and error bounds, the one-function case of ``_values`` over a stack of
functions.  ``_ROUTES`` maps each (method, quantity) pair to a route and the
row of its output that holds the quantity, so each route runs once per call
and the f and f/z integrals of a function share one Stein pass.  The
one-radius routes ``dirichlet_series`` and so on call the same kernels.

Both z/f Parseval sums use ``series._parseval``, which forms each term
scaled, as (n^(t/2) |c_n| r^n)^2, and sums by one reduction shared by every
radius: z/f = 1 + 1e200 z^2 at r = 1e-100 gives 2 pi and 2.  Both
quadrature routes sample their circle by ``series._circle_values``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import BadParameter, RadiusBeyondPole, check_count, check_radii, check_radius
from .functions import PoleFunction
from .series import TruncatedSeries, _circle_values, _exact_count, _parseval, degree


class Method(str, Enum):
    SERIES = "SERIES"
    QUADRATURE = "QUADRATURE"


class BoundQuantity(str, Enum):
    DIRICHLET_ZF = "DIRICHLET_ZF"
    DIRICHLET_F = "DIRICHLET_F"
    DIRICHLET_F_OVER_Z = "DIRICHLET_F_OVER_Z"
    L1 = "L1"


#: The quantities whose series converge only inside the pole, 0 < r < p (0 < r < 1
#: over S): the Dirichlet integrals of f and f/z.  The others take every r in (0, 1].
INSIDE_POLE = frozenset({BoundQuantity.DIRICHLET_F, BoundQuantity.DIRICHLET_F_OVER_Z})


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
    """The value of one integral at one radius by one route."""

    value: float


def _finite(values, quantity: str):
    """``values``, a float or an array formed with overflow silenced, unless
    any of them is infinite or NaN: then BadParameter, so an overflowed sum
    never reads as a result."""
    if not (np.isfinite(values).all() if isinstance(values, np.ndarray)
            else math.isfinite(values)):
        raise BadParameter(f"the {quantity} exceeds the float range")
    return values


# ---- Dirichlet integral of z/f and L1 mean, one radius at a time -----------------

def dirichlet_series(g: TruncatedSeries, r: float) -> IntegralResult:
    """Coefficient-sum route: pi * sum n |c_n|^2 r^(2n) over the exact
    coefficients of g; BadParameter when it leaves the float range."""
    check_radius(r)
    value = math.pi * float(_parseval(g.coefficients, 1.0, r, 1))
    return IntegralResult(_finite(value, "Dirichlet integral"))


def _area_quadrature(c: np.ndarray, r: float, m: Optional[int] = None) -> float:
    """The rule of ``dirichlet_quadrature`` over coefficients c, unvalidated."""
    d = degree(c)
    if d <= 0:
        return 0.0
    m = _exact_count(d) if m is None else m
    h = np.zeros((2, d + 1), dtype=c.dtype)
    h[0, 1:] = c[1 : d + 1]
    h[1] = np.arange(d + 1) * h[0]
    with np.errstate(over="ignore", invalid="ignore"):
        values = _circle_values(h, r, m)
        return math.pi * float(np.vdot(values[0], values[1]).real) / m


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
    value = _area_quadrature(g.coefficients, r, None if config is None else config.angular_nodes)
    return IntegralResult(_finite(value, "Dirichlet integral"))


def l1_mean_series(f: PoleFunction, r: float) -> IntegralResult:
    """Parseval route: 1 + sum_{n>=1} |b_n|^2 r^(2n) over the exact z/f
    coefficients; BadParameter when it leaves the float range."""
    check_radius(r)
    value = 1.0 + float(_parseval(f.inv_series.coefficients, 0.0, r, 1))
    return IntegralResult(_finite(value, "L1 mean"))


def _l1_quadrature(b: np.ndarray, r: float) -> float:
    """The rule of ``l1_mean_quadrature`` over z/f coefficients b, unvalidated."""
    d = degree(b)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _circle_values(b[: d + 1], r, _exact_count(d + 1))
        return float(np.vdot(values, values).real) / len(values)


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
    return IntegralResult(_finite(_l1_quadrature(f.inv_series.coefficients, r), "L1 mean"))


# ---- Dirichlet integrals of f and f/z ------------------------------------------

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

    The stop test runs only after a doubling that leaves some radius with
    q < 2^-50, radius by radius in Python floats and in the order of
    operations of the array rule, and the stack is compacted only when a
    radius stops.  Skipping it changes no result: P0[0, 0] <= |P0|_F in
    floats too, so a pass, fl(s |P0|_F) <= 2^-52 P0[0, 0], needs
    s < 2^-52 (1 + 4u), u = 2^-53, and so q < 2^-51 while the sums are
    finite.  A NaN q, at a radius whose sums overflowed, holds no other
    radius back.

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
            norm_a = np.square(a.view(np.float64)).sum(axis=(1, 2)).tolist()
            if not any(q_a < 2.0**-50 for q_a in norm_a):  # no radius can stop yet (see above)
                continue
            norm_p = np.sqrt(np.square(p.view(np.float64)).sum(axis=(2, 3))).tolist()
            keep = [True] * len(left)
            for i, (q_a, (p0, p1), (v0, v1)) in enumerate(
                    zip(norm_a, norm_p, p[:, :, 0, 0].real.tolist())):
                if q_a < 1.0:  # the rule in floats, in the order of operations of an array pass
                    s = q_a / (1.0 - q_a)
                    b0 = s * p0
                    b1 = s * p1 + terms * (1.0 + s) * b0
                    if b0 <= 2.0**-52 * v0 and b1 <= 2.0**-52 * v1:
                        sums[left[i]], tails[left[i]], keep[i] = (v0, v1), (b0, b1), False
            if not all(keep):
                keep = np.array(keep)
                left, a, p = left[keep], a[keep], p[keep]
                if not len(left):
                    return sums, tails
    r = float(radii[left[0]])
    if r * np.max(np.abs(np.linalg.eigvals(c))) < 1.0 - _ROOT_RTOL:
        raise BadParameter(f"the f/z coefficient sums at radius {r!r} do not settle in floats")
    raise RadiusBeyondPole(f"radius {r!r} reaches a root of z/f, where the f/z series diverges")


def _dirichlet_f(fs, radii) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet integrals of each f, pi r^2 (S0 + S1), and of f/z, pi S1,
    at each radius, as an (M, 2, R) array, and the bounds on their
    remainders (``_stein_sums``) likewise, from one Stein pass per f.  Each
    radius must lie below the pole, or below 1 without one unless f = z,
    whose f/z = 1 has zero area at every radius."""
    out = []
    for f in fs:
        r = check_radii(radii, degree(f.inv_series.coefficients) != 0, f.pole)
        out.append([(math.pi * r**2 * s.sum(1), math.pi * s[:, 1]) for s in _stein_sums(f, r)])
    out = np.array(out)  # (M, values or bounds, row, R)
    return out[:, 0], out[:, 1]


# ---- the one compute path -----------------------------------------------------------

def _exact(kernel, quantity: str):
    """The route of an exact quantity from a kernel of (an (M, N) stack of
    z/f coefficients, radii): radii checked in (0, 1], one row of finite
    values per function, and no error bounds."""
    def route(fs, radii):
        c = np.array([f.inv_series.coefficients for f in fs])
        rows = np.asarray(kernel(c, check_radii(radii)), dtype=np.float64)
        return _finite(rows, quantity)[:, None], None
    return route


#: (method, quantity) -> (route, row): the route maps (M functions, radii)
#: to an (M, K, R) array of values and one of error bounds, or None where
#: every bound is 0, and the quantity is their row ``row``.
_ROUTES = {
    (Method.SERIES, BoundQuantity.DIRICHLET_ZF): (_exact(
        lambda c, radii: math.pi * _parseval(c[:, None], 1.0, radii, 1), "Dirichlet integral"), 0),
    (Method.SERIES, BoundQuantity.DIRICHLET_F): (_dirichlet_f, 0),
    (Method.SERIES, BoundQuantity.DIRICHLET_F_OVER_Z): (_dirichlet_f, 1),
    (Method.SERIES, BoundQuantity.L1): (_exact(
        lambda c, radii: 1.0 + _parseval(c[:, None], 0.0, radii, 1), "L1 mean"), 0),
    (Method.QUADRATURE, BoundQuantity.DIRICHLET_ZF): (_exact(lambda c, radii: [
        [_area_quadrature(b, r) for r in radii.tolist()] for b in c], "Dirichlet integral"), 0),
    (Method.QUADRATURE, BoundQuantity.L1): (_exact(lambda c, radii: [
        [_l1_quadrature(b, r) for r in radii.tolist()] for b in c], "L1 mean"), 0),
}


def values(f: PoleFunction, quantities, radii,
           method: Method = Method.SERIES) -> tuple[np.ndarray, np.ndarray]:
    """Several quantities of f at a sequence of radii by one method, as two
    (Q, R) float arrays: the values, and bounds on what each leaves out, 0
    on the exact routes and, on the f and f/z integrals, the remainder of
    their Stein sums, at most 2^-52 of the value.  Each route runs once per
    call and checks every radius before it forms a value; a radius gives
    the same bits alone or among others.

    Raises BadParameter for a pair without a route (the f and f/z integrals
    have no quadrature), radii that are not one-dimensional, and a value
    beyond the float range; BadRadius or RadiusBeyondPole for the first
    radius outside a route's domain (``errors.check_radii``), the routes
    checked in the order of the quantities.
    """
    return tuple(out[0] for out in _values([f], quantities, radii, method))


def _values(fs, quantities, radii, method: Method = Method.SERIES):
    """:func:`values` of M functions whose z/f vectors share one length, as
    (M, Q, R) arrays, each route run once over all of them, each function
    with the bits it gets alone.  Raises as :func:`values` does for any."""
    method = Method(method)
    routes = []
    for quantity in quantities:
        quantity = BoundQuantity(quantity)
        route = _ROUTES.get((method, quantity))
        if route is None:
            raise BadParameter(f"no {method.value} route for {quantity.value}")
        routes.append(route)
    radii = np.asarray(radii, dtype=np.float64)  # each route checks its shape and domain
    out = np.zeros((2, len(fs), len(routes), radii.size))
    done = {}
    for i, (route, row) in enumerate(routes):
        if route not in done:
            done[route] = route(fs, radii)
        computed, errors = done[route]
        out[0, :, i] = computed[:, row]
        if errors is not None:
            out[1, :, i] = errors[:, row]
    return out[0], out[1]
