"""Disk functions carried through their z/f power series.

A function f, holomorphic on the unit disk except possibly for one simple
pole at p in (0, 1) and normalized by f(0) = 0, f'(0) = 1, is stored as the
Taylor series of z/f(z), exactly as given.  That series is analytic on the
whole disk, starts with constant term 1, and encodes the pole as a zero at
p.  f/z = 1/(z/f) is formed only to an order its caller names.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import (BadParameter, ClassMismatch, PoleMismatch, check_count, check_lambda,
                     check_pole)
from .series import TruncatedSeries

#: Sentinel for functions with no pole (analytic on the whole disk).
NO_POLE = None

#: Absolute tolerance for "the declared pole is a root of z/f".
POLE_RESIDUAL_TOL = 1e-8

#: Largest distance between a function's pole and its class's pole.
POLE_MATCH_TOL = 1e-12


def mu(p: float) -> float:
    """Pole-dependent criterion constant ((1 - p) / (1 + p))**2.

    Strictly decreasing in p, with values in (0, 1) for p in (0, 1).
    """
    check_pole(p)
    return ((1.0 - p) / (1.0 + p)) ** 2


class ClassKind(str, Enum):
    """Function classes for which sharp bounds are implemented."""

    SIGMA_P = "SIGMA_P"            # univalent, one simple pole at p
    U_P_LAMBDA = "U_P_LAMBDA"      # pole at p, residual functional below lambda * mu
    S = "S"                        # analytic univalent, no pole


_POLE_KINDS = {ClassKind.SIGMA_P, ClassKind.U_P_LAMBDA}


@dataclass(frozen=True)
class ClassSpec:
    """A function class together with its parameters.

    ``p`` is present exactly for the pole classes (0 < p < 1), ``lam``
    exactly for U_P_LAMBDA (0 < lam <= 1).
    """

    kind: ClassKind
    p: Optional[float] = None
    lam: Optional[float] = None

    def __post_init__(self):
        kind = ClassKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind in _POLE_KINDS:
            if self.p is None:
                raise BadParameter(f"class {kind.value} needs a pole location")
            check_pole(self.p)
            object.__setattr__(self, "p", float(self.p))
        elif self.p is not None:
            raise BadParameter("class S admits no pole parameter")
        if kind is ClassKind.U_P_LAMBDA:
            if self.lam is None:
                raise BadParameter("class U_P_LAMBDA needs lambda")
            check_lambda(self.lam)
            object.__setattr__(self, "lam", float(self.lam))
        elif self.lam is not None:
            raise BadParameter(f"class {kind.value} admits no lambda parameter")

    def match(self, f: "PoleFunction") -> None:
        """Raise ClassMismatch unless f has this class's pole (within
        POLE_MATCH_TOL), or no pole for class S."""
        if self.p is None:
            if f.pole is not None:
                raise ClassMismatch(f"function has a pole at {f.pole!r} but class S forbids one")
        elif f.pole is None or abs(f.pole - self.p) > POLE_MATCH_TOL:
            raise ClassMismatch(f"function pole {f.pole!r} does not match class pole {self.p!r}")


@dataclass(frozen=True)
class PoleFunction:
    """A normalized disk function represented by its z/f series.

    Attributes:
        inv_series: z/f as stored, with constant term exactly 1.
        pole: location of the simple pole in (0, 1), or NO_POLE.
    """

    inv_series: TruncatedSeries
    pole: Optional[float] = NO_POLE

    def __post_init__(self):
        if self.inv_series[0] != 1.0 + 0.0j:
            raise BadParameter("z/f series must start with constant term 1")
        if self.pole is not None:
            check_pole(self.pole)
            object.__setattr__(self, "pole", float(self.pole))
            residual = abs(self.inv_series.evaluate(self.pole))
            if not residual <= POLE_RESIDUAL_TOL:  # NaN, where z/f overflows, fails too
                raise PoleMismatch(
                    f"z/f evaluates to modulus {residual:.3e} at the declared pole "
                    f"{self.pole!r} (tolerance {POLE_RESIDUAL_TOL:g})"
                )


def build_kp(p: float) -> PoleFunction:
    """Extremal univalent function with pole p: z/f = 1 - (1/p + p) z + z**2.

    Maps the disk onto the complement of a straight slit and attains the
    sharp coefficient and Dirichlet-growth bounds for the pole class.
    """
    check_pole(p)
    return PoleFunction(TruncatedSeries([1.0, -(1.0 / p + p), 1.0]), pole=p)


def build_fp(p: float, lam: float) -> PoleFunction:
    """Extremal member of the residual-functional class:
    z/f = 1 - (1/p + lam*mu*p) z + lam*mu z**2."""
    check_pole(p)
    check_lambda(lam)
    m = lam * mu(p)
    return PoleFunction(TruncatedSeries([1.0, -(1.0 / p + m * p), m]), pole=p)


def build_koebe_rotation(theta: float) -> PoleFunction:
    """Rotated Koebe map z/(1 - e^{i theta} z)**2, which has no pole.

    Its z/f series is the exact polynomial 1 - 2 e^{i theta} z + e^{2 i theta} z**2.
    """
    if not math.isfinite(theta):
        raise BadParameter("rotation angle must be finite")
    w = cmath.exp(1j * theta)
    return PoleFunction(TruncatedSeries([1.0, -2.0 * w, w * w]), pole=NO_POLE)


def from_inverse_coefficients(b: Sequence[complex], pole: Optional[float] = NO_POLE) -> PoleFunction:
    """Build a function from the z/f coefficients b1..bN (b0 = 1 implicit)."""
    coeffs = np.empty(len(b) + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    coeffs[1:] = b
    return PoleFunction(TruncatedSeries(coeffs), pole=pole)


def f_over_z_series(f: PoleFunction, order: int) -> TruncatedSeries:
    """Taylor series of f/z = 1/(z/f) to ``order``, by the recurrence of z/f
    = 1 + b_1 z + ... + b_d z^d: a_0 = 1 and a_n = -(b_1 a_(n-1) + ... +
    b_d a_(n-d)), with a_k = 0 for k < 0.

    Entry n is the Taylor coefficient a_{n+1} of f itself (entry 0 is 1).

    Raises:
        BadParameter: if the order is not a non-negative integer, or a
            coefficient leaves the float range.
    """
    check_count(order, 0, "f/z order must be non-negative")
    b = f.inv_series.coefficients[1:]
    a = np.zeros(order + 1, dtype=np.complex128)
    a[0] = 1.0
    with np.errstate(all="ignore"):  # an overflow is refused below, not warned
        for n in range(1, order + 1):
            k = min(n, len(b))
            a[n] = -np.dot(b[:k], a[n - 1 :: -1][:k])
    return TruncatedSeries(a)


# ---- CSV row form ----------------------------------------------------------
#
# One function per row: p (empty when there is no pole), order N, then the
# 2N real numbers Re b1, Im b1, ..., Re bN, Im bN.  A function writes z/f
# at its stored order N; reading a row stores all N coefficients.

def to_csv_row(f: PoleFunction) -> list[str]:
    row = ["" if f.pole is None else repr(f.pole), str(f.inv_series.order)]
    for c in f.inv_series.coefficients[1:]:
        row.append(repr(float(c.real)))
        row.append(repr(float(c.imag)))
    return row


def from_csv_row(fields: Sequence[str]) -> PoleFunction:
    if len(fields) < 2:
        raise BadParameter("function row needs at least a pole field and an order field")
    try:
        pole = None if fields[0].strip() == "" else float(fields[0])
        order = int(fields[1])
        values = np.array([float(x) for x in fields[2:]], dtype=np.float64)
    except ValueError as exc:
        raise BadParameter(f"unparseable function row: {exc}") from exc
    if order < 0 or values.size != 2 * order:
        raise BadParameter(
            f"function row declares order {order} but carries {values.size} coefficient fields"
        )
    # Re b1, Im b1, Re b2, ... is the memory layout of complex128
    return from_inverse_coefficients(values.view(np.complex128), pole=pole)
