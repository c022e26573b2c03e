"""Truncated complex power series arithmetic on the unit disk.

A series is a finite coefficient vector ``c[0..N]`` standing for
``sum_n c[n] z**n``.  Nothing past the truncation order is ever invented:
binary operations shorten to the smaller order of their operands rather
than zero-padding the shorter one.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from .errors import BadParameter, NearZeroConstantTerm, OrderUnderflow, check_count, check_radius

#: Order at which the builders truncate f/z.
DEFAULT_ORDER = 64

#: Smallest constant-term modulus for which a reciprocal is attempted.
RECIPROCAL_FLOOR = 1e-9

ComplexLike = Union[complex, float, int]


class TruncatedSeries:
    """Immutable truncated power series with complex coefficients.

    Args:
        coefficients: iterable of at least one finite complex number,
            index n holding the coefficient of ``z**n``.

    Raises:
        BadParameter: on an empty vector or any non-finite entry.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[ComplexLike]):
        if not isinstance(coefficients, np.ndarray):
            coefficients = list(coefficients)
        arr = np.array(coefficients, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise BadParameter("a series needs a one-dimensional, non-empty coefficient vector")
        if not np.all(np.isfinite(arr)):
            raise BadParameter("series coefficients must be finite")
        arr.setflags(write=False)
        self._coeffs = arr

    # ---- basic introspection -------------------------------------------

    @property
    def coefficients(self) -> np.ndarray:
        """Read-only coefficient vector of length ``order + 1``."""
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def __len__(self) -> int:
        return len(self._coeffs)

    def __getitem__(self, n: int) -> complex:
        return complex(self._coeffs[n])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and bool(np.array_equal(self._coeffs, other._coeffs))

    __hash__ = None  # mutable-looking value semantics; not hashable

    def __repr__(self) -> str:
        head = ", ".join(repr(complex(c)) for c in self._coeffs[:4])
        tail = ", ..." if self.order > 3 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"

    # ---- arithmetic -----------------------------------------------------

    def multiply(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product truncated to the smaller operand order."""
        order = min(self.order, other.order)
        prod = np.convolve(self._coeffs, other._coeffs)[: order + 1]
        return TruncatedSeries(prod)

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse to the same truncation order.

        Uses the standard recurrence r[0] = 1/c[0] and
        ``r[n] = -(1/c[0]) * sum_{k=1..n} c[k] r[n-k]``.

        Raises:
            NearZeroConstantTerm: if ``|c[0]| < RECIPROCAL_FLOOR``.
            BadParameter: if the recurrence overflows.
        """
        c = self._coeffs
        if abs(c[0]) < RECIPROCAL_FLOOR:
            raise NearZeroConstantTerm(
                f"constant term {c[0]!r} has modulus below {RECIPROCAL_FLOOR:g}"
            )
        lead = 1.0 / c[0]
        out = np.zeros_like(c)
        out[0] = lead
        for n in range(1, len(c)):
            out[n] = -lead * np.dot(c[1 : n + 1], out[n - 1 :: -1])
        return TruncatedSeries(out)

    def differentiate(self) -> "TruncatedSeries":
        """Term-by-term derivative, one order shorter.

        Raises:
            OrderUnderflow: if the series has order 0.
        """
        if self.order == 0:
            raise OrderUnderflow("cannot differentiate a series of order 0")
        c = self._coeffs
        return TruncatedSeries(c[1:] * np.arange(1, len(c), dtype=np.float64))

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop every coefficient past ``order`` (which must not exceed the
        current order: unknown tail coefficients are never fabricated)."""
        message = f"cannot truncate order-{self.order} series to order {order}"
        check_count(order, 0, message)
        if order > self.order:
            raise BadParameter(message)
        return TruncatedSeries(self._coeffs[: order + 1])

    # ---- evaluation and coefficient functionals -------------------------

    def evaluate(self, z):
        """Horner evaluation at a complex point or ndarray of points.

        Arrays of two or more points are stepped in place.  A single point
        keeps the out-of-place step: numpy can round a one-element product
        differently in place, and the result must not change in the last bit.
        """
        pts = np.asarray(z, dtype=np.complex128)
        acc = np.full(pts.shape, self._coeffs[-1])
        if pts.size == 1:
            for c in self._coeffs[-2::-1]:
                acc = acc * pts + c
        else:
            for c in self._coeffs[-2::-1]:
                acc *= pts
                acc += c
        if np.ndim(z) == 0:
            return complex(acc)
        return acc

    def weighted_coefficient_sum(self, t: float, r, start_index: int = 0):
        """``sum_{n >= start_index} n**t |c[n]|**2 r**(2n)``.

        The n = 0 term is taken to be ``|c[0]|**2`` when t = 0 and zero for
        any other t (the only finite reading of ``0**t`` for t < 0, and the
        standard convention for t > 0).  ``start_index = order + 1`` gives
        the empty sum, 0.

        r is a radius, giving a float, or a one-dimensional array of radii,
        giving an array with one sum per radius.  Weights and moduli are
        formed once; each sum keeps the elementwise order of the one-radius
        sum, so both agree to the last bit.

        Raises:
            BadRadius: if r, or any radius in it, is outside (0, 1].
            BadParameter: if r has more than one dimension, t is not finite
                or ``start_index`` is not an integer in [0, order + 1].
        """
        many = isinstance(r, (np.ndarray, list, tuple)) and np.ndim(r) != 0
        if many:
            radii = np.asarray(r, dtype=np.float64)
            if radii.ndim != 1:
                raise BadParameter(f"radii must be a scalar or a one-dimensional array, "
                                   f"not {radii.ndim}-dimensional")
            for radius in radii.tolist():
                check_radius(radius)
            radii = radii[:, None]
        else:
            check_radius(r)
            radii = r
        if not np.isfinite(t):
            raise BadParameter(f"exponent t {t!r} is not finite")
        message = f"start index {start_index} outside [0, {self.order + 1}]"
        check_count(start_index, 0, message)
        if start_index > self.order + 1:
            raise BadParameter(message)
        n = np.arange(start_index, self.order + 1, dtype=np.float64)
        if t == 0:
            weights = np.ones_like(n)
        else:
            weights = np.empty_like(n)
            nonzero = n > 0
            weights[nonzero] = n[nonzero] ** t
            weights[~nonzero] = 0.0
        mags = np.abs(self._coeffs[start_index:]) ** 2
        sums = np.sum(weights * mags * radii ** (2.0 * n), axis=-1)
        return sums if many else float(sums)
