"""Complex polynomials on the unit disk: z/f and what is formed from it.

A series is a finite coefficient vector ``c[0..N]`` standing for the
polynomial ``sum_n c[n] z**n``; z/f is stored exactly so, at its degree.
The module evaluates a polynomial, forms its weighted Parseval sums and
finds its degree.  Derivatives and products are formed on the coefficient
vectors where they are needed.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from .errors import BadParameter, check_count, check_radius

ComplexLike = Union[complex, float, int]


def degree(c: np.ndarray) -> int:
    """Index of the last nonzero entry of the coefficient vector c, -1 when
    there is none (the zero polynomial); no scan when the last is nonzero."""
    if c.size and c[-1]:
        return c.size - 1
    nonzero = np.flatnonzero(c)
    return int(nonzero[-1]) if nonzero.size else -1


class TruncatedSeries:
    """Immutable polynomial with complex coefficients; ``order`` is the
    length of its coefficient vector less one, trailing zeros included.

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

    # ---- evaluation and coefficient functionals -------------------------

    def evaluate(self, z):
        """Horner evaluation at a complex point or ndarray of points.

        Horner starts at the degree: trailing zero coefficients would only
        hold the accumulator at zero, so a zero-padded vector costs what its
        degree costs.  Arrays of two or more points are stepped in place.  A
        single point keeps the out-of-place step: numpy can round a
        one-element product differently in place, and the result must not
        change in the last bit.
        """
        pts = np.asarray(z, dtype=np.complex128)
        d = max(degree(self._coeffs), 0)
        acc = np.full(pts.shape, self._coeffs[d])
        if pts.size == 1:
            for c in self._coeffs[:d][::-1]:
                acc = acc * pts + c
        else:
            for c in self._coeffs[:d][::-1]:
                acc *= pts
                acc += c
        if np.ndim(z) == 0:
            return complex(acc)
        return acc

    def weighted_coefficient_sum(self, t: float, r, start_index: int = 0):
        """``sum_{n >= start_index} n**t |c[n]|**2 r**(2n)``, by ``_parseval``.

        The n = 0 term is taken to be ``|c[0]|**2`` when t = 0 and zero for
        any other t (the only finite reading of ``0**t`` for t < 0, and the
        standard convention for t > 0).  ``start_index = order + 1`` gives
        the empty sum, 0.

        r is a radius, giving a float, or a one-dimensional array of radii,
        giving an array with one sum per radius, the same bits alone or
        among others.  Terms are formed scaled, so the sum is finite wherever
        it and each n**(t/2) are, however large |c[n]|**2 or small r**(2n)
        is alone.  A sum that overflows reads inf, without a warning.

        Raises:
            BadRadius: if r, or any radius in it, is outside (0, 1].
            BadParameter: if r has more than one dimension, t is not finite
                or ``start_index`` is not an integer in [0, order + 1].
        """
        radii = np.asarray(r, dtype=np.float64)
        if radii.ndim > 1:
            raise BadParameter(f"radii must be a scalar or a one-dimensional array, "
                               f"not {radii.ndim}-dimensional")
        for radius in radii.ravel().tolist():
            check_radius(radius)
        if not np.isfinite(t):
            raise BadParameter(f"exponent t {t!r} is not finite")
        if type(start_index) is not int or not 0 <= start_index <= self.order + 1:
            message = f"start index {start_index} outside [0, {self.order + 1}]"
            check_count(start_index, 0, message)
            if start_index > self.order + 1:
                raise BadParameter(message)
        sums = _parseval(self._coeffs, t, radii, start_index)
        return float(sums) if radii.ndim == 0 else sums


def _parseval(c: np.ndarray, t: float, radii, start: int):
    """``sum_{n >= start} n**t |c[n]|**2 r**(2n)``, unvalidated, at a radius
    (a numpy float) or at each of a one-dimensional array of radii.

    Terms are formed scaled, x_n = n**(t/2) |c[n]| r**n (x_0 = 0 if t != 0),
    and summed as x . x, so the sum is finite wherever it and each n**(t/2)
    are; overflow reads inf, silently.  A radius alone and each row of an
    array take the same steps and give the same bits: ``float_power`` is
    libm's pow everywhere, where ``**`` squares a broadcast exponent of 2."""
    n = np.arange(start, c.size, dtype=np.float64)
    with np.errstate(all="ignore"):
        x = np.abs(c[start:]) * np.float_power(np.asarray(radii)[..., None], n)
        if t != 0:
            weights = n ** (0.5 * t)
            if start == 0:
                weights[0] = 0.0
            x *= weights
        x *= x
        return np.add.reduce(x, axis=-1)
