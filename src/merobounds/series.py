"""Complex polynomials on the unit disk: z/f and what is formed from it.

A series is a finite coefficient vector ``c[0..N]`` standing for the
polynomial ``sum_n c[n] z**n``; z/f is stored exactly so, at its degree.
The module evaluates a polynomial, forms the weighted Parseval sums that
the series routes and the coefficient checks read (``_parseval``), samples
it on a circle by one FFT (``_circle_values``) and finds its degree.
Derivatives and products are formed on the coefficient vectors where they
are needed.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from .errors import BadParameter

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

    # ---- evaluation ----------------------------------------------------

    def evaluate(self, z):
        """Horner evaluation at a complex point or ndarray of points.

        Horner starts at the degree: trailing zero coefficients would only
        hold the accumulator at zero, so a zero-padded vector costs what its
        degree costs.  A single point is stepped in Python complex
        arithmetic, faster than numpy and free of its SIMD kernels; an array
        of any size takes the out-of-place step ``acc * pts + c``.
        """
        d = max(degree(self._coeffs), 0)
        if np.ndim(z) == 0:
            z, coeffs = complex(z), self._coeffs[: d + 1].tolist()
            acc = coeffs.pop()
            for c in reversed(coeffs):
                acc = acc * z + c
            return acc
        pts = np.asarray(z, dtype=np.complex128)
        acc = np.full(pts.shape, self._coeffs[d])
        for c in self._coeffs[:d][::-1]:
            acc = acc * pts + c
        return acc


def _parseval(c: np.ndarray, t: float, radii, start: int):
    """``sum_{n >= start} n**t |c[n]|**2 r**(2n)``, unvalidated, for t <= 2
    and start >= 1, at a radius (a numpy float) or at each of a
    one-dimensional array of radii, for a coefficient vector c or an
    (M, 1, N) stack of them, giving (M, R).

    Terms are formed scaled, x_n = n**(t/2) |c[n]| r**n, and summed as
    x . x, so the sum is finite wherever it is; overflow reads inf,
    silently.  With t <= 2 no weight exceeds n.  A radius alone and each
    row of an array or stack take the same steps and give the same bits on
    every CPU: r**n and n**(t/2) are libm's pow by ``float_power`` (n**0.5
    is sqrt), where ``**`` squares an exponent of 2 and may take a
    CPU-dependent SIMD pow."""
    n = np.arange(start, c.shape[-1], dtype=np.float64)
    radii = np.asarray(radii)[..., None]
    with np.errstate(all="ignore"):
        x = np.abs(c[..., start:]) * np.float_power(radii, n)
        if t != 0:
            x *= np.sqrt(n) if t == 1 else np.float_power(n, 0.5 * t)
        x *= x
        return np.add.reduce(x, axis=-1)


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
    direct evaluation, aliasing included.  r^n is libm's pow by
    ``float_power``, as in ``_parseval``: ``**`` may take a SIMD power
    whose last bit depends on the CPU.
    """
    n = c.shape[-1]
    x = c * np.float_power(r, np.arange(n, dtype=np.float64))
    for k in range(m, n, m):
        width = min(m, n - k)
        x[..., :width] += x[..., k : k + width]
    return np.fft.ifft(x[..., :m], m, norm="forward")
