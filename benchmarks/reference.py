"""Fixed reference kernels that gauge the host's speed during a run.

The benchmark shares a few cores of a host whose speed drifts by 20-70%
over seconds to minutes, and the drift reaches every timing of a run
alike.  So between calls into the program a run times three fixed
kernels in rotation, one for each kind of work the program does: large
element-wise arrays (``pair_scan``, as in a collision scan), many small
NumPy calls driven from Python (``recurrence``, as in a series reciprocal)
and a quadrature grid (``quadrature``).  The host's slowdown at a moment
is the geometric mean over the kernels of measured / nominal time, taken
as a median over nearby rotations; a timing divided by it reads as on a
host that runs the kernels in their nominal times.

The kernels live here, not in the program, and never change with it: a
change that makes the program faster or slower moves the scaled timings by
the same share as the raw ones.  ``NOMINAL_S`` fixes each kernel's nominal
time once; it sets the scale of the reported timings, not their ratios.
"""

from __future__ import annotations

import math
import time

import numpy as np
_ANGLES = 64
_RADII = 16
_CHUNK = 64


def _disk_points() -> np.ndarray:
    r = np.linspace(0.05, 0.95, _RADII)
    theta = 2.0 * np.pi * np.arange(_ANGLES) / _ANGLES
    return (r[:, None] * np.exp(1j * theta)[None, :]).ravel()


_POINTS = _disk_points()
_SERIES = 1.0 / (1.0 + np.arange(161)) ** 2 * np.exp(0.7j * np.arange(161))
_SERIES[0] = 1.0


def pair_scan() -> float:
    """Chunked minimum of pairwise difference quotients of a fixed map over a
    1024-point disk grid: large element-wise array work, as in a
    collision scan."""
    z = _POINTS
    w = z / (1.0 - 0.3 * z) ** 2
    index = np.arange(z.size)
    best = math.inf
    for start in range(0, z.size, _CHUNK):
        dz = np.abs(z[start:start + _CHUNK, None] - z[None, :])
        dw = np.abs(w[start:start + _CHUNK, None] - w[None, :])
        mask = index[start:start + _CHUNK, None] < index[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            quotients = np.where(mask, dw / dz, np.inf)
        best = min(best, float(quotients.flat[int(np.argmin(quotients))]))
    return best


def recurrence() -> float:
    """Series reciprocal by its O(N**2) recurrence, one small dot product per
    coefficient, then weighted coefficient sums at a few radii: many small
    NumPy calls driven from Python."""
    c = _SERIES
    out = np.zeros_like(c)
    out[0] = lead = 1.0 / c[0]
    for n in range(1, len(c)):
        out[n] = -lead * np.dot(c[1:n + 1], out[n - 1::-1])
    n = np.arange(len(c), dtype=np.float64)
    mags = np.abs(out) ** 2
    return sum(float(np.sum(n * mags * r ** (2.0 * n))) for r in np.linspace(0.05, 0.5, 8))


def quadrature() -> float:
    """Gauss-Legendre nodes built afresh, then Horner evaluation of an
    order-64 series on a 64 x 256 polar grid."""
    x, w = np.polynomial.legendre.leggauss(64)
    r = 0.25 * (x + 1.0)
    theta = 2.0 * np.pi * np.arange(256) / 256
    z = r[:, None] * np.exp(1j * theta)[None, :]
    acc = np.full(z.shape, _SERIES[64])
    for c in _SERIES[63::-1]:
        acc = acc * z + c
    return float(np.sum(w[:, None] * np.abs(acc) ** 2))


KERNELS = (pair_scan, recurrence, quadrature)
#: Nominal seconds per call of each kernel: about its median on a 2-vCPU
#: x86-64 VM (Python 3.11, NumPy 2 with OpenBLAS) at that host's usual speed.
NOMINAL_S = np.array([0.025, 0.0006, 0.004])


class HostGauge:
    """Times the kernels in rotation and gives the host's slowdown."""

    def __init__(self):
        self.samples: list[float] = []  # seconds per kernel call, in rotation order
        self.busy = 0.0

    def sample(self) -> None:
        """Time the next kernel of the rotation once."""
        kernel = KERNELS[len(self.samples) % len(KERNELS)]
        t0 = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.busy += elapsed

    def rotate(self) -> None:
        """Time every kernel once."""
        for _ in KERNELS:
            self.sample()

    @property
    def rotations(self) -> int:
        """Completed rotations so far."""
        return len(self.samples) // len(KERNELS)

    def per_rotation(self) -> np.ndarray:
        """Slowdown measured by each completed rotation: the geometric mean
        over kernels of measured / nominal time."""
        n = self.rotations
        ratios = np.asarray(self.samples[: n * len(KERNELS)]).reshape(n, len(KERNELS)) / NOMINAL_S
        return np.exp(np.log(ratios).mean(axis=1))

    def local(self, half: int = 4) -> np.ndarray:
        """Slowdown around each completed rotation: the median over the
        rotations at most ``half`` away from it."""
        per = self.per_rotation()
        return np.array([np.median(per[max(0, j - half): j + half + 1])
                         for j in range(per.size)])

    def overall(self) -> float:
        """Median slowdown over every completed rotation."""
        return float(np.median(self.per_rotation()))
