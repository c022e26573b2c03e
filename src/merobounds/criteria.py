"""Class membership, a univalence test and a collision scan.

The membership and criterion statistics are polynomials in z, so their
suprema over the disk are maxima on |z| = 1, bounded from above by one
FFT of the coefficients (:func:`_circle_sup`).  The injectivity scan
samples a polar grid inside the disk and is an oracle, not a proof:
``holds=True`` means no collision at the grid resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, NoPole, check_count, check_lambda, check_pole
from .functions import NO_POLE, PoleFunction, mu

SUP_TOL = 1e-12
#: Guard band a ``DiskGrid`` keeps around a pole.
POLE_GUARD = 0.02
COLLISION_TOL = 1e-4
_BLOCK = 4
_PAIR_BATCH = 256
_PRUNE_MARGIN = 1e-9
_OVERSAMPLING = 64


@dataclass(frozen=True)
class DiskGrid:
    """Polar sampling grid ``rho_k * exp(i*theta_j)`` inside the unit disk.

    Radii are ``radius * k / radial_count`` for ``k = 1 .. radial_count``
    and angles are uniform over ``[0, 2*pi)``.  When ``pole`` is set,
    radii within ``POLE_GUARD`` of it are dropped so no sample lands next
    to the singularity.
    """

    radius: float = 0.99
    radial_count: int = 32
    angular_count: int = 64
    pole: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < 1.0:
            raise BadParameter(f"grid radius must lie in (0, 1), got {self.radius}")
        check_count(self.radial_count, 1, "radial_count must be at least 1")
        check_count(self.angular_count, 1, "angular_count must be at least 1")
        if self.pole is not None:
            check_pole(self.pole)
        if self.radii().size == 0:
            raise BadParameter("pole guard excluded every radius of the grid")

    def radii(self) -> np.ndarray:
        rho = self.radius * np.arange(1, self.radial_count + 1) / self.radial_count
        if self.pole is not None:
            rho = rho[np.abs(rho - self.pole) >= POLE_GUARD]
        return rho

    def points(self) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(self.angular_count) / self.angular_count
        return (self.radii()[:, None] * np.exp(1j * theta)[None, :]).ravel()


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of a check: ``value`` bounds the supremum over the disk from
    above for the membership and criterion checks, peaking at ``witness``
    on |z| = 1, and is the minimum quotient over grid pairs for the
    injectivity scan, realised at ``witness`` and ``witness_partner``.
    ``pairs`` counts the quotients the injectivity scan formed; the other
    checks leave it at 0."""

    holds: bool
    value: float
    threshold: float
    witness: complex | None = None
    witness_partner: complex | None = None
    pairs: int = 0


def _circle_sup(q) -> tuple[float, complex | None]:
    """Upper bound of max |Q| on |z| = 1 for ``Q(z) = sum q[n] z**n``, and
    the sample where |Q| peaks; (0.0, None) for Q = 0, exact for a constant.

    Q of degree d is sampled at M >= ``_OVERSAMPLING * d`` roots of unity.
    T = |Q|**2 is a trigonometric polynomial of degree d, so |T''| <= d**2
    max T (Bernstein twice); T' = 0 at the maximum, within pi/M of a
    sample, so the largest sample s has s**2 >= (1 - (pi d/M)**2 / 2) max T:
    the bound exceeds max |Q| by at most 0.06%.
    """
    nonzero = np.flatnonzero(q)
    if nonzero.size == 0:
        return 0.0, None
    d = int(nonzero[-1])
    m = 1 if d == 0 else 1 << (_OVERSAMPLING * d - 1).bit_length()
    # the fft of conj(q) is conj(Q) at exp(2 pi i k / m)
    samples = np.abs(np.fft.fft(np.conj(q[:d + 1]), m))
    k = int(np.argmax(samples))
    bound = samples[k] / np.sqrt(1.0 - 0.5 * (np.pi * d / m) ** 2)
    return float(bound), complex(np.exp(2j * np.pi * k / m))


def u_functional(f: PoleFunction, z):
    """Evaluate (z/f(z))**2 * f'(z) - 1 at scalar or array ``z``.

    Computed through the z/f series as inv(z) - z*inv'(z) - 1, which is
    the same quantity without forming f itself.
    """
    inv = f.inv_series
    zz = np.asarray(z, dtype=np.complex128)
    if inv.order == 0:  # z/f = 1, so U vanishes
        u = np.zeros(zz.shape, dtype=np.complex128)
    else:
        u = inv.evaluate(zz) - zz * inv.differentiate().evaluate(zz) - 1.0
    return complex(u) if zz.ndim == 0 else u


def up_lambda_membership(f: PoleFunction, lam: float) -> CriterionVerdict:
    """Check whether ``|U_f(z)| <= lam * mu(p) * |z|**2`` on the disk.

    ``value`` is the :func:`_circle_sup` bound of the polynomial
    ``U_f(z) / z**2 = sum_{n>=2} (1 - n) b_n z**(n-2)``, z/f = ``sum b_n z**n``;
    holds when it stays within ``SUP_TOL`` of the class bound.
    """
    if f.pole is NO_POLE:
        raise NoPole("membership scan needs a declared pole")
    check_lambda(lam)
    b = f.inv_series.coefficients
    value, witness = _circle_sup((1 - np.arange(2, b.size)) * b[2:])
    bound = lam * mu(f.pole)
    return CriterionVerdict(holds=bool(value <= bound + SUP_TOL), value=value,
                            threshold=bound, witness=witness)


def univalence_criterion(f: PoleFunction) -> CriterionVerdict:
    """Check the sufficient condition ``sup |(z/f)''(z)| <= mu(p)`` on the disk.

    ``value`` is the :func:`_circle_sup` bound of the polynomial
    ``(z/f)'' = sum_{n>=2} n (n - 1) b_n z**(n-2)``.  A failed check is
    inconclusive about univalence.  A holding one needs no count of the
    roots of z/f: Taylor's formula at p through z = 0 and through a second
    root in the disk bounds |(z/f)'(p)| from below and above, and the two
    bounds meet only if ``mu * p * (2p + 1) > 2``; that never exceeds 0.14.
    """
    if f.pole is NO_POLE:
        raise NoPole("the univalence criterion needs a declared pole")
    b = f.inv_series.coefficients
    n = np.arange(2, b.size)
    value, witness = _circle_sup(n * (n - 1) * b[2:])
    bound = mu(f.pole)
    return CriterionVerdict(holds=bool(value <= bound + SUP_TOL), value=value,
                            threshold=bound, witness=witness)


def _block_members(radial: int, angular: int) -> np.ndarray:
    """Grid indices of each ``_BLOCK`` x ``_BLOCK`` tile of the polar grid.

    Row ``b`` lists the points of block ``b`` in increasing order; the last
    tile along each axis is padded by repeating its last index.
    """
    def tiles(count: int) -> np.ndarray:
        idx = np.arange(-(-count // _BLOCK) * _BLOCK)
        return np.minimum(idx, count - 1).reshape(-1, _BLOCK)

    rows, cols = tiles(radial), tiles(angular)
    members = rows[:, None, :, None] * angular + cols[None, :, None, :]
    return members.reshape(-1, _BLOCK * _BLOCK)


def _box(values: np.ndarray, members: np.ndarray):
    """Per-block bounding box ``[(lo, hi) of the real part, (lo, hi) of the
    imaginary part]`` of the finite ``values``; an empty box has lo = +inf
    and hi = -inf."""
    ok = np.isfinite(values)[members]
    return [(np.where(ok, part[members], np.inf).min(axis=1),
             np.where(ok, part[members], -np.inf).max(axis=1))
            for part in (values.real, values.imag)]


def _quotient_bound(z_a, w_a, a, z_b, w_b, b) -> np.ndarray:
    """Lower bound of ``|w_i - w_j| / |z_i - z_j|`` over i in A and j in B:
    the gap between the image boxes over the widest distance between the
    sample boxes.  A's boxes are entries ``a`` of ``z_a`` and ``w_a``, laid
    out as by :func:`_box`, and B's are entries ``b`` of ``z_b`` and ``w_b``;
    a single point is the box with lo = hi."""
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.hypot(*(np.maximum(np.maximum(lo_b[b] - hi_a[a], lo_a[a] - hi_b[b]), 0.0)
                         for (lo_a, hi_a), (lo_b, hi_b) in zip(w_a, w_b)))
        span = np.hypot(*(np.maximum(hi_b[b] - lo_a[a], hi_a[a] - lo_b[b])
                          for (lo_a, hi_a), (lo_b, hi_b) in zip(z_a, z_b)))
        return gap / span


class _PairMinimum:
    """Running minimum of ``|w_i - w_j| / |z_i - z_j|`` over pairs i < j.

    Ties go to the smallest ``(i, j)`` in lexicographic order.  A NaN
    quotient (both images infinite) counts as +inf, and the initial key
    (0, 0) wins every tie at +inf.  ``pairs`` counts the quotients formed.
    """

    def __init__(self, z: np.ndarray, w: np.ndarray):
        self.z, self.w = z, w
        self.finite = bool(np.isfinite(w).all())
        self.value = float("inf")
        self.key = 0
        self.pairs = 0

    def scan(self, i: np.ndarray, j: np.ndarray, distinct: bool) -> None:
        """Scan the pairs of the broadcast index arrays ``i`` and ``j``.

        Unless ``distinct``, entries with ``i >= j`` are skipped.  The
        order of a pair does not change its quotient, because rounding is
        symmetric: fl(b - a) = -fl(a - b).
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q = np.abs(self.w[i] - self.w[j]) / np.abs(self.z[i] - self.z[j])
        if not distinct:
            q[i >= j] = np.inf
        if not self.finite:
            q[np.isnan(q)] = np.inf
        q = q.ravel()
        self.pairs += q.size
        if q.size == 0:
            return
        value = float(q.min())
        if value > self.value:
            return
        ties = np.flatnonzero(q == value)
        shape = np.broadcast_shapes(i.shape, j.shape)
        i = np.broadcast_to(i, shape).flat[ties]
        j = np.broadcast_to(j, shape).flat[ties]
        key = int((np.minimum(i, j) * self.z.size + np.maximum(i, j)).min())
        if value < self.value or key < self.key:
            self.value, self.key = value, key


def injectivity_oracle(f: PoleFunction, grid: DiskGrid | None = None) -> CriterionVerdict:
    """Find the floor of the difference quotients of f over grid pairs.

    ``value`` is exactly ``min |f(z1) - f(z2)| / |z1 - z2|`` over distinct
    grid pairs, and the witness pair is the minimising pair of grid indices
    (i, j), i < j, that comes first in lexicographic order.  The oracle
    holds when that floor stays above ``COLLISION_TOL``.
    The tolerance is calibrated on the default grid for poles in
    roughly [0.1, 0.95]: univalent extremal functions floor near 4e-4
    there while a function with an actual collision drops below 5e-5.
    Poles close to 0 push genuine floors under it, so refine the
    grid before trusting a failure in that regime.

    The floor is found by branch and bound rather than a full pair scan.
    The grid is tiled into ``_BLOCK`` x ``_BLOCK`` blocks.  Pairs inside a
    block give a first upper bound on the floor.  For two blocks, the gap
    between their image boxes over the widest distance between their
    sample boxes bounds every cross quotient from below; block pairs are
    scanned in increasing order of that bound until it exceeds the best
    quotient found.  A pair is skipped only when its bound exceeds the best
    by the relative margin ``_PRUNE_MARGIN``, far above rounding error, so
    a skipped pair can never tie the floor.

    For each kept block pair (A, B) a second level bounds each point i of A
    against all of B: the distance from w_i to B's image box over the
    widest distance from z_i to B's sample box is at most every quotient of
    i with a point of B.  Each point of B is bounded against A the same
    way, and the quotient of (i, j) is formed only when neither point bound
    exceeds the best by the same margin, so the same rounding argument
    holds.  A NaN or infinite bound is kept while the best is +inf, so the
    tie rule at +inf sees every pair it saw before.
    """
    if grid is None:
        grid = DiskGrid(pole=f.pole)
    z = grid.points()
    if z.size < 2:
        return CriterionVerdict(holds=True, value=float("inf"), threshold=COLLISION_TOL)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = z / f.inv_series.evaluate(z)
    best = _PairMinimum(z, w)

    members = _block_members(grid.radii().size, grid.angular_count)
    best.scan(members[:, :, None], members[:, None, :], distinct=False)

    a, b = np.triu_indices(len(members), 1)
    z_box, w_box = _box(z, members), _box(w, members)
    lower = _quotient_bound(z_box, w_box, a, z_box, w_box, b)
    keep = lower <= best.value * (1.0 + _PRUNE_MARGIN)
    order = np.argsort(lower[keep], kind="stable")
    a, b, lower = a[keep][order], b[keep][order], lower[keep][order]
    z_points = [(x, x) for x in (z.real[members], z.imag[members])]
    w_points = [(x, x) for x in (w.real[members], w.imag[members])]
    # each point of one block against the whole other block
    bound_a = _quotient_bound(z_points, w_points, a, z_box, w_box, b[:, None])
    bound_b = _quotient_bound(z_points, w_points, b, z_box, w_box, a[:, None])
    n = members.shape[1]
    for start in range(0, a.size, _PAIR_BATCH):
        limit = best.value * (1.0 + _PRUNE_MARGIN)
        if lower[start] > limit:
            break
        batch = slice(start, start + _PAIR_BATCH)
        keep = ~(bound_a[batch] > limit)[:, :, None] & ~(bound_b[batch] > limit)[:, None, :]
        pair = np.flatnonzero(keep)  # k n**2 + s n + t for point s of a[k], t of b[k]
        best.scan(members[a[batch]].ravel()[pair // n],
                  members[b[batch]].ravel()[pair // (n * n) * n + pair % n], distinct=True)

    best_i, best_j = divmod(best.key, z.size)
    return CriterionVerdict(
        holds=best.value > COLLISION_TOL,
        value=best.value,
        threshold=COLLISION_TOL,
        witness=complex(z[best_i]),
        witness_partner=complex(z[best_j]),
        pairs=best.pairs,
    )
