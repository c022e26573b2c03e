"""Class membership, univalence certificates and a collision scan.

The statistic U_f/z**2 of the membership check and Aksent'ev's
certificate and the statistic (z/f)'' of the criterion are polynomials in
z of one degree, so their suprema over the disk are maxima on |z| = 1,
bounded from above by one FFT of a stack of their coefficients
(:func:`_circle_sup`).  Each check is a (statistic, threshold) pair of
such a pass, and ``check`` takes all three verdicts of a row from one pass
(:func:`_row_verdicts`), in which the membership and Aksent'ev checks share
the samples of U_f/z**2.  The injectivity scan samples a polar grid
inside the disk and is an oracle, not a proof: ``holds=True`` means no
collision at the grid resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, NoPole, check_count, check_lambda, check_pole
from .functions import NO_POLE, PoleFunction, mu
from .series import _circle_values, _exact_count, degree

SUP_TOL = 1e-12
#: Guard band a ``DiskGrid`` keeps around a pole.
POLE_GUARD = 0.02
COLLISION_TOL = 1e-4
_BLOCK = 4
_PAIR_BATCH = 256
_PRUNE_MARGIN = 1e-9
_OVERSAMPLING = 64
#: Most roots of unity a circle bound refines to near its threshold.
_MAX_SAMPLES = 1 << 16


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
    ``pairs`` counts the quotients the injectivity scan formed: the pairs
    inside each grid block, then the cross-block pairs its bounds keep; the
    other checks leave it at 0."""

    holds: bool
    value: float
    threshold: float
    witness: complex | None = None
    witness_partner: complex | None = None
    pairs: int = 0


def _circle_sup(q: np.ndarray, checks) -> list[tuple[float, complex | None]]:
    """Upper bounds of max |Q_k| on |z| = 1 for the rows ``Q_k(z) = sum q[k, n]
    z**n`` of a (K, N) stack whose rows share one degree d: one (bound,
    sample where |Q_k| peaks) per ``(k, threshold)`` pair of ``checks``, in
    order; (0.0, None) for Q_k = 0, exact for a constant.

    Q_k is sampled at M >= ``_OVERSAMPLING * d`` roots of unity.  T = |Q_k|**2
    is a trigonometric polynomial of degree d, so |T''| <= d**2 max T
    (Bernstein twice); T' = 0 at the maximum, within pi/M of a sample, so the
    largest sample s has s**2 >= (1 - (pi d/M)**2 / 2) max T: the bound
    exceeds max |Q_k| by at most 0.06%.

    A bound above a threshold with no sample above it says nothing about
    which side max |Q_k| lies on.  Then that check stays open: M doubles
    until a sample exceeds its threshold or the bound clears it, or M
    reaches ``_MAX_SAMPLES``, where the bound above it stands.  Each M takes
    one FFT of the distinct rows that still have an open check, in
    ascending order, and a row's samples, so its bounds, are those of the
    same FFT of that row alone.  A coefficient beyond the float range gives
    NaN samples, read as inf, so the first FFT settles the row's checks at
    inf; a bound that the divisor lifts beyond the float range reads inf too.
    """
    d = max(map(degree, q), default=-1)
    if d < 0:
        return [(0.0, None)] * len(checks)
    m = _exact_count(_OVERSAMPLING * d)
    q = q[:, :d + 1].astype(np.complex128)
    sups = [None] * len(checks)
    todo = range(len(checks))  # the open checks
    while todo:
        rows = sorted({checks[j][0] for j in todo})
        # NaN samples, and a bound beyond the float range, read inf
        with np.errstate(all="ignore"):
            samples = np.abs(_circle_values(q[rows], 1.0, m))
            samples[np.isnan(samples)] = np.inf
            tops = samples.max(axis=1)
            bounds = tops / np.sqrt(1.0 - 0.5 * (np.pi * d / m) ** 2)
        peaks = dict(zip(rows, zip(bounds.tolist(), tops.tolist(),
                                   samples.argmax(axis=1).tolist())))
        for j in todo:
            row, threshold = checks[j]
            bound, top, i = peaks[row]
            if bound <= threshold or top > threshold or m >= _MAX_SAMPLES:
                sups[j] = (bound, complex(np.exp(2j * np.pi * i / m)))
        todo = [j for j in todo if sups[j] is None]
        m *= 2
    return sups


#: Rows of the stack that :func:`_circle_verdicts` bounds.
_U_ROW, _CRITERION_ROW = 0, 1


def _circle_verdicts(f: PoleFunction, checks) -> list[CriterionVerdict]:
    """One verdict per ``(row, bound, tol)`` of ``checks``, in order, from one
    :func:`_circle_sup` pass over the stack of two polynomials formed from
    z/f = ``sum b_n z**n``:

    - row ``_U_ROW``: ``U_f(z) / z**2 = sum_{n>=2} (1 - n) b_n z**(n-2)``;
    - row ``_CRITERION_ROW``: ``(z/f)'' = sum_{n>=2} n (n - 1) b_n z**(n-2)``.

    Both are b_n times a nonzero integer for n >= 2, so they share a degree;
    a row without a check takes no FFT.  A check holds when its bound stays
    within ``tol`` of ``bound``, which it reports as the threshold.
    """
    b = f.inv_series.coefficients
    b = b[:degree(b) + 1]  # each row then ends in a nonzero, so its degree reads at once
    n = np.arange(2, b.size)
    with np.errstate(over="ignore"):  # an overflow reads inf, as does the bound
        stack = np.multiply((1 - n, n * (n - 1)), b[2:])
    sups = _circle_sup(stack, [(row, bound + tol) for row, bound, tol in checks])
    return [CriterionVerdict(holds=bool(value <= bound + tol), value=value, threshold=bound,
                             witness=witness)
            for (_, bound, tol), (value, witness) in zip(checks, sups)]


def up_lambda_membership(f: PoleFunction, lam: float) -> CriterionVerdict:
    """Check whether ``|U_f(z)| <= lam * mu(p) * |z|**2`` on the disk.

    ``value`` is the :func:`_circle_sup` bound of the polynomial U_f/z**2
    (:func:`_circle_verdicts`); holds when it stays within ``SUP_TOL`` of
    the class bound.
    """
    if f.pole is NO_POLE:
        raise NoPole("membership scan needs a declared pole")
    check_lambda(lam)
    return _circle_verdicts(f, [(_U_ROW, lam * mu(f.pole), SUP_TOL)])[0]


def aksentiev_criterion(f: PoleFunction) -> CriterionVerdict:
    """Certify univalence by Aksent'ev's theorem (1958): f, meromorphic in
    the disk with f(0) = 0 = f'(0) - 1, is univalent if |U_f| < 1 there.

    ``value`` is the :func:`_circle_sup` bound of the polynomial U_f/z**2,
    which :func:`up_lambda_membership` bounds too, and the check holds iff
    ``value <= 1``.  By the maximum principle |U_f(z)| <= value |z|**2 < 1
    for |z| < 1.  The comparison is exact, since ``SUP_TOL`` would let a
    value above 1 pass, and rounding cannot pass one either.  Sample
    U_f/z**2 of degree d >= 1 at M points: |U_f/z**2|**2 >= 0 halves
    Bernstein's constant (apply it to T - max T / 2), so the bound's
    divisor leaves a margin of at least (pi d / M)**2 / 8, that is 7.5e-5
    at the first M and 2.9e-10 d**2 at ``_MAX_SAMPLES``, while the FFT
    rounds by about 1e-15 sqrt(d) of the maximum.  For d = 0 the value is
    exact: 1 for kp and the Koebe map, lam * mu(p) for fp.
    """
    return _circle_verdicts(f, [(_U_ROW, 1.0, 0.0)])[0]


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
    return _circle_verdicts(f, [(_CRITERION_ROW, mu(f.pole), SUP_TOL)])[0]


def _row_verdicts(f: PoleFunction, lam: float | None, aksentiev: bool):
    """The verdicts of :func:`up_lambda_membership` at ``lam``,
    :func:`aksentiev_criterion` and :func:`univalence_criterion` for one
    ``check`` row, from one :func:`_circle_verdicts` pass, with the same
    bits.  Each is None where it does not apply: membership without
    ``lam``, Aksent'ev's certificate unless ``aksentiev``, the criterion
    without a pole.  Without ``lam``, Aksent'ev's threshold has the
    U_f/z**2 row's FFT to itself.  The inputs are taken as validated.
    """
    checks = [(_U_ROW, lam * mu(f.pole), SUP_TOL) if lam is not None else None,
              (_U_ROW, 1.0, 0.0) if aksentiev else None,
              (_CRITERION_ROW, mu(f.pole), SUP_TOL) if f.pole is not NO_POLE else None]
    verdicts = iter(_circle_verdicts(f, [check for check in checks if check]))
    return tuple(None if check is None else next(verdicts) for check in checks)


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


def _floor(z: np.ndarray, w: np.ndarray, i: np.ndarray, j: np.ndarray) -> tuple[float, int]:
    """Smallest ``|w_i - w_j| / |z_i - z_j|`` over the broadcast index arrays
    ``i`` and ``j``, and the smallest key ``min(i, j) * z.size + max(i, j)``
    of a pair that attains it, so the floor of several calls is the ``min``
    of their results.  A NaN quotient (0/0 or two infinite images) counts as
    +inf, and a call with no finite quotient returns (inf, 0), the first grid
    point twice.  The order of a pair does not change its quotient, because
    rounding is symmetric: fl(b - a) = -fl(a - b).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = np.abs(w[i] - w[j]) / np.abs(z[i] - z[j])
    q = q.ravel()
    q[np.isnan(q)] = np.inf
    value = float(q.min(initial=np.inf))
    if value == np.inf:
        return value, 0
    shape = np.broadcast_shapes(i.shape, j.shape)
    ties = np.flatnonzero(q == value)
    i, j = np.broadcast_to(i, shape).flat[ties], np.broadcast_to(j, shape).flat[ties]
    return value, int((np.minimum(i, j) * z.size + np.maximum(i, j)).min())


def injectivity_oracle(f: PoleFunction, grid: DiskGrid | None = None) -> CriterionVerdict:
    """Find the floor of the difference quotients of f over grid pairs.

    ``value`` is exactly ``min |f(z1) - f(z2)| / |z1 - z2|`` over distinct
    grid pairs, and the witness pair is the minimising pair of grid indices
    (i, j), i < j, that comes first in lexicographic order.  The oracle
    holds when that floor stays above ``COLLISION_TOL``: no collision
    shows at the grid's resolution, which proves nothing.  Near a small
    pole, where the images are small, the absolute tolerance errs both
    ways: genuine floors fall under it, and a function with a collision
    f(z1) = f(z2) inside the grid can floor above it
    (``tests/data/scan_false_pass.csv``: pole 0.0836, floor 2.28e-4).

    The floor is found by branch and bound rather than a full pair scan.
    The grid is tiled into ``_BLOCK`` x ``_BLOCK`` blocks, and the pairs
    inside each block give an upper bound on the floor.  For two blocks,
    the gap between their image boxes over the widest distance between
    their sample boxes bounds every cross quotient from below.  For each
    kept block pair (A, B), the distance from w_i to B's image box over the
    widest distance from z_i to B's sample box bounds every quotient of a
    point i of A with B, and each point of B is bounded against A the same
    way.  A block pair, or a pair (i, j), is skipped only when a bound
    exceeds the in-block floor by the relative margin ``_PRUNE_MARGIN``,
    far above rounding error.  The in-block floor is at least the final
    one, so a skipped pair can neither beat nor tie the floor.
    """
    if grid is None:
        grid = DiskGrid(pole=f.pole)
    z = grid.points()
    if z.size < 2:
        return CriterionVerdict(holds=True, value=float("inf"), threshold=COLLISION_TOL)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = z / f.inv_series.evaluate(z)

    # each block lists its points in increasing order; a padded repeat gives 0/0
    members = _block_members(grid.radii().size, grid.angular_count)
    s, t = np.triu_indices(members.shape[1], 1)
    best = _floor(z, w, members[:, s], members[:, t])
    pairs = members.shape[0] * s.size
    limit = best[0] * (1.0 + _PRUNE_MARGIN)

    a, b = np.triu_indices(len(members), 1)
    z_box, w_box = _box(z, members), _box(w, members)
    lower = _quotient_bound(z_box, w_box, a, z_box, w_box, b)
    keep = lower <= limit
    a, b = a[keep], b[keep]
    z_points = [(x, x) for x in (z.real[members], z.imag[members])]
    w_points = [(x, x) for x in (w.real[members], w.imag[members])]
    # each point of one block against the whole other block; a NaN bound is kept
    near_a = ~(_quotient_bound(z_points, w_points, a, z_box, w_box, b[:, None]) > limit)
    near_b = ~(_quotient_bound(z_points, w_points, b, z_box, w_box, a[:, None]) > limit)
    n = members.shape[1]
    for start in range(0, a.size, _PAIR_BATCH):
        batch = slice(start, start + _PAIR_BATCH)
        # pair = k n**2 + s n + t for point s of a[k] and point t of b[k]
        pair = np.flatnonzero(near_a[batch, :, None] & near_b[batch, None, :])
        pairs += pair.size
        best = min(best, _floor(z, w, members[a[batch]].ravel()[pair // n],
                                members[b[batch]].ravel()[pair // (n * n) * n + pair % n]))

    value, key = best
    best_i, best_j = divmod(key, z.size)
    return CriterionVerdict(
        holds=value > COLLISION_TOL,
        value=value,
        threshold=COLLISION_TOL,
        witness=complex(z[best_i]),
        witness_partner=complex(z[best_j]),
        pairs=pairs,
    )
