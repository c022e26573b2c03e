import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyder

from merobounds import criteria
from merobounds.criteria import (
    COLLISION_TOL,
    CriterionVerdict,
    DiskGrid,
    _circle_sup,
    aksentiev_criterion,
    injectivity_oracle,
    univalence_criterion,
    up_lambda_membership,
)
from merobounds.errors import BadParameter, NoPole
from merobounds.functions import (
    build_fp,
    build_koebe_rotation,
    build_kp,
    f_over_z_series,
    from_inverse_coefficients,
    mu,
)
from merobounds.series import TruncatedSeries
from pointwise import u_functional


def perturbed_member(p, rng, tail_count=5, scale=0.03, order=64):
    """Random function with an exact simple-pole residual at p.

    b_2 .. b_{tail_count+1} are random, b_1 is solved so that the z/f
    series vanishes at p, and the rest is zero padding.
    """
    tail = scale * (rng.standard_normal(tail_count) + 1j * rng.standard_normal(tail_count))
    powers = p ** np.arange(2, tail_count + 2)
    b1 = -(1.0 + np.dot(tail, powers)) / p
    coeffs = np.zeros(order, dtype=np.complex128)
    coeffs[0] = b1
    coeffs[1:tail_count + 1] = tail
    return from_inverse_coefficients(coeffs, pole=p)


# --- DiskGrid ---

def test_grid_radii_match_the_documented_formula_exactly():
    grid = DiskGrid()
    assert grid.radii()[9] == 0.99 * 10 / 32
    assert grid.radii().size == 32
    assert grid.points().size == 32 * 64


def test_grid_point_on_the_positive_axis_is_exact():
    z = DiskGrid().points()
    assert z[9 * 64] == 0.99 * 10 / 32 + 0j


def test_pole_guard_drops_nearby_radii():
    guarded = DiskGrid(pole=0.5)
    # 0.99 * 16 / 32 = 0.495 sits within 0.02 of the pole
    assert guarded.radii().size == 31
    assert np.all(np.abs(guarded.radii() - 0.5) >= 0.02)
    assert guarded.points().size == 31 * 64


@pytest.mark.parametrize("kwargs", [
    {"radius": 0.0},
    {"radius": 1.0},
    {"radius": -0.3},
    {"radial_count": 0},
    {"angular_count": 0},
    {"pole": 1.2},
    {"pole": 0.0},
    {"pole": -0.4},
    {"pole": 0.98, "radial_count": 1},  # the guard swallows the only radius, 0.99
])
def test_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(BadParameter):
        DiskGrid(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"radial_count": 2.5},  # radii 0.396, 0.792, 1.188: a sample outside the disk
    {"radial_count": 32.0},
    {"angular_count": 8.5},
])
def test_grid_counts_must_be_integers(kwargs):
    with pytest.raises(BadParameter, match="not an integer"):
        DiskGrid(**kwargs)


def test_grid_accepts_numpy_integer_counts():
    grid = DiskGrid(radial_count=np.int64(2), angular_count=np.int32(3))
    assert grid.points().size == 6 and np.all(np.abs(grid.points()) < 1.0)


# --- u functional ---

def test_u_of_kp_is_minus_z_squared():
    f = build_kp(0.5)
    z = DiskGrid(pole=0.5).points()
    assert np.max(np.abs(u_functional(f, z) + z ** 2)) < 1e-12


@pytest.mark.parametrize("p,lam", [(0.3, 0.25), (0.5, 1.0), (0.8, 0.5)])
def test_u_of_fp_is_minus_lam_mu_z_squared(p, lam):
    f = build_fp(p, lam)
    z = DiskGrid(pole=p).points()
    expected = -lam * mu(p) * z ** 2
    assert np.max(np.abs(u_functional(f, z) - expected)) < 1e-12


def test_u_of_identity_map_vanishes():
    f = from_inverse_coefficients([])
    assert u_functional(f, 0.3 + 0.1j) == 0j
    z = np.array([0.1, 0.2j, -0.4])
    assert np.all(u_functional(f, z) == 0)


def test_u_scalar_matches_array_entry():
    f = build_fp(0.6, 0.75)
    z = 0.21 - 0.34j
    scalar = u_functional(f, z)
    array = u_functional(f, np.array([z]))
    assert abs(scalar - array[0]) < 1e-15


@given(st.floats(min_value=0.0, max_value=2.0 * math.pi))
@settings(max_examples=25, deadline=None)
def test_koebe_rotations_have_unimodular_u_ratio(theta):
    f = build_koebe_rotation(theta)
    z = DiskGrid(radial_count=6, angular_count=8).points()
    ratio = np.abs(u_functional(f, z)) / np.abs(z) ** 2
    assert np.max(np.abs(ratio - 1.0)) < 1e-10


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_u_agrees_with_direct_quotient_route(p):
    # independent route: f/z as a reciprocal series, f' = G + z G',
    # then (z/f)^2 f' - 1 pointwise
    rng = np.random.default_rng(414 + int(1000 * p))
    f = perturbed_member(p, rng)
    F = f.inv_series
    G = f_over_z_series(f, F.order)
    dG = TruncatedSeries(polyder(G.coefficients))
    z = 0.6 * p * (rng.random(200) * np.exp(2j * np.pi * rng.random(200)))
    direct = F.evaluate(z) ** 2 * (G.evaluate(z) + z * dG.evaluate(z)) - 1.0
    via_series = u_functional(f, z)
    assert np.max(np.abs(direct - via_series) / (1.0 + np.abs(via_series))) < 1e-11


# --- membership ---

@pytest.mark.parametrize("p,lam", [(0.2, 0.25), (0.5, 1.0), (0.8, 0.5)])
def test_fp_membership_is_sharp(p, lam):
    verdict = up_lambda_membership(build_fp(p, lam), lam)
    assert verdict.holds
    assert abs(verdict.value - lam * mu(p)) < 1e-12


def test_kp_is_not_a_member_for_any_lambda():
    verdict = up_lambda_membership(build_kp(0.5), 1.0)
    assert not verdict.holds
    assert abs(verdict.value - 1.0) < 1e-12  # |U| / |z|^2 is exactly 1 for kp


def test_thin_member_passes_with_room():
    p = 0.5
    verdict = up_lambda_membership(build_fp(p, 0.5), 1.0)
    assert verdict.holds
    assert verdict.value < 0.51 * mu(p)


def test_membership_requires_a_pole():
    with pytest.raises(NoPole):
        up_lambda_membership(build_koebe_rotation(0.0), 1.0)


@pytest.mark.parametrize("lam", [0.0, -0.5, 1.5])
def test_membership_rejects_bad_lambda(lam):
    with pytest.raises(BadParameter):
        up_lambda_membership(build_kp(0.5), lam)


def test_membership_witness_lies_on_the_unit_circle():
    assert up_lambda_membership(build_kp(0.4), 1.0).witness == 1 + 0j  # constant U/z^2
    f = perturbed_member(0.4, np.random.default_rng(11))
    verdict = up_lambda_membership(f, 1.0)
    assert abs(abs(verdict.witness) - 1.0) < 1e-15
    sample = abs(u_functional(f, verdict.witness))
    assert sample <= verdict.value <= 1.0007 * sample


def reproduction(s, k, c, p=0.5):
    """z/f = (1 - z/p)(1 - s mu(p) p z + c z**k): its membership and
    criterion sups peak on |z| = 1, beyond the reach of the old disk grid."""
    h = np.zeros(k + 1)
    h[0], h[1], h[k] = 1.0, -s * mu(p) * p, c
    return from_inverse_coefficients(np.convolve(h, [1.0, -1.0 / p])[1:], pole=p)


@pytest.mark.parametrize("k", [40, 80, 120])
def test_membership_sees_a_supremum_the_disk_grid_misses(k):
    f = reproduction(0.8, k, 2e-4)
    z = DiskGrid(pole=0.5).points()
    verdict = up_lambda_membership(f, 1.0)
    assert np.max(np.abs(u_functional(f, z)) / np.abs(z) ** 2) < verdict.threshold
    assert not verdict.holds
    assert verdict.value > 1.01 * verdict.threshold


@pytest.mark.parametrize("k,c", [(40, 5e-6), (80, 2e-6), (120, 1e-6)])
def test_criterion_sees_a_supremum_the_disk_grid_misses(k, c):
    f = reproduction(0.4, k, c)
    z = DiskGrid(pole=0.5).points()
    verdict = univalence_criterion(f)
    second = TruncatedSeries(polyder(f.inv_series.coefficients, 2))
    assert np.max(np.abs(second.evaluate(z))) < verdict.threshold
    assert not verdict.holds
    assert verdict.value > 1.01 * verdict.threshold


def test_a_member_near_the_class_boundary_holds():
    # the first bound reads 1.0000188 lam mu, above every sample; the
    # maximum on a 2**20-point circle is 0.99980 lam mu
    f = reproduction(0.8, 40, 1.8655e-4)
    verdict = up_lambda_membership(f, 1.0)
    z = np.exp(2j * np.pi * np.arange(1 << 20) / (1 << 20))
    assert verdict.holds
    assert np.max(np.abs(u_functional(f, z))) <= verdict.value <= verdict.threshold


def test_a_criterion_near_its_threshold_holds():
    # the first bound reads 1.0000247 mu; the maximum on a 2**20-point
    # circle is 0.99980 mu
    f = reproduction(0.4, 40, 4.5868e-6)
    verdict = univalence_criterion(f)
    second = TruncatedSeries(polyder(f.inv_series.coefficients, 2))
    z = np.exp(2j * np.pi * np.arange(1 << 20) / (1 << 20))
    assert verdict.holds
    assert np.max(np.abs(second.evaluate(z))) <= verdict.value <= verdict.threshold


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_sups_match_dense_samples_on_the_unit_circle(p):
    f = perturbed_member(p, np.random.default_rng(int(100 * p)))
    z = np.exp(2j * np.pi * np.arange(1 << 14) / (1 << 14))
    for verdict, values in (
            (up_lambda_membership(f, 1.0), u_functional(f, z)),
            (univalence_criterion(f),
             TruncatedSeries(polyder(f.inv_series.coefficients, 2)).evaluate(z))):
        dense = float(np.max(np.abs(values)))
        assert dense <= verdict.value <= 1.0007 * dense


# --- circle bound ---

def one_row_sup(q, threshold):
    """Reference for ``_circle_sup``: its one-row rule before it took a
    stack, |Q| sampled by ``series._circle_values`` at the power of two at
    least 16 and 64 d, doubled until a sample exceeds the threshold or the
    bound clears it, or the samples reach ``_MAX_SAMPLES``."""
    d = int(np.flatnonzero(q)[-1]) if np.any(q) else -1
    if d < 0:
        return 0.0, None
    m = max(16, 1 << (64 * d - 1).bit_length())
    q = q[:d + 1].astype(np.complex128)
    while True:
        with np.errstate(all="ignore"):
            samples = np.abs(criteria._circle_values(q, 1.0, m))
        samples[np.isnan(samples)] = np.inf
        k = int(np.argmax(samples))
        bound = samples[k] / np.sqrt(1.0 - 0.5 * (np.pi * d / m) ** 2)
        if bound <= threshold or samples[k] > threshold or m >= criteria._MAX_SAMPLES:
            return float(bound), complex(np.exp(2j * np.pi * k / m))
        m *= 2


def fft_sizes(monkeypatch):
    """Record the (rows, samples) shape of every FFT that ``_circle_sup`` takes."""
    shapes = []
    sample = criteria._circle_values
    monkeypatch.setattr(criteria, "_circle_values",
                        lambda c, r, m: shapes.append((len(c), m)) or sample(c, r, m))
    return shapes


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_circle_sup_is_a_tight_upper_bound(degree, seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    fine = float(np.max(np.abs(np.fft.fft(q, 1 << 18))))
    [(bound, witness)] = _circle_sup(q[None], [(0, math.inf)])
    assert fine <= bound <= 1.0007 * fine
    assert abs(abs(witness) - 1.0) < 1e-15


def test_circle_sup_of_a_constant_is_exact():
    assert _circle_sup(np.array([[-0.25 + 0j, 0.0, 0.0]]), [(0, math.inf)]) == [(0.25, 1 + 0j)]


def test_circle_sup_of_zero_is_zero():
    assert _circle_sup(np.zeros((1, 3), dtype=np.complex128), [(0, math.inf)]) == [(0.0, None)]
    assert _circle_sup(np.zeros((1, 0), dtype=np.complex128), [(0, math.inf)]) == [(0.0, None)]
    assert _circle_sup(np.zeros((2, 3), dtype=np.complex128), [(0, 1.0), (0, 2.0)]) \
        == [(0.0, None), (0.0, None)]
    assert _circle_sup(np.zeros((2, 3), dtype=np.complex128), []) == []


def test_circle_sup_takes_one_fft_away_from_the_threshold(monkeypatch):
    q = np.array([[0.3, -0.2j, 0.1, 0.05]])
    [(bound, witness)] = _circle_sup(q, [(0, math.inf)])
    shapes = fft_sizes(monkeypatch)
    # a sample exceeds the first, the bound clears the second
    assert _circle_sup(q, [(0, 0.5 * bound), (0, bound)]) == [(bound, witness)] * 2
    assert shapes == [(1, 256)]


def test_circle_sup_refines_until_the_bound_clears_the_threshold():
    q = np.array([[1.0, 0.0, 0.0, 0.5]])
    [(bound, _)] = _circle_sup(q, [(0, math.inf)])
    assert bound > 1.5
    [(refined, witness)] = _circle_sup(q, [(0, 1.5)])
    assert 1.5 <= refined <= 1.5 * (1 + 1e-6)
    assert abs(witness - 1.0) < 1e-15


def test_circle_sup_stops_refining_at_the_cap():
    # |z**2 / 2| is 1/2 at every sample, so no doubling settles a threshold
    # just above 1/2
    [(bound, _)] = _circle_sup(np.array([[0.0, 0.0, 0.5]]), [(0, 0.5 + 1e-12)])
    assert bound == pytest.approx(
        0.5 / np.sqrt(1.0 - 0.5 * (2 * np.pi / criteria._MAX_SAMPLES) ** 2), rel=1e-15)
    assert bound > 0.5 + 1e-12


def test_circle_sup_reads_a_bound_beyond_the_float_range_as_inf():
    # the largest sample is finite, the Bernstein divisor below 1 lifts it past
    # the float range
    q = np.array([[1.797e308, 0.0, 1e300]])
    # z/f = 1 - 1.797e308 z**2 + 1e300 z**4 has U_f / z**2 = -q
    f = from_inverse_coefficients([0.0, -1.797e308, 0.0, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [(bound, witness)] = _circle_sup(q, [(0, math.inf)])
        certificate = aksentiev_criterion(f)
    assert bound == math.inf
    assert witness == 1 + 0j
    assert certificate.value == math.inf
    assert not certificate.holds


def test_circle_sup_settles_each_threshold_at_its_own_sample_count(monkeypatch):
    # the first bound of Q = 1 + z**3 / 2 clears inf; 1.5 needs doublings, and
    # the row of (z/f)''-like 3 z**3 leaves the FFT once its one threshold settles
    q = np.array([[1.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 3.0]])
    checks = [(0, math.inf), (0, 1.5), (1, 10.0)]
    want = [one_row_sup(q[row], t) for row, t in checks]
    shapes = fft_sizes(monkeypatch)
    got = _circle_sup(q, checks)
    assert got == want
    assert shapes[:2] == [(2, 256), (1, 512)]
    assert len(shapes) > 2 and all(rows == 1 for rows, _ in shapes[1:])
    assert got[0] != got[1]


def conjugate_fft_sup(q, threshold=math.inf):
    """Reference for ``_circle_sup``: the rule it followed before it sampled
    by ``series._circle_values``, |Q| as the modulus of the forward FFT of
    conj(q) at 1 sample for a constant and else at the power of two at
    least 64 d, doubled as ``_circle_sup`` doubles."""
    d = int(np.flatnonzero(q)[-1]) if np.any(q) else -1
    if d < 0:
        return 0.0, None
    m = 1 if d == 0 else 1 << (64 * d - 1).bit_length()
    while True:
        samples = np.abs(np.fft.fft(np.conj(q[:d + 1]).astype(np.complex128), m))
        k = int(np.argmax(samples))
        bound = samples[k] / np.sqrt(1.0 - 0.5 * (np.pi * d / m) ** 2)
        if bound <= threshold or samples[k] > threshold or m >= criteria._MAX_SAMPLES:
            return float(bound), complex(np.exp(2j * np.pi * k / m))
        m *= 2


def test_circle_sup_keeps_the_bits_of_the_conjugate_fft():
    rng = np.random.default_rng(41)
    for case in range(1000):
        degree = int(rng.integers(0, 81))
        q = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)) \
            * 10.0 ** rng.uniform(-3, 3)
        q[rng.random(degree + 1) < 0.2] = 0.0  # some zero coefficients, some trailing
        # the first bound clears the first threshold, the first samples exceed the second
        top = conjugate_fft_sup(q)[0]
        thresholds = [math.inf, 0.5 * top]
        if case % 16 == 0:
            # the samples of some doubling exceed the third; the fourth lies
            # above every sample, so only the cap at _MAX_SAMPLES stops it
            fine = float(np.max(np.abs(np.fft.fft(q, criteria._MAX_SAMPLES))))
            thresholds += [fine * (1 - 1e-9), fine * (1 + 1e-12)]
        row = _circle_sup(q[None], [(0, threshold) for threshold in thresholds])
        for threshold, got in zip(thresholds, row, strict=True):
            want = conjugate_fft_sup(q, threshold)
            assert got == want, (degree, threshold)
            assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()


def test_circle_sup_of_a_stack_keeps_the_bits_of_the_one_row_rule():
    # about 200 rows in stacks of 1 to 3 rows of one degree, each row with up
    # to four thresholds: ones the first FFT settles, ones that take doublings
    # and ones that run to the cap; each stack's (row, threshold) pairs come
    # in shuffled order, so the rows of a stack interleave
    rng, shuffle = np.random.default_rng(36), np.random.default_rng(38)
    stacks = []
    for case in range(100):
        degree, count = int(rng.integers(0, 65)), 1 + case % 3
        q = (rng.standard_normal((count, degree + 1))
             + 1j * rng.standard_normal((count, degree + 1))) * 10.0 ** rng.uniform(-3, 3)
        q[rng.random(q.shape) < 0.2] = 0.0
        q[:, degree] += 1.0  # every row keeps the degree
        q = np.pad(q, ((0, 0), (0, int(rng.integers(0, 3)))))  # trailing zeros
        if case == 7:
            q[1 % count, 0] = np.inf  # a coefficient beyond the float range
        checks = []
        for k, row in enumerate(q):
            top = one_row_sup(row, math.inf)[0]
            choices = [math.inf, 0.5 * top, top * (1 - 1e-5), top * (1 + 1e-14)]
            checks += [(k, choices[j]) for j in rng.permutation(4)[:rng.integers(0, 5)]]
        stacks.append((q, [checks[j] for j in shuffle.permutation(len(checks))]))
    # row 1, row 0, then row 1's pair again: a repeated pair has its own answer
    stacks.append((np.array([[1.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 3.0]]),
                   [(1, 10.0), (0, 1.5), (1, 10.0), (0, math.inf)]))
    assert sum(len(q) for q, _ in stacks) == 201
    assert sum(len({k for k, _ in checks}) > 1 and checks != sorted(checks, key=lambda c: c[0])
               for _, checks in stacks) > 10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q, checks in stacks:
            got = _circle_sup(q, checks)
            want = [one_row_sup(q[k], t) for k, t in checks]
            assert got == want
            assert [np.float64(b).tobytes() for b, _ in got] \
                == [np.float64(b).tobytes() for b, _ in want]


ROW_FUNCTIONS = [
    build_kp(0.5), build_fp(0.3, 0.7), build_koebe_rotation(1.0), from_inverse_coefficients([]),
    perturbed_member(0.4, np.random.default_rng(5)),
    perturbed_member(0.8, np.random.default_rng(6), scale=0.3, order=40),
    from_inverse_coefficients([0.0] * 63 + [-1e307], pole=1e-307 ** (1 / 64)),
    # z/f = (1 - 2z)(1 - 0.9z)(1 + 0.5z) has a Gronwall sum of 1.74, so ``check``
    # asks for no Aksent'ev verdict on it, but the verdict still matches
    from_inverse_coefficients(np.convolve(np.convolve([1.0, -2.0], [1.0, -0.9]),
                                          [1.0, 0.5])[1:], pole=0.5)]


@pytest.mark.parametrize("f,lam", [(f, None) for f in ROW_FUNCTIONS]
                         + [(f, 0.6) for f in ROW_FUNCTIONS if f.pole is not None])
@pytest.mark.parametrize("aksentiev", [False, True])
def test_row_verdicts_are_the_three_public_verdicts(f, lam, aksentiev, monkeypatch):
    # each statistic formed on its own, as the one-statistic checks once did
    b = f.inv_series.coefficients
    n = np.arange(2, b.size)
    with np.errstate(over="ignore"):
        u, second = (1 - n) * b[2:], n * (n - 1) * b[2:]
    shapes = fft_sizes(monkeypatch)
    member, certificate, crit = criteria._row_verdicts(f, lam, aksentiev)
    assert len({m for _, m in shapes}) == len(shapes)  # one FFT per sample count
    # a stack row takes an FFT only when a threshold rides on it
    sampled = (lam is not None or aksentiev) + (f.pole is not None)
    assert [k for k, _ in shapes[:1]] == ([sampled] if sampled and u.size else [])
    assert member == (None if lam is None else up_lambda_membership(f, lam))
    assert certificate == (aksentiev_criterion(f) if aksentiev else None)
    assert crit == (None if f.pole is None else univalence_criterion(f))
    monkeypatch.undo()
    for verdict, q, tol in ((member, u, criteria.SUP_TOL), (certificate, u, 0.0),
                            (crit, second, criteria.SUP_TOL)):
        if verdict is not None:
            want = one_row_sup(q, verdict.threshold + tol)
            assert (verdict.value, verdict.witness) == want
            assert np.float64(verdict.value).tobytes() == np.float64(want[0]).tobytes()


def test_circle_checks_read_a_z_over_f_beyond_the_float_range_as_inf(monkeypatch):
    # z/f = 1 - 1e307 z**64 vanishes at p = 1e-307**(1/64): U_f / z**2 and
    # (z/f)'' overflow, and the FFT meets inf * 0, which reads NaN
    p = 1e-307 ** (1 / 64)
    f = from_inverse_coefficients([0.0] * 63 + [-1e307], pole=p)
    sizes = []
    sample = criteria._circle_values
    monkeypatch.setattr(criteria, "_circle_values",
                        lambda c, r, m: sizes.append(m) or sample(c, r, m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdicts = [up_lambda_membership(f, 1.0), univalence_criterion(f), aksentiev_criterion(f)]
    for verdict in verdicts:
        assert verdict.value == math.inf
        assert not verdict.holds
    assert sizes == [4096] * 3  # each bound stands after its first FFT, of degree 62


# --- Aksentiev's criterion ---

@pytest.mark.parametrize("f,value", [
    (build_kp(0.5), 1.0), (build_kp(1e-13), 1.0), (build_fp(0.3, 0.7), 0.7 * mu(0.3)),
    (build_koebe_rotation(0.0), 1.0), (build_koebe_rotation(2.0), 1.0),
    (from_inverse_coefficients([]), 0.0)])
def test_aksentiev_is_exact_on_the_extremal_functions(f, value):
    verdict = aksentiev_criterion(f)
    assert verdict.holds
    assert verdict.value == value
    assert verdict.threshold == 1.0


def test_aksentiev_has_no_tolerance():
    # lam * mu(p) + SUP_TOL passes 1 for p near 1e-13, so membership's test
    # would let a function with sup |U_f / z**2| just above 1 through
    f = from_inverse_coefficients([-2.0, 1.0 + 1e-14])
    assert aksentiev_criterion(f).value > 1.0
    assert not aksentiev_criterion(f).holds


def test_aksentiev_rejects_the_scan_only_collision():
    # z/f = 1 + b3 z**3 with |b3| about 0.515: U_f / z**2 = -2 b3 z
    z = DiskGrid().points()
    z1, z2 = z[-64], z[-63]
    b3 = 1.0 / (z1 * z2 * (z1 + z2))
    verdict = aksentiev_criterion(from_inverse_coefficients([0.0, 0.0, b3]))
    assert not verdict.holds
    assert 1.0 < 2 * abs(b3) <= verdict.value < 1.04


def test_aksentiev_bounds_the_polynomial_that_membership_bounds():
    f = perturbed_member(0.4, np.random.default_rng(5))
    member, certificate = up_lambda_membership(f, 1.0), aksentiev_criterion(f)
    assert certificate.value == member.value
    assert certificate.holds


@given(st.integers(min_value=2, max_value=64), st.floats(min_value=1e-3, max_value=1.0),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_aksentiev_bound_lies_between_the_samples_and_the_coefficient_sum(order, scale, seed):
    # Obradovic-Ponnusamy's sum(n - 1) |b_n| bounds sup |U_f / z**2| from
    # above; the Bernstein factor of the circle bound is at most 1.000603
    rng = np.random.default_rng(seed)
    b = scale * (rng.standard_normal(order) + 1j * rng.standard_normal(order))
    verdict = aksentiev_criterion(from_inverse_coefficients(b))
    q = (1 - np.arange(2, order + 1)) * b[1:]
    fine = float(np.max(np.abs(np.fft.fft(q, 1 << 16))))
    assert fine <= verdict.value <= 1.001 * float(np.sum(np.abs(q)))


# --- univalence criterion ---

def test_criterion_passes_below_half_lambda():
    verdict = univalence_criterion(build_fp(0.5, 0.49))
    assert verdict.holds
    assert abs(verdict.value - 2 * 0.49 * mu(0.5)) < 1e-12


def test_criterion_fails_above_half_lambda():
    verdict = univalence_criterion(build_fp(0.5, 0.51))
    assert not verdict.holds
    assert verdict.value > verdict.threshold


def test_criterion_at_the_boundary_lambda():
    verdict = univalence_criterion(build_fp(0.5, 0.5))
    assert verdict.holds
    assert abs(verdict.value - verdict.threshold) < 1e-12


def test_kp_fails_the_criterion_despite_being_univalent():
    # (z/kp)'' is identically 2, far above mu(p) < 1
    verdict = univalence_criterion(build_kp(0.5))
    assert not verdict.holds
    assert abs(verdict.value - 2.0) < 1e-12


def test_criterion_fails_without_raising_on_a_second_zero_in_the_disk():
    # z/f = (1 - z/p)(1 - z/z0): z0 = 0.309375 sits on the default grid,
    # z0 = 0.7 lies beyond the pole; (z/f)'' = 2 / (p z0) is far above mu(p)
    for z0, p in ((0.99 * 10 / 32, 0.7), (0.7, 0.5)):
        f = from_inverse_coefficients([-(1.0 / z0 + 1.0 / p), 1.0 / (z0 * p)], pole=p)
        verdict = univalence_criterion(f)
        assert not verdict.holds
        assert abs(verdict.value - 2.0 / (p * z0)) < 1e-12


def test_criterion_is_trivial_for_first_order_inverse():
    f = from_inverse_coefficients([-(1.0 / 0.5)], pole=0.5)
    verdict = univalence_criterion(f)
    assert verdict.holds
    assert verdict.value == 0.0


def test_criterion_requires_a_pole():
    with pytest.raises(NoPole):
        univalence_criterion(build_koebe_rotation(1.0))


# --- injectivity ---

@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_extremal_functions_show_no_collision(p):
    assert injectivity_oracle(build_kp(p)).holds
    assert injectivity_oracle(build_fp(p, 1.0)).holds


def test_identity_map_floors_at_one():
    verdict = injectivity_oracle(from_inverse_coefficients([]))
    assert verdict.holds
    assert abs(verdict.value - 1.0) < 1e-9


def test_two_to_one_function_is_caught():
    # z / (1 + 5 z^2) collides on the locus z1 * z2 = 1/5
    verdict = injectivity_oracle(from_inverse_coefficients([0.0, 5.0]))
    assert not verdict.holds
    assert verdict.value < COLLISION_TOL
    assert abs(verdict.witness * verdict.witness_partner - 0.2) < 0.02


def test_single_point_grid_is_vacuously_injective():
    verdict = injectivity_oracle(from_inverse_coefficients([]),
                                 grid=DiskGrid(radial_count=1, angular_count=1))
    assert verdict.holds
    assert verdict.value == float("inf")
    assert verdict.witness is None


def reference_injectivity(f, grid=None, collision_tolerance=COLLISION_TOL):
    """The full O(M^2) pair scan that injectivity_oracle replaces.

    Rows are scanned in chunks of 256 grid points; within a chunk argmin
    takes the first minimiser and a later chunk wins only on a strictly
    smaller quotient, so ties go to the smallest (i, j).  A NaN quotient
    (two infinite images) makes argmin return it and drops its whole
    chunk, so cases with NaN are checked without this reference.
    """
    chunk = 256
    if grid is None:
        grid = DiskGrid(pole=f.pole)
    z = grid.points()
    if z.size < 2:
        return CriterionVerdict(holds=True, value=float("inf"),
                                threshold=collision_tolerance)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = z / f.inv_series.evaluate(z)
    index = np.arange(z.size)
    best = float("inf")
    best_i = best_j = 0
    for start in range(0, z.size, chunk):
        zi = z[start:start + chunk]
        wi = w[start:start + chunk]
        with np.errstate(divide="ignore", invalid="ignore"):
            dz = np.abs(zi[:, None] - z[None, :])
            dw = np.abs(wi[:, None] - w[None, :])
            mask = index[start:start + chunk, None] < index[None, :]
            quotients = np.where(mask, dw / dz, np.inf)
        flat = int(np.argmin(quotients))
        i, j = np.unravel_index(flat, quotients.shape)
        if quotients[i, j] < best:
            best = float(quotients[i, j])
            best_i, best_j = start + int(i), int(j)
    return CriterionVerdict(
        holds=best > collision_tolerance,
        value=best,
        threshold=collision_tolerance,
        witness=complex(z[best_i]),
        witness_partner=complex(z[best_j]),
    )


def assert_same_scan(f, grid=None):
    got = injectivity_oracle(f, grid)
    want = reference_injectivity(f, grid)
    assert (got.holds, got.value, got.witness, got.witness_partner) == \
        (want.holds, want.value, want.witness, want.witness_partner)
    assert got.threshold == want.threshold
    return got


def test_identity_map_tie_goes_to_the_first_grid_pair():
    # every quotient is exactly 1.0, so the witness pair is decided by the
    # tie rule alone: grid points 0 and 1
    grid = DiskGrid()
    verdict = assert_same_scan(from_inverse_coefficients([]), grid)
    assert verdict.value == 1.0
    z = grid.points()
    assert (verdict.witness, verdict.witness_partner) == (z[0], z[1])


def test_collision_matches_the_full_scan():
    verdict = assert_same_scan(from_inverse_coefficients([0.0, 5.0]))
    assert not verdict.holds


def test_image_at_infinity_counts_as_an_infinite_quotient():
    # z/f = 1 - z/0.495 vanishes at the grid point 0.495, where w = inf+nanj
    f = from_inverse_coefficients([-1.0 / 0.495])
    z = DiskGrid().points()
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(z / f.inv_series.evaluate(z)))
    verdict = assert_same_scan(f)
    assert math.isfinite(verdict.value)


def test_pair_of_images_at_infinity_counts_as_infinite():
    # z/f vanishes exactly at the grid points a and b, so w(a) - w(b) is NaN;
    # that pair counts as +inf like every other pair touching a or b
    grid = DiskGrid(radial_count=32, angular_count=8)
    a, b = grid.radii()[4], grid.radii()[7]
    f = from_inverse_coefficients([-(1.0 / a + 1.0 / b), 1.0 / (a * b)])
    z = grid.points()
    with np.errstate(divide="ignore", invalid="ignore"):
        w = z / f.inv_series.evaluate(z)
        assert np.sum(~np.isfinite(w)) == 2
        q = np.abs(w[:, None] - w[None, :]) / np.abs(z[:, None] - z[None, :])
    q[np.isnan(q) | ~np.triu(np.ones(q.shape, dtype=bool), 1)] = np.inf
    i, j = np.unravel_index(int(np.argmin(q)), q.shape)
    verdict = injectivity_oracle(f, grid)
    assert (verdict.value, verdict.witness, verdict.witness_partner) == \
        (q[i, j], z[i], z[j])


def test_all_pairs_infinite_reports_the_first_grid_point_twice():
    f = from_inverse_coefficients([-1.0 / 0.495])
    grid = DiskGrid(radius=0.495, radial_count=1, angular_count=2)
    verdict = assert_same_scan(f, grid)
    assert verdict.value == float("inf")
    assert verdict.witness == verdict.witness_partner == 0.495


@pytest.mark.parametrize("p", [0.02, 0.05, 0.2, 0.5, 0.8, 0.95])
def test_extremal_scans_match_the_full_scan(p):
    assert_same_scan(build_kp(p))
    assert_same_scan(build_fp(p, 1.0))


@pytest.mark.parametrize("p", [0.75, 0.85, 0.95])
def test_perturbed_scans_at_large_poles_match_the_full_scan(p):
    # large floors, where block pairs with touching image boxes are pruned
    # point by point
    rng = np.random.default_rng(int(100 * p))
    for _ in range(3):
        assert_same_scan(perturbed_member(p, rng))


@pytest.mark.parametrize("lam", [0.25, 0.5])
@pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.8, 0.95])
def test_criterion_pass_agrees_with_the_full_scan(p, lam):
    # check skips the scan on a criterion PASS; the scan must agree there
    f = build_fp(p, lam)
    assert univalence_criterion(f).holds
    assert assert_same_scan(f).holds


def test_floor_counts_a_nan_quotient_as_infinite():
    # (0, 1) is 0/0 and (2, 3) is (inf - inf)/1, both NaN, and (0, 3) is inf
    z = np.array([0.0, 0.0, 1.0, 2.0], dtype=np.complex128)
    w = np.array([1.0, 1.0, np.inf, np.inf], dtype=np.complex128)
    assert criteria._floor(z, w, np.array([0, 2, 0]), np.array([1, 3, 3])) == (math.inf, 0)
    # with w_2 = 4, (0, 2) has the one finite quotient, 3
    assert criteria._floor(z, np.array([1.0, 1.0, 4.0, np.inf]), np.array([0, 2, 0]),
                           np.array([1, 3, 2])) == (3.0, 2)


def test_floor_of_only_infinite_quotients_is_the_first_point_twice():
    z = np.array([0.0, 1.0, 2.0], dtype=np.complex128)
    w = np.array([np.inf, 1.0, np.inf], dtype=np.complex128)
    assert criteria._floor(z, w, np.array([2, 1]), np.array([1, 0])) == (math.inf, 0)
    assert criteria._floor(z, w, np.array([], dtype=int), np.array([], dtype=int)) == \
        (math.inf, 0)


def test_floor_breaks_a_tie_by_the_smaller_ordered_pair():
    # (9, 4) and (2, 7) both have quotient 2; the key is that of (2, 7)
    z = np.arange(10, dtype=np.complex128)
    w = 2.0 * z
    want = (2.0, 2 * 10 + 7)
    assert criteria._floor(z, w, np.array([9, 2]), np.array([4, 7])) == want
    assert criteria._floor(z, w, np.array([7, 4]), np.array([2, 9])) == want
    assert criteria._floor(z, w, np.array([2, 9]), np.array([7, 4])) == want


def test_floor_of_several_calls_does_not_depend_on_their_order():
    z = np.arange(10, dtype=np.complex128)
    w = 2.0 * z
    first = criteria._floor(z, w, np.array([9]), np.array([4]))
    second = criteria._floor(z, w, np.array([7]), np.array([2]))
    assert first[0] == second[0] == 2.0
    assert min(first, second) == min(second, first) == (2.0, 2 * 10 + 7)


def test_pruned_scan_forms_few_pairs():
    # 80,872 quotients of 2.0e6 grid pairs: 15,360 inside the 128 blocks and
    # 65,512 across them; block pruning alone would form 339,200
    verdict = injectivity_oracle(build_fp(0.9, 1.0))
    assert verdict.holds
    assert 0 < verdict.pairs < 150_000


@given(log_p=st.floats(min_value=math.log(0.02), max_value=math.log(0.98)),
       degree=st.integers(min_value=1, max_value=40),
       scale=st.floats(min_value=0.01, max_value=3.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       radial=st.integers(min_value=1, max_value=40),
       angular=st.integers(min_value=1, max_value=80),
       guarded=st.booleans())
@settings(max_examples=60, deadline=None)
def test_injectivity_scan_matches_the_full_scan(log_p, degree, scale, seed,
                                                 radial, angular, guarded):
    # z/f = (1 - z/p) h(z) with a random h of the given degree, h(0) = 1
    p = math.exp(log_p)
    rng = np.random.default_rng(seed)
    h = np.ones(degree + 1, dtype=np.complex128)
    h[1:] = scale * (rng.standard_normal(degree) + 1j * rng.standard_normal(degree))
    h[1:] /= np.arange(1, degree + 1)
    f = from_inverse_coefficients(np.convolve([1.0, -1.0 / p], h)[1:], pole=p)
    try:
        grid = DiskGrid(radial_count=radial, angular_count=angular,
                        pole=p if guarded else None)
    except BadParameter:
        assume(False)
    assert_same_scan(f, grid)


def test_verdict_fields_round_trip():
    v = CriterionVerdict(holds=True, value=0.5, threshold=1.0, witness=0.1 + 0.2j)
    assert v.holds and v.value == 0.5 and v.threshold == 1.0
    assert v.witness_partner is None
    assert v.pairs == 0
