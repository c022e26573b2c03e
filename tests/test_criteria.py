import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from merobounds.criteria import (
    COLLISION_TOL,
    CriterionVerdict,
    DiskGrid,
    _circle_sup,
    injectivity_oracle,
    u_functional,
    univalence_criterion,
    up_lambda_membership,
)
from merobounds.errors import BadParameter, NoPole
from merobounds.functions import (
    build_fp,
    build_koebe_rotation,
    build_kp,
    from_inverse_coefficients,
    mu,
)


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
    f = build_koebe_rotation(theta, order=8)
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
    G = F.reciprocal()
    dG = G.differentiate()
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
    assert np.max(np.abs(f.inv_series.differentiate().differentiate().evaluate(z))) < verdict.threshold
    assert not verdict.holds
    assert verdict.value > 1.01 * verdict.threshold


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_sups_match_dense_samples_on_the_unit_circle(p):
    f = perturbed_member(p, np.random.default_rng(int(100 * p)))
    z = np.exp(2j * np.pi * np.arange(1 << 14) / (1 << 14))
    for verdict, values in (
            (up_lambda_membership(f, 1.0), u_functional(f, z)),
            (univalence_criterion(f), f.inv_series.differentiate().differentiate().evaluate(z))):
        dense = float(np.max(np.abs(values)))
        assert dense <= verdict.value <= 1.0007 * dense


# --- circle bound ---

@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_circle_sup_is_a_tight_upper_bound(degree, seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    fine = float(np.max(np.abs(np.fft.fft(q, 1 << 18))))
    bound, witness = _circle_sup(q)
    assert fine <= bound <= 1.0007 * fine
    assert abs(abs(witness) - 1.0) < 1e-15


def test_circle_sup_of_a_constant_is_exact():
    assert _circle_sup(np.array([-0.25 + 0j, 0.0, 0.0])) == (0.25, 1 + 0j)


def test_circle_sup_of_zero_is_zero():
    assert _circle_sup(np.zeros(3, dtype=np.complex128)) == (0.0, None)
    assert _circle_sup(np.zeros(0, dtype=np.complex128)) == (0.0, None)


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


def test_pruned_scan_forms_few_pairs():
    # the single-level branch and bound formed 356,608 quotients here,
    # of 2.0e6 grid pairs; the point-to-block bound leaves about 98,000
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
