import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merobounds.errors import (
    BadParameter,
    BadRadius,
    RadiusBeyondPole,
)
from merobounds.functions import (
    PoleFunction,
    build_fp,
    build_koebe_rotation,
    build_kp,
    from_inverse_coefficients,
    f_over_z_series,
    mu,
)
from merobounds.integrals import (
    IntegralKind,
    Method,
    QuadratureConfig,
    dirichlet_f_over_z_series,
    dirichlet_f_series,
    dirichlet_quadrature,
    dirichlet_series,
    l1_mean_quadrature,
    l1_mean_series,
    _circle_values,
    _gauss_legendre,
)
from merobounds.series import TruncatedSeries


def closed_form_dirichlet_f_over_z(r, p):
    """Largest Dirichlet integral of f/z over the univalent pole class, 0 < r < p."""
    lead = math.pi * p * p * r * r / (1.0 - p * p) ** 2
    return lead * (
        1.0 / (p * p - r * r) ** 2
        - 2.0 / (1.0 - r * r) ** 2
        + p ** 4 / (1.0 - p * p * r * r) ** 2
    )


def closed_form_dirichlet_f(r, p):
    lead = math.pi * p * p * r * r / (1.0 - p * p) ** 2
    return lead * (
        p * p / (p * p - r * r) ** 2
        - 2.0 / (1.0 - r * r) ** 2
        + p * p / (1.0 - p * p * r * r) ** 2
    )


# ---- dirichlet, series route ----------------------------------------------------

def test_identity_map_area():
    z = TruncatedSeries([0.0, 1.0])
    res = dirichlet_series(z, 0.7)
    assert res.value == pytest.approx(math.pi * 0.49, rel=1e-15)
    assert res.method is Method.SERIES
    assert res.kind is IntegralKind.DIRICHLET


def test_dirichlet_series_hand_value():
    # z/f of the extremal pole map at p = 0.5 evaluated at r = 1:
    # pi * (2.5^2 + 2) = 8.25 pi.
    f = build_kp(0.5)
    res = dirichlet_series(f.inv_series, 1.0)
    assert res.value == pytest.approx(8.25 * math.pi, rel=1e-14)
    # the z/f coefficients are exact, so no tail mass
    assert res.truncation_tail_estimate == 0.0


def test_dirichlet_series_against_loop():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        r = float(rng.uniform(0.1, 1.0))
        want = math.pi * sum(k * abs(c[k]) ** 2 * r ** (2 * k) for k in range(1, n))
        got = dirichlet_series(TruncatedSeries(c), r).value
        assert got == pytest.approx(want, rel=1e-12)


def test_dirichlet_series_tail_estimate():
    # a coefficient sum over given data reports no tail, whatever its last term
    for r in (0.5, 1.0):
        res = dirichlet_series(TruncatedSeries([1.0, 0.5, 0.25]), r)
        assert res.truncation_tail_estimate == 0.0
    # the f/z route truncates: Koebe's f/z = 1/(1 - z)**2 = 1 + 2z + 3z**2 + ...
    # at order M = 2 gives pi |c_M|^2 r^(2M) (M x / (1 - x) + x / (1 - x)^2), x = r^2
    koebe = build_koebe_rotation(0.0, order=2)
    assert f_over_z_series(koebe).coefficients.tolist() == [1, 2, 3]
    x = 0.25
    want = math.pi * 9 * 0.5**4 * (2 * x / (1 - x) + x / (1 - x) ** 2)
    res = dirichlet_f_over_z_series(koebe, 0.5)
    assert res.truncation_tail_estimate == pytest.approx(want, rel=1e-14)
    # f = z (f/z) shifts every index up by one, so M = 3
    want = math.pi * 9 * 0.5**6 * (3 * x / (1 - x) + x / (1 - x) ** 2)
    assert dirichlet_f_series(koebe, 0.5).truncation_tail_estimate == pytest.approx(want, rel=1e-14)
    # with a pole x = (r/p)^2: kp's f/z = 1 + 2.5z + 5.25z**2 + ... at p = 0.5
    kp = build_kp(0.5, order=2)
    assert f_over_z_series(kp).coefficients.tolist() == [1, 2.5, 5.25]
    x = (0.25 / 0.5) ** 2
    want = math.pi * 5.25**2 * 0.25**4 * (2 * x / (1 - x) + x / (1 - x) ** 2)
    res = dirichlet_f_over_z_series(kp, 0.25)
    assert res.truncation_tail_estimate == pytest.approx(want, rel=1e-14)
    # f = z has f/z = 1 exactly at any positive order: zero last coefficient, no tail
    assert dirichlet_f_series(from_inverse_coefficients([0.0]), 1.0).truncation_tail_estimate == 0.0


def test_tail_estimate_survives_a_zero_last_coefficient():
    # z/f = 1 + z^2 at order 3: f/z = 1 - z^2 + z^4 - ... stores 1, 0, -1, 0.
    # The series goes on past the zero c_3, so the tail is not 0: the degree-2
    # recurrence carries c_2 forward one step, |c_3|^2 r^6 -> |c_2|^2 r^4 x with
    # x = r^2, and M = 3.
    f = PoleFunction(TruncatedSeries([1, 0, 1]), order=3)
    res = dirichlet_f_over_z_series(f, 0.9)
    assert res.value == pytest.approx(4.1224, rel=1e-4)
    x = 0.81
    assert res.truncation_tail_estimate == pytest.approx(
        math.pi * 0.9**4 * x * (3 * x / (1 - x) + x / (1 - x) ** 2), rel=1e-14)
    missing = dirichlet_f_over_z_series(PoleFunction(TruncatedSeries([1, 0, 1]), order=200), 0.9)
    assert missing.value == pytest.approx(34.8566, rel=1e-4)
    # every other term is zero, so the geometric estimate lies above the missing mass
    assert missing.value - res.value < res.truncation_tail_estimate < 2 * (missing.value - res.value)
    # with a pole the step back is carried by x = (r/p)^2: z/f = 1 - (z/p)^2 at
    # order 3 stores f/z = 1, 0, 1/p^2, 0
    p, r = 0.5, 0.25
    f = PoleFunction(TruncatedSeries([1, 0, -1 / p**2]), pole=p, order=3)
    assert f_over_z_series(f).coefficients.tolist() == [1, 0, 4, 0]
    x = (r / p) ** 2
    want = math.pi * 16 * r**4 * x * (3 * x / (1 - x) + x / (1 - x) ** 2)
    assert dirichlet_f_over_z_series(f, r).truncation_tail_estimate == pytest.approx(
        want, rel=1e-14)


@pytest.mark.parametrize("route, shift", [(dirichlet_f_over_z_series, 0), (dirichlet_f_series, 1)])
def test_tail_estimate_matches_the_mass_past_the_order_with_a_pole(route, shift):
    # kp's f/z coefficients grow by 1/p per index, so the terms past the order
    # grow by (r/p)^2 and carry the Dirichlet weight n: the estimate at order
    # 64 matches the mass that orders 65..364 add
    f, r = build_kp(0.5, order=64), 0.4
    longer = f_over_z_series(build_kp(0.5, order=364)).coefficients
    g = TruncatedSeries(np.concatenate((np.zeros(shift), longer)))
    mass = math.pi * g.weighted_coefficient_sum(1.0, r, start_index=65 + shift)
    assert route(f, r).truncation_tail_estimate == pytest.approx(mass, rel=1e-5)

def test_identity_map_at_order_zero_reports_no_tail():
    # f = z stored at order 0 (the CSV row ",0"): its f/z = 1 is exact, though
    # the last stored f/z coefficient is the constant 1
    f = from_inverse_coefficients([])
    for route, r in ((dirichlet_f_series, 1.0), (dirichlet_f_series, 0.5),
                     (dirichlet_f_over_z_series, 0.5)):
        tail = route(f, r).truncation_tail_estimate
        assert tail == 0.0
        assert type(tail) is float


def test_tail_estimates_are_plain_floats():
    kp, koebe = build_kp(0.5, order=2), build_koebe_rotation(0.0, order=2)
    results = (dirichlet_f_over_z_series(kp, 0.25), dirichlet_f_series(kp, np.float64(0.25)),
               dirichlet_f_over_z_series(koebe, 0.5), dirichlet_f_series(koebe, 0.5),
               dirichlet_series(kp.inv_series, 0.5), l1_mean_series(kp, 0.5))
    for res in results:
        assert type(res.truncation_tail_estimate) is float


def test_dirichlet_series_radius_validation():
    s = TruncatedSeries([0.0, 1.0])
    for bad in (0.0, -0.5, 1.01):
        with pytest.raises(BadRadius):
            dirichlet_series(s, bad)


def test_dirichlet_constant_is_zero():
    assert dirichlet_series(TruncatedSeries([4.0]), 0.5).value == 0.0
    assert dirichlet_quadrature(TruncatedSeries([4.0]), 0.5).value == 0.0


# ---- dirichlet, quadrature route --------------------------------------------------

def test_quadrature_identity_map():
    z = TruncatedSeries([0.0, 1.0])
    res = dirichlet_quadrature(z, 0.7)
    assert res.value == pytest.approx(math.pi * 0.49, rel=1e-13)
    assert res.truncation_tail_estimate is None
    with pytest.raises(BadParameter):
        dirichlet_quadrature(lambda z: z, 0.7)


@pytest.mark.parametrize("p,r", [(0.5, 1.0), (0.5, 0.35), (0.2, 0.8), (0.8, 0.6)])
def test_quadrature_matches_series_for_polynomial_data(p, r):
    # the integrand is a polynomial, so the derived nodes integrate it exactly
    inv = build_kp(p).inv_series
    got = dirichlet_quadrature(inv, r).value
    want = dirichlet_series(inv, r).value
    assert got == pytest.approx(want, rel=1e-12)


def test_gauss_legendre_nodes_are_cached_read_only_and_exact():
    x, w = _gauss_legendre(64)
    ref_x, ref_w = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    assert _gauss_legendre(64)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0


@pytest.mark.parametrize("order", [256, 257, 300, 400])
def test_quadrature_routes_exact_at_high_order(order):
    # max(64, N) x max(256, N) disk nodes and max(256, d + 1) circle nodes are
    # exact at every order; a fixed 64 x 256 and 256 alias from 257 and 256 on
    rng = np.random.default_rng(order)
    b = (rng.normal(size=order) + 1j * rng.normal(size=order)) / np.arange(1, order + 1)
    f = from_inverse_coefficients(b)
    for r in (0.99, 1.0):
        assert dirichlet_quadrature(f.inv_series, r).value == pytest.approx(
            dirichlet_series(f.inv_series, r).value, rel=1e-8)
        assert l1_mean_quadrature(f, r).value == pytest.approx(
            l1_mean_series(f, r).value, rel=1e-10)


def _horner_grid(c, rho, m):
    """Node values by Horner on the polar grid rho_j e^(2 pi i k / m)."""
    theta = 2.0 * np.pi * np.arange(m) / m
    return TruncatedSeries(c).evaluate(rho[:, None] * np.exp(1j * theta)[None, :])


@pytest.mark.parametrize("m", [16, 256])
@pytest.mark.parametrize("order", [1, 8, 64, 300, 2048])
def test_circle_values_match_horner(order, m):
    # m < order folds the coefficients modulo m, which samples the same
    # nodes, aliasing included.  Horner's nodes are rounded angles, whose
    # error a degree-N polynomial amplifies by about sum n |c_n|, so the
    # coefficients decay as the z/f data of the routes do.
    rng = np.random.default_rng(order + m)
    c = (rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)) / np.arange(1, order + 2)
    rho = np.array([0.05, 0.5, 0.9, 1.0])
    want = _horner_grid(c, rho, m)
    got = _circle_values(c, rho, m)
    assert got.shape == (4, m)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_coarse_config_samples_the_horner_nodes():
    # an explicit 8 x 16 rule on an order-64 g aliases; the FFT must alias
    # exactly as direct sampling of g' at the same nodes does
    rng = np.random.default_rng(64)
    c = (rng.normal(size=65) + 1j * rng.normal(size=65)) / np.arange(1, 66)
    g, r = TruncatedSeries(c), 0.9
    x, w = np.polynomial.legendre.leggauss(8)
    rho = 0.5 * r * (x + 1.0)
    sq = np.abs(_horner_grid(g.differentiate().coefficients, rho, 16)) ** 2
    want = 2.0 * np.pi * np.sum(0.5 * r * w * rho * sq.mean(axis=1))
    got = dirichlet_quadrature(g, r, QuadratureConfig(8, 16)).value
    assert got == pytest.approx(want, rel=1e-13)
    # the rule is coarse enough to alias: it is not the series value
    assert abs(got - dirichlet_series(g, r).value) > 1e-6 * abs(got)


@given(order=st.integers(min_value=1, max_value=300), seed=st.integers(0, 2**32 - 1),
       r=st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_quadrature_routes_agree_with_series_routes(order, seed, r):
    # the tolerances of the verify oracles suite
    rng = np.random.default_rng(seed)
    b = (rng.normal(size=order) + 1j * rng.normal(size=order)) / np.arange(1, order + 1)
    f = from_inverse_coefficients(b)
    assert dirichlet_quadrature(f.inv_series, r).value == pytest.approx(
        dirichlet_series(f.inv_series, r).value, rel=1e-8)
    assert l1_mean_quadrature(f, r).value == pytest.approx(l1_mean_series(f, r).value, rel=1e-10)


def test_quadrature_routes_do_not_evaluate_by_horner(monkeypatch):
    f = build_kp(0.5, order=128)
    g = f_over_z_series(f)

    def refuse(self, z):
        raise AssertionError("a quadrature route called TruncatedSeries.evaluate")

    monkeypatch.setattr(TruncatedSeries, "evaluate", refuse)
    dirichlet_quadrature(f.inv_series, 0.5)
    dirichlet_quadrature(g, 0.25)
    dirichlet_quadrature(g, 0.25, QuadratureConfig(8, 16))
    l1_mean_quadrature(f, 0.9)


def test_quadrature_config_validation():
    with pytest.raises(BadParameter):
        QuadratureConfig(radial_nodes=4)
    with pytest.raises(BadParameter):
        QuadratureConfig(angular_nodes=8)


@pytest.mark.parametrize("kwargs", [{"radial_nodes": 8.5}, {"radial_nodes": 64.0},
                                    {"angular_nodes": 256.0}])
def test_quadrature_config_counts_must_be_integers(kwargs):
    with pytest.raises(BadParameter, match="not an integer"):
        QuadratureConfig(**kwargs)


def test_quadrature_config_accepts_numpy_integers():
    config = QuadratureConfig(radial_nodes=np.int64(8), angular_nodes=np.int32(16))
    assert dirichlet_series(build_kp(0.5).inv_series, 0.5).value == pytest.approx(
        dirichlet_quadrature(build_kp(0.5).inv_series, 0.5, config).value, rel=1e-12)


# ---- dirichlet of f and f/z via coefficients ----------------------------------------

@pytest.mark.parametrize("p,r,order,tol", [(0.7, 0.3, 64, 1e-9), (0.6, 0.25, 96, 1e-9),
                                           (0.5, 0.25, 64, 1e-10), (0.6, 0.25, 96, 1e-10)])
def test_f_over_z_series_vs_closed_form(p, r, order, tol):
    f = build_kp(p, order=order)
    got = dirichlet_f_over_z_series(f, r).value
    assert got == pytest.approx(closed_form_dirichlet_f_over_z(r, p), rel=tol)


@pytest.mark.parametrize("p,r", [(0.7, 0.3), (0.5, 0.2), (0.35, 0.15)])
def test_f_series_vs_closed_form(p, r):
    f = build_kp(p, order=96)
    got = dirichlet_f_series(f, r).value
    assert got == pytest.approx(closed_form_dirichlet_f(r, p), rel=1e-9)


def test_f_routes_reject_radius_at_or_beyond_pole():
    f = build_kp(0.5)
    for r in (0.5, 0.6, 0.99):
        with pytest.raises(RadiusBeyondPole):
            dirichlet_f_over_z_series(f, r)
        with pytest.raises(RadiusBeyondPole):
            dirichlet_f_series(f, r)


@pytest.mark.parametrize("route", [dirichlet_f_series, dirichlet_f_over_z_series])
def test_f_routes_of_a_pole_free_function_reject_radius_one(route):
    # the Koebe map's f and f/z integrals diverge as r -> 1
    f = build_koebe_rotation(0.0)
    with pytest.raises(BadRadius):
        route(f, 1.0)
    assert math.isfinite(route(f, 0.9).value)


def test_f_series_identity_map_any_radius():
    # with no pole declared the full radius range is available; f = z has
    # Dirichlet integral pi r^2
    f = from_inverse_coefficients([0.0, 0.0])
    for r in (0.3, 0.9, 1.0):
        assert dirichlet_f_series(f, r).value == pytest.approx(math.pi * r * r, rel=1e-14)


@pytest.mark.parametrize("r", [0.3, 0.9, 1.0])
def test_order_zero_identity_map_sums_are_empty(r):
    # f = z stored at order 0: f/z = 1 has zero area and z/f = 1 mean 1
    f = from_inverse_coefficients([])
    assert dirichlet_f_over_z_series(f, r).value == 0.0
    assert l1_mean_series(f, r).value == 1.0


# ---- quadratic integral mean ----------------------------------------------------------

def test_l1_series_hand_values():
    f = build_kp(0.5)
    assert l1_mean_series(f, 1.0).value == pytest.approx(8.25, rel=1e-14)
    k = build_koebe_rotation(0.0)
    assert l1_mean_series(k, 0.5).value == pytest.approx(2.0625, rel=1e-14)


def test_l1_series_rotation_invariance():
    for theta in (0.0, math.pi / 3, math.pi):
        k = build_koebe_rotation(theta)
        assert l1_mean_series(k, 0.5).value == pytest.approx(2.0625, rel=1e-13)


def test_l1_fp_formula():
    p, lam, r = 0.5, 0.5, 1.0
    f = build_fp(p, lam)
    m = lam * mu(p)
    want = 1.0 + (1.0 / p + m * p) ** 2 + m * m
    assert l1_mean_series(f, r).value == pytest.approx(want, rel=1e-14)


def test_l1_quadrature_matches_series():
    # 256 angular nodes integrate the degree-64 trigonometric polynomial exactly
    for f in (build_kp(0.5), build_fp(0.35, 0.75), build_koebe_rotation(1.0)):
        for r in (0.3, 0.8, 1.0):
            got = l1_mean_quadrature(f, r).value
            want = l1_mean_series(f, r).value
            assert got == pytest.approx(want, rel=1e-12)


def test_l1_through_f_guards_pole_circle():
    # the z/f route needs no guard band on a circle next to the pole
    assert l1_mean_quadrature(build_kp(0.5), 0.505).value > 0


def test_l1_parseval_consistency_random_series():
    rng = np.random.default_rng(29)
    for _ in range(10):
        b = 0.3 * (rng.normal(size=32) + 1j * rng.normal(size=32)) / np.arange(2, 34)
        f = from_inverse_coefficients(list(b))
        r = float(rng.uniform(0.2, 1.0))
        assert l1_mean_quadrature(f, r).value == pytest.approx(
            l1_mean_series(f, r).value, rel=1e-12
        )


def test_l1_tail_estimate():
    # the z/f coefficients are exact, stored by a builder or given as data
    f = build_kp(0.5)
    assert f.inv_series.order == 2
    assert l1_mean_series(f, 1.0).truncation_tail_estimate == 0.0
    g = from_inverse_coefficients([0.5, 0.25, 0.125])
    res = l1_mean_series(g, 0.5)
    assert res.value == 1 + 0.25 * 0.25 + 0.0625 * 0.0625 + 0.015625 * 0.015625
    assert res.truncation_tail_estimate == 0.0
    assert l1_mean_series(g, 1.0).truncation_tail_estimate == 0.0


def test_l1_radius_validation():
    f = build_kp(0.5)
    with pytest.raises(BadRadius):
        l1_mean_series(f, 0.0)
    with pytest.raises(BadRadius):
        l1_mean_quadrature(f, 1.2)
