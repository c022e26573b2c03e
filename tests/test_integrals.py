import math

import numpy as np
import pytest

from merobounds.errors import (
    BadParameter,
    BadRadius,
    RadiusBeyondPole,
)
from merobounds.functions import (
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
    # polynomial data: stored tail coefficient is zero, so no tail mass
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
    c = [1.0, 0.5, 0.25]
    res = dirichlet_series(TruncatedSeries(c), 0.5)
    want = math.pi * 3 * 0.0625 * 0.5**6 / (1 - 0.25)
    assert res.truncation_tail_estimate == pytest.approx(want, rel=1e-14)
    # at r = 1 the geometric estimate diverges unless the tail is exactly zero
    assert dirichlet_series(TruncatedSeries(c), 1.0).truncation_tail_estimate == math.inf
    assert dirichlet_series(TruncatedSeries([1.0, 1.0, 0.0]), 1.0).truncation_tail_estimate == 0.0


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
    f = build_kp(0.5)       # polynomial z/f: zero stored tail
    assert l1_mean_series(f, 1.0).truncation_tail_estimate == 0.0
    g = from_inverse_coefficients([0.5, 0.25, 0.125])
    res = l1_mean_series(g, 0.5)
    assert res.truncation_tail_estimate == pytest.approx(
        0.125**2 * 0.5**8 / (1 - 0.25), rel=1e-14
    )
    assert l1_mean_series(g, 1.0).truncation_tail_estimate == math.inf


def test_l1_radius_validation():
    f = build_kp(0.5)
    with pytest.raises(BadRadius):
        l1_mean_series(f, 0.0)
    with pytest.raises(BadRadius):
        l1_mean_quadrature(f, 1.2)
