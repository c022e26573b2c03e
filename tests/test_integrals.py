import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merobounds.errors import (
    BadParameter,
    BadRadius,
    RadiusBeyondPole,
)
from merobounds.bounds import check_quantities
from merobounds.functions import (
    ClassKind,
    ClassSpec,
    PoleFunction,
    build_fp,
    build_koebe_rotation,
    build_kp,
    from_csv_row,
    from_inverse_coefficients,
    f_over_z_series,
    mu,
    to_csv_row,
)
from merobounds.integrals import (
    _ROUTES,
    BoundQuantity,
    Method,
    QuadratureConfig,
    dirichlet_quadrature,
    dirichlet_series,
    l1_mean_quadrature,
    l1_mean_series,
    values,
)
from merobounds.series import TruncatedSeries, _circle_values, _exact_count, degree

ZF, F, FZ, L1 = (BoundQuantity.DIRICHLET_ZF, BoundQuantity.DIRICHLET_F,
                 BoundQuantity.DIRICHLET_F_OVER_Z, BoundQuantity.L1)


def one(f, quantity, r):
    """``values`` of one quantity at one radius, as (value, error) floats."""
    computed, errors = values(f, (quantity,), (r,))
    return float(computed[0, 0]), float(errors[0, 0])


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


def mp_f_over_z_sums(b, r, ratio):
    """S0 = sum |a_n|^2 r^(2n) and S1 = sum n |a_n|^2 r^(2n) at 50 digits over
    the f/z coefficients a_n of z/f = 1 + b_1 z + b_2 z^2 + ..., by its
    recurrence, summed while ratio^(2n), ratio = r / (smallest root modulus),
    stays above 1e-45."""
    terms = math.ceil(45 * math.log(10) / (-2 * math.log(ratio))) + 50
    with mp.workdps(50):
        b = [mp.mpc(complex(x)) for x in b]
        x = mp.mpf(r) ** 2
        a = [mp.mpc(1)]
        s0, s1 = mp.mpf(1), mp.mpf(0)
        for n in range(1, terms):
            a.append(-mp.fsum(b[k] * a[n - 1 - k] for k in range(min(n, len(b)))))
            term = abs(a[n]) ** 2 * x**n
            s0 += term
            s1 += n * term
        return s0, s1


# ---- dirichlet, series route ----------------------------------------------------

def test_identity_map_area():
    z = TruncatedSeries([0.0, 1.0])
    res = dirichlet_series(z, 0.7)
    assert res.value == pytest.approx(math.pi * 0.49, rel=1e-15)


def test_dirichlet_series_hand_value():
    # z/f of the extremal pole map at p = 0.5 evaluated at r = 1:
    # pi * (2.5^2 + 2) = 8.25 pi.
    f = build_kp(0.5)
    res = dirichlet_series(f.inv_series, 1.0)
    assert res.value == pytest.approx(8.25 * math.pi, rel=1e-14)
    # the z/f coefficients are exact, so no tail mass
    assert one(f, ZF, 1.0) == (res.value, 0.0)


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
    f = PoleFunction(TruncatedSeries([1.0, 0.5, 0.25]))
    for method in Method:
        assert values(f, (ZF, L1), (0.5, 1.0), method)[1].tolist() == [[0.0, 0.0], [0.0, 0.0]]
    # the f and f/z sums run until the remainder bound of their Stein sums is
    # at most 2^-52 of them; it stays positive, as the series goes on
    koebe, kp = build_koebe_rotation(0.0), build_kp(0.5)
    cases = ((FZ, koebe, 0.5,
              2 * math.pi * 0.25 * 2.25 / 0.75**4),  # 2 pi r^2 (r^2 + 2) / (1 - r^2)^4
             (F, koebe, 0.5,
              math.pi * 0.25 * (0.0625 + 1 + 1) / 0.75**4),  # pi r^2 (r^4 + 4r^2 + 1) / (1 - r^2)^4
             (FZ, kp, 0.25, closed_form_dirichlet_f_over_z(0.25, 0.5)),
             (F, kp, 0.25, closed_form_dirichlet_f(0.25, 0.5)))
    for quantity, f, r, want in cases:
        value, error = one(f, quantity, r)
        assert value == pytest.approx(want, rel=1e-14)
        assert 0.0 < error <= 2.0**-52 * value
    # f = z has f/z = 1 exactly: no tail
    assert one(from_inverse_coefficients([0.0]), F, 1.0)[1] == 0.0


def test_tail_estimate_survives_a_zero_last_coefficient():
    # z/f = 1 + z^2 stored at order 3, as a zero-padded CSV row stores it:
    # f/z = 1 - z^2 + z^4 - ..., so the Dirichlet integral of f/z is
    # pi sum 2k x^k = 2 pi x / (1 - x)^2 with x = r^4, and the sum goes on
    # past the zero coefficients, so its tail bound is not 0
    f = PoleFunction(TruncatedSeries([1, 0, 1, 0]))
    r = 0.9
    x = r**4
    value, error = one(f, FZ, r)
    assert value == pytest.approx(2 * math.pi * x / (1 - x) ** 2, rel=1e-14)
    assert 0.0 < error <= 2.0**-52 * value
    # with a pole: z/f = 1 - (z/p)^2 stores f/z = 1 + (z/p)^2 + (z/p)^4 + ...
    p, r = 0.5, 0.25
    f = PoleFunction(TruncatedSeries([1, 0, -1 / p**2, 0]), pole=p)
    assert f_over_z_series(f, 3).coefficients.tolist() == [1, 0, 4, 0]
    x = (r / p) ** 4
    value, error = one(f, FZ, r)
    assert value == pytest.approx(2 * math.pi * x / (1 - x) ** 2, rel=1e-14)
    assert 0.0 < error <= 2.0**-52 * value


def test_identity_map_at_order_zero_reports_no_tail():
    # f = z stored at order 0 (the CSV row ",0"): its f/z = 1 is exact, though
    # the last stored f/z coefficient is the constant 1
    f = from_inverse_coefficients([])
    errors = values(f, (F, FZ), (0.5, 1.0))[1]
    assert errors.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_tail_estimates_are_plain_floats():
    # values and errors are float arrays of one row per quantity and one
    # column per radius, whatever the type of the radii
    kp, koebe = build_kp(0.5), build_koebe_rotation(0.0)
    for f, radii in ((kp, (0.25, np.float64(0.25))), (koebe, np.array([0.5, 0.25]))):
        for quantities, method in (((FZ, F), Method.SERIES), ((ZF, L1), Method.SERIES),
                                   ((ZF, L1), Method.QUADRATURE)):
            for part in values(f, quantities, radii, method):
                assert part.dtype == np.float64 and part.shape == (2, 2)


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
    with pytest.raises(BadParameter):
        dirichlet_quadrature(lambda z: z, 0.7)


@pytest.mark.parametrize("p,r", [(0.5, 1.0), (0.5, 0.35), (0.2, 0.8), (0.8, 0.6)])
def test_quadrature_matches_series_for_polynomial_data(p, r):
    # the integrand is a polynomial, so the derived nodes integrate it exactly
    inv = build_kp(p).inv_series
    got = dirichlet_quadrature(inv, r).value
    want = dirichlet_series(inv, r).value
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("order", [256, 257, 300, 400])
def test_quadrature_routes_exact_at_high_order(order):
    # the default rules, m circle nodes for m the smallest power of two at
    # least max(16, d) for the area and max(16, d + 1) for the L1 mean, are
    # exact at every order; a fixed 256 nodes alias from 257 and 256 on
    rng = np.random.default_rng(order)
    b = (rng.normal(size=order) + 1j * rng.normal(size=order)) / np.arange(1, order + 1)
    f = from_inverse_coefficients(b)
    for r in (0.99, 1.0):
        assert dirichlet_quadrature(f.inv_series, r).value == pytest.approx(
            dirichlet_series(f.inv_series, r).value, rel=1e-8)
        assert l1_mean_quadrature(f, r).value == pytest.approx(
            l1_mean_series(f, r).value, rel=1e-10)


def _dense_coefficients(order, seed):
    """order + 1 random complex coefficients decaying as 1/n, none of them zero."""
    rng = np.random.default_rng(seed)
    return (rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)) / np.arange(1, order + 2)


@pytest.mark.parametrize("order", [1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128, 129])
@pytest.mark.parametrize("r", [0.5, 1.0])
def test_default_rules_are_exact_at_the_power_of_two_edges(order, r):
    # the area rule steps from m to 2m nodes past d = m, the L1 rule past
    # d + 1 = m; each side of every step is still exact
    c = _dense_coefficients(order, order)
    g = TruncatedSeries(c)
    assert dirichlet_quadrature(g, r).value == pytest.approx(
        dirichlet_series(g, r).value, rel=1e-12)
    f = from_inverse_coefficients(c[1:])
    assert l1_mean_quadrature(f, r).value == pytest.approx(
        l1_mean_series(f, r).value, rel=1e-12)


def test_angular_count_at_the_degree_is_tight():
    # |g'|^2 of a degree-33 g has angular degree 32: 33 angles integrate it,
    # 32 alias its e^(32 i theta) terms onto the mean
    g = TruncatedSeries(_dense_coefficients(33, 33))
    want = dirichlet_series(g, 1.0).value
    assert dirichlet_quadrature(g, 1.0, QuadratureConfig(64, 33)).value == pytest.approx(
        want, rel=1e-12)
    assert abs(dirichlet_quadrature(g, 1.0, QuadratureConfig(64, 32)).value - want) > 1e-6 * want


@pytest.mark.parametrize("n,count", [(1, 16), (2, 16), (16, 16), (17, 32), (33, 64),
                                     (64, 64), (65, 128), (257, 512), (1000, 1024)])
def test_exact_count_is_the_smallest_power_of_two_from_16(n, count):
    assert _exact_count(n) == count


def test_zero_padded_row_integrates_as_its_degree():
    # a CSV row padded with zero coefficients is sized by its last nonzero one
    kp = build_kp(0.5)
    row = to_csv_row(kp)
    padded = from_csv_row([row[0], "64", *row[2:], *["0.0"] * (2 * 62)])
    assert padded.inv_series.order == 64
    for r in (0.3, 0.5, 0.9, 1.0):
        assert dirichlet_quadrature(padded.inv_series, r).value == dirichlet_quadrature(
            kp.inv_series, r).value
        assert l1_mean_quadrature(padded, r).value == l1_mean_quadrature(kp, r).value


def _horner_circle(c, r, m):
    """Values by Horner at the nodes r e^(2 pi i k / m)."""
    theta = 2.0 * np.pi * np.arange(m) / m
    return TruncatedSeries(c).evaluate(r * np.exp(1j * theta))


@pytest.mark.parametrize("m", [16, 256])
@pytest.mark.parametrize("order", [1, 8, 64, 300, 2048])
def test_circle_values_match_horner(order, m):
    # m < order folds the coefficients modulo m, which samples the same
    # nodes, aliasing included.  Horner's nodes are rounded angles, whose
    # error a degree-N polynomial amplifies by about sum n |c_n|, so the
    # coefficients decay as the z/f data of the routes do.
    rng = np.random.default_rng(order + m)
    c = (rng.normal(size=(2, order + 1)) + 1j * rng.normal(size=(2, order + 1))) / np.arange(
        1, order + 2)
    for r in (0.05, 0.5, 0.9, 1.0):
        want = np.stack([_horner_circle(row, r, m) for row in c])
        got = _circle_values(c, r, m)
        assert got.shape == (2, m)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(_circle_values(c[0], r, m), got[0])


@pytest.mark.parametrize("r", [0.37, 0.9, 0.99])
def test_circle_values_scale_by_libm_powers(r):
    # r^n is libm's pow, so the samples are the same bits on every CPU; an
    # AVX-512 power differs from libm in about 30 of the first 600 powers
    # of each of these radii
    rng = np.random.default_rng(600)
    c = rng.normal(size=600) + 1j * rng.normal(size=600)
    want = np.fft.ifft(c * np.array([math.pow(r, n) for n in range(600)]), 1024, norm="forward")
    assert np.array_equal(_circle_values(c, r, 1024), want)


def test_coarse_config_samples_the_horner_nodes():
    # an explicit 16-angle rule on an order-64 g aliases; the FFT must alias
    # exactly as direct sampling of h = g - g(0) and z h' at the same nodes does
    rng = np.random.default_rng(64)
    c = (rng.normal(size=65) + 1j * rng.normal(size=65)) / np.arange(1, 66)
    g, r = TruncatedSeries(c), 0.9
    h = np.concatenate(([0.0], c[1:]))
    want = math.pi * np.mean(np.real(np.conj(_horner_circle(h, r, 16))
                                     * _horner_circle(np.arange(65) * h, r, 16)))
    got = dirichlet_quadrature(g, r, QuadratureConfig(8, 16)).value
    assert got == pytest.approx(want, rel=1e-13)
    # the rule is coarse enough to alias: it is not the series value
    assert abs(got - dirichlet_series(g, r).value) > 1e-6 * abs(got)


@pytest.mark.parametrize("r", [0.5, 1.0])
def test_quadrature_ignores_the_constant_term(r):
    # the area integrand drops g(0), so no size of it costs a bit
    c = _dense_coefficients(40, 40)
    c[0] = 1.0
    want = dirichlet_quadrature(TruncatedSeries(c), r).value
    for c0 in (1e8, -3e15 + 2e15j):
        c[0] = c0
        assert dirichlet_quadrature(TruncatedSeries(c), r).value == want
    with mp.workdps(50):
        exact = mp.pi * mp.fsum(n * abs(mp.mpc(c[n])) ** 2 * mp.mpf(r) ** (2 * n)
                                for n in range(1, 41))
        assert abs(want - exact) <= 2e-15 * exact


@pytest.mark.parametrize("d", [64, 257])
@pytest.mark.parametrize("r", [0.9, 1.0])
def test_quadrature_is_accurate_where_cross_terms_dominate(d, r):
    # g = z + eps z^d with eps^2 r^(2d - 2) = 1/d: the cross terms of
    # conj(h) z h' reach sqrt(d) times the area, the bound the rule's
    # conditioning rests on
    eps = math.sqrt(1.0 / d) / r ** (d - 1)
    c = np.zeros(d + 1)
    c[1], c[d] = 1.0, eps
    got = dirichlet_quadrature(TruncatedSeries(c), r).value
    with mp.workdps(50):
        R = mp.mpf(r)
        want = mp.pi * (R ** 2 + d * mp.mpf(eps) ** 2 * R ** (2 * d))
        assert abs(got - want) <= 2e-15 * want


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
    f = build_kp(0.5)
    g = f_over_z_series(f, 128)

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
    # the Stein sum, and the coefficient sum of f/z to an order past which
    # (r/p)^(2 order) lies below roundoff, against the closed form
    f = build_kp(p)
    want = closed_form_dirichlet_f_over_z(r, p)
    assert one(f, FZ, r)[0] == pytest.approx(want, rel=tol)
    assert dirichlet_series(f_over_z_series(f, order), r).value == pytest.approx(want, rel=tol)


@pytest.mark.parametrize("p,r", [(0.7, 0.3), (0.5, 0.2), (0.35, 0.15)])
def test_f_series_vs_closed_form(p, r):
    f = build_kp(p)
    got = one(f, F, r)[0]
    assert got == pytest.approx(closed_form_dirichlet_f(r, p), rel=1e-9)


@pytest.mark.parametrize("p", [0.02, 0.5, 0.8])
@pytest.mark.parametrize("ratio", [0.5, 0.99, 0.999])
def test_f_routes_agree_with_mpmath_on_kp(p, ratio):
    # a third route: kp's integrals are the closed forms, at 50 digits
    r = ratio * p
    with mp.workdps(50):
        P, R = mp.mpf(p), mp.mpf(r)
        lead = mp.pi * P * P * R * R / (1 - P * P) ** 2
        tail = -2 / (1 - R * R) ** 2
        want_fz = lead * (1 / (P * P - R * R) ** 2 + tail + P**4 / (1 - P * P * R * R) ** 2)
        want_f = lead * (P * P / (P * P - R * R) ** 2 + tail + P * P / (1 - P * P * R * R) ** 2)
    tol = 1e-14 / (1 - ratio)
    f = build_kp(p)
    assert abs(one(f, FZ, r)[0] - want_fz) <= tol * want_fz
    assert abs(one(f, F, r)[0] - want_f) <= tol * want_f


def test_f_routes_agree_with_mpmath_on_a_degree_8_z_over_f():
    rng = np.random.default_rng(8)
    b = rng.normal(size=8) + 1j * rng.normal(size=8)
    rho = np.min(np.abs(np.roots(np.concatenate(([1.0], b))[::-1])))
    r = 0.9 * rho
    s0, s1 = mp_f_over_z_sums(b, r, 0.9)
    f = from_inverse_coefficients(b)
    assert abs(one(f, FZ, r)[0] - mp.pi * s1) <= 1e-14 * mp.pi * s1
    want = mp.pi * mp.mpf(r) ** 2 * (s0 + s1)
    assert abs(one(f, F, r)[0] - want) <= 1e-14 * want


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: next to the pole of kp(0.5), the Stein sums of the f and f/z "
    "integrals lose 58% of the exact sum at r = 0.49999999999999994 and 1.2e-8 at "
    "r = 0.49999999, while the error row claims 2^-52 of the value"))
def test_f_routes_bound_their_error_next_to_the_pole_of_kp():
    # the exact sums over the stored z/f = (1 - z/p)(1 - z/q) at 60 digits: with
    # u = 1/p, v = 1/q and x = r^2, f/z = sum (u^(n+1) - v^(n+1))/(u - v) z^n, so
    # S0 = sum |a_n|^2 x^n and S1 = sum n |a_n|^2 x^n are three geometric series
    f = build_kp(0.5)
    b = f.inv_series.coefficients
    for r in (0.49999999999999994, 0.49999999):
        try:
            got, error = values(f, (F, FZ), (r,))
        except BadParameter:
            continue
        with mp.workdps(60):
            u, v = (1 / root for root in mp.polyroots([mp.mpc(complex(c)) for c in b[::-1]]))
            x = mp.mpf(r) ** 2
            terms = ((abs(u) ** 2, 1), (u * mp.conj(v), -2), (abs(v) ** 2, 1))
            s0 = mp.re(sum(k * w / (1 - w * x) for w, k in terms)) / abs(u - v) ** 2
            s1 = mp.re(sum(k * w * w * x / (1 - w * x) ** 2 for w, k in terms)) / abs(u - v) ** 2
            want = (mp.pi * x * (s0 + s1), mp.pi * s1)
        for value, bound, exact in zip(got[:, 0].tolist(), error[:, 0].tolist(), want):
            assert abs(value - exact) <= bound


def test_f_routes_refuse_a_second_root_of_z_over_f_inside_r():
    # z/f = (1 - z/0.1)(1 - z/0.5) declares its pole at 0.5, but its f/z
    # series diverges past 0.1
    b = np.convolve([1.0, -10.0], [1.0, -2.0])[1:]
    f = from_inverse_coefficients(b, pole=0.5)
    for quantity in (F, FZ):
        with pytest.raises(RadiusBeyondPole):
            values(f, (quantity,), (0.3,))
        with pytest.raises(RadiusBeyondPole):
            check_quantities(f, ClassSpec(ClassKind.SIGMA_P, p=0.5), (quantity,), (0.3,))
    s0, s1 = mp_f_over_z_sums(b, 0.05, 0.5)
    assert abs(one(f, FZ, 0.05)[0] - mp.pi * s1) <= 1e-14 * mp.pi * s1


def test_f_routes_name_the_diverging_radius_beside_one_that_settles_late():
    # z/f = (1 - z/0.8)(1 - z/0.5): at 0.79 the Stein sums overflow to NaN
    # long before those at 0.4999 settle; a NaN radius must not keep the
    # other from being tested (skipping on the NaN minimum of the norms of A
    # raised BadParameter naming 0.4999 instead)
    f = from_inverse_coefficients(np.convolve([1.0, -1.25], [1.0, -2.0])[1:], pole=0.8)
    for radii in ([0.4999, 0.79], [0.79, 0.4999]):
        with pytest.raises(RadiusBeyondPole) as info:
            values(f, (F,), radii)
        assert str(info.value) == (
            "radius 0.79 reaches a root of z/f, where the f/z series diverges")
    assert np.isfinite(one(f, F, 0.4999)).all()


def _stein_sums_testing_every_doubling(f, radii):
    """``integrals._stein_sums`` as it ran when every doubling ran the stop
    test as one array pass over the radii left."""
    radii = np.asarray(radii, dtype=np.float64)
    sums = np.zeros((len(radii), 2))
    tails = np.zeros((len(radii), 2))
    b = f.inv_series.coefficients
    d = degree(b)
    if d == 0 or not len(radii):
        sums[:, 0] = 1.0
        return sums, tails
    if not np.any(b.imag):
        b = b.real
    c = np.eye(d, k=-1, dtype=b.dtype)
    c[0] = -b[1 : d + 1]
    a = radii[:, None, None] * c
    p = np.zeros((len(radii), 2, d, d), dtype=b.dtype)
    p[:, 0, 0, 0] = 1.0
    left = np.arange(len(radii))
    terms = 1.0
    with np.errstate(all="ignore"):
        for _ in range(64):
            q = a[:, None] @ p @ a.conj().swapaxes(1, 2)[:, None]
            q[:, 1] += terms * q[:, 0]
            p += q
            a = a @ a
            terms *= 2.0
            norm_a = np.square(a.view(np.float64)).sum(axis=(1, 2))
            norm_p = np.sqrt(np.square(p.view(np.float64)).sum(axis=(2, 3)))
            s = norm_a / (1.0 - norm_a)
            bound = s[:, None] * norm_p
            bound[:, 1] += terms * (1.0 + s) * bound[:, 0]
            value = p[:, :, 0, 0].real
            done = (norm_a < 1.0) & (bound <= 2.0**-52 * value).all(axis=1)
            if done.any():
                sums[left[done]] = value[done]
                tails[left[done]] = bound[done]
                left, a, p = left[~done], a[~done], p[~done]
                if not len(left):
                    return sums, tails
    r = float(radii[left[0]])
    if r * np.max(np.abs(np.linalg.eigvals(c))) < 1.0 - 2.0**-26:
        raise BadParameter(f"the f/z coefficient sums at radius {r!r} do not settle in floats")
    raise RadiusBeyondPole(f"radius {r!r} reaches a root of z/f, where the f/z series diverges")


def _stein_cases(count):
    """``count`` seeded (f, radii) pairs: kp and fp with p up to 1 - 1e-5,
    random complex z/f up to degree 64, (1 - z/rho)^k for k up to 16, and
    z/f with a second root q inside the disk, each at up to 8 radii below the pole (below q on three cases
    in four), every third reversed."""
    rng = np.random.default_rng(2024)
    for n in range(count):
        kind = n % 4
        p = min(1.0 - 10.0 ** -rng.uniform(0.0, 5.0), 1.0 - 1e-5) if n % 8 else 1.0 - 1e-5
        top = p
        if kind == 0:
            f = build_kp(p)
        elif kind == 1:
            f = build_fp(p, rng.uniform(0.01, 1.0))
        elif kind == 2 and n % 40 == 6:  # a root of order k, whose sums may not settle
            rho = rng.uniform(0.5, 2.0)
            k = int(rng.integers(4, 17))
            f = from_inverse_coefficients([math.comb(k, j) * (-1.0 / rho) ** j
                                           for j in range(1, k + 1)], pole=None)
            top = min(rho, 1.0)
        elif kind == 2:  # a random tail, of degree up to 64 on one case in 25
            d = int(rng.integers(1, 65 if n % 100 == 2 else 9))
            rho = rng.uniform(0.5, 2.0)
            b = (rng.normal(size=d) + 1j * rng.normal(size=d)) * rho ** -np.arange(1.0, d + 1)
            f = from_inverse_coefficients(b / d, pole=None)
            top = 1.0
        else:  # a second root of z/f at q below the declared pole
            q = p * rng.uniform(0.05, 1.0)
            f = from_inverse_coefficients(np.convolve([1.0, -1.0 / p], [1.0, -1.0 / q])[1:],
                                          pole=p)
            top = p if n % 16 == 3 else q
        r = np.sort(top * np.concatenate((rng.uniform(0.0, 1.0, int(rng.integers(0, 7))),
                                          1.0 - 10.0 ** -rng.uniform(1.0, 6.0, 2))))
        r = r[(r > 0.0) & (r < p)]
        yield f, r[::-1] if n % 3 == 0 else r


def _outcome(kernel, f, radii):
    try:
        sums, tails = kernel(f, radii)
    except (BadParameter, RadiusBeyondPole) as exc:
        return type(exc), str(exc)
    return sums.tobytes(), tails.tobytes()


def test_stein_sums_keep_the_bits_of_testing_every_doubling():
    # no radius can pass the stop test while |A|_F^2 >= 2^-51, so testing
    # only on doublings where some radius lies below 2^-50 changes no sum,
    # no tail and no error
    from merobounds.integrals import _stein_sums

    raised = []
    for f, radii in _stein_cases(2000):
        want = _outcome(_stein_sums_testing_every_doubling, f, radii)
        assert _outcome(_stein_sums, f, radii) == want, (f.inv_series.coefficients, radii)
        raised += [want[0]] if isinstance(want[0], type) else []
    # sums that settle, and both errors, are all covered
    assert len(raised) < 400
    assert raised.count(RadiusBeyondPole) >= 100 and raised.count(BadParameter) >= 10


def test_f_route_close_to_a_large_pole_is_finite_without_warnings():
    # a truncated f/z series once overflowed here, giving NaN and 3 RuntimeWarnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = one(build_kp(0.8), F, 0.75)[0]
    assert not caught
    assert value == pytest.approx(closed_form_dirichlet_f(0.75, 0.8), rel=1e-12)


#: z/f = 1 + 1e200 z**2, whose squared coefficient leaves the float range.
_OVERFLOWING = from_inverse_coefficients([0.0, 1e200])


@pytest.mark.parametrize("route", [
    lambda f: values(f, (ZF,), np.array([0.1, 0.5])),
    lambda f: values(f, (ZF,), np.array([0.1, 0.5]), Method.QUADRATURE),
    lambda f: dirichlet_series(f.inv_series, 0.5),
    lambda f: dirichlet_quadrature(f.inv_series, 0.5),
    lambda f: values(f, (L1,), np.array([0.1, 0.5])),
    lambda f: values(f, (L1,), np.array([0.1, 0.5]), Method.QUADRATURE),
    lambda f: l1_mean_series(f, 0.5),
    lambda f: l1_mean_quadrature(f, 0.5),
    lambda f: check_quantities(f, ClassSpec(ClassKind.S), (ZF,), (0.5,)),
    lambda f: check_quantities(f, ClassSpec(ClassKind.S), (L1,), (0.5,)),
], ids=["values-DIRICHLET_ZF", "values-DIRICHLET_ZF-QUADRATURE", "dirichlet_series",
        "dirichlet_quadrature", "values-L1", "values-L1-QUADRATURE", "l1_mean_series",
        "l1_mean_quadrature", "check_quantities-DIRICHLET_ZF", "check_quantities-L1"])
def test_an_overflowing_route_refuses_without_warnings(route):
    # these returned inf with a RuntimeWarning instead of raising
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(BadParameter, match="exceeds the float range"):
            route(_OVERFLOWING)
    assert not caught


@pytest.mark.parametrize("route,quantity", [
    (lambda f, r: values(f, (ZF,), (r, 2 * r))[0][0, 0], "dirichlet"),
    (lambda f, r: dirichlet_series(f.inv_series, r).value, "dirichlet"),
    (lambda f, r: values(f, (L1,), (r, 2 * r))[0][0, 0], "l1"),
    (lambda f, r: l1_mean_series(f, r).value, "l1"),
], ids=["values-DIRICHLET_ZF", "dirichlet_series", "values-L1", "l1_mean_series"])
def test_a_large_coefficient_at_a_tiny_radius_sums_in_range(route, quantity):
    # the same z/f at r = 1e-100: 2 pi and 2, though |b_2|**2 and r**4 each
    # leave the float range; these raised BadParameter
    r = 1e-100
    with mp.workdps(50):
        term = mp.mpf(1e200) ** 2 * mp.mpf(r) ** 4
        want = float(2 * mp.pi * term if quantity == "dirichlet" else 1 + term)
    assert want == pytest.approx(2 * math.pi if quantity == "dirichlet" else 2.0, rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert route(_OVERFLOWING, r) == pytest.approx(want, rel=4e-16)


def test_f_route_values_over_no_radius_are_empty():
    for part in values(build_kp(0.5), (F, FZ), []):
        assert part.shape == (2, 0)


def test_f_routes_reject_radius_at_or_beyond_pole():
    f = build_kp(0.5)
    for r in (0.5, 0.6, 0.99):
        for quantity in (FZ, F):
            with pytest.raises(RadiusBeyondPole, match=f"radius {r!r} reaches"):
                values(f, (quantity,), np.array([0.25, r]))


@pytest.mark.parametrize("quantity", [F, FZ], ids=lambda q: q.value)
def test_f_routes_of_a_pole_free_function_reject_radius_one(quantity):
    # the Koebe map's f and f/z integrals diverge as r -> 1
    f = build_koebe_rotation(0.0)
    with pytest.raises(BadRadius):
        one(f, quantity, 1.0)
    assert math.isfinite(one(f, quantity, 0.9)[0])


def test_f_series_identity_map_any_radius():
    # with no pole declared the full radius range is available; f = z has
    # Dirichlet integral pi r^2
    f = from_inverse_coefficients([0.0, 0.0])
    for r in (0.3, 0.9, 1.0):
        assert one(f, F, r)[0] == pytest.approx(math.pi * r * r, rel=1e-14)


@pytest.mark.parametrize("r", [0.3, 0.9, 1.0])
def test_order_zero_identity_map_sums_are_empty(r):
    # f = z stored at order 0: f/z = 1 has zero area and z/f = 1 mean 1
    f = from_inverse_coefficients([])
    assert one(f, FZ, r)[0] == 0.0
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
    # 16 angular nodes integrate the degree-2 trigonometric polynomial |z/f|^2 exactly
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
    assert one(f, L1, 1.0)[1] == 0.0
    g = from_inverse_coefficients([0.5, 0.25, 0.125])
    res = l1_mean_series(g, 0.5)
    assert res.value == 1 + 0.25 * 0.25 + 0.0625 * 0.0625 + 0.015625 * 0.015625
    assert values(g, (L1,), (0.5, 1.0))[1].tolist() == [[0.0, 0.0]]


def test_l1_radius_validation():
    f = build_kp(0.5)
    with pytest.raises(BadRadius):
        l1_mean_series(f, 0.0)
    with pytest.raises(BadRadius):
        l1_mean_quadrature(f, 1.2)


# ---- values: the one compute path ----------------------------------------------

#: kp, fp, Koebe and f = z stored at order 0, with radii inside every pole
MEMBERS = {"kp": build_kp(0.5), "fp": build_fp(0.5, 0.5), "koebe": build_koebe_rotation(0.0),
           "identity": from_inverse_coefficients([])}
RADII = (0.1, 0.25, 0.4)
STEIN_ROWS = {(Method.SERIES, F), (Method.SERIES, FZ)}


@pytest.mark.parametrize("member", MEMBERS)
@pytest.mark.parametrize("key", _ROUTES, ids=lambda key: f"{key[0].value}-{key[1].value}")
def test_values_of_each_route_are_the_same_alone_or_among_other_radii(key, member):
    method, quantity = key
    f = MEMBERS[member]
    computed, errors = values(f, (quantity,), RADII, method)
    for i, r in enumerate(RADII):
        alone = values(f, (quantity,), (r,), method)
        assert alone[0][0, 0] == computed[0, i] and alone[1][0, 0] == errors[0, i]
    if key in STEIN_ROWS and member != "identity":
        assert (0.0 < errors).all() and (errors <= 2.0**-52 * computed).all()
    else:
        assert (errors == 0.0).all()


@pytest.mark.parametrize("member", MEMBERS)
def test_values_of_the_two_routes_agree_within_the_verify_tolerances(member):
    f = MEMBERS[member]
    series = values(f, (ZF, L1), RADII)[0]
    quadrature = values(f, (ZF, L1), RADII, Method.QUADRATURE)[0]
    for row, tolerance in ((0, 1e-8), (1, 1e-10)):
        assert quadrature[row] == pytest.approx(series[row], rel=tolerance)


@pytest.mark.parametrize("quantity", [F, FZ], ids=lambda q: q.value)
def test_values_has_no_quadrature_route_for_the_f_integrals(quantity):
    with pytest.raises(BadParameter, match=f"no QUADRATURE route for {quantity.value}"):
        values(build_kp(0.5), (ZF, quantity), RADII, Method.QUADRATURE)


def test_values_runs_a_shared_route_once_per_call(monkeypatch):
    from merobounds import integrals

    calls = []
    stein_sums = integrals._stein_sums

    def counted(f, radii):
        calls.append(len(radii))
        return stein_sums(f, radii)

    monkeypatch.setattr(integrals, "_stein_sums", counted)
    f = build_kp(0.5)
    computed, errors = values(f, (F, ZF, FZ, F), RADII)
    assert calls == [len(RADII)]
    assert np.array_equal(computed[0], computed[3]) and np.array_equal(errors[0], errors[3])
    assert np.array_equal(computed[[0, 2]], values(f, (F, FZ), RADII)[0])


@pytest.mark.parametrize("quantity,bad,error,message", [
    (ZF, 1.5, BadRadius, "radius 1.5 outside (0, 1]"),
    (L1, 0.0, BadRadius, "radius 0.0 outside (0, 1]"),
    (F, 0.5, RadiusBeyondPole, "radius 0.5 reaches the pole at 0.5"),
    (FZ, 0.75, RadiusBeyondPole, "radius 0.75 reaches the pole at 0.5"),
], ids=lambda x: x.value if isinstance(x, BoundQuantity) else None)
def test_values_names_a_bad_radius_as_a_plain_float(quantity, bad, error, message):
    with pytest.raises(error) as info:
        values(build_kp(0.5), (quantity,), np.array([0.25, bad]))
    assert str(info.value) == message


def test_values_refuses_radii_that_are_not_one_dimensional():
    with pytest.raises(BadParameter, match="one-dimensional"):
        values(build_kp(0.5), (ZF,), np.array([[0.25, 0.5]]))
    with pytest.raises(BadParameter, match="one-dimensional"):
        values(build_kp(0.5), (ZF,), 0.5)
