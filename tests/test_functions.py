import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merobounds.errors import BadParameter, PoleMismatch
from merobounds.functions import (
    NO_POLE,
    ClassKind,
    ClassSpec,
    PoleFunction,
    build_fp,
    build_koebe_rotation,
    build_kp,
    f_over_z_series,
    from_csv_row,
    from_inverse_coefficients,
    mu,
    to_csv_row,
)
from merobounds.series import TruncatedSeries


def jenkins_coefficient(n, p):
    """Closed form for the Taylor coefficients a_n of the extremal pole map."""
    return (1.0 - p ** (2 * n)) / ((1.0 - p * p) * p ** (n - 1))


# ---- mu ---------------------------------------------------------------------

def test_mu_values():
    assert mu(0.5) == pytest.approx(1.0 / 9.0, rel=1e-15)
    assert mu(0.2) == pytest.approx((0.8 / 1.2) ** 2, rel=1e-15)


def test_mu_domain():
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(BadParameter):
            mu(bad)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1 - 1e-6),
       st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_mu_range_and_monotonicity(p1, p2):
    m1, m2 = mu(p1), mu(p2)
    assert 0.0 < m1 < 1.0
    if p1 < p2:
        assert m1 > m2


# ---- canonical constructions --------------------------------------------------

def test_build_kp_coefficients():
    f = build_kp(0.5)
    c = f.inv_series.coefficients
    assert c[0] == 1.0
    assert c[1] == -2.5
    assert c[2] == 1.0
    assert len(c) == 3
    assert abs(f.inv_series.evaluate(0.5)) < 1e-14


def test_build_fp_coefficients():
    f = build_fp(0.5, 1.0)
    c = f.inv_series.coefficients
    assert c[1] == pytest.approx(-37.0 / 18.0, rel=1e-15)
    assert c[2] == pytest.approx(1.0 / 9.0, rel=1e-15)
    # lambda scales the z^2 coefficient linearly
    g = build_fp(0.5, 0.5)
    assert g.inv_series[2] == pytest.approx(1.0 / 18.0, rel=1e-15)


def test_build_fp_lambda_one_does_not_collapse_to_kp():
    f, k = build_fp(0.3, 1.0), build_kp(0.3)
    assert abs(f.inv_series[2]) < 1.0
    assert k.inv_series[2] == 1.0


@pytest.mark.parametrize("theta,b1", [(0.0, -2.0), (math.pi, 2.0)])
def test_build_koebe_rotation(theta, b1):
    f = build_koebe_rotation(theta)
    assert f.pole is NO_POLE
    assert f.inv_series[1] == pytest.approx(b1, abs=1e-15)
    assert abs(f.inv_series[2]) == pytest.approx(1.0, rel=1e-15)


def test_constructor_validation():
    for bad_p in (0.0, 1.0, -0.1, 1.7):
        with pytest.raises(BadParameter):
            build_kp(bad_p)
    with pytest.raises(BadParameter):
        build_fp(0.5, 0.0)
    with pytest.raises(BadParameter):
        build_fp(0.5, 1.2)
    with pytest.raises(BadParameter):
        build_koebe_rotation(math.inf)


BUILDERS = (lambda: build_kp(0.5), lambda: build_fp(0.5, 0.5), lambda: build_koebe_rotation(0.0))


@pytest.mark.parametrize("order", [2.5, 64.0, "8", None])
def test_order_must_be_an_integer(order):
    # f/z has no default order: its one caller names it
    for build in BUILDERS:
        with pytest.raises(BadParameter, match="not an integer"):
            f_over_z_series(build(), order)


def test_order_accepts_numpy_integers():
    assert f_over_z_series(build_kp(0.5), np.int64(2)).order == 2
    assert f_over_z_series(build_fp(0.5, 0.5), np.int32(16)).order == 16
    for build in BUILDERS:
        with pytest.raises(BadParameter, match="must be non-negative"):
            f_over_z_series(build(), np.int64(-1))


@pytest.mark.parametrize("order", [2, 3, 64, 512])
def test_builders_store_z_over_f_exactly_and_size_f_over_z_by_the_order(order):
    for build in BUILDERS:
        f = build()
        assert f.inv_series.order == 2
        assert not hasattr(f, "order")
        assert f_over_z_series(f, order).order == order


# ---- PoleFunction validation ---------------------------------------------------

def test_constant_term_must_be_one():
    with pytest.raises(BadParameter):
        PoleFunction(TruncatedSeries([0.99, -2.0, 1.0]), pole=None)


def test_pole_residual_check():
    # 1 - 2 z vanishes at 0.5, so that pole is accepted; 1 - z is not.
    ok = from_inverse_coefficients([-2.0], pole=0.5)
    assert ok.pole == 0.5
    with pytest.raises(PoleMismatch):
        from_inverse_coefficients([-1.0], pole=0.5)


@pytest.mark.parametrize("b", [[1e308] * 3, [-1e308] * 6])
def test_pole_residual_that_overflows_to_nan_is_refused(b):
    # z/f overflows on the way to the pole and reads nan+nanj there; a NaN
    # residual fails the tolerance as any other that does not meet it
    with pytest.raises(PoleMismatch, match="modulus nan"):
        from_inverse_coefficients(b, pole=0.9)


def test_pole_range_check():
    with pytest.raises(BadParameter):
        from_inverse_coefficients([-2.0], pole=1.5)


# ---- f/z reciprocal series ------------------------------------------------------

@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_f_over_z_matches_coefficient_closed_form(p):
    f = build_kp(p)
    d = f_over_z_series(f, 16)
    # entry n holds a_{n+1}; compare n = 0..12 against the closed form
    for n in range(13):
        want = jenkins_coefficient(n + 1, p)
        assert complex(d.coefficients[n]) == pytest.approx(want, rel=1e-10)


def test_f_over_z_identity_function():
    f = from_inverse_coefficients([0.0, 0.0, 0.0])
    d = f_over_z_series(f, 3)
    assert np.allclose(d.coefficients, [1.0, 0.0, 0.0, 0.0], atol=0)


def test_f_over_z_order_handling():
    # any order: the recurrence of z/f determines every coefficient
    f = build_kp(0.5)
    assert f_over_z_series(f, order=4).order == 4
    assert f_over_z_series(f, np.int64(0)).order == 0
    assert f_over_z_series(f, order=11).order == 11
    with pytest.raises(BadParameter):
        f_over_z_series(f, order=-1)


@pytest.mark.parametrize("order", [2.5, 4.0, "4"])
def test_f_over_z_order_must_be_an_integer(order):
    with pytest.raises(BadParameter, match="not an integer"):
        f_over_z_series(build_kp(0.5), order)


def test_f_over_z_lower_order_is_a_prefix_of_the_full_series():
    f = build_fp(0.6, 0.5)
    full = f_over_z_series(f, 64)
    part = f_over_z_series(f, 40)
    assert part.order == 40
    assert np.array_equal(part.coefficients, full.coefficients[:41])


def test_f_over_z_overflow_raises_on_every_call():
    # 1/p**n overflows before n = 450 at p = 0.2, refused without a warning
    f = build_kp(0.2)
    for _ in range(2):
        with pytest.raises(BadParameter):
            f_over_z_series(f, 450)


def test_f_over_z_roundtrip_scale_relative():
    # (z/f) * (f/z) = 1, checked relative to the convolution term size since
    # the reciprocal coefficients grow like p**(-n).
    for p in (0.2, 0.5, 0.8):
        f = build_kp(p)
        d = f_over_z_series(f, 64).coefficients
        zf = f.inv_series.coefficients
        prod = np.convolve(zf, d)[:65]
        unit = np.zeros(65, dtype=complex)
        unit[0] = 1.0
        scale = np.convolve(np.abs(zf), np.abs(d))[:65]
        rel = np.abs(prod - unit) / np.maximum(scale, 1.0)
        assert rel.max() <= 1e-12


def test_f_over_z_roundtrip_absolute_small_order():
    f = build_kp(0.6)
    prod = np.convolve(f.inv_series.coefficients, f_over_z_series(f, 10).coefficients)[:11]
    unit = np.zeros(11, dtype=complex)
    unit[0] = 1.0
    assert np.max(np.abs(prod - unit)) <= 1e-12


# ---- ClassSpec -------------------------------------------------------------------

def test_class_spec_happy_paths():
    ClassSpec(ClassKind.SIGMA_P, p=0.5)
    ClassSpec(ClassKind.U_P_LAMBDA, p=0.5, lam=1.0)
    ClassSpec(ClassKind.S)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind=ClassKind.SIGMA_P),                               # missing p
        dict(kind=ClassKind.SIGMA_P, p=1.2),                        # p out of range
        dict(kind=ClassKind.SIGMA_P, p=0.5, lam=0.5),               # stray lambda
        dict(kind=ClassKind.U_P_LAMBDA, p=0.5),                     # missing lambda
        dict(kind=ClassKind.U_P_LAMBDA, p=0.5, lam=0.0),            # lambda out of range
        dict(kind=ClassKind.U_P_LAMBDA, p=0.5, lam=1.5),
        dict(kind=ClassKind.S, p=0.5),                              # S has no pole
        dict(kind=ClassKind.SIGMA_P, p=float("nan")),               # NaN fails every bound
        dict(kind=ClassKind.U_P_LAMBDA, p=0.5, lam=float("nan")),
        dict(kind=ClassKind.SIGMA_P, p=0.0),                        # open-interval endpoints
        dict(kind=ClassKind.SIGMA_P, p=1.0),
        dict(kind=ClassKind.S, lam=0.5),                            # S has no lambda
    ],
)
def test_class_spec_rejects(kwargs):
    with pytest.raises(BadParameter):
        ClassSpec(**kwargs)


# ---- CSV row form ------------------------------------------------------------------

def test_csv_roundtrip_with_pole():
    # the row carries z/f at its stored order; reading it back stores all of
    # it, so the f/z series and the row itself come back unchanged
    f = build_fp(0.35, 0.75)
    row = to_csv_row(f)
    assert row[0] == repr(0.35)
    assert row[1] == "2"
    assert len(row) == 2 + 2 * 2
    g = from_csv_row(row)
    assert g.pole == f.pole
    assert np.array_equal(g.inv_series.coefficients, f.inv_series.coefficients)
    assert np.array_equal(f_over_z_series(g, 5).coefficients, f_over_z_series(f, 5).coefficients)
    assert to_csv_row(g) == row


def test_csv_roundtrip_with_a_numpy_pole():
    # a numpy pole and class parameters are stored as Python floats, so the
    # row of a function built from one reads back as the row of a float pole
    f = build_kp(np.float64(0.5))
    assert type(f.pole) is float
    row = to_csv_row(f)
    assert row == to_csv_row(build_kp(0.5))
    assert to_csv_row(from_csv_row(row)) == row
    spec = ClassSpec(ClassKind.U_P_LAMBDA, p=np.float64(0.5), lam=np.float64(0.25))
    assert type(spec.p) is float and type(spec.lam) is float
    assert spec == ClassSpec(ClassKind.U_P_LAMBDA, p=0.5, lam=0.25)


def test_csv_roundtrip_without_pole():
    f = build_koebe_rotation(math.pi / 3)
    row = to_csv_row(f)
    g = from_csv_row(row)
    assert g.pole is NO_POLE
    assert np.array_equal(g.inv_series.coefficients, f.inv_series.coefficients)
    assert np.array_equal(f_over_z_series(g, 4).coefficients, f_over_z_series(f, 4).coefficients)
    assert to_csv_row(g) == row


def test_csv_row_of_a_builder_is_written_at_its_degree():
    assert to_csv_row(build_kp(0.5)) == ["0.5", "2", "-2.5", "0.0", "1.0", "0.0"]
    # a zero-padded row is stored as given, so it writes back unchanged
    padded = ["0.5", "4", "-2.5", "0.0", "1.0", "0.0", "0.0", "0.0", "0.0", "0.0"]
    assert to_csv_row(from_csv_row(padded)) == padded


@pytest.mark.parametrize(
    "fields",
    [
        [],
        ["0.5"],
        ["0.5", "2", "1.0"],            # wrong coefficient count
        ["0.5", "x", "1.0", "0.0"],     # unparseable order
        ["oops", "1", "1.0", "0.0"],    # unparseable pole
    ],
)
def test_csv_rejects_malformed(fields):
    with pytest.raises(BadParameter):
        from_csv_row(fields)


def test_csv_roundtrip_keeps_every_bit():
    f = from_inverse_coefficients([complex(-0.0, 5e-324), complex(1.5e308, -1.5e308),
                                   complex(0.1, -0.0), complex(-2.5, 1e-310)])
    g = from_csv_row(to_csv_row(f))
    assert g.inv_series.coefficients.tobytes() == f.inv_series.coefficients.tobytes()
    assert g.inv_series.coefficients.dtype == np.complex128
    identity = from_csv_row(["", "0"])
    assert identity.inv_series.coefficients.tobytes() == np.array([1.0 + 0j]).tobytes()


@pytest.mark.parametrize("fields,message", [
    (["0.5", "2", "1.0", "x", "0", "0"],
     "unparseable function row: could not convert string to float: 'x'"),
    (["0.5", "2.0", "1.0", "0"], "unparseable function row: invalid literal for int() with "
                                 "base 10: '2.0'"),
    (["0.5", "2", "1.0"], "function row declares order 2 but carries 1 coefficient fields"),
    (["", "-1"], "function row declares order -1 but carries 0 coefficient fields"),
])
def test_csv_malformed_row_messages(fields, message):
    with pytest.raises(BadParameter) as err:
        from_csv_row(fields)
    assert str(err.value) == message


def test_csv_roundtrip_of_the_identity_map():
    f = from_inverse_coefficients([])
    row = to_csv_row(f)
    assert row == ["", "0"]
    g = from_csv_row(row)
    assert g.pole is NO_POLE
    assert np.array_equal(g.inv_series.coefficients, f.inv_series.coefficients)


def test_csv_order_zero_row_with_a_pole_is_a_pole_mismatch():
    # z/f = 1 has no root, so it cannot carry the declared pole
    with pytest.raises(PoleMismatch):
        from_csv_row(["0.5", "0"])
