import math

import numpy as np
import pytest

from merobounds.errors import (
    BadParameter,
    BadRadius,
    ClassMismatch,
    NoPole,
    RadiusBeyondPole,
)
from merobounds.functions import (
    ClassKind,
    ClassSpec,
    build_fp,
    build_koebe_rotation,
    build_kp,
    from_inverse_coefficients,
    mu,
)
from merobounds.integrals import dirichlet_f_over_z_series, dirichlet_f_series, dirichlet_series, l1_mean_series
from merobounds.bounds import (
    _SHARP_MAXIMA,
    BoundQuantity,
    build_report,
    check_bound,
    check_bounds,
    gronwall_check,
    jenkins_bound,
    lemma1_check,
    sharp_maximum,
)

P_GRID = (0.2, 0.35, 0.5, 0.65, 0.8)
R_GRID = tuple(k / 20 for k in range(1, 21))
LAMBDAS = (0.25, 0.5, 1.0)
ZF, F, FZ, L1 = (BoundQuantity.DIRICHLET_ZF, BoundQuantity.DIRICHLET_F,
                 BoundQuantity.DIRICHLET_F_OVER_Z, BoundQuantity.L1)
S = ClassSpec(ClassKind.S)


def sigma(p):
    return ClassSpec(ClassKind.SIGMA_P, p=p)


def residual(p, lam):
    return ClassSpec(ClassKind.U_P_LAMBDA, p=p, lam=lam)


# ---- jenkins coefficient bound -------------------------------------------------

def test_jenkins_closed_form_equals_geometric_sum():
    for n in (2, 3, 5, 9):
        for p in (0.3, 0.5, 0.85):
            geometric = sum(p ** (2 * k) for k in range(n)) / p ** (n - 1)
            assert jenkins_bound(n, p) == pytest.approx(geometric, rel=1e-14)


def test_jenkins_hand_value():
    assert jenkins_bound(2, 0.5) == pytest.approx(2.5, rel=1e-15)


def test_jenkins_approaches_analytic_class_bound():
    # as the pole leaves the disk the bound tends to the classical n
    assert jenkins_bound(2, 0.99) == pytest.approx(2.0, rel=0.02)


def test_jenkins_validation():
    with pytest.raises(BadParameter):
        jenkins_bound(1, 0.5)
    with pytest.raises(BadParameter):
        jenkins_bound(3, 1.0)


@pytest.mark.parametrize("n", [2.5, 2.0, "3"])
def test_jenkins_index_must_be_an_integer(n):
    with pytest.raises(BadParameter, match="not an integer"):
        jenkins_bound(n, 0.5)
    assert jenkins_bound(np.int64(2), 0.5) == jenkins_bound(2, 0.5)


@pytest.mark.parametrize("n", [442, 500])
def test_jenkins_refuses_bounds_beyond_the_float_range(n):
    # p**(n-1) is subnormal at n = 442 (the quotient overflows to inf) and
    # underflows to 0.0 at n = 500 (the quotient divides by zero)
    with pytest.raises(BadParameter, match="float range"):
        jenkins_bound(n, 0.2)


def test_jenkins_attained_by_extremal_coefficients():
    from merobounds.functions import f_over_z_series

    for p in (0.3, 0.5, 0.7):
        d = f_over_z_series(build_kp(p, order=14))
        for n in range(2, 13):
            assert abs(d[n - 1]) == pytest.approx(jenkins_bound(n, p), rel=1e-10)


# ---- area-theorem sum ------------------------------------------------------------

def test_gronwall_sharp_for_extremal_pole_map():
    for p in P_GRID:
        rep = gronwall_check(build_kp(p))
        assert rep.computed == pytest.approx(1.0, abs=1e-15)
        assert rep.satisfied and rep.sharp


def test_gronwall_sharp_for_koebe():
    rep = gronwall_check(build_koebe_rotation(math.pi / 5))
    assert rep.computed == pytest.approx(1.0, rel=1e-14)
    assert rep.sharp


def test_gronwall_violation_detected():
    rep = gronwall_check(from_inverse_coefficients([0.0, 1.2]))
    assert rep.computed == pytest.approx(1.44, rel=1e-15)
    assert not rep.satisfied
    assert not rep.sharp


def test_gronwall_short_series():
    rep = gronwall_check(from_inverse_coefficients([-2.0], pole=0.5))
    assert rep.computed == 0.0
    assert rep.satisfied


# ---- weighted tail inequality ------------------------------------------------------

@pytest.mark.parametrize("t", [-1.0, 0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_lemma_tail_equality_for_extremal_member(t, lam):
    f = build_fp(0.5, lam)
    for r in (0.25, 0.7, 1.0):
        rep = lemma1_check(f, lam, t, r)
        assert abs(rep.slack) <= 1e-12 * rep.bound
        assert rep.sharp


def test_lemma_tail_strict_for_thinner_member():
    lam = 0.8
    f = build_fp(0.5, 0.4)  # half the extremal z^2 coefficient
    rep = lemma1_check(f, lam, 1.0, 0.6)
    assert rep.satisfied
    assert rep.slack > 0
    assert not rep.sharp


def test_lemma_tail_validation():
    f = build_fp(0.5, 1.0)
    with pytest.raises(BadParameter):
        lemma1_check(f, 1.0, 2.5, 0.5)
    with pytest.raises(BadRadius):
        lemma1_check(f, 1.0, 1.0, 0.0)
    with pytest.raises(BadParameter):
        lemma1_check(f, 1.5, 1.0, 0.5)
    with pytest.raises(NoPole):
        lemma1_check(build_koebe_rotation(0.0), 1.0, 1.0, 0.5)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_lemma_tail_rejects_a_non_finite_exponent(t):
    with pytest.raises(BadParameter):
        lemma1_check(build_fp(0.5, 0.5), 0.5, t, 0.5)


# ---- closed-form maxima --------------------------------------------------------------

def test_zf_sigma_bound_hand_value():
    assert sharp_maximum(sigma(0.5), ZF, 1.0) == pytest.approx(8.25 * math.pi, rel=1e-15)


def test_zf_bounds_attained_by_extremal_functions():
    for p in P_GRID:
        kp = build_kp(p)
        fps = {lam: build_fp(p, lam) for lam in LAMBDAS}
        for r in R_GRID:
            got = dirichlet_series(kp.inv_series, r).value
            assert got == pytest.approx(sharp_maximum(sigma(p), ZF, r), rel=1e-12)
            for lam, fp in fps.items():
                got = dirichlet_series(fp.inv_series, r).value
                assert got == pytest.approx(sharp_maximum(residual(p, lam), ZF, r), rel=1e-12)


def test_up_lambda_bound_nested_inside_sigma_bound():
    for p in P_GRID:
        for lam in LAMBDAS:
            for r in R_GRID:
                margin = sharp_maximum(sigma(p), ZF, r) - sharp_maximum(residual(p, lam), ZF, r)
                assert margin > 1e-12


def test_f_route_maxima_attained():
    for p in (0.35, 0.6, 0.8):
        f = build_kp(p, order=128)
        for frac in (0.1, 0.5, 0.8):
            r = frac * p
            assert dirichlet_f_over_z_series(f, r).value == pytest.approx(
                sharp_maximum(sigma(p), FZ, r), rel=1e-8
            )
            assert dirichlet_f_series(f, r).value == pytest.approx(
                sharp_maximum(sigma(p), F, r), rel=1e-8
            )


def test_f_route_maxima_reject_radius_beyond_pole():
    with pytest.raises(RadiusBeyondPole):
        sharp_maximum(sigma(0.5), FZ, 0.5)
    with pytest.raises(RadiusBeyondPole):
        sharp_maximum(sigma(0.5), F, 0.7)


def test_large_pole_limits_match_analytic_class():
    # as p -> 1 the pole-class forms collapse to the analytic-class ones
    p, r = 0.999, 0.5
    assert sharp_maximum(sigma(p), ZF, r) == pytest.approx(sharp_maximum(S, ZF, r), rel=2e-3)
    assert sharp_maximum(sigma(p), FZ, r) == pytest.approx(
        sharp_maximum(S, FZ, r), rel=1e-2
    )
    assert sharp_maximum(sigma(p), F, r) == pytest.approx(sharp_maximum(S, F, r), rel=1e-2)


def test_koebe_attains_analytic_class_zf_bound():
    k = build_koebe_rotation(math.pi / 7)
    for r in (0.3, 0.75, 1.0):
        got = dirichlet_series(k.inv_series, r).value
        assert got == pytest.approx(sharp_maximum(S, ZF, r), rel=1e-13)


# ---- integral-mean bounds --------------------------------------------------------------

def test_l1_bound_dispatch():
    r = 0.5
    sigma = ClassSpec(ClassKind.SIGMA_P, p=0.5)
    want_sigma = 1.0 + 6.25 * 0.25 + 0.0625
    assert sharp_maximum(sigma, L1, r) == pytest.approx(want_sigma, rel=1e-15)
    assert sharp_maximum(ClassSpec(ClassKind.S), L1, r) == pytest.approx(2.0625, rel=1e-15)
    u = ClassSpec(ClassKind.U_P_LAMBDA, p=0.5, lam=0.5)
    m = 0.5 * mu(0.5)
    assert sharp_maximum(u, L1, r) == pytest.approx(1 + (2 + 0.5 * m) ** 2 * 0.25 + m * m * 0.0625, rel=1e-14)


def test_l1_bounds_attained():
    for p in P_GRID:
        spec = ClassSpec(ClassKind.SIGMA_P, p=p)
        f = build_kp(p)
        for r in (0.3, 0.8, 1.0):
            assert l1_mean_series(f, r).value == pytest.approx(sharp_maximum(spec, L1, r), rel=1e-13)
    for lam in LAMBDAS:
        spec = ClassSpec(ClassKind.U_P_LAMBDA, p=0.35, lam=lam)
        f = build_fp(0.35, lam)
        for r in (0.3, 0.8, 1.0):
            assert l1_mean_series(f, r).value == pytest.approx(sharp_maximum(spec, L1, r), rel=1e-13)


# ---- report semantics --------------------------------------------------------------------

def test_report_slack_and_flags():
    rep = build_report("X", computed=1.0, bound=2.0, r=0.5)
    assert rep.slack == 1.0 and rep.satisfied and not rep.sharp
    rep = build_report("X", computed=2.0, bound=2.0, r=0.5)
    assert rep.satisfied and rep.sharp
    rep = build_report("X", computed=2.1, bound=2.0, r=0.5)
    assert not rep.satisfied and not rep.sharp


def test_sharp_implies_satisfied_even_for_large_bounds():
    # a big bound widens the relative sharpness window; the satisfied flag
    # must still gate it
    rep = build_report("X", computed=1e6 + 1e-4, bound=1e6, r=0.5)
    assert not rep.satisfied
    assert not rep.sharp


def test_report_random_invariants():
    rng = np.random.default_rng(41)
    for _ in range(200):
        bound = float(rng.uniform(0.1, 100.0))
        computed = bound + float(rng.normal(scale=1e-6))
        rep = build_report("X", computed, bound, r=0.5)
        if rep.sharp:
            assert rep.satisfied
        if rep.slack >= 0:
            assert rep.satisfied


# ---- dispatching check ----------------------------------------------------------------------

def test_check_bound_sharp_cases():
    rep = check_bound(build_kp(0.5), ClassSpec(ClassKind.SIGMA_P, p=0.5),
                      BoundQuantity.DIRICHLET_ZF, 1.0)
    assert rep.sharp
    assert rep.computed == pytest.approx(8.25 * math.pi, rel=1e-14)
    rep = check_bound(build_fp(0.5, 0.5), ClassSpec(ClassKind.U_P_LAMBDA, p=0.5, lam=0.5),
                      BoundQuantity.L1, 0.8)
    assert rep.sharp


def test_check_bound_detects_violation():
    # the pole-class extremal function lies outside the residual class, and
    # its Dirichlet integral overshoots that class's bound
    rep = check_bound(build_kp(0.5), ClassSpec(ClassKind.U_P_LAMBDA, p=0.5, lam=1.0),
                      BoundQuantity.DIRICHLET_ZF, 0.9)
    assert not rep.satisfied


def test_check_bound_koebe_analytic_class():
    rep = check_bound(build_koebe_rotation(0.0), ClassSpec(ClassKind.S), BoundQuantity.L1, 0.5)
    assert rep.sharp
    assert rep.bound == pytest.approx(2.0625, rel=1e-15)


def test_check_bound_class_mismatch():
    with pytest.raises(ClassMismatch):
        check_bound(build_kp(0.5), ClassSpec(ClassKind.SIGMA_P, p=0.6),
                    BoundQuantity.DIRICHLET_ZF, 0.5)
    with pytest.raises(ClassMismatch):
        check_bound(build_kp(0.5), ClassSpec(ClassKind.S), BoundQuantity.L1, 0.5)
    with pytest.raises(ClassMismatch):
        check_bound(build_koebe_rotation(0.0), ClassSpec(ClassKind.SIGMA_P, p=0.5),
                    BoundQuantity.L1, 0.5)


# each class's extremal function, at order 128 so that the f and f/z series
# are exact to roundoff at the radii below
EXTREMALS = {
    ClassKind.SIGMA_P: (ClassSpec(ClassKind.SIGMA_P, p=0.5), build_kp(0.5, order=128)),
    ClassKind.U_P_LAMBDA: (ClassSpec(ClassKind.U_P_LAMBDA, p=0.5, lam=0.5),
                           build_fp(0.5, 0.5, order=128)),
    ClassKind.S: (ClassSpec(ClassKind.S), build_koebe_rotation(0.0, order=128)),
}
F_ROUTES = (BoundQuantity.DIRICHLET_F, BoundQuantity.DIRICHLET_F_OVER_Z)

SERIES_ROUTES = {
    BoundQuantity.DIRICHLET_ZF: lambda f, r: dirichlet_series(f.inv_series, r),
    BoundQuantity.DIRICHLET_F: dirichlet_f_series,
    BoundQuantity.DIRICHLET_F_OVER_Z: dirichlet_f_over_z_series,
    BoundQuantity.L1: l1_mean_series,
}


def test_check_bound_reports_sharp_for_every_dispatch_pair():
    assert set(_SHARP_MAXIMA) == (
        {(kind, q) for kind in (ClassKind.SIGMA_P, ClassKind.S) for q in BoundQuantity}
        | {(ClassKind.U_P_LAMBDA, BoundQuantity.DIRICHLET_ZF),
           (ClassKind.U_P_LAMBDA, BoundQuantity.L1)})
    for kind, quantity in _SHARP_MAXIMA:
        spec, f = EXTREMALS[kind]
        radii = (0.1, 0.25, 0.4) if kind is not ClassKind.S else (0.25, 0.5)
        for r in radii:
            rep = check_bound(f, spec, quantity, r)
            assert rep.quantity == quantity.value and rep.class_spec == spec
            assert sharp_maximum(spec, quantity, r) == rep.bound
            assert rep.computed == SERIES_ROUTES[quantity](f, r).value
            assert rep.sharp, (kind, quantity, r, rep)
        # the radius-array path equals the one-radius path field for field
        reports = check_bounds(f, spec, quantity, radii)
        assert reports == [check_bound(f, spec, quantity, r) for r in radii]
        assert all(type(rep.computed) is float for rep in reports)
        assert [rep.r for rep in reports] == list(radii)
        assert check_bounds(f, spec, quantity, ()) == []


@pytest.mark.parametrize("where", [0, 1, 2])
def test_check_bounds_refuses_a_bad_radius_anywhere_as_check_bound_does(where):
    for kind, quantity in _SHARP_MAXIMA:
        spec, f = EXTREMALS[kind]
        bads = [0.0, 1.5, float("nan")]
        if quantity in F_ROUTES:
            bads.append(1.0 if kind is ClassKind.S else 0.5)
        for bad in bads:
            radii = [0.1, 0.2, 0.3]
            radii[where] = bad
            with pytest.raises(BadParameter) as single:
                check_bound(f, spec, quantity, bad)
            with pytest.raises(BadParameter) as several:
                check_bounds(f, spec, quantity, radii)
            assert type(several.value) is type(single.value), (kind, quantity, radii)


def test_check_bound_has_no_f_route_bound_for_the_residual_class():
    spec, f = EXTREMALS[ClassKind.U_P_LAMBDA]
    for quantity in F_ROUTES:
        for r in (0.2, 0.75):
            with pytest.raises(BadParameter) as info:
                check_bound(f, spec, quantity, r)
            assert not isinstance(info.value, RadiusBeyondPole)
            with pytest.raises(BadParameter) as info:
                sharp_maximum(spec, quantity, r)
            assert not isinstance(info.value, RadiusBeyondPole)


def test_every_public_name_resolves():
    import merobounds

    assert "sharp_maximum" in merobounds.__all__
    for name in merobounds.__all__:
        assert hasattr(merobounds, name), name


def test_check_bound_f_routes_refuse_radii_beyond_the_pole():
    spec, f = EXTREMALS[ClassKind.SIGMA_P]
    for quantity in F_ROUTES:
        for r in (0.5, 0.75, 1.0):
            with pytest.raises(RadiusBeyondPole):
                check_bound(f, spec, quantity, r)


# ---- sharp_maximum: one radius check per quantity, and no non-finite value ----

SPECS = {kind: spec for kind, (spec, _) in EXTREMALS.items()}


@pytest.mark.parametrize("key", sorted(_SHARP_MAXIMA, key=lambda k: (k[0].value, k[1].value)),
                         ids=lambda k: f"{k[0].value}-{k[1].value}")
def test_sharp_maximum_validates_the_radius(key):
    kind, quantity = key
    spec = SPECS[kind]
    for r in (math.nan, 0.0, -0.1, 1.5):
        with pytest.raises(BadRadius):
            sharp_maximum(spec, quantity, r)
    if quantity in F_ROUTES and kind is ClassKind.S:
        with pytest.raises(BadRadius):
            sharp_maximum(spec, quantity, 1.0)
    elif quantity in F_ROUTES:
        for r in (spec.p, 0.9):
            with pytest.raises(RadiusBeyondPole):
                sharp_maximum(spec, quantity, r)
    else:
        assert math.isfinite(sharp_maximum(spec, quantity, 1.0))


def test_sharp_maximum_refuses_a_pair_before_checking_the_radius():
    spec = SPECS[ClassKind.U_P_LAMBDA]
    for quantity in F_ROUTES:
        for r in (0.2, 0.75, math.nan):
            with pytest.raises(BadParameter, match="no sharp bound") as info:
                sharp_maximum(spec, quantity, r)
            assert not isinstance(info.value, RadiusBeyondPole)


@pytest.mark.parametrize("p, quantity, r", [
    (1e-155, ZF, 0.5),  # (1/p + p)**2 raises OverflowError
    (1e-155, L1, 0.5),
    (1e-320, ZF, 0.5),  # 1/p is inf, and so is the closed form
    (1e-320, L1, 0.5),
    (1e-80, F, 1e-90),  # the lead underflows to 0; the true value is 3.14e-180
    (1e-80, FZ, 1e-90),  # the lead underflows to 0; the true value is 3.14e-20
    (1e-76, F, 9.9999e-77),  # (p*p - r*r)**2 is subnormal and keeps few digits
    (1e-170, F, 0.9e-170),  # p*p - r*r underflows to 0
    (1e-170, FZ, 0.9e-170),
])
def test_sharp_maximum_refuses_values_beyond_the_float_range(p, quantity, r):
    with pytest.raises(BadParameter, match="exceeds the float range") as info:
        sharp_maximum(sigma(p), quantity, r)
    message = str(info.value)
    assert quantity.value in message and "SIGMA_P" in message
    assert f"p = {p!r}" in message and f"r = {r!r}" in message


def test_check_bound_refuses_an_overflowing_bound():
    with pytest.raises(BadParameter, match="exceeds the float range"):
        check_bound(build_kp(1e-155), sigma(1e-155), ZF, 0.5)


def test_sharp_maximum_keeps_a_finite_zero():
    assert sharp_maximum(S, ZF, 1e-200) == 0.0
