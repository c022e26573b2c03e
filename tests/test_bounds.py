import math
import sys

import mpmath as mp
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
from merobounds.integrals import dirichlet_series, l1_mean_series, values
from merobounds.bounds import (
    _SHARP_MAXIMA,
    _judge,
    SATISFACTION_TOL,
    SHARPNESS_RTOL,
    BoundQuantity,
    BoundReport,
    _verdict,
    build_report,
    check_quantities,
    gronwall_check,
    jenkins_bound,
    lemma1_check,
    sharp_maxima,
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


def maximum_at(class_spec, quantity, r):
    """``sharp_maxima`` at the one radius r."""
    return sharp_maxima(class_spec, quantity, (r,))[0]


def check_one(f, class_spec, quantity, r):
    """The report of ``check_quantities`` on one quantity at one radius."""
    return check_quantities(f, class_spec, (quantity,), (r,))[0][0]


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
        d = f_over_z_series(build_kp(p), 14)
        for n in range(2, 13):
            assert abs(d[n - 1]) == pytest.approx(jenkins_bound(n, p), rel=1e-10)


# ---- area-theorem sum ------------------------------------------------------------

def test_gronwall_sharp_for_extremal_pole_map():
    for p in P_GRID:
        rep = gronwall_check(build_kp(p))
        assert rep.computed == 1.0
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


@pytest.mark.parametrize("f", [*map(build_kp, (*P_GRID, 1e-13)), build_fp(0.3, 0.7),
                               build_fp(0.9, 1.0), build_koebe_rotation(0.0),
                               build_koebe_rotation(math.pi / 5)])
def test_gronwall_reads_the_exact_sum_of_the_extremal_functions(f):
    # z/f = 1 + b_1 z + b_2 z**2, so the sum is the one term |b_2|**2: 1 for
    # kp, (lam mu)**2 for fp, |e^(2 i theta)|**2 for the Koebe map
    b2 = float(np.abs(f.inv_series.coefficients[2]))
    assert gronwall_check(f).computed == b2 * b2


def test_gronwall_sum_lies_within_rounding_of_the_exact_sum():
    rng = np.random.default_rng(31)
    eps = sys.float_info.epsilon
    for _ in range(200):
        order = int(rng.integers(1, 65))
        b = ((rng.standard_normal(order) + 1j * rng.standard_normal(order))
             * 10.0 ** rng.uniform(-3, 2, order))
        got = gronwall_check(from_inverse_coefficients(b)).computed
        with mp.workdps(50):
            exact = mp.fsum((n - 1) * abs(mp.mpc(c)) ** 2 for n, c in enumerate(b.tolist(), 1))
            assert abs(got - exact) <= 4 * order * eps * exact


def test_coefficient_reports_hold_plain_floats_and_bools():
    # numpy inputs leave no numpy scalar in a report
    f = build_kp(0.5)
    want = lemma1_check(f, 0.5, 2.0, 0.5)
    for lam, t, r in ((np.float64(0.5), 2.0, np.float64(0.5)),
                      (np.float64(0.5), np.float64(2.0), np.float64(0.5))):
        rep = lemma1_check(f, lam, t, r)
        assert [x.hex() for x in rep[1:4] + (rep.r,)] == [x.hex() for x in want[1:4] + (want.r,)]
        assert all(type(x) is float for x in (rep.computed, rep.bound, rep.slack, rep.r))
        assert type(rep.satisfied) is bool and type(rep.sharp) is bool
        assert (rep.satisfied, rep.sharp) == (False, False)
    for n, p in ((np.int64(3), 0.5), (3, np.float64(0.5)), (np.int64(3), np.float64(0.5))):
        assert type(jenkins_bound(n, p)) is float
        assert jenkins_bound(n, p).hex() == jenkins_bound(3, 0.5).hex()


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


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_lemma_tail_rejects_a_non_finite_exponent(t):
    with pytest.raises(BadParameter):
        lemma1_check(build_fp(0.5, 0.5), 0.5, t, 0.5)


@pytest.mark.parametrize("t", [math.nextafter(2.0, math.inf), 200.0, 260.0, 2000.0])
def test_lemma_tail_refuses_an_exponent_above_two(t):
    # the tail sum has no route past t = 2, where the bound stops holding
    f = build_fp(0.5, 0.5)
    with pytest.raises(BadParameter, match="t <= 2"):
        lemma1_check(f, 0.5, t, 0.5)
    assert lemma1_check(f, 0.5, 2.0, 0.5).satisfied


# ---- closed-form maxima --------------------------------------------------------------

def test_zf_sigma_bound_hand_value():
    assert maximum_at(sigma(0.5), ZF, 1.0) == pytest.approx(8.25 * math.pi, rel=1e-15)


def test_zf_bounds_attained_by_extremal_functions():
    for p in P_GRID:
        kp = build_kp(p)
        fps = {lam: build_fp(p, lam) for lam in LAMBDAS}
        for r in R_GRID:
            got = dirichlet_series(kp.inv_series, r).value
            assert got == pytest.approx(maximum_at(sigma(p), ZF, r), rel=1e-12)
            for lam, fp in fps.items():
                got = dirichlet_series(fp.inv_series, r).value
                assert got == pytest.approx(maximum_at(residual(p, lam), ZF, r), rel=1e-12)


def test_up_lambda_bound_nested_inside_sigma_bound():
    for p in P_GRID:
        for lam in LAMBDAS:
            for r in R_GRID:
                margin = maximum_at(sigma(p), ZF, r) - maximum_at(residual(p, lam), ZF, r)
                assert margin > 1e-12


def test_f_route_maxima_attained():
    for p in (0.35, 0.6, 0.8):
        f = build_kp(p)
        for frac in (0.1, 0.5, 0.8):
            r = frac * p
            got_fz, got_f = values(f, (FZ, F), (r,))[0][:, 0]
            assert got_fz == pytest.approx(maximum_at(sigma(p), FZ, r), rel=1e-8)
            assert got_f == pytest.approx(maximum_at(sigma(p), F, r), rel=1e-8)


def test_f_route_maxima_reject_radius_beyond_pole():
    with pytest.raises(RadiusBeyondPole):
        maximum_at(sigma(0.5), FZ, 0.5)
    with pytest.raises(RadiusBeyondPole):
        maximum_at(sigma(0.5), F, 0.7)


def test_large_pole_limits_match_analytic_class():
    # as p -> 1 the pole-class forms collapse to the analytic-class ones
    p, r = 0.999, 0.5
    assert maximum_at(sigma(p), ZF, r) == pytest.approx(maximum_at(S, ZF, r), rel=2e-3)
    assert maximum_at(sigma(p), FZ, r) == pytest.approx(
        maximum_at(S, FZ, r), rel=1e-2
    )
    assert maximum_at(sigma(p), F, r) == pytest.approx(maximum_at(S, F, r), rel=1e-2)


def test_koebe_attains_analytic_class_zf_bound():
    k = build_koebe_rotation(math.pi / 7)
    for r in (0.3, 0.75, 1.0):
        got = dirichlet_series(k.inv_series, r).value
        assert got == pytest.approx(maximum_at(S, ZF, r), rel=1e-13)


# ---- integral-mean bounds --------------------------------------------------------------

def test_l1_bound_dispatch():
    r = 0.5
    sigma = ClassSpec(ClassKind.SIGMA_P, p=0.5)
    want_sigma = 1.0 + 6.25 * 0.25 + 0.0625
    assert maximum_at(sigma, L1, r) == pytest.approx(want_sigma, rel=1e-15)
    assert maximum_at(ClassSpec(ClassKind.S), L1, r) == pytest.approx(2.0625, rel=1e-15)
    u = ClassSpec(ClassKind.U_P_LAMBDA, p=0.5, lam=0.5)
    m = 0.5 * mu(0.5)
    assert maximum_at(u, L1, r) == pytest.approx(1 + (2 + 0.5 * m) ** 2 * 0.25 + m * m * 0.0625, rel=1e-14)


def test_l1_bounds_attained():
    for p in P_GRID:
        spec = ClassSpec(ClassKind.SIGMA_P, p=p)
        f = build_kp(p)
        for r in (0.3, 0.8, 1.0):
            assert l1_mean_series(f, r).value == pytest.approx(maximum_at(spec, L1, r), rel=1e-13)
    for lam in LAMBDAS:
        spec = ClassSpec(ClassKind.U_P_LAMBDA, p=0.35, lam=lam)
        f = build_fp(0.35, lam)
        for r in (0.3, 0.8, 1.0):
            assert l1_mean_series(f, r).value == pytest.approx(maximum_at(spec, L1, r), rel=1e-13)


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


def _verdict_edges():
    """(computed, bound, satisfied, sharp) at the edges of the verdict rule,
    each slack formed exactly: computed - bound at SATISFACTION_TOL and one
    ulp past it, |slack| at SHARPNESS_RTOL |bound| and one ulp past it, on
    both sides of the bound, and computed == bound."""
    cases = []
    for bound in (0.0, 2.0**-40, 2.0**-32):
        computed = bound + SATISFACTION_TOL
        assert computed - bound == SATISFACTION_TOL
        cases += [(computed, bound, True, False),
                  (math.nextafter(computed, math.inf), bound, False, False)]
    for k in range(-40, 6):
        # SHARPNESS_RTOL 1e9 2^k rounds to 2^k, and 1e9 2^k -/+ 2^k are exact
        bound, edge = 1e9 * 2.0**k, 2.0**k
        assert SHARPNESS_RTOL * bound == edge
        below, above = bound - edge, bound + edge
        assert bound - below == edge and above - bound == edge
        # past SATISFACTION_TOL (k >= -29) a relatively sharp slack is unsatisfied
        within = edge <= SATISFACTION_TOL
        cases += [(below, bound, True, True),
                  (math.nextafter(below, -math.inf), bound, True, False),
                  (above, bound, within, within),
                  (math.nextafter(above, math.inf), bound, within, False)]
    return cases + [(bound, bound, True, True) for bound in (0.0, 2.0**-40, 0.5, 1e9, 1e300)]


def test_verdict_rule_at_its_edges_on_floats_and_on_arrays():
    cases = _verdict_edges()
    computed, bound = np.array([case[:2] for case in cases]).T
    # one (1, N) block, as check_quantities judges its (Q, R) blocks
    slack, satisfied, sharp = (block.tolist()[0] for block in _verdict(computed[None], bound[None]))
    for i, (c, b, want_satisfied, want_sharp) in enumerate(cases):
        rep = build_report("X", c, b, r=0.5)
        assert (rep.satisfied, rep.sharp) == (want_satisfied, want_sharp), (c, b)
        assert (rep.slack, rep.satisfied, rep.sharp) == (slack[i], satisfied[i], sharp[i])
        assert type(rep.satisfied) is bool and type(rep.sharp) is bool


def test_bound_report_is_an_immutable_named_tuple():
    assert BoundReport._fields == ("quantity", "computed", "bound", "slack", "satisfied",
                                   "sharp", "r", "class_spec")
    assert BoundReport._field_defaults == {"class_spec": None}
    rep = BoundReport("X", 1.0, 2.0, 1.0, True, False, 0.5)
    assert rep.class_spec is None
    assert rep == build_report("X", 1.0, 2.0, r=0.5)
    assert rep == BoundReport(quantity="X", computed=1.0, bound=2.0, slack=1.0, satisfied=True,
                              sharp=False, r=0.5, class_spec=None)
    assert hash(rep) == hash(build_report("X", 1.0, 2.0, r=0.5))
    assert rep != rep._replace(sharp=True) and rep != rep._replace(class_spec=S)
    with pytest.raises(AttributeError):
        rep.sharp = True
    with pytest.raises(AttributeError):
        rep.extra = 1


# ---- dispatching check ----------------------------------------------------------------------

def test_check_bound_sharp_cases():
    rep = check_one(build_kp(0.5), ClassSpec(ClassKind.SIGMA_P, p=0.5),
                    BoundQuantity.DIRICHLET_ZF, 1.0)
    assert rep.sharp
    assert rep.computed == pytest.approx(8.25 * math.pi, rel=1e-14)
    rep = check_one(build_fp(0.5, 0.5), ClassSpec(ClassKind.U_P_LAMBDA, p=0.5, lam=0.5),
                    BoundQuantity.L1, 0.8)
    assert rep.sharp


def test_check_bound_detects_violation():
    # the pole-class extremal function lies outside the residual class, and
    # its Dirichlet integral overshoots that class's bound
    rep = check_one(build_kp(0.5), ClassSpec(ClassKind.U_P_LAMBDA, p=0.5, lam=1.0),
                    BoundQuantity.DIRICHLET_ZF, 0.9)
    assert not rep.satisfied


def test_check_bound_koebe_analytic_class():
    rep = check_one(build_koebe_rotation(0.0), ClassSpec(ClassKind.S), BoundQuantity.L1, 0.5)
    assert rep.sharp
    assert rep.bound == pytest.approx(2.0625, rel=1e-15)


def test_check_bound_koebe_f_routes_near_the_unit_circle():
    # at r = 0.99 the double root of z/f = (1 - z)^2 costs the Stein sum about
    # 1.4e-11 relative, some 1.6e-3 absolute against a bound near 1.2e8: well
    # inside SHARPNESS_RTOL, but past the absolute SATISFACTION_TOL
    for quantity in (F, FZ):
        rep = check_one(build_koebe_rotation(0.0), S, quantity, 0.99)
        assert abs(rep.slack) <= 1e-10 * rep.bound


def _mp_inside_pole(p, r, near, far):
    """``bounds._inside_pole`` at 50 digits."""
    with mp.workdps(50):
        p, r = mp.mpf(p), mp.mpf(r)
        lead = mp.pi * p * p * r * r / (1 - p * p) ** 2
        return lead * (near(p) / (p * p - r * r) ** 2 - 2 / (1 - r * r) ** 2
                       + far(p) / (1 - p * p * r * r) ** 2)


def test_inside_pole_maxima_keep_their_digits_at_the_pole():
    # p^2 - r^2 cancels as r nears p; (p - r)(p + r) does not
    p = 1.0179e-3
    r = p * (1 - 1e-9)
    for quantity, near, far in ((FZ, lambda p: 1, lambda p: p**4),
                                (F, lambda p: p * p, lambda p: p * p)):
        want = _mp_inside_pole(p, r, near, far)
        got = maximum_at(sigma(p), quantity, r)
        assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("p", [0.5, 0.999, 0.9999, 1 - 1e-8])
def test_inside_pole_maxima_keep_their_digits_as_the_pole_nears_one(p):
    # the paper's form cancels a lead of 1/(1 - p^2)^2 against its bracket;
    # it was 1.4e-10 off at p = 0.999 and 1.6e-8 at p = 0.9999
    for quantity, near, far in ((FZ, lambda p: 1, lambda p: p**4),
                                (F, lambda p: p * p, lambda p: p * p)):
        for k in range(1, 100):
            r = k * p / 100
            want = _mp_inside_pole(p, r, near, far)
            got = maximum_at(sigma(p), quantity, r)
            assert abs(got - want) <= 1e-13 * want, (quantity, p, r)


def test_check_bound_class_mismatch():
    with pytest.raises(ClassMismatch):
        check_one(build_kp(0.5), ClassSpec(ClassKind.SIGMA_P, p=0.6),
                  BoundQuantity.DIRICHLET_ZF, 0.5)
    with pytest.raises(ClassMismatch):
        check_one(build_kp(0.5), ClassSpec(ClassKind.S), BoundQuantity.L1, 0.5)
    with pytest.raises(ClassMismatch):
        check_one(build_koebe_rotation(0.0), ClassSpec(ClassKind.SIGMA_P, p=0.5),
                  BoundQuantity.L1, 0.5)


# each class's extremal function
EXTREMALS = {
    ClassKind.SIGMA_P: (ClassSpec(ClassKind.SIGMA_P, p=0.5), build_kp(0.5)),
    ClassKind.U_P_LAMBDA: (ClassSpec(ClassKind.U_P_LAMBDA, p=0.5, lam=0.5), build_fp(0.5, 0.5)),
    ClassKind.S: (ClassSpec(ClassKind.S), build_koebe_rotation(0.0)),
}
F_ROUTES = (BoundQuantity.DIRICHLET_F, BoundQuantity.DIRICHLET_F_OVER_Z)

#: each quantity's series route at one radius, the z/f ones by the one-radius routes
SERIES_ROUTES = {
    BoundQuantity.DIRICHLET_ZF: lambda f, r: dirichlet_series(f.inv_series, r).value,
    BoundQuantity.DIRICHLET_F: lambda f, r: values(f, (F,), (r,))[0][0, 0],
    BoundQuantity.DIRICHLET_F_OVER_Z: lambda f, r: values(f, (FZ,), (r,))[0][0, 0],
    BoundQuantity.L1: lambda f, r: l1_mean_series(f, r).value,
}


def test_check_bound_reports_sharp_for_every_dispatch_pair():
    assert set(_SHARP_MAXIMA) == (
        {(kind, q) for kind in (ClassKind.SIGMA_P, ClassKind.S) for q in BoundQuantity}
        | {(ClassKind.U_P_LAMBDA, BoundQuantity.DIRICHLET_ZF),
           (ClassKind.U_P_LAMBDA, BoundQuantity.L1)})
    for kind, quantity in _SHARP_MAXIMA:
        spec, f = EXTREMALS[kind]
        radii = (0.1, 0.25, 0.4) if kind is not ClassKind.S else (0.25, 0.5, 0.9)
        for r in radii:
            rep = check_one(f, spec, quantity, r)
            assert rep.quantity == quantity.value and rep.class_spec == spec
            assert maximum_at(spec, quantity, r) == rep.bound
            assert rep.computed == SERIES_ROUTES[quantity](f, r)
            assert rep.sharp, (kind, quantity, r, rep)
        # the radius-array path equals the one-radius path field for field
        reports = check_quantities(f, spec, (quantity,), radii)[0]
        assert reports == [check_one(f, spec, quantity, r) for r in radii]
        assert all(type(rep.computed) is float for rep in reports)
        assert [rep.r for rep in reports] == list(radii)
        assert check_quantities(f, spec, (quantity,), ()) == [[]]


def test_check_quantities_reports_hold_plain_floats_and_bools():
    for kind, (spec, f) in EXTREMALS.items():
        quantities = [q for q in BoundQuantity if (kind, q) in _SHARP_MAXIMA]
        for radii in ((0.1, 0.25, 0.4), np.array([0.1, 0.25, 0.4])):
            for reports in check_quantities(f, spec, quantities, radii):
                for rep in reports:
                    assert type(rep.quantity) is str and rep.class_spec is spec
                    floats = (rep.computed, rep.bound, rep.slack, rep.r)
                    assert all(type(x) is float for x in floats)
                    assert type(rep.satisfied) is bool and type(rep.sharp) is bool
                    assert rep.sharp and rep.satisfied


def test_check_quantities_equals_check_bounds_for_each_quantity():
    for kind, (spec, f) in EXTREMALS.items():
        quantities = [q for q in BoundQuantity if (kind, q) in _SHARP_MAXIMA]
        radii = (0.1, 0.25, 0.4)
        for chosen in (quantities, quantities[::-1], [quantities[-1]] * 2):
            assert check_quantities(f, spec, chosen, radii) == [
                check_quantities(f, spec, (q,), radii)[0] for q in chosen]
            assert check_quantities(f, spec, chosen, ()) == [[] for _ in chosen]
            for q in chosen:
                assert sharp_maxima(spec, q, radii) == [maximum_at(spec, q, r) for r in radii]


def test_check_quantities_finds_every_sharp_bound_before_any_series_route():
    # z/f = 1 + 1e200 z^2 overflows the z/f route, but the f maximum over S
    # refuses r = 1 before any route runs
    f = from_inverse_coefficients([0.0, 1e200])
    with pytest.raises(BadRadius):
        check_quantities(f, S, (ZF, F), (0.5, 1.0))
    with pytest.raises(BadParameter, match="exceeds the float range"):
        check_quantities(f, S, (ZF, F), (0.5,))


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
                check_one(f, spec, quantity, bad)
            with pytest.raises(BadParameter) as several:
                check_quantities(f, spec, (quantity,), radii)
            assert type(several.value) is type(single.value), (kind, quantity, radii)


def test_check_bound_has_no_f_route_bound_for_the_residual_class():
    spec, f = EXTREMALS[ClassKind.U_P_LAMBDA]
    for quantity in F_ROUTES:
        for r in (0.2, 0.75):
            with pytest.raises(BadParameter) as info:
                check_one(f, spec, quantity, r)
            assert not isinstance(info.value, RadiusBeyondPole)
            with pytest.raises(BadParameter) as info:
                maximum_at(spec, quantity, r)
            assert not isinstance(info.value, RadiusBeyondPole)


def test_every_public_name_resolves():
    import merobounds

    assert "sharp_maxima" in merobounds.__all__
    for name in merobounds.__all__:
        assert hasattr(merobounds, name), name


def test_check_bound_f_routes_refuse_radii_beyond_the_pole():
    spec, f = EXTREMALS[ClassKind.SIGMA_P]
    for quantity in F_ROUTES:
        for r in (0.5, 0.75, 1.0):
            with pytest.raises(RadiusBeyondPole):
                check_one(f, spec, quantity, r)


# ---- sharp_maxima at one radius: one radius check per quantity, and no non-finite value ----

SPECS = {kind: spec for kind, (spec, _) in EXTREMALS.items()}


@pytest.mark.parametrize("key", sorted(_SHARP_MAXIMA, key=lambda k: (k[0].value, k[1].value)),
                         ids=lambda k: f"{k[0].value}-{k[1].value}")
def test_sharp_maxima_validate_a_radius(key):
    kind, quantity = key
    spec = SPECS[kind]
    for r in (math.nan, 0.0, -0.1, 1.5):
        with pytest.raises(BadRadius):
            maximum_at(spec, quantity, r)
    if quantity in F_ROUTES and kind is ClassKind.S:
        with pytest.raises(BadRadius):
            maximum_at(spec, quantity, 1.0)
    elif quantity in F_ROUTES:
        for r in (spec.p, 0.9):
            with pytest.raises(RadiusBeyondPole):
                maximum_at(spec, quantity, r)
    else:
        assert math.isfinite(maximum_at(spec, quantity, 1.0))


def test_sharp_maxima_refuse_a_pair_before_checking_the_radius():
    spec = SPECS[ClassKind.U_P_LAMBDA]
    for quantity in F_ROUTES:
        for r in (0.2, 0.75, math.nan):
            with pytest.raises(BadParameter, match="no sharp bound") as info:
                maximum_at(spec, quantity, r)
            assert not isinstance(info.value, RadiusBeyondPole)


#: the message of a closed form that overflows, and of one that underflows
OVERFLOW = "exceeds the float range"
UNDERFLOW = "cannot be formed in floats, since a term of its closed form underflows"


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
def test_sharp_maxima_refuse_values_beyond_the_float_range(p, quantity, r):
    # the z/f and L1 forms overflow here, the f and f/z forms underflow
    problem = OVERFLOW if quantity in (ZF, L1) else UNDERFLOW
    with pytest.raises(BadParameter, match=problem) as info:
        maximum_at(sigma(p), quantity, r)
    message = str(info.value)
    assert quantity.value in message and "SIGMA_P" in message
    assert f"p = {p!r}" in message and f"r = {r!r}" in message


def test_check_bound_refuses_an_overflowing_bound():
    with pytest.raises(BadParameter, match="exceeds the float range"):
        check_one(build_kp(1e-155), sigma(1e-155), ZF, 0.5)


def test_sharp_maxima_keep_a_finite_zero():
    assert maximum_at(S, ZF, 1e-200) == 0.0


# ---- sharp_maxima: class constants resolved once, every maximum's bits kept ----

def _parent_inside_pole(p, r, numerator):
    pp, rr = p * p, r * r
    e = (p - r) * (p + r)
    lead = math.pi * pp * rr / ((1.0 - rr) * (1.0 - pp * rr)) ** 2
    gap = e * e
    if min(lead, gap) < sys.float_info.min:
        return math.nan
    return lead * (numerator(rr, e) / gap)


def _parent_numerator_f(rr, e):
    return (rr * (1.0 - rr * rr) ** 2
            + e * (1.0 + rr * (2.0 + rr * (-2.0 + rr * (-2.0 + rr))))
            - 2.0 * rr * rr * e * e)


def _parent_numerator_f_over_z(rr, e):
    return (1.0 - rr * rr) ** 2 + 2.0 * e * (1.0 - rr * rr) + e * e * (1.0 - 2.0 * rr - rr * rr)


def _parent_residual_zf(c, r):
    m = c.lam * mu(c.p)
    return math.pi * r * r * ((1.0 / c.p + m * c.p) ** 2 + 2.0 * m * m * r * r)


def _parent_residual_l1(c, r):
    m = c.lam * mu(c.p)
    return 1.0 + (1.0 / c.p + m * c.p) ** 2 * r * r + m * m * r**4


#: the per-radius forms of every sharp maximum as they were before the class
#: constants were resolved once per call, each kept operation for operation
PER_RADIUS_MAXIMA = {
    (ClassKind.SIGMA_P, ZF): lambda c, r: math.pi * r * r * ((1.0 / c.p + c.p) ** 2 + 2.0 * r * r),
    (ClassKind.U_P_LAMBDA, ZF): _parent_residual_zf,
    (ClassKind.S, ZF): lambda c, r: 2.0 * math.pi * r * r * (r * r + 2.0),
    (ClassKind.SIGMA_P, F): lambda c, r: _parent_inside_pole(c.p, r, _parent_numerator_f),
    (ClassKind.S, F):
        lambda c, r: math.pi * r * r * (r**4 + 4.0 * r * r + 1.0) / (1.0 - r * r) ** 4,
    (ClassKind.SIGMA_P, FZ): lambda c, r: _parent_inside_pole(c.p, r, _parent_numerator_f_over_z),
    (ClassKind.S, FZ): lambda c, r: 2.0 * math.pi * r * r * (r * r + 2.0) / (1.0 - r * r) ** 4,
    (ClassKind.SIGMA_P, L1): lambda c, r: 1.0 + (1.0 / c.p + c.p) ** 2 * r * r + r**4,
    (ClassKind.U_P_LAMBDA, L1): _parent_residual_l1,
    (ClassKind.S, L1): lambda c, r: 1.0 + 4.0 * r * r + r**4,
}

SHARP_KEYS = sorted(_SHARP_MAXIMA, key=lambda k: (k[0].value, k[1].value))


@pytest.mark.parametrize("key", SHARP_KEYS, ids=lambda k: f"{k[0].value}-{k[1].value}")
def test_sharp_maxima_keep_the_bits_of_their_per_radius_forms(key):
    assert set(PER_RADIUS_MAXIMA) == set(_SHARP_MAXIMA)
    kind, quantity = key
    specs = {ClassKind.SIGMA_P: [sigma(p) for p in (0.05, 0.37, 0.93)],
             ClassKind.U_P_LAMBDA: [residual(p, lam) for p in (0.05, 0.37, 0.93)
                                    for lam in (0.3, 1.0)],
             ClassKind.S: [S]}[kind]
    rng = np.random.default_rng([7, SHARP_KEYS.index(key)])
    # 200 radii: half uniform, half log-uniform down to 1e-6 of the domain's top
    unit = np.concatenate((rng.uniform(0.0, 1.0, 100), 10.0 ** rng.uniform(-6.0, 0.0, 100)))
    for spec in specs:
        top = spec.p if quantity in F_ROUTES and spec.p is not None else 1.0
        radii = [r for r in (top * unit).tolist() if 0.0 < r < top]
        assert len(radii) == 200
        got = sharp_maxima(spec, quantity, radii)
        want = [PER_RADIUS_MAXIMA[key](spec, r) for r in radii]
        assert [x.hex() for x in got] == [x.hex() for x in want], (spec, quantity)


@pytest.mark.parametrize("spec", [sigma(1e-155), residual(1e-155, 0.5), sigma(np.float64(1e-155)),
                                  residual(np.float64(1e-155), np.float64(0.5))],
                         ids=["SIGMA_P", "U_P_LAMBDA", "SIGMA_P-numpy", "U_P_LAMBDA-numpy"])
@pytest.mark.parametrize("quantity", [ZF, L1], ids=lambda q: q.value)
def test_sharp_maxima_check_each_radius_before_an_overflowing_class_constant(spec, quantity):
    # (1/p + p)**2 and (1/p + lam*mu*p)**2 overflow at p = 1e-155, a numpy
    # pole too: its class stores it as a Python float, whose ** raises
    for bad in (0.0, 1.5, math.nan):
        with pytest.raises(BadRadius):
            sharp_maxima(spec, quantity, [bad, 0.5])
        with pytest.raises(BadParameter, match="exceeds the float range") as info:
            sharp_maxima(spec, quantity, [0.25, bad])
        assert not isinstance(info.value, BadRadius)
        assert "r = 0.25" in str(info.value) and "p = 1e-155" in str(info.value)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def test_maxima_keep_the_bits_of_their_per_radius_forms_at_the_edges():
    # every (class, quantity, r) through sharp_maxima at 4,800 points:
    # radii just below p, p = 1 - 1e-12 and p near 1e-155, where
    # (1/p + p)**2 leaves the float range and every maximum with it
    poles = (1e-155, 3e-155, 1e-150, 1e-8, 0.05, 0.37, 0.93, 1.0 - 1e-12)
    specs = [S, *(sigma(p) for p in poles),
             *(residual(p, lam) for p in poles for lam in (0.3, 1.0))]
    rng = np.random.default_rng(11)
    tops = np.array([1.0, *poles])
    radii = np.concatenate((rng.uniform(0.0, 1.0, 20), 10.0 ** rng.uniform(-160.0, 0.0, 10),
                            np.nextafter(tops, 0.0), tops * (1.0 - 1e-9)))
    assert len(specs) == 25 and len(radii) == 48
    compared, refused = 0, {OVERFLOW: 0, UNDERFLOW: 0}
    for spec in specs:
        for quantity in BoundQuantity:
            form = PER_RADIUS_MAXIMA.get((spec.kind, quantity))
            top = spec.p if quantity in F_ROUTES and spec.p is not None else 1.0
            for r in radii.tolist():
                if form is None:
                    with pytest.raises(BadParameter, match="no sharp bound"):
                        sharp_maxima(spec, quantity, [r])
                    continue
                if not (0.0 < r < top if quantity in F_ROUTES else 0.0 < r <= 1.0):
                    with pytest.raises((BadRadius, RadiusBeyondPole)):
                        sharp_maxima(spec, quantity, [r])
                    continue
                try:
                    want = form(spec, r)
                except ArithmeticError:  # a ** overflows, where sharp_maxima refuses
                    want = math.inf
                if math.isfinite(want):
                    assert _bits(sharp_maxima(spec, quantity, [r])) == _bits([want]), (
                        spec, quantity, r)
                    compared += 1
                else:
                    # an overflow reads inf, an underflowing term NaN
                    problem = OVERFLOW if want == math.inf else UNDERFLOW
                    refused[problem] += 1
                    with pytest.raises(BadParameter, match=problem) as info:
                        sharp_maxima(spec, quantity, [r])
                    assert not isinstance(info.value, BadRadius)
                    assert f"r = {r!r} " in str(info.value), (spec, quantity, r)
    assert compared > 1000
    assert min(refused.values()) > 10, refused


def _random_member(rng, kind, degree):
    """A function of the given z/f degree whose pole suits a class of ``kind``:
    (1 - z/p) h(z), or h(z) alone over S, with h = 1 + a small random tail."""
    tail = (0.1 * (rng.standard_normal(degree) + 1j * rng.standard_normal(degree))
            * 0.5 ** np.arange(degree))
    if kind is ClassKind.S:
        return S, from_inverse_coefficients(tail)
    p = float(rng.uniform(0.3, 0.9))
    b = np.convolve([1.0, -1.0 / p], np.concatenate(([1.0], tail[:-1])))[1:]
    spec = sigma(p) if kind is ClassKind.SIGMA_P else residual(p, float(rng.uniform(0.2, 1.0)))
    return spec, from_inverse_coefficients(b, pole=p)


def test_stacked_judge_matches_check_quantities_bit_for_bit():
    rng = np.random.default_rng(23)
    kinds = list(ClassKind)
    for _ in range(60):
        degree = int(rng.integers(1, 13))
        drawn = [kinds[k] for k in rng.integers(0, 3, size=int(rng.integers(1, 7)))]
        members = [_random_member(rng, kind, degree) for kind in drawn]
        specs, fs = [spec for spec, _ in members], [f for _, f in members]
        quantities = [ZF, L1][:: 1 if rng.random() < 0.5 else -1][: int(rng.integers(1, 3))]
        top = 1.0
        if ClassKind.U_P_LAMBDA not in drawn and rng.random() < 0.5:
            quantities = [FZ, *quantities, F]  # the f routes need every radius inside every pole
            top = 0.9 * min(1.0 if spec.p is None else spec.p for spec in specs)
        radii = np.sort(rng.uniform(0.0, top, int(rng.integers(1, 25))))
        radii = radii[:: int(rng.choice([1, -1]))]
        judged = _judge(fs, specs, quantities, radii)
        assert [a.shape for a in judged] == [(len(fs), len(quantities), len(radii))] * 5
        for i, (spec, f) in enumerate(members):
            reports = check_quantities(f, spec, quantities, radii)
            for field, array in zip(("computed", "bound", "slack"), judged):
                want = [[getattr(rep, field) for rep in row] for row in reports]
                assert np.array_equal(_bits(array[i]), _bits(want)), (field, spec)
            assert judged[3][i].tolist() == [[rep.satisfied for rep in row] for row in reports]
            assert judged[4][i].tolist() == [[rep.sharp for rep in row] for row in reports]
