"""Which error a bad radius raises, on every public path that takes radii.

Two radius domains cover the paper's four quantities: the Dirichlet
integral of z/f and the L1 mean take 0 < r <= 1; the Dirichlet integrals of
f and f/z take 0 < r < p, or 0 < r < 1 over S.  The first radius in order
that leaves its domain decides the error, and where several quantities are
asked for, their domains are checked in the order of the quantities.  Every
radius is checked before a sharp maximum is formed, so a bad radius is
refused even where the maximum at an earlier one leaves the float range.
"""

import math
from itertools import permutations

import numpy as np
import pytest

from merobounds.bounds import _SHARP_MAXIMA, check_quantities, lemma1_check, sharp_maxima
from merobounds.cli import main
from merobounds.errors import BadParameter, BadRadius, RadiusBeyondPole
from merobounds.functions import (ClassKind, ClassSpec, build_fp, build_koebe_rotation,
                                  build_kp)
from merobounds.integrals import (_ROUTES, BoundQuantity, Method, dirichlet_quadrature,
                                  dirichlet_series, l1_mean_quadrature, l1_mean_series, values)

ZF, F, FZ, L1 = (BoundQuantity.DIRICHLET_ZF, BoundQuantity.DIRICHLET_F,
                 BoundQuantity.DIRICHLET_F_OVER_Z, BoundQuantity.L1)
P = 0.5
MEMBERS = {
    ClassKind.SIGMA_P: (ClassSpec(ClassKind.SIGMA_P, p=P), build_kp(P)),
    ClassKind.U_P_LAMBDA: (ClassSpec(ClassKind.U_P_LAMBDA, p=P, lam=0.5), build_fp(P, 0.5)),
    ClassKind.S: (ClassSpec(ClassKind.S), build_koebe_rotation(0.0)),
}

#: members whose z/f and L1 maxima all leave the float range, since
#: (1/p + p)**2 and (1/p + lam mu p)**2 overflow at p = 1e-155
TINY = 1e-155
OVERFLOWING = ((ClassSpec(ClassKind.SIGMA_P, p=TINY), build_kp(TINY)),
               (ClassSpec(ClassKind.U_P_LAMBDA, p=TINY, lam=0.5), build_fp(TINY, 0.5)))

VALID = [0.1, 0.2, 0.3]
BADS = [0.0, 1.5, math.nan, 1.0, P]
#: each bad radius at each position among the valid ones, and each ordered
#: pair of bad radii at two positions among them
RADII = ([VALID[:k] + [bad] + VALID[k:] for bad in BADS for k in range(len(VALID) + 1)]
         + [[0.1, a, 0.2, b, 0.3] for a, b in permutations(BADS, 2)])


def refusal(radii, quantity, pole):
    """(type, message) of the error for the first radius outside the domain
    of ``quantity`` with a pole at ``pole`` (None for none), or None."""
    inside = quantity in (F, FZ)
    for r in radii:
        if not 0.0 < r <= 1.0 or (inside and pole is None and not r < 1.0):
            return BadRadius, f"radius {r!r} outside (0, 1{')' if inside and pole is None else ']'}"
        if inside and pole is not None and not r < pole:
            return RadiusBeyondPole, f"radius {r!r} reaches the pole at {pole!r}"
    return None


def first_refusal(radii, quantities, pole):
    """The refusal of the first quantity whose domain some radius leaves."""
    return next(filter(None, (refusal(radii, q, pole) for q in quantities)), None)


def overflow(radii, quantity, spec):
    """(type, message) of the error for a maximum that overflows at every
    radius: the first radius names it."""
    return BadParameter, (f"sharp maximum of {quantity.value} over class {spec.kind.value} at "
                          f"p = {spec.p!r}, r = {radii[0]!r} exceeds the float range")


def assert_refused(call, want):
    if want is None:
        call()
        return
    with pytest.raises(want[0]) as info:
        call()
    assert type(info.value) is want[0]
    assert str(info.value) == want[1]


def ids(radii):
    return "[" + ",".join(map(repr, radii)) + "]"


def test_the_radius_lists_cover_every_bad_radius_at_every_position():
    for bad in BADS:
        for k in range(len(VALID) + 1):
            assert any(len(radii) == 4 and radii[k] is bad for radii in RADII)
    assert len(RADII) == 20 + 20


@pytest.mark.parametrize("radii", RADII, ids=ids)
def test_values_refuses_the_first_radius_outside_each_route_domain(radii):
    for kind in (ClassKind.SIGMA_P, ClassKind.S):
        f = MEMBERS[kind][1]
        for method, quantity in _ROUTES:
            assert_refused(lambda: values(f, (quantity,), radii, method),
                           refusal(radii, quantity, f.pole))
        # each route checks its own domain, in the order of the quantities
        for quantities in ((ZF, F), (F, ZF), (L1, FZ, ZF), (FZ, L1)):
            assert_refused(lambda: values(f, quantities, radii),
                           first_refusal(radii, quantities, f.pole))
        for quantities in ((ZF, L1), (L1, ZF)):
            assert_refused(lambda: values(f, quantities, radii, Method.QUADRATURE),
                           first_refusal(radii, quantities, f.pole))


@pytest.mark.parametrize("radii", RADII, ids=ids)
def test_sharp_maxima_refuses_the_first_radius_outside_the_domain(radii):
    for kind, quantity in _SHARP_MAXIMA:
        spec = MEMBERS[kind][0]
        assert_refused(lambda: sharp_maxima(spec, quantity, radii),
                       refusal(radii, quantity, spec.p))
    # every radius is checked before any maximum overflows
    for spec, _ in OVERFLOWING:
        for quantity in (ZF, L1):
            assert_refused(lambda: sharp_maxima(spec, quantity, radii),
                           refusal(radii, quantity, spec.p) or overflow(radii, quantity, spec))


@pytest.mark.parametrize("radii", RADII, ids=ids)
def test_check_quantities_refuses_the_first_radius_of_the_first_quantity(radii):
    for kind, (spec, f) in MEMBERS.items():
        quantities = [q for q in BoundQuantity if (kind, q) in _SHARP_MAXIMA]
        for chosen in (quantities, quantities[::-1]):
            assert_refused(lambda: check_quantities(f, spec, chosen, radii),
                           first_refusal(radii, chosen, spec.p))
    for spec, f in OVERFLOWING:
        for chosen in ((ZF, L1), (L1, ZF)):
            assert_refused(lambda: check_quantities(f, spec, chosen, radii),
                           first_refusal(radii, chosen, spec.p)
                           or overflow(radii, chosen[0], spec))


@pytest.mark.parametrize("radii", RADII, ids=ids)
def test_z_over_f_sums_refuse_the_first_radius_outside_the_disk(radii):
    kp = build_kp(P)
    assert_refused(lambda: values(kp, (ZF, L1), radii), refusal(radii, ZF, None))
    for t in (0.0, 2.0):
        for r in radii:
            assert_refused(lambda: lemma1_check(kp, 1.0, t, r), refusal([r], ZF, None))


@pytest.mark.parametrize("radii", RADII, ids=ids)
def test_table_refuses_the_first_radius_outside_the_disk(radii, capsys):
    # the f and f/z rows skip every r >= p; only (0, 1] is refused
    code = main(["table", "--p", str(P), "--lambda", "1.0", "--r", *map(repr, radii)])
    out, err = capsys.readouterr()
    want = refusal(radii, ZF, None)
    if want is None:
        assert code == 0 and out
    else:
        assert code == 2 and out == ""
        assert err == f"error: {want[1]}\n"


def test_the_rule_reads_as_the_messages_it_pins():
    kp = build_kp(P)
    with pytest.raises(BadRadius, match=r"^radius nan outside \(0, 1\]$"):
        values(kp, (ZF,), [0.1, math.nan])
    with pytest.raises(RadiusBeyondPole, match=r"^radius 1.0 reaches the pole at 0.5$"):
        values(kp, (F,), [0.1, 1.0])
    with pytest.raises(BadRadius, match=r"^radius 1.0 outside \(0, 1\)$"):
        sharp_maxima(ClassSpec(ClassKind.S), FZ, [0.1, 1.0])
    with pytest.raises(BadRadius, match=r"^radius 1.5 outside \(0, 1\]$"):
        values(kp, (ZF, F), [0.7, 1.5])
    with pytest.raises(RadiusBeyondPole, match=r"^radius 0.7 reaches the pole at 0.5$"):
        values(kp, (F, ZF), [0.7, 1.5])
    assert np.isfinite(values(kp, (ZF, L1), [0.1, 1.0])[0]).all()


@pytest.mark.parametrize("radii", RADII, ids=ids)
def test_numpy_radii_are_refused_as_their_list_is(radii):
    # every path names a radius as a Python float, whatever the input type
    array = np.array(radii)
    for kind, (spec, f) in MEMBERS.items():
        quantities = [q for q in BoundQuantity if (kind, q) in _SHARP_MAXIMA]
        for quantity in quantities:
            assert_refused(lambda: sharp_maxima(spec, quantity, array),
                           refusal(radii, quantity, spec.p))
            assert_refused(lambda: values(f, (quantity,), array),
                           refusal(radii, quantity, f.pole))
        assert_refused(lambda: check_quantities(f, spec, quantities, array),
                       first_refusal(radii, quantities, spec.p))
    for r, value in zip(array, radii):
        assert_refused(lambda: lemma1_check(build_kp(P), 1.0, 1.0, r), refusal([value], ZF, None))


def test_numpy_radii_name_an_overflowing_maximum_as_a_python_float():
    tiny = ClassSpec(ClassKind.SIGMA_P, p=1e-155)
    for radii in ([0.25, 0.5], np.array([0.25, 0.5])):
        with pytest.raises(BadParameter) as info:
            sharp_maxima(tiny, ZF, radii)
        assert str(info.value) == ("sharp maximum of DIRICHLET_ZF over class SIGMA_P at "
                                   "p = 1e-155, r = 0.25 exceeds the float range")
        with pytest.raises(BadParameter) as info:
            check_quantities(build_kp(1e-155), tiny, (L1,), radii)
        assert "r = 0.25 exceeds" in str(info.value)


@pytest.mark.parametrize("radii", [np.array([[0.1, 0.2]]), np.array([[0.1], [0.2]]),
                                   np.float64(0.25), 0.25, np.zeros((1, 1, 1))],
                         ids=["row", "column", "numpy-scalar", "float", "3-d"])
def test_radii_that_are_not_one_dimensional_are_a_bad_parameter(radii):
    message = f"radii must be one-dimensional, not {np.ndim(radii)}-dimensional"

    def assert_bad_shape(call):
        with pytest.raises(BadParameter) as info:
            call()
        assert type(info.value) is BadParameter and str(info.value) == message

    for kind, (spec, f) in MEMBERS.items():
        quantities = [q for q in BoundQuantity if (kind, q) in _SHARP_MAXIMA]
        assert_bad_shape(lambda: check_quantities(f, spec, quantities, radii))
        for quantity in quantities:
            assert_bad_shape(lambda: sharp_maxima(spec, quantity, radii))
            assert_bad_shape(lambda: values(f, (quantity,), radii))


BAD = np.float64(1.5)


@pytest.mark.parametrize("call, error, message", [
    (lambda: dirichlet_series(MEMBERS[ClassKind.S][1].inv_series, BAD),
     BadRadius, "radius 1.5 outside (0, 1]"),
    (lambda: dirichlet_quadrature(MEMBERS[ClassKind.S][1].inv_series, BAD),
     BadRadius, "radius 1.5 outside (0, 1]"),
    (lambda: l1_mean_series(MEMBERS[ClassKind.S][1], BAD), BadRadius, "radius 1.5 outside (0, 1]"),
    (lambda: l1_mean_quadrature(MEMBERS[ClassKind.S][1], BAD),
     BadRadius, "radius 1.5 outside (0, 1]"),
    (lambda: lemma1_check(build_kp(P), 1.0, 1.0, BAD), BadRadius, "radius 1.5 outside (0, 1]"),
    (lambda: ClassSpec(ClassKind.SIGMA_P, p=BAD), BadParameter, "pole location 1.5 outside (0, 1)"),
    (lambda: build_fp(P, BAD), BadParameter, "lambda 1.5 outside (0, 1]"),
    (lambda: values(build_kp(np.float64(P)), (F,), [0.7]),
     RadiusBeyondPole, "radius 0.7 reaches the pole at 0.5"),
], ids=["dirichlet_series", "dirichlet_quadrature", "l1_mean_series", "l1_mean_quadrature",
        "lemma1_check", "class-pole", "lambda", "values-pole"])
def test_numpy_scalars_are_named_as_python_floats(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


ONE_RADIUS = {
    "dirichlet_series": lambda r: dirichlet_series(MEMBERS[ClassKind.S][1].inv_series, r).value,
    "dirichlet_quadrature":
        lambda r: dirichlet_quadrature(MEMBERS[ClassKind.S][1].inv_series, r).value,
    "l1_mean_series": lambda r: l1_mean_series(MEMBERS[ClassKind.S][1], r).value,
    "l1_mean_quadrature": lambda r: l1_mean_quadrature(MEMBERS[ClassKind.S][1], r).value,
    "lemma1_check": lambda r: lemma1_check(build_kp(P), 1.0, 1.0, r).computed,
}


@pytest.mark.parametrize("call", ONE_RADIUS.values(), ids=ONE_RADIUS)
def test_one_radius_entry_points_refuse_an_array_of_one_radius(call):
    # a numpy scalar is a radius, with the bits of its float; an array is not,
    # whatever its shape
    assert call(np.float64(0.5)) == call(0.5)
    for radius in (np.array([0.5]), np.array(0.5), np.array([0.5, 0.25])):
        with pytest.raises(BadParameter) as info:
            call(radius)
        assert type(info.value) is BadParameter
        assert str(info.value) == (
            f"a radius must be a number, not an array of shape {radius.shape}")
