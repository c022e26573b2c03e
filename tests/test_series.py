import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merobounds.bounds import lemma1_check
from merobounds.errors import BadParameter, BadRadius
from merobounds.functions import PoleFunction, f_over_z_series, from_inverse_coefficients
from merobounds.integrals import BoundQuantity, dirichlet_series, l1_mean_series, values
from merobounds.series import TruncatedSeries, _parseval, degree


# ---- independent oracles -------------------------------------------------

def eval_oracle(coeffs, z):
    """Power-by-power summation (not Horner)."""
    return sum(c * z**n for n, c in enumerate(coeffs))


def parseval_oracle(coeffs, t, r, start):
    return sum(float(n) ** t * abs(coeffs[n]) ** 2 * r ** (2 * n)
               for n in range(start, len(coeffs)))


bounded_complex = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)


# ---- construction --------------------------------------------------------

def test_construction_validates():
    with pytest.raises(BadParameter):
        TruncatedSeries([])
    with pytest.raises(BadParameter):
        TruncatedSeries([1.0, np.nan])
    with pytest.raises(BadParameter):
        TruncatedSeries([1.0, np.inf * 1j])


def test_coefficients_are_read_only():
    s = TruncatedSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        s.coefficients[0] = 5.0


def test_order_and_indexing():
    s = TruncatedSeries([1, 2, 3])
    assert s.order == 2
    assert len(s) == 3
    assert s[1] == 2 + 0j


# ---- reciprocal: f/z = 1/(z/f) by the recurrence of z/f ------------------

def test_reciprocal_of_geometric_series():
    # 1/(1 - z) = 1 + z + z^2 + ...
    rec = f_over_z_series(from_inverse_coefficients([-1.0]), 15)
    assert np.array_equal(rec.coefficients, np.ones(16))


def test_reciprocal_guard():
    # the reciprocal is only ever formed of a z/f, whose constant term is
    # exactly 1: a near-zero one is refused where the function is built
    with pytest.raises(BadParameter, match="constant term 1"):
        PoleFunction(TruncatedSeries([1e-10, 1.0]))


@pytest.mark.parametrize("p", [0.5, 0.7])
def test_reciprocal_roundtrip_absolute_small_order(p):
    # Benign regime: low order and moderate coefficient growth, so the
    # identity a * (1/a) = 1 holds to 1e-12 per coefficient in absolute terms.
    inv = TruncatedSeries([1.0, -(1.0 / p + p), 1.0] + [0.0] * 8)
    rec = f_over_z_series(PoleFunction(inv, pole=p), 10)
    prod = np.convolve(inv.coefficients, rec.coefficients)[:11]
    unit = np.zeros(11, dtype=complex)
    unit[0] = 1.0
    assert np.max(np.abs(prod - unit)) <= 1e-12


def test_reciprocal_roundtrip_scale_relative():
    # Reciprocal coefficients can grow geometrically, so the roundtrip is
    # checked relative to the size of the convolution terms that feed each
    # output coefficient.
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(2, 65))
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        c[0] = 1.0
        s = TruncatedSeries(c)
        rec = f_over_z_series(from_inverse_coefficients(c[1:]), n - 1)
        prod = np.convolve(s.coefficients, rec.coefficients)[:n]
        unit = np.zeros(n, dtype=complex)
        unit[0] = 1.0
        scale = np.convolve(np.abs(c), np.abs(rec.coefficients))[:n]
        rel = np.abs(prod - unit) / np.maximum(scale, 1.0)
        assert rel.max() <= 1e-12


def test_reciprocal_that_raises_keeps_nothing():
    # coefficients growing like 1e200**n overflow at n = 2, on every call,
    # and leave the function as it was
    f = from_inverse_coefficients([-1e200, 0.0])
    state = dict(vars(f))
    for _ in range(2):
        with pytest.raises(BadParameter):
            f_over_z_series(f, 2)
    assert vars(f) == state


# ---- evaluate --------------------------------------------------------------

def out_of_place_horner(coeffs, z):
    """The Horner step as ``acc = acc * pts + c``, allocating every step."""
    pts = np.asarray(z, dtype=np.complex128)
    acc = np.full(pts.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * pts + c
    return acc


def python_horner(coeffs, z):
    """The Horner step in Python complex arithmetic, which no SIMD kernel touches."""
    acc = complex(coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * complex(z) + complex(c)
    return acc


def test_evaluate_matches_out_of_place_horner_bit_for_bit():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 82))  # orders 0-80
        s = TruncatedSeries(rng.normal(size=n) + 1j * rng.normal(size=n))
        shape = (int(rng.integers(1, 40)),) if rng.random() < 0.5 else tuple(rng.integers(1, 12, size=2))
        pts = rng.uniform(-1.2, 1.2, size=shape) + 1j * rng.uniform(-1.2, 1.2, size=shape)
        for z in (pts, pts.T, pts.ravel()[:1]):
            got = s.evaluate(z)
            assert isinstance(got, np.ndarray) and got.shape == z.shape
            assert np.array_equal(got, out_of_place_horner(s.coefficients, z))
        z = complex(pts.flat[0])
        got = s.evaluate(z)
        assert type(got) is complex
        assert got == python_horner(s.coefficients, z)


def test_zero_padding_leaves_evaluate_bit_identical():
    rng = np.random.default_rng(17)
    for n in (1, 2, 9, 40):
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        s, padded = TruncatedSeries(c), TruncatedSeries(np.concatenate((c, np.zeros(30))))
        pts = rng.uniform(-1.2, 1.2, size=(5, 7)) + 1j * rng.uniform(-1.2, 1.2, size=(5, 7))
        assert np.array_equal(padded.evaluate(pts), s.evaluate(pts))
        z = complex(pts[0, 0])
        assert padded.evaluate(z) == s.evaluate(z)
    zero = TruncatedSeries(np.zeros(6))
    assert zero.evaluate(0.5j) == 0.0
    assert np.array_equal(zero.evaluate(pts), np.zeros(pts.shape))


def test_evaluate_against_power_sum():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 257))
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        if abs(z) > 1:
            z /= abs(z)
        s = TruncatedSeries(c)
        want = eval_oracle(c, z)
        scale = sum(abs(ck) * abs(z) ** k for k, ck in enumerate(c))
        assert abs(s.evaluate(z) - want) <= 1e-13 * max(scale, 1.0)


def test_evaluate_scalar_and_array():
    s = TruncatedSeries([1.0, 0.0, 1.0])
    assert s.evaluate(2.0) == 5.0 + 0j
    pts = np.array([0.0, 1.0, 1j])
    got = s.evaluate(pts)
    assert isinstance(got, np.ndarray)
    assert np.allclose(got, [1.0, 2.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(bounded_complex, min_size=1, max_size=20),
       st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False))
def test_evaluate_horner_matches_naive(xs, z):
    s = TruncatedSeries(xs)
    want = eval_oracle(xs, z)
    scale = sum(abs(c) * abs(z) ** k for k, c in enumerate(xs))
    assert abs(s.evaluate(z) - want) <= 1e-13 * max(scale, 1.0)


def test_array_input_is_copied_with_the_same_values():
    arr = np.array([1.0, -2.5, 1.0], dtype=np.complex128)
    s = TruncatedSeries(arr)
    assert np.array_equal(s.coefficients, TruncatedSeries(list(arr)).coefficients)
    assert s.coefficients.dtype == np.complex128
    arr[0] = 7.0
    assert s[0] == 1.0


# ---- weighted Parseval sums ------------------------------------------------------

def parseval(coeffs, t, r, start):
    """``_parseval`` of a coefficient vector at one radius, as a float."""
    return float(_parseval(np.asarray(coeffs, dtype=np.complex128), t, r, start))


def test_parseval_hand_values():
    # z/f series of the extremal pole function at p = 0.5: 1 - 2.5 z + z^2.
    assert parseval([1.0, -2.5, 1.0], 1.0, 0.5, 1) == pytest.approx(1.6875, rel=1e-15)
    # degree-2 tail with coefficient 1/9 at t = 2, r = 1.
    assert parseval([1.0, -37.0 / 18.0, 1.0 / 9.0], 2.0, 1.0, 2) == pytest.approx(
        4.0 / 81.0, rel=1e-14)


def test_parseval_against_loop():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        t = float(rng.uniform(-2, 2))
        r = float(rng.uniform(0.05, 1.0))
        start = int(rng.integers(1, 3))
        want = parseval_oracle(c, t, r, start)
        assert parseval(c, t, r, start) == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("coeffs", [[2.0], [1.0, -2.0], [1.0, 0.5, 0.25]])
@pytest.mark.parametrize("t", [-1.0, 0.0, 2.0])
def test_parseval_past_the_order_is_empty(coeffs, t):
    assert parseval(coeffs, t, 0.5, len(coeffs)) == 0.0
    # the Lemma 1 tail of z/f = 1 - 2z starts past its order
    assert lemma1_check(from_inverse_coefficients([-2.0], pole=0.5), 1.0, t, 0.5).computed == 0.0


@pytest.mark.parametrize("t", [-1.0, 0.0, 1.0, 2.0])
def test_parseval_over_an_array_of_radii_equals_each_radius(t):
    rng = np.random.default_rng(29)
    radii = np.array([k / 20.0 for k in range(1, 21)] + [0.013, 0.377, 0.9999])
    for size in (1, 3, 40, 513):
        c = rng.normal(size=size) + 1j * rng.normal(size=size)
        c *= 1.5 ** -np.arange(size)
        for start in sorted({1, 2, size // 2, size - 1, size} - {0}):
            got = _parseval(c, t, radii, start)
            assert got.shape == radii.shape
            want = [parseval(c, t, r, start) for r in radii.tolist()]
            assert got.tolist() == want
            # a numpy float is a radius, and a stack of one vector gives its row
            assert [parseval(c, t, np.float64(r), start) for r in radii.tolist()] == want
            assert _parseval(c[None, None], t, radii, start).tolist() == [want]


@pytest.mark.parametrize("size", [1, 3, 40, 513])
def test_series_routes_over_an_array_of_radii_equal_each_radius(size):
    rng = np.random.default_rng(size)
    radii = [k / 20.0 for k in range(1, 21)] + [0.013, 0.377, 0.9999]
    b = (rng.normal(size=size) + 1j * rng.normal(size=size)) * 1.5 ** -np.arange(1, size + 1)
    f = from_inverse_coefficients(b)
    among = values(f, (BoundQuantity.DIRICHLET_ZF, BoundQuantity.L1), radii)[0].tolist()
    assert among == [[dirichlet_series(f.inv_series, r).value for r in radii],
                     [l1_mean_series(f, r).value for r in radii]]


@pytest.mark.parametrize("t", [-1.0, 0.0, 1.0, 2.0])
def test_parseval_of_one_term_is_the_same_alone_or_among_others(t):
    # numpy's ** squares where a broadcast exponent is 2 and calls pow
    # otherwise, so a single r**2 once read other bits among other radii
    radii = np.random.default_rng(3).uniform(0.05, 1.0, 500)
    for coeffs, start in [([1.0, 0.7 + 0.2j], 1), ([1.0, 0.3, 0.7 + 0.2j], 2)]:
        c = np.array(coeffs, dtype=np.complex128)
        want = [parseval(c, t, r, start) for r in radii.tolist()]
        assert _parseval(c, t, radii, start).tolist() == want


@pytest.mark.parametrize("t", [-1.0, 0.5, 1.0, 1.5, 2.0])
def test_parseval_weights_are_the_same_bits_on_every_cpu(t):
    # numpy's ** may take a SIMD power whose last bit depends on the CPU;
    # the weight n**(t/2) is libm's pow, sqrt for t = 1 and n itself for t = 2
    for n in range(1, 601):
        w = math.sqrt(n) if t == 1.0 else float(n) if t == 2.0 else math.pow(n, t / 2)
        unit = np.eye(1, n + 1, n)[0]  # one unit coefficient, at n
        assert parseval(unit, t, 1.0, 1) == w * w, n


def test_z_over_f_values_over_no_radius_are_empty():
    f = from_inverse_coefficients([-2.5, 1.0])
    for part in values(f, (BoundQuantity.DIRICHLET_ZF, BoundQuantity.L1), np.array([])):
        assert part.shape == (2, 0)


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.01, float("nan")])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_z_over_f_sums_refuse_any_bad_radius_in_an_array(bad, where):
    radii = [0.1, 0.3, 0.5, 0.7, 1.0]
    radii[where] = bad
    f = from_inverse_coefficients([-2.5, 1.0], pole=0.5)  # z/f = (1 - 2z)(1 - z/2)
    for quantity in (BoundQuantity.DIRICHLET_ZF, BoundQuantity.L1):
        with pytest.raises(BadRadius):
            values(f, (quantity,), np.array(radii))
        with pytest.raises(BadRadius):
            values(f, (quantity,), radii)
    with pytest.raises(BadRadius):
        lemma1_check(f, 1.0, 1.0, bad)


def mp_parseval(coeffs, t, r, start):
    """``sum_{n >= start} n**t |c[n]|**2 r**(2n)`` at 50 digits over the
    exact values of the float data."""
    with mp.workdps(50):
        r = mp.mpf(float(r))
        return mp.fsum(mp.mpf(n) ** mp.mpf(t) * abs(mp.mpc(complex(coeffs[n]))) ** 2 * r ** (2 * n)
                       for n in range(start, len(coeffs)))


def test_parseval_of_a_large_coefficient_at_a_tiny_radius_is_finite():
    # |c_2|**2 = 1e400 and r**4 = 1e-400 each leave the float range; this
    # raised BadParameter in the Dirichlet and L1 routes
    c = [1.0, 0.0, 1e200]
    for t, start in [(1.0, 1), (0.0, 1), (2.0, 2)]:
        want = mp_parseval(c, t, 1e-100, start)
        assert parseval(c, t, 1e-100, start) == pytest.approx(float(want), rel=4e-16)


@pytest.mark.parametrize("t", [-1.0, 0.0, 1.0, 2.0])
def test_parseval_against_a_50_digit_sum(t):
    # scaled terms, each within a few eps, and a pairwise sum of positive
    # terms: 32 eps bounds the relative error at every order up to 300
    rng = np.random.default_rng(31)
    for _ in range(12):
        size = int(rng.integers(2, 302))
        c = rng.normal(size=size) + 1j * rng.normal(size=size)
        r = float(rng.uniform(0.05, 1.0))
        start = int(rng.integers(1, 3))
        want = float(mp_parseval(c, t, r, start))
        assert parseval(c, t, r, start) == pytest.approx(want, rel=32 * np.finfo(float).eps, abs=0.0)


@pytest.mark.parametrize("t", [-1.0, 0.0, 1.0, 2.0])
def test_lemma_tail_against_a_50_digit_sum(t):
    # z/f = (1 - z/p) q(z) for a random q with q(0) = 1, so f has its pole at p
    rng = np.random.default_rng(37)
    for _ in range(12):
        p = float(rng.uniform(0.2, 0.9))
        q = np.concatenate(([1.0], rng.normal(size=int(rng.integers(1, 200))) * 0.5))
        f = from_inverse_coefficients(np.convolve([1.0, -1.0 / p], q)[1:], pole=p)
        r = float(rng.uniform(0.05, 1.0))
        want = float(mp_parseval(f.inv_series.coefficients, t, r, 2))
        got = lemma1_check(f, 1.0, t, r).computed
        assert got == pytest.approx(want, rel=32 * np.finfo(float).eps, abs=0.0)


def test_zero_series_parseval():
    assert parseval([0.0] * 6, 2.0, 0.9, 1) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(bounded_complex, min_size=1, max_size=16),
       st.floats(min_value=0.05, max_value=1.0))
def test_parseval_t0_is_scaled_l2_norm(xs, r):
    scaled = [c * r**n for n, c in enumerate(xs)]
    want = float(np.linalg.norm(scaled[1:])) ** 2
    assert parseval(xs, 0.0, r, 1) == pytest.approx(want, rel=1e-11, abs=1e-13)


@pytest.mark.parametrize("coeffs,want", [
    ([1.0, 2.0, 3.0], 2), ([1.0, 2.0, 0.0], 1), ([1.0, 0.0, 0.0, 0.0], 0), ([0.0, 0.0, 5.0], 2),
    ([1.0, 1j], 1), ([1.0, 1j, 0.0], 1), ([0.0, 0.0], -1), ([0.0], -1), ([], -1)])
def test_degree_of_padded_and_unpadded_vectors(coeffs, want):
    c = np.array(coeffs, dtype=np.complex128)
    assert degree(c) == want
    assert type(degree(c)) is int

