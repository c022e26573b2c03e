import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merobounds.errors import BadParameter, BadRadius
from merobounds.functions import PoleFunction, f_over_z_series, from_inverse_coefficients
from merobounds.series import TruncatedSeries, degree


# ---- independent oracles -------------------------------------------------

def eval_oracle(coeffs, z):
    """Power-by-power summation (not Horner)."""
    return sum(c * z**n for n, c in enumerate(coeffs))


def wcs_oracle(coeffs, t, r, start):
    total = 0.0
    for n in range(start, len(coeffs)):
        weight = 0.0 if (n == 0 and t != 0) else float(n) ** t
        total += weight * abs(coeffs[n]) ** 2 * r ** (2 * n)
    return total


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
        assert got == complex(out_of_place_horner(s.coefficients, z))


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


# ---- weighted coefficient sum ------------------------------------------------

def test_weighted_sum_hand_values():
    # z/f series of the extremal pole function at p = 0.5: 1 - 2.5 z + z^2.
    s = TruncatedSeries([1.0, -2.5, 1.0])
    got = s.weighted_coefficient_sum(1.0, 0.5, start_index=1)
    assert got == pytest.approx(1.6875, rel=1e-15)
    # degree-2 tail with coefficient 1/9 at t = 2, r = 1.
    s2 = TruncatedSeries([1.0, -37.0 / 18.0, 1.0 / 9.0])
    got2 = s2.weighted_coefficient_sum(2.0, 1.0, start_index=2)
    assert got2 == pytest.approx(4.0 / 81.0, rel=1e-14)


def test_weighted_sum_against_loop():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        t = float(rng.uniform(-2, 2))
        r = float(rng.uniform(0.05, 1.0))
        start = int(rng.integers(0, n))
        s = TruncatedSeries(c)
        want = wcs_oracle(c, t, r, start)
        assert s.weighted_coefficient_sum(t, r, start) == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_weighted_sum_zero_index_conventions():
    s = TruncatedSeries([2.0, 3.0])
    # n = 0 contributes |c0|^2 when t = 0 and nothing otherwise.
    assert s.weighted_coefficient_sum(0.0, 0.5) == pytest.approx(4.0 + 9.0 * 0.25)
    assert s.weighted_coefficient_sum(1.0, 0.5) == pytest.approx(9.0 * 0.25)
    assert s.weighted_coefficient_sum(-1.0, 0.5) == pytest.approx(9.0 * 0.25)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
def test_weighted_sum_rejects_a_non_finite_exponent(t):
    with pytest.raises(BadParameter):
        TruncatedSeries([1.0, -2.5, 1.0]).weighted_coefficient_sum(t, 0.5)


def test_weighted_sum_validation():
    s = TruncatedSeries([1.0, 1.0])
    with pytest.raises(BadRadius):
        s.weighted_coefficient_sum(1.0, 0.0)
    with pytest.raises(BadRadius):
        s.weighted_coefficient_sum(1.0, 1.5)
    with pytest.raises(BadParameter):
        s.weighted_coefficient_sum(1.0, 0.5, start_index=5)
    with pytest.raises(BadParameter):
        s.weighted_coefficient_sum(1.0, 0.5, start_index=-1)


@pytest.mark.parametrize("start", [1.5, 1.0, "1"])
def test_weighted_sum_start_index_must_be_an_integer(start):
    with pytest.raises(BadParameter, match="not an integer"):
        TruncatedSeries([1, 2, 3]).weighted_coefficient_sum(1.0, 0.5, start_index=start)
    assert TruncatedSeries([1, 2, 3]).weighted_coefficient_sum(
        1.0, 0.5, start_index=np.int64(1)) == 1 * 4 * 0.25 + 2 * 9 * 0.0625


@pytest.mark.parametrize("coeffs", [[2.0], [1.0, -2.0], [1.0, 0.5, 0.25]])
@pytest.mark.parametrize("t", [-1.0, 0.0, 2.0])
def test_weighted_sum_past_the_order_is_empty(coeffs, t):
    s = TruncatedSeries(coeffs)
    assert s.weighted_coefficient_sum(t, 0.5, start_index=s.order + 1) == 0.0
    with pytest.raises(BadParameter):
        s.weighted_coefficient_sum(t, 0.5, start_index=s.order + 2)


@pytest.mark.parametrize("t", [-1.0, 0.0, 1.0, 2.0])
def test_weighted_sum_over_an_array_of_radii_equals_each_radius(t):
    rng = np.random.default_rng(29)
    radii = np.array([k / 20.0 for k in range(1, 21)] + [0.013, 0.377, 0.9999])
    for size in (1, 3, 40, 513):
        c = rng.normal(size=size) + 1j * rng.normal(size=size)
        s = TruncatedSeries(c * 1.5 ** -np.arange(size))
        for start in sorted({0, 1, 2, size // 2, s.order, s.order + 1} - {s.order + 2}):
            got = s.weighted_coefficient_sum(t, radii, start)
            assert isinstance(got, np.ndarray) and got.shape == radii.shape
            want = [s.weighted_coefficient_sum(t, r, start) for r in radii.tolist()]
            assert all(type(w) is float for w in want)
            assert got.tolist() == want
            # a 0-d array is a radius; a one-element list is an array of one
            for r, w in zip(radii.tolist(), want):
                zero_d = s.weighted_coefficient_sum(t, np.array(r), start)
                assert type(zero_d) is float and zero_d == w
                one = s.weighted_coefficient_sum(t, [r], start)
                assert isinstance(one, np.ndarray) and one.tolist() == [w]


@pytest.mark.parametrize("t", [-1.0, 0.0, 1.0, 2.0])
def test_weighted_sum_of_one_term_is_the_same_alone_or_among_others(t):
    # numpy's ** squares where a broadcast exponent is 2 and calls pow
    # otherwise, so a single r**2 once read other bits among other radii
    radii = np.random.default_rng(3).uniform(0.05, 1.0, 500)
    for coeffs, start in [([1.0, 0.7 + 0.2j], 1), ([1.0, 0.3, 0.7 + 0.2j], 2)]:
        s = TruncatedSeries(coeffs)
        want = [s.weighted_coefficient_sum(t, r, start) for r in radii.tolist()]
        assert s.weighted_coefficient_sum(t, radii, start).tolist() == want


def test_weighted_sum_over_an_empty_array_of_radii():
    got = TruncatedSeries([1.0, 2.0]).weighted_coefficient_sum(1.0, np.array([]))
    assert got.shape == (0,)


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.01, float("nan")])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_weighted_sum_refuses_any_bad_radius_in_an_array(bad, where):
    radii = [0.1, 0.3, 0.5, 0.7, 1.0]
    radii[where] = bad
    with pytest.raises(BadRadius):
        TruncatedSeries([1.0, 2.0, 3.0]).weighted_coefficient_sum(1.0, np.array(radii))
    with pytest.raises(BadRadius):
        TruncatedSeries([1.0, 2.0, 3.0]).weighted_coefficient_sum(1.0, radii)


def test_weighted_sum_refuses_a_two_dimensional_array_of_radii():
    with pytest.raises(BadParameter, match="one-dimensional"):
        TruncatedSeries([1.0, 2.0, 3.0]).weighted_coefficient_sum(
            1.0, np.array([[0.25, 0.5], [0.75, 1.0]]))


def mp_weighted_sum(coeffs, t, r, start):
    """``sum_{n >= start} n**t |c[n]|**2 r**(2n)`` at 50 digits over the
    exact values of the float data."""
    with mp.workdps(50):
        r = mp.mpf(float(r))
        return mp.fsum((0 if n == 0 and t != 0 else mp.mpf(n) ** mp.mpf(t))
                       * abs(mp.mpc(complex(coeffs[n]))) ** 2 * r ** (2 * n)
                       for n in range(start, len(coeffs)))


def test_weighted_sum_of_a_large_coefficient_at_a_tiny_radius_is_finite():
    # |c_2|**2 = 1e400 and r**4 = 1e-400 each leave the float range; this
    # raised BadParameter in the Dirichlet and L1 routes
    s = TruncatedSeries([1.0, 0.0, 1e200])
    for t, start in [(1.0, 1), (0.0, 1), (0.0, 0), (2.0, 2)]:
        want = mp_weighted_sum(s.coefficients, t, 1e-100, start)
        assert s.weighted_coefficient_sum(t, 1e-100, start) == pytest.approx(float(want), rel=4e-16)


def test_weighted_sum_with_a_large_exponent_is_finite():
    # 299**200 overflows and 0.01**598 underflows; their product read NaN
    s = TruncatedSeries(np.ones(300))
    want = mp_weighted_sum(s.coefficients, 200.0, 0.01, 0)
    assert float(want) == pytest.approx(1.1953e181, rel=1e-4)
    assert s.weighted_coefficient_sum(200.0, 0.01) == pytest.approx(float(want), rel=1e-13)


@pytest.mark.parametrize("t", [-1.0, 0.0, 1.0, 2.0])
def test_weighted_sum_against_a_50_digit_sum(t):
    # scaled terms, each within a few eps, and a pairwise sum of positive
    # terms: 32 eps bounds the relative error at every order up to 300
    rng = np.random.default_rng(31)
    for _ in range(12):
        size = int(rng.integers(2, 302))
        c = rng.normal(size=size) + 1j * rng.normal(size=size)
        r = float(rng.uniform(0.05, 1.0))
        start = int(rng.integers(0, 3))
        want = float(mp_weighted_sum(c, t, r, start))
        got = TruncatedSeries(c).weighted_coefficient_sum(t, r, start)
        assert got == pytest.approx(want, rel=32 * np.finfo(float).eps, abs=0.0)


def test_zero_series_weighted_sum():
    s = TruncatedSeries([0.0] * 6)
    assert s.weighted_coefficient_sum(2.0, 0.9) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(bounded_complex, min_size=1, max_size=16),
       st.floats(min_value=0.05, max_value=1.0))
def test_weighted_sum_t0_is_scaled_l2_norm(xs, r):
    s = TruncatedSeries(xs)
    scaled = [c * r**n for n, c in enumerate(xs)]
    want = float(np.linalg.norm(scaled)) ** 2
    assert s.weighted_coefficient_sum(0.0, r) == pytest.approx(want, rel=1e-11, abs=1e-13)


@pytest.mark.parametrize("coeffs,want", [
    ([1.0, 2.0, 3.0], 2), ([1.0, 2.0, 0.0], 1), ([1.0, 0.0, 0.0, 0.0], 0), ([0.0, 0.0, 5.0], 2),
    ([1.0, 1j], 1), ([1.0, 1j, 0.0], 1), ([0.0, 0.0], -1), ([0.0], -1), ([], -1)])
def test_degree_of_padded_and_unpadded_vectors(coeffs, want):
    c = np.array(coeffs, dtype=np.complex128)
    assert degree(c) == want
    assert type(degree(c)) is int

