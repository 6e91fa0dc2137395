"""cli._format, the CSV writer's number formatter: FLOAT_FMT % v byte for
byte, on the certified path and on the fallback."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ioxsim import cli


def assert_formats(values):
    values = np.asarray(values, dtype=float)
    text = cli._format(values)
    assert text.shape == values.shape
    assert text.ravel().tolist() == [(cli.FLOAT_FMT % v).encode()
                                     for v in values.ravel().tolist()]


def powers_of_ten():
    """Every power of ten from 1e-320 to 1e308, as the nearest double."""
    return np.array([float("1e%d" % n) for n in range(-320, 309)])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(1, 40), elements=st.floats()))
def test_floats_property(values):
    assert_formats(values)


def test_seeded_bit_patterns():
    # every exponent and mantissa: subnormals, NaN payloads and infinities
    # turn up beside the normal range; then random mantissas and signs
    # with binary exponents 2**-45 to 2**150, around the certified range
    rng = np.random.default_rng(20261020)
    bits = rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64)
    assert_formats(bits.view(np.float64))
    bits &= np.uint64(2 ** 52 - 1) | np.uint64(2 ** 63)
    bits |= rng.integers(1023 - 45, 1023 + 150, size=bits.size,
                         dtype=np.uint64) << np.uint64(52)
    assert_formats(bits.view(np.float64))


def test_powers_of_ten_and_their_neighbours():
    p = powers_of_ten()
    values = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    assert_formats(np.concatenate([values, -values]))


def binary_near_ties(rng, count):
    """Doubles x whose exact x * 10**q, q = 16 - floor(log10 x), lies
    2**-11 to 2**-5 from a half-integer, around the certification
    margin: with x = m * 2**e and k = -(e + q) fractional bits, the low
    k bits of m are set so that m * 5**q mod 2**k = 2**(k-1) + r."""
    values = []
    while len(values) < count:
        q = int(rng.integers(1, 24))
        mantissa, exponent = math.frexp(rng.uniform(1.0, 10.0)
                                        * 10.0 ** (16 - q))
        m, e = int(mantissa * 2 ** 53), exponent - 53
        k = -(e + q)
        if not 12 <= k <= 52:
            continue
        r = int(rng.choice([-1, 1])) << (k - int(rng.integers(5, 12)))
        low = ((1 << (k - 1)) + r) * pow(5 ** q, -1, 1 << k) % (1 << k)
        values.append(math.ldexp((m >> k << k) | low, e))
    return np.array(values)


def test_near_ties():
    # the doubles nearest 18-digit decimals that end in 5, across fixed
    # and exponent notation; the exact ties n + 1/4 (18th digit 5, a
    # double); and binary near-ties on either side of the margin
    rng = np.random.default_rng(7)
    mantissas = rng.integers(10 ** 16, 10 ** 17, size=4000)
    exponents = rng.integers(-45, 45, size=4000)
    decimal = np.array([float("%d5e%d" % (m, n))
                        for m, n in zip(mantissas.tolist(),
                                        exponents.tolist())])
    ties = 10.0 ** 15 + np.arange(1000) + 0.25
    binary = binary_near_ties(rng, 4000)
    assert_formats(np.concatenate([decimal, -decimal, ties, ties + 0.5,
                                   binary, -binary]))


def test_zeros_subnormals_and_non_finite():
    tiny = np.finfo(float).smallest_subnormal
    normal = np.finfo(float).smallest_normal
    values = [0.0, -0.0, tiny, -tiny, 3 * tiny, normal - tiny, normal,
              np.finfo(float).max, np.inf, -np.inf, np.nan, -np.nan]
    assert_formats(values)
    assert cli._format(np.array([0.0, -0.0])).tolist() == [b"0", b"-0"]


def test_shapes():
    assert_formats(np.float64(1.0 / 3.0))
    assert_formats(np.linspace(-2.0, 2.0, 12).reshape(3, 4) / 7.0)
    assert_formats(np.empty((0, 3)))


@pytest.mark.skipif(cli._EXACT_POW10 < 0,
                    reason="no trusted long-double format: all values "
                           "take the fallback")
def test_certified_share():
    # a tie, or a value next to a power of ten, is rare: the fast path
    # carries the table and FLOAT_FMT only the exceptions.  The binary
    # near-ties straddle the margin, so both paths meet there
    values = np.random.default_rng(3).standard_normal(10_000)
    assert np.mean(cli._scaled(values)[0]) > 0.99
    near = cli._scaled(binary_near_ties(np.random.default_rng(5), 1000))[0]
    assert 0.2 < np.mean(near) < 0.8


def test_forced_fallback_writes_the_same_bytes(monkeypatch):
    # with nothing certified, as on a platform without a trusted long
    # double, every value takes FLOAT_FMT and every byte is the same
    rng = np.random.default_rng(11)
    k = np.linspace(-0.5, 0.5, 7)[:, None]
    omega = np.linspace(995.0, 1010.0, 3 * cli._CHUNK_VALUES // 7)
    values = rng.standard_normal((7, omega.size)) * 10.0 ** rng.integers(
        -12, 20, (7, omega.size))
    columns = cli._Grid((k, omega, values, -values))

    def written():
        out = io.BytesIO()
        cli._write_grid(out, columns)
        return out.getvalue()

    fast = written()
    monkeypatch.setattr(cli, "_EXACT_POW10", -1)
    assert not cli._scaled(values.ravel())[0].any()
    assert written() == fast
    assert_formats(values)
