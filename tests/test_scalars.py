import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fockrep.scalars import ONE, SQRT2, ZERO, Rational, Scalar, rat

rationals = st.builds(Rational, st.integers(-10**6, 10**6), st.integers(1, 10**4))
scalars = st.builds(Scalar, rationals, rationals)
# ints, integral Rationals such as rat(4, 2), and proper fractions
parts = st.one_of(st.integers(-50, 50), st.builds(rat, st.integers(-50, 50), st.integers(1, 4)),
                  st.sampled_from([rat(4, 2), rat(0), rat(-3, 3)]))
mixed = st.tuples(parts, parts)


def test_basic_examples():
    # (1 + s)(1 - s) = -1
    assert (ONE + SQRT2) * (ONE - SQRT2) == Scalar(-1)
    # 1/s = s/2
    assert SQRT2.inverse() == Scalar(0, rat(1, 2))
    assert Scalar(rat(1, 3)) + Scalar(rat(1, 6)) == Scalar(rat(1, 2))


def test_inverse_formula():
    x = Scalar(rat(3, 2), rat(-1, 3))
    assert x * x.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_pow():
    assert SQRT2 ** 2 == Scalar(2)
    assert SQRT2 ** -2 == Scalar(rat(1, 2))
    assert (ONE + SQRT2) ** 0 == ONE


@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if not x.is_zero():
        assert x * x.inverse() == ONE


@given(scalars)
def test_json_round_trip(x):
    encoded = json.dumps(x.to_json())
    assert Scalar.from_json(json.loads(encoded)) == x


def test_json_shape():
    assert Scalar(rat(-3, 2)).to_json() == {"r": "-3/2"}
    assert Scalar(1, rat(1, 2)).to_json() == {"r": "1", "s2": "1/2"}


def test_rat_parses_strings():
    assert rat("-3/2") == rat(-3, 2)
    assert rat("4") == rat(4)


def test_floats_are_refused():
    for build in (lambda: Scalar(0.5), lambda: Scalar(1, 0.5), lambda: Scalar.of(0.1),
                  lambda: rat(0.1), lambda: rat(1, 2.0)):
        with pytest.raises(TypeError):
            build()


# -- representation: integral parts are ints, checked against a pair of Fractions --


def _pair_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c + 2 * b * d, a * d + b * c


def _pair_inverse(x):
    a, b = x
    norm = a * a - 2 * b * b
    return a / norm, -b / norm


def _pair_pow(x, n):
    if n < 0:
        return _pair_pow(_pair_inverse(x), -n)
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = _pair_mul(out, x)
    return out


def _as_fractions(a, b) -> Scalar:
    """The value with both parts stored as Fractions, bypassing __init__."""
    x = Scalar.__new__(Scalar)
    x.rat, x.irr = Fraction(a), Fraction(b)
    return x


def _check(x: Scalar, pair):
    assert (x.rat, x.irr) == pair
    for part in (x.rat, x.irr):
        assert not isinstance(part, float)
        assert (type(part) is int) == (part.denominator == 1)
    ref = _as_fractions(*pair)
    assert str(x) == str(ref)
    assert x.to_json() == ref.to_json()
    assert x == ref and ref == x
    assert hash(x) == hash(ref)


@given(mixed, mixed, st.integers(-3, 3))
def test_parts_are_ints_exactly_when_integral(xp, yp, n):
    x, y = Scalar(*xp), Scalar(*yp)
    xf = tuple(map(Fraction, xp))
    yf = tuple(map(Fraction, yp))
    _check(x, xf)
    _check(x + y, (xf[0] + yf[0], xf[1] + yf[1]))
    _check(x - y, (xf[0] - yf[0], xf[1] - yf[1]))
    _check(x * y, _pair_mul(xf, yf))
    _check(-x, (-xf[0], -xf[1]))
    _check(x + 3, (xf[0] + 3, xf[1]))
    _check(x * rat(1, 2), (xf[0] / 2, xf[1] / 2))
    if not x.is_zero():
        _check(x.inverse(), _pair_inverse(xf))
        _check(x ** n, _pair_pow(xf, n))
        _check(y / x, _pair_mul(yf, _pair_inverse(xf)))
    elif n >= 0:
        _check(x ** n, _pair_pow(xf, n))
