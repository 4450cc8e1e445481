import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from fockrep.scalars import (SQRT2, Rational, Scalar, exact, inverse, rat, to_decimal,
                             to_json)
from fockrep.weyl import accumulate

from oracles import OracleScalar

rationals = st.builds(Rational, st.integers(-10**6, 10**6), st.integers(1, 10**4))
scalars = st.builds(Scalar, rationals, rationals)
# ints, integral Rationals such as rat(4, 2), and proper fractions
parts = st.one_of(st.integers(-50, 50), st.builds(rat, st.integers(-50, 50), st.integers(1, 4)),
                  st.sampled_from([rat(4, 2), rat(0), rat(-3, 3)]))
mixed = st.tuples(parts, parts)


def test_basic_examples():
    # (1 + s)(1 - s) = -1
    assert (1 + SQRT2) * (1 - SQRT2) == Scalar(-1)
    # 1/s = s/2
    assert SQRT2.inverse() == Scalar(0, rat(1, 2))
    assert Scalar(rat(1, 3)) + Scalar(rat(1, 6)) == Scalar(rat(1, 2))


def test_inverse_formula():
    x = Scalar(rat(3, 2), rat(-1, 3))
    assert x * x.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()
    with pytest.raises(ZeroDivisionError):
        inverse(0)


def test_pow():
    assert SQRT2 ** 2 == Scalar(2)
    assert SQRT2 ** -2 == Scalar(rat(1, 2))
    assert (1 + SQRT2) ** 0 == 1


@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if x:
        assert x * x.inverse() == 1


def _from_json(obj):
    return Scalar(rat(obj["r"]), rat(obj.get("s2", 0)))


@given(scalars)
def test_json_round_trip(x):
    encoded = json.dumps(to_json(x))
    assert _from_json(json.loads(encoded)) == x


def test_json_shape():
    assert to_json(Scalar(rat(-3, 2))) == {"r": "-3/2"}
    assert to_json(Scalar(1, rat(1, 2))) == {"r": "1", "s2": "1/2"}
    assert to_json(rat(-3, 2)) == {"r": "-3/2"} and to_json(-3) == {"r": "-3"}


def test_rat_parses_strings():
    assert rat("-3/2") == rat(-3, 2)
    assert rat("4") == rat(4)


def test_floats_are_refused():
    for build in (lambda: Scalar(0.5), lambda: Scalar(1, 0.5), lambda: exact(0.1),
                  lambda: rat(0.1), lambda: rat(1, 2.0), lambda: inverse(0.5)):
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
    assert to_json(x) == to_json(ref)
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
    if x:
        _check(x.inverse(), _pair_inverse(xf))
        _check(x ** n, _pair_pow(xf, n))
        _check(y / x, _pair_mul(yf, _pair_inverse(xf)))
    elif n >= 0:
        _check(x ** n, _pair_pow(xf, n))


# -- native coefficients: int, Rational, and a Scalar only where sqrt2 survives --


def test_hash_agrees_with_equality():
    for x, same in ((2, Scalar(2)), (rat(2), Scalar(2)), (rat(1, 3), Scalar(rat(1, 3))),
                    (-5, Scalar(rat(-10, 2)))):
        assert x == same and same == x
        assert hash(x) == hash(same)
        assert len({x, same}) == 1
    assert len({2, rat(2), Scalar(2)}) == 1
    assert len({Scalar(2), Scalar(2, 1), 2}) == 2
    assert Scalar(1, 1) != 1 and hash(Scalar(1, 1)) == hash(Scalar(1, 1))


def test_exact_gives_the_plainest_type():
    assert type(exact(rat(4, 2))) is int and exact(rat(4, 2)) == 2
    assert exact(rat(1, 2)) == rat(1, 2) and type(exact(rat(1, 2))) is type(rat(1, 2))
    assert type(exact(Scalar(rat(6, 3)))) is int
    assert exact(Scalar(1, 1)) == Scalar(1, 1)
    assert exact("3/6") == rat(1, 2)


def test_accumulate_collapses_sums():
    out = {}
    accumulate(out, "k", rat(3, 2))
    accumulate(out, "k", rat(1, 2))
    assert out == {"k": 2} and type(out["k"]) is int
    accumulate(out, "s", Scalar(1, 1))
    accumulate(out, "s", Scalar(rat(1, 2), -1))
    assert out["s"] == rat(3, 2) and type(out["s"]) is type(rat(3, 2))
    accumulate(out, "k", -2)
    assert "k" not in out


def _oracle(x):
    if isinstance(x, Scalar):
        return OracleScalar(x.rat, x.irr)
    return OracleScalar(x)


def _no_float(x):
    assert not isinstance(x, float), x
    if isinstance(x, Scalar):
        assert not isinstance(x.rat, float) and not isinstance(x.irr, float), x


def _agrees(got, want: OracleScalar):
    _no_float(got)
    assert _oracle(got) == want
    assert str(got) == str(want)
    assert to_json(got) == want.to_json()
    assert to_decimal(got) == want.to_decimal()
    assert (type(got) is Scalar and bool(got.irr)) == bool(want.irr)


_small = st.integers(-20, 20)
_rationals = st.builds(rat, _small, st.integers(1, 6))
# the plain forms the library produces, plus integral Rationals and Scalars
# with a zero irrational part, which arithmetic can hand back transiently
coefficients = st.one_of(
    _small, st.builds(exact, _rationals), _rationals,
    st.builds(Scalar, _rationals, _rationals.filter(bool)),
    st.builds(Scalar, _rationals))


@given(coefficients, coefficients, st.integers(-3, 3))
def test_native_arithmetic_matches_the_scalar_oracle(x, y, n):
    ox, oy = _oracle(x), _oracle(y)
    _agrees(x, ox)
    _agrees(x + y, ox + oy)
    _agrees(x - y, ox - oy)
    _agrees(x * y, ox * oy)
    _agrees(-x, -ox)
    if y:
        # the library divides only through inverse: int / int is a float
        _agrees(inverse(y), oy.inverse())
        _agrees(x * inverse(y), ox / oy)
        if isinstance(x, Scalar) or isinstance(y, Scalar):
            _agrees(x / y, ox / oy)
    if n >= 0:
        _agrees(x ** n, ox ** n)
    elif x:
        _agrees(inverse(x) ** -n, ox ** n)
        if isinstance(x, Scalar):
            _agrees(x ** n, ox ** n)


# -- Rational: Fraction's values, always reduced, and never an int ---------------

_numerators = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-60, 60),
                        st.integers(-10**40, 10**40))
_denominators = st.one_of(st.integers(1, 12), st.integers(-12, -1), st.integers(1, 10**30))
_fractions = st.builds(Fraction, _numerators, _denominators)


def _is_reduced_rational(x, want: Fraction):
    assert type(x) is Rational, (type(x), want)
    num, den = int(x.numerator), int(x.denominator)
    assert (num, den) == (want.numerator, want.denominator)
    assert den > 0 and gcd(num, den) == 1
    assert x == want and want == x
    assert str(x) == str(want) and hash(x) == hash(want)


@settings(max_examples=300, deadline=None)
@given(_fractions, st.one_of(_fractions, _numerators), st.integers(-4, 4))
def test_rational_matches_fraction(fx, fy, n):
    x = rat(fx)
    y = fy if type(fy) is int else rat(fy)
    fy = Fraction(fy)
    _is_reduced_rational(x, fx)
    if type(y) is not int:
        _is_reduced_rational(y, fy)
    # integral results too stay Rationals: only exact makes ints
    for got, want in ((x + y, fx + fy), (y + x, fy + fx), (x - y, fx - fy), (y - x, fy - fx),
                      (x * y, fx * fy), (y * x, fy * fx), (-x, -fx), (abs(x), abs(fx))):
        _is_reduced_rational(got, want)
    if fy:
        _is_reduced_rational(x / y, fx / fy)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    if fx:
        _is_reduced_rational(y / x, fy / fx)
        _is_reduced_rational(x ** n, fx ** n)
    else:
        with pytest.raises(ZeroDivisionError):
            y / x
        if n < 0:
            with pytest.raises(ZeroDivisionError):
                x ** n
        else:
            _is_reduced_rational(x ** n, fx ** n)
    assert (x == y) == (fx == fy) and (y == x) == (fx == fy) and (x != y) == (fx != fy)
    assert (x < y) == (fx < fy) and (y < x) == (fy < fx) and (x <= y) == (fx <= fy)
    assert bool(x) == bool(fx) and int(x) == int(fx)
    assert len({x, fx}) == 1


def test_rational_leaves_other_operands_to_their_types():
    half = rat(1, 2)
    # a Scalar on the right gets its reflected operator
    assert half * SQRT2 == Scalar(0, half) and half + SQRT2 == Scalar(half, 1)
    assert half - SQRT2 == Scalar(half, -1) and half == Scalar(half)
    # a float gives a float, as with Fraction; the library itself never makes one
    assert half * 0.5 == 0.25 and type(half + 0.5) is float
    with pytest.raises(TypeError):
        half * "x"


def _plainest(x, want: Fraction):
    assert x == want
    assert type(x) is (int if want.denominator == 1 else Rational), (x, want)


@given(st.lists(parts, min_size=1, max_size=8))
def test_exact_and_accumulate_give_the_plainest_type(cs):
    out, total = {}, Fraction(0)
    for c, d in zip(cs, cs[1:] + cs[:1]):
        f, g = Fraction(c), Fraction(d)
        for got, want in ((c + d, f + g), (c - d, f - g), (c * d, f * g)):
            _plainest(exact(got), want)
            _plainest(exact(Scalar(got)), want)
        # a sqrt2 part that cancels leaves the rational part in its plainest type
        sums = {}
        accumulate(sums, "s", Scalar(c, 1))
        accumulate(sums, "s", Scalar(d, -1))
        if f + g:
            _plainest(sums["s"], f + g)
        else:
            assert not sums
        total += f
        accumulate(out, "k", c)
        if total:
            _plainest(out["k"], total)
        else:
            assert "k" not in out


@pytest.mark.skipif(not issubclass(Rational, Fraction),
                    reason="gmpy2's mpq, like the parent's backend with gmpy2, "
                           "does not coerce a Fraction into a Scalar")
def test_a_plain_fraction_still_works():
    f = Fraction(1, 2)
    s = Scalar(1, 1)
    for got, want in ((s + f, Scalar(rat(3, 2), 1)), (f + s, Scalar(rat(3, 2), 1)),
                      (s - f, Scalar(rat(1, 2), 1)), (f - s, Scalar(rat(-1, 2), -1)),
                      (s * f, Scalar(f, f)), (f * s, Scalar(f, f)), (s / Fraction(2), Scalar(f, f))):
        assert type(got) is Scalar and got == want
        assert {type(got.rat), type(got.irr)} <= {int, Rational}
    assert Scalar(f) == f and f == Scalar(f) and hash(Scalar(f)) == hash(f)
    assert type(Scalar(f).rat) is Rational and type(Scalar(Fraction(4, 2)).rat) is int
    assert type(exact(f)) is Rational and exact(f) == f
    assert type(exact(Fraction(-6, 3))) is int and exact(Fraction(-6, 3)) == -2
    assert type(rat(f)) is Rational and rat(f) == f and rat(f, 3) == Fraction(1, 6)
    assert type(inverse(Fraction(3, 2))) is Rational and inverse(Fraction(1, 2)) == 2
    # beside a Rational, either side, the value, string and hash are Fraction's,
    # and the result is a Rational
    third = rat(1, 3)
    for got, want in ((f + third, Fraction(5, 6)), (third + f, Fraction(5, 6)),
                      (f - third, Fraction(1, 6)), (third - f, Fraction(-1, 6)),
                      (f * third, Fraction(1, 6)), (third * f, Fraction(1, 6)),
                      (f / third, Fraction(3, 2)), (third / f, Fraction(2, 3))):
        assert type(got) is Rational
        assert got == want and str(got) == str(want) and hash(got) == hash(want)
    assert f == rat(1, 2) and rat(1, 2) == f and {f: 1}[rat(1, 2)] == 1
