"""Exact coefficient arithmetic over the field Q(sqrt2).

A coefficient is a Python int when it is an integer, a Rational when it is
a non-integral rational, and a Scalar p + q*sqrt(2) only while its
irrational part q is nonzero.  Rational is gmpy2.mpq when available
(install the `fast` extra), else fockrep's own subclass of
fractions.Fraction, which multiplies, adds, subtracts, negates and compares
with an int or another Rational directly, without Fraction's generic
operator dispatch; its values are Fraction instances, and their strings
and hashes are Fraction's.  Both are
arbitrary precision and always reduced.  So the engine multiplies and adds
native numbers, and only the few families that build sqrt2 pay for the
Scalar wrapper.  weyl.accumulate brings sums back to this form: an
integral Rational becomes an int, and a Scalar whose irrational part
cancelled becomes its rational part.

There is no floating point anywhere in this package: rat and exact, the
entry points for numbers, refuse a float.  Parameters are Rationals, so
arithmetic on them stays exact; a coefficient is never divided with `/`,
because int / int is a float: division goes through inverse.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover - exercised only without gmpy2
    class Rational(Fraction):
        """A Fraction whose +, -, *, == and unary - with an int or a
        Rational skip Fraction's operator dispatch and its constructor.

        The formulas are Fraction's (Knuth, TAOCP 4.5.1): operands are
        reduced with positive denominators, so each result is too, and it
        is built by setting Fraction's two slots.  Every other operand and
        operator is left to Fraction; a rational result comes back as a
        Rational, so +, -, *, /, **, unary - and abs keep the type, and
        nothing here turns a Rational into an int (exact does that).
        """

        __slots__ = ()

        def __add__(a, b):
            if type(b) is int:
                return _new(a._numerator + b * a._denominator, a._denominator)
            if type(b) is Rational:
                return _sum(a._numerator, a._denominator, b._numerator, b._denominator)
            return _as_rational(Fraction.__add__(a, b))

        def __radd__(a, b):
            if type(b) is int:
                return _new(a._numerator + b * a._denominator, a._denominator)
            return _as_rational(Fraction.__radd__(a, b))

        def __sub__(a, b):
            if type(b) is int:
                return _new(a._numerator - b * a._denominator, a._denominator)
            if type(b) is Rational:
                return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)
            return _as_rational(Fraction.__sub__(a, b))

        def __rsub__(a, b):
            if type(b) is int:
                return _new(b * a._denominator - a._numerator, a._denominator)
            return _as_rational(Fraction.__rsub__(a, b))

        def __mul__(a, b):
            if type(b) is int:
                return _times_int(a, b)
            if type(b) is Rational:
                na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
                g = gcd(na, db)
                if g > 1:
                    na //= g
                    db //= g
                g = gcd(nb, da)
                if g > 1:
                    nb //= g
                    da //= g
                return _new(na * nb, da * db)
            return _as_rational(Fraction.__mul__(a, b))

        def __rmul__(a, b):
            if type(b) is int:
                return _times_int(a, b)
            return _as_rational(Fraction.__rmul__(a, b))

        def __neg__(a):
            return _new(-a._numerator, a._denominator)

        def __eq__(a, b):
            if type(b) is int:
                return a._numerator == b and a._denominator == 1
            if type(b) is Rational:
                return a._numerator == b._numerator and a._denominator == b._denominator
            return Fraction.__eq__(a, b)

        # defining __eq__ would otherwise set __hash__ to None
        __hash__ = Fraction.__hash__

        def __truediv__(a, b):
            return _as_rational(Fraction.__truediv__(a, b))

        def __rtruediv__(a, b):
            return _as_rational(Fraction.__rtruediv__(a, b))

        def __pow__(a, b):
            return _as_rational(Fraction.__pow__(a, b))

        def __abs__(a):
            return _new(abs(a._numerator), a._denominator)

    def _new(n: int, d: int) -> Rational:
        """n/d, already reduced with d > 0, without Fraction.__new__."""
        r = object.__new__(Rational)
        r._numerator = n
        r._denominator = d
        return r

    def _as_rational(x):
        """A Fraction result as a Rational; a float, a complex or
        NotImplemented as it is."""
        return _new(x._numerator, x._denominator) if type(x) is Fraction else x

    def _sum(na: int, da: int, nb: int, db: int) -> Rational:
        g = gcd(da, db)
        if g == 1:
            return _new(na * db + da * nb, da * db)
        s = da // g
        t = na * (db // g) + nb * s
        g2 = gcd(t, g)
        if g2 == 1:
            return _new(t, s * db)
        return _new(t // g2, s * (db // g2))

    def _times_int(a: Rational, b: int) -> Rational:
        da = a._denominator
        g = gcd(b, da)
        if g > 1:
            return _new(a._numerator * (b // g), da // g)
        return _new(a._numerator * b, da)

_RATIONAL = type(Rational(0))
_SLOTS = issubclass(_RATIONAL, Fraction)  # no gmpy2: Rational is a Fraction


def _refuse_float(x):
    if isinstance(x, float):
        raise TypeError("a float is not an exact number: %r" % (x,))


def rat(value, den=None) -> Rational:
    """Build an exact Rational from int, string 'p/q', or Rational."""
    _refuse_float(value)
    if den is not None:
        _refuse_float(den)
        return Rational(value, den)
    return Rational(value)


def exact(x):
    """The coefficient x in its plainest type: an int when integral, a
    Rational when rational, else a Scalar.  Constructors that take a
    constant pass it through here; a float raises TypeError.  Without gmpy2
    the Rational's two Fraction slots are read directly, not through
    Fraction's denominator property and its int()."""
    t = type(x)
    if t is int:
        return x
    if t is Scalar:
        return x if x.irr else x.rat
    if t is not _RATIONAL:
        _refuse_float(x)
        x = Rational(x)
    if _SLOTS:
        return x._numerator if x._denominator == 1 else x
    return int(x) if x.denominator == 1 else x


class Scalar:
    """An element a + b*sqrt(2) of Q(sqrt2).

    Immutable.  Each part is an int when integral, else a Rational.  Nonzero
    scalars are invertible: since sqrt(2) is irrational, a^2 - 2*b^2 = 0
    forces a = b = 0.  Arithmetic with ints and Rationals, on either side,
    gives a Scalar, also when the irrational part cancels; weyl.accumulate
    is where such a result becomes rational again.
    """

    __slots__ = ("rat", "irr")

    def __init__(self, rat_part=0, irr_part=0):
        self.rat = rat_part if type(rat_part) is int else exact(rat_part)
        self.irr = irr_part if type(irr_part) is int else exact(irr_part)

    # -- arithmetic ----------------------------------------------------

    # ints, Rationals and, where Rational is a Fraction, a plain Fraction
    # from outside
    _COERCIBLE = (int, Fraction if _SLOTS else _RATIONAL)

    def __add__(self, other):
        if type(other) is Scalar:
            return Scalar(self.rat + other.rat, self.irr + other.irr)
        if isinstance(other, Scalar._COERCIBLE):
            return Scalar(self.rat + other, self.irr)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Scalar:
            return Scalar(self.rat - other.rat, self.irr - other.irr)
        if isinstance(other, Scalar._COERCIBLE):
            return Scalar(self.rat - other, self.irr)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, Scalar._COERCIBLE):
            return Scalar(other - self.rat, -self.irr)
        return NotImplemented

    def __neg__(self):
        return Scalar(-self.rat, -self.irr)

    def __mul__(self, other):
        a, b = self.rat, self.irr
        if type(other) is Scalar:
            c, d = other.rat, other.irr
            # (a + b s)(c + d s) = (ac + 2bd) + (ad + bc) s,  s = sqrt(2)
            return Scalar(a * c + 2 * b * d, a * d + b * c)
        if isinstance(other, Scalar._COERCIBLE):
            return Scalar(a * other, b * other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        a, b = self.rat, self.irr
        if not a and not b:
            raise ZeroDivisionError("division by zero")
        # divide through Rational: 1 / a is a float when a is an int
        norm = Rational(a * a - 2 * b * b)
        return Scalar(a / norm, -b / norm)

    def __truediv__(self, other):
        return self * inverse(other)

    def __rtruediv__(self, other):
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = Scalar(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if type(other) is Scalar:
            return self.rat == other.rat and self.irr == other.irr
        if isinstance(other, Scalar._COERCIBLE):
            return not self.irr and self.rat == other
        return NotImplemented

    def __hash__(self):
        # equal numbers hash equal: a rational Scalar hashes as its value
        return hash((self.rat, self.irr)) if self.irr else hash(self.rat)

    def __bool__(self):
        return bool(self.rat) or bool(self.irr)

    # -- rendering -------------------------------------------------------

    def __repr__(self):
        return "Scalar(%s)" % self

    def __str__(self):
        if not self.irr:
            return str(self.rat)
        irr_str = "sqrt2" if self.irr == 1 else ("-sqrt2" if self.irr == -1 else "%s*sqrt2" % self.irr)
        if not self.rat:
            return irr_str
        sep = "+" if not irr_str.startswith("-") else ""
        return "%s%s%s" % (self.rat, sep, irr_str)


SQRT2 = Scalar(0, 1)


def _parts(x):
    """(rational part, irrational part) of a coefficient."""
    return (x.rat, x.irr) if type(x) is Scalar else (x, 0)


def inverse(x):
    """1/x for an int, a Rational or a Scalar, never a float."""
    if type(x) is Scalar:
        return x.inverse()
    return exact(1 / rat(x))


def to_json(x) -> dict:
    """{"r": rational part} plus "s2": irrational part when it is nonzero."""
    a, b = _parts(x)
    out = {"r": str(a)}
    if b:
        out["s2"] = str(b)
    return out


def to_decimal(x) -> str:
    """Approximate rendering, to 12 places, for the CLI --decimal flag;
    never used in checks."""
    a, b = _parts(x)
    scale = 10 ** 12
    num = a * scale * scale + b * isqrt(2 * scale * scale * scale * scale)
    return "%.12f" % (int(num) / scale / scale)
