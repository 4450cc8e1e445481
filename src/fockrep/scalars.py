"""Exact coefficient arithmetic over the field Q(sqrt2).

A coefficient is a Python int when it is an integer, a Rational when it is
a non-integral rational, and a Scalar p + q*sqrt(2) only while its
irrational part q is nonzero.  Rational is gmpy2.mpq when available
(install the `fast` extra), fractions.Fraction otherwise; both are
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

from math import isqrt

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rational

_RATIONAL = type(Rational(0))


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
    constant pass it through here; a float raises TypeError."""
    t = type(x)
    if t is int:
        return x
    if t is Scalar:
        return x if x.irr else x.rat
    if t is not _RATIONAL:
        _refuse_float(x)
        x = Rational(x)
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

    _COERCIBLE = (int, _RATIONAL)

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


def to_decimal(x, digits: int = 12) -> str:
    """Approximate rendering for the CLI --decimal flag; never used in checks."""
    a, b = _parts(x)
    scale = 10 ** digits
    num = a * scale * scale + b * isqrt(2 * scale * scale * scale * scale)
    return "%.*f" % (digits, int(num) / scale / scale)


# -- reduction modulo a prime -----------------------------------------------------
#
# MOD_P = 2^61 - 1 is prime and = 7 (mod 8), so 2 is a square mod MOD_P; since
# also MOD_P = 3 (mod 4), 2^((MOD_P+1)/4) is a square root of it.  Sending
# sqrt2 to that root is a ring homomorphism Z_(p)[sqrt2] -> F_p: it respects
# sums and products of every coefficient whose denominators MOD_P does not
# divide.

MOD_P = 2 ** 61 - 1
SQRT2_MOD_P = pow(2, (MOD_P + 1) // 4, MOD_P)
if SQRT2_MOD_P * SQRT2_MOD_P % MOD_P != 2:
    raise ArithmeticError("2 is not a square modulo %d" % MOD_P)


def reduce_mod_p(x):
    """The image of x in F_p, p = MOD_P, or None when p divides a denominator."""
    out = 0
    for part, unit in zip(_parts(x), (1, SQRT2_MOD_P)):
        if part:
            den = int(part.denominator) % MOD_P
            if not den:
                return None
            out += int(part.numerator) * unit * pow(den, -1, MOD_P)
    return out % MOD_P
