"""Exact coefficient arithmetic over the field Q(sqrt2).

Every number the engine touches is a Scalar: p + q*sqrt(2) with exact
rational p, q.  Each part is held as a Python int whenever it is
integral, so integer arithmetic never builds a fraction; only a
non-integral part is a Rational: gmpy2.mpq when available (install the
`fast` extra), fractions.Fraction otherwise.  Both are arbitrary
precision and always reduced.  There is no floating point anywhere in
this package: a float passed in raises TypeError.
"""

from __future__ import annotations

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


def _part(x):
    """x as an int when it is integral, else as a reduced Rational."""
    if type(x) is int:
        return x
    if type(x) is not _RATIONAL:
        _refuse_float(x)
        x = Rational(x)
    return int(x.numerator) if x.denominator == 1 else x


class Scalar:
    """An element a + b*sqrt(2) of Q(sqrt2).

    Immutable.  Nonzero scalars are invertible: since sqrt(2) is
    irrational, a^2 - 2*b^2 = 0 forces a = b = 0.
    """

    __slots__ = ("rat", "irr")

    def __init__(self, rat_part=0, irr_part=0):
        self.rat = rat_part if type(rat_part) is int else _part(rat_part)
        self.irr = irr_part if type(irr_part) is int else _part(irr_part)

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return Scalar(x)

    @staticmethod
    def sqrt2(coeff=1) -> "Scalar":
        return Scalar(0, coeff)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.rat and not self.irr

    def is_rational(self) -> bool:
        return not self.irr

    # -- arithmetic ----------------------------------------------------

    _COERCIBLE = (int, _RATIONAL)

    def _coerce(self, other):
        """A non-Scalar operand as a Scalar, or None."""
        if isinstance(other, self._COERCIBLE):
            return Scalar(other)
        return None

    def __add__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return Scalar(self.rat + other.rat, self.irr + other.irr)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return Scalar(self.rat - other.rat, self.irr - other.irr)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Scalar(-self.rat, -self.irr)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self.rat, self.irr, other.rat, other.irr
        if not b and not d:
            return Scalar(a * c)
        # (a + b s)(c + d s) = (ac + 2bd) + (ad + bc) s,  s = sqrt(2)
        return Scalar(a * c + 2 * b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        a, b = self.rat, self.irr
        if not a and not b:
            raise ZeroDivisionError("division by zero")
        # divide through Rational: 1 / a is a float when a is an int
        if not b:
            return Scalar(1 / Rational(a))
        norm = Rational(a * a - 2 * b * b)
        return Scalar(a / norm, -b / norm)

    def __truediv__(self, other):
        return self * Scalar.of(other).inverse()

    def __rtruediv__(self, other):
        return Scalar.of(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.rat == other.rat and self.irr == other.irr
        if isinstance(other, Scalar._COERCIBLE):
            return not self.irr and self.rat == other
        return NotImplemented

    def __hash__(self):
        return hash((self.rat, self.irr))

    def __bool__(self):
        return not self.is_zero()

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

    def to_decimal(self, digits: int = 12) -> str:
        """Approximate rendering for the CLI --decimal flag; never used in checks."""
        scale = 10 ** digits
        num = self.rat * scale * scale + self.irr * _isqrt(2 * scale * scale * scale * scale)
        return "%.*f" % (digits, int(num) / scale / scale)

    # -- JSON --------------------------------------------------------------

    def to_json(self):
        out = {"r": str(self.rat)}
        if self.irr:
            out["s2"] = str(self.irr)
        return out

    @staticmethod
    def from_json(obj) -> "Scalar":
        return Scalar(obj["r"], obj.get("s2", 0))


def _isqrt(n: int) -> int:
    import math

    return math.isqrt(n)


ZERO = Scalar(0)
ONE = Scalar(1)
SQRT2 = Scalar.sqrt2()

# -- reduction modulo a prime -----------------------------------------------------
#
# MOD_P = 2^61 - 1 is prime and = 7 (mod 8), so 2 is a square mod MOD_P; since
# also MOD_P = 3 (mod 4), 2^((MOD_P+1)/4) is a square root of it.  Sending
# sqrt2 to that root is a ring homomorphism Z_(p)[sqrt2] -> F_p: it respects
# sums and products of every Scalar whose denominators MOD_P does not divide.

MOD_P = 2 ** 61 - 1
SQRT2_MOD_P = pow(2, (MOD_P + 1) // 4, MOD_P)
if SQRT2_MOD_P * SQRT2_MOD_P % MOD_P != 2:
    raise ArithmeticError("2 is not a square modulo %d" % MOD_P)


def reduce_mod_p(x: Scalar):
    """The image of x in F_p, p = MOD_P, or None when p divides a denominator."""
    out = 0
    for part, unit in ((x.rat, 1), (x.irr, SQRT2_MOD_P)):
        if part:
            den = int(part.denominator) % MOD_P
            if not den:
                return None
            out += int(part.numerator) * unit * pow(den, -1, MOD_P)
    return out % MOD_P
