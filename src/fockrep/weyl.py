"""Normal-ordered super-Heisenberg (Weyl) algebra.

Elements are finite Scalar combinations of monomials

    b1^k1 a1^m1 ... bp^kp ap^mp  th_{i1}...th_{ik}  dth_{j1}...dth_{jl}

over p bosonic pairs with [a_i, b_j] = delta_ij and r fermionic pairs with
{dth_i, th_j} = delta_ij, {th_i, th_j} = {dth_i, dth_j} = 0.  The stored
form is always canonical: per mode b before a, modes ascending, then the
th block and the dth block with indices ascending; signs live in the
coefficients.

Production reordering uses the closed form
    a^m b^k = sum_j C(m,j) C(k,j) j! b^(k-j) a^(m-j)
per bosonic mode and transposition-counted Koszul signs for fermions.
The independent single-swap rewriter lives in the test suite as an oracle.

Fermionic sign convention: moving any fermionic generator past another
(distinct) one contributes one factor -1 per adjacent transposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _cartesian
from math import comb, factorial

from .scalars import ONE, Scalar


@dataclass(frozen=True)
class ModeSystem:
    """p bosonic pairs (a_i, b_i) and r fermionic pairs (th_j, dth_j)."""

    bosonic: int
    fermionic: int = 0

    def __post_init__(self):
        if self.bosonic < 0 or self.fermionic < 0:
            raise ValueError("mode counts must be nonnegative")


class ModeMismatch(ValueError):
    pass


def _check_modes(x, y):
    if x.modes != y.modes:
        raise ModeMismatch("mode-system mismatch: %s vs %s" % (x.modes, y.modes))


# A monomial key is (b_pow, a_pow, theta_mask, dtheta_mask) with the
# exponent tuples of length p and the masks encoding subsets of {1..r}
# via bit i-1.
Monomial = tuple


def monomial_raise(mono: Monomial) -> int:
    """Degree change caused by the monomial acting on a Fock state."""
    b_pow, a_pow, th, dth = mono
    return sum(b_pow) - sum(a_pow) + th.bit_count() - dth.bit_count()


def monomial_lower(mono: Monomial) -> int:
    """Degree of the lowering part (a's and dth's)."""
    return sum(mono[1]) + mono[3].bit_count()


class WeylElement:
    """A normal-ordered element; immutable by convention."""

    __slots__ = ("modes", "terms")

    def __init__(self, modes: ModeSystem, terms: dict):
        self.modes = modes
        self.terms = terms  # Monomial -> nonzero Scalar

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(modes: ModeSystem) -> "WeylElement":
        return WeylElement(modes, {})

    @staticmethod
    def scalar(modes: ModeSystem, c) -> "WeylElement":
        c = Scalar.of(c)
        zero_pow = (0,) * modes.bosonic
        if c.is_zero():
            return WeylElement(modes, {})
        return WeylElement(modes, {(zero_pow, zero_pow, 0, 0): c})

    @staticmethod
    def one(modes: ModeSystem) -> "WeylElement":
        return WeylElement.scalar(modes, 1)

    @staticmethod
    def monomial(modes, b_pow=(), a_pow=(), theta=(), dtheta=(), coeff=1) -> "WeylElement":
        p = modes.bosonic
        bp = tuple(b_pow) + (0,) * (p - len(b_pow))
        ap = tuple(a_pow) + (0,) * (p - len(a_pow))
        th = _mask(theta, modes.fermionic)
        dth = _mask(dtheta, modes.fermionic)
        c = Scalar.of(coeff)
        if c.is_zero():
            return WeylElement(modes, {})
        return WeylElement(modes, {(bp, ap, th, dth): c})

    @staticmethod
    def b(modes, i=1) -> "WeylElement":
        return WeylElement.monomial(modes, b_pow=_unit(modes.bosonic, i))

    @staticmethod
    def a(modes, i=1) -> "WeylElement":
        return WeylElement.monomial(modes, a_pow=_unit(modes.bosonic, i))

    @staticmethod
    def theta(modes, j=1) -> "WeylElement":
        return WeylElement.monomial(modes, theta=(j,))

    @staticmethod
    def dtheta(modes, j=1) -> "WeylElement":
        return WeylElement.monomial(modes, dtheta=(j,))

    # -- ring structure ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, WeylElement):
            other = WeylElement.scalar(self.modes, other)
        _check_modes(self, other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            _accumulate(terms, mono, c)
        return WeylElement(self.modes, terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, WeylElement) else -Scalar.of(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return WeylElement(self.modes, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "WeylElement":
        c = Scalar.of(c)
        if c.is_zero():
            return WeylElement.zero(self.modes)
        return WeylElement(self.modes, {m: cc * c for m, cc in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # scalar * element; element * element goes through __mul__
        return self.scale(other)

    def __truediv__(self, c):
        return self.scale(Scalar.of(c).inverse())

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = WeylElement.one(self.modes)
        for _ in range(n):
            result = multiply(result, self)
        return result

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.modes == other.modes and self.terms == other.terms

    def __hash__(self):
        return hash((self.modes, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure queries -------------------------------------------------

    def parity(self):
        """0 (even), 1 (odd), or None when terms have mixed fermionic degree."""
        result = None
        for (_, _, th, dth) in self.terms:
            par = (th.bit_count() + dth.bit_count()) & 1
            if result is None:
                result = par
            elif result != par:
                return None
        return 0 if result is None else result

    def max_raise(self) -> int:
        """Largest degree increase this element can cause on a Fock state."""
        return max((monomial_raise(m) for m in self.terms), default=0)

    def max_lower(self) -> int:
        return max((monomial_lower(m) for m in self.terms), default=0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _mono_sort_key(kv[0]))

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            body = _mono_str(mono, self.modes)
            cs = str(c)
            if body:
                if c == ONE:
                    piece = body
                elif cs == "-1":
                    piece = "-" + body
                else:
                    piece = ("(%s) " % cs if ("+" in cs[1:] or "sqrt" in cs) else cs + " ") + body
            else:
                piece = "(%s)" % cs if "+" in cs[1:] else cs
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return out

    __repr__ = __str__

    # -- JSON -----------------------------------------------------------------

    def to_json(self):
        out = []
        for (bp, ap, th, dth), c in self.sorted_terms():
            out.append({
                "b": list(bp),
                "a": list(ap),
                "theta": _mask_to_list(th),
                "dtheta": _mask_to_list(dth),
                "coeff": c.to_json(),
            })
        return out

    @staticmethod
    def from_json(modes: ModeSystem, data) -> "WeylElement":
        terms: dict = {}
        for entry in data:
            mono = (tuple(entry["b"]), tuple(entry["a"]),
                    _mask(entry["theta"], modes.fermionic),
                    _mask(entry["dtheta"], modes.fermionic))
            _accumulate(terms, mono, Scalar.from_json(entry["coeff"]))
        return WeylElement(modes, terms)


# -- multiplication ------------------------------------------------------------


def multiply(x: WeylElement, y: WeylElement) -> WeylElement:
    """Normal-ordered product."""
    _check_modes(x, y)
    p = x.modes.bosonic
    terms: dict = {}
    for (bp1, ap1, th1, dth1), c1 in x.terms.items():
        for (bp2, ap2, th2, dth2), c2 in y.terms.items():
            coeff = c1 * c2
            # fermionic part: fold y's generators into x's normal-ordered word
            ferm = _ferm_multiply(th1, dth1, th2, dth2)
            if not ferm:
                continue
            if p == 0:
                for (th, dth), sign in ferm:
                    _accumulate(terms, ((), (), th, dth),
                                coeff if sign == 1 else -coeff)
                continue
            # bosonic part: per-mode closed-form reordering of a1^m b2^k
            options = []
            for i in range(p):
                m, k = ap1[i], bp2[i]
                options.append([(j, comb(m, j) * comb(k, j) * factorial(j))
                                for j in range(min(m, k) + 1)])
            for choice in _cartesian(*options):
                num = 1
                for _, w in choice:
                    num *= w
                bp = tuple(bp1[i] + bp2[i] - choice[i][0] for i in range(p))
                ap = tuple(ap1[i] + ap2[i] - choice[i][0] for i in range(p))
                base = coeff if num == 1 else coeff * num
                for (th, dth), sign in ferm:
                    _accumulate(terms, (bp, ap, th, dth),
                                base if sign == 1 else -base)
    return WeylElement(x.modes, terms)


def _ferm_multiply(th1: int, dth1: int, th2: int, dth2: int):
    """Multiply two normal-ordered fermionic words; list of ((th, dth), sign).

    Folds the generators of the right factor (th block ascending, then dth
    block ascending) into the left word one at a time.
    """
    words = [((th1, dth1), 1)]
    m = th2
    while m:
        bit = m & -m
        m ^= bit
        new = []
        for (t, d), s in words:
            ndgt = (d // (bit << 1)).bit_count()  # dth indices above the new th
            if d & bit:
                # contraction dth_m th_m -> 1 branch
                new.append(((t, d ^ bit), s if ndgt % 2 == 0 else -s))
            if not (t & bit):
                swaps = d.bit_count() + (t // (bit << 1)).bit_count()
                new.append(((t | bit, d), s if swaps % 2 == 0 else -s))
        words = new
        if not words:
            return words
    m = dth2
    while m:
        bit = m & -m
        m ^= bit
        new = []
        for (t, d), s in words:
            if d & bit:
                continue  # dth_m^2 = 0
            swaps = (d // (bit << 1)).bit_count()
            new.append(((t, d | bit), s if swaps % 2 == 0 else -s))
        words = new
        if not words:
            return words
    return words


def commutator(x: WeylElement, y: WeylElement) -> WeylElement:
    return multiply(x, y) - multiply(y, x)


def anticommutator(x: WeylElement, y: WeylElement) -> WeylElement:
    return multiply(x, y) + multiply(y, x)


def super_bracket(x: WeylElement, y: WeylElement) -> WeylElement:
    """Anticommutator when both arguments are odd, commutator otherwise."""
    px, py = x.parity(), y.parity()
    if px is None or py is None:
        raise ValueError("super bracket needs arguments of definite parity")
    if px == 1 and py == 1:
        return anticommutator(x, y)
    return commutator(x, y)


# -- substitution ----------------------------------------------------------------


def substitute(elem: WeylElement, images: dict):
    """Evaluate elem with generators replaced by the given images.

    images maps atoms ('b', i), ('a', i), ('th', j), ('dth', j) to ring
    elements supporting + and *.  Atoms of each monomial are multiplied in
    canonical word order, so non-commuting images of a single mode are
    handled exactly.  Atoms without an image default to themselves only if
    images provides a 'default' factory.
    """
    result = None
    for (bp, ap, th, dth), c in elem.sorted_terms():
        factors = []
        for i in range(len(bp)):
            factors.extend([images[("b", i + 1)]] * bp[i])
            factors.extend([images[("a", i + 1)]] * ap[i])
        for j in _mask_to_list(th):
            factors.append(images[("th", j)])
        for j in _mask_to_list(dth):
            factors.append(images[("dth", j)])
        term = images["one"].scale(c)
        for f in factors:
            term = term * f
        result = term if result is None else result + term
    if result is None:
        return images["one"].scale(Scalar(0))
    return result


# -- helpers ------------------------------------------------------------------------


def _accumulate(terms: dict, mono: Monomial, c: Scalar):
    prev = terms.get(mono)
    if prev is None:
        if not c.is_zero():
            terms[mono] = c
        return
    s = prev + c
    if s.is_zero():
        del terms[mono]
    else:
        terms[mono] = s


def _unit(p: int, i: int):
    if not (1 <= i <= p):
        raise ValueError("bosonic mode %d out of range 1..%d" % (i, p))
    return tuple(1 if k == i - 1 else 0 for k in range(p))


def _mask(indices, r: int) -> int:
    mask = 0
    for j in indices:
        if not (1 <= j <= r):
            raise ValueError("fermionic index %d out of range 1..%d" % (j, r))
        bit = 1 << (j - 1)
        if mask & bit:
            raise ValueError("repeated fermionic index %d" % j)
        mask |= bit
    return mask


def _mask_to_list(mask: int):
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return out


def _mono_sort_key(mono: Monomial):
    bp, ap, th, dth = mono
    degree = sum(bp) + sum(ap) + th.bit_count() + dth.bit_count()
    return (degree, bp, ap, _mask_to_list(th), _mask_to_list(dth))


def _mono_str(mono: Monomial, modes: ModeSystem) -> str:
    bp, ap, th, dth = mono
    parts = []
    single = modes.bosonic == 1
    for i, k in enumerate(bp):
        if k:
            name = "b" if single else "b%d" % (i + 1)
            parts.append(name if k == 1 else "%s^%d" % (name, k))
    for i, k in enumerate(ap):
        if k:
            name = "a" if single else "a%d" % (i + 1)
            parts.append(name if k == 1 else "%s^%d" % (name, k))
    fsingle = modes.fermionic == 1
    for j in _mask_to_list(th):
        parts.append("th" if fsingle else "th%d" % j)
    for j in _mask_to_list(dth):
        parts.append("dth" if fsingle else "dth%d" % j)
    return " ".join(parts)
