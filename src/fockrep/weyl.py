"""Normal-ordered super-Heisenberg (Weyl) algebra, with a q-rule per mode system.

Elements are finite combinations, with coefficients in Q(sqrt2), of monomials

    b1^k1 a1^m1 ... bp^kp ap^mp  th_{i1}...th_{ik}  dth_{j1}...dth_{jl}

over p bosonic pairs with a_i b_i - q b_i a_i = 1, [a_i, b_j] = 0 for i != j,
and r fermionic pairs with {dth_i, th_j} = delta_ij, {th_i, th_j} =
{dth_i, dth_j} = 0.  q is the mode system's (ModeSystem.q): 1 is the
canonical Weyl algebra, any other q the q-Weyl algebra of the
q-oscillator (Macfarlane, J. Phys. A 22, 1989).  The stored form is always
canonical: per mode b before a, modes ascending, then the th block and the
dth block with indices ascending; signs live in the coefficients.  Each
rule is a reduction system whose overlaps resolve, so the normal form is
unique (Bergman, Adv. Math. 29, 1978).

Production reordering uses the closed form
    a^m b^k = sum_j q^((m-j)(k-j)) [m choose j]_q [k choose j]_q [j]_q! b^(k-j) a^(m-j)
per bosonic mode (_contraction), which is C(m,j) C(k,j) j! at q = 1,
expanded only on the contracting modes of a monomial pair (where m and k
are both nonzero; every other mode just adds its exponents), and
transposition-counted Koszul signs for fermions, skipped when the right
monomial has none.  Each monomial pair's product, commutator or
anticommutator is normal-ordered once per process and q, with unit
coefficient, into one cached pair table (_pair); multiply and
bracket(x, y, anti) scale its entries by the terms' coefficients, and
act keeps, per monomial, Fock state and q, the one term alive on the
vacuum.  The independent single-swap rewriters live in the test suite as
oracles.

Fermionic sign convention: moving any fermionic generator past another
(distinct) one contributes one factor -1 per adjacent transposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, factorial, perm

from .scalars import exact, inverse, rat


@dataclass(frozen=True)
class ModeSystem:
    """p bosonic pairs (a_i, b_i) and r fermionic pairs (th_j, dth_j); each
    bosonic pair obeys a_i b_i - q b_i a_i = 1.  q = 1 is the canonical
    Weyl algebra.  A q-mode's Fock module, a_i b_i^k|0> = [k]_q
    b_i^(k-1)|0>, is faithful only where no [k]_q = 1 + q + ... + q^(k-1)
    vanishes, which over Q(sqrt2) excludes q = -1 alone."""

    bosonic: int
    fermionic: int = 0
    q: object = 1

    def __post_init__(self):
        if self.bosonic < 0 or self.fermionic < 0:
            raise ValueError("mode counts must be nonnegative")
        q = exact(self.q)
        if q == -1:
            raise ValueError("q = -1 makes [2]_q vanish")
        object.__setattr__(self, "q", q)  # frozen


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


def monomial_parity(mono: Monomial) -> int:
    """0 for an even number of fermion factors, 1 for an odd one."""
    return (mono[2].bit_count() + mono[3].bit_count()) & 1


def monomial_lower(mono: Monomial) -> int:
    """Degree of the lowering part (a's and dth's)."""
    return sum(mono[1]) + mono[3].bit_count()


class WeylElement:
    """A normal-ordered element; immutable by convention."""

    __slots__ = ("modes", "terms")

    def __init__(self, modes: ModeSystem, terms: dict):
        self.modes = modes
        self.terms = terms  # Monomial -> nonzero coefficient

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(modes: ModeSystem) -> "WeylElement":
        return WeylElement(modes, {})

    @staticmethod
    def scalar(modes: ModeSystem, c) -> "WeylElement":
        c = exact(c)
        zero_pow = (0,) * modes.bosonic
        if not c:
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
        c = exact(coeff)
        if not c:
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
            accumulate(terms, mono, c)
        return WeylElement(self.modes, terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return WeylElement(self.modes, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "WeylElement":
        c = exact(c)
        if not c:
            return WeylElement.zero(self.modes)
        return WeylElement(self.modes, {m: exact(cc * c) for m, cc in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # scalar * element; element * element goes through __mul__
        return self.scale(other)

    def __truediv__(self, c):
        return self.scale(inverse(c))

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
        for mono in self.terms:
            par = monomial_parity(mono)
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
        return _terms_str((_mono_str(mono, self.modes), c) for mono, c in self.sorted_terms())

    __repr__ = __str__


# -- multiplication ------------------------------------------------------------


def multiply(x: WeylElement, y: WeylElement) -> WeylElement:
    """Normal-ordered product."""
    return _combine(x, y, None)


def bracket(x: WeylElement, y: WeylElement, anti: bool) -> WeylElement:
    """x y + y x when anti, else x y - y x: each monomial pair's bracket is
    read from the pair table (_pair), where the terms of u v and v u that
    cancel are already gone, so a pair whose bracket is zero costs no
    arithmetic."""
    return _combine(x, y, anti)


def _combine(x: WeylElement, y: WeylElement, kind) -> WeylElement:
    """The sum of c1 c2 _pair(u, v, kind, q) over the terms c1 u of x and
    c2 v of y."""
    _check_modes(x, y)
    q = x.modes.q
    terms: dict = {}
    for u, c1 in x.terms.items():
        for v, c2 in y.terms.items():
            table = _pair(u, v, kind, q)
            if table:
                c = c1 * c2
                for mono, d in table:
                    accumulate(terms, mono, c if d == 1 else c * d)
    return WeylElement(x.modes, terms)


@cache
def _pair(u: Monomial, v: Monomial, kind, q) -> tuple:
    """The normal form of u v (kind None), u v - v u (False) or u v + v u
    (True) for monomials u, v under the rule q, with unit coefficient: a
    tuple of (monomial, nonzero coefficient), each an int where q = 1.
    Formed once per process: p is len(u[0]) and the fermion masks alone fix
    the signs, so (u, v, kind, q) is the whole key."""
    out: dict = {}
    _expand(out, u, v, 1, q)
    if kind is not None:
        _expand(out, v, u, 1 if kind else -1, q)
    return tuple(out.items())


@cache
def act(mono: Monomial, state, q) -> tuple | None:
    """The monomial's image of the Fock basis state b^alpha th^beta |0>,
    state = (alpha, beta_mask), under the rule q: None or the one (state,
    nonzero coefficient), the term of mono b^alpha th^beta free of a and
    dth.  That is _expand's full contraction, the falling factorial
    _falling(alpha_i, e_i, q) per a_i^e_i (perm, an int, where q = 1),
    times the one dth-free word of _ferm_multiply(th, dth, beta, 0), formed
    directly: each dth must contract with its th of beta, as no later th
    can, so folding beta's th in ascending order takes the contraction
    branch where the word holds that dth and the juxtaposition otherwise,
    with their signs.  Formed once per process and keyed by data, as _pair
    is."""
    bp, ap, th, dth = mono
    alpha, beta = state
    factor = 1
    for k, e in zip(alpha, ap):
        if e:
            if e > k:
                return None
            factor *= _falling(k, e, q)
    if dth & ~beta:
        return None
    m = beta
    while m:
        bit = m & -m
        m ^= bit
        if dth & bit:  # dth_m th_m -> 1, past the dth indices above m
            swaps = (dth // (bit << 1)).bit_count()
            dth ^= bit
        elif th & bit:
            return None  # th_m^2 = 0
        else:
            swaps = dth.bit_count() + (th // (bit << 1)).bit_count()
            th |= bit
        if swaps % 2:
            factor = -factor
    if bp != ap:
        alpha = tuple([k - e + b for k, e, b in zip(alpha, ap, bp)])
    return (alpha, th), factor


def q_integer(j: int, q):
    """[j]_q = (1 - q^j)/(1 - q) = 1 + q + ... + q^(j-1), for q != 1."""
    q = rat(q)
    return (1 - q ** j) / (1 - q)


def _falling(k: int, e: int, q):
    """a^e b^k|0> = _falling(k, e, q) b^(k-e)|0> on one mode: the falling
    factorial perm(k, e) where q = 1, else [k]_q [k-1]_q ... [k-e+1]_q."""
    if q == 1:
        return perm(k, e)
    out = 1
    for j in range(k - e + 1, k + 1):
        out = out * q_integer(j, q)
    return exact(out)


def _contraction(m: int, k: int, j: int, q):
    """The coefficient of b^(k-j) a^(m-j) in a^m b^k on one mode:
    C(m,j) C(k,j) j! where q = 1, else q^((m-j)(k-j)) [m choose j]_q
    [k choose j]_q [j]_q!, written through _falling as q^((m-j)(k-j))
    F(m, j) F(k, j) / F(j, j)."""
    if q == 1:
        return comb(m, j) * comb(k, j) * factorial(j)
    return exact(q ** ((m - j) * (k - j)) * _falling(m, j, q) * _falling(k, j, q)
                 * inverse(_falling(j, j, q)))


def _expand(out: dict, u: Monomial, v: Monomial, c: int, q):
    """out += c u v, normal-ordered under the rule q, for monomials u, v and
    an int c."""
    bp1, ap1, th1, dth1 = u
    bp2, ap2, th2, dth2 = v
    # fermionic part: fold v's generators into u's normal-ordered word
    if th2 or dth2:
        ferm = _ferm_multiply(th1, dth1, th2, dth2)
        if not ferm:
            return
    else:
        ferm = (((th1, dth1), 1),)
    # bosonic part: a1^m b2^k reorders by the closed form only on the
    # contracting modes, where m and k are both nonzero
    prods = [(tuple(s + t for s, t in zip(bp1, bp2)),
              tuple(s + t for s, t in zip(ap1, ap2)), c)]
    for i, (m, k) in enumerate(zip(ap1, bp2)):
        if m and k:
            prods = [(b[:i] + (b[i] - j,) + b[i + 1:],
                      a[:i] + (a[i] - j,) + a[i + 1:],
                      c * _contraction(m, k, j, q))
                     for b, a, c in prods for j in range(min(m, k) + 1)]
    for bp, ap, c in prods:
        for (th, dth), sign in ferm:
            accumulate(out, (bp, ap, th, dth), c * sign)


def _ferm_multiply(th1: int, dth1: int, th2: int, dth2: int):
    """Multiply two normal-ordered fermionic words; list of ((th, dth), sign).

    Folds the generators of the right factor (th block ascending, then dth
    block ascending) into the left word one at a time; a th of the right
    factor meeting a dth of the word branches into its contraction and its
    juxtaposition.
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


# -- helpers ------------------------------------------------------------------------


def accumulate(out: dict, key, c):
    """out[key] += c, dropping the key when the sum is zero.

    The sum is stored in its plainest type (scalars.exact): an integral
    Rational as an int, a Scalar whose irrational part cancelled as its
    rational part.
    """
    cur = out.get(key)
    s = c if cur is None else cur + c
    if not s:
        out.pop(key, None)
    else:
        out[key] = s if type(s) is int else exact(s)


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


def _terms_str(pieces) -> str:
    """Render (body, coefficient) pairs as "c body + c body - ..."; an
    empty body is a constant term, and no pairs render as "0"."""
    out = ""
    for body, c in pieces:
        cs = str(c)
        if not body:
            piece = "(%s)" % cs if "+" in cs[1:] else cs
        elif cs == "1":
            piece = body
        elif cs == "-1":
            piece = "-" + body
        else:
            piece = ("(%s) " % cs if "+" in cs[1:] or "sqrt" in cs else cs + " ") + body
        if not out:
            out = piece
        elif piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out or "0"
