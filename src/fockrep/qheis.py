"""The q-deformed Heisenberg algebra and its Fock-space embeddings.

Abstract level: QWeylElement holds q-normal-ordered polynomials in a pair
with  atil btil - q btil atil = 1,  canonical monomials btil^k atil^m.
Fock level: q_pair embeds the pair as operator expressions acting on the
Fock space of one mode, either spectrally (q^{b a} built directly)
or through the shift transform and its falling-factorial eigenbasis.
"""

from __future__ import annotations

from functools import lru_cache

from .fock import ExpA, LeftDivB, Poly, Product, QSpectral, Scale, Sum, identity_op
from .scalars import Rational, exact, inverse, rat
from .weyl import ModeSystem, WeylElement, accumulate


class QDomainError(ValueError):
    pass


def q_integer(j: int, q: Rational) -> Rational:
    """The q-analogue of the integer j, defined for every q including 1."""
    q = rat(q)
    if q == 1:
        return rat(j)
    return (1 - q ** j) / (1 - q)


def q_number(alpha, q) -> Rational:
    """{alpha} = (1 - q^alpha)/(1 - q); alpha must be an integer, q != 1."""
    q = rat(q)
    if q == 1:
        raise QDomainError("q = 1 not allowed")
    alpha = rat(alpha)
    if alpha.denominator != 1:
        raise QDomainError("q^alpha leaves the rationals for non-integer alpha")
    return q_integer(int(alpha), q)


def q_alpha_hat(alpha, q) -> Rational:
    """{alpha}{alpha+1}/{2 alpha + 2}, defined when {2 alpha + 2} != 0."""
    alpha = rat(alpha)
    if alpha.denominator != 1:
        raise QDomainError("q^alpha leaves the rationals for non-integer alpha")
    a = int(alpha)
    den = q_number(2 * a + 2, q)
    if den == 0:
        raise QDomainError("{2 alpha + 2} = 0 at alpha = %s" % alpha)
    return q_number(a, q) * q_number(a + 1, q) / den


@lru_cache(maxsize=None)
def _reorder(m: int, k: int, q: Rational):
    """atil^m btil^k as a tuple of ((k', m'), Rational) in normal order.

    One atil is moved at a time with atil btil^j = q^j btil^j atil + {j} btil^(j-1),
    i.e. grouped single swaps; the literal adjacent-swap oracle lives in the
    test suite.
    """
    if m == 0:
        return (((k, 0), rat(1)),)
    terms = {}
    for (j, l), c in _reorder(m - 1, k, q):
        key = (j, l + 1)
        terms[key] = terms.get(key, rat(0)) + c * q ** j
        if j:
            key = (j - 1, l)
            terms[key] = terms.get(key, rat(0)) + c * q_integer(j, q)
    return tuple(sorted((key, c) for key, c in terms.items() if c != 0))


class QWeylElement:
    """q-normal-ordered polynomial in the deformed pair; immutable."""

    __slots__ = ("q", "terms")

    def __init__(self, q, terms: dict):
        q = rat(q)
        if q == 1:
            raise QDomainError("q = 1 delegates to the undeformed algebra")
        self.q = q
        self.terms = terms  # (k, m) -> coefficient

    @staticmethod
    def zero(q) -> "QWeylElement":
        return QWeylElement(q, {})

    @staticmethod
    def monomial(q, k=0, m=0, coeff=1) -> "QWeylElement":
        c = exact(coeff)
        return QWeylElement(q, {(k, m): c} if c else {})

    @staticmethod
    def one(q):
        return QWeylElement.monomial(q)

    @staticmethod
    def btil(q):
        return QWeylElement.monomial(q, k=1)

    @staticmethod
    def atil(q):
        return QWeylElement.monomial(q, m=1)

    def _check(self, other):
        if self.q != other.q:
            raise QDomainError("q mismatch: %s vs %s" % (self.q, other.q))

    def __add__(self, other):
        if not isinstance(other, QWeylElement):
            other = QWeylElement.monomial(self.q, coeff=other)
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(terms, key, c)
        return QWeylElement(self.q, terms)

    def __sub__(self, other):
        if not isinstance(other, QWeylElement):
            other = QWeylElement.monomial(self.q, coeff=other)
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "QWeylElement":
        c = exact(c)
        if not c:
            return QWeylElement.zero(self.q)
        return QWeylElement(self.q, {key: exact(v * c) for key, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, QWeylElement):
            return self.scale(other)
        return q_multiply(self, other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int):
        out = QWeylElement.one(self.q)
        for _ in range(n):
            out = q_multiply(out, self)
        return out

    def __eq__(self, other):
        return isinstance(other, QWeylElement) and self.q == other.q \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.q, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (k, m), c in sorted(self.terms.items()):
            body = " ".join((["bt^%d" % k if k > 1 else "bt"] if k else [])
                            + (["at^%d" % m if m > 1 else "at"] if m else []))
            bits.append("%s %s" % (c, body) if body else str(c))
        return " + ".join(bits)

    __repr__ = __str__


def q_multiply(x: QWeylElement, y: QWeylElement) -> QWeylElement:
    x._check(y)
    terms: dict = {}
    for (k1, m1), c1 in x.terms.items():
        for (k2, m2), c2 in y.terms.items():
            base = c1 * c2
            for (j, l), w in _reorder(m1, k2, x.q):
                accumulate(terms, (k1 + j, l + m2), base * w)
    return QWeylElement(x.q, terms)


# -- Fock-space embeddings ---------------------------------------------------------


def q_number_op(modes: ModeSystem, mode: int, q: Rational, delta: Rational):
    """{N}_q = (q^N - 1)/(q - 1) for the number operator N of the pair in
    `mode`, shift-transformed when delta != 0 (see fock.QSpectral)."""
    q = rat(q)
    return Scale(inverse(q - 1), Sum([QSpectral(modes, mode, q, delta),
                                      Scale(-1, identity_op(modes))]))


def q_pair(modes: ModeSystem, mode: int, q: Rational, delta: Rational):
    """The q-deformed pair (atilde, btilde) with atilde btilde - q btilde atilde = 1.

    delta = 0 is the spectral embedding over the plain pair; nonzero delta
    first applies the shift transform, acting through the delta
    falling-factorial eigenbasis.
    """
    delta = rat(delta)
    qpart = q_number_op(modes, mode, q, delta)
    if delta == 0:
        atilde = Product([LeftDivB(modes, mode), qpart])
        btilde = Poly(WeylElement.b(modes, mode))
    else:
        atilde = Product([ExpA(modes, mode, delta), LeftDivB(modes, mode), qpart])
        btilde = Product([Poly(WeylElement.b(modes, mode)), ExpA(modes, mode, -delta)])
    return atilde, btilde
