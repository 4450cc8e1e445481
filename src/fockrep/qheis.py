"""The q-deformed Heisenberg algebra's numbers and its shift-transformed
Fock-space embedding.

The algebra itself, a pair with  atil btil - q btil atil = 1, is a q-mode
of weyl's one normal-form kernel (weyl.ModeSystem with q != 1), whose
Fock pair is a and b acting on b^k|0>.  q_pair embeds the pair as operator
expressions acting on the Fock space of one mode through the shift
transform and its falling-factorial eigenbasis (catalogue.q_kit states
the lemma that makes it the q-mode's pair in that basis).
"""

from __future__ import annotations

from .fock import ExpA, LeftDivB, Poly, Product, QSpectral, Scale, Sum, identity_op
from .scalars import Rational, inverse, rat
from .weyl import ModeSystem, WeylElement, q_integer


class QDomainError(ValueError):
    pass


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


# -- Fock-space embedding -----------------------------------------------------------


def q_number_op(modes: ModeSystem, mode: int, q: Rational, delta: Rational):
    """{N}_q = (q^N - 1)/(q - 1) for the number operator N of the pair in
    `mode`, shift-transformed when delta != 0 (see fock.QSpectral)."""
    q = rat(q)
    return Scale(inverse(q - 1), Sum([QSpectral(modes, mode, q, delta),
                                      Scale(-1, identity_op(modes))]))


def q_pair(modes: ModeSystem, mode: int, q: Rational, delta: Rational):
    """The q-deformed pair (atilde, btilde) with atilde btilde - q btilde atilde = 1:
    atilde = e^{delta a} b^-1 {N}_q and btilde = b e^{-delta a}, acting
    through the delta falling-factorial eigenbasis of {N}_q.  At delta = 0
    that basis is b^k|0> and the pair is (b^-1 {N}_q, b).
    """
    atilde = Product([ExpA(modes, mode, delta), LeftDivB(modes, mode),
                      q_number_op(modes, mode, q, delta)])
    btilde = Product([Poly(WeylElement.b(modes, mode)), ExpA(modes, mode, -delta)])
    return atilde, btilde
