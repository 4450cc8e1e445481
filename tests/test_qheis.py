import random
from math import prod

import pytest

from fockrep.fock import Product, Scale, Sum, check_identity, identity_op, to_matrix
from fockrep.catalogue import sl2q_triple
from fockrep.qheis import QDomainError, q_alpha_hat, q_number, q_pair
from fockrep.realize import JacksonX
from fockrep.scalars import Scalar, rat
from fockrep.weyl import ModeMismatch, ModeSystem, WeylElement, multiply

from oracles import q_swap_multiply

QS = (rat(2), rat(1, 2), rat(3, 5))
B1 = ModeSystem(1, 0)


def qmono(q, k, m, c=1):
    """c b^k a^m over one q-mode at q: weyl's q-Weyl algebra."""
    return WeylElement.monomial(ModeSystem(1, 0, q), (k,), (m,), coeff=c)


def _by_exponents(element) -> dict:
    """A one-mode element's terms as {(k, m): coefficient}, the oracle's shape."""
    return {(bp[0], ap[0]): c for (bp, ap, _, _), c in element.terms.items()}


def test_defining_relation():
    q = rat(2)
    at, bt = qmono(q, 0, 1), qmono(q, 1, 0)
    assert multiply(at, bt) == qmono(q, 1, 1, Scalar(q)) + WeylElement.one(at.modes)


def test_two_swap_example():
    # at bt^2 = q^2 bt^2 at + (1+q) bt
    q = rat(3, 5)
    got = multiply(qmono(q, 0, 1), qmono(q, 2, 0))
    expected = qmono(q, 2, 1, Scalar(q * q)) + qmono(q, 1, 0, Scalar(1 + q))
    assert got == expected


def test_q_multiply_matches_swap_oracle():
    # the q-rule off criterion 7's q values: a negative q, q = 0 (a b = 1)
    # and a q above 2
    for q in (rat(-2), rat(0), rat(7, 3)):
        monos = [(k, m) for k in range(5) for m in range(5)]
        for k1, m1 in monos:
            x = qmono(q, k1, m1)
            for k2, m2 in monos:
                y = qmono(q, k2, m2)
                assert _by_exponents(multiply(x, y)) == \
                    q_swap_multiply({(k1, m1): 1}, {(k2, m2): 1}, q), (q, k1, m1, k2, m2)


def test_reorder_degenerates_to_weyl_at_q_one():
    # the q-rule's coefficient of b^(k-j) a^(m-j) in a^m b^k, q^((m-j)(k-j))
    # [m]_(j) [k]_(j) / [j]_(j) with the falling products [n]_(j) =
    # [n]...[n-j+1] of [i]_q = 1 + q + ... + q^(i-1), is a polynomial in q:
    # at every q of QS it is the q-mode's product, and at q = 1 the
    # canonical one, C(m,j) C(k,j) j!
    def coefficient(m, k, j, q):
        def falling(n, e):
            return prod((sum(q ** i for i in range(n - i2)) for i2 in range(e)), start=rat(1))
        return q ** ((m - j) * (k - j)) * falling(m, j) * falling(k, j) / falling(j, j)

    for q in (rat(1),) + QS:
        for m in range(5):
            for k in range(5):
                got = _by_exponents(multiply(qmono(q, 0, m), qmono(q, k, 0)))
                assert got == {(k - j, m - j): coefficient(m, k, j, q)
                               for j in range(min(m, k) + 1)}, (q, m, k)


def test_q_multiply_associative():
    rng = random.Random(5)
    for q in QS:
        for _ in range(20):
            elems = []
            for _ in range(3):
                e = WeylElement.zero(ModeSystem(1, 0, q))
                for _ in range(2):
                    e = e + qmono(q, rng.randint(0, 2), rng.randint(0, 2),
                                  rng.randint(-3, 3))
                elems.append(e)
            x, y, z = elems
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_q_mismatch_and_q_minus_one_rejected():
    # q = -1 makes [2]_q = 1 + q vanish, so its Fock module is not faithful;
    # q = 1 is the canonical system itself, and two q's never mix
    with pytest.raises(ValueError, match="q = -1"):
        ModeSystem(1, 0, -1)
    assert ModeSystem(1, 0, rat(1)) == B1
    with pytest.raises(ModeMismatch):
        multiply(qmono(rat(2), 0, 1), qmono(rat(3), 1, 0))
    with pytest.raises(ModeMismatch):
        multiply(qmono(rat(2), 0, 1), WeylElement.b(B1))


def test_q_numbers():
    assert q_number(3, rat(2)) == 7
    for q in QS:
        assert q_number(0, q) == 0
        assert q_number(1, q) == 1
    # {3} via the sum form 1 + q + q^2
    q = rat(3, 5)
    assert q_number(3, q) == 1 + q + q * q
    with pytest.raises(QDomainError):
        q_number(2, rat(1))
    with pytest.raises(QDomainError):
        q_number(rat(1, 2), rat(2))


def test_alpha_hat():
    assert q_alpha_hat(1, rat(2)) == rat(1, 5)
    with pytest.raises(QDomainError):
        q_alpha_hat(-1, rat(2))  # {2a+2} = {0} = 0


def jackson_apply(q, poly):
    """JacksonX on one variable, with polynomials as dicts power -> Scalar."""
    modes = ModeSystem(1, 0)
    out = JacksonX(modes, 1, q).apply({((k,), 0): c for k, c in poly.items()})
    return {e[0]: c for (e, _), c in out.items()}


def test_jackson_on_monomials():
    q = rat(2)
    assert jackson_apply(q, {3: 1}) == {2: Scalar(7)}
    assert jackson_apply(q, {0: Scalar(5)}) == {}
    assert jackson_apply(q, {1: 1}) == {0: 1}
    for q in QS:
        for k in range(1, 9):
            assert jackson_apply(q, {k: 1}) == {k - 1: Scalar(q_number(k, q))}


def test_spectral_embedding_action():
    at, _ = q_pair(B1, 1, rat(2), 0)
    assert at.apply({((3,), 0): 1}) == {((2,), 0): 7}


def _q_relation_holds(at, bt, q, cutoff=8):
    modes = at.modes
    lhs = Sum([Product([at, bt]), Scale(Scalar(-q), Product([bt, at]))])
    return check_identity(lhs, identity_op(modes), cutoff).equal


def test_embeddings_satisfy_deformed_relation():
    for q in QS:
        at, bt = q_pair(B1, 1, q, 0)
        assert _q_relation_holds(at, bt, q)
        for delta in (rat(1), rat(1, 2), rat(-1, 3)):
            at, bt = q_pair(B1, 1, q, delta)
            assert _q_relation_holds(at, bt, q)


def test_both_embeddings_leave_degree_n_space_invariant():
    for q in QS:
        for n in range(4):
            for delta in (0, rat(1, 2)):
                modes = ModeSystem(1, 0)
                gens = sl2q_triple(*q_pair(modes, 1, q, delta), n, q, identity_op(modes))
                for name, g in gens.items():
                    for k in range(n + 1):
                        image = g.apply({((k,), 0): 1})
                        assert all(alpha[0] <= n for alpha, _ in image), \
                            (q, n, delta, name, k)


def test_jackson_matches_spectral_matrices():
    from fockrep.realize import poly_to_matrix

    modes = ModeSystem(1, 0)
    for q in QS:
        at, _ = q_pair(B1, 1, q, 0)
        spectral = to_matrix(at, 8)
        jackson = poly_to_matrix(JacksonX(modes, 1, q), 8)
        assert spectral.basis == jackson.basis
        assert spectral.cols == jackson.cols
