import random

import pytest

from fockrep.fock import Product, Scale, Sum, check_identity, identity_op, to_matrix
from fockrep.catalogue import sl2q_triple
from fockrep.qheis import (QDomainError, QWeylElement, _reorder, q_alpha_hat, q_multiply,
                           q_number, q_pair)
from fockrep.realize import JacksonX
from fockrep.scalars import Scalar, rat
from fockrep.weyl import ModeSystem, WeylElement, multiply

from oracles import q_swap_multiply

QS = (rat(2), rat(1, 2), rat(3, 5))
B1 = ModeSystem(1, 0)


def qmono(q, k, m, c=1):
    return QWeylElement.monomial(q, k, m, c)


def test_defining_relation():
    q = rat(2)
    at, bt = QWeylElement.atil(q), QWeylElement.btil(q)
    assert q_multiply(at, bt) == qmono(q, 1, 1, Scalar(q)) + QWeylElement.one(q)


def test_two_swap_example():
    # at bt^2 = q^2 bt^2 at + (1+q) bt
    q = rat(3, 5)
    at = QWeylElement.atil(q)
    bt2 = qmono(q, 2, 0)
    got = q_multiply(at, bt2)
    expected = qmono(q, 2, 1, Scalar(q * q)) + qmono(q, 1, 0, Scalar(1 + q))
    assert got == expected


def test_q_multiply_matches_swap_oracle():
    for q in QS:
        monos = [(k, m) for k in range(5) for m in range(5)]
        for k1, m1 in monos:
            x = qmono(q, k1, m1)
            for k2, m2 in monos:
                y = qmono(q, k2, m2)
                assert q_multiply(x, y).terms == q_swap_multiply(x.terms, y.terms, q)


def test_reorder_degenerates_to_weyl_at_q_one():
    # substituting q = 1 into the reordering coefficients gives the
    # undeformed normal ordering
    ms = ModeSystem(1, 0)
    for m in range(5):
        for k in range(5):
            image = {}
            for (j, l), c in _reorder(m, k, rat(1)):
                image[((j,), (l,), 0, 0)] = c
            direct = multiply(WeylElement.a(ms) ** m, WeylElement.b(ms) ** k)
            assert image == direct.terms


def test_q_multiply_associative():
    rng = random.Random(5)
    for q in QS:
        for _ in range(20):
            elems = []
            for _ in range(3):
                e = QWeylElement.zero(q)
                for _ in range(2):
                    e = e + qmono(q, rng.randint(0, 2), rng.randint(0, 2),
                                  rng.randint(-3, 3))
                elems.append(e)
            x, y, z = elems
            assert q_multiply(q_multiply(x, y), z) == q_multiply(x, q_multiply(y, z))


def test_q_mismatch_and_q_one_rejected():
    with pytest.raises(QDomainError):
        QWeylElement.monomial(rat(1), 1, 0)
    with pytest.raises(QDomainError):
        q_multiply(QWeylElement.atil(rat(2)), QWeylElement.atil(rat(3)))


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
