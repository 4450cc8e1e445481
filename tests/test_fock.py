import ast
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fockrep import fock
from fockrep.catalogue import build, shift_pair
from fockrep.scalars import SQRT2, Scalar, exact, rat
from fockrep.fock import (Compiled, ExpA, LeftDivB, NotLeftDivisible, OperatorExpr, Poly,
                          Product, QSpectral, Scale, Sum, basis_states, check_identity,
                          identity_op, shared, state_sort_key, to_matrix, vector_str)
from fockrep.linalg import mat_mul
from fockrep.qheis import q_pair
from fockrep.verify import casimir_check, closure, invariant_subspace
from fockrep.weyl import ModeSystem, WeylElement, accumulate, act

from oracles import swap_multiply

B1 = ModeSystem(1, 0)
B2 = ModeSystem(2, 0)
SUPER = ModeSystem(1, 1)


def state(ms, alpha=(), beta=(), coeff=1):
    """coeff b^alpha th^beta |0> as a Fock-vector dict; alpha is padded with
    zeros and beta lists the occupied fermionic levels."""
    alpha = tuple(alpha) + (0,) * (ms.bosonic - len(alpha))
    c = exact(coeff)
    return {(alpha, sum(1 << (j - 1) for j in beta)): c} if c else {}


def vacuum(ms):
    return state(ms)


def lincomb(*pairs):
    """The Fock-vector dict sum of c * vec over (c, vec) pairs."""
    out = {}
    for c, vec in pairs:
        for key, v in vec.items():
            accumulate(out, key, c * v)
    return out


def b_state(k, coeff=1):
    return state(B1, (k,), coeff=coeff)


def test_lowering_action():
    a = Poly(WeylElement.a(B1))
    assert a.apply(b_state(3)) == b_state(2, 3)
    assert a.apply(vacuum(B1)) == {}


def test_fermionic_action():
    dth = Poly(WeylElement.dtheta(SUPER, 1))
    th_state = state(SUPER, (0,), (1,))
    assert dth.apply(th_state) == vacuum(SUPER)
    assert dth.apply(vacuum(SUPER)) == {}


def test_normal_ordered_action_is_multiplicative():
    # apply(Poly(X*Y), v) == apply(Poly(X), apply(Poly(Y), v))
    rng = random.Random(3)
    ms = ModeSystem(2, 1)
    pool = [WeylElement.b(ms, 1), WeylElement.a(ms, 1), WeylElement.b(ms, 2),
            WeylElement.a(ms, 2), WeylElement.theta(ms, 1), WeylElement.dtheta(ms, 1)]
    for _ in range(30):
        x = sum((p.scale(rng.randint(-2, 2)) for p in rng.sample(pool, 3)),
                WeylElement.zero(ms)) + WeylElement.one(ms)
        y = sum((p * q for p, q in zip(rng.sample(pool, 2), rng.sample(pool, 2))),
                WeylElement.zero(ms))
        for key in basis_states(ms, 4):
            v = {key: 1}
            assert Poly(x * y).apply(v) == Poly(x).apply(Poly(y).apply(v))


def _random_element(rng, ms):
    """A sum of up to four random monomials, exponents and fermion sets
    drawn independently, each with a coefficient 1, -2, 3/5 or 1 + sqrt2."""
    def mask():
        return [j for j in range(1, ms.fermionic + 1) if rng.random() < 0.5]

    w = WeylElement.zero(ms)
    for _ in range(rng.randint(1, 4)):
        w = w + WeylElement.monomial(
            ms, [rng.randint(0, 2) for _ in range(ms.bosonic)],
            [rng.randint(0, 2) for _ in range(ms.bosonic)], mask(), mask(),
            rng.choice([1, -2, rat(3, 5), Scalar(1, 1)]))
    return w


def _image_by_multiplying(w, key):
    """w b^alpha th^beta |0> by the oracle's single-swap normal form of the
    product in the algebra: a term with an a or a dth kills the vacuum,
    every other one is a state."""
    (alpha, beta), ms = key, w.modes
    monomial = WeylElement.monomial(ms, alpha, (), [j for j in range(1, ms.fermionic + 1)
                                                    if beta >> (j - 1) & 1])
    return {(bp, th): c for (bp, ap, th, dth), c in swap_multiply(w, monomial).terms.items()
            if not any(ap) and not dth}


@pytest.mark.parametrize("ms", [B1, ModeSystem(2, 1), ModeSystem(3, 2), ModeSystem(1, 3),
                                ModeSystem(2, 1, rat(3, 5))],
                         ids=["1+0", "2+1", "3+2", "1+3", "2+1 q=3/5"])
def test_poly_apply_matches_the_product_in_the_algebra(ms):
    # an oracle for Poly.apply and weyl.act that shares none of their code:
    # each monomial's image of a state is read off the single-swap normal
    # form of its product with the state's monomial, under the mode
    # system's rule, and it is the one term that act gives, or nothing
    # where act gives None; an int on canonical modes.  The oracle's image
    # is formed once per (monomial, state), as draws repeat both
    rng = random.Random(20)
    keys = basis_states(ms, 3)
    oracle = {}
    for _ in range(200):
        w = _random_element(rng, ms)
        op = Poly(w)
        images = {}
        for key in keys:
            parts = []
            for mono, c in w.terms.items():
                image = oracle.get((mono, key))
                if image is None:
                    image = oracle[mono, key] = _image_by_multiplying(
                        WeylElement(ms, {mono: 1}), key)
                hit = act(mono, key, ms.q)
                if hit is None:
                    assert image == {}, (mono, key)
                else:
                    assert hit[1] and (type(hit[1]) is int or ms.q != 1), (mono, key)
                    assert image == {hit[0]: hit[1]}, (mono, key)
                parts.append((c, image))
            images[key] = lincomb(*parts)
            assert op.apply({key: 1}) == images[key], (str(w), key)
        picked = rng.sample(keys, 3)
        coeffs = [rat(-1, 2), 3, SQRT2]
        assert op.apply(lincomb(*((c, {k: 1}) for c, k in zip(coeffs, picked)))) == \
            lincomb(*((c, images[k]) for c, k in zip(coeffs, picked)))


def _shifted_power(k, gamma):
    """(b + gamma)^k |0>, multiplied out by weyl."""
    power = (WeylElement.b(B1) + WeylElement.scalar(B1, gamma)) ** k
    return {(bp, th): c for (bp, ap, th, dth), c in power.terms.items()}


def test_expa_shift_action():
    # e^{-d a} b^k |0> = (b - d)^k |0>
    delta = rat(1, 2)
    e = ExpA(B1, 1, Scalar(-delta))
    got = e.apply(b_state(2))
    expected = {
        ((2,), 0): 1,
        ((1,), 0): Scalar(-1),  # 2 * (-1/2)
        ((0,), 0): Scalar(rat(1, 4)),
    }
    assert got == expected
    # e^{gamma a} b^k |0> = (b + gamma)^k |0> for k <= 10, against weyl's
    # products; every exponent twice, so the second reads the kept row
    for gamma in (1, rat(1, 2), rat(-1, 3), Scalar(rat(1, 2), 1)):
        e = ExpA(B1, 1, gamma)
        for k in list(range(11)) * 2:
            assert e.apply(b_state(k)) == _shifted_power(k, gamma), (gamma, k)
        # a vector of several states, with Fraction coefficients
        coeffs = {3: rat(2, 3), 0: rat(-5, 7), 7: rat(1, 4), 10: 3}
        vec = {((k,), 0): c for k, c in coeffs.items()}
        assert e.apply(vec) == lincomb(*((c, _shifted_power(k, gamma))
                                         for k, c in coeffs.items())), gamma


def test_bhat_builds_falling_factorials():
    # bhat = b e^{-d a}; bhat^2 |0> = b(b-d)|0>
    delta = rat(1)
    bhat = Product([Poly(WeylElement.b(B1)), ExpA(B1, 1, Scalar(-delta))])
    v = bhat.apply(bhat.apply(vacuum(B1)))
    assert v == {((2,), 0): 1, ((1,), 0): Scalar(-1)}


def test_expa_inverse_pairs():
    gamma = Scalar(rat(2, 3))
    e1, e2 = ExpA(B1, 1, gamma), ExpA(B1, 1, -gamma)
    for k in range(9):
        v = b_state(k)
        assert e1.apply(e2.apply(v)) == v


def test_falling_factorial_round_trip():
    # at q = 1 QSpectral is the monomial -> Newton -> monomial round trip
    rng = random.Random(11)
    for delta in (rat(1), rat(1, 2), rat(-1, 3)):
        op = QSpectral(B1, 1, 1, delta)
        for _ in range(20):
            terms = {((k,), 0): Scalar(rng.randint(-5, 5)) for k in range(7)}
            v = {k: c for k, c in terms.items() if c}
            assert op.apply(v) == v


def _falling(k, delta):
    """p_k = b(b-d)...(b-(k-1)d)|0>, built as bhat^k |0>."""
    _, bhat = shift_pair(B1, 1, delta)
    return (bhat ** k).apply(vacuum(B1))


def test_falling_factorial_example():
    # b^2 = p_2 + p_1 at delta = 1 (b^2 = b(b-1) + b), so q^N b^2 = q^2 p_2 + q p_1
    q, delta = rat(3), rat(1)
    got = QSpectral(B1, 1, q, delta).apply(b_state(2))
    assert got == lincomb((q ** 2, _falling(2, delta)), (q, _falling(1, delta)))
    # degree zero is fixed
    assert QSpectral(B1, 1, q, rat(2)).apply(vacuum(B1)) == vacuum(B1)


def test_qspectral_eigenbasis():
    q = rat(3, 5)
    for delta in (rat(1), rat(1, 2), rat(-1, 3)):
        op = QSpectral(B1, 1, q, delta)
        for k in range(6):
            pk = _falling(k, delta)
            assert op.apply(pk) == lincomb((Scalar(q ** k), pk)), (delta, k)


def test_qspectral_delta_zero():
    op = QSpectral(B1, 1, rat(2))
    assert op.apply(b_state(3)) == b_state(3, 8)


def test_qspectral_leaves_spectator_modes_alone():
    ms = ModeSystem(2, 1)
    q, delta = rat(2), rat(1)
    op = QSpectral(ms, 2, q, delta)
    # p_2 in mode 2, tensored with b1^3 th1: eigenvalue q^2, spectators fixed
    p2 = {((3, 2), 1): 1, ((3, 1), 1): Scalar(-1)}
    assert op.apply(p2) == lincomb((Scalar(q ** 2), p2))
    mixed = {((1, 0), 1): Scalar(5)}
    assert op.apply(mixed) == mixed  # k = 0 eigenvalue 1


def test_spectral_q_lowering():
    # (1/b)(q^{ba} - 1)/(q - 1) on b^3|0> with q=2 gives {3} b^2 = 7 b^2
    q = rat(2)
    qpart = Scale(Scalar(q - 1).inverse(),
                  Sum([QSpectral(B1, 1, q), Scale(Scalar(-1), identity_op(B1))]))
    atilde = Product([LeftDivB(B1, 1), qpart])
    assert atilde.apply(b_state(3)) == b_state(2, 7)


def test_left_div_errors():
    div = LeftDivB(B1, 1)
    with pytest.raises(NotLeftDivisible):
        div.apply(vacuum(B1))
    shifted = LeftDivB(B1, 1, Scalar(rat(1)))
    # (b+1) w = b^2 + b  has w = b exactly
    v = {((2,), 0): 1, ((1,), 0): 1}
    assert shifted.apply(v) == b_state(1)
    with pytest.raises(NotLeftDivisible):
        shifted.apply(b_state(1))  # b is not (b+1) * anything polynomial


def test_str_pins_coefficient_forms():
    vec = lincomb((-1, vacuum(SUPER)), (1, state(SUPER, (2,), (1,), rat(1, 2))),
                  (1, state(SUPER, (1,), (), SQRT2)), (1, state(SUPER, (3,), (), -1)))
    assert vector_str(vec, SUPER) == "-|0> + (sqrt2) b |0> + 1/2 b^2 th |0> - b^3 |0>"
    vec = lincomb((1, state(SUPER, (1,), (1,), 1 + SQRT2)), (1, state(SUPER, (), (1,))),
                  (rat(-2, 3), vacuum(SUPER)))
    assert vector_str(vec, SUPER) == "-2/3 |0> + th |0> + (1+sqrt2) b th |0>"
    ms = ModeSystem(2, 2)
    vec = lincomb((1, state(ms, (0, 2), (1, 2), -3)), (1, state(ms, (1, 0), (2,), 1 - SQRT2)))
    assert vector_str(vec, ms) == "(1-sqrt2) b1 th2 |0> - 3 b2^2 th1 th2 |0>"
    assert vector_str({}, SUPER) == "0" and vector_str(vacuum(ms), ms) == "|0>"


def test_arithmetic_is_the_only_polynomial_fold():
    b, a = Poly(WeylElement.b(B2, 1)), Poly(WeylElement.a(B2, 2))
    for folded in (b + a, b - a, b * a, b.scale(rat(2, 3)), -b, b + 2, 2 - b, 3 * b,
                   identity_op(B2) * b):
        assert type(folded) is Poly
    assert (b * a - a).as_weyl() == WeylElement.b(B2, 1) * WeylElement.a(B2, 2) \
        - WeylElement.a(B2, 2)
    # a tree built by hand stays a tree, however polynomial its leaves
    for tree in (Sum([b, a]), Product([b, a]), Scale(2, b), Scale(-1, identity_op(B2)),
                 Sum([b, a]) + b, Product([b, a]).scale(2)):
        assert tree.as_weyl() is None


def test_to_matrix_lowering():
    m = to_matrix(Poly(WeylElement.a(B1)), 2)
    assert [tuple(alpha) for alpha, _ in m.basis] == [(0,), (1,), (2,)]
    assert m.entry(0, 1) == 1 and m.entry(1, 2) == Scalar(2)
    assert m.overflow_columns == []


def test_to_matrix_number_operator_diagonal():
    n = 4
    j0 = Poly(WeylElement.b(B1) * WeylElement.a(B1)
              - WeylElement.scalar(B1, rat(n, 2)))
    m = to_matrix(j0, n)
    for k in range(n + 1):
        assert m.entry(k, k) == Scalar(rat(k) - rat(n, 2))


def test_to_matrix_overflow_flagging():
    op = Poly(WeylElement.b(B1))
    m = to_matrix(op, 2)
    assert m.overflow_columns == [2]
    assert op.max_raise() == 1
    # lowering operators can never overflow
    op = Poly(WeylElement.a(B1) ** 2)
    m = to_matrix(op, 3)
    assert op.max_raise() <= 0 and m.overflow_columns == []


def test_matmul_matches_product_matrix():
    # neither factor raises the degree, so the truncated matrices multiply exactly
    x = Poly(WeylElement.b(B1) * WeylElement.a(B1))
    y = Poly(WeylElement.a(B1) ** 2)

    def dense(op):
        m = to_matrix(op, 5)
        assert m.overflow_columns == []
        return [[m.entry(i, j) for j in range(m.dim)] for i in range(m.dim)]

    viamul = mat_mul(dense(x), dense(y))
    assert dense(x * y) == viamul
    assert dense(Product([x, y])) == viamul


def test_check_identity_canonical_pair():
    # [ahat, bhat] = 1 for ahat = (e^{da}-1)/d, bhat = b e^{-da}
    delta = rat(1, 2)
    ahat = Scale(Scalar(delta).inverse(),
                 Sum([ExpA(B1, 1, Scalar(delta)), Scale(Scalar(-1), identity_op(B1))]))
    bhat = Product([Poly(WeylElement.b(B1)), ExpA(B1, 1, Scalar(-delta))])
    lhs = Sum([Product([ahat, bhat]), Scale(Scalar(-1), Product([bhat, ahat]))])
    report = check_identity(lhs, identity_op(B1), 6)
    assert report.equal


def test_check_identity_mismatch_reports_witness():
    lhs = Poly(WeylElement.a(B1))
    rhs = Poly(WeylElement.a(B1) + WeylElement.one(B1))
    report = check_identity(lhs, rhs, 4)
    assert not report.equal
    assert report.witness_state is not None
    assert report.lhs_value != report.rhs_value


def test_basis_state_ordering():
    ms = ModeSystem(2, 1)
    states = basis_states(ms, 2)
    degrees = [sum(alpha) + beta.bit_count() for alpha, beta in states]
    assert degrees == sorted(degrees)
    assert states[0] == ((0, 0), 0)
    assert len(states) == len(set(states))


def test_basis_states_is_one_shared_tuple_per_key():
    # enumerated and sorted once per (modes, cutoff); to_matrix uses the same
    # tuple, and an independent enumeration gives the same states in order
    for p, r in ((1, 0), (2, 1), (3, 2)):
        for cutoff in range(6):
            states = basis_states(ModeSystem(p, r), cutoff)
            assert isinstance(states, tuple)
            assert basis_states(ModeSystem(p, r), cutoff) is states
            want = sorted(((alpha, sum(bit << j for j, bit in enumerate(bits)))
                           for alpha in product(range(cutoff + 1), repeat=p)
                           for bits in product((0, 1), repeat=r)
                           if sum(alpha) + sum(bits) <= cutoff), key=state_sort_key)
            assert list(states) == want, (p, r, cutoff)
            assert to_matrix(identity_op(ModeSystem(p, r)), cutoff).basis is states


def test_check_identity_walks_the_patchable_basis_states(monkeypatch):
    # the benchmark counts probed states by patching fock.basis_states, so
    # check_identity must look it up at call time and iterate what it returns
    real = fock.basis_states
    walked = []

    def counting(modes, cutoff):
        for key in real(modes, cutoff):
            walked.append(key)
            yield key

    monkeypatch.setattr(fock, "basis_states", counting)
    number = Poly(WeylElement.b(B2, 1) * WeylElement.a(B2, 1))
    assert check_identity(number, number, 3)
    assert walked == list(real(B2, 3))
    walked.clear()
    report = check_identity(number, number.scale(2), 3)
    assert walked == list(real(B2, 3))[:walked.index(report.witness_state) + 1]
    assert walked[-1] == ((1, 0), 0)


def test_matrix_json_round_trip_shape():
    m = to_matrix(Poly(WeylElement.a(B1)), 2)
    data = m.to_json()
    assert data["cutoff"] == 2
    assert data["overflow_columns"] == []
    assert data["matrix"][0][1] == {"r": "1"}
    assert data["basis"][1] == {"b": [1], "theta": []}


# -- Compiled ------------------------------------------------------------------


def _compile_cases(ms):
    """One operator of each kind the catalogue builds from, over ms."""
    b, a = Poly(WeylElement.b(ms)), Poly(WeylElement.a(ms))
    if ms.fermionic:
        other = Poly(WeylElement.theta(ms) * WeylElement.dtheta(ms))
    else:
        other = Poly(WeylElement.b(ms, 2) * WeylElement.a(ms, 1))
    ahat, bhat = shift_pair(ms, 1, rat(1, 2))
    return {
        "poly": b * b * a + a.scale(3) + other,
        "expa": ExpA(ms, 1, rat(2, 3)),
        "qspectral": QSpectral(ms, 1, rat(3, 5)),
        "qspectral_shifted": QSpectral(ms, 1, 2, rat(1, 2)),
        "shift_pair": bhat * ahat,
        "tree": Sum([Product([ExpA(ms, 1, -1), b]),
                     Scale(SQRT2, QSpectral(ms, 1, 2, 1)), other.scale(rat(-1, 3))]),
    }


_coeffs = st.builds(lambda p, q, s: Scalar(rat(p, q), rat(s, 2)),
                    st.integers(-4, 4), st.integers(1, 5), st.integers(-2, 2))


def _vectors(ms):
    keys = basis_states(ms, 4)
    return st.dictionaries(st.sampled_from(keys), _coeffs, min_size=1, max_size=5).map(
        lambda terms: {k: c for k, c in terms.items() if c})


@pytest.mark.parametrize("ms", [SUPER, B2], ids=["1+1", "2+0"])
@pytest.mark.parametrize("kind", ["poly", "expa", "qspectral", "qspectral_shifted",
                                  "shift_pair", "tree"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_compiled_equals_the_tree_walk(ms, kind, data):
    op = _compile_cases(ms)[kind]
    compiled = Compiled(op)
    assert compiled.max_raise() == op.max_raise()
    assert (compiled.as_weyl() is None) == (op.as_weyl() is None)
    vec = data.draw(_vectors(ms))
    expected = op.apply(vec)
    assert compiled.apply(vec) == expected
    assert compiled.apply(vec) == expected
    for key in vec:
        unit = {key: 1}
        assert compiled.apply(unit) == op.apply(unit)


class _CountingRaise(OperatorExpr):
    """inner, counting how often its raise bound is asked."""

    def __init__(self, inner):
        self.modes, self.inner, self.asked = inner.modes, inner, 0

    def max_raise(self):
        self.asked += 1
        return self.inner.max_raise()

    def apply(self, terms):
        return self.inner.apply(terms)


def test_compiled_asks_its_inner_raise_bound_once():
    for op in _compile_cases(B2).values():
        counting = _CountingRaise(op)
        compiled = Compiled(counting)
        assert [compiled.max_raise() for _ in range(3)] == [op.max_raise()] * 3
        assert Sum([compiled, compiled]).max_raise() == op.max_raise()
        assert counting.asked == 1


def test_shared_compiles_an_extended_node_and_lets_a_polynomial_fold():
    plus = Poly(WeylElement.b(B1) + WeylElement.one(B1))
    shift = ExpA(B1, 1, rat(1, 2))
    assert shared(plus) is plus and (shared(plus) * plus).as_weyl() is not None
    wrapped = shared(shift)
    assert isinstance(wrapped, Compiled) and wrapped.inner is shift
    assert shared(wrapped) is wrapped
    # (b + 1)^-1 applied to (b + 1) v: the product is defined on every
    # state, and compiles to its own matrix
    div = LeftDivB(B1, 1, 1)
    product = Product([div, plus])
    assert to_matrix(shared(product), 5).cols == to_matrix(product, 5).cols
    # but the division alone is not (b^2 is not a multiple of b + 1): a
    # Compiled node splits a vector into basis states, so it fails where
    # the bare node does not, which is why shared must never be given one
    assert div.apply(plus.apply(b_state(1))) == b_state(1)
    with pytest.raises(NotLeftDivisible):
        Compiled(div).apply(plus.apply(b_state(1)))
    # the q-pair's lowering node holds a LeftDivB by b, defined on its image
    for delta in (0, rat(1, 2)):
        atilde, _ = q_pair(B1, 1, rat(2), delta)
        assert to_matrix(shared(atilde), 5).cols == to_matrix(atilde, 5).cols


def _compiled_calls(tree) -> list:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and "Compiled" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_only_shared_makes_a_compiled_node():
    # a Compiled(...) call anywhere in the library is the one inside fock.shared
    library = Path(fock.__file__).parent
    calls = {path.stem: _compiled_calls(ast.parse(path.read_text()))
             for path in sorted(library.glob("*.py"))}
    shared_def, = (node for node in ast.parse(Path(fock.__file__).read_text()).body
                   if isinstance(node, ast.FunctionDef) and node.name == "shared")
    assert len(_compiled_calls(shared_def)) == 1
    assert {stem: len(found) for stem, found in calls.items() if found} == {"fock": 1}


def test_compiled_images_survive_their_consumers():
    # a unit state's image is the cached column itself, so every consumer
    # must build a new vector instead of writing into it
    ahat, bhat = shift_pair(SUPER, 1, rat(1, 2))
    op = Compiled(bhat * ahat + Poly(WeylElement.theta(SUPER) * WeylElement.dtheta(SUPER)))
    unit = state(SUPER, (3,), (1,))
    image = op.apply(unit)
    assert len(image) > 1 and op.apply(unit) is image
    before = dict(image)
    other = state(SUPER, (2,), (1,), coeff=3)
    results = [Sum([op, op.scale(2)]).apply(unit), Sum([op, op]).apply(image),
               Scale(rat(5, 7), op).apply(unit), Product([op, op]).apply(unit),
               op.apply(lincomb((1, unit), (1, other))), op.apply(lincomb((2, unit)))]
    assert all(results)
    assert to_matrix(op, 5).dim and not check_identity(op, op.scale(2), 5)
    assert op.apply(unit) is image and image == before


def test_compiled_columns_survive_the_checks():
    # closure, casimir_check and invariant_subspace read the generators'
    # cached columns; every column must be as it was made
    rep = build("sl2_translated", {"n": 3, "delta": rat(1, 2)})
    keys = basis_states(rep.modes, rep.default_cutoff + 2 * rep.max_generator_raise())
    before = {(name, key): dict(g.column(key))
              for name, g in rep.generators.items() for key in keys}
    assert closure(rep)[1].passed
    measured, checks, _ = casimir_check(rep)
    assert measured is not None and checks and all(c.passed for c in checks)
    assert invariant_subspace(rep)[1].passed
    assert all(rep.generators[name].column(key) == col
               for (name, key), col in before.items())


# -- scaling -------------------------------------------------------------------


def test_scale_by_one_returns_the_operator_itself():
    b, a = Poly(WeylElement.b(B2, 1)), Poly(WeylElement.a(B2, 2))
    for op in (b, Compiled(b), Compiled(ExpA(B2, 1, 2)), Sum([b, a]), Product([b, a]),
               Scale(rat(1, 2), ExpA(B2, 1, 2)), identity_op(B2)):
        assert op.scale(1) is op and op.scale(rat(1)) is op and 1 * op is op
        assert op.scale(-1) is not op


@pytest.mark.parametrize("ms", [SUPER, B2], ids=["1+1", "2+0"])
@pytest.mark.parametrize("c", [-1, rat(1, 3), 1 + SQRT2], ids=["-1", "1/3", "1+sqrt2"])
def test_sum_applies_a_scaled_part_as_its_scaled_image(ms, c):
    cases = _compile_cases(ms)
    b = cases["tree"]
    for name, a in cases.items():
        op = Sum([Scale(c, a), b])
        for key in basis_states(ms, 4):
            vec = {key: 1}
            assert op.apply(vec) == lincomb((c, a.apply(vec)), (1, b.apply(vec))), \
                (name, key)
