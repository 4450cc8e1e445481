import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from fockrep import fock, weyl
from fockrep.catalogue import build
from fockrep.grids import acceptance_grid
from fockrep.scalars import SQRT2, Scalar, rat
from fockrep.verify import full_verify
from fockrep.weyl import ModeSystem, WeylElement, bracket, multiply

from oracles import swap_multiply
from pinning import check_pinned

B1 = ModeSystem(1, 0)
B2 = ModeSystem(2, 0)
SUPER = ModeSystem(1, 2)


def b(ms=B1, i=1):
    return WeylElement.b(ms, i)


def a(ms=B1, i=1):
    return WeylElement.a(ms, i)


def test_defining_relation():
    # a b = b a + 1
    assert a() * b() == b() * a() + WeylElement.one(B1)
    assert bracket(a(), b(), False) == WeylElement.one(B1)


def test_a2_b2():
    # derived via the single-swap oracle: a^2 b^2 = b^2 a^2 + 4 b a + 2
    lhs = (a() ** 2) * (b() ** 2)
    expected = b() ** 2 * a() ** 2 + (b() * a()).scale(4) + WeylElement.scalar(B1, 2)
    assert lhs == expected
    assert lhs == swap_multiply(a() ** 2, b() ** 2)


def test_distinct_bosonic_modes_commute():
    x = WeylElement.a(B2, 1)
    y = WeylElement.b(B2, 2)
    assert bracket(x, y, False).is_zero()


def test_fermionic_nilpotence_and_car():
    th = WeylElement.theta(SUPER, 1)
    dth = WeylElement.dtheta(SUPER, 1)
    assert (th * th).is_zero()
    assert dth * th == WeylElement.one(SUPER) - th * dth
    assert bracket(dth, th, True) == WeylElement.one(SUPER)
    # distinct modes anticommute
    th2 = WeylElement.theta(SUPER, 2)
    assert bracket(th, th2, True).is_zero()
    assert bracket(WeylElement.dtheta(SUPER, 1), th2, True).is_zero()


def test_sl2_standard_relation():
    n = rat(5)
    jp = b() ** 2 * a() - b().scale(n)
    j0 = b() * a() - WeylElement.scalar(B1, Scalar(n) * rat(1, 2))
    jm = a()
    assert bracket(j0, jp, False) == jp
    assert bracket(j0, jm, False) == -jm
    assert bracket(jp, jm, False) == j0.scale(-2)


def test_anticommutator_trivial():
    assert bracket(a(), a(), True) == (a() ** 2).scale(2)
    th = WeylElement.theta(SUPER, 1)
    dth = WeylElement.dtheta(SUPER, 1)
    even = WeylElement.b(SUPER) * WeylElement.a(SUPER)
    assert bracket(th, dth, True) == th * dth + dth * th == WeylElement.one(SUPER)
    assert bracket(even, th, False) == even * th - th * even
    assert bracket(th, th, True) == (th * th).scale(2)


def test_parity():
    assert (b() ** 2 * a()).parity() == 0
    x = WeylElement.b(SUPER) * WeylElement.theta(SUPER, 1)
    assert x.parity() == 1
    mixed = WeylElement.one(SUPER) + WeylElement.theta(SUPER, 1)
    assert mixed.parity() is None


def test_mode_mismatch_raises():
    with pytest.raises(ValueError):
        multiply(a(B1), WeylElement.a(B2, 1))


# -- oracle agreement ---------------------------------------------------------


def _monomials_upto(ms, bmax, amax):
    ranges = [range(bmax + 1)] * ms.bosonic + [range(amax + 1)] * ms.bosonic
    for combo in itertools.product(*ranges):
        bp = combo[:ms.bosonic]
        ap = combo[ms.bosonic:]
        yield WeylElement.monomial(ms, bp, ap)


def test_closed_form_matches_swap_oracle_bosonic():
    for x in _monomials_upto(B1, 4, 4):
        for y in _monomials_upto(B1, 4, 4):
            assert multiply(x, y) == swap_multiply(x, y)


def test_closed_form_matches_swap_oracle_two_modes():
    mons = list(_monomials_upto(B2, 2, 2))
    for x in mons:
        for y in mons:
            assert multiply(x, y) == swap_multiply(x, y)


def test_closed_form_matches_swap_oracle_fermionic():
    ms = ModeSystem(1, 2)
    fermis = []
    for th in (0, 1, 2, 3):
        for dth in (0, 1, 2, 3):
            th_list = [j + 1 for j in range(2) if th & (1 << j)]
            dth_list = [j + 1 for j in range(2) if dth & (1 << j)]
            fermis.append(WeylElement.monomial(ms, (1,), (1,), th_list, dth_list))
            fermis.append(WeylElement.monomial(ms, (0,), (0,), th_list, dth_list))
    for x in fermis:
        for y in fermis:
            assert multiply(x, y) == swap_multiply(x, y)


# -- property tests ----------------------------------------------------------

small_scalars = st.integers(-4, 4).map(Scalar)


def _elements(ms, max_terms=3, bmax=2, fermions=True):
    def build(draw_terms):
        elem = WeylElement.zero(ms)
        for bp, ap, th, dth, c in draw_terms:
            th_list = [j + 1 for j in range(ms.fermionic) if th & (1 << j)]
            dth_list = [j + 1 for j in range(ms.fermionic) if dth & (1 << j)]
            elem = elem + WeylElement.monomial(ms, bp, ap, th_list, dth_list, c)
        return elem

    term = st.tuples(
        st.tuples(*[st.integers(0, bmax)] * ms.bosonic),
        st.tuples(*[st.integers(0, bmax)] * ms.bosonic),
        st.integers(0, (1 << ms.fermionic) - 1 if fermions else 0),
        st.integers(0, (1 << ms.fermionic) - 1 if fermions else 0),
        small_scalars,
    )
    return st.lists(term, min_size=1, max_size=max_terms).map(build)


def _without_b(y, modes):
    """y with every b power on the given 0-based modes set to zero."""
    out = WeylElement.zero(y.modes)
    for (bp, ap, th, dth), c in y.terms.items():
        bp = tuple(0 if i in modes else k for i, k in enumerate(bp))
        out = out + WeylElement(y.modes, {(bp, ap, th, dth): c})
    return out


@st.composite
def _factor_pairs(draw):
    """(x, y) of up to three terms each, over canonical modes or q-modes at
    q = 3/5; y is fermion-free in a third of the draws, and in another
    third shares no contracting mode with x (no mode where x has an a and
    y a b)."""
    ms = draw(st.sampled_from([ModeSystem(0, 2), ModeSystem(2, 1), ModeSystem(3, 1),
                               ModeSystem(2, 1, rat(3, 5))]))
    x = draw(_elements(ms))
    kind = draw(st.sampled_from(["any", "bosonic right", "no contraction"]))
    y = draw(_elements(ms, fermions=kind != "bosonic right"))
    if kind == "no contraction":
        y = _without_b(y, {i for _, ap, _, _ in x.terms for i, k in enumerate(ap) if k})
    return x, y


@settings(max_examples=150, deadline=None)
@given(_factor_pairs())
def test_multiply_matches_swap_oracle_on_sums(pair):
    x, y = pair
    assert multiply(x, y) == swap_multiply(x, y)


def _swap_bracket(x, y, anti):
    xy, yx = swap_multiply(x, y), swap_multiply(y, x)
    return xy + yx if anti else xy - yx


@settings(max_examples=150, deadline=None)
@given(_factor_pairs(), st.booleans())
def test_bracket_matches_swap_oracle_on_sums(pair, anti):
    # mixed-parity sums: a pair whose juxtaposed terms do not cancel (an
    # even monomial against an odd one in an anticommutator, two odd ones
    # in a commutator) keeps it doubled
    x, y = pair
    assert bracket(x, y, anti) == _swap_bracket(x, y, anti)


def test_bracket_doubles_a_juxtaposed_term_the_sign_keeps():
    # an odd generator carrying an even monomial, as a negative-control bump
    # makes it: {b + th, dth} keeps 2 b dth; and {x, x} = 2 for x = th + dth
    ms = ModeSystem(1, 1)
    th, dth, b1 = WeylElement.theta(ms), WeylElement.dtheta(ms), WeylElement.b(ms)
    x = b1 + th
    assert bracket(x, dth, True) == _swap_bracket(x, dth, True) == \
        (b1 * dth).scale(2) + WeylElement.one(ms)
    assert bracket(x, dth, False) == _swap_bracket(x, dth, False)
    x = th + dth
    assert bracket(x, x, True) == _swap_bracket(x, x, True) == WeylElement.scalar(ms, 2)
    assert bracket(x, x, False).is_zero()


@settings(max_examples=100, deadline=None)
@given(_factor_pairs(), st.permutations([None, False, True]),
       st.lists(st.sampled_from([1, -2, rat(1, 2), SQRT2, SQRT2 + 1]), min_size=2, max_size=2))
def test_the_pair_table_holds_unit_terms_of_each_kind(pair, kinds, scales):
    # a cold table, filled in a drawn order of product, commutator and
    # anticommutator and read again under another coefficient: each result
    # is the oracle's, and every entry is a tuple of (monomial, nonzero
    # coefficient), an int on canonical modes and a rational on a q-mode,
    # one per (u, v, kind, q), so no entry keeps a caller's coefficient or
    # a Scalar, and no kind reads another kind's entry
    x, y = pair
    weyl._pair.cache_clear()
    for s in scales:
        xs = x.scale(s)
        for kind in kinds:
            if kind is None:
                assert multiply(xs, y) == swap_multiply(xs, y)
            else:
                assert bracket(xs, y, kind) == _swap_bracket(xs, y, kind)
    keys = [(u, v, kind, x.modes.q) for u in x.terms for v in y.terms for kind in kinds]
    filled = weyl._pair.cache_info()
    assert filled.currsize == filled.misses == len(keys)
    p = x.modes.bosonic
    for key in keys:
        for mono, d in weyl._pair(*key):
            assert d and type(d) in ((int,) if x.modes.q == 1 else (int, type(rat(1, 2))))
            assert len(mono) == 4 and len(mono[0]) == len(mono[1]) == p
    assert weyl._pair.cache_info().misses == filled.misses


def test_a_cold_and_a_warm_pair_table_give_the_same_reports():
    # the pair table, the action table and ExpA's binomial rows outlive
    # every rep: the full grid, sl2q's q-modes among it, reported from
    # empty tables, and again on freshly built reps from the full ones,
    # gives the pinned bytes both times, and the second pass adds no entry
    # to any of the three
    def reports():
        return json.dumps([full_verify(build(rep_id, params)).to_json()
                           for rep_id, params in acceptance_grid()],
                          indent=2, sort_keys=True) + "\n"

    tables = (weyl._pair, weyl.act, fock._binomial_row)
    for table in tables:
        table.cache_clear()
    cold = reports()
    filled = [table.cache_info().misses for table in tables]
    assert all(filled)
    warm = reports()
    assert [table.cache_info().misses for table in tables] == filled
    check_pinned("full_grid", cold)
    check_pinned("full_grid", warm)


def _act_by_folding(mono, state):
    """weyl.act read off the whole fold: the dth-free word among every word
    of _ferm_multiply(th, dth, beta, 0), contractions and juxtapositions."""
    bp, ap, th, dth = mono
    alpha, beta = state
    if any(e > k for k, e in zip(alpha, ap)):
        return None
    factor = 1
    for k, e in zip(alpha, ap):
        factor *= math.perm(k, e)
    free = [(word, sign) for (word, d), sign in weyl._ferm_multiply(th, dth, beta, 0) if not d]
    if not free:
        return None
    (beta, sign), = free
    return (tuple(k - e + b for k, e, b in zip(alpha, ap, bp)), beta), factor * sign


def test_act_forms_the_dth_free_word_of_the_whole_fold():
    # every monomial and basis state of degree <= 3 over one boson and two
    # fermionic modes: act's direct word and sign are the fold's one
    # dth-free word
    ms = ModeSystem(1, 2)
    monos = [((k,), (e,), th, dth) for k, e, th, dth in itertools.product(range(4), range(4),
                                                                          range(4), range(4))
             if k + e + th.bit_count() + dth.bit_count() <= 3]
    states = fock.basis_states(ms, 3)
    pairs = [(mono, key) for mono in monos for key in states]
    assert len(monos) == 56 and len(states) == 12
    assert all(weyl.act(mono, key, 1) == _act_by_folding(mono, key) for mono, key in pairs)
    hits = [weyl.act(mono, key, 1) for mono, key in pairs]
    assert sum(hit is not None for hit in hits) == 261
    assert sum(hit is not None and hit[1] < 0 for hit in hits) == 31


def test_bracket_matches_swap_oracle_on_the_small_grid():
    # both kinds on every generator pair of every polynomial --grid small
    # instance
    for rep_id, params in acceptance_grid(small=True):
        rep = build(rep_id, params)
        if not rep.is_polynomial():
            continue
        gens = [g.as_weyl() for g in rep.generators.values()]
        products = {(i, j): swap_multiply(x, y)
                    for i, x in enumerate(gens) for j, y in enumerate(gens)}
        for (i, j), xy in products.items():
            yx = products[(j, i)]
            assert bracket(gens[i], gens[j], True) == xy + yx
            assert bracket(gens[i], gens[j], False) == xy - yx


@settings(max_examples=60, deadline=None)
@given(_elements(SUPER), _elements(SUPER), _elements(SUPER))
def test_associativity(x, y, z):
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


@settings(max_examples=40, deadline=None)
@given(_elements(B2), _elements(B2), _elements(B2))
def test_jacobi_identity_even(x, y, z):
    total = (bracket(bracket(x, y, False), z, False)
             + bracket(bracket(y, z, False), x, False)
             + bracket(bracket(z, x, False), y, False))
    assert total.is_zero()


def _homogeneous(ms, par, rng):
    # small homogeneous-parity elements for the super-Jacobi check
    if par == 0:
        pool = [WeylElement.one(ms), WeylElement.b(ms) * WeylElement.a(ms),
                WeylElement.b(ms) ** 2,
                WeylElement.theta(ms, 1) * WeylElement.dtheta(ms, 1),
                WeylElement.theta(ms, 1) * WeylElement.theta(ms, 2)]
    else:
        pool = [WeylElement.theta(ms, 1), WeylElement.dtheta(ms, 2),
                WeylElement.b(ms) * WeylElement.theta(ms, 2),
                WeylElement.a(ms) * WeylElement.dtheta(ms, 1)]
    elem = WeylElement.zero(ms)
    for w in pool:
        elem = elem + w.scale(rng.randint(-2, 2))
    return elem if not elem.is_zero() else pool[0]


def test_super_jacobi():
    import random

    rng = random.Random(7)
    for _ in range(25):
        parities = [rng.randint(0, 1) for _ in range(3)]
        x, y, z = (_homogeneous(SUPER, p, rng) for p in parities)
        px, py, pz = parities
        sign_xz = -1 if (px * pz) % 2 else 1
        sign_yx = -1 if (py * px) % 2 else 1
        sign_zy = -1 if (pz * py) % 2 else 1
        # the graded bracket: {u, v} for two odd elements, else [u, v]
        def graded(u, v):
            return bracket(u, v, u.parity() == v.parity() == 1)

        total = (graded(graded(x, y), z).scale(sign_xz)
                 + graded(graded(y, z), x).scale(sign_yx)
                 + graded(graded(z, x), y).scale(sign_zy))
        assert total.is_zero(), (parities, total)


def test_oscillator_pair_is_canonical():
    # hatted pair (b+a)/s2, (b-a)/s2 keeps [a, b] = 1
    s2inv = SQRT2.inverse()
    ahat = (b() + a()).scale(s2inv)
    bhat = (b() - a()).scale(s2inv)
    assert bracket(ahat, bhat, False) == WeylElement.one(B1)


def test_str_rendering():
    expr = b() ** 2 * a() - b().scale(3)
    assert str(expr) == "3 b - b^2 a" or str(expr) == "-3 b + b^2 a"


def test_str_pins_coefficient_forms():
    ms = ModeSystem(1, 1)
    b1, a1 = WeylElement.b(ms), WeylElement.a(ms)
    th, dth = WeylElement.theta(ms, 1), WeylElement.dtheta(ms, 1)
    const = lambda c: WeylElement.scalar(ms, c)
    assert str(b1 * b1 * a1 - b1 + (th * dth).scale(rat(1, 2)) + (b1 * th).scale(SQRT2)
               - const(rat(2, 3))) == "-2/3 - b + 1/2 th dth + (sqrt2) b th + b^2 a"
    assert str(a1.scale(SQRT2 + 1) + th + const(SQRT2 + 1)) == "(1+sqrt2) + th + (1+sqrt2) a"
    assert str(-a1 + const(1 - SQRT2) + dth.scale(rat(-5, 3))) == "1-sqrt2 - 5/3 dth - a"
    assert str(const(-1)) == "-1" and str(WeylElement.zero(ms)) == "0"
    assert str(const(SQRT2 - 1)) == "(-1+sqrt2)"
    ms = ModeSystem(2, 2)
    assert str(-(b(ms, 1) * a(ms, 2)) + WeylElement.theta(ms, 2) * WeylElement.dtheta(ms, 1)
               + b(ms, 2) ** 3) == "th2 dth1 - b1 a2 + b2^3"
