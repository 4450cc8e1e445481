import pytest

from fockrep.catalogue import FORMULAS, build
from fockrep.fock import (FockVector, OperatorExpr, Poly, basis_states,
                          check_identity, identity_op, state_degree, to_matrix)
from fockrep.realize import (Cliff, CliffordMatrices, Dminus, Dplus, JacksonX,
                             MultX, Partial, RealizeError, ShiftX,
                             check_fd_displayed, cross_check, fd_pair,
                             poly_to_matrix, q_pair_fd, realize_generators,
                             weyl_to_differential)
from fockrep.scalars import ONE, Scalar, rat
from fockrep.weyl import ModeSystem

B1 = ModeSystem(1, 0)


def poly1(coeffs):
    """dict x^k -> coeff in the one-variable spinorless space."""
    return FockVector(B1, {((k,), 0): Scalar.of(c) for k, c in coeffs.items()
                           if Scalar.of(c)})


def test_shift_is_terminating_exponential():
    # f(x+d) = sum_j d^j f^(j)/j! on polynomials, degree <= 8
    from math import factorial

    delta = rat(1, 3)
    shift = ShiftX(B1, 1, Scalar(delta))
    for k in range(9):
        f = poly1({k: 1})
        series = {}
        term = f
        for j in range(k + 1):
            for key, c in term.terms.items():
                coeff = c * Scalar(delta ** j) * Scalar(rat(1, factorial(j)))
                series[key] = series.get(key, Scalar(0)) + coeff
            term = Partial(B1, 1).apply(term)
        series = {k2: v for k2, v in series.items() if not v.is_zero()}
        assert shift.apply(f).terms == series


def test_dminus_is_dplus_negated():
    delta = Scalar(rat(1, 2))
    f = poly1({3: 1, 1: 2})
    assert Dminus(B1, 1, delta).apply(f) == Dplus(B1, 1, -delta).apply(f)


def test_shift_multiplied_form():
    # x(1 - d Dminus) f = x f(x - d)
    delta = Scalar(rat(2, 3))
    op = MultX(B1, 1) * (identity_op(B1) + Dminus(B1, 1, delta).scale(-delta))
    direct = MultX(B1, 1) * ShiftX(B1, 1, -delta)
    for k in range(7):
        f = poly1({k: 1})
        assert op.apply(f) == direct.apply(f)


def test_fd_pair_is_canonical():
    # [D+, x(1 - d D-)] = 1 on polynomials of degree <= 6
    for delta in (rat(1), rat(1, 2), rat(-1, 3)):
        a, b = fd_pair(B1, 1, delta)
        comm = a * b + (b * a).scale(Scalar(-1))
        for k in range(7):
            f = poly1({k: 1})
            assert comm.apply(f) == f, (delta, k)


def test_pauli_kron_car():
    cl = CliffordMatrices(2)
    ident = CliffordMatrices.identity(2)
    for i in range(2):
        for j in range(2):
            anti = CliffordMatrices.anticommutator(cl.a_f[i], cl.b_f[j])
            assert anti == (ident if i == j else {}), (i, j)
            assert CliffordMatrices.anticommutator(cl.a_f[i], cl.a_f[j]) == {}
            assert CliffordMatrices.anticommutator(cl.b_f[i], cl.b_f[j]) == {}


def test_pauli_matches_abstract_fermions():
    # the Kronecker matrices act exactly like th/dth on the graded basis
    from fockrep.weyl import WeylElement

    ms = ModeSystem(0, 2)
    cl = CliffordMatrices(2)
    for j in (1, 2):
        got = poly_to_matrix(Cliff(ms, cl.b_f[j - 1]), 2)
        want = to_matrix(Poly(WeylElement.theta(ms, j)), 2)
        assert got.cols == want.cols
        got = poly_to_matrix(Cliff(ms, cl.a_f[j - 1]), 2)
        want = to_matrix(Poly(WeylElement.dtheta(ms, j)), 2)
        assert got.cols == want.cols


def test_differential_cross_checks():
    for rid, params in [("sl2_standard", {"n": 3}), ("sl3_fock", {"n": 2}),
                        ("osp22", {"n": 2}), ("glk", {"k": 3, "n": 2}),
                        ("sl3_seven", {"m": 1, "n": 1}),
                        ("gl_super", {"k": 1, "r": 1, "n": 2})]:
        results = cross_check(build(rid, params), "differential")
        assert all(c.passed for c in results), (rid, [c.name for c in results
                                                      if not c.passed])


def test_leaf_max_raise_bounds_image_degree():
    # check_identity's overflow-free range relies on this bound; it is
    # also attained, so it is the exact degree raise of each leaf
    for modes in (ModeSystem(1, 1), ModeSystem(2, 0)):
        cl = CliffordMatrices(modes.fermionic)
        leaves = []
        for i in range(1, modes.bosonic + 1):
            leaves += [MultX(modes, i), Partial(modes, i), ShiftX(modes, i, rat(1, 2)),
                       Dplus(modes, i, rat(-1, 3)), JacksonX(modes, i, rat(3, 5))]
        leaves.append(Cliff(modes, CliffordMatrices.identity(modes.fermionic)))
        if modes.fermionic:
            leaves += [Cliff(modes, cl.a_f[0]), Cliff(modes, cl.b_f[0]),
                       Cliff(modes, CliffordMatrices.matmul(cl.b_f[0], cl.a_f[0]))]
        for leaf in leaves:
            bound = leaf.max_raise()
            attained = False
            for key in basis_states(modes, 6):
                image = leaf.apply(FockVector(modes, {key: ONE}))
                degrees = [state_degree(k) for k in image.terms]
                assert all(d <= state_degree(key) + bound for d in degrees), \
                    (modes, type(leaf).__name__, key)
                attained = attained or state_degree(key) + bound in degrees
            assert attained, (modes, type(leaf).__name__)


def test_differential_realization_passes_check_identity():
    # realized operators are fock expressions, so check_identity takes them
    for rid, params in [("sl2_standard", {"n": 3}), ("osp22", {"n": 2}),
                        ("gl_super", {"k": 2, "r": 1, "n": 2}),
                        ("sl3_seven", {"m": 1, "n": 1})]:
        rep = build(rid, params)
        for name, op in realize_generators(rep, "differential").items():
            report = check_identity(op, rep.generator(name), rep.default_cutoff)
            assert report.equal, (rid, name, report.describe(rep.modes))


def test_differential_rejects_extended_families():
    with pytest.raises(ValueError):
        realize_generators(build("sl2_translated", {"n": 1, "delta": 1}),
                           "differential")


def test_fd_cross_checks():
    cases = [
        ("sl2_translated", {"n": 3, "delta": rat(1, 2)}, None),
        ("sl3_translated", {"n": 2, "delta1": rat(1), "delta2": rat(1, 2)}, None),
        ("osp22_translated", {"n": 2, "delta": rat(1)}, None),
        ("glk", {"k": 3, "n": 2}, [rat(1), rat(-1, 3)]),
        ("gl_super", {"k": 2, "r": 1, "n": 2}, [rat(1, 2), rat(1)]),
        ("sl2_metaplectic", {}, [rat(1, 2)]),
        # fd steps other than the rep's own: the counterpart uses the same steps
        ("sl2_translated", {"n": 2, "delta": rat(1, 2)}, [rat(1)]),
        ("osp22_translated", {"n": 2, "delta": rat(1)}, [rat(-1, 3)]),
    ]
    for rid, params, deltas in cases:
        results = cross_check(build(rid, params), "fd", None, deltas)
        assert all(c.passed for c in results), (rid, [c.witness for c in results
                                                      if not c.passed])


def test_jackson_cross_check():
    for q in (rat(2), rat(1, 2), rat(3, 5)):
        results = cross_check(build("sl2q", {"alpha": 2, "q": q}), "jackson", 6)
        assert all(c.passed for c in results)


def test_oscillator_cubic_differential_forms():
    # the displayed third-order differential operators match the abstract
    # cubic elements under the relabeling, column for column
    rep = build("sl2_oscillator", {"n": 2})
    for alt in rep.alt_forms:
        realized = weyl_to_differential(alt.expr.as_weyl())
        got = poly_to_matrix(realized, 5)
        want = to_matrix(alt.expr, 5)
        assert got.cols == want.cols and \
            set(got.overflow_columns) == set(want.overflow_columns)


def test_vector_field_preserves_homogeneous_degree():
    rep = build("sl2_vector_field", {})
    gens = realize_generators(rep, "differential")
    for name, op in gens.items():
        for e in ((2, 0), (1, 1), (0, 2), (3, 1)):
            image = op.apply(FockVector(rep.modes, {(e, 0): ONE}))
            assert all(sum(exps) == sum(e) for (exps, _) in image.terms), (name, e)


def test_fd_displayed_discrepancies_pinned():
    # raising display broken for n != 0; metaplectic J0 and J- sign typos;
    # every other displayed fd form agrees with the substitution build
    res = check_fd_displayed(build("sl2_translated", {"n": 3, "delta": rat(1, 2)}))
    assert {a.generator: a.status for a in res} == \
        {"J+": "DIFFERS", "J0": "MATCH", "J-": "MATCH"}
    res = check_fd_displayed(build("sl2_translated", {"n": 0, "delta": rat(1)}))
    assert all(a.status == "MATCH" for a in res)
    res = check_fd_displayed(build("sl2_metaplectic", {}), None, [rat(1, 2)])
    assert {a.generator: a.status for a in res} == \
        {"J+": "MATCH", "J0": "DIFFERS", "J-": "DIFFERS"}
    res = check_fd_displayed(build("osp22_translated", {"n": 2, "delta": rat(1)}))
    assert {a.generator: a.status for a in res} == \
        {"T+": "DIFFERS", "T0": "MATCH", "T-": "MATCH", "J": "MATCH",
         "Q1": "MATCH", "Q2": "MATCH", "Qb1": "MATCH", "Qb2": "MATCH"}
    for rid, params, deltas in [
            ("sl3_translated", {"n": 2, "delta1": rat(1), "delta2": rat(1, 2)}, None),
            ("glk", {"k": 3, "n": 2}, [rat(1), rat(1, 2)]),
            ("gl_super", {"k": 2, "r": 1, "n": 2}, [rat(1), rat(1)])]:
        res = check_fd_displayed(build(rid, params), None, deltas)
        assert all(a.status == "MATCH" for a in res), rid


def test_fd_q_pair_relation():
    # the displayed fd form of the transformed deformed pair obeys
    # atil btil - q btil atil = 1 exactly on polynomials
    ms = ModeSystem(1, 0)
    for q in (rat(2), rat(3, 5)):
        for delta in (rat(1), rat(1, 2)):
            atil, btil = q_pair_fd(q, delta)
            rel = atil * btil + (btil * atil).scale(Scalar(-q))
            for k in range(9):
                f = poly1({k: 1})
                assert rel.apply(f) == f, (q, delta, k)


def test_jackson_node_examples():
    j = JacksonX(B1, 1, rat(2))
    assert j.apply(poly1({3: 1})) == poly1({2: 7})
    assert j.apply(poly1({0: 5})) == poly1({})


def test_realization_coverage_on_the_grid():
    # the (instance, kind) pairs the cross checks run over stay exactly these
    from fockrep.grids import acceptance_grid

    assert set(FORMULAS) == {"sl2_translated", "sl2_metaplectic", "sl3_translated",
                             "glk", "gl_super", "osp22_translated"}
    accepted = {"differential": 0, "fd": 0, "jackson": 0}
    for rep_id, params in acceptance_grid():
        rep = build(rep_id, params)
        for kind in accepted:
            try:
                gens = realize_generators(rep, kind)
            except RealizeError:
                continue
            accepted[kind] += 1
            assert all(isinstance(op, OperatorExpr) for op in gens.values())
            assert kind != "fd" or rep_id in FORMULAS
    assert accepted == {"differential": 100, "fd": 91, "jackson": 36}
