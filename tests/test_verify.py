import dataclasses
import importlib
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fockrep import catalogue, fock, verify, weyl
from fockrep.catalogue import AltForm, CatalogueError, Claims, InvariantSpace, RepSpec, build
from fockrep.fock import (Compiled, ExpA, OperatorExpr, Poly, Product, Scale, Sum, _state_str,
                          basis_states, identity_op, preimages, state_degree, vector_str)
from fockrep.grids import acceptance_grid
from fockrep.linalg import EchelonSpan, mat_mul
from fockrep.scalars import SQRT2, Scalar, rat
from fockrep.verify import (AltFormResult, CheckResult, burnside_irreducibility,
                            casimir_check, check_alt_forms, check_relations, closure,
                            closure_symbolic, full_verify, invariant_subspace,
                            jacobi, killing_form)
from fockrep.weyl import ModeSystem, WeylElement
from oracles import (dense_closure, loop_jacobi, loop_killing, perturbed, probe_alt_forms,
                     probe_casimir_commutes, probe_relations, space_charpoly,
                     swap_multiply, verify_constants)
from pinning import check_pinned, negative_control_reports


def _index(sc, name):
    return sc.names.index(name)


def test_closure_extracts_sl2_constants():
    rep = build("sl2_standard", {"n": 3})
    sc, result = closure(rep)
    assert result.passed and sc.span_dim == 3
    i0, ip, im = _index(sc, "J0"), _index(sc, "J+"), _index(sc, "J-")
    assert sc.table[(i0, ip)] == {ip: 1}
    assert sc.table[(i0, im)] == {im: Scalar(-1)}
    assert sc.table[(ip, im)] == {i0: Scalar(-2)}
    assert jacobi(sc).passed


def test_symbolic_and_matrix_closure_agree():
    # on a polynomial rep closure is the symbolic decision, under the line
    # name closure and with no probe degree; its table is the matrix
    # oracle's
    for rid, params in [("sl2_clifford", {}), ("sl3_fock", {"n": 2}),
                        ("osp22", {"n": 2}), ("gl_super", {"k": 1, "r": 1, "n": 2})]:
        rep = build(rid, params)
        sc_s, res_s = closure_symbolic(rep)
        assert closure(rep) == (sc_s, res_s)
        assert res_s.passed and res_s.name == "closure" and "probe" not in res_s.detail
        assert sc_s == dense_closure(rep)[0], rid


def test_closure_dimensions():
    sc, _ = closure(build("sl2_clifford", {}))
    assert sc.span_dim == 3
    sc, _ = closure(build("sl3_fock", {"n": 2}))
    assert sc.span_dim == 8
    sc, _ = closure(build("sl3_seven", {"m": 1, "n": 2}))
    assert sc.span_dim == 8
    # measured superalgebra span: (k+r+1)^2, minus one when n = 0 makes the
    # weight generator dependent on the diagonal blocks
    sc, _ = closure(build("gl_super", {"k": 2, "r": 1, "n": 3}))
    assert sc.span_dim == 16 and not sc.dependent
    sc, _ = closure(build("gl_super", {"k": 2, "r": 1, "n": 0}))
    assert sc.span_dim == 15 and sc.dependent == ["J0_11"]


def test_gl2_semidirect_ideal_brackets_vanish():
    rep = build("gl2_semidirect", {"r": 2, "n": 2})
    sc, result = closure(rep)
    assert result.passed
    ideal = catalogue._gl2_ideal(rep.params)
    assert ideal == ["J5", "J6", "J7"]
    for x in ideal:
        for y in ideal:
            assert sc.table[(_index(sc, x), _index(sc, y))] == {}
    for line in check_relations(rep):
        assert line.passed


def test_closure_failure_has_witness():
    rep = build("sl2_standard", {"n": 2})
    broken = dataclasses.replace(
        rep, generators={"J+": rep.generator("J+"), "J-": rep.generator("J-")},
        parities={"J+": 0, "J-": 0}, relations=[])
    sc, result = closure(broken)
    assert sc is None and not result.passed and result.witness


def test_closure_tables_pass_an_independent_bracket():
    # every closing polynomial --grid small table, each bracket re-formed
    # from swap_multiply products rather than weyl.bracket
    checked = 0
    for rep_id, params in acceptance_grid(small=True):
        rep = build(rep_id, params)
        sc = closure(rep)[0] if rep.is_polynomial() else None
        if sc is not None:
            assert verify_constants(rep, sc).passed, (rep_id, params)
            checked += 1
    assert checked == 12


def test_anticommutator_witnesses_use_braces():
    rep = build("osp22", {"n": 2})
    sc, _ = closure(rep)
    q1 = _index(sc, "Q1")
    result = verify_constants(rep, perturbed(sc, q1, q1, 0))
    assert not result.passed and result.witness.startswith("{Q1,Q1} != ")
    # without T- both closure paths fail first on an anticommutator: the
    # symbolic one on osp22, the matrix probe on osp22_translated
    for base in (rep, build("osp22_translated", {"n": 2, "delta": 1})):
        gens = {name: g for name, g in base.generators.items() if name != "T-"}
        broken = dataclasses.replace(base, generators=gens, relations=[],
                                     parities={name: base.parities[name] for name in gens})
        sc_b, result = closure(broken)
        assert sc_b is None and result.witness.startswith("{Q1,Qb2} ")
    sl2 = build("sl2_standard", {"n": 2})
    sc, _ = closure(sl2)
    i0 = _index(sc, "J0")
    result = verify_constants(sl2, perturbed(sc, i0, i0, 0))
    assert result.witness.startswith("[J0,J0] != ")


def test_jacobi_negative_control():
    sc, _ = closure(build("sl2_standard", {"n": 2}))
    bad = perturbed(sc, _index(sc, "J0"), _index(sc, "J+"), _index(sc, "J-"))
    result = jacobi(bad)
    assert not result.passed and "triple" in result.witness


@pytest.mark.parametrize("rid, params", [
    ("sl2_standard", {"n": 2}), ("osp22", {"n": 1}),
    ("gl_super", {"k": 1, "r": 1, "n": 1})])
def test_jacobi_matches_loop_oracle_on_every_perturbation(rid, params):
    # the sparse check must give the m^3 loop's whole result (verdict, first
    # failing triple, its lowest nonzero index and coefficient), whether or
    # not the corruption keeps the table antisymmetric
    sc, _ = closure(build(rid, params))
    m = len(sc.names)
    tables = [sc] + [perturbed(sc, i, j, k)
                     for i in range(m) for j in range(m) for k in range(m)]
    failing = 0
    for table in tables:
        got = jacobi(table)
        assert got == loop_jacobi(table)
        failing += not got.passed
    assert jacobi(sc).passed and failing


def test_jacobi_is_implied_exactly_on_the_polynomial_grid_tables():
    # the implied line rests on weyl.bracket being a super-commutator, so the
    # triple sum must PASS on every polynomial grid table, a translated rep's
    # being its preimage rep's; the report reads the implied line on every
    # grid rep with a jacobi line and sums no table
    gradings, triples = Counter(), 0
    for rep_id, params in acceptance_grid():
        rep = build(rep_id, params)
        line = full_verify(rep).check("jacobi")
        if line is None:
            continue
        m = len(rep.generators)
        pre = rep if rep.is_polynomial() else verify._preimages(dataclasses.replace(rep))
        sc, _ = closure(pre)
        assert jacobi(sc) == CheckResult("jacobi", "PASS", "%d triples" % m ** 3), rep_id
        assert line.status == "PASS" and line.detail.startswith("implied: exact closure, ")
        gradings[rep.is_polynomial(), line.detail[len("implied: exact closure, "):]] += 1
        triples += m ** 3
    assert gradings == {(True, "ungraded"): 69, (True, "graded by fermion parity"): 31,
                        (False, "ungraded"): 36, (False, "graded by fermion parity"): 18}
    assert triples == 430_097 + 18 * 27 + 36 * 512


def test_a_flipped_parity_falls_back_to_the_triple_sum():
    # gl_super's J0_11 (th dth) is even; declared odd, its table still
    # closes, the premise fails, and the line is the triple sum's FAIL
    rep = build("gl_super", {"k": 2, "r": 1, "n": 1})
    bad = dataclasses.replace(rep, parities=dict(rep.parities, J0_11=1))
    report = full_verify(bad)
    assert report.check("closure").passed
    line = report.check("jacobi")
    assert line.witness == "triple (Qb1-,Qb1-,Qb1+): coefficient of Qb1- is -4, not 0"
    assert line == loop_jacobi(closure(bad)[0])


def test_an_all_even_declaration_implies_ungraded_jacobi():
    # sl2_clifford declares every generator even though J1 = th + dth is odd:
    # its table is of ordinary commutators, an ungraded sl2
    rep = build("sl2_clifford", {})
    assert rep.generators["J1"].as_weyl().parity() == 1
    assert full_verify(rep).check("jacobi") == CheckResult(
        "jacobi", "PASS", "implied: exact closure, ungraded")


def test_negative_control_reports_are_pinned():
    # every single-monomial +1 bump of sl2_standard and osp22, n = 0..3:
    # pins the FAIL witnesses of closure, Jacobi and the relations, line by
    # line in tests/pins/negative_controls.ledger
    reports = negative_control_reports()
    assert len(reports) == 70
    check_pinned("negative_controls", json.dumps(reports, sort_keys=True))


def test_killing_form_sl2_with_trace_oracle():
    rep = build("sl2_standard", {"n": 1})
    sc, _ = closure(rep)
    K, rank = killing_form(sc)
    i0, ip, im = _index(sc, "J0"), _index(sc, "J+"), _index(sc, "J-")
    assert K[i0][i0] == Scalar(2)
    assert K[ip][im] == Scalar(-4)
    assert rank == 3
    # independent oracle: dense ad matrices, matrix product, trace
    m = len(sc.names)
    ads = []
    for i in range(m):
        ad = [[0] * m for _ in range(m)]
        for j in range(m):
            for k, c in sc.table.get((i, j), {}).items():
                ad[k][j] = c
        ads.append(ad)
    for i in range(m):
        for j in range(m):
            product = mat_mul(ads[i], ads[j])
            assert K[i][j] == sum(product[k][k] for k in range(m))


def test_killing_form_matches_loop_oracle():
    # the trace over ad x_i's table entries must give the loop's K on every
    # closing small-grid instance, and on every shift and every zeroing of
    # one table entry of sl2_standard, osp22 and sl2_clifford
    closing = 0
    for rep_id, params in acceptance_grid(small=True):
        sc, _ = closure(build(rep_id, params))
        if sc is None:
            continue
        closing += 1
        tables = [sc]
        if rep_id in ("sl2_standard", "osp22", "sl2_clifford"):
            m = len(sc.names)
            tables += [perturbed(sc, i, j, k) for i in range(m) for j in range(m)
                       for k in range(m)]
            tables += [perturbed(sc, i, j, k, -c) for (i, j), row in sc.table.items()
                       for k, c in row.items()]
        for table in tables:
            assert killing_form(table)[0] == loop_killing(table), (rep_id, params)
    assert closing == 15


def test_killing_vanishes_on_abelian_ideal():
    rep = build("gl2_semidirect", {"r": 2, "n": 2})
    sc, _ = closure(rep)
    K, _ = killing_form(sc)
    for x in catalogue._gl2_ideal(rep.params):
        i = _index(sc, x)
        for j in range(len(sc.names)):
            assert not K[i][j]


def test_killing_rank_clifford():
    sc, _ = closure(build("sl2_clifford", {}))
    _, rank = killing_form(sc)
    assert rank == 3


def test_killing_ranks_use_the_supertrace():
    # the Killing form of a superalgebra is str(ad x ad y): osp(2|2) = sl(2|1)
    # has a nondegenerate one, and gl(k+1|r)'s radical is the identity alone;
    # glk has no odd generator and keeps its trace form
    for rid, params, rank in [
            ("osp22", {"n": 3}, 8), ("osp22_metaplectic", {}, 8),
            ("osp22_translated", {"n": 2, "delta": 1}, 8),
            ("gl_super", {"k": 1, "r": 1, "n": 1}, 8),
            ("gl_super", {"k": 2, "r": 1, "n": 1}, 15),
            ("gl_super", {"k": 3, "r": 2, "n": 1}, 35), ("glk", {"k": 3, "n": 2}, 8)]:
        rep = build(rid, params)
        assert full_verify(rep).killing_rank == (rank, len(rep.generators)), (rid, params)


def test_killing_form_is_the_dense_supertrace():
    # independent oracle on exact super tables: dense ad matrices, their
    # product, and the diagonal signed by the parity of its index, for
    # every ordered pair, so the supersymmetric lower half is checked too
    for rid, params in [("osp22", {"n": 2}), ("gl_super", {"k": 1, "r": 1, "n": 1})]:
        sc, _ = closure(build(rid, params))
        K, _ = killing_form(sc)
        m = len(sc.names)
        ads = [[[sc.table.get((i, j), {}).get(k, 0) for j in range(m)] for k in range(m)]
               for i in range(m)]
        for i in range(m):
            for j in range(m):
                product = mat_mul(ads[i], ads[j])
                assert K[i][j] == sum((-1) ** sc.parities[k] * product[k][k]
                                      for k in range(m)), (rid, i, j)
        assert any(K[i][j] for i in range(m) for j in range(m)
                   if sc.parities[i] and sc.parities[j])


def test_casimir_measures_scalar():
    measured, checks, claim = casimir_check(build("sl2_standard", {"n": 2}))
    assert all(c.passed for c in checks)
    assert measured == Scalar(-2)
    assert claim.status == "DIFFERS"  # printed claim -3/2 is a source erratum
    measured, checks, claim = casimir_check(build("sl2_metaplectic", {}))
    assert measured == Scalar(rat(3, 16)) and claim.status == "MATCH"


@pytest.mark.parametrize("keep, extra, measured, witness", [
    (False, [(1, ("J+",))], None, "on |0>: image -2 b |0> is not a multiple of the state"),
    (True, [(1, ("J+",))], None, "on |0>: -2 |0> - 2 b |0> is not -2 * state"),
    (False, [], 0, ""),
    (False, [(1, ("J0",))], None, "on b |0>: 0 is not -1 * state"),
    (False, [(1, ("J-",))], None, "on b |0>: |0> is not 0 * state"),
])
def test_casimir_value_witnesses_are_pinned(keep, extra, measured, witness):
    # each way the probes can fail to act as one scalar, and the zero
    # operator, which acts as 0: sl2 n = 2 with the Casimir's terms, kept or
    # not, plus extra terms
    rep = build("sl2_standard", {"n": 2})
    terms = (rep.casimir.terms if keep else []) + extra
    bad = dataclasses.replace(rep, casimir=dataclasses.replace(rep.casimir, terms=terms))
    got, (_, value), _ = casimir_check(bad)
    assert got == measured and value.witness == witness
    assert value.passed == (not witness)


def test_casimir_centrality_fails_on_perturbation():
    rep = build("sl2_standard", {"n": 2})
    bad_casimir = dataclasses.replace(
        rep.casimir, terms=rep.casimir.terms + [(1, ("J+",))])
    bad = dataclasses.replace(rep, casimir=bad_casimir)
    _, checks, _ = casimir_check(bad)
    assert any(not c.passed for c in checks)


def test_invariant_subspace_and_witness():
    dim, result = invariant_subspace(build("sl2_standard", {"n": 3}))
    assert result.passed and dim == 4
    rep = build("sl2_standard", {"n": 3})
    gens = dict(rep.generators)
    gens["J+"] = gens["J+"] + Poly(WeylElement.b(rep.modes) ** 4)
    bad = dataclasses.replace(rep, generators=gens)
    _, result = invariant_subspace(bad)
    assert not result.passed and "J+" in result.witness


def _scaled(rep, name, c):
    gens = dict(rep.generators)
    gens[name] = gens[name].scale(c)
    return dataclasses.replace(rep, generators=gens)


@pytest.fixture
def exact_spans(monkeypatch):
    """Records each exact span the Burnside fallback opens."""
    opened = []

    class Recorded(EchelonSpan):
        def __init__(self):
            super().__init__()
            opened.append(self)
    monkeypatch.setattr(verify, "EchelonSpan", Recorded)
    return opened


# every grid space above dimension 12, then the stress instances
LARGE_SPACES = (
    [("glk", {"k": 3, "n": n}, d) for n, d in [(4, 15), (5, 21)]]
    + [("gl_super", {"k": 2, "r": 1, "n": n}, d) for n, d in [(3, 16), (4, 25), (5, 36)]]
    + [("gl_super", {"k": 2, "r": 2, "n": n}, d)
       for n, d in [(2, 13), (3, 25), (4, 41), (5, 61)]]
    + [("gl_super", {"k": 3, "r": 2, "n": n}, d)
       for n, d in [(2, 19), (3, 44), (4, 85), (5, 146)]]
    + [("sl2_translated", {"n": 10, "delta": rat(1, 2)}, 11),
       ("sl2q", {"alpha": 10, "q": rat(3, 5), "delta": 1}, 11),
       ("gl_super", {"k": 3, "r": 3, "n": 3}, 63)])


def test_burnside_examples(exact_spans):
    verdict, result = burnside_irreducibility(build("sl2_standard", {"n": 2}))
    assert verdict == ("irreducible", 9) and result.passed
    verdict, result = burnside_irreducibility(build("glk", {"k": 2, "n": 1}))
    assert verdict == ("irreducible", 4) and result.passed
    for rep_id, params, d in LARGE_SPACES:
        verdict, result = burnside_irreducibility(build(rep_id, params))
        assert verdict == ("irreducible", d * d) and result.passed, (rep_id, params)
    assert not exact_spans  # all certified by the extreme-weight reach
    # "reducible" comes only from the exact span
    verdict, result = burnside_irreducibility(build("sl2_vector_field", {}))
    assert verdict == ("reducible", 5) and result.passed and exact_spans
    assert result.detail == "reducible: algebra dimension 5 on a 3-dimensional space"


def test_only_sl2_vector_field_takes_the_exact_span_on_the_grid(exact_spans):
    spanned = []
    for rep_id, params in acceptance_grid():
        rep = build(rep_id, params)
        if rep.invariant_space is not None and rep.claims.irreducible is not None:
            opened = len(exact_spans)
            assert burnside_irreducibility(rep)[1].passed, (rep_id, params)
            if len(exact_spans) > opened:
                spanned.append(rep_id)
    assert spanned == ["sl2_vector_field"]


def test_full_verify_checks_irreducibility_on_large_spaces():
    report = full_verify(build("glk", {"k": 3, "n": 4}))
    burnside = report.check("irreducibility")
    assert report.passed and burnside is not None and burnside.passed
    assert burnside.detail == "irreducible: algebra dimension 225 on a 15-dimensional space"


def _two_state_rep(**gens):
    """Generators given as Weyl polynomials in one mode, on span(|0>, b|0>)."""
    modes = ModeSystem(1, 0)
    space = InvariantSpace(lambda alpha, beta: True, 1, 2, "span(|0>, b|0>)")
    return RepSpec("two_state", {}, {name: Poly(w(WeylElement.a(modes),
                                                   WeylElement.b(modes)))
                                     for name, w in gens.items()},
                   invariant_space=space, claims=Claims(irreducible=False))


@pytest.mark.parametrize("gens, algebra_dim", [
    # N = diag(0, 1) and X|0> = b|0>: |0> reaches the space, but no
    # generator lowers, so both states are extreme; the invariant line is
    # b|0>
    ({"N": lambda a, b: b * a, "X": lambda a, b: b - b * b * a}, 3),
    # M|0> = |0> + 2b|0> shifts two ways; it fixes the line |0> + b|0>
    ({"M": lambda a, b: 1 - b * a + 2 * b - 2 * b * b * a + a}, 2),
    # the swap X shifts up on |0> and down on b|0>, and D vanishes on the
    # space; X fixes the line |0> + b|0>
    ({"D": lambda a, b: a * a, "X": lambda a, b: a + b - b * b * a}, 2),
    # T b|0> = |0> + b|0> shifts two ways; T and X fix |0> + b|0>
    ({"T": lambda a, b: a + b * a, "X": lambda a, b: a + b - b * b * a}, 3),
])
def test_burnside_certificate_conditions_are_load_bearing(exact_spans, gens, algebra_dim):
    rep = _two_state_rep(**gens)
    verdict, result = burnside_irreducibility(rep)
    assert verdict == ("reducible", algebra_dim) and result.passed and exact_spans


def test_burnside_dual_spin_is_needed():
    # a full reach alone proves nothing: it must start at the one state
    # every lowering generator kills, and here no generator lowers
    rep = _two_state_rep(N=lambda a, b: b * a, X=lambda a, b: b - b * b * a)
    vacuum, one = {((0,), 0): 1}, {((1,), 0): 1}
    assert rep.generators["N"].apply(vacuum) == {}  # N = diag(0, 1) lowers nothing
    assert rep.generators["X"].apply(vacuum) == one  # the reach from |0> is full
    for g in rep.generators.values():  # no image has a |0> component
        for v in (vacuum, one):
            assert vacuum.keys().isdisjoint(g.apply(v))


def test_burnside_certificate_with_sqrt2_entries(exact_spans):
    rep = _scaled(build("sl2_standard", {"n": 3}), "J+", SQRT2)
    assert any(type(c) is Scalar for col in rep.space_columns("J+")[1] for c in col.values())
    verdict, result = burnside_irreducibility(rep)
    assert verdict == ("irreducible", 16) and result.passed
    assert not exact_spans  # certified by the reach, no exact span


def _three_state_rep(**gens):
    """Generators given as Weyl polynomials in one mode, on span(b^k|0>,
    k <= 2); P(k, a, b) projects onto b^k|0> there."""
    modes = ModeSystem(1, 0)
    space = InvariantSpace(lambda alpha, beta: True, 2, 3, "span(b^k|0>, k <= 2)")

    def projector(k, a, b):
        n, (i, j) = b * a, [m for m in range(3) if m != k]
        return (n - i) * (n - j) * rat(1, (k - i) * (k - j))
    return RepSpec("three_state", {}, {name: Poly(w(projector, WeylElement.a(modes),
                                                   WeylElement.b(modes)))
                                       for name, w in gens.items()},
                   invariant_space=space, claims=Claims(irreducible=None))


def _two_mode_rep():
    modes = ModeSystem(2, 0)
    (a1, b1), (a2, b2) = [(WeylElement.a(modes, i), WeylElement.b(modes, i)) for i in (1, 2)]
    space = InvariantSpace(lambda alpha, beta: True, 1, 3, "degree <= 1")
    vacuum = (1 - b1 * a1) * (1 - b2 * a2)
    return RepSpec("two_mode", {}, {"A1": Poly(a1), "A2": Poly(a2), "N": Poly((b1 + b2) * vacuum)},
                   invariant_space=space, claims=Claims(irreducible=None))


def _sl2_swap_rep():
    """sl2_standard n=1 with J+ + J- in place of J+."""
    rep = build("sl2_standard", {"n": 1})
    gens = dict(rep.generators, **{"J+": rep.generators["J+"] + rep.generators["J-"]})
    return dataclasses.replace(rep, generators=gens)


@pytest.mark.parametrize("rep, verdict", [
    # J+ + J- shifts up on |0> and down on b|0>
    (_sl2_swap_rep, ("irreducible", 4)),
    # N|0> = b1|0> + b2|0> raises two ways, and the reach from |0> is full,
    # but span(|0>, b1|0> + b2|0>) is invariant
    (_two_mode_rep, ("reducible", 7)),
    # A lowers by 2 and kills |0> and b|0>: two extreme states, while the
    # cycle |0> -> b|0> -> b^2|0> -> |0> still spans M_3
    (lambda: _three_state_rep(A=lambda P, a, b: a * a,
                              B=lambda P, a, b: b * P(0, a, b),
                              C=lambda P, a, b: b * P(1, a, b)), ("irreducible", 9)),
    # a lowers and kills |0> alone, but nothing leaves |0>
    (lambda: _two_state_rep(N=lambda a, b: b * a, Y=lambda a, b: a), ("reducible", 3)),
], ids=["shifts-two-ways", "raises-two-ways", "two-extremes", "short-reach"])
def test_burnside_falls_back_when_a_certificate_condition_fails(exact_spans, rep, verdict):
    assert burnside_irreducibility(rep())[0] == verdict and exact_spans


def test_extreme_weight_certificate_is_sound():
    """On a seeded corpus of small reps, most generators homogeneous in the
    exponent weight and some not, every space the certificate calls
    irreducible has algebra dimension d^2 by the exact span."""
    rng = random.Random(44)
    certified = []
    for _ in range(1000):
        modes = ModeSystem(rng.randint(1, 2), rng.randint(0, 1))
        width = modes.bosonic + modes.fermionic
        keys = basis_states(modes, rng.randint(1, 2))
        index = {key: i for i, key in enumerate(keys)}
        cols = []
        for _ in range(rng.randint(2, 4)):
            g_cols = [{} for _ in keys]
            if rng.random() < 0.75:  # homogeneous: one exponent shift, mostly a unit step
                if rng.random() < 0.8:
                    shift = [0] * width
                    shift[rng.randrange(width)] = rng.choice([-1, 1])
                else:
                    shift = [rng.randint(-1, 1) for _ in range(width)]
                for j, (alpha, beta) in enumerate(keys):
                    exps = list(alpha) + [beta >> k & 1 for k in range(modes.fermionic)]
                    moved = [x + y for x, y in zip(exps, shift)]
                    image = (tuple(moved[:modes.bosonic]),
                             sum(x << k for k, x in enumerate(moved[modes.bosonic:])))
                    i = index.get(image) if min(moved) >= 0 else None
                    if i is not None and rng.random() < 0.95:
                        g_cols[j][i] = rng.choice([1, -2, rat(1, 3), SQRT2])
            else:
                for _ in range(rng.randint(1, 2 * len(keys))):
                    g_cols[rng.randrange(len(keys))][rng.randrange(len(keys))] = rng.randint(1, 3)
            cols.append(g_cols)
        if verify._extreme_weight_certifies(keys, cols):
            d = len(keys)
            certified.append(d)
            mats = [verify._dense(g_cols, d) for g_cols in cols]
            assert verify._exact_algebra_dim(mats, d) == d * d, (modes, cols)
    assert len(certified) >= 50 and max(certified) >= 5
    # homogeneous, and |0> alone is killed by the lowering a and dth, but
    # only b|0> is reached from it: th|0> lies outside span(|0>, b|0>)
    modes = ModeSystem(1, 1)
    a, b = WeylElement.a(modes), WeylElement.b(modes)
    th, dth = WeylElement.theta(modes), WeylElement.dtheta(modes)
    space = InvariantSpace(lambda alpha, beta: True, 1, 3, "degree <= 1")
    raise_vacuum = b * (1 - b * a) * (1 - th * dth)
    rep = RepSpec("short_reach", {}, {"X": Poly(raise_vacuum), "Y": Poly(a), "Z": Poly(dth)},
                  invariant_space=space, claims=Claims(irreducible=None))
    assert burnside_irreducibility(rep)[0] == ("reducible", 7)


def test_charpoly_equivalence():
    # on the invariant space (sympy's characteristic polynomials)
    a = build("sl2_standard", {"n": 3})
    b = build("sl2_translated", {"n": 3, "delta": rat(1)})
    c = build("sl2_oscillator", {"n": 3})
    assert space_charpoly(a, "J0") == space_charpoly(b, "J0") == space_charpoly(c, "J0")
    # explicit spectrum: J0 eigenvalues k - 3/2 for k = 0..3
    expected = [1]
    for k in range(4):
        root = rat(k) - rat(3, 2)
        expected = [x - root * y for x, y in zip(expected + [0], [0] + expected)]
    assert space_charpoly(a, "J0") == expected


def test_relation_negative_control():
    rep = build("sl2_standard", {"n": 2})
    gens = dict(rep.generators)
    gens["J0"] = gens["J0"] + Poly(WeylElement.one(rep.modes))
    bad = dataclasses.replace(rep, generators=gens)
    results = check_relations(bad)
    failing = [r for r in results if not r.passed]
    assert failing and all(r.witness for r in failing)


def test_full_report_shape_and_json():
    report = full_verify(build("osp22", {"n": 2}))
    assert report.passed
    names = [c.name for c in report.checks]
    assert sum(1 for name in names if name.startswith("relation ")) == 16
    assert "closure" in names and "jacobi" in names
    data = report.to_json()
    encoded = json.dumps(data, sort_keys=True)
    decoded = json.loads(encoded)
    assert decoded["rep"] == "osp22"
    assert decoded["params"] == {"n": "2"}
    assert all(c["status"] in ("PASS", "FAIL") for c in decoded["checks"])


def test_echelon_span_expresses_combinations():
    span = EchelonSpan()
    assert span.insert({0: 1, 1: Scalar(2)})
    assert span.insert({1: 1})
    assert not span.insert({0: Scalar(2), 1: Scalar(5)})  # dependent
    coeffs, residual = span.express({0: Scalar(3), 1: Scalar(7)})
    assert residual == {} and coeffs == {0: Scalar(3), 1: 1}
    coeffs, residual = span.express({2: 1})
    assert coeffs is None and residual


def test_casimir_invariant_under_opposite_rescaling():
    # C2 is built from the given generators; J+ -> c J+, J- -> J-/c leaves
    # the symmetrized combination unchanged
    import random

    rng = random.Random(13)
    rep = build("sl2_standard", {"n": 3})
    base, _, _ = casimir_check(rep)
    for _ in range(5):
        c = Scalar(rat(rng.randint(1, 9), rng.randint(1, 9)))
        if rng.random() < 0.5:
            c = -c
        gens = dict(rep.generators)
        gens["J+"] = gens["J+"].scale(c)
        gens["J-"] = gens["J-"].scale(c.inverse())
        scaled = dataclasses.replace(rep, generators=gens)
        measured, checks, _ = casimir_check(scaled)
        assert all(ch.passed for ch in checks)
        assert measured == base, c


def test_structure_constants_graded_antisymmetry():
    rep = build("osp22", {"n": 2})
    sc, _ = closure(rep)
    m = len(sc.names)
    for i in range(m):
        for j in range(m):
            sign = 1 if sc.parities[i] and sc.parities[j] else Scalar(-1)
            expected = {k: v * sign for k, v in sc.table[(i, j)].items()}
            assert sc.table[(j, i)] == expected


def test_full_verify_leaves_the_callers_generators_alone():
    # the rep stores each generator Compiled (J- is the q-pair's lowering
    # node, which the kit holds so), and the report reads the same nodes
    # through its own copy
    rep = build("sl2q", {"alpha": 1, "q": 2, "delta": rat(1, 3)})
    before = dict(rep.generators)
    assert full_verify(rep).passed
    assert list(rep.generators) == list(before)
    assert all(rep.generators[name] is g for name, g in before.items())
    assert all(isinstance(g, Compiled) for g in rep.generators.values())


def test_closure_leaves_the_callers_generators_alone():
    for rep in (build("sl2_translated", {"n": 2, "delta": rat(1, 3)}),
                build("osp22", {"n": 2})):
        before = dict(rep.generators)
        sc, result = closure(rep)
        assert result.passed
        assert rep.generators == before
        assert all(rep.generators[name] is g for name, g in before.items())
        # each extended generator is stored Compiled and each polynomial one a Poly
        stored = Compiled if rep.rep_id.endswith("_translated") else Poly
        assert all(type(g) is stored for g in rep.generators.values())


@pytest.mark.parametrize("rep_id, params", [
    ("sl2q", {"alpha": 1, "q": 2, "delta": rat(1, 3)}),
    ("osp22_translated", {"n": 2, "delta": rat(1, 2)}),
    ("sl3_translated", {"n": 2, "delta1": 1, "delta2": rat(1, 2)}),
])
def test_checks_agree_on_compiled_generators(rep_id, params):
    # the checks read the same on generators whose column caches a report
    # has filled as on a fresh build's empty ones
    rep = build(rep_id, params)
    full_verify(rep)
    warm = dataclasses.replace(rep)
    cold = build(rep_id, params)
    assert check_relations(warm) == check_relations(cold)
    assert closure(warm) == closure(cold)
    if rep.casimir is None:  # the check table gives it no Casimir line
        assert full_verify(rep).check("casimir_commutes") is None
    else:
        assert casimir_check(warm) == casimir_check(cold)
    assert invariant_subspace(warm) == invariant_subspace(cold)


def _bumps(rep):
    """rep with 1 added to one monomial of one generator, for each in turn."""
    for name, g in rep.generators.items():
        w = g.as_weyl()
        for mono in list(w.terms):
            gens = dict(rep.generators)
            gens[name] = Poly(w + WeylElement(rep.modes, {mono: 1}))
            yield dataclasses.replace(rep, generators=gens)


def _relation_words(rep):
    return {tuple(word) for rel in rep.relations for _, word in rel.lhs + rel.rhs}


def _read_as_brackets(relations) -> set:
    """The unordered generator pairs {x, y} of the relation sides' adjacent
    terms c x y, c' y x with c' = c or -c, which the word sum reads as one
    bracket (RepSpec.word_sum); sl2q's q-commutators are not among them."""
    return {frozenset(w1) for rel in relations for side in (rel.lhs, rel.rhs)
            for (c1, w1), (c2, w2) in zip(side, side[1:])
            if len(w1) == 2 and w2 == w1[::-1] and c2 in (c1, -c1)}


def _table_decides(sc, rel) -> bool:
    """Both sides of rel have coordinates in the closure table sc, and they
    are equal: the relation line reads it off the table."""
    if sc is None:
        return False
    index = {name: i for i, name in enumerate(sc.names)}
    lhs = verify._coordinates(sc, index, rel.lhs)
    return lhs is not None and lhs == verify._coordinates(sc, index, rel.rhs)


def _memo_brackets(rep) -> set:
    """The unordered generator pairs whose bracket rep's memo holds, under
    its (x, y, anti) keys (RepSpec.bracket)."""
    return {frozenset(key[:2]) for key in rep._memos
            if isinstance(key, tuple) and len(key) == 3 and isinstance(key[2], bool)}


def _memo_products(rep) -> list:
    """The generator words whose product rep's memo holds, under the word
    itself (RepSpec._product)."""
    return [key for key in rep._memos
            if isinstance(key, tuple) and key and all(isinstance(x, str) for x in key)]


def _polynomial_small_grid():
    return [rep for rep in (build(rid, params) for rid, params in acceptance_grid(small=True))
            if rep.is_polynomial()]


_BUMPED_FAMILIES = ([("sl2_standard", {"n": n}) for n in range(3)]
                    + [("osp22", {"n": n}) for n in range(3)]
                    + [("osp22_metaplectic", {})]
                    + [("gl2_semidirect", {"r": 2, "n": n}) for n in range(3)]
                    + [("sl2_oscillator", {"n": n}) for n in range(3)])


def _lowering_degree(mono) -> int:
    return sum(mono[1]) + mono[3].bit_count()


def _swap_identities(rep, formed):
    """The oracle's normal forms of each identity a polynomial rep's checks
    decide, by swap_multiply: (kind, line, lhs, rhs) per relation (its
    report line's label), per Casimir commutator C g = g C (g's name) and
    per alt form (its generator)."""
    out = [("relation", "relation %s" % (rel.line or rel.name),
            _swap_word_sum(rep, rel.lhs, formed), _swap_word_sum(rep, rel.rhs, formed))
           for rel in rep.relations]
    if rep.casimir:
        c = _swap_word_sum(rep, rep.casimir.terms, formed)
        out += [("casimir", name, swap_multiply(c, g.as_weyl()), swap_multiply(g.as_weyl(), c))
                for name, g in rep.generators.items()]
    out += [("alt", alt.generator, rep.generator(alt.generator).as_weyl(), alt.expr.as_weyl())
            for alt in rep.alt_forms]
    return out


def _beyond_the_probe():
    """sl2_standard mutants whose residuals lower past the default probe: J+
    plus a^5 (a relation and [C,J+], [C,J0]), J-^4 added to the Casimir at
    n = 0 and 1, and a J+ alt form plus a^7."""
    rep = build("sl2_standard", {"n": 2})
    bumped = dict(rep.generators, **{"J+": rep.generator("J+") + Poly(
        WeylElement.a(rep.modes) ** 5)})
    alt = AltForm("J+", Poly(rep.generator("J+").as_weyl() + WeylElement.a(rep.modes) ** 7))
    reps = [dataclasses.replace(rep, generators=bumped),
            dataclasses.replace(rep, alt_forms=[alt])]
    for n in (0, 1):
        base = build("sl2_standard", {"n": n})
        reps.append(dataclasses.replace(base, casimir=dataclasses.replace(
            base.casimir, terms=[*base.casimir.terms, (1, ("J-",) * 4)])))
    return reps


def test_normal_form_decisions_match_the_probe_oracles():
    # relations, [C,g] and alt forms decided in normal form: each verdict is
    # the swap_multiply residual's (zero or not), and the line, detail and
    # witness are the probe oracle's at a cutoff whose range reaches every
    # residual's first separating state.  On each polynomial --grid small
    # instance, each +1 bump of five polynomial families at n <= 2 and four
    # mutants past the default cutoff, two of them past the floored probe
    # too (a^5 in J+, a^7 in an alt form); both called directly and, as
    # full_verify calls them, on one fresh copy whose word products they
    # share; sl2_oscillator's bumps break alt forms
    reps = _polynomial_small_grid()
    for rid, params in _BUMPED_FAMILIES:
        reps.extend(_bumps(build(rid, params)))
    reps.extend(_beyond_the_probe())
    seen, formed = Counter(), {}
    for rep in reps:
        verdicts = {"relation": {}, "casimir": {}, "alt": {}}  # kind -> {line: differs}
        reach = rep.default_cutoff
        for kind, line, lhs, rhs in _swap_identities(rep, formed):
            residual = lhs - rhs
            verdicts[kind][line] = verdicts[kind].get(line, False) or not residual.is_zero()
            if not residual.is_zero():
                # the first separating state lowers no further than D's
                # monomials, and a probe tests up to cutoff less the raise
                reach = max(reach, max(map(_lowering_degree, residual.terms))
                            + max(0, lhs.max_raise(), rhs.max_raise()))
        relations, alt_forms = probe_relations(rep, reach), probe_alt_forms(rep, reach)
        commutes = probe_casimir_commutes(rep, reach) if rep.casimir else None
        copy = dataclasses.replace(rep)
        table = verify._exact_table(copy)  # closure first, as check_relations forms it
        by_closure = _memo_brackets(copy)
        assert [(r.name, r.status) for r in check_relations(rep)] == [
            (line, "FAIL" if differs else "PASS") for line, differs in verdicts["relation"].items()]
        assert [(a.generator, a.status) for a in check_alt_forms(rep)] == [
            (name, "DIFFERS" if differs else "MATCH") for name, differs in verdicts["alt"].items()]
        if commutes is not None:
            assert {name for name in rep.generators
                    if "[C,%s]: " % name in casimir_check(rep)[1][0].witness} == {
                name for name, differs in verdicts["casimir"].items() if differs}
        assert check_relations(rep) == relations
        assert check_relations(copy) == relations
        # each two-letter relation word of a bracket is read off the exact
        # closure table where that decides its relation, else from the memo,
        # which closure may have filled; none is multiplied out, and with no
        # relations nothing is formed
        brackets = _read_as_brackets(rep.relations)
        assert _memo_brackets(copy) == by_closure | _read_as_brackets(
            [rel for rel in rep.relations if not _table_decides(table, rel)])
        assert brackets == {frozenset(word) for word in _relation_words(rep)
                            if len(word) == 2} or rep.rep_id == "sl2q"
        assert all(len(word) < 2 or len(word) == 2 and frozenset(word) not in brackets
                   for word in _memo_products(copy))
        assert rep.relations or not _memo_products(copy)
        assert check_alt_forms(rep) == alt_forms == check_alt_forms(copy)
        if commutes is not None:
            assert casimir_check(rep)[1][0] == commutes
            assert casimir_check(copy)[1][0] == commutes
            seen["casimir_commutes " + commutes.status] += 1
        seen.update("relation " + r.status for r in relations)
        seen.update("alt " + a.status for a in alt_forms)
        if reach > rep.default_cutoff and (
                probe_relations(rep) != relations or probe_alt_forms(rep) != alt_forms
                or commutes is not None and probe_casimir_commutes(rep) != commutes):
            seen["beyond the default probe"] += 1
    assert len(reps) == 121
    assert set(seen) == {"relation PASS", "relation FAIL", "casimir_commutes PASS",
                         "casimir_commutes FAIL", "alt MATCH", "alt DIFFERS",
                         "beyond the default probe"}
    assert seen["beyond the default probe"] == 2


def _count_products_and_probes(monkeypatch):
    """Count weyl.multiply calls by their (x, y) operands and weyl.bracket
    calls, as the bracket memo and verify make them, by their unordered
    operands and anti; record each report verify's check_identity gives."""
    products, brackets, probes = Counter(), Counter(), []
    multiply, bracket, check_identity = weyl.multiply, weyl.bracket, verify.check_identity

    def counting_multiply(x, y):
        products[(x, y)] += 1
        return multiply(x, y)

    def counting_bracket(x, y, anti):
        brackets[(frozenset((x, y)), anti)] += 1
        return bracket(x, y, anti)

    def recording_check_identity(lhs, rhs, cutoff):
        probes.append(check_identity(lhs, rhs, cutoff))
        return probes[-1]

    monkeypatch.setattr(weyl, "multiply", counting_multiply)
    monkeypatch.setattr(catalogue, "bracket", counting_bracket)
    monkeypatch.setattr(verify, "bracket", counting_bracket)
    monkeypatch.setattr(verify, "check_identity", recording_check_identity)
    return products, brackets, probes


@pytest.mark.parametrize("rep_id", ["osp22", "sl2_standard"])
def test_full_verify_forms_each_word_once_and_probes_only_for_witnesses(monkeypatch, rep_id):
    # each bracket is formed once, whichever of the relations, the Casimir
    # and the symbolic closure reads it first; the only generator product
    # multiplied out is sl2's Casimir term J0 J0, which is no bracket half.
    # Both read closure and their relations off their shape's table, so
    # osp22, with no Casimir, may form no bracket at all
    multiplied = {"osp22": set(), "sl2_standard": {("J0", "J0")}}[rep_id]
    rep = build(rep_id, {"n": 2})
    names = {g.as_weyl(): name for name, g in rep.generators.items()}
    products, brackets, probes = _count_products_and_probes(monkeypatch)
    report = full_verify(rep)
    assert report.passed and report.check("closure").passed
    assert [c.status for c in report.checks if c.name.startswith("relation ")] == [
        "PASS"] * len({rel.line or rel.name for rel in rep.relations})
    assert not probes
    assert all(count == 1 for count in brackets.values())
    assert {(names[x], names[y]) for x, y in products if x in names and y in names} == multiplied
    assert all(count == 1 for count in products.values())


def test_a_bumped_generator_is_decided_without_a_probe(monkeypatch):
    rep = build("osp22", {"n": 2})
    w = rep.generators["Q2"].as_weyl()
    gens = dict(rep.generators)
    gens["Q2"] = Poly(w + WeylElement(rep.modes, {min(w.terms): 1}))
    bad = dataclasses.replace(rep, generators=gens)
    _, _, probes = _count_products_and_probes(monkeypatch)
    report = full_verify(bad)
    failing = [c.name for c in report.checks if not c.passed]
    assert failing == ["relation L06", "relation L07", "relation L08",
                       "relation L11", "relation L12"]
    assert not probes
    assert report.check("relation L06").witness == (
        "{Q2,Qb1} = T+: mismatch on |0>: lhs -4 b |0>, rhs -2 b |0>")


def test_full_verify_never_probes_a_polynomial_rep(monkeypatch):
    # each polynomial --grid small instance (sl2q at delta = 0, over its
    # q-mode, among them), each of its +1 bumps and each bump the
    # normal-form oracle test walks: every relation line, [C,g] and alt
    # form is decided from its residual
    def no_probe(lhs, rhs, cutoff):
        raise AssertionError("check_identity called on a polynomial rep")

    monkeypatch.setattr(verify, "check_identity", no_probe)
    bases = _polynomial_small_grid()
    reps = bases + [rep for base in bases + [build(rid, params) for rid, params in _BUMPED_FAMILIES]
                    for rep in _bumps(base)]
    assert len(reps) == 264
    for rep in reps:
        full_verify(rep)


def test_a_residual_beyond_the_probe_range_fails_a_relation_and_the_casimir():
    # sl2_standard n=2 with a^5 added to J+: the residuals of [J0,J+] = J+,
    # [C,J+] and [C,J0] lower by 5 or 6, past the probe range of the cutoff
    rep = build("sl2_standard", {"n": 2})
    gens = dict(rep.generators)
    gens["J+"] = gens["J+"] + Poly(WeylElement.a(rep.modes) ** 5)
    bad = dataclasses.replace(rep, generators=gens)
    relations, commutes = check_relations(bad), casimir_check(bad)[1][0]
    assert [r.status for r in relations] == ["FAIL", "PASS", "PASS"]
    assert relations[0].witness == (
        "[J0,J+] = J+: mismatch on b^5 |0>: lhs -600 |0> + 3 b^6 |0>, rhs 120 |0> + 3 b^6 |0>")
    assert commutes.witness == (
        "[C,J+]: mismatch on b^5 |0>: lhs 1920 |0> - 6 b^6 |0>, rhs -240 |0> - 6 b^6 |0>; "
        "[C,J0]: mismatch on b^6 |0>: lhs 3600 |0> - 10 b^6 |0>, rhs -720 |0> - 10 b^6 |0>")
    # the default probe misses every one of these; a probe that reaches
    # the derived states finds them first
    assert all(r.passed for r in probe_relations(bad)) and probe_casimir_commutes(bad).passed
    assert probe_relations(bad, 12) == relations and probe_casimir_commutes(bad, 12) == commutes
    assert not full_verify(bad).check("relation [J0,J+] = J+").passed


@pytest.mark.parametrize("n, witness", [
    (0, "[C,J+]: mismatch on b^3 |0>: lhs 72 |0>, rhs 0; "
        "[C,J0]: mismatch on b^4 |0>: lhs 96 |0>, rhs 0"),
    (1, "[C,J+]: mismatch on b^3 |0>: lhs 48 |0> - 3/2 b^4 |0>, rhs -3/2 b^4 |0>; "
        "[C,J0]: mismatch on b^4 |0>: lhs 84 |0> - 21/8 b^4 |0>, rhs -12 |0> - 21/8 b^4 |0>"),
])
def test_a_casimir_term_lowering_past_the_probe_fails_centrality(n, witness):
    # J-^4 added to the Casimir: [C,J+] = 12a^3 + 8ba^4 at n = 0, whose
    # default cutoff n + 2 stops the probe below degree 3; the probe
    # oracle, floored at 3 + 2 * the largest raise = 5 as verify floors
    # its probes, reaches it at every cutoff
    rep = build("sl2_standard", {"n": n})
    casimir = dataclasses.replace(rep.casimir, terms=[*rep.casimir.terms, (1, ("J-",) * 4)])
    bad = dataclasses.replace(rep, casimir=casimir)
    commutes = casimir_check(bad)[1][0]
    assert commutes.witness == witness
    assert probe_casimir_commutes(bad, 0) == probe_casimir_commutes(bad, 12) == commutes
    assert [c.name for c in full_verify(bad).checks if not c.passed] == ["casimir_commutes"]


def test_a_low_cutoff_keeps_the_casimir_probe_floor():
    # the Fock b a^2 added to a translated J+ is no node of its shift kit,
    # so the rep has no preimages and its [C,g] are probed; the probe
    # floors its cutoff as a relation probe does (3 + 2 * the largest
    # raise), so a cutoff of 0-2 no longer shrinks it to the vacuum and
    # misses the witness on b |0>
    rep = build("sl2_translated", {"n": 2, "delta": rat(1, 2)})
    gens = dict(rep.generators)
    gens["J+"] = gens["J+"] + Poly(WeylElement.b(rep.modes) * WeylElement.a(rep.modes) ** 2)
    bad = dataclasses.replace(rep, generators=gens)
    commutes = casimir_check(bad)[1][0]
    assert commutes.witness.startswith("[C,J+]: mismatch on b |0>: ")
    for cutoff in (0, 1, 2):
        assert casimir_check(dataclasses.replace(bad, default_cutoff=cutoff))[1][0] == commutes
        assert casimir_check(dataclasses.replace(rep, default_cutoff=cutoff))[1][0].passed


def test_no_grid_sl2q_relation_or_casimir_line_is_probed(monkeypatch):
    # all 36 sl2q instances of the grid: the 18 at delta = 0 over their
    # q-mode and the 18 at delta = 1 over their q-pair's preimages
    def no_probe(lhs, rhs, cutoff):
        raise AssertionError("sl2q's relations and [C,g] are probed")

    monkeypatch.setattr(verify, "check_identity", no_probe)
    reps = [build(rid, params) for rid, params in acceptance_grid() if rid == "sl2q"]
    for rep in reps:
        assert all(line.passed for line in check_relations(rep)), rep.params
        assert casimir_check(rep)[1][0].passed, rep.params
    assert len(reps) == 36 and sum(rep.is_polynomial() for rep in reps) == 18


def _sl2q_bumps(delta):
    """sl2q at alpha = 2, q = 3/5 and delta, with J+ + atil^5 and with J0's
    btil atil coefficient off by 1/7, each over the rep's own q-pair
    (catalogue.q_kit), so each has preimages."""
    rep = build("sl2q", {"alpha": 2, "q": rat(3, 5), "delta": delta})
    kit = catalogue.q_kit(rep.modes, rep.params)
    atil, btil = kit.a[0], kit.b[0]
    for name, bump in (("J+", atil ** 5), ("J0", (btil * atil).scale(rat(1, 7)))):
        yield dataclasses.replace(rep, generators=dict(
            rep.generators, **{name: rep.generator(name) + bump}))


def test_bumped_sl2q_fails_from_its_residual_with_the_probes_witness(monkeypatch):
    # sl2q's relations and [C,g] are decided in normal form over its q-mode
    # (delta = 0) or its q-pair's preimages (delta = 1), with no probe: J+ +
    # atil^5 and J0's coefficient off by 1/7 each FAIL, and every line is
    # the probe oracle's at a cutoff that reaches the first separating
    # state.  The J0 bump FAILs every line of the default probe too, on the
    # same state; the default probe misses atil^5, whose residual first
    # acts on b^5 |0>
    def no_probe(lhs, rhs, cutoff):
        raise AssertionError("sl2q's relations and [C,g] are probed")

    reach = 12
    for delta in (0, 1):
        plus, zero = _sl2q_bumps(delta)
        for bad in (plus, zero):
            with monkeypatch.context() as m:
                m.setattr(verify, "check_identity", no_probe)
                lines = check_relations(bad) + [casimir_check(bad)[1][0]]
            assert lines == probe_relations(bad, reach) + [probe_casimir_commutes(bad, reach)]
        lines = check_relations(plus) + [casimir_check(plus)[1][0]]
        assert [line.status for line in lines] == ["FAIL", "FAIL", "PASS", "FAIL"]
        assert lines[0].witness.startswith("j0 j+ - q j+ j0 = j+: mismatch on b^5 |0>: ")
        assert lines[3].witness.startswith("[C,J+]: mismatch on b^5 |0>: ")
        assert all(line.passed for line in probe_relations(plus))
        assert probe_casimir_commutes(plus).passed
        lines = check_relations(zero) + [casimir_check(zero)[1][0]]
        assert lines == probe_relations(zero) + [probe_casimir_commutes(zero)]
        assert [line.witness for line in lines] == [
            "j0 j+ - q j+ j0 = j+: mismatch on |0>: lhs -656/315 b |0>, rhs -8/5 b |0>",
            "q^2 j+ j- - j- j+ = -(q+1) j0: mismatch on b |0>: lhs 16/15 b |0>, "
            "rhs 184/315 b |0>",
            "q j0 j- - j- j0 = -j-: mismatch on b |0>: lhs -82/63 |0>, rhs -|0>",
            "[C,J+]: mismatch on |0>: lhs 3091216/2211125 b |0>, rhs 2448/1805 b |0>; "
            "[C,J-]: mismatch on b |0>: lhs -306/361 |0>, rhs -386402/442225 |0>"]


def test_a_polynomial_alt_form_lowering_past_the_probe_differs():
    rep = build("sl2_standard", {"n": 2})
    jp = rep.generator("J+").as_weyl()
    bad = dataclasses.replace(rep, alt_forms=[
        AltForm("J+", Poly(jp + WeylElement.a(rep.modes) ** 7))])
    differs = AltFormResult("J+", "DIFFERS",
                            "mismatch on b^7 |0>: lhs 5 b^8 |0>, rhs 5040 |0> + 5 b^8 |0>")
    assert check_alt_forms(bad) == [differs] == probe_alt_forms(bad, 12)
    assert probe_alt_forms(bad)[0].status == "MATCH"


_MS = ModeSystem(2, 2)
_monomials = st.tuples(st.tuples(*[st.integers(0, 2)] * 2), st.tuples(*[st.integers(0, 2)] * 2),
                       st.integers(0, 3), st.integers(0, 3))
_coefficients = st.sampled_from([1, -2, rat(3, 5), 1 + SQRT2])


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_monomials, _coefficients, min_size=1, max_size=5),
       st.integers(0, 8))
def test_the_residual_names_the_first_separating_state(terms, cutoff):
    # D nonzero in normal form: the state the verifier derives from D is
    # one D does not kill, and the first a probe reaching it would find
    d = WeylElement(_MS, terms)
    zero = Poly(WeylElement.zero(_MS))
    report = verify._mismatch(Poly(d), zero, cutoff)
    key = report.witness_state
    assert report.lhs_value == Poly(d).apply({key: 1}) != {} and report.rhs_value == {}
    probe = verify.check_identity(Poly(d), zero, cutoff)
    if state_degree(key) <= max(probe.tested_degree, 0):
        assert probe.witness_state == key and probe.lhs_value == report.lhs_value
    else:
        assert probe.equal


def test_every_benchmark_span_resolves_on_the_library(monkeypatch):
    # the traced benchmark replaces each (owner, attribute) of its SPANS; a
    # renamed or moved function would leave its span reading zero
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    spans = importlib.import_module("spans")
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _ in spans.SPANS
               if not callable(owner.__dict__.get(attr))]
    assert not missing


def test_full_verify_calls_closure_and_jacobi_once(monkeypatch, fresh_kits):
    # the table reaches each check as a verify global when it runs, and the
    # Jacobi and Killing entries share one closure.  With the shape memo
    # cleared, the first n of a family shape forms the symbolic table and
    # the Killing form once each, on the shape (for a translated rep, the
    # shape of its preimages); a second n of that shape forms neither.  On
    # an extended rep with no preimages the matrix probe decides alone;
    # where the symbolic table's grading holds Jacobi is implied and never
    # summed, on a probed table it is summed once
    calls = Counter()
    first_args = {}

    def counting(name):
        check = getattr(verify, name)

        def wrapper(*args):
            calls[name] += 1
            first_args.setdefault(name, args[0])
            return check(*args)
        return wrapper

    for name in ("closure", "closure_symbolic", "jacobi", "killing_form"):
        monkeypatch.setattr(verify, name, counting(name))
    for rep_id, params in [("sl2_standard", {}), ("sl2_translated", {"delta": 1})]:
        rep = build(rep_id, dict(params, n=2))
        report = full_verify(rep)
        assert report.passed and report.killing_rank == (3, 3)
        assert report.check("jacobi").detail == "implied: exact closure, ungraded"
        assert calls == {"closure": 1, "closure_symbolic": 1, "killing_form": 1}
        shape = catalogue.family_shape(rep_id, rep.params)
        assert first_args["closure_symbolic"].modes == shape.modes
        assert first_args["killing_form"] is verify._shape_closure(shape)[0]
        calls.clear()
        first_args.clear()
        assert full_verify(build(rep_id, dict(params, n=3))).killing_rank == (3, 3)
        assert calls == {"closure": 1}
        calls.clear()
    with monkeypatch.context() as patched:  # no preimages: the matrix probe
        patched.setattr(verify, "_preimages", lambda rep: None)
        report = full_verify(build("sl2_translated", {"n": 2, "delta": 1}))
    assert report.passed and report.killing_rank == (3, 3)
    assert report.check("jacobi").detail == "27 triples"
    assert calls == {"closure": 1, "jacobi": 1, "killing_form": 1}


def test_the_shape_path_equals_the_per_instance_decision_on_the_full_grid(fresh_kits):
    # 144 of the 150 grid instances that take n read their closure table
    # and Killing rank from their family shape; on every instance that
    # claims closure, the closure line, table and Killing rank equal
    # closure_symbolic and killing_form on a fresh copy of its (preimage)
    # rep, which never reads a shape.  The 6 misses are glk and gl_super at
    # n = 0, whose generators are dependent.  Building the grid makes no
    # shape; the pass leaves one per family shape, 25
    reps = [build(rep_id, params) for rep_id, params in acceptance_grid()]
    assert catalogue._shape.cache_info().currsize == 0
    hits, misses = 0, []
    for rep in reps:
        if not rep.claims.closes:
            continue
        pre = verify._normal_rep(rep)
        sc, line = closure_symbolic(dataclasses.replace(pre), None if pre is rep else rep)
        report = full_verify(rep)
        assert report.check("closure") == line
        assert closure(rep)[0] == sc
        assert report.killing_rank == (killing_form(sc)[1], len(rep.generators))
        if verify._shape(pre) is not None:
            hits += 1
        elif "n" in rep.params:
            misses.append((rep.rep_id, {k: int(v) for k, v in rep.params.items()},
                           line.detail.split("; ")[1]))
    assert hits == 144
    assert misses == [("glk", {"k": 2, "n": 0}, "dependent: J0"),
                      ("glk", {"k": 3, "n": 0}, "dependent: J0")] + [
        ("gl_super", {"k": k, "r": r, "n": 0}, "dependent: J0_%d%d" % (r, r))
        for k, r in ((1, 1), (2, 1), (2, 2), (3, 2))]
    assert catalogue._shape.cache_info().currsize == 25


@pytest.mark.parametrize("rep_id, params", [
    ("gl_super", {"k": 2, "r": 1}), ("sl2_translated", {"delta": rat(1, 2)}),
    ("glk", {"k": 3}), ("sl3_seven", {"m": rat(-1, 3)})])
def test_a_report_is_the_same_from_a_cold_or_warm_shape_in_any_n_order(
        monkeypatch, fresh_kits, rep_id, params):
    def reports(ns):
        return {n: json.dumps(full_verify(build(rep_id, dict(params, n=n))).to_json(),
                              sort_keys=True) for n in ns}

    cold_up = reports(range(6))
    fresh_kits()
    cold_down = reports(range(5, -1, -1))
    warm = reports(range(6))
    monkeypatch.setattr(verify, "family_shape", lambda rep_id, params: None)
    assert cold_up == cold_down == warm == reports(range(6))


def _off_the_formula():
    """Reps built from a family formula and then changed, each with its
    closure line: sl2_standard n=3 with the spectator coefficient of J+
    bumped, J+ = b^2 a - (n+1) b; the pinned osp22 n=2 bump of Qb1's th
    term by +1, which makes Qb1 the family's at n = 1; gl_super k=2 r=1 n=2
    with J0_11 declared odd."""
    rep = build("sl2_standard", {"n": 3})
    b, a = WeylElement.b(rep.modes), WeylElement.a(rep.modes)
    yield (dataclasses.replace(rep, generators=dict(rep.generators, **{
        "J+": Poly(b * b * a - b.scale(4))})),
        CheckResult("closure", "FAIL", "",
                    "[J+,J-] has residual 2/3 b a, which sends b |0> to 2/3 b |0>"))
    rep = build("osp22", {"n": 2})
    th = WeylElement.theta(rep.modes)
    yield (dataclasses.replace(rep, generators=dict(
        rep.generators, Qb1=Poly(rep.generator("Qb1").as_weyl() + th))),
        CheckResult("closure", "FAIL", "",
                    "[T+,Qb1] has residual b th, which sends |0> to b th |0>"))
    rep = build("gl_super", {"k": 2, "r": 1, "n": 2})
    yield (dataclasses.replace(rep, parities=dict(rep.parities, J0_11=1)),
           CheckResult("closure", "PASS", "span dimension 16 over 16 generators"))


@pytest.mark.parametrize("rep, line", list(_off_the_formula()))
def test_a_rep_off_its_family_formula_misses_the_shape(monkeypatch, rep, line):
    # the guard rejects each, so its report is the per-instance one
    assert verify._shape(verify._normal_rep(dataclasses.replace(rep))) is None
    report = full_verify(rep)
    assert report.check("closure") == line
    monkeypatch.setattr(verify, "family_shape", lambda rep_id, params: None)
    assert full_verify(rep).to_json() == report.to_json()


def test_every_check_table_entry_runs_on_the_full_grid(monkeypatch):
    # every entry runs on some instance, and every line of a report comes
    # from an entry: its run, or a SKIP under its name
    entries = [name for name, _, _ in verify.CHECKS]
    ran, produced = set(), set()

    def recording(name, run):
        def wrapper(rep):
            results = run(rep)
            ran.add(name)
            produced.update(r.name for r in results if isinstance(r, CheckResult))
            return results
        return wrapper

    monkeypatch.setattr(verify, "CHECKS", [(name, when, recording(name, run))
                                           for name, when, run in verify.CHECKS])
    lines = set()
    for rep_id, params in acceptance_grid():
        lines.update((c.status, c.name) for c in full_verify(build(rep_id, params)).checks)
    assert set(ran) == set(entries)
    assert {name for status, name in lines if status != "SKIP"} <= produced
    assert {name for status, name in lines if status == "SKIP"} == {"invariant_subspace"}


def test_full_verify_builds_the_space_columns_once(monkeypatch):
    formed = []
    columns_on_space = RepSpec._columns_on_space

    def counting(rep, name, g, keys, index):
        formed.append((name, columns_on_space(rep, name, g, keys, index)))
        return formed[-1][1]

    rep = build("sl2_standard", {"n": 3})
    monkeypatch.setattr(RepSpec, "_columns_on_space", counting)
    report = full_verify(rep)
    assert report.check("invariant_subspace").passed and report.check("irreducibility").passed
    assert [name for name, _ in formed] == list(rep.generators)
    assert all(len(cols) == 4 and not escape for _, (cols, escape) in formed)


def test_word_sum_keeps_each_prefix_product(monkeypatch):
    # three-letter words that share the prefix J+ J- multiply it out once,
    # within one sum and across sums
    rep = build("sl2_standard", {"n": 3})
    jp, jm, j0 = (rep.generator(name).as_weyl() for name in ("J+", "J-", "J0"))
    first = (jp * jm * j0).scale(2) + WeylElement.one(rep.modes) + jp * jm * jp
    second = jp * jm * jm
    products, _, _ = _count_products_and_probes(monkeypatch)
    assert rep.word_sum([(2, ("J+", "J-", "J0")), (1, ()), (1, ("J+", "J-", "J+"))]) == first
    assert sum(products.values()) == 3 and products[(jp, jm)] == 1
    assert rep.word_sum([(1, ("J+", "J-", "J-"))]) == second
    assert sum(products.values()) == 4


def test_copies_start_with_empty_memos():
    rep = build("sl2_standard", {"n": 3})
    assert all(r.passed for r in check_relations(rep)) and invariant_subspace(rep)[1].passed
    assert verify.closure in rep._memos and RepSpec.space_columns in rep._memos
    for copy in (dataclasses.replace(rep),
                 dataclasses.replace(rep, generators=dict(rep.generators))):
        assert not copy._memos


def _swap_word_sum(rep, terms, formed):
    """Oracle for RepSpec.word_sum: each word multiplied out factor by factor
    with oracles.swap_multiply, scaled, and the parts added; formed keeps
    each product by its factors, across reps."""
    total = WeylElement.zero(rep.modes)
    for c, word in terms:
        factors = tuple(rep.generator(name).as_weyl() for name in word)
        if factors not in formed:
            product = WeylElement.one(rep.modes)
            for f in factors:
                product = swap_multiply(product, f)
            formed[factors] = product
        total = total + formed[factors].scale(c)
    return total


def test_word_sum_matches_the_swap_oracle():
    # every relation side and Casimir of each polynomial --grid small
    # instance, sl2q's q-mode among them, and of each of its +1 bumps
    formed = {}
    sums = 0
    for rid, params in acceptance_grid(small=True):
        base = build(rid, params)
        if not base.is_polynomial():
            continue
        for rep in [base, *_bumps(base)]:
            sides = [side for rel in rep.relations for side in (rel.lhs, rel.rhs)]
            for terms in sides + ([rep.casimir.terms] if rep.casimir else []):
                assert rep.word_sum(terms) == _swap_word_sum(rep, terms, formed)
                sums += 1
    assert sums == 1897
    # hand-made sums on one rep, so that a pair in the second order reads
    # the bracket the first order formed: commutator and anticommutator
    # pairs of even, odd and mixed generators; (x, x); pairs whose
    # coefficients do not match, or split by another term; three-letter words
    rep = build("osp22", {"n": 2})
    cases = []
    for x, y in [("T+", "T-"), ("T0", "Q1"), ("Q1", "Qb1"), ("Qb2", "Q2")]:
        for c in (1, -2, rat(3, 5), 1 + SQRT2):
            for d in (c, -c):
                cases += [[(c, (x, y)), (d, (y, x))], [(c, (y, x)), (d, (x, y))]]
    for x in ("T0", "Q1"):
        cases += [[(c, (x, x)), (d, (x, x))] for c in (1, rat(3, 5)) for d in (c, -c)]
    cases += [
        [(1, ("T+", "T-")), (2, ("T-", "T+"))],
        [(1, ("Q1", "Qb1")), (-1, ("Q1", "Qb1"))],
        [(1, ("Q1", "T+")), (5, ("J",)), (-1, ("T+", "Q1"))],
        [(3, ("Q1", "T+", "Qb1")), (-3, ("Qb1", "T+", "Q1"))],
        [(1, ("T+", "Q2", "Qb1")), (1, ("T-",)), (1, ())],
    ]
    for terms in cases:
        assert rep.word_sum(terms) == _swap_word_sum(rep, terms, formed), terms


def _leaving_the_space(rep):
    """rep with b^4 added to J+, which then maps b^n out of span(1, ..., b^n)."""
    gens = dict(rep.generators)
    gens["J+"] = gens["J+"] + Poly(WeylElement.b(rep.modes) ** 4)
    return dataclasses.replace(rep, generators=gens)


def test_a_bumped_copy_fails_after_its_parent_filled_the_memos():
    rep = build("sl2_standard", {"n": 3})
    assert all(r.passed for r in check_relations(rep))
    assert closure(rep)[1].passed
    assert all(r.passed for r in casimir_check(rep)[1])
    assert invariant_subspace(rep)[1].passed
    bad = _leaving_the_space(rep)
    assert check_relations(bad)[0].witness.startswith("[J0,J+] = J+: mismatch")
    assert closure(bad)[1].witness.startswith("[J+,J0] has residual -3 b^4, ")
    assert not casimir_check(bad)[1][0].passed
    assert invariant_subspace(bad)[1].witness.startswith("J+ maps")
    assert not full_verify(bad).passed


def test_a_polynomial_closure_fail_names_the_residual_and_a_state():
    # [J+,J0] of J+ + b^4 is a combination of generators plus the residual
    # -3 b^4: the FAIL names that residual and a state on which the bracket
    # and that combination act differently
    bad = _leaving_the_space(build("sl2_standard", {"n": 3}))
    sc, result = closure(bad)
    assert sc is None and result.name == "closure" and result.status == "FAIL"
    residual = (WeylElement.b(bad.modes) ** 4).scale(-3)
    assert result.witness.startswith("[J+,J0] has residual %s, which sends " % residual)
    states = [key for key in basis_states(bad.modes, 4)
              if " sends %s to " % _state_str(*key, bad.modes) in result.witness]
    assert len(states) == 1
    jp, j0 = (bad.generator(name).as_weyl() for name in ("J+", "J0"))
    brk = swap_multiply(jp, j0) - swap_multiply(j0, jp)
    combo = brk - residual
    span = EchelonSpan()
    for g in bad.generators.values():
        span.insert(dict(g.as_weyl().terms))
    assert span.express(combo.terms)[0] is not None  # a combination of generators
    assert Poly(brk).apply({states[0]: 1}) != Poly(combo).apply({states[0]: 1})
    assert result.witness.endswith(" to %s" % vector_str(
        Poly(residual).apply({states[0]: 1}), bad.modes))


def test_space_columns_name_a_generator_leaving_the_space():
    rep = build("sl2_standard", {"n": 3})
    keys, cols, escape = rep.space_columns("J+")
    assert len(keys) == len(cols) == 4 and not escape
    bad = _leaving_the_space(rep)
    assert re.match("J\\+ maps ", bad.space_columns("J+")[2])
    # J0 still maps the space into itself, whichever generator escapes
    assert bad.space_columns("J0") == rep.space_columns("J0")
    with pytest.raises(CatalogueError):
        rep.space_columns("K")


def test_full_verify_probes_alt_forms_at_its_cutoff(monkeypatch):
    rep = build("sl2_translated", {"n": 3, "delta": 1})
    alt_exprs = {id(alt.expr) for alt in rep.alt_forms}
    cutoffs = []
    check_identity = verify.check_identity

    def recording(lhs, rhs, cutoff):
        if id(rhs) in alt_exprs:
            cutoffs.append(cutoff)
        return check_identity(lhs, rhs, cutoff)

    monkeypatch.setattr(verify, "check_identity", recording)
    report = full_verify(dataclasses.replace(rep, default_cutoff=12))
    assert [a.status for a in report.alt_forms] == ["DIFFERS", "MATCH", "MATCH", "DIFFERS"]
    assert cutoffs == [12, 12, 12]


def test_burnside_raises_on_a_generator_leaving_the_space():
    with pytest.raises(ValueError, match="J\\+ maps"):
        burnside_irreducibility(_leaving_the_space(build("sl2_standard", {"n": 3})))


def _odd_square():
    """X = th + dth, which squares to 1, and E = 1: {X,X} = 2 X^2 is the one
    diagonal bracket not zero by antisymmetry."""
    modes = ModeSystem(0, 1)
    x = WeylElement.theta(modes) + WeylElement.dtheta(modes)
    return RepSpec("odd_square", {}, {"X": Poly(x), "E": Poly(WeylElement.one(modes))},
                   parities={"X": 1, "E": 0})


def test_symbolic_closure_squares_an_odd_generator():
    rep = _odd_square()
    sym, result = closure(rep)
    assert result.passed and sym.table[(0, 0)] == {1: 2} and sym.table[(1, 1)] == {}
    assert sym == dense_closure(rep)[0]


def test_closure_matches_the_dense_oracle():
    # constants, status, detail and FAIL witness of the matrix probe: on
    # every extended --grid small instance, and on each with a generator
    # bumped by the unit, b or a.  A rep with preimages is decided over
    # them: the oracle's table and status, its detail less the probe
    # degree, and a FAIL on the oracle's bracket
    reps = []
    for rid, params in acceptance_grid(small=True):
        rep = build(rid, params)
        if rep.is_polynomial():
            continue
        reps.append(rep)
        for name, g in rep.generators.items():
            for mono in (WeylElement.one(rep.modes), WeylElement.b(rep.modes),
                         WeylElement.a(rep.modes)):
                reps.append(dataclasses.replace(rep, generators=dict(
                    rep.generators, **{name: g + Poly(mono)})))
    seen = Counter()
    for rep in reps:
        expected, oracle = dense_closure(rep)
        sc, result = closure(rep)
        decided = verify._preimages(dataclasses.replace(rep)) is not None
        if decided:
            assert sc == expected and result.status == oracle.status
            assert result.detail == re.sub(r"(, )?probe degree \d+", "", oracle.detail)
            assert result.witness.split(" ")[:1] == oracle.witness.split(" ")[:1]
        else:
            assert (sc, result) == (expected, oracle)
        seen[oracle.status, decided] += 1
    assert seen["PASS", False] > 5 and seen["FAIL", False] > 10
    assert seen["PASS", True] == 3 and seen["FAIL", True] > 10


def test_closure_agrees_with_the_dense_oracle_on_every_polynomial_rep():
    # on a polynomial rep the symbolic decision and the matrix probe to the
    # pairwise lowering degree are both exact: the same table and verdict,
    # and a FAIL on the same bracket.  On every polynomial instance of the
    # full grid, every +1 bump of a polynomial --grid small instance and of
    # the bumped families, and an odd generator whose square is not zero
    bases = [rep for rep in (build(rid, params) for rid, params in acceptance_grid())
             if rep.is_polynomial()]
    reps = bases + [_odd_square()] + [
        rep for base in _polynomial_small_grid() + [build(rid, params)
                                                    for rid, params in _BUMPED_FAMILIES]
        for rep in _bumps(base)]
    seen = Counter()
    for rep in reps:
        (sc, result), (expected, oracle) = closure(rep), dense_closure(rep)
        assert sc == expected and result.status == oracle.status
        assert result.witness.split(" ")[:1] == oracle.witness.split(" ")[:1]
        seen[result.status] += 1
    assert len(bases) == 118 and seen["PASS"] > 100 and seen["FAIL"] > 50


def test_closure_reads_each_column_once_per_probe_state_and_image(monkeypatch):
    # each generator's column is read on the probe states and on the states
    # the brackets reach, not once per pair and probe state; the matrix
    # probe runs on extended reps only
    # (osp22_translated's Q1 and Qb1 are stored as their Poly; with no
    # preimages it is probed)
    monkeypatch.setattr(verify, "_preimages", lambda rep: None)
    rep = build("osp22_translated", {"n": 2, "delta": 1})
    sc, result = closure(rep)
    assert result.passed
    probe = int(re.search(r"probe degree (\d+)", result.detail).group(1))
    gens = list(rep.generators.values())
    assert any(isinstance(g, Poly) for g in gens)
    states = basis_states(rep.modes, probe)
    images = {key for g in gens for state in states for key in g.apply({state: 1})}
    calls = Counter()
    column, poly_apply = Compiled.column, Poly.apply

    def counting(self, key):
        # the generators' own columns; a shared inner node's are not closure's
        if any(self is g for g in gens):
            calls[key] += 1
        return column(self, key)

    def counting_poly(self, terms):
        if any(self is g for g in gens):
            calls.update(terms)
        return poly_apply(self, terms)

    monkeypatch.setattr(Compiled, "column", counting)
    monkeypatch.setattr(Poly, "apply", counting_poly)
    assert closure(rep) == (sc, result)
    m = len(gens)
    assert 0 < sum(calls.values()) <= m * (len(states) + len(images)) < m * m * len(states)


def _extended_with_casimir():
    for rid, params in acceptance_grid(small=True):
        rep = build(rid, params)
        if not rep.is_polynomial() and rep.casimir is not None:
            yield rid, params


@pytest.mark.parametrize("rid, params", list(_extended_with_casimir()) + [
    ("sl2q", {"alpha": 1, "q": 2, "delta": rat(1, 3)}),
    ("sl2q", {"alpha": 2, "q": rat(3, 5), "delta": 1}),
])
def test_extended_casimir_commutes_matches_the_probe_oracle(rid, params):
    # status, detail and witness: on every extended --grid small instance
    # with a Casimir and a shift-transformed sl2q, and on each of their
    # generators bumped by one Fock monomial (the unit, b or a); as the
    # check runs alone and as full_verify runs it, on a fresh copy
    rep = build(rid, params)
    modes = rep.modes
    reps = [rep]
    for name, g in rep.generators.items():
        for mono in (WeylElement.one(modes), WeylElement.b(modes), WeylElement.a(modes)):
            gens = dict(rep.generators)
            gens[name] = g + Poly(mono)
            reps.append(dataclasses.replace(rep, generators=gens))
    statuses = set()
    for bumped in reps:
        expected = probe_casimir_commutes(bumped)
        assert casimir_check(bumped)[1][0] == expected
        assert casimir_check(dataclasses.replace(bumped))[1][0] == expected
        # a cutoff of 0 is floored alike on both sides
        assert casimir_check(dataclasses.replace(bumped, default_cutoff=0))[1][0] == \
            probe_casimir_commutes(bumped, 0)
        statuses.add(expected.status)
    assert statuses == {"PASS", "FAIL"}


class _Recording(OperatorExpr):
    """inner, recording every state it is applied to."""

    def __init__(self, inner, seen):
        self.modes, self.inner, self.seen = inner.modes, inner, seen

    def max_raise(self):
        return self.inner.max_raise()

    def apply(self, terms):
        self.seen.extend(terms)
        return self.inner.apply(terms)


@pytest.mark.parametrize("rid, params", [
    ("sl2q", {"alpha": 2, "q": 2, "delta": 1}),
    ("sl2_translated", {"n": 2, "delta": 1}),
])
def test_an_extended_casimir_is_applied_once_per_state(monkeypatch, rid, params):
    # on the tree path, a rep with no preimages: C g, g C and the scalar
    # probe all read one image of each state.  Over its preimages the
    # Casimir tree is applied to no state at all
    rep = build(rid, params)
    seen = []
    word_expr = RepSpec.word_expr
    monkeypatch.setattr(RepSpec, "word_expr",
                        lambda self, terms: _Recording(word_expr(self, terms), seen))
    _, (commutes, value), _ = casimir_check(dataclasses.replace(rep))
    assert commutes.passed and value.passed and not seen
    monkeypatch.setattr(verify, "_preimages", lambda rep: None)
    _, (commutes, value), _ = casimir_check(dataclasses.replace(rep))
    assert commutes.passed and value.passed
    assert seen and len(seen) == len(set(seen))


def _record_expa_nodes(rep) -> list:
    """Put a _Recording around every ExpA node of rep's generator trees, in
    place, one per node however many places it has; returns their lists."""
    recorders = {}

    def wrap(node):
        if isinstance(node, ExpA):
            if id(node) not in recorders:
                recorders[id(node)] = _Recording(node, [])
            return recorders[id(node)]
        for kids in (getattr(node, "parts", None), getattr(node, "factors", None)):
            if kids is not None:
                kids[:] = map(wrap, kids)
        if isinstance(node, (Scale, Compiled)):
            node.inner = wrap(node.inner)
        return node

    for name, g in rep.generators.items():
        rep.generators[name] = wrap(g)
    return [recorder.seen for recorder in recorders.values()]


@pytest.mark.usefixtures("fresh_kits")  # the wrapping is in place, on the kit's nodes
@pytest.mark.parametrize("rid, params", [
    (rid, params) for rid, params in acceptance_grid(small=True) if rid.endswith("_translated")])
def test_full_verify_meets_each_state_once_per_exponential(rid, params):
    # each shift pair is compiled once for every generator that contains
    # it, so its e^{da} and e^{-da} meet each basis state once per report,
    # and only where an alt form is probed: every other check is decided
    # over the preimages, so sl3_translated's meet none.
    # (sl2q's e^{da} sits inside its q-pair's lowering operator, after the
    # division by b, so it meets the images of q^N, not basis states.)
    rep = build(rid, params)
    seen = _record_expa_nodes(rep)
    assert len(seen) == 2 * rep.modes.bosonic
    assert full_verify(rep).passed
    assert all(bool(states) == bool(rep.alt_forms) and len(states) == len(set(states))
               for states in seen)


# -- shift-translated reps: relations and [C,g] over the pair's preimages ------------


def _probe_path(monkeypatch, rep):
    """The relation lines and casimir_commutes line of the probe path:
    check_relations and casimir_check with no preimage rep."""
    with monkeypatch.context() as patched:
        patched.setattr(verify, "_preimages", lambda rep: None)
        return (check_relations(rep),
                casimir_check(rep)[1][0] if rep.casimir else None)


def test_transported_lines_equal_the_probe_lines(monkeypatch):
    # on every full-grid translated instance with relations, each relation
    # line and [C,g] is decided over the preimages, and the lines are the
    # probe path's, byte for byte
    reps = [rep for rep in (build(rid, params) for rid, params in acceptance_grid()
                            if rid.endswith("_translated")) if rep.relations]
    assert len(reps) == 36 and sum(rep.casimir is not None for rep in reps) == 18
    for rep in reps:
        copy = dataclasses.replace(rep)
        assert verify._preimages(copy) is not None
        relations, commutes = _probe_path(monkeypatch, copy)
        assert check_relations(copy) == relations == verify._relation_lines(
            copy, verify._probe_cutoff(copy))
        assert all(r.passed for r in relations)
        if rep.casimir:
            assert casimir_check(copy)[1][0] == commutes == probe_casimir_commutes(rep)


def _sl3_translated_with_fock_a1():
    """sl3_translated n=2 delta1=1 delta2=1/2 with the Fock a1, not the
    shift pair's ahat1, added to J1+."""
    rep = build("sl3_translated", {"n": 2, "delta1": 1, "delta2": rat(1, 2)})
    gens = dict(rep.generators)
    gens["J1+"] = gens["J1+"] + Poly(WeylElement.a(rep.modes, 1))
    return dataclasses.replace(rep, generators=gens)


def test_translated_closure_fails_a_fock_a1_at_cutoff_6():
    # the matrix probe reaches degree 2 at cutoff 6, and [J1+,J2+] leaves
    # the span there: a witness on a probe state, so a true failure
    report = full_verify(dataclasses.replace(_sl3_translated_with_fock_a1(), default_cutoff=6))
    assert report.check("closure") == CheckResult(
        "closure", "FAIL", "probe degree 2", "[J1+,J2+] on state b1^2 |0> leaves the span")


@pytest.mark.xfail(strict=True, reason=(
    "until ROADMAP item 16 decides the shift families exactly: at the default "
    "cutoff 4 the matrix probe reaches degree 1 only, so closure reads PASS (and "
    "Jacobi PASS 512 triples) on a rep whose closure fails at cutoff 6, and the "
    "Fock a1 has no preimage, so transport cannot decide it"))
def test_translated_closure_fails_a_fock_a1_at_the_default_cutoff():
    bad = _sl3_translated_with_fock_a1()
    assert bad.default_cutoff == 4
    assert not full_verify(bad).check("closure").passed


_CHECK_IDENTITY = fock.check_identity


def _record_identity_probes(monkeypatch) -> list:
    """Record, from now on, the (lhs, rhs) of every check_identity call
    made through fock's or verify's name for it."""
    calls = []

    def recording(lhs, rhs, cutoff):
        calls.append((lhs, rhs))
        return _CHECK_IDENTITY(lhs, rhs, cutoff)

    monkeypatch.setattr(fock, "check_identity", recording)
    monkeypatch.setattr(verify, "check_identity", recording)
    return calls


def _other_probes(rep, calls) -> list:
    """The calls that are not an extended alt form's probe."""
    alt_exprs = {id(alt.expr) for alt in rep.alt_forms}
    return [(lhs, rhs) for lhs, rhs in calls if id(rhs) not in alt_exprs]


def _extended_relations(rep, relations) -> int:
    """How many of the relations have a side that is no polynomial: those
    the probe path probes."""
    return sum(rep.word_expr(rel.lhs).as_weyl() is None or rep.word_expr(rel.rhs).as_weyl() is None
               for rel in relations)


def _extended_alt_forms(rep) -> int:
    return sum(alt.expr.as_weyl() is None or rep.generator(alt.generator).as_weyl() is None
               for alt in rep.alt_forms)


@pytest.mark.parametrize("rid, params", [
    ("osp22_translated", {"n": 2, "delta": rat(1, 2)}),
    ("sl2_translated", {"n": 3, "delta": rat(1, 2)}),
])
def test_a_passing_translated_report_probes_only_alt_forms(monkeypatch, rid, params):
    # the generators read back through the family's kit, so no relation
    # word and no [C,g] word is probed: check_identity sees the (extended)
    # alt forms alone, in this report and in a second one
    rep = build(rid, params)
    calls = _record_identity_probes(monkeypatch)
    report = full_verify(rep)
    assert report.passed and rep.relations
    assert verify._preimages(dataclasses.replace(rep)) is not None
    assert not _other_probes(rep, calls)
    assert len(calls) == _extended_alt_forms(rep)
    del calls[:]
    assert full_verify(rep).to_json() == report.to_json()
    assert len(calls) == _extended_alt_forms(rep)


def _osp22_translated(**gens):
    rep = build("osp22_translated", {"n": 2, "delta": rat(1, 2)})
    return dataclasses.replace(rep, generators={
        name: gens.get(name, lambda g: g)(g) for name, g in rep.generators.items()})


def _decided_as_the_probe_does(monkeypatch, bad):
    """full_verify(bad)'s relation lines, after checking they are the probe
    path's, witnesses included, and the check_identity calls full_verify
    made."""
    probe = _probe_path(monkeypatch, dataclasses.replace(bad))[0]
    calls = _record_identity_probes(monkeypatch)
    lines = [c for c in full_verify(bad).checks if c.name.startswith("relation ")]
    assert lines == probe
    return lines, calls


def test_a_bosonic_polynomial_bump_has_no_preimage_and_is_probed(monkeypatch):
    # b and a^5 are the Fock pair's, not the shift pair's: no preimage, so
    # every line is probed and FAILs where the probe does
    modes = ModeSystem(1, 1)
    for bad, failing in [
        (_osp22_translated(**{"T+": lambda g: Sum([g, Poly(WeylElement.b(modes))])}),
         ["L01", "L03", "L06", "L11", "L13"]),
        (_osp22_translated(Q2=lambda g: g + Poly(WeylElement.a(modes) ** 5)),
         ["L06", "L07", "L08", "L09", "L11", "L15", "L16"]),
    ]:
        assert verify._preimages(dataclasses.replace(bad)) is None
        lines, calls = _decided_as_the_probe_does(monkeypatch, bad)
        assert [c.name for c in lines if not c.passed] == ["relation " + x for x in failing]
        assert len(_other_probes(bad, calls)) == _extended_relations(bad, bad.relations)
        assert all(c.witness for c in lines if not c.passed)


def test_a_fermion_bump_is_decided_through_its_preimage(monkeypatch):
    # J + th dth/3 reads back to its preimage; exactly the relations with a
    # nonzero preimage residual FAIL, where the probe does and with its
    # witnesses, and none of them is probed
    modes = ModeSystem(1, 1)
    thdth = Poly(WeylElement.theta(modes) * WeylElement.dtheta(modes)).scale(rat(1, 3))
    bad = _osp22_translated(J=lambda g: g + thdth)
    pre = verify._preimages(dataclasses.replace(bad))
    assert pre is not None
    nonzero = [rel for rel in bad.relations
               if not (pre.word_sum(rel.lhs) - pre.word_sum(rel.rhs)).is_zero()]
    assert {rel.line for rel in nonzero} == {"L07", "L16"}
    lines, calls = _decided_as_the_probe_does(monkeypatch, bad)
    assert [c.name for c in lines if not c.passed] == ["relation L07", "relation L16"]
    assert _extended_relations(bad, nonzero) > 0 and not _other_probes(bad, calls)


def test_a_bump_beyond_the_probe_range_fails_through_its_preimage(monkeypatch):
    # a^9 (no preimage) and ahat^9 (a nonzero preimage residual) both lower
    # past the probe range.  a^9 is probed, and the probe PASSes; ahat^9
    # FAILs, unprobed, on the first state whose two images differ
    rep = _osp22_translated()
    bump = Poly(WeylElement.a(rep.modes) ** 9)
    bad = dataclasses.replace(rep, generators=dict(
        rep.generators, **{"T+": rep.generator("T+") + bump}))
    assert verify._preimages(dataclasses.replace(bad)) is None
    lines, calls = _decided_as_the_probe_does(monkeypatch, bad)
    assert all(c.passed for c in lines)
    assert _other_probes(bad, calls)
    monkeypatch.undo()

    bad = dataclasses.replace(rep, generators=dict(
        rep.generators, **{"T+": rep.generator("T+") + rep.generator("T-") ** 9}))
    assert verify._preimages(dataclasses.replace(bad)) is not None
    calls = _record_identity_probes(monkeypatch)
    report = full_verify(bad)
    failing = [c for c in report.checks if c.name.startswith("relation ") and not c.passed]
    assert [c.name for c in failing] == ["relation L01", "relation L06", "relation L11",
                                         "relation L13"]
    assert report.check("relation L01").witness.startswith(
        "[T0,T+] = T+: mismatch on b^9 |0>: lhs -3265920 |0> - 509/512 b |0>")
    assert report.check("relation L11").witness == (
        "[Q2,T+] = 0: mismatch on b^8 th |0>: lhs -362880 |0>, rhs 0")
    assert not _other_probes(bad, calls)
    # each witness is the first state, in graded order, whose images differ
    relations = {rel.name: rel for rel in bad.relations}
    for name, state in [("[T0,T+] = T+", "b^9 |0>"), ("[Q2,T+] = 0", "b^8 th |0>")]:
        lhs, rhs = (bad.word_expr(side) for side in (relations[name].lhs, relations[name].rhs))
        first = next(key for key in basis_states(bad.modes, 9)
                     if lhs.apply({key: 1}) != rhs.apply({key: 1}))
        assert _state_str(*first, bad.modes) == state, name


def test_the_preimage_closure_table_is_the_matrix_probes_on_the_translated_grid(monkeypatch):
    # on every full-grid translated instance closure is decided over the
    # preimage rep, and its table, span dimension and dependent generators
    # are the matrix probe's; the detail drops the probe degree alone
    reps = [build(rid, params) for rid, params in acceptance_grid()
            if rid.endswith("_translated")]
    assert len(reps) == 54
    for rep in reps:
        copy = dataclasses.replace(rep)
        assert verify._preimages(copy) is not None
        sc, line = closure(copy)
        with monkeypatch.context() as patched:
            patched.setattr(verify, "_preimages", lambda rep: None)
            probed, probe_line = closure(dataclasses.replace(rep))
        assert line.passed and sc == probed, (rep.rep_id, rep.params)
        assert line.detail == re.sub(r", probe degree \d+", "", probe_line.detail)


def test_a_bump_past_the_probe_range_fails_closure_on_the_generators(monkeypatch):
    # T+ + ahat^9 on osp22_translated: the matrix probe reaches degree 2 and
    # PASSes, while over the preimages [T+,T0] leaves the span.  The witness
    # state is the preimage residual's first unkilled state, and there the
    # generators' bracket and its span combination, applied as operator
    # trees, differ by the printed image
    rep = _osp22_translated()
    bad = dataclasses.replace(rep, generators=dict(
        rep.generators, **{"T+": rep.generator("T+") + rep.generator("T-") ** 9}))
    with monkeypatch.context() as patched:
        patched.setattr(verify, "_preimages", lambda rep: None)
        assert closure(bad)[1] == CheckResult(
            "closure", "PASS", "span dimension 8 over 8 generators, probe degree 2")
    copy = dataclasses.replace(bad)
    sc, line = closure(copy)
    assert sc is None and line == CheckResult(
        "closure", "FAIL", "", "[T+,T0] less its span combination sends |0> to 20 b |0> "
        "(preimage residual 20 b - 10 b th dth - 10 b^2 a)")
    modes, pre = bad.modes, verify._preimages(copy)
    b, a = WeylElement.b(modes), WeylElement.a(modes)
    residual = b * 20 - b * WeylElement.theta(modes) * WeylElement.dtheta(modes) * 10 - b * b * a * 10
    span = EchelonSpan()
    for g in pre.generators.values():
        span.insert(g.as_weyl().terms)
    coeffs, _ = span.express((pre.bracket("T+", "T0", False) - residual).terms)
    names = list(bad.generators)
    vacuum = {((0,), 0): 1}
    lhs = bad.word_expr([(1, ("T+", "T0")), (-1, ("T0", "T+"))]).apply(vacuum)
    rhs = bad.word_expr([(c, (names[k],)) for k, c in coeffs.items()]).apply(vacuum)
    difference = {key: lhs.get(key, 0) - rhs.get(key, 0) for key in lhs.keys() | rhs.keys()}
    assert {key: c for key, c in difference.items() if c} == {((1,), 0): 20}


def _e_a_marked_as_a(modes):
    """e^a, marked as a, as the step-1 shift pair's ahat = e^a - 1 is: a
    node that bears a's mark but is no node of any kit."""
    x = ExpA(modes, 1, 1)
    x.marked = WeylElement.a(modes)
    return x


def test_marks_that_are_no_shift_pair_leave_a_nonzero_residual_to_the_probe():
    # e^a marked as a, on a rep of the family whose kit at step 1 holds the
    # shift pair: read as a, X = 1 would have the preimage residual a - 1,
    # whose first unkilled state |0> e^a fixes.  X is no node of the kit,
    # so it has no preimage, the relation is probed, and the probe finds b|0>
    modes = ModeSystem(1, 0)
    rep = RepSpec("sl2_translated", {"n": rat(0), "delta": rat(1)}, {"X": _e_a_marked_as_a(modes)},
                  [catalogue.RelationClaim("X = 1", [(1, ("X",))], [(1, ())])])
    assert verify._preimages(rep) is None
    (line,) = check_relations(rep)
    assert line.witness == "X = 1: mismatch on b |0>: lhs |0> + b |0>, rhs b |0>"


def test_marks_that_show_no_closure_witness_leave_closure_to_the_probe():
    # e^a marked as a, and the kit's own bhat at step 1: [e^a, bhat] = 1,
    # so no bracket of the two tells e^a from the kit's ahat.  Trusted as
    # a, P = e^{2a}/2 - e^a would read back to a^2/2 - a, and [P, Y] to
    # a - 1, outside the span with first unkilled state |0>; but [P, Y] is
    # e^a - 1, which kills |0>.  Only the kit's own nodes read back, so P
    # has no preimage and closure is the matrix probe's
    modes = ModeSystem(1, 0)
    x = _e_a_marked_as_a(modes)
    bhat = catalogue.fock_kit(modes, (rat(1),)).b[0]
    p = Sum([Scale(rat(1, 2), Product([x, x])), Scale(-1, x)])
    rep = RepSpec("sl2_translated", {"n": rat(0), "delta": rat(1)}, {"Y": bhat, "P": p},
                  default_cutoff=6)
    a, one = WeylElement.a(modes), WeylElement.one(modes)
    trusted = preimages([p], {id(x)})[0]
    assert weyl.bracket(trusted, WeylElement.b(modes), False) == a - one
    assert verify._preimages(dataclasses.replace(rep)) is None
    sc, line = closure(rep)
    assert (sc, line) == dense_closure(rep) and line.detail == "probe degree 4" and sc is None


def test_a_pair_with_a_wrong_step_fails_the_pair_probe(monkeypatch):
    # bhat = b e^{-2 delta a}, marked as b: [ahat, bhat] = e^{-delta a} != 1.
    # Read through its own kit, the formula gives osp22's generators, whose
    # relations all hold; but the pair is no node of the kit the family
    # builds over, so the generators have no preimage and the probe keeps
    # the report from a false PASS
    rep = _osp22_translated()
    modes, delta = rep.modes, rep.params["delta"]
    ahat, _ = catalogue.shift_pair(modes, 1, delta)
    bhat = Product([Poly(WeylElement.b(modes)), ExpA(modes, 1, -2 * delta)])
    bhat.marked = WeylElement.b(modes)
    kit = catalogue.Kit([ahat], [bhat], [Poly(WeylElement.theta(modes))],
                        [Poly(WeylElement.dtheta(modes))], identity_op(modes))
    bad = dataclasses.replace(rep, generators=catalogue.family(rep.rep_id).formula(
        kit, rep.params))
    assert kit.preimages(list(bad.generators.values())) == [
        g.as_weyl() for g in build("osp22", {"n": 2}).generators.values()]
    assert verify._preimages(dataclasses.replace(bad)) is None
    lines, calls = _decided_as_the_probe_does(monkeypatch, bad)
    assert not all(c.passed for c in lines)
    assert len(_other_probes(bad, calls)) == _extended_relations(bad, bad.relations)
    # closure, with no preimage rep, is the matrix probe's
    report = full_verify(bad)
    assert report.check("closure") == dense_closure(bad)[1] and not report.passed


def test_a_casimir_bump_through_the_pair_fails_as_the_probe_does(monkeypatch):
    # sl2_translated with J+ + ahat: the bump reads back to J+ + a, so each
    # [C,g] with a nonzero preimage residual FAILs, unprobed, with the probe
    # path's witness; the one with a zero residual PASSes
    rep = build("sl2_translated", {"n": 3, "delta": rat(1, 2)})
    bad = dataclasses.replace(rep, generators=dict(
        rep.generators, **{"J+": rep.generator("J+") + rep.generator("J-")}))
    copy = dataclasses.replace(bad)
    pre = verify._preimages(copy)
    c = pre.word_sum(bad.casimir.terms)
    nonzero = [name for name in bad.generators
               if not weyl.bracket(c, pre.generator(name).as_weyl(), False).is_zero()]
    assert nonzero and nonzero != list(bad.generators)
    commutes = _probe_path(monkeypatch, copy)[1]
    calls = _record_identity_probes(monkeypatch)
    assert casimir_check(copy)[1][0] == commutes
    assert not commutes.passed
    assert [name for name in bad.generators if "[C,%s]: " % name in commutes.witness] == nonzero
    assert not calls


# -- extended reps: the space, irreducibility and the Casimir value over the preimages,
# -- and relation lines read off the exact closure table ----------------------------------


def _tree_path(monkeypatch, rep):
    """full_verify(rep)'s JSON with no transport and no table reads: the
    invariant space, irreducibility and Casimir value on the operator
    trees, and every relation decided by its residual."""
    with monkeypatch.context() as patched:
        patched.setattr(verify, "_transported", lambda rep: None)
        patched.setattr(verify, "_exact_table", lambda rep: None)
        return full_verify(rep).to_json()


def _kit_node(rep, pair, index=0):
    """The rep's family kit's own pair node, a or b, which reads back as its mark."""
    return getattr(catalogue.FAMILIES[rep.rep_id].kit(rep.modes, rep.params), pair)[index]


def _bumped(rep, name, change):
    return dataclasses.replace(rep, generators=dict(
        rep.generators, **{name: change(rep.generator(name))}))


def test_transported_reports_equal_the_tree_path(monkeypatch):
    # every full-grid instance with preimages (54 shift-translated, 18 sl2q
    # at delta != 0) reads its space, Burnside verdict and Casimir value off
    # its preimage rep, and its report is the tree path's, byte for byte
    reps = [rep for rep in (build(rid, params) for rid, params in acceptance_grid())
            if verify._transported(dataclasses.replace(rep)) is not None]
    assert Counter(rep.rep_id for rep in reps) == {
        "sl2_translated": 18, "osp22_translated": 18, "sl3_translated": 18, "sl2q": 18}
    for rep in reps:
        assert full_verify(rep).to_json() == _tree_path(monkeypatch, rep), rep.params


@pytest.mark.parametrize("rid, params", [
    ("sl2_translated", {"n": 3, "delta": rat(1, 2)}),
    ("sl2q", {"alpha": 2, "q": rat(3, 5), "delta": 1}),
])
def test_a_kit_bump_that_leaves_the_space_fails_as_on_the_trees(monkeypatch, rid, params):
    # J- + bhat (btilde on sl2q) reads back to a + b, which raises b^n|0>
    # out of the space: the preimage FAILs, and the witness is the trees'
    rep = build(rid, params)
    bad = _bumped(rep, "J-", lambda g: g + _kit_node(rep, "b"))
    assert verify._transported(dataclasses.replace(bad)) is not None
    report = full_verify(bad)
    assert report.to_json() == _tree_path(monkeypatch, bad)
    line = report.check("invariant_subspace")
    assert not line.passed and line.witness.startswith("J- maps ")
    assert report.check("irreducibility") is None
    with pytest.raises(ValueError) as transported:
        burnside_irreducibility(dataclasses.replace(bad))
    monkeypatch.setattr(verify, "_transported", lambda rep: None)
    with pytest.raises(ValueError) as on_trees:
        burnside_irreducibility(dataclasses.replace(bad))
    assert str(transported.value) == str(on_trees.value) == line.witness


@pytest.mark.parametrize("rid, params", [
    ("sl2_translated", {"n": 3, "delta": rat(1, 2)}),
    ("sl2q", {"alpha": 2, "q": rat(3, 5), "delta": 1}),
])
def test_a_bump_that_makes_c_no_scalar_fails_as_on_the_trees(monkeypatch, rid, params):
    # J0 added to the Casimir, and J0 doubled: C is no scalar on the space,
    # and the casimir_value witness (and value) is the trees'
    rep = build(rid, params)
    for bad in (dataclasses.replace(rep, casimir=dataclasses.replace(
                    rep.casimir, terms=[*rep.casimir.terms, (1, ("J0",))])),
                _bumped(rep, "J0", lambda g: g.scale(2))):
        assert verify._transported(dataclasses.replace(bad)) is not None
        report = full_verify(bad)
        assert report.to_json() == _tree_path(monkeypatch, bad)
        value = report.check("casimir_value")
        assert not value.passed and value.witness.startswith("on ")
        assert report.check("invariant_subspace").passed


def test_a_preimage_fail_the_trees_do_not_confirm_raises(monkeypatch):
    # a preimage rep that is not the trees' (J- + b in place of J-, and 2 J0
    # in place of J0) breaks the kit lemma: the checks raise, never PASS
    rep = build("sl2_translated", {"n": 3, "delta": rat(1, 2)})
    pre = verify._preimages(dataclasses.replace(rep))
    wrong_j = _bumped(pre, "J-", lambda g: g + Poly(WeylElement.b(rep.modes)))
    monkeypatch.setattr(verify, "_transported", lambda rep: wrong_j)
    for check in (invariant_subspace, burnside_irreducibility):
        with pytest.raises(RuntimeError, match="kit lemma"):
            check(dataclasses.replace(rep))
    wrong_c = _bumped(pre, "J0", lambda g: g.scale(2))
    monkeypatch.setattr(verify, "_preimages", lambda rep: wrong_c)
    monkeypatch.setattr(verify, "_transported", lambda rep: wrong_c)
    with pytest.raises(RuntimeError, match="kit lemma"):
        casimir_check(dataclasses.replace(rep))


def test_a_space_not_closed_downward_takes_the_tree_path():
    # S maps the span of b^0 and b^2 elsewhere, so no transport: the trees
    # decide it, and FAIL it
    rep = build("sl2_translated", {"n": 3, "delta": rat(1, 2)})
    gapped = dataclasses.replace(rep, invariant_space=InvariantSpace(
        lambda alpha, beta: alpha[0] in (0, 2), 2, 2, "span(|0>, b^2|0>)"))
    assert verify._transported(dataclasses.replace(rep)) is not None
    assert verify._transported(dataclasses.replace(gapped)) is None
    assert not invariant_subspace(dataclasses.replace(gapped))[1].passed


def test_no_transported_rep_applies_a_generator_tree_to_decide_its_space_or_casimir(monkeypatch):
    # on the full grid, no rep with preimages forms or reads a column of a
    # generator node (Compiled.column) in its casimir, invariant_subspace or
    # irreducibility entries; on the tree path the first two apply them, and
    # Burnside reads the columns the invariant space formed
    active, applied = [], Counter()
    column = Compiled.column

    def counting(self, key):
        if active and id(self) in active[-1][1]:
            applied[active[-1][0]] += 1
        return column(self, key)

    def watched(name, run):
        def entry(rep):
            active.append((name, {id(g) for g in rep.generators.values()}))
            try:
                return run(rep)
            finally:
                active.pop()
        return entry

    monkeypatch.setattr(Compiled, "column", counting)
    monkeypatch.setattr(verify, "CHECKS", [
        (name, when, watched(name, run) if name in ("casimir", "invariant_subspace",
                                                     "irreducibility") else run)
        for name, when, run in verify.CHECKS])
    reps = [rep for rep in (build(rid, params) for rid, params in acceptance_grid())
            if verify._transported(dataclasses.replace(rep)) is not None]
    assert len(reps) == 72
    for rep in reps:
        assert full_verify(rep).passed
    assert not applied
    monkeypatch.setattr(verify, "_transported", lambda rep: None)
    full_verify(reps[0])
    assert set(applied) == {"casimir", "invariant_subspace"}


def test_grid_relation_lines_read_off_the_table_equal_the_residual_path(monkeypatch):
    # every relation line of the full grid, as the table reads it and as the
    # residual path decides it with the table forced away; 74 reps have
    # their every relation read off the table, and no such line forms a
    # generator bracket (RepSpec.bracket) once closure is formed
    calls = []
    bracket = RepSpec.bracket
    decided = 0
    for rid, params in acceptance_grid():
        rep = build(rid, params)
        if not rep.relations:
            continue
        copy = dataclasses.replace(rep)
        table = verify._exact_table(copy)
        monkeypatch.setattr(RepSpec, "bracket",
                            lambda self, *args: calls.append(args) or bracket(self, *args))
        lines = check_relations(copy)
        monkeypatch.setattr(RepSpec, "bracket", bracket)
        if all(_table_decides(table, rel) for rel in rep.relations):
            decided += 1
            assert not calls, (rid, params)
        del calls[:]
        with monkeypatch.context() as patched:
            patched.setattr(verify, "_exact_table", lambda rep: None)
            assert lines == check_relations(dataclasses.replace(rep))
        assert all(line.passed for line in lines)
    assert decided == 74


@pytest.mark.parametrize("rid, params", [
    ("sl2_standard", {"n": 2}),
    ("sl2_translated", {"n": 3, "delta": rat(1, 2)}),
    ("osp22", {"n": 2}),
])
def test_a_table_that_disagrees_leaves_the_residual_witness(monkeypatch, rid, params):
    # the first even generator doubled: the brackets still close, so the
    # table is exact, but its coordinates of [X0,X+] are not the claimed
    # ones; those lines take the residual path and FAIL with its witness
    rep = build(rid, params)
    name = next(iter(n for n in rep.generators if n.endswith("0")))
    bad = _bumped(rep, name, lambda g: g.scale(2))
    copy = dataclasses.replace(bad)
    table = verify._exact_table(copy)
    assert table is not None
    assert not all(_table_decides(table, rel) for rel in bad.relations)
    lines = check_relations(copy)
    with monkeypatch.context() as patched:
        patched.setattr(verify, "_exact_table", lambda rep: None)
        assert lines == check_relations(dataclasses.replace(bad))
    assert [line for line in lines if not line.passed] and all(
        line.witness for line in lines if not line.passed)
