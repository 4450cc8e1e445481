import dataclasses
import json
import re
from collections import Counter

import pytest

from fockrep import catalogue, fock, realize
from fockrep.catalogue import FAMILIES, build, fock_kit
from fockrep.fock import (Compiled, OperatorExpr, Poly, Product, Scale, Sum,
                          basis_states, check_identity, identity_op, state_degree, to_matrix)
from fockrep.grids import acceptance_grid
from fockrep.realize import (Cliff, CliffordMatrices, Dminus, Dplus, JacksonX,
                             MultX, Partial, RealizeError, ShiftX,
                             abstract_counterpart, cross_check,
                             fd_kit, fd_pair, poly_to_matrix, realize_generators)
from fockrep.scalars import Scalar, inverse, rat
from fockrep.verify import full_verify
from fockrep.weyl import ModeSystem, WeylElement
from oracles import (clifford_identity, clifford_matmul, q_pair_fd, walk_cross_check,
                     weyl_to_differential)
from pinning import check_pinned, cross_check_matrices, cross_check_results

B1 = ModeSystem(1, 0)


def poly1(coeffs):
    """dict x^k -> coeff in the one-variable spinorless space."""
    return {((k,), 0): c for k, c in coeffs.items() if c}


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
            for key, c in term.items():
                coeff = c * Scalar(delta ** j) * Scalar(rat(1, factorial(j)))
                series[key] = series.get(key, Scalar(0)) + coeff
            term = Partial(B1, 1).apply(term)
        series = {k2: v for k2, v in series.items() if v}
        assert shift.apply(f) == series


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
    ms = ModeSystem(0, 2)
    cl = CliffordMatrices(2)
    a_f = [Cliff(ms, m) for m in cl.a_f]
    b_f = [Cliff(ms, m) for m in cl.b_f]
    one, zero = identity_op(ms), Poly(WeylElement.zero(ms))
    # cutoff 4 covers every spinor state even for b_f b_f, which raises by 2
    for i in range(2):
        for j in range(2):
            for x, y, want in ((a_f[i], b_f[j], one if i == j else zero),
                               (a_f[i], a_f[j], zero), (b_f[i], b_f[j], zero)):
                report = check_identity(x * y + y * x, want, 4)
                assert report.equal and report.tested_degree >= 2, (i, j, want)


def test_pauli_matches_abstract_fermions():
    # the Kronecker matrices act exactly like th/dth on the graded basis
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
        leaves.append(Cliff(modes, clifford_identity(modes.fermionic)))
        if modes.fermionic:
            leaves += [Cliff(modes, cl.a_f[0]), Cliff(modes, cl.b_f[0]),
                       Cliff(modes, clifford_matmul(cl.b_f[0], cl.a_f[0]))]
        for leaf in leaves:
            bound = leaf.max_raise()
            attained = False
            for key in basis_states(modes, 6):
                degrees = [state_degree(k) for k in leaf.apply({key: 1})]
                assert all(d <= state_degree(key) + bound for d in degrees), \
                    (modes, type(leaf).__name__, key)
                attained = attained or state_degree(key) + bound in degrees
            assert attained, (modes, type(leaf).__name__)


def test_differential_cross_check_fails_on_a_bumped_rep_generator():
    # the realization is the family's formula, so a rep generator bumped by
    # (1/3) b a no longer equals its realized counterpart
    for rid, params, name in [("sl2_standard", {"n": 2}, "J0"), ("osp22", {"n": 2}, "Q2"),
                              ("gl_super", {"k": 2, "r": 1, "n": 2}, "T0_12")]:
        rep = build(rid, params)
        gens = dict(rep.generators)
        gens[name] = gens[name] + Poly(WeylElement.monomial(rep.modes, (1,), (1,),
                                                            coeff=rat(1, 3)))
        results = cross_check(dataclasses.replace(rep, generators=gens), "differential")
        failed = [c for c in results if not c.passed]
        assert [c.name for c in failed] == ["cross differential %s" % name], rid
        assert re.match(r"column \d+ differs: realized ", failed[0].witness), rid


def _count_to_matrix(monkeypatch) -> list:
    """Wrap fock.to_matrix wherever realize reaches it; returns the call log."""
    calls = []

    def counted(op, cutoff, inner=to_matrix):
        calls.append(op)
        return inner(op, cutoff)

    monkeypatch.setattr(fock, "to_matrix", counted)
    monkeypatch.setattr(realize, "to_matrix", counted)
    return calls


def test_cross_check_decides_overflow_columns_by_their_matrices(monkeypatch):
    # J+ overflows on b^cutoff on both sides, and the bump only adds to the
    # out-of-basis part of that column: no compared entry changes, so PASS.
    # J0 keeps the degree, and the same bump makes its b^cutoff column
    # overflow on the realized side only: FAIL.
    rep = build("sl2_standard", {"n": 2})
    cutoff = rep.default_cutoff
    bump = Poly(WeylElement.monomial(rep.modes, (cutoff + 1,), (cutoff,), coeff=rat(1, 3)))
    gens = realize_generators(rep, "differential")
    gens["J+"] = gens["J+"] + bump
    gens["J0"] = gens["J0"] + bump
    monkeypatch.setattr(realize, "realize_generators", lambda rep, kind: gens)
    calls = _count_to_matrix(monkeypatch)
    failed = [c for c in cross_check(rep, "differential") if not c.passed]
    assert [c.name for c in failed] == ["cross differential J0"]
    assert failed[0].witness == "overflow columns differ: [%d] vs []" % cutoff
    # both differ on b^cutoff, so both sides' matrices were formed for each
    assert len(calls) == 4


def test_passing_cross_checks_form_no_matrix(monkeypatch):
    calls = _count_to_matrix(monkeypatch)
    for rid, params, kind in [("sl2_standard", {"n": 3}, "differential"),
                              ("gl_super", {"k": 2, "r": 1, "n": 2}, "differential"),
                              ("osp22_translated", {"n": 2, "delta": rat(1)}, "fd"),
                              ("sl2q", {"alpha": 2, "q": rat(3, 5)}, "jackson")]:
        results = cross_check(build(rid, params), kind)
        assert results and all(c.passed for c in results), (rid, kind)
    assert calls == []


def _grid_pairs():
    """Every (grid instance, kind) pair that realize accepts, as (rep, kind)."""
    for rep_id, params in acceptance_grid():
        rep = build(rep_id, params)
        for kind in realize.KINDS:
            try:
                realize_generators(rep, kind)
            except RealizeError:
                continue
            yield rep, kind


def test_cross_check_equals_the_walk_on_the_grid():
    # the kit theorem decides a line only as the matrix comparison would: on all
    # 227 pairs every line's name, status, detail and witness are the walk's
    pairs = 0
    for rep, kind in _grid_pairs():
        assert cross_check(rep, kind) == walk_cross_check(rep, kind), (rep.rep_id, kind)
        pairs += 1
    assert pairs == 227


def test_passing_kit_theorem_lines_walk_no_state(monkeypatch):
    # every differential, fd and Jackson line of the grid passes by the kit
    # theorem, with no call to the matrix comparison: the Jackson pair is marked
    # with the q-mode's a and b, so its 108 lines read back too
    calls = Counter()

    def counted(realized, abstract, cutoff, inner=realize._difference):
        calls[kind] += 1
        return inner(realized, abstract, cutoff)

    monkeypatch.setattr(realize, "_difference", counted)
    lines = Counter()
    for rep, kind in _grid_pairs():
        results = cross_check(rep, kind)
        assert all(c.passed for c in results), (rep.rep_id, kind)
        lines[kind] += len(results)
    assert not calls
    assert lines["jackson"] == 108


# the highest degree a grid line's realized tree reaches from its cutoff
LEMMA_DEGREE = 14


def _kit_lemma_breach(realized, counterpart) -> str:
    """"" when the kit lemma behind a kit-theorem PASS (realize.cross_check)
    holds node by node (Kit.nodes): each realized pair node is marked with
    what the counterpart's node in its place stands for (its mark, or the
    Fock polynomial itself), and the two act equally on every basis state
    up to LEMMA_DEGREE; otherwise the first breach."""
    pairs = list(zip(realized.nodes(), counterpart.nodes(), strict=True))
    for x, y in pairs:
        mark = y.as_weyl() if y.marked is None else y.marked
        if mark is None or x.marked != mark:
            return "marked %s in place of %s" % (x.marked, mark)
    for key in basis_states(realized.one.modes, LEMMA_DEGREE):
        for x, y in pairs:
            if x.apply({key: 1}) != y.apply({key: 1}):
                return "%s acts differently on %s" % (x.marked, key)
    return ""


def _kit_pairs(cases) -> list:
    """(realized, counterpart) for each kit pair the lines of the (rep id,
    params) cases build, once per pair; the differential kind's
    counterpart is the Fock kit, and the Jackson kind's the q-mode's Fock
    kit."""
    pairs = {}
    for rid, params in cases:
        rep = build(rid, params)
        for make_realized, make_counterpart in realize.KINDS.values():
            try:
                kit = make_realized(rep)
            except RealizeError:
                continue
            other = fock_kit(rep.modes) if make_counterpart is None else make_counterpart(rep)
            pairs[id(kit), id(other)] = kit, other
    return list(pairs.values())


def test_the_function_kits_are_their_counterpart_kits_node_by_node():
    # the lemma a kit-theorem PASS rests on, on all 24 kit pairs of the grid
    # (21 differential and fd, 3 Jackson, one per q) and at an off-grid fd
    # step with a fermionic mode
    pairs = _kit_pairs(acceptance_grid())
    assert len(pairs) == 24
    modes, steps = ModeSystem(1, 1), (rat(7, 3),)
    pairs.append((fd_kit(modes, steps), fock_kit(modes, steps)))
    for kit, other in pairs:
        assert _kit_lemma_breach(kit, other) == "", kit.one.modes


def _breaches(cases) -> list:
    return [_kit_lemma_breach(kit, other) for kit, other in _kit_pairs(cases)]


def test_a_partial_off_at_one_degree_breaks_the_kit_lemma(monkeypatch, fresh_kits):
    # d/dx doubled on the states of degree LEMMA_DEGREE alone
    class OffPartial(Partial):
        def apply(self, terms):
            return super().apply({key: c * 2 if state_degree(key) == LEMMA_DEGREE else c
                                  for key, c in terms.items()})

    monkeypatch.setattr(realize, "Partial", OffPartial)
    # the differential kit, then the fd kit, which holds no d/dx
    assert _breaches([("sl2_metaplectic", {})]) == \
        ["a acts differently on ((%d,), 0)" % LEMMA_DEGREE, ""]


def test_a_jackson_derivative_at_a_wrong_q_breaks_the_kit_lemma(monkeypatch, fresh_kits):
    # JacksonX built at 2q: [1] is 1 at every q, so the two first differ on x^2
    class WrongQ(JacksonX):
        def __init__(self, modes, i, q):
            super().__init__(modes, i, 2 * q)

    monkeypatch.setattr(realize, "JacksonX", WrongQ)
    assert _breaches([("sl2q", {"alpha": 2, "q": rat(3, 5)})]) == \
        ["a acts differently on ((2,), 0)"]


def test_a_flipped_clifford_sign_breaks_the_kit_lemma(monkeypatch, fresh_kits):
    # one entry of the last dth matrix negated, in every function kit
    class Flipped(CliffordMatrices):
        def __init__(self, r):
            super().__init__(r)
            if r:
                (entry, v), *rest = self.a_f[-1].items()
                self.a_f[-1] = {entry: -v, **dict(rest)}

    monkeypatch.setattr(realize, "CliffordMatrices", Flipped)
    # osp22's differential kit, gl_super's differential and fd kits, and
    # osp22_translated's fd kit: each breaks at its first state with a fermion
    assert _breaches([("osp22", {"n": 2}), ("gl_super", {"k": 2, "r": 1, "n": 1}),
                      ("osp22_translated", {"n": 2, "delta": rat(1)})]) == \
        ["dth acts differently on ((0,), 1)"] + \
        ["dth acts differently on ((0, 0), 1)"] * 2 + ["dth acts differently on ((0,), 1)"]


def test_an_fd_pair_at_the_wrong_step_breaks_the_kit_lemma(monkeypatch, fresh_kits):
    # D+ built at twice the pair's step, b left as it is
    def wrong_step(modes, i, delta, pair=realize.fd_pair):
        return (Dplus(modes, i, 2 * delta), pair(modes, i, delta)[1])

    monkeypatch.setattr(realize, "fd_pair", wrong_step)
    # D+ at 2d and at d agree up to degree 1; gl_super's differential kit
    # holds no D+
    assert _breaches([("sl2_translated", {"n": 2, "delta": rat(1, 2)}),
                      ("gl_super", {"k": 2, "r": 1, "n": 1}),
                      ("osp22_translated", {"n": 2, "delta": rat(1)})]) == \
        ["a acts differently on ((2,), 0)", "", "a2 acts differently on ((0, 2), 0)",
         "a acts differently on ((2,), 0)"]


def test_cross_check_refuses_a_negative_cutoff():
    # an empty basis would pass every line unchecked
    for rid, params, kind in [("sl2_standard", {"n": 2}, "differential"),
                              ("sl2_translated", {"n": 2, "delta": rat(1, 2)}, "fd"),
                              ("sl2q", {"alpha": 1, "q": rat(2)}, "jackson")]:
        with pytest.raises(ValueError, match="cutoff must be nonnegative"):
            cross_check(dataclasses.replace(build(rid, params), default_cutoff=-1), kind)


def test_differential_formula_matches_the_relabeled_normal_form():
    # the reference the differential check used before it was the family's
    # formula: each generator's normal form relabeled monomial by monomial
    checked = set()
    for rep_id, params in acceptance_grid(small=True):
        rep = build(rep_id, params)
        if not rep.is_polynomial() or rep.modes.q != 1:  # d/dx is no q-mode's a
            continue
        cutoff = rep.default_cutoff
        for name, op in realize_generators(rep, "differential").items():
            got = to_matrix(op, cutoff)
            want = to_matrix(weyl_to_differential(rep.generator(name).as_weyl()), cutoff)
            assert got.cols == want.cols and \
                got.overflow_columns == want.overflow_columns, (rep_id, name)
        checked.add(rep_id)
    assert len(checked) == 12


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
        rep = build(rid, params)
        if deltas is None:
            # at the record's own steps the walk, given them, gives cross_check's lines
            results = cross_check(rep, "fd")
            steps = FAMILIES[rid].fd_steps(rep.modes, rep.params)
            assert walk_cross_check(rep, "fd", steps) == results, rid
        else:
            results = walk_cross_check(rep, "fd", deltas)
        assert all(c.passed for c in results), (rid, [c.witness for c in results
                                                      if not c.passed])


# one small instance of each family with an fd realization
FD_FAMILIES = [
    ("sl2_translated", {"n": 2, "delta": rat(1, 2)}),
    ("sl2_metaplectic", {}),
    ("sl3_translated", {"n": 1, "delta1": rat(1), "delta2": rat(-1, 3)}),
    ("glk", {"k": 3, "n": 1}),
    ("gl_super", {"k": 2, "r": 1, "n": 1}),
    ("osp22_translated", {"n": 2, "delta": rat(1)}),
]


def _same_matrices(left: dict, right: dict, cutoff: int) -> bool:
    assert list(left) == list(right)
    for name in left:
        got, want = to_matrix(left[name], cutoff), to_matrix(right[name], cutoff)
        if got.cols != want.cols or got.overflow_columns != want.overflow_columns:
            return False
    return True


def _nodes(op):
    yield op
    for child in getattr(op, "parts", ()) or getattr(op, "factors", ()):
        yield from _nodes(child)
    if getattr(op, "inner", None) is not None:
        yield from _nodes(op.inner)


def _raw(op):
    """op's tree with every Compiled node replaced by its raw inner tree."""
    if isinstance(op, Compiled):
        return _raw(op.inner)
    if isinstance(op, Sum):
        return Sum([_raw(part) for part in op.parts])
    if isinstance(op, Product):
        return Product([_raw(factor) for factor in op.factors])
    if isinstance(op, Scale):
        return Scale(op.coeff, _raw(op.inner))
    return op


def test_compiled_kits_give_the_same_matrices():
    # a Kit caches each pair's columns; the generators' matrices over it
    # equal those of the same trees with no Compiled node, on both sides of
    # the fd check
    cutoff = 4
    for rid, params in FD_FAMILIES:
        rep = build(rid, params)
        deltas = FAMILIES[rid].fd_steps(rep.modes, rep.params)
        formula = FAMILIES[rid].formula
        for kit in (fd_kit(rep.modes, deltas), fock_kit(rep.modes, deltas)):
            assert all(isinstance(x, Compiled) for x in kit.a + kit.b)
            gens = formula(kit, rep.params)
            raw = {name: _raw(op) for name, op in gens.items()}
            assert not any(isinstance(node, Compiled)
                           for op in raw.values() for node in _nodes(op))
            assert _same_matrices(gens, raw, cutoff), rid
        if rid.endswith("_translated"):
            # the counterpart is the catalogue's own formula over the same kit
            counterpart = abstract_counterpart(rep, "fd")
            assert _same_matrices(counterpart, rep.generators, cutoff), rid


def test_cross_check_leaves_the_catalogue_rep_alone():
    # the rep's generators are the same objects, holding the same Compiled
    # nodes (its kit's), before and after
    for rid, params in FD_FAMILIES:
        rep = build(rid, params)
        before = dict(rep.generators)
        held = {name: [id(node) for node in _nodes(op) if isinstance(node, Compiled)]
                for name, op in rep.generators.items()}
        assert all(c.passed for c in cross_check(dataclasses.replace(rep, default_cutoff=4),
                                                 "fd")), rid
        assert rep.generators.keys() == before.keys()
        for name, op in rep.generators.items():
            assert op is before[name], (rid, name)
            assert [id(node) for node in _nodes(op)
                    if isinstance(node, Compiled)] == held[name], (rid, name)


class _CountingApply(OperatorExpr):
    """wrapped, counting how often apply meets each state."""

    def __init__(self, wrapped):
        self.modes = wrapped.modes
        self.wrapped = wrapped
        self.calls = Counter()

    def max_raise(self):
        return self.wrapped.max_raise()

    def apply(self, terms):
        self.calls.update(terms)
        return self.wrapped.apply(terms)


# the generators of each formula that contain its intermediate (T0, J0, num)
SHARED_INTERMEDIATE = [
    ("gl_super", {"k": 2, "r": 2, "n": 1}, ["T0", "T1+", "T2+", "Qb1+", "Qb2+"]),
    ("glk", {"k": 4, "n": 1}, ["J0", "J2+", "J3+", "J4+"]),
    ("sl3_translated", {"n": 1, "delta1": rat(1), "delta2": rat(-1, 3)}, ["J1+", "J2+"]),
]


def test_compiled_kits_share_each_formulas_intermediate():
    for rid, params, names in SHARED_INTERMEDIATE:
        rep = build(rid, params)
        deltas = FAMILIES[rid].fd_steps(rep.modes, rep.params)
        for kit in (fd_kit(rep.modes, deltas), fock_kit(rep.modes, deltas)):
            gens = FAMILIES[rid].formula(kit, rep.params)
            pairs = {id(x) for x in kit.a + kit.b}
            shared = {name: {id(node): node for node in _nodes(gens[name])
                             if isinstance(node, Compiled) and id(node) not in pairs}
                      for name in names}
            (node,) = shared[names[0]].values()
            assert all(set(found) == {id(node)} for found in shared.values()), rid
            # a to_matrix sweep over every generator applies its inner
            # operator to each basis state at most once
            node.inner = _CountingApply(node.inner)
            for op in gens.values():
                to_matrix(op, rep.default_cutoff)
            calls = node.inner.calls
            assert calls and max(calls.values()) == 1, rid
        # a polynomial intermediate is not wrapped and still folds
        gens = FAMILIES[rid].formula(fock_kit(rep.modes), rep.params)
        assert all(gens[name].as_weyl() is not None and not isinstance(gens[name], Compiled)
                   for name in names), rid


def _recording_shared(monkeypatch) -> list:
    """Record, from now on, each node that catalogue.shared hands out, in
    order: every pair node of a Kit made, every intermediate a formula
    shares and every generator a RepSpec stores."""
    handed = []

    def recording(x):
        node = fock.shared(x)
        handed.append(node)
        return node

    monkeypatch.setattr(catalogue, "shared", recording)
    return handed


def _compiled_by_id(nodes) -> dict:
    return {id(node): node for node in nodes if isinstance(node, Compiled)}


def _held_once(gens: dict, node: Compiled) -> list:
    """The generators whose trees hold node, after checking that each holds
    node's inner tree only inside node."""
    users = []
    for name, op in gens.items():
        nodes = list(_nodes(op))
        wrapped = sum(x is node for x in nodes)
        assert sum(x is node.inner for x in nodes) == wrapped, name
        assert not any(isinstance(x, Compiled) and x is not node and x.inner is node.inner
                       for x in nodes), name
        if wrapped:
            users.append(name)
    return users


# (rid, params, realization or None for the catalogue rep, the shared
# nodes it makes: non-polynomial pair nodes and intermediates)
SHARING = [
    ("sl2_translated", {"n": 2, "delta": rat(1, 2)}, None, 3),
    ("sl3_translated", {"n": 1, "delta1": rat(1), "delta2": rat(-1, 3)}, None, 5),
    ("osp22_translated", {"n": 2, "delta": rat(1)}, None, 3),
    ("sl2q", {"alpha": 2, "q": rat(2)}, None, 0),
    ("sl2q", {"alpha": 2, "q": rat(3, 5), "delta": 1}, None, 2),
    ("sl2q", {"alpha": 2, "q": rat(2)}, "jackson", 2),
    ("sl2_standard", {"n": 2}, "differential", 3),
    ("sl3_fock", {"n": 2}, "differential", 5),
    ("glk", {"k": 3, "n": 1}, "differential", 5),
    ("gl_super", {"k": 2, "r": 1, "n": 1}, "differential", 5),
    ("osp22", {"n": 2}, "differential", 3),
] + [(rid, params, kind, {"sl2_translated": 3, "sl2_metaplectic": 2, "sl3_translated": 5,
                          "glk": 5, "gl_super": 5, "osp22_translated": 3}[rid])
     for rid, params in FD_FAMILIES for kind in ("fd", "fd counterpart")]


@pytest.mark.parametrize("rid, params, kind, count", SHARING)
def test_each_pair_and_intermediate_is_one_compiled_node(monkeypatch, fresh_kits, rid, params,
                                                         kind, count):
    # on the catalogue rep, each realized kind and the fd counterpart, each
    # kit pair node and each formula intermediate is one Compiled node,
    # held by every generator that uses it and never bare; the kits start
    # unmade, so the recorder sees each kit's pair nodes made
    handed = _recording_shared(monkeypatch)
    rep = build(rid, params)
    if kind is None:
        # build's last shared calls store the rep's generators, one each
        m = len(rep.generators)
        assert all(x is g for x, g in zip(handed[-m:], rep.generators.values()))
        made = _compiled_by_id(handed[:-m])
        sets = [rep.generators, dataclasses.replace(rep).generators]  # a report keeps them
    else:
        fresh_kits()  # a translated rep's fd counterpart is its own kit
        handed.clear()
        sets = [abstract_counterpart(rep, "fd") if kind == "fd counterpart"
                else realize_generators(rep, kind)]
        made = _compiled_by_id(handed)
    assert len(made) == count
    for gens in sets:
        for node in made.values():
            assert _held_once(gens, node), (rid, kind)


def _held_compiled(gens: dict) -> set:
    return {id(node) for op in gens.values() for node in _nodes(op) if isinstance(node, Compiled)}


def test_one_kit_per_key_is_shared_by_every_build(fresh_kits):
    # two builds over the same (modes, steps) hold the identical pair nodes,
    # the memo's kit's, and nothing else in common; other steps, other nodes
    half = rat(1, 2)
    one, four = (build("sl2_translated", {"n": n, "delta": half}) for n in (1, 4))
    kit = fock_kit(one.modes, (half,))
    assert _held_compiled(one.generators) & _held_compiled(four.generators) == \
        {id(x) for x in kit.a + kit.b}
    other = build("sl2_translated", {"n": 1, "delta": rat(1)})
    assert not _held_compiled(one.generators) & _held_compiled(other.generators)
    one, four = (build("gl_super", {"k": 1, "r": 1, "n": n}) for n in (1, 4))
    fd_one, fd_four = realize_generators(one, "fd"), realize_generators(four, "fd")
    kit, other = fd_kit(one.modes, (rat(1),)), fd_kit(one.modes, (half,))
    assert _held_compiled(fd_one) & _held_compiled(fd_four) == {id(x) for x in kit.a + kit.b}
    assert not {id(x) for x in kit.a + kit.b} & {id(x) for x in other.a + other.b}


def test_a_cold_and_a_warm_kit_give_the_same_reports(fresh_kits):
    # the small grid's reports and its cross results, from unmade kits and
    # again on freshly built reps over the kits the first pass made, are the
    # same bytes, and the reports are the pinned ones
    def passes():
        reports, crosses = [], []
        for rep_id, params in acceptance_grid(small=True):
            reports.append(full_verify(build(rep_id, params)).to_json())
            for kind in realize.KINDS:
                try:
                    crosses.append([dataclasses.asdict(r)
                                    for r in cross_check(build(rep_id, params), kind)])
                except RealizeError:
                    continue
        return (json.dumps(reports, indent=2, sort_keys=True) + "\n",
                json.dumps(crosses, sort_keys=True))

    cold = passes()
    assert fd_kit.cache_info().currsize and fock_kit.cache_info().currsize
    made = [memo.cache_info().misses for memo in (fock_kit, fd_kit)]
    assert passes() == cold
    assert [memo.cache_info().misses for memo in (fock_kit, fd_kit)] == made
    check_pinned("small_grid", cold[0])


def test_no_memo_changes_a_report(fresh_kits):
    # from cleared memos (every one in conftest.MEMOS), the small grid in
    # grid order and, from cleared memos again, in reverse order gives each
    # instance the same report JSON
    grid = list(acceptance_grid(small=True))

    def reports(order):
        fresh_kits()
        return {i: json.dumps(full_verify(build(*grid[i])).to_json(), sort_keys=True)
                for i in order}

    forward = reports(range(len(grid)))
    assert reports(reversed(range(len(grid)))) == forward


def test_a_bump_over_a_shared_kit_does_not_leak():
    # a generator bumped over the memo's kit is a new tree: the next build
    # of the rep, and its next fd realization, still pass
    bump = Poly(WeylElement.monomial(B1, (1,), (1,), coeff=rat(1, 3)))
    params = {"n": 2, "delta": rat(1, 2)}
    rep = build("sl2_translated", params)
    gens = dict(rep.generators)
    gens["J0"] = gens["J0"] + bump
    assert not full_verify(dataclasses.replace(rep, generators=gens)).passed
    fd = realize_generators(rep, "fd")
    fd["J0"] = fd["J0"] + bump
    assert realize._difference(fd["J0"], rep.generators["J0"], rep.default_cutoff)
    again = build("sl2_translated", params)
    assert full_verify(again).passed
    assert all(c.passed for c in cross_check(again, "fd"))


def test_a_kit_is_frozen():
    kit = fd_kit(B1, (rat(1),))
    assert all(isinstance(nodes, tuple) for nodes in (kit.a, kit.b, kit.th, kit.dth))
    for name in ("a", "b", "th", "dth", "one"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(kit, name, ())


def test_cross_check_fails_on_a_bumped_fd_generator(monkeypatch):
    # a single monomial added to one realized generator over the compiled
    # kit must still show as a differing column
    for rid, params, name in [("sl2_translated", {"n": 2, "delta": rat(1, 2)}, "J0"),
                              ("gl_super", {"k": 2, "r": 1, "n": 1}, "T0_12")]:
        rep = build(rid, params)
        gens = realize_generators(rep, "fd")
        bump = Poly(WeylElement.monomial(rep.modes, (1,), (1,), coeff=rat(1, 3)))
        gens[name] = gens[name] + bump
        monkeypatch.setattr(realize, "realize_generators", lambda rep, kind, gens=gens: gens)
        results = cross_check(dataclasses.replace(rep, default_cutoff=4), "fd")
        failed = [c for c in results if not c.passed]
        assert [c.name for c in failed] == ["cross fd %s" % name], rid
        assert re.match(r"column \d+ differs: realized ", failed[0].witness), rid
        monkeypatch.undo()


def test_jackson_cross_check():
    for q in (rat(2), rat(1, 2), rat(3, 5)):
        rep = dataclasses.replace(build("sl2q", {"alpha": 2, "q": q}), default_cutoff=6)
        results = cross_check(rep, "jackson")
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
            image = op.apply({(e, 0): 1})
            assert all(sum(exps) == sum(e) for (exps, _) in image), (name, e)


# -- the paper's displayed finite-difference forms, as test data -------------------


def _sl2_display(modes, n, d):
    """The displayed fd closed forms of the shift-transformed sl2 triple."""
    nn = rat(n)
    x, dm = MultX(modes, 1), Dminus(modes, 1, d)
    return {
        "J+": (x * (identity_op(modes) + x.scale(-inverse(d)))
               * ((dm ** 2).scale(d * d) + dm.scale(-((nn + 1) * d)) + nn)),
        "J0": x * dm - nn / 2,
        "J-": Dplus(modes, 1, d),
    }


def _metaplectic_display(modes, p, d):
    x, dm = MultX(modes, 1), Dminus(modes, 1, d)
    half = rat(1, 2)
    return {
        "J+": (Dplus(modes, 1, d) ** 2).scale(half),
        "J0": (x * dm - half).scale(-half),
        # displayed with the minus sign on the d^2 D-^2 term
        "J-": (x * (x - d) * (identity_op(modes) + dm.scale(-(d + d))
                              + (dm ** 2).scale(-(d * d)))).scale(half),
    }


def _osp22_display(modes, p, d):
    nn, half = rat(p["n"]), rat(1, 2)
    kit = fd_kit(modes, (d,))
    number = MultX(modes, 1) * Dminus(modes, 1, d)
    proj_up = Cliff(modes, {(0, 0): 1})    # spinor level empty
    proj_dn = Cliff(modes, {(1, 1): 1})    # spinor level occupied
    sp, sm = kit.dth[0], kit.th[0]
    return {
        "T+": (_sl2_display(modes, nn, d)["J+"] * proj_up
               + _sl2_display(modes, nn - 1, d)["J+"] * proj_dn),
        "T0": (number - nn * half) * proj_up + (number - (nn - 1) * half) * proj_dn,
        "T-": kit.a[0],
        "J": proj_up.scale(-(nn * half)) + proj_dn.scale(-((nn + 1) * half)),
        "Q1": sp,
        "Q2": kit.b[0] * sp,
        "Qb1": (number - nn) * sm,
        "Qb2": -kit.a[0] * sm,
    }


FD_DISPLAYS = {
    "sl2_translated": lambda modes, p, d: _sl2_display(modes, p["n"], d),
    "sl2_metaplectic": _metaplectic_display,
    "osp22_translated": _osp22_display,
}


def _display_verdicts(rid, params, d=None) -> dict:
    """MATCH or DIFFERS per displayed fd form of the family at params, each
    compared with the fd realization, at step d or the record's, by the
    matrix comparison a cross check falls back to (realize._difference)."""
    rep = build(rid, params)
    (d,) = (d,) if d is not None else FAMILIES[rid].fd_steps(rep.modes, rep.params)
    normative = FAMILIES[rid].formula(fd_kit(rep.modes, (d,)), rep.params)
    return {name: "DIFFERS" if realize._difference(op, normative[name], rep.default_cutoff)
            else "MATCH"
            for name, op in FD_DISPLAYS[rid](rep.modes, rep.params, d).items()}


def test_fd_displayed_discrepancies_pinned():
    # raising display broken for n != 0; metaplectic J0 and J- sign typos;
    # every other displayed fd form agrees with the substitution build
    assert _display_verdicts("sl2_translated", {"n": 3, "delta": rat(1, 2)}) == \
        {"J+": "DIFFERS", "J0": "MATCH", "J-": "MATCH"}
    assert set(_display_verdicts("sl2_translated", {"n": 0, "delta": rat(1)}).values()) == \
        {"MATCH"}
    assert _display_verdicts("sl2_metaplectic", {}, rat(1, 2)) == \
        {"J+": "MATCH", "J0": "DIFFERS", "J-": "DIFFERS"}
    assert _display_verdicts("osp22_translated", {"n": 2, "delta": rat(1)}) == \
        {"T+": "DIFFERS", "T0": "MATCH", "T-": "MATCH", "J": "MATCH",
         "Q1": "MATCH", "Q2": "MATCH", "Qb1": "MATCH", "Qb2": "MATCH"}


def test_fd_number_operator_is_x_dminus():
    # b a f = x (D+ f)(x - d) = x D- f on the fd pair, so the displays that
    # write x D- for b a (sl3_translated, glk, gl_super) are the family's
    # formula over the fd kit; checked at each step those displays use
    for rid, params, deltas in [
            ("sl3_translated", {"n": 2, "delta1": rat(1), "delta2": rat(1, 2)}, None),
            ("glk", {"k": 3, "n": 2}, (rat(1), rat(1, 2))),
            ("gl_super", {"k": 2, "r": 1, "n": 2}, (rat(1), rat(1)))]:
        rep = build(rid, params)
        deltas = deltas or FAMILIES[rid].fd_steps(rep.modes, rep.params)
        kit = fd_kit(rep.modes, deltas)
        for i, d in enumerate(deltas):
            number = MultX(rep.modes, i + 1) * Dminus(rep.modes, i + 1, d)
            for key in basis_states(rep.modes, rep.default_cutoff):
                assert (kit.b[i] * kit.a[i]).apply({key: 1}) == number.apply({key: 1}), \
                    (rid, i, key)


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


def test_cross_check_results_are_pinned():
    # every cross check of the grid, verdicts and witnesses, byte for byte
    lists = cross_check_results()
    assert len(lists) == 227
    check_pinned("cross_results", json.dumps(lists, sort_keys=True))


def test_cross_check_matrices_are_pinned():
    # both sides of a cross check share one basis, so verdicts alone would
    # not show a misordered or truncated basis: pin the matrices themselves,
    # row by row in tests/pins/matrices.ledger
    records = cross_check_matrices()
    assert len(records) == 129 and len({(r[0], r[2]) for r in records}) == 19
    check_pinned("matrices", json.dumps(records, sort_keys=True))


def test_realization_coverage_on_the_grid():
    # the (instance, kind) pairs the cross checks run over stay exactly these
    fd_families = {rid for rid, record in FAMILIES.items() if record.fd_steps}
    assert fd_families == {"sl2_translated", "sl2_metaplectic", "sl3_translated",
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
            assert kind != "fd" or rep_id in fd_families
    assert accepted == {"differential": 100, "fd": 91, "jackson": 36}
