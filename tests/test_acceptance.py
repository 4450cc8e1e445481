"""Acceptance suite: one test per criterion, one printed line each.

All arithmetic is exact, so every comparison below is equality of exact
scalars; there are no tolerances anywhere.  Run with -s to see the
per-criterion lines.

Criterion 2's first clause pins the printed eigenvalue formula for the
plain sl2 Casimir.  That printed formula is internally inconsistent with
the generators it accompanies (see the decisions ledger for the four-way
derivation); the clause is asserted faithfully and fails honestly, while
everything attainable in criterion 2 is asserted green in criterion 2b.
"""

import dataclasses
import itertools
import time

from fockrep.catalogue import build, shift_pair
from fockrep.fock import (Poly, Product, Scale, Sum, basis_states, check_identity,
                          identity_op)
from fockrep.grids import DELTAS, KR_PAIRS, KS, NS, QS, RS, acceptance_grid
from fockrep.qheis import q_alpha_hat, q_number, q_pair
from fockrep.realize import JacksonX, cross_check, poly_to_matrix, realize_generators
from fockrep.scalars import Scalar, rat
from fockrep.verify import (burnside_irreducibility, casimir_check, closure, full_verify,
                            invariant_subspace, jacobi)
from fockrep.weyl import ModeSystem, WeylElement, accumulate, multiply

from oracles import (perturbed, q_pair_fd, q_swap_multiply, space_charpoly,
                     swap_multiply, verify_constants, walk_cross_check)


def _conclude(tag, label, failures):
    status = "PASS" if not failures else "FAIL"
    print("criterion %s: %s  [%s]" % (tag, status, label))
    assert not failures, "criterion %s: %s — first failures: %s" % (
        tag, label, failures[:5])


# -- 1. relation / closure / Jacobi over the whole grid ------------------------------


def test_criterion_1_relation_suite():
    failures = []
    t0 = time.monotonic()
    runs = 0
    for rep_id, params in acceptance_grid():
        report = full_verify(build(rep_id, params))
        runs += 1
        for c in report.checks:
            relevant = c.name.startswith("relation") or "closure" in c.name \
                or c.name == "jacobi"
            if relevant and not c.passed:
                failures.append((rep_id, {k: str(v) for k, v in params.items()},
                                 c.name, c.witness))
    elapsed = time.monotonic() - t0
    label = "%d grid runs in %.1fs" % (runs, elapsed)
    if elapsed >= 60:
        failures.append(("runtime", "%.1fs exceeds the 60s budget" % elapsed))
    _conclude("1", label, failures)


# -- 2. Casimir values ------------------------------------------------------------------


def test_criterion_2a_printed_sl2_casimir_formula():
    # asserted exactly as stated; the printed value -(n/2)(n/2 + 1/2) is a
    # source erratum (the consistent value is -(n/2)(n/2+1): see the
    # decisions ledger), so this clause fails honestly for n >= 1
    failures = []
    for n in NS:
        claimed = Scalar(-(rat(n) / 2) * (rat(n) / 2 + rat(1, 2)))
        measured, checks, _ = casimir_check(build("sl2_standard", {"n": rat(n)}))
        assert all(c.passed for c in checks)
        if measured != claimed:
            failures.append(("sl2_standard", n, "measured %s, printed claim %s"
                             % (measured, claimed)))
    _conclude("2a", "printed plain-sl2 Casimir formula, n in 0..5", failures)


def test_criterion_2b_attainable_casimir_values():
    failures = []
    for n in NS:
        base, checks, _ = casimir_check(build("sl2_standard", {"n": rat(n)}))
        if not all(c.passed for c in checks):
            failures.append(("sl2_standard scalar action", n))
        for delta in DELTAS:
            got, checks, _ = casimir_check(
                build("sl2_translated", {"n": rat(n), "delta": delta}))
            if got != base or not all(c.passed for c in checks):
                failures.append(("translated Casimir differs from base", n, str(delta)))
        got, _, _ = casimir_check(build("sl2_oscillator", {"n": rat(n)}))
        if got != base:
            failures.append(("oscillator Casimir differs from base", n))
    measured, checks, claim = casimir_check(build("sl2_metaplectic", {}))
    if measured != Scalar(rat(3, 16)) or claim.status != "MATCH":
        failures.append(("metaplectic", str(measured)))
    for alpha in (0, 1, 2, 3):
        for q in QS:
            ahat = q_alpha_hat(alpha, q)
            expected = Scalar(ahat * (ahat - q_number(alpha + 1, q)))
            measured, checks, claim = casimir_check(
                build("sl2q", {"alpha": alpha, "q": q}))
            if measured != expected or claim.status != "MATCH" \
                    or not all(c.passed for c in checks):
                failures.append(("sl2q", alpha, str(q), str(measured)))
    measured, _, _ = casimir_check(build("sl2q", {"alpha": 1, "q": 2}))
    if measured != Scalar(rat(-14, 25)):
        failures.append(("sl2q pinned instance", str(measured)))
    _conclude("2b", "coincidence, metaplectic 3/16, deformed Casimir", failures)


# -- 3. invariant-subspace dimensions ------------------------------------------------------


def test_criterion_3_dimension_counts():
    from math import comb

    failures = []

    def check(rep_id, params, expected):
        dim, result = invariant_subspace(build(rep_id, params))
        if not result.passed or dim != expected:
            failures.append((rep_id, {k: str(v) for k, v in params.items()},
                             dim, expected))

    for n in NS:
        check("sl2_standard", {"n": rat(n)}, n + 1)
        check("sl2_oscillator", {"n": rat(n)}, n + 1)
        for d in DELTAS:
            check("sl2_translated", {"n": rat(n), "delta": d}, n + 1)
        for q in QS:
            check("sl2q", {"alpha": rat(n), "q": q}, n + 1)
            check("sl2q", {"alpha": rat(n), "q": q, "delta": rat(1, 2)}, n + 1)
        check("sl3_fock", {"n": rat(n)}, (n + 1) * (n + 2) // 2)
        check("sl3_translated", {"n": rat(n), "delta1": rat(1), "delta2": rat(1, 2)},
              (n + 1) * (n + 2) // 2)
        for r in RS:
            expected = sum(1 for n2 in range(n // r + 1)
                           for n1 in range(n - r * n2 + 1))
            check("gl2_semidirect", {"r": rat(r), "n": rat(n)}, expected)
        for k in KS:
            check("glk", {"k": rat(k), "n": rat(n)}, comb(n + k - 1, k - 1))
        for k, r in KR_PAIRS:
            expected = sum(comb(r, f) * comb(n - f + k, k)
                           for f in range(min(r, n) + 1))
            check("gl_super", {"k": rat(k), "r": rat(r), "n": rat(n)}, expected)
    _conclude("3", "closed-form dimensions over the full grid", failures)


# -- 4. the osp(2,2) relation table ----------------------------------------------------------


def _poly_word(gens, terms, modes):
    parts = []
    for coeff, names in terms:
        op = identity_op(modes)
        for g in names:
            op = Product([op, gens[g]])
        parts.append(Scale(coeff, op))
    return Sum(parts) if parts else Scale(Scalar(0), identity_op(modes))


def test_criterion_4_osp22_table():
    failures = []
    for n in range(5):
        rep = build("osp22", {"n": rat(n)})
        lines = {rel.line for rel in rep.relations}
        if len(lines) != 16:
            failures.append(("table size", n, len(lines)))
        report = full_verify(rep)
        for c in report.checks:
            if c.name.startswith("relation") and not c.passed:
                failures.append(("abstract", n, c.name, c.witness))
        # differential realization: the same table as exact polynomial
        # operator identities (composition is exact, no truncation)
        gens = realize_generators(rep, "differential")
        states = basis_states(rep.modes, n + 2)
        for rel in rep.relations:
            lhs = _poly_word(gens, rel.lhs, rep.modes)
            rhs = _poly_word(gens, rel.rhs, rep.modes)
            for key in states:
                vec = {key: 1}
                if lhs.apply(vec) != rhs.apply(vec):
                    failures.append(("differential", n, rel.name, key))
                    break
    for n in range(5):
        for delta in (rat(1), rat(1, 2)):
            rep = build("osp22_translated", {"n": rat(n), "delta": delta})
            report = full_verify(rep)
            for c in report.checks:
                if c.name.startswith("relation") and not c.passed:
                    failures.append(("translated", n, str(delta), c.name))
    _conclude("4", "all 16 osp(2,2) relation lines, abstract + differential "
                   "+ shift family", failures)


# -- 5. irreducibility --------------------------------------------------------------------------


def test_criterion_5_burnside():
    failures = []
    for n in range(5):
        verdict, result = burnside_irreducibility(build("sl2_standard", {"n": rat(n)}))
        if verdict[0] != "irreducible" or not result.passed:
            failures.append(("sl2_standard", n, verdict))
    for k in KS:
        for n in range(4):
            verdict, result = burnside_irreducibility(
                build("glk", {"k": rat(k), "n": rat(n)}))
            if verdict[0] != "irreducible" or not result.passed:
                failures.append(("glk", k, n, verdict))
    for n in range(4):
        verdict, result = burnside_irreducibility(
            build("gl_super", {"k": rat(1), "r": rat(1), "n": rat(n)}))
        if verdict[0] != "irreducible" or not result.passed:
            failures.append(("gl_super", n, verdict))
    verdict, result = burnside_irreducibility(build("sl2_vector_field", {}))
    if verdict[0] != "reducible" or not result.passed:
        failures.append(("sl2_vector_field", verdict))
    _conclude("5", "Burnside spans match every irreducibility claim", failures)


# -- 6. cross-realization equality ----------------------------------------------------------------


def _intertwiner_failures(base, moved, deltas):
    """(generator, state) wherever g_moved S v != S g_base v on a basis
    state v of base's invariant space, for S b^alpha th^beta|0> =
    prod_i bhat_i^alpha_i th^beta|0>, bhat_i the shift pair's at deltas[i]."""
    bhats = [shift_pair(base.modes, i + 1, d)[1] for i, d in enumerate(deltas)]

    def S(vec):
        out = {}
        for (alpha, beta), c in vec.items():
            image = {((0,) * len(alpha), beta): c}
            for bhat, k in zip(bhats, alpha):
                for _ in range(k):
                    image = bhat.apply(image)
            for key, v in image.items():
                accumulate(out, key, v)
        return out

    failures = []
    for key in base.invariant_space.basis(base.modes):
        s_v = S({key: 1})
        for name, g in base.generators.items():
            if moved.generator(name).apply(s_v) != S(g.apply({key: 1})):
                failures.append((name, key))
    return failures


def test_criterion_6_cross_realizations():
    failures = []

    def expect_pass(results, tag):
        for c in results:
            if not c.passed:
                failures.append((tag, c.name, c.witness[:120]))

    for n in range(5):
        for d in DELTAS:
            expect_pass(cross_check(build("sl2_translated",
                                          {"n": rat(n), "delta": d}), "fd"),
                        ("fd sl2", n, str(d)))
    for n in range(4):
        expect_pass(cross_check(build("sl3_translated",
                                      {"n": rat(n), "delta1": rat(1),
                                       "delta2": rat(1, 2)}), "fd"),
                    ("fd sl3", n))
        for d in (rat(1), rat(1, 2)):
            expect_pass(cross_check(build("osp22_translated",
                                          {"n": rat(n), "delta": d}), "fd"),
                        ("fd osp22", n, str(d)))
    for k in KS:
        deltas = [DELTAS[i % len(DELTAS)] for i in range(k - 1)]
        expect_pass(walk_cross_check(build("glk", {"k": rat(k), "n": rat(2)}), "fd", deltas),
                    ("fd glk", k))
    expect_pass(walk_cross_check(build("gl_super", {"k": rat(2), "r": rat(1), "n": rat(2)}),
                                 "fd", [rat(1), rat(1, 2)]), "fd gl_super")
    expect_pass(walk_cross_check(dataclasses.replace(build("sl2_metaplectic", {}),
                                                     default_cutoff=6), "fd", [rat(1, 2)]),
                "fd metaplectic")
    for rid, params in [("sl2_standard", {"n": rat(3)}),
                        ("sl3_fock", {"n": rat(2)}),
                        ("glk", {"k": rat(3), "n": rat(2)}),
                        ("osp22", {"n": rat(2)}),
                        ("gl_super", {"k": rat(2), "r": rat(2), "n": rat(2)})]:
        expect_pass(cross_check(build(rid, params), "differential"),
                    ("diff", rid))
    # base vs transformed on the invariant space, n <= 4: equal (sympy)
    # characteristic polynomials of the named generators, and one
    # intertwiner S for every generator of each translated family
    def equivalent(tag, base, moved, gens, deltas=None):
        for gen in gens:
            if space_charpoly(base, gen) != space_charpoly(moved, gen):
                failures.append(("charpoly",) + tag + (gen,))
        if deltas is not None:
            failures.extend(("intertwiner",) + tag + (miss,)
                            for miss in _intertwiner_failures(base, moved, deltas))

    for n in range(5):
        base = build("sl2_standard", {"n": rat(n)})
        for d in DELTAS:
            moved = build("sl2_translated", {"n": rat(n), "delta": d})
            equivalent(("sl2", n, str(d)), base, moved, ("J+", "J0", "J-"), [d])
        equivalent(("oscillator", n), base, build("sl2_oscillator", {"n": rat(n)}), ("J0",))
    for n in range(4):
        deltas = [rat(1, 2), rat(-1, 3)]
        moved = build("sl3_translated", {"n": rat(n), "delta1": deltas[0],
                                         "delta2": deltas[1]})
        equivalent(("sl3", n), build("sl3_fock", {"n": rat(n)}), moved,
                   ("J0_1", "J1+", "J2-"), deltas)
        moved = build("osp22_translated", {"n": rat(n), "delta": rat(1, 2)})
        equivalent(("osp22", n), build("osp22", {"n": rat(n)}), moved,
                   ("T0", "T+", "J"), [rat(1, 2)])
    _conclude("6", "fd and differential matrices equal abstract matrices; "
                   "charpoly equivalence and the shift intertwiner", failures)


# -- 7. oracle equivalence ------------------------------------------------------------------------


def test_criterion_7_ordering_oracles():
    failures = []
    ms = ModeSystem(1, 0)
    monos = [WeylElement.monomial(ms, (kb,), (ka,))
             for kb in range(5) for ka in range(5)]
    for x in monos:
        for y in monos:
            if multiply(x, y) != swap_multiply(x, y):
                failures.append(("bosonic", str(x), str(y)))
    import random

    rng = random.Random(41)
    ms2 = ModeSystem(2, 0)
    pairs2 = [WeylElement.monomial(ms2, (rng.randint(0, 4), rng.randint(0, 4)),
                                   (rng.randint(0, 4), rng.randint(0, 4)))
              for _ in range(40)]
    for x in pairs2:
        for y in pairs2:
            if multiply(x, y) != swap_multiply(x, y):
                failures.append(("bosonic two-mode", str(x), str(y)))
    msf = ModeSystem(1, 2)
    fermis = []
    for bp, ap in ((0, 0), (1, 1)):
        for th in range(4):
            for dth in range(4):
                fermis.append(WeylElement.monomial(
                    msf, (bp,), (ap,),
                    [j + 1 for j in range(2) if th & (1 << j)],
                    [j + 1 for j in range(2) if dth & (1 << j)]))
    for x in fermis:
        for y in fermis:
            if multiply(x, y) != swap_multiply(x, y):
                failures.append(("fermionic", str(x), str(y)))
    for q in QS:
        msq = ModeSystem(1, 0, q)
        for k1, m1 in itertools.product(range(5), repeat=2):
            x = WeylElement.monomial(msq, (k1,), (m1,))
            for k2, m2 in itertools.product(range(5), repeat=2):
                y = WeylElement.monomial(msq, (k2,), (m2,))
                got = {(bp[0], ap[0]): c for (bp, ap, _, _), c in multiply(x, y).terms.items()}
                if got != q_swap_multiply({(k1, m1): 1}, {(k2, m2): 1}, q):
                    failures.append(("q", str(q), (k1, m1), (k2, m2)))
    _conclude("7", "closed-form ordering matches the single-swap oracles",
              failures)


# -- 8. embedding checks -----------------------------------------------------------------------------


def test_criterion_8_embeddings():
    from fockrep.fock import to_matrix

    failures = []
    modes = ModeSystem(1, 0)
    for q in QS:
        at, bt = q_pair(modes, 1, q, 0)
        rel = Sum([Product([at, bt]), Scale(Scalar(-q), Product([bt, at]))])
        if not check_identity(rel, identity_op(modes), 8).equal:
            failures.append(("spectral", str(q)))
        for d in DELTAS:
            at, bt = q_pair(modes, 1, q, d)
            rel = Sum([Product([at, bt]), Scale(Scalar(-q), Product([bt, at]))])
            if not check_identity(rel, identity_op(modes), 8).equal:
                failures.append(("transformed", str(q), str(d)))
            atf, btf = q_pair_fd(q, d)
            relf = Sum([Product([atf, btf]), Scale(Scalar(-q), Product([btf, atf]))])
            for k in range(9):
                f = {((k,), 0): 1}
                if relf.apply(f) != f:
                    failures.append(("fd pair", str(q), str(d), k))
                    break
        spectral_at, _ = q_pair(modes, 1, q, 0)
        if to_matrix(spectral_at, 8).cols != \
                poly_to_matrix(JacksonX(modes, 1, q), 8).cols:
            failures.append(("jackson vs spectral", str(q)))
    _conclude("8", "deformed relation on degree <= 8 for every embedding; "
                   "Jackson = spectral", failures)


# -- 9. negative controls ------------------------------------------------------------------------------


def test_criterion_9_negative_controls():
    failures = []
    rep = build("sl2_standard", {"n": rat(2)})
    sc, _ = closure(rep)
    m = len(sc.names)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                bad = perturbed(sc, i, j, k)
                result = verify_constants(rep, bad)
                if result.passed or not result.witness:
                    failures.append(("constants", sc.names[i], sc.names[j],
                                     sc.names[k]))
    # a corrupted mixed entry must also break the Jacobi identity itself
    bad = perturbed(sc, sc.names.index("J0"), sc.names.index("J+"),
                    sc.names.index("J-"))
    if jacobi(bad).passed:
        failures.append(("jacobi survives corruption",))
    for rid, params in [("sl2_standard", {"n": rat(2)}), ("osp22", {"n": rat(2)})]:
        rep = build(rid, params)
        for name, g in rep.generators.items():
            weyl = g.as_weyl()
            for mono in list(weyl.terms):
                bumped = weyl + WeylElement(rep.modes, {mono: 1})
                gens = dict(rep.generators)
                gens[name] = Poly(bumped)
                report = full_verify(dataclasses.replace(rep, generators=gens))
                bad_checks = [c for c in report.checks if not c.passed]
                if not bad_checks:
                    failures.append(("perturbation passes", rid, name, mono))
                elif not any(c.witness for c in bad_checks):
                    failures.append(("no witness", rid, name, mono))
    _conclude("9", "every single-entry perturbation is caught with a witness",
              failures)
