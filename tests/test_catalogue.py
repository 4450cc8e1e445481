import dataclasses

import pytest

from fockrep import catalogue
from fockrep.catalogue import (CatalogueError, build, family, fock_kit, list_catalogue, q_kit,
                               shift_pair)
from fockrep.fock import Compiled, Poly, basis_states, check_identity, to_matrix
from fockrep.grids import acceptance_grid
from fockrep.scalars import Scalar, rat
from fockrep.verify import check_alt_forms, full_verify
from fockrep.weyl import ModeSystem, WeylElement


REGISTRY = ["sl2_standard", "sl2_translated", "sl2_oscillator", "sl2_metaplectic",
            "sl2_clifford", "sl2_vector_field", "sl3_fock", "sl3_translated", "sl3_seven",
            "gl2_semidirect", "glk", "osp22", "osp22_translated", "osp22_metaplectic",
            "gl_super", "sl2q"]


def test_catalogue_has_sixteen_entries():
    entries = list_catalogue()
    assert len(entries) == 16
    ids = [e[0] for e in entries]
    assert ids == REGISTRY
    by_id = {rid: (sig, desc) for rid, sig, desc in entries}
    assert by_id["sl2_metaplectic"][0] == ""  # zero parameters
    assert "gl_super" in by_id and by_id["gl_super"][0] == "k, r, n"


def test_unknown_id_and_param_validation():
    with pytest.raises(CatalogueError):
        build("nope")
    with pytest.raises(CatalogueError):
        build("sl2_standard", {})  # missing n
    with pytest.raises(CatalogueError):
        build("sl2_standard", {"n": 1, "bogus": 2})
    with pytest.raises(CatalogueError):
        build("sl2_translated", {"n": 1, "delta": 0})
    with pytest.raises(CatalogueError):
        build("sl2q", {"alpha": 2, "q": 1})
    with pytest.raises(CatalogueError):
        build("sl2q", {"alpha": -1, "q": 2})
    with pytest.raises(CatalogueError):
        build("sl2q", {"alpha": rat(1, 2), "q": 2})
    with pytest.raises(CatalogueError):
        build("glk", {"k": 1, "n": 1})
    with pytest.raises(CatalogueError):
        build("gl2_semidirect", {"r": 0, "n": 1})


_SMALL = dict(acceptance_grid(small=True))


@pytest.mark.parametrize("rep_id, sig", [entry[:2] for entry in list_catalogue()],
                         ids=[entry[0] for entry in list_catalogue()])
def test_every_signature_is_enforced(rep_id, sig):
    # a valid instance builds; dropping any required parameter, or adding
    # an unknown one, is a CatalogueError
    params = _SMALL[rep_id]
    assert build(rep_id, params).rep_id == rep_id
    names = [name for name in sig.split(", ") if name]
    for name in names:
        if not name.endswith("?"):
            with pytest.raises(CatalogueError, match="missing parameter %r" % name):
                build(rep_id, {k: v for k, v in params.items() if k != name})
    with pytest.raises(CatalogueError, match="unexpected parameter 'bogus'"):
        build(rep_id, {**params, "bogus": 1})


def test_generator_counts():
    assert len(build("glk", {"k": 3, "n": 1}).generators) == 9
    assert len(build("glk", {"k": 2, "n": 1}).generators) == 4
    rep = build("osp22", {"n": 3})
    assert [g for g, p in rep.parities.items() if p == 0] == ["T+", "T0", "T-", "J"]
    assert [g for g, p in rep.parities.items() if p == 1] == ["Q1", "Q2", "Qb1", "Qb2"]
    for k, r in ((1, 1), (2, 1), (2, 2), (3, 2)):
        rep = build("gl_super", {"k": k, "r": r, "n": 2})
        assert len(rep.generators) == (k + r + 1) ** 2
    for r in (1, 2, 3):
        assert len(build("gl2_semidirect", {"r": r, "n": 2}).generators) == 5 + r


def test_invariant_space_examples():
    assert build("sl2_standard", {"n": 2}).invariant_space.expected_dim == 3
    assert build("sl3_fock", {"n": 2}).invariant_space.expected_dim == 6
    assert build("gl2_semidirect", {"r": 2, "n": 2}).invariant_space.expected_dim == 4
    assert build("gl_super", {"k": 1, "r": 1, "n": 1}).invariant_space.expected_dim == 3
    assert build("osp22", {"n": 3}).invariant_space.expected_dim == 7
    # non-integer n carries no finite-dimensional claim
    assert build("sl2_standard", {"n": rat(7, 2)}).invariant_space is None


def test_osp22_table_has_sixteen_lines():
    rep = build("osp22", {"n": 2})
    lines = {rel.line for rel in rep.relations}
    assert len(lines) == 16


def test_word_expr_unknown_generator():
    rep = build("sl2_standard", {"n": 1})
    with pytest.raises(CatalogueError):
        rep.generator("J5")


def _alt_statuses(rid, params):
    rep = build(rid, params)
    return {a.generator: a.status for a in check_alt_forms(rep)}


def test_shift_family_displayed_forms_pinned():
    # the displayed raising operator of the shift family is inconsistent
    # with the substitution build for n != 0 (it fails [J0,J+] = J+ and does
    # not preserve the finite flag); the other two displays agree
    for n, delta, jp in ((0, rat(1, 2), "MATCH"), (1, rat(1), "DIFFERS"),
                         (3, rat(-1, 3), "DIFFERS")):
        statuses = _alt_statuses("sl2_translated", {"n": n, "delta": delta})
        assert statuses == {"J+": jp, "J0": "MATCH", "J-": "MATCH"}, (n, delta)


def test_oscillator_displayed_cubics_match():
    for n in (0, 1, 3):
        statuses = _alt_statuses("sl2_oscillator", {"n": n})
        assert statuses == {"J+": "MATCH", "J0": "MATCH", "J-": "MATCH"}


def test_osp22_shift_displayed_forms_pinned():
    # T+ inherits the raising-display defect for every parameter choice;
    # the J display drops the n dependence (matches only at n = 1); the
    # first barred charge divides n by delta (matches when n = 0 or d = 1)
    cases = [
        ((0, rat(1)), {"T+": "DIFFERS", "J": "DIFFERS"}),
        ((1, rat(1)), {"T+": "DIFFERS"}),
        ((1, rat(1, 2)), {"T+": "DIFFERS", "Qb1": "DIFFERS"}),
        ((3, rat(1, 2)), {"T+": "DIFFERS", "J": "DIFFERS", "Qb1": "DIFFERS"}),
        ((2, rat(-1, 3)), {"T+": "DIFFERS", "J": "DIFFERS", "Qb1": "DIFFERS"}),
    ]
    all_gens = ["T+", "T0", "T-", "J", "Q1", "Q2", "Qb1", "Qb2"]
    for (n, delta), differs in cases:
        statuses = _alt_statuses("osp22_translated", {"n": n, "delta": delta})
        expected = {g: differs.get(g, "MATCH") for g in all_gens}
        assert statuses == expected, (n, delta, statuses)


def test_deformed_transformed_display_matches():
    # the displayed lowering operator with its 1/(b+delta) prefactor agrees
    # with the falling-factorial construction
    for q in (rat(2), rat(3, 5)):
        for delta in (rat(1), rat(-1, 3)):
            statuses = _alt_statuses("sl2q", {"alpha": 2, "q": q, "delta": delta})
            assert statuses == {"J-": "MATCH"}


def test_super_bracket_on_odd_charges():
    from fockrep.weyl import bracket

    rep = build("osp22", {"n": 3})
    w = {name: rep.generator(name).as_weyl() for name in rep.generators}
    assert bracket(w["Q1"], w["Qb2"], True) == -w["T-"]
    assert bracket(w["Q2"], w["Qb1"], True) == w["T+"]
    assert bracket(w["Q1"], w["Q1"], True).is_zero()
    assert bracket(w["Q1"], w["Q2"], True).is_zero()


def test_casimir_claims_recorded():
    rep = build("sl2_standard", {"n": 4})
    assert rep.casimir.claimed == Scalar(-(rat(4, 2)) * (rat(4, 2) + rat(1, 2)))
    assert build("sl2_metaplectic", {}).casimir.claimed == Scalar(rat(3, 16))
    rep = build("sl2q", {"alpha": 1, "q": 2})
    assert rep.casimir.claimed == Scalar(rat(-14, 25))


def test_every_grid_build_is_well_formed():
    from fockrep.grids import acceptance_grid

    for rep_id, params in acceptance_grid():
        rep = build(rep_id, params)
        assert rep.rep_id == rep_id
        for name, g in rep.generators.items():
            assert g.modes == rep.modes, (rep_id, name)
            assert rep.parities[name] in (0, 1)
        for rel in rep.relations:
            for _, names in rel.lhs + rel.rhs:
                for g in names:
                    assert g in rep.generators, (rep_id, rel.name, g)


def test_is_polynomial_exactly_on_the_polynomial_families():
    # sl2q is polynomial over its q-mode at delta = 0, and extended at
    # delta != 0, over the q-pair
    from fockrep.grids import acceptance_grid

    extended = {"sl2_translated", "sl3_translated", "osp22_translated"}
    seen = {}
    for rep_id, params in acceptance_grid():
        polynomial = build(rep_id, params).is_polynomial()
        if rep_id == "sl2q":
            assert polynomial == (not params.get("delta")), params
        else:
            assert polynomial == (rep_id not in extended), (rep_id, params)
        seen[rep_id, polynomial] = True
    assert len(seen) == 17 and sum(polynomial for _, polynomial in seen) == 13


def test_substituted_pairs_are_canonical():
    # the shift pair keeps [a, b] = 1, which is what makes substitution
    # normative; checked here straight from the built generators
    rep = build("sl2_translated", {"n": 0, "delta": rat(1, 2)})
    jm, jp = rep.generator("J-"), rep.generator("J+")
    report = check_identity(jp * jm - jm * jp,
                            rep.word_expr([(Scalar(-2), ("J0",))]), 6)
    assert report.equal


def _bracket_on(x, y, key) -> dict:
    """[x, y] applied to the basis state key."""
    return (x * y - y * x).apply({key: 1})


def _grid_steps(rid) -> list:
    """The distinct per-mode steps of the shift kits (fock_kit(modes,
    steps)) that rid's acceptance-grid reps build over, in grid order."""
    record = family(rid)
    return list(dict.fromkeys(record.fd_steps(record.modes(p), p)
                              for r, p in acceptance_grid() if r == rid))


def _assert_canonical(kit, degree):
    """The canonical relations of kit's pair nodes on every basis state of
    degree <= degree: [ahat_i, bhat_j] = delta_ij, the lowering nodes
    commute, the raising nodes commute, and each pair node commutes with
    every th_j and dth_j."""
    m = len(kit.a)
    nodes = kit.a + kit.b
    for key in basis_states(kit.one.modes, degree):
        for i, x in enumerate(nodes):
            for j, y in enumerate(nodes):
                want = {key: 1} if j == i + m else {key: -1} if i == j + m else {}
                assert _bracket_on(x, y, key) == want, (key, i, j)
            for f in kit.th + kit.dth:
                assert _bracket_on(x, f, key) == {}, (key, i)


def _assert_marked(kit):
    """kit holds each pair node Compiled, the mark on its inner node, and
    reads its own nodes back as a_i and b_i (Kit.preimages)."""
    modes = kit.one.modes
    marks = ([WeylElement.a(modes, i) for i in range(1, modes.bosonic + 1)]
             + [WeylElement.b(modes, i) for i in range(1, modes.bosonic + 1)])
    nodes = kit.a + kit.b
    assert all(isinstance(x, Compiled) and x.marked is None for x in nodes)
    assert [x.inner.marked for x in nodes] == marks == kit.preimages(nodes)


@pytest.mark.parametrize("delta", [d for (d,) in _grid_steps("sl2_translated")] + [rat(7, 5)])
def test_the_shift_pair_is_canonical_and_marked_with_a_and_b(delta):
    # the lemma behind deciding a translated rep over its preimages, on the
    # shift kit of each grid step sl2_translated and osp22_translated build
    # over, and one step off the grid: [ahat, bhat] = 1 and ahat kills |0>,
    # and on osp22's modes the pair commutes with th and dth, on every
    # state of degree <= 12
    assert _grid_steps("osp22_translated") == _grid_steps("sl2_translated")
    for modes in (ModeSystem(1, 0), ModeSystem(1, 1)):
        kit = fock_kit(modes, (delta,))
        _assert_marked(kit)
        assert kit.a[0].apply({((0,), 0): 1}) == {}
        _assert_canonical(kit, 12)


@pytest.mark.parametrize("deltas", _grid_steps("sl3_translated"))
def test_two_shift_pairs_commute_across_modes(deltas):
    # each grid kit of sl3_translated's two steps: [ahat_i, bhat_j] =
    # delta_ij, and the two lowering and the two raising nodes commute, on
    # every state of degree <= 12
    kit = fock_kit(ModeSystem(2, 0), deltas)
    _assert_marked(kit)
    _assert_canonical(kit, 12)


def _q_pair_breach(kit, delta, degree) -> str:
    """"" when kit's q-pair obeys its lemma (catalogue._q_kit) on every
    basis state of degree <= degree: atil btil - q btil atil = 1, atil
    kills |0>, and btil^k |0> is shift_pair's bhat^k |0> at delta;
    otherwise the first breach."""
    modes = kit.one.modes
    (atil,), (btil,) = kit.a, kit.b
    relation = atil * btil - (btil * atil).scale(modes.q)
    vacuum = {((0,), 0): 1}
    if atil.apply(vacuum):
        return "atil does not kill |0>"
    _, bhat = shift_pair(ModeSystem(1, 0), 1, delta)
    for key in basis_states(modes, degree):
        if relation.apply({key: 1}) != {key: 1}:
            return "atil btil - q btil atil is not 1 on %s" % (key,)
        (k,), _ = key
        if (btil ** k).apply(vacuum) != (bhat ** k).apply(vacuum):
            return "btil^%d |0> is not bhat^%d |0>" % (k, k)
    return ""


@pytest.mark.parametrize("delta", [rat(1), rat(-1, 3), rat(7, 5)])
def test_the_q_pair_obeys_its_lemma_and_is_marked_with_the_q_modes_a_and_b(delta):
    # the lemma behind deciding sl2q at delta != 0 over its preimages, at
    # the grid's step, another sign and one more step, on every state of
    # degree <= 12: the pair is the q-mode's pair in the delta-falling
    # factorial basis, held Compiled with the q-mode's a and b as marks,
    # which Kit.preimages reads back
    modes = ModeSystem(1, 0, rat(3, 5))
    kit = q_kit(modes, {"q": modes.q, "delta": delta})
    _assert_marked(kit)
    assert _q_pair_breach(kit, delta, 12) == ""


def test_a_q_pair_raising_at_the_wrong_step_breaks_its_lemma(monkeypatch, fresh_kits):
    # btil built at step -2 delta, atil left as it is
    def wrong_step(modes, mode, q, delta, pair=catalogue.q_pair):
        return pair(modes, mode, q, delta)[0], pair(modes, mode, q, -2 * delta)[1]

    monkeypatch.setattr(catalogue, "q_pair", wrong_step)
    modes = ModeSystem(1, 0, rat(3, 5))
    assert _q_pair_breach(q_kit(modes, {"q": modes.q, "delta": rat(1)}), rat(1), 12) == \
        "atil btil - q btil atil is not 1 on ((1,), 0)"


@pytest.mark.parametrize("rid, base", [("sl2_translated", "sl2_standard"),
                                       ("osp22_translated", "osp22"),
                                       ("sl3_translated", "sl3_fock")])
def test_translated_generators_read_back_to_the_base_family(rid, base):
    # through the marks of the kit the family record builds over, each
    # translated generator is its base family's normal form, on the built
    # rep and on a copy; the kit of another step reads back only the
    # generators free of a and b
    record = family(rid)
    for params in (params for r, params in acceptance_grid() if r == rid):
        rep = build(rid, params)
        want = [g.as_weyl() for g in build(base, {"n": params["n"]}).generators.values()]
        kit = record.kit(rep.modes, params)
        for copy in (rep, dataclasses.replace(rep)):
            assert kit.preimages(list(copy.generators.values())) == want, params
        other = fock_kit(rep.modes, tuple(2 * d for d in record.fd_steps(rep.modes, params)))
        assert other.preimages(list(rep.generators.values())) == [
            None if any(any(bp) or any(ap) for bp, ap, _, _ in w.terms) else w for w in want]


def test_a_node_off_the_marks_has_no_preimage():
    rep = build("sl2_translated", {"n": 2, "delta": rat(1, 2)})
    b = Poly(WeylElement.b(rep.modes))
    kit = fock_kit(rep.modes, (rat(1, 2),))
    pre = kit.preimages([rep.generator("J-") + b, rep.generator("J0") + rat(1, 2),
                         build("sl2q", {"alpha": 2, "q": 2, "delta": 1}).generator("J-")])
    assert pre == [None, WeylElement.b(rep.modes) * WeylElement.a(rep.modes) - rat(1, 2), None]


def test_only_the_kits_own_marked_nodes_read_back():
    # a copy of the kit's pair made by shift_pair bears the same marks and
    # acts the same, but is no node of the kit: in one call each root that
    # holds it reads as None, while the roots over the kit's own nodes,
    # the shared intermediate included, read back
    modes = ModeSystem(1, 0)
    kit = fock_kit(modes, (rat(1, 2),))
    ahat, bhat = kit.a[0], kit.b[0]
    foreign, _ = shift_pair(modes, 1, rat(1, 2))
    assert foreign.marked == ahat.inner.marked
    assert all(foreign.apply({key: 1}) == ahat.apply({key: 1}) for key in basis_states(modes, 6))
    both = bhat * ahat
    a, b = WeylElement.a(modes), WeylElement.b(modes)
    assert kit.preimages([ahat, foreign, both, both + foreign, both.scale(3), foreign * bhat]) == [
        a, None, b * a, None, (b * a).scale(3), None]


# -- stored generators ---------------------------------------------------------


def _reached(op):
    """Every node of op's tree, through Sum parts, Product factors and the
    inner node of Scale and Compiled, once per place it occurs."""
    yield op
    for child in getattr(op, "parts", ()) or getattr(op, "factors", ()):
        yield from _reached(child)
    if getattr(op, "inner", None) is not None:
        yield from _reached(op.inner)


def _extended_small_grid():
    return [(rid, params) for rid, params in acceptance_grid(small=True)
            if not build(rid, params).is_polynomial()]


@pytest.mark.parametrize("rid, params", _extended_small_grid() + [
    ("sl2q", {"alpha": 2, "q": 2, "delta": 1}),
    ("sl2q", {"alpha": 2, "q": rat(3, 5), "delta": rat(-1, 3)}),
])
def test_compiled_generators_give_the_raw_matrices(rid, params):
    # each stored Compiled generator has the matrix of its raw inner tree
    rep = build(rid, params)
    for name, g in rep.generators.items():
        raw = g.inner if isinstance(g, Compiled) else g
        got, want = (to_matrix(op, rep.default_cutoff) for op in (g, raw))
        assert (got.cols, got.overflow_columns) == (want.cols, want.overflow_columns), name


def test_compiled_translated_sl2_shares_one_ahat_and_one_bhat():
    # J- is ahat, and J0 = bhat ahat - n/2: every place of the shift pair in
    # the three generators reaches the same Compiled node, on the built rep,
    # which stores J+ and J0 Compiled and J- as the kit's node, and on a copy
    rep = build("sl2_translated", {"n": 3, "delta": rat(1, 2)})
    ahat = rep.generator("J-")
    bhat = rep.generator("J0").inner.parts[0].factors[0]
    assert isinstance(ahat, Compiled) and isinstance(bhat, Compiled)
    assert dataclasses.replace(rep).generators["J-"] is ahat
    for copy in (rep, dataclasses.replace(rep)):
        for pair, names in ((ahat.inner, ("J+", "J0", "J-")), (bhat.inner, ("J+", "J0"))):
            found = set()
            for name in names:
                nodes = list(_reached(copy.generators[name]))
                wrappers = [node for node in nodes
                            if isinstance(node, Compiled) and node.inner is pair]
                # the pair occurs only as the inner node of its wrapper
                assert wrappers and sum(node is pair for node in nodes) == len(wrappers), name
                found.update(map(id, wrappers))
            assert found == {id(ahat if pair is ahat.inner else bhat)}


def test_a_rep_stores_each_extended_generator_compiled_and_each_polynomial_as_its_poly():
    # on every grid instance; a stored polynomial still folds
    for rid, params in acceptance_grid():
        for name, g in build(rid, params).generators.items():
            assert isinstance(g, Compiled if g.as_weyl() is None else Poly), (rid, name)
    poly = build("sl2_standard", {"n": 2})
    assert (poly.generator("J+") * poly.generator("J-")).as_weyl() == (
        poly.generator("J+").as_weyl() * poly.generator("J-").as_weyl())


def test_a_copy_holds_the_same_generators_with_an_empty_memo():
    # osp22_translated holds both kinds: Q1 = dth is a Poly
    rep = build("osp22_translated", {"n": 2, "delta": rat(1, 2)})
    assert {type(g) for g in rep.generators.values()} == {Compiled, Poly}
    rep.memo("key", object)
    copy = dataclasses.replace(rep)
    assert not copy._memos and rep._memos
    assert list(copy.generators) == list(rep.generators)
    assert all(copy.generators[name] is g for name, g in rep.generators.items())


@pytest.mark.usefixtures("fresh_kits")  # pair nodes no earlier test formed columns in
@pytest.mark.parametrize("rid, params", [
    ("sl2q", {"alpha": 2, "q": 2, "delta": 1}),
    ("osp22_translated", {"n": 2, "delta": rat(1, 2)}),
    ("sl3_translated", {"n": 1, "delta1": 1, "delta2": rat(1, 2)}),
])
def test_a_second_report_forms_no_column(rid, params):
    # a report reads each image of a basis state from the Compiled nodes the
    # rep holds, so a second report of the same rep reads the same bytes
    # and forms no column in any of them.  Every check but an alt form's
    # probe is decided over the preimages, so a rep with no alt forms
    # (sl3_translated) forms no column at all
    rep = build(rid, params)
    first = full_verify(rep).to_json()
    nodes = {id(node): node for g in rep.generators.values() for node in _reached(g)
             if isinstance(node, Compiled)}
    formed = {key: set(node._cols) for key, node in nodes.items()}
    assert any(formed.values()) == bool(rep.alt_forms)
    assert full_verify(rep).to_json() == first
    assert {key: set(node._cols) for key, node in nodes.items()} == formed
