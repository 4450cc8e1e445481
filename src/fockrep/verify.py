"""Machine verification of catalogue claims.

Every check is exact arithmetic over Q(sqrt2), and a FAIL carries a
concrete witness (a basis state or index pair with both values); where a
PASS rests on a finite probe, see below.

On a polynomial family, over canonical modes or sl2q's q-mode (normal
forms in weyl's q-rule), a relation line, a Casimir commutator [C,g] and a
polynomial alt form are decided exactly by their residual lhs - rhs in
normal form: zero PASSes (MATCH), anything else FAILs (DIFFERS) with both
sides' images on the first state the residual does not kill (_mismatch).
Closure there is decided once, in normal form too (closure_symbolic): each
bracket is expressed in the span of the generators, and one that leaves it
FAILs with its residual and that residual's first unkilled state.
Graded Jacobi on that exact table is a theorem where its grading premise
holds (_jacobi_line), and is summed over the table's triples otherwise.
An instance of a family that takes n reads that table and its Killing
rank from the family's shape, the family with n a spectator mode, formed
once per process, where its generators are the shape's at that n and
independent (closure).  Where a rep claims closure and that table is
exact, a relation whose sides are generator brackets and single
generators is read off it (_relation_lines): each bracket is the
combination of generators its entry gives, so equal coordinates on both
sides are the same element, and the relation holds with no bracket formed.
A shift-translated family's generators, and sl2q's at delta != 0, are
polynomials in its marked shift pair or q-pair, scalars and fermions, and
read back to preimage polynomials through the kit its family record builds
over (_preimages): only that kit's own pair nodes read as their marks
(catalogue.Kit.preimages), and the pair is its marks' pair in another
basis (catalogue.shift_pair, catalogue._q_kit).  Its relation lines, [C,g]
and closure are decided in normal form over those, as on a polynomial
family: the marks' map is an injective algebra map, so a zero residual
holds on the whole Fock space, the closure table is the generators' own,
and Jacobi on it is implied.  A nonzero residual FAILs on the first
state, in graded order, on which the two sides differ, which the pair's
unit-triangular change of basis makes the residual's first unkilled
state, as on a polynomial family; where a probe finds a witness it is
that state, so the line is the probe's.  A closure FAIL names that
state's image under the generators' bracket less its span combination.
Its invariant space, irreducibility and Casimir value are decided on the
preimage rep too, by the transport lemma (invariant_subspace): every tree
T over the kit's own pair nodes with preimage w satisfies T S = S w, for
S the marks' change of basis, per mode; S maps the claimed space onto
itself, so T keeps it exactly when w does, their matrices there are
S-conjugates, and C is the scalar c there exactly when its preimage is.  A
FAIL there is formed again on the trees, for its witness, and a preimage
FAIL the trees do not confirm raises (_confirmed).  Every other identity
of an extended family, a marked node made outside the family's kit
included, is probed as operator trees on the states up to the cutoff, a
finite probe and not a proof, with the Casimir stored shared
(fock.shared) so each state's image is formed once.  Closure of an
extended rep with no preimages is a matrix probe that sums each bracket
over the generators' nonzero columns and never calls weyl.  The symbolic
closure and the Casimir centrality check form each bracket with
weyl.bracket, which reads each monomial pair's bracket from weyl's
process-wide pair table.

Every check takes only the rep and probes at its default_cutoff; another
cutoff is another rep.

full_verify walks CHECKS, one ordered table that alone decides whether a
check runs, is skipped (a SKIP line with the reason) or gives no line, and
times each entry.  It walks one fresh replace() copy of the rep, whose
memo the entries share, so each of these is formed once per report: each
generator bracket (RepSpec.bracket), which the relation sides and the
symbolic closure read; each relation side and the Casimir
(RepSpec.word_sum); each generator's invariant-space columns
(RepSpec.space_columns), which Burnside reads too, on the rep or its
preimage rep; and the closure and invariant-space results and the
preimage rep.  A rep stores each
non-polynomial generator as one Compiled node (fock.shared), which the
copy holds too, so a generator's image of a basis state is formed once
for every check, report and copy of the rep.  The pair nodes under it
belong to its kit, one per key for the process (catalogue.Kit), so theirs
are formed once for every rep built over the same pairs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .catalogue import FAMILIES, RepSpec, family_shape, read_words
from .fock import (IdentityReport, Poly, Product, _state_str, basis_states, check_identity,
                   shared, state_degree, state_sort_key, vector_str)
from .linalg import EchelonSpan, mat_identity, mat_mul
from .weyl import WeylElement, accumulate, bracket


@dataclass
class CheckResult:
    name: str
    status: str  # "PASS" | "FAIL" | "SKIP" (not run: detail says why)
    detail: str = ""
    witness: str = ""

    @property
    def passed(self):
        """Did not fail: a SKIP passes."""
        return self.status != "FAIL"

    def to_json(self):
        out = {"name": self.name, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        if self.witness:
            out["witness"] = self.witness
        return out


@dataclass
class AltFormResult:
    generator: str
    status: str  # "MATCH" | "DIFFERS"
    detail: str = ""

    def to_json(self):
        return {"generator": self.generator, "status": self.status,
                "detail": self.detail}


@dataclass
class StructureConstants:
    names: list
    parities: list
    table: dict  # (i, j) -> {k: coefficient}
    span_dim: int
    dependent: list = field(default_factory=list)


@dataclass
class VerificationReport:
    rep_id: str
    params: dict
    cutoff: int
    checks: list = field(default_factory=list)
    alt_forms: list = field(default_factory=list)
    killing_rank: tuple = None  # (rank, generators) where closure passed
    check_ms: list = field(default_factory=list)  # per check, its CHECKS entry's time
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, result, elapsed_ms):
        """File one result of a CHECKS entry: a check line, timed with its
        entry; an alt form line; or the Killing rank."""
        if isinstance(result, CheckResult):
            self.checks.append(result)
            self.check_ms.append(elapsed_ms)
        elif isinstance(result, AltFormResult):
            self.alt_forms.append(result)
        else:
            self.killing_rank = result

    def check(self, name: str):
        for c in self.checks:
            if c.name == name:
                return c
        return None

    def to_json(self, with_timing: bool = False):
        out = {
            "rep": self.rep_id,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "cutoff": self.cutoff,
            "checks": [dict(c.to_json(), **({"elapsed_ms": ms} if with_timing else {}))
                       for c, ms in zip(self.checks, self.check_ms)],
        }
        if self.killing_rank is not None:
            out["killing_rank"] = dict(zip(("rank", "of"), self.killing_rank))
        if self.alt_forms:
            out["alt_forms"] = [a.to_json() for a in self.alt_forms]
        if with_timing:
            out["elapsed_ms"] = self.elapsed_ms
        return out


# -- relations ---------------------------------------------------------------


def _mismatch(lhs, rhs, cutoff: int, residual: WeylElement = None):
    """None where lhs and rhs are the same operator, else an IdentityReport
    on the first state, in graded order, that separates them.

    Polynomial sides are decided by their residual D = lhs - rhs in normal
    form, given or formed here, on the first state u that D does not kill
    (_first_unkilled).  The residual given may instead be that of the
    sides' preimages (_preimages).  Then lhs - rhs = S D S^-1 for the
    marked pairs' change of basis S, S b^k|0> = bhat^k|0>, which is
    unit-triangular: S^-1 v is v plus states of lower degree, so every
    state before u in graded order is still killed and u is not, and u is
    again the witness a probe would name.  Sides with no residual are
    probed by check_identity.
    """
    if residual is None:
        w, v = lhs.as_weyl(), rhs.as_weyl()
        if w is None or v is None:
            report = check_identity(lhs, rhs, cutoff)
            return None if report.equal else report
        residual = w - v
    if residual.is_zero():
        return None
    key = _first_unkilled(residual)
    return IdentityReport(False, state_degree(key), key, lhs.apply({key: 1}), rhs.apply({key: 1}))


def _first_unkilled(residual: WeylElement):
    """The first basis state, in graded-lex order, that a nonzero normal
    form does not kill.

    A monomial kills each state that lacks its lowering part and sends that
    part to a nonzero multiple of its raising part (on a q-mode too, as no
    [k]_q vanishes: weyl.ModeSystem), so on the least lowering part of the
    monomials only those with that lowering part act, with distinct
    images.
    """
    return min(((m[1], m[3]) for m in residual.terms), key=state_sort_key)


def check_relations(rep: RepSpec) -> list:
    """One result per relation line; FAIL carries the first witness.

    On a polynomial rep this is check_relations_symbolic.  On an extended
    rep with preimages (_preimages), each relation is decided, with no
    probe, by its preimage residual: zero holds on the whole Fock space,
    and anything else FAILs on the first state its sides separate
    (_mismatch).  A relation of any other extended rep is probed on the
    states of degree up to the rep's probe cutoff (_probe_cutoff) less the
    larger raise of its sides.
    """
    if rep.is_polynomial():
        return check_relations_symbolic(rep)
    return _relation_lines(rep, _probe_cutoff(rep), _preimages(rep))


def check_relations_symbolic(rep: RepSpec) -> list:
    """The relation lines of a polynomial rep, each relation decided by the
    residual of its two sides' normal forms (RepSpec.word_sum), with no
    probe: check_relations' polynomial branch."""
    return _relation_lines(rep, None)


def _probe_cutoff(rep: RepSpec) -> int:
    """The relation probe's cutoff: the rep's, floored so the probe range
    never collapses to the vacuum."""
    return max(rep.default_cutoff, 3 + 2 * rep.max_generator_raise())


def _preimages(rep: RepSpec):
    """The polynomial rep over the preimages of an extended rep's
    generators, kept on rep, or None.

    The generators are read back through the kit the rep's family record
    builds over (catalogue.Kit.preimages), where only that kit's own pair
    nodes read as their marks; a rep with no family record, or a generator
    with no preimage, gives None.  The kit's marked pair obeys its marks'
    relations (catalogue.shift_pair, catalogue._q_kit), so the marks' map
    is an injective algebra map, and an identity whose preimage residual
    is zero holds for the generators on the whole Fock space."""
    return rep.memo(_preimages, lambda: _pulled_back(rep))


def _pulled_back(rep: RepSpec):
    record = FAMILIES.get(rep.rep_id)
    if record is None:
        return None
    pre = record.kit(rep.modes, rep.params).preimages(list(rep.generators.values()))
    if any(w is None for w in pre):
        return None
    return replace(rep, generators={name: Poly(w) for name, w in zip(rep.generators, pre)})


def _normal_rep(rep: RepSpec):
    """rep itself where it is polynomial, else its preimage rep
    (_preimages) or None: the rep whose normal forms decide rep's exact
    identities."""
    return rep if rep.is_polynomial() else _preimages(rep)


def _transported(rep: RepSpec):
    """The preimage rep (_preimages) of an extended rep whose claimed
    invariant space, where it claims one, is closed downward in each
    bosonic exponent, kept on rep; else None.  Its columns and Casimir
    decide rep's invariant space, irreducibility and Casimir value by the
    transport lemma (invariant_subspace); a polynomial rep decides its own."""
    return rep.memo(_transported, lambda: _transport(rep))


def _transport(rep: RepSpec):
    pre = None if rep.is_polynomial() else _preimages(rep)
    if pre is None or rep.invariant_space is None:
        return pre
    keys = set(rep.invariant_space.basis(rep.modes))
    lowered = all((alpha[:i] + (k - 1,) + alpha[i + 1:], beta) in keys
                  for alpha, beta in keys for i, k in enumerate(alpha) if k)
    return pre if lowered else None


def _confirmed(witness: str) -> str:
    """The witness of a FAIL that a preimage rep found (_transported), as
    formed on the operator trees; by the transport lemma they fail too, so
    an empty one means the kit lemma is broken, which must never PASS."""
    if not witness:
        raise RuntimeError("a preimage FAIL the operator trees do not confirm: "
                           "the kit lemma is broken")
    return witness


def _relation_lines(rep: RepSpec, cutoff, pre: RepSpec = None) -> list:
    """The relation lines.  A relation both of whose sides are weighted sums
    of generator brackets and single generators, read from adjacent word
    pairs as RepSpec.word_sum reads them, is read off the rep's exact
    closure table where there is one (_exact_table): each bracket is the
    combination sum_k c^k x_k its table entry gives, exactly, so where both
    sides have the same coordinates they are the same combination of the
    generators' normal forms, and the relation holds on the whole Fock
    space.  Every other relation, unequal coordinates included, is decided
    by _mismatch: by its residual over pre's word sums where pre is given,
    so the sides' operator trees are formed only for a nonzero residual."""
    sc = _exact_table(rep)
    index = None if sc is None else {name: i for i, name in enumerate(sc.names)}
    grouped: dict = {}
    for rel in rep.relations:
        grouped.setdefault(rel.line or rel.name, []).append(rel)
    results = []
    for label, rels in grouped.items():
        failures = []
        for rel in rels:
            if sc is not None:
                lhs = _coordinates(sc, index, rel.lhs)
                if lhs is not None and lhs == _coordinates(sc, index, rel.rhs):
                    continue  # holds by the table: no bracket is formed
            residual = None if pre is None else pre.word_sum(rel.lhs) - pre.word_sum(rel.rhs)
            if residual is not None and residual.is_zero():
                continue  # holds: no operator tree is needed
            report = _mismatch(rep.word_expr(rel.lhs), rep.word_expr(rel.rhs), cutoff, residual)
            if report is not None:
                failures.append("%s: %s" % (rel.name, report.describe(rep.modes)))
        results.append(CheckResult("relation %s" % label, "FAIL" if failures else "PASS",
                                   "; ".join(rel.name for rel in rels), "; ".join(failures)))
    return results


def _exact_table(rep: RepSpec):
    """rep's closure table where it is exact, else None: rep claims closure,
    has a normal rep (_normal_rep), so closure is decided in normal form,
    and its brackets close (closure)."""
    if not rep.claims.closes or _normal_rep(rep) is None:
        return None
    return _once(rep, closure)[0]


def _coordinates(sc: StructureConstants, index: dict, terms):
    """The coordinates {k: c} in the generators x_k, index[name] = k, of a
    weighted sum of generator brackets and single generators
    (catalogue.read_words), read off the closure table sc; None where a
    term is any other word or a bracket of another kind than sc's for its
    pair."""
    out = {}
    for coeff, word, anti in read_words(terms):
        ks = tuple(index.get(name) for name in word)
        if None in ks:
            return None
        if anti is not None and anti == (sc.parities[ks[0]] == sc.parities[ks[1]] == 1):
            part = sc.table[ks]
        elif anti is None and len(ks) == 1:
            part = {ks[0]: 1}
        else:
            return None
        for k, c in part.items():
            accumulate(out, k, c * coeff)
    return out


# -- closure and structure constants ----------------------------------------------


def _pairwise_lowering(rep: RepSpec) -> int:
    lows = sorted(0 if g.as_weyl() is None else g.as_weyl().max_lower()
                  for g in rep.generators.values())
    return sum(lows[-2:]) if lows else 1


def closure(rep: RepSpec):
    """Structure constants from all pairwise super-brackets, as a
    StructureConstants table and the `closure` line.

    On a polynomial rep this is closure_symbolic, and on an extended rep
    with preimages (_preimages) it is closure_symbolic on the preimage rep.
    That table is exact and is the generators' own: the marks' map a ->
    ahat, b -> bhat is an injective algebra map, so each bracket of the
    generators is the image of its preimages' bracket, and its coordinates
    in the generators' span are unique.  A bracket outside the span FAILs
    on the generators themselves (closure_symbolic).

    That polynomial rep, the rep or its preimage rep, reads its table from
    its family shape (catalogue.family_shape) where it passes the shape's
    guard (_shape).  The shape's generators X_i are the family formula with n replaced by
    the b of a spectator mode nu, whose a never occurs, so nu commutes with
    every X_i and setting nu to n is an algebra map on the subalgebra they
    generate.  The shape's table [X_i, X_j] = sum_k c_ij^k X_k, with
    scalar c free of nu, therefore holds for the generators at n, and where those
    are linearly independent their coordinates are unique: the table, and
    the Killing rank read from it, are the rep's own.  The guard checks all
    of that on the rep itself (generator names, order and parities, each
    normal form equal to the shape's at nu = n term for term, and
    independence), never its rep_id; a rep it rejects, a bumped, flipped or
    dependent one such as glk or gl_super at n = 0, is decided by
    closure_symbolic on its own.  The shape's table and rank are formed
    once per process, at the first instance that passes.

    Any other extended rep is probed on the overflow-free range of the
    rep's cutoff, floored at the combined lowering degree of a generator
    pair.  An operator is the stacked vector of its images of the probe
    states, keyed (state index, image state).  Each generator's nonzero
    columns on the probe states are listed once, and the generators acting
    nonzero on an image state are found once, when a bracket first reaches
    that state; each bracket vector sums only these nonzero entries.
    """
    if rep.is_polynomial():
        return _symbolic(rep)
    pre = _preimages(rep)
    if pre is not None:
        return pre.memo(closure, lambda: _symbolic(pre, rep))
    names = list(rep.generators)
    gens = [rep.generators[n] for n in names]
    parities = [rep.parities[n] for n in names]
    probe = max(rep.default_cutoff - 2 * rep.max_generator_raise(), _pairwise_lowering(rep), 1)
    states = basis_states(rep.modes, probe)

    # per generator, its nonzero columns on the probe states: (state index, column)
    on_probes = [[(idx, col) for idx, col in enumerate(g.apply({key: 1}) for key in states)
                  if col] for g in gens]
    acting = {}  # image state -> {generator index: its nonzero column there}

    def add_product(vec, i, j, sign):
        """vec += sign x_i x_j on every probe state."""
        for idx, col in on_probes[j]:
            for key, d in col.items():
                act = acting.get(key)
                if act is None:
                    act = acting[key] = {k: col for k, col in
                                         enumerate([g.apply({key: 1}) for g in gens]) if col}
                col_i = act.get(i)
                if col_i is not None:
                    if sign != 1:
                        d = d * sign
                    for out, c in col_i.items():
                        accumulate(vec, (idx, out), c * d)

    def bracket_vector(i, j, anti):
        vec = {}
        if i == j:
            add_product(vec, i, i, 2)  # {x, x} = 2 x x
        else:
            add_product(vec, i, j, 1)
            add_product(vec, j, i, 1 if anti else -1)
        return vec

    def witness(i, j, anti, residual):
        return ("%s on state %s leaves the span"
                % (_bracket_name(names[i], names[j], anti),
                   _state_str(*states[min(residual)[0]], rep.modes)))

    return _constants(names, parities,
                      [{(idx, key): c for idx, col in cols for key, c in col.items()}
                       for cols in on_probes],
                      bracket_vector, witness, "probe degree %d" % probe)


def _symbolic(pre: RepSpec, actual: RepSpec = None):
    """closure_symbolic(pre, actual), or the table and line of pre's family
    shape where pre passes its guard (_shape)."""
    shape = _shape(pre)
    return closure_symbolic(pre, actual) if shape is None else _shape_closure(shape)


def _shape(pre: RepSpec):
    """pre's family shape (catalogue.family_shape), kept on pre, where pre
    passes the guard, else None.  The guard holds when pre has the shape's
    generator names in its order and their parities, each generator's
    normal form is the shape's with nu set to pre's n, term for term, those
    normal forms are linearly independent, and the shape closes.  It stops
    at the first generator that differs, and it reads rep_id and n only to
    find the shape to compare against."""
    return pre.memo(_shape, lambda: _guarded_shape(pre))


def _guarded_shape(pre: RepSpec):
    n = pre.params.get("n")
    shape = None if n is None else family_shape(pre.rep_id, pre.params)
    if (shape is None or list(shape.generators) != list(pre.generators)
            or shape.parities != pre.parities):
        return None
    terms, independent = shape.memo((_at, n), lambda: _at(shape, n))
    if not (independent and all(g.as_weyl().terms == t
                                for g, t in zip(pre.generators.values(), terms))):
        return None
    return shape if _shape_closure(shape)[0] is not None else None


def _at(shape: RepSpec, n):
    """The terms of the shape's generators with nu set to n, over the modes
    without nu, and whether they are linearly independent; formed once per
    shape and n."""
    terms = []
    for g in shape.generators.values():
        out = {}
        for (bp, ap, th, dth), c in g.as_weyl().terms.items():
            accumulate(out, (bp[:-1], ap[:-1], th, dth), c * n ** bp[-1])
        terms.append(out)
    span = EchelonSpan()
    return terms, all(span.insert(t) for t in terms)


def _shape_closure(shape: RepSpec):
    """closure_symbolic on a family shape, formed once per process, on a
    copy: the shape keeps the table and line, not the brackets."""
    return shape.memo(_shape_closure, lambda: closure_symbolic(replace(shape)))


def closure_symbolic(rep: RepSpec, actual: RepSpec = None):
    """closure's polynomial branch, exact on the whole Fock space: each
    bracket's normal form, read from the rep's bracket memo
    (RepSpec.bracket), is expressed in the span of the generators' normal
    forms.  A bracket outside it FAILs with its residual and the first
    state u the residual does not kill (_first_unkilled), where the bracket
    and the combination of generators the span offers act differently.

    Given actual, an extended rep whose preimage rep (_preimages) this is,
    the witness is the image of u under actual's bracket less that
    combination, as operator trees: the marks' change of basis is
    unit-triangular, so u is again the first state the trees do not kill
    (_mismatch).
    """
    names = list(rep.generators)
    parities = [rep.parities[n] for n in names]
    vectors = [dict(rep.generators[n].as_weyl().terms) for n in names]

    def witness(i, j, anti, residual):
        bracket_name = _bracket_name(names[i], names[j], anti)
        residual = WeylElement(rep.modes, residual)
        key = _first_unkilled(residual)
        if actual is None:
            return ("%s has residual %s, which sends %s to %s"
                    % (bracket_name, residual, _state_str(*key, rep.modes),
                       vector_str(Poly(residual).apply({key: 1}), rep.modes)))
        span = EchelonSpan()
        for vec in vectors:
            span.insert(vec)
        inside = (rep.bracket(names[i], names[j], anti) - residual).terms
        words = ([(2, (names[i], names[i]))] if i == j else
                 [(1, (names[i], names[j])), (1 if anti else -1, (names[j], names[i]))])
        words += [(-c, (names[k],)) for k, c in span.express(inside)[0].items()]
        image = actual.word_expr(words).apply({key: 1})
        return ("%s less its span combination sends %s to %s (preimage residual %s)"
                % (bracket_name, _state_str(*key, rep.modes), vector_str(image, rep.modes),
                   residual))

    return _constants(names, parities, vectors,
                      lambda i, j, anti: rep.bracket(names[i], names[j], anti).terms,
                      witness, "")


def _constants(names, parities, vectors, bracket_vector, witness, probed):
    """The table and `closure` line of both closure paths: each bracket
    {x_i, x_j} or [x_i, x_j], i <= j, as bracket_vector(i, j, anti) gives
    it, expressed in the span of the generators' vectors.  The first
    bracket outside the span FAILs with witness(i, j, anti, residual).
    probed is the matrix path's probe degree for the detail, or empty."""
    span = EchelonSpan()
    dependent = [name for name, vec in zip(names, vectors) if not span.insert(vec)]
    table = {}
    m = len(names)
    for i in range(m):
        for j in range(i, m):
            anti = parities[i] == 1 and parities[j] == 1
            if i == j and not anti:
                table[(i, i)] = {}  # [x, x] = 0
                continue
            coeffs, residual = span.express(bracket_vector(i, j, anti))
            if coeffs is None:
                return None, CheckResult("closure", "FAIL", probed,
                                         witness(i, j, anti, residual))
            table[(i, j)] = coeffs
            if i != j:
                table[(j, i)] = dict(coeffs) if anti else {k: -v for k, v in coeffs.items()}
    sc = StructureConstants(names, parities, table, span.dim, dependent)
    detail = "span dimension %d over %d generators" % (sc.span_dim, m)
    if probed:
        detail += ", " + probed
    if sc.dependent:
        detail += "; dependent: %s" % ", ".join(sc.dependent)
    return sc, CheckResult("closure", "PASS", detail)


# -- Jacobi -----------------------------------------------------------------------


def jacobi(sc: StructureConstants) -> CheckResult:
    """Graded Jacobi identity on every index triple, exact.

    The identity at (i,j,k) is the signed sum, over its three rotations
    (a,b,c), of the nested bracket [[x_a, x_b], x_c] times (-1)^(p_a p_c).
    So every rotation of a triple carries the same identity: it is summed
    once per rotation class, keyed by the class's least rotation, in one
    pass over the nonzero table entries.  The class of (i,i,i) has one
    member, which the identity counts three times.  A FAIL names the least
    failing triple and the least nonzero coefficient, as a loop over all
    m^3 triples in index order would.  No graded antisymmetry of the table
    is assumed.
    """
    m = len(sc.names)
    p = sc.parities
    by_left = {}
    for (mid, k), outer in sc.table.items():
        if outer:
            by_left.setdefault(mid, []).append((k, outer))
    jac = {}
    for (i, j), inner in sc.table.items():
        for mid, cij in inner.items():
            for k, outer in by_left.get(mid, ()):
                acc = jac.setdefault(min((i, j, k), (j, k, i), (k, i, j)), {})
                f = cij * 3 if i == j == k else cij
                if p[i] and p[k]:
                    f = -f
                for l, cml in outer.items():
                    accumulate(acc, l, f * cml)
    failing = [triple for triple, acc in jac.items() if acc]
    if failing:
        i, j, k = min(failing)
        acc = jac[(i, j, k)]
        l = min(acc)
        return CheckResult(
            "jacobi", "FAIL", "",
            "triple (%s,%s,%s): coefficient of %s is %s, not 0"
            % (sc.names[i], sc.names[j], sc.names[k], sc.names[l], acc[l]))
    return CheckResult("jacobi", "PASS", "%d triples" % (m ** 3))


def _jacobi_line(rep: RepSpec) -> CheckResult:
    """The `jacobi` line: implied where closure is exact and the grading
    premise holds, else jacobi over the closure table.

    Closure is exact on a polynomial rep and on an extended rep decided
    over its preimage rep (closure), and the premise is read from that
    polynomial rep.  Its closure table is exact: each bracket is the super-commutator, for the declared parities,
    of elements of the associative Weyl-Clifford algebra, and its
    coordinates in the span of the generators are unique.  Where that
    super-commutator is the one of an algebra grading, each generator
    homogeneous of its declared degree, graded Jacobi holds for the
    elements, so the table's sums are the coordinates of zero (Kac, Adv.
    Math. 26, 1977).  Two gradings qualify: every generator declared even
    (ordinary commutators), or every declared parity the fermion parity of
    its generator's normal form.  Any other declaration, a mixed-parity or
    flipped generator, and a probed table are summed."""
    pre = _normal_rep(rep)
    grading = None
    if pre is not None and _once(pre, closure)[0] is not None:
        if not any(pre.parities.values()):
            grading = "ungraded"
        elif all(pre.parities[name] == g.as_weyl().parity()
                 for name, g in pre.generators.items()):
            grading = "graded by fermion parity"
    if grading is None:
        return jacobi(_once(rep, closure)[0])
    return CheckResult("jacobi", "PASS", "implied: exact closure, " + grading)


# -- Killing form -------------------------------------------------------------------


def killing_form(sc: StructureConstants):
    """K(x_i, x_j) = str(ad x_i ad x_j), the supertrace: the diagonal entry
    k of ad x_i ad x_j, summed over the entries of ad x_i as
    ad[i][(k, mid)] = c_{i,mid}^k matched with ad[j][(mid, k)], carries
    (-1)^(p_k).  K is supersymmetric, K[j][i] = (-1)^(p_i p_j) K[i][j];
    on an all-even table that is the trace and a symmetric K."""
    m = len(sc.names)
    p = sc.parities
    ad = [{} for _ in range(m)]
    for (i, mid), coeffs in sc.table.items():
        for k, c in coeffs.items():
            ad[i][(k, mid)] = c
    K = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            ad_j = ad[j]
            total = 0
            for (k, mid), c in ad[i].items():
                v = ad_j.get((mid, k))
                if v is not None:
                    total = total - c * v if p[k] else total + c * v
            K[i][j] = total
            K[j][i] = -total if p[i] and p[j] else total
    span = EchelonSpan()
    for row in K:
        span.insert({idx: v for idx, v in enumerate(row) if v})
    return K, span.dim


def _killing_rank(rep: RepSpec) -> int:
    """The rank of the Killing form of rep's closure table; where that table
    is a family shape's (closure), the shape's rank, formed once per
    process."""
    pre = _normal_rep(rep)
    shape = None if pre is None else _shape(pre)
    if shape is None:
        return killing_form(_once(rep, closure)[0])[1]
    return shape.memo(_killing_rank, lambda: killing_form(_shape_closure(shape)[0])[1])


# -- Casimir ------------------------------------------------------------------------


def casimir_check(rep: RepSpec):
    """Centrality, exact scalar action, and the claimed-value comparison,
    on a rep that carries a Casimir.

    Returns (measured_scalar_or_None, [CheckResult...], claim_result).  The
    claim comparison is a catalogue discrepancy report (MATCH/DIFFERS), not
    a verification failure: the engine's measured value is authoritative.
    On a polynomial rep C is the Poly of its normal form (rep.word_expr),
    and each [C,g] is decided by its residual weyl.bracket(C, g).  On an
    extended rep with preimages (_preimages) each [C,g] is decided, with no
    probe, by its preimage residual, as a relation is (check_relations);
    every [C,g] of any other extended rep is probed up to the rep's probe
    cutoff (_probe_cutoff).  The scalar is read on the invariant space's
    basis, or on the states up to the cutoff less C's raise, both closed
    downward; on an extended rep with preimages (_transported) it is read
    from C's preimage, a polynomial: by the transport lemma
    (invariant_subspace) C = S c S^-1 there, so C acts as a scalar exactly
    when c does, and as the same one.  Where c is no scalar the witness is
    formed on C's tree, which must fail too (_confirmed).  On an extended
    rep C is stored shared (fock.shared), so its image of each state,
    which C g, g C, a witness and the scalar probe read, is formed once.
    """
    expr = shared(rep.word_expr(rep.casimir.terms))
    pre = _normal_rep(rep)
    c_pre = None if pre is None else pre.word_sum(rep.casimir.terms)
    probe = _probe_cutoff(rep)
    failures = []
    for name, g in rep.generators.items():
        residual = None if pre is None else bracket(c_pre, pre.generator(name).as_weyl(), False)
        report = _mismatch(Product([expr, g]), Product([g, expr]), probe, residual)
        if report is not None:
            failures.append("[C,%s]: %s" % (name, report.describe(rep.modes)))
    commutes = CheckResult("casimir_commutes", "FAIL" if failures else "PASS",
                           "against %d generators" % len(rep.generators),
                           "; ".join(failures))

    if rep.invariant_space is not None:
        probe_keys = rep.invariant_space.basis(rep.modes)
    else:
        probe_keys = basis_states(rep.modes,
                                 max(rep.default_cutoff - max(0, expr.max_raise()), 0))
    source = _transported(rep)
    measured, failure = _scalar_action(expr if source is None else Poly(c_pre),
                                       probe_keys, rep.modes)
    if failure and source is not None:
        measured, failure = _scalar_action(expr, probe_keys, rep.modes)
        _confirmed(failure)
    value = CheckResult("casimir_value", "FAIL" if failure else "PASS",
                        "acts as the scalar %s on %d states"
                        % (measured, len(probe_keys)), failure)
    claim = None
    if not failure:
        claimed = rep.casimir.claimed
        claim = AltFormResult(
            "%s claimed value" % rep.casimir.name,
            "MATCH" if measured == claimed else "DIFFERS",
            "" if measured == claimed else "claimed %s, measured %s"
            % (claimed, measured))
    else:
        measured = None
    return measured, [commutes, value], claim


def _scalar_action(op, keys, modes):
    """(c, "") where op sends each state of keys to c times itself, else
    the value read on the first state (or None) and the first witness."""
    measured = None
    for key in keys:
        got = op.apply({key: 1})
        if measured is None:
            if got and key not in got:
                return None, ("on %s: image %s is not a multiple of the state"
                              % (_state_str(*key, modes), vector_str(got, modes)))
            measured = got.get(key, 0)
        if got != ({key: measured} if measured else {}):
            return measured, ("on %s: %s is not %s * state"
                              % (_state_str(*key, modes), vector_str(got, modes), measured))
    return measured, ""


# -- invariant subspace ---------------------------------------------------------------


def invariant_subspace(rep: RepSpec):
    """The claimed invariant space is closed under every generator and has
    the claimed dimension; reps that claim a space only.

    The columns are those of the rep where it is polynomial, and of its
    preimage rep (_transported) where it is an extended rep with
    preimages, by the transport lemma.  Let S be the marks' change of
    basis, S b^alpha th^beta|0> = bhat^alpha th^beta|0>, per mode: on a
    shift or q-pair bhat^k|0> = b(b - d)...(b - (k-1)d)|0>, the
    d-falling factorial (Roman, The Umbral Calculus, 1984), and the
    identity on the fermions.  Every tree T over the kit's own pair nodes
    with preimage w satisfies T S = S w: the marks' map phi sends the
    normal ordering of w b^alpha th^beta to T phi(b^alpha th^beta), and
    the lowering nodes kill |0> (catalogue.shift_pair's and _q_kit's
    lemma).  S b^alpha th^beta|0> is b^alpha th^beta|0> plus states whose
    every bosonic exponent is no larger, so S maps the span of states
    closed downward in each bosonic exponent, as every weighted-degree
    space with nonnegative weights is, onto itself, unit-triangularly;
    _transported checks that of the claimed space.  There T = S w S^-1, so
    T keeps the space exactly when w does.  Where a preimage column leaves
    the space, the witness is formed on the trees, which must leave it too
    (_confirmed)."""
    space = rep.invariant_space
    source = _transported(rep) or rep
    for name in rep.generators:
        keys, _, escape = source.space_columns(name)
        if escape:
            if source is not rep:
                escape = _confirmed(rep.space_columns(name)[2])
            return None, CheckResult("invariant_subspace", "FAIL", space.description, escape)
    dim = len(keys)
    status = "PASS" if dim == space.expected_dim else "FAIL"
    detail = "dimension %d (expected %d): %s" % (dim, space.expected_dim,
                                                 space.description)
    return dim, CheckResult("invariant_subspace", status, detail)


def _dense(cols, d):
    mat = [[0] * d for _ in range(d)]
    for j, col in enumerate(cols):
        for i, c in col.items():
            mat[i][j] = c
    return mat


# -- Burnside irreducibility --------------------------------------------------------


def burnside_irreducibility(rep: RepSpec):
    """Irreducible iff the generated unital algebra has dimension d^2, on
    the claimed invariant space.

    A generator mapping out of the space raises ValueError.

    "irreducible" is first sought by an extreme-weight reach
    (_extreme_weight_certifies; Kac, Lie superalgebras, 1977), which reads
    only which entries are nonzero.  Give the basis state b^alpha th^beta|0>
    the weight (alpha, beta) in Z^(p+r), so each weight space is one state.
    A generator is homogeneous when every nonzero entry (i <- j) moves
    keys[j] by one shift s_g, and lowering when s_g < 0 in lex order, a
    total order compatible with addition.  Where every generator is
    homogeneous, exactly one state v is killed by every lowering generator,
    and every state is reached from v along nonzero entries, the space is
    irreducible: a nonzero submodule U holds some u != 0, and while a
    lowering generator does not kill u, replacing u by its image lowers
    u's top weight, so U holds a nonzero u the lowering generators kill;
    each such generator maps distinct states to distinct weight spaces, so
    its kernel is spanned by the states it kills, and u is a multiple of
    v.  A homogeneous generator sends each state to a multiple of one
    state, so the spin of v is the span of the states it reaches, the
    whole space.  No step depends on the field, so the space is absolutely
    irreducible, and by Burnside the algebra has dimension d^2.  Otherwise
    the algebra is spanned over Q(sqrt2) exactly: "reducible" and every
    dimension below d^2 come only from that span.

    The columns are the invariant-space columns (RepSpec.space_columns)
    of the rep or of its preimage rep, as invariant_subspace reads them,
    so inside full_verify they are not formed again.  By the transport
    lemma there, an extended rep's matrices on the space are the
    S-conjugates of its preimages', so they generate an algebra of the
    same dimension, and the verdict and detail are the trees'.
    """
    source = _transported(rep) or rep
    cols = []
    for name in rep.generators:
        keys, g_cols, escape = source.space_columns(name)
        if escape:
            raise ValueError(escape if source is rep else _confirmed(rep.space_columns(name)[2]))
        cols.append(g_cols)
    d = len(keys)
    if _extreme_weight_certifies(keys, cols):
        algebra_dim = d * d
    else:
        algebra_dim = _exact_algebra_dim([_dense(g_cols, d) for g_cols in cols], d)
    irreducible = algebra_dim == d * d
    verdict = "irreducible" if irreducible else "reducible"
    detail = "%s: algebra dimension %d on a %d-dimensional space" % (
        verdict, algebra_dim, d)
    claim = rep.claims.irreducible
    if claim is None:
        return (verdict, algebra_dim), CheckResult("irreducibility", "PASS", detail)
    status = "PASS" if irreducible == claim else "FAIL"
    witness = "" if status == "PASS" else (
        "claimed %s but measured %s" %
        ("irreducible" if claim else "reducible", verdict))
    return (verdict, algebra_dim), CheckResult("irreducibility", status, detail,
                                               witness)


def _extreme_weight_certifies(keys, cols) -> bool:
    """The extreme-weight reach of burnside_irreducibility on the basis
    keys, each generator given by its sparse columns, which hold no zero
    entry (weyl.accumulate drops them).

    A weight is one int: the exponents (alpha, beta) as mixed-radix digits,
    most significant first, in a base above twice the largest degree.  A
    difference of exponents has every digit below half the base in size,
    so it maps one to one to the difference of the ints, whose sign is
    that of its first nonzero digit, its lex sign."""
    base = 2 * max(map(state_degree, keys), default=0) + 2
    bits = max((beta for _, beta in keys), default=0).bit_length()
    weights = []
    for alpha, beta in keys:
        w = 0
        for e in alpha:
            w = w * base + e
        for k in range(bits):
            w = w * base + (beta >> k & 1)
        weights.append(w)
    lowering = []
    for g_cols in cols:
        shifts = {weights[i] - w for w, col in zip(weights, g_cols) for i in col}
        if len(shifts) > 1:
            return False
        if shifts and shifts.pop() < 0:
            lowering.append(g_cols)
    extreme = [j for j in range(len(keys)) if not any(g_cols[j] for g_cols in lowering)]
    if len(extreme) != 1:
        return False
    reached, stack = set(extreme), extreme
    while stack:
        j = stack.pop()
        for g_cols in cols:
            for i in g_cols[j]:
                if i not in reached:
                    reached.add(i)
                    stack.append(i)
    return len(reached) == len(keys)


def _exact_algebra_dim(mats, d) -> int:
    """Dimension over Q(sqrt2) of the unital algebra the matrices generate."""

    def flat(mat):
        return {(i, j): mat[i][j] for i in range(d) for j in range(d)
                if mat[i][j]}

    span = EchelonSpan()
    frontier = []
    for mat in [mat_identity(d)] + mats:
        if span.insert(flat(mat)):
            frontier.append(mat)
    while frontier and span.dim < d * d:
        new = []
        for mat in frontier:
            for g in mats:
                prod = mat_mul(mat, g)
                if span.insert(flat(prod)):
                    new.append(prod)
                    if span.dim == d * d:
                        break
            if span.dim == d * d:
                break
        frontier = new
    return span.dim


# -- alt forms --------------------------------------------------------------------------


def check_alt_forms(rep: RepSpec) -> list:
    """Compare recorded closed forms with the normative generators.

    A DIFFERS entry is a reported catalogue discrepancy, not a failure: the
    normative construction wins by design and the mismatch is preserved as
    data.  A polynomial alt form of a polynomial generator is decided by
    its residual.  Any other pair is probed on the states up to the rep's
    cutoff, floored at 6, since fewer states can miss the witness of a
    displayed closed form that differs.
    """
    cutoff = max(rep.default_cutoff, 6)
    out = []
    for alt in rep.alt_forms:
        report = _mismatch(rep.generator(alt.generator), alt.expr, cutoff)
        out.append(AltFormResult(
            alt.generator, "MATCH" if report is None else "DIFFERS",
            "" if report is None else report.describe(rep.modes)))
    return out


# -- the check table ------------------------------------------------------------------------


def _once(rep, check):
    """check(rep), formed once on the report's copy."""
    return rep.memo(check, lambda: check(rep))


def _closed(rep) -> bool:
    """Closure is claimed and found structure constants."""
    return rep.claims.closes and _once(rep, closure)[0] is not None


def _casimir(rep):
    _, results, claim = casimir_check(rep)
    return results + [claim] if claim else results


# Every check of a report, in report order: (name, when, run).  when(rep) is
# true to run the entry, a string to record a skip with that reason, or
# false for no line; run(rep) gives its results.  Each body names its check
# as a module global when it runs, so a verify.<check> patched later is the
# one called.  Closure is one entry and one line per rep, the symbolic
# decision on a polynomial rep or an extended rep's preimages and the
# matrix probe on any other; the Killing rank reads its table, and so does
# Jacobi where the table's grading does not imply it (_jacobi_line).
CHECKS = [
    ("relations", lambda rep: bool(rep.relations), lambda rep: check_relations(rep)),
    ("closure", lambda rep: rep.claims.closes, lambda rep: [_once(rep, closure)[1]]),
    ("jacobi", _closed, lambda rep: [_jacobi_line(rep)]),
    ("killing_rank", _closed,  # (rank, generators): report data, not a check
     lambda rep: [(_killing_rank(rep), len(rep.generators))]),
    ("alt_forms", lambda rep: True, lambda rep: check_alt_forms(rep)),
    ("casimir", lambda rep: rep.casimir is not None, lambda rep: _casimir(rep)),
    ("invariant_subspace", lambda rep: rep.invariant_space is not None or "no claim",
     lambda rep: [_once(rep, invariant_subspace)[1]]),
    ("irreducibility", lambda rep: rep.invariant_space is not None and
     rep.claims.irreducible is not None and _once(rep, invariant_subspace)[1].passed,
     lambda rep: [burnside_irreducibility(rep)[1]]),
]


def full_verify(rep: RepSpec) -> VerificationReport:
    """Walk CHECKS on a fresh copy of rep, so the entries share its memo:
    closure, whichever path decides it, and the invariant space are each
    formed once per report."""
    start = time.monotonic()
    rep = replace(rep)
    report = VerificationReport(rep.rep_id, rep.params, rep.default_cutoff)
    for name, when, run in CHECKS:
        begun = time.perf_counter()
        go = when(rep)
        results = ([CheckResult(name, "SKIP", go)] if isinstance(go, str)
                   else run(rep) if go else [])
        elapsed_ms = round((time.perf_counter() - begun) * 1000, 3)
        for result in results:
            report.add(result, elapsed_ms)
    report.elapsed_ms = int((time.monotonic() - start) * 1000)
    return report


def _bracket_name(x: str, y: str, anti: bool) -> str:
    """{x,y} for an anticommutator, [x,y] for a commutator."""
    return ("{%s,%s}" if anti else "[%s,%s]") % (x, y)
