"""Machine verification of catalogue claims.

Every check is exact: a PASS is an identity of Scalars, a FAIL carries a
concrete witness (a basis state or index pair with both values).  Closure
is checked at matrix level uniformly, with a symbolic second path over
normal-ordered canonical forms for purely polynomial families; the two
paths are independent implementations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .catalogue import RepSpec
from .fock import FockVector, basis_states, check_identity
from .linalg import EchelonSpan, ModPSpan, charpoly, mat_identity, mat_mul
from .scalars import MOD_P, ONE, ZERO, Scalar, reduce_mod_p
from .weyl import WeylElement, commutator as w_comm, anticommutator as w_acomm


@dataclass
class CheckResult:
    name: str
    status: str  # "PASS" | "FAIL"
    detail: str = ""
    witness: str = ""

    @property
    def passed(self):
        return self.status == "PASS"

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
    table: dict  # (i, j) -> {k: Scalar}
    span_dim: int
    probe_degree: int
    dependent: list = field(default_factory=list)

    def perturbed(self, i: int, j: int, k: int, delta=1) -> "StructureConstants":
        """Copy with c_{ij}^k shifted; used by negative-control tests."""
        table = {key: dict(val) for key, val in self.table.items()}
        entry = table.setdefault((i, j), {})
        entry[k] = entry.get(k, ZERO) + Scalar.of(delta)
        return StructureConstants(self.names, self.parities, table,
                                  self.span_dim, self.probe_degree, self.dependent)


@dataclass
class VerificationReport:
    rep_id: str
    params: dict
    cutoff: int
    checks: list = field(default_factory=list)
    alt_forms: list = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

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
            "checks": [c.to_json() for c in self.checks],
        }
        if self.alt_forms:
            out["alt_forms"] = [a.to_json() for a in self.alt_forms]
        if with_timing:
            out["elapsed_ms"] = self.elapsed_ms
        return out


# -- relations ---------------------------------------------------------------


def check_relations(rep: RepSpec, cutoff: int = None) -> list:
    """One result per relation line; FAIL carries the first witness.

    The cutoff is floored so the overflow-free probe range never collapses
    to the vacuum alone (relation words raise by at most twice the largest
    generator raise).
    """
    if cutoff is None:
        cutoff = rep.default_cutoff
    cutoff = max(cutoff, 3 + 2 * rep.max_generator_raise())
    grouped: dict = {}
    for rel in rep.relations:
        grouped.setdefault(rel.line or rel.name, []).append(rel)
    results = []
    for label, rels in grouped.items():
        failures = []
        names = []
        for rel in rels:
            names.append(rel.name)
            report = check_identity(rep.word_expr(rel.lhs), rep.word_expr(rel.rhs),
                                    cutoff)
            if not report.equal:
                failures.append("%s: %s" % (rel.name, report.describe(rep.modes)))
        results.append(CheckResult(
            "relation %s" % label,
            "FAIL" if failures else "PASS",
            "; ".join(names),
            "; ".join(failures)))
    return results


def check_relations_symbolic(rep: RepSpec) -> CheckResult:
    """Exact canonical-form identity check, polynomial families only."""
    if not rep.is_polynomial():
        return CheckResult("relations_symbolic", "PASS", "skipped: extended generators")
    failures = []
    for rel in rep.relations:
        diff = _word_weyl(rep, rel.lhs) - _word_weyl(rep, rel.rhs)
        if not diff.is_zero():
            failures.append("%s: residual %s" % (rel.name, diff))
    return CheckResult("relations_symbolic", "FAIL" if failures else "PASS",
                       "%d relations" % len(rep.relations), "; ".join(failures))


def _word_weyl(rep: RepSpec, terms) -> WeylElement:
    total = WeylElement.zero(rep.modes)
    for coeff, names in terms:
        factor = WeylElement.one(rep.modes)
        for g in names:
            factor = factor * rep.generators[g].as_weyl()
        total = total + factor.scale(coeff)
    return total


# -- closure and structure constants ----------------------------------------------


def _pairwise_lowering(rep: RepSpec) -> int:
    lows = []
    for g in rep.generators.values():
        w = g.as_weyl()
        lows.append(w.max_lower() if w is not None else 0)
    if not lows:
        return 1
    top = sorted(lows)[-2:]
    return sum(top)


def closure(rep: RepSpec, cutoff: int = None):
    """Extract structure constants from all pairwise super-brackets.

    Probes the action on basis states: for polynomial families, vanishing on
    every state of degree up to the combined lowering degree of a generator
    pair is an exact abstract identity, so the extracted constants are not
    truncation artifacts.  Extended families are probed on the overflow-free
    range of the stated cutoff.
    """
    names = list(rep.generators)
    gens = [rep.generators[n] for n in names]
    parities = [rep.parities[n] for n in names]
    cutoff = rep.default_cutoff if cutoff is None else cutoff
    pairlow = _pairwise_lowering(rep)
    if rep.is_polynomial():
        probe = max(pairlow, 1)
    else:
        probe = max(cutoff - 2 * rep.max_generator_raise(), pairlow, 1)
    states = basis_states(rep.modes, probe)

    def stacked(op_applied):
        vec = {}
        for j, image in enumerate(op_applied):
            for (alpha, beta), c in image.terms.items():
                vec[(j, alpha, beta)] = c
        return vec

    unit = [FockVector(rep.modes, {key: ONE}) for key in states]
    applied = [[g.apply(v) for v in unit] for g in gens]

    span = EchelonSpan()
    dependent = []
    for idx, cols in enumerate(applied):
        if not span.insert(stacked(cols)):
            dependent.append(names[idx])
    span_dim = span.dim

    table = {}
    m = len(gens)
    for i in range(m):
        for j in range(i, m):
            anti = parities[i] == 1 and parities[j] == 1
            bracket_cols = []
            for idx in range(len(states)):
                left = gens[i].apply(applied[j][idx])
                right = gens[j].apply(applied[i][idx])
                bracket_cols.append(left + right if anti else left - right)
            coeffs, residual = span.express(stacked(bracket_cols))
            if coeffs is None:
                key = min(residual)
                witness = ("[%s,%s%s on state %s leaves the span"
                           % (names[i], names[j], "}" if anti else "]",
                              _state_name(states[key[0]], rep.modes)))
                return None, CheckResult("closure", "FAIL",
                                         "probe degree %d" % probe, witness)
            table[(i, j)] = coeffs
            if i != j:
                sign = Scalar(-1) if not anti else ONE
                table[(j, i)] = {k: v * sign for k, v in coeffs.items()}
    sc = StructureConstants(names, parities, table, span_dim, probe, dependent)
    detail = "span dimension %d over %d generators, probe degree %d" % (
        span_dim, m, probe)
    if dependent:
        detail += "; dependent: %s" % ", ".join(dependent)
    return sc, CheckResult("closure", "PASS", detail)


def closure_symbolic(rep: RepSpec):
    """Second, independent closure path over canonical normal-ordered forms."""
    if not rep.is_polynomial():
        return None, CheckResult("closure_symbolic", "PASS",
                                 "skipped: extended generators")
    names = list(rep.generators)
    gens = [rep.generators[n].as_weyl() for n in names]
    parities = [rep.parities[n] for n in names]
    span = EchelonSpan()
    dependent = []
    for idx, g in enumerate(gens):
        if not span.insert(dict(g.terms)):
            dependent.append(names[idx])
    table = {}
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            anti = parities[i] == 1 and parities[j] == 1
            bracket = w_acomm(gens[i], gens[j]) if anti else w_comm(gens[i], gens[j])
            coeffs, residual = span.express(dict(bracket.terms))
            if coeffs is None:
                return None, CheckResult(
                    "closure_symbolic", "FAIL", "",
                    "[%s,%s%s has residual %s"
                    % (names[i], names[j], "}" if anti else "]",
                       WeylElement(rep.modes, residual)))
            table[(i, j)] = coeffs
            if i != j:
                sign = ONE if anti else Scalar(-1)
                table[(j, i)] = {k: v * sign for k, v in coeffs.items()}
    sc = StructureConstants(names, parities, table, span.dim, -1, dependent)
    return sc, CheckResult("closure_symbolic", "PASS",
                           "span dimension %d" % span.dim)


def verify_constants(rep: RepSpec, sc: StructureConstants) -> CheckResult:
    """Re-verify that every bracket equals its claimed generator combination.

    This is the defining property of a structure-constant table, so any
    corrupted entry fails here with the offending pair and exact residual.
    Polynomial generators only (symbolic canonical forms).
    """
    names = sc.names
    gens = [rep.generators[n].as_weyl() for n in names]
    for (i, j), coeffs in sc.table.items():
        anti = sc.parities[i] == 1 and sc.parities[j] == 1
        bracket = w_acomm(gens[i], gens[j]) if anti else w_comm(gens[i], gens[j])
        combo = WeylElement.zero(rep.modes)
        for k, c in coeffs.items():
            combo = combo + gens[k].scale(c)
        residual = bracket - combo
        if not residual.is_zero():
            return CheckResult(
                "constants", "FAIL", "",
                "[%s,%s%s != claimed combination; residual %s"
                % (names[i], names[j], "}" if anti else "]", residual))
    return CheckResult("constants", "PASS", "%d brackets" % len(sc.table))


def structure_constants_agree(a: StructureConstants, b: StructureConstants) -> bool:
    if a.names != b.names:
        return False
    keys = set(a.table) | set(b.table)
    return all(a.table.get(k, {}) == b.table.get(k, {}) for k in keys)


# -- Jacobi -----------------------------------------------------------------------


def jacobi(sc: StructureConstants) -> CheckResult:
    """Graded Jacobi identity on every index triple, exact."""
    m = len(sc.names)
    p = sc.parities

    def term(i, j, k, acc, sign):
        inner = sc.table.get((i, j), {})
        for mid, cij in inner.items():
            outer = sc.table.get((mid, k), {})
            for l, cml in outer.items():
                key = l
                val = cij * cml
                if sign < 0:
                    val = -val
                cur = acc.get(key)
                s = val if cur is None else cur + val
                if s.is_zero():
                    acc.pop(key, None)
                else:
                    acc[key] = s

    for i in range(m):
        for j in range(m):
            for k in range(m):
                acc = {}
                term(i, j, k, acc, -1 if p[i] * p[k] else 1)
                term(j, k, i, acc, -1 if p[j] * p[i] else 1)
                term(k, i, j, acc, -1 if p[k] * p[j] else 1)
                if acc:
                    l, v = next(iter(acc.items()))
                    return CheckResult(
                        "jacobi", "FAIL", "",
                        "triple (%s,%s,%s): coefficient of %s is %s, not 0"
                        % (sc.names[i], sc.names[j], sc.names[k], sc.names[l], v))
    return CheckResult("jacobi", "PASS", "%d triples" % (m ** 3))


# -- Killing form -------------------------------------------------------------------


def killing_form(sc: StructureConstants):
    """K(x_i, x_j) = tr(ad x_i ad x_j) from the structure constants."""
    m = len(sc.names)
    K = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            total = ZERO
            for mid in range(m):
                ci = sc.table.get((i, mid), {})
                for k, cik in ci.items():
                    cj = sc.table.get((j, k), {})
                    v = cj.get(mid)
                    if v is not None:
                        total = total + cik * v
            K[i][j] = total
            K[j][i] = total
    span = EchelonSpan()
    for row in K:
        span.insert({idx: v for idx, v in enumerate(row) if not v.is_zero()})
    return K, span.dim


# -- Casimir ------------------------------------------------------------------------


def casimir_check(rep: RepSpec, cutoff: int = None):
    """Centrality, exact scalar action, and the claimed-value comparison.

    Returns (measured_scalar_or_None, [CheckResult...], claim_result).  The
    claim comparison is a catalogue discrepancy report (MATCH/DIFFERS), not
    a verification failure: the engine's measured value is authoritative.
    """
    if rep.casimir is None:
        return None, [], None
    cutoff = rep.default_cutoff if cutoff is None else cutoff
    expr = rep.word_expr(rep.casimir.terms)
    failures = []
    for name, g in rep.generators.items():
        report = check_identity(expr * g, g * expr, cutoff)
        if not report.equal:
            failures.append("[C,%s]: %s" % (name, report.describe(rep.modes)))
    commutes = CheckResult("casimir_commutes", "FAIL" if failures else "PASS",
                           "against %d generators" % len(rep.generators),
                           "; ".join(failures))

    if rep.invariant_space is not None:
        probe_keys = rep.invariant_space.basis(rep.modes)
    else:
        probe_keys = basis_states(rep.modes, max(cutoff - max(0, expr.max_raise()), 0))
    measured = None
    value_failures = []
    for key in probe_keys:
        v = FockVector(rep.modes, {key: ONE})
        got = expr.apply(v)
        if measured is None:
            coeff = got.terms.get(key)
            if coeff is None and got.is_zero():
                coeff = ZERO
            if coeff is None:
                value_failures.append("on %s: image %s is not a multiple of the state"
                                      % (_state_name(key, rep.modes), got))
                break
            measured = coeff
        if got != v.scale(measured):
            value_failures.append("on %s: %s is not %s * state"
                                  % (_state_name(key, rep.modes), got, measured))
            break
    value = CheckResult("casimir_value", "FAIL" if value_failures else "PASS",
                        "acts as the scalar %s on %d states"
                        % (measured, len(probe_keys)),
                        "; ".join(value_failures))
    claim = None
    if not value_failures:
        claimed = rep.casimir.claimed
        claim = AltFormResult(
            "%s claimed value" % rep.casimir.name,
            "MATCH" if measured == claimed else "DIFFERS",
            "" if measured == claimed else "claimed %s, measured %s"
            % (claimed, measured))
    else:
        measured = None
    return measured, [commutes, value], claim


# -- invariant subspace ---------------------------------------------------------------


def invariant_subspace(rep: RepSpec):
    if rep.invariant_space is None:
        return None, CheckResult("invariant_subspace", "PASS", "no claim")
    space = rep.invariant_space
    keys = space.basis(rep.modes)
    inside = set(keys)
    for name, g in rep.generators.items():
        for key in keys:
            image = g.apply(FockVector(rep.modes, {key: ONE}))
            for skey in image.terms:
                if skey not in inside:
                    return None, CheckResult(
                        "invariant_subspace", "FAIL", space.description,
                        "%s maps %s outside the space (component %s)"
                        % (name, _state_name(key, rep.modes),
                           _state_name(skey, rep.modes)))
    dim = len(keys)
    status = "PASS" if dim == space.expected_dim else "FAIL"
    detail = "dimension %d (expected %d): %s" % (dim, space.expected_dim,
                                                 space.description)
    return dim, CheckResult("invariant_subspace", status, detail)


def restricted_matrix(rep: RepSpec, gen_name: str):
    """Dense matrix of one generator on the invariant-space basis."""
    space = rep.invariant_space
    keys = space.basis(rep.modes)
    index = {key: idx for idx, key in enumerate(keys)}
    d = len(keys)
    mat = [[ZERO] * d for _ in range(d)]
    g = rep.generator(gen_name)
    for j, key in enumerate(keys):
        image = g.apply(FockVector(rep.modes, {key: ONE}))
        for skey, c in image.terms.items():
            mat[index[skey]][j] = c
    return mat


# -- Burnside irreducibility --------------------------------------------------------


def burnside_irreducibility(rep: RepSpec):
    """Span the generated unital matrix algebra; irreducible iff dim = d^2.

    The proof is asymmetric.  "irreducible" is certified by a rank mod the
    prime p = 2^61 - 1: the closure of {I, g_1, ..., g_m} under right
    multiplication by the g_i is run on the generators reduced into F_p
    (sqrt2 sent to a square root of 2 mod p).  If that span reaches d^2,
    some d^2 words have a d^2 x d^2 minor that is nonzero mod p, so the
    minor of the exact words is nonzero in Q(sqrt2), and the algebra is
    all of M_d.  If p divides a denominator, or the span mod p stays below
    d^2 (the algebra is smaller, or p is unlucky), the same closure runs
    over Q(sqrt2) exactly: "reducible" and every algebra dimension below
    d^2 come only from that exact span.  Both are exact; the F_p path is
    fast because its coefficients do not grow.  The work is still about
    d^4 per word, which is why full_verify applies BURNSIDE_DIM_CAP.
    """
    if rep.invariant_space is None:
        return None, CheckResult("irreducibility", "PASS", "no claim")
    d = len(rep.invariant_space.basis(rep.modes))
    mats = [restricted_matrix(rep, name) for name in rep.generators]
    algebra_dim = d * d if _spans_mod_p(mats, d) else _exact_algebra_dim(mats, d)
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


def _spans_mod_p(mats, d) -> bool:
    """True when the words in the generators reduced mod p span d^2 matrices."""
    gens = []  # per generator: row index -> {column: entry}
    for mat in mats:
        rows = {}
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                if x:
                    r = reduce_mod_p(x)
                    if r is None:
                        return False
                    if r:
                        rows.setdefault(i, {})[j] = r
        gens.append(rows)

    # words are flat dicts i*d + j -> entry, so keys order like (i, j)
    def times(word, g):
        out = {}
        for key, a in word.items():
            i, k = divmod(key, d)
            base = i * d
            for j, b in g.get(k, {}).items():
                out[base + j] = out.get(base + j, 0) + a * b
        return {key: v % MOD_P for key, v in out.items() if v % MOD_P}

    span = ModPSpan()
    full = d * d
    frontier = []
    identity = {i * d + i: 1 for i in range(d)}
    for word in [identity] + [times(identity, g) for g in gens]:
        if span.insert(word):
            frontier.append(word)
    while frontier and span.dim < full:
        new = []
        for word in frontier:
            for g in gens:
                prod = times(word, g)
                if span.insert(prod):
                    new.append(prod)
                    if span.dim == full:
                        return True
        frontier = new
    return span.dim == full


def _exact_algebra_dim(mats, d) -> int:
    """Dimension over Q(sqrt2) of the unital algebra the matrices generate."""

    def flat(mat):
        return {(i, j): mat[i][j] for i in range(d) for j in range(d)
                if not mat[i][j].is_zero()}

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


# -- characteristic-polynomial equivalence -------------------------------------------


def charpoly_equivalence(rep_a: RepSpec, rep_b: RepSpec, gen_name: str):
    """Equal restricted characteristic polynomials of same-named generators."""
    if rep_a.invariant_space is None or rep_b.invariant_space is None:
        raise ValueError("both representations need invariant spaces")
    da = len(rep_a.invariant_space.basis(rep_a.modes))
    db = len(rep_b.invariant_space.basis(rep_b.modes))
    if da != db:
        raise ValueError("dimension mismatch: %d vs %d" % (da, db))
    pa = charpoly(restricted_matrix(rep_a, gen_name))
    pb = charpoly(restricted_matrix(rep_b, gen_name))
    if pa == pb:
        return CheckResult("charpoly %s" % gen_name, "PASS",
                           "degree %d, coefficients agree" % da)
    diff = next(i for i in range(len(pa)) if pa[i] != pb[i])
    return CheckResult("charpoly %s" % gen_name, "FAIL", "",
                       "coefficient of t^%d: %s vs %s"
                       % (da - diff, pa[diff], pb[diff]))


# -- alt forms --------------------------------------------------------------------------


def check_alt_forms(rep: RepSpec, cutoff: int = 6) -> list:
    """Compare recorded closed forms with the normative generators.

    A DIFFERS entry is a reported catalogue discrepancy, not a failure: the
    normative construction wins by design and the mismatch is preserved as
    data.
    """
    out = []
    for alt in rep.alt_forms:
        report = check_identity(rep.generator(alt.generator), alt.expr, cutoff)
        out.append(AltFormResult(
            alt.generator, "MATCH" if report.equal else "DIFFERS",
            report.describe(rep.modes) if not report.equal else ""))
    return out


# -- orchestration ------------------------------------------------------------------------


# Burnside spans a d^2-dimensional matrix algebra; beyond this dimension the
# orchestrator leaves irreducibility to an explicit burnside_irreducibility
# call (CLI --deep) instead of stalling every grid run.
BURNSIDE_DIM_CAP = 12


def full_verify(rep: RepSpec, cutoff: int = None,
                burnside_cap: int = BURNSIDE_DIM_CAP) -> VerificationReport:
    start = time.monotonic()
    cutoff = rep.default_cutoff if cutoff is None else cutoff
    report = VerificationReport(rep.rep_id, rep.params, cutoff)
    if rep.relations:
        report.checks.extend(check_relations(rep, cutoff))
        report.checks.append(check_relations_symbolic(rep))
    if rep.claims.closes:
        sc, closure_result = closure(rep, cutoff)
        report.checks.append(closure_result)
        if sc is not None:
            report.checks.append(jacobi(sc))
            _, rank = killing_form(sc)
            report.checks.append(CheckResult(
                "killing_rank", "PASS",
                "rank %d of %d" % (rank, len(sc.names))))
        if rep.is_polynomial():
            sym_sc, sym_result = closure_symbolic(rep)
            report.checks.append(sym_result)
            if sc is not None and sym_sc is not None:
                agree = structure_constants_agree(sc, sym_sc)
                report.checks.append(CheckResult(
                    "closure_paths_agree", "PASS" if agree else "FAIL",
                    "matrix and symbolic structure constants",
                    "" if agree else "paths disagree"))
    report.alt_forms.extend(check_alt_forms(rep))
    _, casimir_results, casimir_claim = casimir_check(rep, cutoff)
    report.checks.extend(casimir_results)
    if casimir_claim is not None:
        report.alt_forms.append(casimir_claim)
    dim, inv_result = invariant_subspace(rep)
    report.checks.append(inv_result)
    if rep.invariant_space is not None and inv_result.passed \
            and rep.claims.irreducible is not None \
            and (burnside_cap is None or dim <= burnside_cap):
        _, burn = burnside_irreducibility(rep)
        report.checks.append(burn)
    report.elapsed_ms = int((time.monotonic() - start) * 1000)
    return report


def _state_name(key, modes) -> str:
    from .fock import _state_str

    return _state_str(key[0], key[1], modes)
