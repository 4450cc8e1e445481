"""Independent brute-force oracles used only by the test suite.

The production algebra reorders with closed-form binomial sums and
transposition-counted signs.  These oracles instead rewrite words one
adjacent swap at a time, straight from the defining relations, and are
deliberately naive.  The Jacobi oracle walks all m^3 index triples, the
Killing oracle every middle index of every pair, and the closure oracle
every compiled column of every pair on every probe state.  The constants
re-check forms each bracket from swap_multiply products, and a generator's
characteristic polynomial on its invariant space is sympy's.  The probe
oracles decide every relation, Casimir commutator and alt form by applying
both sides to each state up to the cutoff, with no normal-form shortcut,
and fold their generator words themselves, reading no memo of the rep.
The differential oracle relabels a normal-ordered element monomial by
monomial into function-space leaves, where the library puts the family's
formula over its differential kit.  q_pair_fd transcribes the paper's
displayed finite-difference q-pair, which criterion 8 and test_realize check.
walk_cross_check decides every cross check line by the state walk alone, the
reference for cross_check's kit theorem; given fd steps, it builds the fd
kits at steps other than a family record's, so the fd cross check runs at
those steps without the library taking them.
OracleScalar is the earlier coefficient type, in which every number was a
Scalar, kept as the reference for the native int/Rational/Scalar mix.
"""

from math import isqrt

from fockrep.catalogue import FAMILIES, fock_kit
from fockrep.fock import (LeftDivB, OperatorExpr, Poly, Product, Scale, Sum, _state_str,
                          basis_states, check_identity, identity_op)
from fockrep.linalg import EchelonSpan
from fockrep.qheis import q_number_op
from fockrep.realize import (Cliff, CliffordMatrices, MultX, Partial, _difference,
                             abstract_counterpart, fd_kit, fd_pair, realize_generators)
from fockrep.scalars import Rational, Scalar, rat
from fockrep.verify import (AltFormResult, CheckResult, StructureConstants, _bracket_name,
                            _pairwise_lowering)
from fockrep.weyl import ModeSystem, WeylElement, _mask_to_list, accumulate

# atoms: ('b', i), ('a', i), ('th', j), ('dth', j)


def _atom_key(atom):
    kind, idx = atom
    if kind == "b":
        return (0, idx, 0)
    if kind == "a":
        return (0, idx, 1)
    if kind == "th":
        return (1, 0, idx)
    return (1, 1, idx)


def _is_fermionic(atom):
    return atom[0] in ("th", "dth")


def swap_normal_order(word, coeff, modes: ModeSystem) -> WeylElement:
    """Normal-order a single word by repeated adjacent swaps, under the
    mode system's rule a b = q b a + 1 (q = 1 for the canonical pair).

    Each step rewrites the first out-of-order adjacent pair of every word
    by one defining relation; identical words are merged between steps, so
    a word reached along many rewrite paths is rewritten once per step.
    A rewrite at pos leaves the pairs before pos - 1 as they were, in
    order, so each word's scan resumes there.
    """
    result = WeylElement.zero(modes)
    words = {tuple(word): [coeff, 0]}
    while words:
        step = {}

        def push(w, c, start):
            entry = step.setdefault(w, [0, start])
            entry[0] += c
            entry[1] = max(entry[1], start)

        for w, (c, start) in words.items():
            if not c:
                continue
            pos = _first_violation(w, start)
            if pos is None:
                result = result + _word_to_element(w, c, modes)
                continue
            x, y = w[pos], w[pos + 1]
            head, tail = w[:pos], w[pos + 2:]
            start = max(pos - 1, 0)
            if _is_fermionic(x) and x == y:
                continue  # nilpotent square kills the word
            if x[0] == "a" and y[0] == "b" and x[1] == y[1]:
                push(head + (y, x) + tail, c * modes.q, start)  # ab -> q ba + 1
                push(head + tail, c, start)
            elif _is_fermionic(x) and _is_fermionic(y):
                if x[0] == "dth" and y[0] == "th" and x[1] == y[1]:
                    push(head + tail, c, start)  # dth th -> 1 - th dth
                    push(head + (y, x) + tail, -c, start)
                else:
                    push(head + (y, x) + tail, -c, start)
            else:
                push(head + (y, x) + tail, c, start)  # commuting swap
        words = step
    return result


def _first_violation(word, start):
    for pos in range(start, len(word) - 1):
        kx, ky = _atom_key(word[pos]), _atom_key(word[pos + 1])
        if kx > ky:
            return pos
        if kx == ky and _is_fermionic(word[pos]):
            return pos
    return None


def _word_to_element(word, coeff, modes: ModeSystem) -> WeylElement:
    bp = [0] * modes.bosonic
    ap = [0] * modes.bosonic
    th, dth = [], []
    for kind, idx in word:
        if kind == "b":
            bp[idx - 1] += 1
        elif kind == "a":
            ap[idx - 1] += 1
        elif kind == "th":
            th.append(idx)
        else:
            dth.append(idx)
    return WeylElement.monomial(modes, bp, ap, th, dth, coeff)


def monomial_to_word(mono, modes: ModeSystem):
    bp, ap, th, dth = mono
    word = []
    for i in range(modes.bosonic):
        word.extend([("b", i + 1)] * bp[i])
        word.extend([("a", i + 1)] * ap[i])
    for j in range(modes.fermionic):
        if th & (1 << j):
            word.append(("th", j + 1))
    for j in range(modes.fermionic):
        if dth & (1 << j):
            word.append(("dth", j + 1))
    return tuple(word)


def swap_multiply(x: WeylElement, y: WeylElement) -> WeylElement:
    """Oracle product: concatenate words, then single-swap normal order."""
    result = WeylElement.zero(x.modes)
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            word = monomial_to_word(mx, x.modes) + monomial_to_word(my, x.modes)
            result = result + swap_normal_order(word, cx * cy, x.modes)
    return result


def q_swap_multiply(terms_x, terms_y, q) -> dict:
    """Oracle for the q-deformed pair:  a b -> q b a + 1.

    terms are dicts (k, m) -> coefficient for b^k a^m words; returns the same
    shape, fully reordered by adjacent swaps.
    """
    out: dict = {}
    stack = []
    for (k1, m1), c1 in terms_x.items():
        for (k2, m2), c2 in terms_y.items():
            word = ("b",) * k1 + ("a",) * m1 + ("b",) * k2 + ("a",) * m2
            stack.append((word, c1 * c2))
    while stack:
        word, c = stack.pop()
        pos = next((i for i in range(len(word) - 1)
                    if word[i] == "a" and word[i + 1] == "b"), None)
        if pos is None:
            key = (word.count("b"), word.count("a"))
            cur = out.get(key, 0) + c
            if not cur:
                out.pop(key, None)
            else:
                out[key] = cur
            continue
        head, tail = word[:pos], word[pos + 2:]
        stack.append((head + ("b", "a") + tail, c * q))
        stack.append((head + tail, c))
    return out


def loop_jacobi(sc: StructureConstants) -> CheckResult:
    """Oracle for verify.jacobi: every one of the m^3 triples in index
    order, each nested bracket recomputed for each triple it enters."""
    m = len(sc.names)
    p = sc.parities

    def term(i, j, k, acc, sign):
        inner = sc.table.get((i, j), {})
        for mid, cij in inner.items():
            outer = sc.table.get((mid, k), {})
            for l, cml in outer.items():
                val = cij * cml
                accumulate(acc, l, val if sign > 0 else -val)

    for i in range(m):
        for j in range(m):
            for k in range(m):
                acc = {}
                term(i, j, k, acc, -1 if p[i] * p[k] else 1)
                term(j, k, i, acc, -1 if p[j] * p[i] else 1)
                term(k, i, j, acc, -1 if p[k] * p[j] else 1)
                if acc:
                    l = min(acc)
                    return CheckResult(
                        "jacobi", "FAIL", "",
                        "triple (%s,%s,%s): coefficient of %s is %s, not 0"
                        % (sc.names[i], sc.names[j], sc.names[k], sc.names[l], acc[l]))
    return CheckResult("jacobi", "PASS", "%d triples" % (m ** 3))


def loop_killing(sc: StructureConstants) -> list:
    """Oracle for verify.killing_form's K, the supertrace form: for each pair
    i <= j, every middle index in order, with the table looked up entry by
    entry and each diagonal index k of ad x_i ad x_j signed (-1)^(p_k);
    K[j][i] is K[i][j] times (-1)^(p_i p_j)."""
    m = len(sc.names)
    p = sc.parities
    K = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            total = 0
            for mid in range(m):
                ci = sc.table.get((i, mid), {})
                for k, cik in ci.items():
                    cj = sc.table.get((j, k), {})
                    v = cj.get(mid)
                    if v is not None:
                        total = total + (-1) ** p[k] * cik * v
            K[i][j] = total
            K[j][i] = (-1) ** (p[i] * p[j]) * total
    return K


def _column(g):
    """key -> g's image of the basis state key."""
    return lambda key: g.apply({key: 1})


def dense_closure(rep, cutoff=None):
    """Oracle for verify.closure: every bracket of the m(m+1)/2 pairs i <= j
    summed on every probe state from both products' images of basis states
    (apply({state: 1})), empty ones included.  An extended rep is probed on
    the matrix path's range; a polynomial rep, which verify decides in
    normal form, up to the combined lowering degree of a generator pair,
    where vanishing on every probe state is an exact identity."""
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
    span = EchelonSpan()
    dependent = []
    for name, g in zip(names, gens):
        vec = {(idx, key): c for idx, state in enumerate(states)
               for key, c in g.apply({state: 1}).items()}
        if not span.insert(vec):
            dependent.append(name)
    table = {}
    m = len(gens)
    for i in range(m):
        col_i = _column(gens[i])
        for j in range(i, m):
            col_j = _column(gens[j])
            anti = parities[i] == 1 and parities[j] == 1
            vec = {}
            for idx, state in enumerate(states):
                for key, d in col_j(state).items():
                    for out, c in col_i(key).items():
                        accumulate(vec, (idx, out), c * d)
                for key, d in col_i(state).items():
                    if not anti:
                        d = -d
                    for out, c in col_j(key).items():
                        accumulate(vec, (idx, out), c * d)
            coeffs, residual = span.express(vec)
            if coeffs is None:
                key = min(residual)
                witness = ("%s on state %s leaves the span"
                           % (_bracket_name(names[i], names[j], anti),
                              _state_str(*states[key[0]], rep.modes)))
                return None, CheckResult("closure", "FAIL", "probe degree %d" % probe, witness)
            table[(i, j)] = coeffs
            if i != j:
                table[(j, i)] = dict(coeffs) if anti else {k: -v for k, v in coeffs.items()}
    sc = StructureConstants(names, parities, table, span.dim, dependent)
    detail = "span dimension %d over %d generators, probe degree %d" % (span.dim, m, probe)
    if dependent:
        detail += "; dependent: %s" % ", ".join(dependent)
    return sc, CheckResult("closure", "PASS", detail)


def perturbed(sc: StructureConstants, i: int, j: int, k: int, delta=1) -> StructureConstants:
    """A copy of sc with c_{ij}^k shifted by delta: a corrupted table for the
    negative controls."""
    table = {key: dict(val) for key, val in sc.table.items()}
    entry = table.setdefault((i, j), {})
    entry[k] = entry.get(k, 0) + delta
    return StructureConstants(sc.names, sc.parities, table, sc.span_dim, sc.dependent)


def verify_constants(rep, sc: StructureConstants) -> CheckResult:
    """Re-verify a structure-constant table of a polynomial rep: every
    bracket, formed from swap_multiply products rather than weyl.bracket,
    must equal its claimed combination of the generators.  A corrupted
    entry FAILs with the offending pair and the exact residual."""
    gens = [rep.generator(name).as_weyl() for name in sc.names]
    for (i, j), coeffs in sc.table.items():
        anti = sc.parities[i] == 1 and sc.parities[j] == 1
        xy, yx = swap_multiply(gens[i], gens[j]), swap_multiply(gens[j], gens[i])
        residual = xy + yx if anti else xy - yx
        for k, c in coeffs.items():
            residual = residual - gens[k].scale(c)
        if not residual.is_zero():
            return CheckResult("constants", "FAIL", "",
                               "%s != claimed combination; residual %s"
                               % (_bracket_name(sc.names[i], sc.names[j], anti), residual))
    return CheckResult("constants", "PASS", "%d brackets" % len(sc.table))


def space_charpoly(rep, name: str) -> list:
    """sympy's characteristic polynomial, coefficients from the leading one
    down, of one generator on the claimed invariant space, read from its
    columns there (RepSpec.space_columns)."""
    import sympy

    keys, cols, escape = rep.space_columns(name)
    assert not escape, escape
    mat = sympy.zeros(len(keys), len(keys))
    for j, col in enumerate(cols):
        for i, c in col.items():
            mat[i, j] = to_sympy(c)
    return mat.charpoly().all_coeffs()


def to_sympy(x):
    """An engine coefficient (int, Rational or Scalar a + b sqrt2) as a
    sympy number."""
    import sympy

    if isinstance(x, Scalar):
        return to_sympy(x.rat) + to_sympy(x.irr) * sympy.sqrt(2)
    return sympy.Rational(int(x.numerator), int(x.denominator))


# -- probe oracles: relations, [C,g] and alt forms decided state by state -----------


def fold_words(rep, terms):
    """Oracle for RepSpec.word_expr: each word multiplied out factor by
    factor from rep.generator, scaled, and the parts added, with no memo."""
    parts = []
    for coeff, names in terms:
        factor = identity_op(rep.modes) if not names else None
        for g in names:
            factor = rep.generator(g) if factor is None else factor * rep.generator(g)
        parts.append(factor.scale(coeff))
    if not parts:
        return Poly(WeylElement.zero(rep.modes))
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total


def probe_relations(rep, cutoff=None) -> list:
    """Oracle for verify.check_relations: each relation's sides built by
    fold_words and compared by check_identity."""
    if cutoff is None:
        cutoff = rep.default_cutoff
    cutoff = max(cutoff, 3 + 2 * rep.max_generator_raise())
    grouped = {}
    for rel in rep.relations:
        grouped.setdefault(rel.line or rel.name, []).append(rel)
    results = []
    for label, rels in grouped.items():
        failures = []
        for rel in rels:
            report = check_identity(fold_words(rep, rel.lhs), fold_words(rep, rel.rhs), cutoff)
            if not report.equal:
                failures.append("%s: %s" % (rel.name, report.describe(rep.modes)))
        results.append(CheckResult("relation %s" % label, "FAIL" if failures else "PASS",
                                   "; ".join(rel.name for rel in rels), "; ".join(failures)))
    return results


def probe_casimir_commutes(rep, cutoff=None) -> CheckResult:
    """Oracle for verify.casimir_check's casimir_commutes: C g against g C
    on every probe state, for each generator g, the cutoff floored as
    probe_relations floors it."""
    cutoff = rep.default_cutoff if cutoff is None else cutoff
    cutoff = max(cutoff, 3 + 2 * rep.max_generator_raise())
    expr = fold_words(rep, rep.casimir.terms)
    failures = []
    for name, g in rep.generators.items():
        report = check_identity(expr * g, g * expr, cutoff)
        if not report.equal:
            failures.append("[C,%s]: %s" % (name, report.describe(rep.modes)))
    return CheckResult("casimir_commutes", "FAIL" if failures else "PASS",
                       "against %d generators" % len(rep.generators), "; ".join(failures))


def probe_alt_forms(rep, cutoff=6) -> list:
    """Oracle for verify.check_alt_forms: every alt form probed."""
    out = []
    for alt in rep.alt_forms:
        report = check_identity(rep.generator(alt.generator), alt.expr, cutoff)
        out.append(AltFormResult(alt.generator, "MATCH" if report.equal else "DIFFERS",
                                 "" if report.equal else report.describe(rep.modes)))
    return out


# -- the differential oracle: a normal form relabeled leaf by leaf -------------------


def clifford_matmul(x: dict, y: dict) -> dict:
    """The product of two spinor-space matrices given as {(row, col): v}."""
    out = {}
    for (i, k), v in x.items():
        for (k2, j), w in y.items():
            if k == k2:
                accumulate(out, (i, j), v * w)
    return out


def clifford_identity(r: int) -> dict:
    return {(s, s): 1 for s in range(1 << r)}


def weyl_to_differential(w: WeylElement) -> OperatorExpr:
    """Oracle for realize_generators(rep, "differential"): each monomial
    b^p a^q th^s dth^t of w relabeled as x^p (d/dx)^q times the Pauli
    product of th^s dth^t, scaled, and the monomials summed."""
    modes = w.modes
    r = modes.fermionic
    cliff = CliffordMatrices(r)
    parts = []
    for (bp, ap, th, dth), c in w.sorted_terms():
        factors = []
        for i, k in enumerate(bp):
            factors.extend([MultX(modes, i + 1)] * k)
        for i, k in enumerate(ap):
            factors.extend([Partial(modes, i + 1)] * k)
        if th or dth:
            mat = clifford_identity(r)
            for j in _mask_to_list(th):
                mat = clifford_matmul(mat, cliff.b_f[j - 1])
            for j in _mask_to_list(dth):
                mat = clifford_matmul(mat, cliff.a_f[j - 1])
            factors.append(Cliff(modes, mat))
        parts.append(Scale(c, Product(factors) if factors else identity_op(modes)))
    return Sum(parts) if parts else Poly(WeylElement.zero(modes))


def walk_cross_check(rep, kind, deltas=None) -> list:
    """realize.cross_check(rep, kind) with every generator decided by the
    state walk alone (realize._difference), which cross_check falls back to
    where the kit theorem does not decide a generator.  With per-mode steps
    deltas, the fd check at those steps in place of the family record's:
    the family's formula over fd_kit and over the shift kit, both at
    deltas."""
    if deltas is None:
        realized, abstract = realize_generators(rep, kind), abstract_counterpart(rep, kind)
    else:
        formula = FAMILIES[rep.rep_id].formula
        deltas = tuple(deltas)  # a kit is memoised on its steps
        realized = formula(fd_kit(rep.modes, deltas), rep.params)
        abstract = formula(fock_kit(rep.modes, deltas), rep.params)
    cutoff = rep.default_cutoff
    passed = "dim %d, cutoff %d" % (len(basis_states(rep.modes, cutoff)), cutoff)
    results = []
    for name, op in realized.items():
        diff = _difference(op, abstract[name], cutoff)
        results.append(CheckResult("cross %s %s" % (kind, name), "FAIL" if diff else "PASS",
                                   "" if diff else passed, diff))
    return results


# -- the paper's displayed fd q-pair, read by criterion 8 and test_realize ----------


def q_pair_fd(q, delta):
    """The displayed transformed q-pair in finite-difference form:
    atil = (x + d)^{-1} (1 + d D+) (q^{x D-} - 1)/(q - 1), btil = x(1 - d D-)."""
    modes = ModeSystem(1, 0)
    d = rat(delta)
    a, btil = fd_pair(modes, 1, d)
    atil = (LeftDivB(modes, 1, d) * (a.scale(d) + identity_op(modes))
            * q_number_op(modes, 1, q, delta))
    return atil, btil


# -- the coefficient oracle: every number a Scalar ----------------------------------


_RATIONAL = type(Rational(0))


def _part(x):
    """x as an int when it is integral, else as a reduced Rational."""
    if type(x) is int:
        return x
    if type(x) is not _RATIONAL:
        if isinstance(x, float):
            raise TypeError("a float is not an exact number: %r" % (x,))
        x = Rational(x)
    return int(x.numerator) if x.denominator == 1 else x


class OracleScalar:
    """a + b*sqrt(2) with both parts held and every operand coerced to it."""

    __slots__ = ("rat", "irr")

    def __init__(self, rat_part=0, irr_part=0):
        self.rat = _part(rat_part)
        self.irr = _part(irr_part)

    _COERCIBLE = (int, _RATIONAL)

    def _coerce(self, other):
        if isinstance(other, OracleScalar):
            return other
        if isinstance(other, self._COERCIBLE):
            return OracleScalar(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return OracleScalar(self.rat + other.rat, self.irr + other.irr)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return OracleScalar(self.rat - other.rat, self.irr - other.irr)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return OracleScalar(-self.rat, -self.irr)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.rat, self.irr, other.rat, other.irr
        return OracleScalar(a * c + 2 * b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self):
        a, b = self.rat, self.irr
        if not a and not b:
            raise ZeroDivisionError("division by zero")
        norm = Rational(a * a - 2 * b * b)
        return OracleScalar(a / norm, -b / norm)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = OracleScalar(1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.rat == other.rat and self.irr == other.irr

    def __hash__(self):
        return hash((self.rat, self.irr))

    def __repr__(self):
        return "OracleScalar(%s)" % self

    def __str__(self):
        if not self.irr:
            return str(self.rat)
        irr_str = "sqrt2" if self.irr == 1 else ("-sqrt2" if self.irr == -1 else "%s*sqrt2" % self.irr)
        if not self.rat:
            return irr_str
        sep = "+" if not irr_str.startswith("-") else ""
        return "%s%s%s" % (self.rat, sep, irr_str)

    def to_decimal(self, digits: int = 12) -> str:
        scale = 10 ** digits
        num = self.rat * scale * scale + self.irr * isqrt(2 * scale * scale * scale * scale)
        return "%.*f" % (digits, int(num) / scale / scale)

    def to_json(self):
        out = {"r": str(self.rat)}
        if self.irr:
            out["s2"] = str(self.irr)
        return out
