"""The representation catalogue.

Each family is one record, a Family in FAMILIES: its parameter signature
and checks, its mode system, its one generator formula written over a Kit
of that system's pairs, the kit the catalogue builds it over, the steps of
its finite-difference realization where it has one, and its claims as
functions of the parameters: the relation table, parities, Casimir,
invariant space, irreducibility, alt forms and probe cutoff.  build reads
the record, and so does realize, which calls the same formula over its own
pairs.  Nine families' formula is one map: each gives its generators as
rows of gl(k+1|r), and jordan_schwinger forms them over the kit.  A node
is shared where it is made: a Kit stores each pair node, and
jordan_schwinger the T0 several generators contain, through fock.shared;
one kit per key is made for the process.  A translated family is its
formula over the transformed canonical pair

    ahat = (e^{d a} - 1)/d ,   bhat = b e^{-d a}

which is canonical, so the algebra relations hold by construction.  That
is what the report uses: shift_pair marks the pair with a and b, Kit.preimages
reads a formula over a kit's own marked nodes back to its polynomial, and a
translated rep's relations, [C,g] and closure are decided over its
generators' preimages in normal form (verify.check_relations,
verify.casimir_check, verify.closure).  sl2q's mode system is one q-mode
(weyl.ModeSystem with its q), so at delta = 0 it is a polynomial family,
and at delta != 0 its q-pair (q_kit) is marked and read back the same way.
A family that takes n also has a shape per value of its other parameters
(family_shape): its formula with n a spectator mode, whose closure table
verify.closure forms once for every n.  The explicitly displayed closed
forms are attached as alt_forms: checkable claims whose mismatches are
reported, never patched into the generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import comb

from .fock import (Compiled, ExpA, LeftDivB, OperatorExpr, Poly, Product, Scale, Sum,
                   _state_str, basis_states, identity_op, preimages, shared)
from .qheis import q_alpha_hat, q_number, q_number_op, q_pair
from .scalars import SQRT2, Rational, inverse, rat
from .weyl import ModeSystem, WeylElement, accumulate, bracket


class CatalogueError(ValueError):
    pass


# -- data shapes ------------------------------------------------------------


@dataclass
class RelationClaim:
    """lhs = rhs where both sides are weighted words in generator names."""

    name: str
    lhs: list  # [(coefficient, (gen, ...))]; () is the identity
    rhs: list
    line: str = ""


@dataclass
class CasimirSpec:
    """A central element with the value the catalogue claims for it.

    The verifier measures the actual scalar exactly; a claimed/measured
    mismatch is reported as a catalogue discrepancy, never patched.
    """

    terms: list  # [(coefficient, (gen, ...))]
    claimed: object  # a coefficient
    name: str = "C2"


@dataclass
class InvariantSpace:
    """The states whose weighted bosonic degree plus fermionic degree is at
    most max_degree.  Weights are nonnegative, so the space is closed
    downward in each exponent."""

    weights: tuple  # per bosonic mode
    max_degree: int
    expected_dim: int
    description: str

    def __post_init__(self):
        if min(self.weights, default=0) < 0:
            raise CatalogueError("negative weight in %s" % (self.weights,))

    def basis(self, modes: ModeSystem):
        return [(alpha, beta) for alpha, beta in basis_states(modes, self.max_degree)
                if sum(w * k for w, k in zip(self.weights, alpha)) + beta.bit_count()
                <= self.max_degree]


@dataclass
class Claims:
    closes: bool = True
    irreducible: bool = None  # True / False / None (no claim)


@dataclass
class AltForm:
    """A secondary closed-form expression for one generator."""

    generator: str
    expr: OperatorExpr


@dataclass
class RepSpec:
    """A catalogued representation; every check probes at its
    default_cutoff.  It memoises what several checks share in one table
    (memo), under keys that cannot collide: each generator bracket under
    (x, y, anti), each word sum under its (coefficient, word) pairs and each
    nonempty prefix product of its words under the word, the invariant-space
    columns under RepSpec.space_columns and a check's result under the
    check.  A replace() copy starts it empty.  Each generator is stored
    shared (fock.shared), as a Kit stores its pairs: a polynomial as its
    Poly, anything else as one Compiled node, which every replace() copy
    and every report of the rep holds.  Generators are replaced, never
    changed in place.  A generator built over a Kit also holds the kit's
    shared pair and intermediate nodes; their exact column caches, and the
    generators' own, belong to the nodes, not to a report, so every copy
    and report reads and extends the same ones, and every rep over the
    same kit the same pair columns."""

    rep_id: str
    params: dict
    generators: dict  # name -> OperatorExpr, insertion order is canonical
    relations: list = field(default_factory=list)
    parities: dict = None  # name -> 0 | 1; all even when not given
    casimir: CasimirSpec = None
    invariant_space: InvariantSpace = None
    claims: Claims = field(default_factory=Claims)
    alt_forms: list = field(default_factory=list)
    default_cutoff: int = None  # invariant-space degree + 2, else 8
    modes: ModeSystem = field(init=False)  # the generators' mode system
    _memos: dict = field(init=False, repr=False, compare=False)  # key -> make()
    _polynomial: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.generators = {name: shared(g) for name, g in self.generators.items()}
        self.modes = next(iter(self.generators.values())).modes
        if self.parities is None:
            self.parities = {name: 0 for name in self.generators}
        if self.default_cutoff is None:
            inv = self.invariant_space
            self.default_cutoff = inv.max_degree + 2 if inv else 8
        self._memos = {}
        self._polynomial = all(g.as_weyl() is not None for g in self.generators.values())

    def generator(self, name: str) -> OperatorExpr:
        try:
            return self.generators[name]
        except KeyError:
            raise CatalogueError("unknown generator %r; have %s"
                                 % (name, ", ".join(self.generators)))

    def _product(self, word: tuple) -> WeylElement:
        """The normal form of a generator word, a tuple of names; formed
        once, one multiplication onto its stored prefix, and kept.  The empty
        word is the identity, not kept: () keys the empty word sum."""
        if not word:
            return WeylElement.one(self.modes)
        product = self._memos.get(word)
        if product is None:
            if len(word) == 1:
                product = self.generator(word[0]).as_weyl()
            else:
                product = self._product(word[:-1]) * self.generator(word[-1]).as_weyl()
            self._memos[word] = product
        return product

    def memo(self, key, make):
        """make(), called once per key on this copy and kept."""
        if key not in self._memos:
            self._memos[key] = make()
        return self._memos[key]

    def bracket(self, x: str, y: str, anti: bool) -> WeylElement:
        """{x, y} when anti, else [x, y], of the generators named x and y:
        formed once by weyl.bracket and kept under the unordered pair, so
        [y, x] is read as the stored [x, y] negated."""
        swapped = (y, x, anti) in self._memos
        key = (y, x, anti) if swapped else (x, y, anti)
        b = self._memos.get(key)
        if b is None:
            b = self._memos[key] = bracket(self.generator(x).as_weyl(),
                                           self.generator(y).as_weyl(), anti)
        return -b if swapped and not anti else b

    def word_sum(self, terms) -> WeylElement:
        """The normal form of a weighted sum of generator words, formed once
        per sum; polynomial reps only.  Adjacent terms c x y and c y x are
        read as c {x, y}, and c x y and -c y x as c [x, y], from the bracket
        memo; every other word is its prefix product."""
        terms = tuple((c, tuple(word)) for c, word in terms)
        return self.memo(terms, lambda: self._word_sum(terms))

    def _word_sum(self, terms) -> WeylElement:
        out = {}
        for coeff, word, anti in read_words(terms):
            part = self._product(word) if anti is None else self.bracket(*word, anti)
            for mono, c in part.terms.items():
                accumulate(out, mono, c * coeff)
        return WeylElement(self.modes, out)

    def word_expr(self, terms) -> OperatorExpr:
        """Operator for a weighted sum of generator words: on a polynomial
        rep the Poly of word_sum, else a tree over the generators."""
        if self.is_polynomial():
            return Poly(self.word_sum(terms))
        parts = []
        for coeff, names in terms:
            factor = identity_op(self.modes) if not names else None
            for g in names:
                factor = self.generator(g) if factor is None else factor * self.generator(g)
            parts.append(factor.scale(coeff))
        if not parts:
            return Poly(WeylElement.zero(self.modes))
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        return total

    def is_polynomial(self) -> bool:
        return self._polynomial

    def max_generator_raise(self) -> int:
        return max(max(0, g.max_raise()) for g in self.generators.values())

    def space_columns(self, name: str):
        """One generator on the invariant-space basis, by basis position,
        formed once.

        Returns (keys, cols, escape): keys is the space's basis, cols[j] =
        {i: c} the image of keys[j], and escape is "" or the witness for the
        first component that leaves the space, where the columns stop.
        """
        g = self.generator(name)

        def basis():  # (keys, index, {name: columns})
            keys = self.invariant_space.basis(self.modes)
            return keys, {key: i for i, key in enumerate(keys)}, {}

        keys, index, formed = self.memo(RepSpec.space_columns, basis)
        if name not in formed:
            formed[name] = self._columns_on_space(name, g, keys, index)
        cols, escape = formed[name]
        return keys, cols, escape

    def _columns_on_space(self, name, g, keys, index):
        cols = []
        for key in keys:
            col = {}
            for skey, c in g.apply({key: 1}).items():
                i = index.get(skey)
                if i is None:
                    return cols, "%s maps %s outside the space (component %s)" % (
                        name, _state_str(*key, self.modes), _state_str(*skey, self.modes))
                col[i] = c
            cols.append(col)
        return cols, ""


# -- small helpers -----------------------------------------------------------


def read_words(terms):
    """A weighted sum of generator words, (coefficient, word) pairs with
    tuple words, as RepSpec.word_sum reads it: (c, (x, y), anti) for
    adjacent terms c x y and c y x (anti, c {x, y}) or c x y and -c y x
    (not anti, c [x, y]), and (c, word, None) for every other term."""
    i = 0
    while i < len(terms):
        coeff, word = terms[i]
        c2, word2 = terms[i + 1] if i + 1 < len(terms) else (None, None)
        if len(word) == 2 and word2 == word[::-1] and c2 in (coeff, -coeff):
            yield coeff, word, c2 == coeff
            i += 2
        else:
            yield coeff, word, None
            i += 1


def comm(x: str, y: str):
    return [(1, (x, y)), (-1, (y, x))]


def acomm(x: str, y: str):
    return [(1, (x, y)), (1, (x, y))] if x == y else [(1, (x, y)), (1, (y, x))]


def gen(name: str, c=1):
    return [(c, (name,))]


def zero_rhs():
    return []


def _scaled(terms, c):
    return [(coeff * c, names) for coeff, names in terms]


def _finite(n: Rational) -> int | None:
    """n as an int when it is a nonnegative integer, the degree of a
    finite-dimensional invariant space; None otherwise."""
    return int(n) if n.denominator == 1 and n >= 0 else None


def _require_int(x: Rational, name: str) -> int:
    if x.denominator != 1:
        raise CatalogueError("parameter %s must be an integer, got %s" % (name, x))
    return int(x)


# -- generator formulas, each written over a Kit of canonical pairs -------------


def jordan_schwinger(kit, n, rows) -> dict:
    """The Jordan-Schwinger map phi_n of gl(k+1|r) over kit, one generator
    per row: a name and a sparse matrix {(I, J): coefficient} on the modes
    0..k+r, where 0 is the eliminated mode and the kit's k bosonic modes
    come before its r fermionic ones.  With c_I, d_I mode I's b, a or th,
    dth and T0 = n - sum_I c_I d_I, made once (fock.shared), phi_n sends

        E_00 to T0,  E_II to c_I d_I,  E_0J to d_J,  E_I0 to c_I T0,  E_IJ to c_I d_J,

    a row m E_IJ to m phi_n(E_IJ), and a row of more entries to its
    off-diagonal entries' images plus m_00 n + sum_I (m_II - m_00) c_I d_I,
    less the terms that vanish.  This is gl(k+1|r) on the degree-n
    polynomials in x_0..x_{k+r} at x_0 = 1 (Jordan, Z. Phys. 94, 1935;
    Perelomov, Generalized Coherent States, 1986).  A diagonal part is not
    m_00 T0 + sum m_II c_I d_I, which on a kit of non-polynomial pairs
    holds a c_I d_I - c_I d_I that never folds."""
    c, d = (None,) + kit.b + kit.th, (None,) + kit.a + kit.dth
    number = [None] + [c[i] * d[i] for i in range(1, len(c))]
    t0 = kit.one.scale(n)
    for x in number[1:]:
        t0 = t0 - x
    t0 = shared(t0)

    def unit(i, j):  # phi_n(E_ij)
        if i == j:
            return number[i] if i else t0
        return d[j] if i == 0 else c[i] * (t0 if j == 0 else d[j])

    gens = {}
    for name, matrix in rows:
        if len(matrix) == 1:
            ((i, j), m), = matrix.items()
            gens[name] = unit(i, j).scale(m)
            continue
        m00 = matrix.get((0, 0), 0)
        parts = [unit(i, j).scale(m) for (i, j), m in matrix.items() if i != j]
        parts += [kit.one.scale(m00 * n)] if m00 * n else []
        parts += [number[i].scale(matrix.get((i, i), 0) - m00)
                  for i in range(1, len(c)) if matrix.get((i, i), 0) != m00]
        gens[name] = sum(parts[1:], parts[0])
    return gens


def _label(modes) -> str:
    """A generator's index text: the mode numbers run together while each
    has one digit, else comma-separated, so (1, 11) and (11, 1) differ."""
    return ("" if max(modes, default=0) < 10 else ",").join(map(str, modes))


@cache
def gl_rows(k: int, r: int, names, first: int = 1) -> tuple:
    """gl(k+1|r)'s matrix units E_IJ as rows, in canonical order: with i, j
    bosonic and f, g fermionic modes, the blocks E_0j, E_ij, E_00, E_i0,
    E_0f, E_f0, E_fi, E_if, E_fg.  names has one str.format per block, given
    the _label of the unit's nonzero indices; bosonic mode i is numbered
    i + first - 1 and fermionic mode k + f is numbered f.  Only as many
    blocks are read as names has formats.  Formed once per process for its
    arguments, as the constant row lists are once per module; the map only
    reads a row."""
    bos, fer = range(1, k + 1), range(k + 1, k + r + 1)
    blocks = ([(0, j) for j in bos], [(i, j) for i in bos for j in bos], [(0, 0)],
              [(i, 0) for i in bos], [(0, f) for f in fer], [(f, 0) for f in fer],
              [(f, i) for f in fer for i in bos], [(i, f) for i in bos for f in fer],
              [(f, g) for f in fer for g in fer])
    return tuple((form.format(_label([i + first - 1 if i <= k else i - k for i in unit if i])),
                  {unit: 1})
                 for form, units in zip(names, blocks) for unit in units)


GL_SUPER_NAMES = ("T{}-", "T0_{}", "T0", "T{}+", "Qb{}-", "Qb{}+", "Q-_{}", "Q+_{}", "J0_{}")
GLK_NAMES = ("J{}-", "J0_{}", "J0", "J{}+")

HALF = rat(1, 2)
SL2_ROWS = [("J+", {(1, 0): -1}), ("J0", {(1, 1): HALF, (0, 0): -HALF}), ("J-", {(0, 1): 1})]
SL3_ROWS = [("J1+", {(1, 0): -1}), ("J2+", {(2, 0): -1}), ("J1-", {(0, 1): 1}),
            ("J2-", {(0, 2): 1}), ("J0_21", {(2, 1): 1}), ("J0_12", {(1, 2): 1}),
            ("J0_1", {(1, 1): 1, (2, 2): -1}),
            ("J0_2", {(1, 1): rat(1, 3), (2, 2): rat(1, 3), (0, 0): rat(-2, 3)})]
OSP22_ROWS = [("T+", {(1, 0): -1}), ("T0", {(1, 1): HALF, (0, 0): -HALF}), ("T-", {(0, 1): 1}),
              ("J", {(0, 0): -HALF, (1, 1): -HALF, (2, 2): -1}), ("Q1", {(0, 2): 1}),
              ("Q2", {(1, 2): 1}), ("Qb1", {(2, 0): -1}), ("Qb2", {(2, 1): -1})]


def _phi(rows):
    """(kit, p) -> jordan_schwinger over kit at p's n of rows(k, r), k and r
    the kit's bosonic and fermionic pairs."""
    return lambda kit, p: jordan_schwinger(kit, p["n"], rows(len(kit.a), len(kit.th)))


def metaplectic_triple(a, b):
    half = rat(1, 2)
    quarter = rat(-1, 4)
    return {
        "J+": (a * a).scale(half),
        "J0": (a * b + b * a).scale(quarter),
        "J-": (b * b).scale(half),
    }


def sl2q_triple(atil, btil, alpha: int, q: Rational, one):
    """Deformed sl2 generators over any implementation of the q-pair."""
    qa = q_number(alpha, q)
    ahat = q_alpha_hat(alpha, q)
    return {
        "J+": btil * btil * atil - btil.scale(qa),
        "J0": btil * atil - one.scale(ahat),
        "J-": atil,
    }


def _clifford(kit, p):
    th, dth = kit.th[0], kit.dth[0]
    acl = th + dth                        # squares to 1
    bcl = kit.one - (th * dth).scale(2)   # squares to 1, anticommutes with acl
    return {"J1": acl, "J2": bcl, "J3": acl * bcl}


def _vector_field(kit, p):
    (a1, a2), (b1, b2) = kit.a, kit.b
    return {"J1": b1 * a2, "J2": b2 * a1, "J3": b1 * a1 - b2 * a2}


def _sl3_seven(kit, p):
    a1, a2, a3 = kit.a
    b1, b2, b3 = kit.b
    mm, nn = rat(p["m"]), rat(p["n"])
    return {
        "J1+": (b1 * b3 - b2) * a1 - b2 * b3 * a2 - b3 * b3 * a3 + b3.scale(nn),
        "J2+": b1 * (b1 * b3 - b2) * a1 - b2 * b2 * a2 - b2 * b3 * a3
               - (b1 * b3).scale(mm) + b2.scale(nn + mm),
        "J1-": a2,
        "J2-": a3,
        "J0_32": a1 + b3 * a2,
        "J0_23": -(b1 * b1 * a1) + b2 * a3 + b1.scale(mm),
        "J0_1": -(b1 * a1) + b2 * a2 + (b3 * a3).scale(2) - nn * kit.one,
        "J0_2": (b1 * a1).scale(2) + b2 * a2 - b3 * a3 - mm * kit.one,
    }


def _gl2_ideal(p) -> list:
    """The abelian ideal C^(r+1) of gl2_semidirect, J5 .. J(5+r)."""
    return ["J%d" % (5 + k) for k in range(int(p["r"]) + 1)]


def _gl2_relations(p) -> list:
    ideal = _gl2_ideal(p)
    return [RelationClaim("[%s,%s] = 0" % (x, y), comm(x, y), zero_rhs(), "ideal")
            for i, x in enumerate(ideal) for y in ideal[i + 1:]]


def _gl2_semidirect(kit, p):
    (a1, a2), (b1, b2) = kit.a, kit.b
    r, n = int(p["r"]), p["n"]
    gens = {
        "J1": a1,
        "J2": b1 * a1 - rat(n) / 3,
        "J3": b2 * a2 - rat(n) / (3 * r),
        "J4": b1 * b1 * a1 + (b1 * b2 * a2).scale(r) - b1.scale(rat(n)),
    }
    for k, name in enumerate(_gl2_ideal(p)):
        gens[name] = (b1 ** k) * a2
    return gens


def _osp22_metaplectic(kit, p):
    a, b, th, dth = kit.a[0], kit.b[0], kit.th[0], kit.dth[0]
    inv_s2 = SQRT2.inverse()
    sl2 = metaplectic_triple(a, b)
    return {
        "T+": sl2["J+"],
        "T0": sl2["J0"],
        "T-": sl2["J-"],
        "J": kit.one.scale(rat(1, 4)) - (th * dth).scale(rat(1, 2)),
        "Q1": (b * dth).scale(-inv_s2),
        "Q2": (a * dth).scale(inv_s2),
        "Qb1": (a * th).scale(inv_s2),
        "Qb2": (b * th).scale(inv_s2),
    }


# -- relation tables and Casimirs ---------------------------------------------------


SL2_RELATIONS = [
    RelationClaim("[J0,J+] = J+", comm("J0", "J+"), gen("J+")),
    RelationClaim("[J0,J-] = -J-", comm("J0", "J-"), gen("J-", -1)),
    RelationClaim("[J+,J-] = -2J0", comm("J+", "J-"), gen("J0", -2)),
]


SL2_CASIMIR_TERMS = [(rat(1, 2), ("J+", "J-")), (rat(1, 2), ("J-", "J+")),
                     (-1, ("J0", "J0"))]


def _sl2_casimir(p) -> CasimirSpec:
    # claimed value as catalogued; the measured value is -(n/2)(n/2+1)
    nn = rat(p["n"])
    return CasimirSpec(list(SL2_CASIMIR_TERMS), -(nn / 2) * (nn / 2 + rat(1, 2)))


OSP22_RELATIONS = [
    RelationClaim("[T0,T+] = T+", comm("T0", "T+"), gen("T+"), "L01"),
    RelationClaim("[T0,T-] = -T-", comm("T0", "T-"), gen("T-", -1), "L02"),
    RelationClaim("[T+,T-] = -2T0", comm("T+", "T-"), gen("T0", -2), "L03"),
    RelationClaim("[J,T+] = 0", comm("J", "T+"), zero_rhs(), "L04"),
    RelationClaim("[J,T-] = 0", comm("J", "T-"), zero_rhs(), "L04"),
    RelationClaim("[J,T0] = 0", comm("J", "T0"), zero_rhs(), "L04"),
    RelationClaim("{Q1,Qb2} = -T-", acomm("Q1", "Qb2"), gen("T-", -1), "L05"),
    RelationClaim("{Q2,Qb1} = T+", acomm("Q2", "Qb1"), gen("T+"), "L06"),
    RelationClaim("({Qb1,Q1} + {Qb2,Q2})/2 = J",
                  _scaled(acomm("Qb1", "Q1") + acomm("Qb2", "Q2"), rat(1, 2)),
                  gen("J"), "L07"),
    RelationClaim("({Qb1,Q1} - {Qb2,Q2})/2 = T0",
                  _scaled(acomm("Qb1", "Q1") + _scaled(acomm("Qb2", "Q2"), -1), rat(1, 2)),
                  gen("T0"), "L08"),
    RelationClaim("{Q1,Q1} = 0", acomm("Q1", "Q1"), zero_rhs(), "L09"),
    RelationClaim("{Q2,Q2} = 0", acomm("Q2", "Q2"), zero_rhs(), "L09"),
    RelationClaim("{Q1,Q2} = 0", acomm("Q1", "Q2"), zero_rhs(), "L09"),
    RelationClaim("{Qb1,Qb1} = 0", acomm("Qb1", "Qb1"), zero_rhs(), "L10"),
    RelationClaim("{Qb2,Qb2} = 0", acomm("Qb2", "Qb2"), zero_rhs(), "L10"),
    RelationClaim("{Qb1,Qb2} = 0", acomm("Qb1", "Qb2"), zero_rhs(), "L10"),
    RelationClaim("[Q1,T+] = Q2", comm("Q1", "T+"), gen("Q2"), "L11"),
    RelationClaim("[Q2,T+] = 0", comm("Q2", "T+"), zero_rhs(), "L11"),
    RelationClaim("[Q1,T-] = 0", comm("Q1", "T-"), zero_rhs(), "L12"),
    RelationClaim("[Q2,T-] = -Q1", comm("Q2", "T-"), gen("Q1", -1), "L12"),
    RelationClaim("[Qb1,T+] = 0", comm("Qb1", "T+"), zero_rhs(), "L13"),
    RelationClaim("[Qb2,T+] = -Qb1", comm("Qb2", "T+"), gen("Qb1", -1), "L13"),
    RelationClaim("[Qb1,T-] = Qb2", comm("Qb1", "T-"), gen("Qb2"), "L14"),
    RelationClaim("[Qb2,T-] = 0", comm("Qb2", "T-"), zero_rhs(), "L14"),
    RelationClaim("[Q1,T0] = Q1/2", comm("Q1", "T0"), gen("Q1", rat(1, 2)), "L15"),
    RelationClaim("[Q2,T0] = -Q2/2", comm("Q2", "T0"), gen("Q2", rat(-1, 2)), "L15"),
    RelationClaim("[Qb1,T0] = -Qb1/2", comm("Qb1", "T0"), gen("Qb1", rat(-1, 2)), "L15"),
    RelationClaim("[Qb2,T0] = Qb2/2", comm("Qb2", "T0"), gen("Qb2", rat(1, 2)), "L15"),
    RelationClaim("[Q1,J] = -Q1/2", comm("Q1", "J"), gen("Q1", rat(-1, 2)), "L16"),
    RelationClaim("[Q2,J] = -Q2/2", comm("Q2", "J"), gen("Q2", rat(-1, 2)), "L16"),
    RelationClaim("[Qb1,J] = Qb1/2", comm("Qb1", "J"), gen("Qb1", rat(1, 2)), "L16"),
    RelationClaim("[Qb2,J] = Qb2/2", comm("Qb2", "J"), gen("Qb2", rat(1, 2)), "L16"),
]

OSP22_PARITIES = {"T+": 0, "T0": 0, "T-": 0, "J": 0,
                  "Q1": 1, "Q2": 1, "Qb1": 1, "Qb2": 1}


def _sl2q_relations(p) -> list:
    # relation table after the rational rescaling (j+ = J+, j- = q^-alpha J-,
    # j0 = c0 J0); the freedom j± -> c^{±1} j± makes this equivalent to the
    # half-power normalization
    al, q = int(p["alpha"]), p["q"]
    c0 = (q ** (-al) / (q + 1)) * (q_number(2 * al + 2, q) / q_number(al + 1, q))
    return [
        RelationClaim("j0 j+ - q j+ j0 = j+",
                      [(c0, ("J0", "J+")), (-(q * c0), ("J+", "J0"))],
                      gen("J+"), "q1"),
        RelationClaim("q^2 j+ j- - j- j+ = -(q+1) j0",
                      [(q ** (2 - al), ("J+", "J-")), (-(q ** (-al)), ("J-", "J+"))],
                      [(-(q + 1) * c0, ("J0",))], "q2"),
        RelationClaim("q j0 j- - j- j0 = -j-",
                      [(q * c0, ("J0", "J-")), (-c0, ("J-", "J0"))],
                      gen("J-", -1), "q3"),
    ]


def _sl2q_casimir(p) -> CasimirSpec:
    al, q = int(p["alpha"]), p["q"]
    ahat = q_alpha_hat(al, q)
    return CasimirSpec(
        [(q, ("J+", "J-")), (-1, ("J0", "J0")),
         (q_number(al + 1, q) - 2 * ahat, ("J0",))],
        ahat * (ahat - q_number(al + 1, q)),
        name="q-C2")


# -- kits: the pairs a formula is evaluated over ---------------------------------


def shift_pair(modes: ModeSystem, mode: int, delta: Rational):
    """(ahat, bhat) = ((e^{d a}-1)/d, b e^{-d a}) for one bosonic mode,
    marked (fock.OperatorExpr.marked) with a and b of that mode.

    The pair is canonical.  e^{g a} b = (b + g) e^{g a}, so
    [e^{g a}, b] = g e^{g a}; and ahat and e^{-d a} are both series in a,
    so they commute.  Hence
        [ahat, bhat] = [ahat, b] e^{-d a} = (1/d) d e^{d a} e^{-d a} = 1,
    ahat kills |0>, and the pair commutes with the other modes' pairs and
    with the fermions, as each of its nodes acts on its own mode only.  So
    a -> ahat, b -> bhat, fermions and scalars kept, is an algebra map
    (Roman, The Umbral Calculus, 1984: ahat is the delta operator of the
    d-falling factorials), and an identity among polynomials in a, b holds
    for the same polynomials in ahat, bhat on the whole Fock space.
    Kit.preimages reads a formula over the kit's pairs back to its
    polynomial through these marks.
    """
    delta = rat(delta)
    if delta == 0:
        raise CatalogueError("delta = 0 degenerates the shift transform")
    ahat = Scale(inverse(delta),
                 Sum([ExpA(modes, mode, delta), Scale(-1, identity_op(modes))]))
    bhat = Product([Poly(WeylElement.b(modes, mode)), ExpA(modes, mode, -delta)])
    ahat.marked, bhat.marked = WeylElement.a(modes, mode), WeylElement.b(modes, mode)
    return ahat, bhat


@dataclass(frozen=True)
class Kit:
    """One implementation of the pairs a family formula is written in, those
    of its mode system (canonical, or a q-mode's): a[i], b[i] per bosonic
    mode, th[j], dth[j] per fermionic mode, and the identity.

    Each a[i] and b[i] is stored shared (fock.shared): a polynomial as it
    is, so polynomials still fold, and any other pair node Compiled, so
    every generator of a formula over the kit forms that node's image of a
    basis state once.  Each kit constructor (fock_kit, q_kit and realize's
    kits) is a process-wide memo keyed by what its pairs depend on, so one
    kit per key lives for the process and every rep, realization and report
    over it reads and extends the same cached columns: a pair node's image
    of a basis state depends on its mode and step alone.  A kit is frozen
    and holds tuples, so no formula can change what the others hold."""

    a: tuple
    b: tuple
    th: tuple
    dth: tuple
    one: object

    def __post_init__(self):
        put = object.__setattr__  # the fields are frozen
        put(self, "a", tuple(map(shared, self.a)))
        put(self, "b", tuple(map(shared, self.b)))
        put(self, "th", tuple(self.th))
        put(self, "dth", tuple(self.dth))

    def nodes(self) -> list:
        """The a, b, th and dth nodes in that order, each bare of its Compiled."""
        return [x.inner if isinstance(x, Compiled) else x
                for x in self.a + self.b + self.th + self.dth]

    def preimages(self, ops) -> list:
        """Each op read back through the marks (fock.preimages), where only
        this kit's own pair nodes (nodes) read as their marks: its
        polynomial, or None where its tree holds any other marked node or a
        node with no preimage.  A kit's marked nodes obey the relations of
        their marks (shift_pair's lemma for the shift kit, _q_kit's for the
        q-pair; for realize's function kits, the lemma in
        realize.cross_check that each node is in closed form the Fock,
        shift or q-mode Fock kit's node in its place), so this is an
        algebra map on a formula over the kit; a marked node made anywhere
        else, such as a pair at a wrong step, is not read."""
        return preimages(ops, {id(x) for x in self.nodes()})


@cache
def fock_kit(modes: ModeSystem, deltas: tuple = None) -> Kit:
    """The Fock pairs of `modes`; with per-mode `deltas`, the bosonic pairs
    are the shift-transformed ones.  One kit per (modes, deltas) per
    process."""
    if deltas is None:
        pairs = [(Poly(WeylElement.a(modes, i)), Poly(WeylElement.b(modes, i)))
                 for i in range(1, modes.bosonic + 1)]
    else:
        pairs = [shift_pair(modes, i + 1, deltas[i]) for i in range(modes.bosonic)]
    fermi = range(1, modes.fermionic + 1)
    return Kit([a for a, _ in pairs], [b for _, b in pairs],
               [Poly(WeylElement.theta(modes, j)) for j in fermi],
               [Poly(WeylElement.dtheta(modes, j)) for j in fermi],
               identity_op(modes))


def _fock_pairs(modes, p) -> Kit:
    return fock_kit(modes)


def _steps(*names):
    """(modes, p) -> the per-mode steps given by the named parameters."""
    return lambda modes, p: tuple(p[name] for name in names)


def _unit_steps(modes, p) -> tuple:
    return (rat(1),) * modes.bosonic


def _shifted(steps):
    """(modes, p) -> the shift-transformed Fock pairs at the given steps."""
    return lambda modes, p: fock_kit(modes, steps(modes, p))


def q_kit(modes, p) -> Kit:
    """sl2q's pair over its q-mode system (weyl.ModeSystem with q): the
    Fock pair at delta = 0, or where p has no delta, else the q-pair at
    p's delta (_q_kit)."""
    delta = p.get("delta", 0)
    return _q_kit(modes, delta) if delta else fock_kit(modes)


@cache
def _q_kit(modes, delta) -> Kit:
    """The q-pair (atil, btil) = qheis.q_pair at delta and the q-mode's q,
    marked (fock.OperatorExpr.marked) with the q-mode's a and b; one kit
    per (modes, delta) per process.

    On the delta-falling factorials bhat^k|0> = b(b - d)...(b - (k-1)d)|0>
    (shift_pair's bhat^k|0>), QSpectral multiplies by q^k, so {N}_q by
    [k]_q = (1 - q^k)/(1 - q); LeftDivB strips the leading b and e^{d a}
    shifts b to b + d, so atil bhat^k|0> = [k]_q bhat^(k-1)|0>; and e^{-d a}
    shifts b to b - d before b multiplies, so btil bhat^k|0> =
    bhat^(k+1)|0>.  That is how the q-mode's a and b act on b^k|0>
    (weyl.act).  So with S b^k|0> = bhat^k|0>, linear and unit-triangular,
    atil = S a S^-1 and btil = S b S^-1 on the whole Fock space: the pair
    obeys atil btil - q btil atil = 1, atil kills |0>, and a -> atil,
    b -> btil is an algebra map from the q-Weyl algebra, faithful as the
    q-mode's own Fock module is (weyl.ModeSystem).  An identity among
    polynomials in a, b holds for the same polynomials in atil, btil, and
    Kit.preimages reads a formula over the kit back to its polynomial
    through these marks (Macfarlane, J. Phys. A 22, 1989)."""
    atil, btil = q_pair(modes, 1, modes.q, delta)
    atil.marked, btil.marked = WeylElement.a(modes), WeylElement.b(modes)
    return Kit([atil], [btil], [], [], identity_op(modes))


# -- displayed closed forms -------------------------------------------------------------


def _shifted_sl2_forms(modes, d, n, thdth):
    """The displayed closed forms of the shift-transformed sl2 triple,
    (b/d - 1) b e^{-da} (1 - n + thdth - e^{-da}),
    (b/d)(1 - e^{-da}) + thdth/2 - n/2 and (e^{da} - 1)/d; thdth is
    osp22's th dth, and zero for sl2."""
    b = Poly(WeylElement.b(modes))
    one = identity_op(modes)
    eminus = ExpA(modes, 1, -d)
    half = rat(1, 2)
    return (Product([b * b.scale(inverse(d)) - b, eminus,
                     Sum([one.scale(1 - n) + thdth, Scale(-1, eminus)])]),
            Sum([Product([b.scale(inverse(d)), Sum([one, Scale(-1, eminus)])]),
                 thdth.scale(half) - one.scale(n * half)]),
            Scale(inverse(d), Sum([ExpA(modes, 1, d), Scale(-1, one)])))


def _sl2_translated_forms(modes, p) -> list:
    forms = _shifted_sl2_forms(modes, p["delta"], p["n"], Poly(WeylElement.zero(modes)))
    return [AltForm(name, f) for name, f in zip(("J+", "J0", "J-"), forms)]


def _oscillator_forms(modes, p) -> list:
    # Normative: the oscillator pair is itself canonical, so after rewriting
    # in that pair the generators act on the standard Fock space as the base
    # triple.  The displayed cubic forms are recorded in the original pair,
    # here expressed through the inverse rewriting a -> (a-b)/s2, b -> (a+b)/s2.
    n = p["n"]
    inv_s2 = SQRT2.inverse()
    A, B = WeylElement.a(modes), WeylElement.b(modes)
    aa = (A - B).scale(inv_s2)  # original lowering operator
    bb = (A + B).scale(inv_s2)  # original raising operator
    two_n1 = 2 * rat(n) + 1
    disp_jp = Poly((bb ** 3 + aa ** 3 - bb * (bb + aa) * aa
                    - (bb - aa).scale(two_n1) - bb.scale(2)).scale(inv_s2 ** 3))
    disp_j0 = Poly((bb ** 2 - aa ** 2 - WeylElement.scalar(modes, rat(n) + 1))
                   .scale(rat(1, 2)))
    disp_jm = Poly((bb + aa).scale(inv_s2))
    return [AltForm("J+", disp_jp), AltForm("J0", disp_j0), AltForm("J-", disp_jm)]


def _osp22_translated_forms(modes, p) -> list:
    d, n = p["delta"], p["n"]
    half = rat(1, 2)
    b = Poly(WeylElement.b(modes))
    th, dth = Poly(WeylElement.theta(modes, 1)), Poly(WeylElement.dtheta(modes, 1))
    one = identity_op(modes)
    thdth = th * dth
    eminus = ExpA(modes, 1, -d)
    eplus = ExpA(modes, 1, d)
    disp = dict(zip(("T+", "T0", "T-"), _shifted_sl2_forms(modes, d, n, thdth)))
    disp.update({
        "J": one.scale(-half) - thdth.scale(half),
        "Q1": dth,
        "Q2": Product([b, eminus, dth]),
        "Qb1": Scale(inverse(d),
                     Sum([b * th - th.scale(n),
                          Scale(-1, Product([b * th, eminus]))])),
        "Qb2": Scale(inverse(d), Sum([th, Scale(-1, Product([th, eplus]))])),
    })
    return [AltForm(name, expr) for name, expr in disp.items()]


def _sl2q_forms(modes, p) -> list:
    # the displayed transformed lowering operator carries a 1/(b+delta)
    # prefactor; equal to the normative one via (b+d)^-1 e^{da} = e^{da} b^-1
    delta = p.get("delta", 0)
    if delta == 0:
        return []
    return [AltForm("J-", Product([LeftDivB(modes, 1, delta), ExpA(modes, 1, delta),
                                   q_number_op(modes, 1, p["q"], delta)]))]


# -- parameter checks and invariant spaces ----------------------------------------------


def _require(ok: bool, message: str):
    if not ok:
        raise CatalogueError(message)


def _check_sl2q(p):
    _require(p["q"] != 1, "q = 1 not allowed (undeformed case)")
    _require(p["q"] > 0, "q must be a positive rational != 1")
    _require(_require_int(p["alpha"], "alpha") != -1, "alpha = -1 makes {2 alpha + 2} vanish")


def _gl2_space(d, modes, p):
    r = int(p["r"])
    return ((1, r), sum(1 for n2 in range(d // r + 1) for n1 in range(d - r * n2 + 1)),
            "span(b1^n1 b2^n2 : n1 + r n2 <= n)")


def _gl2_cutoff(p):
    d = _finite(p["n"])
    return None if d is None else d + 2 * int(p["r"])


def _sym(description):
    """(degree d, modes, p) -> the states of total degree <= d over modes, k
    bosonic and r fermionic: Sym^d of C^(k+1|r) under the Jordan-Schwinger
    map, of dimension sum_f C(r, f) C(d - f + k, k)."""
    def space(d, modes, p):
        k, r = modes.bosonic, modes.fermionic
        return ((1,) * k, sum(comb(r, f) * comb(d - f + k, k) for f in range(min(r, d) + 1)),
                description)
    return space


# -- the sixteen family records ------------------------------------------------------------


def _none(*args):
    return None


def _empty(*args):
    return []


def _modes(bosonic: int, fermionic: int = 0):
    return lambda p: ModeSystem(bosonic, fermionic)


@dataclass(frozen=True)
class Family:
    """One catalogued family, read by build, list_catalogue and realize.  p
    is the dict of exact parameters.  A family with a space claims the
    states of weighted degree <= degree(p) as an invariant space where that
    bound is a nonnegative integer, and claims irreducibility there when
    irreducible is set."""

    signature: tuple  # parameter names; an optional one ends in "?"
    description: str
    modes: object  # p -> ModeSystem
    formula: object  # (kit, p) -> {name: generator}, in canonical order
    kit: object = _fock_pairs  # (modes, p) -> the Kit the catalogue builds over
    fd_steps: object = None  # (modes, p) -> per-mode fd steps, a tuple; None: no fd realization
    check: object = _none  # p -> None, or CatalogueError
    relations: object = _empty  # p -> [RelationClaim]
    parities: object = _none  # generators -> {name: 0 | 1}; None: all even
    casimir: object = _none  # p -> CasimirSpec or None
    degree: object = lambda p: p["n"]  # p -> the invariant space's degree bound
    space: object = None  # (degree, modes, p) -> (weights, dimension, description)
    irreducible: bool = None  # claimed on the invariant space, where there is one
    closes: bool = True  # claimed: the brackets close on the generators' span
    alt_forms: object = _empty  # (modes, p) -> [AltForm]
    cutoff: object = _none  # p -> default probe cutoff; None: RepSpec's


_DELTA = _steps("delta")
_DELTAS = _steps("delta1", "delta2")
_SL2 = dict(modes=_modes(1), formula=_phi(lambda k, r: SL2_ROWS),
            relations=lambda p: SL2_RELATIONS, casimir=_sl2_casimir, irreducible=True,
            space=_sym("span(1, b, ..., b^n)"))
_SL3 = dict(modes=_modes(2), formula=_phi(lambda k, r: SL3_ROWS),
            space=_sym("span(b1^n1 b2^n2 : n1+n2 <= n)"))
_OSP22_TABLE = dict(modes=_modes(1, 1), relations=lambda p: OSP22_RELATIONS,
                    parities=lambda gens: dict(OSP22_PARITIES))
_OSP22 = dict(_OSP22_TABLE, formula=_phi(lambda k, r: OSP22_ROWS),
              space=_sym("span(b^k : k <= n) + span(b^k th : k <= n-1)"))

FAMILIES = {
    "sl2_standard": Family(("n",), "sl2, polynomial family", **_SL2),
    "sl2_translated": Family(("n", "delta"), "sl2, shift-transform family", **_SL2,
                             kit=_shifted(_DELTA), fd_steps=_DELTA,
                             alt_forms=_sl2_translated_forms),
    "sl2_oscillator": Family(("n",), "sl2, oscillator family", **_SL2,
                             alt_forms=_oscillator_forms),
    "sl2_metaplectic": Family(
        (), "sl2, metaplectic family", _modes(1),
        lambda kit, p: metaplectic_triple(kit.a[0], kit.b[0]), fd_steps=_unit_steps,
        relations=lambda p: SL2_RELATIONS,
        casimir=lambda p: CasimirSpec(list(SL2_CASIMIR_TERMS), rat(3, 16))),
    "sl2_clifford": Family((), "sl2 from the rank-2 Clifford algebra", _modes(0, 1), _clifford,
                           cutoff=lambda p: 2),
    "sl2_vector_field": Family(
        (), "sl2 by vector fields, reducible", _modes(2), _vector_field,
        degree=lambda p: 1, space=lambda d, modes, p: ((1, 1), 3, "span(1, b1, b2)"),
        irreducible=False, cutoff=lambda p: 4),
    "sl3_fock": Family(("n",), "sl3, polynomial family", **_SL3),
    "sl3_translated": Family(("n", "delta1", "delta2"), "sl3, per-mode shift-transform family",
                             **_SL3, kit=_shifted(_DELTAS), fd_steps=_DELTAS),
    "sl3_seven": Family(("m", "n"), "sl3 in flag coordinates, 3 modes", _modes(3), _sl3_seven,
                        cutoff=lambda p: 6),
    "gl2_semidirect": Family(
        ("r", "n"), "gl2 semidirect abelian ideal C^(r+1)", _modes(2), _gl2_semidirect,
        check=lambda p: _require(_require_int(p["r"], "r") >= 1,
                                 "r must be a positive integer"),
        relations=_gl2_relations, space=_gl2_space, cutoff=_gl2_cutoff),
    "glk": Family(
        ("k", "n"), "gl_k, minimal Fock realization",
        lambda p: ModeSystem(int(p["k"]) - 1, 0),
        _phi(lambda k, r: gl_rows(k, r, GLK_NAMES, first=2)), fd_steps=_unit_steps,
        check=lambda p: _require(_require_int(p["k"], "k") >= 2, "k must be an integer >= 2"),
        space=_sym("span(b2^n2 ... bk^nk : sum <= n)"), irreducible=True),
    "osp22": Family(("n",), "osp(2,2) superalgebra, polynomial family", **_OSP22),
    "osp22_translated": Family(("n", "delta"), "osp(2,2) superalgebra, shift-transform family",
                               **_OSP22, kit=_shifted(_DELTA), fd_steps=_DELTA,
                               alt_forms=_osp22_translated_forms),
    "osp22_metaplectic": Family(
        (), "osp(2,2) superalgebra, super-metaplectic", formula=_osp22_metaplectic,
        **_OSP22_TABLE),
    "gl_super": Family(
        ("k", "r", "n"), "gl(k+1,r+1) superalgebra",
        lambda p: ModeSystem(int(p["k"]), int(p["r"])),
        _phi(lambda k, r: gl_rows(k, r, GL_SUPER_NAMES)), fd_steps=_unit_steps,
        check=lambda p: _require(min(_require_int(p["k"], "k"), _require_int(p["r"], "r")) >= 1,
                                 "k and r must be positive integers"),
        parities=lambda gens: {name: g.as_weyl().parity() for name, g in gens.items()},
        space=_sym("span(b^alpha th^beta : |alpha|+|beta| <= n)"), irreducible=True),
    "sl2q": Family(
        ("alpha", "q", "delta?"), "quantum sl2 (q-deformed)",
        lambda p: ModeSystem(1, 0, p["q"]),
        lambda kit, p: sl2q_triple(kit.a[0], kit.b[0], int(p["alpha"]), p["q"], kit.one),
        kit=q_kit, check=_check_sl2q, relations=_sl2q_relations, casimir=_sl2q_casimir,
        degree=lambda p: p["alpha"],
        space=lambda d, modes, p: ((1,), d + 1, "span(1, btilde, ..., btilde^n)|0>"),
        irreducible=True, closes=False, alt_forms=_sl2q_forms),
}


def family(rep_id: str) -> Family:
    try:
        return FAMILIES[rep_id]
    except KeyError:
        raise CatalogueError("unknown representation id %r" % rep_id) from None


def list_catalogue():
    """(id, parameter signature, family description) for all sixteen entries."""
    return [(rep_id, ", ".join(f.signature), f.description) for rep_id, f in FAMILIES.items()]


def _parameters(record: Family, rep_id: str, params: dict) -> dict:
    """params as exact rationals, checked against the record's signature and
    its check."""
    params = {key: rat(value) for key, value in params.items()}
    for name in record.signature:
        if not name.endswith("?") and name not in params:
            raise CatalogueError("missing parameter %r for %s" % (name, rep_id))
    allowed = {name.rstrip("?") for name in record.signature}
    for key in params:
        if key not in allowed:
            raise CatalogueError("unexpected parameter %r for %s" % (key, rep_id))
    record.check(params)
    return params


def build(rep_id: str, params: dict = None) -> RepSpec:
    """Construct a catalogued representation with exact rational parameters:
    the family's formula over its kit, with the claims its record makes."""
    record = family(rep_id)
    params = _parameters(record, rep_id, params or {})
    modes = record.modes(params)
    gens = record.formula(record.kit(modes, params), params)
    degree = _finite(record.degree(params)) if record.space else None
    inv = None
    if degree is not None:
        weights, dim, desc = record.space(degree, modes, params)
        inv = InvariantSpace(weights, degree, dim, desc)
    return RepSpec(rep_id, params, gens, list(record.relations(params)),
                   record.parities(gens), record.casimir(params), inv,
                   Claims(record.closes, record.irreducible if inv else None),
                   record.alt_forms(modes, params), record.cutoff(params))


# -- family shapes: n as a spectator mode ----------------------------------------------------


def family_shape(rep_id: str, params: dict):
    """The shape of an instance of a family that takes n: the family with
    every other parameter as in params, as one polynomial rep over the
    instance's modes and one more bosonic mode, the spectator nu, last, whose
    b stands for n and whose a never occurs.  None for any other rep_id or
    parameters that the family rejects.  One shape per (rep_id, params
    without n) per process, made at its first call and never by build:
    verify.closure reads its closure table and Killing rank."""
    return _shape(rep_id, tuple(sorted((k, v) for k, v in params.items() if k != "n")))


@cache
def _shape(rep_id: str, fixed: tuple):
    """family_shape's memo.  Each generator is G(0) + nu (G(1) - G(0)), G(n)
    the family formula at n over the Fock kit; every formula is affine in n,
    so nu set to n gives G(n) again, which verify._shape checks term for term
    before it reads the shape."""
    try:
        record = family(rep_id)
        p0, p1 = [_parameters(record, rep_id, dict(fixed, n=n)) for n in (0, 1)]
    except CatalogueError:
        return None
    modes = record.modes(p0)
    g0, g1 = (record.formula(fock_kit(modes), p) for p in (p0, p1))
    spectated = ModeSystem(modes.bosonic + 1, modes.fermionic)
    gens = {}
    for name, g in g0.items():
        w0 = g.as_weyl()
        gens[name] = Poly(WeylElement(spectated, {**_times_nu(w0, 0),
                                                  **_times_nu(g1[name].as_weyl() - w0, 1)}))
    return RepSpec(rep_id, dict(fixed), gens, parities=record.parities(gens))


def _times_nu(w: WeylElement, power: int) -> dict:
    """w's terms over the spectator's mode system, each times nu^power."""
    return {(bp + (power,), ap + (0,), th, dth): c for (bp, ap, th, dth), c in w.terms.items()}
