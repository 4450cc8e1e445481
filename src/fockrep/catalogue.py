"""The representation catalogue.

Each entry packages a named generator set (as operator expressions over a
mode system) together with everything the verifier needs: the expected
relation table where one exists, a Casimir descriptor, the invariant
subspace, structural claims, and secondary closed-form expressions.

Each pair-generic family has one generator formula in FORMULAS, written
over a Kit of canonical pairs.  The catalogue calls it with the Fock pairs,
and shift-transformed families with the transformed canonical pair

    ahat = (e^{d a} - 1)/d ,   bhat = b e^{-d a}

which makes the algebra relations hold by construction; the realizations
call the same formula with their own pairs.  The explicitly displayed
closed forms are attached as alt_forms: checkable claims whose mismatches
are reported, never patched into the generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import comb

from .fock import (Compiled, ExpA, LeftDivB, OperatorExpr, Poly, Product,
                   Scale, Sum, _state_str, basis_states, identity_op)
from .qheis import q_alpha_hat, q_number, q_number_op, q_pair
from .scalars import SQRT2, Rational, inverse, rat
from .weyl import ModeSystem, WeylElement, accumulate


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
    predicate: object  # (alpha, beta_mask) -> bool
    max_degree: int
    expected_dim: int
    description: str

    def basis(self, modes: ModeSystem):
        return [key for key in basis_states(modes, self.max_degree)
                if self.predicate(*key)]


@dataclass
class Claims:
    closes: bool = True
    irreducible: bool = None  # True / False / None (no claim)
    abelian_ideal: list = field(default_factory=list)


@dataclass
class AltForm:
    """A secondary closed-form expression for one generator."""

    generator: str
    expr: OperatorExpr


@dataclass
class RepSpec:
    """A catalogued representation.  It memoises what several checks share:
    each generator word's normal form (formed_product), each generator's
    invariant-space columns (space_columns) and a check's result (memo).  A
    replace() or compiled() copy starts them empty, so generators are
    replaced, never changed in place."""

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
    _products: dict = field(init=False, repr=False, compare=False)  # word -> WeylElement
    _space: tuple = field(init=False, repr=False, compare=False)  # (keys, index, {name: columns})
    _memos: dict = field(init=False, repr=False, compare=False)  # key -> make()
    _polynomial: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.modes = next(iter(self.generators.values())).modes
        if self.parities is None:
            self.parities = {name: 0 for name in self.generators}
        if self.default_cutoff is None:
            inv = self.invariant_space
            self.default_cutoff = inv.max_degree + 2 if inv else 8
        self._products = {}
        self._space = None
        self._memos = {}
        self._polynomial = all(g.as_weyl() is not None for g in self.generators.values())

    def generator(self, name: str) -> OperatorExpr:
        try:
            return self.generators[name]
        except KeyError:
            raise CatalogueError("unknown generator %r; have %s"
                                 % (name, ", ".join(self.generators)))

    def formed_product(self, word: tuple):
        """The stored normal form of a generator word, a tuple of names, or
        None where no word sum has formed it yet."""
        return self._products.get(word)

    def _product(self, word: tuple) -> WeylElement:
        """The normal form of a generator word, a tuple of names; formed
        once, one multiplication onto its stored prefix, and kept."""
        product = self._products.get(word)
        if product is None:
            if not word:
                product = WeylElement.one(self.modes)
            elif len(word) == 1:
                product = self.generator(word[0]).as_weyl()
            else:
                product = self._product(word[:-1]) * self.generator(word[-1]).as_weyl()
            self._products[word] = product
        return product

    def memo(self, key, make):
        """make(), called once per key on this copy and kept."""
        if key not in self._memos:
            self._memos[key] = make()
        return self._memos[key]

    def word_sum(self, terms) -> WeylElement:
        """The normal form of a weighted sum of generator words; polynomial
        reps only."""
        out = {}
        for coeff, word in terms:
            for mono, c in self._product(tuple(word)).terms.items():
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

    def compiled(self) -> "RepSpec":
        """A copy whose generators are fock.Compiled: every check run on it
        computes each generator's image of a basis state at most once."""
        gens = {name: g if isinstance(g, Compiled) else Compiled(g)
                for name, g in self.generators.items()}
        return replace(self, generators=gens)

    def space_columns(self, name: str):
        """One generator on the invariant-space basis, by basis position,
        formed once.

        Returns (keys, cols, escape): keys is the space's basis, cols[j] =
        {i: c} the image of keys[j], and escape is "" or the witness for the
        first component that leaves the space, where the columns stop.
        """
        g = self.generator(name)
        if self._space is None:
            keys = self.invariant_space.basis(self.modes)
            self._space = keys, {key: i for i, key in enumerate(keys)}, {}
        keys, index, formed = self._space
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


# -- base generator formulas (generic over the pair implementation) -----------


def _unshared(x):
    return x


def _compiled_unless_polynomial(x):
    return x if x.as_weyl() is not None else Compiled(x)


def sl2_triple(a, b, n: Rational):
    half_n = rat(n) / 2
    return {
        "J+": b * b * a - b.scale(rat(n)),
        "J0": b * a - half_n,
        "J-": a,
    }


SL2_RELATIONS = [
    RelationClaim("[J0,J+] = J+", comm("J0", "J+"), gen("J+")),
    RelationClaim("[J0,J-] = -J-", comm("J0", "J-"), gen("J-", -1)),
    RelationClaim("[J+,J-] = -2J0", comm("J+", "J-"), gen("J0", -2)),
]


SL2_CASIMIR_TERMS = [(rat(1, 2), ("J+", "J-")), (rat(1, 2), ("J-", "J+")),
                     (-1, ("J0", "J0"))]


def sl2_casimir(n: Rational) -> CasimirSpec:
    # claimed value as catalogued; the measured value is -(n/2)(n/2+1)
    nn = rat(n)
    return CasimirSpec(list(SL2_CASIMIR_TERMS), -(nn / 2) * (nn / 2 + rat(1, 2)))


def sl3_octet(a1, a2, b1, b2, n: Rational, number=None, share=_unshared):
    """number[i], when given, stands for b_i a_i inside J1+, J2+ and J0;
    share is the kit's (see Kit), applied to the factor J1+ and J2+ share."""
    n1, n2 = number or (b1 * a1, b2 * a2)
    num = share(n1 + n2 - rat(n))
    return {
        "J1+": b1 * num,
        "J2+": b2 * num,
        "J1-": a1,
        "J2-": a2,
        "J0_21": b2 * a1,
        "J0_12": b1 * a2,
        "J0_1": n1 - n2,
        "J0_2": n1 + n2 - rat(2, 3) * rat(n),
    }


def glk_family(a, b, n: Rational, number=None, share=_unshared):
    """Generators over modes a[i], b[i] indexed 2..k (list offset 0 <-> index 2).

    number[i], when given, stands for b[i] a[i] inside J0; share is the
    kit's (see Kit), applied to J0, which every J_i+ contains.
    """
    k = len(a) + 1
    number = number or [b[i] * a[i] for i in range(k - 1)]
    j0 = share(rat(n) - sum(number[1:], number[0]))
    gens = {}
    for i in range(k - 1):
        gens["J%d-" % (i + 2)] = a[i]
    for i in range(k - 1):
        for j in range(k - 1):
            gens["J0_%d%d" % (i + 2, j + 2)] = b[i] * a[j]
    gens["J0"] = j0
    for i in range(k - 1):
        gens["J%d+" % (i + 2)] = b[i] * j0
    return gens


def gl_super_family(a, b, th, dth, n: Rational, one, number=None, share=_unshared):
    """gl(k+1,r+1) generators over any element implementation.

    a, b: k bosonic pairs; th, dth: r fermionic pairs; one: the identity
    element; number[i], when given, stands for b[i] a[i] inside T0; share
    is the kit's (see Kit), applied to T0, which every T_i+ and Qb_j+
    contains.  Returns the generators in canonical order.
    """
    k, r = len(a), len(th)
    number = number or [b[i] * a[i] for i in range(k)]
    t0 = one.scale(rat(n))
    for i in range(k):
        t0 = t0 - number[i]
    for j in range(r):
        t0 = t0 - th[j] * dth[j]
    t0 = share(t0)
    gens = {}
    for i in range(k):
        gens["T%d-" % (i + 1)] = a[i]
    for i in range(k):
        for j in range(k):
            gens["T0_%d%d" % (i + 1, j + 1)] = b[i] * a[j]
    gens["T0"] = t0
    for i in range(k):
        gens["T%d+" % (i + 1)] = b[i] * t0
    for j in range(r):
        gens["Qb%d-" % (j + 1)] = dth[j]
    for j in range(r):
        gens["Qb%d+" % (j + 1)] = th[j] * t0
    for i in range(r):
        for j in range(k):
            gens["Q-_%d%d" % (i + 1, j + 1)] = th[i] * a[j]
    for i in range(k):
        for j in range(r):
            gens["Q+_%d%d" % (i + 1, j + 1)] = b[i] * dth[j]
    for i in range(r):
        for j in range(r):
            gens["J0_%d%d" % (i + 1, j + 1)] = th[i] * dth[j]
    return gens


def sl2q_triple(atil, btil, alpha: int, q: Rational, one):
    """Deformed sl2 generators over any implementation of the q-pair."""
    qa = q_number(alpha, q)
    ahat = q_alpha_hat(alpha, q)
    return {
        "J+": btil * btil * atil - btil.scale(qa),
        "J0": btil * atil - one.scale(ahat),
        "J-": atil,
    }


def metaplectic_triple(a, b):
    half = rat(1, 2)
    quarter = rat(-1, 4)
    return {
        "J+": (a * a).scale(half),
        "J0": (a * b + b * a).scale(quarter),
        "J-": (b * b).scale(half),
    }


def osp22_octet(a, b, th_dth, n: Rational):
    """th_dth is the even element th*dth of the single fermionic mode."""
    half = rat(1, 2)
    sl2 = sl2_triple(a, b, n)
    return {
        "T+": sl2["J+"] + b * th_dth,
        "T0": sl2["J0"] + th_dth.scale(half),
        "T-": a,
        "J": th_dth.scale(-half) - rat(n) * half,
    }


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

OSP22_TABLE_LINES = 16


# -- transformed canonical pair ------------------------------------------------


def shift_pair(modes: ModeSystem, mode: int, delta: Rational):
    """(ahat, bhat) = ((e^{d a}-1)/d, b e^{-d a}) for one bosonic mode."""
    delta = rat(delta)
    if delta == 0:
        raise CatalogueError("delta = 0 degenerates the shift transform")
    ahat = Scale(inverse(delta),
                 Sum([ExpA(modes, mode, delta), Scale(-1, identity_op(modes))]))
    bhat = Product([Poly(WeylElement.b(modes, mode)), ExpA(modes, mode, -delta)])
    return ahat, bhat


@dataclass
class Kit:
    """One implementation of the canonical pairs a family formula is written
    in: a[i], b[i] per bosonic mode, th[j], dth[j] per fermionic mode, and
    the identity.  share is what a formula stores in place of an
    intermediate that several of its generators contain; on a plain kit it
    returns the intermediate itself."""

    a: list
    b: list
    th: list
    dth: list
    one: object
    share: object = _unshared

    def compiled(self) -> "Kit":
        """A copy whose bosonic pairs are fock.Compiled, and whose share
        compiles each formula's non-polynomial intermediate, so every
        generator of a formula over it shares each pair's and each
        intermediate's image of a basis state.  th, dth and one stay as they
        are, and share leaves a polynomial as it is, so polynomials still
        fold."""
        return replace(self, a=[Compiled(x) for x in self.a],
                       b=[Compiled(x) for x in self.b], share=_compiled_unless_polynomial)


def fock_kit(modes: ModeSystem, deltas=None) -> Kit:
    """The Fock pairs of `modes`; with per-mode `deltas`, the bosonic pairs
    are the shift-transformed ones."""
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


def _osp22_gens(a, b, th, dth, n: Rational):
    thdth = th * dth
    gens = osp22_octet(a, b, thdth, n)
    gens["Q1"] = dth
    gens["Q2"] = b * dth
    gens["Qb1"] = b * a * th - th.scale(rat(n))
    gens["Qb2"] = -(a * th)
    order = ["T+", "T0", "T-", "J", "Q1", "Q2", "Qb1", "Qb2"]
    return {name: gens[name] for name in order}


# The one generator formula of each pair-generic family, formula(kit, params),
# keyed by the family that has a finite-difference realization.  The base
# families (sl2_standard, sl3_fock, osp22) use the same formula over the
# plain Fock kit.
FORMULAS = {
    "sl2_translated": lambda kit, p: sl2_triple(kit.a[0], kit.b[0], p["n"]),
    "sl2_metaplectic": lambda kit, p: metaplectic_triple(kit.a[0], kit.b[0]),
    "sl3_translated": lambda kit, p: sl3_octet(kit.a[0], kit.a[1], kit.b[0], kit.b[1],
                                               p["n"], share=kit.share),
    "glk": lambda kit, p: glk_family(kit.a, kit.b, p["n"], share=kit.share),
    "gl_super": lambda kit, p: gl_super_family(kit.a, kit.b, kit.th, kit.dth, p["n"],
                                               kit.one, share=kit.share),
    "osp22_translated": lambda kit, p: _osp22_gens(kit.a[0], kit.b[0], kit.th[0],
                                                   kit.dth[0], p["n"]),
}


# -- the sixteen builders ---------------------------------------------------------


def _degree_space(n: int, weights, expected: int, desc: str) -> InvariantSpace:
    """States whose weighted bosonic degree plus fermionic degree is <= n."""
    def pred(alpha, beta):
        return sum(w * k for w, k in zip(weights, alpha)) + beta.bit_count() <= n

    return InvariantSpace(pred, n, expected, desc)


def _sl2(rep_id, params, deltas):
    """sl2_standard, sl2_translated and sl2_oscillator: the sl2 formula over
    the plain or the shift-transformed pair."""
    ni = _finite(params["n"])
    inv = None if ni is None else _degree_space(ni, (1,), ni + 1, "span(1, b, ..., b^n)")
    gens = FORMULAS["sl2_translated"](fock_kit(ModeSystem(1, 0), deltas), params)
    return RepSpec(rep_id, params, gens, list(SL2_RELATIONS),
                   casimir=sl2_casimir(params["n"]), invariant_space=inv,
                   claims=Claims(irreducible=True if inv else None))


def _build_sl2_standard(params):
    return _sl2("sl2_standard", params, None)


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


def _build_sl2_translated(params):
    rep = _sl2("sl2_translated", params, [params["delta"]])
    forms = _shifted_sl2_forms(rep.modes, rat(params["delta"]), rat(params["n"]),
                               Poly(WeylElement.zero(rep.modes)))
    rep.alt_forms = [AltForm(name, f) for name, f in zip(("J+", "J0", "J-"), forms)]
    return rep


def _build_sl2_oscillator(params):
    # Normative: the oscillator pair is itself canonical, so after rewriting
    # in that pair the generators act on the standard Fock space as the base
    # triple.  The displayed cubic forms are recorded in the original pair,
    # here expressed through the inverse rewriting a -> (a-b)/s2, b -> (a+b)/s2.
    rep = _sl2("sl2_oscillator", params, None)
    n = params["n"]
    inv_s2 = SQRT2.inverse()
    A, B = WeylElement.a(rep.modes), WeylElement.b(rep.modes)
    aa = (A - B).scale(inv_s2)  # original lowering operator
    bb = (A + B).scale(inv_s2)  # original raising operator
    two_n1 = 2 * rat(n) + 1
    disp_jp = Poly((bb ** 3 + aa ** 3 - bb * (bb + aa) * aa
                    - (bb - aa).scale(two_n1) - bb.scale(2)).scale(inv_s2 ** 3))
    disp_j0 = Poly((bb ** 2 - aa ** 2 - WeylElement.scalar(rep.modes, rat(n) + 1))
                   .scale(rat(1, 2)))
    disp_jm = Poly((bb + aa).scale(inv_s2))
    rep.alt_forms = [AltForm("J+", disp_jp), AltForm("J0", disp_j0),
                     AltForm("J-", disp_jm)]
    return rep


def _build_sl2_metaplectic(params):
    gens = FORMULAS["sl2_metaplectic"](fock_kit(ModeSystem(1, 0)), params)
    return RepSpec(
        "sl2_metaplectic", params, gens, list(SL2_RELATIONS),
        casimir=CasimirSpec(list(SL2_CASIMIR_TERMS), rat(3, 16)))


def _build_sl2_clifford(params):
    modes = ModeSystem(0, 1)
    th = WeylElement.theta(modes, 1)
    dth = WeylElement.dtheta(modes, 1)
    acl = th + dth                                  # squares to 1
    bcl = WeylElement.one(modes) - (th * dth).scale(2)  # squares to 1, anticommutes
    gens = {"J1": Poly(acl), "J2": Poly(bcl), "J3": Poly(acl * bcl)}
    return RepSpec("sl2_clifford", params, gens, default_cutoff=2)


def _build_sl2_vector_field(params):
    kit = fock_kit(ModeSystem(2, 0))
    (a1, a2), (b1, b2) = kit.a, kit.b
    gens = {"J1": b1 * a2, "J2": b2 * a1, "J3": b1 * a1 - b2 * a2}
    return RepSpec(
        "sl2_vector_field", params, gens,
        invariant_space=_degree_space(1, (1, 1), 3, "span(1, b1, b2)"),
        claims=Claims(irreducible=False), default_cutoff=4)


def _sl3(rep_id, params, deltas):
    """sl3_fock and sl3_translated: the sl3 formula over the plain or the
    per-mode shift-transformed pairs."""
    ni = _finite(params["n"])
    inv = None if ni is None else _degree_space(ni, (1, 1), (ni + 1) * (ni + 2) // 2,
                                                "span(b1^n1 b2^n2 : n1+n2 <= n)")
    gens = FORMULAS["sl3_translated"](fock_kit(ModeSystem(2, 0), deltas), params)
    return RepSpec(rep_id, params, gens, invariant_space=inv)


def _build_sl3_fock(params):
    return _sl3("sl3_fock", params, None)


def _build_sl3_translated(params):
    return _sl3("sl3_translated", params, [params["delta1"], params["delta2"]])


def _build_sl3_seven(params):
    m, n = params["m"], params["n"]
    modes = ModeSystem(3, 0)
    kit = fock_kit(modes)
    a1, a2, a3 = kit.a
    b1, b2, b3 = kit.b
    mm, nn = rat(m), rat(n)
    gens = {
        "J1+": (b1 * b3 - b2) * a1 - b2 * b3 * a2 - b3 * b3 * a3 + b3.scale(nn),
        "J2+": b1 * (b1 * b3 - b2) * a1 - b2 * b2 * a2 - b2 * b3 * a3
               - (b1 * b3).scale(mm) + b2.scale(nn + mm),
        "J1-": a2,
        "J2-": a3,
        "J0_32": a1 + b3 * a2,
        "J0_23": -(b1 * b1 * a1) + b2 * a3 + b1.scale(mm),
        "J0_1": -(b1 * a1) + b2 * a2 + (b3 * a3).scale(2) - nn * identity_op(modes),
        "J0_2": (b1 * a1).scale(2) + b2 * a2 - b3 * a3 - mm * identity_op(modes),
    }
    return RepSpec("sl3_seven", params, gens, default_cutoff=6)


def _build_gl2_semidirect(params):
    r = _require_int(params["r"], "r")
    n = params["n"]
    if r < 1:
        raise CatalogueError("r must be a positive integer")
    kit = fock_kit(ModeSystem(2, 0))
    (a1, a2), (b1, b2) = kit.a, kit.b
    gens = {
        "J1": a1,
        "J2": b1 * a1 - rat(n) / 3,
        "J3": b2 * a2 - rat(n) / (3 * r),
        "J4": b1 * b1 * a1 + (b1 * b2 * a2).scale(r) - b1.scale(rat(n)),
    }
    ideal = []
    for k in range(r + 1):
        name = "J%d" % (5 + k)
        gens[name] = (b1 ** k) * a2
        ideal.append(name)
    relations = [
        RelationClaim("[%s,%s] = 0" % (x, y), comm(x, y), zero_rhs(), "ideal")
        for i, x in enumerate(ideal) for y in ideal[i + 1:]
    ]
    ni = _finite(n)
    inv = None
    if ni is not None:
        expected = sum(1 for n2 in range(ni // r + 1) for n1 in range(ni - r * n2 + 1))
        inv = _degree_space(ni, (1, r), expected, "span(b1^n1 b2^n2 : n1 + r n2 <= n)")
    return RepSpec(
        "gl2_semidirect", params, gens, relations,
        invariant_space=inv,
        claims=Claims(abelian_ideal=ideal),
        default_cutoff=(ni + 2 * r if inv else 8))


def _build_glk(params):
    k = _require_int(params["k"], "k")
    if k < 2:
        raise CatalogueError("k must be an integer >= 2")
    gens = FORMULAS["glk"](fock_kit(ModeSystem(k - 1, 0)), params)
    ni = _finite(params["n"])
    inv = None if ni is None else _degree_space(ni, (1,) * (k - 1), comb(ni + k - 1, k - 1),
                                                "span(b2^n2 ... bk^nk : sum <= n)")
    return RepSpec(
        "glk", params, gens,
        invariant_space=inv,
        claims=Claims(irreducible=True if inv else None))


OSP22_PARITIES = {"T+": 0, "T0": 0, "T-": 0, "J": 0,
                  "Q1": 1, "Q2": 1, "Qb1": 1, "Qb2": 1}


def _osp22(rep_id, params, deltas):
    """osp22 and osp22_translated: the osp(2,2) formula over the plain or the
    shift-transformed bosonic pair."""
    ni = _finite(params["n"])
    inv = None if ni is None else _degree_space(
        ni, (1,), 2 * ni + 1, "span(b^k : k <= n) + span(b^k th : k <= n-1)")
    gens = FORMULAS["osp22_translated"](fock_kit(ModeSystem(1, 1), deltas), params)
    return RepSpec(rep_id, params, gens, list(OSP22_RELATIONS), dict(OSP22_PARITIES),
                   invariant_space=inv)


def _build_osp22(params):
    return _osp22("osp22", params, None)


def _build_osp22_translated(params):
    rep = _osp22("osp22_translated", params, [params["delta"]])
    modes = rep.modes
    d = rat(params["delta"])
    n = rat(params["n"])
    half = rat(1, 2)
    b = Poly(WeylElement.b(modes))
    th, dth = Poly(WeylElement.theta(modes, 1)), Poly(WeylElement.dtheta(modes, 1))
    one = identity_op(modes)
    thdth = th * dth
    eminus = ExpA(modes, 1, -d)
    eplus = ExpA(modes, 1, d)
    # displayed closed forms of the shift-transformed family
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
    rep.alt_forms = [AltForm(name, expr) for name, expr in disp.items()]
    return rep


def _build_osp22_metaplectic(params):
    modes = ModeSystem(1, 1)
    A, B = WeylElement.a(modes), WeylElement.b(modes)
    TH, DTH = WeylElement.theta(modes, 1), WeylElement.dtheta(modes, 1)
    inv_s2 = SQRT2.inverse()
    sl2 = metaplectic_triple(Poly(A), Poly(B))
    gens = {
        "T+": sl2["J+"],
        "T0": sl2["J0"],
        "T-": sl2["J-"],
        "J": Poly(WeylElement.scalar(modes, rat(1, 4)) - (TH * DTH).scale(rat(1, 2))),
        "Q1": Poly((B * DTH).scale(-inv_s2)),
        "Q2": Poly((A * DTH).scale(inv_s2)),
        "Qb1": Poly((A * TH).scale(inv_s2)),
        "Qb2": Poly((B * TH).scale(inv_s2)),
    }
    return RepSpec("osp22_metaplectic", params, gens, list(OSP22_RELATIONS),
                   dict(OSP22_PARITIES))


def _build_gl_super(params):
    k = _require_int(params["k"], "k")
    r = _require_int(params["r"], "r")
    if k < 1 or r < 1:
        raise CatalogueError("k and r must be positive integers")
    gens = FORMULAS["gl_super"](fock_kit(ModeSystem(k, r)), params)
    ni = _finite(params["n"])
    inv = None
    if ni is not None:
        expected = sum(comb(r, f) * comb(ni - f + k, k) for f in range(min(r, ni) + 1))
        inv = _degree_space(ni, (1,) * k, expected,
                            "span(b^alpha th^beta : |alpha|+|beta| <= n)")
    return RepSpec(
        "gl_super", params, gens,
        parities={name: g.as_weyl().parity() for name, g in gens.items()},
        invariant_space=inv,
        claims=Claims(irreducible=True if inv else None))


def _build_sl2q(params):
    alpha = params["alpha"]
    q = rat(params["q"])
    delta = rat(params.get("delta", 0))
    if q == 1:
        raise CatalogueError("q = 1 not allowed (undeformed case)")
    if q <= 0:
        raise CatalogueError("q must be a positive rational != 1")
    al = _require_int(alpha, "alpha")
    if al == -1:
        raise CatalogueError("alpha = -1 makes {2 alpha + 2} vanish")
    modes = ModeSystem(1, 0)
    atil, btil = q_pair(modes, 1, q, delta)
    ahat = q_alpha_hat(al, q)
    gens = sl2q_triple(atil, btil, al, q, identity_op(modes))
    # relation table after the rational rescaling (j+ = J+, j- = q^-alpha J-,
    # j0 = c0 J0); the freedom j± -> c^{±1} j± makes this equivalent to the
    # half-power normalization
    c0 = (q ** (-al) / (q + 1)) * (q_number(2 * al + 2, q) / q_number(al + 1, q))
    relations = [
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
    casimir = CasimirSpec(
        [(q, ("J+", "J-")), (-1, ("J0", "J0")),
         (q_number(al + 1, q) - 2 * ahat, ("J0",))],
        ahat * (ahat - q_number(al + 1, q)),
        name="q-C2")
    inv = None
    if al >= 0:
        inv = _degree_space(al, (1,), al + 1, "span(1, btilde, ..., btilde^n)|0>")
    alt = []
    if delta != 0:
        # the displayed transformed lowering operator carries a 1/(b+delta)
        # prefactor; equal to the normative one via (b+d)^-1 e^{da} = e^{da} b^-1
        alt.append(AltForm("J-", Product([LeftDivB(modes, 1, delta), ExpA(modes, 1, delta),
                                          q_number_op(modes, 1, q, delta)])))
    return RepSpec(
        "sl2q", params, gens, relations,
        casimir=casimir, invariant_space=inv,
        claims=Claims(closes=False, irreducible=True if inv else None),
        alt_forms=alt)


# -- registry -------------------------------------------------------------------


_CATALOGUE = {
    "sl2_standard": (_build_sl2_standard, ("n",), "sl2, polynomial family"),
    "sl2_translated": (_build_sl2_translated, ("n", "delta"), "sl2, shift-transform family"),
    "sl2_oscillator": (_build_sl2_oscillator, ("n",), "sl2, oscillator family"),
    "sl2_metaplectic": (_build_sl2_metaplectic, (), "sl2, metaplectic family"),
    "sl2_clifford": (_build_sl2_clifford, (), "sl2 from the rank-2 Clifford algebra"),
    "sl2_vector_field": (_build_sl2_vector_field, (), "sl2 by vector fields, reducible"),
    "sl3_fock": (_build_sl3_fock, ("n",), "sl3, polynomial family"),
    "sl3_translated": (_build_sl3_translated, ("n", "delta1", "delta2"),
                       "sl3, per-mode shift-transform family"),
    "sl3_seven": (_build_sl3_seven, ("m", "n"), "sl3 in flag coordinates, 3 modes"),
    "gl2_semidirect": (_build_gl2_semidirect, ("r", "n"),
                       "gl2 semidirect abelian ideal C^(r+1)"),
    "glk": (_build_glk, ("k", "n"), "gl_k, minimal Fock realization"),
    "osp22": (_build_osp22, ("n",), "osp(2,2) superalgebra, polynomial family"),
    "osp22_translated": (_build_osp22_translated, ("n", "delta"),
                         "osp(2,2) superalgebra, shift-transform family"),
    "osp22_metaplectic": (_build_osp22_metaplectic, (), "osp(2,2) superalgebra, super-metaplectic"),
    "gl_super": (_build_gl_super, ("k", "r", "n"), "gl(k+1,r+1) superalgebra"),
    "sl2q": (_build_sl2q, ("alpha", "q", "delta?"), "quantum sl2 (q-deformed)"),
}


def catalogue_ids():
    return list(_CATALOGUE)


def list_catalogue():
    """(id, parameter signature, family description) for all sixteen entries."""
    out = []
    for rep_id, (_, sig, desc) in _CATALOGUE.items():
        out.append((rep_id, ", ".join(sig), desc))
    return out


def build(rep_id: str, params: dict = None) -> RepSpec:
    """Construct a catalogued representation with exact rational parameters."""
    if rep_id not in _CATALOGUE:
        raise CatalogueError("unknown representation id %r" % rep_id)
    builder, sig, _ = _CATALOGUE[rep_id]
    params = {key: rat(value) for key, value in (params or {}).items()}
    for name in sig:
        optional = name.endswith("?")
        key = name.rstrip("?")
        if key not in params and not optional:
            raise CatalogueError("missing parameter %r for %s" % (key, rep_id))
    allowed = {name.rstrip("?") for name in sig}
    for key in params:
        if key not in allowed:
            raise CatalogueError("unexpected parameter %r for %s" % (key, rep_id))
    return builder(params)
