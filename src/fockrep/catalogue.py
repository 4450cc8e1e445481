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

from dataclasses import dataclass, field
from math import comb

from .fock import (ExpA, LeftDivB, OperatorExpr, Poly, Product, QSpectral,
                   Scale, Sum, basis_states, identity_op)
from .qheis import q_alpha_hat, q_number, q_pair
from .scalars import ONE, Rational, Scalar, rat
from .weyl import ModeSystem, WeylElement


class CatalogueError(ValueError):
    pass


# -- data shapes ------------------------------------------------------------


@dataclass
class RelationClaim:
    """lhs = rhs where both sides are Scalar-weighted words in generator names."""

    name: str
    lhs: list  # [(Scalar, (gen, ...))]; () is the identity
    rhs: list
    line: str = ""


@dataclass
class CasimirSpec:
    """A central element with the value the catalogue claims for it.

    The verifier measures the actual scalar exactly; a claimed/measured
    mismatch is reported as a catalogue discrepancy, never patched.
    """

    terms: list  # [(Scalar, (gen, ...))]
    claimed: Scalar
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
    superalgebra: bool = False
    irreducible: bool = None  # True / False / None (no claim)
    abelian_ideal: list = field(default_factory=list)


@dataclass
class AltForm:
    """A secondary closed-form expression for one generator."""

    generator: str
    expr: OperatorExpr
    note: str = ""


@dataclass
class RepSpec:
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
    description: str = ""
    modes: ModeSystem = field(init=False)  # the generators' mode system

    def __post_init__(self):
        self.modes = next(iter(self.generators.values())).modes
        if self.parities is None:
            self.parities = {name: 0 for name in self.generators}
        if self.default_cutoff is None:
            inv = self.invariant_space
            self.default_cutoff = inv.max_degree + 2 if inv else 8

    def generator(self, name: str) -> OperatorExpr:
        try:
            return self.generators[name]
        except KeyError:
            raise CatalogueError("unknown generator %r; have %s"
                                 % (name, ", ".join(self.generators)))

    def word_expr(self, terms) -> OperatorExpr:
        """Operator for a Scalar-weighted sum of generator words."""
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
        return all(g.as_weyl() is not None for g in self.generators.values())

    def max_generator_raise(self) -> int:
        return max(max(0, g.max_raise()) for g in self.generators.values())


# -- small helpers -----------------------------------------------------------


def _sc(x) -> Scalar:
    return Scalar.of(x)


def comm(x: str, y: str):
    return [(ONE, (x, y)), (Scalar(-1), (y, x))]


def acomm(x: str, y: str):
    return [(ONE, (x, y)), (ONE, (x, y))] if x == y else [(ONE, (x, y)), (ONE, (y, x))]


def gen(name: str, c=1):
    return [(_sc(c), (name,))]


def zero_rhs():
    return []


def _scaled(terms, c):
    c = _sc(c)
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


def sl2_triple(a, b, n: Rational):
    half_n = Scalar(rat(n) / 2)
    return {
        "J+": b * b * a - b.scale(_sc(n)),
        "J0": b * a - half_n,
        "J-": a,
    }


SL2_RELATIONS = [
    RelationClaim("[J0,J+] = J+", comm("J0", "J+"), gen("J+")),
    RelationClaim("[J0,J-] = -J-", comm("J0", "J-"), gen("J-", -1)),
    RelationClaim("[J+,J-] = -2J0", comm("J+", "J-"), gen("J0", -2)),
]


SL2_CASIMIR_TERMS = [(Scalar(rat(1, 2)), ("J+", "J-")), (Scalar(rat(1, 2)), ("J-", "J+")),
                     (Scalar(-1), ("J0", "J0"))]


def sl2_casimir(n: Rational) -> CasimirSpec:
    # claimed value as catalogued; the measured value is -(n/2)(n/2+1)
    nn = rat(n)
    return CasimirSpec(list(SL2_CASIMIR_TERMS), Scalar(-(nn / 2) * (nn / 2 + rat(1, 2))))


def sl3_octet(a1, a2, b1, b2, n: Rational):
    num = b1 * a1 + b2 * a2 - _sc(n)
    return {
        "J1+": b1 * num,
        "J2+": b2 * num,
        "J1-": a1,
        "J2-": a2,
        "J0_21": b2 * a1,
        "J0_12": b1 * a2,
        "J0_1": b1 * a1 - b2 * a2,
        "J0_2": b1 * a1 + b2 * a2 - Scalar(rat(2, 3) * rat(n)),
    }


def glk_family(a, b, n: Rational, number=None):
    """Generators over modes a[i], b[i] indexed 2..k (list offset 0 <-> index 2).

    number[i], when given, stands for b[i] a[i] inside J0.
    """
    k = len(a) + 1
    number = number or [b[i] * a[i] for i in range(k - 1)]
    j0 = None
    for i in range(k - 1):
        j0 = number[i] if j0 is None else j0 + number[i]
    j0 = _sc(n) - j0 if j0 is not None else None
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


def gl_super_family(a, b, th, dth, n: Rational, one, number=None):
    """gl(k+1,r+1) generators over any element implementation.

    a, b: k bosonic pairs; th, dth: r fermionic pairs; one: the identity
    element; number[i], when given, stands for b[i] a[i] inside T0.
    Returns the generators in canonical order.
    """
    k, r = len(a), len(th)
    number = number or [b[i] * a[i] for i in range(k)]
    t0 = one.scale(Scalar(rat(n)))
    for i in range(k):
        t0 = t0 - number[i]
    for j in range(r):
        t0 = t0 - th[j] * dth[j]
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
    qa = Scalar(q_number(alpha, q))
    ahat = Scalar(q_alpha_hat(alpha, q))
    return {
        "J+": btil * btil * atil - btil.scale(qa),
        "J0": btil * atil - one.scale(ahat),
        "J-": atil,
    }


def metaplectic_triple(a, b):
    half = Scalar(rat(1, 2))
    quarter = Scalar(rat(-1, 4))
    return {
        "J+": (a * a).scale(half),
        "J0": (a * b + b * a).scale(quarter),
        "J-": (b * b).scale(half),
    }


def osp22_octet(a, b, th_dth, n: Rational):
    """th_dth is the even element th*dth of the single fermionic mode."""
    half = Scalar(rat(1, 2))
    nn = Scalar(rat(n))
    sl2 = sl2_triple(a, b, n)
    return {
        "T+": sl2["J+"] + b * th_dth,
        "T0": sl2["J0"] + th_dth.scale(half),
        "T-": a,
        "J": th_dth.scale(-half) - nn * half,
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
    d = Scalar(delta)
    ahat = Scale(d.inverse(),
                 Sum([ExpA(modes, mode, d), Scale(Scalar(-1), identity_op(modes))]))
    bhat = Product([Poly(WeylElement.b(modes, mode)), ExpA(modes, mode, -d)])
    return ahat, bhat


@dataclass
class Kit:
    """One implementation of the canonical pairs a family formula is written
    in: a[i], b[i] per bosonic mode, th[j], dth[j] per fermionic mode, and
    the identity."""

    a: list
    b: list
    th: list
    dth: list
    one: object


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
    gens["Qb1"] = b * a * th - th.scale(Scalar(rat(n)))
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
                                               p["n"]),
    "glk": lambda kit, p: glk_family(kit.a, kit.b, p["n"]),
    "gl_super": lambda kit, p: gl_super_family(kit.a, kit.b, kit.th, kit.dth, p["n"],
                                               kit.one),
    "osp22_translated": lambda kit, p: _osp22_gens(kit.a[0], kit.b[0], kit.th[0],
                                                   kit.dth[0], p["n"]),
}


# -- the sixteen builders ---------------------------------------------------------


def _degree_space(n: int, weights, expected: int, desc: str) -> InvariantSpace:
    def pred(alpha, beta):
        if beta:
            return False
        return sum(w * k for w, k in zip(weights, alpha)) <= n

    return InvariantSpace(pred, n, expected, desc)


def _sl2(rep_id, params, deltas, description):
    """sl2_standard, sl2_translated and sl2_oscillator: the sl2 formula over
    the plain or the shift-transformed pair."""
    ni = _finite(params["n"])
    inv = None if ni is None else _degree_space(ni, (1,), ni + 1, "span(1, b, ..., b^n)")
    gens = FORMULAS["sl2_translated"](fock_kit(ModeSystem(1, 0), deltas), params)
    return RepSpec(rep_id, params, gens, list(SL2_RELATIONS),
                   casimir=sl2_casimir(params["n"]), invariant_space=inv,
                   claims=Claims(irreducible=True if inv else None),
                   description=description)


def _build_sl2_standard(params):
    return _sl2("sl2_standard", params, None,
                "sl2 on one bosonic mode, lowest polynomial family")


def _build_sl2_translated(params):
    rep = _sl2("sl2_translated", params, [params["delta"]], "sl2, shift-transform family")
    modes = rep.modes
    d = Scalar(rat(params["delta"]))
    nn = Scalar(rat(params["n"]))
    b = Poly(WeylElement.b(modes))
    # displayed closed forms: (b/d - 1) b e^{-da} (1-n-e^{-da});
    # (b/d)(1-e^{-da}) - n/2;  (e^{da}-1)/d
    eminus = ExpA(modes, 1, -d)
    disp_jp = Product([
        b * b.scale(d.inverse()) - b,
        eminus,
        Sum([identity_op(modes).scale(ONE - nn), Scale(Scalar(-1), eminus)]),
    ])
    disp_j0 = Sum([
        Product([b.scale(d.inverse()),
                 Sum([identity_op(modes), Scale(Scalar(-1), eminus)])]),
        identity_op(modes).scale(-nn * Scalar(rat(1, 2))),
    ])
    disp_jm = Scale(d.inverse(), Sum([ExpA(modes, 1, d),
                                      Scale(Scalar(-1), identity_op(modes))]))
    rep.alt_forms = [AltForm("J+", disp_jp), AltForm("J0", disp_j0),
                     AltForm("J-", disp_jm)]
    return rep


def _build_sl2_oscillator(params):
    # Normative: the oscillator pair is itself canonical, so after rewriting
    # in that pair the generators act on the standard Fock space as the base
    # triple.  The displayed cubic forms are recorded in the original pair,
    # here expressed through the inverse rewriting a -> (a-b)/s2, b -> (a+b)/s2.
    rep = _sl2("sl2_oscillator", params, None, "sl2, oscillator (rotated-pair) family")
    n = params["n"]
    inv_s2 = Scalar.sqrt2().inverse()
    A, B = WeylElement.a(rep.modes), WeylElement.b(rep.modes)
    aa = (A - B).scale(inv_s2)  # original lowering operator
    bb = (A + B).scale(inv_s2)  # original raising operator
    two_n1 = Scalar(2 * rat(n) + 1)
    disp_jp = Poly((bb ** 3 + aa ** 3 - bb * (bb + aa) * aa
                    - (bb - aa).scale(two_n1) - bb.scale(2)).scale(inv_s2 ** 3))
    disp_j0 = Poly((bb ** 2 - aa ** 2 - WeylElement.scalar(rep.modes, rat(n) + 1))
                   .scale(Scalar(rat(1, 2))))
    disp_jm = Poly((bb + aa).scale(inv_s2))
    rep.alt_forms = [AltForm("J+", disp_jp), AltForm("J0", disp_j0),
                     AltForm("J-", disp_jm)]
    return rep


def _build_sl2_metaplectic(params):
    gens = FORMULAS["sl2_metaplectic"](fock_kit(ModeSystem(1, 0)), params)
    return RepSpec(
        "sl2_metaplectic", params, gens, list(SL2_RELATIONS),
        casimir=CasimirSpec(list(SL2_CASIMIR_TERMS), Scalar(rat(3, 16))),
        description="sl2, metaplectic (half-quadratic) family, infinite-dimensional")


def _build_sl2_clifford(params):
    modes = ModeSystem(0, 1)
    th = WeylElement.theta(modes, 1)
    dth = WeylElement.dtheta(modes, 1)
    acl = th + dth                                  # squares to 1
    bcl = WeylElement.one(modes) - (th * dth).scale(2)  # squares to 1, anticommutes
    gens = {"J1": Poly(acl), "J2": Poly(bcl), "J3": Poly(acl * bcl)}
    return RepSpec(
        "sl2_clifford", params, gens, default_cutoff=2,
        description="sl2 inside the rank-2 Clifford algebra (2x2 matrices)")


def _build_sl2_vector_field(params):
    kit = fock_kit(ModeSystem(2, 0))
    (a1, a2), (b1, b2) = kit.a, kit.b
    gens = {"J1": b1 * a2, "J2": b2 * a1, "J3": b1 * a1 - b2 * a2}
    return RepSpec(
        "sl2_vector_field", params, gens,
        invariant_space=_degree_space(1, (1, 1), 3, "span(1, b1, b2)"),
        claims=Claims(irreducible=False), default_cutoff=4,
        description="sl2 by degree-preserving vector fields on two modes, reducible")


def _sl3(rep_id, params, deltas, description):
    """sl3_fock and sl3_translated: the sl3 formula over the plain or the
    per-mode shift-transformed pairs."""
    ni = _finite(params["n"])
    inv = None if ni is None else _degree_space(ni, (1, 1), (ni + 1) * (ni + 2) // 2,
                                                "span(b1^n1 b2^n2 : n1+n2 <= n)")
    gens = FORMULAS["sl3_translated"](fock_kit(ModeSystem(2, 0), deltas), params)
    return RepSpec(rep_id, params, gens, invariant_space=inv, description=description)


def _build_sl3_fock(params):
    return _sl3("sl3_fock", params, None, "sl3 on two bosonic modes")


def _build_sl3_translated(params):
    return _sl3("sl3_translated", params, [params["delta1"], params["delta2"]],
                "sl3, per-mode shift-transform family")


def _build_sl3_seven(params):
    m, n = params["m"], params["n"]
    modes = ModeSystem(3, 0)
    kit = fock_kit(modes)
    a1, a2, a3 = kit.a
    b1, b2, b3 = kit.b
    mm, nn = Scalar(rat(m)), Scalar(rat(n))
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
    return RepSpec(
        "sl3_seven", params, gens, default_cutoff=6,
        description="sl3 on three bosonic modes (flag coordinates), two parameters")


def _build_gl2_semidirect(params):
    r = _require_int(params["r"], "r")
    n = params["n"]
    if r < 1:
        raise CatalogueError("r must be a positive integer")
    kit = fock_kit(ModeSystem(2, 0))
    (a1, a2), (b1, b2) = kit.a, kit.b
    nn = rat(n)
    gens = {
        "J1": a1,
        "J2": b1 * a1 - Scalar(nn / 3),
        "J3": b2 * a2 - Scalar(nn / (3 * r)),
        "J4": b1 * b1 * a1 + (b1 * b2 * a2).scale(r) - b1.scale(Scalar(nn)),
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
        default_cutoff=(ni + 2 * r if inv else 8),
        description="gl2 semidirect with an (r+1)-dimensional abelian ideal")


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
        claims=Claims(irreducible=True if inv else None),
        description="gl_k on its minimal (k-1)-mode Fock space")


OSP22_PARITIES = {"T+": 0, "T0": 0, "T-": 0, "J": 0,
                  "Q1": 1, "Q2": 1, "Qb1": 1, "Qb2": 1}


def _osp22_invariant(ni: int) -> InvariantSpace:
    def pred(alpha, beta):
        if beta == 0:
            return alpha[0] <= ni
        if beta == 1:
            return alpha[0] <= ni - 1
        return False

    return InvariantSpace(pred, ni, 2 * ni + 1,
                          "span(b^k : k <= n) + span(b^k th : k <= n-1)")


def _osp22(rep_id, params, deltas, description):
    """osp22 and osp22_translated: the osp(2,2) formula over the plain or the
    shift-transformed bosonic pair."""
    ni = _finite(params["n"])
    gens = FORMULAS["osp22_translated"](fock_kit(ModeSystem(1, 1), deltas), params)
    return RepSpec(
        rep_id, params, gens, list(OSP22_RELATIONS), dict(OSP22_PARITIES),
        invariant_space=None if ni is None else _osp22_invariant(ni),
        claims=Claims(superalgebra=True), description=description)


def _build_osp22(params):
    return _osp22("osp22", params, None,
                  "osp(2,2) on the spinorial (one boson + one fermion) Fock space")


def _build_osp22_translated(params):
    rep = _osp22("osp22_translated", params, [params["delta"]],
                 "osp(2,2), shift-transform family")
    modes = rep.modes
    d = Scalar(rat(params["delta"]))
    nn = Scalar(rat(params["n"]))
    half = Scalar(rat(1, 2))
    b = Poly(WeylElement.b(modes))
    th, dth = Poly(WeylElement.theta(modes, 1)), Poly(WeylElement.dtheta(modes, 1))
    one = identity_op(modes)
    thdth = th * dth
    eminus = ExpA(modes, 1, -d)
    eplus = ExpA(modes, 1, d)
    # displayed closed forms of the shift-transformed family
    disp = {
        "T+": Product([b * b.scale(d.inverse()) - b, eminus,
                       Sum([one.scale(ONE - nn) + thdth, Scale(Scalar(-1), eminus)])]),
        "T0": Sum([Product([b.scale(d.inverse()),
                            Sum([one, Scale(Scalar(-1), eminus)])]),
                   thdth.scale(half) - one.scale(nn * half)]),
        "T-": Scale(d.inverse(), Sum([eplus, Scale(Scalar(-1), one)])),
        "J": one.scale(-half) - thdth.scale(half),
        "Q1": dth,
        "Q2": Product([b, eminus, dth]),
        "Qb1": Scale(d.inverse(),
                     Sum([b * th - th.scale(nn),
                          Scale(Scalar(-1), Product([b * th, eminus]))])),
        "Qb2": Scale(d.inverse(), Sum([th, Scale(Scalar(-1), Product([th, eplus]))])),
    }
    rep.alt_forms = [AltForm(name, expr) for name, expr in disp.items()]
    return rep


def _build_osp22_metaplectic(params):
    modes = ModeSystem(1, 1)
    A, B = WeylElement.a(modes), WeylElement.b(modes)
    TH, DTH = WeylElement.theta(modes, 1), WeylElement.dtheta(modes, 1)
    half = Scalar(rat(1, 2))
    quarter = Scalar(rat(1, 4))
    inv_s2 = Scalar.sqrt2().inverse()
    gens = {
        "T+": Poly((A ** 2).scale(half)),
        "T0": Poly((A * B + B * A).scale(-quarter)),
        "T-": Poly((B ** 2).scale(half)),
        "J": Poly(WeylElement.scalar(modes, quarter) - (TH * DTH).scale(half)),
        "Q1": Poly((B * DTH).scale(-inv_s2)),
        "Q2": Poly((A * DTH).scale(inv_s2)),
        "Qb1": Poly((A * TH).scale(inv_s2)),
        "Qb2": Poly((B * TH).scale(inv_s2)),
    }
    return RepSpec(
        "osp22_metaplectic", params, gens, list(OSP22_RELATIONS), dict(OSP22_PARITIES),
        claims=Claims(superalgebra=True),
        description="osp(2,2), super-metaplectic family, infinite-dimensional")


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

        def pred(alpha, beta):
            return sum(alpha) + beta.bit_count() <= ni

        inv = InvariantSpace(pred, ni, expected,
                             "span(b^alpha th^beta : |alpha|+|beta| <= n)")
    return RepSpec(
        "gl_super", params, gens,
        parities={name: g.as_weyl().parity() for name, g in gens.items()},
        invariant_space=inv,
        claims=Claims(superalgebra=True, irreducible=True if inv else None),
        description="gl(k+1,r+1) superalgebra on k bosonic + r fermionic modes")


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
    c0 = Scalar((q ** (-al) / (q + 1)) * (q_number(2 * al + 2, q) / q_number(al + 1, q)))
    qs = Scalar(q)
    relations = [
        RelationClaim("j0 j+ - q j+ j0 = j+",
                      [(c0, ("J0", "J+")), (-(qs * c0), ("J+", "J0"))],
                      gen("J+"), "q1"),
        RelationClaim("q^2 j+ j- - j- j+ = -(q+1) j0",
                      [(Scalar(q ** (2 - al)), ("J+", "J-")),
                       (-Scalar(q ** (-al)), ("J-", "J+"))],
                      [(-(qs + ONE) * c0, ("J0",))], "q2"),
        RelationClaim("q j0 j- - j- j0 = -j-",
                      [(qs * c0, ("J0", "J-")), (-c0, ("J-", "J0"))],
                      gen("J-", -1), "q3"),
    ]
    casimir = CasimirSpec(
        [(qs, ("J+", "J-")), (Scalar(-1), ("J0", "J0")),
         (Scalar(q_number(al + 1, q) - 2 * ahat), ("J0",))],
        Scalar(ahat * (ahat - q_number(al + 1, q))),
        name="q-C2")
    inv = None
    if al >= 0:
        inv = _degree_space(al, (1,), al + 1, "span(1, btilde, ..., btilde^n)|0>")
    alt = []
    if delta != 0:
        # the displayed transformed lowering operator carries a 1/(b+delta)
        # prefactor; equal to the normative one via (b+d)^-1 e^{da} = e^{da} b^-1
        d = Scalar(delta)
        qpart = Scale(Scalar(q - 1).inverse(),
                      Sum([QSpectral(modes, 1, q, delta),
                           Scale(Scalar(-1), identity_op(modes))]))
        alt.append(AltForm("J-", Product([LeftDivB(modes, 1, d),
                                          ExpA(modes, 1, d), qpart])))
    return RepSpec(
        "sl2q", params, gens, relations,
        casimir=casimir, invariant_space=inv,
        claims=Claims(closes=False, irreducible=True if inv else None),
        alt_forms=alt,
        description="quantum sl2 over the q-deformed pair"
                    + (" (shift-transformed)" if delta != 0 else " (spectral)"))


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
