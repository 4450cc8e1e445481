"""Concrete function-space realizations with exact cross-checks.

Operators act on polynomials in x_1..x_p with values in the 2^r-dimensional
spinor space: the leaves here (x-multiplication, derivative, binomial
translation, finite differences, the Jackson derivative and Pauli-Kronecker
matrices) are fock expression nodes, combined and evaluated by fock's own
arithmetic.  Finite-difference operators act through exact binomial
expansions of f(x +- d); there is no grid or sampling anywhere, so the
action is exact at every degree.

Cross-checks compare the matrices produced here, column by column on the
shared graded basis, against the abstract Fock matrices of the catalogue.
"""

from __future__ import annotations

import dataclasses
from math import comb

from .catalogue import (FORMULAS, Kit, RepSpec, build, fock_kit, gl_super_family,
                        glk_family, sl2q_triple)
from .fock import (FockVector, LeftDivB, MatrixRep, OperatorExpr, Poly, Product,
                   QSpectral, Scale, Sum, accumulate, identity_op, to_matrix)
from .scalars import ONE, Scalar, rat
from .verify import CheckResult, AltFormResult
from .weyl import ModeSystem, WeylElement, _mask_to_list


class RealizeError(ValueError):
    """The requested realization kind does not apply to this family."""


# -- function-space operators -----------------------------------------------------
#
# Each leaf is a fock expression node on the Fock-vector keys read as
# polynomials: (exps, smask) is the monomial x^exps with values in the
# spinor basis vector of mask smask, so fock's Sum/Product/Scale combine
# them and fock's to_matrix and check_identity evaluate them.


class Partial(OperatorExpr):
    """d/dx_i."""

    def __init__(self, modes: ModeSystem, i: int):
        self.modes = modes
        self.i = i - 1

    def max_raise(self):
        return -1

    def apply(self, vec):
        out = {}
        for (e, s), c in vec.terms.items():
            k = e[self.i]
            if k:
                accumulate(out, (e[:self.i] + (k - 1,) + e[self.i + 1:], s), c * k)
        return FockVector(vec.modes, out)


class MultX(OperatorExpr):
    """Multiplication by x_i."""

    def __init__(self, modes: ModeSystem, i: int):
        self.modes = modes
        self.i = i - 1

    def max_raise(self):
        return 1

    def apply(self, vec):
        out = {}
        for (e, s), c in vec.terms.items():
            accumulate(out, (e[:self.i] + (e[self.i] + 1,) + e[self.i + 1:], s), c)
        return FockVector(vec.modes, out)


class ShiftX(OperatorExpr):
    """f(x) -> f(x + d) in one variable, by exact binomial expansion."""

    def __init__(self, modes: ModeSystem, i: int, delta):
        self.modes = modes
        self.i = i - 1
        self.delta = Scalar.of(delta)

    def max_raise(self):
        return 0

    def apply(self, vec):
        out = {}
        powers = [ONE]
        for (e, s), c in vec.terms.items():
            k = e[self.i]
            while len(powers) <= k:
                powers.append(powers[-1] * self.delta)
            for j in range(k + 1):
                coeff = c * comb(k, j) * powers[j] if j else c
                accumulate(out, (e[:self.i] + (k - j,) + e[self.i + 1:], s), coeff)
        return FockVector(vec.modes, out)


class Dplus(OperatorExpr):
    """(f(x+d) - f(x))/d."""

    def __init__(self, modes: ModeSystem, i: int, delta):
        self.modes = modes
        self.delta = Scalar.of(delta)
        if self.delta.is_zero():
            raise ValueError("finite difference needs delta != 0")
        self.inv = self.delta.inverse()
        self.shift = ShiftX(modes, i, self.delta)

    def max_raise(self):
        return -1

    def apply(self, vec):
        inv = self.inv
        out = {}
        for k, v in self.shift.apply(vec).terms.items():
            accumulate(out, k, v * inv)
        for k, v in vec.terms.items():
            accumulate(out, k, -(v * inv))
        return FockVector(vec.modes, out)


def Dminus(modes: ModeSystem, i: int, delta) -> Dplus:
    """(f(x) - f(x-d))/d, which is Dplus with d negated."""
    return Dplus(modes, i, -Scalar.of(delta))


class JacksonX(OperatorExpr):
    """(f(qx) - f(x))/(x(q-1)); the constant term cancels before dividing."""

    def __init__(self, modes: ModeSystem, i: int, q):
        self.modes = modes
        self.i = i - 1
        self.q = rat(q)
        if self.q == 1:
            raise ValueError("q = 1 not allowed")

    def max_raise(self):
        return -1

    def apply(self, vec):
        out = {}
        inv = rat(1) / (self.q - 1)
        for (e, s), c in vec.terms.items():
            k = e[self.i]
            if k == 0:
                continue
            coeff = c * Scalar((self.q ** k - 1) * inv)
            accumulate(out, (e[:self.i] + (k - 1,) + e[self.i + 1:], s), coeff)
        return FockVector(vec.modes, out)


# -- Clifford (Pauli-Kronecker) matrices ---------------------------------------------


SIGMA_PLUS = ((0, 1), (0, 0))
SIGMA_MINUS = ((0, 0), (1, 0))
SIGMA_ZERO = ((1, 0), (0, -1))
SIGMA_ID = ((1, 0), (0, 1))


def _kron(mats):
    """Kronecker product of 2x2 integer matrices; first factor most significant."""
    out = [[1]]
    for m in mats:
        size = 2 * len(out)
        new = [[0] * size for _ in range(size)]
        for i in range(len(out)):
            for j in range(len(out)):
                v = out[i][j]
                if v:
                    for a in range(2):
                        for bcol in range(2):
                            if m[a][bcol]:
                                new[i * 2 + a][j * 2 + bcol] = v * m[a][bcol]
        out = new
    return out


class CliffordMatrices:
    """Exact 2^r x 2^r matrices for the fermionic pairs via Pauli products.

    a_f[i] = s0 x ... x s0 x s+ x 1 x ... x 1  (s+ in slot i), b_f[i] with
    s-.  Row/column indices are spinor masks: bit j-1 set means the j-th
    fermionic level is occupied, matching the abstract basis keys.
    """

    def __init__(self, r: int):
        self.r = r
        self.dim = 1 << r
        self.a_f = [self._slot(i, SIGMA_PLUS) for i in range(1, r + 1)]
        self.b_f = [self._slot(i, SIGMA_MINUS) for i in range(1, r + 1)]

    def _slot(self, i: int, middle):
        mats = [SIGMA_ZERO] * (i - 1) + [middle] + [SIGMA_ID] * (self.r - i)
        dense = _kron(mats)
        entries = {}
        for row in range(self.dim):
            for col in range(self.dim):
                v = dense[row][col]
                if v:
                    entries[(self._to_mask(row), self._to_mask(col))] = Scalar(v)
        return entries

    def _to_mask(self, kron_index: int) -> int:
        # kron slot j (1-based) is digit 2^(r-j); occupation of level j is bit j-1
        mask = 0
        for j in range(1, self.r + 1):
            if (kron_index >> (self.r - j)) & 1:
                mask |= 1 << (j - 1)
        return mask

    @staticmethod
    def matmul(x: dict, y: dict) -> dict:
        out = {}
        for (i, k), v in x.items():
            for (k2, j), w in y.items():
                if k == k2:
                    accumulate(out, (i, j), v * w)
        return out

    @staticmethod
    def identity(r: int) -> dict:
        return {(s, s): ONE for s in range(1 << r)}

    @staticmethod
    def anticommutator(x: dict, y: dict) -> dict:
        out = dict(CliffordMatrices.matmul(x, y))
        for k, v in CliffordMatrices.matmul(y, x).items():
            accumulate(out, k, v)
        return out


class Cliff(OperatorExpr):
    """Multiplication by a fixed spinor-space matrix."""

    def __init__(self, modes: ModeSystem, entries: dict):
        self.modes = modes
        self.by_col: dict = {}
        for (row, col), v in entries.items():
            self.by_col.setdefault(col, []).append((row, v))
        self._raise = max((row.bit_count() - col.bit_count() for row, col in entries),
                          default=0)

    def max_raise(self):
        return self._raise

    def apply(self, vec):
        out = {}
        for (e, s), c in vec.terms.items():
            for row, v in self.by_col.get(s, ()):
                accumulate(out, (e, row), c * v)
        return FockVector(vec.modes, out)


# -- generic differential relabeling ----------------------------------------------


def weyl_to_differential(w: WeylElement, cliff: CliffordMatrices = None) -> OperatorExpr:
    """b_i -> x_i, a_i -> d/dx_i, th/dth -> Pauli matrices, exactly."""
    modes = w.modes
    r = modes.fermionic
    if cliff is None and r:
        cliff = CliffordMatrices(r)
    parts = []
    for (bp, ap, th, dth), c in w.sorted_terms():
        factors = []
        for i, k in enumerate(bp):
            factors.extend([MultX(modes, i + 1)] * k)
        for i, k in enumerate(ap):
            factors.extend([Partial(modes, i + 1)] * k)
        if th or dth:
            mat = CliffordMatrices.identity(r)
            for j in _mask_to_list(th):
                mat = CliffordMatrices.matmul(mat, cliff.b_f[j - 1])
            for j in _mask_to_list(dth):
                mat = CliffordMatrices.matmul(mat, cliff.a_f[j - 1])
            factors.append(Cliff(modes, mat))
        parts.append(Scale(c, Product(factors) if factors else identity_op(modes)))
    return Sum(parts) if parts else Poly(WeylElement.zero(modes))


# -- matrices on the shared graded basis ----------------------------------------------


def poly_to_matrix(op: OperatorExpr, cutoff: int, name: str = "") -> MatrixRep:
    """The realized side of a cross check, on the shared graded basis."""
    return to_matrix(op, cutoff, name)


def _first_difference(realized: MatrixRep, abstract: MatrixRep) -> str:
    """"" when both have the same overflow columns and equal entries in
    every other column; otherwise the first difference."""
    if set(realized.overflow_columns) != set(abstract.overflow_columns):
        return "overflow columns differ: %s vs %s" % (realized.overflow_columns,
                                                      abstract.overflow_columns)
    overflow = set(realized.overflow_columns)
    for j in range(realized.dim):
        if j not in overflow and realized.cols[j] != abstract.cols[j]:
            return "column %d differs: realized %s, abstract %s" % (
                j, realized.cols[j], abstract.cols[j])
    return ""


# -- realizations per family -------------------------------------------------------------


def fd_pair(modes: ModeSystem, i: int, delta) -> tuple:
    """The finite-difference canonical pair a = D+, b = x(1 - d D-)."""
    delta = Scalar.of(delta)
    return (Dplus(modes, i, delta),
            MultX(modes, i) * (identity_op(modes) + Dminus(modes, i, delta).scale(-delta)))


def fd_kit(modes: ModeSystem, deltas) -> Kit:
    """The finite-difference pairs per bosonic mode and the Pauli-Kronecker
    matrices per fermionic mode."""
    pairs = [fd_pair(modes, i + 1, deltas[i]) for i in range(modes.bosonic)]
    cliff = CliffordMatrices(modes.fermionic)
    return Kit([a for a, _ in pairs], [b for _, b in pairs],
               [Cliff(modes, m) for m in cliff.b_f], [Cliff(modes, m) for m in cliff.a_f],
               identity_op(modes))


def _fd_formula(rep: RepSpec):
    formula = FORMULAS.get(rep.rep_id)
    if formula is None:
        raise RealizeError("no finite-difference realization for %s" % rep.rep_id)
    return formula


def realize_generators(rep: RepSpec, kind: str, deltas=None):
    """Named operators realizing the family in the requested function space.

    kind 'differential': generic relabeling of polynomial generators.
    kind 'fd': the family's catalogue formula over fd_kit (deltas from the
    rep's parameters; uniform delta for glk, gl_super and the metaplectic
    family).
    kind 'jackson': the Jackson-derivative pair for the deformed family.
    """
    modes = rep.modes
    if kind == "differential":
        if not rep.is_polynomial():
            raise RealizeError("%s has no polynomial differential form" % rep.rep_id)
        cliff = CliffordMatrices(modes.fermionic) if modes.fermionic else None
        return {name: weyl_to_differential(g.as_weyl(), cliff)
                for name, g in rep.generators.items()}
    if kind == "fd":
        return _fd_formula(rep)(fd_kit(modes, deltas or fd_deltas(rep)), rep.params)
    if kind == "jackson":
        if rep.rep_id != "sl2q":
            raise RealizeError("the Jackson realization applies to sl2q only")
        q = rat(rep.params["q"])
        alpha = int(rep.params["alpha"])
        return sl2q_triple(JacksonX(modes, 1, q), MultX(modes, 1), alpha, q,
                           identity_op(modes))
    raise RealizeError("unknown realization kind %r" % kind)


def fd_deltas(rep: RepSpec) -> list:
    """Per-mode shift steps used by the fd realization of this family."""
    p = rep.modes.bosonic
    params = rep.params
    if "delta" in params:
        return [rat(params["delta"])] * p
    if "delta1" in params:
        return [rat(params["delta%d" % (i + 1)]) for i in range(p)]
    return [rat(1)] * p  # families whose catalogue form carries no delta


def abstract_counterpart(rep: RepSpec, kind: str, deltas=None) -> RepSpec:
    """The catalogue family whose Fock matrices the realization must equal.

    The differential relabeling compares against the representation itself.
    The fd realization puts the fd pairs into the family's formula, and the
    fd pair is the coordinate image of the shift-transformed pair, so the
    counterpart is the same formula over the shift kit with the same deltas;
    a *_translated family built with its own deltas already is that.  The
    Jackson pair realizes the spectral sl2q, so its counterpart is the
    delta = 0 build whatever the rep's delta.
    """
    if kind == "differential":
        return rep
    if kind == "jackson":
        if rep.params.get("delta"):
            return build("sl2q", {**rep.params, "delta": rat(0)})
        return rep
    if kind == "fd":
        formula = _fd_formula(rep)
        if deltas is None and rep.rep_id.endswith("_translated"):
            return rep  # the catalogue built it over the same shift kit
        kit = fock_kit(rep.modes, deltas or fd_deltas(rep))
        return dataclasses.replace(rep, generators=formula(kit, rep.params))
    raise ValueError(kind)


def cross_check(rep: RepSpec, kind: str, cutoff: int = None, deltas=None) -> list:
    """Realized matrices must equal the abstract Fock matrices exactly.

    Columns are compared on the shared graded basis; overflow column sets
    must agree and are excluded from entry comparison only when flagged on
    both sides.
    """
    cutoff = rep.default_cutoff if cutoff is None else cutoff
    realized = realize_generators(rep, kind, deltas)
    abstract = abstract_counterpart(rep, kind, deltas)
    results = []
    for name, op in realized.items():
        mat_r = poly_to_matrix(op, cutoff, name)
        mat_a = to_matrix(abstract.generator(name), cutoff, name)
        diff = _first_difference(mat_r, mat_a)
        if diff:
            results.append(CheckResult("cross %s %s" % (kind, name), "FAIL", "", diff))
        else:
            results.append(CheckResult("cross %s %s" % (kind, name), "PASS",
                                       "dim %d, cutoff %d" % (mat_r.dim, cutoff)))
    return results


# -- displayed finite-difference forms --------------------------------------------------


def fd_displayed_forms(rep: RepSpec, deltas=None):
    """The explicitly displayed fd closed forms, as secondary checkable claims."""
    rid = rep.rep_id
    n = rep.params.get("n")
    modes = rep.modes
    deltas = deltas or fd_deltas(rep)
    kit = fd_kit(modes, deltas)
    x = [MultX(modes, i + 1) for i in range(modes.bosonic)]
    dm = [Dminus(modes, i + 1, deltas[i]) for i in range(modes.bosonic)]
    # the displayed number operator x D- where the formula has b a
    number = [x[i] * dm[i] for i in range(modes.bosonic)]
    if rid == "sl2_translated":
        return _fd_sl2_displayed(modes, n, deltas[0])
    if rid == "sl2_metaplectic":
        d = Scalar.of(deltas[0])
        half = Scalar(rat(1, 2))
        return {
            "J+": (kit.a[0] ** 2).scale(half),
            "J0": (number[0] - half).scale(-half),
            # displayed with the minus sign on the d^2 D-^2 term
            "J-": (x[0] * (x[0] - d) * (identity_op(modes) + dm[0].scale(-(d + d))
                                        + (dm[0] ** 2).scale(-(d * d)))).scale(half),
        }
    if rid == "sl3_translated":
        num = number[0] + number[1] - Scalar(rat(n))
        return {
            "J1+": kit.b[0] * num,
            "J2+": kit.b[1] * num,
            "J1-": kit.a[0],
            "J2-": kit.a[1],
            "J0_21": kit.b[1] * kit.a[0],
            "J0_12": kit.b[0] * kit.a[1],
            "J0_1": number[0] - number[1],
            "J0_2": number[0] + number[1] - Scalar(rat(2, 3) * rat(n)),
        }
    if rid == "glk":
        return glk_family(kit.a, kit.b, n, number)
    if rid == "gl_super":
        return gl_super_family(kit.a, kit.b, kit.th, kit.dth, n, kit.one, number)
    if rid == "osp22_translated":
        proj_up = Cliff(modes, {(0, 0): ONE})    # spinor level empty
        proj_dn = Cliff(modes, {(1, 1): ONE})    # spinor level occupied
        sp, sm = kit.dth[0], kit.th[0]
        jp_n = _fd_sl2_displayed(modes, n, deltas[0])["J+"]
        jp_n1 = _fd_sl2_displayed(modes, rat(n) - 1, deltas[0])["J+"]
        half = Scalar(rat(1, 2))
        nn = Scalar(rat(n))
        return {
            "T+": jp_n * proj_up + jp_n1 * proj_dn,
            "T0": (number[0] - nn * half) * proj_up
                  + (number[0] - (nn - ONE) * half) * proj_dn,
            "T-": kit.a[0],
            "J": proj_up.scale(-(nn * half)) + proj_dn.scale(-((nn + ONE) * half)),
            "Q1": sp,
            "Q2": kit.b[0] * sp,
            "Qb1": (number[0] - nn) * sm,
            "Qb2": -kit.a[0] * sm,
        }
    raise RealizeError("no displayed fd forms for %s" % rid)


def _fd_sl2_displayed(modes, n, delta):
    d = Scalar.of(delta)
    nn = Scalar(rat(n))
    x = MultX(modes, 1)
    dm = Dminus(modes, 1, d)
    jp = (x * (identity_op(modes) + x.scale(-d.inverse()))
          * ((dm ** 2).scale(d * d) + dm.scale(-((nn + ONE) * d)) + nn))
    return {
        "J+": jp,
        "J0": x * dm - nn * Scalar(rat(1, 2)),
        "J-": Dplus(modes, 1, d),
    }


def check_fd_displayed(rep: RepSpec, cutoff: int = None, deltas=None) -> list:
    """Compare displayed fd closed forms with the normative fd realization."""
    cutoff = rep.default_cutoff if cutoff is None else cutoff
    normative = realize_generators(rep, "fd", deltas)
    displayed = fd_displayed_forms(rep, deltas)
    out = []
    for name, disp in displayed.items():
        mat_d = poly_to_matrix(disp, cutoff, name)
        mat_n = poly_to_matrix(normative[name], cutoff, name)
        same = not _first_difference(mat_d, mat_n)
        out.append(AltFormResult(name, "MATCH" if same else "DIFFERS",
                                 "" if same else "displayed fd form differs"))
    return out


# -- sl2q: the q-pair relation in function space ------------------------------------------


def q_pair_fd(q, delta):
    """The displayed transformed q-pair in finite-difference form:
    atil = (x + d)^{-1} (1 + d D+) (q^{x D-} - 1)/(q - 1), btil = x(1 - d D-)."""
    modes = ModeSystem(1, 0)
    q = rat(q)
    d = Scalar(rat(delta))
    one = identity_op(modes)
    a, btil = fd_pair(modes, 1, d)
    atil = (LeftDivB(modes, 1, d) * (a.scale(d) + one)
            * (QSpectral(modes, 1, q, rat(delta)) - one).scale(Scalar(q - 1).inverse()))
    return atil, btil
