"""Concrete function-space realizations with exact cross-checks.

An independent evaluation engine: operators act on polynomial coefficient
dicts (monomial exponent tuple, spinor index) -> Scalar, with the fermionic
factor realized by explicit Pauli-Kronecker matrices.  Finite-difference
operators act through exact binomial expansions of f(x +- d); there is no
grid or sampling anywhere, so the action is exact at every degree.

Cross-checks compare the matrices produced here, column by column on the
shared graded basis, against the abstract Fock matrices of the catalogue.
"""

from __future__ import annotations

import dataclasses
from math import comb

from .catalogue import FORMULAS, Kit, RepSpec, build, fock_kit, sl2q_triple
from .fock import MatrixRep, basis_states, matrix_columns, to_matrix
from .scalars import ONE, ZERO, Scalar, rat
from .verify import CheckResult, AltFormResult
from .weyl import ModeSystem, WeylElement, _mask_to_list


class RealizeError(ValueError):
    """The requested realization kind does not apply to this family."""


# -- polynomial-space operators ---------------------------------------------------
#
# A "poly vector" is a dict (exps, smask) -> Scalar: a polynomial in p
# variables with values in the 2^r-dimensional spinor space.


def _acc(out, key, c):
    cur = out.get(key)
    s = c if cur is None else cur + c
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


class PolyOp:
    """Base class for exact operators on polynomial coefficient dicts."""

    def apply(self, terms: dict) -> dict:
        raise NotImplementedError

    def _coerce(self, other):
        if isinstance(other, PolyOp):
            return other
        return PScale(Scalar.of(other), PIdent())

    def __mul__(self, other):
        return PCompose([self, self._coerce(other)])

    def __rmul__(self, other):
        return self.scale(other)

    def __add__(self, other):
        return PSum([self, self._coerce(other)])

    __radd__ = __add__

    def __sub__(self, other):
        return PSum([self, PScale(Scalar(-1), self._coerce(other))])

    def __rsub__(self, other):
        return PSum([self._coerce(other), PScale(Scalar(-1), self)])

    def __neg__(self):
        return PScale(Scalar(-1), self)

    def __pow__(self, n: int):
        out = PIdent()
        for _ in range(n):
            out = PCompose([out, self])
        return out

    def scale(self, c):
        return PScale(Scalar.of(c), self)


class PIdent(PolyOp):
    def apply(self, terms):
        return dict(terms)


class PScale(PolyOp):
    def __init__(self, coeff, inner: PolyOp):
        self.coeff = Scalar.of(coeff)
        self.inner = inner

    def apply(self, terms):
        if self.coeff.is_zero():
            return {}
        return {k: v * self.coeff for k, v in self.inner.apply(terms).items()}


class PSum(PolyOp):
    def __init__(self, parts):
        self.parts = list(parts)

    def apply(self, terms):
        out: dict = {}
        for p in self.parts:
            for k, v in p.apply(terms).items():
                _acc(out, k, v)
        return out


class PCompose(PolyOp):
    """Right-to-left composition, matching operator products."""

    def __init__(self, factors):
        self.factors = list(factors)

    def apply(self, terms):
        for f in reversed(self.factors):
            terms = f.apply(terms)
        return terms


class Partial(PolyOp):
    def __init__(self, i: int):
        self.i = i - 1

    def apply(self, terms):
        out = {}
        for (e, s), c in terms.items():
            k = e[self.i]
            if k:
                _acc(out, (e[:self.i] + (k - 1,) + e[self.i + 1:], s), c * k)
        return out


class MultX(PolyOp):
    def __init__(self, i: int):
        self.i = i - 1

    def apply(self, terms):
        out = {}
        for (e, s), c in terms.items():
            _acc(out, (e[:self.i] + (e[self.i] + 1,) + e[self.i + 1:], s), c)
        return out


class ShiftX(PolyOp):
    """f(x) -> f(x + d) in one variable, by exact binomial expansion."""

    def __init__(self, i: int, delta):
        self.i = i - 1
        self.delta = Scalar.of(delta)

    def apply(self, terms):
        out = {}
        powers = [ONE]
        for (e, s), c in terms.items():
            k = e[self.i]
            while len(powers) <= k:
                powers.append(powers[-1] * self.delta)
            for j in range(k + 1):
                coeff = c * comb(k, j) * powers[j] if j else c
                _acc(out, (e[:self.i] + (k - j,) + e[self.i + 1:], s), coeff)
        return out


class Dplus(PolyOp):
    """(f(x+d) - f(x))/d."""

    def __init__(self, i: int, delta):
        self.delta = Scalar.of(delta)
        if self.delta.is_zero():
            raise ValueError("finite difference needs delta != 0")
        self.shift = ShiftX(i, self.delta)

    def apply(self, terms):
        inv = self.delta.inverse()
        out = {}
        for k, v in self.shift.apply(terms).items():
            _acc(out, k, v * inv)
        for k, v in terms.items():
            _acc(out, k, -(v * inv))
        return out


def Dminus(i: int, delta) -> Dplus:
    """(f(x) - f(x-d))/d, which is Dplus with d negated."""
    return Dplus(i, -Scalar.of(delta))


class JacksonX(PolyOp):
    """(f(qx) - f(x))/(x(q-1)); the constant term cancels before dividing."""

    def __init__(self, i: int, q):
        self.i = i - 1
        self.q = rat(q)
        if self.q == 1:
            raise ValueError("q = 1 not allowed")

    def apply(self, terms):
        out = {}
        inv = rat(1) / (self.q - 1)
        for (e, s), c in terms.items():
            k = e[self.i]
            if k == 0:
                continue
            coeff = c * Scalar((self.q ** k - 1) * inv)
            _acc(out, (e[:self.i] + (k - 1,) + e[self.i + 1:], s), coeff)
        return out


class QPowX(PolyOp):
    """q^{x D-}: diagonal with eigenvalue q^k on x(x-d)...(x-(k-1)d)."""

    def __init__(self, i: int, q, delta):
        self.i = i - 1
        self.q = rat(q)
        self.delta = rat(delta)
        if self.delta == 0:
            raise ValueError("QPowX needs delta != 0; use scaling at delta = 0")

    def apply(self, terms):
        groups: dict = {}
        for (e, s), c in terms.items():
            rest = (e[:self.i] + e[self.i + 1:], s)
            groups.setdefault(rest, {})[e[self.i]] = c
        out: dict = {}
        for (rest, s), by_k in groups.items():
            K = max(by_k)
            coeffs = [by_k.get(k, ZERO) for k in range(K + 1)]
            newton = _poly_to_newton(coeffs, self.delta)
            newton = [c * Scalar(self.q ** k) for k, c in enumerate(newton)]
            back = _newton_to_poly(newton, self.delta)
            for k, c in enumerate(back):
                if not c.is_zero():
                    _acc(out, (rest[:self.i] + (k,) + rest[self.i:], s), c)
        return out


class DivX(PolyOp):
    """Exact division by (x_i + shift); fails when not exactly divisible."""

    def __init__(self, i: int, shift=0):
        self.i = i - 1
        self.shift = Scalar.of(shift)

    def apply(self, terms):
        if self.shift.is_zero():
            out = {}
            for (e, s), c in terms.items():
                if e[self.i] == 0:
                    raise ValueError("polynomial not divisible by x%d" % (self.i + 1))
                _acc(out, (e[:self.i] + (e[self.i] - 1,) + e[self.i + 1:], s), c)
            return out
        groups: dict = {}
        for (e, s), c in terms.items():
            rest = (e[:self.i] + e[self.i + 1:], s)
            groups.setdefault(rest, {})[e[self.i]] = c
        out: dict = {}
        for (rest, s), by_k in groups.items():
            K = max(by_k)
            coeffs = [by_k.get(k, ZERO) for k in range(K + 1)]
            w = [ZERO] * K
            for j in range(K, 0, -1):
                upper = w[j] if j < K else ZERO
                w[j - 1] = coeffs[j] - self.shift * upper
            residual = coeffs[0] - (self.shift * w[0] if K > 0 else ZERO)
            if not residual.is_zero():
                raise ValueError("polynomial not divisible by (x%d + %s)"
                                 % (self.i + 1, self.shift))
            for k, c in enumerate(w):
                if not c.is_zero():
                    _acc(out, (rest[:self.i] + (k,) + rest[self.i:], s), c)
        return out


def _poly_to_newton(coeffs, delta):
    coeffs = list(coeffs)
    out = []
    t = 0
    while coeffs:
        node = Scalar(t * delta)
        q = [ZERO] * (len(coeffs) - 1)
        carry = ZERO
        for j in range(len(coeffs) - 1, 0, -1):
            carry = coeffs[j] + node * carry
            q[j - 1] = carry
        out.append(coeffs[0] + node * carry if q else coeffs[0])
        coeffs = q
        t += 1
    return out


def _newton_to_poly(newton, delta):
    if not newton:
        return []
    K = len(newton) - 1
    result = [newton[K]]
    for j in range(K - 1, -1, -1):
        node = Scalar(j * delta)
        shifted = [ZERO] + result
        for t in range(len(result)):
            shifted[t] = shifted[t] - result[t] * node
        shifted[0] = shifted[0] + newton[j]
        result = shifted
    return result


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
                    _acc(out, (i, j), v * w)
        return out

    @staticmethod
    def identity(r: int) -> dict:
        return {(s, s): ONE for s in range(1 << r)}

    @staticmethod
    def anticommutator(x: dict, y: dict) -> dict:
        out = dict(CliffordMatrices.matmul(x, y))
        for k, v in CliffordMatrices.matmul(y, x).items():
            _acc(out, k, v)
        return out


class Cliff(PolyOp):
    """Multiplication by a fixed spinor-space matrix."""

    def __init__(self, entries: dict):
        self.by_col: dict = {}
        for (row, col), v in entries.items():
            self.by_col.setdefault(col, []).append((row, v))

    def apply(self, terms):
        out = {}
        for (e, s), c in terms.items():
            for row, v in self.by_col.get(s, ()):
                _acc(out, (e, row), c * v)
        return out


# -- generic differential relabeling ----------------------------------------------


def weyl_to_polyop(w: WeylElement, cliff: CliffordMatrices = None) -> PolyOp:
    """b_i -> x_i, a_i -> d/dx_i, th/dth -> Pauli matrices, exactly."""
    r = w.modes.fermionic
    if cliff is None and r:
        cliff = CliffordMatrices(r)
    parts = []
    for (bp, ap, th, dth), c in w.sorted_terms():
        factors = []
        for i, k in enumerate(bp):
            factors.extend([MultX(i + 1)] * k)
        for i, k in enumerate(ap):
            factors.extend([Partial(i + 1)] * k)
        if th or dth:
            mat = CliffordMatrices.identity(r)
            for j in _mask_to_list(th):
                mat = CliffordMatrices.matmul(mat, cliff.b_f[j - 1])
            for j in _mask_to_list(dth):
                mat = CliffordMatrices.matmul(mat, cliff.a_f[j - 1])
            factors.append(Cliff(mat))
        op = PCompose(factors) if factors else PIdent()
        parts.append(PScale(c, op))
    return PSum(parts) if parts else PScale(ZERO, PIdent())


# -- matrices on the shared graded basis ----------------------------------------------


def poly_to_matrix(op: PolyOp, modes: ModeSystem, cutoff: int,
                   name: str = "") -> MatrixRep:
    basis = basis_states(modes, cutoff)
    cols, overflow = matrix_columns(basis, lambda key: op.apply({key: ONE}))
    return MatrixRep(cutoff, modes, basis, cols, overflow, name)


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


def fd_pair(i: int, delta) -> tuple:
    """The finite-difference canonical pair a = D+, b = x(1 - d D-)."""
    delta = Scalar.of(delta)
    return Dplus(i, delta), PCompose([MultX(i), PSum([PIdent(), PScale(-delta, Dminus(i, delta))])])


def fd_kit(modes: ModeSystem, deltas) -> Kit:
    """The finite-difference pairs per bosonic mode and the Pauli-Kronecker
    matrices per fermionic mode."""
    pairs = [fd_pair(i + 1, deltas[i]) for i in range(modes.bosonic)]
    cliff = CliffordMatrices(modes.fermionic)
    return Kit([a for a, _ in pairs], [b for _, b in pairs],
               [Cliff(m) for m in cliff.b_f], [Cliff(m) for m in cliff.a_f], PIdent())


def _fd_formula(rep: RepSpec):
    formula = FORMULAS.get(rep.rep_id)
    if formula is None:
        raise RealizeError("no finite-difference realization for %s" % rep.rep_id)
    return formula


def realize_generators(rep: RepSpec, kind: str, deltas=None):
    """Named PolyOps realizing the family in the requested function space.

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
        return {name: weyl_to_polyop(g.as_weyl(), cliff)
                for name, g in rep.generators.items()}
    if kind == "fd":
        return _fd_formula(rep)(fd_kit(modes, deltas or fd_deltas(rep)), rep.params)
    if kind == "jackson":
        if rep.rep_id != "sl2q":
            raise RealizeError("the Jackson realization applies to sl2q only")
        q = rat(rep.params["q"])
        alpha = int(rep.params["alpha"])
        return sl2q_triple(JacksonX(1, q), MultX(1), alpha, q, PIdent())
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
        mat_r = poly_to_matrix(op, rep.modes, cutoff, name)
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
    deltas = deltas or fd_deltas(rep)
    if rid == "sl2_translated":
        return _fd_sl2_displayed(n, deltas[0], 1)
    if rid == "sl2_metaplectic":
        d = Scalar.of(deltas[0])
        half = Scalar(rat(1, 2))
        dm = Dminus(1, d)
        x = MultX(1)
        return {
            "J+": (Dplus(1, d) ** 2).scale(half),
            "J0": (x * dm - half).scale(-half),
            # displayed with the minus sign on the d^2 D-^2 term
            "J-": PCompose([x, x - d, PSum([PIdent(), PScale(-(d + d), dm),
                                            PScale(-(d * d), dm ** 2)])]).scale(half),
        }
    if rid == "sl3_translated":
        d1, d2 = (Scalar.of(dd) for dd in deltas)
        x, y = MultX(1), MultX(2)
        dmx, dmy = Dminus(1, d1), Dminus(2, d2)
        dpx, dpy = Dplus(1, d1), Dplus(2, d2)
        bhx = PCompose([x, PSum([PIdent(), PScale(-d1, dmx)])])
        bhy = PCompose([y, PSum([PIdent(), PScale(-d2, dmy)])])
        num = x * dmx + y * dmy - Scalar(rat(n))
        return {
            "J1+": PCompose([bhx, num]),
            "J2+": PCompose([bhy, num]),
            "J1-": dpx,
            "J2-": dpy,
            "J0_21": PCompose([bhy, dpx]),
            "J0_12": PCompose([bhx, dpy]),
            "J0_1": x * dmx - y * dmy,
            "J0_2": x * dmx + y * dmy - Scalar(rat(2, 3) * rat(n)),
        }
    if rid == "glk":
        k = int(rep.params["k"])
        x = [MultX(i + 1) for i in range(k - 1)]
        dm = [Dminus(i + 1, deltas[i]) for i in range(k - 1)]
        dp = [Dplus(i + 1, deltas[i]) for i in range(k - 1)]
        bh = [PCompose([x[i], PSum([PIdent(), PScale(-Scalar.of(deltas[i]), dm[i])])])
              for i in range(k - 1)]
        j0 = PScale(Scalar(rat(n)), PIdent())
        for i in range(k - 1):
            j0 = j0 - x[i] * dm[i]
        gens = {}
        for i in range(k - 1):
            gens["J%d-" % (i + 2)] = dp[i]
        for i in range(k - 1):
            for j in range(k - 1):
                gens["J0_%d%d" % (i + 2, j + 2)] = PCompose([bh[i], dp[j]])
        gens["J0"] = j0
        for i in range(k - 1):
            gens["J%d+" % (i + 2)] = PCompose([bh[i], j0])
        return gens
    if rid == "gl_super":
        k, r = int(rep.params["k"]), int(rep.params["r"])
        cliff = CliffordMatrices(r)
        x = [MultX(i + 1) for i in range(k)]
        dm = [Dminus(i + 1, deltas[i]) for i in range(k)]
        dp = [Dplus(i + 1, deltas[i]) for i in range(k)]
        bh = [PCompose([x[i], PSum([PIdent(), PScale(-Scalar.of(deltas[i]), dm[i])])])
              for i in range(k)]
        th = [Cliff(cliff.b_f[j]) for j in range(r)]
        dth = [Cliff(cliff.a_f[j]) for j in range(r)]
        t0 = PScale(Scalar(rat(n)), PIdent())
        for i in range(k):
            t0 = t0 - x[i] * dm[i]
        for j in range(r):
            t0 = t0 - th[j] * dth[j]
        gens = {}
        for i in range(k):
            gens["T%d-" % (i + 1)] = dp[i]
        for i in range(k):
            for j in range(k):
                gens["T0_%d%d" % (i + 1, j + 1)] = PCompose([bh[i], dp[j]])
        gens["T0"] = t0
        for i in range(k):
            gens["T%d+" % (i + 1)] = PCompose([bh[i], t0])
        for j in range(r):
            gens["Qb%d-" % (j + 1)] = dth[j]
        for j in range(r):
            gens["Qb%d+" % (j + 1)] = PCompose([th[j], t0])
        for i in range(r):
            for j in range(k):
                gens["Q-_%d%d" % (i + 1, j + 1)] = PCompose([th[i], dp[j]])
        for i in range(k):
            for j in range(r):
                gens["Q+_%d%d" % (i + 1, j + 1)] = PCompose([bh[i], dth[j]])
        for i in range(r):
            for j in range(r):
                gens["J0_%d%d" % (i + 1, j + 1)] = PCompose([th[i], dth[j]])
        return gens
    if rid == "osp22_translated":
        d = deltas[0]
        cliff = CliffordMatrices(1)
        proj_up = Cliff({(0, 0): ONE})    # spinor level empty
        proj_dn = Cliff({(1, 1): ONE})    # spinor level occupied
        sp = Cliff(cliff.a_f[0])
        sm = Cliff(cliff.b_f[0])
        x = MultX(1)
        dm = Dminus(1, d)
        dp = Dplus(1, d)
        bh = PCompose([x, PSum([PIdent(), PScale(-Scalar.of(d), dm)])])
        jp_n = _fd_sl2_displayed(n, d, 1)["J+"]
        jp_n1 = _fd_sl2_displayed(rat(n) - 1, d, 1)["J+"]
        half = Scalar(rat(1, 2))
        nn = Scalar(rat(n))
        return {
            "T+": PCompose([jp_n, proj_up]) + PCompose([jp_n1, proj_dn]),
            "T0": (x * dm - nn * half) * proj_up
                  + (x * dm - (nn - ONE) * half) * proj_dn,
            "T-": dp,
            "J": PScale(-(nn * half), proj_up) + PScale(-((nn + ONE) * half), proj_dn),
            "Q1": sp,
            "Q2": PCompose([bh, sp]),
            "Qb1": PCompose([x * dm - nn, sm]),
            "Qb2": PCompose([PScale(Scalar(-1), dp), sm]),
        }
    raise RealizeError("no displayed fd forms for %s" % rid)


def _fd_sl2_displayed(n, delta, i):
    d = Scalar.of(delta)
    nn = Scalar(rat(n))
    x = MultX(i)
    dm = Dminus(i, d)
    jp = PCompose([x, PSum([PIdent(), PScale(-d.inverse(), MultX(i))]),
                   PSum([PScale(d * d, dm ** 2), PScale(-((nn + ONE) * d), dm),
                         PScale(nn, PIdent())])])
    return {
        "J+": jp,
        "J0": x * dm - nn * Scalar(rat(1, 2)),
        "J-": Dplus(i, d),
    }


def check_fd_displayed(rep: RepSpec, cutoff: int = None, deltas=None) -> list:
    """Compare displayed fd closed forms with the normative fd realization."""
    cutoff = rep.default_cutoff if cutoff is None else cutoff
    normative = realize_generators(rep, "fd", deltas)
    displayed = fd_displayed_forms(rep, deltas)
    out = []
    for name, disp in displayed.items():
        mat_d = poly_to_matrix(disp, rep.modes, cutoff, name)
        mat_n = poly_to_matrix(normative[name], rep.modes, cutoff, name)
        same = not _first_difference(mat_d, mat_n)
        out.append(AltFormResult(name, "MATCH" if same else "DIFFERS",
                                 "" if same else "displayed fd form differs"))
    return out


# -- sl2q: Jackson vs spectral and the q-pair relation in function space ------------------


def q_pair_fd(q, delta):
    """The displayed transformed q-pair in finite-difference form."""
    q = rat(q)
    delta = rat(delta)
    d = Scalar(delta)
    atil = PCompose([DivX(1, d), PSum([PScale(d, Dplus(1, d)), PIdent()]),
                     PScale(Scalar(q - 1).inverse(),
                            PSum([QPowX(1, q, delta), PScale(Scalar(-1), PIdent())]))])
    btil = PCompose([MultX(1), PSum([PIdent(), PScale(-d, Dminus(1, d))])])
    return atil, btil
