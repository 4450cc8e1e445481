"""Fock vectors, extended operators, and exact truncated matrices.

A FockVector is a finite combination of states b^alpha th^beta |0> with
a_i|0> = 0 and dth_j|0> = 0.  Operators are expression trees: normal-ordered
polynomials (Poly), terminating exponentials e^{g a_i} (ExpA), spectral
q-powers q^{N} diagonal in the falling-factorial basis (QSpectral), formal
left division by b_i + shift (LeftDivB), the identity (Identity), and
Sum/Product/Scale; other modules add leaves of their own.  The
extended nodes are infinite series in the algebra but exact finite
operations on any vector because each a_i is locally nilpotent, so nothing
here ever truncates silently: to_matrix flags overflow columns instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .scalars import ONE, ZERO, Rational, Scalar
from .weyl import ModeSystem, WeylElement, _mask_to_list


class NotLeftDivisible(ValueError):
    pass


# -- Fock vectors -----------------------------------------------------------


class FockVector:
    """Finite map (alpha, beta_mask) -> Scalar over a ModeSystem."""

    __slots__ = ("modes", "terms")

    def __init__(self, modes: ModeSystem, terms: dict):
        self.modes = modes
        self.terms = terms

    @staticmethod
    def zero(modes) -> "FockVector":
        return FockVector(modes, {})

    @staticmethod
    def vacuum(modes) -> "FockVector":
        return FockVector(modes, {((0,) * modes.bosonic, 0): ONE})

    @staticmethod
    def state(modes, alpha=(), beta=(), coeff=1) -> "FockVector":
        p = modes.bosonic
        al = tuple(alpha) + (0,) * (p - len(alpha))
        mask = 0
        for j in beta:
            mask |= 1 << (j - 1)
        c = Scalar.of(coeff)
        return FockVector(modes, {(al, mask): c} if not c.is_zero() else {})

    def __add__(self, other: "FockVector") -> "FockVector":
        terms = dict(self.terms)
        for key, c in other.terms.items():
            cur = terms.get(key)
            s = c if cur is None else cur + c
            if s.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = s
        return FockVector(self.modes, terms)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(Scalar(-1))

    def scale(self, c) -> "FockVector":
        c = Scalar.of(c)
        if c.is_zero():
            return FockVector.zero(self.modes)
        return FockVector(self.modes, {k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, FockVector) and self.modes == other.modes \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.modes, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: state_sort_key(kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (alpha, beta), c in self.sorted_terms():
            body = _state_str(alpha, beta, self.modes)
            cs = str(c)
            prefix = "" if cs == "1" else ("-" if cs == "-1" else
                                           ("(%s) " % cs if "+" in cs[1:] or "sqrt" in cs else cs + " "))
            parts.append(prefix + body)
        out = parts[0]
        for piece in parts[1:]:
            out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return out

    __repr__ = __str__


def accumulate(out: dict, key, c):
    """out[key] += c, dropping the key when the sum is zero."""
    cur = out.get(key)
    s = c if cur is None else cur + c
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def state_degree(key) -> int:
    alpha, beta = key
    return sum(alpha) + beta.bit_count()


def state_sort_key(key):
    alpha, beta = key
    return (state_degree(key), alpha, _mask_to_list(beta))


def _state_str(alpha, beta, modes) -> str:
    single = modes.bosonic == 1
    fsingle = modes.fermionic == 1
    parts = []
    for i, k in enumerate(alpha):
        if k:
            name = "b" if single else "b%d" % (i + 1)
            parts.append(name if k == 1 else "%s^%d" % (name, k))
    for j in _mask_to_list(beta):
        parts.append("th" if fsingle else "th%d" % j)
    return (" ".join(parts) + " |0>") if parts else "|0>"


def basis_states(modes: ModeSystem, cutoff: int):
    """All (alpha, beta) with total degree <= cutoff, graded then lex order."""
    states = []
    for beta in range(1 << modes.fermionic):
        fdeg = beta.bit_count()
        for alpha in _compositions_upto(modes.bosonic, cutoff - fdeg):
            states.append((alpha, beta))
    states.sort(key=state_sort_key)
    return states


def _compositions_upto(p: int, total: int):
    if total < 0:
        return
    if p == 0:
        yield ()
        return
    for head in range(total + 1):
        for rest in _compositions_upto(p - 1, total - head):
            yield (head,) + rest


# -- operator expressions ------------------------------------------------------


class OperatorExpr:
    """Base class; subclasses implement apply and max_raise."""

    modes: ModeSystem

    def apply(self, vec: FockVector) -> FockVector:
        raise NotImplementedError

    def max_raise(self) -> int:
        raise NotImplementedError

    def as_weyl(self):
        """The underlying WeylElement if the tree is purely polynomial, else None."""
        return None

    # arithmetic builds trees, folding plain polynomials eagerly

    def __add__(self, other):
        other = _as_expr(other, self.modes)
        a, b = self.as_weyl(), other.as_weyl()
        if a is not None and b is not None:
            return Poly(a + b)
        return Sum([self, other])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_expr(other, self.modes))

    def __rsub__(self, other):
        return _as_expr(other, self.modes) + (-self)

    def __neg__(self):
        return self.scale(Scalar(-1))

    def __mul__(self, other):
        other = _as_expr(other, self.modes)
        a, b = self.as_weyl(), other.as_weyl()
        if a is not None and b is not None:
            return Poly(a * b)
        return Product([self, other])

    def __rmul__(self, other):
        # only scalars land here
        return self.scale(other)

    def __pow__(self, n: int):
        result = identity_op(self.modes)
        for _ in range(n):
            result = result * self
        return result

    def scale(self, c) -> "OperatorExpr":
        c = Scalar.of(c)
        w = self.as_weyl()
        if w is not None:
            return Poly(w.scale(c))
        if isinstance(self, Scale):
            return Scale(self.coeff * c, self.inner)
        return Scale(c, self)


def _as_expr(x, modes) -> OperatorExpr:
    if isinstance(x, OperatorExpr):
        return x
    if isinstance(x, WeylElement):
        return Poly(x)
    return Poly(WeylElement.scalar(modes, x))


class Poly(OperatorExpr):
    __slots__ = ("modes", "weyl", "_terms")

    def __init__(self, weyl: WeylElement):
        self.modes = weyl.modes
        self.weyl = weyl
        # precomputed per-monomial data: (bp, ap, th_desc, dth_desc, coeff)
        self._terms = [
            (bp, ap, sorted(_mask_to_list(th), reverse=True),
             sorted(_mask_to_list(dth), reverse=True), c)
            for (bp, ap, th, dth), c in weyl.terms.items()
        ]

    def as_weyl(self):
        return self.weyl

    def max_raise(self):
        return self.weyl.max_raise()

    def apply(self, vec: FockVector) -> FockVector:
        out: dict = {}
        p = self.modes.bosonic
        for (alpha, beta), cv in vec.terms.items():
            for bp, ap, th_desc, dth_desc, cm in self._terms:
                sign = 1
                bmask = beta
                dead = False
                for j in dth_desc:  # rightmost dth acts first
                    bit = 1 << (j - 1)
                    if not bmask & bit:
                        dead = True
                        break
                    if (bmask & (bit - 1)).bit_count() & 1:
                        sign = -sign
                    bmask ^= bit
                if dead:
                    continue
                factor = 1
                for i in range(p):
                    e, k = ap[i], alpha[i]
                    if e > k:
                        dead = True
                        break
                    for t in range(e):  # falling factorial k (k-1) ...
                        factor *= k - t
                if dead:
                    continue
                for j in th_desc:
                    bit = 1 << (j - 1)
                    if bmask & bit:
                        dead = True
                        break
                    if (bmask & (bit - 1)).bit_count() & 1:
                        sign = -sign
                    bmask |= bit
                if dead:
                    continue
                new_alpha = tuple(alpha[i] - ap[i] + bp[i] for i in range(p))
                c = cv * cm
                if factor != 1:
                    c = c * factor
                if sign < 0:
                    c = -c
                key = (new_alpha, bmask)
                cur = out.get(key)
                s = c if cur is None else cur + c
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return FockVector(vec.modes, out)


class ExpA(OperatorExpr):
    """e^{gamma a_i}: acts as b_i^k |0> -> (b_i + gamma)^k |0>."""

    __slots__ = ("modes", "mode", "gamma", "_powers")

    def __init__(self, modes: ModeSystem, mode: int, gamma):
        self.modes = modes
        self.mode = mode  # 1-based
        self.gamma = Scalar.of(gamma)
        self._powers = [ONE]

    def max_raise(self):
        return 0

    def _pow(self, j):
        while len(self._powers) <= j:
            self._powers.append(self._powers[-1] * self.gamma)
        return self._powers[j]

    def apply(self, vec: FockVector) -> FockVector:
        i = self.mode - 1
        out: dict = {}
        for (alpha, beta), c in vec.terms.items():
            k = alpha[i]
            for j in range(k + 1):
                coeff = c * self._pow(j) * comb(k, j) if j else c
                key = (alpha[:i] + (k - j,) + alpha[i + 1:], beta)
                cur = out.get(key)
                s = coeff if cur is None else cur + coeff
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return FockVector(vec.modes, out)


class QSpectral(OperatorExpr):
    """q^{N} for the number operator of the shift-transformed pair.

    N = (b_i/delta)(1 - e^{-delta a_i}) for delta != 0 and N = b_i a_i at
    delta = 0.  Diagonal with eigenvalue q^k on the delta-falling-factorial
    basis vector of index k in the designated mode.
    """

    __slots__ = ("modes", "mode", "q", "delta")

    def __init__(self, modes: ModeSystem, mode: int, q, delta=0):
        self.modes = modes
        self.mode = mode
        self.q = Rational(q)
        self.delta = Rational(delta)

    def max_raise(self):
        return 0

    def apply(self, vec: FockVector) -> FockVector:
        i = self.mode - 1
        if self.delta == 0:
            out = {}
            for (alpha, beta), c in vec.terms.items():
                out[(alpha, beta)] = c * Scalar(self.q ** alpha[i])
            return FockVector(vec.modes, out)
        def scale_newton(coeffs):
            return [c * Scalar(self.q ** k) for k, c in enumerate(coeffs)]
        return _map_mode_coeffs(vec, i, self.delta, scale_newton)


class LeftDivB(OperatorExpr):
    """Formal left multiplication by (b_i + shift)^{-1}.

    With shift = 0 this strips one power of b_i and fails on any component
    of b_i-degree zero.  With shift != 0 it solves (b_i + shift) w = v
    exactly and fails when v is not in the image.
    """

    __slots__ = ("modes", "mode", "shift")

    def __init__(self, modes: ModeSystem, mode: int, shift=0):
        self.modes = modes
        self.mode = mode
        self.shift = Scalar.of(shift)

    def max_raise(self):
        return -1

    def apply(self, vec: FockVector) -> FockVector:
        i = self.mode - 1
        if self.shift.is_zero():
            out = {}
            for (alpha, beta), c in vec.terms.items():
                if alpha[i] == 0:
                    raise NotLeftDivisible(
                        "not left-divisible: component %s has b%d-degree 0"
                        % (_state_str(alpha, beta, vec.modes), self.mode))
                out[(alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:], beta)] = c
            return FockVector(vec.modes, out)
        shift = self.shift

        def solve(coeffs):
            # (b + shift) w = v: w_{K-1} = v_K, w_{j-1} = v_j - shift w_j,
            # then the constant term must balance exactly
            if not coeffs:
                return coeffs
            K = len(coeffs) - 1
            w = [ZERO] * K
            for j in range(K, 0, -1):
                upper = w[j] if j < K else ZERO
                w[j - 1] = coeffs[j] - shift * upper
            residual = coeffs[0] - (shift * w[0] if K > 0 else ZERO)
            if not residual.is_zero():
                raise NotLeftDivisible(
                    "not left-divisible by (b%d + %s): residual %s"
                    % (self.mode, shift, residual))
            return w

        return _map_mode_coeff_lists(vec, i, solve)


def _part_weyls(parts):
    """The WeylElement of every part, or None as soon as one has none."""
    weyls = []
    for p in parts:
        w = p.as_weyl()
        if w is None:
            return None
        weyls.append(w)
    return weyls


class Sum(OperatorExpr):
    __slots__ = ("modes", "parts")

    def __init__(self, parts):
        parts = list(parts)
        self.parts = parts
        self.modes = parts[0].modes

    def max_raise(self):
        return max(p.max_raise() for p in self.parts)

    def apply(self, vec):
        out: dict = {}
        for p in self.parts:
            for key, c in p.apply(vec).terms.items():
                accumulate(out, key, c)
        return FockVector(vec.modes, out)

    def as_weyl(self):
        weyls = _part_weyls(self.parts)
        if weyls is None:
            return None
        total = WeylElement.zero(self.modes)
        for w in weyls:
            total = total + w
        return total


class Product(OperatorExpr):
    """Operator product; the rightmost factor acts first."""

    __slots__ = ("modes", "factors")

    def __init__(self, factors):
        factors = list(factors)
        self.factors = factors
        self.modes = factors[0].modes

    def max_raise(self):
        return sum(f.max_raise() for f in self.factors)

    def apply(self, vec):
        for f in reversed(self.factors):
            vec = f.apply(vec)
        return vec

    def as_weyl(self):
        weyls = _part_weyls(self.factors)
        if weyls is None:
            return None
        total = WeylElement.one(self.modes)
        for w in weyls:
            total = total * w
        return total


class Scale(OperatorExpr):
    __slots__ = ("modes", "coeff", "inner")

    def __init__(self, coeff, inner: OperatorExpr):
        self.coeff = Scalar.of(coeff)
        self.inner = inner
        self.modes = inner.modes

    def max_raise(self):
        return self.inner.max_raise()

    def apply(self, vec):
        return self.inner.apply(vec).scale(self.coeff)

    def as_weyl(self):
        w = self.inner.as_weyl()
        return None if w is None else w.scale(self.coeff)


class Identity(Poly):
    """The unit polynomial; apply hands back its input without arithmetic."""

    __slots__ = ()

    def __init__(self, modes: ModeSystem):
        super().__init__(WeylElement.one(modes))

    def apply(self, vec: FockVector) -> FockVector:
        return vec


def identity_op(modes) -> Identity:
    return Identity(modes)


# -- falling-factorial transform ----------------------------------------------


def to_falling_basis(vec: FockVector, mode: int, delta) -> FockVector:
    """Coordinates w.r.t. p_k = b(b-d)...(b-(k-1)d)|0> in the given mode.

    The returned vector stores the coordinate of p_k in the slot of b^k.
    """
    delta = Rational(delta)
    if delta == 0:
        raise ValueError("falling-factorial basis needs delta != 0")
    return _map_mode_coeff_lists(vec, mode - 1,
                                 lambda coeffs: _monomial_to_newton(coeffs, delta))


def from_falling_basis(vec: FockVector, mode: int, delta) -> FockVector:
    delta = Rational(delta)
    if delta == 0:
        raise ValueError("falling-factorial basis needs delta != 0")
    i = mode - 1

    def expand(coeffs):
        return _newton_to_monomial(coeffs, delta)

    return _map_mode_coeff_lists(vec, i, expand)


def _monomial_to_newton(coeffs, delta):
    """Divided-difference coefficients at nodes 0, d, 2d, ... via synthetic division."""
    coeffs = list(coeffs)
    out = []
    t = 0
    while coeffs:
        node = Scalar(t * delta)
        # divide by (x - node): quotient q, remainder r
        q = [ZERO] * (len(coeffs) - 1)
        carry = ZERO
        for j in range(len(coeffs) - 1, 0, -1):
            carry = coeffs[j] + node * carry
            q[j - 1] = carry
        r = coeffs[0] + node * carry if q else coeffs[0]
        out.append(r)
        coeffs = q
        t += 1
    return out


def _newton_to_monomial(newton, delta):
    if not newton:
        return []
    K = len(newton) - 1
    result = [newton[K]]
    for j in range(K - 1, -1, -1):
        node = Scalar(j * delta)
        # result = result*(x - node) + newton[j]
        shifted = [ZERO] + result
        for t in range(len(result)):
            shifted[t] = shifted[t] - result[t] * node
        shifted[0] = shifted[0] + newton[j]
        result = shifted
    return result


def _map_mode_coeffs(vec: FockVector, i: int, delta, newton_map) -> FockVector:
    """Group terms by everything except mode i, transform through the
    Newton (falling-factorial) basis, apply newton_map there, transform back."""

    def transform(coeffs):
        newton = _monomial_to_newton(coeffs, delta)
        newton = newton_map(newton)
        return _newton_to_monomial(newton, delta)

    return _map_mode_coeff_lists(vec, i, transform)


def _map_mode_coeff_lists(vec: FockVector, i: int, func) -> FockVector:
    groups: dict = {}
    for (alpha, beta), c in vec.terms.items():
        rest = (alpha[:i] + alpha[i + 1:], beta)
        groups.setdefault(rest, {})[alpha[i]] = c
    out: dict = {}
    for (rest_alpha, beta), by_k in groups.items():
        K = max(by_k)
        coeffs = [by_k.get(k, ZERO) for k in range(K + 1)]
        new_coeffs = func(coeffs)
        for k, c in enumerate(new_coeffs):
            if c.is_zero():
                continue
            alpha = rest_alpha[:i] + (k,) + rest_alpha[i:]
            key = (alpha, beta)
            cur = out.get(key)
            s = c if cur is None else cur + c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
    return FockVector(vec.modes, out)


# -- matrices -------------------------------------------------------------------


@dataclass
class MatrixRep:
    """Exact matrix of an operator on the degree-truncated monomial basis.

    Column j holds the coordinates of (op applied to basis state j)
    restricted to the basis; columns whose image leaves the cutoff are
    listed in overflow_columns, never silently truncated.  Operators with
    max_raise <= 0 can have no overflow columns.
    """

    cutoff: int
    modes: ModeSystem
    basis: list
    cols: list  # list of dict row_index -> Scalar
    overflow_columns: list = field(default_factory=list)
    name: str = ""
    max_raise: int = 0

    @property
    def dim(self) -> int:
        return len(self.basis)

    def entry(self, row: int, col: int) -> Scalar:
        return self.cols[col].get(row, ZERO)

    def to_json(self):
        return {
            "cutoff": self.cutoff,
            "basis": [{"b": list(alpha), "theta": _mask_to_list(beta)}
                      for alpha, beta in self.basis],
            "matrix": [[self.entry(i, j).to_json() for j in range(self.dim)]
                       for i in range(self.dim)],
            "overflow_columns": list(self.overflow_columns),
        }


def to_matrix(op: OperatorExpr, cutoff: int, name: str = "") -> MatrixRep:
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    basis = basis_states(op.modes, cutoff)
    index = {key: i for i, key in enumerate(basis)}
    cols = []
    overflow = []
    for j, key in enumerate(basis):
        col = {}
        spilled = False
        for skey, c in op.apply(FockVector(op.modes, {key: ONE})).terms.items():
            row = index.get(skey)
            if row is None:
                spilled = True
            else:
                col[row] = c
        if spilled:
            overflow.append(j)
        cols.append(col)
    return MatrixRep(cutoff, op.modes, basis, cols, overflow, name, op.max_raise())


def matmul(x: MatrixRep, y: MatrixRep) -> MatrixRep:
    assert x.basis == y.basis
    cols = []
    for j in range(y.dim):
        col: dict = {}
        for k, c in y.cols[j].items():
            for i, d in x.cols[k].items():
                cur = col.get(i)
                s = d * c if cur is None else cur + d * c
                if s.is_zero():
                    col.pop(i, None)
                else:
                    col[i] = s
        cols.append(col)
    overflow = sorted(set(x.overflow_columns) | set(y.overflow_columns))
    return MatrixRep(x.cutoff, x.modes, x.basis, cols, overflow,
                     max_raise=x.max_raise + y.max_raise)


# -- identity checking -------------------------------------------------------------


@dataclass
class IdentityReport:
    equal: bool
    tested_degree: int
    witness_state: tuple = None
    lhs_value: FockVector = None
    rhs_value: FockVector = None

    def __bool__(self):
        return self.equal

    def describe(self, modes) -> str:
        if self.equal:
            return "equal on all states of degree <= %d" % self.tested_degree
        return "mismatch on %s: lhs %s, rhs %s" % (
            _state_str(*self.witness_state, modes), self.lhs_value, self.rhs_value)


def check_identity(lhs: OperatorExpr, rhs: OperatorExpr, cutoff: int) -> IdentityReport:
    """Compare two operators on every basis state the cutoff makes safe.

    The tested degree range is cutoff minus the largest degree raise either
    side can cause, so no overflow can corrupt the comparison.
    """
    raise_bound = max(0, lhs.max_raise(), rhs.max_raise())
    tested = cutoff - raise_bound
    modes = lhs.modes
    for key in basis_states(modes, max(tested, 0)):
        vec = FockVector(modes, {key: ONE})
        left = lhs.apply(vec)
        right = rhs.apply(vec)
        if left != right:
            return IdentityReport(False, tested, key, left, right)
    return IdentityReport(True, tested)
