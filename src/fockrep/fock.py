"""Fock vectors, extended operators, and exact truncated matrices.

A Fock vector is a plain dict {(alpha, beta_mask): coefficient}, a finite
combination of states b^alpha th^beta |0> with a_i|0> = 0 and dth_j|0> = 0;
{} is the zero vector.  An operator's apply maps such a dict to a dict; a
dict given to or returned by apply is never written into, since Identity
returns its input and Compiled a cached column.  Operators are expression
trees: normal-ordered polynomials (Poly, read through weyl.act),
terminating exponentials e^{g a_i} (ExpA), spectral q-powers q^{N} diagonal
in the falling-factorial basis (QSpectral), formal left division by b_i +
shift (LeftDivB), the identity (Identity), Sum/Product/Scale, and Compiled,
which remembers each basis state's image (its column) and its inner node's
raise bound; other modules add leaves of their own.  A node is shared where
it is made: shared gives the Compiled node that a kit pair, a formula's
intermediate, a rep's generator or an extended Casimir is stored as, so
everything holding it forms its image of a basis state once.  A kit is made
once per key for the process (catalogue.Kit), so its pair nodes and their
columns are held by every rep and realization over the same pairs.  Those
columns are the only cache a node keeps; a table keyed by data alone
(weyl.act, _binomial_row, the bases) is kept once for the process.  A node
may carry a mark, the Weyl generator it stands for (OperatorExpr.marked),
and preimages reads a tree of a kit's marked nodes, scalars and fermions
back to its polynomial.
Arithmetic (+, -, *, scale) is the one place polynomials fold: two Poly
operands give one Poly, anything else gives a Sum, Product or Scale node,
which never folds later.  Scaling by 1 returns the operator itself, and a
Sum adds a Scale part's inner image times the coefficient without a scaled
copy.  The extended nodes are infinite series in the algebra but exact
finite operations on any vector because each a_i is locally nilpotent, so
nothing here ever truncates silently: to_matrix flags overflow columns
instead.  The truncated basis of each (modes, cutoff) is enumerated once
per process: basis_states hands out one shared immutable tuple, and
to_matrix reads its row index from the same memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import comb

from .scalars import exact, to_json
from .weyl import (ModeSystem, WeylElement, _mask_to_list, _mono_str, _terms_str,
                   accumulate, act)


class NotLeftDivisible(ValueError):
    pass


# -- Fock vectors -----------------------------------------------------------


def state_degree(key) -> int:
    alpha, beta = key
    return sum(alpha) + beta.bit_count()


def state_sort_key(key):
    alpha, beta = key
    return (state_degree(key), alpha, _mask_to_list(beta))


def _state_str(alpha, beta, modes) -> str:
    body = _mono_str((alpha, (), beta, 0), modes)
    return body + " |0>" if body else "|0>"


def vector_str(terms: dict, modes: ModeSystem) -> str:
    """A Fock vector {(alpha, beta): coefficient} as "c b^alpha th^beta |0> + ...",
    graded then lex; the empty vector is "0"."""
    return _terms_str((_state_str(alpha, beta, modes), c) for (alpha, beta), c in
                      sorted(terms.items(), key=lambda kv: state_sort_key(kv[0])))


_BASES: dict = {}  # (modes, cutoff) -> (basis tuple, {key: position})


def _basis(modes: ModeSystem, cutoff: int):
    """The memoised (basis, row index) pair of basis_states and to_matrix."""
    entry = _BASES.get((modes, cutoff))
    if entry is None:
        states = tuple(sorted(
            ((alpha, beta) for beta in range(1 << modes.fermionic)
             for alpha in _compositions_upto(modes.bosonic, cutoff - beta.bit_count())),
            key=state_sort_key))
        entry = _BASES[(modes, cutoff)] = (states, {key: i for i, key in enumerate(states)})
    return entry


def basis_states(modes: ModeSystem, cutoff: int) -> tuple:
    """All (alpha, beta) with total degree <= cutoff, graded then lex order.

    Enumerated and sorted once per (modes, cutoff): every call returns the
    same immutable tuple, which to_matrix also uses as its basis."""
    return _basis(modes, cutoff)[0]


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
    """Base class; subclasses implement apply and max_raise.

    marked is None except on a node that stands for one generator of a
    pair other than the Fock one: there it is the WeylElement (a_i, b_i,
    th_j or dth_j) that the node is the image of, over the node's mode
    system, so a q-mode's a and b for a q-pair.  catalogue.shift_pair
    marks the shift pair, catalogue.q_kit the q-pair, and realize's
    function kits each of their pair nodes and Pauli-Kronecker matrices.
    A mark is trusted, never probed: it holds by a lemma on the node's
    closed form (shift_pair's, q_kit's, and realize.cross_check's for the
    function kits), which the tests check node by node.  The mark is an
    attribute of the node itself, so it adds no level to apply."""

    modes: ModeSystem
    marked = None

    def apply(self, terms: dict) -> dict:
        raise NotImplementedError

    def max_raise(self) -> int:
        raise NotImplementedError

    def as_weyl(self):
        """The WeylElement of a Poly (also inside Compiled); None for every
        other node, Sum, Product and Scale included."""
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
        return self.scale(-1)

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
        c = exact(c)
        if c == 1:
            return self
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
    """A normal-ordered polynomial.  It applies as the sum over input states
    and monomials of what weyl.act says the monomial sends the state to, as
    weyl's products read weyl._pair, so it keeps no table of its own."""

    __slots__ = ("modes", "weyl")

    def __init__(self, weyl: WeylElement):
        self.modes = weyl.modes
        self.weyl = weyl

    def as_weyl(self):
        return self.weyl

    def max_raise(self):
        return self.weyl.max_raise()

    def apply(self, terms: dict) -> dict:
        monos = self.weyl.terms.items()
        q = self.modes.q
        out: dict = {}
        for state, cv in terms.items():
            for mono, cm in monos:
                image = act(mono, state, q)
                if image is not None:
                    key, factor = image
                    c = cv * cm
                    accumulate(out, key, c if factor == 1 else c * factor)
        return out


@cache
def _binomial_row(gamma, k) -> tuple:
    """(gamma^j C(k, j) for j = 0..k), the coefficients of (b + gamma)^k |0>;
    formed once per process for every ExpA with this gamma."""
    row, power = [1], 1
    for j in range(1, k + 1):
        power = power * gamma
        row.append(exact(power * comb(k, j)))
    return tuple(row)


class ExpA(OperatorExpr):
    """e^{gamma a_i}: acts as b_i^k |0> -> (b_i + gamma)^k |0>, through the
    coefficient row _binomial_row(gamma, k)."""

    __slots__ = ("modes", "mode", "gamma")

    def __init__(self, modes: ModeSystem, mode: int, gamma):
        self.modes = modes
        self.mode = mode  # 1-based
        self.gamma = exact(gamma)

    def max_raise(self):
        return 0

    def apply(self, terms: dict) -> dict:
        i = self.mode - 1
        out: dict = {}
        for (alpha, beta), c in terms.items():
            k = alpha[i]
            row = _binomial_row(self.gamma, k)
            for j in range(k + 1):
                accumulate(out, (alpha[:i] + (k - j,) + alpha[i + 1:], beta),
                           c * row[j] if j else c)
        return out


class QSpectral(OperatorExpr):
    """q^{N} for the number operator N = (b_i/delta)(1 - e^{-delta a_i}) of
    the shift-transformed pair: diagonal with eigenvalue q^k on the
    delta-falling factorial of index k in the designated mode.  At delta = 0
    those factorials are the monomials b_i^k and N is b_i a_i.
    """

    __slots__ = ("modes", "mode", "q", "delta")

    def __init__(self, modes: ModeSystem, mode: int, q, delta=0):
        self.modes = modes
        self.mode = mode
        self.q = exact(q)
        self.delta = exact(delta)

    def max_raise(self):
        return 0

    def apply(self, terms: dict) -> dict:
        return _map_mode_coeffs(terms, self.mode - 1, self.delta,
                                lambda coeffs: [c * self.q ** k for k, c in enumerate(coeffs)])


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
        self.shift = exact(shift)

    def max_raise(self):
        return -1

    def apply(self, terms: dict) -> dict:
        i = self.mode - 1
        if not self.shift:
            out = {}
            for (alpha, beta), c in terms.items():
                if alpha[i] == 0:
                    raise NotLeftDivisible(
                        "not left-divisible: component %s has b%d-degree 0"
                        % (_state_str(alpha, beta, self.modes), self.mode))
                out[(alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:], beta)] = c
            return out
        shift = self.shift

        def solve(coeffs):
            # (b + shift) w = v: w_{K-1} = v_K, w_{j-1} = v_j - shift w_j,
            # then the constant term must balance exactly
            if not coeffs:
                return coeffs
            K = len(coeffs) - 1
            w = [0] * K
            for j in range(K, 0, -1):
                upper = w[j] if j < K else 0
                w[j - 1] = coeffs[j] - shift * upper
            residual = coeffs[0] - (shift * w[0] if K > 0 else 0)
            if residual:
                raise NotLeftDivisible(
                    "not left-divisible by (b%d + %s): residual %s"
                    % (self.mode, shift, residual))
            return w

        return _map_mode_coeff_lists(terms, i, solve)


class Sum(OperatorExpr):
    __slots__ = ("modes", "parts")

    def __init__(self, parts):
        parts = list(parts)
        self.parts = parts
        self.modes = parts[0].modes

    def max_raise(self):
        return max(p.max_raise() for p in self.parts)

    def apply(self, terms):
        out: dict = {}
        for p in self.parts:
            if type(p) is Scale:  # c * inner, summed without a scaled copy
                c = p.coeff
                for key, k in p.inner.apply(terms).items():
                    accumulate(out, key, c * k)
            else:
                for key, k in p.apply(terms).items():
                    accumulate(out, key, k)
        return out


class Product(OperatorExpr):
    """Operator product; the rightmost factor acts first."""

    __slots__ = ("modes", "factors")

    def __init__(self, factors):
        factors = list(factors)
        self.factors = factors
        self.modes = factors[0].modes

    def max_raise(self):
        return sum(f.max_raise() for f in self.factors)

    def apply(self, terms):
        for f in reversed(self.factors):
            terms = f.apply(terms)
        return terms


class Scale(OperatorExpr):
    __slots__ = ("modes", "coeff", "inner")

    def __init__(self, coeff, inner: OperatorExpr):
        self.coeff = exact(coeff)
        self.inner = inner
        self.modes = inner.modes

    def max_raise(self):
        return self.inner.max_raise()

    def apply(self, terms):
        c = self.coeff
        image = self.inner.apply(terms)
        return {k: exact(v * c) for k, v in image.items()} if c else {}


class Identity(Poly):
    """The unit polynomial; apply hands back its input without arithmetic."""

    __slots__ = ()

    def __init__(self, modes: ModeSystem):
        super().__init__(WeylElement.one(modes))

    def apply(self, terms: dict) -> dict:
        return terms


def identity_op(modes) -> Identity:
    return Identity(modes)


class Compiled(OperatorExpr):
    """inner, with the image of each basis state computed once, on first use,
    and inner's raise bound asked once.

    Exact: a column is inner's exact image of one basis state and apply is
    linear, so no cutoff enters the cache.  inner must be defined on every
    basis state it meets (LeftDivB alone is not).  apply({key: 1}) is the
    cached column itself, handed out without a copy, which is safe because
    nothing writes into a vector that apply is given or returns.
    """

    __slots__ = ("modes", "inner", "_cols", "_raise")

    def __init__(self, inner: OperatorExpr):
        self.modes = inner.modes
        self.inner = inner
        self._cols = {}  # state key -> inner.apply({key: 1})
        self._raise = None

    def max_raise(self):
        if self._raise is None:
            self._raise = self.inner.max_raise()
        return self._raise

    def as_weyl(self):
        return self.inner.as_weyl()

    def column(self, key) -> dict:
        """inner's image of basis state key; not to be mutated."""
        col = self._cols.get(key)
        if col is None:
            col = self._cols[key] = self.inner.apply({key: 1})
        return col

    def apply(self, terms: dict) -> dict:
        if len(terms) == 1:
            (key, c), = terms.items()
            if c == 1:
                return self.column(key)
        out: dict = {}
        for key, c in terms.items():
            for skey, d in self.column(key).items():
                accumulate(out, skey, d * c)
        return out


def shared(x: OperatorExpr) -> OperatorExpr:
    """x as a node that several generators can hold: Compiled, so its image
    of a basis state is formed once for all of them, unless x is already
    Compiled or is a polynomial, which must still fold.  It is the one place
    a Compiled node is made.  Its callers: catalogue.Kit for each pair
    node, catalogue.jordan_schwinger for the T0 its generators share,
    catalogue.RepSpec for each generator, and verify.casimir_check for an
    extended rep's Casimir.

    x must be defined on every basis state: a Compiled node splits a vector
    into basis states, so a bare LeftDivB with a shift (b_i + 1 divides
    b_i^2 + b_i but not b_i^2) must never be given here.
    """
    return x if isinstance(x, Compiled) or x.as_weyl() is not None else Compiled(x)


def preimages(roots, own) -> list:
    """Each root read back through the marks of the nodes whose ids are in
    own: such a node as its mark, a polynomial free of bosonic exponents
    (scalars and fermions) as itself, and Sum, Product, Scale and Compiled
    as the sum, product, multiple and inner node's preimage.  When the
    nodes in own obey the relations their marks do, this is an algebra
    map, so a root is the image of its preimage.

    Each root's preimage is a WeylElement, or None where any node of its
    tree has none: a marked node not in own, a polynomial with a bosonic
    exponent (the Fock pair's a or b, not a marked one's), or any other
    node.  catalogue.Kit.preimages gives own as its pair nodes.  Each node
    is read once per call, so an intermediate that several roots share (a
    formula's shared factor) is read once for all of them.
    """
    read = {}  # id of a node met -> its preimage

    def walk(node):
        key = id(node)
        if key not in read:
            read[key] = _read(node)
        return read[key]

    def _read(node):
        if isinstance(node, Compiled):
            return walk(node.inner)
        if node.marked is not None:
            return node.marked if id(node) in own else None
        if isinstance(node, Poly):
            w = node.weyl
            return None if any(any(bp) or any(ap) for bp, ap, _, _ in w.terms) else w
        if isinstance(node, (Sum, Product)):
            parts = []
            for kid in node.parts if isinstance(node, Sum) else node.factors:
                parts.append(walk(kid))
                if parts[-1] is None:
                    return None
            out = parts[0]
            for w in parts[1:]:
                out = out + w if isinstance(node, Sum) else out * w
            return out
        if isinstance(node, Scale):
            w = walk(node.inner)
            return None if w is None else w.scale(node.coeff)
        return None

    return [walk(root) for root in roots]


# -- falling-factorial transform ----------------------------------------------


def _monomial_to_newton(coeffs, delta):
    """Divided-difference coefficients at nodes 0, d, 2d, ... via synthetic division."""
    coeffs = list(coeffs)
    out = []
    t = 0
    while coeffs:
        node = t * delta
        # divide by (x - node): quotient q, remainder r
        q = [0] * (len(coeffs) - 1)
        carry = 0
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
        node = j * delta
        # result = result*(x - node) + newton[j]
        shifted = [0] + result
        for t in range(len(result)):
            shifted[t] = shifted[t] - result[t] * node
        shifted[0] = shifted[0] + newton[j]
        result = shifted
    return result


def _map_mode_coeffs(terms: dict, i: int, delta, newton_map) -> dict:
    """Group terms by everything except mode i, transform through the
    Newton (falling-factorial) basis, apply newton_map there, transform back."""

    return _map_mode_coeff_lists(terms, i, lambda coeffs: _newton_to_monomial(
        newton_map(_monomial_to_newton(coeffs, delta)), delta))


def _map_mode_coeff_lists(terms: dict, i: int, func) -> dict:
    groups: dict = {}
    for (alpha, beta), c in terms.items():
        rest = (alpha[:i] + alpha[i + 1:], beta)
        groups.setdefault(rest, {})[alpha[i]] = c
    out: dict = {}
    for (rest_alpha, beta), by_k in groups.items():
        K = max(by_k)
        coeffs = [by_k.get(k, 0) for k in range(K + 1)]
        new_coeffs = func(coeffs)
        for k, c in enumerate(new_coeffs):
            accumulate(out, (rest_alpha[:i] + (k,) + rest_alpha[i:], beta), c)
    return out


# -- matrices -------------------------------------------------------------------


@dataclass
class MatrixRep:
    """Exact matrix of an operator on the degree-truncated monomial basis.

    Column j holds the coordinates of (op applied to basis state j)
    restricted to the basis; columns whose image leaves the cutoff are
    listed in overflow_columns, never silently truncated.  Operators with
    max_raise <= 0 can have no overflow columns.  basis is the shared
    immutable tuple basis_states(modes, cutoff), not a copy.
    """

    cutoff: int
    basis: tuple
    cols: list  # list of dict row_index -> coefficient
    overflow_columns: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def entry(self, row: int, col: int):
        return self.cols[col].get(row, 0)

    def to_json(self):
        return {
            "cutoff": self.cutoff,
            "basis": [{"b": list(alpha), "theta": _mask_to_list(beta)}
                      for alpha, beta in self.basis],
            "matrix": [[to_json(self.entry(i, j)) for j in range(self.dim)]
                       for i in range(self.dim)],
            "overflow_columns": list(self.overflow_columns),
        }


def to_matrix(op: OperatorExpr, cutoff: int) -> MatrixRep:
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    basis, index = _basis(op.modes, cutoff)
    cols = []
    overflow = []
    for j, key in enumerate(basis):
        col = {}
        spilled = False
        for skey, c in op.apply({key: 1}).items():
            row = index.get(skey)
            if row is None:
                spilled = True
            else:
                col[row] = c
        if spilled:
            overflow.append(j)
        cols.append(col)
    return MatrixRep(cutoff, basis, cols, overflow)


# -- identity checking -------------------------------------------------------------


@dataclass
class IdentityReport:
    equal: bool
    tested_degree: int
    witness_state: tuple = None
    lhs_value: dict = None
    rhs_value: dict = None

    def __bool__(self):
        return self.equal

    def describe(self, modes) -> str:
        if self.equal:
            return "equal on all states of degree <= %d" % self.tested_degree
        return "mismatch on %s: lhs %s, rhs %s" % (
            _state_str(*self.witness_state, modes), vector_str(self.lhs_value, modes),
            vector_str(self.rhs_value, modes))


def check_identity(lhs: OperatorExpr, rhs: OperatorExpr, cutoff: int) -> IdentityReport:
    """Compare two operators on every basis state the cutoff makes safe.

    The tested degree range is cutoff minus the largest degree raise either
    side can cause, so no overflow can corrupt the comparison.
    """
    raise_bound = max(0, lhs.max_raise(), rhs.max_raise())
    tested = cutoff - raise_bound
    for key in basis_states(lhs.modes, max(tested, 0)):
        vec = {key: 1}
        left = lhs.apply(vec)
        right = rhs.apply(vec)
        if left != right:
            return IdentityReport(False, tested, key, left, right)
    return IdentityReport(True, tested)
