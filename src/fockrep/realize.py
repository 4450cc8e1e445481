"""Concrete function-space realizations with exact cross-checks.

Operators act on polynomials in x_1..x_p with values in the 2^r-dimensional
spinor space: the leaves here (x-multiplication, derivative, binomial
translation, finite differences, the Jackson derivative and Pauli-Kronecker
matrices) are fock expression nodes, combined and evaluated by fock's own
arithmetic.  Finite-difference operators act through exact binomial
expansions of f(x +- d); there is no grid or sampling anywhere, so the
action is exact at every degree.

Every realization is the family's own generator formula over a kit of
function-space pairs: (d/dx, x) for the differential kind, the fd pair for
fd and the Jackson pair for jackson, with Pauli-Kronecker matrices for the
fermionic modes.  Each kit is made once per key for the process
(differential_kit, jackson_kit per modes, fd_kit per modes and steps), so
every rep and realization over the same pairs reads and extends the same
cached columns.  Each kit's nodes are marked (fock.OperatorExpr.marked)
with the Weyl generators they stand for over the rep's mode system: d/dx_i,
the fd D+ and the Jackson derivative with a_i, x_i and the fd b with b_i,
the Pauli-Kronecker matrices with th_j and dth_j.  The Jackson pair's marks
are a q-mode's a and b.

A cross check decides a generator as a theorem on the kits where it can
(cross_check): the realized tree and its counterpart read back to the same
polynomial, and each marked node is, in closed form, the counterpart kit's
node in its place (the kit lemma in cross_check), so nothing is probed at
run time.  Every other generator is compared with its abstract Fock
counterpart state by state on the shared graded basis; the matrices of
both are formed only where the images differ, to give the verdict and its
witness.  The paper's displayed fd closed forms are not built here: the
tests hold them as data and compare them with the fd realization.
"""

from __future__ import annotations

from functools import cache

from .catalogue import Kit, RepSpec, family, fock_kit, q_kit
from .fock import ExpA, MatrixRep, OperatorExpr, basis_states, identity_op, to_matrix
from .scalars import exact, inverse, rat
from .verify import CheckResult
from .weyl import ModeSystem, WeylElement, accumulate


class RealizeError(ValueError):
    """The requested realization kind does not apply to this family."""


# -- function-space operators -----------------------------------------------------
#
# Each leaf is a fock expression node, mapping a Fock-vector dict to a new
# dict with the keys read as polynomials: (exps, smask) is the monomial
# x^exps with values in the spinor basis vector of mask smask.  fock's
# Sum/Product/Scale combine the leaves; to_matrix and check_identity evaluate them.


class Partial(OperatorExpr):
    """d/dx_i."""

    def __init__(self, modes: ModeSystem, i: int):
        self.modes = modes
        self.i = i - 1

    def max_raise(self):
        return -1

    def apply(self, terms):
        out = {}
        for (e, s), c in terms.items():
            k = e[self.i]
            if k:
                accumulate(out, (e[:self.i] + (k - 1,) + e[self.i + 1:], s), c * k)
        return out


class MultX(OperatorExpr):
    """Multiplication by x_i."""

    def __init__(self, modes: ModeSystem, i: int):
        self.modes = modes
        self.i = i - 1

    def max_raise(self):
        return 1

    def apply(self, terms):
        out = {}
        for (e, s), c in terms.items():
            accumulate(out, (e[:self.i] + (e[self.i] + 1,) + e[self.i + 1:], s), c)
        return out


# f(x) -> f(x + d) in one variable, by exact binomial expansion: on the
# monomials x^k it is the Fock operator e^{d a}, b^k |0> -> (b + d)^k |0>.
ShiftX = ExpA


class Dplus(OperatorExpr):
    """(f(x+d) - f(x))/d."""

    def __init__(self, modes: ModeSystem, i: int, delta):
        self.modes = modes
        self.delta = exact(delta)
        if not self.delta:
            raise ValueError("finite difference needs delta != 0")
        self.inv = inverse(self.delta)
        self.shift = ShiftX(modes, i, self.delta)

    def max_raise(self):
        return -1

    def apply(self, terms):
        inv = self.inv
        out = {}
        for k, v in self.shift.apply(terms).items():
            accumulate(out, k, v * inv)
        for k, v in terms.items():
            accumulate(out, k, -(v * inv))
        return out


def Dminus(modes: ModeSystem, i: int, delta) -> Dplus:
    """(f(x) - f(x-d))/d, which is Dplus with d negated."""
    return Dplus(modes, i, -delta)


class JacksonX(OperatorExpr):
    """(f(qx) - f(x))/(x(q-1)); the constant term cancels before dividing."""

    def __init__(self, modes: ModeSystem, i: int, q):
        self.modes = modes
        self.i = i - 1
        self.q = rat(q)
        if self.q == 1:
            raise ValueError("q = 1 not allowed")
        self.inv = inverse(self.q - 1)

    def max_raise(self):
        return -1

    def apply(self, terms):
        out = {}
        inv = self.inv
        for (e, s), c in terms.items():
            k = e[self.i]
            if k == 0:
                continue
            coeff = c * ((self.q ** k - 1) * inv)
            accumulate(out, (e[:self.i] + (k - 1,) + e[self.i + 1:], s), coeff)
        return out


# -- Clifford (Pauli-Kronecker) matrices ---------------------------------------------


SIGMA_PLUS = ((0, 1), (0, 0))
SIGMA_MINUS = ((0, 0), (1, 0))
SIGMA_ZERO = ((1, 0), (0, -1))
SIGMA_ID = ((1, 0), (0, 1))


class CliffordMatrices:
    """Exact 2^r x 2^r matrices for the fermionic pairs via Pauli products.

    a_f[i] = s0 x ... x s0 x s+ x 1 x ... x 1  (s+ in slot i), b_f[i] with
    s-.  Row/column indices are spinor masks: bit j-1 set means the j-th
    fermionic level is occupied, matching the abstract basis keys.
    """

    def __init__(self, r: int):
        self.a_f = [self._slot(i, SIGMA_PLUS, r) for i in range(1, r + 1)]
        self.b_f = [self._slot(i, SIGMA_MINUS, r) for i in range(1, r + 1)]

    @staticmethod
    def _slot(i: int, middle, r: int) -> dict:
        """The Kronecker product with middle in slot i, as {(row, col): v}:
        slot j's factor acts on bit j-1 of the masks."""
        entries = {(0, 0): 1}
        for j, m in enumerate([SIGMA_ZERO] * (i - 1) + [middle] + [SIGMA_ID] * (r - i)):
            entries = {(row | x << j, col | y << j): v * m[x][y]
                       for (row, col), v in entries.items()
                       for x in range(2) for y in range(2) if m[x][y]}
        return entries


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

    def apply(self, terms):
        out = {}
        for (e, s), c in terms.items():
            for row, v in self.by_col.get(s, ()):
                accumulate(out, (e, row), c * v)
        return out


# -- matrices on the shared graded basis ----------------------------------------------


def poly_to_matrix(op: OperatorExpr, cutoff: int) -> MatrixRep:
    """The realized side of a cross check, on the shared graded basis."""
    return to_matrix(op, cutoff)


def _difference(realized: OperatorExpr, abstract: OperatorExpr, cutoff: int) -> str:
    """"" when the two operators agree on the shared graded basis up to
    cutoff; otherwise the first difference of their matrices.

    The basis states are walked once and each image compared whole.  Equal
    images give equal columns and the same overflow flag, so the matrices
    are formed only at the first state whose images differ, and their
    verdict decides: a difference confined to the out-of-basis part of
    columns that overflow on both sides still passes."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    for key in basis_states(realized.modes, cutoff):
        vec = {key: 1}
        if realized.apply(vec) != abstract.apply(vec):
            return _first_difference(poly_to_matrix(realized, cutoff),
                                     to_matrix(abstract, cutoff))
    return ""


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
                j, _col_str(realized.cols[j]), _col_str(abstract.cols[j]))
    return ""


def _col_str(col: dict) -> str:
    return "{%s}" % ", ".join("%d: %s" % kv for kv in col.items())


# -- realizations per family -------------------------------------------------------------


def fd_pair(modes: ModeSystem, i: int, delta) -> tuple:
    """The finite-difference canonical pair a = D+, b = x(1 - d D-)."""
    return (Dplus(modes, i, delta),
            MultX(modes, i) * (identity_op(modes) + Dminus(modes, i, delta).scale(-delta)))


def _function_kit(modes: ModeSystem, pairs) -> Kit:
    """The given (a, b) pair per bosonic mode and the Pauli-Kronecker
    matrices per fermionic mode, each node marked (fock.OperatorExpr.marked)
    with the Weyl generator it stands for: a_i, b_i, th_j and dth_j."""
    cliff = CliffordMatrices(modes.fermionic)
    th = [Cliff(modes, m) for m in cliff.b_f]
    dth = [Cliff(modes, m) for m in cliff.a_f]
    for i, (a, b) in enumerate(pairs, 1):
        a.marked, b.marked = WeylElement.a(modes, i), WeylElement.b(modes, i)
    for j, (t, d) in enumerate(zip(th, dth), 1):
        t.marked, d.marked = WeylElement.theta(modes, j), WeylElement.dtheta(modes, j)
    return Kit([a for a, _ in pairs], [b for _, b in pairs], th, dth, identity_op(modes))


def _polynomial_modes(rep: RepSpec) -> ModeSystem:
    """The modes of a polynomial rep over canonical modes, the only kind
    with a differential form: d/dx is no q-mode's a."""
    if not rep.is_polynomial() or rep.modes.q != 1:
        raise RealizeError("%s has no polynomial differential form" % rep.rep_id)
    return rep.modes


@cache
def differential_kit(modes: ModeSystem) -> Kit:
    """a = d/dx_i and b = x_i per bosonic mode, th and dth the
    Pauli-Kronecker matrices per fermionic mode; one kit per modes."""
    return _function_kit(modes, [(Partial(modes, i), MultX(modes, i))
                                 for i in range(1, modes.bosonic + 1)])


@cache
def fd_kit(modes: ModeSystem, deltas: tuple) -> Kit:
    """The finite-difference pairs per bosonic mode and the Pauli-Kronecker
    matrices per fermionic mode; one kit per (modes, deltas)."""
    return _function_kit(modes, [fd_pair(modes, i + 1, deltas[i])
                                 for i in range(modes.bosonic)])


@cache
def jackson_kit(modes: ModeSystem) -> Kit:
    """The Jackson pair (JacksonX, MultX) of the one q-mode of `modes`, at
    its q; one kit per modes."""
    return _function_kit(modes, [(JacksonX(modes, 1, modes.q), MultX(modes, 1))])


def _fd_steps(rep: RepSpec) -> tuple:
    """The steps of the rep's fd realization, from its family record."""
    steps = family(rep.rep_id).fd_steps
    if steps is None:
        raise RealizeError("no finite-difference realization for %s" % rep.rep_id)
    return steps(rep.modes, rep.params)


def _q_modes(rep: RepSpec) -> ModeSystem:
    """The q-mode system of a family built over the q-pair, the one formula
    the Jackson pair (JacksonX, MultX) can realize."""
    if family(rep.rep_id).kit is not q_kit:
        raise RealizeError("the Jackson realization applies to sl2q only")
    return rep.modes


# kind -> (realized, counterpart): each (rep) -> the Kit that side puts into
# the family's formula, raising RealizeError where the kind does not apply;
# a counterpart of None is the rep itself, which the differential kind
# realizes.  Each kit comes from its process-wide memo, one per key, so
# every rep and realization over the same pairs reads the same cached
# columns.  The fd pair is the coordinate image of the shift-transformed
# pair, so the fd counterpart is the formula over the shift kit at the same
# steps.  The Jackson pair is the coordinate image of the q-mode's Fock
# pair, so its counterpart is the formula over the q-mode's Fock kit,
# whatever the rep's step.
KINDS = {
    "differential": (lambda rep: differential_kit(_polynomial_modes(rep)), None),
    "fd": (lambda rep: fd_kit(rep.modes, _fd_steps(rep)),
           lambda rep: fock_kit(rep.modes, _fd_steps(rep))),
    "jackson": (lambda rep: jackson_kit(_q_modes(rep)),
                lambda rep: fock_kit(_q_modes(rep))),
}


def realize_generators(rep: RepSpec, kind: str):
    """The family's formula over the kind's realized kit (KINDS): named
    operators on the function space, built without reading the rep's
    generators."""
    return family(rep.rep_id).formula(KINDS[kind][0](rep), rep.params)


def abstract_counterpart(rep: RepSpec, kind: str) -> dict:
    """The named generators whose Fock matrices the realization must equal:
    the rep's own, or the family's formula over the kind's counterpart kit
    (KINDS), which cross_check reads back or walks once and no rep stores."""
    counterpart = KINDS[kind][1]
    if counterpart is None:
        return rep.generators
    return family(rep.rep_id).formula(counterpart(rep), rep.params)


def _kit_theorem(rep: RepSpec, kind: str, realized: dict, abstract: dict) -> set:
    """The names of the realized generators that read back through their
    kit's marks to the same polynomial as their counterparts, which the
    kit lemma makes the same operator (see cross_check); a name left out
    is decided by the state walk.  Counterparts that are all polynomials in
    the Fock pairs are their own words; any others are read back through
    the counterpart kit's marks."""
    make_realized, make_counterpart = KINDS[kind]
    pre = make_realized(rep).preimages(list(realized.values()))
    words = [g.as_weyl() for g in abstract.values()]
    if any(w is None for w in words):
        words = make_counterpart(rep).preimages(list(abstract.values()))
    words = dict(zip(abstract, words))
    return {name for name, w in zip(realized, pre) if w is not None and w == words[name]}


def cross_check(rep: RepSpec, kind: str) -> list:
    """Realized matrices must equal the abstract Fock matrices exactly, up
    to the rep's cutoff.

    A generator is first decided as a theorem on the kits (_kit_theorem).
    Its realized tree T is read back through the marks of its kit's own
    nodes (catalogue.Kit.preimages, which verify reads through too) to a
    polynomial w, and its counterpart to its own: the normal form of the
    rep generator for the differential kind and of the formula over the
    q-mode's Fock kit for jackson, the preimage through the shift kit's
    marks for fd.  The line PASSes when the two are equal.  That rests on a
    lemma: with x^alpha on spinor mask beta read as the Fock state
    b^alpha th^beta |0>, each marked node is, on the whole space, the
    counterpart kit's node in its place, in closed form:
        Partial_i acts as a_i and MultX_i as b_i;
        the fd D+ is (ShiftX - 1)/d with ShiftX = ExpA, e^{d a}, so it is
            the shift pair's ahat (e^{d a} - 1)/d;
        the fd b is x(1 - d D-) = MultX ShiftX(-d), the shift pair's
            bhat b e^{-d a};
        JacksonX sends x^k to (q^k - 1)/(q - 1) x^(k-1) = [k]_q x^(k-1),
            as the q-mode's a sends b^k|0> (weyl.act);
        the Pauli-Kronecker matrices are the Jordan-Wigner th_j and dth_j
            on the 2^r masks
    (Roman, The Umbral Calculus, 1984; Jackson, Trans. Roy. Soc. Edinburgh
    46, 1908).  So T over the realized kit is T over the counterpart kit,
    which is w over the counterpart kit: the counterpart itself, as that
    kit's nodes obey the relations their marks do (trivially for a Fock
    kit, by catalogue.shift_pair for the shift kit).  The two agree on
    every state, out-of-basis parts included.  tests/test_realize.py
    checks the lemma node by node on every kit pair the grid builds.

    Every other generator (a node with no preimage, such as a bare Fock
    polynomial bump, or a differing word) is compared state by state on the
    shared graded basis (_difference); overflow column sets must agree and
    are excluded from entry comparison only when flagged on both sides.
    """
    cutoff = rep.default_cutoff
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    realized = realize_generators(rep, kind)
    abstract = abstract_counterpart(rep, kind)
    decided = _kit_theorem(rep, kind, realized, abstract)
    passed = "dim %d, cutoff %d" % (len(basis_states(rep.modes, cutoff)), cutoff)
    results = []
    for name, op in realized.items():
        diff = "" if name in decided else _difference(op, abstract[name], cutoff)
        if diff:
            results.append(CheckResult("cross %s %s" % (kind, name), "FAIL", "", diff))
        else:
            results.append(CheckResult("cross %s %s" % (kind, name), "PASS", passed))
    return results
