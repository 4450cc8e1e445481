"""Independent brute-force oracles used only by the test suite.

The production algebra reorders with closed-form binomial sums and
transposition-counted signs.  These oracles instead rewrite words one
adjacent swap at a time, straight from the defining relations, and are
deliberately naive.  The Jacobi oracle walks all m^3 index triples.
"""

from fockrep.scalars import Scalar
from fockrep.verify import CheckResult, StructureConstants
from fockrep.weyl import ModeSystem, WeylElement, accumulate

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
    """Normal-order a single word by repeated adjacent swaps."""
    result = WeylElement.zero(modes)
    stack = [(tuple(word), Scalar.of(coeff))]
    while stack:
        w, c = stack.pop()
        pos = _first_violation(w)
        if pos is None:
            result = result + _word_to_element(w, c, modes)
            continue
        x, y = w[pos], w[pos + 1]
        head, tail = w[:pos], w[pos + 2:]
        if _is_fermionic(x) and x == y:
            continue  # nilpotent square kills the word
        if x[0] == "a" and y[0] == "b" and x[1] == y[1]:
            stack.append((head + (y, x) + tail, c))  # ab -> ba + 1
            stack.append((head + tail, c))
        elif _is_fermionic(x) and _is_fermionic(y):
            if x[0] == "dth" and y[0] == "th" and x[1] == y[1]:
                stack.append((head + tail, c))  # dth th -> 1 - th dth
                stack.append((head + (y, x) + tail, -c))
            else:
                stack.append((head + (y, x) + tail, -c))
        else:
            stack.append((head + (y, x) + tail, c))  # commuting swap
    return result


def _first_violation(word):
    for pos in range(len(word) - 1):
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

    terms are dicts (k, m) -> Scalar for b^k a^m words; returns the same
    shape, fully reordered by adjacent swaps.
    """
    qs = Scalar.of(q)
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
            cur = out.get(key, Scalar(0)) + c
            if cur.is_zero():
                out.pop(key, None)
            else:
                out[key] = cur
            continue
        head, tail = word[:pos], word[pos + 2:]
        stack.append((head + ("b", "a") + tail, c * qs))
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
                    l, v = next(iter(acc.items()))
                    return CheckResult(
                        "jacobi", "FAIL", "",
                        "triple (%s,%s,%s): coefficient of %s is %s, not 0"
                        % (sc.names[i], sc.names[j], sc.names[k], sc.names[l], v))
    return CheckResult("jacobi", "PASS", "%d triples" % (m ** 3))
