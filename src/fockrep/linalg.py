"""Exact linear algebra over Q(sqrt2), and spans over the prime field F_p.

Sparse vectors are dicts key -> Scalar (key -> int for F_p) with mutually
comparable keys.
Elimination pivots on the first (smallest) nonzero coordinate, never on
magnitude, so every result is deterministic and exact; a zero residual
means an identity, not a tolerance.
"""

from __future__ import annotations

from .scalars import MOD_P, ONE, ZERO, Scalar


def vec_sub_scaled(vec: dict, row: dict, coeff: Scalar) -> dict:
    """vec - coeff * row, dropping exact zeros."""
    out = dict(vec)
    for k, v in row.items():
        cur = out.get(k)
        s = -(coeff * v) if cur is None else cur - coeff * v
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


class EchelonSpan:
    """Incrementally echelonized span with coordinates in the inserted vectors.

    Each stored row is normalized to pivot coefficient 1 and remembers how it
    combines the original insertions, so membership tests come back with the
    exact coefficients.
    """

    def __init__(self):
        self.rows = []  # (pivot_key, vec, combo) with combo: orig_index -> Scalar
        self.pivot_map = {}
        self.n_inserted = 0

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict, combo: dict):
        while vec:
            k = min(vec)
            row_idx = self.pivot_map.get(k)
            if row_idx is None:
                return k, vec, combo
            _, rvec, rcombo = self.rows[row_idx]
            lam = vec[k]
            vec = vec_sub_scaled(vec, rvec, lam)
            combo = vec_sub_scaled(combo, rcombo, lam)
        return None, vec, combo

    def insert(self, vec: dict) -> bool:
        """Add a vector; False when it was already in the span."""
        idx = self.n_inserted
        self.n_inserted += 1
        pivot, red, combo = self._reduce(dict(vec), {idx: ONE})
        if pivot is None:
            return False
        inv = red[pivot].inverse()
        red = {k: v * inv for k, v in red.items()}
        combo = {k: v * inv for k, v in combo.items()}
        self.pivot_map[pivot] = len(self.rows)
        self.rows.append((pivot, red, combo))
        return True

    def express(self, vec: dict):
        """Coefficients c with vec = sum c_i * inserted_i, or (None, residual)."""
        coeffs: dict = {}
        vec = dict(vec)
        while vec:
            k = min(vec)
            row_idx = self.pivot_map.get(k)
            if row_idx is None:
                return None, vec
            _, rvec, rcombo = self.rows[row_idx]
            lam = vec[k]
            vec = vec_sub_scaled(vec, rvec, lam)
            for i, c in rcombo.items():
                cur = coeffs.get(i)
                s = lam * c if cur is None else cur + lam * c
                if s.is_zero():
                    coeffs.pop(i, None)
                else:
                    coeffs[i] = s
        return coeffs, {}


class ModPSpan:
    """Insert-only echelonized span over F_p, p = MOD_P.

    Vectors are sparse dicts key -> int; the same first-nonzero-key pivots
    as EchelonSpan, each stored row scaled to pivot coefficient 1.  Entries
    stay below p, so unlike over Q(sqrt2) no coefficient grows.
    """

    def __init__(self):
        self.rows = {}  # pivot key -> row

    @property
    def dim(self) -> int:
        return len(self.rows)

    def insert(self, vec: dict) -> bool:
        """Add a vector; False when it was already in the span."""
        p = MOD_P
        rows = self.rows
        vec = {k: v % p for k, v in vec.items() if v % p}
        get = vec.get
        while vec:
            k = min(vec)
            row = rows.get(k)
            if row is None:
                inv = pow(vec[k], -1, p)
                rows[k] = {j: v * inv % p for j, v in vec.items()}
                return True
            # add -vec[k] * row; lam * v is nonzero mod p, so an entry that
            # cancels was present in vec
            lam = p - vec[k]
            for j, v in row.items():
                s = (get(j, 0) + lam * v) % p
                if s:
                    vec[j] = s
                else:
                    del vec[j]
        return False


# -- dense helpers (small matrices) ---------------------------------------------


def mat_identity(d: int):
    return [[ONE if i == j else ZERO for j in range(d)] for i in range(d)]


def mat_mul(x, y):
    d = len(x)
    m = len(y[0]) if y else 0
    out = [[ZERO] * m for _ in range(d)]
    for i in range(d):
        xi = x[i]
        oi = out[i]
        for k, xik in enumerate(xi):
            if xik.is_zero():
                continue
            yk = y[k]
            for j in range(m):
                if not yk[j].is_zero():
                    oi[j] = oi[j] + xik * yk[j]
    return out

def mat_add(x, y):
    return [[a + b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def mat_scale(x, c):
    return [[a * c for a in row] for row in x]


def mat_trace(x) -> Scalar:
    t = ZERO
    for i in range(len(x)):
        t = t + x[i][i]
    return t


def charpoly(a) -> list:
    """Characteristic polynomial det(tI - A) by Faddeev-LeVerrier.

    Returns [1, c1, ..., cd] with p(t) = t^d + c1 t^(d-1) + ... + cd;
    the only divisions are by integers, exact over the field.
    """
    d = len(a)
    coeffs = [ONE]
    m = None
    for k in range(1, d + 1):
        m = a if m is None else mat_mul(a, mat_add(m, mat_scale(mat_identity(d), coeffs[-1])))
        ck = -(mat_trace(m) / k)
        coeffs.append(ck)
    return coeffs
