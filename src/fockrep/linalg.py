"""Exact linear algebra over Q(sqrt2): the echelon spans that closure, the
Killing rank and Burnside use, and the dense identity and product of
Burnside's exact fallback.

Sparse vectors are dicts key -> coefficient with mutually comparable keys.
Elimination pivots on the first (smallest) nonzero coordinate, never on
magnitude, so every result is deterministic and exact; a zero residual
means an identity, not a tolerance.
"""

from __future__ import annotations

from .scalars import exact, inverse
from .weyl import accumulate


class EchelonSpan:
    """Incrementally echelonized span with coordinates in the inserted vectors.

    Each stored row is normalized to pivot coefficient 1 and remembers how it
    combines the original insertions, so membership tests come back with the
    exact coefficients.
    """

    def __init__(self):
        self.rows = []  # (pivot_key, vec, combo) with combo: orig_index -> coefficient
        self.pivot_map = {}
        self.n_inserted = 0

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict, used: dict):
        """Eliminate vec against the stored rows in place, adding to used
        each row's combination times the multiple subtracted; returns the
        first key left in vec, or None when vec reduced to zero."""
        while vec:
            k = min(vec)
            row_idx = self.pivot_map.get(k)
            if row_idx is None:
                return k
            _, rvec, rcombo = self.rows[row_idx]
            lam = vec[k]
            for j, v in rvec.items():
                accumulate(vec, j, -(lam * v))
            for j, v in rcombo.items():
                accumulate(used, j, lam * v)
        return None

    def insert(self, vec: dict) -> bool:
        """Add a vector; False when it was already in the span."""
        idx = self.n_inserted
        self.n_inserted += 1
        # starting from -inserted, used ends as minus red's combination
        red, used = dict(vec), {idx: -1}
        pivot = self._reduce(red, used)
        if pivot is None:
            return False
        inv = inverse(red[pivot])
        red = {k: exact(v * inv) for k, v in red.items()}
        neg_inv = -inv
        combo = {k: exact(v * neg_inv) for k, v in used.items()}
        self.pivot_map[pivot] = len(self.rows)
        self.rows.append((pivot, red, combo))
        return True

    def express(self, vec: dict):
        """Coefficients c with vec = sum c_i * inserted_i, or (None, residual)."""
        residual, coeffs = dict(vec), {}
        if self._reduce(residual, coeffs) is not None:
            return None, residual
        return coeffs, {}


# -- dense helpers (small matrices) ---------------------------------------------


def mat_identity(d: int):
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def mat_mul(x, y):
    d = len(x)
    m = len(y[0]) if y else 0
    out = [[0] * m for _ in range(d)]
    for i in range(d):
        xi = x[i]
        oi = out[i]
        for k, xik in enumerate(xi):
            if not xik:
                continue
            yk = y[k]
            for j in range(m):
                if yk[j]:
                    oi[j] = oi[j] + xik * yk[j]
    return out
