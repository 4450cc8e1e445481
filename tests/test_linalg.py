"""Independent oracle: sympy's ranks over QQ and QQ(sqrt2) against the
engine's own linear algebra."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fockrep.linalg import EchelonSpan
from fockrep.scalars import SQRT2, Scalar, exact, rat
from oracles import to_sympy

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

QQ_SQRT2 = QQ.algebraic_field(sympy.sqrt(2))


def _random_rows(rng, n_rows, n_cols, entry):
    """Random rows, some of them combinations of earlier ones."""
    rows = []
    for _ in range(n_rows):
        if len(rows) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(rows, 2)
            c = entry(rng)
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            rows.append([entry(rng) for _ in range(n_cols)])
    return rows


def _rational_entry(rng):
    return exact(rat(rng.randint(-4, 4), rng.randint(1, 3)))


def _scalar_entry(rng):
    # a sprinkle of zeros keeps the rank deficient now and then
    if rng.random() < 0.3:
        return Scalar(0)
    return Scalar(rat(rng.randint(-4, 4), rng.randint(1, 3)),
                  rat(rng.randint(-2, 2), rng.randint(1, 3)))


def _sympy_element(domain, x):
    assert domain is not QQ or type(x) is not Scalar
    return domain.from_sympy(to_sympy(x))


@pytest.mark.parametrize("domain, entry", [(QQ, _rational_entry),
                                           (QQ_SQRT2, _scalar_entry)])
def test_echelon_rank_matches_sympy(domain, entry):
    rng = random.Random(11)
    for _ in range(12):
        n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
        rows = _random_rows(rng, n_rows, n_cols, entry)
        span = EchelonSpan()
        for row in rows:
            span.insert({j: x for j, x in enumerate(row) if x})
        dm = DomainMatrix([[_sympy_element(domain, x) for x in row] for row in rows],
                          (n_rows, n_cols), domain)
        assert span.dim == dm.rank()


_span_entries = st.builds(lambda p, q, s: exact(rat(p, q) + s * SQRT2),
                          st.integers(-3, 3), st.integers(1, 3), st.sampled_from([0, 0, 1, -1]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 6), _span_entries, min_size=1, max_size=5),
                min_size=1, max_size=6),
       st.lists(_span_entries, min_size=6, max_size=6))
def test_echelon_express_returns_the_combination(vectors, weights):
    span = EchelonSpan()
    independent = []
    for vec in vectors:
        vec = {k: v for k, v in vec.items() if v}
        before = dict(vec)
        if span.insert(vec):
            independent.append((span.n_inserted - 1, vec))
        assert vec == before
    total = {}
    for (idx, vec), c in zip(independent, weights):
        for k, v in vec.items():
            total[k] = exact(total.get(k, 0) + c * v)
    total = {k: v for k, v in total.items() if v}
    before = dict(total)
    coeffs, residual = span.express(total)
    assert total == before and residual == {}
    assert coeffs == {idx: c for (idx, _), c in zip(independent, weights) if c}
