import pytest

from fockrep import catalogue, fock, realize, weyl

# every process-wide memo: the kit constructors', the family shapes', and
# the tables keyed by data alone (weyl's monomial products and actions, the
# binomial rows of ExpA, the gl(k+1|r) rows)
MEMOS = (catalogue.fock_kit, catalogue._q_kit, realize.differential_kit,
         realize.fd_kit, realize.jackson_kit, catalogue._shape, weyl._pair, weyl.act,
         fock._binomial_row, catalogue.gl_rows)


def _clear_kits():
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture
def fresh_kits():
    """Every memo in MEMOS cleared before the test and after it, so the
    test makes its own pair nodes, shapes and tables, and what it changes
    in place stays with it; the test may call the returned function to
    clear them again."""
    _clear_kits()
    yield _clear_kits
    _clear_kits()
