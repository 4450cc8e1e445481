import pytest

from fockrep import catalogue, realize

# every kit constructor's process-wide memo, and the family shapes'
MEMOS = (catalogue.fock_kit, catalogue._q_kit, realize.differential_kit,
         realize.fd_kit, realize.jackson_kit, catalogue._shape)


def _clear_kits():
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture
def fresh_kits():
    """Every kit memo and the family shapes cleared before the test and
    after it, so the test makes its own pair nodes and shapes and what it
    changes in place stays with it; the test may call the returned function
    to clear them again."""
    _clear_kits()
    yield _clear_kits
    _clear_kits()
