"""Shared fixtures of the library's tests."""
import numpy as np
import pytest

from slpkit.blockrec import _auto_route
from slpkit.embedding import _target_middle_maps
from slpkit.exactmat import ExactMatrix

# every memo that holds built maps or decisions; tests/test_package.py checks
# that each lru_cache of blockrec and embedding is listed here
MEMOS = (_auto_route, _target_middle_maps)


@pytest.fixture(autouse=True)
def fresh_memos():
    """Empty every memo in MEMOS around every test.

    A test that stubs check_map, build_matrix or phi_matrix would otherwise
    leave its stubbed results to later tests, and a warm memo would hide a
    build from a test that counts them.
    """
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture
def from_rows_dtypes(monkeypatch):
    """Spy on ExactMatrix.from_rows: the dtype of every ndarray it is handed."""
    seen = []
    original = ExactMatrix.__dict__["from_rows"].__func__

    def spy(cls, rows, *args, **kwargs):
        if isinstance(rows, np.ndarray):
            seen.append(rows.dtype)
        return original(cls, rows, *args, **kwargs)

    monkeypatch.setattr(ExactMatrix, "from_rows", classmethod(spy))
    return seen
