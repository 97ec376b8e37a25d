"""Shared fixtures of the library's tests."""
import numpy as np
import pytest

from slpkit.blockrec import _auto_route
from slpkit.exactmat import ExactMatrix


@pytest.fixture(autouse=True)
def fresh_memo():
    """Empty the auto route's memo, its one decision per (spec, form), around every test.

    A test that stubs check_map or build_matrix would otherwise leave its
    stubbed verdicts to later tests, and a warm memo would hide the socle
    build or the fold from a test that counts them.
    """
    _auto_route.cache_clear()
    yield
    _auto_route.cache_clear()


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
