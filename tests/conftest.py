"""Shared fixtures of the library's tests."""
import numpy as np
import pytest

from slpkit.exactmat import ExactMatrix


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
