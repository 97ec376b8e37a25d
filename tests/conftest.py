"""Shared fixtures of the library's tests."""
import numpy as np
import pytest

from slpkit.blockrec import _proof_hypotheses
from slpkit.exactmat import ExactMatrix


@pytest.fixture(autouse=True)
def fresh_proof_hypotheses():
    """Empty the per-(spec, form) memo of the proof's hypotheses around every test.

    A test that stubs check_map would otherwise leave its stubbed socle
    verdict to later tests, and a warm memo would hide the socle build from
    a test that counts builds.
    """
    _proof_hypotheses.cache_clear()
    yield
    _proof_hypotheses.cache_clear()


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
