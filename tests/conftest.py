import sys
from contextlib import contextmanager
from pathlib import Path

# Make the helper modules in this directory (oracles, cases, stubserver)
# importable regardless of pytest's import mode.
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest

from sumfact import MockEntailmentBackend, Scorer


@pytest.fixture
def mock_backend():
    return MockEntailmentBackend()


@pytest.fixture
def scorer(mock_backend):
    return Scorer(mock_backend)


@pytest.fixture
def fast_retries(monkeypatch):
    """Retry remote requests 10 ms apart, not a second."""
    monkeypatch.setattr("sumfact.remote.RETRY_DELAY", 0.01)


@pytest.fixture
def criterion(capsys):
    """Labelled top-level checks that print one scrapeable result line each.

    Usage: ``with criterion("some-label"): <assertions>``. Prints
    ``ACCEPTANCE some-label: PASS`` when the block completes, ``FAIL`` when
    it raises (the exception still propagates and fails the test).
    """

    @contextmanager
    def run(label):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}", flush=True)

    return run
