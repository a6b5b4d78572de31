"""Shared fixture: isolate the process-wide tracer between tests."""

from __future__ import annotations

import pytest

from repro.obs import TRACE_DIR_ENV, TRACE_RUN_ENV, close_tracer


@pytest.fixture(autouse=True)
def _isolated_observers(monkeypatch):
    """Every test starts (and leaves) with tracing disabled and lazy."""
    monkeypatch.delenv(TRACE_DIR_ENV, raising=False)
    monkeypatch.delenv(TRACE_RUN_ENV, raising=False)
    close_tracer()
    yield
    close_tracer()
