"""Fixtures shared by the test modules."""

from collections import Counter

import pytest

from certapprox import certificate, glue, limit


@pytest.fixture
def work(monkeypatch):
    """Calls of canonical_dumps and from_dict, counted through every module
    that calls them; clear() it to count from a later point."""
    calls = Counter()

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(certificate, "canonical_dumps")
    for module in (certificate, glue, limit):
        count(module, "from_dict")
    return calls
