"""Fixtures shared by the test modules."""

from collections import Counter

import pytest

from certapprox import basis, certificate, glue, limit


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


@pytest.fixture
def tables(monkeypatch):
    """Calls of BasisElement.value and deriv, and node counts: of each series
    summed over term tables under "sums", of each term table under "tables"."""
    seen = {"value": 0, "deriv": 0, "sums": [], "tables": []}

    def count(owner, name, key, nodes_at=None):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            if nodes_at is None:
                seen[key] += 1
            else:
                seen[key].append(args[nodes_at].size)
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(basis.BasisElement, "value", "value")
    count(basis.BasisElement, "deriv", "deriv")
    count(basis, "_table_sum", "sums", nodes_at=3)
    count(basis, "term_table", "tables", nodes_at=2)
    return seen
