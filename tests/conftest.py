"""Fixtures shared by the test modules."""

import sys
from collections import Counter

import pytest

from certapprox import approximate, basis, records, target


@pytest.fixture
def work(monkeypatch):
    """Calls of canonical_dumps and from_dict, counted at records, which
    defines them, and through every module that binds them; clear() it to
    count from a later point."""
    calls = Counter()
    modules = [m for k, m in sys.modules.items() if k.startswith("certapprox.")]
    for name in ("canonical_dumps", "from_dict"):
        inner = getattr(records, name)

        def counted(*args, name=name, inner=inner, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        for module in modules:
            if getattr(module, name, None) is inner:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def chebyshev_nodes(monkeypatch):
    """chebyshev_nodes(degree): the nodes and weights that
    approximate.chebyshev_coefficients hands _term_sums at that degree,
    with no term summed."""
    seen = []
    monkeypatch.setattr(approximate, "_term_sums",
                        lambda f, family, js, x, w: seen.append((x, w)) or iter(()))

    def nodes(degree):
        approximate.chebyshev_coefficients(target.from_builtin("exp"), degree)
        return seen.pop()
    return nodes


@pytest.fixture
def tables(monkeypatch):
    """Calls of BasisElement.value and deriv, and node counts: of each series
    summed over term tables under "sums", of each term table under "tables",
    of each SpanTable built under "spans"."""
    seen = {"value": 0, "deriv": 0, "sums": [], "tables": [], "spans": []}

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
    count(basis.SpanTable, "__init__", "spans", nodes_at=2)
    return seen
