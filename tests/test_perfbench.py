"""The traced benchmark wraps certapprox functions by name; a rename in
src/ must fail here rather than break the benchmark's traced runs."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of the certapprox modules and classes, by identity."""
    holders = [m for k, m in sys.modules.items()
               if k == "certapprox" or k.startswith("certapprox.")]
    holders += [v for m in list(holders) for v in vars(m).values()
                if isinstance(v, type) and v.__module__.startswith("certapprox")]
    return {(id(h), k): v for h in holders for k, v in vars(h).items()}


def test_every_traced_name_still_exists():
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in _spans()._targets()
               if not hasattr(owner, attr)]
    assert missing == []


def test_tracer_install_and_uninstall_round_trip():
    spans = _spans()
    targets = [(owner, attr, getattr(owner, attr))
               for owner, attr, _, _ in spans._targets()]
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in targets)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in targets)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
