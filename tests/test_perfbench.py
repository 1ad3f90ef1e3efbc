"""The benchmark calls certapprox directly and wraps its functions by name
when traced; a change in src/ that breaks either must fail here rather than
in the benchmark's runs."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import certapprox

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
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
               for owner, attr, _, _ in _load("spans")._targets()
               if not hasattr(owner, attr)]
    assert missing == []


def test_tracer_install_and_uninstall_round_trip():
    spans = _load("spans")
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


@pytest.mark.parametrize("workload", ["gram_workload", "compose_workload"])
def test_in_process_workloads_build_verify_and_refuse_their_forgeries(
        workload, monkeypatch, tmp_path):
    # the worker imports spans from its own directory
    monkeypatch.setitem(sys.modules, "spans", _load("spans"))
    worker = _load("worker")
    bench, _ = getattr(worker, workload)(certapprox, random.Random(1), str(tmp_path))
    for doc in bench.docs:
        cert = doc.build()
        assert doc.pinned(cert) is None, doc.name
        data = certapprox.canonical_dumps(cert.to_dict())
        assert doc.verify(data).verdict, doc.name
        assert not doc.verify(worker.forge(certapprox, data)).verdict, doc.name
