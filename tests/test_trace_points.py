"""The benchmark instruments the library by patching module attributes by
name; a deleted or renamed attribute must fail here, not only in the
benchmark's own self-test."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_point_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [target for _, group, _ in tracing.TRACE_POINTS for target in group]
    assert targets
    for target in targets:
        owner, attr = tracing._resolve(target)
        assert callable(getattr(owner, attr, None)), target
    # patching takes a method from its class's own __dict__, so a method
    # that is only inherited fails here
    with tracing.patched([(target, lambda fn: fn) for target in targets]):
        pass
