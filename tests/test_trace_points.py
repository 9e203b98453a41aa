"""The benchmark instruments the library by patching module attributes by
name; a deleted or renamed attribute must fail here, not only in the
benchmark's own self-test."""

import importlib.util
import sys
from pathlib import Path

import pytest

import egta.algorithms as algorithms
from egta.games import IndexSet
from egta.simulators import FACTOR_KINDS, FactoredNoiseSimulator, gen_rg, noisy_sim

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves(tracing):
    targets = [target for _, group, _ in tracing.TRACE_POINTS for target in group]
    assert targets
    for target in targets:
        owner, attr = tracing._resolve(target)
        assert callable(getattr(owner, attr, None)), target
    # patching takes a method from its class's own __dict__, so a method
    # that is only inherited fails here
    with tracing.patched([(target, lambda fn: fn) for target in targets]):
        pass


def test_tracer_sees_the_kernel(tracing):
    # a kernel reached by any other name than the traced one would read
    # zero calls here, and zero in every per-layer hash or block metric;
    # the factored simulator inherits the traced sample_block. Hoeffding
    # samples the 81 rows of 5000 samples in tiles of _TILE_ELEMS, and 1ERA
    # the one column block in one call
    game = gen_rg(3, 3, seed=1)
    sims = [noisy_sim(game, 2.0), FactoredNoiseSimulator(5.0, [1.0, 0.5, 0.25, 0.5, 1.0], FACTOR_KINDS, game, 0)]
    tiles = -(-81 // (algorithms._TILE_ELEMS // 5000))
    for sim in sims:
        for bound, calls in (("hoeffding", tiles), ("1era", 1)):
            tracer = tracing.Tracer()
            with tracing.patched(tracer.replacements()):
                tracer.run_pass(0, lambda: algorithms.gs(sim, IndexSet.full(game.strategy_counts), 5000, 0.05, sim.range_c, bound))
            metrics = tracing.layer_metrics(tracer.spans, 1, 1.0, 1.0)
            assert metrics["hashing.hash_uniform.calls"] == metrics["simulators.sample_block.calls"] == calls
            assert metrics["hashing.hash_uniform.elems"] == metrics["simulators.sample_block.evals"] == 81 * 5000
