"""The benchmark instruments the library by patching module attributes by
name, and drives it by attribute and parameter name; a deleted or renamed
attribute or parameter must fail here, not only in the benchmark's own
self-test."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import egta.algorithms as algorithms
from egta.games import IndexSet
from egta.simulators import FACTOR_KINDS, FactoredNoiseSimulator, gen_rg, noisy_sim

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")
# the library modules that workloads.py imports as bare names
MODULES = ("algorithms", "bounds", "experiments", "games", "simulators")


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


def _chain(node):
    """The dotted name of an attribute chain on a bare name, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and (owner := _chain(node.value)):
        return f"{owner}.{node.attr}"
    return None


def test_every_library_name_the_workloads_use_resolves():
    tree = ast.parse(WORKLOADS.read_text())
    # every attribute chain on a library module, its prefixes included
    chains = {_chain(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    chains = {chain for chain in chains if chain and chain.split(".")[0] in MODULES}
    assert {
        "algorithms.SamplingSchedule.finite_doubling",
        "algorithms.FailureSchedule.geometric_halving",
        "simulators.noisy_sim",
    } <= chains
    for chain in sorted(chains):
        module, *attrs = chain.split(".")
        owner = importlib.import_module(f"egta.{module}")
        for attr in attrs:
            assert hasattr(owner, attr), f"perfbench/workloads.py uses {chain}, which is gone"
            owner = getattr(owner, attr)


def test_checks_bind_the_parameter_names_of_gs_and_psp():
    # check_gs and check_psp bind each call to its function's signature and
    # read the bound arguments by name, as a["name"]
    tree = ast.parse(WORKLOADS.read_text())
    checks = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for function in (algorithms.gs, algorithms.psp):
        check = checks[f"check_{function.__name__}"]
        read = {
            n.slice.value
            for n in ast.walk(check)
            if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name) and n.value.id == "a"
            and isinstance(n.slice, ast.Constant)
        }
        assert read, check.name
        missing = read - set(inspect.signature(function).parameters)
        assert not missing, f"{check.name} reads {sorted(missing)}, not parameters of {function.__name__}"


def test_tracer_sees_the_kernel(tracing):
    # a kernel reached by any other name than the traced one would read
    # zero calls here, and zero in every per-layer hash or block metric;
    # the factored simulator inherits the traced sample_block. Hoeffding
    # samples the 81 rows of 5000 samples in tiles of _TILE_ELEMS, and 1ERA
    # the one column block in one call. gs draws its conditions, and its
    # signs, in one call of the traced draw_conditions
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
            assert metrics["simulators.draw_conditions.calls"] == metrics["algorithms.gs.calls"] == 1
