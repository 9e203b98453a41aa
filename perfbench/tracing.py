"""Call probes and a span tracer that instrument egta from outside.

Nothing under ``src/`` is edited. Instrumentation replaces module attributes
(for example ``egta.experiments.gs``) with wrappers for the duration of a
``with patched(...)`` block and restores them afterwards. Because the library
looks these names up at call time, the wrappers see every call that crosses
the patched boundary.

Spans are kept in memory as lists ``[layer, fn, start, end, parent, pass,
counts]`` and written out once, after measurement ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Iterable

clock = time.perf_counter


def _resolve(target: str):
    """'pkg.module:Attr.attr' -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


@contextmanager
def patched(replacements: Iterable[tuple[str, Callable[[Callable], Callable]]]):
    """Replace each target attribute by ``wrap(original)`` while the block
    runs; the originals are restored even when the block raises."""
    saved = []
    try:
        for target, wrap in replacements:
            owner, attr = _resolve(target)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class CallLog:
    """End-to-end probe: records (start, end, args, kwargs, result, error)
    for every call through a patched attribute."""

    def __init__(self):
        self.calls: list[tuple] = []

    def wrap(self, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                calls.append((start, clock(), args, kwargs, None, exc))
                raise
            calls.append((start, clock(), args, kwargs, result, None))
            return result

        return probe


# ---------------------------------------------------------------------------
# Per-layer tracing

def _hash_counts(result):
    return {"elems": int(result.size)}


def _block_counts(result):
    rows, cols = result.shape
    return {"rows": rows, "cols": cols, "evals": rows * cols}


def _psp_counts(result):
    trace = result.trace
    sum_m = sum(rec.m for rec in trace)
    return {
        "iterations": len(trace),
        "query_cost": sum(rec.m * rec.index_count for rec in trace),
        "survivor_evals": trace[-1].index_count * sum_m,
    }


# (layer, patch targets, counter). Targets are the names through which one
# module calls another on the workloads' paths, plus the entry points the
# benchmark itself calls.
TRACE_POINTS = (
    ("hashing.hash_uniform", ("egta.simulators:hash_uniform",), _hash_counts),
    ("hashing.mix", ("egta.experiments:mix", "egta.algorithms:mix"), None),
    ("simulators.sample_block", ("egta.simulators:NoisySimulator.sample_block",), _block_counts),
    ("simulators.draw_conditions", ("egta.algorithms:draw_conditions",), None),
    (
        "simulators.generate",
        tuple(f"egta.experiments:{fn}" for fn in ("gen_rc", "gen_rg", "expand", "noisy_sim")),
        None,
    ),
    (
        "bounds",
        ("egta.algorithms:hoeffding_eps", "egta.algorithms:era_eps", "egta.experiments:hoeffding_eps"),
        None,
    ),
    ("algorithms.gs", ("egta.experiments:gs", "egta.algorithms:gs"), None),
    ("algorithms.psp", ("egta.experiments:psp", "egta.algorithms:psp"), _psp_counts),
    ("games.nash_mask", ("egta.experiments:nash_mask", "egta.games:nash_mask"), None),
    ("games.pure_eps_nash", ("egta.algorithms:pure_eps_nash",), None),
    ("games.rationalizable", ("egta.algorithms:rationalizable",), None),
    (
        "experiments",
        (
            "egta.experiments:run_eps_vs_samples",
            "egta.experiments:run_gs_vs_psp",
        ),
        None,
    ),
)

ROOT = "pass"  # the benchmark's own span around one workload pass


class Tracer:
    """Records one span per call through every trace point."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.current_pass = -1

    def _wrap(self, layer: str, counter) -> Callable[[Callable], Callable]:
        spans, stack = self.spans, self._stack

        def make(fn):
            name = getattr(fn, "__name__", layer)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.current_pass, None]
                stack.append(len(spans))
                spans.append(span)
                span[2] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[3] = clock()
                    stack.pop()
                if counter is not None:
                    span[6] = counter(result)
                return result

            return traced

        return make

    def replacements(self):
        return [
            (target, self._wrap(layer, counter))
            for layer, targets, counter in TRACE_POINTS
            for target in targets
        ]

    def run_pass(self, pass_index: int, body: Callable[[], object]):
        """Call ``body`` inside a root span for one workload pass; the library
        spans it causes become its children."""
        self.current_pass = pass_index
        return self._wrap(ROOT, None)(body)()

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for layer, fn, start, end, parent, pass_index, counts in self.spans:
                record = {"name": f"{layer}:{fn}", "start": start, "end": end, "parent": parent, "pass": pass_index}
                if counts:
                    record["counts"] = counts
                fh.write(json.dumps(record) + "\n")


def layer_metrics(
    spans: list[list], passes: int, traced_wall: float, untraced_wall: float
) -> dict[str, float]:
    """Per-layer figures from the spans of ``passes`` traced passes.

    Counts and busy times are per pass; ``self_s`` is a span's duration
    minus the part of it that its child spans cover. Rates and means are
    over all spans. ``traced_wall`` and ``untraced_wall`` time the same
    passes with and without tracing.
    """
    child = [0.0] * len(spans)
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    counts: dict[str, dict[str, int]] = {}
    gs_self = []
    for i, (layer, _, start, end, _, _, extra) in enumerate(spans):
        self_time = end - start - child[i]
        calls[layer] = calls.get(layer, 0) + 1
        own[layer] = own.get(layer, 0.0) + self_time
        inclusive[layer] = inclusive.get(layer, 0.0) + (end - start)
        if extra:
            bucket = counts.setdefault(layer, {})
            for key, value in extra.items():
                bucket[key] = bucket.get(key, 0) + value
        if layer == "algorithms.gs":
            gs_self.append(self_time)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def count(layer: str, key: str) -> int:
        return counts.get(layer, {}).get(key, 0)

    out = {}
    for layer in (
        "hashing.hash_uniform",
        "hashing.mix",
        "simulators.sample_block",
        "simulators.draw_conditions",
        "simulators.generate",
        "bounds",
        "algorithms.gs",
        "algorithms.psp",
        "games.nash_mask",
        "games.pure_eps_nash",
        "games.rationalizable",
        "experiments",
    ):
        out[f"{layer}.calls"] = calls.get(layer, 0) / passes
        out[f"{layer}.self_s"] = own.get(layer, 0.0) / passes

    hash_elems = count("hashing.hash_uniform", "elems")
    out["hashing.hash_uniform.elems"] = hash_elems / passes
    out["hashing.hash_uniform.elems_per_s"] = ratio(hash_elems, own.get("hashing.hash_uniform", 0.0))

    blocks = calls.get("simulators.sample_block", 0)
    block_evals = count("simulators.sample_block", "evals")
    out["simulators.sample_block.evals"] = block_evals / passes
    # throughput of the simulator as a whole, its hash kernel included
    out["simulators.sample_block.evals_per_s"] = ratio(
        block_evals, inclusive.get("simulators.sample_block", 0.0)
    )
    out["simulators.sample_block.rows_mean"] = ratio(count("simulators.sample_block", "rows"), blocks)
    out["simulators.sample_block.cols_mean"] = ratio(count("simulators.sample_block", "cols"), blocks)

    out["algorithms.gs.p50_us"] = statistics.median(gs_self) * 1e6 if gs_self else 0.0
    out["algorithms.psp.iterations"] = count("algorithms.psp", "iterations") / passes
    out["algorithms.psp.survivor_eval_share"] = ratio(
        count("algorithms.psp", "survivor_evals"), count("algorithms.psp", "query_cost")
    )

    covered = sum(t for layer, t in own.items() if layer != ROOT)
    out["trace.overhead_frac"] = ratio(traced_wall, untraced_wall) - 1.0
    out["trace.coverage"] = ratio(covered, traced_wall)
    return out
