"""The benchmark's two workloads and the checks on their outputs.

A workload is driven in *passes*. One pass is one call of an experiment
function at a fixed size (plus, for ``progressive``, one mixed-mode ``psp``
run), with its own experiment seed derived from the run seed and the pass
index.
Each pass returns its outputs (CSV or JSON text, digested by the runner), the
latency of every call made inside it, the utility evaluations it spent, and
how many of its calls failed a check.

The library is driven only through ``egta.experiments`` functions and
``egta.algorithms.psp``; everything else here builds inputs or checks
results.
"""

from __future__ import annotations

import inspect
import math
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import egta.algorithms as algorithms
import egta.bounds as bounds
import egta.experiments as experiments
import egta.games as games
import egta.simulators as simulators
from egta.hashing import mix

from tracing import CallLog, Tracer, clock, patched

_GS_SIG = inspect.signature(algorithms.gs)
_PSP_SIG = inspect.signature(algorithms.psp)


@dataclass
class PassResult:
    wall: float  # seconds spent in the library calls of the pass
    outputs: dict[str, str]  # output name -> text that is digested
    latencies: list[float] = field(default_factory=list)  # seconds per call
    evals: int = 0  # utility evaluations spent
    attempted: int = 0
    failures: list[str] = field(default_factory=list)  # one reason per failed call


# ---------------------------------------------------------------------------
# Output checks. Each returns None when the output is correct, else a reason.

def _tail(c: float, m: int, delta: float) -> float:
    """Tail term of the one-draw Rademacher radius, 3c sqrt(ln(1/delta)/(2m))."""
    return 3.0 * c * math.sqrt(math.log(1.0 / delta) / (2.0 * m))


def _check_eps(bound, eps: float, c: float, n: int, m: int, delta: float) -> str | None:
    if bound is algorithms.BoundType.HOEFFDING:
        expected = bounds.hoeffding_eps(c, n, m, delta)
        if eps != expected:
            return f"Hoeffding epsilon {eps!r} != hoeffding_eps {expected!r}"
        return None
    tail = _tail(c, m, delta)
    if not tail <= eps <= c + tail:
        return f"1ERA epsilon {eps!r} outside [tail {tail!r}, c + tail {c + tail!r}]"
    return None


def check_gs(args, kwargs, result) -> str | None:
    a = _GS_SIG.bind(*args, **kwargs)
    a.apply_defaults()
    a = a.arguments
    n, m, c = len(a["index_set"]), a["m"], a["c"]
    if result.m != m or len(result.index_set) != n or result.utilities.shape != (n,):
        return "gs result does not match its request"
    if not np.all(np.abs(result.utilities) <= c / 2.0):
        return "gs estimate outside the declared utility range"
    return _check_eps(a["bound"], result.epsilon, c, n, m, a["delta"])


def check_psp(args, kwargs, result) -> str | None:
    a = _PSP_SIG.bind(*args, **kwargs)
    a.apply_defaults()
    a = a.arguments
    trace, failure, c = result.trace, a["failure"], a["c"]
    if not trace:
        return "psp returned an empty trace"
    if not result.delta_total <= failure.delta:
        return f"psp delta_total {result.delta_total!r} exceeds delta {failure.delta!r}"
    last_count = None
    for rec, m_t, delta_t in zip(trace, a["sampling"].sizes(), failure.deltas()):
        if rec.m != m_t:
            return f"psp iteration {rec.t} used m={rec.m}, schedule says {m_t}"
        if last_count is not None and rec.index_count > last_count:
            return f"psp index set grew at iteration {rec.t}"
        last_count = rec.index_count
        reason = _check_eps(a["bound"], rec.epsilon, c, rec.index_count, m_t, delta_t)
        if reason:
            return f"psp iteration {rec.t}: {reason}"
    if result.epsilon != trace[-1].epsilon:
        return "psp epsilon differs from its last iteration"
    if a["pure"]:
        expected = games.pure_eps_nash(result.empirical, 2.0 * result.epsilon)
        if result.pure_equilibria != expected:
            return "psp pure_equilibria != pure_eps_nash(empirical, 2 epsilon)"
    else:
        counts = result.empirical.strategy_counts
        for strategies, k in zip(result.mixed_restriction, counts):
            if not strategies or strategies != sorted(set(strategies)) or not 0 <= strategies[0] <= strategies[-1] < k:
                return "psp mixed restriction is not a nonempty sorted strategy list"
    return None


# ---------------------------------------------------------------------------
# Workloads

def pass_seed(seed: int, index: int) -> int:
    """Experiment seed of pass ``index`` of a run with seed ``seed``."""
    return seed * 1000 + index


class Workload:
    name = ""
    tail_pct = 99.0  # keeps ten or more calls beyond it even at half this speed
    # module attributes whose calls the end-to-end probe records
    probes: tuple[str, ...] = ()
    # evaluations spent by, and the output check of, one probed call
    evals: Callable[[object], int]
    check: Callable[[tuple, dict, object], str | None]

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def prepare(self, seed: int):
        """Inputs generated from the run seed before measurement starts."""
        return seed

    def drive(self, inputs, index: int) -> dict[str, str]:
        raise NotImplementedError

    def account(self, result: PassResult, calls: list[tuple]) -> None:
        """Latencies, evaluations, attempts and failures from the probe log;
        every probed call is one call of the workload."""
        for start, end, args, kwargs, out, exc in calls:
            result.attempted += 1
            if exc is not None:
                result.failures.append(repr(exc))
                continue
            result.latencies.append(end - start)
            result.evals += self.evals(out)
            reason = self.check(args, kwargs, out)
            if reason:
                result.failures.append(reason)

    def run_pass(self, inputs, index: int, tracer: Tracer | None = None) -> PassResult:
        log = CallLog()
        replacements = [(target, log.wrap) for target in self.probes]
        outputs: dict[str, str] = {}
        error = None
        with patched(replacements):
            start = clock()
            try:
                if tracer is None:
                    outputs = self.drive(inputs, index)
                else:
                    with patched(tracer.replacements()):
                        outputs = tracer.run_pass(index, lambda: self.drive(inputs, index))
            except Exception:  # a failing pass is counted, not fatal
                error = traceback.format_exc()
            wall = clock() - start
        result = PassResult(wall, outputs)
        self.account(result, log.calls)
        if error is not None:
            result.failures.append(error)
            if not any(call[5] is not None for call in log.calls):
                result.attempted += 1  # the pass failed outside a probed call
        return result


def gs_evals(result) -> int:
    return result.m * len(result.index_set)


class Decay(Workload):
    name = "decay"
    probes = ("egta.experiments:gs",)
    evals = staticmethod(gs_evals)
    check = staticmethod(check_gs)

    def drive(self, seed, index):
        kwargs = {"reps": 10}
        if self.tiny:
            kwargs = {"reps": 1, "m_values": (1000, 3162)}
        table = experiments.run_eps_vs_samples(seed=pass_seed(seed, index), **kwargs)
        return {"eps-vs-samples.csv": table.to_csv()}


class Progressive(Workload):
    name = "progressive"
    tail_pct = 90.0
    probes = ("egta.experiments:psp", "egta.algorithms:psp")
    check = staticmethod(check_psp)
    deck_size = 8
    # mixed-mode games are drawn until the index count lands in this window,
    # so each psp run costs roughly the same
    size_window = (150, 400)

    def prepare(self, seed):
        """A deck of mixed-mode simulators: centered expansions of random
        RC(4, 6, 12, alpha=0.6) congestion games, with uniform noise d=5."""
        deck = []
        for j in range(1 if self.tiny else self.deck_size):
            for attempt in range(10_000):
                cg = simulators.gen_rc(4, 6, 12, alpha=0.6, seed=mix(seed, "mixed", j, attempt))
                game = simulators.expand(cg)
                if self.size_window[0] <= game.num_players * game.num_profiles <= self.size_window[1]:
                    break
            else:
                raise RuntimeError("no mixed-mode game in the size window")
            deck.append(simulators.noisy_sim(experiments.center_per_player(game), 5.0))
        return seed, deck

    def drive(self, inputs, index):
        seed, deck = inputs
        kwargs = {"reps": 1, "players_values": (4,), "k_values": (3, 4)}
        mixed_budget = 100 * (2**8 - 1)
        if self.tiny:
            kwargs = {"reps": 1, "players_values": (4,), "k_values": (3,), "budget": 700}
            mixed_budget = 300
        table = experiments.run_gs_vs_psp(seed=pass_seed(seed, index), **kwargs)
        sim = deck[index % len(deck)]
        result = algorithms.psp(
            sim,
            algorithms.SamplingSchedule.finite_doubling(100, mixed_budget),
            algorithms.FailureSchedule.geometric_halving(0.1),
            c=sim.range_c,
            bound=algorithms.BoundType.ONE_ERA,
            pure=False,
            seed=mix(seed, "mixed-run", index),
        )
        return {"gs-vs-psp.csv": table.to_csv(), "psp-mixed.json": result.to_json()}

    @staticmethod
    def evals(result) -> int:
        return algorithms.query_cost(result.trace)


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Decay, Progressive)}
