"""Learning algorithms: one-shot global sampling and progressive sampling
with pruning.

Global sampling draws a single batch of conditions, estimates every index in
an index set by its sample mean, and attaches a uniform error radius from the
chosen concentration bound. Progressive sampling repeats this on a growing
sample schedule, discarding (player, profile) indices that provably cannot
matter for equilibrium estimation, and accumulates the failure probability it
has spent.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .bounds import _check_common, era_eps, hoeffding_eps
from .games import (
    IndexSet,
    NormalFormGame,
    Profile,
    _game,
    _strategy_counts,
    pure_eps_nash,
    rationalizable,
    regret_table,
)
from .hashing import _integer, _real, draw_conditions, mix
from .simulators import ConditionalSimulator

# cap on elements per sampling block; its column count sets how many
# conditions each row sum adds at once, so it fixes the results' bits
# (chunk boundaries depend only on the index-set size)
_BLOCK_ELEMS = 2_000_000
# cap on elements per Hoeffding row tile, which keeps its buffer at 2 MB
# (the kernel sums each row as it writes it, so no tile is read again);
# 1ERA samples each whole column block in one call instead, because its
# signed sum reads the block. Results are bit-identical for any value,
# because row sums never cross a row
_TILE_ELEMS = 262_144


class BoundType(Enum):
    HOEFFDING = "hoeffding"
    ONE_ERA = "1era"


@dataclass(frozen=True)
class SamplingSchedule:
    """Doubling sample-size schedule M_1 = m0, M_{t+1} = 2 M_t.

    The finite variant emits sizes while their running total stays within
    ``budget`` conditions; the infinite variant never stops.
    """

    m0: int
    budget: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "m0", _integer(self.m0, "initial sample size m0", least=1))
        if self.budget is not None:  # at least m0, so that one iteration fits
            object.__setattr__(self, "budget", _integer(self.budget, "budget", least=self.m0))

    @staticmethod
    def finite_doubling(m0: int, budget: int) -> "SamplingSchedule":
        return SamplingSchedule(m0, budget)

    @property
    def length(self) -> int | None:
        """Number of iterations, or None when infinite."""
        return None if self.budget is None else sum(1 for _ in self.sizes())

    def sizes(self) -> Iterator[int]:
        m, total = self.m0, 0
        while self.budget is None or total + m <= self.budget:
            yield m
            total += m
            m *= 2


@dataclass(frozen=True)
class FailureSchedule:
    """Per-iteration failure probabilities delta_t with sum at most delta."""

    delta: float
    steps: int | None = None  # uniform split over this many steps; None = geometric

    def __post_init__(self):
        object.__setattr__(self, "delta", _real(self.delta, "total failure probability", "in (0, 1)"))
        if self.steps is not None:
            steps = _integer(self.steps, "number of steps", least=1)
            if not (steps <= sys.float_info.max and self.delta / steps > 0):
                raise ValueError("too many steps: delta / steps is not a positive float")
            object.__setattr__(self, "steps", steps)

    @staticmethod
    def geometric_halving(delta: float) -> "FailureSchedule":
        return FailureSchedule(delta, None)

    def deltas(self) -> Iterator[float]:
        if self.steps is not None:
            return itertools.repeat(self.delta / self.steps, self.steps)
        return (self.delta * 2.0**-t for t in itertools.count(1))


@dataclass(frozen=True, eq=False)
class GSResult:
    """Empirical utilities over an index set of the sampled game plus a uniform error radius."""

    index_set: IndexSet
    utilities: np.ndarray
    epsilon: float
    m: int
    delta: float
    bound: BoundType

    def sup_deviation(self, truth: NormalFormGame) -> float:
        """Largest estimate error against the known expected game; ValueError
        unless it is a NormalFormGame of the sampled game's strategy counts."""
        _check_counts(self.index_set, _game(truth, "truth").strategy_counts)
        actual = truth.utilities[self.index_set.players, self.index_set.profiles]
        return float(np.abs(self.utilities - actual).max())

    def to_game(self) -> NormalFormGame:
        """The empirical game: estimates at their indices, zero elsewhere."""
        counts = self.index_set.strategy_counts
        table = np.zeros((len(counts), math.prod(counts)))
        table[self.index_set.players, self.index_set.profiles] = self.utilities
        return NormalFormGame(counts, table)

    def to_json(self) -> str:
        return json.dumps(
            {
                "indices": [[int(p), int(s)] for p, s in self.index_set.pairs()],
                "utilities": self.utilities.tolist(),
                "epsilon": self.epsilon,
                "m": self.m,
                "delta": self.delta,
                "bound": self.bound.value,
            }
        )


def gs(
    sim: ConditionalSimulator,
    index_set: IndexSet,
    m: int,
    delta: float,
    c: float,
    bound: BoundType | str,
    seed: int = 0,
) -> GSResult:
    """Global sampling: estimate every index from m shared conditions and
    bound the uniform error. ``bound`` is a BoundType or its value
    ("hoeffding" or "1era"); anything else raises ValueError.

    With the Hoeffding bound the radius is the Bonferroni-corrected
    c*sqrt(ln(2|I|/delta)/(2m)); with the one-draw empirical Rademacher
    average it is 2r + 3c*sqrt(ln(1/delta)/(2m)) for a fresh sign draw.
    A zero range c makes every sample exact, and both radii are then zero.
    A c below ``sim.range_c`` raises ValueError: its radius would not bound
    the samples. So does anything but an IndexSet of ``sim``'s strategy
    counts, and samples whose sums over the m conditions overflow the
    float range.

    The m condition seeds and, under 1ERA, the m signs come from
    ``random_raw`` on a fresh PCG64 seeded with ``seed``, an integer taken
    mod 2^64 (so -1 and 2^64 - 1 give the same bits); they are the bits
    numpy's ``Generator.integers`` draws from it (see ``draw_conditions``).
    Conditions are consumed in column blocks of at most _BLOCK_ELEMS
    samples. Each call owns one buffer; the simulator writes every tile, of
    a row slice of the index set, into a view of it and adds the tile's row
    sums onto the estimates' running sums, as numpy's ``tile.sum(axis=1)``
    would. Under Hoeffding
    each block is sampled in row tiles of _TILE_ELEMS samples (at least one
    row), which keeps the buffer at 2 MB and leaves every estimate
    unchanged. Under 1ERA the buffer holds a whole [n, cols] block, sampled
    in one call, and the signed sum ``block @ sigma`` is taken once per
    column block, because its bits depend on the number of rows in the
    product. Those bits also depend on the BLAS thread count, so a 1ERA
    radius reproduces only at a fixed thread count; estimates and Hoeffding
    radii do not depend on it.
    """
    bound = BoundType(bound)
    _check_counts(index_set, sim.strategy_counts)
    n = len(index_set)
    if n == 0:
        raise ValueError("index set must be nonempty")
    m = _integer(m, "sample count m", least=1)
    c, _, delta = _check_common(c, m, delta)
    _check_range(sim, c)

    cond_seeds, sigma = draw_conditions(seed, m, bound is BoundType.ONE_ERA)

    # the running sums and, under 1ERA, the signed sums below them, in one
    # array whose rows' largest magnitudes are read, and checked, at once
    acc = np.zeros((1 if sigma is None else 2, n))
    sums = acc[0]
    block = max(1, _BLOCK_ELEMS // n)
    # the first block is the widest; a Hoeffding tile holds at most
    # max(_TILE_ELEMS, cols) samples, and a 1ERA tile is a whole block
    widest = min(block, m)
    buffer = np.empty(n * widest if sigma is not None else min(n * widest, max(_TILE_ELEMS, widest)))
    for start in range(0, m, block):
        stop = min(start + block, m)
        cols = stop - start
        rows = n if sigma is not None else max(1, _TILE_ELEMS // cols)
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            tile = buffer[: (r1 - r0) * cols].reshape(r1 - r0, cols)
            sim.sample_block(cond_seeds[start:stop], index_set[r0:r1], tile, sums[r0:r1])
        if sigma is not None:  # the one tile is the whole block
            acc[1] += tile @ sigma[start:stop]
    top = np.abs(acc).max(axis=1).tolist()  # each row's largest |sum|, NaN if one is
    if not all(map(math.isfinite, top)):
        raise ValueError(f"the sums of {m} samples overflow the float range: the samples are too large for this m")
    means = sums / m

    if bound is BoundType.HOEFFDING:
        epsilon = hoeffding_eps(c, n, m, delta)
    else:
        epsilon = era_eps(top[1] / m, c, m, delta)
    return GSResult(index_set, means, epsilon, m, delta, bound)


def _check_range(sim: ConditionalSimulator, c: float) -> None:
    if c < sim.range_c:
        raise ValueError(f"utility range c = {c} is below the simulator's declared range {sim.range_c}")


def _check_counts(index_set: IndexSet, declared: Sequence[int]) -> None:
    if not isinstance(index_set, IndexSet):
        raise ValueError(f"the index set must be an IndexSet, not {type(index_set).__name__}")
    # counts equal to the index set's, as ints, need no second reading
    if declared == index_set.strategy_counts and all(type(k) is int for k in declared):
        return
    if index_set.strategy_counts != (counts := _strategy_counts(declared)):
        raise ValueError(f"strategy counts {counts} are not the index set's, {index_set.strategy_counts}")


def prune_pure(game: NormalFormGame, index_set: IndexSet, eps_hat: float) -> IndexSet:
    """Indices worth keeping for pure-equilibrium estimation: keep (p, s)
    when p's regret at s in the regret_table masked by the index set (so p
    deviates only to surviving indices) is at most 2*eps_hat. An index set
    of other strategy counts than the game's raises ValueError."""
    eps_hat = _real(eps_hat, "eps_hat", "nonnegative")
    _check_counts(index_set, game.strategy_counts)
    mask = index_set.to_mask()
    return IndexSet.from_mask(mask & (regret_table(game, mask) <= 2.0 * eps_hat), game.strategy_counts)


def _restriction_of(index_set: IndexSet) -> list[list[int]]:
    strategies = np.unravel_index(index_set.profiles, index_set.strategy_counts)
    return [np.unique(s[index_set.players == p]).tolist() for p, s in enumerate(strategies)]


def prune_mixed(game: NormalFormGame, index_set: IndexSet, eps_hat: float) -> IndexSet:
    """Indices worth keeping for mixed-equilibrium estimation: every
    coordinate of the profile is 2*eps_hat-rationalizable. An index set of
    other strategy counts than the game's raises ValueError."""
    eps_hat = _real(eps_hat, "eps_hat", "nonnegative")
    _check_counts(index_set, game.strategy_counts)
    restriction = _restriction_of(index_set)
    if [] in restriction:
        raise ValueError(f"index set has no index for player {restriction.index([])}")
    surviving = rationalizable(game, 2.0 * eps_hat, restrict=restriction)
    grid = np.zeros(game.strategy_counts, dtype=bool)
    grid[np.ix_(*surviving)] = True
    keep = grid.reshape(-1)[index_set.profiles]
    return IndexSet(index_set.players[keep], index_set.profiles[keep], game.strategy_counts)


@dataclass(frozen=True)
class IterationRecord:
    t: int
    m: int
    index_count: int
    epsilon: float


def query_cost(trace: Sequence[IterationRecord]) -> int:
    """Total simulator utility evaluations: sum over iterations of the
    sample count times the surviving index count."""
    return sum(rec.m * rec.index_count for rec in trace)


@dataclass(frozen=True, eq=False)
class PSPResult:
    """Everything progressive sampling returns: the full empirical game,
    per-index error radii, the equilibrium output, the final radius, the
    spent failure probability, and the iteration trace."""

    empirical: NormalFormGame
    radii: np.ndarray
    pure_equilibria: list[Profile] | None
    mixed_restriction: list[list[int]] | None
    epsilon: float
    delta_total: float
    trace: tuple[IterationRecord, ...]

    def to_json(self) -> str:
        payload = {
            "strategies": list(self.empirical.strategy_counts),
            "utilities": self.empirical.utilities.reshape(-1).tolist(),
            "radii": self.radii.reshape(-1).tolist(),
            "epsilon": self.epsilon,
            "delta": self.delta_total,
            "trace": [
                {"t": r.t, "m": r.m, "indices": r.index_count, "epsilon": r.epsilon}
                for r in self.trace
            ],
        }
        if self.pure_equilibria is not None:
            payload["pure_equilibria"] = [list(s) for s in self.pure_equilibria]
        if self.mixed_restriction is not None:
            payload["rationalizable"] = self.mixed_restriction
        return json.dumps(payload)


def psp(
    sim: ConditionalSimulator,
    sampling: SamplingSchedule,
    failure: FailureSchedule,
    c: float,
    bound: BoundType | str,
    pure: bool = True,
    eps_threshold: float = 0.0,
    seed: int = 0,
) -> PSPResult:
    """Progressive sampling with pruning. ``bound`` is a BoundType or its
    value, as in gs.

    Runs global sampling on the surviving index set once per schedule entry,
    drawing fresh conditions every iteration, and stops once the radius
    reaches eps_threshold or the schedule ends; a NaN or negative
    eps_threshold raises ValueError, and an unbounded schedule needs a
    positive one. Between iterations prune_pure or prune_mixed shrinks the
    index set on the empirical game. In pure mode the output equilibria are
    the 2*epsilon-equilibria of the empirical game; in mixed mode the output
    is the per-player 2*epsilon-rationalizable restriction (equilibrium
    enumeration is out of scope). Pruned indices keep the radius from their
    last estimation. As in gs, a c below ``sim.range_c`` or a seed that is
    not an integer raises ValueError, and so do schedules of the wrong type
    and a ``pure`` other than True or False.
    """
    if type(pure) not in (bool, np.bool_):
        raise ValueError(f"pure must be True or False, not {pure!r}")
    for name, schedule, kind in (("sampling", sampling, SamplingSchedule), ("failure", failure, FailureSchedule)):
        if not isinstance(schedule, kind):
            raise ValueError(f"the {name} schedule must be a {kind.__name__}, not {type(schedule).__name__}")
    c = _real(c, "utility range c", "finite and nonnegative")
    _check_range(sim, c)
    index_set = IndexSet.full(sim.strategy_counts)
    counts = index_set.strategy_counts
    utilities = np.zeros((len(counts), math.prod(counts)))
    radii = np.full(utilities.shape, c / 2.0)

    total_steps = sampling.length
    if failure.steps is not None:
        if total_steps is None:
            raise ValueError("an unbounded sampling schedule needs a geometric failure schedule")
        if failure.steps < total_steps:
            raise ValueError("failure schedule has fewer steps than the sampling schedule")
    eps_threshold = _real(eps_threshold, "eps_threshold", "nonnegative")
    if total_steps is None and eps_threshold == 0.0:
        raise ValueError("an unbounded sampling schedule needs a positive eps_threshold")
    seed = _integer(seed, "seed")

    trace: list[IterationRecord] = []
    consumed = 0.0
    epsilon = c / 2.0
    prune = prune_pure if pure else prune_mixed

    for t, (m_t, delta_t) in enumerate(zip(sampling.sizes(), failure.deltas()), start=1):
        result = gs(sim, index_set, m_t, delta_t, c, bound, seed=mix(seed, t))
        utilities[index_set.players, index_set.profiles] = result.utilities
        epsilon = result.epsilon
        radii[index_set.players, index_set.profiles] = epsilon
        consumed += delta_t
        trace.append(IterationRecord(t, m_t, len(index_set), epsilon))

        if epsilon <= eps_threshold or t == total_steps:
            break
        index_set = prune(NormalFormGame(counts, utilities), index_set, epsilon)

    empirical = NormalFormGame(counts, utilities)
    pure_equilibria = None
    mixed_restriction = None
    if pure:
        pure_equilibria = pure_eps_nash(empirical, 2.0 * epsilon)
    else:
        restriction = _restriction_of(index_set)
        mixed_restriction = rationalizable(empirical, 2.0 * epsilon, restrict=restriction)
    return PSPResult(
        empirical, radii, pure_equilibria, mixed_restriction, epsilon, consumed, tuple(trace)
    )
