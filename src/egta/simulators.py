"""Black-box conditional simulators and synthetic game generators.

A conditional simulator deterministically maps (condition, player, profile)
to a utility; sampling i.i.d. conditions realizes the noise distribution.
Noise is produced by counter-based hashing of (condition seed, index), so a
single condition consistently defines utilities for every index, queries are
reproducible bit-for-bit, and no shared RNG state exists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .games import NormalFormGame, _strategy_counts, nash_mask
from .hashing import _generator, _integer, _items, _real, _splitmix64_in_place, _Unreadable
from .hashing import hash_uniform, mix, splitmix64


def draw_conditions(rng: np.random.Generator, m: int) -> np.ndarray:
    """m condition seeds as a uint64 array: the next m 64-bit words of
    ``rng``, finalized in place with splitmix64 once here so that
    ``hash_uniform`` can pair them with keys without hashing them again on
    every call."""
    words = rng.integers(0, 2**64, size=_integer(m, "m", least=0), dtype=np.uint64)
    _splitmix64_in_place(words)
    return words


class ConditionalSimulator:
    """Deterministic map (condition, player, profile) -> utility, and all
    that gs and psp learn from: strategy_counts gives each player's number
    of pure strategies, range_c declares the bound (all outputs lie in
    [-range_c/2, range_c/2]), and sample_block draws utilities.
    """

    strategy_counts: tuple[int, ...]
    range_c: float

    def sample_block(
        self,
        cond_seeds: np.ndarray,
        players: np.ndarray,
        profiles: np.ndarray,
        out: np.ndarray,
        sums: np.ndarray,
    ) -> np.ndarray:
        """Utilities for each (player, profile) index under each condition,
        written into ``out`` (C-contiguous float64, [num_indices,
        num_conditions]), which is returned, with each index's row sum
        added onto ``sums`` (C-contiguous float64, [num_indices]) as
        ``sums += out.sum(axis=1)`` would."""
        raise NotImplementedError


# Grouping rules for additive noise factors: a factor perturbs all indices
# that share the value of its grouping function g(game, players, profiles).
# Each kind maps to g and to g's number of distinct values given the strategy
# counts (the b_i of the factored Rademacher bound), as an exact int for any
# game size.
_FACTOR_TABLE = {
    "global": (lambda g, p, s: np.zeros_like(p), lambda counts: 1),
    "agent": (lambda g, p, s: p, len),
    "own-strategy": (lambda g, p, s: np.array(np.unravel_index(s, g.strategy_counts))[p, np.arange(len(s))], max),
    "profile": (lambda g, p, s: s, math.prod),
    "agent-profile": (lambda g, p, s: p * g.num_profiles + s, lambda c: len(c) * math.prod(c)),
}
FACTOR_KINDS = tuple(_FACTOR_TABLE)


def _factor(kind) -> tuple[Callable, Callable]:
    """A factor kind's grouping function and image-size rule; any other
    kind, hashable or not, raises ValueError."""
    try:
        return _FACTOR_TABLE[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown factor kind {kind!r}") from None


def factor_image_sizes(kinds: Sequence[str], strategy_counts: Sequence[int]) -> list[int]:
    """Number of distinct grouping values per factor (the b_i of the
    factored Rademacher bound), as exact ints for any game size."""
    counts = _strategy_counts(strategy_counts)
    return [_factor(kind)[1](counts) for kind in _items(kinds, "factor kinds")]


def _utility_bound(base: NormalFormGame) -> float:
    """The largest |utility| of a base game; ValueError unless it is a NormalFormGame."""
    if not isinstance(base, NormalFormGame):
        raise ValueError(f"base must be a NormalFormGame, not {type(base).__name__}")
    return float(np.abs(base.utilities).max())


class NoisySimulator(ConditionalSimulator):
    """Base game plus additive uniform noise on (-d/2, d/2], independent per
    (player, profile) index and shared-condition consistent. base is the
    expected game, ground truth for evaluation harnesses."""

    def __init__(self, base: NormalFormGame, d: float):
        self.d = _real(d, "noise width d", "finite and nonnegative")
        self._set_noise(base, 2.0 * _utility_bound(base) + self.d, (self.d,))

    def _set_noise(self, base: NormalFormGame, range_c: float, widths: Sequence[float]) -> None:
        """Keep the base game and its strategy counts, the declared range and
        the factors of nonzero width with their widths: a zero-width factor's
        +-0.0 noise would turn a -0.0 base into +0.0."""
        if range_c == math.inf:
            raise ValueError("the noise and utility scales overflow the utility range")
        self.base = base
        self.strategy_counts = base.strategy_counts
        self.range_c = range_c
        self._noisy = [i for i, width in enumerate(widths) if width]
        self._widths = np.array([widths[i] for i in self._noisy], dtype=np.float64)

    def _keys(self, i, flat, players, profiles):
        """The one factor's hash keys: each index's flat position p P + s."""
        return flat

    def sample_block(self, cond_seeds, players, profiles, out, sums):
        """The additive-noise kernel of both simulators, one ``hash_uniform``
        call: each noisy factor i adds (u - 0.5) * w_i to the base, with u
        hashed from the condition and ``self._keys(i, flat, players,
        profiles)``. The utilities go into ``out``, their row sums onto
        ``sums``. ``players`` and ``profiles`` are read here, once, as
        arrays: anything but two 1-d integer arrays (or lists) of one length
        raises ValueError, as does an index outside the base game."""
        players, profiles = np.asarray(players), np.asarray(profiles)
        try:
            # numpy would read bools as 0 and 1 and broadcast unequal lengths
            integers = players.dtype.kind in "iu" and profiles.dtype.kind in "iu"
            if not integers or players.ndim != 1 or players.shape != profiles.shape:
                raise ValueError
            flat = np.ravel_multi_index((players, profiles), self.base.utilities.shape)
        except (TypeError, ValueError):  # a float index, or one outside the game
            raise ValueError(
                f"indices must be integers in a game of shape {self.base.utilities.shape}, "
                "as two 1-d integer arrays of one length"
            ) from None
        keys = np.empty((len(self._noisy), len(players)), dtype=np.uint64)
        for row, i in enumerate(self._noisy):
            keys[row] = self._keys(i, flat, players, profiles)
        return hash_uniform(cond_seeds, keys, self._widths, self.base.utilities.reshape(-1)[flat], out, sums)


def noisy_sim(base: NormalFormGame, d: float) -> NoisySimulator:
    return NoisySimulator(base, d)


class FactoredNoiseSimulator(NoisySimulator):
    """Base game plus a sum of additive noise factors, each uniform on
    (-a_i, a_i] and constant across indices with equal grouping value; factor
    i's keys are salted with ``mix(seed, i)``, ``seed`` taken mod 2^64."""

    def __init__(
        self,
        a0: float,
        a: Sequence[float],
        kinds: Sequence[str],
        base: NormalFormGame,
        seed: int,
    ):
        a = _items(a, "factor scales a")
        kinds = _items(kinds, "factor kinds", len(a))
        self._groupings = [_factor(kind)[0] for kind in kinds]
        self.a = tuple(_real(a_i, "factor scale", "finite and nonnegative") for a_i in a)
        self.a0 = _real(a0, "a0", "finite and nonnegative")
        if self.a0 < _utility_bound(base):
            raise ValueError(f"a0 = {self.a0} does not bound the base game's utilities")
        self.kinds = kinds
        self.seed = _integer(seed, "seed") % 2**64
        # uniform on [-a_i, a_i] is (u - 0.5) * 2a_i, which rounds exactly
        # like (2u - 1) * a_i because doubling is exact
        self._set_noise(base, 2.0 * (self.a0 + sum(self.a)), [2.0 * a_i for a_i in self.a])

    def _keys(self, i, flat, players, profiles):
        """Factor i's hash keys: its grouping values, salted per factor and hashed."""
        group = self._groupings[i](self.base, players, profiles)
        return splitmix64(group.astype(np.uint64) + np.uint64(mix(self.seed, i)))


def gen_rg(num_players: int, k: int, u0: float = 10.0, seed: int = 0) -> NormalFormGame:
    """Uniform random game: every utility i.i.d. uniform on (-u0/2, u0/2),
    drawn from numpy's PCG64 generator of ``seed`` taken mod 2^64."""
    num_players = _integer(num_players, "num_players", least=1)
    k = _integer(k, "k", least=1)
    u0 = _real(u0, "utility magnitude u0", "positive and finite")
    rng = _generator(seed)
    counts = (k,) * num_players
    shape = (num_players, math.prod(counts))
    return NormalFormGame(counts, rng.uniform(-u0 / 2.0, u0 / 2.0, size=shape))


@dataclass(frozen=True)
class CongestionGame:
    """Facility-based compact game; players pay the sum of their chosen
    facilities' costs, each a function of that facility's load."""

    num_facilities: int
    strategy_sets: tuple[tuple[tuple[int, ...], ...], ...]
    cost_fn: Callable[[int, int], float] | None = None  # (facility, load) -> cost

    def __post_init__(self):
        n = _integer(self.num_facilities, "facility count")
        object.__setattr__(self, "num_facilities", n)
        sets = tuple(
            tuple(tuple(sorted(_integer(e, "facility", below=n) for e in _items(s, "strategy"))) for s in strats)
            for strats in (_items(p, "strategies") for p in _items(self.strategy_sets, "strategy sets"))
        )
        object.__setattr__(self, "strategy_sets", sets)
        if not sets:
            raise ValueError("need at least one player")
        for p, player_strats in enumerate(sets):
            if not player_strats:
                raise ValueError(f"player {p} has no strategies")
            for strat in player_strats:
                if not strat:
                    raise ValueError(f"player {p} has an empty facility set")
                if len(set(strat)) != len(strat):
                    raise ValueError("facility listed twice in one strategy")

    @property
    def num_players(self) -> int:
        return len(self.strategy_sets)

    @property
    def strategy_counts(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strategy_sets)


def gen_rc(
    num_players: int,
    num_facilities: int,
    k: int,
    alpha: float = 0.1,
    seed: int = 0,
) -> CongestionGame:
    """Random congestion game: each player draws uniformly many candidate
    strategies (1..k); facility e joins a strategy with probability
    alpha^(e-1), so facility 1 is always included and strategies cluster on
    low-numbered facilities. Duplicate strategies are dropped. The draws come
    from numpy's PCG64 generator of ``seed`` taken mod 2^64."""
    num_players = _integer(num_players, "num_players", least=1)
    num_facilities = _integer(num_facilities, "num_facilities", least=1)  # 2**k of a numpy int wraps
    k = _integer(k, "k", least=1, below=2**num_facilities)
    alpha = _real(alpha, "alpha", "in (0, 1)")
    rng = _generator(seed)
    inclusion = alpha ** np.arange(num_facilities)
    strategy_sets = []
    for _ in range(num_players):
        n_p = int(rng.integers(1, k, endpoint=True))
        strats: list[tuple[int, ...]] = []
        for _ in range(n_p):
            mask = rng.random(num_facilities) < inclusion
            mask[0] = True
            strat = tuple(int(e) for e in np.nonzero(mask)[0])
            if strat not in strats:
                strats.append(strat)
        strategy_sets.append(tuple(strats))
    return CongestionGame(num_facilities, tuple(strategy_sets))


def expand(cg: CongestionGame) -> NormalFormGame:
    """Dense normal-form view of a congestion game; utilities are negated
    costs so the usual regret/equilibrium machinery applies unchanged."""
    strategies = np.unravel_index(np.arange(math.prod(cg.strategy_counts)), cg.strategy_counts)  # per player
    usage = [np.zeros((k, cg.num_facilities)) for k in cg.strategy_counts]  # 1.0 where p's strategy s uses e
    for u, player_strats in zip(usage, cg.strategy_sets):
        for s_idx, strat in enumerate(player_strats):
            u[s_idx, list(strat)] = 1.0
    loads = sum(u[s] for u, s in zip(usage, strategies))  # [num_profiles, facilities]
    if cg.cost_fn is None:
        facility_costs = loads
    else:
        facility_costs = np.empty_like(loads)
        for e in range(cg.num_facilities):
            for load in np.unique(loads[:, e]):
                facility_costs[loads[:, e] == load, e] = cg.cost_fn(e, int(load))
    utilities = np.array([-(u[s] * facility_costs).sum(axis=1) for u, s in zip(usage, strategies)])
    return NormalFormGame(cg.strategy_counts, utilities)


def _anarchy(cg: CongestionGame) -> tuple[NormalFormGame, np.ndarray, np.ndarray, float, float]:
    """The expanded game, each profile's total cost, the pure equilibria's
    indices, the optimal cost (which must be > 0) and the worst equilibrium's."""
    game = expand(cg)
    total_cost = -game.utilities.sum(axis=0)
    nash = np.nonzero(nash_mask(game, 0.0))[0]
    if not nash.size:
        raise RuntimeError("no pure equilibrium found; congestion games must have one")
    optimum = float(total_cost.min())
    if optimum <= 0:
        raise ValueError("optimal total cost must be positive")
    return game, total_cost, nash, optimum, float(total_cost[nash].max())


def ppa_exact(cg: CongestionGame) -> float:
    """Exact pure price of anarchy: worst total cost over pure equilibria of
    the expanded game, divided by the optimal total cost, which must be > 0."""
    *_, optimum, worst = _anarchy(cg)
    return worst / optimum


def ppa_example_game() -> CongestionGame:
    """Three-player, six-facility instance whose worst equilibrium costs 15
    against an optimum of 6, giving a pure price of anarchy of 5/2.

    Facilities 0..2 are h1..h3 and 3..5 are g1..g3; player p chooses between
    {h_p, g_p} and {g_{p+1}, h_{p+1}, h_{p+2}} (indices wrapping mod 3).
    """
    h = [0, 1, 2]
    g = [3, 4, 5]
    sets = []
    for p in range(3):
        a_p = (h[p], g[p])
        b_p = tuple(sorted((g[(p + 1) % 3], h[(p + 1) % 3], h[(p + 2) % 3])))
        sets.append((a_p, b_p))
    return CongestionGame(6, tuple(sets))


def congestion_to_json(cg: CongestionGame) -> str:
    if cg.cost_fn is not None:
        raise ValueError("only the linear cost function serializes")
    payload = {
        "players": cg.num_players,
        "facilities": cg.num_facilities,
        "strategies": [[list(s) for s in player] for player in cg.strategy_sets],
        "cost": "linear",
    }
    return json.dumps(payload)


def congestion_from_json(text: str) -> CongestionGame:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("congestion game JSON must be an object")
    if payload.get("cost") != "linear":
        raise ValueError("only the linear cost function is supported")
    try:
        players = _integer(payload["players"], "players")
        return CongestionGame(payload["facilities"], _items(payload["strategies"], "strategies", players))
    except KeyError as missing:
        raise ValueError(f"congestion game JSON lacks the field {missing}") from None
    except _Unreadable as error:
        raise ValueError(f"congestion game JSON has a wrongly typed field: {error}") from None
