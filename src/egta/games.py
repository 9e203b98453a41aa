"""Normal-form games and exact game-theoretic computations.

Games are dense: a utility tensor indexed by (player, pure strategy profile).
Profiles are linearized row-major over players, so the last player's strategy
index varies fastest. Everything here is deterministic and pure; all
comparisons against epsilon thresholds are inclusive (<=) with no extra
floating-point tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hashing import _integer, _items, _real

Profile = tuple[int, ...]


def _strategy_counts(counts: Sequence[int]) -> tuple[int, ...]:
    """Per-player strategy counts as a tuple of integers of at least 1, by
    the integer rule; anything else, a game included, raises ValueError."""
    counts = tuple(_integer(k, "strategy count", least=1) for k in _items(counts, "strategy counts"))
    if not counts:
        raise ValueError("a game needs at least one player")
    return counts


def _bool_mask(mask, shape: tuple[int, ...], name: str) -> np.ndarray:
    """mask as a bool array of this shape; any other dtype or shape raises ValueError."""
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != shape:
        raise ValueError(f"{name} must be a bool mask of shape {shape}")
    return mask


@dataclass(frozen=True, eq=False)
class NormalFormGame:
    """Dense normal-form game.

    utilities has shape [num_players, num_profiles] with the profile axis
    linearized row-major over per-player strategy indices.
    """

    strategy_counts: tuple[int, ...]
    utilities: np.ndarray

    def __post_init__(self):
        counts = _strategy_counts(self.strategy_counts)
        object.__setattr__(self, "strategy_counts", counts)
        u = np.asarray(self.utilities, dtype=np.float64)
        expected = (len(counts), math.prod(counts))
        if u.shape != expected:
            raise ValueError(f"utilities must have shape {expected}, got {u.shape}")
        if not np.all(np.isfinite(u)):
            raise ValueError("utilities must be finite")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "utilities", u)

    @property
    def num_players(self) -> int:
        return len(self.strategy_counts)

    @property
    def num_profiles(self) -> int:
        return self.utilities.shape[1]

    def tensor(self, p: int) -> np.ndarray:
        """Player p's utilities as a tensor with one axis per player."""
        return self.utilities[p].reshape(self.strategy_counts)

    def profile_index(self, profile: Sequence[int]) -> int:
        profile = _items(profile, "profile", self.num_players)
        s = tuple(_integer(x, "strategy", below=k) for x, k in zip(profile, self.strategy_counts))
        return int(np.ravel_multi_index(s, self.strategy_counts))

    def profile_of_index(self, index: int) -> Profile:
        index = _integer(index, "profile index", below=self.num_profiles)
        return tuple(int(x) for x in np.unravel_index(index, self.strategy_counts))


@dataclass(frozen=True, eq=False)
class IndexSet:
    """Ordered set of distinct (player, profile-index) pairs of the game with
    these strategy counts; ValueError at construction otherwise."""

    players: np.ndarray
    profiles: np.ndarray
    strategy_counts: tuple[int, ...]

    def __post_init__(self):
        counts = _strategy_counts(self.strategy_counts)
        object.__setattr__(self, "strategy_counts", counts)
        for name in ("players", "profiles"):
            a = np.asarray(getattr(self, name))
            if a.size and a.dtype.kind not in "iu":  # an empty list reads as float64
                raise ValueError(f"{name} must be integers, not {a.dtype}")
            a = a.astype(np.int64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if self.players.shape != self.profiles.shape or self.players.ndim != 1:
            raise ValueError("players and profiles must be 1-d arrays of equal length")
        # Python ints, so that a profile count past 2^63 compares exactly
        for name, a, end in (("player", self.players, len(counts)), ("profile", self.profiles, math.prod(counts))):
            if a.size and (int(a.min()) < 0 or int(a.max()) >= end):
                raise ValueError(f"{name} index out of range")
        # pairs in strictly increasing order are distinct; others are sorted first
        dp, ds = np.diff(self.players), np.diff(self.profiles)
        if not np.all((dp > 0) | (dp == 0) & (ds > 0)):
            order = np.lexsort((self.profiles, self.players))
            dp, ds = np.diff(self.players[order]), np.diff(self.profiles[order])
        if np.any((dp == 0) & (ds == 0)):
            raise ValueError("duplicate (player, profile) pairs")

    def __len__(self) -> int:
        return self.players.shape[0]

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.players.tolist(), self.profiles.tolist()))

    def to_mask(self) -> np.ndarray:
        mask = np.zeros((len(self.strategy_counts), math.prod(self.strategy_counts)), dtype=bool)
        mask[self.players, self.profiles] = True
        return mask

    @staticmethod
    def from_mask(mask: np.ndarray, strategy_counts: Sequence[int]) -> "IndexSet":
        """The pairs a bool mask of shape [players, profiles] keeps; any other mask raises ValueError."""
        counts = _strategy_counts(strategy_counts)
        players, profiles = np.nonzero(_bool_mask(mask, (len(counts), math.prod(counts)), "mask"))
        return IndexSet(players, profiles, counts)

    @staticmethod
    def full(strategy_counts: Sequence[int]) -> "IndexSet":
        """Every (player, profile) pair of these counts' game, player-major."""
        counts = _strategy_counts(strategy_counts)
        return IndexSet.from_mask(np.ones((len(counts), math.prod(counts)), dtype=bool), counts)


def game_size(game: NormalFormGame) -> int:
    """Number of utility parameters: players times profiles."""
    return game.num_players * game.num_profiles


def utility(game: NormalFormGame, p: int, profile: Sequence[int]) -> float:
    return float(game.utilities[_integer(p, "player", below=game.num_players), game.profile_index(profile)])


def regret_table(game: NormalFormGame, alive: np.ndarray | None = None) -> np.ndarray:
    """Pure regret of every (player, profile), read by nash_mask, prune_pure
    and check_containment. With a bool mask ``alive`` of the utilities' shape,
    deviations range only over the cells it keeps (-inf where a context keeps
    none); a mask of another shape raises ValueError. Unmasked, it is >= 0."""
    alive = None if alive is None else _bool_mask(alive, game.utilities.shape, "alive")
    out = np.empty_like(game.utilities)
    for p in range(game.num_players):
        t = game.tensor(p)
        kept = t if alive is None else np.where(alive[p].reshape(game.strategy_counts), t, -np.inf)
        out[p] = (kept.max(axis=p, keepdims=True) - t).reshape(-1)
    return out


def pure_regret(game: NormalFormGame, p: int, profile: Sequence[int]) -> float:
    return float(regret_table(game)[_integer(p, "player", below=game.num_players), game.profile_index(profile)])


def nash_mask(game: NormalFormGame, eps: float) -> np.ndarray:
    """Boolean mask over profiles: every player's regret <= eps (inclusive)."""
    eps = _real(eps, "eps", "nonnegative")
    return (regret_table(game) <= eps).all(axis=0)


def pure_eps_nash(game: NormalFormGame, eps: float) -> list[Profile]:
    """All pure strategy profiles whose regret is at most eps for everyone."""
    return [game.profile_of_index(j) for j in np.nonzero(nash_mask(game, eps))[0]]


def _dominance(t: np.ndarray, p: int, eps: float) -> np.ndarray:
    """dom[s, s2]: s beats s2 by at least eps in every context of t along
    axis p, built row by row so memory stays at the size of t."""
    rows = np.moveaxis(t, p, 0).reshape(t.shape[p], -1)
    shifted = rows + eps
    return np.array([(row >= shifted).all(axis=1) for row in rows])


def eps_dominates(game: NormalFormGame, p: int, s: int, s_other: int, eps: float) -> bool:
    """True when strategy s beats s_other by at least eps for player p in
    every opponent context (inclusive comparison).
    """
    eps = _real(eps, "eps", "nonnegative")
    k = game.strategy_counts[_integer(p, "player", below=game.num_players)]
    s, s_other = _integer(s, "strategy", below=k), _integer(s_other, "strategy", below=k)
    return bool(_dominance(np.take(game.tensor(p), [s, s_other], axis=p), p, eps)[0, 1])


def rationalizable(
    game: NormalFormGame,
    eps: float,
    restrict: Sequence[Sequence[int]] | None = None,
) -> list[list[int]]:
    """Per-player strategies surviving iterated elimination of eps-dominated
    strategies, computed on the game restricted to ``restrict`` (default: all).

    Rounds are simultaneous: every strategy dominated by some surviving
    strategy of the same player is removed at once. A strategy is only
    removed for a dominator that it does not itself dominate back, so
    mutually dominant (payoff-identical) strategies are kept and each player
    always retains at least one strategy.
    """
    eps = _real(eps, "eps", "nonnegative")
    if restrict is None:
        alive = [list(range(k)) for k in game.strategy_counts]
    else:
        lists = _items(restrict, "restriction", game.num_players)
        alive = [
            sorted(set(_integer(s, "restriction strategy", below=k) for s in _items(strats, "restriction")))
            for strats, k in zip(lists, game.strategy_counts)
        ]
        if [] in alive:
            raise ValueError(f"restriction leaves player {alive.index([])} no strategy")

    while True:
        doomed = []
        for p in range(game.num_players):
            dom = _dominance(game.tensor(p)[np.ix_(*alive)], p, eps)
            doomed.append((dom & ~dom.T).any(axis=0))
        if not any(dead.any() for dead in doomed):
            return alive
        alive = [[s for s, d in zip(a, dead) if not d] for a, dead in zip(alive, doomed)]


def welfare(game: NormalFormGame, profile: Sequence[int]) -> float:
    """Utilitarian welfare: sum of all players' utilities at the profile."""
    return float(game.utilities[:, game.profile_index(profile)].sum())


def maximin_value(game: NormalFormGame, p: int) -> float:
    """Largest worst-case utility player p can secure with a pure strategy."""
    t = game.tensor(_integer(p, "player", below=game.num_players))
    axes = tuple(q for q in range(game.num_players) if q != p)
    pessimal = t.min(axis=axes) if axes else t
    return float(pessimal.max())


def check_containment(g_a: NormalFormGame, g_b: NormalFormGame, eps: float) -> bool:
    """Nash(g_a) within Nash_{2eps}(g_b) within Nash_{4eps}(g_a) over all pure
    profiles, each game's profile regrets read once from its regret_table."""
    if g_a.strategy_counts != g_b.strategy_counts:
        raise ValueError("games must share players and strategy counts")
    eps = _real(eps, "eps", "nonnegative")
    worst_a, worst_b = (regret_table(g).max(axis=0) for g in (g_a, g_b))
    nash_b2 = worst_b <= 2.0 * eps
    return bool(np.all(nash_b2[worst_a <= 0.0]) and np.all(worst_a[nash_b2] <= 4.0 * eps))


def game_to_json(game: NormalFormGame) -> str:
    payload = {
        "players": game.num_players,
        "strategies": list(game.strategy_counts),
        "utilities": game.utilities.reshape(-1).tolist(),
    }
    return json.dumps(payload)


def game_from_json(text: str) -> NormalFormGame:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("game JSON must be an object")
    try:
        players = _integer(payload["players"], "players")
        counts = [_integer(k, "strategy count") for k in _items(payload["strategies"], "strategies", players)]
        utilities = np.asarray(payload["utilities"], dtype=np.float64)
    except KeyError as missing:
        raise ValueError(f"game JSON lacks the field {missing}") from None
    except (TypeError, ValueError) as error:
        raise ValueError(f"game JSON has a wrongly typed field: {error}") from None
    expected = players * math.prod(counts)
    if utilities.shape != (expected,):
        raise ValueError(f"utilities must hold exactly {expected} values")
    return NormalFormGame(tuple(counts), utilities.reshape(players, -1))
