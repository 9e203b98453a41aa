"""Desk-scale experiment drivers behind the command-line interface.

Every driver returns a Table (column names, rows, metadata) that serializes
to CSV deterministically: given the same master seed the bytes are identical
across runs. Per-replication seeds are derived by hashing (master seed,
experiment name, replication index), never by sharing a stateful RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algorithms import (
    BoundType,
    FailureSchedule,
    SamplingSchedule,
    gs,
    psp,
    query_cost,
)
from .bounds import era_eps, factored_ra_bound, hoeffding_eps, noise_scaling_ra_bound
from .games import IndexSet, NormalFormGame, check_containment, game_size, nash_mask
from .hashing import _integer, _real, mix
from .simulators import (
    FACTOR_KINDS,
    _anarchy,
    expand,
    factor_image_sizes,
    gen_rc,
    gen_rg,
    noisy_sim,
    ppa_example_game,
)

CONFIDENCE_Z = 1.96  # normal-approximation 95% intervals throughout
BOUND_COMPARE_STRATEGIES = 100  # actions per player in both bound comparisons


@dataclass
class Table:
    columns: tuple[str, ...]
    rows: list[tuple]
    metadata: dict[str, object] = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [f"# {key}={value}" for key, value in self.metadata.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_cell(value) for value in row))
        return "\n".join(lines) + "\n"

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _mean_ci(values: np.ndarray) -> tuple[float, float, float]:
    mean = float(values.mean())
    if values.size < 2:
        return mean, mean, mean
    half = CONFIDENCE_Z * float(values.std(ddof=1)) / math.sqrt(values.size)
    return mean, mean - half, mean + half


def run_eps_vs_samples(
    seed: int = 0,
    reps: int = 200,
    d_values: tuple[float, ...] = (2.0, 5.0, 10.0),
    m_values: tuple[int, ...] = (1000, 3162, 10000, 31623, 100000),
    delta: float = 0.1,
) -> Table:
    """Error radius of global sampling versus sample count on random
    RC(5,5,2) congestion games (5 players, 5 facilities, up to 2 strategies
    each), one row per (noise width, sample count)."""
    seed = _integer(seed, "seed")
    reps = _integer(reps, "reps", least=1)
    name = "eps-vs-samples"
    rows = []
    bases = [expand(gen_rc(5, 5, 2, seed=mix(seed, name, rep))) for rep in range(reps)]
    fulls = [IndexSet.full(base.strategy_counts) for base in bases]
    for d in d_values:
        sims = [noisy_sim(base, d) for base in bases]
        for m in m_values:
            eps = np.empty(reps)
            for rep, sim in enumerate(sims):
                result = gs(
                    sim, fulls[rep], m, delta, sim.range_c, BoundType.ONE_ERA,
                    seed=mix(seed, name, rep, int(d * 1000), m),
                )
                eps[rep] = result.epsilon
            mean, lo, hi = _mean_ci(eps)
            rows.append((float(d), m, mean, lo, hi))
    return Table(
        ("d", "m", "mean_epsilon", "ci_low", "ci_high"),
        rows,
        {
            "experiment": name,
            "seed": seed,
            "reps": reps,
            "delta": delta,
            "family": "RC(5,5,2)",
            "bound": "1era",
        },
    )


def center_per_player(game: NormalFormGame) -> NormalFormGame:
    """Shift each player's utilities to mean zero. Regrets, equilibria, and
    dominance relations are unchanged; the symmetric utility range (and with
    it every range-driven error radius) shrinks to the essential spread."""
    centered = game.utilities - game.utilities.mean(axis=1, keepdims=True)
    return NormalFormGame(game.strategy_counts, centered)


def find_unique_nash_rc_game(seed: int) -> tuple[NormalFormGame, int, int]:
    """First RC(5,5,2) congestion game (facility-inclusion decay 0.5, by
    hashed sub-seed, at most 10 000 attempts) whose expansion has 32 = 2^5
    profiles, so every player keeps two distinct strategies, and a unique
    pure equilibrium. Returns the per-player-centered expansion, the
    matching attempt index, and the equilibrium profile.

    The facility-inclusion decay is raised from gen_rc's 0.1 to 0.5 here: at
    0.1 nearly every sampled strategy collapses to {facility 1}, so a game
    where all five players keep two distinct strategies is vanishingly rare.
    Centering keeps the game strategically identical while its declared
    utility range stays proportional to the cost spread rather than the
    absolute cost level.
    """
    seed = _integer(seed, "seed")
    for attempt in range(10_000):
        base = expand(gen_rc(5, 5, 2, alpha=0.5, seed=mix(seed, "fixture", attempt)))
        if base.num_profiles != 32:
            continue
        nash = np.nonzero(nash_mask(base, 0.0))[0]
        if nash.size == 1:
            return center_per_player(base), attempt, int(nash[0])
    raise RuntimeError("no unique-equilibrium RC(5,5,2) game in 10 000 attempts")


def run_nash_frequency(
    seed: int = 0,
    runs: int = 200,
    m_values: tuple[int, ...] = (50, 100, 200, 500),
    d: float = 2.0,
    delta: float = 0.1,
) -> Table:
    """How often each profile of a fixed unique-equilibrium congestion game
    is flagged as a pure 2-epsilon-equilibrium by global sampling."""
    seed = _integer(seed, "seed")
    runs = _integer(runs, "runs", least=1)
    name = "nash-frequency"
    base, attempt, true_nash = find_unique_nash_rc_game(seed)
    sim = noisy_sim(base, d)
    idx = IndexSet.full(sim.strategy_counts)
    rows = []
    for m in m_values:
        flagged = np.zeros(base.num_profiles, dtype=np.int64)
        for run in range(runs):
            result = gs(
                sim, idx, m, delta, sim.range_c, BoundType.ONE_ERA,
                seed=mix(seed, name, run, m),
            )
            empirical = result.to_game()
            flagged += nash_mask(empirical, 2.0 * result.epsilon)
        for j in range(base.num_profiles):
            if flagged[j]:
                rows.append((m, j, int(flagged[j])))
    return Table(
        ("m", "profile", "frequency"),
        rows,
        {
            "experiment": name,
            "seed": seed,
            "runs": runs,
            "d": d,
            "delta": delta,
            "fixture_attempt": attempt,
            "true_nash_profile": true_nash,
            "num_profiles": base.num_profiles,
        },
    )


def run_success_rate(
    seed: int = 0,
    reps: int = 200,
    delta_grid: tuple[float, ...] = (0.05, 0.1, 0.15, 0.2, 0.25),
    rho_grid: tuple[float, ...] = (1.0, 0.875, 0.75, 0.625, 0.5),
    d: float = 5.0,
    m: int = 500,
) -> Table:
    """Empirical rate at which the two-sided equilibrium containment holds,
    swept over the failure probability and a radius contraction factor."""
    seed = _integer(seed, "seed")
    reps = _integer(reps, "reps", least=1)
    rho_grid = tuple(_real(rho, "rho", "finite and nonnegative") for rho in rho_grid)
    name = "success-rate"
    families = {
        "rc": lambda rep: expand(gen_rc(3, 3, 2, seed=mix(seed, name, "rc", rep))),
        "rg": lambda rep: gen_rg(3, 3, u0=10.0, seed=mix(seed, name, "rg", rep)),
    }
    rows = []
    for family, make in families.items():
        bases = [make(rep) for rep in range(reps)]
        sims = [noisy_sim(base, d) for base in bases]
        fulls = [IndexSet.full(base.strategy_counts) for base in bases]
        for bound in (BoundType.HOEFFDING, BoundType.ONE_ERA):
            for delta in delta_grid:
                success = {rho: np.zeros(reps, dtype=bool) for rho in rho_grid}
                for rep, sim in enumerate(sims):
                    result = gs(
                        sim, fulls[rep], m, delta, sim.range_c, bound,
                        seed=mix(seed, name, family, rep, bound.value),
                    )
                    empirical = result.to_game()
                    for rho in rho_grid:
                        success[rho][rep] = check_containment(
                            bases[rep], empirical, rho * result.epsilon
                        )
                for rho in rho_grid:
                    rate, lo, hi = _mean_ci(success[rho].astype(np.float64))
                    rows.append((family, bound.value, delta, rho, rate, lo, hi))
    return Table(
        ("family", "bound", "delta", "rho", "success_rate", "ci_low", "ci_high"),
        rows,
        {"experiment": name, "seed": seed, "reps": reps, "d": d, "m": m},
    )


def run_gs_vs_psp(
    seed: int = 0,
    reps: int = 12,
    players_values: tuple[int, ...] = (2, 3, 4, 5),
    k_values: tuple[int, ...] = (2, 3, 4, 5),
    d: float = 5.0,
    delta: float = 0.1,
    m0: int = 100,
    budget: int = 102300,
) -> Table:
    """Progressive sampling run to completion versus one-shot sampling on the
    same total utility-evaluation budget, one row per random game."""
    seed = _integer(seed, "seed")
    reps = _integer(reps, "reps", least=1)
    name = "gs-vs-psp"
    sched = SamplingSchedule.finite_doubling(m0, budget)
    failure = FailureSchedule.uniform_split(delta, sched.length)
    rows = []
    for players in players_values:
        for k in k_values:
            for rep in range(reps):
                base = gen_rg(players, k, u0=10.0, seed=mix(seed, name, players, k, rep))
                sim = noisy_sim(base, d)
                result = psp(
                    sim,
                    sched,
                    failure,
                    c=sim.range_c,
                    bound=BoundType.HOEFFDING,
                    pure=True,
                    eps_threshold=0.0,
                    seed=mix(seed, name, "run", players, k, rep),
                )
                size = game_size(base)
                cost_psp = query_cost(result.trace)
                m_gs = cost_psp / size  # uniform per-utility budget
                eps_gs = hoeffding_eps(sim.range_c, size, m_gs, delta)
                rows.append(
                    (players, k, size, rep, result.epsilon, eps_gs, cost_psp, m_gs)
                )
    return Table(
        ("players", "k", "game_size", "rep", "eps_psp", "eps_gs", "cost_psp", "m_gs"),
        rows,
        {
            "experiment": name,
            "seed": seed,
            "reps": reps,
            "d": d,
            "delta": delta,
            "m0": m0,
            "budget": budget,
            "bound": "hoeffding",
        },
    )


def _bound_compare(
    name: str,
    players_max: int,
    m: int,
    delta: float,
    c: float,
    radius_fn,
    metadata: dict[str, object],
) -> Table:
    """Hoeffding union radius against the 1ERA radius with
    radius_fn(players, index_count, m) in place of the empirical Rademacher
    average, for 1..players_max players with BOUND_COMPARE_STRATEGIES actions
    each, over the full index set of players * BOUND_COMPARE_STRATEGIES**players
    indices; metadata names the noise model's parameters."""
    players_max = _integer(players_max, "players_max", least=1)
    m = _integer(m, "m", least=1)
    rows = []
    crossover = None
    for players in range(1, players_max + 1):
        index_count = players * BOUND_COMPARE_STRATEGIES**players
        hoeff = hoeffding_eps(c, index_count, m, delta)
        rad = era_eps(radius_fn(players, index_count, m), c, m, delta)
        if crossover is None and hoeff > rad:
            crossover = players
        rows.append((players, hoeff, rad))
    return Table(
        ("players", "hoeffding", "rademacher"),
        rows,
        {
            "experiment": name,
            "m": m,
            "delta": delta,
            "num_strategies": BOUND_COMPARE_STRATEGIES,
            **metadata,
            "crossover_players": crossover,
        },
    )


def run_bound_compare_factored(
    players_max: int = 100,
    m: int = 10000,
    delta: float = 0.05,
) -> Table:
    """Hoeffding union radius against the factored-noise Rademacher radius as
    the player count grows; both use the full index set of a game with 100
    actions per player. The noise has all five FACTOR_KINDS with scales
    a = (1, 1, 1, 1/2, 1/2) over expected utilities bounded by a0 = 1."""
    a0, a = 1.0, (1.0, 1.0, 1.0, 0.5, 0.5)
    c = 2.0 * (a0 + sum(a))

    def radius(players: int, index_count: int, m: int) -> float:
        b = factor_image_sizes(FACTOR_KINDS, (BOUND_COMPARE_STRATEGIES,) * players)
        return factored_ra_bound(a0, a, b, m)

    return _bound_compare("bound-compare-factored", players_max, m, delta, c, radius, {"c": c})


def run_bound_compare_vns(
    players_max: int = 100,
    m: int = 10000,
    delta: float = 0.05,
    intervals: int = 6,
) -> Table:
    """Hoeffding union radius against the variable-noise-scale Rademacher
    radius for games with 100 actions per player, expected utilities bounded
    by a = 1 and utility range c = 2: noise magnitudes are binned dyadically
    up to c, with index counts per bin halving as the bin's scale doubles."""
    intervals = _integer(intervals, "intervals", least=1)
    a, c = 1.0, 2.0
    breakpoints = (0.0,) + tuple(c * 2.0 ** (i - intervals) for i in range(1, intervals + 1))

    def radius(players: int, index_count: int, m: int) -> float:
        counts = tuple(-(-index_count // 2**i) for i in range(1, intervals + 1))
        return noise_scaling_ra_bound(a, breakpoints, counts, m)

    return _bound_compare(
        "bound-compare-vns", players_max, m, delta, c, radius,
        {"a": a, "c": c, "intervals": intervals},
    )


def run_ppa_demo() -> str:
    """Text report for the canonical three-player congestion instance."""
    game, totals, nash, optimum, worst = _anarchy(ppa_example_game())
    lines = [
        "Pure price of anarchy demo: 3 players, 6 facilities, linear costs.",
        f"Pure equilibria ({nash.size}):",
    ]
    for j in nash:
        profile = game.profile_of_index(int(j))
        labels = ",".join("AB"[s] + str(p + 1) for p, s in enumerate(profile))
        lines.append(f"  profile ({labels}) with total cost {totals[j]:g}")
    lines += [
        f"Optimal total cost: {optimum:g}",
        f"Worst equilibrium total cost: {worst:g}",
        f"Pure price of anarchy: {worst / optimum:g}",
    ]
    return "\n".join(lines) + "\n"
