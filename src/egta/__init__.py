"""Learning uniform approximations and pure equilibria of simulation-based
games from noisy samples, with finite-sample error guarantees."""

from .algorithms import (
    BoundType,
    FailureSchedule,
    GSResult,
    IterationRecord,
    PSPResult,
    SamplingSchedule,
    gs,
    prune_mixed,
    prune_pure,
    psp,
    query_cost,
)
from .bounds import (
    crossover_size,
    era_eps,
    factored_ra_bound,
    hoeffding_eps,
    hoeffding_eps_ln,
    noise_scaling_ra_bound,
    ra_eps_upper,
)
from .games import (
    IndexSet,
    NormalFormGame,
    check_containment,
    eps_dominates,
    game_from_json,
    game_size,
    game_to_json,
    maximin_value,
    pure_eps_nash,
    pure_regret,
    rationalizable,
    regret_table,
    utility,
    welfare,
)
from .simulators import (
    CongestionGame,
    ConditionalSimulator,
    FactoredNoiseSimulator,
    NoisySimulator,
    congestion_from_json,
    congestion_to_json,
    draw_conditions,
    expand,
    gen_rc,
    gen_rg,
    noisy_sim,
    ppa_exact,
    ppa_example_game,
)

__version__ = "0.1.0"
