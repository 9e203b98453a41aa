"""Every count, index and seed the package reads follows one integer rule:
Python and numpy integers are taken, and bools, floats, strings and None
raise ValueError instead of being truncated, accepted as 1 or leaking a
TypeError."""

import numpy as np
import pytest

from egta import experiments
from egta.algorithms import BoundType, FailureSchedule, SamplingSchedule, gs, psp
from egta.bounds import factored_ra_bound, hoeffding_eps, noise_scaling_ra_bound, ra_eps_upper
from egta.games import (
    IndexSet,
    NormalFormGame,
    eps_dominates,
    maximin_value,
    pure_regret,
    rationalizable,
    utility,
)
from egta.simulators import (
    CongestionGame,
    FactoredNoiseSimulator,
    draw_conditions,
    expand,
    gen_rc,
    gen_rg,
    noisy_sim,
)

GAME = NormalFormGame((2, 2), np.arange(8.0).reshape(2, 4))
SIM = noisy_sim(GAME, 1.0)
FULL = IndexSet.full(GAME.strategy_counts)


def _gs(m=10, seed=0):
    return gs(SIM, FULL, m, 0.1, SIM.range_c, BoundType.HOEFFDING, seed=seed)


# each site takes the value under test where a count, index or seed goes;
# the seed sites run at tiny sizes, so that code which takes a string seed as
# a label returns at once instead of refusing it
SITES = {
    "SamplingSchedule.m0": lambda x: SamplingSchedule(x),
    "SamplingSchedule.budget": lambda x: SamplingSchedule(1, x),
    "FailureSchedule.steps": lambda x: FailureSchedule(0.1, x),
    "gs.m": lambda x: _gs(m=x),
    "gs.seed": lambda x: _gs(seed=x),
    "psp.seed": lambda x: psp(SIM, SamplingSchedule(10, 30), FailureSchedule(0.1, 2), SIM.range_c,
                              BoundType.HOEFFDING, seed=x),
    "hoeffding_eps.num_indices": lambda x: hoeffding_eps(1.0, x, 10, 0.1),
    "ra_eps_upper.num_indices": lambda x: ra_eps_upper(1.0, x, 10, 0.1),
    "factored_ra_bound.b": lambda x: factored_ra_bound(1.0, [1.0], [x], 10),
    "noise_scaling_ra_bound.counts": lambda x: noise_scaling_ra_bound(1.0, (0.0, 1.0), (x,), 10),
    "run_eps_vs_samples.reps": lambda x: experiments.run_eps_vs_samples(reps=x),
    "run_eps_vs_samples.seed":
        lambda x: experiments.run_eps_vs_samples(seed=x, reps=1, d_values=(2.0,), m_values=(10,)),
    "run_nash_frequency.runs": lambda x: experiments.run_nash_frequency(runs=x),
    "run_nash_frequency.seed": lambda x: experiments.run_nash_frequency(seed=x, runs=1, m_values=(10,)),
    "run_success_rate.reps": lambda x: experiments.run_success_rate(reps=x),
    "run_success_rate.seed": lambda x: experiments.run_success_rate(
        seed=x, reps=1, delta_grid=(0.1,), rho_grid=(1.0,), m=10
    ),
    "run_gs_vs_psp.reps": lambda x: experiments.run_gs_vs_psp(reps=x),
    "run_gs_vs_psp.seed": lambda x: experiments.run_gs_vs_psp(
        seed=x, reps=1, players_values=(2,), k_values=(2,), m0=10, budget=30
    ),
    "find_unique_nash_rc_game.seed": lambda x: experiments.find_unique_nash_rc_game(x),
    "run_bound_compare_factored.players_max":
        lambda x: experiments.run_bound_compare_factored(players_max=x),
    "run_bound_compare_vns.players_max": lambda x: experiments.run_bound_compare_vns(players_max=x),
    "run_bound_compare_factored.m": lambda x: experiments.run_bound_compare_factored(players_max=3, m=x),
    "run_bound_compare_vns.m": lambda x: experiments.run_bound_compare_vns(players_max=3, m=x),
    "run_bound_compare_vns.intervals": lambda x: experiments.run_bound_compare_vns(intervals=x),
    "NormalFormGame.strategy_counts": lambda x: NormalFormGame((x, 2), np.zeros((2, 4))),
    "NormalFormGame.profile_index": lambda x: GAME.profile_index((x, 0)),
    "NormalFormGame.profile_of_index": lambda x: GAME.profile_of_index(x),
    "IndexSet.players": lambda x: IndexSet([x], [0], GAME.strategy_counts),
    "IndexSet.profiles": lambda x: IndexSet([0], [x], GAME.strategy_counts),
    "rationalizable.restrict": lambda x: rationalizable(GAME, 0.0, restrict=[[x], [0]]),
    "utility.p": lambda x: utility(GAME, x, (0, 0)),
    "pure_regret.p": lambda x: pure_regret(GAME, x, (0, 0)),
    "eps_dominates.s": lambda x: eps_dominates(GAME, 0, x, 0, 0.0),
    "maximin_value.p": lambda x: maximin_value(GAME, x),
    "draw_conditions.m": lambda x: draw_conditions(np.random.default_rng(0), x),
    "FactoredNoiseSimulator.seed":
        lambda x: FactoredNoiseSimulator(10.0, [1.0], ["global"], GAME, seed=x),
    "gen_rg.num_players": lambda x: gen_rg(x, 2),
    "gen_rg.k": lambda x: gen_rg(2, x),
    "gen_rg.seed": lambda x: gen_rg(2, 2, seed=x),
    "gen_rc.num_players": lambda x: gen_rc(x, 3, 2),
    "gen_rc.num_facilities": lambda x: gen_rc(2, x, 2),
    "gen_rc.k": lambda x: gen_rc(2, 3, x),
    "gen_rc.seed": lambda x: gen_rc(2, 3, 2, seed=x),
    "CongestionGame.num_facilities": lambda x: CongestionGame(x, (((0,),),)),
    "CongestionGame.facility": lambda x: CongestionGame(2, (((x,),),)),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_entry_points_refuse_non_integers(site):
    # None is a valid budget or step count there: it means unbounded
    unbounded = site in ("SamplingSchedule.budget", "FailureSchedule.steps")
    for value in (1.5, True, "2") + (() if unbounded else (None,)):
        with pytest.raises(ValueError):
            SITES[site](value)


def test_seeds_are_taken_mod_2_64():
    # -1 and 2^64 - 1 are one seed, as a Python or a numpy integer; numpy's
    # own seeding rule would refuse the first and give the second a stream
    # of its own
    for seed in (np.int64(-1), np.uint64(2**64 - 1), 2**64 - 1, 2**65 - 1):
        assert _gs(seed=seed).to_json() == _gs(seed=-1).to_json()
        assert np.array_equal(gen_rg(3, 2, seed=seed).utilities, gen_rg(3, 2, seed=-1).utilities)
        assert gen_rc(3, 4, 3, seed=seed) == gen_rc(3, 4, 3, seed=-1)
    assert not np.array_equal(gen_rg(3, 2, seed=-1).utilities, gen_rg(3, 2, seed=0).utilities)
    base = expand(gen_rc(2, 3, 2, seed=1))
    seeds = [FactoredNoiseSimulator(10.0, [1.0], ["profile"], base, seed=s).seed for s in (-1, 2**64 - 1)]
    assert seeds == [2**64 - 1] * 2
