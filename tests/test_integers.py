"""Every count, index and seed the package reads follows one integer rule:
Python and numpy integers are taken, and bools, floats, strings and None
raise ValueError instead of being truncated, accepted as 1 or leaking a
TypeError."""

import json

import numpy as np
import pytest

from egta import experiments
from egta.algorithms import BoundType, FailureSchedule, SamplingSchedule, gs, psp
from egta.bounds import factored_ra_bound, hoeffding_eps, noise_scaling_ra_bound
from egta.games import (
    IndexSet,
    NormalFormGame,
    eps_dominates,
    game_from_json,
    maximin_value,
    pure_regret,
    rationalizable,
    utility,
)
from egta.simulators import (
    CongestionGame,
    FactoredNoiseSimulator,
    congestion_from_json,
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
    "run_eps_vs_samples.m_values":
        lambda x: experiments.run_eps_vs_samples(reps=1, d_values=(2.0,), m_values=(x,)),
    "run_nash_frequency.m_values": lambda x: experiments.run_nash_frequency(runs=1, m_values=(x,)),
    "run_gs_vs_psp.reps": lambda x: experiments.run_gs_vs_psp(reps=x),
    "run_gs_vs_psp.players_values": lambda x: experiments.run_gs_vs_psp(reps=1, players_values=(x,)),
    "run_gs_vs_psp.k_values": lambda x: experiments.run_gs_vs_psp(reps=1, k_values=(x,)),
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


# each index site takes the value under test where an index goes, with the
# least index it takes, the bound every index stays below and the name its
# error gives
INDEX_SITES = {
    "utility.p": (lambda x: utility(GAME, x, (0, 0)), 0, 2, "player"),
    "pure_regret.p": (lambda x: pure_regret(GAME, x, (0, 0)), 0, 2, "player"),
    "eps_dominates.p": (lambda x: eps_dominates(GAME, x, 0, 1, 0.0), 0, 2, "player"),
    "eps_dominates.s": (lambda x: eps_dominates(GAME, 0, x, 0, 0.0), 0, 2, "strategy"),
    "eps_dominates.s_other": (lambda x: eps_dominates(GAME, 0, 0, x, 0.0), 0, 2, "strategy"),
    "maximin_value.p": (lambda x: maximin_value(GAME, x), 0, 2, "player"),
    "NormalFormGame.profile_index": (lambda x: GAME.profile_index((0, x)), 0, 2, "strategy"),
    "NormalFormGame.profile_of_index": (lambda x: GAME.profile_of_index(x), 0, 4, "profile index"),
    "rationalizable.restrict": (lambda x: rationalizable(GAME, 0.0, restrict=[[0], [x]]), 0, 2,
                                "restriction strategy"),
    "CongestionGame.facility": (lambda x: CongestionGame(3, (((x,),),)), 0, 3, "facility"),
    "gen_rc.k": (lambda x: gen_rc(2, 3, x), 1, 8, "k"),
}


@pytest.mark.parametrize("site", sorted(INDEX_SITES))
def test_indices_out_of_range_are_refused_by_name(site):
    # an index below the least or at the bound used to leak IndexError at
    # several of these sites
    call, least, bound, name = INDEX_SITES[site]
    call(least)
    call(np.int64(bound - 1))
    for value in (-1, least - 1, bound, np.int64(bound), bound + 2**64):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[{least}, {bound}\), not {value}$"):
            call(value)


def _game_json(n):
    return json.dumps({"players": 2, "strategies": [2] * n, "utilities": [0.0] * 8})


def _congestion_json(n):
    return json.dumps({"players": 2, "facilities": 2, "strategies": [[[0]]] * n, "cost": "linear"})


# each length site takes the length under test where a list goes, with the
# length it must have and the name its error gives; a list that must pair up
# with another is named by the second of the two, whichever of them is off
LENGTH_SITES = {
    "NormalFormGame.profile_index": (lambda n: GAME.profile_index((0,) * n), 2, "profile"),
    "rationalizable.restrict": (lambda n: rationalizable(GAME, 0.0, restrict=[[0]] * n), 2, "restriction"),
    "factored_ra_bound.a": (lambda n: factored_ra_bound(1.0, [1.0] * n, [2, 2], 10), 2, "image sizes b"),
    "factored_ra_bound.b": (lambda n: factored_ra_bound(1.0, [1.0, 1.0], [2] * n, 10), 2, "image sizes b"),
    "noise_scaling_ra_bound.breakpoints":
        (lambda n: noise_scaling_ra_bound(1.0, tuple(map(float, range(n + 1))), (1, 1), 10), 2, "counts"),
    "noise_scaling_ra_bound.counts":
        (lambda n: noise_scaling_ra_bound(1.0, (0.0, 1.0, 2.0), (1,) * n, 10), 2, "counts"),
    "FactoredNoiseSimulator.a":
        (lambda n: FactoredNoiseSimulator(10.0, [1.0] * n, ["global", "agent"], GAME, 0), 2, "factor kinds"),
    "FactoredNoiseSimulator.kinds":
        (lambda n: FactoredNoiseSimulator(10.0, [1.0, 1.0], ["global"] * n, GAME, 0), 2, "factor kinds"),
    "game_from_json.strategies": (lambda n: game_from_json(_game_json(n)), 2, "strategies"),
    "congestion_from_json.strategies": (lambda n: congestion_from_json(_congestion_json(n)), 2, "strategies"),
}


@pytest.mark.parametrize("site", sorted(LENGTH_SITES))
def test_lists_of_the_wrong_length_are_refused_by_name(site):
    # a profile or restriction one entry short or long used to leak
    # IndexError, or to be taken when it was long
    call, length, name = LENGTH_SITES[site]
    call(length)
    for n in (length - 1, length + 1):
        with pytest.raises(ValueError, match=rf"{name} must have length \d+, not \d+$"):
            call(n)


def test_a_profile_must_be_a_sequence():
    # profile_index(3) leaked TypeError: 'int' object is not iterable
    with pytest.raises(ValueError, match="profile must be a sequence, not int"):
        GAME.profile_index(3)


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
