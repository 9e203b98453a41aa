import hashlib
import math

import numpy as np
import pytest

from egta.algorithms import BoundType, gs
from egta.bounds import factored_ra_bound
from egta import hashing
from egta.games import IndexSet, NormalFormGame, nash_mask, utility
from egta.hashing import _hash_uniform_numpy, mix, splitmix64
from egta.simulators import (
    FACTOR_KINDS,
    CongestionGame,
    FactoredNoiseSimulator,
    NoisySimulator,
    congestion_from_json,
    congestion_to_json,
    draw_conditions,
    expand,
    factor_image_sizes,
    gen_rc,
    gen_rg,
    noisy_sim,
    ppa_exact,
    ppa_example_game,
)

import _oracles as oracle


def sample(sim, seeds, players, profiles):
    """``sim.sample_block`` into a fresh buffer."""
    return sim.sample_block(seeds, players, profiles, np.empty((len(players), len(seeds))), np.zeros(len(players)))


def test_gen_rg_shape_and_support():
    g = gen_rg(4, 3, u0=10.0, seed=5)
    assert g.strategy_counts == (3, 3, 3, 3)
    assert g.utilities.shape == (4, 81)
    assert np.all(g.utilities > -5.0) and np.all(g.utilities < 5.0)


def test_gen_rg_deterministic_in_seed():
    a = gen_rg(3, 2, seed=9)
    b = gen_rg(3, 2, seed=9)
    c = gen_rg(3, 2, seed=10)
    assert np.array_equal(a.utilities, b.utilities)
    assert not np.array_equal(a.utilities, c.utilities)


def test_gen_rg_validates():
    for players, k, name in ((0, 2, "num_players"), (2, 0, "k")):
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            gen_rg(players, k)
    for u0 in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="u0 must be positive and finite"):
            gen_rg(2, 2, u0=u0)
    # 2^66 profiles, which an int64 product wraps to 0; numpy refuses the
    # shape at once, allocating nothing
    with pytest.raises(ValueError):
        gen_rg(3, 2**22)


def test_gen_rc_strategy_counts_and_facility_one():
    for seed in range(30):
        cg = gen_rc(5, 5, 2, seed=seed)
        assert cg.num_players == 5
        for strats in cg.strategy_sets:
            assert 1 <= len(strats) <= 2
            assert len(set(strats)) == len(strats)
            for strat in strats:
                assert 0 in strat  # the always-included first facility
                assert all(0 <= e < 5 for e in strat)


def test_gen_rc_deterministic_and_validated():
    assert gen_rc(3, 4, 3, seed=2) == gen_rc(3, 4, 3, seed=2)
    with pytest.raises(ValueError):
        gen_rc(2, 2, 4)  # k exceeds 2^facilities - 1
    with pytest.raises(ValueError):
        gen_rc(2, 3, 2, alpha=1.5)


def test_expand_single_player():
    cg = CongestionGame(1, (((0,),),))
    g = expand(cg)
    assert utility(g, 0, (0,)) == -1.0


def test_expand_ppa_example_costs():
    g = expand(ppa_example_game())
    for p in range(3):
        assert utility(g, p, (0, 0, 0)) == -2.0
        assert utility(g, p, (1, 1, 1)) == -5.0


def test_expand_matches_oracle_costs():
    rng = np.random.default_rng(4)
    for seed in range(20):
        cg = gen_rc(
            int(rng.integers(2, 5)), int(rng.integers(2, 5)), 2, seed=seed
        )
        g = expand(cg)
        for profile in oracle.all_profiles(g):
            costs = oracle.congestion_costs(cg, profile)
            for p in range(cg.num_players):
                assert utility(g, p, profile) == pytest.approx(-costs[p])


def test_expand_custom_cost_fn():
    cg = CongestionGame(2, (((0, 1),), ((0,),)), cost_fn=lambda e, n: n * n)
    g = expand(cg)
    # facility 0 carries both players (cost 4), facility 1 only player 0
    assert utility(g, 0, (0, 0)) == -(4 + 1)
    assert utility(g, 1, (0, 0)) == -4


# sha256 of expand(...).utilities over these gen_rc games, each under the
# linear cost and under a float cost, frozen before expand read its
# profiles' coordinates from one np.unravel_index. At alpha 0.5 and 0.7
# strategies use three facilities or more, whose float costs round
# differently when summed in another order
GOLDEN_EXPAND_SHA256 = "29c39a467809983d069f125a25cdbe93c15b6fb05c67a8c0e960b5587bb4fe2e"


def test_expand_golden():
    digest = hashlib.sha256()
    for shape in ((2, 3, 2, 0.1), (3, 4, 3, 0.7), (4, 5, 2, 0.5), (5, 5, 2, 0.7), (3, 6, 5, 0.7)):
        for seed in range(3):
            cg = gen_rc(*shape, seed=seed)
            for cost_fn in (None, lambda e, n: 0.1 * n**1.5 + e / 7):
                game = expand(CongestionGame(cg.num_facilities, cg.strategy_sets, cost_fn))
                digest.update(game.utilities.tobytes())
    assert digest.hexdigest() == GOLDEN_EXPAND_SHA256


def test_ppa_exact_values():
    assert ppa_exact(CongestionGame(1, (((0,),),))) == 1.0
    assert ppa_exact(ppa_example_game()) == 2.5
    # identical-interest game with a unique optimum equilibrium
    shared = CongestionGame(2, (((0,), (0, 1)), ((0,), (0, 1))))
    assert ppa_exact(shared) == 1.0
    # a cost function with a zero optimum has no price of anarchy
    free = CongestionGame(2, (((0,),), ((1,),)), cost_fn=lambda e, n: 0.0)
    with pytest.raises(ValueError, match="optimal total cost must be positive"):
        ppa_exact(free)


def test_ppa_example_equilibria():
    g = expand(ppa_example_game())
    nash = nash_mask(g, 0.0)
    assert nash.sum() == 2
    assert nash[g.profile_index((0, 0, 0))] and nash[g.profile_index((1, 1, 1))]
    totals = -g.utilities.sum(axis=0)
    assert totals.min() == 6.0
    assert totals[g.profile_index((0, 0, 0))] == 6.0
    assert (totals == 6.0).sum() == 1  # the optimum is unique
    assert totals[nash].max() == 15.0


def test_rosenthal_pure_nash_exists():
    rng = np.random.default_rng(8)
    for seed in range(60):
        cg = gen_rc(
            int(rng.integers(2, 6)), int(rng.integers(2, 6)), 2, seed=seed
        )
        assert nash_mask(expand(cg), 0.0).any()


def test_congestion_validation():
    with pytest.raises(ValueError):
        CongestionGame(2, ((),))  # player with no strategies
    with pytest.raises(ValueError):
        CongestionGame(2, (((),),))  # empty facility set
    with pytest.raises(ValueError):
        CongestionGame(2, (((0, 5),),))  # facility out of range
    # each level of the strategy sets is read as a sequence
    for sets, what in ((5, "strategy sets"), ((5,), "strategies"), (((5,),), "strategy")):
        with pytest.raises(ValueError, match=f"{what} must be a sequence"):
            CongestionGame(2, sets)


def test_congestion_json_roundtrip():
    cg = gen_rc(4, 5, 2, seed=3)
    back = congestion_from_json(congestion_to_json(cg))
    assert back == cg
    with pytest.raises(ValueError):
        congestion_from_json('{"players": 1, "facilities": 2, "strategies": [[[0]]], "cost": "quadratic"}')
    for text in (
        '{"cost": "linear", "strategies": [[[0]]]}',
        '{"cost": "linear", "players": 1, "strategies": [[[0]]]}',
        '{"cost": "linear", "players": 1, "facilities": 2}',
    ):
        with pytest.raises(ValueError, match="lacks the field"):
            congestion_from_json(text)
    with pytest.raises(ValueError, match="must be an object"):
        congestion_from_json("[]")
    for text in (
        '{"cost": "linear", "players": 1, "facilities": 2, "strategies": [[0]]}',
        '{"cost": "linear", "players": 1, "facilities": 2, "strategies": null}',
        '{"cost": "linear", "players": null, "facilities": 2, "strategies": [[[0]]]}',
        # counts and facilities are read by the integer rule, not truncated
        '{"cost": "linear", "players": 1, "facilities": 2.9, "strategies": [[[0]]]}',
        '{"cost": "linear", "players": 1, "facilities": 2, "strategies": [[[0.5]]]}',
        '{"cost": "linear", "players": "1", "facilities": 2, "strategies": [[[0]]]}',
    ):
        with pytest.raises(ValueError, match="wrongly typed"):
            congestion_from_json(text)


def test_noisy_sim_zero_noise_is_exact():
    base = expand(ppa_example_game())
    sim = noisy_sim(base, 0.0)
    idx = IndexSet.full(base.strategy_counts)
    seeds = draw_conditions(np.random.default_rng(0), 7)
    values = sample(sim, seeds, idx.players, idx.profiles)
    assert np.array_equal(values, np.tile(base.utilities.reshape(-1)[:, None], (1, 7)))


def test_noisy_sim_support_and_determinism():
    base = gen_rg(2, 2, seed=1)
    sim = noisy_sim(base, d=3.0)
    idx = IndexSet.full(base.strategy_counts)
    seeds = draw_conditions(np.random.default_rng(1), 500)
    a = sample(sim, seeds, idx.players, idx.profiles)
    b = sample(sim, seeds, idx.players, idx.profiles)
    assert np.array_equal(a, b)
    spread = np.abs(a - base.utilities.reshape(-1)[:, None])
    assert np.all(spread < 1.5)
    assert sim.range_c == 2.0 * np.abs(base.utilities).max() + 3.0


def test_noisy_sim_validates():
    base = gen_rg(2, 2, seed=1)
    for d in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise width d must be finite"):
            noisy_sim(base, d)
    # a finite width whose declared range 2 max|u| + d overflows
    with pytest.raises(ValueError, match="overflow the utility range"):
        noisy_sim(gen_rg(2, 2, u0=1e308), 1e308)
    with pytest.raises(ValueError, match="NormalFormGame"):
        noisy_sim([[1.0]], 1.0)


def test_noisy_sim_query_matches_block():
    # a one-entry block (a single query) equals that entry of a full block
    base = gen_rg(3, 2, seed=2)
    sim = noisy_sim(base, d=2.0)
    idx = IndexSet.full(base.strategy_counts)
    seeds = draw_conditions(np.random.default_rng(4), 5)
    full = sample(sim, seeds, idx.players, idx.profiles)
    j = base.profile_index((0, 1, 1))
    one = sample(sim, seeds[2:3], np.array([1]), np.array([j]))
    assert one.shape == (1, 1)
    assert one[0, 0] == full[base.num_profiles + j, 2]


def test_noisy_sim_means_concentrate_on_base():
    base = gen_rg(2, 2, seed=3)
    d = 4.0
    sim = noisy_sim(base, d)
    idx = IndexSet.full(base.strategy_counts)
    m = 100_000
    seeds = draw_conditions(np.random.default_rng(11), m)
    means = sample(sim, seeds, idx.players, idx.profiles).mean(axis=1)
    tol = 3.0 * d / np.sqrt(12.0 * m)
    assert np.all(np.abs(means - base.utilities.reshape(-1)) < tol)


def test_factored_sim_zero_scales_and_global_sharing():
    base = gen_rg(2, 3, u0=1.9, seed=4)
    silent = FactoredNoiseSimulator(1.0, [0.0], ["global"], base, seed=0)
    idx = IndexSet.full(base.strategy_counts)
    seeds = draw_conditions(np.random.default_rng(2), 5)
    assert np.array_equal(
        sample(silent, seeds, idx.players, idx.profiles),
        np.tile(base.utilities.reshape(-1)[:, None], (1, 5)),
    )
    noisy = FactoredNoiseSimulator(1.0, [0.7], ["global"], base, seed=0)
    offsets = sample(noisy, seeds, idx.players, idx.profiles) - base.utilities.reshape(-1)[:, None]
    # the global factor shifts every index identically per condition
    assert np.allclose(offsets, offsets[0][None, :])
    assert np.all(np.abs(offsets) <= 0.7)


def test_factored_sample_block_matches_formula():
    # base plus (2u - 1) * a_i for each factor with a nonzero scale, in
    # factor order, u hashed from the factor's salted grouping value: the
    # in-place code must give these bits exactly, whichever factor is the
    # first nonzero one
    base = gen_rg(3, 3, u0=2.0, seed=7)
    idx = IndexSet.full(base.strategy_counts)
    seeds = draw_conditions(np.random.default_rng(8), 300)
    groups = {
        "global": np.zeros_like(idx.players),
        "agent": idx.players,
        "own-strategy": np.array([base.profile_of_index(s)[p] for p, s in idx.pairs()]),
        "profile": idx.profiles,
        "agent-profile": idx.players * base.num_profiles + idx.profiles,
    }
    for a in ([1.0, 0.0, 0.5, 0.25, 0.75], [0.0, 0.0, 0.5, 0.0, 0.75], [0.0] * 5):
        sim = FactoredNoiseSimulator(1.0, a, FACTOR_KINDS, base, seed=3)
        want = np.tile(base.utilities[idx.players, idx.profiles][:, None], (1, len(seeds)))
        for i, (a_i, kind) in enumerate(zip(a, FACTOR_KINDS)):
            if a_i:
                keys = splitmix64(groups[kind].astype(np.uint64) + np.uint64(mix(3, i)))
                want = want + (2.0 * _hash_uniform_numpy(seeds, keys) - 1.0) * a_i
        assert np.array_equal(sample(sim, seeds, idx.players, idx.profiles), want), a


def test_sample_block_refuses_indices_outside_the_game():
    # a negative index would be read from the end of the utility table and
    # one past it would leak numpy's IndexError; a float index is no index
    base = gen_rg(2, 2, seed=1)
    seeds = draw_conditions(np.random.default_rng(0), 3)
    sims = (NoisySimulator(base, 1.0), FactoredNoiseSimulator(5.0, [1.0, 1.0], ["own-strategy", "agent"], base, seed=0))
    for sim in sims:
        for players, profiles in (([-1], [0]), ([0], [-1]), ([2], [0]), ([0], [4]), ([0.0], [0]), ([1], [3.0])):
            with pytest.raises(ValueError, match=r"integers in a game of shape \(2, 4\)"):
                sample(sim, seeds, np.array(players), np.array(profiles))
        assert sample(sim, seeds, np.array([0, 1]), np.array([0, 3])).shape == (2, 3)


def test_sample_block_refuses_other_shapes_and_bools():
    # numpy would broadcast players [0, 1] against profiles [0], sampling
    # both players at profile 0, and read a bool array as the indices 1 and 0
    base = gen_rg(2, 2, seed=1)
    seeds = draw_conditions(np.random.default_rng(0), 3)
    sims = (
        NoisySimulator(base, 0.0),
        NoisySimulator(base, 1.0),
        FactoredNoiseSimulator(5.0, [1.0] * 5, FACTOR_KINDS, base, seed=0),
    )
    refused = (
        ([0, 1], [0]),
        ([0], [0, 1]),
        ([[0, 1]], [[0, 3]]),
        (0, 3),
        ([True, False], [0, 1]),
        ([0, 1], [True, False]),
        ([], []),
    )
    for sim in sims:
        for players, profiles in refused:
            with pytest.raises(ValueError, match=r"integers in a game of shape \(2, 4\), as two 1-d integer arrays"):
                sim.sample_block(seeds, np.array(players), np.array(profiles), np.empty((2, 3)), np.zeros(2))


def test_sample_block_reads_lists_under_every_factor_kind():
    # lists are read as arrays before any grouping function sees them
    base = gen_rg(2, 2, seed=1)
    idx = IndexSet.full(base.strategy_counts)
    seeds = draw_conditions(np.random.default_rng(5), 7)
    sims = [noisy_sim(base, 1.0)] + [FactoredNoiseSimulator(5.0, [1.0], [kind], base, seed=2) for kind in FACTOR_KINDS]
    for sim in sims:
        want = sample(sim, seeds, idx.players, idx.profiles)
        assert np.array_equal(sample(sim, seeds, idx.players.tolist(), idx.profiles.tolist()), want)


def test_sample_block_fills_out(monkeypatch):
    # the block overwrites out, which is returned, with the same bits on the
    # compiled kernel and on the numpy fallback, for noisy factors and for
    # all-zero widths. Only tiles of one noise factor run compiled, among
    # them a factored simulator's with one nonzero scale, whose keys alone
    # are salted and hashed by factor
    base = gen_rg(3, 3, u0=2.0, seed=7)
    idx = IndexSet.full(base.strategy_counts)
    seeds = draw_conditions(np.random.default_rng(9), 301)
    sims = [
        (noisy_sim(base, 2.0), True),
        (noisy_sim(base, 0.0), False),
        (FactoredNoiseSimulator(1.0, [0.0, 0.5, 0.0, 0.25, 0.75], FACTOR_KINDS, base, seed=3), False),
        (FactoredNoiseSimulator(1.0, [0.0, 0.0, 0.5, 0.0, 0.0], FACTOR_KINDS, base, seed=3), True),
        (FactoredNoiseSimulator(1.0, [0.0] * 5, FACTOR_KINDS, base, seed=3), False),
    ]
    kernel = hashing._kernel()
    calls = []

    class Counted:
        def egta_noise(self, *args):
            calls.append(args)
            kernel.egta_noise(*args)

        def __getattr__(self, name):  # egta_splitmix64
            return getattr(kernel, name)

    for sim, compiled in sims:
        blocks = []
        for lib in (kernel and Counted(), None):
            monkeypatch.setattr(hashing, "_kernel", lambda: lib)
            calls.clear()
            buf = np.full((len(idx), len(seeds)), np.nan)
            assert sim.sample_block(seeds, idx.players, idx.profiles, buf, np.zeros(len(idx))) is buf
            blocks.append(buf)
            assert len(calls) == (lib is not None and compiled)
        assert np.array_equal(blocks[0], blocks[1])


def test_zero_width_factors_keep_negative_zero_base(monkeypatch):
    # a zero-width factor is dropped rather than adding +-0.0 noise, which
    # would turn a -0.0 base into +0.0
    base = NormalFormGame((2, 2), np.array([[-0.0, 1.0, -0.0, 2.0], [0.0, -0.0, 3.0, -0.0]]))
    idx = IndexSet.full(base.strategy_counts)
    seeds = draw_conditions(np.random.default_rng(10), 9)
    want = np.repeat(base.utilities.reshape(-1)[:, None], 9, axis=1)
    kernel = hashing._kernel()
    for sim in (noisy_sim(base, 0.0), FactoredNoiseSimulator(3.0, [0.0, 0.0], ["global", "agent"], base, 0)):
        for lib in (kernel, None):
            monkeypatch.setattr(hashing, "_kernel", lambda: lib)
            got = sample(sim, seeds, idx.players, idx.profiles)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

def test_factored_sim_image_sizes_and_range():
    base = gen_rg(3, 4, u0=2.0, seed=5)
    sim = FactoredNoiseSimulator(1.0, [1.0, 1.0, 1.0, 0.5, 0.5], FACTOR_KINDS, base, seed=9)
    assert factor_image_sizes(sim.kinds, base.strategy_counts) == [1, 3, 4, 64, 192]
    # exact ints, which no float equals: 100 players with 100 actions each
    huge = factor_image_sizes(FACTOR_KINDS, (100,) * 100)
    assert huge == [1, 100, 100, 100**100, 100 * 100**100]
    assert sim.range_c == 2.0 * (1.0 + 4.0)
    idx = IndexSet.full(base.strategy_counts)
    seeds = draw_conditions(np.random.default_rng(3), 50)
    values = sample(sim, seeds, idx.players, idx.profiles)
    assert np.all(np.abs(values) <= sim.range_c / 2)


def test_factored_sim_mean_era_below_factored_bound():
    # the factored Rademacher bound, for the model's own image sizes, must
    # hold for the 1ERA r-hat that gs measures on that model; the mean sits
    # 2.5-3x below it here
    a = [1.0, 1.0, 1.0, 0.5, 0.5]
    delta = 0.1
    for players, k in ((2, 3), (3, 4)):
        base = gen_rg(players, k, u0=2.0, seed=players)
        b = factor_image_sizes(FACTOR_KINDS, base.strategy_counts)
        idx = IndexSet.full(base.strategy_counts)
        for m in (100, 1000):
            r_hats = []
            for draw in range(30):
                sim = FactoredNoiseSimulator(1.0, a, FACTOR_KINDS, base, seed=draw)
                eps = gs(sim, idx, m, delta, sim.range_c, BoundType.ONE_ERA, seed=draw).epsilon
                tail = 3.0 * sim.range_c * math.sqrt(math.log(1 / delta) / (2 * m))
                r_hats.append((eps - tail) / 2)
            assert np.mean(r_hats) < factored_ra_bound(1.0, a, b, m)


def test_factored_sim_validates():
    base = gen_rg(2, 2, u0=4.0, seed=6)
    with pytest.raises(ValueError):
        FactoredNoiseSimulator(1.0, [1.0], ["global"], base, seed=0)  # a0 too small
    # an unknown kind, hashable or not, and scales or kinds that do not pair
    # up used to leak KeyError or TypeError
    for kinds in (["unknown"], [["global"]]):
        with pytest.raises(ValueError, match="unknown factor kind"):
            FactoredNoiseSimulator(2.0, [1.0], kinds, base, seed=0)
        with pytest.raises(ValueError, match="unknown factor kind"):
            factor_image_sizes(kinds, base.strategy_counts)
    with pytest.raises(ValueError, match="factor kinds must be a sequence"):
        factor_image_sizes(5, (2, 2))
    # strategy counts that are not a sequence of integers used to leak
    # TypeError, or to be read as they came
    for counts in (5, None, (2.5, 3)):
        with pytest.raises(ValueError, match="strategy count"):
            factor_image_sizes(FACTOR_KINDS, counts)
    with pytest.raises(ValueError, match="factor kinds must have length 2, not 1"):
        FactoredNoiseSimulator(2.0, [1.0, 1.0], ["global"], base, seed=0)
    for a, kinds, name in ((1.0, ["global"], "factor scales a"), ([1.0], None, "factor kinds")):
        with pytest.raises(ValueError, match=f"{name} must be a sequence"):
            FactoredNoiseSimulator(2.0, a, kinds, base, seed=0)
    # non-finite scales used to build with a NaN or infinite range_c
    nan, inf = float("nan"), float("inf")
    for a0, a in ((nan, [nan]), (nan, [1.0]), (10.0, [nan]), (10.0, [inf]), (inf, [1.0])):
        with pytest.raises(ValueError, match="finite"):
            FactoredNoiseSimulator(a0, a, ["global"], base, seed=0)
    # finite scales whose declared range 2 (a0 + sum a) overflows
    for a0, a in ((10.0, [1e308, 1e308]), (1e308, [1e308, 0.0])):
        with pytest.raises(ValueError, match="overflow the utility range"):
            FactoredNoiseSimulator(a0, a, ["global", "agent"], base, seed=0)
    with pytest.raises(ValueError, match="NormalFormGame"):
        FactoredNoiseSimulator(2.0, [1.0], ["global"], [[1.0]], seed=0)


def test_empirical_game_single_draw_and_zero_noise():
    # the empirical game of gs (GSResult.to_game) from one condition is that
    # condition's block; without noise it is the base game at any m
    base = expand(ppa_example_game())
    idx = IndexSet.full(base.strategy_counts)
    sim = noisy_sim(base, 2.0)
    emp = gs(sim, idx, 1, 0.1, sim.range_c, BoundType.HOEFFDING, seed=42).to_game()
    seeds = draw_conditions(np.random.Generator(np.random.PCG64(42)), 1)
    block = sample(sim, seeds, idx.players, idx.profiles)
    assert np.array_equal(emp.utilities.reshape(-1), block[:, 0])
    silent = noisy_sim(base, 0.0)
    res = gs(silent, idx, 13, 0.1, silent.range_c, BoundType.ONE_ERA, seed=5)
    assert np.array_equal(res.to_game().utilities, base.utilities)


def test_empirical_game_partial_index_set():
    base = expand(ppa_example_game())
    idx = IndexSet([0, 2], [0, 5], base.strategy_counts)
    sim = noisy_sim(base, 0.0)
    res = gs(sim, idx, 2, 0.1, sim.range_c, BoundType.HOEFFDING, seed=1)
    assert res.utilities.shape == (2,)
    emp = res.to_game()
    assert emp.strategy_counts == base.strategy_counts
    assert res.index_set.strategy_counts == sim.strategy_counts  # the counts gs sampled on
    assert emp.utilities[0, 0] == base.utilities[0, 0]
    assert emp.utilities[2, 5] == base.utilities[2, 5]
    assert emp.utilities[1, 3] == 0.0  # indices outside the set read zero
    # a truth of other strategy counts is refused, a larger game that holds
    # every index included
    for counts in (base.strategy_counts[:1], (1,) * base.num_players, base.strategy_counts + (3,)):
        with pytest.raises(ValueError, match="strategy counts"):
            res.sup_deviation(NormalFormGame(counts, np.zeros((len(counts), math.prod(counts)))))
