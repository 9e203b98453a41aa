import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import egta.algorithms as algorithms
from egta import hashing
from egta.algorithms import (
    BoundType,
    FailureSchedule,
    IterationRecord,
    SamplingSchedule,
    gs,
    prune_mixed,
    prune_pure,
    psp,
    query_cost,
)
from egta.bounds import hoeffding_eps
from egta.games import (
    IndexSet,
    NormalFormGame,
    check_containment,
    nash_mask,
    pure_eps_nash,
    rationalizable,
    regret_table,
)
from egta.experiments import center_per_player
from egta.hashing import _hash_uniform_numpy
from egta.simulators import (
    ConditionalSimulator,
    draw_conditions,
    expand,
    gen_rc,
    gen_rg,
    noisy_sim,
    ppa_example_game,
)

import _oracles as oracle

SRC = Path(__file__).resolve().parent.parent / "src"


def test_sampling_schedule_finite():
    sched = SamplingSchedule(100, 25500)
    assert list(sched.sizes()) == [100, 200, 400, 800, 1600, 3200, 6400, 12800]
    assert sched.length == 8
    with pytest.raises(ValueError):
        SamplingSchedule(100, 99)
    # NaN and fractional sizes used to pass and yield no or fractional sizes
    for m0, budget in ((10, math.nan), (math.nan, 100), (1.5, 10), (10, 100.0), (0, 10)):
        with pytest.raises(ValueError):
            SamplingSchedule(m0, budget)


def test_sampling_schedule_infinite():
    sched = SamplingSchedule(50)
    it = sched.sizes()
    assert [next(it) for _ in range(4)] == [50, 100, 200, 400]
    assert sched.length is None
    for m0 in (math.nan, 1.5, 0):
        with pytest.raises(ValueError):
            SamplingSchedule(m0)


def test_failure_schedules():
    uniform = FailureSchedule(0.1, 4)
    assert list(uniform.deltas()) == [0.025] * 4
    geo = FailureSchedule(0.2)
    it = geo.deltas()
    first = [next(it) for _ in range(5)]
    assert first == [0.1, 0.05, 0.025, 0.0125, 0.00625]
    assert sum(first) < 0.2
    with pytest.raises(ValueError):
        FailureSchedule(1.5, 4)
    for steps in (0, math.nan, 2.5):
        with pytest.raises(ValueError):
            FailureSchedule(0.1, steps)
    with pytest.raises(ValueError):
        FailureSchedule(0.1, 0)
    # a share delta / steps that underflows, or a step count with no float
    for delta, steps in ((1e-300, 10**100), (0.1, 10**400)):
        with pytest.raises(ValueError, match="not a positive float"):
            FailureSchedule(delta, steps)


def test_named_schedules_are_the_constructors_schedules():
    # the benchmark's workloads still build their schedules by these names
    assert SamplingSchedule.finite_doubling(100, 700) == SamplingSchedule(100, 700)
    assert FailureSchedule.geometric_halving(0.1) == FailureSchedule(0.1)


def test_gs_zero_noise_hoeffding_exact():
    base = expand(ppa_example_game())  # integer-valued utilities
    sim = noisy_sim(base, 0.0)
    idx = IndexSet.full(base.strategy_counts)
    res = gs(sim, idx, m=37, delta=0.1, c=sim.range_c, bound=BoundType.HOEFFDING, seed=4)
    assert np.array_equal(res.utilities, base.utilities.reshape(-1))
    assert res.epsilon == hoeffding_eps(sim.range_c, len(idx), 37, 0.1)
    assert res.sup_deviation(base) == 0.0


def test_gs_zero_noise_onera_tail_floor():
    base = expand(ppa_example_game())
    sim = noisy_sim(base, 0.0)
    idx = IndexSet.full(base.strategy_counts)
    res = gs(sim, idx, m=50, delta=0.2, c=sim.range_c, bound=BoundType.ONE_ERA, seed=1)
    floor = 3 * sim.range_c * math.sqrt(math.log(1 / 0.2) / 100)
    assert res.epsilon >= floor


def test_gs_1era_radius_between_tail_and_range():
    # r = max|sum(sigma v)|/m <= c/2, so tail <= eps <= c + tail
    for base in (gen_rg(3, 3, seed=4), expand(gen_rc(4, 3, 2, seed=9))):
        for d in (1.0, 6.0):
            sim = noisy_sim(base, d)
            c = sim.range_c
            for m in (1, 7, 300):
                res = gs(sim, IndexSet.full(base.strategy_counts), m, 0.1, c, BoundType.ONE_ERA, seed=m)
                tail = 3 * c * math.sqrt(math.log(1 / 0.1) / (2 * m))
                assert tail <= res.epsilon <= c + tail


def test_gs_deterministic_and_seed_sensitive():
    base = gen_rg(3, 2, seed=6)
    sim = noisy_sim(base, 2.0)
    idx = IndexSet.full(base.strategy_counts)
    a = gs(sim, idx, 200, 0.1, sim.range_c, BoundType.ONE_ERA, seed=5)
    b = gs(sim, idx, 200, 0.1, sim.range_c, BoundType.ONE_ERA, seed=5)
    c = gs(sim, idx, 200, 0.1, sim.range_c, BoundType.ONE_ERA, seed=6)
    assert np.array_equal(a.utilities, b.utilities) and a.epsilon == b.epsilon
    assert a.epsilon != c.epsilon


def test_gs_golden_regression_rc552():
    cg = gen_rc(5, 5, 2, seed=17)
    base = expand(cg)
    sim = noisy_sim(base, 2.0)
    idx = IndexSet.full(base.strategy_counts)
    res = gs(sim, idx, 10_000, 0.1, sim.range_c, BoundType.ONE_ERA, seed=123)
    assert res.epsilon == pytest.approx(GOLDEN_RC552_EPSILON, rel=0, abs=0)


def test_gs_chunked_accumulation_close_to_direct():
    base = gen_rg(2, 3, seed=8)
    sim = noisy_sim(base, 3.0)
    idx = IndexSet.full(base.strategy_counts)
    direct = gs(sim, idx, 512, 0.1, sim.range_c, BoundType.ONE_ERA, seed=2)
    old = algorithms._BLOCK_ELEMS
    try:
        algorithms._BLOCK_ELEMS = 64  # force many small blocks
        chunked = gs(sim, idx, 512, 0.1, sim.range_c, BoundType.ONE_ERA, seed=2)
    finally:
        algorithms._BLOCK_ELEMS = old
    assert np.allclose(direct.utilities, chunked.utilities, rtol=1e-12, atol=1e-12)
    assert chunked.epsilon == pytest.approx(direct.epsilon, rel=1e-12)


def test_gs_row_tiles_bit_identical(monkeypatch):
    # Hoeffding rows sampled in any tiling give the same bits: 1-row tiles,
    # ragged tails (50 000 elements leaves 8- and 60-row tiles over 324
    # indices and 7-row tiles over 50), and one tile holding the whole index
    # set; m=7000 also splits RG(4,3) into a full and a ragged column block.
    # RC(5,5,1) has 5 indices, so at m=70 000 1-row tiles are wider than
    # _TILE_ELEMS. 1ERA samples each column block in one call, whatever the
    # tile
    cases = [
        (gen_rg(4, 3, seed=5), 7000),
        (gen_rg(2, 5, seed=6), 7000),
        (expand(gen_rc(5, 5, 2, seed=17)), 7000),
        (expand(gen_rc(5, 5, 1, seed=3)), 70_000),
    ]
    tiles = (10**12, 1, 50_000, algorithms._TILE_ELEMS)
    for base, m in cases:
        sim = noisy_sim(base, 2.0)
        idx = IndexSet.full(base.strategy_counts)
        calls = _count_calls(sim)
        runs, counts = [], []
        for tile in tiles:
            monkeypatch.setattr(algorithms, "_TILE_ELEMS", tile)
            before = len(calls)
            runs.append(gs(sim, idx, m, 0.1, sim.range_c, BoundType.HOEFFDING, seed=4))
            counts.append(len(calls) - before)
        # the 1-row tiling really tiles, so the check can fail
        assert counts[1] > counts[0]
        for res in runs[1:]:
            assert np.array_equal(res.utilities, runs[0].utilities)
            assert res.epsilon == runs[0].epsilon
        blocks = -(-m // max(1, algorithms._BLOCK_ELEMS // len(idx)))
        for tile in tiles:
            monkeypatch.setattr(algorithms, "_TILE_ELEMS", tile)
            before = len(calls)
            gs(sim, idx, m, 0.1, sim.range_c, BoundType.ONE_ERA, seed=4)
            assert len(calls) - before == blocks, tile


def test_gs_1era_fallback_chunks_bit_identical(monkeypatch):
    # the numpy fallback samples a 1ERA block in row chunks of any size with
    # the same bits: one row at a time, ragged chunks (50 000 elements
    # leaves 8- and 60-row chunks over RG(4,3)'s two blocks) and one chunk
    # per block; they are also the bits of the compiled kernel, where it
    # loads
    runs = [(noisy_sim(base, 2.0), IndexSet.full(base.strategy_counts), m) for base, m in [
        (expand(gen_rc(5, 5, 1, seed=3)), 70_000),
        (gen_rg(4, 3, seed=5), 7000),
    ]]
    wants = [gs(sim, idx, m, 0.1, sim.range_c, BoundType.ONE_ERA, seed=4) for sim, idx, m in runs]
    chunks = []

    def counted(conds, keys, numpy=hashing._hash_uniform_numpy):
        chunks.append(keys.size)
        return numpy(conds, keys)

    monkeypatch.setattr(hashing, "_kernel", lambda: None)
    monkeypatch.setattr(hashing, "_hash_uniform_numpy", counted)
    for (sim, idx, m), want in zip(runs, wants):
        counts = []
        for chunk in (1, 50_000, 10**12):
            monkeypatch.setattr(hashing, "_CHUNK_ELEMS", chunk)
            before = len(chunks)
            res = gs(sim, idx, m, 0.1, sim.range_c, BoundType.ONE_ERA, seed=4)
            counts.append(len(chunks) - before)
            assert np.array_equal(res.utilities, want.utilities), chunk
            assert res.epsilon == want.epsilon, chunk
        # 1-row chunks really chunk, so the check can fail
        assert counts[0] > counts[2] > 0


def _count_calls(sim) -> list:
    """The arguments of each later ``sim.sample_block`` call."""
    calls = []

    def counted(*args, sample_block=sim.sample_block, **kwargs):
        calls.append(args)
        return sample_block(*args, **kwargs)

    sim.sample_block = counted
    return calls


def _peak_of_1era_ragged_blocks() -> tuple[int, int]:
    """The peak traced bytes of a 1ERA gs call over ragged column blocks,
    and the bytes of one full block. 288 indices at m=12 800 make a full
    6944-column block and a ragged 5856-column one, and 1ERA keeps each
    whole; the ragged block must reuse the first block's buffer."""
    base = gen_rg(2, 12, seed=1)
    sim = noisy_sim(base, 2.0)
    idx = IndexSet.full(base.strategy_counts)
    assert len(idx) == 288
    tracemalloc.start()
    try:
        gs(sim, idx, 12_800, 0.1, sim.range_c, BoundType.ONE_ERA, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, 8 * len(idx) * (algorithms._BLOCK_ELEMS // len(idx))


def test_gs_1era_gathers_ragged_blocks_in_one_buffer():
    # the call's peak stays near one 16 MB block
    peak, block_bytes = _peak_of_1era_ragged_blocks()
    assert peak < 1.25 * block_bytes


def test_gs_1era_fallback_gathers_ragged_blocks_in_one_buffer(monkeypatch):
    # the numpy fallback samples each whole block in one call too, and its
    # row chunks keep its grid temporaries far below a block
    monkeypatch.setattr(hashing, "_kernel", lambda: None)
    peak, block_bytes = _peak_of_1era_ragged_blocks()
    assert peak < 1.25 * block_bytes


def test_gs_hoeffding_samples_into_one_tile_buffer():
    # under Hoeffding the tiles of both blocks of the case above are written
    # into one buffer of at most _TILE_ELEMS samples, so the call's peak stays
    # near one tile plus the condition seeds and per-index vectors, far below
    # a block; the numpy fallback's grid temporaries would exceed this
    if hashing._kernel() is None:
        pytest.skip("the compiled kernel is not available")
    base = gen_rg(2, 12, seed=1)
    sim = noisy_sim(base, 2.0)
    idx = IndexSet.full(base.strategy_counts)
    m = 12_800
    tracemalloc.start()
    try:
        gs(sim, idx, m, 0.1, sim.range_c, BoundType.HOEFFDING, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tile_bytes = 8 * algorithms._TILE_ELEMS
    assert peak < 2 * tile_bytes + 16 * m + 64 * len(idx)


def test_noisy_sample_block_matches_formula():
    base = gen_rg(3, 3, seed=2)
    sim = noisy_sim(base, 5.0)
    idx = IndexSet.full(base.strategy_counts)
    seeds = draw_conditions(np.random.default_rng(7), 300)
    keys = (idx.players * base.num_profiles + idx.profiles).astype(np.uint64)
    want = base.utilities[idx.players, idx.profiles][:, None] + (
        _hash_uniform_numpy(seeds, keys) - 0.5
    ) * sim.d
    assert np.array_equal(sim.sample_block(seeds, idx.players, idx.profiles, np.empty(want.shape), np.zeros(len(idx))), want)


def test_gs_hoeffding_independent_of_blas_threads():
    # the Hoeffding path sums rows without BLAS, so its bits may not depend
    # on how many threads the BLAS library runs
    script = (
        "from egta.algorithms import BoundType, gs\n"
        "from egta.games import IndexSet\n"
        "from egta.simulators import gen_rg, noisy_sim\n"
        "base = gen_rg(4, 4, seed=3)\n"
        "sim = noisy_sim(base, 5.0)\n"
        "print(gs(sim, IndexSet.full(base.strategy_counts), 3000, 0.1, sim.range_c, BoundType.HOEFFDING,"
        " seed=9).to_json())\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_gs_zero_range_is_exact():
    # an all-zero game without noise has range c == 0: every sample is exact
    base = NormalFormGame((2, 2), np.zeros((2, 4)))
    sim = noisy_sim(base, 0.0)
    assert sim.range_c == 0.0
    for bound in BoundType:
        res = gs(sim, IndexSet.full(base.strategy_counts), m=20, delta=0.1, c=sim.range_c, bound=bound, seed=3)
        assert res.epsilon == 0.0
        assert np.array_equal(res.utilities, np.zeros(8))
    sched = SamplingSchedule(10, 70)
    res = psp(sim, sched, FailureSchedule(0.1, 3), c=0.0, bound=BoundType.ONE_ERA)
    assert res.epsilon == 0.0 and len(res.trace) == 1
    assert len(res.pure_equilibria) == 4


def test_games_index_sets_and_results_compare_by_identity():
    # their fields hold numpy arrays, whose == has no single truth value
    base = NormalFormGame((2, 2), np.zeros((2, 4)))
    sim = noisy_sim(base, 1.0)
    full = IndexSet.full(base.strategy_counts)
    sched = SamplingSchedule(10, 30)
    results = (
        base,
        full,
        gs(sim, full, 10, 0.1, sim.range_c, BoundType.HOEFFDING),
        psp(sim, sched, FailureSchedule(0.1, 2), c=sim.range_c, bound=BoundType.HOEFFDING),
    )
    twins = (
        NormalFormGame((2, 2), np.zeros((2, 4))),
        IndexSet.full(base.strategy_counts),
        gs(sim, full, 10, 0.1, sim.range_c, BoundType.HOEFFDING),
        psp(sim, sched, FailureSchedule(0.1, 2), c=sim.range_c, bound=BoundType.HOEFFDING),
    )
    for x, twin in zip(results, twins):
        assert x == x and x != twin
        assert len({x, twin, x}) == 2


def test_gs_validates_inputs():
    base = gen_rg(2, 2, seed=1)
    sim = noisy_sim(base, 1.0)
    idx = IndexSet.full(base.strategy_counts)
    # each case fails for its own reason before c = 1.0 < range_c is checked
    with pytest.raises(ValueError, match="index set must be nonempty"):
        gs(sim, IndexSet([], [], base.strategy_counts), 10, 0.1, 1.0, BoundType.HOEFFDING)
    with pytest.raises(ValueError, match="sample count m must be at least 1"):
        gs(sim, idx, 0, 0.1, 1.0, BoundType.HOEFFDING)
    with pytest.raises(ValueError, match="failure probability delta"):
        gs(sim, idx, 10, 1.1, 1.0, BoundType.HOEFFDING)
    with pytest.raises(ValueError, match="utility range c must be finite and nonnegative"):
        gs(sim, idx, 10, 0.1, -1.0, BoundType.HOEFFDING)
    for m in (math.nan, 10.5, 10.0):
        with pytest.raises(ValueError, match="sample count m must be an integer"):
            gs(sim, idx, m, 0.1, 1.0, BoundType.HOEFFDING)
    for bound in ("bogus", None, "HOEFFDING"):
        with pytest.raises(ValueError, match="is not a valid BoundType"):
            gs(sim, idx, 10, 0.1, 1.0, bound)
    # an index set of another game's counts, though every pair would fit
    with pytest.raises(ValueError, match=r"strategy counts \(2, 2\) are not the index set's, \(2, 3\)"):
        gs(sim, IndexSet([0], [0], (2, 3)), 10, 0.1, sim.range_c, BoundType.HOEFFDING)
    # a simulator whose declared counts are no sequence at all
    sim.strategy_counts = 4
    with pytest.raises(ValueError, match="strategy counts must be a sequence, not int"):
        gs(sim, idx, 10, 0.1, sim.range_c, BoundType.HOEFFDING)


def test_gs_and_psp_refuse_c_below_the_declared_range():
    """A c below range_c would give a radius the samples cannot back."""
    sim = noisy_sim(gen_rg(2, 2, seed=1), 1.0)
    assert 10.0 < sim.range_c < 11.0
    idx = IndexSet.full(sim.strategy_counts)
    sched = SamplingSchedule(10, 30)
    failure = FailureSchedule(0.1, sched.length)
    for bound in BoundType:
        with pytest.raises(ValueError, match="below the simulator's declared range"):
            gs(sim, idx, 10, 0.1, 10.0, bound)
        with pytest.raises(ValueError, match="below the simulator's declared range"):
            psp(sim, sched, failure, 10.0, bound)
        # the declared range and any wider one are accepted
        assert gs(sim, idx, 10, 0.1, sim.range_c, bound).epsilon > 0
        assert psp(sim, sched, failure, 2 * sim.range_c, bound).epsilon > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("compiled", [True, False])
def test_gs_refuses_sums_that_overflow(monkeypatch, compiled):
    """Each sample of noise 1e308 wide is finite, but a sum of 1000 of them is
    not: gs returned NaN estimates with a finite Hoeffding radius, and under
    1ERA blamed the empirical Rademacher average."""
    if not compiled:
        monkeypatch.setattr(hashing, "_kernel", lambda: None)
    sim = noisy_sim(gen_rg(2, 2, seed=1), 1e308)
    idx = IndexSet.full(sim.strategy_counts)
    for bound in BoundType:
        with pytest.raises(ValueError, match="sums of 1000 samples overflow the float range"):
            gs(sim, idx, 1000, 0.1, sim.range_c, bound)
        # one sample is its own sum, and its estimates are finite
        assert np.isfinite(gs(sim, idx, 1, 0.1, sim.range_c, bound).utilities).all()


def test_bound_accepts_enum_or_value():
    """A BoundType's value selects the same bound as the member itself; any
    other value used to fall through to 1ERA without drawing signs."""
    base = gen_rg(2, 2, seed=1)
    sim = noisy_sim(base, 1.0)
    idx = IndexSet.full(base.strategy_counts)
    for bound in BoundType:
        by_enum = gs(sim, idx, 10, 0.1, sim.range_c, bound, seed=3)
        by_value = gs(sim, idx, 10, 0.1, sim.range_c, bound.value, seed=3)
        assert by_value.bound is bound
        assert by_value.to_json() == by_enum.to_json()
    assert gs(sim, idx, 10, 0.1, sim.range_c, "hoeffding").epsilon == hoeffding_eps(
        sim.range_c, len(idx), 10, 0.1
    )
    sched = SamplingSchedule(10, 70)
    failure = FailureSchedule(0.1, sched.length)
    for bound in BoundType:
        by_enum, by_value = (
            psp(sim, sched, failure, sim.range_c, b, seed=5) for b in (bound, bound.value)
        )
        assert by_value.to_json() == by_enum.to_json()


def test_gs_guarantee_monte_carlo_small():
    cg = gen_rc(3, 3, 2, seed=2)
    base = expand(cg)
    sim = noisy_sim(base, 5.0)
    idx = IndexSet.full(base.strategy_counts)
    for bound in BoundType:
        hits = 0
        for rep in range(60):
            res = gs(sim, idx, 500, 0.1, sim.range_c, bound, seed=rep)
            hits += res.sup_deviation(base) <= res.epsilon
        assert hits / 60 >= 0.9


def _pd_game():
    u0 = [3.0, 0.0, 5.0, 1.0]
    u1 = [3.0, 5.0, 0.0, 1.0]
    return NormalFormGame((2, 2), np.array([u0, u1]))


def test_prune_pure_no_pruning_for_huge_radius():
    g = _pd_game()
    full = IndexSet.full(g.strategy_counts)
    out = prune_pure(g, full, eps_hat=10.0)
    assert out.pairs() == full.pairs()


def test_prune_pure_pd_regret_table():
    # survivors are exactly the indices whose own player's regret is at most
    # 2*eps_hat: with 2*eps_hat below the smallest positive regret these are
    # each player's best-response profiles
    g = _pd_game()
    out = prune_pure(g, IndexSet.full(g.strategy_counts), eps_hat=0.4)
    assert set(out.pairs()) == {(0, 2), (0, 3), (1, 1), (1, 3)}
    table = regret_table(g)
    for p, j in out.pairs():
        assert table[p, j] <= 0.8


def test_prune_pure_monotone_in_radius():
    rng = np.random.default_rng(12)
    g = gen_rg(3, 3, seed=3)
    full = IndexSet.full(g.strategy_counts)
    for _ in range(10):
        small, large = sorted(rng.uniform(0, 4, size=2))
        s_small = set(prune_pure(g, full, small).pairs())
        s_large = set(prune_pure(g, full, large).pairs())
        assert s_small <= s_large


def test_prune_pure_uses_surviving_structure():
    # once an index is pruned it stops serving as a deviation target
    g = _pd_game()
    # drop player 0's cooperate-row indices by hand
    kept = IndexSet([0, 0, 1, 1, 1, 1], [2, 3, 0, 1, 2, 3], g.strategy_counts)
    out = prune_pure(g, kept, eps_hat=0.4)
    # player 1 at (C,C): deviation (C,D) still alive, regret 2 -> pruned;
    # player 1 at (D,C): deviation (D,D) alive, regret 1 -> pruned
    assert set(out.pairs()) == {(0, 2), (0, 3), (1, 1), (1, 3)}


def test_prune_rejects_negative_or_nan_radius():
    # NaN used to make prune_pure return no indices at all
    g = gen_rg(2, 2)
    full = IndexSet.full(g.strategy_counts)
    for prune in (prune_pure, prune_mixed):
        for eps_hat in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="nonnegative"):
                prune(g, full, eps_hat)


def test_prune_mixed_names_player_without_index():
    # both used to report an invalid "restriction" the caller never passed
    g = gen_rg(2, 2)
    for pairs, player in ((([0, 0], [0, 1]), 1), (([], []), 0)):
        with pytest.raises(ValueError, match=f"no index for player {player}"):
            prune_mixed(g, IndexSet(*pairs, g.strategy_counts), 0.5)


def test_prune_refuses_index_set_of_other_counts():
    g = gen_rg(2, 2)
    for other in ((4,), (2, 2, 1), (2, 3)):
        for prune in (prune_pure, prune_mixed):
            with pytest.raises(ValueError, match=rf"strategy counts \(2, 2\) are not the index set's, {re.escape(str(other))}"):
                prune(g, IndexSet([0], [0], other), 0.5)


@st.composite
def _tied_game_and_index_set(draw):
    # integer payoffs in {-2..2} make ties common; 1-player and 1-strategy
    # shapes are included, and the index set is any subset of the indices
    counts = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    size = len(counts) * math.prod(counts)
    payoffs = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    kept = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    game = NormalFormGame(counts, np.array(payoffs, dtype=float).reshape(len(counts), -1))
    mask = np.array(kept).reshape(len(counts), -1)
    return game, IndexSet.from_mask(mask, counts), draw(st.sampled_from([0.0, 0.5, 1.0]))


@settings(max_examples=300, deadline=None)
@given(_tied_game_and_index_set())
def test_prune_pure_matches_oracle(case):
    game, index_set, eps_hat = case
    want = oracle.restricted_regret_survivors(game, index_set.pairs(), eps_hat)
    assert prune_pure(game, index_set, eps_hat).pairs() == want


@settings(max_examples=300, deadline=None)
@given(_tied_game_and_index_set())
def test_masked_regret_table_matches_brute_force(case):
    # a kept cell's best deviation ranges over the kept cells of its player
    # and opponent context only; a context that keeps none reads -inf
    game, index_set, _ = case
    mask = index_set.to_mask()
    table = regret_table(game, mask)
    for p in range(game.num_players):
        for flat in range(game.num_profiles):
            profile = game.profile_of_index(flat)
            context = [profile[:p] + (s,) + profile[p + 1:] for s in range(game.strategy_counts[p])]
            kept = [game.utilities[p, j] for j in map(game.profile_index, context) if mask[p, j]]
            if mask[p, flat]:
                assert table[p, flat] == max(kept) - game.utilities[p, flat]
            elif not kept:
                assert table[p, flat] == -math.inf
    assert np.array_equal(regret_table(game, np.ones_like(mask)), regret_table(game))


def test_regret_table_refuses_a_mask_of_another_shape():
    # regret_table's alive mask and IndexSet.from_mask's mask are read by
    # one rule: a bool array of the utilities' shape, (2, 4) here
    g = _pd_game()
    bad_masks = (
        np.ones((2, 3), dtype=bool),
        np.ones((2, 2), dtype=bool),
        np.ones(8, dtype=bool),
        np.ones((2, 4, 1), dtype=bool),
        np.ones((2, 4)),
        [[True]],
        [[1] * 4] * 2,
    )
    for bad in bad_masks:
        with pytest.raises(ValueError, match="bool mask of shape"):
            regret_table(g, bad)
        with pytest.raises(ValueError, match="bool mask of shape"):
            IndexSet.from_mask(bad, g.strategy_counts)
    assert np.array_equal(regret_table(g, [[True] * 4] * 2), regret_table(g))
    assert IndexSet.from_mask([[True] * 4] * 2, g.strategy_counts).pairs() == IndexSet.full((2, 2)).pairs()


@settings(max_examples=300, deadline=None)
@given(_tied_game_and_index_set(), st.data())
def test_check_containment_matches_oracle(case, data):
    # Nash(a) within Nash_2eps(b) within Nash_4eps(a), with each set
    # enumerated by the brute-force oracle
    game, _, eps = case
    size = game.utilities.size
    payoffs = data.draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    other = NormalFormGame(game.strategy_counts, np.array(payoffs, dtype=float).reshape(game.utilities.shape))
    nash_a, nash_b2, nash_a4 = (
        set(oracle.nash_set(g, e)) for g, e in ((game, 0.0), (other, 2.0 * eps), (game, 4.0 * eps))
    )
    assert check_containment(game, other, eps) == (nash_a <= nash_b2 <= nash_a4)


@settings(max_examples=300, deadline=None)
@given(_tied_game_and_index_set())
def test_prune_mixed_matches_oracle(case):
    game, index_set, eps_hat = case
    if set(range(game.num_players)) - set(index_set.players.tolist()):
        # a player without indices leaves no restriction to prune on
        with pytest.raises(ValueError, match="no index for player"):
            prune_mixed(game, index_set, eps_hat)
        return
    want = oracle.rationalizable_survivors(game, index_set.pairs(), eps_hat)
    assert prune_mixed(game, index_set, eps_hat).pairs() == want


def test_prune_mixed_no_pruning_for_huge_radius():
    g = _pd_game()
    full = IndexSet.full(g.strategy_counts)
    assert prune_mixed(g, full, eps_hat=10.0).pairs() == full.pairs()


def test_prune_mixed_pd_keeps_defect_profile_only():
    g = _pd_game()
    out = prune_mixed(g, IndexSet.full(g.strategy_counts), eps_hat=0.2)
    assert set(out.pairs()) == {(0, 3), (1, 3)}


def test_prune_mixed_dominated_own_coordinate_implies_pure_pruning():
    # when an index is mixed-pruned because the player's own coordinate is
    # dominated, pure pruning discards it too (dominance forces regret)
    rng = np.random.default_rng(21)
    strides_cache = {}
    for trial in range(20):
        g = gen_rg(3, 3, seed=100 + trial)
        eps_hat = float(rng.uniform(0.05, 1.0))
        full = IndexSet.full(g.strategy_counts)
        mixed = set(prune_mixed(g, full, eps_hat).pairs())
        pure = set(prune_pure(g, full, eps_hat).pairs())
        from egta.games import rationalizable

        surviving = rationalizable(g, 2 * eps_hat)
        for p, j in set(full.pairs()) - mixed:
            own = g.profile_of_index(j)[p]
            if own not in surviving[p]:
                assert (p, j) not in pure


def test_query_cost():
    assert query_cost([IterationRecord(1, 100, 8, 1.0)]) == 800
    trace = [
        IterationRecord(1, 100, 8, 3.0),
        IterationRecord(2, 200, 8, 2.0),
        IterationRecord(3, 400, 4, 1.0),
    ]
    assert query_cost(trace) == 4000
    assert query_cost([]) == 0


def test_psp_huge_threshold_single_iteration():
    base = expand(ppa_example_game())
    sim = noisy_sim(base, 2.0)
    res = psp(
        sim,
        SamplingSchedule(100, 700),
        FailureSchedule(0.1, 3),
        c=sim.range_c,
        bound=BoundType.HOEFFDING,
        pure=True,
        eps_threshold=sim.range_c,
        seed=3,
    )
    assert len(res.trace) == 1
    assert res.delta_total == pytest.approx(0.1 / 3)


def test_psp_zero_noise_pd_finds_defect():
    sim = noisy_sim(_pd_game(), 0.0)
    res = psp(
        sim,
        SamplingSchedule(100),
        FailureSchedule(0.1),
        c=sim.range_c,
        bound=BoundType.HOEFFDING,
        pure=True,
        eps_threshold=0.4,
        seed=0,
    )
    assert res.epsilon <= 0.4
    assert res.pure_equilibria == [(1, 1)]
    assert (1, 1) in res.pure_equilibria


def test_psp_zero_noise_pd_mixed_descriptor():
    sim = noisy_sim(_pd_game(), 0.0)
    res = psp(
        sim,
        SamplingSchedule(100),
        FailureSchedule(0.1),
        c=sim.range_c,
        bound=BoundType.HOEFFDING,
        pure=False,
        eps_threshold=0.4,
        seed=0,
    )
    assert res.pure_equilibria is None
    assert res.mixed_restriction == [[1], [1]]


def test_psp_runs_schedule_to_completion_with_zero_threshold():
    base = expand(ppa_example_game())
    sim = noisy_sim(base, 2.0)
    sched = SamplingSchedule(50, 350)
    res = psp(
        sim,
        sched,
        FailureSchedule(0.1, sched.length),
        c=sim.range_c,
        bound=BoundType.HOEFFDING,
        pure=True,
        eps_threshold=0.0,
        seed=9,
    )
    assert [r.m for r in res.trace] == [50, 100, 200]
    assert res.delta_total == pytest.approx(0.1)


def test_psp_deterministic():
    base = gen_rg(3, 3, seed=14)
    sim = noisy_sim(base, 5.0)
    sched = SamplingSchedule(100, 1500)
    kwargs = dict(
        c=sim.range_c,
        bound=BoundType.ONE_ERA,
        pure=True,
        eps_threshold=0.0,
        seed=77,
    )
    a = psp(sim, sched, FailureSchedule(0.1, sched.length), **kwargs)
    b = psp(sim, sched, FailureSchedule(0.1, sched.length), **kwargs)
    assert a.trace == b.trace
    assert np.array_equal(a.empirical.utilities, b.empirical.utilities)
    assert np.array_equal(a.radii, b.radii)
    assert a.pure_equilibria == b.pure_equilibria
    assert a.delta_total == b.delta_total


def test_psp_refuses_non_integer_seeds():
    # psp reads its seed by the integer rule: mix used to truncate a float
    # seed to the int below it, and still folds a string in as a label
    base = gen_rg(2, 2, seed=1)
    sim = noisy_sim(base, 1.0)
    sched = SamplingSchedule(10, 30)
    failure = FailureSchedule(0.1, sched.length)
    for seed in (1.5, 1.0, True, "1"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            psp(sim, sched, failure, sim.range_c, BoundType.HOEFFDING, seed=seed)


def _psp_rounds(monkeypatch, *args, **kwargs):
    """Run psp and record (index_set, utilities) of each round from a
    wrapped algorithms.gs."""
    rounds = []

    def recording_gs(*gs_args, **gs_kwargs):
        result = gs(*gs_args, **gs_kwargs)
        rounds.append((result.index_set, result.utilities))
        return result

    monkeypatch.setattr(algorithms, "gs", recording_gs)
    return psp(*args, **kwargs), rounds


def test_psp_delta_accounting_and_frozen_radii(monkeypatch):
    base = gen_rg(2, 4, seed=15)
    sim = noisy_sim(base, 8.0)
    sched = SamplingSchedule(100, 3100)
    failure = FailureSchedule(0.1, sched.length)
    res, rounds = _psp_rounds(
        monkeypatch,
        sim,
        sched,
        failure,
        c=sim.range_c,
        bound=BoundType.HOEFFDING,
        pure=True,
        eps_threshold=0.0,
        seed=21,
    )
    assert len(rounds) == len(res.trace)
    deltas = list(failure.deltas())[: len(res.trace)]
    assert res.delta_total == sum(deltas)
    # every pruned index keeps the radius from the round it was last estimated
    per_round_eps = {rec.t: rec.epsilon for rec in res.trace}
    seen_at = {}
    for (idx_set, _), rec in zip(rounds, res.trace):
        for pair in idx_set.pairs():
            seen_at[pair] = rec.t
    for (p, j), t_last in seen_at.items():
        assert res.radii[p, j] == per_round_eps[t_last]
    # indices never pruned carry the final radius
    assert res.radii.min() == res.trace[-1].epsilon


def test_psp_unbounded_schedule_needs_positive_threshold():
    # an unbounded doubling schedule stops only once the radius reaches the
    # threshold, and a radius never reaches 0, so psp must refuse up front
    sim = noisy_sim(_pd_game(), 1.0)
    unbounded = (SamplingSchedule(100), FailureSchedule(0.1))
    sched = SamplingSchedule(100, 700)
    finite = (sched, FailureSchedule(0.1, sched.length))
    for threshold, schedules, message in (
        (0.0, (unbounded,), "positive eps_threshold"),
        # a NaN or negative threshold is refused on either schedule, rather
        # than running a finite one to its end
        (-1.0, (unbounded, finite), "eps_threshold must be nonnegative"),
        (float("nan"), (unbounded, finite), "eps_threshold must be nonnegative"),
    ):
        for sampling, failure in schedules:
            with pytest.raises(ValueError, match=message):
                psp(
                    sim,
                    sampling,
                    failure,
                    c=sim.range_c,
                    bound=BoundType.HOEFFDING,
                    eps_threshold=threshold,
                )


def test_psp_schedule_mismatch_raises():
    base = gen_rg(2, 2, seed=16)
    sim = noisy_sim(base, 1.0)
    sched = SamplingSchedule(100, 1500)  # 4 iterations
    with pytest.raises(ValueError):
        psp(
            sim,
            sched,
            FailureSchedule(0.1, 2),
            c=sim.range_c,
            bound=BoundType.HOEFFDING,
        )


def test_psp_pure_is_true_or_false():
    # any truthy pure, "no" included, used to run pure mode
    sim = noisy_sim(_pd_game(), 1.0)
    sched = SamplingSchedule(10, 30)
    failure = FailureSchedule(0.1, sched.length)
    run = lambda pure: psp(sim, sched, failure, c=sim.range_c, bound="hoeffding", pure=pure)
    for pure in ("no", 1, None):
        with pytest.raises(ValueError, match="pure must be True or False"):
            run(pure)
    for pure, want in ((np.True_, True), (np.False_, False)):
        assert run(pure).to_json() == run(want).to_json()


def test_psp_never_prunes_true_nash_when_guarantee_holds(monkeypatch):
    kept_all = 0
    for seed in range(40):
        cg = gen_rc(3, 3, 2, seed=200 + seed)
        base = expand(cg)
        sim = noisy_sim(base, 5.0)
        sched = SamplingSchedule(100, 1500)
        res, rounds = _psp_rounds(
            monkeypatch,
            sim,
            sched,
            FailureSchedule(0.1, sched.length),
            c=sim.range_c,
            bound=BoundType.HOEFFDING,
            pure=True,
            eps_threshold=0.0,
            seed=seed,
        )
        # condition on the per-iteration guarantee actually holding
        good = all(
            np.abs(est - base.utilities[ids.players, ids.profiles]).max() <= rec.epsilon
            for (ids, est), rec in zip(rounds, res.trace)
        )
        if not good:
            continue
        kept_all += 1
        nash_profiles = np.nonzero(nash_mask(base, 0.0))[0]
        final_pairs = set(rounds[-1][0].pairs())
        for j in nash_profiles:
            for p in range(base.num_players):
                assert (p, int(j)) in final_pairs
    assert kept_all >= 30  # the guarantee holds essentially always


def _binomial_upper(n, p, alpha):
    """Smallest k with P[Binomial(n, p) > k] <= alpha."""
    tail = 1.0
    for k in range(n + 1):
        tail -= math.comb(n, k) * p**k * (1 - p) ** (n - k)
        if tail <= alpha:
            return k
    return n


def _near_tie_pair(seed):
    """2x2 game in which each player's strategy 1 trails strategy 0 by 1 in
    one opponent context and leads it by 0.01 in the other, so both
    strategies are rationalizable, but only just."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-0.5, 0.5, size=(2, 4))
    for p in range(2):
        rows = np.moveaxis(u[p].reshape(2, 2), p, 0)  # a view: rows[s] is p's payoffs at s
        rows[1] = rows[0] - rng.permutation([1.0, -0.01])
    return NormalFormGame((2, 2), u)


COVERAGE_RUNS = 100


@pytest.mark.parametrize("finite", [True, False], ids=["finite-uniform", "infinite-geometric"])
@pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
@pytest.mark.parametrize("bound", list(BoundType), ids=[b.value for b in BoundType])
def test_psp_coverage(bound, pure, finite):
    # psp's output claim fails with probability at most delta; accept up to
    # the one-sided binomial quantile at level 1e-3, so a correct psp fails
    # this seeded test only by that chance. The games are near ties, where a
    # radius ten times too small already fails the Hoeffding cells (the
    # looser 1ERA radius hides such an error).
    delta = 0.1
    failures = 0
    for seed in range(COVERAGE_RUNS):
        base = gen_rg(3, 3, u0=0.5, seed=900 + seed) if pure else _near_tie_pair(900 + seed)
        sim = noisy_sim(base, 5.0)
        if finite:
            sampling = SamplingSchedule(100, 700)
            failure = FailureSchedule(delta, sampling.length)
            threshold = 0.0
        else:
            sampling = SamplingSchedule(10)
            failure = FailureSchedule(delta)
            threshold = 0.3 if bound is BoundType.HOEFFDING else 1.0
        res = psp(sim, sampling, failure, sim.range_c, bound, pure, threshold, seed=seed)
        if pure:
            found = set(res.pure_equilibria)
            wide = set(pure_eps_nash(base, 4 * res.epsilon))
            held = set(pure_eps_nash(base, 0.0)) <= found <= wide
        else:
            truth = rationalizable(base, 0.0)
            held = all(set(t) <= set(o) for t, o in zip(truth, res.mixed_restriction))
        failures += not held
    assert failures <= _binomial_upper(COVERAGE_RUNS, delta, 1e-3)


def test_psp_result_json():
    sim = noisy_sim(_pd_game(), 0.0)
    sched = SamplingSchedule(100, 300)
    res = psp(
        sim,
        sched,
        FailureSchedule(0.1, sched.length),
        c=sim.range_c,
        bound=BoundType.HOEFFDING,
        pure=True,
        eps_threshold=0.0,
        seed=1,
    )
    payload = json.loads(res.to_json())
    assert payload["strategies"] == [2, 2]
    assert len(payload["utilities"]) == 8
    assert len(payload["trace"]) == len(res.trace)
    assert payload["delta"] == res.delta_total
    assert "pure_equilibria" in payload


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of psp(...).to_json(), frozen before psp's pruning was routed
# through prune_pure / prune_mixed; both runs prune in their later rounds
GOLDEN_PSP_PURE_SHA256 = "c0bb54ea1f8f10d15bad525fab0a14f48e70b4ba12493ee5ec3dfc56cf7990d2"
GOLDEN_PSP_MIXED_SHA256 = "5930b496e2d587c16df48d15bf6edf622ee37db8d2bd5335229552f99f8f5c0c"


def test_psp_golden_pure_hoeffding_finite():
    sim = noisy_sim(expand(gen_rc(4, 4, 3, alpha=0.5, seed=1)), 3.0)
    sched = SamplingSchedule(100, 6300)
    res = psp(
        sim,
        sched,
        FailureSchedule(0.1, sched.length),
        c=sim.range_c,
        bound=BoundType.HOEFFDING,
        pure=True,
        seed=5,
    )
    assert _sha256(res.to_json()) == GOLDEN_PSP_PURE_SHA256


def test_psp_golden_mixed_onera_geometric():
    base = center_per_player(expand(gen_rc(3, 5, 6, alpha=0.6, seed=4)))
    sim = noisy_sim(base, 2.0)
    res = psp(
        sim,
        SamplingSchedule(100, 12700),
        FailureSchedule(0.1),
        c=sim.range_c,
        bound=BoundType.ONE_ERA,
        pure=False,
        seed=5,
    )
    assert _sha256(res.to_json()) == GOLDEN_PSP_MIXED_SHA256


class _Blind(ConditionalSimulator):
    """A simulator with no ground-truth game: it declares the contract and
    passes each sample through from another simulator."""

    def __init__(self, inner):
        self.strategy_counts = inner.strategy_counts
        self.range_c = inner.range_c
        self._inner = inner

    def sample_block(self, cond_seeds, players, profiles, out, sums):
        return self._inner.sample_block(cond_seeds, players, profiles, out, sums)


def test_gs_and_psp_need_no_base_game():
    """gs and psp learn from strategy_counts, range_c and sample_block
    alone, with the bits they give on the simulator holding the game."""
    sim = noisy_sim(center_per_player(expand(gen_rc(3, 5, 6, alpha=0.6, seed=4))), 2.0)
    blind = _Blind(sim)
    assert not hasattr(blind, "base")
    idx = IndexSet.full(sim.strategy_counts)
    sched = SamplingSchedule(100, 1500)
    failure = FailureSchedule(0.1, sched.length)
    for bound in BoundType:
        want = gs(sim, idx, 300, 0.1, sim.range_c, bound, seed=2)
        got = gs(blind, idx, 300, 0.1, blind.range_c, bound, seed=2)
        assert got.to_json() == want.to_json()
        assert got.to_game().strategy_counts == blind.strategy_counts
        for pure in (True, False):
            want = psp(sim, sched, failure, sim.range_c, bound, pure, seed=3)
            got = psp(blind, sched, failure, blind.range_c, bound, pure, seed=3)
            assert len(got.trace) == 4
            assert got.to_json() == want.to_json()


class _CountsOnly(ConditionalSimulator):
    """A 20-player game with 8 strategies each, declared by its counts
    alone: its 8^20 profiles are never expanded. Each index's base utility
    is zero, and one noise factor of width 1 is keyed by its pair."""

    strategy_counts = (8,) * 20
    range_c = 1.0

    def sample_block(self, cond_seeds, players, profiles, out, sums):
        keys = hashing.splitmix64(profiles.astype(np.uint64)) + players.astype(np.uint64)
        return hashing.hash_uniform(cond_seeds, keys[None], [1.0], np.zeros(len(players)), out, sums)


def test_gs_samples_a_game_too_large_to_expand():
    # the deviation neighbourhood of one profile: every (p, (s'_p, s_-p)),
    # sum_p |S_p| = 160 indices; checking them must not allocate a table
    # over the game's 20 * 8^20 indices
    sim = _CountsOnly()
    counts = sim.strategy_counts
    profile = [p % 8 for p in range(20)]
    players, profiles = [], []
    for p in range(20):
        for s in range(8):
            players.append(p)
            profiles.append(int(np.ravel_multi_index(profile[:p] + [s] + profile[p + 1:], counts)))
    m, delta = 1000, 0.1
    tracemalloc.start()
    try:
        idx = IndexSet(players, profiles, counts)
        res = gs(sim, idx, m, delta, sim.range_c, BoundType.HOEFFDING, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert res.utilities.shape == (160,) and np.all(np.abs(res.utilities) <= 0.5)
    assert res.epsilon == hoeffding_eps(1.0, 160, m, delta)
    assert res.index_set.strategy_counts == counts


# frozen from the first run; guards the whole sampling + bound pipeline
GOLDEN_RC552_EPSILON = 0.5605578115057662
