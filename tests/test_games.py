import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egta.games import (
    IndexSet,
    NormalFormGame,
    check_containment,
    eps_dominates,
    game_from_json,
    game_size,
    game_to_json,
    maximin_value,
    nash_mask,
    pure_eps_nash,
    pure_regret,
    rationalizable,
    regret_table,
    utility,
    welfare,
)
from egta.simulators import gen_rg

import _oracles as oracle
from conftest import random_game


def test_utility_single_entry_game():
    g = NormalFormGame((1,), np.array([[7.0]]))
    assert utility(g, 0, (0,)) == 7.0


def test_utility_matching_pennies(matching_pennies):
    assert utility(matching_pennies, 0, (0, 0)) == 1.0
    assert utility(matching_pennies, 1, (0, 0)) == -1.0


def test_utility_index_errors(matching_pennies):
    with pytest.raises(ValueError, match=r"player must lie in \[0, 2\), not 2"):
        utility(matching_pennies, 2, (0, 0))
    with pytest.raises(ValueError, match=r"strategy must lie in \[0, 2\), not 2"):
        utility(matching_pennies, 0, (0, 2))
    with pytest.raises(ValueError, match="profile must have length 2, not 1"):
        utility(matching_pennies, 0, (0,))


def test_profile_linearization_last_player_fastest():
    # utilities laid out so profile (s0, s1) maps to flat s0*3 + s1
    u = np.arange(12, dtype=float).reshape(2, 6)
    g = NormalFormGame((2, 3), u)
    assert g.profile_index((0, 0)) == 0
    assert g.profile_index((0, 2)) == 2
    assert g.profile_index((1, 0)) == 3
    assert g.profile_of_index(5) == (1, 2)


def test_game_validation():
    with pytest.raises(ValueError):
        NormalFormGame((2, 2), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        NormalFormGame((2, 0), np.zeros((2, 0)))
    # 2^64 profiles, which an int64 product wraps to 0
    with pytest.raises(ValueError, match="shape"):
        NormalFormGame((2**32, 2**32), np.zeros((2, 0)))
    bad = np.zeros((2, 4))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        NormalFormGame((2, 2), bad)


def test_game_reads_utilities_as_real_numbers():
    # numpy read bools and strings as numbers, dropped a complex array's
    # imaginary part with only a ComplexWarning, and leaked TypeError on a
    # complex number in a list
    for bad, kind in (
        ([[1 + 1j, 2]], "complex"),
        (np.array([[1 + 1j, 2]]), "complex128"),
        ([[True, False]], "bool"),
        ([[True, 2.5]], "bool"),
        (np.array([[True, False]]), "bool"),
        ([["1", "2"]], "str"),
        (np.array([["1", "2"]]), "<U1"),
        ([[1, None]], "NoneType"),
        (np.array([[1, 2]], dtype=object), "object"),
        ([[1], [1, 2]], "list"),
    ):
        with pytest.raises(ValueError, match=f"utilities must be (a )?real numbers?, not {kind}"):
            NormalFormGame((2,), bad)
    for bad in ([[math.inf, 1]], [[2**1024, 1]], np.array([[1.0, -np.inf]])):
        with pytest.raises(ValueError, match="utilities must be finite"):
            NormalFormGame((2,), bad)
    # integers and floats of any width are read as float64, into a copy
    for good in ([[1, 2.5]], np.array([[1, 2]], dtype=np.int8), np.array([[1, 2.5]], dtype=np.float32), [[np.int64(1), np.float32(2.5)]]):
        g = NormalFormGame((2,), good)
        assert g.utilities.dtype == np.float64 and g.utilities.tolist() == np.asarray(good, dtype=float).tolist()
        assert not np.shares_memory(g.utilities, good)


def test_pure_regret_examples(prisoners_dilemma, matching_pennies):
    assert pure_regret(prisoners_dilemma, 0, (0, 0)) == 2.0
    assert pure_regret(matching_pennies, 0, (0, 0)) == 0.0
    # best responder has zero regret by deviation-to-self
    assert pure_regret(prisoners_dilemma, 0, (1, 1)) == 0.0


def test_regret_matches_oracle_and_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = random_game(rng, max_players=4, max_strategies=4)
        table = regret_table(g)
        assert (table >= 0).all()
        for p in range(g.num_players):
            for profile in oracle.all_profiles(g):
                want = oracle.regret(g, p, profile)
                assert table[p, g.profile_index(profile)] == pytest.approx(want, abs=1e-12)


def test_pure_eps_nash_examples(prisoners_dilemma, matching_pennies):
    assert pure_eps_nash(matching_pennies, 0.0) == []
    assert len(pure_eps_nash(matching_pennies, 2.0)) == 4
    assert pure_eps_nash(prisoners_dilemma, 0.0) == [(1, 1)]


def test_pure_eps_nash_monotone_in_eps():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_game(rng)
        e1, e2 = sorted(rng.uniform(0, 5, size=2))
        smaller = set(pure_eps_nash(g, e1))
        larger = set(pure_eps_nash(g, e2))
        assert smaller <= larger


def test_eps_dominates_examples(prisoners_dilemma, matching_pennies):
    # reflexive at eps = 0
    assert eps_dominates(prisoners_dilemma, 0, 1, 1, 0.0)
    # defect dominates cooperate for both players
    assert eps_dominates(prisoners_dilemma, 0, 1, 0, 0.0)
    assert eps_dominates(prisoners_dilemma, 1, 1, 0, 0.0)
    assert not eps_dominates(prisoners_dilemma, 0, 0, 1, 0.0)
    # matching pennies has no dominance between distinct strategies
    for p in range(2):
        for s in range(2):
            for s2 in range(2):
                if s != s2:
                    assert not eps_dominates(matching_pennies, p, s, s2, 0.0)
    # a NaN or negative eps is refused, as by nash_mask and rationalizable
    for eps in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            eps_dominates(prisoners_dilemma, 0, 0, 1, eps)


def test_eps_dominates_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_game(rng)
        eps = float(rng.uniform(0, 3))
        for p in range(g.num_players):
            for s in range(g.strategy_counts[p]):
                for s2 in range(g.strategy_counts[p]):
                    assert eps_dominates(g, p, s, s2, eps) == oracle.dominates(
                        g, p, s, s2, eps
                    )


def test_rationalizable_examples(prisoners_dilemma, matching_pennies):
    assert rationalizable(matching_pennies, 0.0) == [[0, 1], [0, 1]]
    assert rationalizable(prisoners_dilemma, 0.0) == [[1], [1]]
    # nothing is dominated once eps reaches the utility range
    span = float(prisoners_dilemma.utilities.max() - prisoners_dilemma.utilities.min())
    assert rationalizable(prisoners_dilemma, span) == [[0, 1], [0, 1]]


def test_rationalizable_matches_oracle():
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = random_game(rng, max_players=3, max_strategies=4)
        eps = float(rng.uniform(0, 2))
        assert rationalizable(g, eps) == oracle.ieds(g, eps)


def test_dominance_matches_oracle_on_tied_payoffs():
    # integer payoffs in {-2..2} make ties, and so mutual dominance, common
    shapes = [(1,), (4,), (1, 1), (1, 3), (2, 2), (3, 3), (2, 1, 3), (2, 2, 2), (3, 2, 3)]
    rng = np.random.default_rng(29)
    for counts in shapes * 25:
        u = rng.integers(-2, 3, size=(len(counts), int(np.prod(counts)))).astype(float)
        g = NormalFormGame(counts, u)
        restrict = [sorted(set(rng.integers(0, k, size=k).tolist())) for k in counts]
        for eps in (0.0, 1.0):
            assert rationalizable(g, eps) == oracle.ieds(g, eps)
            assert rationalizable(g, eps, restrict=restrict) == oracle.ieds(g, eps, restrict)
            for p, k in enumerate(counts):
                for s in range(k):
                    for s2 in range(k):
                        assert eps_dominates(g, p, s, s2, eps) == oracle.dominates(
                            g, p, s, s2, eps
                        )


def test_rationalizable_rejects_malformed_restriction(prisoners_dilemma):
    # one strategy list per player, each nonempty; a short list used to hang,
    # a long one leaked IndexError, and a restriction or list that is not a
    # sequence leaked TypeError
    for restrict in ([[0]], [[0, 1], [0], [1]], [[0, 1], []], 5, [None, [0]]):
        with pytest.raises(ValueError, match="restriction"):
            rationalizable(prisoners_dilemma, 0.0, restrict=restrict)


def test_eps_must_be_nonnegative_number():
    # NaN compares false both ways: it used to make nash_mask all False and
    # rationalizable keep everything instead of raising
    g = gen_rg(2, 2)
    for eps in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            nash_mask(g, eps)
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            pure_eps_nash(g, eps)
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            rationalizable(g, eps)
    assert rationalizable(g, float("inf")) == [[0, 1], [0, 1]]


def test_rationalizable_keeps_pure_nash_strategies():
    rng = np.random.default_rng(17)
    for _ in range(60):
        g = random_game(rng, max_players=4, max_strategies=4)
        surviving = rationalizable(g, 0.0)
        for profile in oracle.nash_set(g, 0.0):
            for p, s in enumerate(profile):
                assert s in surviving[p]


def test_rationalizable_every_player_keeps_a_strategy():
    # payoff-identical strategies dominate each other and must all survive
    u = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
    g = NormalFormGame((2, 2), u)
    assert rationalizable(g, 0.0) == [[0, 1], [0, 1]]


def test_welfare_examples(prisoners_dilemma):
    zero = NormalFormGame((2, 2), np.zeros((2, 4)))
    assert welfare(zero, (0, 0)) == 0.0
    assert welfare(prisoners_dilemma, (0, 0)) == 6.0


def test_maximin_examples(prisoners_dilemma, matching_pennies):
    single = NormalFormGame((3,), np.array([[1.0, -2.0, 4.0]]))
    assert maximin_value(single, 0) == 4.0
    for p in range(2):
        assert maximin_value(matching_pennies, p) == -1.0
    assert maximin_value(prisoners_dilemma, 0) == 1.0


def test_maximin_matches_oracle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        g = random_game(rng)
        for p in range(g.num_players):
            # max over s of oracle.pessimal(g, p, s); min and max are exact
            assert maximin_value(g, p) == oracle.maximin(g, p)


def test_welfare_lipschitz_in_linf():
    rng = np.random.default_rng(47)
    for _ in range(30):
        g1 = random_game(rng)
        g2 = NormalFormGame(
            g1.strategy_counts,
            g1.utilities + rng.uniform(-1, 1, size=g1.utilities.shape),
        )
        bound = g1.num_players * np.abs(g1.utilities - g2.utilities).max()
        for profile in oracle.all_profiles(g1):
            assert abs(welfare(g1, profile) - welfare(g2, profile)) <= bound + 1e-12


def test_maximin_lipschitz_in_linf():
    rng = np.random.default_rng(53)
    for _ in range(30):
        g1 = random_game(rng)
        g2 = NormalFormGame(
            g1.strategy_counts,
            g1.utilities + rng.uniform(-1, 1, size=g1.utilities.shape),
        )
        dist = np.abs(g1.utilities - g2.utilities).max()
        for p in range(g1.num_players):
            assert abs(maximin_value(g1, p) - maximin_value(g2, p)) <= dist + 1e-12


def test_check_containment_identity(matching_pennies):
    assert check_containment(matching_pennies, matching_pennies, 0.0)
    assert check_containment(matching_pennies, matching_pennies, 0.5)
    with pytest.raises(ValueError, match="share players"):
        check_containment(matching_pennies, NormalFormGame((2, 3), np.zeros((2, 6))), 0.5)


def test_check_containment_perturbation_property():
    rng = np.random.default_rng(37)
    for _ in range(200):
        g = random_game(rng)
        eps = float(rng.uniform(0.01, 1.0))
        noise = rng.uniform(-eps, eps, size=g.utilities.shape)
        g2 = NormalFormGame(g.strategy_counts, g.utilities + noise)
        assert check_containment(g, g2, eps)


def test_check_containment_can_fail_for_large_perturbation():
    rng = np.random.default_rng(41)
    failures = 0
    for _ in range(200):
        g = random_game(rng, max_players=2, max_strategies=3)
        eps = 0.01
        noise = rng.uniform(-10 * eps, 10 * eps, size=g.utilities.shape)
        g2 = NormalFormGame(g.strategy_counts, g.utilities + noise)
        nash_a = set(oracle.nash_set(g, 0.0))
        nash_b = set(oracle.nash_set(g2, 2 * eps))
        nash_a4 = set(oracle.nash_set(g, 4 * eps))
        want = nash_a <= nash_b and nash_b <= nash_a4
        assert check_containment(g, g2, eps) == want
        failures += not want
    assert failures > 0  # the oversized perturbation does break containment


def test_game_size():
    assert game_size(NormalFormGame((2, 2), np.zeros((2, 4)))) == 8
    g = NormalFormGame((3,) * 4, np.zeros((4, 81)))
    assert game_size(g) == 324


def test_game_json_roundtrip():
    rng = np.random.default_rng(43)
    g = random_game(rng)
    back = game_from_json(game_to_json(g))
    assert back.strategy_counts == g.strategy_counts
    assert np.array_equal(back.utilities, g.utilities)


def test_game_json_validates_lengths():
    with pytest.raises(ValueError):
        game_from_json('{"players": 2, "strategies": [2, 2], "utilities": [1, 2, 3]}')
    with pytest.raises(ValueError):
        game_from_json('{"players": 3, "strategies": [2, 2], "utilities": [0,0,0,0,0,0,0,0]}')
    for text in (
        '{"players": 1}',
        '{"strategies": [1], "utilities": [0]}',
        '{"players": 1, "strategies": [1]}',
    ):
        with pytest.raises(ValueError, match="lacks the field"):
            game_from_json(text)
    for text in ('[1]', '"game"', '3'):
        with pytest.raises(ValueError, match="must be an object"):
            game_from_json(text)
    for text in (
        '{"players": null, "strategies": [1], "utilities": [0]}',
        '{"players": 1, "strategies": null, "utilities": [0]}',
        '{"players": 1, "strategies": [[1]], "utilities": [0]}',
        # counts are read by the integer rule, not truncated
        '{"players": 2, "strategies": [2.7, 1], "utilities": [0, 0, 0, 0]}',
        '{"players": "2", "strategies": [2, 1], "utilities": [0, 0, 0, 0]}',
        '{"players": 1, "strategies": [true], "utilities": [0]}',
        # utilities are read as real numbers, not converted
        '{"players": 1, "strategies": [2], "utilities": ["1", "2.5"]}',
        '{"players": 1, "strategies": [2], "utilities": [true, 1]}',
        '{"players": 1, "strategies": [2], "utilities": [null, 1]}',
        '{"players": 1, "strategies": [2], "utilities": "12"}',
        '{"players": 1, "strategies": [2], "utilities": {"a": 1}}',
    ):
        with pytest.raises(ValueError, match="wrongly typed"):
            game_from_json(text)
    with pytest.raises(ValueError, match="utilities must be finite"):
        game_from_json('{"players": 1, "strategies": [2], "utilities": [1e400, 1]}')


def test_index_set_helpers(matching_pennies):
    """An IndexSet carries the strategy counts it indexes and checks its
    pairs against them when it is built."""
    counts = matching_pennies.strategy_counts
    full = IndexSet.full(counts)
    assert len(full) == 8 and full.strategy_counts == (2, 2)
    assert full.pairs() == IndexSet.full([np.int64(2), 2]).pairs()
    mask = full.to_mask()
    assert mask.shape == (2, 4) and mask.all()
    again = IndexSet.from_mask(mask, counts)
    assert again.pairs() == full.pairs()
    # rows are sliced, never picked one by one or by a mask, which could repeat a pair
    for rows in (0, [0, 0], np.ones(8, dtype=bool)):
        with pytest.raises(ValueError, match="an IndexSet is sliced by rows"):
            full[rows]
    with pytest.raises(ValueError, match="duplicate"):
        IndexSet([0, 0], [0, 0], counts)
    # a duplicate that is not next to its twin
    with pytest.raises(ValueError, match=r"duplicate \(player, profile\) pairs"):
        IndexSet([0, 1, 0], [3, 0, 3], counts)
    with pytest.raises(ValueError, match="player index out of range"):
        IndexSet([5], [0], counts)
    with pytest.raises(ValueError, match="profile index out of range"):
        IndexSet([0], [4], counts)
    # the counts follow the rule a game's own counts do
    for bad in ((), (2, 0), (2, 2.0), (True, 2), 2):
        with pytest.raises(ValueError, match="strategy count|at least one player"):
            IndexSet.full(bad)
        with pytest.raises(ValueError, match="strategy count|at least one player"):
            IndexSet([0], [0], bad)
    # a game passed where its strategy counts belong
    for call in (
        lambda: IndexSet.full(matching_pennies),
        lambda: IndexSet([0], [0], matching_pennies),
        lambda: IndexSet.from_mask(mask, matching_pennies),
    ):
        with pytest.raises(ValueError, match="strategy counts must be a sequence, not NormalFormGame"):
            call()


def test_index_set_of_a_game_too_large_to_expand():
    # 20 players with 8 strategies each: 8^20 = 2^60 profiles, so a table
    # over every (player, profile) pair could never be allocated
    counts = (8,) * 20
    idx = IndexSet([0, 19, 7], [0, 8**20 - 1, 12345], counts)
    assert idx.pairs() == [(0, 0), (19, 8**20 - 1), (7, 12345)]
    with pytest.raises(ValueError, match="duplicate"):
        IndexSet([3, 19, 3], [8**19, 5, 8**19], counts)
    with pytest.raises(ValueError, match="profile index out of range"):
        IndexSet([0], [8**20], counts)


@st.composite
def _pairs_over_counts(draw):
    # small counts, and pairs that may repeat or fall one step out of range
    counts = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    pair = st.tuples(st.integers(-1, len(counts)), st.integers(-1, math.prod(counts)))
    return counts, draw(st.lists(pair, max_size=12))


@settings(max_examples=300, deadline=None)
@given(_pairs_over_counts())
def test_index_set_checks_its_pairs_when_built(case):
    counts, pairs = case
    players, profiles = [p for p, _ in pairs], [s for _, s in pairs]
    if not all(0 <= p < len(counts) for p in players):
        reason = "player index out of range"
    elif not all(0 <= s < math.prod(counts) for s in profiles):
        reason = "profile index out of range"
    elif len(set(pairs)) < len(pairs):
        reason = r"duplicate \(player, profile\) pairs"
    else:
        idx = IndexSet(players, profiles, counts)
        assert idx.pairs() == pairs and idx.strategy_counts == counts
        # a slice of checked pairs is taken unchecked, and would pass the check
        for rows in (slice(None), slice(1, None), slice(len(pairs) // 2), slice(None, None, -2)):
            part = idx[rows]
            assert isinstance(part, IndexSet) and part.strategy_counts == counts
            assert part.pairs() == IndexSet(players[rows], profiles[rows], counts).pairs() == pairs[rows]
            assert not part.players.flags.writeable and not part.profiles.flags.writeable
        return
    with pytest.raises(ValueError, match=reason):
        IndexSet(players, profiles, counts)
