import collections
import hashlib

import numpy as np
import pytest

import egta.experiments as experiments
from egta.bounds import hoeffding_eps
from egta.experiments import (
    Table,
    center_per_player,
    find_unique_nash_rc_game,
    run_bound_compare_factored,
    run_bound_compare_vns,
    run_eps_vs_samples,
    run_gs_vs_psp,
    run_nash_frequency,
    run_ppa_demo,
    run_success_rate,
)
from egta.games import nash_mask, pure_eps_nash, regret_table
from egta.simulators import CongestionGame, gen_rc, gen_rg, ppa_exact

import _oracles as oracle


def test_table_csv_layout():
    table = Table(("a", "b"), [(1, 0.5), (2, 0.25)], {"k": "v"})
    csv = table.to_csv()
    lines = csv.split("\n")
    assert lines[0] == "# k=v"
    assert lines[1] == "a,b"
    assert lines[2] == "1,0.5"
    assert csv.endswith("\n")


def test_center_per_player_preserves_strategy_structure():
    g = gen_rg(3, 3, seed=5)
    centered = center_per_player(g)
    assert np.allclose(centered.utilities.mean(axis=1), 0.0)
    assert np.allclose(regret_table(centered), regret_table(g), atol=1e-12)
    assert pure_eps_nash(centered, 0.3) == pure_eps_nash(g, 0.3)


def test_eps_vs_samples_rows_and_monotonicity():
    table = run_eps_vs_samples(
        seed=3, reps=8, d_values=(2.0, 5.0), m_values=(500, 2000, 8000)
    )
    assert table.columns == ("d", "m", "mean_epsilon", "ci_low", "ci_high")
    assert len(table.rows) == 6
    assert all(row[2] > 0 for row in table.rows)
    by_m = collections.defaultdict(dict)
    for d, m, mean, lo, hi in table.rows:
        assert lo <= mean <= hi
        by_m[m][d] = mean
    for m, by_d in by_m.items():
        assert by_d[5.0] > by_d[2.0]  # more noise, larger radius
    for d in (2.0, 5.0):
        ms = [r[1] for r in table.rows if r[0] == d]
        eps = [r[2] for r in table.rows if r[0] == d]
        assert -0.7 < oracle.loglog_slope(ms, eps) < -0.3


def test_eps_vs_samples_deterministic(monkeypatch):
    a = run_eps_vs_samples(seed=9, reps=3, d_values=(2.0,), m_values=(200, 400))
    b = run_eps_vs_samples(seed=9, reps=3, d_values=(2.0,), m_values=(200, 400))
    assert a.to_csv() == b.to_csv()
    # each replication's game is built once and shared by every noise width
    seeds = []
    monkeypatch.setattr(
        experiments, "gen_rc", lambda *args, seed: seeds.append(seed) or gen_rc(*args, seed=seed)
    )
    run_eps_vs_samples(seed=9, reps=3, d_values=(2.0, 5.0), m_values=(200,))
    assert len(seeds) == len(set(seeds)) == 3


def test_fixture_search_properties():
    game, attempt, true_nash = find_unique_nash_rc_game(0)
    assert game.num_profiles == 32
    nash = np.nonzero(nash_mask(game, 0.0))[0]
    assert nash.tolist() == [true_nash]


def test_nash_frequency_flags_truth_and_sheds_false_positives():
    table = run_nash_frequency(seed=0, runs=40, m_values=(50, 500))
    truth = table.metadata["true_nash_profile"]
    totals = {}
    for m in (50, 500):
        rows = [r for r in table.rows if r[0] == m]
        assert all(r[2] > 0 for r in rows)  # zero-frequency profiles omitted
        true_hits = sum(r[2] for r in rows if r[1] == truth)
        assert true_hits == 40
        totals[m] = sum(r[2] for r in rows if r[1] != truth)
    assert totals[500] < totals[50]


def test_success_rate_meets_guarantee_and_monotone_in_rho():
    table = run_success_rate(seed=1, reps=30, delta_grid=(0.1, 0.25), m=300)
    assert table.columns[:4] == ("family", "bound", "delta", "rho")
    groups = collections.defaultdict(dict)
    for family, bound, delta, rho, rate, lo, hi in table.rows:
        if rho == 1.0:
            assert rate >= 1 - delta
        groups[(family, bound, delta)][rho] = rate
    for by_rho in groups.values():
        rhos = sorted(by_rho, reverse=True)
        rates = [by_rho[r] for r in rhos]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))


# CSV sha256 at tiny sizes, frozen before the drivers built their empirical
# games through GSResult.to_game
GOLDEN_NASH_FREQUENCY_SHA256 = "94a3cee1364aad9633dc14648c9221ab4ea636bcf40b8b69836d139b18494893"
GOLDEN_SUCCESS_RATE_SHA256 = "c7ca56027f9b163bdfe583288348cfd710e920e879fe2ac45684ace310360b54"


def test_nash_frequency_csv_golden():
    csv = run_nash_frequency(seed=2, runs=6, m_values=(50, 200)).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN_NASH_FREQUENCY_SHA256


def test_success_rate_csv_golden():
    table = run_success_rate(seed=2, reps=6, delta_grid=(0.1, 0.2), rho_grid=(1.0, 0.5), m=200)
    csv = table.to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN_SUCCESS_RATE_SHA256


def test_gs_vs_psp_budget_parity_and_medians():
    table = run_gs_vs_psp(
        seed=2, reps=6, players_values=(4,), k_values=(3,), budget=25500
    )
    sizes = set(table.column("game_size"))
    assert sizes == {324}
    for row in table.rows:
        cost_psp, m_gs = row[6], row[7]
        assert m_gs * 324 == pytest.approx(cost_psp, rel=1e-12)
        assert row[4] > 0 and row[5] > 0


def test_gs_vs_psp_large_games_favor_pruning():
    table = run_gs_vs_psp(seed=4, reps=6, players_values=(4,), k_values=(4,))
    eps_psp = table.column("eps_psp")
    eps_gs = table.column("eps_gs")
    assert float(np.median(eps_psp)) < float(np.median(eps_gs))


def test_gs_vs_psp_smallest_games_favor_one_shot():
    # with only 8 parameters there is little to prune, so the uniform budget
    # spent in one shot comes out ahead
    table = run_gs_vs_psp(seed=2, reps=12, players_values=(2,), k_values=(2,))
    assert float(np.median(table.column("eps_gs"))) < float(
        np.median(table.column("eps_psp"))
    )


def test_mean_ci_is_normal_approximation():
    from egta.experiments import _mean_ci

    values = np.array([1.0, 2.0, 3.0, 4.0])
    mean, lo, hi = _mean_ci(values)
    half = 1.96 * values.std(ddof=1) / np.sqrt(4)
    assert mean == 2.5
    assert lo == pytest.approx(2.5 - half)
    assert hi == pytest.approx(2.5 + half)


def test_bound_compare_factored_crossover_window():
    table = run_bound_compare_factored()
    hoeff = np.array(table.column("hoeffding"))
    rad = np.array(table.column("rademacher"))
    assert hoeff[0] < rad[0]  # single-player case favors the union bound
    diff_sign = np.sign(hoeff - rad)
    changes = np.nonzero(diff_sign[1:] != diff_sign[:-1])[0]
    assert len(changes) == 1
    crossover = table.metadata["crossover_players"]
    assert 20 <= crossover <= 45
    # the union bound grows like sqrt(players) for large player counts
    assert hoeff[-1] / hoeff[24] == pytest.approx(np.sqrt(100 / 25), rel=0.05)


def test_bound_compare_vns_curves():
    table = run_bound_compare_vns(players_max=40)
    hoeff = np.array(table.column("hoeffding"))
    rad = np.array(table.column("rademacher"))
    assert (hoeff > 0).all() and (rad > 0).all()
    assert (np.diff(hoeff) > 0).all()
    assert (np.diff(rad) > 0).all()
    # dyadic census: counts at least halve from one interval to the next
    size = 10 * 100**10
    counts = [-(-size // 2**i) for i in range(1, 7)]
    assert all(b <= -(-a // 2) for a, b in zip(counts, counts[1:]))


def test_bound_compare_hoeffding_cells_use_exact_index_counts():
    # every Hoeffding cell is hoeffding_eps on the exact count P * 100^P; at
    # 200 players the counts (about 2e402) pass the float range, and the
    # column still never decreases across that edge
    for run in (run_bound_compare_factored, run_bound_compare_vns):
        table, wide = run(), run(players_max=200)
        assert wide.rows[:100] == table.rows
        m, delta, c = (wide.metadata[key] for key in ("m", "delta", "c"))
        hoeff = wide.column("hoeffding")
        assert hoeff == [hoeffding_eps(c, p * 100**p, m, delta) for p in wide.column("players")]
        assert all(a <= b for a, b in zip(hoeff, hoeff[1:]))
    assert run_bound_compare_factored(players_max=200).metadata["crossover_players"] == 28


def test_ppa_demo_report():
    report = run_ppa_demo()
    assert "Pure equilibria (2):" in report
    assert "Optimal total cost: 6" in report
    assert "Worst equilibrium total cost: 15" in report
    assert "Pure price of anarchy: 2.5" in report


def test_ppa_demo_checks_what_ppa_exact_checks(monkeypatch):
    # the demo and ppa_exact share one computation, so a free instance is
    # refused by both instead of dividing by a zero optimum in the demo
    free = CongestionGame(1, (((0,),),), cost_fn=lambda facility, load: 0.0)
    monkeypatch.setattr(experiments, "ppa_example_game", lambda: free)
    for run in (run_ppa_demo, lambda: ppa_exact(free)):
        with pytest.raises(ValueError, match="optimal total cost must be positive"):
            run()
