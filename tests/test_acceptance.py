"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each. Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import time

import numpy as np

from egta.algorithms import BoundType, gs
from egta.bounds import (
    crossover_size,
    era_eps,
    factored_ra_bound,
    hoeffding_eps,
    noise_scaling_ra_bound,
)
from egta.experiments import (
    run_bound_compare_factored,
    run_eps_vs_samples,
    run_gs_vs_psp,
    run_nash_frequency,
    run_ppa_demo,
)
from egta.games import IndexSet, NormalFormGame, check_containment, nash_mask
from egta.hashing import draw_conditions, mix
from egta.simulators import expand, gen_rc, gen_rg, noisy_sim

import _oracles as oracle
from conftest import random_game


def report(num: int, label: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num} ({label}): {detail} [{time.perf_counter() - started:.2f}s]")


def test_criterion_01_ppa_oracle():
    t0 = time.perf_counter()
    text = run_ppa_demo()
    ok = (
        "Optimal total cost: 6" in text
        and "Worst equilibrium total cost: 15" in text
        and "Pure price of anarchy: 2.5" in text
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(1, "ppa oracle", ok, f"optimum 6, worst 15, ratio 5/2 in {elapsed:.3f}s", t0)
    assert ok


def test_criterion_02_crossover_size():
    t0 = time.perf_counter()
    value = crossover_size(0.1)
    ok = value == 5.0e7
    report(2, "crossover size", ok, f"crossover_size(0.1) = {value!r}", t0)
    assert ok


def test_criterion_03_containment_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    holds = 0
    trials = 1000
    for _ in range(trials):
        game = random_game(rng, max_players=3, max_strategies=3)
        eps = float(rng.uniform(0.01, 1.0))
        noise = rng.uniform(-eps, eps, size=game.utilities.shape)
        other = NormalFormGame(game.strategy_counts, game.utilities + noise)
        holds += check_containment(game, other, eps)
    elapsed = time.perf_counter() - t0
    ok = holds == trials and elapsed < 10.0
    report(3, "containment property", ok, f"{holds}/{trials} pairs in {elapsed:.2f}s", t0)
    assert ok


def test_criterion_04_gs_guarantee():
    t0 = time.perf_counter()
    reps, m, delta, d = 200, 1000, 0.1, 5.0
    fractions = {}
    for bound in BoundType:
        hits = 0
        for rep in range(reps):
            base = expand(gen_rc(3, 3, 2, seed=mix(404, rep)))
            sim = noisy_sim(base, d)
            result = gs(
                sim, IndexSet.full(base.strategy_counts), m, delta, sim.range_c, bound,
                seed=mix(404, "run", rep, bound.value),
            )
            hits += result.sup_deviation(base) <= result.epsilon
        fractions[bound.value] = hits / reps
    elapsed = time.perf_counter() - t0
    ok = all(f >= 0.9 for f in fractions.values()) and elapsed < 120.0
    strong = all(f >= 0.99 for f in fractions.values())
    report(
        4, "gs guarantee", ok,
        f"coverage {fractions} (expected >= 0.99: {strong}) in {elapsed:.1f}s", t0,
    )
    assert ok


def test_criterion_05_eps_decay_slope():
    t0 = time.perf_counter()
    table = run_eps_vs_samples(seed=505, reps=50)
    slopes = {}
    for d in (2.0, 5.0, 10.0):
        ms = [row[1] for row in table.rows if row[0] == d]
        eps = [row[2] for row in table.rows if row[0] == d]
        slopes[d] = oracle.loglog_slope(ms, eps)
    elapsed = time.perf_counter() - t0
    ok = all(-0.6 <= s <= -0.4 for s in slopes.values()) and elapsed < 300.0
    pretty = {d: round(s, 4) for d, s in slopes.items()}
    report(5, "eps decay", ok, f"log-log slopes {pretty} in {elapsed:.1f}s", t0)
    assert ok


def test_criterion_06_nash_frequency():
    t0 = time.perf_counter()
    table = run_nash_frequency(seed=0, runs=200, m_values=(50, 500))
    truth = table.metadata["true_nash_profile"]
    true_hits, false_hits = {}, {}
    for m in (50, 500):
        rows = [row for row in table.rows if row[0] == m]
        true_hits[m] = sum(r[2] for r in rows if r[1] == truth)
        false_hits[m] = sum(r[2] for r in rows if r[1] != truth)
    elapsed = time.perf_counter() - t0
    ok = (
        true_hits[50] == 200
        and true_hits[500] == 200
        and false_hits[500] < false_hits[50]
        and elapsed < 120.0
    )
    report(
        6, "nash frequency", ok,
        f"true {true_hits}, false positives {false_hits} in {elapsed:.1f}s", t0,
    )
    assert ok


def test_criterion_07_gs_vs_psp():
    t0 = time.perf_counter()
    medians = {}
    for k in (3, 4):
        table = run_gs_vs_psp(seed=707, reps=50, players_values=(4,), k_values=(k,))
        size = table.rows[0][2]
        medians[size] = (
            float(np.median(table.column("eps_psp"))),
            float(np.median(table.column("eps_gs"))),
        )
    elapsed = time.perf_counter() - t0
    ok = all(p < g for p, g in medians.values()) and elapsed < 600.0
    pretty = {s: (round(p, 4), round(g, 4)) for s, (p, g) in medians.items()}
    report(
        7, "gs vs psp", ok,
        f"median (psp, gs) by size {pretty} in {elapsed:.1f}s", t0,
    )
    assert ok


def test_criterion_08_factored_crossover():
    t0 = time.perf_counter()
    table = run_bound_compare_factored()
    hoeff = np.array(table.column("hoeffding"))
    rad = np.array(table.column("rademacher"))
    signs = np.sign(hoeff - rad)
    changes = int((signs[1:] != signs[:-1]).sum())
    crossover = table.metadata["crossover_players"]
    ok = changes == 1 and crossover is not None and 20 <= crossover <= 45
    report(
        8, "factored crossover", ok,
        f"sign changes {changes}, crossover at {crossover} players", t0,
    )
    assert ok


def test_criterion_09_symmetrization():
    t0 = time.perf_counter()
    base = gen_rg(2, 2, u0=4.0, seed=909)
    sim = noisy_sim(base, 4.0)
    idx = IndexSet.full(base.strategy_counts)
    truth = base.utilities.reshape(-1)
    reps, m = 2000, 32
    sup_devs = np.empty(reps)
    eras = np.empty(reps)
    block = np.empty((len(idx), m))
    for rep in range(reps):
        values = sim.sample_block(draw_conditions(mix(909, "x", rep), m)[0], idx, block, np.zeros(len(idx)))
        sup_devs[rep] = np.abs(values.mean(axis=1) - truth).max()
        conds, sigma = draw_conditions(mix(909, "era", rep), m, signs=True)
        values2 = sim.sample_block(conds, idx, block, np.zeros(len(idx)))
        eras[rep] = np.abs(values2 @ sigma).max() / m
    lhs = float(sup_devs.mean())
    rhs = 2.0 * float(eras.mean())
    se = math.hypot(
        float(sup_devs.std(ddof=1)) / math.sqrt(reps),
        2.0 * float(eras.std(ddof=1)) / math.sqrt(reps),
    )
    elapsed = time.perf_counter() - t0
    ok = lhs <= rhs + 3.0 * se and elapsed < 60.0
    report(
        9, "symmetrization", ok,
        f"E[sup dev]={lhs:.4f} <= 2 E[1-ERA]={rhs:.4f} + 3se={3 * se:.4f}", t0,
    )
    assert ok


def test_criterion_10_rosenthal_existence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    found = 0
    trials = 200
    for trial in range(trials):
        cg = gen_rc(
            int(rng.integers(2, 6)),
            int(rng.integers(2, 6)),
            int(rng.integers(1, 4)),
            seed=mix(1010, trial),
        )
        found += bool(nash_mask(expand(cg), 0.0).any())
    elapsed = time.perf_counter() - t0
    ok = found == trials and elapsed < 60.0
    report(10, "rosenthal existence", ok, f"{found}/{trials} expansions have a pure equilibrium", t0)
    assert ok


def test_criterion_11_bound_formula_regression():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(100):
        c = float(rng.uniform(0.1, 20))
        m = int(rng.integers(1, 10**6))
        delta = float(rng.uniform(0.001, 0.999))
        n = int(rng.integers(1, 10**9))
        r = float(rng.uniform(0, 5))
        checks = [
            (hoeffding_eps(c, n, m, delta), oracle.mp_hoeffding(c, n, m, delta)),
            (era_eps(r, c, m, delta), oracle.mp_era_eps(r, c, m, delta)),
        ]
        n_factors = int(rng.integers(1, 6))
        a0 = float(rng.uniform(0, 5))
        a = [float(rng.uniform(0.1, 3)) for _ in range(n_factors)]
        b = [int(rng.integers(1, 10**9)) for _ in range(n_factors)]
        checks.append((factored_ra_bound(a0, a, b, m), oracle.mp_factored(a0, a, b, m)))
        cuts = np.sort(rng.uniform(0.1, 10, size=3))
        breakpoints = (0.0, float(cuts[0]), float(cuts[1]), float(cuts[2]))
        counts = tuple(int(x) for x in rng.integers(0, 10**6, size=3))
        a_noise = float(rng.uniform(0, 4))
        checks.append(
            (noise_scaling_ra_bound(a_noise, breakpoints, counts, m),
             oracle.mp_noise_scaling(a_noise, breakpoints, counts, m))
        )
        for got, want in checks:
            want = float(want)
            if want != 0.0:
                worst = max(worst, abs(got - want) / abs(want))
            else:
                worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    report(11, "bound regression", ok, f"worst relative error {worst:.2e} over 100 draws", t0)
    assert ok
