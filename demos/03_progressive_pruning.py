"""Progressive sampling with pruning, against one-shot sampling.

Progressive sampling estimates the whole game on a doubling sample schedule
but stops refining (player, profile) entries that provably cannot take part
in an equilibrium. The freed budget buys precision where it matters. We
replay the fairness protocol: run the progressive algorithm to completion,
count the utility evaluations it consumed, then grant the one-shot baseline
the same total budget spread uniformly.
"""

from egta import (
    BoundType,
    FailureSchedule,
    SamplingSchedule,
    gen_rg,
    hoeffding_eps,
    noisy_sim,
    psp,
    query_cost,
)
from egta.games import game_size

truth = gen_rg(num_players=4, k=4, u0=10.0, seed=21)  # 1024 utilities
sim = noisy_sim(truth, d=5.0)

schedule = SamplingSchedule(m0=100, budget=102300)
failure = FailureSchedule(0.1, schedule.length)
result = psp(sim, schedule, failure, c=sim.range_c, bound=BoundType.HOEFFDING,
             pure=True, eps_threshold=0.0, seed=7)

print("iteration trace (samples, surviving indices, radius):")
for rec in result.trace:
    print(f"  t={rec.t}: m={rec.m:>6}  |I|={rec.index_count:>5}  eps={rec.epsilon:.4f}")

cost = query_cost(result.trace)
size = game_size(truth)
m_uniform = cost / size
eps_one_shot = hoeffding_eps(sim.range_c, size, m_uniform, 0.1)
print(f"\ntotal utility evaluations: {cost}")
print(f"progressive radius: {result.epsilon:.4f}")
print(f"one-shot radius on the same budget ({m_uniform:.0f} samples/utility): "
      f"{eps_one_shot:.4f}")
print(f"spent failure probability: {result.delta_total:.4f}")
print("equilibrium candidates:", len(result.pure_equilibria), "profiles")
