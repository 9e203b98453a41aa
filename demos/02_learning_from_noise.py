"""Learning an unknown game from a noisy black-box simulator.

The simulator hides a random congestion game behind additive uniform noise.
Global sampling estimates every utility from shared condition draws and
returns a radius that, with probability 1 - delta, bounds every estimation
error simultaneously. We check the radius against the (normally unknowable)
ground truth.
"""

from egta import (
    BoundType,
    IndexSet,
    expand,
    gen_rc,
    gs,
    hoeffding_eps,
    noisy_sim,
    pure_eps_nash,
)

truth = expand(gen_rc(num_players=4, num_facilities=4, k=2, alpha=0.5, seed=7))
print("hidden game:", truth.num_players, "players,", truth.num_profiles, "profiles")
print("true pure equilibria:", pure_eps_nash(truth, 0.0))

sim = noisy_sim(truth, d=3.0)  # utilities observed +- 1.5 at random
index_set = IndexSet.full(sim.strategy_counts)

for m in (100, 1000, 10000):
    result = gs(sim, index_set, m=m, delta=0.1, c=sim.range_c,
                bound=BoundType.HOEFFDING, seed=m)
    actual = result.sup_deviation(truth)
    print(f"m={m:>6}: radius={result.epsilon:.3f}  true sup error={actual:.3f}")

# The returned radius makes the equilibrium estimates trustworthy: every true
# equilibrium is a 2*radius-equilibrium of the estimate, and every
# 2*radius-equilibrium of the estimate is a 4*radius-equilibrium of the truth.
# to_game() turns the estimates into a game of the sampled game's shape.
estimate = result.to_game()
print("flagged 2eps-equilibria:", pure_eps_nash(estimate, 2 * result.epsilon))

# The same radius is available a priori (no sampling needed) for planning:
print("a-priori radius at m=10000:",
      round(hoeffding_eps(sim.range_c, len(index_set), 10000, 0.1), 4))
