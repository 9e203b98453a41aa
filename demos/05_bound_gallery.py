"""When do data-dependent bounds beat the classical union bound?

The union (Bonferroni) correction pays sqrt(log |I|) for estimating |I|
utilities at once. The Rademacher-average route pays a data-dependent term
instead, so it wins once games are large or their noise is structured. This
script reproduces the two closed-form comparisons and the break-even size.
"""

from egta import crossover_size
from egta.experiments import run_bound_compare_factored, run_bound_compare_vns

# Break-even index-set size as a function of the failure probability: there
# the union radius equals the 1ERA radius with a zero Rademacher average, so
# below it the union bound is tighter whatever the samples show.
for delta in (0.5, 0.25, 0.1):
    print(f"delta={delta}: break-even index-set size {crossover_size(delta):.3g}")

# Noise that factors into shared components (global shocks, per-agent
# shocks, ...) caps the Rademacher average per factor. The union bound keeps
# growing with the game; the factored bound grows only with the factors.
factored = run_bound_compare_factored(players_max=60)
print("\nfactored noise, 100 strategies per player:")
for players in (1, 10, 28, 40, 60):
    row = factored.rows[players - 1]
    print(f"  players={row[0]:>3}  union={row[1]:.3f}  rademacher={row[2]:.3f}")
print("first player count where the Rademacher bound wins:",
      factored.metadata["crossover_players"])

# With noise whose scale varies across indices the census-based bound still
# tracks the union bound's growth; here it never catches up.
vns = run_bound_compare_vns(players_max=60)
print("\nvariable-scale noise:")
for players in (1, 30, 60):
    row = vns.rows[players - 1]
    print(f"  players={row[0]:>3}  union={row[1]:.3f}  rademacher={row[2]:.3f}")
print("crossover:", vns.metadata["crossover_players"])
