"""Brute-force reference implementations used to derive expected test values.

Everything here is written with plain Python loops over explicitly
enumerated profiles, independent of the vectorized library code paths.
"""

from __future__ import annotations

import itertools
import math

import mpmath

from egta.games import NormalFormGame

mpmath.mp.dps = 50


def all_profiles(game: NormalFormGame):
    return itertools.product(*(range(k) for k in game.strategy_counts))


def flat_index(game: NormalFormGame, profile):
    flat = 0
    for s, k in zip(profile, game.strategy_counts):
        flat = flat * k + s
    return flat


def lookup(game: NormalFormGame, p, profile):
    return float(game.utilities[p, flat_index(game, profile)])


def regret(game: NormalFormGame, p, profile):
    base = lookup(game, p, profile)
    best = -math.inf
    for s in range(game.strategy_counts[p]):
        deviated = list(profile)
        deviated[p] = s
        best = max(best, lookup(game, p, tuple(deviated)))
    return best - base


def nash_set(game: NormalFormGame, eps):
    out = []
    for profile in all_profiles(game):
        if all(regret(game, p, profile) <= eps for p in range(game.num_players)):
            out.append(profile)
    return out


def dominates(game: NormalFormGame, p, s, s_other, eps):
    for profile in all_profiles(game):
        if profile[p] != s_other:
            continue
        swapped = list(profile)
        swapped[p] = s
        if lookup(game, p, tuple(swapped)) < lookup(game, p, profile) + eps:
            return False
    return True


def ieds(game: NormalFormGame, eps, restrict=None):
    if restrict is None:
        alive = [list(range(k)) for k in game.strategy_counts]
    else:
        alive = [sorted(set(strats)) for strats in restrict]

    def restricted_dominates(p, s, s_other):
        ranges = [alive[q] if q != p else [0] for q in range(game.num_players)]
        for ctx in itertools.product(*ranges):
            a = list(ctx)
            a[p] = s
            b = list(ctx)
            b[p] = s_other
            if lookup(game, p, tuple(a)) < lookup(game, p, tuple(b)) + eps:
                return False
        return True

    while True:
        removed = False
        marks = []
        for p in range(game.num_players):
            dead = set()
            for s_other in alive[p]:
                for s in alive[p]:
                    if s == s_other:
                        continue
                    if restricted_dominates(p, s, s_other) and not restricted_dominates(
                        p, s_other, s
                    ):
                        dead.add(s_other)
                        break
            marks.append(dead)
        for p, dead in enumerate(marks):
            if dead:
                removed = True
                alive[p] = [s for s in alive[p] if s not in dead]
        if not removed:
            return [list(a) for a in alive]


def restricted_regret_survivors(game: NormalFormGame, pairs, eps_hat):
    """The (player, flat profile) pairs whose regret is at most 2*eps_hat
    when the player may deviate only to profiles whose pair is also in
    ``pairs``, in the order given."""
    alive = set(pairs)
    by_flat = {flat_index(game, prof): prof for prof in all_profiles(game)}
    keep = []
    for p, flat in pairs:
        profile = by_flat[flat]
        best = lookup(game, p, profile)
        for s in range(game.strategy_counts[p]):
            deviated = list(profile)
            deviated[p] = s
            if (p, flat_index(game, deviated)) in alive:
                best = max(best, lookup(game, p, tuple(deviated)))
        if best - lookup(game, p, profile) <= 2 * eps_hat:
            keep.append((p, flat))
    return keep


def rationalizable_survivors(game: NormalFormGame, pairs, eps_hat):
    """The pairs whose every profile coordinate survives ieds at 2*eps_hat
    on the restriction to each player's own strategies among ``pairs``, in
    the order given."""
    by_flat = {flat_index(game, prof): prof for prof in all_profiles(game)}
    restrict = [
        sorted({by_flat[flat][p] for q, flat in pairs if q == p})
        for p in range(game.num_players)
    ]
    surviving = ieds(game, 2 * eps_hat, restrict)
    return [
        (p, flat)
        for p, flat in pairs
        if all(s in surviving[q] for q, s in enumerate(by_flat[flat]))
    ]


def pairwise_sum(values):
    """numpy's pairwise summation of a sequence of floats, as it sums one
    contiguous float64 row: in order from 0. below 8 elements; up to 128 in
    eight interleaved accumulators, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the tail in
    order; beyond 128, split at n/2 less n/2 mod 8 and the halves' sums
    added."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        r = list(values[:8])
        i = 8
        while i < n - n % 8:
            for k in range(8):
                r[k] += values[i + k]
            i += 8
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in values[i:]:
            total += v
        return total
    half = n // 2 - n // 2 % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


def welfare(game: NormalFormGame, profile):
    return sum(lookup(game, p, profile) for p in range(game.num_players))


def pessimal(game: NormalFormGame, p, s):
    worst = math.inf
    for profile in all_profiles(game):
        if profile[p] == s:
            worst = min(worst, lookup(game, p, profile))
    return worst


def maximin(game: NormalFormGame, p):
    return max(pessimal(game, p, s) for s in range(game.strategy_counts[p]))


def congestion_costs(cg, profile):
    """Per-player costs at a congestion-game profile via explicit counting."""
    chosen = [cg.strategy_sets[p][profile[p]] for p in range(cg.num_players)]
    loads = {}
    for facilities in chosen:
        for e in facilities:
            loads[e] = loads.get(e, 0) + 1
    cost_fn = cg.cost_fn if cg.cost_fn is not None else (lambda e, n: float(n))
    return [sum(cost_fn(e, loads[e]) for e in chosen[p]) for p in range(cg.num_players)]


def loglog_slope(ms, eps):
    """Least-squares slope of log(eps) against log(m)."""
    xs = [math.log(m) for m in ms]
    ys = [math.log(e) for e in eps]
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    cov = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    return cov / sum((x - x_bar) ** 2 for x in xs)


# High-precision bound formulas (the independent side of the dual-route
# checks for every closed-form bound).

def mp_hoeffding_single(c, m, delta):
    c, m, delta = mpmath.mpf(c), mpmath.mpf(m), mpmath.mpf(delta)
    return c * mpmath.sqrt(mpmath.log(2 / delta) / (2 * m))


def mp_hoeffding(c, n, m, delta):
    c, n, m, delta = mpmath.mpf(c), mpmath.mpf(n), mpmath.mpf(m), mpmath.mpf(delta)
    return c * mpmath.sqrt(mpmath.log(2 * n / delta) / (2 * m))


def mp_era_eps(r, c, m, delta):
    r, c, m, delta = (mpmath.mpf(x) for x in (r, c, m, delta))
    return 2 * r + 3 * c * mpmath.sqrt(mpmath.log(1 / delta) / (2 * m))


def mp_factored(a0, a, b, m):
    total = mpmath.mpf(a0) / mpmath.sqrt(m)
    for a_i, b_i in zip(a, b):
        total += mpmath.mpf(a_i) * min(
            mpmath.mpf(1), mpmath.sqrt(2 * mpmath.log(mpmath.mpf(b_i)) / m)
        )
    return total


def mp_noise_scaling(a, breakpoints, counts, m):
    total = mpmath.mpf(a) / mpmath.sqrt(m)
    for i, f in enumerate(counts):
        if f <= 1:
            continue
        total += mpmath.mpf(breakpoints[i + 1]) * min(
            mpmath.mpf(1), mpmath.sqrt(mpmath.log(mpmath.mpf(f)) / (2 * m))
        )
    return total
