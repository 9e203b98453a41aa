"""Every real-valued parameter the package reads follows one rule: Python and
numpy real numbers in the parameter's range are taken as floats, and bools,
strings, None, complex numbers, arrays, NaN, ints past the float range and
values out of range raise a ValueError naming the parameter, never a
TypeError or a silent result."""

import math

import numpy as np
import pytest

from egta import experiments
from egta.algorithms import (
    FailureSchedule,
    SamplingSchedule,
    gs,
    prune_mixed,
    prune_pure,
    psp,
)
from egta.bounds import (
    crossover_size,
    era_eps,
    factored_ra_bound,
    hoeffding_eps,
    noise_scaling_ra_bound,
)
from egta.games import (
    IndexSet,
    NormalFormGame,
    check_containment,
    eps_dominates,
    nash_mask,
    rationalizable,
)
from egta.simulators import FactoredNoiseSimulator, gen_rc, gen_rg, noisy_sim

GAME = NormalFormGame((2, 2), np.arange(8.0).reshape(2, 4))
SIM = noisy_sim(GAME, 1.0)
FULL = IndexSet.full(GAME.strategy_counts)
SCHEDULE = SamplingSchedule(10, 30)


def _psp(c=SIM.range_c, eps_threshold=0.0):
    failure = FailureSchedule(0.1, SCHEDULE.length)
    return psp(SIM, SCHEDULE, failure, c, "hoeffding", eps_threshold=eps_threshold)


# each site takes the value under test where a real parameter goes, and is
# listed with the name its error message must give
SITES = {
    "hoeffding_eps.c": ("utility range c", lambda x: hoeffding_eps(x, 5, 10, 0.1)),
    "hoeffding_eps.m": ("sample count m", lambda x: hoeffding_eps(1.0, 5, x, 0.1)),
    "hoeffding_eps.delta": ("failure probability delta", lambda x: hoeffding_eps(1.0, 5, 10, x)),
    "gs.c": ("utility range c", lambda x: gs(SIM, FULL, 10, 0.1, x, "hoeffding")),
    "gs.delta": ("failure probability delta", lambda x: gs(SIM, FULL, 10, x, SIM.range_c, "hoeffding")),
    "era_eps.r": ("empirical Rademacher average", lambda x: era_eps(x, 1.0, 10, 0.1)),
    "crossover_size.delta": ("delta", crossover_size),
    "factored_ra_bound.m": ("sample count m", lambda x: factored_ra_bound(1.0, [1.0], [2], x)),
    "factored_ra_bound.a0": ("expected-utility bound", lambda x: factored_ra_bound(x, [1.0], [2], 10)),
    "factored_ra_bound.a": ("scale", lambda x: factored_ra_bound(1.0, [x], [2], 10)),
    "noise_scaling_ra_bound.a":
        ("expected-utility bound", lambda x: noise_scaling_ra_bound(x, (0.0, 1.0), (2,), 10)),
    "noise_scaling_ra_bound.breakpoints":
        ("breakpoint", lambda x: noise_scaling_ra_bound(1.0, (0.0, x), (2,), 10)),
    "FailureSchedule.delta": ("total failure probability", lambda x: FailureSchedule(x, 2)),
    "prune_pure.eps_hat": ("eps_hat", lambda x: prune_pure(GAME, FULL, x)),
    "prune_mixed.eps_hat": ("eps_hat", lambda x: prune_mixed(GAME, FULL, x)),
    "psp.c": ("utility range c", lambda x: _psp(c=x)),
    "psp.eps_threshold": ("eps_threshold", lambda x: _psp(eps_threshold=x)),
    "nash_mask.eps": ("eps", lambda x: nash_mask(GAME, x)),
    "eps_dominates.eps": ("eps", lambda x: eps_dominates(GAME, 0, 0, 1, x)),
    "rationalizable.eps": ("eps", lambda x: rationalizable(GAME, x)),
    "check_containment.eps": ("eps", lambda x: check_containment(GAME, GAME, x)),
    "NoisySimulator.d": ("noise width d", lambda x: noisy_sim(GAME, x)),
    "FactoredNoiseSimulator.a":
        ("factor scale", lambda x: FactoredNoiseSimulator(10.0, [x], ["global"], GAME, 0)),
    "FactoredNoiseSimulator.a0": ("a0", lambda x: FactoredNoiseSimulator(x, [1.0], ["global"], GAME, 0)),
    "gen_rg.u0": ("u0", lambda x: gen_rg(2, 2, u0=x)),
    "gen_rc.alpha": ("alpha", lambda x: gen_rc(2, 3, 2, alpha=x)),
    "run_success_rate.rho_grid":
        ("rho_grid", lambda x: experiments.run_success_rate(reps=1, delta_grid=(0.1,), rho_grid=(x,), m=10)),
    "run_success_rate.delta_grid":
        ("delta_grid", lambda x: experiments.run_success_rate(reps=1, delta_grid=(x,), rho_grid=(1.0,), m=10)),
    "run_eps_vs_samples.d_values":
        ("d_values", lambda x: experiments.run_eps_vs_samples(reps=1, d_values=(x,), m_values=(10,))),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_entry_points_refuse_non_reals(site):
    name, call = SITES[site]
    for value in ("0.1", None, True, 1j, np.array([0.1, 0.2]), math.nan, 10**400):
        with pytest.raises(ValueError, match=name):
            call(value)


def test_reals_of_any_type_give_a_floats_bits():
    assert hoeffding_eps(2, 5, 10, 0.1) == hoeffding_eps(2.0, 5, 10, 0.1)
    assert type(hoeffding_eps(np.float64(2.0), 5, np.int64(10), np.float64(0.1))) is float
    for c, m, delta in ((np.float32(2.0), np.int64(10), np.float64(0.1)), (2, np.uint8(10), 0.25)):
        fc, fm, fdelta = float(c), float(m), float(delta)
        assert hoeffding_eps(c, 5, m, delta) == hoeffding_eps(fc, 5, fm, fdelta)
        assert era_eps(np.float16(0.5), c, m, delta) == era_eps(0.5, fc, fm, fdelta)
    assert factored_ra_bound(1, [1, 0.5], [3, 4], 25) == factored_ra_bound(1.0, [1.0, 0.5], [3, 4], 25.0)
    assert noise_scaling_ra_bound(1, (0, 1, 3), (2, 5), np.int32(7)) == noise_scaling_ra_bound(
        1.0, (0.0, 1.0, 3.0), (2, 5), 7.0
    )
    assert noisy_sim(GAME, np.int64(2)).d == 2.0 and type(noisy_sim(GAME, np.int64(2)).d) is float
    for u0 in (4, np.float64(4.0), np.int8(4)):
        assert np.array_equal(gen_rg(2, 3, u0=u0, seed=1).utilities, gen_rg(2, 3, u0=4.0, seed=1).utilities)


def test_sample_counts_must_be_finite():
    # an infinite m used to give a radius of 0 (10**400 is a site value above)
    with pytest.raises(ValueError, match="sample count m must be at least 1 and finite"):
        hoeffding_eps(1.0, 5, math.inf, 0.1)
    with pytest.raises(ValueError, match="sample count m"):
        factored_ra_bound(1.0, [1.0], [2], math.inf)
