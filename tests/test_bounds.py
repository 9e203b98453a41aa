import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egta.bounds import (
    crossover_size,
    era_eps,
    factored_ra_bound,
    hoeffding_eps,
    noise_scaling_ra_bound,
)

import _oracles as oracle


def test_hoeffding_single_frozen_values():
    # ln(2/delta) = 2 exactly for delta = 2 e^-2
    assert hoeffding_eps(2, 1, 200, 2 * math.exp(-2)) == pytest.approx(
        0.1414213562373095, rel=1e-14
    )
    assert hoeffding_eps(10, 1, 10000, 0.05) == pytest.approx(
        0.13581015157406195, rel=1e-14
    )


def test_hoeffding_single_vanishes_with_m():
    values = [hoeffding_eps(1, 1, m, 0.1) for m in (10, 100, 1000, 10**9)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-4


def test_hoeffding_union_frozen_value():
    assert hoeffding_eps(2, 50, 200, 0.05) == pytest.approx(0.27569734238004695, rel=1e-14)


def test_hoeffding_takes_an_index_count_past_the_float_range():
    # 2 * 10^308 and 10^400 have no float; the radius still matches the
    # mpmath oracle
    for n in (10**308, 10**400):
        assert hoeffding_eps(1.0, n, 100, 0.1) == pytest.approx(
            float(oracle.mp_hoeffding(1.0, n, 100, 0.1)), rel=1e-14
        )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 10**400), st.integers(1, 10**400), st.sampled_from([0.5, 0.1, 1e-300]))
def test_hoeffding_is_finite_and_nondecreasing_in_the_index_count(n, n2, delta):
    # beside the drawn pair: the edge of the float range, where the two ways
    # to take the log meet, and a power of two past it
    edge = int(sys.float_info.max * delta / 2)
    for pair in (sorted((n, n2)), (edge, edge + 2**970), (2**1100 - 1, 2**1100)):
        lo, hi = (hoeffding_eps(1.0, x, 100, delta) for x in pair)
        assert math.isfinite(hi) and lo <= hi
    try:
        union = 2 * n / delta
    except OverflowError:
        return
    if union < math.inf:
        assert hoeffding_eps(1.0, n, 100, delta) == math.sqrt(math.log(union) / 200.0)


def test_hoeffding_doubling_identity():
    c, m, delta, n = 2.5, 400, 0.07, 13
    big_l = math.log(2 * n / delta)
    want_gap = c * (math.sqrt((big_l + math.log(2)) / (2 * m)) - math.sqrt(big_l / (2 * m)))
    gap = hoeffding_eps(c, 2 * n, m, delta) - hoeffding_eps(c, n, m, delta)
    assert gap == pytest.approx(want_gap, rel=1e-12)


def test_era_eps_frozen_value():
    assert era_eps(0.1, 10, 10000, 0.1) == pytest.approx(0.5218949039434021, rel=1e-14)


def test_era_eps_limits():
    # r = 0 and delta -> 1 sends the radius to zero
    assert era_eps(0.0, 5, 100, 1 - 1e-12) < 1e-5
    # affine in r with slope exactly 2
    base = era_eps(0.0, 5, 100, 0.1)
    assert era_eps(0.3, 5, 100, 0.1) - base == pytest.approx(0.6, rel=1e-12)


def test_crossover_size_values():
    assert crossover_size(0.1) == 5.0e7
    assert crossover_size(1.0) == 0.5
    assert crossover_size(0.5) == 128.0
    with pytest.raises(ValueError):
        crossover_size(0.0)
    # a size past the float range used to leak OverflowError or give inf
    for delta in (1e-40, 1e-310):
        with pytest.raises(ValueError, match="past the float range"):
            crossover_size(delta)


def test_crossover_size_ties_hoeffding_with_era_at_zero():
    # at |I| = 1/(2 delta^8), ln(2|I|/delta) = 9 ln(1/delta), so the union
    # radius equals the 1ERA radius at r = 0 for every c and m
    for delta in (0.5, 0.25, 0.1, 0.05, 0.01, 1e-3, 1e-4):
        size = crossover_size(delta)
        assert size == int(size)
        for c, m in ((1.0, 10), (2.5, 1000), (7.0, 123457)):
            tie = era_eps(0.0, c, m, delta)
            assert abs(hoeffding_eps(c, int(size), m, delta) - tie) <= math.ulp(tie)


def test_radii_stay_finite_for_subnormal_delta():
    # 1/delta overflows below about 5.6e-309, where ln(1/delta) is still finite
    assert math.isfinite(era_eps(0.1, 1.0, 10, 1e-310))
    assert era_eps(0.1, 1.0, 10, 1e-310) >= era_eps(0.1, 1.0, 10, 1e-300)


def test_factored_ra_bound_values():
    assert factored_ra_bound(2.0, [], [], 25) == pytest.approx(0.4)
    # appendix configuration at |P| = 35 agents, 100 strategies
    got = factored_ra_bound(
        1.0, [1, 1, 1, 0.5, 0.5], [1, 35, 100, 100**35, 35 * 100**35], 10000
    )
    assert got == pytest.approx(0.2475435325883349, rel=1e-12)
    # a unit image contributes nothing
    with_unit = factored_ra_bound(1.0, [1.0, 7.0], [50, 1], 100)
    without = factored_ra_bound(1.0, [1.0], [50], 100)
    assert with_unit == pytest.approx(without, rel=1e-14)


def test_noise_profile_validation():
    for breakpoints, counts in (
        ((0.5, 1.0), (3,)),  # must start at 0
        ((0.0, 1.0, 1.0), (3, 4)),  # strictly increasing
        ((0.0, 1.0), (3, 4)),  # one count per interval
        ((0.0, math.nan), (2,)),
        ((0.0, math.nan, 1.0), (2, 2)),
    ):
        with pytest.raises(ValueError):
            noise_scaling_ra_bound(1.0, breakpoints, counts, 10)
    with pytest.raises(ValueError):
        noise_scaling_ra_bound(math.nan, (0.0, 1.0), (3,), 10)


def test_noise_scaling_values():
    assert noise_scaling_ra_bound(1.0, (0.0, 2.0), (1,), 400) == pytest.approx(0.05)
    # only the last interval is populated
    want = 1 / math.sqrt(400) + 2.0 * min(1.0, math.sqrt(math.log(64) / 800))
    assert noise_scaling_ra_bound(1.0, (0.0, 0.5, 1.0, 2.0), (0, 0, 64), 400) == pytest.approx(
        want, rel=1e-14
    )
    # dyadic census from the variable-noise comparison, |P| = 10, |S| = 100
    n = 6
    size = 10 * 100**10
    breakpoints = (0.0,) + tuple(2.0 * 2.0 ** (i - n) for i in range(1, n + 1))
    counts = tuple(-(-size // 2**i) for i in range(1, n + 1))
    got = noise_scaling_ra_bound(1.0, breakpoints, counts, 10000)
    want = oracle.mp_noise_scaling(1.0, breakpoints, counts, 10000)
    assert got == pytest.approx(float(want), rel=1e-12)
    assert got > 0


def test_bounds_monotone_in_m_and_delta():
    for fn in (
        lambda m, d: hoeffding_eps(2, 1, m, d),
        lambda m, d: hoeffding_eps(2, 20, m, d),
        lambda m, d: era_eps(0.0, 2, m, d),
    ):
        assert fn(100, 0.1) > fn(200, 0.1)
        assert fn(100, 0.1) > fn(100, 0.2)


def test_bound_formulas_match_high_precision_references():
    rng = np.random.default_rng(99)
    for _ in range(100):
        c = float(rng.uniform(0.1, 20))
        m = int(rng.integers(1, 10**6))
        delta = float(rng.uniform(0.001, 0.999))
        n = int(rng.integers(1, 10**9))
        r = float(rng.uniform(0, 5))
        assert hoeffding_eps(c, 1, m, delta) == pytest.approx(
            float(oracle.mp_hoeffding_single(c, m, delta)), rel=1e-12
        )
        assert hoeffding_eps(c, n, m, delta) == pytest.approx(
            float(oracle.mp_hoeffding(c, n, m, delta)), rel=1e-12
        )
        assert era_eps(r, c, m, delta) == pytest.approx(
            float(oracle.mp_era_eps(r, c, m, delta)), rel=1e-12
        )


def test_invalid_domains_raise():
    with pytest.raises(ValueError):
        hoeffding_eps(-1, 1, 10, 0.1)
    with pytest.raises(ValueError):
        hoeffding_eps(1, 1, 0, 0.1)
    with pytest.raises(ValueError):
        hoeffding_eps(1, 0, 10, 0.1)
    with pytest.raises(ValueError):
        era_eps(-0.1, 1, 10, 0.1)
    with pytest.raises(ValueError):
        factored_ra_bound(1, [1], [0], 10)
    # NaN fails every comparison, so each domain check must reject it too
    nan = math.nan
    for call in (
        lambda: hoeffding_eps(1, 2, nan, 0.1),
        lambda: hoeffding_eps(1, nan, 10, 0.1),
        lambda: era_eps(nan, 1, 10, 0.1),
        lambda: factored_ra_bound(nan, [1], [2], 10),
        lambda: factored_ra_bound(1, [nan], [2], 10),
        lambda: factored_ra_bound(1, [1], [nan], 10),
        lambda: factored_ra_bound(1, [1], [2], nan),
        lambda: noise_scaling_ra_bound(1.0, (0.0, 1.0), (2,), nan),
    ):
        with pytest.raises(ValueError):
            call()
    # an infinite scale used to give an infinite radius, and a float b_i to
    # be read as a count
    inf = math.inf
    for call in (
        lambda: era_eps(inf, 1, 10, 0.1),
        lambda: factored_ra_bound(inf, [1], [2], 10),
        lambda: factored_ra_bound(1, [inf], [2], 10),
        lambda: factored_ra_bound(1, [1], [2.0], 10),
        lambda: noise_scaling_ra_bound(inf, (0.0, 1.0), (2,), 10),
        lambda: noise_scaling_ra_bound(1.0, (0.0, inf), (2,), 10),
    ):
        with pytest.raises(ValueError):
            call()
    # a scalar where a sequence goes used to leak TypeError
    for name, call in (
        ("scales a", lambda: factored_ra_bound(1.0, 1.0, [2], 10)),
        ("image sizes b", lambda: factored_ra_bound(1.0, [1.0], 2, 10)),
        ("breakpoints", lambda: noise_scaling_ra_bound(1.0, 5, (2,), 10)),
        ("counts", lambda: noise_scaling_ra_bound(1.0, (0.0, 1.0), 5, 10)),
    ):
        with pytest.raises(ValueError, match=f"{name} must be a sequence"):
            call()
