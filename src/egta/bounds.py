"""Finite-sample uniform-error bounds for empirical utility estimates.

Closed-form bounds (Hoeffding with a Bonferroni union, Massart-style upper
bounds on the Rademacher average, factored-noise and variable-noise-scale
refinements) plus the radius 2r + 3c*sqrt(ln(1/delta)/(2m)) for a one-draw
empirical Rademacher average r, which ``gs`` computes from its own samples.
All utilities are assumed bounded in [-c/2, c/2] for the stated range c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .hashing import _integer


def _check_common(c: float, m: float, delta: float) -> None:
    if not 0 <= c < math.inf:
        raise ValueError("utility range c must be finite and nonnegative")
    if not m >= 1:
        raise ValueError("sample count m must be at least 1")
    if not 0 < delta < 1:
        raise ValueError("failure probability delta must lie in (0, 1)")


def hoeffding_eps(c: float, num_indices: int, m: float, delta: float) -> float:
    """Union-bound error radius over num_indices simultaneous estimates:
    c * sqrt(ln(2|I|/delta)/(2m)). Use hoeffding_eps_ln when |I| overflows."""
    _check_common(c, m, delta)
    num_indices = _integer(num_indices, "index-set size", least=1)
    try:
        return c * math.sqrt(math.log(2.0 * num_indices / delta) / (2.0 * m))
    except OverflowError:
        raise ValueError("index-set size overflows a float; use hoeffding_eps_ln") from None


def hoeffding_eps_ln(c: float, ln_num_indices: float, m: float, delta: float) -> float:
    """Union-bound radius with the index-set size given in log space, for
    games too large to represent |I| as a float."""
    _check_common(c, m, delta)
    if not ln_num_indices >= 0:
        raise ValueError("ln of the index-set size must be nonnegative")
    return c * math.sqrt((math.log(2.0) + ln_num_indices - math.log(delta)) / (2.0 * m))


def era_eps(r: float, c: float, m: float, delta: float) -> float:
    """Uniform error radius from a one-draw empirical Rademacher average r."""
    _check_common(c, m, delta)
    if not r >= 0:
        raise ValueError("empirical Rademacher average must be nonnegative")
    return 2.0 * r + 3.0 * c * math.sqrt(math.log(1.0 / delta) / (2.0 * m))


def ra_eps_upper(c: float, num_indices: int, m: float, delta: float) -> float:
    """A-priori cap on the Rademacher-average radius via Massart's finite
    class bound: c*sqrt(ln|I|/(2m)) + c*sqrt(ln(1/delta)/(2m))."""
    _check_common(c, m, delta)
    num_indices = _integer(num_indices, "index-set size", least=1)
    tail = c * math.sqrt(math.log(1.0 / delta) / (2.0 * m))
    return c * math.sqrt(math.log(num_indices) / (2.0 * m)) + tail


def crossover_size(delta: float) -> float:
    """Index-set size at which the a-priori Rademacher radius ties the
    Hoeffding union radius: 1 / (2 delta^8)."""
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    return 0.5 * (1.0 / delta) ** 8


def factored_ra_bound(a0: float, a: Sequence[float], b: Sequence[int | float], m: float) -> float:
    """Rademacher-average bound when conditional noise splits into additive
    factors: a0/sqrt(m) + sum_i a_i * min(1, sqrt(2 ln(b_i) / m)).

    a_i bounds factor i's magnitude and b_i the number of distinct values its
    grouping function can take. b_i may be arbitrarily large Python ints.
    """
    if not m >= 1:
        raise ValueError("sample count m must be at least 1")
    if not a0 >= 0:
        raise ValueError("expected-utility bound a0 must be nonnegative")
    if len(a) != len(b):
        raise ValueError("a and b must have equal length")
    total = a0 / math.sqrt(m)
    for a_i, b_i in zip(a, b):
        if not (a_i > 0 and b_i >= 1):
            raise ValueError("factor scales must be positive and counts >= 1")
        total += a_i * min(1.0, math.sqrt(2.0 * math.log(b_i) / m))
    return total


@dataclass(frozen=True)
class NoiseProfile:
    """Noise-magnitude census for the variable-scale Rademacher bound.

    breakpoints = (v_0, ..., v_n) with v_0 = 0 strictly increasing up to the
    largest noise magnitude; counts[i] is (an upper bound on) the number of
    indices whose noise magnitude lies in (v_i, v_{i+1}].
    """

    a: float
    breakpoints: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(float(v) for v in self.breakpoints))
        object.__setattr__(self, "counts", tuple(_integer(f, "index count", least=0) for f in self.counts))
        if not self.a >= 0:
            raise ValueError("expected-utility bound a must be nonnegative")
        v = self.breakpoints
        if len(v) < 2 or v[0] != 0.0:
            raise ValueError("breakpoints must start at 0 and contain at least one interval")
        if not all(v[i] < v[i + 1] for i in range(len(v) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.counts) != len(v) - 1:
            raise ValueError("need one count per interval")


def noise_scaling_ra_bound(profile: NoiseProfile, m: float) -> float:
    """Rademacher-average bound from a noise-magnitude census:
    a/sqrt(m) + sum_i v_i * min(1, sqrt(ln(F_i) / (2m))).

    Intervals with zero or one index contribute nothing (ln F resolved as 0).
    """
    if not m >= 1:
        raise ValueError("sample count m must be at least 1")
    total = profile.a / math.sqrt(m)
    for i, count in enumerate(profile.counts):
        if count <= 1:
            continue
        v_i = profile.breakpoints[i + 1]
        total += v_i * min(1.0, math.sqrt(math.log(count) / (2.0 * m)))
    return total
