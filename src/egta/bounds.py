"""Finite-sample uniform-error bounds for empirical utility estimates.

Closed-form bounds: Hoeffding with a Bonferroni union over any number of
indices, which takes the index count as an exact integer of any size, and
Massart-style upper bounds on the Rademacher average summed over groups of
indices. A group is a noise factor's image, given as scales a and image
sizes b, or an interval of a noise-magnitude census, given as breakpoints
and per-interval index counts.
Plus the radius 2r + 3c*sqrt(ln(1/delta)/(2m)) for a one-draw
empirical Rademacher average r, which ``gs`` computes from its own samples.
All utilities are assumed bounded in [-c/2, c/2] for the stated range c.
A radius takes (x/2)/m, not x/(2m): the same bits, and 2m overflows past 2^1023.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

from .hashing import _integer, _items, _real

_LN2 = math.log(2.0)
_LN_FLOAT_MAX = math.log(sys.float_info.max)


def _check_common(c: float, m: float, delta: float) -> tuple[float, float, float]:
    """c, m and delta as floats, each in the range the bounds assume."""
    return (
        _real(c, "utility range c", "finite and nonnegative"),
        _real(m, "sample count m", "at least 1 and finite"),
        _real(delta, "failure probability delta", "in (0, 1)"),
    )


def _ln_inverse(delta: float) -> float:
    """ln(1/delta), or -ln(delta) where 1/delta overflows to inf."""
    inverse = 1.0 / delta
    return math.log(inverse) if inverse < math.inf else -math.log(delta)


def hoeffding_eps(c: float, num_indices: int, m: float, delta: float) -> float:
    """Union-bound error radius over num_indices simultaneous estimates:
    c * sqrt(ln(2|I|/delta)/(2m)), for any integer |I| >= 1."""
    c, m, delta = _check_common(c, m, delta)
    num_indices = _integer(num_indices, "index-set size", least=1)
    ln_union = math.log(2.0 * num_indices / delta) if num_indices <= sys.float_info.max else math.inf
    if ln_union == math.inf:
        # past the float range: log2(2|I|) ln 2, because math.log of a huge
        # int can drop by an ulp at a power of two and log2 cannot, floored
        # at ln(largest float) so that the radius never falls as |I| grows
        ln_union = max(math.log2(2 * num_indices) * _LN2 - math.log(delta), _LN_FLOAT_MAX)
    return c * math.sqrt(0.5 * ln_union / m)


def era_eps(r: float, c: float, m: float, delta: float) -> float:
    """Uniform error radius from a one-draw empirical Rademacher average r."""
    c, m, delta = _check_common(c, m, delta)
    r = _real(r, "empirical Rademacher average", "finite and nonnegative")
    return 2.0 * r + 3.0 * c * math.sqrt(0.5 * _ln_inverse(delta) / m)


def crossover_size(delta: float) -> float:
    """Index-set size 1 / (2 delta^8) at which the Hoeffding union radius
    ``hoeffding_eps(c, |I|, m, delta)`` ties ``era_eps(0, c, m, delta)``, the
    1ERA radius at r = 0, for every c and m: there ln(2|I|/delta) =
    9 ln(1/delta). A size past the float range raises ValueError."""
    delta = _real(delta, "delta", "in (0, 1]")
    try:
        size = 0.5 * (1.0 / delta) ** 8
    except OverflowError:
        size = math.inf
    if size == math.inf:
        raise ValueError(f"the crossover size at delta = {delta} is past the float range")
    return size


def factored_ra_bound(a0: float, a: Sequence[float], b: Sequence[int], m: float) -> float:
    """Rademacher-average bound when conditional noise splits into additive
    factors: a0/sqrt(m) + sum_i a_i * min(1, sqrt(2 ln(b_i) / m)).

    a_i bounds factor i's magnitude and b_i the number of distinct values its
    grouping function can take. b_i may be arbitrarily large Python ints.
    """
    a, b = _items(a, "scales a"), _items(b, "image sizes b")
    if len(a) != len(b):
        raise ValueError("a and b must have equal length")
    return _massart(a0, a, [_integer(b_i, "factor image size", least=1) for b_i in b], 2.0, m)


def noise_scaling_ra_bound(a: float, breakpoints: Sequence[float], counts: Sequence[int], m: float) -> float:
    """Rademacher-average bound from a noise-magnitude census:
    a/sqrt(m) + sum_i v_{i+1} * min(1, sqrt(ln(F_i) / (2m))).

    breakpoints = (v_0, ..., v_n) with v_0 = 0 strictly increasing up to the
    largest noise magnitude; counts[i] is (an upper bound on) the number F_i
    of indices whose noise magnitude lies in (v_i, v_{i+1}].
    """
    v = tuple(_real(x, "breakpoint", "finite and nonnegative") for x in _items(breakpoints, "breakpoints"))
    counts = [_integer(f, "index count", least=0) for f in _items(counts, "counts")]
    if len(v) < 2 or v[0] != 0.0:
        raise ValueError("breakpoints must start at 0 and contain at least one interval")
    if not all(v[i] < v[i + 1] for i in range(len(v) - 1)):
        raise ValueError("breakpoints must be strictly increasing")
    if len(counts) != len(v) - 1:
        raise ValueError("need one count per interval")
    return _massart(a, v[1:], counts, 0.5, m)


def _massart(a0: float, scales: Sequence[float], sizes: Sequence[int], k: float, m: float) -> float:
    """a0/sqrt(m) + sum_i w_i * min(1, sqrt(k ln(n_i) / m)): Massart's finite
    class term for each group of n_i indices at scale w_i, where a group of
    one index or none adds nothing."""
    m = _real(m, "sample count m", "at least 1 and finite")
    a0 = _real(a0, "expected-utility bound", "finite and nonnegative")
    scales = [_real(w, "scale", "positive and finite") for w in scales]
    total = a0 / math.sqrt(m)
    for w, n in zip(scales, sizes):
        if n > 1:
            # k ln(n) is exact, so the term rounds like 2 ln(n)/m and ln(n)/(2m)
            total += w * min(1.0, math.sqrt(k * math.log(n) / m))
    return total
