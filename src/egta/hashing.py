"""Counter-based 64-bit hashing for reproducible random streams.

Every source of randomness in this package that must be stable across
processes, platforms, and execution order (simulator noise, per-replication
seeds) is derived by hashing integer counters with splitmix64 rather than by
consuming a shared stateful RNG.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

# Scaling of a 53-bit integer into [0, 1); the +2^-54 offset used below
# centers each bin so the result is symmetric around 1/2 and never 0 or 1.
_INV53 = 2.0**-53
_HALF_BIN = 2.0**-54


def splitmix64(x: np.ndarray | int) -> np.ndarray | int:
    """splitmix64 finalizer. Accepts uint64 arrays or Python ints (mod 2^64)."""
    if isinstance(x, np.ndarray):
        z = x + np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))
    z = (int(x) + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def mix(*parts: int) -> int:
    """Hash an ordered tuple of integers into a single 64-bit value.

    Used to derive child seeds, e.g. ``mix(master_seed, replication)``.
    Strings may be passed for labels; they are folded in bytewise.
    """
    h = _GOLDEN
    for part in parts:
        if isinstance(part, str):
            for b in part.encode("utf-8"):
                h = splitmix64(h ^ b)
        else:
            h = splitmix64(h ^ (int(part) & _MASK64))
    return h


def hash_uniform(cond_seeds: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Uniform (0, 1) variates for every (key, condition) pair.

    ``cond_seeds`` has shape [m], ``keys`` shape [n]; the result has shape
    [n, m]. The condition seeds arrive finalized (``draw_conditions`` applies
    splitmix64 once, when it draws them), so they are not hashed again here;
    only the n keys are. The pairing then needs one more finalizer pass over
    the n*m grid, done with in-place ops. For a raw condition seed ``cond``
    each value is the top 53 bits of
    splitmix64(splitmix64(key) + splitmix64(cond)), scaled to the centre of
    its bin of width 2^-53, so it lies in the open (0, 1).
    """
    b = splitmix64(np.asarray(keys, dtype=np.uint64))
    z = b[:, None] + np.asarray(cond_seeds, dtype=np.uint64)[None, :]
    z += np.uint64(_GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    out = z.astype(np.float64)
    out *= _INV53
    out += _HALF_BIN
    return out

