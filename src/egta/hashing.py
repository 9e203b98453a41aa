"""Counter-based 64-bit hashing for reproducible random streams.

Every source of randomness in this package that must be stable across
processes, platforms, and execution order (simulator noise, per-replication
seeds) is derived by hashing integer counters with splitmix64 rather than by
consuming a shared stateful RNG.

``hash_uniform``, the noise kernel behind every simulator sample, writes a
tile of utilities base + sum_f (u_f - 0.5) * w_f into the caller's buffer in
one call, and adds each row's sum onto the caller's sums while the row is in
cache. A tile of one noise factor runs as a small C loop when one can be
built, and a tile of none or several in numpy. The first call compiles
``_C_SOURCE`` with gcc into ``$XDG_CACHE_HOME/egta`` (default
``~/.cache/egta``), under a name hashed from the source, the flags and the
host CPU, and loads it with ctypes; a cached library that fails to load is
built again once. Built without floating-point contraction, the loop does
the numpy code's integer operations and separately rounded floating-point
steps, and sums each row in numpy's pairwise order, so both give identical
bits. ``splitmix64`` over arrays and ``gs``'s draw (the seeding of its
PCG64, and the finalizing of its conditions and signs) run in the same
library. Without a compiler, a writable cache directory or a loadable
library, the numpy code runs instead, and a RuntimeWarning says why once
per process; it is also the reference the tests compare against.

The module is also the home of the package's rules for reading parameters:
``_integer`` reads every count, index and seed (and, through ``_uint64``, hash
inputs), ``_real`` every real-valued parameter, and ``_items`` every sequence.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import numbers
import os
import platform
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

# A 53-bit integer k becomes k 2^-53 + 2^-54, the centre of its bin, rounded
# to even: a tie for k >= 2^52, so k = 2^52 gives 1/2 and k = 2^53 - 1 gives
# 1. Every variate is a multiple of 2^-54 in [2^-54, 1].
_INV53 = 2.0**-53
_HALF_BIN = 2.0**-54

# cap on samples per row chunk of the numpy fallback, which bounds its
# uint64 and float64 grid temporaries (at least one row)
_CHUNK_ELEMS = 65_536

# the ranges of real parameters, keyed by the words naming them; NaN is in none
_REAL_RANGES = {
    "nonnegative": lambda x: x >= 0.0,
    "finite and nonnegative": lambda x: 0.0 <= x < math.inf,
    "positive and finite": lambda x: 0.0 < x < math.inf,
    "at least 1 and finite": lambda x: 1.0 <= x < math.inf,
    "in (0, 1)": lambda x: 0.0 < x < 1.0,
    "in (0, 1]": lambda x: 0.0 < x <= 1.0,
}


def splitmix64(x: np.ndarray | int) -> np.ndarray | int:
    """splitmix64 finalizer of an int or an integer array, taken mod 2^64: a
    Python or numpy integer gives an int, an array a uint64 array of its
    shape, 0-d included. Floats, bools and anything else raise ValueError."""
    z = _uint64(x, "splitmix64")
    if isinstance(z, np.ndarray):
        z = np.array(z)  # a copy, hashed in place below
        _splitmix64_in_place(z)
        return z
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_in_place(z: np.ndarray) -> None:
    """splitmix64 of each element of a writable C-contiguous uint64 array, in
    place, compiled when the library is loaded."""
    lib = _kernel()
    if lib is not None:
        lib.egta_splitmix64(_address(z), z.size)
    else:
        _splitmix64_numpy(z)


class _SeedState(np.random.bit_generator.ISeedSequence):
    """Seed words computed ahead: ``np.random.PCG64(_SeedState(state))`` is
    seeded as ``np.random.PCG64(seed)`` is when state is
    ``SeedSequence(seed).generate_state(4, np.uint64)``, all a PCG64 asks
    its seed sequence for."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _draw(seed, m: int, signs: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """gs's m condition seeds and, if ``signs``, its m Rademacher signs, by
    ``random_raw`` on the PCG64 of ``seed`` (an integer taken mod 2^64): the
    first m words, finalized with splitmix64, and sign j +1.0 where bit 31
    of the j-th little-endian 32-bit half of the next ceil(m/2) words is
    set, else -1.0. These are the bits ``draw_conditions`` and then
    ``rng.integers(0, 2, size=m) * 2.0 - 1.0`` give on a fresh generator of
    the seed, since random_raw returns the words full-range ``integers``
    draws. The library, when loaded, seeds the PCG64 (numpy's SeedSequence
    takes 8-9 us, its copy one) and converts the words. The sign words get
    an array of their own, freed here: kept alive beside the conditions,
    they raised the benchmark's ``decay`` peak RSS from 63 to 75 MB near
    its 700th pass."""
    seed = _integer(seed, "seed") & _MASK64
    lib = _kernel()
    if lib is None:
        bits = np.random.PCG64(seed)
    else:
        state = np.zeros(4, dtype=np.uint64)
        lib.egta_seed_state(seed, _address(state))
        bits = np.random.PCG64(_SeedState(state))
    conds = bits.random_raw(m)
    words = bits.random_raw((m + 1) // 2) if signs else None
    if lib is not None:
        sigma = np.empty(m) if signs else None
        lib.egta_draw(_address(conds), m, _address(words), _address(sigma))
        return conds, sigma
    _splitmix64_numpy(conds)
    if not signs:
        return conds, None
    halves = words.astype("<u8", copy=False).view("<u4")[:m]
    sigma = (halves >> 31).astype(np.float64)
    sigma *= 2.0
    sigma -= 1.0
    return conds, sigma


def _splitmix64_numpy(z: np.ndarray) -> None:
    """splitmix64 of each element of a uint64 array, in place."""
    z += np.uint64(_GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)


class _Unreadable(ValueError):
    """A value a reading rule refuses for its type; the JSON readers call it wrongly typed."""


def _integer(x, name: str, least: int | None = None, below: int | None = None) -> int:
    """``x`` as an int: bools, floats, None and other non-integers raise _Unreadable, and an
    integer outside [least, below) ValueError, each end checked if given, least 0 if only below is."""
    # an int skips the slow abstract-class check; bool is not type int
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, numbers.Integral)):
        raise _Unreadable(f"{name} must be an integer, not {type(x).__name__}")
    x = int(x)
    if below is not None and not (least or 0) <= x < below:
        raise ValueError(f"{name} must lie in [{least or 0}, {below}), not {x}")
    if least is not None and x < least:
        raise ValueError(f"{name} must be at least {least}, not {x}")
    return x


def _real(x, name: str, kind: str) -> float:
    """``x`` as a float, when it is a Python or numpy real number in the range
    that ``kind`` names; bools, NaN and anything else raise ValueError."""
    # a float or an int skips the slow abstract-class check; bool is neither type
    if type(x) is not float:
        if type(x) is not int and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
            raise _Unreadable(f"{name} must be a real number, not {type(x).__name__}")
        try:
            x = float(x)
        except OverflowError:
            raise ValueError(f"{name} must be {kind}, not a number past the float range") from None
    if not _REAL_RANGES[kind](x):
        raise ValueError(f"{name} must be {kind}, not {x}")
    return x


def _items(x, name: str, length: int | None = None) -> tuple:
    """The items of ``x`` as a tuple: _Unreadable unless ``x`` is iterable, ValueError unless it
    holds ``length`` items, if given."""
    try:
        items = tuple(x)
    except TypeError:
        raise _Unreadable(f"{name} must be a sequence, not {type(x).__name__}") from None
    if length is not None and len(items) != length:
        raise ValueError(f"{name} must have length {length}, not {len(items)}")
    return items


def _uint64(x, name: str) -> np.ndarray | int:
    """The integers of ``x`` taken mod 2^64, whatever their sign: an int for
    a Python or numpy integer, else a C-contiguous uint64 array (``x``
    itself when it is one). A sequence is read item by item by ``_integer``
    (numpy would infer float64 for ints past 2^63), so floats and bools
    raise ValueError, as do arrays of any dtype but an integer one."""
    if type(x) is int:
        return x & _MASK64
    if isinstance(x, np.ndarray):
        if x.dtype.kind not in "iu":
            raise ValueError(f"{name} takes integer arrays and ints, not {x.dtype}")
        return np.asarray(x, dtype=np.uint64, order="C")
    items = np.array(x, dtype=object)
    try:
        ints = [_integer(item, name) & _MASK64 for item in items.flat]
    except ValueError as error:
        raise ValueError(f"{name} takes integer arrays and ints: {error}") from None
    return ints[0] if items.ndim == 0 else np.array(ints, dtype=np.uint64).reshape(items.shape)


def _generator(seed) -> np.random.Generator:
    """numpy's PCG64 generator of ``seed``, an integer taken mod 2^64."""
    return np.random.Generator(np.random.PCG64(_integer(seed, "seed") & _MASK64))


def mix(*parts: int) -> int:
    """Hash an ordered tuple of integers into a single 64-bit value.

    Used to derive child seeds, e.g. ``mix(master_seed, replication)``.
    Strings may be passed for labels; they are folded in bytewise. Other
    parts follow ``splitmix64``'s rule for integers: ints of any sign are
    taken mod 2^64, and floats, bools and anything else raise ValueError.
    """
    h = _GOLDEN
    for part in parts:
        if isinstance(part, str):
            for b in part.encode("utf-8"):
                h = splitmix64(h ^ b)
        else:
            z = _uint64(part, "mix")
            if isinstance(z, np.ndarray):
                raise ValueError(f"mix takes ints and strings, not an array of shape {z.shape}")
            h = splitmix64(h ^ z)
    return h


def hash_uniform(
    cond_seeds: np.ndarray,
    keys: np.ndarray,
    widths: np.ndarray,
    base: np.ndarray,
    out: np.ndarray,
    sums: np.ndarray,
) -> np.ndarray:
    """A tile of utilities, base plus F noise factors, written into ``out``,
    with each row's sum added onto ``sums``.

    ``cond_seeds`` is [m], ``keys`` one row of n keys per factor ([F, n]),
    ``widths`` [F] and ``base`` [n]; ``out``, a writable C-contiguous float64
    [n, m] array, is returned. out[i, j] starts at base[i], and each factor f
    in order adds (u - 0.5) * widths[f] onto it, rounded step by step, where
    u is the variate of (keys[f, i], cond_seeds[j]): the top 53 bits of
    splitmix64(splitmix64(key) + cond), centred in its bin, in [2^-54, 1].
    The condition seeds arrive finalized with splitmix64, by gs's draw or by
    ``draw_conditions``, so only the keys are hashed here. Seeds and keys
    follow ``splitmix64``'s rule for integers. ``sums``, a writable C-contiguous float64 [n] array, gets
    ``sums += out.sum(axis=1)``; the compiled kernel sums each leaf of
    numpy's pairwise summation while it is in cache, and numpy sums row
    chunks of at most _CHUNK_ELEMS samples as it writes them. Only F = 1
    runs compiled: F = 0 copies the base and F >= 2 applies the factors in
    numpy, which gives the compiled kernel's bits.
    """
    conds = _uint64(cond_seeds, "cond_seeds")
    keys = _uint64(keys, "keys")
    widths = np.ascontiguousarray(widths, dtype=np.float64)
    base = np.ascontiguousarray(base, dtype=np.float64)
    if np.ndim(conds) != 1 or np.ndim(keys) != 2 or widths.shape != keys.shape[:1] or base.shape != keys.shape[1:]:
        raise ValueError("hash_uniform takes cond_seeds [m], keys [F, n], widths [F] and base [n]")
    _check_buffer(out, "out", base.shape + conds.shape)
    _check_buffer(sums, "sums", base.shape)
    lib = _kernel() if widths.size == 1 else None
    if lib is None:
        # in row chunks, so the grid temporaries stay small; row sums never
        # cross a row, so the chunks leave every bit unchanged
        rows = max(1, _CHUNK_ELEMS // max(1, conds.size))
        for r0 in range(0, base.size, rows):
            chunk = slice(r0, r0 + rows)
            tile = out[chunk]
            tile[...] = base[chunk, None]
            for row, width in zip(keys[:, chunk], widths):
                u = _hash_uniform_numpy(conds, row)
                u -= 0.5
                u *= width
                tile += u
            with np.errstate(over="ignore"):  # the compiled sum overflows to inf silently too
                sums[chunk] += tile.sum(axis=1)
        return out
    lib.egta_noise(
        _address(conds), conds.size, _address(keys), base.size, widths[0],
        _address(base), _address(out), _address(sums),
    )
    return out


def _check_buffer(a, name: str, shape: tuple[int, ...]) -> None:
    """Refuse anything but a writable C-contiguous float64 array of ``shape``
    before a pointer to it is passed."""
    if not (
        isinstance(a, np.ndarray)
        and a.dtype == np.float64
        and a.shape == shape
        and a.flags.c_contiguous
        and a.flags.writeable
    ):
        raise ValueError(f"{name} must be a writable C-contiguous float64 array of shape {shape}")


def _address(a: np.ndarray | None) -> int | None:
    """Where a C-contiguous array's data starts (None for None, or if empty:
    it is never read). ``a.ctypes.data`` builds an object on every use,
    which costs more than hashing a small tile, so writable arrays use the
    buffer protocol."""
    if a is None or not a.size:
        return None
    if a.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


def _hash_uniform_numpy(conds: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The variates u of ``keys`` [n] and ``conds`` [m] in numpy, [n, m]."""
    z = splitmix64(keys)[:, None] + conds[None, :]
    _splitmix64_numpy(z)
    z >>= np.uint64(11)
    out = z.astype(np.float64)
    out *= _INV53
    out += _HALF_BIN
    return out


# The same arithmetic as _hash_uniform_numpy and hash_uniform's noise step.
# The 53-bit integer converts to double exactly, and the scale, the offset,
# the -0.5, the width and the add are separately rounded steps, as in numpy,
# which -ffp-contract=off keeps from being fused; IEEE addition commutes.
# Each row's sum follows numpy's pairwise summation, leaf by leaf. The loop
# takes exactly one factor; hash_uniform runs tiles of none or several in
# numpy.
_C_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>

/* gcc prefers 256-bit vectors even where 512-bit ones exist; the hash's
   64-bit multiplies run about a quarter faster in the wider ones */
#ifdef __AVX512F__
#pragma GCC target("prefer-vector-width=512")
#endif

static inline uint64_t splitmix64(uint64_t z) {
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static inline double noise(uint64_t key, uint64_t cond, double width) {
    uint64_t z = splitmix64(key + cond);
    return ((double)(int64_t)(z >> 11) * 0x1p-53 + 0x1p-54 - 0.5) * width;
}

/* row[j] = base + the noise of (key, conds[j], width), for j < m */
static inline void pass(double *restrict row, const uint64_t *restrict conds, size_t m,
                        uint64_t key, double width, double base) {
    for (size_t j = 0; j < m; j++)
        row[j] = noise(key, conds[j], width) + base;
}

/* numpy's pairwise sum of a[0..n), n <= 128: in order from 0. below 8
   elements, else in eight accumulators and then the tail */
static double leaf_sum(const double *a, size_t n) {
    double res = 0.;
    if (n < 8) {
        for (size_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    double r[8];
    for (int k = 0; k < 8; k++)
        r[k] = a[k];
    size_t i = 8;
    for (; i < n - n % 8; i += 8)
        for (int k = 0; k < 8; k++)
            r[k] += a[i + k];
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += a[i];
    return res;
}

/* row[0..m), written one leaf of numpy's pairwise sum at a time and summed
   while the leaf is in cache; returns the row's sum */
static double last_pass(double *row, const uint64_t *conds, size_t m,
                        uint64_t key, double width, double base) {
    if (m <= 128) {
        pass(row, conds, m, key, width, base);
        return leaf_sum(row, m);
    }
    size_t half = m / 2 - m / 2 % 8;
    double left = last_pass(row, conds, half, key, width, base);
    return left + last_pass(row + half, conds + half, m - half, key, width, base);
}

/* out[i][j] = base[i] + the noise of keys[i] of one factor of this width,
   and sums[i] += 0.0 + the pairwise sum of out[i], as numpy's row sum */
void egta_noise(const uint64_t *restrict conds, size_t m,
                const uint64_t *restrict keys, size_t n, double width,
                const double *restrict base, double *restrict out, double *restrict sums) {
    for (size_t i = 0; i < n; i++)
        sums[i] += 0.0 + last_pass(out + i * m, conds, m, splitmix64(keys[i]), width, base[i]);
}

/* numpy's SeedSequence hash (numpy/random/bit_generator.pyx): hashmix
   and mix, with their constants */
static uint32_t seed_hashmix(uint32_t value, uint32_t *hash_const) {
    value ^= *hash_const;
    *hash_const *= 0x931e8875u;
    value *= *hash_const;
    return value ^ value >> 16;
}

static uint32_t seed_mix(uint32_t x, uint32_t y) {
    uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    return result ^ result >> 16;
}

/* state += numpy's SeedSequence(seed).generate_state(4, np.uint64), the
   words a PCG64 of this seed is seeded from: the seed's little-endian
   32-bit words, two and then zeros (numpy's one word for a seed below 2^32
   mixes the same), hashed into a pool of four words, mixed, and hashed
   out into eight, read in little-endian pairs */
void egta_seed_state(uint64_t seed, uint64_t *restrict state) {
    uint32_t pool[4], a = 0x43b0d7e5u, b = 0x8b51f9ddu;
    for (int i = 0; i < 4; i++)
        pool[i] = seed_hashmix(i < 2 ? (uint32_t)(seed >> 32 * i) : 0, &a);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = seed_mix(pool[dst], seed_hashmix(pool[src], &a));
    for (int i = 0; i < 8; i++) {
        uint32_t value = pool[i % 4] ^ b;
        b *= 0x58f38dedu;
        value *= b;
        state[i / 2] += (uint64_t)(value ^ value >> 16) << i % 2 * 32;
    }
}

void egta_splitmix64(uint64_t *z, size_t n) {
    for (size_t i = 0; i < n; i++)
        z[i] = splitmix64(z[i]);
}

/* gs's draw: conds[0..m) become their splitmix64, and unless signs is
   NULL, sign j < m is +1.0 where bit 31 of the j-th 32-bit half of words
   is set and -1.0 where it is not, halves read low first as on a
   little-endian host: bit 31 and then bit 63 of each word. Each sign is
   written as the bits of a double, those of -1.0 with the sign bit cleared
   where the bit is set */
void egta_draw(uint64_t *restrict conds, size_t m, const uint64_t *restrict words,
               uint64_t *restrict signs) {
    egta_splitmix64(conds, m);
    if (!signs)
        return;
    const uint64_t minus_one = 0xBFF0000000000000ULL, sign = 1ULL << 63;
    for (size_t i = 0; i < m / 2; i++) {
        signs[2 * i] = minus_one ^ (words[i] << 32 & sign);
        signs[2 * i + 1] = minus_one ^ (words[i] & sign);
    }
    if (m % 2)
        signs[m - 1] = minus_one ^ (words[m / 2] << 32 & sign);
}
"""
# never -ffast-math: it licenses rewrites that change the bits
_C_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")


def _cpu_signature() -> str:
    """The host's architecture and, where readable, its CPU feature flags
    (the first ``flags`` line of /proc/cpuinfo on x86, ``Features`` on
    aarch64), so a cache shared between hosts never loads another host's
    build."""
    try:
        with open("/proc/cpuinfo") as fh:
            flags = next((line for line in fh if line.startswith(("flags", "Features"))), "")
    except OSError:
        flags = ""
    return platform.machine() + "\n" + flags


def _kernel_path(cache_dir: Path) -> Path:
    """Where the build of this source, these flags and this CPU is cached."""
    tag = "\0".join((_C_SOURCE, *_C_FLAGS, _cpu_signature()))
    return cache_dir / f"hash_uniform-{hashlib.sha256(tag.encode()).hexdigest()[:32]}.so"


def _load_kernel(cache_dir: Path, compiler: str = "gcc"):
    """The compiled library from ``cache_dir``, built there first if absent
    or if the cached file fails to load; None, with a RuntimeWarning that
    says why, when it cannot be built or loaded."""
    path = _kernel_path(cache_dir)
    if path.exists():
        try:
            return _bind(ctypes.CDLL(str(path)))
        except OSError:
            pass  # a corrupt or truncated file: build it again
    if shutil.which(compiler) is None:
        return _fallback(f"the compiler {compiler!r} is not on the PATH")
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        # concurrent builders each write their own file and rename it into
        # place; the rename is atomic, so no reader sees a partial one
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=path.stem, suffix=".tmp")
        os.close(fd)
    except OSError as error:
        return _fallback(f"the cache directory {cache_dir} cannot be written ({error})")
    try:
        subprocess.run(
            [compiler, *_C_FLAGS, "-x", "c", "-", "-o", tmp],
            input=_C_SOURCE, text=True, capture_output=True, check=True,
        )
        os.replace(tmp, path)
    except (OSError, subprocess.CalledProcessError) as error:
        return _fallback(f"building with {compiler!r} failed ({error})")
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    try:
        return _bind(ctypes.CDLL(str(path)))
    except OSError as error:
        return _fallback(f"the library {path} does not load ({error})")


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """``lib`` with the argument and result types of its functions."""
    pointer, size = ctypes.c_void_p, ctypes.c_size_t
    lib.egta_noise.argtypes = [pointer, size, pointer, size, ctypes.c_double, pointer, pointer, pointer]
    lib.egta_noise.restype = None
    lib.egta_splitmix64.argtypes = [pointer, size]
    lib.egta_splitmix64.restype = None
    lib.egta_draw.argtypes = [pointer, size, pointer, pointer]
    lib.egta_seed_state.argtypes = [ctypes.c_uint64, pointer]
    lib.egta_seed_state.restype = None
    lib.egta_draw.restype = None
    return lib


def _fallback(reason: str) -> None:
    warnings.warn(
        f"egta samples with numpy, which gives the same bits more slowly: {reason}",
        RuntimeWarning,
    )


@functools.cache
def _kernel():
    """The process's compiled library, loaded on first use; None when the
    numpy code must run instead."""
    cache_home = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return _load_kernel(Path(cache_home) / "egta")
