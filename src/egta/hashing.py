"""Counter-based 64-bit hashing for reproducible random streams.

Every source of randomness in this package that must be stable across
processes, platforms, and execution order (simulator noise, per-replication
seeds) is derived by hashing integer counters with splitmix64 rather than by
consuming a shared stateful RNG.

``hash_uniform``, the noise kernel behind every simulator sample, runs as a
small C loop when one can be built: the first call compiles ``_C_SOURCE``
with gcc into ``$XDG_CACHE_HOME/egta`` (default ``~/.cache/egta``), under a
name hashed from the source, the flags and the host CPU, and loads it with
ctypes; a cached library that fails to load is built again once. The loop
also applies the simulators' noise step (u - 0.5) * w + add and writes the
finished utilities in place, into the caller's buffer. It does the same
integer operations and the same separately rounded floating-point steps as
the numpy code, built without floating-point contraction, so both give
identical bits. ``splitmix64`` over a uint64 array runs in the same library.
Without a compiler, a writable cache directory or a loadable library, the
numpy code runs instead, and a RuntimeWarning says why once per process; it
is also the reference the tests compare against.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
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

# Scaling of a 53-bit integer into [0, 1); the +2^-54 offset used below
# centers each bin so the result is symmetric around 1/2 and never 0 or 1.
_INV53 = 2.0**-53
_HALF_BIN = 2.0**-54


def splitmix64(x: np.ndarray | int) -> np.ndarray | int:
    """splitmix64 finalizer. Accepts uint64 arrays or Python ints (mod 2^64)."""
    if isinstance(x, np.ndarray):
        lib = _kernel() if x.dtype == np.uint64 else None
        if lib is not None:
            src = np.ascontiguousarray(x)
            out = np.empty(x.shape, dtype=np.uint64)
            lib.egta_splitmix64(src.ctypes.data, src.size, out.ctypes.data)
            return out
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


def hash_uniform(
    cond_seeds: np.ndarray,
    keys: np.ndarray,
    *,
    out: np.ndarray | None = None,
    width: float | None = None,
    base: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform (0, 1) variates for every (key, condition) pair.

    ``cond_seeds`` has shape [m], ``keys`` shape [n]; the result has shape
    [n, m]. The condition seeds arrive finalized (``draw_conditions`` applies
    splitmix64 once, when it draws them), so they are not hashed again here;
    only the n keys are. The pairing then needs one more finalizer pass over
    the n*m grid. For a raw condition seed ``cond`` each value is the top 53
    bits of splitmix64(splitmix64(key) + splitmix64(cond)), scaled to the
    centre of its bin of width 2^-53, so it lies in the open (0, 1). The
    compiled kernel computes this when it could be built, and
    ``_hash_uniform_numpy`` otherwise; the bits are the same.

    With a ``width``, each variate u becomes the noise step
    (u - 0.5) * width + add, rounded step by step in that order, where add
    is ``base[i]`` (one value per key) when ``base`` is given and
    ``out[i, j]`` itself otherwise, so later noise factors accumulate onto
    the first. The result is written into ``out`` when it is given, which
    must be a writable C-contiguous float64 array of shape [n, m], and
    ``out`` is returned.
    """
    conds = np.ascontiguousarray(cond_seeds, dtype=np.uint64)
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    if conds.ndim != 1 or keys.ndim != 1:
        raise ValueError("cond_seeds and keys must be one-dimensional")
    shape = (keys.size, conds.size)
    if out is not None and not (
        isinstance(out, np.ndarray)
        and out.dtype == np.float64
        and out.shape == shape
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise ValueError(f"out must be a writable C-contiguous float64 array of shape {shape}")
    if width is None and base is not None:
        raise ValueError("base is added to the noise step, which needs a width")
    if width is not None and base is None and out is None:
        raise ValueError("noise accumulates onto out, which must be given")
    if base is not None:
        base = np.ascontiguousarray(base, dtype=np.float64)
        if base.shape != (keys.size,):
            raise ValueError("base must hold one value per key")
    lib = _kernel()
    if lib is None:
        u = _hash_uniform_numpy(conds, keys)
        if width is not None:
            u -= 0.5
            u *= width
            u += out if base is None else base[:, None]
        if out is None:
            return u
        out[...] = u
        return out
    if out is None:
        out = np.empty(shape)
    mode = 0 if width is None else 1 if base is not None else 2
    lib.egta_hash_uniform(
        conds.ctypes.data, conds.size, keys.ctypes.data, keys.size, out.ctypes.data,
        mode, 0.0 if width is None else float(width), None if base is None else base.ctypes.data,
    )
    return out


def _hash_uniform_numpy(conds: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``hash_uniform`` in numpy, with in-place ops over the n*m grid."""
    z = splitmix64(keys)[:, None] + conds[None, :]
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


# The same arithmetic as _hash_uniform_numpy and hash_uniform's noise step.
# The 53-bit integer converts to double exactly, and the scale, the offset,
# the -0.5, the width and the add are separately rounded steps, as in numpy,
# which -ffp-contract=off keeps from being fused.
_C_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>

static inline uint64_t splitmix64(uint64_t z) {
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static inline double uniform(uint64_t key_hash, uint64_t cond) {
    uint64_t z = splitmix64(key_hash + cond);
    return (double)(int64_t)(z >> 11) * 0x1p-53 + 0x1p-54;
}

/* out[i][j] is the uniform u of (keys[i], conds[j]) in mode 0, and the noise
   step (u - 0.5) * width + add in modes 1 (add = base[i]) and 2
   (add = out[i][j]) */
void egta_hash_uniform(const uint64_t *restrict conds, size_t m,
                       const uint64_t *restrict keys, size_t n,
                       double *restrict out, int mode, double width,
                       const double *restrict base) {
    for (size_t i = 0; i < n; i++) {
        uint64_t key_hash = splitmix64(keys[i]);
        double *restrict row = out + i * m;
        if (mode == 0) {
            for (size_t j = 0; j < m; j++)
                row[j] = uniform(key_hash, conds[j]);
        } else if (mode == 1) {
            double add = base[i];
            for (size_t j = 0; j < m; j++)
                row[j] = (uniform(key_hash, conds[j]) - 0.5) * width + add;
        } else {
            for (size_t j = 0; j < m; j++)
                row[j] = (uniform(key_hash, conds[j]) - 0.5) * width + row[j];
        }
    }
}

void egta_splitmix64(const uint64_t *in, size_t n, uint64_t *out) {
    for (size_t i = 0; i < n; i++)
        out[i] = splitmix64(in[i]);
}
"""
# never -ffast-math: it licenses rewrites that change the bits
_C_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")


def _cpu_signature() -> str:
    """The host's architecture and, where readable, its CPU feature flags,
    so a cache shared between hosts never loads another host's build."""
    try:
        with open("/proc/cpuinfo") as fh:
            flags = next((line for line in fh if line.startswith("flags")), "")
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
    """``lib`` with the argument and result types of its two functions."""
    lib.egta_hash_uniform.argtypes = [
        ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p, ctypes.c_size_t,
        ctypes.c_void_p, ctypes.c_int, ctypes.c_double, ctypes.c_void_p,
    ]
    lib.egta_hash_uniform.restype = None
    lib.egta_splitmix64.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p]
    lib.egta_splitmix64.restype = None
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
