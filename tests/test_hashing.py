import ctypes
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from egta import hashing
from egta.algorithms import gs
from egta.bounds import era_eps
from egta.games import IndexSet
from egta.hashing import hash_uniform, mix, splitmix64
from egta.simulators import draw_conditions, gen_rg, noisy_sim

import _oracles as oracle

_MASK = (1 << 64) - 1
SRC = Path(__file__).resolve().parent.parent / "src"


def reference_splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def inverse_splitmix64(z: int) -> int:
    """The x with reference_splitmix64(x) == z: each xor-shift and each
    multiplication by an odd constant is undone in reverse order."""

    def unshift(z, s):  # undoes z ^ (z >> s); each round fixes s more bits
        x = z
        for _ in range(64 // s):
            x = z ^ (x >> s)
        return x

    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK
    return (unshift(z, 30) - 0x9E3779B97F4A7C15) & _MASK


def variates(conds, keys):
    """hash_uniform's plain variates u of one row of keys: one factor of
    width 1 on a base of 1/2 gives (u - 0.5) * 1 + 0.5, which is u exactly,
    because every u is a multiple of 2^-54 in [2^-54, 1]."""
    keys = np.asarray(keys)
    out = np.empty((keys.size, len(conds)))
    return hash_uniform(conds, keys[None], [1.0], np.full(keys.size, 0.5), out, np.zeros(keys.size))


def sequential(conds, keys, widths, base):
    """hash_uniform's sum, one factor after another in numpy: each factor's
    (u - 0.5) * w is added onto the base and the factors before it."""
    conds = np.asarray(conds, dtype=np.uint64)
    total = np.repeat(np.asarray(base, dtype=np.float64)[:, None], conds.size, axis=1)
    for row, width in zip(np.asarray(keys, dtype=np.uint64), widths):
        total = total + (hashing._hash_uniform_numpy(conds, row) - 0.5) * width
    return total


def test_splitmix64_known_answer():
    # first output from a zero seed, a widely published check value
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_splitmix64_array_matches_scalar_reference():
    xs = np.array([0, 1, 2**63, _MASK, 123456789], dtype=np.uint64)
    got = splitmix64(xs)
    want = [reference_splitmix64(int(x)) for x in xs]
    assert [int(v) for v in got] == want
    assert splitmix64(int(xs[2])) == want[2]


def test_splitmix64_refuses_non_integer_arrays():
    for x in (np.arange(3.0), np.array([True]), np.array(["1"]), 1.5, True, "1", [1.5], [[1], [1, 2]]):
        with pytest.raises(ValueError, match="integer arrays"):
            splitmix64(x)


def test_hash_uniform_range_and_mean():
    u = variates(np.arange(200, dtype=np.uint64), np.arange(100, dtype=np.uint64))
    assert np.all(u >= 2.0**-54) and np.all(u <= 1.0)
    assert abs(u.mean() - 0.5) < 0.01


def test_variate_range_endpoints(monkeypatch):
    # k 2^-53 + 2^-54 rounds to even, a tie for k >= 2^52: k = 2^52 gives
    # exactly 1/2 and k = 2^53 - 1 exactly 1. Each condition below is made
    # by inverting splitmix64, so that it hashes with the key to k << 11.
    key = 7
    ks = [0, 2**52 - 1, 2**52, 2**53 - 1]
    hashed = [inverse_splitmix64(k << 11) for k in ks]
    assert [reference_splitmix64(z) >> 11 for z in hashed] == ks
    conds = np.array([(z - reference_splitmix64(key)) & _MASK for z in hashed], dtype=np.uint64)
    want = [2.0**-54, 0.5 - 2.0**-54, 0.5, 1.0]
    assert hashing._hash_uniform_numpy(conds, np.array([key], dtype=np.uint64)).tolist() == [want]
    for kernel in (hashing._kernel(), None):
        monkeypatch.setattr(hashing, "_kernel", lambda: kernel)
        assert variates(conds, [key]).tolist() == [want]
        # so noise of width d lies in (-d/2, d/2], and reaches d/2
        noise = hash_uniform(conds, [[key]], [3.0], [0.0], np.empty((1, 4)), np.zeros(1))
        assert noise.min() > -1.5 and noise.max() == 1.5


def test_hash_uniform_grid_consistency():
    conds = np.array([5, 6, 7], dtype=np.uint64)
    keys = np.array([1, 2], dtype=np.uint64)
    grid = variates(conds, keys)
    assert grid.shape == (2, 3)
    # each cell only depends on its own (key, condition) pair
    assert grid[1, 2] == variates(conds[2:], keys[1:])[0, 0]


def test_hash_uniform_of_drawn_conditions_matches_reference():
    # draw_conditions finalizes each seed once and hash_uniform does not hash
    # it again, so every variate is F(splitmix64(key) + splitmix64(raw)) for
    # the raw seed the generator drew
    keys = np.array([0, 1, 2**63, _MASK, 987654321], dtype=np.uint64)
    got = variates(draw_conditions(np.random.default_rng(3), 40), keys)
    raw = np.random.default_rng(3).integers(0, 2**64, size=40, dtype=np.uint64)
    for i, key in enumerate(keys):
        for j, cond in enumerate(raw):
            z = reference_splitmix64(
                (reference_splitmix64(int(key)) + reference_splitmix64(int(cond))) & _MASK
            )
            assert got[i, j] == (z >> 11) * 2.0**-53 + 2.0**-54


def test_mix_order_and_label_sensitivity():
    assert mix(1, 2) != mix(2, 1)
    assert mix(1, "a") != mix(1, "b")
    assert mix(7, "run", 3) == mix(7, "run", 3)


def test_mix_reads_parts_by_the_integer_rule():
    # ints of any sign and numpy integers keep their bits mod 2^64
    assert mix(-1) == mix(_MASK) == mix(np.int64(-1)) == mix(np.uint64(_MASK)) == mix(2**64 + _MASK)
    assert mix(5, np.int32(3)) == mix(5, 3)
    # floats and bools are refused, not truncated to an int
    for part in (1.5, 1.0, True, np.float64(2.0), np.bool_(False), None, [1], np.arange(2)):
        with pytest.raises(ValueError, match="mix takes"):
            mix(7, part)


needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc is not installed")


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The compiled kernel, built into a fresh cache directory."""
    if shutil.which("gcc") is None:
        pytest.skip("gcc is not installed")
    kernel = hashing._load_kernel(tmp_path_factory.mktemp("cache"))
    assert kernel is not None, "gcc is installed but the kernel did not build or load"
    return kernel


def _compiled_and_numpy(monkeypatch, kernel, run):
    """``run()`` with the compiled kernel, then on the numpy fallback."""
    monkeypatch.setattr(hashing, "_kernel", lambda: kernel)
    got = run()
    monkeypatch.setattr(hashing, "_kernel", lambda: None)
    return got, run()


def _fake_compiler(directory, body):
    """An executable script that takes the compiler's arguments and runs
    ``body`` with ``out`` set to the path after -o."""
    script = directory / "fake-cc"
    script.write_text(
        f"#!{sys.executable}\n"
        "import shutil, sys, time\n"
        "sys.stdin.read()\n"
        "out = sys.argv[sys.argv.index('-o') + 1]\n" + body + "\n"
    )
    script.chmod(0o755)
    return str(script)


@pytest.mark.parametrize("n, m", [(1, 1), (1, 100_001), (33, 1953), (0, 5), (5, 0)])
def test_compiled_kernel_bit_identical(compiled, monkeypatch, n, m):
    rng = np.random.default_rng(n * 1_000_003 + m)
    conds = rng.integers(0, 2**64, size=m, dtype=np.uint64)
    keys = rng.integers(0, 2**64, size=(3, n), dtype=np.uint64)
    base = rng.uniform(-5.0, 5.0, size=n)
    got, want = _compiled_and_numpy(monkeypatch, compiled, lambda: variates(conds, keys[0]))
    assert got.shape == want.shape == (n, m) and got.dtype == np.float64
    assert np.array_equal(got, want)
    assert np.array_equal(got, hashing._hash_uniform_numpy(conds, keys[0]))
    # out starts at the base and each of F = 0..3 factors adds its noise
    for widths in ([], [2.0], [0.3, 2.0], [2.0, 0.3, 1e-3]):
        factors = keys[: len(widths)]

        def run():
            out = np.full((n, m), np.nan)
            assert hash_uniform(conds, factors, widths, base, out, np.zeros(n)) is out
            return out

        got, want = _compiled_and_numpy(monkeypatch, compiled, run)
        assert np.array_equal(got, want), widths
        assert np.array_equal(got, sequential(conds, factors, widths, base)), widths


def bits(a):
    """An array's float64 bits, so that -0.0 and 0.0 differ."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("n, m", [(1, 1), (1, 100_001), (33, 1953), (0, 5), (5, 0)])
def test_compiled_row_sums_bit_identical(compiled, monkeypatch, n, m):
    # sums += out.sum(axis=1) on both paths, and that is 0.0 plus numpy's
    # pairwise sum of each row; -0.0 bases and zero widths make rows of
    # signed zeros, whose sums only the leading 0.0 + turns to +0.0
    rng = np.random.default_rng(n * 1_000_003 + m + 1)
    conds = rng.integers(0, 2**64, size=m, dtype=np.uint64)
    keys = rng.integers(0, 2**64, size=(3, n), dtype=np.uint64)
    for base in (rng.uniform(-5.0, 5.0, size=n), np.full(n, -0.0)):
        for start in (rng.normal(0.0, 100.0, size=n), np.full(n, -0.0)):
            for widths in ([], [2.0], [0.3, 2.0], [2.0, 0.3, 1e-3], [0.0], [0.0, 0.0, 0.0]):
                factors = keys[: len(widths)]

                def run():
                    out, sums = np.full((n, m), np.nan), start.copy()
                    assert hash_uniform(conds, factors, widths, base, out, sums) is out
                    return out, sums

                (got_out, got), (want_out, want) = _compiled_and_numpy(monkeypatch, compiled, run)
                assert np.array_equal(bits(got_out), bits(want_out)), widths
                assert np.array_equal(bits(got), bits(want)), widths
                pairwise = [s + (0.0 + oracle.pairwise_sum(row)) for s, row in zip(start.tolist(), want_out.tolist())]
                assert np.array_equal(bits(got), bits(pairwise)), widths


@pytest.mark.parametrize("n, m", [(33, 1953), (5041, 13), (288, 6944)])
def test_fallback_row_chunks_bit_identical(compiled, monkeypatch, n, m):
    # the numpy fallback writes and sums out in row chunks of at most
    # _CHUNK_ELEMS samples: one row at a time, ragged chunks (50 000 leaves
    # a short last chunk on every shape here) or one chunk; each gives the
    # out and sums of one call at the default chunk size, which is the
    # compiled kernel's at F = 1
    rng = np.random.default_rng(n * 1_000_003 + m + 2)
    conds = rng.integers(0, 2**64, size=m, dtype=np.uint64)
    keys = rng.integers(0, 2**64, size=(3, n), dtype=np.uint64)
    base = rng.uniform(-5.0, 5.0, size=n)
    start = rng.normal(0.0, 100.0, size=n)
    hashed = []

    def counted(conds, keys, numpy=hashing._hash_uniform_numpy):
        hashed.append(keys.size)
        return numpy(conds, keys)

    monkeypatch.setattr(hashing, "_hash_uniform_numpy", counted)
    for widths in ([2.0], [2.0, 0.3, 1e-3]):
        factors = keys[: len(widths)]

        def run():
            out, sums = np.full((n, m), np.nan), start.copy()
            assert hash_uniform(conds, factors, widths, base, out, sums) is out
            return out, sums

        monkeypatch.setattr(hashing, "_kernel", lambda: compiled)
        want_out, want = run()
        monkeypatch.setattr(hashing, "_kernel", lambda: None)
        for chunk, calls in ((1, n), (50_000, -(-n // (50_000 // m))), (10**12, 1)):
            monkeypatch.setattr(hashing, "_CHUNK_ELEMS", chunk)
            hashed.clear()
            got_out, got = run()
            assert len(hashed) == calls * len(widths), chunk  # one hash per chunk and factor
            assert np.array_equal(bits(got_out), bits(want_out)), (chunk, widths)
            assert np.array_equal(bits(got), bits(want)), (chunk, widths)
        # with several factors both runs above are numpy, so the model
        # checks them: factors in order, then each row's sum
        model = sequential(conds, factors, widths, base)
        assert np.array_equal(bits(want_out), bits(model)), widths
        assert np.array_equal(bits(want), bits(start + model.sum(axis=1))), widths


def _tile_shapes():
    """Tile shapes around numpy's pairwise block (8, 128) and buffer (8192)
    sizes, the ragged shapes gs cuts, and a row wider than a tile."""
    cols = [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 255, 256, 257, 1000, 1953, 4096, 8191, 8192, 8193, 12500]
    rows = [1, 2, 3, 5, 8, 33]
    shapes = [(r, c) for r in rows for c in cols if r * c <= 70_000]
    return shapes + [(5041, 1), (5041, 13), (2048, 32), (1, 100_001)]


def test_pairwise_sum_oracle_matches_numpy():
    # the compiled row sums copy numpy's reduction; if a numpy upgrade
    # changes it, this fails by name before the kernel tests do. Magnitudes
    # spread over 16 decades make every summation order round differently
    rng = np.random.default_rng(2024)
    reordered = 0
    for r, c in _tile_shapes():
        tile = rng.normal(size=(r, c)) * 10.0 ** rng.uniform(-8, 8, size=(r, c))
        rows = tile.tolist()
        want = [0.0 + oracle.pairwise_sum(row) for row in rows]
        assert np.array_equal(bits(tile.sum(axis=1)), bits(want)), (r, c)
        reordered += sum(math.fsum(row) != total for row, total in zip(rows, want))
    assert reordered > 0  # so the comparison can fail


def test_compiled_kernel_strided_and_extreme_inputs(compiled, monkeypatch):
    extremes = np.array([0, 1, 2**63, _MASK], dtype=np.uint64)
    conds = np.concatenate([extremes, np.arange(2**64 - 300, 2**64 - 1, dtype=np.uint64)])
    keys = np.concatenate([extremes, np.arange(50, dtype=np.uint64) * np.uint64(0x9E3779B9)])
    for c, k in [(conds, keys), (conds[::3], keys[1::2]), (conds[::-1], keys[::-7])]:
        got, want = _compiled_and_numpy(monkeypatch, compiled, lambda: variates(c, k))
        assert np.array_equal(got, want)
        assert np.array_equal(want, hashing._hash_uniform_numpy(c, k))
    # read-only inputs take the other way to their address
    frozen = keys.copy()
    frozen.flags.writeable = False
    got, want = _compiled_and_numpy(monkeypatch, compiled, lambda: variates(conds, frozen))
    assert np.array_equal(got, want) and np.array_equal(got, hashing._hash_uniform_numpy(conds, keys))
    # strided factor tables, widths and bases are read like contiguous ones
    table = np.stack([keys, keys[::-1], keys * np.uint64(3)])[::2, ::3]
    widths, base = np.array([0.5, 9.0, 2.0])[::2], np.linspace(-4.0, 4.0, 2 * table.shape[1])[::2]
    got, want = _compiled_and_numpy(
        monkeypatch, compiled, lambda: hash_uniform(conds, table, widths, base, np.empty((base.size, conds.size)), np.zeros(base.size))
    )
    assert np.array_equal(got, want)
    assert np.array_equal(got, sequential(conds, table, widths, base))
    # Python ints and signed arrays are taken mod 2^64 on both paths
    got, want = _compiled_and_numpy(
        monkeypatch,
        compiled,
        lambda: hash_uniform([0, 2**63, _MASK], np.arange(-3, 3)[None], [1.0], np.zeros(6), np.empty((6, 3)), np.zeros(6)),
    )
    assert np.array_equal(got, want)


def test_compiled_noise_step_extreme_values(compiled, monkeypatch):
    rng = np.random.default_rng(12)
    conds = rng.integers(0, 2**64, size=257, dtype=np.uint64)
    bases = np.array([-1e300, -3.5, -0.0, 0.0, 5e-324, 1e-300, 2.5, 1e300, 1e308])
    keys = rng.integers(0, 2**64, size=(3, bases.size), dtype=np.uint64)
    for width in (1e-300, 1e-150, 1e-10, 1.0, 3.7, 1e10, 1e150, 1e300):
        for widths in ([width], [width, 3.7], [1e-300, width, 1e300]):
            factors = keys[: len(widths)]
            got, want = _compiled_and_numpy(
                monkeypatch,
                compiled,
                lambda: hash_uniform(conds, factors, widths, bases, np.empty((bases.size, conds.size)), np.zeros(bases.size)),
            )
            assert np.array_equal(got, want), widths
            assert np.array_equal(got, sequential(conds, factors, widths, bases)), widths


def test_hash_uniform_refuses_bad_out(monkeypatch):
    # refused before the kernel is looked up, so no pointer is ever passed
    monkeypatch.setattr(hashing, "_kernel", lambda: pytest.fail("the kernel was reached"))
    conds, keys, base = np.arange(6, dtype=np.uint64), np.arange(8, dtype=np.uint64).reshape(2, 4), np.zeros(4)
    read_only = np.zeros((4, 6))
    read_only.flags.writeable = False
    bad = [
        None,
        np.zeros((4, 6), dtype=np.float32),
        np.zeros((4, 6), dtype=np.int64),
        np.zeros((6, 4)),
        np.zeros((4, 7)),
        np.zeros(24),
        np.zeros((4, 12))[:, ::2],
        np.zeros((6, 4)).T,
        read_only,
        [[0.0] * 6] * 4,
    ]
    for out in bad:
        for factors, widths in ((keys, [1.0, 2.0]), (keys[:0], [])):
            with pytest.raises(ValueError, match="out must be"):
                hash_uniform(conds, factors, widths, base, out, np.zeros(4))


def test_hash_uniform_refuses_bad_sums(monkeypatch):
    monkeypatch.setattr(hashing, "_kernel", lambda: pytest.fail("the kernel was reached"))
    conds, keys, base, out = np.arange(6, dtype=np.uint64), np.arange(8, dtype=np.uint64).reshape(2, 4), np.zeros(4), np.zeros((4, 6))
    read_only = np.zeros(4)
    read_only.flags.writeable = False
    bad = [None, np.zeros(4, dtype=np.float32), np.zeros(4, dtype=np.int64), np.zeros(3), np.zeros((4, 1)), np.zeros(8)[::2], read_only, [0.0] * 4]
    for sums in bad:
        with pytest.raises(ValueError, match="sums must be"):
            hash_uniform(conds, keys, [1.0, 2.0], base, out, sums)


def test_hash_uniform_refuses_bad_factors(monkeypatch):
    monkeypatch.setattr(hashing, "_kernel", lambda: pytest.fail("the kernel was reached"))
    conds, keys = np.arange(6, dtype=np.uint64), np.arange(8, dtype=np.uint64).reshape(2, 4)
    widths, base, out = np.ones(2), np.zeros(4), np.zeros((4, 6))
    bad = [
        (conds.reshape(2, 3), keys, widths, base),  # cond_seeds not [m]
        (conds, keys[0], widths[:1], base),  # keys [n], not [F, n]
        (conds, keys[None], widths, base),  # keys [1, F, n]
        (conds, keys, widths[:1], base),  # fewer widths than factors
        (conds, keys[:1], widths, base),  # more widths than factors
        (conds, keys, widths[:, None], base),  # widths [F, 1]
        (conds, keys, 1.0, base),  # one width for two factors
        (conds, keys, widths, np.zeros(3)),  # base not [n]
        (conds, keys, widths, np.zeros((4, 1))),
        (conds, keys[:0], widths[:0], np.zeros(3)),  # F = 0 still sets n
    ]
    for args in bad:
        with pytest.raises(ValueError, match=r"keys \[F, n\]"):
            hash_uniform(*args, out, np.zeros(4))
    # keys and conditions follow splitmix64's rule: floats and bools are
    # refused, not truncated, and ints of any sign are taken mod 2^64
    for args in (
        (conds, [[1.5] * 4, [2] * 4], widths, base),
        (np.arange(6.0), keys, widths, base),
        ([0.5] * 6, keys, widths, base),
        (conds, keys.astype(bool), widths, base),
        ([True] * 6, keys, widths, base),
    ):
        with pytest.raises(ValueError, match="integer arrays"):
            hash_uniform(*args, out, np.zeros(4))


def test_hash_uniform_compiles_only_one_factor(monkeypatch):
    # the kernel takes exactly one factor; with none, numpy copies the base
    # rows and adds their sums, so nothing is hashed, and with several numpy
    # applies them in order
    class Kernel:
        def egta_noise(self, *args):
            pytest.fail("the kernel was called")

        def egta_splitmix64(self, address, n):  # numpy hashes its keys here
            hashing._splitmix64_numpy(np.ctypeslib.as_array((ctypes.c_uint64 * n).from_address(address)))

    monkeypatch.setattr(hashing, "_kernel", lambda: Kernel())
    base = np.array([1.5, -0.0, 1e307, -2.25])  # 300 copies of 1e307 overflow
    out, sums = np.empty((4, 300)), np.array([0.5, 0.0, 0.0, 1.0])
    assert hash_uniform(np.arange(300), np.empty((0, 4), dtype=np.uint64), [], base, out, sums) is out
    assert np.array_equal(out, np.repeat(base[:, None], 300, axis=1))
    assert np.array_equal(sums, [0.5 + 1.5 * 300, 0.0, np.inf, 1.0 - 2.25 * 300])
    conds = np.arange(300, dtype=np.uint64)
    keys = np.arange(12, dtype=np.uint64).reshape(3, 4) * np.uint64(0x9E3779B9)
    for widths in ([2.0, 0.3], [2.0, 0.3, 1e-3]):
        factors = keys[: len(widths)]
        out, sums = np.empty((4, 300)), np.zeros(4)
        assert hash_uniform(conds, factors, widths, base, out, sums) is out
        assert np.array_equal(out, sequential(conds, factors, widths, base)), widths

    # one factor makes exactly one call, with the width as a number
    calls = []

    class Recording:
        def egta_noise(self, *args):
            calls.append(args)

    monkeypatch.setattr(hashing, "_kernel", lambda: Recording())
    hash_uniform(conds, keys[:1], [2.5], base, np.empty((4, 300)), np.zeros(4))
    assert len(calls) == 1
    assert calls[0][1] == 300 and calls[0][3:5] == (4, 2.5)


def test_hash_uniform_takes_ints_of_any_sign_mod_2_64():
    out = np.empty((1, 3))
    want = variates(np.array([_MASK, 2**63, 0], dtype=np.uint64), [_MASK - 4])
    assert np.array_equal(hash_uniform([-1, -(2**63), 2**64], [[-5]], [1.0], [0.5], out, np.zeros(1)), want)


def test_compiled_splitmix64_bit_identical(compiled, monkeypatch):
    extremes = np.array([0, 1, 2**63, _MASK], dtype=np.uint64)
    xs = np.concatenate([extremes, np.random.default_rng(5).integers(0, 2**64, size=999, dtype=np.uint64)])
    signed = np.arange(-500, 500)
    inputs = (xs, xs[::-3], xs[:1000].reshape(40, 25), xs[:0], np.array(xs[2]), signed, np.array(-1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the wrapping arithmetic warns of no overflow
        for x in inputs:
            kept = x.copy()
            got, want = _compiled_and_numpy(monkeypatch, compiled, lambda: splitmix64(x))
            assert isinstance(got, np.ndarray) and isinstance(want, np.ndarray)
            assert got.dtype == want.dtype == np.uint64 and got.shape == want.shape == x.shape
            assert np.array_equal(got, want)
            assert np.array_equal(x, kept)
    monkeypatch.setattr(hashing, "_kernel", lambda: compiled)
    assert [int(v) for v in splitmix64(extremes)] == [reference_splitmix64(int(x)) for x in extremes]
    # signed values are taken mod 2^64
    assert [int(v) for v in splitmix64(signed)] == [reference_splitmix64(int(x) & _MASK) for x in signed]


_DRAW_SEEDS = (0, 1, 12345, 2**63 + 5, 2**64 - 1)
_DRAW_SIZES = (1, 2, 3, 4, 5, 7, 8, 9, 1000, 3162, 100_001)


def test_compiled_draws_match_numpy(compiled, monkeypatch):
    # gs draws its conditions and then its 1ERA signs by random_raw on a
    # fresh PCG64, and draw_conditions its conditions from a
    # generator; with the kernel and without, they are the bits of numpy's
    # own Generator.integers draws, at odd and even sizes, so the signs'
    # last half word is covered, and draw_conditions leaves numpy's state
    for seed in _DRAW_SEEDS:
        for m in _DRAW_SIZES:
            ref = np.random.Generator(np.random.PCG64(seed))
            want_conds = splitmix64(ref.integers(0, 2**64, size=m, dtype=np.uint64))
            want_state = ref.bit_generator.state
            want_signs = ref.integers(0, 2, size=m) * 2.0 - 1.0

            def run():
                rng = np.random.Generator(np.random.PCG64(seed))
                conds = draw_conditions(rng, m)
                return conds, rng.bit_generator.state, hashing._draw(seed, m, True), hashing._draw(seed, m, False)

            for conds, state, onera, hoeffding in _compiled_and_numpy(monkeypatch, compiled, run):
                assert conds.dtype == np.uint64 and np.array_equal(conds, want_conds), (seed, m)
                assert state == want_state, (seed, m)
                for drawn in (onera[0], hoeffding[0]):
                    assert drawn.dtype == np.uint64 and np.array_equal(drawn, want_conds), (seed, m)
                assert onera[1].dtype == np.float64 and np.array_equal(onera[1], want_signs), (seed, m)
                assert hoeffding[1] is None


def test_gs_samples_numpys_draws(compiled, monkeypatch):
    # gs samples at the conditions Generator.integers draws, and under 1ERA
    # its radius is the one of the signs it draws next: r-hat is the signed
    # sum of the very block gs sampled, taken in the same BLAS call shape
    game = gen_rg(2, 2, seed=1)
    sim, idx = noisy_sim(game, 2.0), IndexSet.full(game.strategy_counts)
    calls = []
    sample_block = sim.sample_block
    sim.sample_block = lambda *args: calls.append(args) or sample_block(*args)
    for seed in _DRAW_SEEDS:
        for m in _DRAW_SIZES:
            ref = np.random.Generator(np.random.PCG64(seed))
            want_conds = splitmix64(ref.integers(0, 2**64, size=m, dtype=np.uint64))
            want_signs = ref.integers(0, 2, size=m) * 2.0 - 1.0

            def run():
                calls.clear()
                onera = gs(sim, idx, m, 0.1, sim.range_c, "1era", seed=seed)
                (conds, _, _, block, _), = calls  # one block of 8 rows
                r = float(np.abs(block @ want_signs).max() / m)
                hoeffding = gs(sim, idx, m, 0.1, sim.range_c, "hoeffding", seed=seed)
                return conds, onera.epsilon, era_eps(r, sim.range_c, m, 0.1), [call[0] for call in calls[1:]]

            for conds, got, want, hoeffding in _compiled_and_numpy(monkeypatch, compiled, run):
                assert np.array_equal(conds, want_conds), (seed, m)
                assert got == want, (seed, m)
                # every Hoeffding row tile of the one column block
                assert hoeffding and all(np.array_equal(c, want_conds) for c in hoeffding), (seed, m)


def test_pcg64_words_come_from_numpy(compiled, monkeypatch):
    # gs's words come from random_raw on numpy's own PCG64, the conditions'
    # and then the signs'. The library only computes the PCG64's seed words
    # first, and then, in one call, finalizes the conditions and turns the
    # sign words into signs, as the numpy path does without it
    raws = []

    class RecordingPCG64(np.random.PCG64):
        def random_raw(self, size=None, output=True):
            raws.append(size)
            return super().random_raw(size, output)

    class Library:
        def __init__(self):
            self.calls = []

        def __getattr__(self, name):
            self.calls.append((name, len(raws)))
            return getattr(compiled, name)

    monkeypatch.setattr(np.random, "PCG64", RecordingPCG64)
    for seed in _DRAW_SEEDS:
        for m in _DRAW_SIZES:
            for signs, sizes in ((True, [m, (m + 1) // 2]), (False, [m])):
                library = Library()
                monkeypatch.setattr(hashing, "_kernel", lambda: library)
                raws.clear()
                compiled_draw = hashing._draw(seed, m, signs)
                assert raws == sizes, (seed, m)
                assert library.calls == [("egta_seed_state", 0), ("egta_draw", len(sizes))], (seed, m)
                monkeypatch.setattr(hashing, "_kernel", lambda: None)
                raws.clear()
                numpy_draw = hashing._draw(seed, m, signs)
                assert raws == sizes, (seed, m)
                assert np.array_equal(compiled_draw[0], numpy_draw[0])
                assert signs or compiled_draw[1] is numpy_draw[1] is None
                assert not signs or np.array_equal(compiled_draw[1], numpy_draw[1])


def test_compiled_seed_state_is_numpys(compiled):
    # gs seeds its PCG64 from the library's copy of numpy's SeedSequence
    # hash, which must give numpy's four words, and so numpy's PCG64, for
    # seeds of one 32-bit word and of two, the ends of each included
    rng = np.random.default_rng(11)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    seeds += rng.integers(0, 2**64, size=500, dtype=np.uint64).tolist() + rng.integers(0, 2**32, size=500).tolist()
    for seed in seeds:
        state = np.zeros(4, dtype=np.uint64)
        compiled.egta_seed_state(seed, hashing._address(state))
        assert np.array_equal(state, np.random.SeedSequence(seed).generate_state(4, np.uint64)), seed
        assert np.random.PCG64(hashing._SeedState(state)).state == np.random.PCG64(seed).state, seed


def test_draw_conditions_keeps_the_generator_state(compiled, monkeypatch):
    # a buffered 32-bit half survives the draw of 64-bit words, so every
    # later draw is numpy's, for PCG64 and other bit generators
    makers = [
        lambda: np.random.Generator(np.random.PCG64(7)),
        lambda: np.random.Generator(np.random.Philox(7)),
        lambda: np.random.Generator(np.random.MT19937(7)),
    ]
    for make in makers:
        for m in (0, 1, 9, 1001):

            def later_draws(rng):
                return [rng.integers(0, 2, size=5).tolist(), rng.random(3).tolist(), rng.integers(0, 2**64, size=3, dtype=np.uint64).tolist()]

            ref = make()
            ref.integers(0, 2)
            want = splitmix64(ref.integers(0, 2**64, size=m, dtype=np.uint64))
            want_state = ref.bit_generator.state
            want_later = later_draws(ref)

            def run():
                rng = make()
                rng.integers(0, 2)
                conds = draw_conditions(rng, m)
                return conds, rng.bit_generator.state, later_draws(rng)

            for conds, state, later in _compiled_and_numpy(monkeypatch, compiled, run):
                assert np.array_equal(conds, want) and conds.shape == (m,)
                assert repr(state) == repr(want_state)  # Philox and MT19937 hold arrays
                assert later == want_later
            if isinstance(ref.bit_generator, np.random.PCG64):
                assert want_state["has_uint32"] == 1


# each forced failure and the reason its warning names; a corrupt cached
# library is built again instead, so it warns of nothing
_FORCED = {
    "missing compiler": "not on the PATH",
    "unwritable cache": "cache directory",
    "failing compiler": "failed",
    "unloadable build": "does not load",
    "corrupt library": None,
}


@pytest.mark.parametrize("force", list(_FORCED))
def test_forced_fallback_gives_same_bits(compiled, monkeypatch, tmp_path, force):
    reason = _FORCED[force]
    cache_dir, compiler = tmp_path / "egta", "gcc"
    if force == "missing compiler":
        compiler = "egta-no-such-compiler"
    elif force == "unwritable cache":
        # below a regular file no directory can be made, not even by root
        (tmp_path / "file").write_text("")
        cache_dir = tmp_path / "file" / "egta"
    elif force == "failing compiler":
        compiler = _fake_compiler(tmp_path, "sys.exit(1)")
    elif force == "unloadable build":
        compiler = _fake_compiler(tmp_path, "open(out, 'w').write('not a shared library')")
    else:
        cache_dir.mkdir()
        hashing._kernel_path(cache_dir).write_bytes(b"not a shared library")
    if reason is None:
        # a cached file that does not load is built again, once, and loads
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = hashing._load_kernel(cache_dir, compiler)
        assert kernel is not None
    else:
        with pytest.warns(RuntimeWarning, match=reason):
            kernel = hashing._load_kernel(cache_dir, compiler)
        assert kernel is None
    conds = np.arange(2**64 - 700, 2**64 - 1, dtype=np.uint64)
    got, want = _compiled_and_numpy(
        monkeypatch, compiled if kernel is None else kernel, lambda: variates(conds, np.arange(40))
    )
    assert np.array_equal(got, want)
    if cache_dir.is_dir():
        assert [p.name for p in cache_dir.iterdir() if p.suffix == ".tmp"] == []


def test_fallback_warns_once_per_process(tmp_path):
    # without a compiler the numpy path runs and one RuntimeWarning says
    # why; stdout is untouched
    env = dict(os.environ, PATH=str(tmp_path), XDG_CACHE_HOME=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import numpy as np\n"
        "from egta.hashing import hash_uniform, splitmix64\n"
        "for _ in range(3):\n"
        "    splitmix64(np.arange(5, dtype=np.uint64))\n"
        "    hash_uniform(np.arange(5, dtype=np.uint64), [np.arange(3)], [1.0], np.zeros(3), np.empty((3, 5)), np.zeros(3))\n"
        "print('done')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "done\n"
    assert proc.stderr.count("RuntimeWarning") == 1
    assert "not on the PATH" in proc.stderr


_BUILDER = """
import hashlib, sys, time
from pathlib import Path
import numpy as np
from egta import hashing
time.sleep(max(0.0, float(sys.argv[3]) - time.time()))
kernel = hashing._load_kernel(Path(sys.argv[1]), sys.argv[2])
assert kernel is not None
hashing._kernel = lambda: kernel
# one factor of width 1 on a base of 1/2 gives the plain variates exactly
out = np.empty((30, 1000))
hashing.hash_uniform(np.arange(1000, dtype=np.uint64), [np.arange(30)], [1.0], np.full(30, 0.5), out, np.zeros(30))
print(hashlib.sha256(out.tobytes()).hexdigest())
"""


@needs_gcc
def test_concurrent_builds_share_one_library(tmp_path):
    # four builders find the cache empty at the same moment; each one's
    # compiler logs the file it was told to write, waits so that the builds
    # overlap, then writes a library built beforehand
    built = hashing._kernel_path(tmp_path / "built")
    assert hashing._load_kernel(tmp_path / "built") is not None
    log = tmp_path / "outputs.log"
    compiler = _fake_compiler(
        tmp_path,
        f"open({str(log)!r}, 'a').write(out + '\\n')\n"
        f"time.sleep(1.0)\n"
        f"shutil.copyfile({str(built)!r}, out)",
    )
    cache_dir = tmp_path / "egta"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start_at = str(time.time() + 2.0)  # all start building at this moment
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _BUILDER, str(cache_dir), compiler, start_at],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for _ in range(4)
    ]
    results = [proc.communicate(timeout=120) for proc in procs]
    for proc, (_, err) in zip(procs, results):
        assert proc.returncode == 0, err
    digests = {out.strip() for out, _ in results}
    assert len(digests) == 1
    want = hashing._hash_uniform_numpy(np.arange(1000, dtype=np.uint64), np.arange(30, dtype=np.uint64))
    assert digests == {hashlib.sha256(want.tobytes()).hexdigest()}
    outputs = log.read_text().split()
    assert len(outputs) == 4 and len(set(outputs)) == 4, outputs
    assert sorted(p.name for p in cache_dir.iterdir()) == [hashing._kernel_path(cache_dir).name]


def test_kernel_path_hashes_the_cpu_features(monkeypatch, tmp_path):
    # x86 lists its features on "flags" lines and aarch64 on "Features"
    # lines; either way two hosts with different features get different
    # cache files, and only the first such line is read
    def cpuinfo(text):
        return lambda path, *args, **kwargs: io.StringIO(text)

    paths = {}
    for name, text in {
        "x86 avx2": "processor\t: 0\nflags\t\t: fpu sse2 avx2\nflags\t\t: other\n",
        "x86 avx512": "processor\t: 0\nflags\t\t: fpu sse2 avx2 avx512f\n",
        "arm": "processor\t: 0\nFeatures\t: fp asimd\nFeatures\t: other\n",
        "arm sve": "processor\t: 0\nFeatures\t: fp asimd sve\n",
        "no feature line": "",
    }.items():
        monkeypatch.setattr(hashing, "open", cpuinfo(text), raising=False)
        paths[name] = hashing._kernel_path(tmp_path)
    assert len(set(paths.values())) == len(paths), paths
    # a later "flags" or "Features" line (another core's) changes nothing
    monkeypatch.setattr(hashing, "open", cpuinfo("flags\t\t: fpu sse2 avx2\n"), raising=False)
    assert hashing._kernel_path(tmp_path) == paths["x86 avx2"]
    monkeypatch.setattr(hashing, "open", cpuinfo("Features\t: fp asimd\n"), raising=False)
    assert hashing._kernel_path(tmp_path) == paths["arm"]


@needs_gcc
def test_kernel_source_compiles_without_warnings(tmp_path):
    proc = subprocess.run(
        ["gcc", *hashing._C_FLAGS, "-Wall", "-Wextra", "-Werror", "-x", "c", "-", "-o", str(tmp_path / "k.so")],
        input=hashing._C_SOURCE, text=True, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
