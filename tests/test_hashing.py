import numpy as np

from egta.hashing import hash_uniform, mix, splitmix64
from egta.simulators import draw_conditions

_MASK = (1 << 64) - 1


def reference_splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def test_splitmix64_known_answer():
    # first output from a zero seed, a widely published check value
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_splitmix64_array_matches_scalar_reference():
    xs = np.array([0, 1, 2**63, _MASK, 123456789], dtype=np.uint64)
    got = splitmix64(xs)
    want = [reference_splitmix64(int(x)) for x in xs]
    assert [int(v) for v in got] == want
    assert splitmix64(int(xs[2])) == want[2]


def test_hash_uniform_open_interval_and_mean():
    u = hash_uniform(np.arange(200, dtype=np.uint64), np.arange(100, dtype=np.uint64))
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.01


def test_hash_uniform_grid_consistency():
    conds = np.array([5, 6, 7], dtype=np.uint64)
    keys = np.array([1, 2], dtype=np.uint64)
    grid = hash_uniform(conds, keys)
    assert grid.shape == (2, 3)
    # each cell only depends on its own (key, condition) pair
    assert grid[1, 2] == hash_uniform(conds[2:], keys[1:])[0, 0]


def test_hash_uniform_of_drawn_conditions_matches_reference():
    # draw_conditions finalizes each seed once and hash_uniform does not hash
    # it again, so every variate is F(splitmix64(key) + splitmix64(raw)) for
    # the raw seed the generator drew
    keys = np.array([0, 1, 2**63, _MASK, 987654321], dtype=np.uint64)
    got = hash_uniform(draw_conditions(np.random.default_rng(3), 40), keys)
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

