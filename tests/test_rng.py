import numpy as np

from lincirc import SplitMix64, derive_seed, gen_random, popcount
from lincirc.rng import words_np


def test_stream_is_counter_based():
    rng = SplitMix64(12345)
    seq = [rng.next_word() for _ in range(10)]
    assert seq == [SplitMix64(12345).word(i) for i in range(10)]


def test_vectorized_words_match_scalar():
    seed = 0xDEADBEEFCAFE
    arr = words_np(seed, 5, 64)
    rng = SplitMix64(seed)
    assert [int(x) for x in arr] == [rng.word(5 + i) for i in range(64)]
    assert arr.dtype == np.uint64


def test_derive_seed_depends_on_path():
    seeds = {
        derive_seed(7, 0),
        derive_seed(7, 1),
        derive_seed(7, 0, 0),
        derive_seed(7, 0, 1),
        derive_seed(8, 0),
    }
    assert len(seeds) == 5
    assert derive_seed(7, 3, 4) == derive_seed(7, 3, 4)


def test_shuffle_is_a_pinned_permutation():
    xs = list(range(10))
    SplitMix64(2013).shuffle(xs)
    assert sorted(xs) == list(range(10))
    assert xs == [4, 5, 8, 0, 3, 2, 7, 6, 9, 1]


def test_bits_width_and_determinism():
    rng = SplitMix64(1)
    v = rng.bits(130)
    assert 0 <= v < 1 << 130
    assert SplitMix64(1).bits(130) == v


def test_gen_random_repeatable():
    assert gen_random(5, 70, 99) == gen_random(5, 70, 99)
    assert gen_random(5, 70, 99) != gen_random(5, 70, 100)


def test_gen_random_density_sweep():
    # 32-seed sweep at 256x256: mean density within 0.5 +/- 0.02
    total = 0
    for seed in range(32):
        total += popcount(gen_random(256, 256, derive_seed(2024, seed)))
    mean_density = total / (32 * 256 * 256)
    assert abs(mean_density - 0.5) < 0.02


def test_single_cell_matrix():
    m = gen_random(1, 1, 3)
    assert m.entry(0, 0) in (0, 1)
