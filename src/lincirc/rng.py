"""Seeded, counter-based randomness for reproducible experiments.

Every randomized operation in this package draws from SplitMix64 streams
keyed by explicit 64-bit seeds.  Word ``i`` of a stream is a pure function
of ``(seed, i)``, so words can be sampled out of order and independent
trials can run in parallel without coordination.  Sub-streams (per trial,
per stage) are derived with :func:`derive_seed`, which folds an index path
into the master seed through the SplitMix64 finalizer.
"""

from __future__ import annotations

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    """SplitMix64 finalizer, a bijective 64-bit hash."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def check_seed(seed: int, name: str = "seed") -> None:
    """Refuse a seed outside [0, 2**64): the streams read a seed modulo
    2**64, so it would silently wrap onto another."""
    if not 0 <= seed <= MASK64:
        raise ValueError(f"{name} must be in [0, 2**64), got {seed}")


def derive_seed(master: int, *indices: int) -> int:
    """Derive the seed of a sub-stream from a master seed and an index path.

    Trial ``t`` of an experiment uses ``derive_seed(master, t)``; stages
    inside a trial extend the path, e.g. ``derive_seed(master, t, 1)``.
    The derivation depends on the order of the indices.
    """
    s = master & MASK64
    for ix in indices:
        s = mix64(s ^ mix64(((ix + 1) * GOLDEN) & MASK64))
    return s


class SplitMix64:
    """Counter-based stream: ``word(i) = mix64(seed + (i + 1) * GOLDEN)``."""

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._next = 0

    def word(self, i: int) -> int:
        """Random access into the stream."""
        return mix64((self.seed + (i + 1) * GOLDEN) & MASK64)

    def next_word(self) -> int:
        w = self.word(self._next)
        self._next += 1
        return w

    def bits(self, k: int) -> int:
        """The next ``k`` random bits as an int, low word first."""
        out = 0
        for shift in range(0, k, 64):
            out |= self.next_word() << shift
        return out & ((1 << k) - 1)

    def randrange(self, n: int) -> int:
        """Integer in ``[0, n)``.  Modulo bias is negligible for the
        heuristic-search ranges used here (``n`` far below 2**64)."""
        return self.next_word() % n

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.randrange(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


def words_np(seed: int, start: int, count: int) -> "numpy.ndarray":
    """Words ``[start, start + count)`` of the stream as a uint64 array.

    Bit-exact match with :meth:`SplitMix64.word`; its one caller is
    ``lab._sample_pairs``.  uint64 arithmetic wraps, which is exactly what
    we want.
    """
    import numpy as np

    idx = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & MASK64) + (idx + np.uint64(1)) * np.uint64(GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))
