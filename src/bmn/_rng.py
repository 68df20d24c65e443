"""Counter-based splitmix64 streams shared by the simulator and search code.

Per-match streams are derived from a (seed, index) pair, so any single match
can be reproduced in isolation and batch results never depend on how a
batch is split. There are two shuffles: `SplitMix64.shuffle`, the
reference, which the pure-Python kernels call to deal each match and to
order the loop factory's insertion points and correction spots, and the
C kernel's (`_ckernel.c`), bit-identical to it, for the same three jobs.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def fmix64(z: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit mixing function."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def stream_state(seed: int, index: int) -> int:
    """Initial generator state for stream `index` derived from `seed`."""
    return fmix64((seed & MASK64) ^ fmix64((index + 1) & MASK64))


class SplitMix64:
    """Minimal deterministic RNG (splitmix64)."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & MASK64

    @classmethod
    def for_stream(cls, seed: int, index: int) -> "SplitMix64":
        return cls(stream_state(seed, index))

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return fmix64(self.state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n): masked rejection, exactly unbiased.

        Each draw is `next_u64`, written out: the factory and the Python
        deal call this in their inner loops.
        """
        mask = (1 << (n - 1).bit_length()) - 1
        state = self.state
        while True:
            state = (state + GOLDEN) & MASK64
            z = ((state ^ (state >> 30)) * _MIX1) & MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & MASK64
            r = (z ^ (z >> 31)) & mask
            if r < n:
                self.state = state
                return r

    def random(self) -> float:
        """Uniform float in [0, 1) built from 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates; the one shuffle behind every deal."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
