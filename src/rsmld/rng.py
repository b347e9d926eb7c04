"""Deterministic random number generation for reproducible experiments.

Everything that consumes randomness in this package (word sampling, error
placement, trial loops) goes through :class:`XorShift64Star` so that a seed
pins down the full byte stream independently of Python version or platform.

The generator is the classic xorshift64* recurrence:

    x ^= x >> 12
    x ^= (x << 25) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    output = (x * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF

A seed of 0 (which would be a fixed point) is remapped to the odd constant
0x9E3779B97F4A7C15.
"""

from __future__ import annotations

_MASK = 0xFFFFFFFFFFFFFFFF
_MULT = 0x2545F4914F6CDD1D
_ZERO_SEED = 0x9E3779B97F4A7C15


class XorShift64Star:
    """xorshift64* PRNG with 64-bit state."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        state = seed & _MASK
        if state == 0:
            state = _ZERO_SEED
        self.state = state

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        self.state = x
        return (x * _MULT) & _MASK

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by modular reduction.

        The modulo bias is at most n / 2**64: each value's probability is
        1/n times a factor within n / 2**64 of 1.  The largest bounds
        passed are field sizes, q up to 2**32 - 5 (a bias below 2**-32), and
        2**31 - 1 in the tests.  That is irrelevant for test-vector
        generation, and keeping the reduction branch-free makes the stream
        trivial to re-derive.
        """
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def sample_indices(self, n: int, count: int) -> list[int]:
        """First `count` entries of a partial Fisher-Yates shuffle of range(n).

        Only the displaced entries of the shuffled range are stored (position
        -> value, absent meaning untouched), so memory is O(count) whatever n.
        """
        if not 0 <= count <= n:
            raise ValueError(f"cannot sample {count} indices from range({n})")
        moved: dict[int, int] = {}
        out = []
        for i in range(count):
            j = i + self.below(n - i)
            out.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return out
