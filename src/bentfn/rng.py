"""Deterministic pseudo random numbers for seeded tests and searches.

The generator is xorshift64*, chosen because the whole state transition
fits in three shift-xor lines and one multiply, which makes it easy to
reproduce bit for bit in any language:

    state ^= state >> 12
    state ^= (state << 25) mod 2**64
    state ^= state >> 27
    output = (state * 0x2545F4914F6CDD1D) mod 2**64

Seeding: state = (seed XOR 0x9E3779B97F4A7C15) mod 2**64, and if that is
zero the state is set to 0x9E3779B97F4A7C15 (the all-zero state is a
fixed point of xorshift).  Bounded draws use plain modulo reduction;
the tiny bias does not matter here, reproducibility does.
"""

_MASK64 = (1 << 64) - 1
_SEED_XOR = 0x9E3779B97F4A7C15
_MULT = 0x2545F4914F6CDD1D


class XorShift64Star:
    """64-bit xorshift* stream with the update equations above."""

    def __init__(self, seed: int = 0):
        state = (seed ^ _SEED_XOR) & _MASK64
        self.state = state if state else _SEED_XOR

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * _MULT) & _MASK64

    def randrange(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def bits(self, k: int) -> int:
        """k pseudo random bits as an int."""
        out = 0
        got = 0
        while got < k:
            out = (out << 64) | self.next_u64()
            got += 64
        return out & ((1 << k) - 1)

    def shuffle(self, items: list) -> list:
        """In-place Fisher-Yates shuffle, high index down."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
        return items
