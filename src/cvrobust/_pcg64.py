"""numpy's ``default_rng(seed).uniform`` in stdlib integer arithmetic.

Importing numpy's random package costs about 6 MB of memory and 10-18 ms, and a
seeded command draws at most a few dozen doubles.  This module reproduces
numpy's stream bit for bit: ``SeedSequence(seed)`` mixes the seed's 32-bit
words into a pool of 4 and emits ``generate_state(4, uint64)``, which seeds
``PCG64`` (a 128-bit LCG with XSL-RR output) as ``pcg64_set_seed`` does, and
each draw is ``low + (high - low) * ((next64 >> 11) * 2**-53)``.
"""

import math
import operator

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit hash; its multiplier advances with every call."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def _seed_state(seed: int) -> tuple[int, int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as PCG64's (state, sequence)."""
    entropy = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in (entropy + [0, 0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = _hasher(0x8B51F9DD, 0x58F38DED)
    w = [out(pool[i % 4]) for i in range(8)]
    # Little-endian pairs of 32-bit words; the first uint64 is the high half.
    u = [w[k] | w[k + 1] << 32 for k in (0, 2, 4, 6)]
    return u[0] << 64 | u[1], u[2] << 64 | u[3]


class default_rng:
    """The ``uniform`` draws of numpy's ``default_rng(seed)``, for an integer ``seed >= 0``."""

    def __init__(self, seed: int):
        state, sequence = _seed_state(operator.index(seed))
        self._inc = (sequence << 1 | 1) & _M128
        # pcg64_set_seed: from state 0, step, add the seed, step.
        self._state = (self._inc + state) * _PCG_MULT + self._inc & _M128

    def _next64(self) -> int:
        self._state = self._state * _PCG_MULT + self._inc & _M128
        rot = self._state >> 122
        x = (self._state >> 64 ^ self._state) & _M64
        return (x >> rot | x << (64 - rot)) & _M64

    def uniform(self, low: float, high: float, n: int) -> list[float]:
        """``n`` doubles in ``[low, high)``, as ``Generator.uniform(low, high, n)``."""
        scale = high - low
        if not math.isfinite(scale):
            raise OverflowError("high - low range exceeds valid bounds")
        return [low + scale * ((self._next64() >> 11) * 2.0**-53) for _ in range(n)]
