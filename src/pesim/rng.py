"""numpy's default_rng(seed).uniform stream, replicated bit for bit.

numpy.random.default_rng(seed) seeds a PCG64 bit generator from
SeedSequence(seed); NEP 19 pins that stream, and Generator.uniform maps each
64-bit output x to low + (high - low) * (x >> 11) * 2**-53.  Loading
numpy.random for the few draws pesim makes costs about 6 MB of peak RSS and
10-30 ms, so this module draws the same numbers in pure Python.
"""

import numpy as np

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64) as four Python ints."""
    entropy = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hc = 0x43B0D7E5

    def hashmix(v):
        nonlocal hc
        v = ((v ^ hc) * (hc := hc * 0x931E8875 & _M32)) & _M32
        return v ^ (v >> 16)

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for s in range(4):
        for d in range(4):
            if s != d:
                pool[d] = mix(pool[d], hashmix(pool[s]))
    for word in entropy[4:]:
        for d in range(4):
            pool[d] = mix(pool[d], hashmix(word))
    hb, words = 0x8B51F9DD, []
    for i in range(8):
        v = ((pool[i % 4] ^ hb) * (hb := hb * 0x58F38DED & _M32)) & _M32
        words.append(v ^ (v >> 16))
    return [lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])]


class DefaultRng:
    """The uniform draws of numpy.random.default_rng(seed), seed a
    nonnegative int: a float when size is None, else a float64 array."""

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_state(seed)
        self._inc = (((i0 << 64 | i1) << 1) | 1) & _M128
        # PCG64's seeding: one step from 0, add the seed state, one more step
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _M128

    def uniform(self, low: float, high: float, size: int | None = None):
        low, span = float(low), float(high) - float(low)
        state, inc = self._state, self._inc
        out = []
        for _ in range(1 if size is None else size):
            state = (state * _PCG_MULT + inc) & _M128
            x = ((state >> 64) ^ state) & _M64  # PCG's XSL-RR output
            rot = state >> 122
            x = (x >> rot | x << (64 - rot)) & _M64
            out.append(low + span * ((x >> 11) * 2.0**-53))
        self._state = state
        return out[0] if size is None else np.array(out)
