"""numpy's PCG64 stream in pure Python: a drawn schedule loads no numpy.random."""
from __future__ import annotations

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class PCG64:
    """``numpy.random.default_rng(seed).integers(lo, hi)`` bit for bit, for
    hi - lo <= 2**32: SeedSequence hashes the seed's little-endian 32-bit words
    into a 4-word pool and the PCG64 (XSL-RR 128/64) state; each 64-bit output
    serves two 32-bit draws, low half first; Lemire's method bounds a draw."""

    def __init__(self, seed: int):
        const, mult = 0x43B0D7E5, 0x931E8875

        def hashmix(value: int) -> int:  # the constant advances on every call
            nonlocal const
            const, value = const * mult & _M32, value ^ const
            value = value * const & _M32
            return value ^ value >> 16

        words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
        # mix every pool word into the others, then any words past the fourth
        for src in range(max(len(words), 4)):
            for dst in range(4):
                if src != dst:
                    y = hashmix(pool[src] if src < 4 else words[src])
                    r = (0xCA01F9DD * pool[dst] - 0x4973F715 * y) & _M32
                    pool[dst] = r ^ r >> 16
        const, mult = 0x8B51F9DD, 0x58F38DED  # generate_state(4, uint64): same hash, new constants
        out = [hashmix(pool[i % 4]) for i in range(8)]
        u64 = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
        self.inc = (u64[2] << 65 | u64[3] << 1 | 1) & _M128
        self.state = ((self.inc + (u64[0] << 64 | u64[1])) * _PCG_MULT + self.inc) & _M128
        self.half: list[int] = []  # the high half of the last output, until drawn

    def _next32(self) -> int:
        if self.half:
            return self.half.pop()
        self.state = state = (self.state * _PCG_MULT + self.inc) & _M128
        rot, x = state >> 122, (state >> 64 ^ state) & _M64
        x = (x >> rot | x << (64 - rot)) & _M64
        self.half.append(x >> 32)
        return x & _M32

    def integers(self, lo: int, hi: int) -> int:
        span = hi - lo
        if span == 1:
            return lo
        threshold = 2**32 % span
        m = self._next32() * span
        while m & _M32 < threshold:
            m = self._next32() * span
        return lo + (m >> 32)
