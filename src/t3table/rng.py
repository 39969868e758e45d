"""numpy's ``default_rng`` stream in pure Python, for the draws the generator makes.

``Rng(entropy)`` gives what ``numpy.random.default_rng(entropy)`` gives (a
SeedSequence seeding a PCG64, XSL-RR 128/64) for ``integers``, ``random``,
``poisson`` and ``shuffle`` of a list. Anything it does not copy raises
ValueError rather than give another stream. tests/test_rng.py pins it to numpy.
"""

from __future__ import annotations

from math import exp, floor, log, sqrt
from typing import MutableSequence, Sequence

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier
POISSON_LAM_MAX = (2**63 - 1) - sqrt(2**63 - 1) * 10  # numpy's largest lam
_LOGGAM = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04, -5.952380952380952e-04,
    8.417508417508418e-04, -1.917526917526918e-03, 6.410256410256410e-03, -2.955065359477124e-02,
    1.796443723688307e-01, -1.39243221690590e+00,
)


def _seed_state(entropy: Sequence[int]) -> list[int]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)``: the pool of 4 uint32 words mixed from entropy's words."""
    words = []
    for n in entropy:
        if n < 0:
            raise ValueError(f"entropy must be >= 0, got {n}")
        words.append(n & _M32)
        while n := n >> 32:
            words.append(n & _M32)
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value = (value ^ const) * (const := const * 0x931E8875 & _M32) & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, out = 0x8B51F9DD, []
    for i in range(8):
        value = (pool[i % 4] ^ const) * (const := const * 0x58F38DED & _M32) & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _loggam(x: float) -> float:
    """numpy's random_loggam: log(gamma(x))."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM[9]
    for a in _LOGGAM[8::-1]:
        gl0 = gl0 * x2 + a
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * log(x0) - x0
    for _ in range(n):
        gl -= log(x0 - 1.0)
        x0 -= 1.0
    return gl


class Rng:
    """The draws of ``numpy.random.default_rng(entropy)`` that the generator makes, value for value."""

    __slots__ = ("_state", "_inc", "_kept")

    def __init__(self, entropy: Sequence[int]) -> None:
        s = _seed_state(entropy)
        self._inc = (s[2] << 65 | s[3] << 1 | 1) & _M128
        # from state 0: step (giving inc), add the seed, step again
        self._state = ((self._inc + (s[0] << 64 | s[1])) * _MULT + self._inc) & _M128
        self._kept: int | None = None  # the upper half of the last 64 bits a 32-bit draw split

    def _next64(self) -> int:
        self._state = s = (self._state * _MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        kept = self._kept
        if kept is not None:
            self._kept = None
            return kept
        x = self._next64()
        self._kept = x >> 32
        return x & _M32

    def integers(self, low: int, high: int | None = None) -> int:
        """A uniform int in [low, high), or in [0, low) without high: Lemire's method on 32-bit draws."""
        if high is None:
            low, high = 0, low
        n = high - low
        if not 0 < n < 2**32:
            raise ValueError(f"the range must hold 1 to 2**32 - 1 values, got {n}")
        if n == 1:
            return low
        m = self._next32() * n
        if m & _M32 < n:
            threshold = 2**32 % n
            while m & _M32 < threshold:
                m = self._next32() * n
        return low + (m >> 32)

    def random(self) -> float:
        """A uniform float in [0, 1)."""
        return (self._next64() >> 11) * 2.0**-53

    def shuffle(self, items: MutableSequence) -> None:
        """Fisher-Yates from the end, each index drawn under a bit mask and rejected above its bound."""
        if len(items) > 2**32:
            raise ValueError(f"cannot shuffle {len(items)} items, at most 2**32")
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self._next32() & mask) > i:
                pass
            items[i], items[j] = items[j], items[i]

    def poisson(self, lam: float) -> int:
        """A Poisson draw: multiplication below 10, PTRS (Hoermann 1993) from 10 up."""
        if not 0 <= lam <= POISSON_LAM_MAX:  # NaN fails too
            raise ValueError(f"lam must be from 0 to {POISSON_LAM_MAX:g}, got {lam!r}")
        if lam >= 10:
            return self._ptrs(lam)
        if lam == 0:
            return 0
        k, prod, enlam = 0, 1.0, exp(-lam)
        while True:
            prod *= self.random()
            if prod <= enlam:
                return k
            k += 1

    def _ptrs(self, lam: float) -> int:
        slam, loglam = sqrt(lam), log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        while True:
            u = self.random() - 0.5
            v = self.random()
            us = 0.5 - abs(u)
            if us == 0.0:  # C divides by 0 to -inf, and k < 0 rejects the pair
                continue
            k = floor((2 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            # C's log(0.0) is -inf, which accepts
            if v == 0.0 or log(v) + log(invalpha) - log(a / (us * us) + b) <= -lam + k * loglam - _loggam(float(k + 1)):
                return k
