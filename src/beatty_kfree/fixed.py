"""Certified base-2 fixed-point reals and the fractional-part kernel.

A FixedReal carries an integer mantissa at a binary scale together with a
conservative error bound in ulps, so floor/fractional-part decisions can be
certified: a decision is made only when the whole error interval clears the
boundary. Callers escalate precision (recompute the mantissa with more bits)
when a decision cannot be certified.

frac_vector reduces whole arrays of multiples mod 1 without certification:
exact fixed point in units of 2**-64, where uint64 wraparound is the
reduction, rounded to nearest float64 within 2**-54 + 2**-62 for any
n < 2**64. frac_u64 is its uint64 sum before the rounding, below the exact
value by less than 4 units of 2**-64, from which the count's floor-sum lanes
bracket their slopes and offsets.

residue_tiles serves the fractional parts of a rational progression
(p*i + r)/q tile by tile as uint64, from one table for all tiles plus each
tile's exact offset, and marks the entries near a border, which the caller
decides by their exact residue (p*i + r) mod q.

TILE is the number of elements that every vectorised pass on the
membership side (smoothing, discrepancy, the term and membership blocks)
and the naive double sum's chunk of sieve flags handles at a time. A pass over 2**20 elements
keeps 8-32 MiB of temporaries, far more than a 2 MiB L2, so each of its
numpy steps streams from memory; a tile of 2**14 keeps them in cache.
Measured on a 2-core Xeon VM, frac_vector took 8.1, 6.0, 4.8, 15.1, 16.9,
20.3, 23.7 and 20.9 ns per element at 2**12..2**18 and 2**20 elements, and
a compare-and-combine pass 1.4 ns at 2**14 against 10 ns at 2**20.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEFAULT_BITS = 192
MAX_BITS = 1024
TILE = 1 << 14  # elements per vectorised pass, sized for L2 (module docstring)
TILE_SLACK = 1  # residue_tiles' slack, in units of 2**-64 per entry of a tile

_MASK32 = np.uint64(0xFFFFFFFF)
_MASK64 = (1 << 64) - 1
_32 = np.uint64(32)


def decision_margin(err_ulps: int) -> int:
    """Required clearance (in ulps) between an error interval and a boundary."""
    return err_ulps + max(1, err_ulps >> 32)


@dataclass(frozen=True)
class FixedReal:
    """value = mantissa / 2**scale_bits, true value within +-err_ulps ulps."""

    mantissa: int
    scale_bits: int
    err_ulps: int = 0

    def __post_init__(self):
        if self.scale_bits < 0:
            raise ValueError("scale_bits must be >= 0")
        if self.err_ulps < 0:
            raise ValueError("err_ulps must be >= 0")

    @classmethod
    def from_fraction(cls, value: Fraction, scale_bits: int) -> "FixedReal":
        """Round-to-nearest representation; err_ulps is 0 only for exact dyadics."""
        value = Fraction(value)
        num = value.numerator << scale_bits
        den = value.denominator
        q, r = divmod(num, den)
        if r == 0:
            return cls(q, scale_bits, 0)
        if 2 * r >= den:
            q += 1
        return cls(q, scale_bits, 1)

    @classmethod
    def from_interval(cls, lo: Fraction, hi: Fraction, scale_bits: int) -> "FixedReal":
        """Smallest representation whose error interval covers [lo, hi]."""
        if lo > hi:
            raise ValueError("empty interval")
        mid = (lo + hi) / 2
        out = cls.from_fraction(mid, scale_bits)
        half_width = (hi - lo) / 2
        extra = -((-half_width.numerator << scale_bits) // half_width.denominator) if half_width else 0
        return cls(out.mantissa, scale_bits, out.err_ulps + extra)

    def to_float(self) -> float:
        return frac_to_float(self.mantissa, self.scale_bits, wrap=False)

    def mul_int(self, n: int) -> "FixedReal":
        return FixedReal(self.mantissa * n, self.scale_bits, self.err_ulps * abs(n))

    def floor_certified(self):
        """Exact floor, or None when the error interval straddles an integer."""
        if self.err_ulps == 0:
            return self.mantissa >> self.scale_bits
        one = 1 << self.scale_bits
        r = self.mantissa & (one - 1)
        margin = decision_margin(self.err_ulps)
        if margin < r < one - margin:
            return self.mantissa >> self.scale_bits
        return None


def frac_to_float(mantissa: int, scale_bits: int, wrap: bool = True) -> float:
    """mantissa / 2**scale_bits as float64, safe for arbitrarily wide mantissas."""
    if wrap:
        mantissa %= 1 << scale_bits
    if scale_bits <= 62:
        return math.ldexp(mantissa, -scale_bits)
    neg = mantissa < 0
    m = -mantissa if neg else mantissa
    shift = max(0, m.bit_length() - 62)
    v = math.ldexp(m >> shift, shift - scale_bits)
    return -v if neg else v


def frac_vector(
    mantissa: int,
    scale_bits: int,
    n: np.ndarray,
    offset_mantissa: int = 0,
) -> np.ndarray:
    """Fractional parts of (mantissa*n + offset) / 2**scale_bits as float64,
    for any uint64 n: frac_u64's sum plus o = floor(frac(offset) * 2**64) +
    2**10, rounded to 53 bits. The five truncations lower u + o by under
    5*2**-64 in all; rounding to 53 bits, to nearest by the 2**10, raises it
    by at most 2**-54 or lowers it by at most 2**-54 - 2**-64. So every output
    lies in [0, 1) within 2**-54 + 2**-62 of the exact fractional part on the
    circle, and one that rounds up to 1 wraps to +0.0.
    """
    u = frac_u64(mantissa, scale_bits, n)
    u += np.uint64(((_top128(offset_mantissa, scale_bits) >> 64) + (1 << 10)) & _MASK64)
    u >>= np.uint64(11)
    return np.multiply(u.view(np.int64), 2.0**-53)


def frac_u64(mantissa: int, scale_bits: int, n: np.ndarray) -> np.ndarray:
    """Fractional parts of mantissa*n / 2**scale_bits for uint64 n, cut down
    to units of 2**-64 as uint64 u; the exact value lies in [u, u + 4) units
    on the circle (wraparound of uint64 is the reduction mod 1).

    With t the top 128 bits of the fraction of mantissa / 2**scale_bits,
    split into th (64 bits), tl and tl2 (32 bits each), and n = n_hi*2**32 + n_lo:
        u = th*n + tl*n_hi + (tl*n_lo >> 32) + (tl2*n_hi >> 32)  (mod 2**64).
    It drops the bits of the fraction below t, tl2*n_lo and the two shifts,
    each under one unit. For n < 2**32 the n_hi terms vanish and two products
    remain.
    """
    n64 = np.ascontiguousarray(n, dtype=np.uint64)
    t = _top128(mantissa, scale_bits)
    tl = np.uint64((t >> 32) & 0xFFFFFFFF)
    u = np.multiply(n64, np.uint64(t >> 64))
    if n64.size and int(n64.max()) >> 32:
        hi = np.right_shift(n64, _32)
        w = np.multiply(hi, tl)
        u += w
        hi *= np.uint64(t & 0xFFFFFFFF)
        hi >>= _32
        u += hi
        np.bitwise_and(n64, _MASK32, out=w)
        w *= tl
    else:
        w = np.multiply(n64, tl)
    w >>= _32
    u += w
    return u


def residue_tiles(p: int, q: int, r: int, length: int, ends: list[int]):
    """Yield (t0, v, near) for each tile of TILE consecutive i < length (the
    last one shorter). v[j] = j*g + o (mod 2**64), with g = floor(2**64*{p/q})
    and o = floor(2**64*{(p*t0 + r)/q}), lies below 2**64*{(p*i + r)/q},
    i = t0 + j, q >= 1, by less than j + 1 units on the circle; near lists the
    j whose v lies within TILE_SLACK*TILE units below one of ends (mod 2**64),
    the only v whose value may lie at or past that end. A binary search in
    the sorted table per end spares the tiles without such a j a full pass.
    """
    g = np.uint64(((p % q) << 64) // q)
    table = np.arange(max(1, min(TILE, length)), dtype=np.uint64) * g
    slack = np.uint64(min(TILE_SLACK * TILE, 1 << 64) - 1)
    last = np.array([(e - 1) & _MASK64 for e in ends], dtype=np.uint64)  # top unit below each end
    ranked = np.sort(table)
    for t0 in range(0, length, len(table)):
        o = np.uint64((((p * t0 + r) % q) << 64) // q)
        v = table[:length - t0] + o
        low = last - o - slack  # v near an end iff its table value is in [low, low + slack]
        hit = ((ranked[ranked.searchsorted(low) % len(ranked)] - low) <= slack).any()
        near = np.flatnonzero((last[:, None] - v <= slack).any(axis=0)).tolist() if hit else []
        yield t0, v, near


def _top128(mantissa: int, scale_bits: int) -> int:
    """The top 128 bits of the fraction of mantissa / 2**scale_bits."""
    return ((mantissa % (1 << scale_bits)) << 128) >> scale_bits
