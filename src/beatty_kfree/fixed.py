"""Certified base-2 fixed-point reals and exact angle reduction.

A FixedReal carries an integer mantissa at a binary scale together with a
conservative error bound in ulps, so floor/fractional-part decisions can be
certified: a decision is made only when the whole error interval clears the
boundary. Callers escalate precision (recompute the mantissa with more bits)
when a decision cannot be certified.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PrecisionExhausted

DEFAULT_BITS = 192
MAX_BITS = 1024

_MASK32 = np.uint64(0xFFFFFFFF)
_TWO_M32 = 2.0 ** -32
_TWO_M64 = 2.0 ** -64
_TWO_M96 = 2.0 ** -96
FRAC_VECTOR_LIMIT = 1 << 44  # beyond it the 96-bit truncation error n * 2**-96 exceeds 2**-52


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

    def frac(self) -> "FixedReal":
        """x - floor(x), in [0, 1).

        Raises PrecisionExhausted when floor cannot be certified; the caller
        must recompute the value at higher precision before retrying.
        """
        f = self.floor_certified()
        if f is None:
            raise PrecisionExhausted(
                f"fractional part undecidable at {self.scale_bits} bits "
                f"(err {self.err_ulps} ulps)"
            )
        return FixedReal(self.mantissa - (f << self.scale_bits), self.scale_bits, self.err_ulps)


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
    """Fractional parts of (mantissa*n + offset) / 2**scale_bits as float64.

    Exact modular reduction through the top 96 bits of the mantissa, split
    into limbs whose integer products wrap only by whole turns. Truncating
    the mantissa to 96 bits costs at most n * 2**-96, so the result is within
    ~2**-50 of the true fractional part for 0 <= n < 2**44; larger n raise
    ValueError.
    """
    n64 = np.ascontiguousarray(n, dtype=np.uint64)
    n_max = int(n64.max()) if n64.size else 0
    if n_max >= FRAC_VECTOR_LIMIT:
        raise ValueError(f"frac_vector needs n < 2**44, got max(n) = {n_max}")
    one = 1 << scale_bits
    r = mantissa % one
    if scale_bits >= 96:
        t = r >> (scale_bits - 96)
    else:
        t = r << (96 - scale_bits)
    a = np.uint64(t >> 64)
    b = np.uint64((t >> 32) & 0xFFFFFFFF)
    c = np.uint64(t & 0xFFFFFFFF)
    # limb products reuse two buffers; uint64 * float scales while converting
    u = np.multiply(a, n64)
    u &= _MASK32
    f = np.multiply(u, _TWO_M32)
    g = np.empty_like(f)
    np.multiply(b, n64, out=u)
    f += np.multiply(u, _TWO_M64, out=g)
    # c*n would wrap by multiples of 2**-32, so split n at bit 32
    np.right_shift(n64, np.uint64(32), out=u)
    u *= c
    f += np.multiply(u, _TWO_M64, out=g)
    np.bitwise_and(n64, _MASK32, out=u)
    u *= c
    f += np.multiply(u, _TWO_M96, out=g)
    if offset_mantissa:
        f += frac_to_float(offset_mantissa % one, scale_bits)
    f -= np.floor(f, out=g)  # exact, since f >= 0; an integer f gives +0.0
    return f


def sin_pi_reduced(mantissa: int, scale_bits: int) -> float:
    """sin(pi * mantissa / 2**scale_bits) with exact mod-2 argument reduction."""
    m2 = mantissa % (1 << (scale_bits + 1))
    r = m2 & ((1 << scale_bits) - 1)
    nearest = m2 >> scale_bits
    if r >= (1 << (scale_bits - 1)):
        r -= 1 << scale_bits
        nearest += 1
    s = math.sin(math.pi * frac_to_float(r, scale_bits, wrap=False))
    return -s if (nearest & 1) else s


def exp_circle(mantissa: int, scale_bits: int) -> tuple[float, float]:
    """(cos, sin) of 2*pi*(mantissa / 2**scale_bits) with exact reduction."""
    t = frac_to_float(mantissa, scale_bits)
    ang = 2.0 * math.pi * t
    return math.cos(ang), math.sin(ang)
