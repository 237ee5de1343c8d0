"""Irrational inputs, their continued fractions, Dirichlet approximation and type.

Irrational inputs come in three flavors with different precision contracts:
exact quadratic irrationals (p + sqrt(d))/q (unlimited certified bits),
finite partial-quotient prefixes, and decimal strings with a stated number
of certified bits. Each yields its certified partial quotients
(quotient_iter); _convergent_iter is the one convergent recurrence, which
the prefix interval, dirichlet_approx and estimate_type walk.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Iterator, Union

from .errors import PrecisionExhausted
from .fixed import FixedReal


@dataclass(frozen=True)
class QuadraticIrrational:
    """(p + sqrt(d)) / q with d a positive non-square and q >= 1."""

    p: int
    d: int
    q: int

    def __post_init__(self):
        if self.d <= 0 or isqrt(self.d) ** 2 == self.d:
            raise ValueError(f"d = {self.d} is not a positive non-square")
        if self.q < 1:
            raise ValueError(f"q = {self.q} is not a positive integer (canonical form)")

    def eval_interval(self, bits: int) -> tuple[Fraction, Fraction]:
        b2 = bits + 16
        s = isqrt(self.d << (2 * b2))
        den = self.q << b2
        num = (self.p << b2) + s
        return Fraction(num, den), Fraction(num + 1, den)

    def quotient_iter(self) -> Iterator[int]:
        # exact surd expansion of (P + sqrt(D))/Q; keeps Q | D - P*P
        p, d, q = self.p, self.d, self.q
        if (d - p * p) % q:
            p, d, q = p * q, d * q * q, q * q
        s = isqrt(d)
        while True:
            a = (p + s) // q if q > 0 else (p + s + 1 - q) // q
            yield a
            p = a * q - p
            q = (d - p * p) // q

    def __str__(self) -> str:
        return f"quad:{self.p},{self.d},{self.q}"


PHI = QuadraticIrrational(1, 5, 2)
SQRT2 = QuadraticIrrational(0, 2, 1)
SQRT3 = QuadraticIrrational(0, 3, 1)


@dataclass(frozen=True)
class PartialQuotients:
    """A finite certified prefix of a continued-fraction expansion."""

    quotients: tuple[int, ...]

    def __post_init__(self):
        if not self.quotients:
            raise ValueError("need at least one quotient")
        if any(a < 1 for a in self.quotients[1:]) or self.quotients[0] < 0:
            raise ValueError("quotients must be positive (a0 >= 0)")

    def eval_interval(self, bits: int) -> tuple[Fraction, Fraction]:
        # the last two convergents; (1, 0) is (p_-1, q_-1)
        (pp, qp), (p, q) = [(1, 0), *_convergent_iter(self.quotients)][-2:]
        lo, hi = Fraction(p, q), Fraction(p + pp, q + qp)
        return (lo, hi) if lo <= hi else (hi, lo)

    def quotient_iter(self) -> Iterator[int]:
        return iter(self.quotients)

    def __str__(self) -> str:
        return "cf:" + ",".join(str(a) for a in self.quotients)


@dataclass(frozen=True)
class DecimalString:
    """Decimal approximation with a stated certified precision in bits."""

    digits: str
    bits: int

    def __post_init__(self):
        try:
            Fraction(self.digits)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"digits {self.digits!r} are not a decimal number") from None
        if self.bits < 8:
            raise ValueError("stated precision must be at least 8 bits")

    def eval_interval(self, bits: int) -> tuple[Fraction, Fraction]:
        v = Fraction(self.digits)
        eps = Fraction(1, 1 << self.bits)
        return v - eps, v + eps

    def quotient_iter(self) -> Iterator[int]:
        lo, hi = self.eval_interval(self.bits)
        return cf_interval_iter(lo, hi)

    def __str__(self) -> str:
        return f"dec:{self.digits}:{self.bits}"


IrrationalSpec = Union[QuadraticIrrational, PartialQuotients, DecimalString]


ALPHA_FORMS = "quad:p,d,q | cf:a0,a1,... | dec:digits:bits"
_KINDS = {"quad": QuadraticIrrational, "cf": PartialQuotients, "dec": DecimalString}


def parse_irrational(text: str) -> IrrationalSpec:
    """Parse one of ALPHA_FORMS. The ValueError for a malformed or invalid
    spec names alpha, the text given, and the forms or the broken condition."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "quad":
            args = tuple(int(v) for v in rest.split(","))
            if len(args) != 3:
                raise ValueError
        elif kind == "cf":
            args = (tuple(int(v) for v in rest.split(",")),)
        elif kind == "dec":
            digits, _, bits = rest.rpartition(":")
            args = (digits, int(bits))
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"alpha {text!r} is not of the form {ALPHA_FORMS}") from None
    try:
        return _KINDS[kind](*args)
    except ValueError as e:
        raise ValueError(f"alpha {text!r}: {e}") from None


def to_fixed(alpha: IrrationalSpec, bits: int) -> FixedReal:
    lo, hi = alpha.eval_interval(bits)
    return FixedReal.from_interval(lo, hi, bits)


def cf_interval_iter(lo: Fraction, hi: Fraction) -> Iterator[int]:
    """Quotients certified to be shared by every real in [lo, hi].

    For an exact rational (lo == hi) the full terminating expansion is
    emitted; otherwise emission stops at the first quotient the interval
    cannot pin down.
    """
    while True:
        alo, ahi = math.floor(lo), math.floor(hi)
        if alo != ahi:
            return
        yield alo
        flo, fhi = lo - alo, hi - alo
        if flo == 0:
            return
        lo, hi = 1 / fhi, 1 / flo


def _convergent_iter(quotients: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Convergents (p_i, q_i) of the continued fraction with these partial quotients."""
    pm1, pm2, qm1, qm2 = 1, 0, 0, 1
    for a in quotients:
        pm1, pm2 = a * pm1 + pm2, pm1
        qm1, qm2 = a * qm1 + qm2, qm1
        yield pm1, qm1


def dirichlet_approx(theta: FixedReal, K: int) -> tuple[int, int]:
    """Reduced a/q with 1 <= q <= K and |theta - a/q| <= 1/(qK).

    Scans the convergents of theta's center value (an exact dyadic
    rational): the last convergent with q <= K has the required quality
    because the next denominator exceeds K, and the precondition on
    theta's precision makes the representation width negligible against
    1/(qK). A rational theta whose expansion terminates with q <= K is
    returned exactly.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    need = 2 * K.bit_length() + 32
    if theta.scale_bits < need:
        raise PrecisionExhausted(
            f"theta carries {theta.scale_bits} bits, need >= {need} for K={K}"
        )
    center = Fraction(theta.mantissa, 1 << theta.scale_bits)
    convergents = _convergent_iter(cf_interval_iter(center, center))
    best = next(convergents)  # q_0 = 1 <= K
    for p, q in convergents:
        if q > K:
            break
        best = (p, q)
    return best


def estimate_type(alpha: IrrationalSpec, q_max: int) -> float:
    """Estimate tau_hat of the irrationality type from convergent denominator growth.

    Takes log q_{i+1} / log q_i for consecutive denominators up to q_max.
    Since ||q_i alpha|| is comparable to 1/q_{i+1}, the limsup of these
    ratios is the type; the estimate takes the max over the pairs whose
    larger denominator falls in the top decade below q_max (small
    denominators would otherwise dominate with ratios like log3/log2).
    """
    if q_max < 10:
        raise ValueError("q_max must be >= 10")
    ratios: list[tuple[int, float]] = []  # (q_{i+1}, log q_{i+1} / log q_i)
    prev_q = None
    for _, q in _convergent_iter(alpha.quotient_iter()):
        if q > q_max:
            break
        if prev_q is not None and prev_q >= 2:
            ratios.append((q, math.log(q) / math.log(prev_q)))
        prev_q = q
    if not ratios:
        return 1.0
    tail = [r for q, r in ratios if q > q_max // 10] or [ratios[-1][1]]
    return max(1.0, max(tail))
