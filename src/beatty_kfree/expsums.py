"""Exponential sums over k-free integers and their hyperbola decomposition.

The double sum  sum_{h<=H} sum_{n<=x, n k-free} e(theta*h*n)  is evaluated
two ways: term by term over sieved k-free n (the oracle path), and through
the three-way split induced by the Moebius identity for the k-free
indicator, with inner geometric sums in closed form. Angle arguments are
reduced exactly from the fixed-point mantissa of theta, and each path
sums its partials exactly rounded (complex_fsum), so the two agree to
within the float64 error of the partials themselves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fixed import FixedReal, exp_circle, frac_to_float, frac_vector, sin_pi_reduced
from .kfree import DEFAULT_MEMORY_BYTES, iroot, sieve_kfree, sieve_moebius

TWO_PI = 2.0 * math.pi
SMALL_NORM_BITS = 30  # ||alpha|| below 2**-30 switches to direct summation


def split_parameter(x: int, k: int) -> float:
    """Default hyperbola split y = x**(k/(2k-1))."""
    return float(x) ** (k / (2.0 * k - 1.0))


def nearest_int_distance(alpha: FixedReal) -> float:
    """||alpha||: distance from alpha to the nearest integer (center value)."""
    one = 1 << alpha.scale_bits
    r = alpha.mantissa % one
    return frac_to_float(min(r, one - r), alpha.scale_bits, wrap=False)


def complex_fsum(parts) -> complex:
    """Exactly rounded sum of complex partials: math.fsum per component, so
    the result does not depend on the order of the partials."""
    parts = list(parts)
    return complex(math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts))


def _unit_sum(ang: np.ndarray) -> complex:
    """sum of e^(i*ang) over the array, one pairwise numpy sum per component."""
    return complex(float(np.sum(np.cos(ang))), float(np.sum(np.sin(ang))))


def _weighted_unit_sum(w: np.ndarray, ang: np.ndarray) -> complex:
    """sum of w * e^(i*ang), one dot product per component."""
    return complex(float(np.dot(w, np.cos(ang))), float(np.dot(w, np.sin(ang))))


def _direct_linear(angle: float, x: int) -> complex:
    step = 1 << 20
    return complex_fsum(
        _unit_sum(TWO_PI * angle * np.arange(n0, min(x + 1, n0 + step), dtype=np.float64))
        for n0 in range(1, x + 1, step)
    )


def linear_exp_sum(alpha: FixedReal, x: int) -> complex:
    """sum_{n=1..x} e(n*alpha) via the closed geometric form.

    Uses e(alpha*(x+1)/2) * sin(pi*x*alpha) / sin(pi*alpha) with all angle
    reductions done exactly on the mantissa; falls back to direct summation
    when ||alpha|| < 2**-30 where the ratio form loses accuracy.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0:
        return 0j
    bits = alpha.scale_bits
    one = 1 << bits
    r = alpha.mantissa % one
    if r == 0:
        return complex(x)
    if min(r, one - r) < (one >> SMALL_NORM_BITS):
        signed = r - one if 2 * r > one else r
        return _direct_linear(frac_to_float(signed, bits, wrap=False), x)
    ratio = sin_pi_reduced(x * r, bits) / sin_pi_reduced(r, bits)
    c, s = exp_circle((x + 1) * r, bits + 1)
    return complex(ratio * c, ratio * s)


def double_kfree_sum_naive(
    theta: FixedReal,
    H: int,
    x: int,
    k: int,
    memory_bytes: int = DEFAULT_MEMORY_BYTES,
) -> complex:
    """Direct double sum over h <= H and sieved k-free n <= x."""
    if H < 1 or x < 1:
        return 0j
    flags = sieve_kfree(k, 1, x, memory_bytes).flags
    ns = (np.nonzero(flags)[0] + 1).astype(np.uint64)
    bits = theta.scale_bits
    one = 1 << bits
    t = theta.mantissa % one
    return complex_fsum(
        _unit_sum(TWO_PI * frac_vector((t * h) % one, bits, ns)) for h in range(1, H + 1)
    )


@dataclass(frozen=True)
class HyperbolaSplit:
    """Three-way decomposition; sum_A + sum_B - sum_C equals the naive sum."""

    y: float
    sum_A: complex
    sum_B: complex
    sum_C: complex

    def combined(self) -> complex:
        return self.sum_A + self.sum_B - self.sum_C


def double_kfree_sum_hyperbola(
    theta: FixedReal,
    H: int,
    x: int,
    k: int,
    y: float | None = None,
    memory_bytes: int = DEFAULT_MEMORY_BYTES,
) -> HyperbolaSplit:
    """Hyperbola evaluation of the double k-free sum with split parameter y.

    A: m**k <= y, inner geometric sum over l <= x/m**k (closed form);
    B: l <= x/y, inner Moebius-weighted sum over m**k <= x/l (direct);
    C: the overlap, geometric over l <= x/y.
    """
    if y is None:
        y = split_parameter(x, k)
    if not 1.0 <= y <= float(x):
        raise ValueError("need 1 <= y <= x")
    bits = theta.scale_bits
    one = 1 << bits
    t = theta.mantissa % one

    m_top = iroot(x, k)
    mu = sieve_moebius(1, max(m_top, 1), memory_bytes).mu
    ma = iroot(int(y), k)
    lc = int(math.floor(x / y))
    mk_all = (np.arange(1, m_top + 1, dtype=np.uint64)) ** k

    parts_a, parts_c = [], []
    for h in range(1, H + 1):
        for m in range(1, ma + 1):
            w = int(mu[m - 1])
            if not w:
                continue
            base = FixedReal((t * h * m**k) % one, bits)
            parts_a.append(w * linear_exp_sum(base, x // m**k))
            parts_c.append(w * linear_exp_sum(base, lc))

    parts_b = []
    for h in range(1, H + 1):
        th = (t * h) % one
        for l in range(1, lc + 1):
            mb = iroot(x // l, k)
            mus = mu[:mb]
            nz = np.nonzero(mus)[0]
            if len(nz) == 0:
                continue
            parts_b.append(_weighted_unit_sum(
                mus[nz].astype(np.float64), TWO_PI * frac_vector((th * l) % one, bits, mk_all[nz])
            ))

    return HyperbolaSplit(y, complex_fsum(parts_a), complex_fsum(parts_b), complex_fsum(parts_c))


@dataclass(frozen=True)
class ThetaApprox:
    """theta together with a reduced rational a/q with |theta - a/q| <= 1/q**2."""

    theta: FixedReal
    a: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if math.gcd(self.a, self.q) != 1:
            raise ValueError("a/q must be reduced")
        center = Fraction(self.theta.mantissa, 1 << self.theta.scale_bits)
        err = Fraction(self.theta.err_ulps, 1 << self.theta.scale_bits)
        if abs(center - Fraction(self.a, self.q)) > Fraction(1, self.q**2) + err:
            raise ValueError("|theta - a/q| exceeds 1/q**2")


@dataclass(frozen=True)
class BoundReport:
    """Measured quantity against a stated bound expression."""

    lhs: float
    rhs_expression: str
    rhs_value: float
    ratio: float
    params: dict = field(default_factory=dict)


def double_sum_bound_check(
    t: ThetaApprox,
    H: int,
    x: int,
    k: int,
    eps: float = 0.05,
    y: float | None = None,
    include_naive: bool = True,
    memory_bytes: int = DEFAULT_MEMORY_BYTES,
) -> BoundReport:
    """Compare |double k-free sum| against (H*x^(k/(2k-1)) + q + H*x/q)*x^eps.

    With include_naive the lhs is the directly summed value and the report
    records the gap to the hyperbola evaluation; otherwise the hyperbola
    value stands alone.
    """
    if not (t.q <= x and H <= x):
        raise ValueError("need q <= x and H <= x")
    split = double_kfree_sum_hyperbola(t.theta, H, x, k, y, memory_bytes)
    combined = split.combined()
    gap = None
    if include_naive:
        naive = double_kfree_sum_naive(t.theta, H, x, k, memory_bytes)
        gap = abs(naive - combined)
        lhs = abs(naive)
    else:
        lhs = abs(combined)
    rhs = (H * x ** (k / (2.0 * k - 1.0)) + t.q + H * x / t.q) * x**eps
    params = {"H": H, "x": x, "k": k, "q": t.q, "a": t.a, "eps": eps, "y": split.y}
    if gap is not None:
        params["hyperbola_gap"] = gap
    return BoundReport(lhs, "(H*x^(k/(2k-1)) + q + H*x/q)*x^eps", rhs, lhs / rhs, params)


def _min_sum_report(t: ThetaApprox, M: int, x: int, flat: bool) -> BoundReport:
    bits = t.theta.scale_bits
    one = 1 << bits
    n = np.arange(1, M + 1, dtype=np.uint64)
    f = frac_vector(t.theta.mantissa % one, bits, n)
    dist = np.minimum(f, 1.0 - f)
    with np.errstate(divide="ignore"):
        inv = 0.5 / dist  # dist == 0 yields inf; min() then picks the other arm
    if flat:
        terms = np.minimum(float(x), inv)
        rhs = (M + x + M * x / t.q + t.q) * math.log(2.0 * t.q * x)
        expr = "(M + x + M*x/q + q)*log(2*q*x)"
    else:
        terms = np.minimum(x / n.astype(np.float64), inv)
        rhs = (M + t.q + x / t.q) * math.log(2.0 * t.q * x)
        expr = "(M + q + x/q)*log(2*q*x)"
    lhs = float(np.sum(terms))
    params = {"M": M, "x": x, "q": t.q, "a": t.a}
    return BoundReport(lhs, expr, rhs, lhs / rhs, params)


def min_sum_scaled(t: ThetaApprox, M: int, x: int) -> BoundReport:
    """sum_{n<=M} min(x/n, 1/(2||n*theta||)) against (M + q + x/q)*log(2qx)."""
    if M < 1 or x < 1:
        raise ValueError("need M >= 1 and x >= 1")
    return _min_sum_report(t, M, x, flat=False)


def min_sum_flat(t: ThetaApprox, M: int, x: int) -> BoundReport:
    """sum_{n<=M} min(x, 1/(2||n*theta||)) against (M + x + M*x/q + q)*log(2qx)."""
    if M < 1 or x < 1:
        raise ValueError("need M >= 1 and x >= 1")
    return _min_sum_report(t, M, x, flat=True)


def mobius_exp_sum(theta: FixedReal, X: int, k: int,
                   memory_bytes: int = DEFAULT_MEMORY_BYTES) -> complex:
    """sum over m with m**k <= X of mu(m) * e(theta * m**k)."""
    if X < 1:
        raise ValueError("X must be >= 1")
    r = iroot(X, k)
    mu = sieve_moebius(1, max(r, 1), memory_bytes).mu
    nz = np.nonzero(mu[:r])[0]
    if len(nz) == 0:
        return 0j
    bits = theta.scale_bits
    mk = (nz.astype(np.uint64) + 1) ** k
    f = frac_vector(theta.mantissa % (1 << bits), bits, mk)
    return _weighted_unit_sum(mu[:r][nz].astype(np.float64), TWO_PI * f)
