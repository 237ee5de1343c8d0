"""Exponential sums over k-free integers and their hyperbola decomposition.

The double sum  sum_{h<=H} sum_{n<=x, n k-free} e(theta*h*n)  is evaluated
two ways: term by term over sieved k-free n (the naive path), and through
the three-way split induced by the Moebius identity for the k-free
indicator. In the split, sum A takes its long inner sums over l in closed
geometric form; sums B and C are direct Moebius-weighted sums over their
pairs (l, m), n = l*m**k <= x. Every direct sum goes through one power-sum
kernel: the angle of each n is reduced exactly from the fixed-point
mantissa of theta once, and e(theta*h*n) for h = 1..H follows by complex
multiplication. Each path sums its partials exactly rounded
(complex_fsum), so the two agree to within the float64 error of the
partials themselves. Because the naive sum and sums B and C share the
kernel, their agreement checks the split, not the kernel; the kernel is
checked against one exact reduction per (h, n) in the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fixed import TILE, FixedReal, exp_circle, frac_to_float, frac_vector, sin_pi_reduced
from .kfree import DEFAULT_MEMORY_BYTES, group_offsets, iroot, sieve_kfree, sieve_moebius

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


def _power_sum(t: int, bits: int, ns: np.ndarray, H: int,
               w: np.ndarray | None = None) -> complex:
    """sum_{h=1..H} sum_j w_j * e(h * t * ns_j / 2**bits), w_j = 1 by default.

    Per tile of TILE ns: one exact reduction z_j = e(t*ns_j / 2**bits), then
    w_j * z_j**h by one complex multiply per h and one pairwise sum per h.
    The angle is centred in [-1/2, 1/2] turns first, so its float error is
    relative to its size and not to a whole turn; z_j**h multiplies it by h.
    """
    parts = []
    for j0 in range(0, len(ns), TILE):
        f = frac_vector(t, bits, ns[j0:j0 + TILE])
        ang = TWO_PI * (f - np.rint(f))
        z = np.empty(len(ang), dtype=np.complex128)
        z.real = np.cos(ang)
        z.imag = np.sin(ang)
        v = z.copy() if w is None else z * w[j0:j0 + TILE]
        for h in range(1, H + 1):
            parts.append(complex(np.sum(v)))
            if h < H:
                v *= z
    return complex_fsum(parts)


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
    return _power_sum(theta.mantissa % (1 << theta.scale_bits), theta.scale_bits, ns, H)


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
    B: l <= x/y, Moebius-weighted sum over m**k <= x/l (direct);
    C: the overlap l <= x/y, m**k <= y, Moebius-weighted (direct).
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

    parts_a = []
    for h in range(1, H + 1):
        for m in range(1, ma + 1):
            w = int(mu[m - 1])
            if not w:
                continue
            base = FixedReal((t * h * m**k) % one, bits)
            parts_a.append(w * linear_exp_sum(base, x // m**k))

    # the (l, m) pairs of B and C with mu(m) != 0, n = l * m**k <= x
    nz = np.nonzero(mu)[0]
    mk = (nz.astype(np.uint64) + 1) ** k
    mus = mu[nz].astype(np.float64)
    ls = np.arange(1, lc + 1, dtype=np.uint64)
    per_l_b = np.searchsorted(mk, np.uint64(x) // ls, side="right")
    per_l_c = np.full(lc, np.searchsorted(nz, ma, side="left"))
    sums = []
    for per_l in (per_l_b, per_l_c):
        li, idx = group_offsets(per_l)
        sums.append(_power_sum(t, bits, ls[li] * mk[idx], H, mus[idx]))

    return HyperbolaSplit(y, complex_fsum(parts_a), sums[0], sums[1])


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
    memory_bytes: int = DEFAULT_MEMORY_BYTES,
) -> BoundReport:
    """Compare |double k-free sum| against (H*x^(k/(2k-1)) + q + H*x/q)*x^eps.

    The lhs is the directly summed value; the report records its gap to the
    hyperbola evaluation at the default split.
    """
    if not (t.q <= x and H <= x):
        raise ValueError("need q <= x and H <= x")
    split = double_kfree_sum_hyperbola(t.theta, H, x, k, None, memory_bytes)
    naive = double_kfree_sum_naive(t.theta, H, x, k, memory_bytes)
    lhs = abs(naive)
    rhs = (H * x ** (k / (2.0 * k - 1.0)) + t.q + H * x / t.q) * x**eps
    params = {"H": H, "x": x, "k": k, "q": t.q, "a": t.a, "eps": eps, "y": split.y,
              "hyperbola_gap": abs(naive - split.combined())}
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
    mu = sieve_moebius(1, max(r, 1), memory_bytes).mu[:r]
    nz = np.nonzero(mu)[0]
    bits = theta.scale_bits
    mk = (nz.astype(np.uint64) + 1) ** k
    return _power_sum(theta.mantissa % (1 << bits), bits, mk, 1, mu[nz].astype(np.float64))
