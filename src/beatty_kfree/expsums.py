"""Exponential sums over k-free integers and their hyperbola decomposition.

The double sum  sum_{h<=H} sum_{n<=x, n k-free} e(theta*h*n)  is evaluated
two ways: term by term over sieved k-free n (the naive path), and through
the Moebius identity for the k-free indicator, n = l*m**k <= x weighted by
mu(m), split at m**k = y into two disjoint parts. Sum A (m**k <= y) takes
its long inner sums over l in closed geometric form, all (h, m) pairs in one
vectorised linear_exp_sum call; sum B (m**k > y, so l <= x/y) is a direct
Moebius-weighted sum over its pairs (l, m). Every direct sum goes through one
power-sum kernel: e(theta*n) is the product of two entries of twiddle tables
of about sqrt(max n) entries each, built once per call by exact reductions of
the fixed-point mantissa of theta, so it is within a few ulp of the value;
and e(theta*h*n) for h = 1..H follows by complex multiplication. Each path sums
its partials exactly rounded (complex_fsum), so the two agree to within the
float64 error of the partials themselves. Because the naive sum and sum B
share the kernel, their agreement checks the split, not the kernel; the
kernel is checked against one exact reduction per (h, n) in the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fixed import TILE, FixedReal, frac_vector
from .kfree import DEFAULT_MEMORY_BYTES, group_offsets, iroot, sieve_kfree, sieve_moebius

TWO_PI = 2.0 * math.pi


def split_parameter(x: int, k: int) -> float:
    """Default hyperbola split y = x**(k/(2k-1))."""
    return float(x) ** (k / (2.0 * k - 1.0))


def complex_fsum(parts) -> complex:
    """Exactly rounded sum of complex partials (any iterable or array):
    math.fsum per component, so the result does not depend on their order."""
    z = np.fromiter(parts, dtype=np.complex128)
    return complex(math.fsum(z.real), math.fsum(z.imag))


def _unit_circle(t: int, bits: int, ns: np.ndarray) -> np.ndarray:
    """e(t * ns_j / 2**bits) per entry: one exact reduction, the angle centred
    in [-1/2, 1/2) turns so that its float error is relative to its size and
    not to a whole turn, then one cos and one sin."""
    f = frac_vector(t, bits, ns)
    ang = TWO_PI * (f - np.rint(f))
    z = np.empty(len(ang), dtype=np.complex128)
    z.real = np.cos(ang)
    z.imag = np.sin(ang)
    return z


def _power_sum(t: int, bits: int, ns: np.ndarray, H: int,
               w: np.ndarray | None = None) -> complex:
    """sum_{h=1..H} sum_j w_j * e(h * t * ns_j / 2**bits), w_j = 1 by default.

    Each n splits as n = a * 2**s + b, b < 2**s, with s half the bit length
    of max(ns) rounded up, and e(theta*n) = e(theta*b) * e(theta*a*2**s).
    Two twiddle tables, lo[b] = e(theta*b) for b < 2**s and hi[a] =
    e(theta*a*2**s) for a <= max(ns) >> s, are built once per call by
    _unit_circle: about 2*sqrt(max(ns)) reductions and cos/sin pairs in all,
    in place of one per element. Per tile of TILE ns, z_j = lo[b_j] * hi[a_j]
    is two gathers and one complex product; then w_j * z_j**h follows by one
    complex multiply per h and one pairwise sum per h.

    Each factor is within 2**-54 + 2**-62 turns of its exact angle before the
    rounding of cos and sin, so z_j is within a few ulp of e(theta*n_j),
    about twice the error of a direct reduction; z_j**h multiplies it by h.
    """
    ns = np.asarray(ns, dtype=np.uint64)
    if not len(ns):
        return 0j
    top = int(ns.max())
    s = (top.bit_length() + 1) // 2
    mask, shift = np.uint64((1 << s) - 1), np.uint64(s)
    lo = _unit_circle(t, bits, np.arange(1 << s, dtype=np.uint64))
    hi = _unit_circle(t, bits, np.arange((top >> s) + 1, dtype=np.uint64) << shift)
    parts = []
    for j0 in range(0, len(ns), TILE):
        n = ns[j0:j0 + TILE]
        # int64 views: numpy gathers by a uint64 index at about twice the cost
        z = lo[(n & mask).view(np.int64)]
        z *= hi[(n >> shift).view(np.int64)]
        v = z.copy() if w is None else z * w[j0:j0 + TILE]
        for h in range(1, H + 1):
            parts.append(complex(np.sum(v)))
            if h < H:
                v *= z
    return complex_fsum(parts)


def linear_exp_sum(theta: FixedReal, ns, xs) -> np.ndarray:
    """[sum_{l=1..xs_j} e(theta * ns_j * l) for each pair j] by the closed form

        e((x+1)*phi/2) * sin(pi*x*phi) / sin(pi*phi),  phi = theta*n mod 1.

    Per pair, three exact integer reductions of the mantissa, each rounded
    once to float, all centred in [-1/2, 1/2): phi; x*phi less its nearest
    integer q, whose sine is sin(pi*x*phi) up to the sign (-1)**q; and
    (x+1)*phi/2 mod 1. So every argument keeps its relative precision
    however small phi is, and phi = 0 gives exactly x. Only the sines,
    cosines and the ratio run in numpy, one pass over all pairs.
    """
    one = 1 << theta.scale_bits
    half, two = one >> 1, one << 1
    t = theta.mantissa % one
    phi, half_turns, phase = [], [], []
    xs = np.asarray(xs).tolist()
    if xs and min(xs) < 0:
        raise ValueError(f"xs must be >= 0, got {min(xs)}")
    for n, x in zip(np.asarray(ns).tolist(), xs):
        r = (t * n + half) % one - half
        xr = x * r
        q, u = divmod(xr + half, one)
        phi.append(r / one)
        half_turns.append((half - u if q & 1 else u - half) / one)
        phase.append(((xr + r + one) % two - one) / two)
    phi = np.array(phi, dtype=np.float64)
    zero = phi == 0.0
    den = np.sin(np.pi * np.where(zero, 0.5, phi))
    ratio = np.sin(np.pi * np.array(half_turns)) / den
    ratio[zero] = np.array(xs, dtype=np.float64)[zero]
    ang = TWO_PI * np.array(phase)
    out = np.empty(len(phi), dtype=np.complex128)
    out.real = ratio * np.cos(ang)
    out.imag = ratio * np.sin(ang)
    return out


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
    flags = sieve_kfree(k, 1, x, memory_bytes)
    ns = (np.nonzero(flags)[0] + 1).astype(np.uint64)
    return _power_sum(theta.mantissa % (1 << theta.scale_bits), theta.scale_bits, ns, H)


@dataclass(frozen=True)
class HyperbolaSplit:
    """Two-way decomposition at m**k = y; sum_A + sum_B equals the naive sum."""

    y: float
    sum_A: complex
    sum_B: complex

    def combined(self) -> complex:
        return self.sum_A + self.sum_B


def double_kfree_sum_hyperbola(
    theta: FixedReal,
    H: int,
    x: int,
    k: int,
    y: float | None = None,
    memory_bytes: int = DEFAULT_MEMORY_BYTES,
) -> HyperbolaSplit:
    """Hyperbola evaluation of the double k-free sum with split parameter y.

    A: m**k <= y, inner geometric sum over l <= x/m**k in closed form, one
       linear_exp_sum call over all pairs (h, m) with mu(m) != 0;
    B: y < m**k <= x/l, hence l <= x/y, Moebius-weighted and summed
       directly, one _power_sum call over all its pairs (l, m).
    """
    if y is None:
        y = split_parameter(x, k)
    if not 1.0 <= y <= float(x):
        raise ValueError("need 1 <= y <= x")
    bits = theta.scale_bits
    one = 1 << bits
    t = theta.mantissa % one

    m_top = iroot(x, k)
    mu = sieve_moebius(1, max(m_top, 1), memory_bytes)
    ma = iroot(int(y), k)
    lc = math.floor(x / Fraction(y))  # exact: a float x / y can round up past it

    # the m with mu(m) != 0, m**k <= x; the first na of them have m**k <= y
    nz = np.nonzero(mu)[0]
    mk = (nz.astype(np.uint64) + 1) ** k
    mus = mu[nz].astype(np.float64)
    na = int(np.searchsorted(nz, ma))

    # A: one closed form per pair (h, m), in one call
    hs = np.arange(1, H + 1, dtype=np.uint64)
    sums_l = linear_exp_sum(theta, np.outer(hs, mk[:na]).ravel(),
                            np.tile(np.uint64(x) // mk[:na], H))
    sum_a = complex_fsum(sums_l * np.tile(mus[:na], H))

    # B: per l <= lc the m past the first na with m**k <= x/l; x/l >= y, so
    # x//l >= floor(y) >= ma**k and no count is negative (np.repeat would raise)
    ls = np.arange(1, lc + 1, dtype=np.uint64)
    li, idx = group_offsets(np.searchsorted(mk, np.uint64(x) // ls, side="right") - na)
    idx += na
    sum_b = _power_sum(t, bits, ls[li] * mk[idx], H, mus[idx])

    return HyperbolaSplit(y, sum_a, sum_b)


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
    """|double k-free sum| against (H*x^(k/(2k-1)) + q + H*x/q)*x^eps, and the
    gap between its naive and its hyperbola evaluation."""

    lhs: float
    rhs_value: float
    ratio: float
    hyperbola_gap: float


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
    # the naive sieve first: past the budget it raises before any pair array is built
    naive = double_kfree_sum_naive(t.theta, H, x, k, memory_bytes)
    split = double_kfree_sum_hyperbola(t.theta, H, x, k, None, memory_bytes)
    lhs = abs(naive)
    rhs = (H * x ** (k / (2.0 * k - 1.0)) + t.q + H * x / t.q) * x**eps
    return BoundReport(lhs, rhs, lhs / rhs, abs(naive - split.combined()))
