"""Exponential sums over k-free integers and their hyperbola decomposition.

The double sum  sum_{h<=H} sum_{n<=x, n k-free} e(theta*h*n)  is evaluated
two ways, by two kernels. The dense naive path sums straight over the sieve
flags: with n = a*2**s + b, the inner sums over b for every h are one real
matrix product per chunk of flags against a table of e(h*theta*b), and the
outer sums over a weight them by a table of e(h*theta*a*2**s); every table
entry is one exact reduction of the fixed-point mantissa of theta. The
hyperbola path goes through the Moebius identity for the k-free indicator,
n = l*m**k <= x weighted by mu(m): for each (h, m) the sum over l is one
closed geometric form (linear_exp_sum), whose angles are uint64 words of
three frac_u64 passes, within 2**-61 of their values, with exact integer
reductions only on the few pairs where such a word would not keep the
angle's relative precision. Split at m**k = y, the m <= y**(1/k) give sum A
and the rest sum B, from the same closed forms. Each path sums its partials
exactly rounded (complex_fsum), so the two agree to within the float64
error of the partials themselves. The two paths share no kernel, so their
agreement checks the kernels as well as the identity; the tests also check
the naive sum against one exact reduction per (h, n), and sum B against a
direct Moebius-weighted power sum over its pairs (l, m).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import MemoryBudgetExceeded
from .fixed import TILE, FixedReal, frac_u64, frac_vector
from .kfree import (  # noqa: F401  perfbench's binding self-test reads expsums.sieve_moebius
    DEFAULT_MEMORY_BYTES,
    MOEBIUS_SEGMENT,
    iroot,
    sieve_kfree,
    sieve_moebius,
    squarefree_segments,
)

TWO_PI = 2.0 * math.pi
# bytes per table entry and h: the complex table, its real copy and the
# temporaries of _unit_circle (about 32 measured)
_TABLE_BYTES = 64
_CHUNK_M = 1 << 13  # m per chunk of the hyperbola's closed forms
# peak bytes per (h, m) pair of a hyperbola chunk, linear_exp_sum's arrays
# and the weighted sums: 130.4 by tracemalloc
_PAIR_BYTES = 144
# peak bytes per entry of a Moebius window, the sieve of the next window
# beside the d and mu of the last: 19.6 by tracemalloc
_WINDOW_BYTES = 24
# linear_exp_sum's pairs with |phi| or |x*phi - q| below this take the exact
# reductions: a lane argument is within 2**-61 of its value, so above it
# within 2**-49 relative. 2**-12 sends 579 of the 823,004 pairs (sums A and B)
# there that expsum-sweep at its defaults (100 trials, x <= 1e5, H <= 30)
# makes at seeds 0-3.
_EXACT_BELOW = 2.0**-12
_1, _63 = np.uint64(1), np.uint64(63)
_QUARTER = np.uint64(1 << 62)
_LOW63 = np.uint64((1 << 63) - 1)


def split_parameter(x: int, k: int) -> float:
    """Default hyperbola split y = x**(k/(2k-1))."""
    return float(x) ** (k / (2.0 * k - 1.0))


def complex_fsum(parts) -> complex:
    """Exactly rounded sum of complex partials (any iterable or array):
    math.fsum per component, so the result does not depend on their order.
    An array is read as it is; other iterables are collected first."""
    if isinstance(parts, np.ndarray):
        z = parts.astype(np.complex128, copy=False)
    else:
        z = np.fromiter(parts, dtype=np.complex128)
    return complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))


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


def _exact_angles(t: int, bits: int, ns: list, xs: list):
    """(phi, half_turns, phase) of linear_exp_sum for each pair (n, x), by
    three exact integer reductions of t*n / 2**bits, each rounded once to
    float: phi = theta*n mod 1 and (x+1)*phi/2 mod 1, both centred in
    [-1/2, 1/2), and x*phi less its nearest integer q, negated when q is odd."""
    one = 1 << bits
    half, two = one >> 1, one << 1
    phi, half_turns, phase = [], [], []
    for n, x in zip(ns, xs):
        r = (t * n + half) % one - half
        xr = x * r
        q, u = divmod(xr + half, one)
        phi.append(r / one)
        half_turns.append((half - u if q & 1 else u - half) / one)
        phase.append(((xr + r + one) % two - one) / two)
    return phi, half_turns, phase


def linear_exp_sum(theta: FixedReal, ns, xs) -> np.ndarray:
    """[sum_{l=1..xs_j} e(theta * ns_j * l) for each pair j] by the closed form

        e((x+1)*phi/2) * sin(pi*x*phi) / sin(pi*phi),

    for n, x >= 0 below 2**64. Its three arguments come from uint64 lanes,
    three frac_u64 calls of theta/2 on the whole arrays: b, a and c,
    theta*n/2, theta*x*n/2 and theta*(x+1)*n/2 mod 1, each within 4 units of
    2**-64. The word b fixes phi = 2b mod 1, centred in [-1/2, 1/2), and the
    parity of the integer R = theta*n - phi: R is odd iff b lies in
    [1/4, 3/4). Then x*phi = 2a - x*R and (x+1)*phi/2 = c - (x+1)*R/2
    (mod 2 and mod 1) use that same representative of phi, as the closed
    form needs. x*phi is centred on its nearest integer q, whose sine is
    sin(pi*x*phi) up to the sign (-1)**q, so both sines take arguments in
    [-1/2, 1/2) turns, each within 2**-61 of its exact value.

    The pairs where that slack is not small against the argument, |phi| or
    |x*phi - q| below _EXACT_BELOW (phi = 0 and x = 0 among them), or where
    (x+1)*n reaches 2**63, take _exact_angles, the exact integer reductions.
    Elsewhere each sine's argument is within 2**-49 relative of its exact
    value and the phase within 2**-62 turns, so each sum is within 2**-48
    (3.6e-15) relative of the closed form at exact arguments, before the few
    ulp of the sines, cosines and ratio. phi = 0 gives exactly x.
    """
    bits = theta.scale_bits
    t = theta.mantissa % (1 << bits)
    ns = np.asarray(ns, dtype=np.uint64)
    xs = np.asarray(xs)
    if xs.size and xs.min() < 0:
        raise ValueError(f"xs must be >= 0, got {xs.min()}")
    xs = xs.astype(np.uint64)
    b = frac_u64(t, bits + 1, ns)
    odd = (b + _QUARTER) >> _63
    phi = (b << _1).view(np.int64) * 2.0**-64
    # x*phi mod 2 in units of 2**-63, shifted by 1/2 so that its top bit is q mod 2
    v = frac_u64(t, bits + 1, xs * ns) ^ ((xs & odd) << _63)
    v += _QUARTER
    u = ((v & _LOW63).view(np.int64) - (1 << 62)) * 2.0**-63
    half_turns = np.where(v >> _63, -u, u)
    x1 = xs + _1
    phase = (frac_u64(t, bits + 1, x1 * ns) ^ ((x1 & odd) << _63)).view(np.int64) * 2.0**-64
    slow = np.abs(phi) < _EXACT_BELOW
    slow |= np.abs(half_turns) < _EXACT_BELOW
    slow |= ns > _LOW63 // (np.minimum(xs, _LOW63) + _1)  # (x+1)*n >= 2**63
    if slow.any():
        exact = _exact_angles(t, bits, ns[slow].tolist(), xs[slow].tolist())
        phi[slow], half_turns[slow], phase[slow] = exact
    zero = phi == 0.0
    den = np.sin(np.pi * np.where(zero, 0.5, phi))
    ratio = np.sin(np.pi * half_turns) / den
    ratio[zero] = xs[zero]
    ang = TWO_PI * phase
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
    """Direct double sum over h <= H and k-free n <= x, straight from the
    sieve flags.

    With n = a * 2**s + b, b < 2**s and s half the bit length of x rounded
    up, S_h = sum_a e(h*theta*a*2**s) * sum_b F[a, b] * e(h*theta*b), where
    F is the flags in rows of 2**s, zero at n = 0 and past x. The twiddle
    tables lo[b, h] = e(h*theta*b) and hi[a, h] = e(h*theta*a*2**s) take one
    _unit_circle call each, over the products h*b and h*a*2**s. Per chunk of
    TILE flags the inner sums of every h are one real matrix product,
    F_chunk @ [lo.real | lo.imag]; their products with the hi rows are summed
    per h and the per-h partials exactly rounded by complex_fsum. The h run
    in as few blocks as fit their two tables into what memory_bytes leaves
    after the sieve, two reductions per block; MemoryBudgetExceeded when the
    tables of one h do not fit.

    Float bound: each table entry is one exact reduction, within 2**-54 +
    2**-62 turns of its angle before cos and sin round, so it is within a few
    ulp of its value for any h; no power of a rounded entry is taken, and the
    error does not grow with h. Each inner sum adds 2**s terms of modulus
    <= 1 and each S_h about x / 2**s products of an inner sum with a hi
    entry, so S_h is within a few ulp of x in the worst case.
    """
    if H < 1 or x < 1:
        return 0j
    flags = sieve_kfree(k, 1, x, memory_bytes)
    if H * x >> 64:
        raise ValueError(f"H*x = {H * x} exceeds 2**64; the products h*n are uint64")
    bits = theta.scale_bits
    t = theta.mantissa % (1 << bits)
    s = (x.bit_length() + 1) // 2
    width, rows = 1 << s, (x >> s) + 1
    per_h = _TABLE_BYTES * (width + rows)
    left = memory_bytes - flags.nbytes
    if per_h > left:
        raise MemoryBudgetExceeded(
            f"twiddle tables for x={x} need {per_h} bytes per h, the sieve leaves "
            f"{left} of the budget {memory_bytes}", per_h + flags.nbytes)
    size = -(-H // -(-H * per_h // left))  # h per block, over the fewest blocks
    step = max(1, TILE >> s)  # rows per chunk
    b = np.arange(width, dtype=np.uint64)
    a = np.arange(rows, dtype=np.uint64) << np.uint64(s)
    parts = []
    for h0 in range(1, H + 1, size):
        hs = np.arange(h0, min(h0 + size, H + 1), dtype=np.uint64)
        nh = len(hs)
        lo = _unit_circle(t, bits, np.outer(b, hs).ravel()).reshape(width, nh)
        lo = np.hstack([lo.real, lo.imag])  # one real product gives both parts
        hi = _unit_circle(t, bits, np.outer(a, hs).ravel()).reshape(rows, nh)
        for a0 in range(0, rows, step):
            a1 = min(a0 + step, rows)
            f = np.zeros((a1 - a0) << s)
            n0, n1 = max(a0 << s, 1), min(a1 << s, x + 1)
            f[n0 - (a0 << s):n1 - (a0 << s)] = flags[n0 - 1:n1 - 1]
            p = f.reshape(a1 - a0, width) @ lo
            inner = p[:, :nh] + 1j * p[:, nh:]
            inner *= hi[a0:a1]
            parts.append(inner.sum(axis=0))
    return complex_fsum(np.concatenate(parts))


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

    By the Moebius identity S = sum_h sum_{m**k <= x} mu(m) *
    G(h*theta*m**k, x // m**k), G(phi, L) = sum_{l<=L} e(phi*l) in closed
    form (linear_exp_sum). Sum A is the m with m**k <= y, sum B the rest:
    the m come one Moebius window at a time (squarefree_segments) and in it
    in chunks of _CHUNK_M m, each one linear_exp_sum call over its (h, m)
    pairs laid out m-major, so that sum A's pairs are a prefix of the chunk.
    Each chunk adds one np.sum partial to A and one to B. The chunks shrink
    to fit what memory_bytes leaves after the window, at _PAIR_BYTES per
    pair; MemoryBudgetExceeded when the H closed forms of one m do not fit.

    Float bound: each closed form is within 2**-48 relative of its value (a
    few ulp more for its sines, cosines and ratio), mu(m) = +-1 weighs it
    exactly, a pairwise np.sum over n terms adds about log2(n) ulp of the
    sum of their moduli, and complex_fsum rounds the chunk partials exactly.
    So A and B are each within about (2**-48 + log2(H*_CHUNK_M)*2**-53)
    times the sum of |G| over their pairs, at most H*x*zeta(k).
    """
    if y is None:
        y = split_parameter(x, k)
    if not 1.0 <= y <= float(x):
        raise ValueError("need 1 <= y <= x")
    if H < 1:
        return HyperbolaSplit(y, 0j, 0j)
    if H * x >> 64:
        raise ValueError(f"H*x = {H * x} exceeds 2**64; the products h*m**k are uint64")
    m_top = iroot(x, k)
    ma = iroot(int(y), k)  # m**k <= y iff m <= ma
    window = _WINDOW_BYTES * min(MOEBIUS_SEGMENT, m_top) + math.isqrt(m_top) + 1
    per_m, left = _PAIR_BYTES * H, memory_bytes - window
    if per_m > left:
        raise MemoryBudgetExceeded(
            f"closed forms for x={x}, H={H} need {per_m} bytes per m, the Moebius "
            f"window leaves {left} of the budget {memory_bytes}", per_m + window)
    chunk = min(_CHUNK_M, left // per_m)
    hs = np.arange(1, H + 1, dtype=np.uint64)
    parts_a, parts_b = [], []
    for d, mu in squarefree_segments(m_top, memory_bytes):
        for c0 in range(0, len(d), chunk):
            m = d[c0:c0 + chunk]
            mk = m.astype(np.uint64) ** k
            sums = linear_exp_sum(theta, np.outer(mk, hs).ravel(), np.repeat(np.uint64(x) // mk, H))
            sums = sums.reshape(len(m), H)
            sums *= mu[c0:c0 + chunk, None]
            na = int(np.searchsorted(m, ma, "right"))
            parts_a.append(np.sum(sums[:na]))
            parts_b.append(np.sum(sums[na:]))
    return HyperbolaSplit(y, complex_fsum(parts_a), complex_fsum(parts_b))


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
    # the naive sieve first: past the budget it raises before the closed forms run
    naive = double_kfree_sum_naive(t.theta, H, x, k, memory_bytes)
    split = double_kfree_sum_hyperbola(t.theta, H, x, k, None, memory_bytes)
    lhs = abs(naive)
    rhs = (H * x ** (k / (2.0 * k - 1.0)) + t.q + H * x / t.q) * x**eps
    return BoundReport(lhs, rhs, lhs / rhs, abs(naive - split.combined()))
